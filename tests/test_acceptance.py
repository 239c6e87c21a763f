"""Acceptance gate: one test per shipping criterion, each printing PASS/FAIL.

Criteria cover the normal-form engine, the straightening identities, the
domain and center computations, mu-periodicity, module construction and
simplicity, the dimension-1 classification against an independent brute
force, the isomorphism criteria against intertwiner search, and CLI
determinism.  Everything is exact arithmetic; "tolerance" is equality.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from qgha.algebra import AlgebraSpec, PBWElement, commutator, theta
from qgha.cli import main
from qgha.fields import FieldSpec
from qgha.linalg import Matrix, nullspace
from qgha.modules import (
    build_matrix_rep,
    enumerate_simples,
    is_simple_bruteforce,
    is_simple_structural,
    iso_bruteforce,
    iso_structural,
    verify_relations,
)
from qgha.poly import Poly
from qgha.spectra import MuSequence, enumerate_lambda_orbits
from qgha.structure import center_basis_truncated, conformal_witness, domain_check

QQ = FieldSpec.rationals()
F5 = FieldSpec.prime(5)
F49 = FieldSpec.extension(7, 2)


@contextmanager
def criterion(n, label):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {n}: FAIL - {label}")
        raise
    print(f"criterion {n}: PASS - {label} ({time.monotonic() - start:.1f}s)")


def parameter_sets():
    """Ten algebras spanning Q, GF(5), GF(7^2), deg f,g <= 3, varied q."""
    u = F49.generator

    def el(spec, v):
        return spec.element(v)

    rows = [
        (QQ, 1, [0, 0, 1], [0, 1]),
        (QQ, 2, [1, 0, 1], [0, -1, 0, 1]),
        (QQ, -1, [0, 0, 0, 1], [0, 0, 1]),
        (QQ, Fraction(1, 2), [1, 2], [3]),
        (F5, 2, [0, 0, 1], [0, 1]),
        (F5, 4, [0, 1, 0, 1], [0, 3, 1]),
        (F5, 0, [1, 1], [2, 0, 0, 1]),
    ]
    algs = [
        AlgebraSpec(spec, el(spec, q), Poly.from_ints(spec, f), Poly.from_ints(spec, g), 4096)
        for spec, q, f, g in rows
    ]
    algs.append(AlgebraSpec(F49, u, Poly.from_ints(F49, [0, 0, 1]),
                            Poly(F49, [F49.one, u]), 4096))
    algs.append(AlgebraSpec(F49, el(F49, 3), Poly(F49, [u, F49.zero, F49.zero, F49.one]),
                            Poly.gen(F49), 4096))
    algs.append(AlgebraSpec(F49, el(F49, 6), Poly(F49, [F49.zero, F49.zero, u]),
                            Poly(F49, [u, F49.zero, F49.one]), 4096))
    return algs


def random_element(alg, rng, max_exp=2, max_deg=2, max_terms=2):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        key = (rng.randint(0, max_exp), rng.randint(0, max_exp))
        terms[key] = Poly(alg.field, [alg.field.random_element(rng)
                                      for _ in range(rng.randint(1, max_deg + 1))])
    return PBWElement(alg, terms)


def test_criterion_1_pbw_engine_associativity():
    with criterion(1, "normal-form engine: 10 parameter sets x 500 associativity triples"):
        start = time.monotonic()
        for idx, alg in enumerate(parameter_sets()):
            rng = random.Random(1000 + idx)
            for _ in range(500):
                a = random_element(alg, rng)
                b = random_element(alg, rng)
                c = random_element(alg, rng)
                assert (a * b) * c == a * (b * c)
        assert time.monotonic() - start < 60


def test_criterion_2_straightening_identities():
    with criterion(2, "straightening: y x^k and y^k x match the theta closed form, k <= 6"):
        for alg in parameter_sets():
            x = PBWElement.x(alg)
            y = PBWElement.y(alg)
            for k in range(1, 7):
                th = theta(alg, k)
                qk = alg.q ** k
                lhs = y * PBWElement.x(alg, k)
                rhs = PBWElement.monomial(alg, k, Poly.constant(alg.field, qk), 1) \
                    + PBWElement.monomial(alg, k - 1, th, 0)
                assert lhs == rhs
                lhs2 = PBWElement.y(alg, k) * x
                rhs2 = PBWElement.monomial(alg, 1, Poly.constant(alg.field, qk), k) \
                    + PBWElement.monomial(alg, 0, th, k - 1)
                assert lhs2 == rhs2
                assert theta(alg, k + 1) == alg.sigma(th) + alg.g * (alg.q ** k)


def test_criterion_3_domain_criterion_grid():
    with criterion(3, "domain criterion on the q x f grid, witnesses multiply to zero"):
        cells = [
            (q, f, g)
            for q in (0, 1, 2)
            for f in ([3], [0, 1], [0, 0, 1])
            for g in ([0, 1],)
        ]
        # extra cells so every witness construction is exercised
        cells += [(0, [0, 1], []), (0, [0, 0, 1], [1, 0, 1]), (1, [3], [])]
        for q, f, g in cells:
            alg = AlgebraSpec(QQ, QQ.element(q), Poly.from_ints(QQ, f), Poly.from_ints(QQ, g))
            report = domain_check(alg)
            assert report.is_domain == (q != 0 and alg.f.degree >= 1)
            if not report.is_domain:
                assert not report.left.is_zero
                assert not report.right.is_zero
                assert (report.left * report.right).is_zero


def _span_contains(basis, element):
    alg = element.alg
    keys = sorted({k for b in basis for k in b.terms} | set(element.terms))
    width = 1 + max(p.degree for b in basis + [element] for p in b.terms.values())
    cols = [
        [b.coefficient(*key).coefficient(d) for key in keys for d in range(width)]
        for b in basis + [element]
    ]
    rows = [[col[i] for col in cols] for i in range(len(cols[0]))]
    return any(not v[-1].is_zero for v in nullspace(rows, alg.field, len(cols)))


def test_criterion_4_center_bases():
    with criterion(4, "truncated center: {1} over Q, {1, Z^4} over GF(5)"):
        start = time.monotonic()
        alg_q = AlgebraSpec(QQ, QQ.element(2), Poly.from_ints(QQ, [0, 0, 1]), Poly.gen(QQ))
        basis_q = center_basis_truncated(alg_q, 4, 8)
        assert basis_q == [PBWElement.one(alg_q)]

        # g = sigma(h) - 2h = h^2 + 3h: conformal, q = 2 of order 4 in GF(5)
        alg5 = AlgebraSpec(F5, F5.element(2), Poly.from_ints(F5, [0, 0, 1]),
                           Poly.from_ints(F5, [0, 3, 1]), 2048)
        z4 = conformal_witness(alg5).z ** 4
        basis5 = center_basis_truncated(alg5, 4, max(p.degree for p in z4.terms.values()))
        assert len(basis5) == 2
        assert PBWElement.one(alg5) in basis5
        assert _span_contains(basis5, z4)
        for b in basis5:
            for gen in (PBWElement.x(alg5), PBWElement.y(alg5), PBWElement.h(alg5)):
                assert commutator(b, gen).is_zero
        assert time.monotonic() - start < 30


def brute_mu_period(mu, limit=600):
    vals = mu.values(2 * limit)
    step = mu.orbit.period
    for t in range(step, limit, step):
        if all(vals[i + t] == vals[i] for i in range(limit)):
            return t // step
    return 0


def test_criterion_5_mu_period_oracle():
    with criterion(5, "mu-period closed form vs direct cycle detection, char-p case hit"):
        char_p_hits = 0
        for p in (2, 3, 5, 7):
            field = FieldSpec.prime(p)
            rng = random.Random(500 + p)
            instances = [
                (Poly.from_ints(field, [0, 0, 1]), Poly.gen(field), field.one),
                (Poly.from_ints(field, [1, 1]), Poly.from_ints(field, [1, 0, 1]),
                 field.element(p - 1)),
                (Poly.from_ints(field, [0, 1, 1]), Poly.from_ints(field, [1, 1]),
                 field.element(2 if p > 2 else 1)),
            ]
            for f, g, q in instances:
                for orbit in enumerate_lambda_orbits(field, f, p):
                    big_q = q ** orbit.period
                    for _ in range(20):
                        beta = field.random_element(rng)
                        mu = MuSequence(orbit, q, g, beta)
                        expected = brute_mu_period(mu)
                        assert mu.period == expected, (p, f.render(), g.render(), str(beta))
                        if mu.period == p and big_q.is_one:
                            char_p_hits += 1
        assert char_p_hits > 0


def test_criterion_6_module_families_grid():
    with criterion(6, "enumerated modules: relations, brute simplicity, power identities"):
        total = 0
        for f_c, g_c, q in itertools.product(
            ([0, 0, 1], [0, 0, 0, 1]), ([0, 1], [0, 0, 1]), (2, 3, 4)
        ):
            alg = AlgebraSpec(F5, F5.element(q), Poly.from_ints(F5, f_c), Poly.from_ints(F5, g_c))
            for n in range(1, 5):
                for spec in enumerate_simples(alg, n):
                    rep = build_matrix_rep(alg, spec)
                    assert verify_relations(alg, rep).ok
                    assert is_simple_structural(alg, spec).simple
                    assert is_simple_bruteforce(rep)
                    if spec.family == "A":
                        assert rep.x ** n == Matrix.identity(F5, n) * spec.gamma
                    elif spec.family == "B":
                        assert rep.y ** n == Matrix.identity(F5, n) * spec.gamma.inverse()
                    else:
                        assert (rep.x ** n).is_zero and (rep.y ** n).is_zero
                    total += 1
        assert total > 100


def brute_one_dimensional(alg):
    """All scalar triples (x, y, h) satisfying the defining relations."""
    field = alg.field
    found = set()
    for a in field.elements():
        for b in field.elements():
            for c in field.elements():
                if not (a * (c - alg.f(c))).is_zero:
                    continue
                if not (b * (c - alg.f(c))).is_zero:
                    continue
                if b * a - alg.q * a * b != alg.g(c):
                    continue
                found.add((a, b, c))
    return found


def test_criterion_7_dimension_one_classification():
    with criterion(7, "dimension-1 classification equals brute-forced scalar triples"):
        targets = [
            AlgebraSpec(F5, F5.element(2), Poly.from_ints(F5, [0, 0, 1]), Poly.gen(F5)),
            AlgebraSpec(
                FieldSpec.prime(7), FieldSpec.prime(7).element(3),
                Poly.from_ints(FieldSpec.prime(7), [0, 0, 1]),
                Poly.gen(FieldSpec.prime(7)),
            ),
        ]
        for alg in targets:
            specs = enumerate_simples(alg, 1)
            triples = set()
            for spec in specs:
                rep = build_matrix_rep(alg, spec)
                triples.add((rep.x[0, 0], rep.y[0, 0], rep.h[0, 0]))
            # distinct scalar triples are exactly the isomorphism classes
            assert len(triples) == len(specs)
            assert triples == brute_one_dimensional(alg)


def test_criterion_8_iso_criteria_vs_intertwiners():
    with criterion(8, "iso_structural vs iso_bruteforce on all same-dimension pairs"):
        start = time.monotonic()
        alg = AlgebraSpec(F5, F5.element(2), Poly.from_ints(F5, [0, 0, 0, 1]), Poly.gen(F5))
        pairs = 0
        for n in range(1, 5):
            mods = enumerate_simples(alg, n)
            reps = [build_matrix_rep(alg, s) for s in mods]
            for i, s1 in enumerate(mods):
                for j, s2 in enumerate(mods):
                    structural = iso_structural(alg, s1, s2)
                    assert structural == iso_bruteforce(reps[i], reps[j])
                    assert structural == (i == j)
                    pairs += 1
        assert pairs >= 500
        assert time.monotonic() - start < 300


def test_criterion_9_cli_determinism(capsys):
    with criterion(9, "enumerate CLI output is byte-identical across 3 runs"):
        argv = ["enumerate", "--field", "GF(5)", "--q", "2", "--f", "h^3", "--g", "h",
                "--dim", "4", "--ext-bound", "2", "--json"]
        outputs = []
        for _ in range(3):
            assert main(list(argv)) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]
        assert '"count": 40' in outputs[0]
