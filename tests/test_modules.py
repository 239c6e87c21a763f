"""Module construction, relation checks, simplicity, isomorphism, enumeration."""

import itertools
import math
import random
import time

import pytest

from qgha import modules, spectra
from qgha.algebra import AlgebraSpec
from qgha.errors import (
    FieldMismatch,
    InvalidSpec,
    QZeroUnsupported,
    SearchSpaceTooLarge,
    UnsupportedField,
)
from qgha.fields import FieldElement, FieldSpec, frobenius_degree
from qgha.linalg import Matrix, intertwiners, is_invertible
from qgha.modules import (
    MatrixRep,
    ModuleSpec,
    build_matrix_rep,
    enumerate_c_extensions,
    enumerate_simples,
    extend_algebra,
    is_simple_bruteforce,
    is_simple_structural,
    iso_bruteforce,
    iso_structural,
    verify_relations,
)
from qgha.parsing import parse_field
from qgha.poly import Poly
from qgha.spectra import (
    LambdaOrbit,
    MuSequence,
    enumerate_lambda_orbits,
    mu_periods,
    nu_table,
    orbit_from_seed,
)
from rref_oracle import generic_rref
from simplicity_oracle import is_simple_per_line

QQ = FieldSpec.rationals()
F5 = FieldSpec.prime(5)


def alg_sq():
    # f = h^2, g = h, q = 2 over GF(5)
    return AlgebraSpec(F5, F5.element(2), Poly.from_ints(F5, [0, 0, 1]), Poly.gen(F5))


def alg_cube():
    # f = h^3, g = h, q = 2 over GF(5)
    return AlgebraSpec(F5, F5.element(2), Poly.from_ints(F5, [0, 0, 0, 1]), Poly.gen(F5))


def mu_at(alg, seed, anchor):
    orbit = orbit_from_seed(alg.f, alg.field.element(seed))
    return MuSequence(orbit, alg.q, alg.g, alg.field.element(anchor))


def grid(m):
    return [[m[i, j].value for j in range(m.ncols)] for i in range(m.nrows)]


def test_family_a_frozen_build():
    alg = alg_sq()
    spec = ModuleSpec.family_a(mu_at(alg, 1, 3), F5.element(2))
    assert spec.dim == 4
    rep = build_matrix_rep(alg, spec)
    assert grid(rep.x) == [[0, 0, 0, 2], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    assert grid(rep.h) == [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    # mu window is (3, 2, 0, 1); wraparound carries mu(0)/gamma = 3/2 = 4
    assert grid(rep.y) == [[0, 2, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [4, 0, 0, 0]]
    assert verify_relations(alg, rep).ok


def test_family_b_frozen_build():
    alg = alg_sq()
    spec = ModuleSpec.family_b(mu_at(alg, 1, 3), F5.element(3))
    rep = build_matrix_rep(alg, spec)
    # x carries mu shifted by one; corner is gamma * mu(4) = 3 * 3 = 4
    assert grid(rep.x) == [[0, 0, 0, 4], [2, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]]
    assert grid(rep.y) == [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [2, 0, 0, 0]]
    assert verify_relations(alg, rep).ok


def test_family_c_frozen_build():
    alg = alg_sq()
    spec = ModuleSpec.family_c(F5.one, 4)
    rep = build_matrix_rep(alg, spec)
    assert grid(rep.x) == [[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    # nu values along the orbit of 1 are (0, 1, 3, 2)
    assert grid(rep.y) == [[0, 1, 0, 0], [0, 0, 3, 0], [0, 0, 0, 2], [0, 0, 0, 0]]
    assert verify_relations(alg, rep).ok


def test_one_dimensional_c_module():
    alg = alg_sq()
    rep = build_matrix_rep(alg, ModuleSpec.family_c(F5.zero, 1))
    assert rep.dim == 1 and rep.x.is_zero and rep.y.is_zero and rep.h.is_zero
    assert is_simple_bruteforce(rep)


def test_relations_reject_perturbation():
    alg = alg_sq()
    rep = build_matrix_rep(alg, ModuleSpec.family_a(mu_at(alg, 1, 3), F5.element(2)))
    rows = [list(row) for row in (tuple(rep.y[i, j] for j in range(4)) for i in range(4))]
    rows[1][2] = rows[1][2] + F5.one
    bad = MatrixRep(rep.field, rep.dim, rep.x, Matrix(F5, rows), rep.h)
    assert not verify_relations(alg, bad).ok


def test_matrix_power_identities():
    alg = alg_sq()
    gamma = F5.element(2)
    mu = mu_at(alg, 1, 3)
    a = build_matrix_rep(alg, ModuleSpec.family_a(mu, gamma))
    assert a.x ** 4 == Matrix.identity(F5, 4) * gamma
    b = build_matrix_rep(alg, ModuleSpec.family_b(mu, gamma))
    assert (b.x ** 4).is_zero
    assert b.y ** 4 == Matrix.identity(F5, 4) * gamma.inverse()
    c = build_matrix_rep(alg, ModuleSpec.family_c(F5.one, 4))
    assert (c.x ** 4).is_zero and (c.y ** 4).is_zero


def test_simplicity_structural_and_brute():
    alg = alg_sq()
    simple_specs = [
        ModuleSpec.family_a(mu_at(alg, 1, 3), F5.element(2)),
        ModuleSpec.family_b(mu_at(alg, 1, 3), F5.one),
        ModuleSpec.family_c(F5.one, 4),
        ModuleSpec.family_c(F5.element(2), 4),
    ]
    for spec in simple_specs:
        assert is_simple_structural(alg, spec).simple
        assert is_simple_bruteforce(build_matrix_rep(alg, spec))
    # nu_0 vanishes identically, so C(0, n) has the tail submodule for n > 1
    degenerate = ModuleSpec.family_c(F5.zero, 2)
    report = is_simple_structural(alg, degenerate)
    assert not report.simple and "nu(1)" in report.certificate
    assert not is_simple_bruteforce(build_matrix_rep(alg, degenerate))


def test_simplicity_check_builds_one_nu_table(monkeypatch):
    calls = []
    real = modules.nu_table

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(modules, "nu_table", counting)
    alg = alg_sq()
    for spec in (ModuleSpec.family_c(F5.one, 4), ModuleSpec.family_c(F5.zero, 2)):
        calls.clear()
        is_simple_structural(alg, spec)
        assert len(calls) == 1


def companion(field, coeffs):
    """The companion matrix of the monic polynomial with these low coefficients: e_i -> e_(i+1)."""
    n = len(coeffs)
    entries = {(i + 1, i): field.one for i in range(n - 1)}
    entries.update({(i, n - 1): -field.element(c) for i, c in enumerate(coeffs)})
    return Matrix.from_entries(field, n, n, entries)


def no_lines(*args):
    raise AssertionError("a line of the kernel was built")


def test_bruteforce_simplicity_guards(monkeypatch):
    # x = y = h = the companion matrix of the irreducible t^4 + 2: no candidate
    # is singular, so theta = 0 and every line of F^4 would be spun
    c = companion(F5, [2, 0, 0, 0])
    rep = MatrixRep(F5, 4, c, c, c)
    assert is_simple_bruteforce(rep) and is_simple_per_line(rep)
    monkeypatch.setattr(modules, "_projective_points", no_lines)
    monkeypatch.setattr(modules, "_KERNEL_VECTOR_BUDGET", 100)
    with pytest.raises(SearchSpaceTooLarge, match="625 kernel vectors, more than the budget 100"):
        is_simple_bruteforce(rep)
    # C(0, 2) of H_2(h^2, h) over Q: ker x is one line and the dual spin of
    # e_0 stays in it, so no line of the kernel is spun on any field
    alg_q = AlgebraSpec(QQ, QQ.element(2), Poly.from_ints(QQ, [0, 0, 1]), Poly.gen(QQ))
    assert not is_simple_bruteforce(build_matrix_rep(alg_q, ModuleSpec.family_c(QQ.zero, 2)))
    # over Q, with ker x two-dimensional and a full dual spin, the lines of the
    # kernel cannot be listed
    x = Matrix.from_entries(QQ, 3, 3, {(1, 0): QQ.one})
    y = Matrix.from_entries(QQ, 3, 3, {((i + 1) % 3, i): QQ.one for i in range(3)})
    with pytest.raises(UnsupportedField):
        is_simple_bruteforce(MatrixRep(QQ, 3, x, y, Matrix.identity(QQ, 3)))
    # x, y and h - 0, 0 the one value on h's diagonal, take 3 * 16 cells; past
    # the cell budget no candidate kernel is computed
    monkeypatch.setattr(modules, "_MATRIX_CELL_BUDGET", 47)
    monkeypatch.setattr(modules, "_nullspace", None)
    with pytest.raises(SearchSpaceTooLarge, match="1 values c take 48 cells"):
        is_simple_bruteforce(rep)


def test_bruteforce_simplicity_dual_spin_and_theta_zero(monkeypatch):
    # U = span(e_0, e_1) is a submodule and x is invertible on U; ker x, the
    # smallest kernel, is a line with e_2-coordinate 1, so it meets U only in 0
    # and the dual spin, which stays in U^perp, gives the False
    GF4 = FieldSpec.extension(2, 2)
    for field, u in ((FieldSpec.prime(3), FieldSpec.prime(3).element(2)), (GF4, GF4.generator)):
        one = field.one
        x = Matrix.from_entries(field, 4, 4, {(0, 0): one, (1, 0): u, (0, 1): u, (0, 2): one, (2, 3): one})
        y = Matrix.from_entries(field, 4, 4, {(0, 1): one, (1, 0): one, (1, 3): u, (2, 2): one, (3, 3): u})
        h = Matrix.from_entries(field, 4, 4, {(0, 0): u, (1, 1): u, (0, 3): one, (2, 2): one, (3, 3): one})
        rep = MatrixRep(field, 4, x, y, h)
        assert not is_simple_per_line(rep)
        with monkeypatch.context() as m:
            m.setattr(modules, "_projective_points", no_lines)
            assert not is_simple_bruteforce(rep)
    # theta = 0 and reducible: x = h = diag(C, C) and y = [[C, 1], [0, C]], C the
    # companion matrix of t^2 + t + 1 over GF(2), leave span(e_0, e_1) invariant
    # and make no candidate singular; e_0's dual spin is full, so a line answers
    F2 = FieldSpec.prime(2)
    c = {(1, 0): F2.one, (0, 1): F2.one, (1, 1): F2.one}
    blocks = {**c, **{(i + 2, j + 2): a for (i, j), a in c.items()}}
    x = Matrix.from_entries(F2, 4, 4, blocks)
    y = Matrix.from_entries(F2, 4, 4, {**blocks, (0, 2): F2.one, (1, 3): F2.one})
    rep = MatrixRep(F2, 4, x, y, x)
    assert not is_simple_bruteforce(rep) and not is_simple_per_line(rep)
    with pytest.raises(AssertionError, match="a line of the kernel was built"):
        monkeypatch.setattr(modules, "_projective_points", no_lines)
        is_simple_bruteforce(rep)


def random_raw_rows(elems, rng, n):
    return [[rng.choice(elems) for _ in range(n)] for _ in range(n)]


def raw_inverse(field, p):
    """The inverse of an invertible Matrix, from generic_rref of [p | I]."""
    ring, n = field._ring, p.nrows
    rows = [list(r) + [ring.one if i == j else ring.zero for j in range(n)] for i, r in enumerate(p.rows)]
    red, _ = generic_rref(rows, field)
    return Matrix._raw(field, [r[n:] for r in red])


def submodule_triple(field, rng, n, k, where):
    """Random x, y and h that map a k-dimensional subspace U of F^n into itself.

    U is spanned by the first k columns u_1..u_k of an invertible P, and each
    matrix is P B P^-1 for a random B that is block upper triangular with a
    k x k first block.  where places U's lines among the leading-one lines
    of F^n in enumeration order: "first" puts e_0 in U, so U holds line 0;
    "last" makes U the span of the last k basis vectors, whose lines come
    last; "middle" starts u_1 with 1, c and c != 0, so for k = 1 U is one
    line inside the block of lines led by the first coordinate.
    """
    ring = field._ring
    elems = [a.value for a in field.elements()]
    units = elems[1:]
    while True:
        cols = random_raw_rows(elems, rng, n)
        if where == "first":
            cols[0] = [ring.one] + [ring.zero] * (n - 1)
        elif where == "last":
            for c in cols[:k]:
                c[:n - k] = [ring.zero] * (n - k)
        else:
            cols[0][:2] = [ring.one, rng.choice(units)]
        p = Matrix._raw(field, [list(r) for r in zip(*cols)])
        if is_invertible(p):
            break
    p_inv = raw_inverse(field, p)

    def conjugate():
        b = random_raw_rows(elems, rng, n)
        for i in range(k, n):
            b[i][:k] = [ring.zero] * k
        return p * Matrix._raw(field, b) * p_inv

    return MatrixRep(field, n, conjugate(), conjugate(), conjugate())


@pytest.mark.parametrize("text", ["GF(2)", "GF(3)", "GF(5)", "GF(2^2)", "GF(3^2)"])
def test_bruteforce_simplicity_matches_the_per_line_oracle(text):
    # random triples, mostly irreducible, and triples with a proper invariant
    # subspace whose lines come first, last or in the middle of the scan;
    # dimensions 2-5 while |F|^n stays within 10^4 (GF(3^2) up to 4)
    field = parse_field(text)
    rng = random.Random(f"simple:{text}")
    elems = [a.value for a in field.elements()]
    seen = {True: 0, False: 0}
    for n in range(2, 6):
        if field.order ** n > 10 ** 4:
            break
        reps = [MatrixRep(field, n, *(Matrix._raw(field, random_raw_rows(elems, rng, n)) for _ in range(3)))
                for _ in range(2)]
        placed = [(1, "middle")] + [(rng.randint(1, n - 1), where) for where in ("first", "middle", "last")]
        reps += [submodule_triple(field, rng, n, k, where) for k, where in placed]
        for i, rep in enumerate(reps):
            brute = is_simple_bruteforce(rep)
            assert brute == is_simple_per_line(rep), (n, i, rep.x, rep.y, rep.h)
            assert i < 2 or not brute
            seen[brute] += 1
    assert seen[True] >= 3 and seen[False] >= 10


def test_bruteforce_simplicity_matches_the_per_line_oracle_on_criterion_6():
    # the distinct modules of the criterion-6 grid: f in {h^2, h^3}, g in {h, h^2},
    # q in {2, 3, 4} over GF(5), dimensions 2-4
    reps = set()
    for f, g, q in itertools.product(([0, 0, 1], [0, 0, 0, 1]), ([0, 1], [0, 0, 1]), (2, 3, 4)):
        alg = AlgebraSpec(F5, F5.element(q), Poly.from_ints(F5, f), Poly.from_ints(F5, g))
        reps.update(build_matrix_rep(alg, spec) for n in (2, 3, 4) for spec in enumerate_simples(alg, n))
    assert len(reps) > 200
    for rep in reps:
        assert is_simple_bruteforce(rep) and is_simple_per_line(rep)


def test_bruteforce_simplicity_reach():
    # U(h_3) = H_1(h, h): h is central and yx - xy = h.  Each of its 36 simple
    # modules of dimension 5 over GF(5), and of its 1830 of dimension 31 over
    # GF(31), has a singular x or y with a one-dimensional kernel: one line
    for p, n, count in ((5, 5, 36), (31, 31, 1830)):
        F = FieldSpec.prime(p)
        alg = AlgebraSpec(F, F.one, Poly.gen(F), Poly.gen(F))
        specs = enumerate_simples(alg, n)
        assert len(specs) == count
        start = time.perf_counter()
        assert all(is_simple_bruteforce(build_matrix_rep(alg, spec)) for spec in specs)
        assert time.perf_counter() - start < 30
    # a band module over GF(2) in dimension 16: x cycles the basis, y shifts it
    # back without a corner and h = E_00, so x and h alone generate every
    # matrix unit; ker y is the line of e_0
    F2, n = FieldSpec.prime(2), 16
    x = Matrix.from_entries(F2, n, n, {((i + 1) % n, i): F2.one for i in range(n)})
    y = Matrix.from_entries(F2, n, n, {(i, i + 1): F2.one for i in range(n - 1)})
    h = Matrix.from_entries(F2, n, n, {(0, 0): F2.one})
    assert is_simple_bruteforce(MatrixRep(F2, n, x, y, h))
    # with y = h = 0 the kernel is F^16, the dual spin of e_0 is full, and the
    # all-ones vector spans a submodule: the last line led by coordinate 0
    zero = Matrix.zero(F2, n)
    assert not is_simple_bruteforce(MatrixRep(F2, n, x, zero, zero))


def test_build_matrix_rep_refuses_past_the_cell_budget(monkeypatch):
    def no_validate(*args):
        raise AssertionError("the spec was validated")

    monkeypatch.setattr(ModuleSpec, "validate", no_validate)
    n = math.isqrt(modules._MATRIX_CELL_BUDGET // 3) + 1
    with pytest.raises(SearchSpaceTooLarge, match=f"{3 * n * n} cells, past the budget of 16777216"):
        build_matrix_rep(alg_sq(), ModuleSpec.family_c(F5.zero, n))


@pytest.mark.parametrize("make_alg,seed,anchor", [(alg_sq, 1, 3), (alg_cube, 2, 3)])
def test_iso_shift_invariance(make_alg, seed, anchor):
    alg = make_alg()
    gamma = F5.element(2)
    mu = mu_at(alg, seed, anchor)
    s1 = ModuleSpec.family_a(mu, gamma)
    values = mu.orbit.values
    for s in range(1, s1.dim):
        # (lambda, mu) shifted by s: the orbit rotated by s, anchored at mu(s)
        r = s % len(values)
        shifted = MuSequence(LambdaOrbit(alg.f, values[r:] + values[:r]), alg.q, alg.g, mu.value(s))
        s2 = ModuleSpec.family_a(shifted, gamma)
        assert iso_structural(alg, s1, s2)
        assert iso_bruteforce(build_matrix_rep(alg, s1), build_matrix_rep(alg, s2))
    assert iso_structural(alg, s1, s1)


def test_iso_distinguishes_gamma():
    alg = alg_sq()
    mu = mu_at(alg, 1, 3)
    s1 = ModuleSpec.family_a(mu, F5.element(2))
    s2 = ModuleSpec.family_a(mu, F5.one)
    assert not iso_structural(alg, s1, s2)
    assert not iso_bruteforce(build_matrix_rep(alg, s1), build_matrix_rep(alg, s2))


def test_iso_c_families():
    alg = alg_sq()
    s1 = ModuleSpec.family_c(F5.one, 4)
    s2 = ModuleSpec.family_c(F5.element(2), 4)
    assert iso_structural(alg, s1, s1)
    assert not iso_structural(alg, s1, s2)
    assert not iso_bruteforce(build_matrix_rep(alg, s1), build_matrix_rep(alg, s2))


def test_iso_across_families():
    # a valid B has a vanishing mu, so its x-action is nilpotent while A's
    # is invertible; the families never meet
    f7 = FieldSpec.prime(7)
    alg7 = AlgebraSpec(f7, f7.element(2), Poly.from_ints(f7, [0, 0, 1]), Poly.gen(f7))
    for alg, anchor_a, anchor_b, n in [
        # over GF(5) A's mu vanishes too
        (alg_sq(), 3, 3, 4),
        # over GF(7) the anchors of lambda = (1) of period 3 fall into the classes
        # {0, 1, 3} and {2, 5, 4}: A's mu never vanishes, B's does
        (alg7, 2, 0, 3),
    ]:
        gamma = alg.field.element(2)
        a = ModuleSpec.family_a(mu_at(alg, 1, anchor_a), gamma)
        b = ModuleSpec.family_b(mu_at(alg, 1, anchor_b), gamma)
        c = ModuleSpec.family_c(alg.field.one, n)
        assert a.dim == b.dim == n
        assert any(v.is_zero for v in a.mu.values(n)) == (anchor_a == 3)
        for s1, s2 in itertools.permutations((a, b, c), 2):
            assert not iso_structural(alg, s1, s2)
            assert not iso_bruteforce(build_matrix_rep(alg, s1), build_matrix_rep(alg, s2))


def test_iso_bruteforce_dimension_mismatch_and_infinite_field():
    alg = alg_sq()
    r1 = build_matrix_rep(alg, ModuleSpec.family_c(F5.one, 4))
    r2 = build_matrix_rep(alg, ModuleSpec.family_c(F5.zero, 1))
    assert not iso_bruteforce(r1, r2)
    alg_q = AlgebraSpec(QQ, QQ.element(2), Poly.from_ints(QQ, [0, 0, 1]), Poly.gen(QQ))
    t1 = build_matrix_rep(alg_q, ModuleSpec.family_c(QQ.zero, 1))
    assert iso_bruteforce(t1, t1)
    # C(0, 2) has x a nilpotent Jordan block; its self-intertwiners form a
    # 2-dimensional space, scanned over S = {0, 1, 2} like any other field
    t2 = build_matrix_rep(alg_q, ModuleSpec.family_c(QQ.zero, 2))
    assert iso_bruteforce(t2, t2)


def direct_sum(r1, r2):
    """The module r1 + r2, with block-diagonal matrices."""
    n, d1 = r1.dim + r2.dim, r1.dim

    def block(a, b):
        entries = {(i, j): a[i, j] for i in range(d1) for j in range(d1)}
        entries.update({(d1 + i, d1 + j): b[i, j] for i in range(r2.dim) for j in range(r2.dim)})
        return Matrix.from_entries(r1.field, n, n, entries)

    return MatrixRep(r1.field, n, block(r1.x, r2.x), block(r1.y, r2.y), block(r1.h, r2.h))


@pytest.mark.parametrize("field", [F5, QQ], ids=["GF(5)", "Q"])
def test_iso_bruteforce_scans_one_intertwiner_per_line(monkeypatch, field):
    # S and S' are one-dimensional and non-isomorphic (gamma 1 and 2).  End(S + S')
    # is the diagonal matrices, invertible only off the two block idempotents'
    # lines; Hom(S + S', S + S) maps S' to 0, so it holds no invertible map
    alg = AlgebraSpec(field, field.element(2), Poly.from_ints(field, [0, 0, 1]), Poly.gen(field))
    mu = mu_at(alg, 1, -1)  # the fixed anchor of the orbit (1): period 1
    s, s_prime = (build_matrix_rep(alg, ModuleSpec.family_a(mu, field.element(c))) for c in (1, 2))
    m, n = direct_sum(s, s_prime), direct_sum(s, s)
    assert len(intertwiners(((m.x, m.x), (m.y, m.y), (m.h, m.h)))) == 2
    assert len(intertwiners(((m.x, n.x), (m.y, n.y), (m.h, n.h)))) == 2
    calls = []

    def counting(t):
        calls.append(t)
        return is_invertible(t)

    monkeypatch.setattr(modules, "is_invertible", counting)
    assert iso_bruteforce(m, m)
    calls.clear()
    assert not iso_bruteforce(m, n)
    assert len(calls) == 3  # n = 2, so S = {0, 1, 2}: one intertwiner per point of {1} x S
    calls.clear()
    assert iso_bruteforce(s, s) and not iso_bruteforce(s, s_prime)
    assert len(calls) == 1  # End(S) is a line; Hom(S, S') = 0 needs no test


def test_iso_bruteforce_line_budget_counts_lines(monkeypatch):
    # zero matrices vs a nilpotent shift: the intertwiner space is large
    # (6-dimensional) but contains no invertible element.  n + 1 = 7 > |F|,
    # so S is all of GF(5): (5^6 - 1) / 4 = 3906 lines
    n = 6
    zero = Matrix.zero(F5, n, n)
    shift = Matrix.from_entries(F5, n, n, {(i + 1, i): F5.one for i in range(n - 1)})
    r1 = MatrixRep(F5, n, zero, zero, zero)
    r2 = MatrixRep(F5, n, shift, zero, zero)
    assert not iso_bruteforce(r1, r2)
    monkeypatch.setattr(modules, "_INTERTWINER_LINE_BUDGET", 60)
    with pytest.raises(SearchSpaceTooLarge, match="no invertible intertwiner on the first 60 of 3906 lines$"):
        iso_bruteforce(r1, r2)
    # over Q with n = 2 the same pair has the 2-dimensional intertwiner space
    # of matrices with row 0 zero; S = {0, 1, 2}, so 3 lines with c_1 = 1
    zero = Matrix.zero(QQ, 2, 2)
    shift = Matrix.from_entries(QQ, 2, 2, {(1, 0): QQ.one})
    r1, r2 = MatrixRep(QQ, 2, zero, zero, zero), MatrixRep(QQ, 2, shift, zero, zero)
    monkeypatch.setattr(modules, "_INTERTWINER_LINE_BUDGET", 2)
    with pytest.raises(SearchSpaceTooLarge, match="no invertible intertwiner on the first 2 of 3 lines with c_1 = 1$"):
        iso_bruteforce(r1, r2)
    monkeypatch.setattr(modules, "_INTERTWINER_LINE_BUDGET", 3)
    assert not iso_bruteforce(r1, r2)


@pytest.mark.parametrize("field", [F5, QQ], ids=str)
def test_zero_module_is_isomorphic_to_itself_and_not_simple(field):
    # the empty matrix intertwines the zero module with itself and is invertible
    z = Matrix(field, [])
    r = MatrixRep(field, 0, z, z, z)
    assert iso_bruteforce(r, r)
    assert not is_simple_bruteforce(r)


def test_bruteforce_budgets_keep_their_values():
    assert modules._KERNEL_VECTOR_BUDGET == 10 ** 6
    assert modules._INTERTWINER_LINE_BUDGET == 10 ** 4


def test_iso_bruteforce_finds_an_isomorphism_past_the_line_budget():
    # more lines than the line budget, yet an invertible intertwiner is met
    # before it is spent: the scan refuses only once the budget is spent
    alg = alg_sq()
    # C(0, 7): x a nilpotent Jordan block, y = h = 0, so End is the
    # polynomials in x: d = 7 and (5^7 - 1) / 4 = 19531 lines
    c7 = build_matrix_rep(alg, ModuleSpec.family_c(F5.zero, 7))
    assert len(intertwiners(((c7.x, c7.x), (c7.y, c7.y), (c7.h, c7.h)))) == 7
    assert iso_bruteforce(c7, c7)
    # S^4 for a one-dimensional S: End is all 4 x 4 matrices, d = 16, and
    # the lines with c_1 = 1 that the budget reaches all leave a row zero
    s = build_matrix_rep(alg, ModuleSpec.family_a(mu_at(alg, 1, 4), F5.one))
    s4 = direct_sum(direct_sum(s, s), direct_sum(s, s))
    assert len(intertwiners(((s4.x, s4.x), (s4.y, s4.y), (s4.h, s4.h)))) == 16
    assert iso_bruteforce(s4, s4)


def test_iso_bruteforce_one_singular_line_over_a_large_field(monkeypatch):
    # x = y = 0 with h = diag(1, 2) and diag(1, 3): the intertwiners are the
    # multiples of E_00, one singular line, tested once whatever |F| is
    calls = []

    def counting(t):
        calls.append(t)
        return is_invertible(t)

    monkeypatch.setattr(modules, "is_invertible", counting)
    for p in (101, 10007):
        field = FieldSpec.prime(p)
        zero = Matrix.zero(field, 2, 2)
        r1, r2 = (MatrixRep(field, 2, zero, zero, Matrix.diagonal(field, [field.one, field.element(c)]))
                  for c in (2, 3))
        calls.clear()
        assert not iso_bruteforce(r1, r2)
        assert len(calls) == 1


def random_matrix_space(field, rng):
    """d <= 3 singular-prone n x n matrices, n <= 4: sums of few rank-one products, or diagonals.

    A diagonal space has det(sum c_i T_i) a product of n linear forms, which
    over a small field can vanish at every point without being zero.
    """
    elems = list(field.elements())
    n, d = rng.randint(1, 4), rng.randint(1, 3)
    mats = []
    for _ in range(d):
        if rng.random() < 0.3:
            mats.append(Matrix.diagonal(field, [rng.choice(elems) for _ in range(n)]))
            continue
        rank = rng.randint(0, max(n - 1, 1))
        us = [[rng.choice(elems) for _ in range(n)] for _ in range(rank)]
        vs = [[rng.choice(elems) for _ in range(n)] for _ in range(rank)]
        rows = [[sum((u[i] * v[j] for u, v in zip(us, vs)), field.zero) for j in range(n)] for i in range(n)]
        mats.append(Matrix(field, rows))
    return n, mats


def full_projective_scan(field, mats):
    """Is some F-combination of mats invertible?  One combination per line of F^d."""
    elems = list(field.elements())
    for coeffs in itertools.product(elems, repeat=len(mats)):
        if next((c for c in coeffs if not c.is_zero), field.zero).is_one:
            combo = Matrix.zero(field, mats[0].nrows, mats[0].ncols)
            for t, c in zip(mats, coeffs):
                combo = combo + t * c
            if is_invertible(combo):
                return True
    return False


@pytest.mark.parametrize("text", ["GF(2)", "GF(3)", "GF(5)", "GF(7)", "GF(2^3)"])
def test_iso_bruteforce_scan_matches_a_full_scan_over_f(monkeypatch, text):
    # the intertwiner space is replaced by a random matrix space, so the
    # scan over S^d, S of min(|F|, n + 1) elements, meets an exhaustive scan
    field = parse_field(text)
    rng = random.Random(f"scan:{text}")
    space = []
    monkeypatch.setattr(modules, "intertwiners", lambda pairs: space)
    found = 0
    for _ in range(240):
        n, space[:] = random_matrix_space(field, rng)
        zero = Matrix.zero(field, n, n)
        rep = MatrixRep(field, n, zero, zero, zero)
        expected = full_projective_scan(field, space)
        assert iso_bruteforce(rep, rep) == expected, (n, space)
        found += expected
    assert 48 < found < 192


def test_validate_rejects_malformed_specs():
    alg = alg_sq()
    mu = mu_at(alg, 1, 3)
    with pytest.raises(InvalidSpec):
        ModuleSpec("A", mu=mu, gamma=F5.element(2), n=4).validate(alg)
    with pytest.raises(InvalidSpec):
        ModuleSpec.family_a(mu, F5.zero).validate(alg)
    with pytest.raises(InvalidSpec):
        ModuleSpec.family_c(F5.one, 0).validate(alg)
    with pytest.raises(InvalidSpec):
        ModuleSpec.family_c(F5.one, 3).validate(alg)  # nu(3) = 2 != 0
    with pytest.raises(InvalidSpec):
        ModuleSpec("D", alpha=F5.one, n=1).validate(alg)
    # constant mu-window (4, 4, ...) never vanishes: no B module
    with pytest.raises(InvalidSpec):
        ModuleSpec.family_b(mu_at(alg, 1, 4), F5.one).validate(alg)
    other = alg_cube()
    with pytest.raises(InvalidSpec):
        ModuleSpec.family_a(mu_at(other, 1, 3), F5.one).validate(alg)


def test_enumerate_counts_frozen():
    alg = alg_cube()
    by_family = {}
    for n, total in ((1, 17), (2, 4), (3, 0), (4, 40)):
        mods = enumerate_simples(alg, n)
        assert len(mods) == total
        by_family[n] = sorted(
            (fam, sum(1 for s in mods if s.family == fam)) for fam in "ABC"
        )
    assert by_family[1] == [("A", 12), ("B", 4), ("C", 1)]
    assert by_family[2] == [("A", 4), ("B", 0), ("C", 0)]
    assert by_family[4] == [("A", 20), ("B", 16), ("C", 4)]


def reference_orbits(alg, n):
    """Cycles of f with period dividing n, found by iterating f from every point.

    Each starts at its smallest point, and they come sorted by (period, points).
    """
    field, f = alg.field, alg.f
    image = {a: f(a) for a in field.elements()}
    cycles = set()
    for a in field.elements():
        path = [a]
        while image[path[-1]] not in path:
            path.append(image[path[-1]])
        cycle = path[path.index(image[path[-1]]):]
        s = min(range(len(cycle)), key=lambda i: cycle[i].sort_key())
        cycles.add(tuple(cycle[s:] + cycle[:s]))
    found = sorted(cycles, key=lambda c: (len(c), [v.sort_key() for v in c]))
    return [LambdaOrbit(f, c) for c in found if n % len(c) == 0]


def reference_simples(alg, n):
    """enumerate_simples by per-anchor filters on field elements, with Poly.__call__ for f and g.

    Families A and B apply the mu-period rule at every anchor, compute each
    window by the recurrence and keep the anchor of smallest window among
    its m re-anchorings; family C runs each alpha's nu-recurrence to n.
    """
    field, q, f, g = alg.field, alg.q, alg.f, alg.g
    units = sorted(field.units(), key=FieldElement.sort_key)
    specs_a, specs_b = [], []
    for orbit in reference_orbits(alg, n):
        l = orbit.period
        m = n // l
        # spectra.mu_period at every anchor, with its per-orbit rule computed once
        fixed, period = mu_periods(orbit, q, g)
        seen = set()
        for beta in field.elements():
            if (1 if beta == fixed else period) != m:
                continue
            window = [beta]
            for t in range(n - 1):
                window.append(q * window[-1] + g(orbit.value(t)))
            shifts = [tuple(window[(t + j * l) % n].sort_key() for t in range(n)) for j in range(m)]
            best = min(range(m), key=lambda j: shifts[j])
            if shifts[best] in seen:
                continue
            seen.add(shifts[best])
            canon = MuSequence(orbit, q, g, window[best * l])
            for gamma in units:
                specs_a.append(ModuleSpec.family_a(canon, gamma))
                if any(v.is_zero for v in window):
                    specs_b.append(ModuleSpec.family_b(canon, gamma))
    specs_c = []
    for alpha in field.elements():
        nu, point = [field.zero], alpha
        for _ in range(n):
            nu.append(q * nu[-1] + g(point))
            point = f(point)
        if [i for i in range(1, n + 1) if nu[i].is_zero][:1] == [n]:
            specs_c.append(ModuleSpec.family_c(alpha, n))
    return specs_a + specs_b + specs_c


def reference_matrix_rep(alg, spec):
    """build_matrix_rep entry by entry on field elements, coerced through Matrix."""
    field, n = alg.field, spec.dim
    if spec.family == "C":
        nu, lam = [field.zero], [spec.alpha]
        for j in range(n):
            nu.append(alg.q * nu[-1] + alg.g(lam[-1]))
            lam.append(alg.f(lam[-1]))
        x = {(j + 1, j): field.one for j in range(n - 1)}
        y = {(j - 1, j): nu[j] for j in range(1, n)}
    else:
        lam = [spec.orbit.value(j) for j in range(n)]
        mu = [spec.mu.anchor]
        for j in range(n):
            mu.append(alg.q * mu[-1] + alg.g(spec.orbit.value(j)))
        if spec.family == "A":
            x = {(j + 1, j): field.one for j in range(n - 1)}
            x[(0, n - 1)] = spec.gamma
            y = {(j - 1, j): mu[j] for j in range(1, n)}
            y[(n - 1, 0)] = mu[0] / spec.gamma
        else:
            x = {(j + 1, j): mu[j + 1] for j in range(n - 1)}
            x[(0, n - 1)] = spec.gamma * mu[n]
            y = {(j - 1, j): field.one for j in range(1, n)}
            y[(n - 1, 0)] = spec.gamma.inverse()
    return MatrixRep(field, n, Matrix.from_entries(field, n, n, x), Matrix.from_entries(field, n, n, y),
                     Matrix.diagonal(field, lam[:n]))


@pytest.mark.parametrize("text", ["GF(2)", "GF(3)", "GF(2^2)", "GF(5)", "GF(7)", "GF(3^2)", "GF(7^2)", "GF(2^8)"])
def test_enumerate_matches_per_anchor_filter(text):
    field = parse_field(text)
    h, one = Poly.gen(field), Poly.one(field)
    fs = (h, h * h, h * h + one, h * h * h)
    gs = (Poly.zero(field), one, h, h * h + h)
    qs = list(field.units())
    max_dim = 4
    if field.order > 10:
        # f = h would fix every point and list 10^4 to 10^5 modules, which
        # the small fields cover
        u = field.generator
        qs, fs = [u, u + field.one], (h * h, h * h * h)
        max_dim = 3 if field.order < 100 else 2
    for q, f, g in itertools.product(qs, fs, gs):
        alg = AlgebraSpec(field, q, f, g)
        for n in range(1, max_dim + 1):
            got = enumerate_simples(alg, n)
            assert got == reference_simples(alg, n), (field, q, f.render(), g.render(), n)
            for spec in got:
                assert build_matrix_rep(alg, spec) == reference_matrix_rep(alg, spec), spec.describe()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_c_extensions_match_nu_table_filter(p):
    field = FieldSpec.prime(p)
    h, one = Poly.gen(field), Poly.one(field)
    for q, f, g in itertools.product(field.units(), (h + one, h * h, h * h * h + h), (one, h * h + one)):
        alg = AlgebraSpec(field, q, f, g)
        for n in (-1, 0, 1, 2, 3):  # no dimension below 1 has a simple module
            expected = []
            for m in (2, 3):
                ext_alg = extend_algebra(alg, FieldSpec.extension(p, m))
                for alpha in ext_alg.field.elements():
                    nu = nu_table(ext_alg, alpha, n).values
                    if [i for i in range(1, n + 1) if nu[i].is_zero][:1] == [n] and frobenius_degree(alpha) == m:
                        expected.append((ext_alg, ModuleSpec.family_c(alpha, n)))
            assert enumerate_c_extensions(alg, n, 3) == expected, (q, f.render(), g.render(), n)


def test_enumerate_computes_one_order_per_orbit(monkeypatch):
    calls = []
    real = spectra.multiplicative_order

    def counting(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(spectra, "multiplicative_order", counting)
    F = FieldSpec.extension(2, 8)
    h = Poly.gen(F)
    alg = AlgebraSpec(F, F.generator, h * h, h)
    orbits = [o for l in (1, 2) for o in enumerate_lambda_orbits(F, alg.f, l) if o.period == l]
    assert enumerate_simples(alg, 2)
    assert 0 < len(calls) <= len(orbits)


def test_enumerate_computes_one_order_per_period(monkeypatch):
    # f = h makes each of the 1009 points an orbit of period 1, and q^1 has one order
    F = FieldSpec.prime(1009)
    q, g = F.element(2), Poly.from_ints(F, [1])
    alg = AlgebraSpec(F, q, Poly.gen(F), g)
    calls, real = [], spectra.multiplicative_order
    monkeypatch.setattr(spectra, "multiplicative_order", lambda a: calls.append(a) or real(a))
    assert enumerate_simples(alg, 4) == []  # 2 has order 504 in GF(1009), so no anchor has period 4
    assert calls == [q]
    # mu(1) = 2 beta + 1 fixes beta = -1, and every other anchor has period 504
    orbit = LambdaOrbit(alg.f, (F.element(7),))
    assert mu_periods(orbit, q, g) == (F.element(-1), 504)
    assert spectra.mu_period(orbit, q, g, F.element(3)) == 504


def test_enumerate_modules_are_simple_and_distinct():
    alg = alg_cube()
    mods = enumerate_simples(alg, 2)
    reps = [build_matrix_rep(alg, s) for s in mods]
    for spec, rep in zip(mods, reps):
        assert verify_relations(alg, rep).ok
        assert is_simple_structural(alg, spec).simple
        assert is_simple_bruteforce(rep)
    for i, s1 in enumerate(mods):
        for j, s2 in enumerate(mods):
            expected = i == j
            assert iso_structural(alg, s1, s2) == expected
            assert iso_bruteforce(reps[i], reps[j]) == expected


def test_bruteforce_oracles_over_extension_fields():
    # GF(p^k) entries are tuple raw values, a path the GF(5) checks never take
    for F in (FieldSpec.extension(2, 2), FieldSpec.extension(3, 2)):
        u = F.generator
        h = Poly.gen(F)
        alg = AlgebraSpec(F, u, h * h, h * u + Poly.one(F))
        for n in (1, 2, 3):
            mods = enumerate_simples(alg, n)
            reps = [build_matrix_rep(alg, s) for s in mods]
            assert all(is_simple_bruteforce(rep) for rep in reps)
            for s1, r1 in zip(mods, reps):
                for s2, r2 in zip(mods, reps):
                    assert iso_bruteforce(r1, r2) == iso_structural(alg, s1, s2)


def test_matrix_coerces_entries():
    F7 = FieldSpec.prime(7)
    with pytest.raises(FieldMismatch):
        Matrix(FieldSpec.prime(5), [[F7.element(6)]])
    m = Matrix(F5, [[7, F5.element(3)]])
    assert m == Matrix(F5, [[F5.element(2), 3]])
    assert m[0, 0] == F5.element(2) and str(m) == "[2, 3]"


def test_enumerate_guards():
    with pytest.raises(QZeroUnsupported):
        enumerate_simples(
            AlgebraSpec(F5, F5.zero, Poly.from_ints(F5, [0, 0, 1]), Poly.gen(F5)), 1
        )
    with pytest.raises(UnsupportedField):
        enumerate_simples(
            AlgebraSpec(QQ, QQ.element(2), Poly.from_ints(QQ, [0, 0, 1]), Poly.gen(QQ)), 1
        )
    with pytest.raises(InvalidSpec):
        enumerate_simples(alg_sq(), 0)


def test_extension_enumeration():
    # g = h^2 + h + 1 has no roots in GF(2); nu(1) = g(alpha) vanishes
    # exactly at the two primitive elements of GF(4)
    F2 = FieldSpec.prime(2)
    alg = AlgebraSpec(F2, F2.one, Poly.from_ints(F2, [1, 1]), Poly.from_ints(F2, [1, 1, 1]))
    found = enumerate_c_extensions(alg, 1, 2)
    assert len(found) == 2
    for ext_alg, spec in found:
        assert ext_alg.field.order == 4
        assert frobenius_degree(spec.alpha) == 2
        rep = build_matrix_rep(ext_alg, spec)
        assert verify_relations(ext_alg, rep).ok
        assert is_simple_structural(ext_alg, spec).simple
    # nu(2) = 2 g(alpha) = 0 identically in characteristic 2 with q = 1,
    # so dimension 2 picks up every degree-3 alpha once GF(8) is in range
    assert enumerate_c_extensions(alg, 2, 2) == []
    found3 = enumerate_c_extensions(alg, 2, 3)
    assert len(found3) == 6
    assert {frobenius_degree(s.alpha) for _, s in found3} == {3}
    with pytest.raises(UnsupportedField):
        enumerate_c_extensions(extend_algebra(alg, FieldSpec.extension(2, 2)), 1, 3)


def test_extend_algebra_preserves_structure():
    alg = alg_sq()
    ext = extend_algebra(alg, FieldSpec.extension(5, 2))
    assert ext.field.order == 25
    assert ext.q == ext.field.embed(alg.q)
    assert ext.f.degree == alg.f.degree and ext.g.degree == alg.g.degree


def test_describe_strings():
    alg = alg_sq()
    a = ModuleSpec.family_a(mu_at(alg, 1, 3), F5.element(2))
    assert a.describe() == "A(lambda=(1), mu(0)=3, gamma=2)"
    c = ModuleSpec.family_c(F5.one, 4)
    assert c.describe() == "C(alpha=1, n=4)"


def test_enumeration_budget_keeps_the_largest_lists_and_refuses_before_building(monkeypatch):
    F = FieldSpec.extension(2, 8)
    alg = AlgebraSpec(F, F.one, Poly.gen(F), Poly.gen(F))
    assert len(enumerate_simples(alg, 1)) == 65536  # the largest list the CLI is known to print
    built = []
    monkeypatch.setattr(ModuleSpec, "family_a", staticmethod(lambda *a: built.append(a)))
    with pytest.raises(SearchSpaceTooLarge):
        enumerate_simples(alg, 2)
    assert built == []
    monkeypatch.setattr(modules, "_ENUMERATE_BUDGET", 65535)
    with pytest.raises(SearchSpaceTooLarge):
        enumerate_simples(alg, 1)
