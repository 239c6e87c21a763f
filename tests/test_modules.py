"""Module construction, relation checks, simplicity, isomorphism, enumeration."""

import itertools

import pytest

from qgha import modules, spectra
from qgha.algebra import AlgebraSpec
from qgha.errors import (
    FieldMismatch,
    InvalidSpec,
    QZeroUnsupported,
    SearchInconclusive,
    SearchSpaceTooLarge,
    UnsupportedField,
)
from qgha.fields import FieldElement, FieldSpec, frobenius_degree
from qgha.linalg import Matrix
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


def test_bruteforce_simplicity_guards():
    alg = alg_sq()
    rep = build_matrix_rep(alg, ModuleSpec.family_c(F5.one, 4))
    with pytest.raises(SearchSpaceTooLarge):
        is_simple_bruteforce(rep, bound=100)
    alg_q = AlgebraSpec(QQ, QQ.element(2), Poly.from_ints(QQ, [0, 0, 1]), Poly.gen(QQ))
    rep_q = build_matrix_rep(alg_q, ModuleSpec.family_c(QQ.zero, 2))
    with pytest.raises(UnsupportedField):
        is_simple_bruteforce(rep_q)


def test_iso_shift_invariance():
    alg = alg_sq()
    gamma = F5.element(2)
    s1 = ModuleSpec.family_a(mu_at(alg, 1, 3), gamma)
    s2 = ModuleSpec.family_a(mu_at(alg, 1, 3).shifted(1), gamma)
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
    alg = alg_sq()
    mu = mu_at(alg, 1, 3)
    a = ModuleSpec.family_a(mu, F5.element(2))
    b = ModuleSpec.family_b(mu, F5.element(2))
    c = ModuleSpec.family_c(F5.one, 4)
    # a valid B has a vanishing mu, so its x-action is nilpotent while A's
    # is invertible; the families never meet
    assert not iso_structural(alg, a, b)
    assert not iso_structural(alg, b, a)
    assert not iso_structural(alg, a, c)
    assert not iso_structural(alg, c, b)
    rep_a, rep_b, rep_c = (build_matrix_rep(alg, s) for s in (a, b, c))
    assert not iso_bruteforce(rep_a, rep_b)
    assert not iso_bruteforce(rep_a, rep_c)
    assert not iso_bruteforce(rep_b, rep_c)


def test_iso_bruteforce_dimension_mismatch_and_infinite_field():
    alg = alg_sq()
    r1 = build_matrix_rep(alg, ModuleSpec.family_c(F5.one, 4))
    r2 = build_matrix_rep(alg, ModuleSpec.family_c(F5.zero, 1))
    assert not iso_bruteforce(r1, r2)
    alg_q = AlgebraSpec(QQ, QQ.element(2), Poly.from_ints(QQ, [0, 0, 1]), Poly.gen(QQ))
    t1 = build_matrix_rep(alg_q, ModuleSpec.family_c(QQ.zero, 1))
    assert iso_bruteforce(t1, t1)
    # C(0, 2) has x a nilpotent Jordan block; its self-intertwiners form a
    # 2-dimensional space, undecidable by scanning over Q
    t2 = build_matrix_rep(alg_q, ModuleSpec.family_c(QQ.zero, 2))
    with pytest.raises(SearchSpaceTooLarge):
        iso_bruteforce(t2, t2)


def test_iso_bruteforce_inconclusive_sampling():
    # zero matrices vs a nilpotent shift: the intertwiner space is large
    # (6-dimensional) but contains no invertible element
    n = 6
    zero = Matrix.zero(F5, n, n)
    shift = Matrix.from_entries(F5, n, n, {(i + 1, i): F5.one for i in range(n - 1)})
    r1 = MatrixRep(F5, n, zero, zero, zero)
    r2 = MatrixRep(F5, n, shift, zero, zero)
    with pytest.raises(SearchInconclusive):
        iso_bruteforce(r1, r2, scan_bound=60, seed=7)


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
