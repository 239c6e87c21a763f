"""Lambda orbits, mu sequences and periods, nu tables."""

import random
import time
from fractions import Fraction

import pytest

from qgha import algebra
from qgha.algebra import AlgebraSpec, theta
from qgha.errors import FieldMismatch, InvalidSpec, QZero, SearchSpaceTooLarge, UnsupportedField
from qgha.fields import FieldSpec
from qgha.modules import enumerate_simples
from qgha.poly import Poly
from qgha.spectra import (
    LambdaOrbit,
    _PointTable,
    MuSequence,
    enumerate_lambda_orbits,
    mu_period,
    mu_periods,
    nu_table,
    orbit_from_seed,
)

QQ = FieldSpec.rationals()
F5 = FieldSpec.prime(5)


def brute_orbits(field, f, max_period):
    """Direct scan: iterate f from every element, keep the cycles."""
    seen = set()
    found = []
    for a in field.elements():
        path = [a]
        idx = {a: 0}
        while True:
            nxt = f(path[-1])
            if nxt in idx:
                cycle = tuple(path[idx[nxt]:])
                break
            idx[nxt] = len(path)
            path.append(nxt)
        if len(cycle) > max_period:
            continue
        key = frozenset(cycle)
        if key not in seen:
            seen.add(key)
            found.append(cycle)
    return found


def test_enumerate_orbits_gf5_cubing():
    f = Poly.from_ints(F5, [0, 0, 0, 1])
    orbits = enumerate_lambda_orbits(F5, f, 4)
    got = sorted(tuple(v.value for v in o.values) for o in orbits)
    assert got == [(0,), (1,), (2, 3), (4,)]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_enumerate_orbits_matches_bruteforce(p):
    field = FieldSpec.prime(p)
    rng = random.Random(100 + p)
    for _ in range(6):
        f = Poly(field, [field.random_element(rng) for _ in range(rng.randint(2, 4))])
        if f.degree < 1:
            continue
        orbits = enumerate_lambda_orbits(field, f, p)
        expected = {frozenset(c) for c in brute_orbits(field, f, p)}
        assert {frozenset(o.values) for o in orbits} == expected
        # each reported orbit really is a cycle of f, starting at its smallest point
        for o in orbits:
            assert o.values[0].sort_key() == min(v.sort_key() for v in o.values)
            for i in range(o.period):
                assert f(o.value(i)) == o.value(i + 1)


def test_orbits_over_q_fixed_points_only():
    f = Poly.from_ints(QQ, [0, 0, 1])  # fixed points of h^2: 0 and 1
    orbits = enumerate_lambda_orbits(QQ, f, 1)
    got = sorted(o.value(0).value for o in orbits)
    assert got == [0, 1]
    with pytest.raises(UnsupportedField):
        enumerate_lambda_orbits(QQ, f, 2)
    with pytest.raises(UnsupportedField):
        enumerate_lambda_orbits(QQ, Poly.gen(QQ), 1)


def test_orbit_from_seed():
    f = Poly.from_ints(F5, [0, 0, 0, 1])
    o = orbit_from_seed(f, F5.element(3))
    assert tuple(v.value for v in o.values) == (3, 2)
    assert tuple(v.value for v in orbit_from_seed(f, F5.element(2)).values) == (2, 3)
    # 0 is not periodic under h + 1 over Q
    with pytest.raises(InvalidSpec):
        orbit_from_seed(Poly.from_ints(QQ, [1, 1]), QQ.zero)


def test_orbit_from_seed_over_q_rejects_escaping_seeds():
    # iterates 0, 1, 2, 5 of h^2 + 1: 5 is past the escape radius 2
    with pytest.raises(InvalidSpec, match="0 is not a periodic point of f"):
        orbit_from_seed(Poly.from_ints(QQ, [1, 0, 1]), QQ.zero)
    # iterates 1, 1/2, 1/8, ... of h^2 / 2 stay small, but 2 divides each denominator more often
    with pytest.raises(InvalidSpec, match="1 is not a periodic point of f"):
        orbit_from_seed(Poly(QQ, [QQ.zero, QQ.zero, QQ.element(1) / 2]), QQ.one)
    half = QQ.element(1) / 2
    assert orbit_from_seed(Poly.from_ints(QQ, [0, 0, 2]), half).values == (half,)
    assert [str(v) for v in orbit_from_seed(Poly.from_ints(QQ, [-1, 0, 1]), -QQ.one).values] == ["-1", "0"]


def test_orbit_from_seed_over_q_finds_planted_cycles():
    # f = a + b - h + c (h - a)(h - b) h^e swaps a and b; f = h + c (h - a)^2 h^e fixes a
    rng = random.Random(7)

    def rational():
        return QQ.element(rng.randint(-40, 40)) / rng.randint(1, 12)

    h = Poly.gen(QQ)
    for _ in range(200):
        a, b, c = rational(), rational(), rational()
        if a == b or c.is_zero:
            continue
        bump = h ** rng.randint(0, 2) * c
        swap = Poly.constant(QQ, a + b) - h + (h - Poly.constant(QQ, a)) * (h - Poly.constant(QQ, b)) * bump
        assert orbit_from_seed(swap, a).values == (a, b)
        fix = h + (h - Poly.constant(QQ, a)) ** 2 * bump
        assert orbit_from_seed(fix, a).values == (a,)


def test_orbit_from_seed_over_a_large_field_is_bounded():
    F = FieldSpec.prime(4294967311)
    # h^2 + 1 repeats after 64710 steps from 0, which is not on the cycle
    with pytest.raises(InvalidSpec, match="0 is not a periodic point of f"):
        orbit_from_seed(Poly.from_ints(F, [1, 0, 1]), F.zero)
    assert orbit_from_seed(Poly.zero(F), F.zero).values == (F.zero,)
    # h + 1 is one cycle through all 4294967311 points
    with pytest.raises(SearchSpaceTooLarge, match="the orbit of 0 under f takes more than 262144 steps"):
        orbit_from_seed(Poly.from_ints(F, [1, 1]), F.zero)
    # a step of h^500 + h + 1 costs 501 products, so the walk stops after 1046 steps
    start = time.perf_counter()
    with pytest.raises(SearchSpaceTooLarge, match="more than 1046 steps"):
        orbit_from_seed(Poly(F, [F.one, F.one] + [F.zero] * 498 + [F.one]), F.zero)
    assert time.perf_counter() - start < 5


def test_orbit_check_runs_on_raw_values(monkeypatch):
    # u h + 1 over GF(251^3) has one cycle of 126506 points through 0.  The
    # public constructor checks it at about one raw evaluation of f per
    # point; through FieldElement arithmetic it cost about a third more.
    F = FieldSpec.extension(251, 3)
    f = Poly(F, [F.one, F.generator])
    start = time.perf_counter()
    orbit = orbit_from_seed(f, F.zero)
    assert time.perf_counter() - start < 15
    assert orbit.period == 126506
    raw = [v.value for v in orbit.values]
    start = time.perf_counter()
    list(map(f._at, raw))
    evaluation = time.perf_counter() - start
    monkeypatch.setattr(Poly, "__call__", None)  # no FieldElement evaluation of f
    start = time.perf_counter()
    assert LambdaOrbit(f, orbit.values) == orbit
    assert time.perf_counter() - start < 2 * evaluation + 0.5


def test_walked_orbits_evaluate_f_once_per_point(monkeypatch):
    # a period-l orbit costs orbit_from_seed l evaluations of f, and a table
    # of f costs one per point: the LambdaOrbits they build are not checked again
    calls = []
    at = Poly._at

    def counting(poly, x):
        calls.append(poly)
        return at(poly, x)

    monkeypatch.setattr(Poly, "_at", counting)
    F101, F49 = FieldSpec.prime(101), FieldSpec.extension(7, 2)
    cases = [(Poly.from_ints(F101, [1, 1]), F101.zero, 101),  # h + 1: one cycle through every point
             (Poly.from_ints(F101, [0, 0, 1]), F101.one, 1),
             (Poly(F49, [F49.zero, F49.generator]), F49.one, None),  # u h: the powers of u
             (Poly.from_ints(QQ, [0, -1]), QQ.one, 2),  # -h: 1 -> -1 -> 1
             (Poly.from_ints(QQ, [-2, 0, 1]), QQ.element(2), 1)]
    for f, seed, period in cases:
        calls.clear()
        orbit = orbit_from_seed(f, seed)
        assert period is None or orbit.period == period
        assert calls == [f] * orbit.period
        calls.clear()
        assert LambdaOrbit(f, orbit.values) == orbit  # the public constructor still checks
        assert calls == [f] * orbit.period
    f = Poly.from_ints(F101, [3, 0, 1])
    calls.clear()
    orbits = enumerate_lambda_orbits(F101, f, 101)
    assert calls == [f] * 101 and sum(o.period for o in orbits) > 1
    calls.clear()
    assert enumerate_simples(AlgebraSpec(F101, F101.element(2), f, Poly.gen(F101)), 4)
    assert calls.count(f) == 101
    # over Q the fixed points 2 and -1 of h^2 - 2 are exact roots of f - h
    calls.clear()
    assert len(enumerate_lambda_orbits(QQ, Poly.from_ints(QQ, [-2, 0, 1]), 1)) == 2
    assert calls == []


def test_orbit_validation():
    f = Poly.from_ints(F5, [0, 0, 1])
    with pytest.raises(InvalidSpec):
        LambdaOrbit(f, (F5.element(2), F5.element(3)))  # 2 -> 4, not 3
    with pytest.raises(InvalidSpec, match="pairwise distinct"):
        LambdaOrbit(f, (F5.element(1), F5.element(1)))
    with pytest.raises(InvalidSpec, match="at least one point"):
        LambdaOrbit(f, ())
    with pytest.raises(FieldMismatch):
        LambdaOrbit(f, (FieldSpec.prime(7).one,))
    assert LambdaOrbit(f, (F5.one,)).period == 1


def test_mu_recurrence():
    f = Poly.from_ints(F5, [0, 0, 1])
    g = Poly.gen(F5)
    orbit = orbit_from_seed(f, F5.one)
    mu = MuSequence(orbit, F5.element(2), g, F5.element(3))
    assert [v.value for v in mu.values(4)] == [3, 2, 0, 1]
    for i in range(30):
        assert mu.value(i + 1) == mu.value(i) * mu.q + g(orbit.value(i))


@pytest.mark.parametrize("field", [QQ, FieldSpec.extension(7, 2)], ids=str)
def test_mu_value_matches_closed_form(field):
    # mu(i) = q^i b + sum_{j=0}^{i-1} q^j g(lambda(i-j-1))
    f = Poly.from_ints(field, [0, 0, 1])
    g = Poly.from_ints(field, [2, 1, 3])
    orbit = orbit_from_seed(f, field.one)
    q, b = field.element(3), field.element(5)
    mu = MuSequence(orbit, q, g, b)
    for i in range(12):
        drift = sum((q ** j * g(orbit.value(i - j - 1)) for j in range(i)), field.zero)
        assert mu.value(i) == q ** i * b + drift


def brute_mu_period(mu, limit=600):
    """Smallest m > 0 with mu(i + m*l) = mu(i) everywhere, by scanning values."""
    vals = mu.values(2 * limit)
    l = mu.orbit.period
    for t in range(l, limit, l):
        if all(vals[i + t] == vals[i] for i in range(limit)):
            return t // l
    return 0


def random_orbit_grid(p):
    """(orbit, q, g, beta) over GF(p) for random f, g, q and one random anchor per orbit."""
    field = FieldSpec.prime(p)
    rng = random.Random(40 + p)
    for _ in range(20):
        f = Poly(field, [field.random_element(rng) for _ in range(rng.randint(2, 4))])
        if f.degree < 1:
            continue
        g = Poly(field, [field.random_element(rng) for _ in range(3)])
        q = field.element(rng.randrange(1, p))
        for orbit in enumerate_lambda_orbits(field, f, p):
            yield orbit, q, g, field.random_element(rng)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_mu_period_matches_bruteforce(p):
    for orbit, q, g, beta in random_orbit_grid(p):
        got = mu_period(orbit, q, g, beta)
        want = brute_mu_period(MuSequence(orbit, q, g, beta))
        assert got == want, (p, orbit.f.render(), g.render(), q, beta, got, want)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_mu_periods_matches_bruteforce(p):
    for orbit, q, g, beta in random_orbit_grid(p):
        fixed, period = mu_periods(orbit, q, g)
        if fixed is not None:
            assert brute_mu_period(MuSequence(orbit, q, g, fixed)) == 1
        if beta != fixed:
            want = brute_mu_period(MuSequence(orbit, q, g, beta))
            assert period == want, (p, orbit.f.render(), g.render(), q, beta, period, want)


def test_mu_period_char_p_case():
    # q = 1 and nonzero drift: period is p times the orbit length
    f = Poly.from_ints(F5, [0, 0, 1])
    orbit = orbit_from_seed(f, F5.one)
    assert mu_period(orbit, F5.one, Poly.gen(F5), F5.element(3)) == 5


def test_mu_period_infinite_over_q():
    f = Poly.from_ints(QQ, [0, 0, 1])
    orbit = orbit_from_seed(f, QQ.one)
    # q = 1, g(1) = 1 != 0: mu drifts forever
    assert mu_period(orbit, QQ.one, Poly.gen(QQ), QQ.element(3)) == 0
    mu = MuSequence(orbit, QQ.one, Poly.gen(QQ), QQ.element(3))
    assert mu.period == 0
    # q = 2, anchored at the fixed point of the affine step: period 1
    # beta = Xi/(1-Q) with Xi = g(1) = 1, Q = 2 -> beta = -1
    assert mu_period(orbit, QQ.element(2), Poly.gen(QQ), QQ.element(-1)) == 1
    # q = -1: Q = 1 after the length-1 orbit? no: Q = q^1 = -1, order 2
    assert mu_period(orbit, QQ.element(-1), Poly.zero(QQ), QQ.element(5)) == 2


def test_nu_increment_identity():
    # mu(l) = q^l * beta + mu_0(l) for any anchor beta, where mu_0 is anchored at 0
    f = Poly.from_ints(F5, [0, 0, 0, 1])
    g = Poly.from_ints(F5, [1, 2])
    q = F5.element(3)
    for orbit in enumerate_lambda_orbits(F5, f, 5):
        xi = MuSequence(orbit, q, g, F5.zero).value(orbit.period)
        for b in range(5):
            beta = F5.element(b)
            mu = MuSequence(orbit, q, g, beta)
            assert mu.value(orbit.period) == q ** orbit.period * beta + xi


def test_mu_refuses_negative_indices_and_periods_need_nonzero_q():
    f = Poly.from_ints(F5, [0, 0, 1])
    orbit = orbit_from_seed(f, F5.one)
    mu = MuSequence(orbit, F5.zero, Poly.gen(F5), F5.element(3))
    assert [v.value for v in mu.values(3)] == [3, 1, 1]
    with pytest.raises(ValueError):
        mu.value(-1)
    with pytest.raises(QZero):
        mu_period(orbit, F5.zero, Poly.gen(F5), F5.one)


def test_nu_table_frozen():
    alg = AlgebraSpec(F5, F5.element(2), Poly.from_ints(F5, [0, 0, 1]), Poly.gen(F5))
    table = nu_table(alg, F5.one, 4)
    assert [v.value for v in table.values] == [0, 1, 3, 2, 0]
    # recurrence check
    for i in range(4):
        fi = F5.one
        for _ in range(i):
            fi = alg.f(fi)
        assert table.values[i + 1] == alg.q * table.values[i] + alg.g(fi)


@pytest.mark.parametrize("g", [Poly.from_ints(F5, [3]), Poly.gen(F5)], ids=["constant g", "g = h"])
def test_nu_table_points_are_the_forward_orbit(g):
    # with a constant g the table walks no point until points is read
    alg = AlgebraSpec(F5, F5.element(2), Poly.from_ints(F5, [1, 0, 1]), g)
    for count in range(6):
        walk = [F5.element(2)]
        for _ in range(count):
            walk.append(alg.f(walk[-1]))
        table = nu_table(alg, F5.element(2), count)
        assert ("points" in vars(table)) == (not g.is_constant)
        assert table.points == tuple(walk[:count])


def test_nu_matches_mu_anchored_at_zero():
    # when alpha is periodic, nu agrees with the mu sequence anchored at 0
    f = Poly.from_ints(F5, [0, 0, 0, 1])
    g = Poly.from_ints(F5, [2, 1])
    alg = AlgebraSpec(F5, F5.element(3), f, g)
    orbit = orbit_from_seed(f, F5.element(2))
    mu = MuSequence(orbit, alg.q, g, F5.zero)
    table = nu_table(alg, F5.element(2), 12)
    assert list(table.values) == list(mu.values(13))


@pytest.mark.parametrize("field", [FieldSpec.prime(2), FieldSpec.prime(3), F5, FieldSpec.extension(2, 2)],
                         ids=str)
def test_nu_first_zero_matches_nu_table_past_the_field_squared(field):
    # oracle: the full nu-table of every alpha, with no cap on its length
    rng = random.Random(60 + field.order)
    points = list(field.elements())
    for _ in range(8):
        f = Poly(field, [field.random_element(rng) for _ in range(rng.randint(2, 4))])
        g = Poly(field, [field.random_element(rng) for _ in range(rng.randint(1, 3))])
        alg = AlgebraSpec(field, field.random_element(rng), f, g)
        table = _PointTable(field, f, g)
        for n in range(1, field.order ** 2 + 3):
            want = []
            for i, alpha in enumerate(points):
                nu = nu_table(alg, alpha, n).values
                if next((t for t in range(1, n + 1) if nu[t].is_zero), None) == n:
                    want.append(i)
            assert table.nu_first_zero_at(alg.q, n) == want, (f.render(), g.render(), alg.q, n)


@pytest.mark.parametrize("g_degree", [0, 2], ids=["constant g", "g of degree 2"])
@pytest.mark.parametrize("field", [QQ, F5, FieldSpec.extension(7, 2)], ids=str)
def test_nu_is_theta_at_alpha(field, g_degree):
    # two layers, one value: nu_alpha(i) = sum_{j<i} q^(i-1-j) g(f^[j](alpha)),
    # and theta_i = sum_{j<i} q^(i-1-j) sigma^j(g) evaluated at alpha.  Over Q
    # f is affine: theta_12 of a quadratic f has degree 4096 and huge coefficients
    rng = random.Random(70 + (field.order or 0) + g_degree)
    points = list(field.elements()) if field.order else [QQ.element(v) for v in (0, 1, -2, Fraction(1, 3))]

    def unit():
        while (v := field.random_element(rng)).is_zero:
            pass
        return v

    for _ in range(3):
        f = Poly(field, [field.random_element(rng) for _ in range(1 if field.order is None else 2)] + [unit()])
        g = Poly(field, [field.random_element(rng) for _ in range(g_degree)] + [unit()])
        alg = AlgebraSpec(field, field.random_element(rng), f, g, degree_cap=1 << 12)
        thetas = [theta(alg, i) for i in range(13)]
        first_zero = []
        for alpha in points:
            at_alpha = [t(alpha) for t in thetas]
            assert list(nu_table(alg, alpha, 12).values) == at_alpha, (f.render(), g.render(), alpha)
            first_zero.append(next((i for i in range(1, 13) if at_alpha[i].is_zero), None))
        if field.order:
            table = _PointTable(field, f, g)
            for n in range(1, 13):
                want = [i for i, z in enumerate(first_zero) if z == n]
                assert table.nu_first_zero_at(alg.q, n) == want, (f.render(), g.render(), n)


def test_sequences_past_the_length_budget_fail_fast(monkeypatch):
    monkeypatch.setattr(algebra, "_SEQUENCE_BUDGET", 40)
    alg = AlgebraSpec(F5, F5.element(2), Poly.from_ints(F5, [1, 1]), Poly.gen(F5))
    mu = MuSequence(orbit_from_seed(Poly.gen(F5), F5.one), alg.q, alg.g, F5.one)
    assert theta(alg, 40) == theta(alg, 39).compose(alg.f) + alg.q ** 39 * alg.g
    assert len(nu_table(alg, F5.one, 40).values) == 41
    assert (len(mu.values(40)), mu.value(39)) == (40, mu.values(40)[-1])
    for build in (lambda: theta(alg, 41), lambda: nu_table(alg, F5.one, 41), lambda: mu.values(41),
                  lambda: mu.value(40)):
        with pytest.raises(SearchSpaceTooLarge, match="41 terms of a sequence are past the length budget of 40"):
            build()
    # the period rule walks one orbit, however long: h + 1 over GF(47) has one orbit of period 47
    f47 = FieldSpec.prime(47)
    orbit = orbit_from_seed(Poly.from_ints(f47, [1, 1]), f47.zero)
    assert orbit.period == 47
    assert mu_periods(orbit, f47.element(2), Poly.gen(f47)) == (f47.element(46), 23)
