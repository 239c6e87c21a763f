"""Lambda orbits, mu sequences and periods, nu tables."""

import random
import time

import pytest

from qgha.algebra import AlgebraSpec
from qgha.errors import InvalidSpec, QZero, SearchSpaceTooLarge, UnsupportedField
from qgha.fields import FieldSpec
from qgha.poly import Poly
from qgha.spectra import (
    LambdaOrbit,
    MuSequence,
    enumerate_lambda_orbits,
    mu_period,
    mu_periods,
    nu_increment,
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
        # each reported orbit really is a cycle of f, in canonical rotation
        for o in orbits:
            assert o.canonical() == o
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
    assert o.rotated(1).values == o.canonical().values
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


def test_orbit_validation():
    f = Poly.from_ints(F5, [0, 0, 1])
    with pytest.raises(InvalidSpec):
        LambdaOrbit(f, (F5.element(2), F5.element(3)))  # 2 -> 4, not 3


def test_mu_recurrence_and_bilateral():
    f = Poly.from_ints(F5, [0, 0, 1])
    g = Poly.gen(F5)
    orbit = orbit_from_seed(f, F5.one)
    mu = MuSequence(orbit, F5.element(2), g, F5.element(3))
    assert [v.value for v in mu.values(4)] == [3, 2, 0, 1]
    assert mu.value(-1).value == 1
    # recurrence holds across the whole bilateral range
    for i in range(-15, 30):
        assert mu.value(i + 1) == mu.value(i) * mu.q + g(orbit.value(i))


@pytest.mark.parametrize("field", [QQ, FieldSpec.extension(7, 2)], ids=str)
def test_mu_value_matches_closed_form(field):
    # mu(i) = q^i b + sum_{j=0}^{i-1} q^j g(lambda(i-j-1)) for i >= 0,
    # mu(i) = q^i b - sum_{j=i}^{-1} q^j g(lambda(i-j-1)) for i < 0
    f = Poly.from_ints(field, [0, 0, 1])
    g = Poly.from_ints(field, [2, 1, 3])
    orbit = orbit_from_seed(f, field.one)
    q, b = field.element(3), field.element(5)
    mu = MuSequence(orbit, q, g, b)
    for i in range(-6, 9):
        terms = [q ** j * g(orbit.value(i - j - 1)) for j in (range(i) if i >= 0 else range(i, 0))]
        drift = sum(terms, field.zero)
        assert mu.value(i) == q ** i * b + (drift if i >= 0 else -drift)


def test_mu_shifted():
    f = Poly.from_ints(F5, [0, 0, 0, 1])
    orbit = orbit_from_seed(f, F5.element(2))  # (2, 3)
    mu = MuSequence(orbit, F5.element(2), Poly.gen(F5), F5.element(1))
    sh = mu.shifted(3)
    for i in range(-6, 10):
        assert sh.value(i) == mu.value(i + 3)
    assert sh.orbit.value(0) == orbit.value(3)


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
    # mu(l) = q^l * beta + Xi for any anchor beta
    f = Poly.from_ints(F5, [0, 0, 0, 1])
    g = Poly.from_ints(F5, [1, 2])
    q = F5.element(3)
    for orbit in enumerate_lambda_orbits(F5, f, 5):
        xi = nu_increment(orbit, q, g)
        for b in range(5):
            beta = F5.element(b)
            mu = MuSequence(orbit, q, g, beta)
            assert mu.value(orbit.period) == q ** orbit.period * beta + xi


def test_mu_requires_nonzero_q_for_negative_indices():
    f = Poly.from_ints(F5, [0, 0, 1])
    orbit = orbit_from_seed(f, F5.one)
    mu = MuSequence(orbit, F5.zero, Poly.gen(F5), F5.element(3))
    assert mu.value(2) is not None
    with pytest.raises(QZero):
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


def test_nu_matches_mu_anchored_at_zero():
    # when alpha is periodic, nu agrees with the mu sequence anchored at 0
    f = Poly.from_ints(F5, [0, 0, 0, 1])
    g = Poly.from_ints(F5, [2, 1])
    alg = AlgebraSpec(F5, F5.element(3), f, g)
    orbit = orbit_from_seed(f, F5.element(2))
    mu = MuSequence(orbit, alg.q, g, F5.zero)
    table = nu_table(alg, F5.element(2), 12)
    assert list(table.values) == list(mu.values(13))
