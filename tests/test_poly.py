"""Commutative polynomial layer: arithmetic, substitution, roots."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgha.algebra import AlgebraSpec
from qgha import poly
from qgha.errors import DegreeOverflow, DivisionByZero, FieldMismatch, SearchSpaceTooLarge, ZeroArgument
from qgha.fields import FieldSpec
from qgha.poly import (
    Poly,
    rational_roots,
    roots_in_field,
)

QQ = FieldSpec.rationals()
F5 = FieldSpec.prime(5)
COMPOSE_FIELDS = [QQ, F5, FieldSpec.extension(7, 2), FieldSpec.extension(2, 3)]


def horner(p: Poly, inner: Poly) -> Poly:
    """p(inner) by Horner's rule on Poly arithmetic: the oracle for compose."""
    acc = Poly.zero(p.spec)
    for c in reversed(p.coeffs):
        acc = acc * inner + Poly.constant(p.spec, c)
    return acc


def random_poly(spec: FieldSpec, degree: int, rng: random.Random) -> Poly:
    """A polynomial of exactly this degree (-1 is the zero polynomial)."""
    if degree < 0:
        return Poly.zero(spec)
    units = list(spec.units()) if spec.order else [spec.element(Fraction(rng.randint(1, 9), rng.randint(1, 9)))]
    return Poly(spec, [spec.random_element(rng) for _ in range(degree)] + [rng.choice(units)])


def test_zero_degree_sentinel():
    assert Poly.zero(QQ).degree == -1
    assert Poly.one(QQ).degree == 0
    assert Poly.gen(QQ).degree == 1
    assert Poly.from_ints(F5, [1, 0, 5]).degree == 0  # leading 5 = 0 trims


def test_arithmetic_basics():
    h = Poly.gen(QQ)
    p = (h + Poly.one(QQ)) * (h - Poly.one(QQ))
    assert p == Poly.from_ints(QQ, [-1, 0, 1])
    assert p(QQ.element(3)) == QQ.element(8)
    assert (h ** 3).coefficient(3) == QQ.one
    assert 2 * h == Poly.from_ints(QQ, [0, 2])


def test_divmod():
    h = Poly.gen(QQ)
    num = h ** 3 - Poly.one(QQ)
    den = h - Poly.one(QQ)
    q, r = divmod(num, den)
    assert r.is_zero
    assert q == Poly.from_ints(QQ, [1, 1, 1])
    assert num % (h + Poly.one(QQ)) == Poly.constant(QQ, -2)
    with pytest.raises(DivisionByZero):
        divmod(num, Poly.zero(QQ))


def test_compose_and_sigma_power():
    # sigma(p) for f = h^2 squares the variable
    f = Poly.from_ints(QQ, [0, 0, 1])
    p = Poly.from_ints(QQ, [1, 2])      # 2h + 1
    assert p.compose(f) == Poly.from_ints(QQ, [1, 0, 2])
    alg = AlgebraSpec(QQ, QQ.one, f, Poly.zero(QQ))
    assert alg.sigma_power(p, 2) == Poly.from_ints(QQ, [1, 0, 0, 0, 2])
    assert alg.sigma_power(p, 0) == p


def test_compose_degree_guard():
    f = Poly.from_ints(QQ, [0, 0, 0, 1])
    p = Poly.monomial(QQ, 4)
    powers = []
    with pytest.raises(DegreeOverflow, match=r"^composition degree 12 exceeds cap 10$"):
        p.compose(f, max_degree=10, powers=powers)
    assert powers == []  # refused before any power is built
    assert p.compose(f, max_degree=12).degree == 12


@pytest.mark.parametrize("F", COMPOSE_FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(degree=st.integers(0, 40), inner_degree=st.integers(-1, 4), first=st.integers(0, 40),
       seed=st.integers(0, 2**32), reuse=st.booleans())
def test_compose_matches_horner(F, degree, inner_degree, first, seed, reuse):
    rng = random.Random(seed)
    p, inner = random_poly(F, degree, rng), random_poly(F, inner_degree, rng)
    if not reuse:
        assert p.compose(inner) == horner(p, inner)
        return
    # one powers list across two compositions, the first of another degree
    powers = []
    warm = random_poly(F, first, rng)
    assert warm.compose(inner, powers=powers) == horner(warm, inner)
    assert p.compose(inner, powers=powers) == horner(p, inner)
    assert all(Poly(F, v) == inner ** j for j, v in enumerate(powers))
    # every degree <= 2 is one scalar combination: at most inner^2 is built
    if max(degree, first) <= 2:
        assert len(powers) <= 3


def test_render_and_negative_coefficients():
    p = Poly.from_ints(QQ, [0, -1, 1])
    assert p.render() == "h^2 - h"
    assert Poly.from_ints(QQ, [Fraction(1, 2)]).render() == "1/2"
    assert Poly.from_ints(F5, [0, 3, 1]).render() == "h^2 + 3*h"
    assert Poly.zero(F5).render() == "0"
    assert Poly.from_ints(QQ, [-1]).render() == "-1"


def test_roots_in_field_gf5():
    # frozen: h^3 - 1 has only the root 1 in GF(5)
    p = Poly.from_ints(F5, [-1, 0, 0, 1])
    assert roots_in_field(p) == {F5.element(1)}
    # oracle comparison: direct scan
    rng = random.Random(3)
    for _ in range(50):
        q = Poly(F5, [F5.random_element(rng) for _ in range(rng.randint(1, 5))])
        if q.is_zero:
            continue
        brute = {a for a in F5.elements() if q(a).is_zero}
        assert roots_in_field(q) == brute


def test_rational_roots():
    # (2h - 1)(h + 3) h: roots 1/2, -3, 0
    h = Poly.gen(QQ)
    p = (2 * h - Poly.one(QQ)) * (h + Poly.constant(QQ, 3)) * h
    assert rational_roots(p) == {
        QQ.element(Fraction(1, 2)),
        QQ.element(-3),
        QQ.element(0),
    }
    # h^2 + 1 has none; h^2 - 2 has none rational
    assert rational_roots(Poly.from_ints(QQ, [1, 0, 1])) == set()
    assert rational_roots(Poly.from_ints(QQ, [-2, 0, 1])) == set()
    with pytest.raises(ZeroArgument):
        roots_in_field(Poly.zero(QQ))


def brute_rational_roots(coeffs: list[Fraction]) -> set[Fraction]:
    """Scan every a/b with b <= |a_n| and |a/b| under the Cauchy bound, the a_i cleared to integers."""
    scale = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * scale) for c in coeffs]
    n, lead = len(ints) - 1, abs(ints[-1])
    bound = 1 - (-max(abs(c) for c in ints[:-1]) // lead)  # 1 + the ceiling of max |a_i| / |a_n|
    found = set()
    for b in range(1, lead + 1):
        for a in range(-bound * b, bound * b + 1):
            if sum(c * a ** i * b ** (n - i) for i, c in enumerate(ints)) == 0:
                found.add(Fraction(a, b))
    return found


def test_rational_roots_match_a_brute_force_scan():
    # products of linear factors b h - a and a random factor of degree <= 2,
    # scaled by a random rational, so the forms have rational roots and
    # uncleared denominators
    rng = random.Random(11)
    h = Poly.gen(QQ)
    for _ in range(150):
        p = Poly.constant(QQ, Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 6)))
        for _ in range(rng.randint(0, 3)):
            p = p * (rng.randint(1, 3) * h - Poly.constant(QQ, rng.randint(-4, 4)))
        rest = [rng.randint(-4, 4) for _ in range(rng.randint(0, 2))] + [rng.choice([-2, -1, 1, 3])]
        p = p * Poly.from_ints(QQ, rest)
        if p.degree < 1:
            continue
        assert {r.value for r in rational_roots(p)} == brute_rational_roots([c.value for c in p.coeffs]), p


def test_rational_roots_refuse_past_the_work_budget_before_any_candidate(monkeypatch):
    def no_divisors(_):
        raise AssertionError("a divisor list was built")

    # 6983776800 = 2^5 3^3 5^2 7 11 13 17 has 2304 divisors: 2304^2 pairs
    # of 3 coefficients are past the budget
    wide = Poly.from_ints(QQ, [6983776800, 0, 6983776800])
    monkeypatch.setattr(poly, "_divisors", no_divisors)
    with pytest.raises(SearchSpaceTooLarge, match="15925248 Horner steps, past the budget of 524288$"):
        rational_roots(wide)
    monkeypatch.undo()
    # h^2 - 6 h + 8 = (h - 2)(h - 4): d(8) = 4 pairs of 3 coefficients
    p = Poly.from_ints(QQ, [8, -6, 1])
    monkeypatch.setattr(poly, "_ROOT_WORK_BUDGET", 11)
    with pytest.raises(SearchSpaceTooLarge, match="12 Horner steps"):
        rational_roots(p)
    monkeypatch.setattr(poly, "_ROOT_WORK_BUDGET", 12)
    assert rational_roots(p) == {QQ.element(2), QQ.element(4)}


def test_rational_roots_answer_or_fail_fast_on_large_constant_terms():
    # trial division up to isqrt(10^16) took seconds; the factorization takes none
    for e in (16, 40, 100):
        start = time.perf_counter()
        assert rational_roots(Poly.from_ints(QQ, [10 ** e, -1, 1])) == set()
        assert time.perf_counter() - start < 0.5
    assert rational_roots(Poly.from_ints(QQ, [-10 ** 20, 10 ** 20 - 1, 1])) == {QQ.one, QQ.element(-10 ** 20)}
    # two primes near 10^15 take more rho steps than _factorize spends
    p, q = 10 ** 15 + 37, 10 ** 15 + 91
    start = time.perf_counter()
    with pytest.raises(SearchSpaceTooLarge, match="rho steps"):
        rational_roots(Poly.from_ints(QQ, [p * q, 0, 1]))
    assert time.perf_counter() - start < 10


def test_poly_hash_consistency():
    a = Poly.from_ints(F5, [2, 3])
    b = Poly.from_ints(F5, [7, 8])
    assert a == b and hash(a) == hash(b)


def test_constructor_rejects_elements_of_another_field():
    F7 = FieldSpec.prime(7)
    with pytest.raises(FieldMismatch):
        Poly(F5, [F7.element(6)])  # 6 is no GF(5) residue
    with pytest.raises(FieldMismatch):
        Poly(F5, [F7.one, F7.element(3)])
    assert Poly(F5, [F5.one, F5.element(3)]) == Poly.from_ints(F5, [1, 3])
