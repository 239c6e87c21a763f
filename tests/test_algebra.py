"""Normal-form engine: straightening, theta, iota, weights, commutators."""

import gc
import math
import random
import weakref

import pytest
from test_acceptance import parameter_sets
from test_poly import horner

from qgha.algebra import (
    AlgebraSpec,
    PBWElement,
    commutator,
    generators,
    q_commutator,
    theta,
)
from qgha.errors import DegreeOverflow, FieldMismatch
from qgha.fields import FieldSpec
from qgha.parsing import parse_element
from qgha.poly import Poly

QQ = FieldSpec.rationals()
F5 = FieldSpec.prime(5)


def alg_f5(q=2, f=(0, 0, 1), g=(0, 1), cap=512):
    return AlgebraSpec(F5, F5.element(q), Poly.from_ints(F5, f), Poly.from_ints(F5, g), cap)


def random_element(alg, rng, max_exp=2, max_deg=2, max_terms=2):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        key = (rng.randint(0, max_exp), rng.randint(0, max_exp))
        p = Poly(alg.field, [alg.field.random_element(rng) for _ in range(rng.randint(1, max_deg + 1))])
        terms[key] = terms.get(key, Poly.zero(alg.field)) + p
    return PBWElement(alg, terms)


def test_defining_relations():
    alg = alg_f5()
    x, y, h = generators(alg)
    assert h * x == PBWElement.monomial(alg, 1, alg.f, 0)
    assert y * h == PBWElement(alg, {(0, 1): alg.f})
    assert y * x == x * y * alg.q + PBWElement.h_poly(alg, alg.g)


def test_straightening_example():
    # frozen: over GF(5) with q=2, f=h^2, g=h: (y x) x = x (h^2 + 2h) + 4 x^2 y
    alg = alg_f5()
    x, y, _ = generators(alg)
    result = (y * x) * x
    expected = PBWElement(
        alg,
        {(1, 0): Poly.from_ints(F5, [0, 2, 1]), (2, 1): Poly.from_ints(F5, [4])},
    )
    assert result == expected
    assert result == y * (x * x)


def test_theta_values():
    # theta_0 = 0, theta_1 = g, theta_2 = sigma(g) + q g = h^2 + 2h (frozen)
    alg = alg_f5()
    assert theta(alg, 0).is_zero
    assert theta(alg, 1) == alg.g
    assert theta(alg, 2) == Poly.from_ints(F5, [0, 2, 1])


def test_theta_straightening_identities():
    # y x^k = q^k x^k y + x^{k-1} theta_k and y^k x = q^k x y^k + theta_k y^{k-1}
    for (q, f, g) in [(2, (0, 0, 1), (0, 1)), (1, (1, 1), (3, 1)), (4, (0, 0, 0, 1), (0, 0, 1))]:
        alg = alg_f5(q, f, g, cap=4096)
        x, y, _ = generators(alg)
        for k in range(1, 5):
            th = theta(alg, k)
            qk = alg.q_power(k)
            lhs = y * x ** k
            rhs = (x ** k * y) * qk + PBWElement(alg, {(k - 1, 0): th})
            assert lhs == rhs
            lhs2 = y ** k * x
            rhs2 = (x * y ** k) * qk + PBWElement(alg, {(0, k - 1): th})
            assert lhs2 == rhs2


def test_theta_conformal_closed_form():
    # when g = sigma(a) - q a, theta_k collapses to sigma^k(a) - q^k a
    a = Poly.from_ints(F5, [1, 2])
    for q in (1, 2, 3):
        f = Poly.from_ints(F5, [0, 1, 1])
        qe = F5.element(q)
        g = a.compose(f) - qe * a
        alg = AlgebraSpec(F5, qe, f, g, degree_cap=4096)
        for k in range(7):
            assert theta(alg, k) == alg.sigma_power(a, k) - alg.q_power(k) * a


def test_associativity_random():
    rng = random.Random(5)
    for alg in (alg_f5(), alg_f5(0, (0, 1), (2, 1)), alg_f5(1, (1, 1), (0, 0, 1))):
        for _ in range(60):
            u, v, w = (random_element(alg, rng) for _ in range(3))
            assert (u * v) * w == u * (v * w)


def test_one_and_zero():
    alg = alg_f5()
    one, zero = PBWElement.one(alg), PBWElement.zero(alg)
    e = random_element(alg, random.Random(7))
    assert one * e == e and e * one == e
    assert zero * e == zero and (e - e).is_zero


def test_iota_antiautomorphism():
    alg = alg_f5()
    e = PBWElement.monomial(alg, 1, Poly.gen(F5), 2)
    assert e.iota() == PBWElement.monomial(alg, 2, Poly.gen(F5), 1)
    rng = random.Random(9)
    for _ in range(40):
        u, v = random_element(alg, rng), random_element(alg, rng)
        assert (u * v).iota() == v.iota() * u.iota()
        assert u.iota().iota() == u
    # the ten criterion-1 algebras: sigma^k acts on both sides of each product
    for alg in parameter_sets():
        for _ in range(30):
            u, v = random_element(alg, rng), random_element(alg, rng)
            assert (u * v).iota() == v.iota() * u.iota(), str(alg)
            assert u.iota().iota() == u
    assert PBWElement.h(alg).iota() == PBWElement.h(alg)
    assert PBWElement.x(alg).iota() == PBWElement.y(alg)


def weights(e):
    """The weights i - k (x-degree minus y-degree) of the terms of e."""
    return {i - k for i, k in e.terms}


def test_weight_decompose():
    alg = alg_f5()
    x, y, h = generators(alg)
    e = x * x + x * y + PBWElement.h_poly(alg, Poly.from_ints(F5, [0, 1])) + y
    assert weights(e) == {-1, 0, 2}
    # weights multiply additively
    rng = random.Random(13)
    for _ in range(25):
        u, v = random_element(alg, rng), random_element(alg, rng)
        wu, wv = weights(u), weights(v)
        if len(wu) == 1 and len(wv) == 1:
            (a,), (b,) = wu, wv
            prod = u * v
            if not prod.is_zero:
                assert weights(prod) == {a + b}


def test_commutators():
    # with f = h, h is central among x and h
    alg = alg_f5(2, (0, 1), (0, 1))
    x, y, h = generators(alg)
    assert commutator(h, x).is_zero
    assert commutator(h, y).is_zero
    # q-commutator picks out g: y x - q x y = g(h)
    alg2 = alg_f5()
    x2, y2, _ = generators(alg2)
    assert q_commutator(y2, x2, alg2.q) == PBWElement.h_poly(alg2, alg2.g)


def test_degree_cap():
    alg = alg_f5(2, (0, 0, 0, 1), (0, 1), cap=20)
    x, y, h = generators(alg)
    with pytest.raises(DegreeOverflow):
        y * (x * PBWElement.h_poly(alg, Poly.monomial(F5, 10)))
    # products are capped too, and powers square no further than they need
    assert (h ** 20).coefficient(0, 0).degree == 20
    with pytest.raises(DegreeOverflow):
        h ** 21
    # the cap is at least 1 and holds f and g themselves
    for cap, f, g in ((0, (0, 1), (0, 1)), (2, (0, 0, 0, 1), (0, 1)), (2, (0, 1), (0, 0, 0, 1))):
        with pytest.raises(DegreeOverflow):
            alg_f5(2, f, g, cap=cap)


def test_sigma_power_matches_repeated_horner():
    # sigma^k(p) is p substituted k times into f; f = 0, constant, h + 1 (deep k) and deg 3
    rng = random.Random(17)
    for F in (QQ, F5):
        for f, depth in (((), 6), ((3,), 6), ((1, 1), 80), ((2, 0, 1, 1), 3)):
            alg = AlgebraSpec(F, F.element(2), Poly.from_ints(F, f), Poly.gen(F), degree_cap=4096)
            ks = list(range(depth + 1))
            rng.shuffle(ks)  # memo lists warmed in no particular order
            for k in ks:
                for _ in range(3):
                    p = Poly(F, [F.random_element(rng) for _ in range(rng.randint(1, 8))])
                    expected = p
                    for _ in range(k):
                        expected = horner(expected, alg.f)
                    assert alg.sigma_power(p, k) == expected, (F, f, k)


def test_sigma_power_memo_holds_about_sqrt_cap_powers():
    cap = 4096
    alg = AlgebraSpec(QQ, QQ.element(2), Poly.from_ints(QQ, [1, 0, 1]), Poly.gen(QQ), degree_cap=cap)
    theta(alg, 10)  # composes theta_9, of degree 256, with f
    x, y, _ = generators(alg)
    assert not (y ** 4 * x ** 4).is_zero
    assert 1 in alg._powers
    for powers in alg._powers.values():
        assert len(powers) <= 2 * math.isqrt(cap) + 2
        assert max(len(v) for v in powers) - 1 <= cap


def test_deep_theta_matches_closed_form():
    # f = h makes sigma the identity, so theta_k = (1 + q + ... + q^{k-1}) g
    alg = alg_f5(2, (0, 1), (3, 1))
    # k = 1500 first, on a cold algebra, so nothing below it is memoized yet
    assert theta(alg, 1500) == F5.element(sum(2 ** i for i in range(1500))) * alg.g
    partial = F5.zero
    for k in range(1501):
        assert theta(alg, k) == partial * alg.g
        partial = partial * alg.q + 1


def test_deep_straightening_matches_closed_form():
    # with f = h and g = h: y^k x = q^k x y^k + ((q^k - 1)/(q - 1)) h y^{k-1}
    alg = AlgebraSpec(QQ, QQ.element(2), Poly.gen(QQ), Poly.gen(QQ))
    expected = PBWElement(alg, {(1, 1100): Poly.constant(QQ, 2 ** 1100),
                                (0, 1099): Poly.from_ints(QQ, [0, 2 ** 1100 - 1])})
    assert parse_element("y^1100*x", alg) == expected


def test_memos_do_not_keep_the_algebra_alive():
    alg = alg_f5()
    x, y, h = generators(alg)
    product = (y * y * x) * (h * x * x)
    assert not product.is_zero
    ref = weakref.ref(alg)
    del alg, x, y, h, product
    gc.collect()
    assert ref() is None


def test_cross_algebra_mixing_rejected():
    with pytest.raises(FieldMismatch):
        PBWElement.x(alg_f5()) * PBWElement.y(alg_f5(q=3))


def test_scalar_multiplication():
    alg = alg_f5()
    x = PBWElement.x(alg)
    assert x * 3 == 3 * x
    assert (x * F5.element(2)) + (x * 3) == PBWElement.zero(alg)


def test_power_matches_repeated_product():
    alg = alg_f5()
    e = PBWElement.x(alg) + PBWElement.y(alg)
    acc = PBWElement.one(alg)
    for n in range(5):
        assert e ** n == acc
        acc = acc * e
