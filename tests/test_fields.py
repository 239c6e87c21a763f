"""Scalar arithmetic over Q, GF(p) and GF(p^k)."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from qgha.errors import (
    DivisionByZero,
    FieldMismatch,
    SearchSpaceTooLarge,
    UnsupportedField,
    ZeroArgument,
)
from qgha import fields
from qgha.fields import (
    FieldElement,
    FieldSpec,
    find_irreducible,
    frobenius_degree,
    is_prime,
    multiplicative_order,
    poly_is_irreducible,
)
from qgha.poly import Poly

QQ = FieldSpec.rationals()
F5 = FieldSpec.prime(5)
F7 = FieldSpec.prime(7)
F49 = FieldSpec.extension(7, 2)
F8 = FieldSpec.extension(2, 3)


def test_prime_field_examples():
    assert F5.element(2) + F5.element(4) == F5.element(1)
    assert F5.element(3) * F5.element(4) == F5.element(2)
    assert F5.element(2).inverse() == F5.element(3)
    assert F5.element(-1) == F5.element(4)
    assert str(F5.element(7)) == "2"


def test_rational_examples():
    a = QQ.element(Fraction(1, 2))
    b = QQ.element(Fraction(1, 3))
    assert a + b == QQ.element(Fraction(5, 6))
    assert str(a + b) == "5/6"
    assert (a / b) == QQ.element(Fraction(3, 2))
    assert QQ.element(2) ** -2 == QQ.element(Fraction(1, 4))


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        F5.one / F5.zero
    with pytest.raises(DivisionByZero):
        QQ.zero.inverse()


def test_non_int_scalars_coerce_exactly():
    # a float or Fraction is its exact rational value, never truncated by int()
    assert F5.element(0.5) == F5.element(3)  # 1/2 = 3 in GF(5)
    assert Poly.from_ints(F5, [0.5, 1]).render() == "h + 3"
    assert F49.element([Fraction(1, 2), 1]) == F49.element([4, 1])
    assert F49.element([Fraction(1, 2), 1]).value == (4, 1)
    with pytest.raises(DivisionByZero):
        F5.element(Fraction(1, 10))
    with pytest.raises(DivisionByZero):
        F49.element([1, Fraction(3, 14)])


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        F5.one + F7.one
    with pytest.raises(FieldMismatch):
        F5.element(F7.one)


def test_canonical_residues():
    # same residue reached along different routes compares and hashes equal
    a = F7.element(3) * F7.element(5)   # 15 = 1
    b = F7.element(1)
    assert a == b and hash(a) == hash(b)


def test_field_axioms_random():
    rng = random.Random(11)
    for spec in (QQ, F5, F49, F8):
        for _ in range(300):
            a, b, c = (spec.random_element(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == spec.zero
            if not a.is_zero:
                assert a * a.inverse() == spec.one


def test_extension_construction():
    # auto-found modulus is monic, irreducible, of the right degree
    assert F49.modulus[-1] == 1 and len(F49.modulus) == 3
    assert poly_is_irreducible(F49.modulus, 7)
    assert F49.order == 49
    u = F49.generator
    # u satisfies its modulus: u^2 = -(c1 u + c0)
    c0, c1, _ = F49.modulus
    assert u * u == -(F49.element(c1) * u + F49.element(c0))


def test_extension_explicit_modulus():
    spec = FieldSpec.extension(2, 3, (1, 1, 0, 1))  # u^3 + u + 1
    u = spec.generator
    assert u ** 3 == u + spec.one
    with pytest.raises(UnsupportedField):
        FieldSpec.extension(2, 3, (1, 0, 0, 1))  # u^3 + 1 = (u+1)(u^2+u+1)


def test_extension_enumeration_and_inverse():
    elems = list(F8.elements())
    assert len(elems) == 8 and len(set(elems)) == 8
    for a in elems:
        if not a.is_zero:
            assert a * a.inverse() == F8.one


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (7, 2), (2, 8)])
def test_extension_inverse_every_unit(p, k):
    F = FieldSpec.extension(p, k)
    for a in F.units():
        assert a * a.inverse() == F.one


def test_bad_characteristic():
    with pytest.raises(UnsupportedField):
        FieldSpec.prime(6)
    with pytest.raises(UnsupportedField):
        FieldSpec.prime(1)


def test_primality_is_deterministic_and_fast():
    big = FieldSpec.prime(2**61 - 1)
    assert big.element(2**61) == big.element(1)
    # a Carmichael number and a strong pseudoprime to the bases 2, 3, 5 and 7
    for n in (561, 3215031751):
        assert not is_prime(n)
        with pytest.raises(UnsupportedField):
            FieldSpec.prime(n)
    assert is_prime(4294967311) and not is_prime(4294967311 * 4294967291)
    # past the proven range of the fixed bases nothing is guessed
    with pytest.raises(UnsupportedField):
        is_prime(2**89 - 1)


def test_multiplicative_order_small():
    # ord(2) = 4 and ord(4) = 2 mod 5; ord(3) = 6 mod 7
    assert multiplicative_order(F5.element(2)) == 4
    assert multiplicative_order(F5.element(4)) == 2
    assert multiplicative_order(F5.element(1)) == 1
    assert multiplicative_order(F7.element(3)) == 6
    assert multiplicative_order(QQ.element(1)) == 1
    assert multiplicative_order(QQ.element(-1)) == 2
    assert multiplicative_order(QQ.element(5)) == 0
    assert multiplicative_order(QQ.element(Fraction(-2, 3))) == 0
    with pytest.raises(ZeroArgument):
        multiplicative_order(F5.zero)


def test_multiplicative_order_against_iteration():
    # oracle: repeated multiplication until hitting 1
    for spec in (F5, F7, F49, F8):
        for a in spec.elements():
            if a.is_zero:
                continue
            power, count = a, 1
            while not power.is_one:
                power = power * a
                count += 1
            assert multiplicative_order(a) == count


def test_multiplicative_order_prime_fields_below_200():
    # oracle: the first power of a that is 1, on plain residues
    for p in filter(is_prime, range(200)):
        F = FieldSpec.prime(p)
        for a in range(1, p):
            power, count = a, 1
            while power != 1:
                power, count = power * a % p, count + 1
            assert multiplicative_order(F.element(a)) == count


def _trial_division(n):
    out, d = Counter(), 2
    while d * d <= n:
        while n % d == 0:
            out[d] += 1
            n //= d
        d += 1
    if n > 1:
        out[n] += 1
    return dict(out)


def test_factorize_matches_trial_division():
    rng = random.Random(3)
    for n in [*range(1, 3000), *(rng.randrange(10**6, 10**9) for _ in range(100))]:
        assert fields._factorize(n) == _trial_division(n)


def test_factorize_splits_products_of_large_primes():
    # cofactors past trial division are split by rho and certified by is_prime
    rng = random.Random(4)
    primes = [q for q in (rng.randrange(10**5, 10**10) for _ in range(2000)) if is_prime(q)][:12]
    for a, b, c in zip(primes[::3], primes[1::3], primes[2::3]):
        assert fields._factorize(4 * 997 * a * b**2 * c) == dict(Counter([2, 2, 997, a, b, b, c]))


def test_factorize_refuses_past_rho_budget(monkeypatch):
    p, q = 10**15 + 37, 10**15 + 91
    assert is_prime(p) and is_prime(q)
    with pytest.raises(SearchSpaceTooLarge):
        fields._factorize(p * q)
    monkeypatch.setattr(fields, "_RHO_STEPS", 0)
    # 600960379 - 1 = 2 * 3 * 10007 * 10009, and no trial divisor splits 10007 * 10009
    with pytest.raises(SearchSpaceTooLarge):
        multiplicative_order(FieldSpec.prime(600960379).element(7))
    # 2039 - 1 = 2 * 1019, and a prime cofactor needs no rho step
    assert multiplicative_order(FieldSpec.prime(2039).element(2038)) == 2


def test_order_divides_group_order():
    for a in F49.elements():
        if not a.is_zero:
            assert 48 % multiplicative_order(a) == 0


def test_find_irreducible_deterministic():
    assert find_irreducible(2, 2) == (1, 1, 1)          # u^2 + u + 1
    assert find_irreducible(5, 2) == find_irreducible(5, 2)
    for p, k in ((2, 5), (3, 4), (5, 3)):
        mod = find_irreducible(p, k)
        assert len(mod) == k + 1 and mod[-1] == 1
        assert poly_is_irreducible(mod, p)


def test_frobenius_degree():
    assert frobenius_degree(F49.element(3)) == 1
    assert frobenius_degree(F49.generator) == 2
    degs = {frobenius_degree(a) for a in F8.elements()}
    assert degs == {1, 3}  # GF(8) over GF(2) has no intermediate subfield


def test_embed():
    a = F7.element(4)
    assert F49.embed(a) == F49.element(4)
    with pytest.raises(UnsupportedField):
        F49.embed(QQ.one)


def test_sort_key_total_order():
    keys = [a.sort_key() for a in F49.elements()]
    assert len(set(keys)) == 49
    assert keys == sorted(keys)


def test_element_strings_roundtrip_values():
    assert str(F49.element((3, 2))) == "2*u+3"
    assert str(F8.element((0, 0, 1))) == "u^2"
    assert str(QQ.element(Fraction(-3, 7))) == "-3/7"
