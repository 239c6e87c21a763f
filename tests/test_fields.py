"""Scalar arithmetic over Q, GF(p) and GF(p^k)."""

import itertools
import random
import time
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
from qgha.parsing import parse_field
from qgha.poly import Poly

from irreducibility_oracle import first_irreducible, is_irreducible, monic_polys

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


def _packed_order(ring, a):
    power, e = a, 1
    while power != ring.one:
        power, e = ring._packed_mul(power, a), e + 1
    return e


TABLE_FIELDS = [*((2, k, None) for k in range(2, 9)), *((3, k, None) for k in range(2, 6)),
                (5, 2, None), (7, 2, None), (11, 2, None),
                (7, 2, (3, 1, 1)),                    # u^2 + u + 3
                (2, 8, (1, 0, 1, 1, 1, 0, 0, 0, 1))]  # u^8 + u^4 + u^3 + u^2 + 1, where u is primitive


@pytest.mark.parametrize("p,k,mod", TABLE_FIELDS, ids=lambda v: str(v))
def test_log_tables_match_packed_product_and_euclid(p, k, mod):
    F = FieldSpec.extension(p, k, mod)
    ring = F._ring
    n = p ** k - 1
    exp, log = ring._exp, ring._log
    assert len(exp) == 2 * n and exp[:n] == exp[n:] and len(log) == n
    assert all(exp[log[a]] == a for a in log)
    # the generator is the first element of full order in sort_key order
    units = [a for a in F._raw_elements() if a]
    g = exp[1]
    orders = {a: _packed_order(ring, a) for a in units[:units.index(g) + 1]}
    assert orders.pop(g) == n and all(m < n for m in orders.values())
    for a in units:
        assert ring._inv(a) == ring._euclid_inv(a)
        for b in units:
            assert ring._mul(a, b) == ring._packed_mul(a, b)
    assert ring._mul((), units[-1]) == ring._mul(units[-1], ()) == ()


def test_default_gf256_modulus_has_u_of_order_51():
    # u is not primitive for the default modulus, so the tables start elsewhere
    F = FieldSpec.extension(2, 8)
    assert F.modulus == (1, 0, 0, 0, 1, 1, 0, 1, 1)  # u^8 + u^7 + u^5 + u^4 + 1
    assert multiplicative_order(F.generator) == 51
    assert F._ring._exp[1] == (0, 1, 1)  # u^2 + u, the first element of order 255
    assert FieldSpec.extension(2, 8, (1, 0, 1, 1, 1, 0, 0, 0, 1))._ring._exp[1] == (0, 1)


def test_log_tables_stop_at_the_bound():
    bound = fields._LOG_TABLE_ORDER
    assert 2 ** 8 <= bound and 7 ** 2 <= bound
    assert FieldSpec.extension(2, bound.bit_length() - 1)._ring._log is not None  # 2^k = bound
    assert FieldSpec.extension(2, bound.bit_length())._ring._log is None


def _schoolbook_mod(a, b, modulus, p):
    """a b in GF(p)[u] by the schoolbook product, then its remainder by the monic modulus."""
    prod = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    k = len(modulus) - 1
    for top in range(len(prod) - 1, k - 1, -1):
        c = prod[top]
        for i, m in enumerate(modulus):
            prod[top - k + i] = (prod[top - k + i] - c * m) % p
    while prod and not prod[-1]:
        prod.pop()
    return tuple(prod)


@pytest.mark.parametrize("p,k,count", [(1009, 2, 2000), (251, 3, 500), (3, 7, 500), (2, 11, 500),
                                       (7, 10, 500), (3, 13, 500), (101, 4, 500)])
def test_packed_product_and_euclid_past_the_bound_match_schoolbook(p, k, count):
    # these fields have no tables; with k >= 3 Euclid takes several division steps,
    # and the last three fold many table rows into wide slots
    F = FieldSpec.extension(p, k)
    ring = F._ring
    assert ring._log is None
    rng = random.Random(16)
    for _ in range(count):
        a, b = (F.random_element(rng).value for _ in range(2))
        assert ring._mul(a, b) == ring._packed_mul(a, b) == _schoolbook_mod(a, b, F.modulus, p)
        if a:
            inv = ring._inv(a)
            assert _schoolbook_mod(a, inv, F.modulus, p) == ring._packed_mul(a, inv) == (1,)


@pytest.mark.parametrize("p,k", [(7, 2), (2, 11)])
def test_fold_memo_holds_one_entry_per_slot_width(p, k):
    # products of 1 to 200 terms take a few slot widths; the fold's masks and rows are kept by width alone
    F = FieldSpec.extension(p, k)
    ring, widths, folded = F._ring, set(), F._ring._folded

    def spy(prod, width, n):
        widths.add(width)
        return folded(prod, width, n)

    ring._folded = spy  # this ring is the test's own
    rng = random.Random(k)
    for n in range(1, 201):
        a, b = ([F.random_element(rng).value for _ in range(n - 1)] + [ring.one] for _ in "ab")
        assert len(ring._poly_mul(a, b)) == 2 * n - 1
    assert len(widths) <= 3 and sorted(ring._folds) == sorted(widths | {ring.elem_width})


def test_irreducibility_past_the_rabin_budget_is_refused_before_any_division(monkeypatch):
    def no_division(*_):
        raise AssertionError("a refused field divided")

    monkeypatch.setattr(fields._Ring, "_poly_divmod", no_division)
    start = time.perf_counter()
    for p, k in ((2, 65), (3, 100), (2, 128), (1009, 30), (4294967311, 20)):
        assert k ** 3 * p.bit_length() > fields._RABIN_BUDGET
        with pytest.raises(SearchSpaceTooLarge, match=f"Rabin's test in degree {k} over GF"):
            FieldSpec.extension(p, k)
        mod = (1, 1) + (0,) * (k - 2) + (1,)
        with pytest.raises(SearchSpaceTooLarge):
            FieldSpec.extension(p, k, mod)
        with pytest.raises(SearchSpaceTooLarge):
            parse_field(f"GF({p}^{k}),mod=u^{k}+u+1")
        with pytest.raises(SearchSpaceTooLarge):
            poly_is_irreducible(mod, p)
    assert time.perf_counter() - start < 1


def test_rabin_budget_bounds_degree_cubed_times_log_p():
    budget = fields._RABIN_BUDGET
    k = max(k for k in range(1, 1000) if k ** 3 * 2 <= budget)  # the largest degree over GF(2) inside it
    fields._check_rabin_cost(2, k)
    with pytest.raises(SearchSpaceTooLarge):
        fields._check_rabin_cost(2, k + 1)
    fields._check_rabin_cost(2 ** 61 - 1, 2)


@pytest.mark.parametrize("p,k", [(7, 8), (2, 20), (3, 13), (5, 9), (7, 10), (1009, 4), (4294967311, 2)])
def test_fields_past_the_old_trial_division_budget_build_fast(p, k):
    # the first four took 14-20 s to build by trial division, the last three were refused
    start = time.perf_counter()
    F = FieldSpec.extension(p, k)
    assert time.perf_counter() - start < 1
    assert poly_is_irreducible(F.modulus, p) and F.modulus == find_irreducible(p, k)
    assert F.modulus[0] != 0 and F.modulus[-1] == 1


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


# find_irreducible(p, k) as trial division over the monic polynomials in
# itertools.product order found it; the slowest, GF(1009^3), GF(7^8),
# GF(3^13), GF(2^20), GF(13^6) and GF(5^9), took 8-27 s each that way.
PINNED_MODULI = {
    (2, 2): "u^2+u+1", (2, 3): "u^3+u^2+1", (2, 4): "u^4+u^3+1", (2, 5): "u^5+u^3+1", (2, 6): "u^6+u^5+1",
    (2, 7): "u^7+u^6+1", (2, 8): "u^8+u^7+u^5+u^4+1", (2, 9): "u^9+u^8+1", (2, 10): "u^10+u^7+1",
    (2, 11): "u^11+u^9+1", (2, 12): "u^12+u^9+1", (2, 13): "u^13+u^12+u^10+u^9+1", (2, 14): "u^14+u^9+1",
    (2, 15): "u^15+u^14+1", (2, 16): "u^16+u^15+u^13+u^11+1", (2, 17): "u^17+u^14+1", (2, 18): "u^18+u^15+1",
    (2, 20): "u^20+u^17+1", (3, 2): "u^2+1", (3, 3): "u^3+2*u^2+1", (3, 4): "u^4+u^3+u^2+1", (3, 5): "u^5+2*u^4+1",
    (3, 6): "u^6+u^5+u^4+1", (3, 7): "u^7+2*u^6+u^5+1", (3, 8): "u^8+u^6+u^5+1", (3, 9): "u^9+u^7+2*u^6+1",
    (3, 10): "u^10+2*u^8+1", (3, 11): "u^11+2*u^10+u^9+1", (3, 12): "u^12+u^11+u^8+1", (3, 13): "u^13+2*u^12+1",
    (5, 2): "u^2+u+1", (5, 3): "u^3+u^2+1", (5, 4): "u^4+u^3+u^2+1", (5, 5): "u^5+4*u^4+1",
    (5, 6): "u^6+u^5+u^4+1", (5, 7): "u^7+u^6+1", (5, 8): "u^8+u^6+u^5+1", (5, 9): "u^9+3*u^8+2*u^7+1",
    (7, 2): "u^2+1", (7, 3): "u^3+u^2+1", (7, 4): "u^4+u^3+1", (7, 5): "u^5+3*u^4+1", (7, 6): "u^6+u^4+1",
    (7, 7): "u^7+6*u^6+1", (7, 8): "u^8+2*u^7+u^6+1", (11, 2): "u^2+1", (11, 3): "u^3+4*u^2+1",
    (11, 4): "u^4+4*u^3+1", (11, 5): "u^5+2*u^4+1", (11, 6): "u^6+u^5+u^4+1", (13, 2): "u^2+3*u+1",
    (13, 3): "u^3+4*u^2+1", (13, 4): "u^4+u^3+1", (13, 5): "u^5+8*u^4+1", (13, 6): "u^6+u^5+1", (17, 2): "u^2+u+1",
    (17, 3): "u^3+3*u^2+1", (17, 4): "u^4+3*u^3+1", (17, 5): "u^5+4*u^4+1", (19, 2): "u^2+1", (19, 3): "u^3+u^2+1",
    (19, 4): "u^4+6*u^3+1", (19, 5): "u^5+3*u^4+1", (23, 2): "u^2+1", (23, 3): "u^3+3*u^2+1",
    (23, 4): "u^4+4*u^3+1", (23, 5): "u^5+2*u^4+1", (29, 2): "u^2+u+1", (29, 3): "u^3+2*u^2+1",
    (29, 4): "u^4+3*u^3+1", (29, 5): "u^5+3*u^4+1", (31, 2): "u^2+1", (31, 3): "u^3+3*u^2+1", (31, 4): "u^4+u^3+1",
    (31, 5): "u^5+3*u^4+1", (251, 2): "u^2+1", (251, 3): "u^3+2*u^2+1", (1009, 2): "u^2+9*u+1",
    (1009, 3): "u^3+3*u^2+1",
}


def test_pinned_moduli():
    for (p, k), mod in PINNED_MODULI.items():
        F = FieldSpec.extension(p, k)
        assert str(F) == f"GF({p}^{k}),mod={mod}"
        assert F.modulus == find_irreducible(p, k) and len(F.modulus) == k + 1


def test_find_irreducible_is_the_first_in_monic_polys_order():
    # itertools.product order of the lower coefficients: u^(d-1) varies fastest
    assert list(itertools.islice(monic_polys(3, 2), 4)) == [(0, 0, 1), (0, 1, 1), (0, 2, 1), (1, 0, 1)]
    for p, k in ((2, 6), (2, 8), (3, 4), (3, 5), (5, 3), (7, 3), (13, 2)):
        assert find_irreducible(p, k) == first_irreducible(p, k)


@pytest.mark.parametrize("p,max_degree", [(2, 8), (3, 5), (5, 4), (7, 3), (13, 2)])
def test_rabin_agrees_with_trial_division_on_every_small_polynomial(p, max_degree):
    rng = random.Random(p)
    for k in range(0, max_degree + 1):
        for f in monic_polys(p, k):
            expected = is_irreducible(f, p)
            assert poly_is_irreducible(f, p) == expected, f
            # a nonzero multiple, with coefficients outside 0..p-1, is irreducible exactly when f is
            c = rng.randrange(1, p)
            assert poly_is_irreducible([v * c + p * rng.randrange(-2, 3) for v in f], p) == expected, (f, c)
    assert not poly_is_irreducible((), p) and not poly_is_irreducible((p,), p)


def test_rabin_agrees_with_sympy_on_random_polynomials():
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    rng = random.Random(26)
    irreducible = 0
    for _ in range(300):
        p = rng.choice((2, 3, 5, 7, 31, 1009, 65537))
        top = min(40, max(k for k in range(1, 100) if k ** 3 * p.bit_length() <= fields._RABIN_BUDGET))
        if rng.random() < 0.7:
            k = rng.randrange(1, top + 1)
            f = [rng.randrange(p) for _ in range(k)] + [rng.randrange(1, p)]
        else:  # a product of two factors is reducible
            f, g = ([rng.randrange(p) for _ in range(rng.randrange(1, top // 2 + 1))] + [1] for _ in range(2))
            f = [sum(f[i] * g[j - i] for i in range(len(f)) if 0 <= j - i < len(g)) % p
                 for j in range(len(f) + len(g) - 1)]
        expected = galoistools.gf_irreducible_p(f[::-1], p, ZZ)
        irreducible += expected
        assert poly_is_irreducible(f, p) == expected, (f, p)
    assert irreducible > 20


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
