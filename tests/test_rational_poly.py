"""The integer form of polynomials over Q against a Fraction-per-coefficient reference.

Over Q the field ring holds a polynomial as integer numerators over one
positive denominator with no common factor (fields._QPoly).  The reference
below is the Fraction arithmetic that form replaced: lists of Fractions, low
to high, with products taken over one cleared denominator by a Kronecker
substitution and one Fraction built per coefficient.  Every ring operation
is checked against it on coefficients of 30-40 digits, zero and constants,
and every result is checked to be in the canonical form.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qgha.fields import FieldSpec, _pack, _QPoly, _unpack, _width
from qgha.poly import Poly

QQ = FieldSpec.rationals()
RING = QQ._ring
SETTINGS = settings(max_examples=80, deadline=None)


# -- the Fraction reference ----------------------------------------------------


def _trim(c):
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return c


def ref_add(a, b):
    n = max(len(a), len(b))
    a, b = list(a) + [Fraction(0)] * (n - len(a)), list(b) + [Fraction(0)] * (n - len(b))
    return _trim(x + y for x, y in zip(a, b))


def ref_neg(a):
    return [-v for v in a]


def ref_sub(a, b):
    return ref_add(a, ref_neg(b))


def ref_scale(a, c):
    return _trim(v * c for v in a)


def ref_mul(a, b):
    """Clear each factor to one denominator, multiply packed signed slots, one Fraction per slot."""
    if not a or not b:
        return []
    da = math.lcm(*[v.denominator for v in a])
    db = math.lcm(*[v.denominator for v in b])
    na = [v.numerator * (da // v.denominator) for v in a]
    nb = [v.numerator * (db // v.denominator) for v in b]
    width = _width(2 * min(len(a), len(b)) * max(map(abs, na)) * max(map(abs, nb)))
    x, y = (_pack([v if v > 0 else 0 for v in n], width) - _pack([-v if v < 0 else 0 for v in n], width)
            for n in (na, nb))
    count = len(a) + len(b) - 1
    full = 1 << (8 * width)
    out, borrow, d = [], 0, da * db
    for t in _unpack(x * y % (1 << (8 * width * count)), width, count):
        t += borrow
        borrow = 2 * t >= full
        out.append(Fraction(t - full if borrow else t, d))
    return out


def ref_lincomb(coeffs, polys):
    out = []
    for c, p in zip(coeffs, polys):
        out = ref_add(out, ref_scale(p, c))
    return out


def ref_compose(a, inner):
    acc = []
    for c in reversed(a):
        acc = ref_add(ref_mul(acc, inner), [c])
    return acc


def ref_divmod(a, b):
    inv = 1 / b[-1]
    db = len(b) - 1
    rem = list(a)
    quot = [Fraction(0)] * max(len(rem) - db, 0)
    while len(rem) > db:
        shift = len(rem) - 1 - db
        c = quot[shift] = rem[-1] * inv
        for i, v in enumerate(b):
            rem[shift + i] -= c * v
        rem = _trim(rem)
    return quot, rem


# -- strategies and checks -----------------------------------------------------

BIG = 10 ** 40


def rationals():
    zero = st.just(Fraction(0))
    small = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
    large = st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG))
    return zero | small | large


def coeff_lists(min_size=0, max_size=8):
    """Trimmed Fraction lists: zero, constants and longer polynomials."""
    return st.lists(rationals(), min_size=min_size, max_size=max_size).map(_trim)


def canonical(v):
    assert isinstance(v, _QPoly)
    assert type(v.den) is int and v.den > 0
    assert isinstance(v.nums, tuple) and all(type(n) is int for n in v.nums)
    assert not v.nums or v.nums[-1] != 0
    assert math.gcd(v.den, *v.nums) == 1
    return list(v)


def form(a):
    return RING._poly_from(a)


# -- the ring operations ---------------------------------------------------------


@SETTINGS
@given(a=coeff_lists(), b=coeff_lists(), c=rationals())
def test_ring_ops_match_the_fraction_reference(a, b, c):
    x, y = form(a), form(b)
    assert canonical(x) == a and canonical(y) == b
    assert canonical(RING._poly_mul(x, y)) == ref_mul(a, b)
    assert canonical(RING._poly_add(x, y)) == ref_add(a, b)
    assert canonical(RING._poly_sub(x, y)) == ref_sub(a, b)
    assert canonical(RING._poly_neg(x)) == ref_neg(a)
    assert canonical(RING._poly_scale(x, c)) == ref_scale(a, c)


@SETTINGS
@given(coeffs=coeff_lists(max_size=5), polys=st.lists(coeff_lists(), min_size=5, max_size=5))
def test_lincomb_matches_the_fraction_reference(coeffs, polys):
    expect = ref_lincomb(coeffs, polys)
    forms = [form(p) for p in polys]
    assert canonical(RING._poly_lincomb(form(coeffs), forms)) == expect
    assert canonical(RING._poly_lincomb(list(coeffs), forms)) == expect  # plain raw scalars
    # as compose calls it: a slice of a polynomial's values against a list of powers
    values = Poly(QQ, [Fraction(7)] + coeffs + [Fraction(1, 3)]).values
    assert canonical(RING._poly_lincomb(values[1:1 + len(coeffs)], forms)) == expect


@SETTINGS
@given(a=coeff_lists(), b=coeff_lists(min_size=1, max_size=5).filter(bool))
def test_divmod_matches_the_fraction_reference(a, b):
    quot, rem = RING._poly_divmod(form(a), form(b))
    assert (canonical(quot), canonical(rem)) == ref_divmod(a, b)
    q, r = divmod(Poly(QQ, a), Poly(QQ, b))
    assert (list(q.values), list(r.values)) == ref_divmod(a, b)


@SETTINGS
@given(a=coeff_lists(max_size=10), inner=coeff_lists(max_size=4), other=coeff_lists(max_size=7))
def test_compose_with_and_without_a_powers_memo(a, inner, other):
    p, q, g = Poly(QQ, a), Poly(QQ, other), Poly(QQ, inner)
    expect_p, expect_q = ref_compose(a, inner), ref_compose(other, inner)
    assert canonical(p.compose(g).values) == expect_p
    powers = []
    assert canonical(p.compose(g, powers=powers).values) == expect_p
    assert canonical(q.compose(g, powers=powers).values) == expect_q  # reuses and extends the memo
    power = [Fraction(1)]
    for v in powers:
        assert canonical(v) == power
        power = ref_mul(power, inner)


# -- Poly over Q -----------------------------------------------------------------


@SETTINGS
@given(a=coeff_lists(), b=coeff_lists(), c=rationals())
def test_one_form_for_every_q_poly(a, b, c):
    prod = Poly(QQ, a) * Poly(QQ, b)
    direct = Poly(QQ, ref_mul(a, b))
    assert prod == direct and hash(prod) == hash(direct)
    assert prod.values == direct.values
    assert Poly._raw(QQ, ref_mul(a, b) + [Fraction(0)]) == direct
    scaled = (Poly(QQ, a) + Poly(QQ, b)) * c - Poly(QQ, b) * c
    assert scaled == Poly(QQ, ref_scale(a, c)) and hash(scaled) == hash(Poly(QQ, ref_scale(a, c)))
    canonical(scaled.values)
    canonical((-prod).values)


@SETTINGS
@given(a=coeff_lists(), b=coeff_lists())
def test_values_read_as_lowest_terms_fractions(a, b):
    prod = Poly(QQ, a) * Poly(QQ, b)
    expect = ref_mul(a, b)
    for got in (list(prod.values), [prod.values[i] for i in range(len(prod.values))],
                list(reversed(prod.values))[::-1], [c.value for c in prod.coeffs],
                [prod.coefficient(i).value for i in range(prod.degree + 1)]):
        assert got == expect
        assert all(type(v) is Fraction and math.gcd(v.numerator, v.denominator) == 1 for v in got)
    assert prod.render() == Poly(QQ, expect).render()


def test_zero_and_constants():
    zero = Poly.zero(QQ)
    assert canonical(zero.values) == [] and zero.values.den == 1 and zero.degree == -1
    half = Poly.constant(QQ, Fraction(1, 2))
    assert canonical(half.values) == [Fraction(1, 2)]
    assert (half * Poly.from_ints(QQ, [0, 2])).values == Poly.gen(QQ).values
    assert (half - half).values == zero.values and (half * 0).is_zero
    assert divmod(half, Poly.from_ints(QQ, [Fraction(-1, 3)]))[0] == Poly.constant(QQ, Fraction(-3, 2))
