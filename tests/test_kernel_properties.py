"""Property tests for the field rings and the Poly kernel.

Fields: Q, GF(5), GF(4294967311) (residue products overflow int64) and
GF(7^2).  Element and polynomial arithmetic is checked against oracles
written here on the documented value formats: Fractions, int residues and
trimmed u-coefficient tuples.  Division is checked through a = q*b + r with
deg r < deg b, and, where sympy is installed, GF(p) products and division
are checked against sympy.Poly(..., modulus=p).  Both elimination kernels
are checked against generic_rref, an element-wise Gauss-Jordan written
here: the fraction-free Q one also against sympy's Matrix.rref on random
rational matrices, and the slot kernel over GF(5), GF(7^2), GF(2^3),
GF(3^3) and GF(2^8) on int64 and on Python ints, and over GF(4294967311)
and GF(2^61 - 1), past the int64 guard.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgha.fields import FieldSpec
from qgha import linalg
from qgha.linalg import _fits_int64, _rref, rref
from qgha.poly import Poly

QQ = FieldSpec.rationals()
F5 = FieldSpec.prime(5)
FBIG = FieldSpec.prime(4294967311)
F49 = FieldSpec.extension(7, 2)
FIELDS = [QQ, F5, FBIG, F49]
PRIME_FIELDS = [F5, FBIG]

SETTINGS = settings(max_examples=60, deadline=None)


# -- oracles on raw values ---------------------------------------------------


def _trim(c):
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return c


def oracle_add(F, x, y):
    if F.is_rationals:
        return x + y
    if not F.is_extension:
        return (x + y) % F.char
    n = max(len(x), len(y))
    x, y = list(x) + [0] * (n - len(x)), list(y) + [0] * (n - len(y))
    return tuple(_trim((s + t) % F.char for s, t in zip(x, y)))


def oracle_mul(F, x, y):
    if F.is_rationals:
        return x * y
    p = F.char
    if not F.is_extension:
        return x * y % p
    prod = [0] * max(len(x) + len(y) - 1, 0)
    for i, s in enumerate(x):
        for j, t in enumerate(y):
            prod[i + j] += s * t
    k, mod = F.degree, F.modulus
    for d in range(len(prod) - 1, k - 1, -1):
        c = prod[d]
        for i, m in enumerate(mod):
            prod[d - k + i] -= c * m
    return tuple(_trim(v % p for v in prod))


def oracle_poly_mul(F, a, b):
    zero = F.zero.value
    out = [zero] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = oracle_add(F, out[i + j], oracle_mul(F, x, y))
    return _trim(out)


def values(poly):
    return [c.value for c in poly.coeffs]


def generic_rref(rows, F):
    """Element-wise Gauss-Jordan on raw rows, which it overwrites: the reduced rows and the pivot columns."""
    ring = F._ring
    mul, sub, inv = ring._mul, ring._sub, ring._inv
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        scale = inv(rows[r][c])
        rows[r] = [mul(v, scale) for v in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                rows[i] = [sub(a, mul(row[c], b)) for a, b in zip(row, rows[r])]
        pivots.append(c)
    return rows, pivots


# -- strategies ----------------------------------------------------------------


def elements(F):
    if F.is_rationals:
        small = st.integers(-3, 3).map(F.element)
        large = st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**12))
        return small | large.map(F.element)
    if F.is_extension:
        return st.lists(st.integers(0, F.char - 1), max_size=F.degree).map(F.element)
    return st.sampled_from([0, 1, F.char - 1]).map(F.element) | st.integers(0, F.char - 1).map(F.element)


def polys(F, max_len=12):
    return st.lists(elements(F), max_size=max_len).map(lambda cs: Poly(F, cs))


field_param = pytest.mark.parametrize("F", FIELDS, ids=str)


# -- elements ------------------------------------------------------------------


@field_param
@SETTINGS
@given(data=st.data())
def test_ring_axioms(F, data):
    a, b, c = (data.draw(elements(F)) for _ in range(3))
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == F.zero and a - b == a + (-b)
    assert a * F.one == a and (a * F.zero).is_zero
    assert (a + b).value == oracle_add(F, a.value, b.value)
    assert (a * b).value == oracle_mul(F, a.value, b.value)
    if not a.is_zero:
        assert a * a.inverse() == F.one


# -- polynomials ---------------------------------------------------------------


@field_param
@SETTINGS
@given(data=st.data())
def test_poly_product_matches_schoolbook(F, data):
    a, b = data.draw(polys(F)), data.draw(polys(F))
    prod = a * b
    assert values(prod) == oracle_poly_mul(F, values(a), values(b))
    assert prod == b * a
    assert prod.degree == (-1 if a.is_zero or b.is_zero else a.degree + b.degree)


@field_param
@SETTINGS
@given(data=st.data())
def test_poly_add_sub_scale(F, data):
    a, b = data.draw(polys(F)), data.draw(polys(F))
    c = data.draw(elements(F))
    n = max(len(a.coeffs), len(b.coeffs))
    expect = [oracle_add(F, a.coefficient(i).value, b.coefficient(i).value) for i in range(n)]
    assert values(a + b) == _trim(expect)
    assert (a - b) + b == a and (a - a).is_zero
    assert values(a * c) == _trim(oracle_mul(F, v, c.value) for v in values(a))
    assert a * c == Poly(F, [c]) * a


@field_param
@SETTINGS
@given(data=st.data())
def test_divmod_identity(F, data):
    a = data.draw(polys(F))
    b = data.draw(polys(F, max_len=6).filter(lambda p: not p.is_zero))
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


@field_param
@SETTINGS
@given(data=st.data())
def test_compose_and_evaluate(F, data):
    a, inner = data.draw(polys(F, max_len=5)), data.draw(polys(F, max_len=4))
    x = data.draw(elements(F))
    assert a.compose(inner)(x) == a(inner(x))


@pytest.mark.parametrize("F", PRIME_FIELDS, ids=str)
@SETTINGS
@given(data=st.data())
def test_prime_field_against_sympy(F, data):
    sympy = pytest.importorskip("sympy")
    a = data.draw(polys(F))
    b = data.draw(polys(F).filter(lambda p: not p.is_zero))
    p = F.char
    t = sympy.Symbol("t")

    def to_sympy(poly):
        return sympy.Poly(list(reversed(values(poly))) or [0], t, modulus=p)

    def from_sympy(poly):
        return _trim(reversed([int(c) % p for c in poly.all_coeffs()]))

    sa, sb = to_sympy(a), to_sympy(b)
    assert values(a * b) == from_sympy(sa * sb)
    q, r = divmod(a, b)
    sq, sr = sympy.div(sa, sb)
    assert (values(q), values(r)) == (from_sympy(sq), from_sympy(sr))


# -- elimination over large primes -----------------------------------------


@pytest.mark.parametrize("p", [2**31 - 1, 4294967311])
def test_rref_large_prime_matches_generic(p):
    # products of residues of 4294967311 overflow int64, so its slot kernel runs on Python ints
    F = FieldSpec.prime(p)
    rng = random.Random(p)
    for _ in range(50):
        basis = [[F.element(rng.randrange(p)) for _ in range(4)] for _ in range(2)]
        rows = []
        for _ in range(4):
            c1, c2 = F.element(rng.randrange(p)), F.element(rng.randrange(p))
            rows.append([c1 * x + c2 * y for x, y in zip(*basis)])
        red, pivots = rref(rows, F)
        raw = [[e.value for e in r] for r in rows]
        assert (red, pivots) == generic_rref(raw, F)
        # each input row is the sum of the reduced rows weighted by its pivot entries
        for row in rows:
            combo = [sum((row[c] * F.element(red[r][j]) for r, c in enumerate(pivots)), F.zero)
                     for j in range(4)]
            assert combo == row


@pytest.mark.parametrize("k", [1, 2, 3, 8, 64])
def test_int64_guard_boundary(k):
    # the largest p with k (p-1)^2 + p < 2^63; p need not be prime, and no field is built
    p = math.isqrt(2**63 // k) + 2
    while k * (p - 1) ** 2 + p >= 2**63:
        p -= 1
    assert k * p**2 + p + 1 >= 2**63
    assert _fits_int64(p, k) and _fits_int64(p - 1, k)
    assert not _fits_int64(p + 1, k) and not _fits_int64(p + 2, k)


def test_int64_guard_named_fields():
    assert _fits_int64(5, 1) and _fits_int64(7, 2) and _fits_int64(2, 8)
    assert _fits_int64(2**31 - 1, 1) and _fits_int64(2**31 - 1, 2)
    assert not _fits_int64(4294967311, 1) and not _fits_int64(2**31 - 1, 3)


# -- fraction-free elimination over Q -----------------------------------------


def rationals():
    small = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    # numerators and denominators of 30 to 40 digits
    huge = st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(10**29, 10**40))
    return st.just(Fraction(0)) | small | huge


@st.composite
def matrices(draw, values, zero):
    """Dense or low-rank (tall, wide, square) matrices up to 12 x 12 with up to two zero rows and columns."""
    nrows, ncols = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    if draw(st.booleans()):
        rank = draw(st.integers(0, min(nrows, ncols)))
        left = [[draw(values) for _ in range(rank)] for _ in range(nrows)]
        right = [[draw(values) for _ in range(ncols)] for _ in range(rank)]
        rows = [[sum((a * b for a, b in zip(row, col)), zero) for col in zip(*right)] if rank else
                [zero] * ncols for row in left]
    else:
        rows = [[draw(values) for _ in range(ncols)] for _ in range(nrows)]
    zero_rows = draw(st.sets(st.integers(0, max(nrows - 1, 0)), max_size=2)) if nrows else set()
    zero_cols = draw(st.sets(st.integers(0, max(ncols - 1, 0)), max_size=2)) if ncols else set()
    negated = draw(st.sets(st.integers(0, max(nrows - 1, 0)), max_size=nrows)) if nrows else set()
    return [[zero if i in zero_rows or j in zero_cols else -v if i in negated else v
             for j, v in enumerate(row)] for i, row in enumerate(rows)]


@SETTINGS
@given(rows=matrices(rationals(), Fraction(0)))
def test_rational_rref_matches_generic_and_sympy(rows):
    sympy = pytest.importorskip("sympy")
    red, pivots = rref([[QQ.element(v) for v in row] for row in rows], QQ)
    assert (red, pivots) == generic_rref([list(row) for row in rows], QQ)
    assert all(type(v) is Fraction for row in red for v in row)
    ncols = len(rows[0]) if rows else 0
    m = sympy.Matrix(len(rows), ncols, [sympy.Rational(v.numerator, v.denominator) for row in rows for v in row])
    expect, expect_pivots = m.rref()
    assert pivots == list(expect_pivots)
    assert red == [[Fraction(int(v.p), int(v.q)) for v in row] for row in expect.tolist()]


# -- the slot kernel over finite fields ----------------------------------------

SLOT_FIELDS = [F5, F49, FieldSpec.extension(2, 3), FieldSpec.extension(3, 3), FieldSpec.extension(2, 8)]
WIDE_FIELDS = [FBIG, FieldSpec.prime(2**61 - 1)]


def check_slot_rref(F, rows):
    red, pivots = _rref([list(row) for row in rows], F)
    expect, expect_pivots = generic_rref([list(row) for row in rows], F)
    assert pivots == expect_pivots
    assert red == expect
    for row in red:
        for v in row:
            if F.is_extension:
                assert type(v) is tuple and (not v or v[-1]) and len(v) <= F.degree
                assert all(type(d) is int and 0 <= d < F.char for d in v)
            else:
                assert type(v) is int and 0 <= v < F.char


@pytest.mark.parametrize("F", SLOT_FIELDS + WIDE_FIELDS, ids=str)
@SETTINGS
@given(data=st.data())
def test_slot_rref_matches_generic(F, data):
    assert _fits_int64(F.char, F.degree) == (F not in WIDE_FIELDS)
    check_slot_rref(F, [[v.value for v in row] for row in data.draw(matrices(elements(F), F.zero))])


@pytest.mark.parametrize("F", SLOT_FIELDS, ids=str)
@SETTINGS
@given(data=st.data())
def test_slot_rref_on_python_ints_matches_generic(F, data):
    # the object-dtype path, forced on fields whose residues would fit int64
    rows = [[v.value for v in row] for row in data.draw(matrices(elements(F), F.zero))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_fits_int64", lambda p, k: False)
        check_slot_rref(F, rows)
