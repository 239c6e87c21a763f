"""Property tests for the field rings and the Poly kernel.

Fields: Q, GF(5), GF(4294967311) (residue products overflow int64),
GF(7^2), GF(2^8) and GF(2^11); GF(2^11) is past the log tables, so its
polynomial products take the digit-by-digit packing that the other
extension fields skip.  Element and polynomial arithmetic is checked against oracles
written here on the documented value formats: Fractions, int residues and
trimmed u-coefficient tuples.  Division is checked through a = q*b + r with
deg r < deg b, and, where sympy is installed, GF(p) products and division
are checked against sympy.Poly(..., modulus=p).  a + c h^d (_poly_add_term)
is checked against _poly_from of the explicit coefficients over Q, GF(5),
GF(7^2) and GF(2^11).  The elimination kernel is
checked against generic_rref, the element-wise Gauss-Jordan of rref_oracle:
rref over Q also against sympy's Matrix.rref on random rational matrices,
and over GF(5), GF(7^2), GF(2^3), GF(3^3), GF(2^8), GF(4294967311) and
GF(2^61 - 1); the canonical nullspace and _solve on center-block shaped
systems over Q and those finite fields.  The engine must also import and
run with numpy blocked.
"""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgha
from qgha.fields import FieldSpec
from qgha.linalg import _nullspace, _solve, rref
from qgha.poly import Poly
from rref_oracle import generic_nullspace_raw, generic_rref

QQ = FieldSpec.rationals()
F5 = FieldSpec.prime(5)
FBIG = FieldSpec.prime(4294967311)
F49 = FieldSpec.extension(7, 2)
F256 = FieldSpec.extension(2, 8)
F2048 = FieldSpec.extension(2, 11)
FIELDS = [QQ, F5, FBIG, F49, F256, F2048]
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


def factors(F):
    """Product factors: one nonzero term, up to 12 terms, or up to 40.

    A one-term factor scales the other one; the long ones need wider slots
    than the short ones over GF(5), GF(2^8) and GF(2^11).
    """
    one_term = elements(F).filter(lambda c: not c.is_zero).map(lambda c: Poly(F, [c]))
    return one_term | polys(F) | polys(F, max_len=40)


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
    a, b = data.draw(factors(F)), data.draw(factors(F))
    prod = a * b
    assert values(prod) == oracle_poly_mul(F, values(a), values(b))
    assert prod == b * a
    assert prod.degree == (-1 if a.is_zero or b.is_zero else a.degree + b.degree)


def test_gf49_product_past_its_first_slot_width():
    # over GF(7^2) a slot of the product takes 2 bytes up to 130 terms per factor, and 4 past it
    rng = random.Random(49)
    for n in (130, 131):
        a, b = ([F49.element([rng.randrange(7), rng.randrange(7)]) for _ in range(n)] + [F49.one] for _ in "ab")
        a, b = Poly(F49, a), Poly(F49, b)
        assert values(a * b) == oracle_poly_mul(F49, values(a), values(b))


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


def _check_add_term(F, a, c, d):
    """_poly_add_term(a, c, d) is the _poly_from of a's coefficients with c added at d, in value and hash."""
    ring = F._ring
    coeffs = list(a) + [ring.zero] * (d + 1 - len(a))
    coeffs[d] = ring._add(coeffs[d], c)
    got, expect = ring._poly_add_term(a, c, d), ring._poly_from(coeffs)
    assert got == expect and hash(got) == hash(expect)
    if F.is_rationals:
        assert got.den > 0 and math.gcd(got.den, *got.nums) == 1


ADD_TERM_FIELDS = [QQ, F5, F49, F2048]


@pytest.mark.parametrize("F", ADD_TERM_FIELDS, ids=str)
@SETTINGS
@given(data=st.data())
def test_poly_add_term_matches_poly_from(F, data):
    ring = F._ring
    a = data.draw(polys(F, max_len=6)).values
    c = data.draw(elements(F)).value
    cases = [(a, c, data.draw(st.integers(0, 8))), (a, ring.zero, data.draw(st.integers(0, 8))), (a, c, 0),
             (a, c, len(a) + data.draw(st.integers(0, 3))), (ring._poly_from(()), c, data.draw(st.integers(0, 8)))]
    if a:
        cases += [(a, c, data.draw(st.integers(0, len(a) - 1))), (a, ring._neg(a[-1]), len(a) - 1)]
    for a, c, d in cases:
        _check_add_term(F, a, c, d)


@pytest.mark.parametrize("F", ADD_TERM_FIELDS, ids=str)
def test_poly_add_term_cases(F):
    ring = F._ring
    one, zero, neg = ring.one, ring.zero, ring._neg
    a = ring._poly_from([one, zero, zero, one])
    assert ring._poly_add_term(a, neg(one), 3) == ring._poly_from([one])  # the cancelled top trims past the zeros
    assert ring._poly_add_term(ring._poly_from(()), one, 2) == ring._poly_from([zero, zero, one])
    for c in (zero, one, neg(one)):
        for d in range(6):  # d = 0, inside a, its top, and past it
            _check_add_term(F, a, c, d)
            _check_add_term(F, ring._poly_from(()), c, d)


def test_poly_add_term_over_q_is_canonical():
    ring = QQ._ring
    for a in ([], [Fraction(1, 6), 0, Fraction(5, 4)], [Fraction(1, 2), 0, Fraction(1, 2)], [3, 0, 0, 0, 0, 7]):
        a = ring._poly_from(a)
        for c in (Fraction(-3, 6), Fraction(4, 6), Fraction(-1, 2), Fraction(0), Fraction(10, 5)):
            for d in range(7):
                _check_add_term(QQ, a, c, d)
    assert ring._poly_add_term(ring._poly_from(()), Fraction(-3, 6), 2) == ring._poly_from([0, 0, Fraction(-1, 2)])


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


# -- elimination over Q -------------------------------------------------------


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


# -- elimination over finite fields ---------------------------------------------

FINITE_FIELDS = [F5, F49, FieldSpec.extension(2, 3), FieldSpec.extension(3, 3), F256,
                 FBIG, FieldSpec.prime(2**61 - 1)]


@pytest.mark.parametrize("F", FINITE_FIELDS, ids=str)
@SETTINGS
@given(data=st.data())
def test_rref_matches_generic(F, data):
    rows = data.draw(matrices(elements(F), F.zero))
    red, pivots = rref(rows, F)
    expect, expect_pivots = generic_rref([[v.value for v in row] for row in rows], F)
    assert pivots == expect_pivots
    assert red == expect
    for row in red:
        for v in row:
            if F.is_extension:
                assert type(v) is tuple and (not v or v[-1]) and len(v) <= F.degree
                assert all(type(d) is int and 0 <= d < F.char for d in v)
            else:
                assert type(v) is int and 0 <= v < F.char


@st.composite
def triangular_systems(draw, F):
    """Columns like a center block's: distinct leading rows, then a few dense columns.

    The first columns have distinct leading rows in shuffled order (a
    leading entry may be drawn as 0, so some leading rows repeat or the
    column is 0); the last ones are dense over every row.  Returns the rows.
    """
    nrows = draw(st.integers(1, 14))
    leads = draw(st.lists(st.integers(0, nrows - 1), unique=True, max_size=nrows))
    cols = [[draw(elements(F)) for _ in range(lead)] + [draw(elements(F))] + [F.zero] * (nrows - 1 - lead)
            for lead in leads]
    cols += [[draw(elements(F)) for _ in range(nrows)] for _ in range(draw(st.integers(0, 3)))]
    return [[col[i].value for col in cols] for i in range(nrows)]


@pytest.mark.parametrize("F", [QQ, *FINITE_FIELDS], ids=str)
@SETTINGS
@given(data=st.data())
def test_nullspace_of_triangular_columns_matches_generic(F, data):
    rows = data.draw(triangular_systems(F))
    ncols = len(rows[0])
    ring = F._ring
    cols = [ring._poly_from([row[j] for row in rows]) for j in range(ncols)]
    assert _nullspace(cols, ring) == generic_nullspace_raw(rows, F, ncols)


@pytest.mark.parametrize("F", [QQ, *FINITE_FIELDS], ids=str)
@SETTINGS
@given(data=st.data())
def test_solve_matches_generic(F, data):
    """_solve against the augmented system [A | b] reduced by generic_rref.

    b is a random combination of the columns or a random vector.  There is
    a solution exactly when b's column is no pivot, and the one _solve
    returns is 0 at every free column, so it is read off the reduced rows.
    """
    rows = data.draw(triangular_systems(F))
    ncols = len(rows[0])
    ring = F._ring
    if data.draw(st.booleans()):
        coeffs = [data.draw(elements(F)).value for _ in range(ncols)]
        b = [ring.zero] * len(rows)
        for i, row in enumerate(rows):
            for v, c in zip(row, coeffs):
                b[i] = ring._add(b[i], ring._mul(v, c))
    else:
        b = [data.draw(elements(F)).value for _ in rows]
    cols = [ring._poly_from([row[j] for row in rows]) for j in range(ncols)]
    got = _solve(cols, ring._poly_from(b), ring)
    red, pivots = generic_rref([[*row, v] for row, v in zip(rows, b)], F)
    if ncols in pivots:
        assert got is None
        return
    expect = [ring.zero] * ncols
    for row, p in zip(red, pivots):
        expect[p] = row[ncols]
    assert got == expect


_WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None  # from here on, importing numpy raises ImportError
import qgha, qgha.cli
from qgha import AlgebraSpec, FieldSpec, Matrix, Poly, center_basis_truncated
from qgha.linalg import intertwiners, rref
F = FieldSpec.prime(5)
alg = AlgebraSpec(F, F.element(2), Poly.from_ints(F, [0, 0, 1]), Poly.from_ints(F, [0, 3, 1]), 2048)
print(len(center_basis_truncated(alg, 4, 8)))
print(rref([[F.element(1), F.element(2)], [F.element(2), F.element(4)]], F))
jordan = Matrix(F, [[F.one, F.one], [F.zero, F.one]])
print(len(intertwiners([(jordan, jordan)])))
"""


def test_engine_runs_without_numpy():
    env = dict(os.environ, PYTHONPATH=str(Path(qgha.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY], capture_output=True, text=True, env=env,
                          timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    # {1, Z^4} as in criterion 4, rank 1, and the commutant of a Jordan block is spanned by 1 and it
    assert proc.stdout == "2\n([[1, 2], [0, 0]], [0])\n2\n"
