"""Exact scalar arithmetic over Q, GF(p) and GF(p^k), and the one polynomial kernel.

A raw value is a Fraction over Q, the least nonnegative residue over GF(p),
and over GF(p^k) the trimmed u-coefficient tuple, low to high, of a residue
modulo a monic irreducible.  Only this module knows that format, except that
a raw value is falsy exactly when it is zero.  Each FieldSpec builds one
private ring of its kind for raw values: coerce, add, neg, sub, mul and inv
of elements, and from-values, add, sub, neg, scale, mul, divmod and scalar
linear combination of polynomials.  FieldElement, poly.Poly and linalg
delegate to it; linalg eliminates on the polynomial ops, a column of a
linear system being a polynomial over the row index.

A ring polynomial is one canonical value, low to high.  Over GF(p) and
GF(p^k) it is the trimmed tuple of raw coefficients.  Over Q it is a _QPoly:
integer numerators over one positive denominator with no common factor, so
every polynomial operation but division runs on ints and ends with one gcd,
not one Fraction per coefficient.  A _QPoly still reads as the tuple of its
lowest-terms Fraction coefficients, which it builds once, on first read.
Division is one long division for every field: over Q it runs on those
Fractions, and _poly_from puts the quotient and remainder back in canonical
form.

A polynomial product with a factor of at most one term is a scale of the
other factor, one element product per coefficient; about half the products
of a PBW multiplication are.  Every other product is a Kronecker
substitution (Schoenhage 1982; Harvey, JSC 2009): each factor is packed into
one big int of fixed-width slots and the product's coefficients are read
back from the slots.  GF(p^k) gives each coefficient 2k-1 slots, one per
power of u, and folds u^k..u^(2k-2) back with a fixed table; GF(p) is the
case k = 1.  Over Q the integer numerators are packed with every slot
offset by half its range, so signed slots read back one by one.

Element products and inverses in GF(p^k) with at most _LOG_TABLE_ORDER
elements are lookups in discrete log and antilog tables (Lidl and
Niederreiter, Finite Fields) that each ring builds once, with the raw format
unchanged; larger fields pay one packed product, or one extended Euclid in
GF(p)[u] (_Ring._poly_euclid).  The same Euclid and one Frobenius chain of
p-th powers mod f (_power) decide irreducibility by Rabin's test, which
find_irreducible runs on the candidates for a GF(p^k) modulus in order.
The fields with log tables also pack and read polynomial products by table:
a factor is one join of its coefficients' slot blocks, and each folded
block of the product, reduced mod p, is one lookup.  Both tables gain an
entry the first time a product meets an element, so building a field costs
no more than before; larger fields flatten and read the digits one by one.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
import sys
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from typing import Iterable, Iterator, Sequence

from .errors import (
    DigitLimitExceeded,
    DivisionByZero,
    FieldMismatch,
    SearchSpaceTooLarge,
    UnsupportedField,
    ZeroArgument,
)

# Miller-Rabin with the first 13 primes as bases is deterministic below
# this bound (Sorenson and Webster, Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality; n past the proven Miller-Rabin range is refused."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_BOUND:
        raise UnsupportedField(f"primality of {n} is only decided below {_MR_BOUND}")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    for b in _MR_BASES:
        x = pow(b, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 1 << r, n) != n - 1 for r in range(s)):
            return False
    return True


# ---------------------------------------------------------------------------
# Raw-value rings
# ---------------------------------------------------------------------------

# slot bytes -> array typecode; arrays hold little-endian slots on little-endian hosts only
_WORDS = {array(code).itemsize: code for code in "QIHB"} if sys.byteorder == "little" else {}


def _width(bound: int) -> int:
    """Bytes per slot for digits up to bound: a power of two while a machine word holds it."""
    w = (bound.bit_length() + 7) // 8
    return 1 << (w - 1).bit_length() if w <= 8 else w


def _slot_bytes(digits: Sequence[int], width: int) -> bytes:
    """The nonnegative digits as width-byte little-endian slots."""
    if width not in _WORDS:
        return b"".join([d.to_bytes(width, "little") for d in digits])
    return array(_WORDS[width], digits).tobytes()


def _pack(digits: Sequence[int], width: int) -> int:
    """The int whose width-byte little-endian slots hold the nonnegative digits."""
    return int.from_bytes(_slot_bytes(digits, width), "little")


def _unpack(n: int, width: int, count: int) -> list[int]:
    """The first count width-byte slots of a nonnegative int."""
    buf = n.to_bytes(width * count, "little")
    if width not in _WORDS:
        return [int.from_bytes(buf[i:i + width], "little") for i in range(0, len(buf), width)]
    return array(_WORDS[width], buf).tolist()


def _trimmed(values) -> list:
    out = list(values)
    while out and not out[-1]:
        out.pop()
    return out


class _Memo(dict):
    """A dict that fills a missing key with fn(key) on its first read."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _power(x, n: int, one, mul=operator.mul):
    """x^n for an int n >= 0 by left-to-right square-and-multiply; one is x^0.

    Elements, polynomials, matrices and PBW elements all power through it.
    """
    if not n:
        return one
    out = x
    for bit in bin(n)[3:]:  # the leading 1 is out = x
        out = mul(out, out)
        if bit == "1":
            out = mul(out, x)
    return out


class _Ring:
    """Raw-value arithmetic of one field; subclasses supply the element ops and _kronecker.

    The polynomial ops here serve GF(p) and GF(p^k): they take sequences of
    raw values and return trimmed tuples.  _RationalRing overrides all of
    them but _poly_divmod and _poly_mul, which serve Q as well: a _QPoly
    reads as its Fraction coefficients, and the quotient and remainder come
    back through _poly_from.
    """

    def _poly_from(self, values: Iterable) -> tuple:
        """The ring polynomial with these raw coefficients, low to high."""
        return tuple(_trimmed(values))

    def _poly_add(self, a: Sequence, b: Sequence) -> tuple:
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        add = self._add
        for i, v in enumerate(b):
            if v:
                out[i] = add(out[i], v)
        return tuple(_trimmed(out))

    def _poly_sub(self, a, b):
        return self._poly_add(a, self._poly_neg(b))

    def _poly_neg(self, a: Sequence) -> tuple:
        return tuple(map(self._neg, a))

    def _poly_scale(self, a: Sequence, c) -> tuple:
        """c a for a raw scalar c; a field has no zero divisors, so only c = 0 trims."""
        if not c:
            return ()
        mul = self._mul
        return tuple([mul(v, c) for v in a])

    def _poly_mul(self, a: Sequence, b: Sequence):
        """a b: a factor with at most one term scales the other, longer ones make one Kronecker product.

        About half the products of a PBW multiplication have a constant
        factor, and a scale costs a fraction of a packed product.
        """
        if len(a) > len(b):
            a, b = b, a
        if len(a) > 1:
            return self._kronecker(a, b)
        return self._poly_scale(b, a[0] if a else self.zero)

    def _poly_lincomb(self, coeffs: Sequence, polys: Sequence) -> tuple:
        """sum c_i polys[i] over the pairs of coeffs and polys: scalar products only.

        coeffs is any sequence of raw scalars, a ring polynomial among them;
        polys are ring polynomials, as _poly_from and the ring ops return them.
        """
        add, mul = self._add, self._mul
        out: list = []
        for c, poly in zip(coeffs, polys):
            if not c:
                continue
            out += [self.zero] * (len(poly) - len(out))
            for i, v in enumerate(poly):
                if v:
                    out[i] = add(out[i], mul(c, v))
        return tuple(_trimmed(out))

    def _poly_divmod(self, a: Sequence, b: Sequence) -> tuple[tuple, tuple]:
        if not b:
            raise DivisionByZero("polynomial division by zero")
        mul, sub = self._mul, self._sub
        inv = self._inv(b[-1])
        db = len(b) - 1
        rem = list(a)
        quot = [self.zero] * max(len(rem) - db, 0)
        while len(rem) > db:
            shift = len(rem) - 1 - db
            c = quot[shift] = mul(rem[-1], inv)
            for i, v in enumerate(b):
                rem[shift + i] = sub(rem[shift + i], mul(c, v))
            rem = _trimmed(rem)
        return self._poly_from(quot), self._poly_from(rem)

    def _poly_euclid(self, m: Sequence, a: Sequence) -> tuple:
        """(r, s), s a = r mod m, by extended Euclid up to the first r of at most one term: r != 0 iff gcd = 1."""
        r0, r1, s0, s1 = m, a, self._poly_from(()), self._poly_from((self.one,))
        while len(r1) > 1:
            quot, rem = self._poly_divmod(r0, r1)
            r0, r1, s0, s1 = r1, rem, s1, self._poly_sub(s0, self._poly_mul(quot, s1))
        return r1, s1


class _QPoly:
    """A polynomial over Q as integer numerators over one denominator.

    den > 0, nums is a trimmed tuple of ints, low to high, and
    gcd(den, *nums) = 1, so a polynomial has exactly one form and equality
    and hashing compare (den, nums).  Build one with _canon unless the input
    is known to be in that form.  As a sequence it reads as its lowest-terms
    Fraction coefficients: iteration makes them all once, on first read, an
    int index makes the one it reads, and a slice is the polynomial of the
    sliced coefficients.
    """

    __slots__ = ("den", "nums", "_read")

    def __init__(self, den: int, nums: tuple[int, ...]):
        self.den, self.nums, self._read = den, nums, None

    def _fractions(self) -> tuple[Fraction, ...]:
        if self._read is None:
            self._read = tuple([Fraction(v, self.den) for v in self.nums])
        return self._read

    def __len__(self) -> int:
        return len(self.nums)

    def __iter__(self):
        return iter(self._fractions())

    def __reversed__(self):
        return reversed(self._fractions())

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _canon(self.den, list(self.nums[i]))
        return Fraction(self.nums[i], self.den)

    def __eq__(self, other) -> bool:
        if other.__class__ is not _QPoly:
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.den, self.nums))

    def __repr__(self) -> str:
        return f"_QPoly({self.den}, {self.nums})"


_QZERO = _QPoly(1, ())


def _canon(den: int, nums: list[int]) -> _QPoly:
    """The _QPoly of sum nums[i] u^i / den for den > 0: trimmed, common factor removed."""
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        return _QZERO
    if den != 1:
        g = math.gcd(den, *nums)  # den first: math.gcd skips the rest once it reaches 1
        if g != 1:
            den //= g
            nums = [v // g for v in nums]
    return _QPoly(den, tuple(nums))


def _signed_product(x: Sequence[int], y: Sequence[int]) -> list[int]:
    """The coefficients of the product of two nonempty integer polynomials.

    Both are packed with each slot offset by half its range, which is taken
    back off as one constant; the slots are wide enough for twice any
    product coefficient, so the product plus that offset in every slot reads
    back slot by slot.
    """
    width = _width(2 * min(len(x), len(y)) * max(map(abs, x)) * max(map(abs, y)))
    half = 1 << (8 * width - 1)
    slot = bytes(width - 1) + b"\x80"  # one slot holding half its range
    a, b = (_pack([v + half for v in n], width) - int.from_bytes(slot * len(n), "little") for n in (x, y))
    count = len(x) + len(y) - 1
    return [t - half for t in _unpack(a * b + int.from_bytes(slot * count, "little"), width, count)]


class _RationalRing(_Ring):
    """Q: Fraction scalars and _QPoly polynomials, whose ops run on ints."""

    zero, one = Fraction(0), Fraction(1)
    _coerce = staticmethod(Fraction)
    _add = staticmethod(operator.add)
    _neg = staticmethod(operator.neg)
    _sub = staticmethod(operator.sub)
    _mul = staticmethod(operator.mul)
    _inv = staticmethod(partial(operator.truediv, 1))

    def _poly_from(self, values: Iterable) -> _QPoly:
        """Fractions or ints; over the lcm of their denominators the numerators share no factor with it."""
        values = _trimmed(values)
        if not values:
            return _QZERO
        den = math.lcm(*[v.denominator for v in values])
        return _QPoly(den, tuple([v.numerator * (den // v.denominator) for v in values]))

    def _poly_add(self, a: _QPoly, b: _QPoly) -> _QPoly:
        if not a.nums:
            return b
        if not b.nums:
            return a
        x, y, den = a.nums, b.nums, a.den
        if den != b.den:
            den = den // math.gcd(den, b.den) * b.den
            x, y = [v * (den // a.den) for v in x], [v * (den // b.den) for v in y]
        if len(x) < len(y):
            x, y = y, x
        out = list(map(operator.add, x, y))
        out += x[len(y):]
        return _canon(den, out)

    def _poly_neg(self, a: _QPoly) -> _QPoly:
        return _QPoly(a.den, tuple(map(operator.neg, a.nums)))

    def _poly_scale(self, a: _QPoly, c: Fraction) -> _QPoly:
        if not c or not a.nums:
            return _QZERO
        n = c.numerator
        return _canon(a.den * c.denominator, [v * n for v in a.nums])

    def _kronecker(self, a: _QPoly, b: _QPoly) -> _QPoly:
        return _canon(a.den * b.den, _signed_product(a.nums, b.nums))

    def _poly_lincomb(self, coeffs: Sequence, polys: Sequence[_QPoly]) -> _QPoly:
        """Integer sums over the lcm of the denominators taking part, then one gcd."""
        if coeffs.__class__ is not _QPoly:
            coeffs = self._poly_from(coeffs)
        terms = [(c, poly) for c, poly in zip(coeffs.nums, polys) if c and poly.nums]
        if not terms:
            return _QZERO
        den = math.lcm(*[poly.den for _, poly in terms])
        out = [0] * max(len(poly) for _, poly in terms)
        for c, poly in terms:
            m, n = c * (den // poly.den), len(poly.nums)
            out[:n] = map(operator.add, out, [m * v for v in poly.nums])
        return _canon(coeffs.den * den, out)


class _PrimeRing(_Ring):
    zero, one = 0, 1

    def __init__(self, p: int):
        self.p = p

    def _coerce(self, value) -> int:
        """An int, or any exact rational value (Fraction, float, ...), reduced mod p."""
        p = self.p
        if isinstance(value, int):
            return value % p
        value = Fraction(value)
        if value.denominator % p == 0:
            raise DivisionByZero("denominator vanishes in this characteristic")
        return value.numerator * pow(value.denominator, -1, p) % p

    def _add(self, a, b):
        return (a + b) % self.p

    def _neg(self, a):
        return -a % self.p

    def _sub(self, a, b):
        return (a - b) % self.p

    def _mul(self, a, b):
        return a * b % self.p

    def _inv(self, a):
        return pow(a, -1, self.p)

    def _kronecker(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        p = self.p
        width = _width(min(len(a), len(b)) * (p - 1) ** 2)
        prod = _pack(a, width) * _pack(b, width)
        return tuple([v % p for v in _unpack(prod, width, len(a) + len(b) - 1)])


# GF(p^k) with at most this many elements multiplies and inverts by table
# lookup.  Building the tables costs p^k packed products: 0.65 ms for GF(7^2),
# 2.4 ms for GF(2^8) and 9.3 ms for GF(2^10), but 65 ms for GF(2^12) (2-core
# Xeon, Python 3.11.7).
_LOG_TABLE_ORDER = 1 << 10


class _ExtensionRing(_Ring):
    """GF(p^k) on trimmed u-coefficient tuples; sums and negation run digit by digit.

    Up to _LOG_TABLE_ORDER elements, products and inverses are lookups in
    log and antilog tables of the first primitive element g in sort_key
    order: exp[e] = g^e and log[g^e] = e, so a b = exp[log a + log b] and
    1/a = exp[n - log a] for n = p^k - 1.  Past it, a product is one packed
    product (_packed_mul) and an inverse is the extended Euclid of the GF(p)
    ring self.base (_euclid_inv); the tables are built with the packed
    product.  Fields with log tables also pack and read polynomial products
    through two lookup tables, filled as elements appear (_blocks, _reads).
    """

    zero, one = (), (1,)

    def __init__(self, p: int, modulus: Sequence[int]):
        self.p, self.k, self.modulus = p, len(modulus) - 1, list(modulus)
        self.base = _PrimeRing(p)
        k = self.k
        # u^(k+e) mod modulus for 0 <= e <= k-2
        self.table = [self.base._poly_divmod([0] * (k + e) + [1], self.modulus)[1] for e in range(k - 1)]
        # An element product is folded by one more product, with the matrix
        # [I | table] whose column i is packed backwards from slot i*(4k-3):
        # slot i*(4k-3) + 2k-2 of the result then holds coefficient i.
        powers = [[int(i == d) for i in range(k)] for d in range(k)]
        powers += [list(r) + [0] * (k - len(r)) for r in self.table]  # u^d mod modulus, d < 2k-1
        fold = [powers[2 * k - 2 - j][i] if j < 2 * k - 1 else 0 for i in range(k) for j in range(4 * k - 3)]
        self.elem_width = _width((2 * k - 1) * k * (p - 1) ** 3)
        self.fold = _pack(fold, self.elem_width)
        self._exp, self._log = self._log_tables() if p ** k <= _LOG_TABLE_ORDER else (None, None)
        if self._log is not None:
            # for _kronecker, filled as elements appear, so each holds at most p^k entries:
            # the slot block of an element by slot width, and the element of a folded block
            stride = 2 * k - 1
            self._blocks = _Memo(lambda w: _Memo(lambda v: _slot_bytes(v + (0,) * (stride - len(v)), w)))
            self._reads = _Memo(lambda block: tuple(_trimmed(block)))

    def _coerce(self, value) -> tuple[int, ...]:
        if isinstance(value, (list, tuple)):
            c = _trimmed(map(self.base._coerce, value))
            return tuple(self.base._poly_divmod(c, self.modulus)[1])
        n = self.base._coerce(value)
        return (n,) if n else ()

    def _add(self, a, b):
        if not a or not b:  # most sums in PBW products have a zero term
            return a or b
        p = self.p
        out = [(x + y) % p for x, y in itertools.zip_longest(a, b, fillvalue=0)]
        while out and not out[-1]:
            out.pop()
        return tuple(out)

    def _neg(self, a):
        return tuple(-v % self.p for v in a)

    def _sub(self, a, b):
        if not b:
            return a
        p = self.p
        out = [(x - y) % p for x, y in itertools.zip_longest(a, b, fillvalue=0)]
        while out and not out[-1]:
            out.pop()
        return tuple(out)

    def _mul(self, a, b):
        if not a or not b:
            return ()
        log = self._log
        if log is not None:
            return self._exp[log[a] + log[b]]
        return self._packed_mul(a, b)

    def _inv(self, a):
        log = self._log
        if log is not None:
            return self._exp[len(log) - log[a]]
        return self._euclid_inv(a)

    def _log_tables(self) -> tuple[list[tuple], dict[tuple, int]]:
        """exp[e] = g^e for e < 2n and log[g^e] = e for e < n, n = p^k - 1.

        g is the first primitive element in sort_key order: g^(n/r) != 1 for
        every prime r dividing n.  exp runs to 2n so that the sum of two logs
        indexes it directly.
        """
        n, one, mul = self.p ** self.k - 1, self.one, self._packed_mul
        primes = _factorize(n)
        digits = map(partial(_digits, p=self.p), itertools.count(1))
        g = next(c for c in digits if all(_power(c, n // r, one, mul) != one for r in primes))
        exp = [one]
        for _ in range(n - 1):
            exp.append(mul(exp[-1], g))
        return exp * 2, {v: e for e, v in enumerate(exp)}

    def _packed_mul(self, a, b):
        """a b by one packed product of the two elements and the fold matrix (see __init__)."""
        k, w = self.k, self.elem_width
        slots = _unpack(_pack(a, w) * _pack(b, w) * self.fold, w, k * (4 * k - 3))
        return tuple(_trimmed(x % self.p for x in slots[2 * k - 2::4 * k - 3]))

    def _euclid_inv(self, a):
        """1/a by the GF(p) ring's _poly_euclid: the modulus is irreducible, so r is a nonzero constant."""
        r, s = self.base._poly_euclid(self.modulus, a)
        return self.base._poly_scale(s, self.base._inv(r[0]))

    def _kronecker(self, a: Sequence, b: Sequence) -> tuple:
        """Each coefficient gets a block of 2k-1 slots, one per power of u.

        Slot k+e of every block of the product is shifted down to slot 0,
        masked, and multiplied by the packed u^(k+e) mod modulus, which adds
        it into the block's low k slots; all blocks fold at once.  With log
        tables, each factor packs by one join of its coefficients' blocks
        (_blocks) and each folded block, reduced mod p, reads back as one
        lookup (_reads); without them, the digits are flattened and the k
        low slots of each block read back one by one.
        """
        k, p = self.k, self.p
        stride, n = 2 * k - 1, len(a) + len(b) - 1
        # per pair of terms a slot sums k residue products, then k-1 table terms of each
        width = _width(min(len(a), len(b)) * k * (p - 1) ** 2 * (1 + (k - 1) * (p - 1)))
        if self._log is not None:
            blocks = self._blocks[width]
            x, y = (int.from_bytes(b"".join(map(blocks.__getitem__, poly)), "little") for poly in (a, b))
        else:
            x, y = (_pack([d for v in poly for d in v + (0,) * (stride - len(v))], width) for poly in (a, b))
        prod = x * y
        pad = bytes(width * (k - 1))
        folded = prod & int.from_bytes((b"\xff" * (width * k) + pad) * n, "little")
        first = int.from_bytes((b"\xff" * width + pad + pad) * n, "little")
        for e, row in enumerate(self.table):
            folded += (prod >> (8 * width * (k + e)) & first) * _pack(row, width)
        slots = _unpack(folded, width, n * stride)
        if self._log is not None:
            residues = [v % p for v in slots]
            return tuple(map(self._reads.__getitem__, zip(*[iter(residues)] * stride)))
        cols = [[v % p for v in slots[i::stride]] for i in range(k)]
        return tuple([c if c[-1] else tuple(_trimmed(c)) for c in zip(*cols)])


# Rabin's test in degree k over GF(p) makes k Frobenius steps of about
# log2 p products mod f, each about k^2 digit operations; a field past this
# many k^3 log2 p is refused before any division.  On a 2-core Xeon (Python
# 3.11.7) one test inside it takes under 0.1 s, a modulus search (about k
# tests) at most 2.3 s over 13 primes to 2^81, and GF(2^128), past it, 6.6 s.
_RABIN_BUDGET = 1 << 17


def _check_rabin_cost(p: int, degree: int):
    if degree ** 3 * p.bit_length() > _RABIN_BUDGET:
        raise SearchSpaceTooLarge(f"Rabin's test in degree {degree} over GF({p}) takes over {_RABIN_BUDGET} digit ops")


def poly_is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Irreducibility over GF(p) by Rabin's test (Rabin 1980; von zur Gathen and Gerhard, ch. 14).

    f of degree k is irreducible iff u^(p^k) = u mod f and
    gcd(u^(p^(k/r)) - u, f) = 1 for every prime r | k; each gcd is taken
    as the Frobenius chain u^(p^j) mod f reaches it.  Remainders and gcds
    mod c f, c a nonzero constant, are those mod f, so f need not be monic.
    """
    ring = _PrimeRing(p)
    f = _trimmed(v % p for v in coeffs)
    k = len(f) - 1
    if k < 1:
        return False
    _check_rabin_cost(p, k)
    x = y = ring._poly_divmod((0, 1), f)[1]  # u mod f
    for j in range(1, k + 1):
        y = _power(y, p, (1,), lambda a, b: ring._poly_divmod(ring._poly_mul(a, b), f)[1])  # u^(p^j) mod f
        if k % j == 0 and is_prime(k // j) and not ring._poly_euclid(f, ring._poly_sub(y, x))[0]:
            return False
    return y == x


@lru_cache(maxsize=None)
def find_irreducible(p: int, degree: int) -> tuple[int, ...]:
    """First monic irreducible of the degree, the lower coefficients in itertools.product order.

    So u^(d-1) varies fastest and u^0 slowest: candidate n has the base-p
    digits of n, u^0 highest.  In degree 2 or more it starts at u^0 = 1: u divides all before.
    """
    _check_rabin_cost(p, degree)
    for n in range(p ** (degree - 1) if degree > 1 else 0, p ** degree):
        low = _digits(n, p)
        cand = (low + (0,) * (degree - len(low)))[::-1] + (1,)
        if poly_is_irreducible(cand, p):
            return cand
    raise UnsupportedField(f"no irreducible of degree {degree} over GF({p})")


# ---------------------------------------------------------------------------
# Field specifications and elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldSpec:
    """Description of a coefficient field: Q, GF(p) or GF(p^k).

    char 0 means the rationals; degree > 1 means an extension field whose
    elements are reduced polynomials in ``u`` modulo ``modulus`` (a monic
    irreducible stored low-to-high, including the leading 1).
    """

    char: int
    degree: int = 1
    modulus: tuple[int, ...] | None = None
    _ring: _Ring = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.char == 0:
            if self.degree != 1 or self.modulus is not None:
                raise UnsupportedField("rationals take no extension data")
            object.__setattr__(self, "_ring", _RationalRing())
            return
        if not is_prime(self.char):
            raise UnsupportedField(f"characteristic {self.char} is not prime")
        if self.degree < 1:
            raise UnsupportedField("extension degree must be positive")
        if self.degree == 1:
            if self.modulus is not None:
                raise UnsupportedField("prime fields take no modulus")
            object.__setattr__(self, "_ring", _PrimeRing(self.char))
            return
        if self.modulus is None:
            mod = find_irreducible(self.char, self.degree)
        else:
            mod = tuple(v % self.char for v in self.modulus)
            if len(mod) != self.degree + 1 or mod[-1] != 1:
                raise UnsupportedField("modulus must be monic of the extension degree")
            if not poly_is_irreducible(mod, self.char):
                raise UnsupportedField("modulus is not irreducible")
        object.__setattr__(self, "modulus", mod)
        object.__setattr__(self, "_ring", _ExtensionRing(self.char, mod))

    def __eq__(self, other):
        # every element operation compares specs, and they are nearly always one object;
        # dataclass still generates __hash__ from the same three fields
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.char, self.degree, self.modulus) == (other.char, other.degree, other.modulus)

    # -- classification ----------------------------------------------------

    @property
    def is_rationals(self) -> bool:
        return self.char == 0

    @property
    def is_prime_field(self) -> bool:
        return self.char != 0 and self.degree == 1

    @property
    def is_extension(self) -> bool:
        return self.degree > 1

    @property
    def order(self) -> int | None:
        """Number of elements, or None for an infinite field."""
        if self.char == 0:
            return None
        return self.char ** self.degree

    # -- construction ------------------------------------------------------

    @staticmethod
    def rationals() -> "FieldSpec":
        return FieldSpec(0)

    @staticmethod
    def prime(p: int) -> "FieldSpec":
        return FieldSpec(p)

    @staticmethod
    def extension(p: int, k: int, modulus: Sequence[int] | None = None) -> "FieldSpec":
        return FieldSpec(p, k, tuple(modulus) if modulus is not None else None)

    def element(self, value) -> "FieldElement":
        """Coerce an int, Fraction, coefficient sequence or element into this field."""
        if isinstance(value, FieldElement):
            if value.spec == self:
                return value
            raise FieldMismatch("element belongs to a different field")
        return FieldElement(self, self._ring._coerce(value))

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, self._ring.zero)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, self._ring.one)

    @property
    def generator(self) -> "FieldElement":
        """The extension generator u; undefined for prime fields and Q."""
        if not self.is_extension:
            raise UnsupportedField("only extension fields have a generator u")
        return FieldElement(self, (0, 1))

    def elements(self) -> Iterator["FieldElement"]:
        """All elements in sort_key order: the n-th has sort_key n.  Infinite fields are refused."""
        for v in self._raw_elements():
            yield FieldElement(self, v)

    def _raw_elements(self) -> Iterable:
        """The raw values of elements(), in order: range(p) over GF(p).

        Over GF(p^k) the n-th is the base-p digits of n, low first, which is
        already a trimmed reduced tuple; they are made as they are read.
        """
        if self.order is None:
            raise UnsupportedField("cannot enumerate an infinite field")
        if self.degree == 1:
            return range(self.char)
        return map(partial(_digits, p=self.char), range(self.order))

    def units(self) -> Iterator["FieldElement"]:
        for a in self.elements():
            if not a.is_zero:
                yield a

    def random_element(self, rng) -> "FieldElement":
        if self.char == 0:
            return self.element(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        if self.degree == 1:
            return self.element(rng.randrange(self.char))
        return self.element([rng.randrange(self.char) for _ in range(self.degree)])

    def embed(self, a: "FieldElement") -> "FieldElement":
        """Embed a prime-field element into this extension of the same characteristic."""
        if a.spec == self:
            return a
        if a.spec.is_prime_field and self.char == a.spec.char:
            return self.element(a.value)
        raise UnsupportedField("only prime-field scalars embed into an extension")

    def __str__(self) -> str:
        if self.char == 0:
            return "Q"
        if self.degree == 1:
            return f"GF({self.char})"
        mod = _render_u_poly(self.modulus)
        return f"GF({self.char}^{self.degree}),mod={mod}"


def _digits(n: int, p: int) -> tuple[int, ...]:
    """The base-p digits of n, lowest first, with no trailing zeros."""
    out = []
    while n:
        n, d = divmod(n, p)
        out.append(d)
    return tuple(out)


def _render_u_poly(coeffs: Sequence[int]) -> str:
    parts = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c:
            u = "u" if e == 1 else f"u^{e}"
            parts.append(str(c) if e == 0 else u if c == 1 else f"{c}*{u}")
    return "+".join(parts) or "0"


class FieldElement:
    """A single field element; immutable and hashable.

    value is a Fraction over Q, an int residue over GF(p), and a trimmed
    coefficient tuple over GF(p^k).
    """

    __slots__ = ("spec", "value")

    def __init__(self, spec: FieldSpec, value):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "value", value)

    def __setattr__(self, *_):
        raise AttributeError("FieldElement is immutable")

    # -- predicates ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.value

    @property
    def is_one(self) -> bool:
        return self.value == self.spec._ring.one

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.spec != self.spec:
                raise FieldMismatch("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.spec.element(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec._ring._add(self.value, o.value))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.spec, self.spec._ring._neg(self.value))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec._ring._sub(self.value, o.value))

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec._ring._mul(self.value, o.value))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero:
            raise DivisionByZero("zero has no inverse")
        return FieldElement(self.spec, self.spec._ring._inv(self.value))

    def __truediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        base, n = (self.inverse(), -n) if n < 0 else (self, n)
        return _power(base, n, self.spec.one)

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.spec == other.spec and self.value == other.value
        if isinstance(other, (int, Fraction)):
            return self == self.spec.element(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.spec, self.value))

    def sort_key(self):
        """Total order within one field, used for canonical output ordering."""
        v = self.value
        if isinstance(v, tuple):
            return sum(c * self.spec.char ** i for i, c in enumerate(v))
        return v

    def __str__(self):
        v = self.value
        if isinstance(v, tuple):
            return _render_u_poly(v)
        try:
            return str(v)
        except ValueError:  # past sys.get_int_max_str_digits()
            raise _digit_limit_error() from None

    def __repr__(self):
        return f"<{self} in {self.spec}>"


def _digit_limit_error() -> DigitLimitExceeded:
    limit = sys.get_int_max_str_digits()
    return DigitLimitExceeded(f"a rational with more than {limit} digits cannot be rendered")


def _render_guard(spec: FieldSpec):
    """Over Q, a check that raises str()'s DigitLimitExceeded on a raw value str() would refuse; else None.

    str() refuses a rational whose numerator or denominator has more than
    sys.get_int_max_str_digits() digits; a limit of 0 turns the check off.
    """
    limit = sys.get_int_max_str_digits()
    if not spec.is_rationals or not limit:
        return None
    bound = 10 ** limit

    def guard(v: Fraction):
        if v.denominator >= bound or abs(v.numerator) >= bound:
            raise _digit_limit_error()

    return guard


# Pollard-Brent rho gets this many squarings per factorization: under a second
# on a 2-core Xeon (Python 3.11), and enough to split off prime factors up to
# about 10^12.
_RHO_STEPS = 1 << 20


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1; SearchSpaceTooLarge when it would take long.

    Trial division runs up to 1000 or sqrt n; a cofactor that is_prime
    does not accept is split by Pollard-Brent rho (Pollard 1975; Brent
    1980) with a fixed seed, which is refused once it has used _RHO_STEPS
    steps.
    """
    out: dict[int, int] = {}
    d = 2
    while d < 1000 and d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    rng, steps, left = None, 0, [n] if n > 1 else []
    while left:
        m = left.pop()
        if m < d * d or (m < _MR_BOUND and is_prime(m)):  # m has no factor below d
            out[m] = out.get(m, 0) + 1
            continue
        rng = rng or random.Random(0)
        g = m
        while g == m:  # a cycle closed mod m itself: retry with another polynomial
            y, c = rng.randrange(m), rng.randrange(1, m)
            g = q = r = 1
            while g == 1:
                if steps >= _RHO_STEPS:
                    raise SearchSpaceTooLarge(f"{m} was not split within {_RHO_STEPS} rho steps")
                x = y
                for _ in range(r):
                    y = (y * y + c) % m
                for i in range(0, r, 128):  # one gcd per 128 differences
                    ys = y
                    for _ in range(min(128, r - i)):
                        y = (y * y + c) % m
                        q = q * abs(x - y) % m
                    g = math.gcd(q, m)
                    if g != 1:
                        break
                steps += 2 * r
                r *= 2
            if g == m:  # the batch overshot: replay it one difference at a time
                g = 1
                while g == 1:
                    ys = (ys * ys + c) % m
                    g = math.gcd(abs(x - ys), m)
        left += [g, m // g]
    return out


def multiplicative_order(a: FieldElement) -> int:
    """Order of a in the multiplicative group; 0 encodes infinite order.

    Finite-field orders divide p^k - 1 and are found by stripping prime
    factors, so SearchSpaceTooLarge when p^k - 1 is too hard to factor
    (see _factorize); over Q only 1 and -1 have finite order.
    """
    if a.is_zero:
        raise ZeroArgument("zero has no multiplicative order")
    if a.spec.is_rationals:
        return {1: 1, -1: 2}.get(a.value, 0)
    n = a.spec.order - 1
    order = n
    for prime in _factorize(n):
        while order % prime == 0 and (a ** (order // prime)).is_one:
            order //= prime
    return order


def frobenius_degree(a: FieldElement) -> int:
    """Degree of a over the prime subfield (size of the Frobenius orbit)."""
    if a.spec.char == 0:
        raise UnsupportedField("Frobenius degree needs positive characteristic")
    p = a.spec.char
    b = a ** p
    d = 1
    while b != a:
        b = b ** p
        d += 1
    return d

