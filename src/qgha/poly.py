"""Dense univariate polynomials over an exact field.

These are the coefficient polynomials p(h) sitting between the x and y
powers of a normal-form word, and also double as polynomials in any other
single variable (the extension generator u, a spectral parameter t).
A polynomial holds the field ring's polynomial value (see fields): the
trimmed tuple of raw coefficients, low to high, over GF(p) and GF(p^k), and
over Q integer numerators over one denominator, which read as the tuple of
lowest-terms Fractions.  The zero polynomial has no coefficients and reports
degree -1.  Arithmetic runs on those values, where products are Kronecker
substitutions, and FieldElements are built only when a caller reads
coefficients.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import DegreeOverflow, FieldMismatch, SearchSpaceTooLarge, ZeroArgument
from .fields import FieldElement, FieldSpec, _factorize, _power


class Poly:
    """values holds the ring polynomial; coeffs and coefficient() build elements on read."""

    __slots__ = ("spec", "values")

    def __init__(self, spec: FieldSpec, coeffs: Iterable[FieldElement]):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "values", spec._ring._poly_from([spec.element(c).value for c in coeffs]))

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(spec: FieldSpec) -> "Poly":
        return Poly(spec, ())

    @staticmethod
    def one(spec: FieldSpec) -> "Poly":
        return Poly(spec, (spec.one,))

    @staticmethod
    def constant(spec: FieldSpec, c) -> "Poly":
        return Poly(spec, (c,))

    @staticmethod
    def gen(spec: FieldSpec) -> "Poly":
        """The variable itself."""
        return Poly(spec, (spec.zero, spec.one))

    @staticmethod
    def monomial(spec: FieldSpec, degree: int, c=1) -> "Poly":
        return Poly(spec, [0] * degree + [c])

    @staticmethod
    def from_ints(spec: FieldSpec, ints: Sequence) -> "Poly":
        """Low-to-high coefficient list of ints or Fractions."""
        return Poly(spec, ints)

    # -- structure -----------------------------------------------------------

    @property
    def coeffs(self) -> tuple[FieldElement, ...]:
        """The coefficients as field elements, low to high."""
        return tuple(FieldElement(self.spec, v) for v in self.values)

    @property
    def degree(self) -> int:
        """Degree, with -1 as the sentinel for the zero polynomial."""
        return len(self.values) - 1

    @property
    def is_zero(self) -> bool:
        return not self.values

    @property
    def is_constant(self) -> bool:
        return len(self.values) <= 1

    def coefficient(self, i: int) -> FieldElement:
        return FieldElement(self.spec, self.values[i]) if 0 <= i < len(self.values) else self.spec.zero

    def constant_value(self) -> FieldElement:
        if not self.is_constant:
            raise ZeroArgument("polynomial is not constant")
        return self.coefficient(0)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "Poly"):
        if self.spec != other.spec:
            raise FieldMismatch("polynomials over different fields")

    @staticmethod
    def _raw(spec: FieldSpec, values: Iterable) -> "Poly":
        """A polynomial over spec from raw coefficient values, trailing zeros allowed."""
        out = object.__new__(Poly)
        object.__setattr__(out, "spec", spec)
        object.__setattr__(out, "values", spec._ring._poly_from(values))
        return out

    def _wrap(self, values) -> "Poly":
        """A polynomial over this field from a ring polynomial."""
        out = object.__new__(Poly)
        object.__setattr__(out, "spec", self.spec)
        object.__setattr__(out, "values", values)
        return out

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        return self._wrap(self.spec._ring._poly_add(self.values, other.values))

    def __neg__(self) -> "Poly":
        return self._wrap(self.spec._ring._poly_neg(self.values))

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        return self._wrap(self.spec._ring._poly_sub(self.values, other.values))

    def __mul__(self, other):
        if isinstance(other, Poly):
            self._check(other)
            return self._wrap(self.spec._ring._poly_mul(self.values, other.values))
        if isinstance(other, (int, Fraction, FieldElement)):
            return self._wrap(self.spec._ring._poly_scale(self.values, self.spec.element(other).value))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        return _power(self, n, Poly.one(self.spec))

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        quot, rem = self.spec._ring._poly_divmod(self.values, other.values)
        return self._wrap(quot), self._wrap(rem)

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __call__(self, x: FieldElement) -> FieldElement:
        """Horner evaluation."""
        return FieldElement(self.spec, self._at(self.spec.element(x).value))

    def _at(self, x):
        """Horner evaluation at a raw value, returning a raw value."""
        ring = self.spec._ring
        add, mul = ring._add, ring._mul
        acc = ring.zero
        for c in reversed(self.values):
            acc = add(mul(acc, x), c)
        return acc

    def compose(self, inner: "Poly", max_degree: int | None = None, powers: list | None = None) -> "Poly":
        """self(inner), guarded by an optional cap on the result degree.

        Paterson-Stockmeyer: the coefficients split into blocks of
        B = 2 isqrt(deg) + 1, each block is a scalar combination of
        inner^0 .. inner^(B-1), and Horner steps in inner^B join the blocks,
        so a degree-d polynomial costs about sqrt(d) products and one of
        degree <= 2 costs none beyond the powers.  powers holds the ring
        polynomials inner^0, inner^1, ... built so far and is extended in
        place, which lets a caller keep it across compositions with one
        inner; without it the powers are built for this call only.
        """
        self._check(inner)
        if max_degree is not None and self.degree >= 1 and inner.degree >= 1:
            if self.degree * inner.degree > max_degree:
                raise DegreeOverflow(
                    f"composition degree {self.degree * inner.degree} exceeds cap {max_degree}"
                )
        d = self.degree
        if d < 1:
            return self
        ring = self.spec._ring
        block = 2 * math.isqrt(d) + 1
        powers = [] if powers is None else powers
        if not powers:
            powers += [ring._poly_from([ring.one]), inner.values]
        while len(powers) <= min(d, block):
            powers.append(ring._poly_mul(powers[-1], inner.values))
        acc = ()
        for start in reversed(range(0, d + 1, block)):
            head = ring._poly_lincomb(self.values[start:start + block], powers)
            acc = ring._poly_add(ring._poly_mul(acc, powers[block]), head) if acc else head
        return self._wrap(acc)

    def map_coefficients(self, fn: Callable[[FieldElement], FieldElement], spec: FieldSpec) -> "Poly":
        return Poly(spec, (fn(c) for c in self.coeffs))

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.spec == other.spec and self.values == other.values

    def __hash__(self):
        return hash((self.spec, self.values))

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"Poly({self.render()})"

    def render(self, var: str = "h") -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for e in range(self.degree, -1, -1):
            v = self.values[e]
            if not v:
                continue
            text, negative = _scalar_factor(FieldElement(self.spec, v))
            if e == 0:
                body = text if text else "1"
            else:
                head = var if e == 1 else f"{var}^{e}"
                body = f"{text}*{head}" if text else head
            if not parts:
                parts.append(f"-{body}" if negative else body)
            else:
                parts.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(parts)


def _scalar_factor(c: FieldElement) -> tuple[str, bool]:
    """Render a coefficient as (factor text, sign); empty text means factor 1."""
    text = str(c)
    negative = text.startswith("-")
    if negative:
        text = text[1:]
    if "u" in text:
        return f"({text})", False
    return ("" if text == "1" else text), negative


# ---------------------------------------------------------------------------
# Root finding
# ---------------------------------------------------------------------------


# The most Horner steps rational_roots takes for one sign: d(a_0) d(a_n)
# candidate pairs times n + 1 coefficients.  At half the budget, forms of
# degree 2 to 512 with 30-digit coefficients took 0.14-0.32 s on a 2-core Xeon.
_ROOT_WORK_BUDGET = 1 << 19


def rational_roots(p: Poly) -> set[FieldElement]:
    """All rational roots, via the rational root theorem on a cleared form.

    A root num/den in lowest terms of a_0 + ... + a_n h^n, with integer
    a_i and a_0 != 0, has num | a_0 and den | a_n.  The divisors are built
    from the prime factorizations (fields._factorize, which refuses past
    _RHO_STEPS), and each candidate is tried by Horner on integers.  When
    d(a_0) d(a_n) (n + 1) passes _ROOT_WORK_BUDGET, SearchSpaceTooLarge is
    raised before any divisor list is built.
    """
    if p.is_zero:
        raise ZeroArgument("zero polynomial has every root")
    spec = p.spec
    # strip powers of the variable: 0 is a root iff the constant term vanishes
    values = list(itertools.dropwhile(lambda v: not v, p.values))
    roots = {spec.zero} if len(values) < len(p.values) else set()
    if len(values) <= 1:
        return roots
    denom_lcm = math.lcm(*[v.denominator for v in values])
    ints = [int(v * denom_lcm) for v in values]
    primes = _factorize(abs(ints[0])), _factorize(abs(ints[-1]))
    work = math.prod(e + 1 for factors in primes for e in factors.values()) * len(ints)
    if work > _ROOT_WORK_BUDGET:
        raise SearchSpaceTooLarge(f"the rational root theorem leaves {work} Horner steps, "
                                  f"past the budget of {_ROOT_WORK_BUDGET}")
    nums, dens = map(_divisors, primes)
    for num in nums:
        for den in dens:
            if math.gcd(num, den) == 1:
                for top in (num, -num):
                    # den^n times the form at top/den
                    acc, scale = 0, 1
                    for c in reversed(ints):
                        acc, scale = acc * top + c * scale, scale * den
                    if not acc:
                        roots.add(spec.element(Fraction(top, den)))
    return roots


def _divisors(primes: dict[int, int]) -> list[int]:
    """Every divisor of the number whose prime factorization is primes."""
    out = [1]
    for prime, e in primes.items():
        out = [d * prime ** i for d in out for i in range(e + 1)]
    return out


def roots_in_field(p: Poly) -> set[FieldElement]:
    """Roots of a nonzero polynomial inside its own coefficient field."""
    if p.is_zero:
        raise ZeroArgument("zero polynomial has every root")
    if p.spec.is_rationals:
        return rational_roots(p)
    return {a for a in p.spec.elements() if p(a).is_zero}

