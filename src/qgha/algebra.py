"""The algebra H_q(f, g) and its normal-form arithmetic.

Generators x, y, h subject to

    h x = x f(h),    y h = f(h) y,    y x = q x y + g(h),

with q a scalar and f, g polynomials over the coefficient field.  Words
rewrite onto the basis x^i p(h) y^k; an element is a finite sum of such
monomials keyed by the pair (i, k).  Multiplication reduces to the
straightening rule for y^k x^m, which is computed once per (k, m) and
memoized on the algebra, plus the substitution sigma^k: p(h) -> p(f^[k](h))
when h-polynomials move across x^k or y^k.  sigma^k runs Poly.compose
against the powers of the iterate f^[k] that the algebra keeps; a result
sigma^k(p) is kept only within one product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import DegreeOverflow, FieldMismatch, SearchSpaceTooLarge
from .fields import FieldElement, FieldSpec, _power
from .poly import Poly


# theta, nu_table and MuSequence build at most this many terms of a sequence;
# over GF(5), 2^16 thetas with f = h + 1 take about 3 s, as many nu- or
# mu-values about 0.3 s (2-core Xeon)
_SEQUENCE_BUDGET = 1 << 16


def _check_length(count: int):
    """Raise SearchSpaceTooLarge, before any term is built, when count passes _SEQUENCE_BUDGET."""
    if count > _SEQUENCE_BUDGET:
        raise SearchSpaceTooLarge(f"{count} terms of a sequence are past the length budget of {_SEQUENCE_BUDGET}")


@dataclass(frozen=True)
class AlgebraSpec:
    """Immutable description of one algebra H_q(f, g).

    degree_cap bounds the h-degree of every intermediate polynomial; deep
    substitutions grow degrees like (deg f)^k, so runaway computations fail
    fast with DegreeOverflow instead of consuming the machine.  The memos of
    f^[k], its powers (_powers[k], about 2 sqrt(degree_cap) of them, none
    above the cap), theta_k and the straightening rules live on the
    instance, outside eq/hash/repr.
    """

    field: FieldSpec
    q: FieldElement
    f: Poly
    g: Poly
    degree_cap: int = 512

    def __post_init__(self):
        if self.q.spec != self.field or self.f.spec != self.field or self.g.spec != self.field:
            raise FieldMismatch("q, f and g must live over the declared field")
        if max(1, self.f.degree, self.g.degree) > self.degree_cap:
            raise DegreeOverflow(f"degree cap {self.degree_cap} must be at least 1, deg f and deg g")
        vars(self).update(_iterates=[Poly.gen(self.field), self.f], _powers={},
                          _thetas=[Poly.zero(self.field)], _rules={})

    def sigma(self, p: Poly) -> Poly:
        """The endomorphism p(h) -> p(f(h))."""
        return self.sigma_power(p, 1)

    def sigma_power(self, p: Poly, k: int) -> Poly:
        """sigma^k(p) = p(f^[k](h)), one substitution against the memoized powers of the iterate."""
        if k == 0 or p.is_constant:
            return p
        return p.compose(self.f_iterate(k), self.degree_cap, self._powers.setdefault(k, []))

    def f_iterate(self, k: int) -> Poly:
        """Compositional power f^[k], with f^[0] = h."""
        if k < 0:
            raise ValueError("f is iterated k >= 0 times")
        while len(self._iterates) <= k:
            self._iterates.append(self.sigma(self._iterates[-1]))
        return self._iterates[k]

    def __str__(self):
        return f"H_q(f,g) over {self.field} with q={self.q}, f={self.f}, g={self.g}"


def theta(alg: AlgebraSpec, k: int) -> Poly:
    """theta_k = sum_{i=0}^{k-1} q^i sigma^{k-1-i}(g), with theta_0 = 0.

    Satisfies theta_{k+1} = sigma(theta_k) + q^k g, which is how it is built.
    These polynomials carry the cross terms of the straightening rule:
    y x^k = q^k x^k y + x^{k-1} theta_k.  Past k = _SEQUENCE_BUDGET
    SearchSpaceTooLarge is raised at once.
    """
    if k < 0:
        raise ValueError("theta is indexed by k >= 0")
    _check_length(k)
    thetas = alg._thetas
    while len(thetas) <= k:
        thetas.append(alg.sigma(thetas[-1]) + alg.q ** (len(thetas) - 1) * alg.g)
    return thetas[k]


def _straighten(alg: AlgebraSpec, k: int, m: int) -> tuple[tuple[int, int, Poly], ...]:
    """Normal form of y^k x^m as a tuple of (i, j, p) triples for x^i p(h) y^j.

    Peels one y off the left: y^k x^m = q^m (y^{k-1} x^m) y + (y^{k-1} x^{m-1}) theta_m.
    Only rules with k, m >= 1 are memoized, row by row over the columns (k, m) needs.
    """
    if k == 0 or m == 0:
        return ((m, k, Poly.one(alg.field)),)
    rules = alg._rules
    if (k, m) not in rules:
        one = Poly.one(alg.field)
        for j in range(1, k + 1):
            for n in range(max(1, m - k + j), m + 1):
                if (j, n) in rules:
                    continue
                acc: dict[tuple[int, int], Poly] = {}
                qn = alg.q ** n
                for (a, b, p) in rules.get((j - 1, n), ((n, 0, one),)):
                    _accumulate(acc, (a, b + 1), qn * p)
                th = theta(alg, n)
                if not th.is_zero:
                    for (a, b, p) in rules.get((j - 1, n - 1), ((n - 1, j - 1, one),)):
                        _accumulate(acc, (a, b), p * alg.sigma_power(th, b))
                rules[(j, n)] = tuple((a, b, p) for (a, b), p in acc.items() if not p.is_zero)
    return rules[(k, m)]


def _accumulate(acc: dict[tuple[int, int], Poly], key: tuple[int, int], p: Poly):
    prev = acc.get(key)
    acc[key] = p if prev is None else prev + p


class PBWElement:
    """An element of H_q(f, g) in normal form.

    terms maps (i, k) to the nonzero polynomial p with summand x^i p(h) y^k.
    Instances behave as immutable values; all operators return new objects.
    """

    __slots__ = ("alg", "terms")

    def __init__(self, alg: AlgebraSpec, terms: Mapping[tuple[int, int], Poly]):
        object.__setattr__(self, "alg", alg)
        object.__setattr__(self, "terms", {k: p for k, p in terms.items() if not p.is_zero})

    def __setattr__(self, *_):
        raise AttributeError("PBWElement is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(alg: AlgebraSpec) -> "PBWElement":
        return PBWElement(alg, {})

    @staticmethod
    def one(alg: AlgebraSpec) -> "PBWElement":
        return PBWElement(alg, {(0, 0): Poly.one(alg.field)})

    @staticmethod
    def scalar(alg: AlgebraSpec, c) -> "PBWElement":
        return PBWElement(alg, {(0, 0): Poly.constant(alg.field, c)})

    @staticmethod
    def x(alg: AlgebraSpec, i: int = 1) -> "PBWElement":
        return PBWElement(alg, {(i, 0): Poly.one(alg.field)})

    @staticmethod
    def y(alg: AlgebraSpec, k: int = 1) -> "PBWElement":
        return PBWElement(alg, {(0, k): Poly.one(alg.field)})

    @staticmethod
    def h(alg: AlgebraSpec) -> "PBWElement":
        return PBWElement(alg, {(0, 0): Poly.gen(alg.field)})

    @staticmethod
    def h_poly(alg: AlgebraSpec, p: Poly) -> "PBWElement":
        return PBWElement(alg, {(0, 0): p})

    @staticmethod
    def monomial(alg: AlgebraSpec, i: int, p: Poly, k: int) -> "PBWElement":
        """x^i p(h) y^k."""
        if i < 0 or k < 0:
            raise ValueError("x and y exponents must be nonnegative")
        return PBWElement(alg, {(i, k): p})

    # -- inspection ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, i: int, k: int) -> Poly:
        return self.terms.get((i, k), Poly.zero(self.alg.field))

    def support(self) -> list[tuple[int, int]]:
        return sorted(self.terms)

    # -- linear structure ----------------------------------------------------

    def _check(self, other: "PBWElement"):
        if self.alg != other.alg:
            raise FieldMismatch("elements of different algebras")

    def __add__(self, other: "PBWElement") -> "PBWElement":
        if not isinstance(other, PBWElement):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for key, p in other.terms.items():
            _accumulate(out, key, p)
        return PBWElement(self.alg, out)

    def __neg__(self) -> "PBWElement":
        return PBWElement(self.alg, {k: -p for k, p in self.terms.items()})

    def __sub__(self, other: "PBWElement") -> "PBWElement":
        if not isinstance(other, PBWElement):
            return NotImplemented
        return self + (-other)

    # -- multiplication ------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, PBWElement):
            self._check(other)
            return _multiply(self, other)
        if isinstance(other, (int, Fraction, FieldElement)):
            c = self.alg.field.element(other)
            return PBWElement(self.alg, {k: p * c for k, p in self.terms.items()})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            return self * other
        return NotImplemented

    def __pow__(self, n: int) -> "PBWElement":
        if not isinstance(n, int) or n < 0:
            raise ValueError("powers of algebra elements must be nonnegative integers")
        return _power(self, n, PBWElement.one(self.alg))

    # -- algebra maps --------------------------------------------------------

    def iota(self) -> "PBWElement":
        """The anti-automorphism fixing h and swapping x with y.

        On normal forms it transposes exponents: x^i p y^k -> x^k p y^i.
        """
        return PBWElement(self.alg, {(k, i): p for (i, k), p in self.terms.items()})

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, PBWElement):
            return NotImplemented
        return self.alg == other.alg and self.terms == other.terms

    def __hash__(self):
        return hash((self.alg, frozenset(self.terms.items())))

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"PBWElement({self.render()})"

    def render(self) -> str:
        """Canonical text form, terms sorted by (x-exponent, y-exponent)."""
        if self.is_zero:
            return "0"
        parts = []
        for (i, k) in self.support():
            ptxt = self.terms[(i, k)].render()
            factors = []
            if i:
                factors.append("x" if i == 1 else f"x^{i}")
            if ptxt != "1" or (i == 0 and k == 0):
                if (" " in ptxt or ptxt.startswith("-")) and (i or k):
                    ptxt = f"({ptxt})"
                factors.append(ptxt)
            if k:
                factors.append("y" if k == 1 else f"y^{k}")
            parts.append(" * ".join(factors))
        return " + ".join(parts)


def _multiply(u: PBWElement, v: PBWElement) -> PBWElement:
    alg = u.alg
    out: dict[tuple[int, int], Poly] = {}
    # sigma powers of the terms of u and v, kept for this product only
    right: dict[tuple[int, int, int], Poly] = {}
    for (i1, k1), p1 in u.terms.items():
        left: dict[int, Poly] = {}
        for (i2, k2), p2 in v.terms.items():
            # x^i1 p1 y^k1 * x^i2 p2 y^k2: straighten y^k1 x^i2, then push
            # p1 right through x^a and p2 left through y^b.
            for (a, b, c) in _straighten(alg, k1, i2):
                if a not in left:
                    left[a] = alg.sigma_power(p1, a)
                if (i2, k2, b) not in right:
                    right[(i2, k2, b)] = alg.sigma_power(p2, b)
                degree = left[a].degree + c.degree + right[(i2, k2, b)].degree
                if degree > alg.degree_cap:
                    raise DegreeOverflow(f"product degree {degree} exceeds cap {alg.degree_cap}")
                _accumulate(out, (i1 + a, b + k2), left[a] * c * right[(i2, k2, b)])
    return PBWElement(alg, out)


def commutator(u: PBWElement, v: PBWElement) -> PBWElement:
    return u * v - v * u


def q_commutator(u: PBWElement, v: PBWElement, s: FieldElement) -> PBWElement:
    """u v - s v u."""
    return u * v - (v * u) * s


def generators(alg: AlgebraSpec) -> tuple[PBWElement, PBWElement, PBWElement]:
    """(x, y, h) as elements."""
    return PBWElement.x(alg), PBWElement.y(alg), PBWElement.h(alg)
