"""Eigenvalue combinatorics feeding the module constructions.

A lambda-orbit is a finite cycle of the substitution map alpha -> f(alpha)
on the field; a mu-sequence solves the twisted recursion
mu(i+1) = q mu(i) + g(lambda(i)) over such a cycle and is itself periodic
with period a multiple of the cycle length whenever it is periodic at all.
The nu-values are the mu-sequence started at 0 over the (not necessarily
periodic) forward orbit of a point; they control the third family of
modules and the simplicity test.

Over a finite field, _PointTable evaluates f and g once at every point, on
raw values, for the length of one call: the orbit walk, the nu-test of
every point and the enumeration of simple modules read positions and raw
values from it instead of evaluating f and g point by point.  The
recurrences of MuSequence and nu_table also run on raw values and wrap
only their results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial

from .algebra import AlgebraSpec
from .errors import InvalidSpec, QZero, SearchSpaceTooLarge, UnsupportedField
from .fields import FieldElement, FieldSpec, multiplicative_order
from .poly import Poly, roots_in_field


@dataclass(frozen=True)
class LambdaOrbit:
    """A cycle (lambda(0), ..., lambda(l-1)) of the map alpha -> f(alpha).

    values must be pairwise distinct with f(values[i]) = values[i+1]
    cyclically; the period l = len(values) is then automatically minimal.
    """

    f: Poly
    values: tuple[FieldElement, ...]

    def __post_init__(self):
        if not self.values:
            raise InvalidSpec("an orbit needs at least one point")
        if len(set(self.values)) != len(self.values):
            raise InvalidSpec("orbit points must be pairwise distinct")
        for i, v in enumerate(self.values):
            if self.f(v) != self.values[(i + 1) % len(self.values)]:
                raise InvalidSpec("values are not an f-cycle")

    @property
    def period(self) -> int:
        return len(self.values)

    @property
    def field(self) -> FieldSpec:
        return self.f.spec

    def value(self, i: int) -> FieldElement:
        return self.values[i % len(self.values)]

    def rotated(self, s: int) -> "LambdaOrbit":
        l = len(self.values)
        s %= l
        return LambdaOrbit(self.f, self.values[s:] + self.values[:s])

    def canonical(self) -> "LambdaOrbit":
        """The rotation starting at the smallest point, for stable output."""
        best = min(range(len(self.values)), key=lambda s: self.rotated(s)._key())
        return self.rotated(best)

    def _key(self):
        return tuple(v.sort_key() for v in self.values)

    def __str__(self):
        return "(" + ", ".join(str(v) for v in self.values) + ")"


# The most coefficient products orbit_from_seed spends walking a finite field
# before it gives up: a step evaluates f by Horner, one product per coefficient.
_ORBIT_WORK_BUDGET = 2 ** 19


def _escapes(f: Poly):
    """For f over Q of degree d >= 2, a test true at x only when no iterate of x returns to x.

    Write f = sum_i c_i h^i / D with integers c_i.  If |x| > R = max(1,
    (1 + sum_{i<d} |c_i / D|) / |c_d / D|), then |f(x)| > |x|.  If the
    denominator of x does not divide c_d, some prime p divides it more
    often than it divides c_d, and p divides the denominator of f(x) more
    often still.  Either way f(x) passes the test too, with a larger
    absolute value or a larger power of p, so the orbit never comes back.
    A point that fails the test has bounded numerator and denominator, so a
    walk through such points stays small.
    """
    a = [c.value for c in f.coeffs]
    lead = abs((a[-1] * math.lcm(*[v.denominator for v in a])).numerator)
    radius = max(Fraction(1), (1 + sum(map(abs, a[:-1]))) / abs(a[-1]))
    return lambda x: abs(x) > radius or lead % x.denominator != 0


def orbit_from_seed(f: Poly, alpha: FieldElement, max_steps: int = 64) -> LambdaOrbit:
    """The cycle through alpha, which must be a periodic point of f.

    Over a finite field every point is eventually periodic but only
    periodic seeds lie on their own cycle; others are rejected, and a walk
    of more than _ORBIT_WORK_BUDGET / (deg f + 1) steps raises
    SearchSpaceTooLarge.  Over Q the search gives up after max_steps
    iterations; for deg f >= 2 it rejects the seed as soon as an iterate
    passes the _escapes test.
    """
    spec = f.spec
    if alpha.spec != spec:
        raise InvalidSpec("seed must lie in the coefficient field")
    if spec.order is None:
        limit = max_steps
    else:
        limit = min(spec.order, _ORBIT_WORK_BUDGET // max(len(f.values), 1))
    escapes = _escapes(f) if spec.is_rationals and f.degree >= 2 else None
    start = current = alpha.value
    seen = {start: None}  # the walk so far, in order
    for _ in range(limit):
        if escapes is not None and escapes(current):
            raise InvalidSpec(f"{alpha} is not a periodic point of f")
        current = f._at(current)
        if current == start:
            return LambdaOrbit(f, tuple(FieldElement(spec, v) for v in seen))
        if current in seen:
            raise InvalidSpec(f"{alpha} is not a periodic point of f")
        seen[current] = None
    if spec.order is not None:
        # reached only when limit < |F|: a walk of |F| steps always repeats a point
        raise SearchSpaceTooLarge(f"the orbit of {alpha} under f takes more than {limit} steps")
    raise InvalidSpec(f"no cycle through {alpha} found within {limit} steps")


class _PointTable:
    """f, and g when given, at every point of one finite field, on raw values.

    Point i is the i-th element of field.elements(), whose sort_key is i, so
    positions order points as sort_key does.  next[i] is the position of
    f(point i) and g[i] the raw value of g there.  A table is built for one
    call and never kept.
    """

    def __init__(self, field: FieldSpec, f: Poly, g: Poly | None = None):
        self.field = field
        points = field._raw_elements()
        if isinstance(points, range):  # GF(p): a residue is its own position
            self.points = self.index = points
        else:
            self.points = list(points)
            self.index = {v: i for i, v in enumerate(self.points)}
        self.next = [self.index[f._at(v)] for v in self.points]
        self.g = [g._at(v) for v in self.points] if g is not None else None

    def element(self, i: int) -> FieldElement:
        return FieldElement(self.field, self.points[i])

    def cycles(self, max_period: int) -> list[list[int]]:
        """Every cycle of f with period <= max_period, as positions.

        Each cycle starts at its smallest position, and they are sorted by
        (period, positions): the order of LambdaOrbit.canonical and _key.
        """
        nxt = self.next
        state = [0] * len(nxt)  # 0 unseen, 1 on the current path, 2 explored
        out = []
        for start in range(len(nxt)):
            path, i = [], start
            while not state[i]:
                state[i] = 1
                path.append(i)
                i = nxt[i]
            # the walk rejoined its own path (a fresh cycle) or an explored point
            if state[i] == 1:
                cycle = path[path.index(i):]
                if len(cycle) <= max_period:
                    s = cycle.index(min(cycle))
                    out.append(cycle[s:] + cycle[:s])
            for j in path:
                state[j] = 2
        out.sort(key=lambda c: (len(c), c))
        return out

    def nu_first_zero_at(self, q: FieldElement, n: int) -> list[int]:
        """Positions alpha whose nu-sequence first vanishes at n: nu(n) = 0, nu(i) != 0 for 0 < i < n.

        Runs nu(i+1) = q nu(i) + g(f^[i](alpha)) on the tables, stopping at
        the first zero.
        """
        ring = self.field._ring
        add, mul, q = ring._add, ring._mul, q.value
        nxt, g = self.next, self.g
        out = []
        for alpha in range(len(nxt)):
            nu, i = ring.zero, alpha
            for t in range(1, n + 1):
                nu = add(mul(q, nu), g[i])
                if not nu:
                    if t == n:
                        out.append(alpha)
                    break
                i = nxt[i]
        return out


def enumerate_lambda_orbits(field: FieldSpec, f: Poly, max_period: int) -> list[LambdaOrbit]:
    """All cycles of alpha -> f(alpha) with period at most max_period.

    Over a finite field this tabulates f once on raw values and walks the
    functional graph on positions; only the reported cycles become
    (validated) LambdaOrbits.
    Over Q only fixed points are enumerable (roots of f(h) - h); longer
    periods would need algebraic number arithmetic, so they are refused.
    """
    if max_period < 1:
        return []
    if field.is_rationals:
        if max_period > 1:
            raise UnsupportedField("over Q only period-1 orbits can be enumerated")
        diff = f - Poly.gen(field)
        if diff.is_zero:
            raise UnsupportedField("f = h fixes every rational; the orbit set is infinite")
        fixed = sorted(roots_in_field(diff), key=FieldElement.sort_key)
        return [LambdaOrbit(f, (a,)) for a in fixed]
    table = _PointTable(field, f)
    return [LambdaOrbit(f, tuple(map(table.element, cycle))) for cycle in table.cycles(max_period)]


# ---------------------------------------------------------------------------
# mu-sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MuSequence:
    """Solution of mu(i+1) = q mu(i) + g(lambda(i)) with mu(0) = anchor.

    For q != 0 the recursion also runs backwards, as
    mu(i) = (mu(i+1) - g(lambda(i))) / q; value(i) runs it on raw values,
    forwards from the anchor for i >= 0 and backwards for i < 0.
    period is the least m >= 1 with the joint sequence
    (lambda, mu) invariant under shifting by m |lambda|, encoded as 0 when
    no such m exists (infinite period, only possible in characteristic 0).
    """

    orbit: LambdaOrbit
    q: FieldElement
    g: Poly
    anchor: FieldElement

    def __post_init__(self):
        spec = self.orbit.field
        if self.q.spec != spec or self.g.spec != spec or self.anchor.spec != spec:
            raise InvalidSpec("mu data must live over the orbit's field")

    @property
    def field(self) -> FieldSpec:
        return self.orbit.field

    def value(self, i: int) -> FieldElement:
        """mu(i); negative indices need q invertible."""
        spec = self.field
        if i >= 0:
            return FieldElement(spec, self._raw_values(i + 1)[i])
        if self.q.is_zero:
            raise QZero("mu at negative indices needs q != 0")
        ring = spec._ring
        q_inv, mu = ring._inv(self.q.value), self.anchor.value
        for j in range(-1, i - 1, -1):
            mu = ring._mul(ring._sub(mu, self.g._at(self.orbit.value(j).value)), q_inv)
        return FieldElement(spec, mu)

    def values(self, count: int) -> tuple[FieldElement, ...]:
        """(mu(0), ..., mu(count-1)) by running the recurrence once."""
        spec = self.field
        return tuple(FieldElement(spec, v) for v in self._raw_values(count))

    def _raw_values(self, count: int) -> list:
        """values(count) as raw values; g is evaluated once per orbit point."""
        if count <= 0:
            return []
        ring = self.field._ring
        add, mul, q = ring._add, ring._mul, self.q.value
        g_at = [self.g._at(v.value) for v in self.orbit.values[:count - 1]]
        l = len(g_at) or 1
        out = [self.anchor.value]
        for i in range(count - 1):
            out.append(add(mul(q, out[-1]), g_at[i % l]))
        return out

    @cached_property
    def period(self) -> int:
        return mu_period(self.orbit, self.q, self.g, self.anchor)

    def shifted(self, s: int) -> "MuSequence":
        """The same bilateral sequence re-anchored at position s."""
        return MuSequence(self.orbit.rotated(s), self.q, self.g, self.value(s))


def nu_increment(orbit: LambdaOrbit, q: FieldElement, g: Poly) -> FieldElement:
    """Xi = sum_{i=0}^{l-1} q^i g(lambda(l-1-i)), the drift over one lambda-period.

    It is mu(l) of the sequence anchored at 0, and satisfies
    mu(k l) = q^{k l} mu(0) + Xi (1 + q^l + ... + q^{(k-1) l}).
    """
    return MuSequence(orbit, q, g, orbit.field.zero).value(orbit.period)


def mu_periods(orbit: LambdaOrbit, q: FieldElement, g: Poly) -> tuple[FieldElement | None, int]:
    """The mu-period rule of one orbit: (fixed anchor or None, period of every other anchor).

    Writing Q = q^l and Xi for the one-period drift, mu(k l) follows the
    affine iteration beta -> Q beta + Xi, so the period depends on the
    anchor only through whether it is the fixed point of that iteration:

      Q = 1:  no anchor is singled out; Xi = 0 gives period 1, otherwise
              the period is the additive order of Xi (the characteristic,
              or 0 for infinite over Q).
      Q != 1: the fixed point Xi / (1 - Q) has period 1 and every other
              anchor has period ord(Q).
    """
    if q.is_zero:
        raise QZero("mu-periodicity needs q != 0")
    spec = orbit.field
    big_q = q ** orbit.period
    xi = nu_increment(orbit, q, g)
    if big_q.is_one:
        return None, 1 if xi.is_zero else spec.char
    return xi / (spec.one - big_q), multiplicative_order(big_q)


def mu_period(orbit: LambdaOrbit, q: FieldElement, g: Poly, anchor: FieldElement) -> int:
    """Least m >= 1 with mu(i + m |lambda|) = mu(i) for all i, 0 if none exists.

    The rule is computed once per orbit by mu_periods; this applies it to
    one anchor.
    """
    fixed, period = mu_periods(orbit, q, g)
    return 1 if anchor == fixed else period


# ---------------------------------------------------------------------------
# nu-tables and weight propagation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NuTable:
    """nu(0..count) along the forward f-orbit of alpha, nu(0) = 0.

    nu(i+1) = q nu(i) + g(f^[i](alpha)); these are the y-coefficients of
    the third module family and its simplicity obstructions.  points holds
    f^[i](alpha) for i < count, the h-eigenvalues of that family.
    """

    alpha: FieldElement
    values: tuple[FieldElement, ...]
    points: tuple[FieldElement, ...]

    def value(self, i: int) -> FieldElement:
        return self.values[i]


def nu_table(alg: AlgebraSpec, alpha: FieldElement, count: int) -> NuTable:
    if alpha.spec != alg.field:
        raise InvalidSpec("alpha must lie in the coefficient field")
    ring = alg.field._ring
    add, mul, q = ring._add, ring._mul, alg.q.value
    values, points = [ring.zero], [alpha.value]
    for _ in range(count):
        values.append(add(mul(q, values[-1]), alg.g._at(points[-1])))
        points.append(alg.f._at(points[-1]))
    wrap = partial(FieldElement, alg.field)
    return NuTable(alpha, tuple(map(wrap, values)), tuple(map(wrap, points[:count])))
