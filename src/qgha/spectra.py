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

from .algebra import AlgebraSpec, _check_length
from .errors import InvalidSpec, QZero, SearchSpaceTooLarge, UnsupportedField
from .fields import FieldElement, FieldSpec, _render_guard, multiplicative_order
from .poly import Poly, roots_in_field


@dataclass(frozen=True)
class LambdaOrbit:
    """A cycle (lambda(0), ..., lambda(l-1)) of the map alpha -> f(alpha).

    values must be pairwise distinct with f(values[i]) = values[i+1]
    cyclically; the period l = len(values) is then automatically minimal.
    The constructor checks this; the engine's own walks build their cycles
    with _unchecked, which does not evaluate f again.
    """

    f: Poly
    values: tuple[FieldElement, ...]

    def __post_init__(self):
        if not self.values:
            raise InvalidSpec("an orbit needs at least one point")
        raw = [self.f.spec.element(v).value for v in self.values]
        if len(set(raw)) != len(raw):
            raise InvalidSpec("orbit points must be pairwise distinct")
        if list(map(self.f._at, raw)) != raw[1:] + raw[:1]:
            raise InvalidSpec("values are not an f-cycle")

    @staticmethod
    def _unchecked(f: Poly, values: tuple[FieldElement, ...]) -> "LambdaOrbit":
        """An orbit from a cycle of f that the caller has just found, by a walk or as roots of f - h."""
        out = object.__new__(LambdaOrbit)
        object.__setattr__(out, "f", f)
        object.__setattr__(out, "values", values)
        return out

    @property
    def period(self) -> int:
        return len(self.values)

    @property
    def field(self) -> FieldSpec:
        return self.f.spec

    def value(self, i: int) -> FieldElement:
        return self.values[i % len(self.values)]

    def __str__(self):
        return "(" + ", ".join(str(v) for v in self.values) + ")"


# The most coefficient products orbit_from_seed spends walking a finite field
# before it gives up: a step evaluates f by Horner, one product per coefficient.
_ORBIT_WORK_BUDGET = 2 ** 19
# The most coefficient products a _PointTable spends tabulating f, and g when
# given, at every point: |F| (len f + len g).  orbits over GF(1000003) with
# f = h^2 (3,000,009 products: 2.1 s and 67 MB on a 2-core Xeon) fits;
# GF(4294967311) does not.
_POINT_TABLE_BUDGET = 2 ** 22
# The most iterates orbit_from_seed computes over Q before it gives up.
_ORBIT_Q_STEPS = 64
# The most steps of the nu recurrence _PointTable.nu_first_zero_at may take:
# |F| n, n the target index.  GF(65537) with n = 64 (4,194,368 steps) takes
# 1.2 s on a 2-core Xeon and fits.
_NU_WALK_BUDGET = 2 ** 22


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


def orbit_from_seed(f: Poly, alpha: FieldElement) -> LambdaOrbit:
    """The cycle through alpha, which must be a periodic point of f.

    Over a finite field every point is eventually periodic but only
    periodic seeds lie on their own cycle; others are rejected, and a walk
    of more than _ORBIT_WORK_BUDGET / (deg f + 1) steps raises
    SearchSpaceTooLarge.  Over Q the search gives up after _ORBIT_Q_STEPS
    iterations; for deg f >= 2 it rejects the seed as soon as an iterate
    passes the _escapes test.
    """
    spec = f.spec
    if alpha.spec != spec:
        raise InvalidSpec("seed must lie in the coefficient field")
    if spec.order is None:
        limit = _ORBIT_Q_STEPS
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
            return LambdaOrbit._unchecked(f, tuple(FieldElement(spec, v) for v in seen))
        if current in seen:
            raise InvalidSpec(f"{alpha} is not a periodic point of f")
        seen[current] = None
    if spec.order is not None:
        # reached only when limit < |F|: a walk of |F| steps always repeats a point
        raise SearchSpaceTooLarge(f"the orbit of {alpha} under f takes more than {limit} steps")
    raise InvalidSpec(f"no cycle through {alpha} found within {limit} steps")


def _cycles(nxt: list[int], max_period: int) -> list[list[int]]:
    """Every cycle of the map i -> nxt[i] with period <= max_period, as positions.

    One walk visits each position once: a path runs until it rejoins itself,
    a fresh cycle, or meets an explored position.  Each cycle starts at its
    smallest position, and they are sorted by (period, positions); on a
    _PointTable that is sort_key order of the points.
    """
    state = [0] * len(nxt)  # 0 unseen, 1 on the current path, 2 explored
    out = []
    for start in range(len(nxt)):
        path, i = [], start
        while not state[i]:
            state[i] = 1
            path.append(i)
            i = nxt[i]
        if state[i] == 1:
            cycle = path[path.index(i):]
            if len(cycle) <= max_period:
                s = cycle.index(min(cycle))
                out.append(cycle[s:] + cycle[:s])
        for j in path:
            state[j] = 2
    out.sort(key=lambda c: (len(c), c))
    return out


class _PointTable:
    """f, and g when given, at every point of one finite field, on raw values.

    Point i is the i-th element of field.elements(), whose sort_key is i, so
    positions order points as sort_key does.  next[i] is the position of
    f(point i) and g[i] the raw value of g there.  A table is built for one
    call and never kept; one that would take more than _POINT_TABLE_BUDGET
    coefficient products raises SearchSpaceTooLarge before it starts.
    """

    def __init__(self, field: FieldSpec, f: Poly, g: Poly | None = None):
        work = field.order * (len(f.values) + (len(g.values) if g is not None else 0))
        if work > _POINT_TABLE_BUDGET:
            raise SearchSpaceTooLarge(f"tabulating over {field} takes {work} coefficient products, "
                                      f"more than the budget {_POINT_TABLE_BUDGET}")
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

    def nu_first_zero_at(self, q: FieldElement, n: int) -> list[int]:
        """Positions alpha whose nu-sequence first vanishes at n: nu(n) = 0, nu(i) != 0 for 0 < i < n.

        Runs nu(i+1) = q nu(i) + g(f^[i](alpha)) on the tables, stopping at
        the first zero.  The state (f^[i](alpha), nu(i)) takes at most |F|^2
        values, so once nu has missed 0 for |F|(|F| - 1) + 1 steps a nonzero
        state has recurred and nu never vanishes: past n = |F|^2 no alpha
        qualifies, and nothing is walked.  Otherwise a walk that may take
        more than _NU_WALK_BUDGET steps, |F| n, raises SearchSpaceTooLarge
        before it starts.
        """
        ring = self.field._ring
        add, mul, q = ring._add, ring._mul, q.value
        nxt, g = self.next, self.g
        out = []
        if n > len(nxt) ** 2:
            return out
        if len(nxt) * n > _NU_WALK_BUDGET:
            raise SearchSpaceTooLarge(f"the nu-walk over {self.field} takes up to {len(nxt) * n} steps, "
                                      f"more than the budget {_NU_WALK_BUDGET}")
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
    LambdaOrbits, and f is not evaluated again to check them.
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
        return [LambdaOrbit._unchecked(f, (a,)) for a in fixed]
    table = _PointTable(field, f)
    return [LambdaOrbit._unchecked(f, tuple(map(table.element, cycle))) for cycle in _cycles(table.next, max_period)]


# ---------------------------------------------------------------------------
# mu-sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MuSequence:
    """Solution of mu(i+1) = q mu(i) + g(lambda(i)) with mu(0) = anchor, for i >= 0.

    value(i) and values(count) run the recurrence forwards from the anchor
    on raw values.  period is the least m >= 1 with the joint sequence
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
        """mu(i) for i >= 0."""
        if i < 0:
            raise ValueError("mu is indexed by i >= 0")
        return FieldElement(self.field, self._raw_values(i + 1)[i])

    def values(self, count: int) -> tuple[FieldElement, ...]:
        """(mu(0), ..., mu(count-1)) by running the recurrence once."""
        spec = self.field
        return tuple(FieldElement(spec, v) for v in self._raw_values(count))

    def _raw_values(self, count: int) -> list:
        """values(count) as raw values; g is evaluated once per orbit point.

        Over Q a value str() could not render raises DigitLimitExceeded as
        soon as it is computed.  Past _SEQUENCE_BUDGET values
        SearchSpaceTooLarge is raised at once.
        """
        if count <= 0:
            return []
        _check_length(count)
        ring = self.field._ring
        add, mul, q = ring._add, ring._mul, self.q.value
        g_at = [self.g._at(v.value) for v in self.orbit.values[:count - 1]]
        l = len(g_at) or 1
        guard = _render_guard(self.field)
        out = [self.anchor.value]
        for i in range(count - 1):
            out.append(add(mul(q, out[-1]), g_at[i % l]))
            if guard:
                guard(out[-1])
        return out

    @cached_property
    def period(self) -> int:
        return mu_period(self.orbit, self.q, self.g, self.anchor)


def mu_periods(orbit: LambdaOrbit, q: FieldElement, g: Poly,
               orders: dict[int, int] | None = None) -> tuple[FieldElement | None, int]:
    """The mu-period rule of one orbit: (fixed anchor or None, period of every other anchor).

    Write Q = q^l and Xi for the drift over one lambda-period, mu(l) of
    the sequence anchored at 0.  mu(k l) follows the affine iteration
    beta -> Q beta + Xi, so the period depends on the anchor only through
    whether it is the fixed point of that iteration:

      Q = 1:  no anchor is singled out; Xi = 0 gives period 1, otherwise
              the period is the additive order of Xi (the characteristic,
              or 0 for infinite over Q).
      Q != 1: the fixed point Xi / (1 - Q) has period 1 and every other
              anchor has period ord(Q).

    Xi takes one step per orbit point, so unlike MuSequence it is not held
    to the sequence budget: an orbit longer than the budget has its rule.
    ord(Q) depends on l alone.  orders, when given, maps periods l to
    ord(q^l) for this q and is filled as they are computed: enumerate_simples
    shares one across its orbits, which over GF(1009) with f = h are 1009
    orbits of period 1.
    """
    if q.is_zero:
        raise QZero("mu-periodicity needs q != 0")
    spec = orbit.field
    big_q = q ** orbit.period
    xi = spec.zero
    for v in orbit.values:
        xi = q * xi + g(v)
    if big_q.is_one:
        return None, 1 if xi.is_zero else spec.char
    orders = {} if orders is None else orders
    if orbit.period not in orders:
        orders[orbit.period] = multiplicative_order(big_q)
    return xi / (spec.one - big_q), orders[orbit.period]


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
    f^[i](alpha) for i < count, the h-eigenvalues of that family; when g is
    constant no value reads them, and they are built when first read.
    """

    alpha: FieldElement
    values: tuple[FieldElement, ...]
    f: Poly

    def value(self, i: int) -> FieldElement:
        return self.values[i]

    @cached_property
    def points(self) -> tuple[FieldElement, ...]:
        count = len(self.values) - 1
        points = [self.alpha.value]
        for _ in range(count - 1):
            points.append(self.f._at(points[-1]))
        return tuple(map(partial(FieldElement, self.alpha.spec), points[:count]))


def nu_table(alg: AlgebraSpec, alpha: FieldElement, count: int) -> NuTable:
    """nu(0..count); f^[i](alpha) for i < count is evaluated only when g reads it.

    Over Q a value str() could not render raises DigitLimitExceeded as soon
    as it is computed; the points are not checked.  Past count =
    _SEQUENCE_BUDGET SearchSpaceTooLarge is raised at once.
    """
    if alpha.spec != alg.field:
        raise InvalidSpec("alpha must lie in the coefficient field")
    _check_length(count)
    ring = alg.field._ring
    add, mul, q = ring._add, ring._mul, alg.q.value
    guard = _render_guard(alg.field)
    values, points = [ring.zero], [alpha.value]
    walk = not alg.g.is_constant  # a constant g reads no point
    for i in range(count):
        if i and walk:
            points.append(alg.f._at(points[-1]))
        values.append(add(mul(q, values[-1]), alg.g._at(points[-1])))
        if guard:
            guard(values[-1])
    wrap = partial(FieldElement, alg.field)
    table = NuTable(alpha, tuple(map(wrap, values)), alg.f)
    if walk:  # the points are built: seed the cached property
        vars(table)["points"] = tuple(map(wrap, points[:count]))
    return table
