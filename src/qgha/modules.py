"""Finite-dimensional simple modules: construction, tests, classification.

Three families of n-dimensional modules cover every simple module when
q != 0 and the field is big enough to hold the eigenvalue data:

  A: x acts bijectively.  Data: a lambda-orbit of period l, a periodic
     mu-sequence of period m with n = l m, and a unit gamma; x cycles the
     basis with a single gamma twist, so x^n = gamma.  y carries the
     mu-values and is singular when mu vanishes somewhere.
  B: y bijective, x nilpotent.  Same data with mu vanishing somewhere;
     y^n = gamma^{-1} and x^n = 0.
  C: both nilpotent.  Data: a point alpha with nu_alpha(n) = 0; simple
     exactly when no earlier nu_alpha(i) vanishes.

Modules of different families are never isomorphic, since x is invertible
in A only and y is invertible in B but nilpotent in C; within a family the
data is unique up to a simultaneous shift of (lambda, mu).

Enumeration over a finite field makes one pass over it: f and g are
tabulated at every point on raw values (spectra._PointTable), and the
lambda-orbits and the classes of mu-anchors are cycles of one walk
(spectra._cycles); the mu-windows and family-C nu-tests are read from the
tables.  _bands reads a module's matrix entries from raw recurrences as
well; build_matrix_rep and the CLI's JSON writer both build from them.

The brute-force oracles check the structural answers on the matrices.
is_simple_bruteforce is Norton's irreducibility test: one dual spin and
the lines of one kernel, the smallest among x, y and h - c, decide it
exactly; iso_bruteforce is exact over every field, Q included, by one scan
that the polynomial identity lemma keeps finite.  Module budgets alone bound
their work: no caller sets a bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import AlgebraSpec
from .errors import (
    FieldMismatch,
    InvalidSpec,
    QZeroUnsupported,
    SearchSpaceTooLarge,
    UnsupportedField,
)
from .fields import FieldElement, FieldSpec, frobenius_degree
from .linalg import Matrix, _dot, _echelon_insert, _nullspace, intertwiners, is_invertible, poly_on_matrix, rank
from .spectra import (
    LambdaOrbit,
    MuSequence,
    NuTable,
    _cycles,
    _PointTable,
    mu_periods,
    nu_table,
)

# enumerate_simples refuses to list more modules than this; a ModuleSpec takes
# about 150 bytes before the CLI prints its matrices
_ENUMERATE_BUDGET = 1 << 20
# _bands refuses a module whose three n x n matrices hold more cells than
# this, is_simple_bruteforce one whose candidate kernels would, and
# iso_bruteforce a pair whose intertwiner system would; each cell is an 8-byte
# slot, so 128 MB at the budget
_MATRIX_CELL_BUDGET = 1 << 24
# the scan budgets: |F|^dim N for is_simple_bruteforce, lines of intertwiners for iso_bruteforce
_KERNEL_VECTOR_BUDGET = 10 ** 6
_INTERTWINER_LINE_BUDGET = 10 ** 4


@dataclass(frozen=True)
class ModuleSpec:
    """Classification data for one module.

    Families A and B are described by (mu, gamma) with the orbit inside
    mu; family C by (alpha, n).  Unused fields stay None.
    """

    family: str
    mu: MuSequence | None = None
    gamma: FieldElement | None = None
    alpha: FieldElement | None = None
    n: int | None = None

    @staticmethod
    def family_a(mu: MuSequence, gamma: FieldElement) -> "ModuleSpec":
        return ModuleSpec("A", mu=mu, gamma=gamma)

    @staticmethod
    def family_b(mu: MuSequence, gamma: FieldElement) -> "ModuleSpec":
        return ModuleSpec("B", mu=mu, gamma=gamma)

    @staticmethod
    def family_c(alpha: FieldElement, n: int) -> "ModuleSpec":
        return ModuleSpec("C", alpha=alpha, n=n)

    @property
    def orbit(self) -> LambdaOrbit | None:
        return self.mu.orbit if self.mu is not None else None

    @property
    def dim(self) -> int:
        if self.family == "C":
            return self.n
        return self.mu.orbit.period * self.mu.period

    def validate(self, alg: AlgebraSpec) -> NuTable | None:
        """Check the data is coherent and matches the algebra, or raise InvalidSpec.

        A family-C spec returns the nu table nu(0..n) the check builds.
        """
        if self.family in ("A", "B"):
            if self.mu is None or self.gamma is None or self.alpha is not None or self.n is not None:
                raise InvalidSpec(f"family {self.family} takes exactly (mu, gamma)")
            if self.mu.field != alg.field or self.mu.q != alg.q or self.mu.g != alg.g:
                raise InvalidSpec("mu-sequence belongs to a different algebra")
            if self.mu.orbit.f != alg.f:
                raise InvalidSpec("orbit belongs to a different f")
            if self.gamma.spec != alg.field:
                raise InvalidSpec("gamma must lie in the coefficient field")
            if self.gamma.is_zero:
                raise InvalidSpec("gamma must be a unit")
            if self.mu.period == 0:
                raise InvalidSpec("mu-sequence is not periodic")
            if self.family == "B" and all(self.mu._raw_values(self.dim)):
                raise InvalidSpec("family B needs mu to vanish somewhere")
            return None
        if self.family == "C":
            if self.alpha is None or self.n is None or self.mu is not None or self.gamma is not None:
                raise InvalidSpec("family C takes exactly (alpha, n)")
            if self.alpha.spec != alg.field:
                raise InvalidSpec("alpha must lie in the coefficient field")
            if self.n < 1:
                raise InvalidSpec("dimension must be at least 1")
            nu = nu_table(alg, self.alpha, self.n)
            if not nu.value(self.n).is_zero:
                raise InvalidSpec("family C needs nu_alpha(n) = 0")
            return nu
        raise InvalidSpec(f"unknown family {self.family!r}")

    def describe(self) -> str:
        if self.family == "C":
            return f"C(alpha={self.alpha}, n={self.n})"
        lam = ", ".join(str(v) for v in self.mu.orbit.values)
        return f"{self.family}(lambda=({lam}), mu(0)={self.mu.anchor}, gamma={self.gamma})"


@dataclass(frozen=True)
class MatrixRep:
    """Concrete matrices for the action of x, y and h on column vectors."""

    field: FieldSpec
    dim: int
    x: Matrix
    y: Matrix
    h: Matrix


def _bands(alg: AlgebraSpec, spec: ModuleSpec) -> tuple:
    """The raw entries of the module's matrices: (lam, x_band, x_corner, y_band, y_corner).

    h is diag(lam); x carries x_band below the diagonal and x_corner in row
    0, column n - 1, and y carries y_band above the diagonal and y_corner in
    row n - 1, column 0; a corner is None in family C.  After spec.validate,
    everything runs on raw values: the mu-values come from their recurrence,
    and family C takes its nu-values and h-eigenvalues from the nu table
    that validate returns, so no entry is coerced on its own.  Past
    _MATRIX_CELL_BUDGET cells SearchSpaceTooLarge is raised before the spec
    is validated.
    """
    n = spec.dim
    if n is not None and 3 * n * n > _MATRIX_CELL_BUDGET:
        raise SearchSpaceTooLarge(
            f"the matrices of a {n}-dimensional module take {3 * n * n} cells, "
            f"past the budget of {_MATRIX_CELL_BUDGET}")
    nu = spec.validate(alg)
    ring = alg.field._ring
    ones = [ring.one] * (n - 1)
    if spec.family == "C":
        return [v.value for v in nu.points], ones, None, [v.value for v in nu.values[1:n]], None
    mu = spec.mu._raw_values(n + 1)
    lam = [v.value for v in spec.orbit.values] * spec.mu.period  # n = l m
    gamma = spec.gamma.value
    if spec.family == "A":
        return lam, ones, gamma, mu[1:n], ring._mul(mu[0], ring._inv(gamma))
    return lam, mu[1:n], ring._mul(gamma, mu[n]), ones, ring._inv(gamma)


def build_matrix_rep(alg: AlgebraSpec, spec: ModuleSpec) -> MatrixRep:
    """Matrices of the module described by spec; basis vector j is column j, entries from _bands."""
    lam, x_band, x_corner, y_band, y_corner = _bands(alg, spec)
    field, n = alg.field, spec.dim
    zeros = (field._ring.zero,) * n

    def row(j, v):
        """The row with v in column j, or the zero row when v is None."""
        return zeros if v is None else zeros[:j] + (v,) + zeros[j + 1:]

    x = [row(n - 1, x_corner)] + [row(j, v) for j, v in enumerate(x_band)]
    y = [row(j + 1, v) for j, v in enumerate(y_band)] + [row(0, y_corner)]
    h = [row(j, v) for j, v in enumerate(lam)]
    return MatrixRep(field, n, Matrix._raw(field, x), Matrix._raw(field, y), Matrix._raw(field, h))


@dataclass(frozen=True)
class ModuleRelationReport:
    """Residuals of the three defining relations evaluated on matrices."""

    hx_residual: Matrix       # H X - X f(H)
    yh_residual: Matrix       # Y H - f(H) Y
    yx_residual: Matrix       # Y X - q X Y - g(H)
    ok: bool


def verify_relations(alg: AlgebraSpec, rep: MatrixRep) -> ModuleRelationReport:
    if rep.field != alg.field:
        raise FieldMismatch("module lives over a different field")
    fh = poly_on_matrix(alg.f, rep.h)
    gh = poly_on_matrix(alg.g, rep.h)
    r1 = rep.h * rep.x - rep.x * fh
    r2 = rep.y * rep.h - fh * rep.y
    r3 = rep.y * rep.x - rep.x * rep.y * alg.q - gh
    return ModuleRelationReport(r1, r2, r3, r1.is_zero and r2.is_zero and r3.is_zero)


# ---------------------------------------------------------------------------
# Simplicity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimplicityReport:
    simple: bool
    certificate: str


def is_simple_structural(alg: AlgebraSpec, spec: ModuleSpec) -> SimplicityReport:
    """Decide simplicity from the classification data alone.

    Valid A and B modules are always simple.  A C module is simple exactly
    when nu_alpha(i) != 0 for 0 < i < n; a vanishing nu at i leaves the
    span of the basis tail from i onward invariant.
    """
    nu = spec.validate(alg)
    if spec.family in ("A", "B"):
        return SimplicityReport(True, f"family {spec.family} modules with periodic data are simple")
    i = next(i for i in range(1, spec.n + 1) if nu.value(i).is_zero)
    if i == spec.n:
        return SimplicityReport(True, "nu(i) != 0 for 0 < i < n")
    return SimplicityReport(False, f"nu({i}) = 0: basis vectors {i}..{spec.n - 1} span a proper submodule")


def is_simple_bruteforce(rep: MatrixRep) -> bool:
    """Norton's irreducibility test (Parker 1984; Holt-Rees 1994) on the matrices.

    theta is the first candidate, of x, y and h - c for each distinct c on
    h's diagonal, with the smallest nonzero kernel N, or theta = 0 (N = F^dim,
    one spin per line of F^dim) when none is singular; candidates are built
    one at a time, until a one-dimensional kernel.  One nonzero vector of
    ker theta^T is spun under x^T, y^T and h^T, and a proper span answers
    False; then the module is simple iff every line of N spans F^dim under
    x, y and h.  This is exact: x, y and theta map a proper submodule U != 0
    into itself, so either U meets N and a line of N closes inside U, or
    theta is bijective on U; then U lies in im theta, ker theta^T in U^perp,
    and the dual spin stays in the proper subspace U^perp.  SearchSpaceTooLarge
    is raised before the first candidate when all of them together pass
    _MATRIX_CELL_BUDGET cells, and before any line of N when |F|^k passes
    _KERNEL_VECTOR_BUDGET, k = dim N >= 2; such an N needs a finite field.
    """
    field, n = rep.field, rep.dim
    if n <= 1:
        return n == 1  # a simple module is nonzero
    ring = field._ring
    zero, one, add, mul = ring.zero, ring.one, ring._add, ring._mul
    h = rep.h.rows
    shifts = dict.fromkeys(row[i] for i, row in enumerate(h))
    cells = (2 + len(shifts)) * n * n
    if cells > _MATRIX_CELL_BUDGET:
        raise SearchSpaceTooLarge(f"the kernels of x, y and h - c for {len(shifts)} values c take {cells} cells, "
                                  f"past the budget of {_MATRIX_CELL_BUDGET}")
    basis, theta = [[one if i == j else zero for j in range(n)] for i in range(n)], None
    for rows in itertools.chain((rep.x.rows, rep.y.rows), (
            [tuple(ring._sub(a, c) if i == j else a for j, a in enumerate(row)) for i, row in enumerate(h)]
            for c in shifts)):
        kernel = _nullspace([ring._poly_from(col) for col in zip(*rows)], ring)
        if 0 < len(kernel) < len(basis):
            basis, theta = kernel, rows
            if len(basis) == 1:
                break
    dual = basis[0] if theta is None else _nullspace([ring._poly_from(row) for row in theta], ring)[0]

    def sparse(rows):
        """The (column, entry) of each nonzero entry, row by row."""
        return [[(j, a) for j, a in enumerate(row) if a] for row in rows]

    def act(rows, v):
        out = []
        for row in rows:
            acc = zero
            for j, a in row:
                if v[j]:
                    acc = add(acc, mul(a, v[j])) if acc else mul(a, v[j])
            out.append(acc)
        return out

    def generates(mats, v) -> bool:
        span: dict[int, list] = {}
        queue = [_echelon_insert(span, list(v), ring)]
        while queue and len(span) < n:
            u = queue.pop()
            for rows in mats:
                w = _echelon_insert(span, act(rows, u), ring)
                if w is not None:
                    queue.append(w)
        return len(span) == n

    mats = (rep.x.rows, rep.y.rows, h)
    if not generates([sparse(zip(*m)) for m in mats], dual):
        return False
    k, elems = len(basis), []
    if k > 1:
        if field.order is None:
            raise UnsupportedField("brute-force simplicity needs a finite field past a one-dimensional kernel")
        if field.order ** k > _KERNEL_VECTOR_BUDGET:
            raise SearchSpaceTooLarge(f"|F|^k = {field.order ** k} kernel vectors, "
                                      f"more than the budget {_KERNEL_VECTOR_BUDGET}")
        elems = list(field._raw_elements())
    spin, cols = [sparse(m) for m in mats], list(zip(*basis))
    return all(generates(spin, [_dot(cs, col, ring) for col in cols]) for cs in _projective_points(zero, one, elems, k))


def _projective_points(zero, one, elems: list, n: int):
    """One point per line of F^n through elems^n, scaled to a leading one; with elems = F, every line.

    The points {1} x elems^(n-1) come first.  Fixing c_1 = 1 keeps a form P
    of degree e nonzero: P(c) = c_1^e P(1, c_2/c_1, ..., c_n/c_1).  zero,
    one and elems are field elements or raw values alike.
    """
    for lead in range(n):
        prefix = (zero,) * lead + (one,)
        for tail in itertools.product(elems, repeat=n - lead - 1):
            yield prefix + tail


# ---------------------------------------------------------------------------
# Isomorphism
# ---------------------------------------------------------------------------


def _joint_shift_exists(s1: ModuleSpec, s2: ModuleSpec) -> bool:
    """Is (lambda2, mu2) a cyclic shift of (lambda1, mu1)?

    The pair (lambda(0), mu(0)) fixes the whole sequence by the recurrences,
    so s2's pair at 0 is looked up among s1's pairs over one joint period n.
    """
    n = s1.dim
    return (s2.orbit.value(0), s2.mu.anchor) in zip(map(s1.orbit.value, range(n)), s1.mu.values(n))


def iso_structural(alg: AlgebraSpec, s1: ModuleSpec, s2: ModuleSpec) -> bool:
    """Isomorphism test straight from the classification data.

    Modules of different families are never isomorphic: x acts invertibly
    in family A and nilpotently in B and C, and y is bijective in B but
    nilpotent in C.  Within family A or B: the same gamma and jointly
    shifted (lambda, mu).  Family C: equal alpha and dimension.
    """
    s1.validate(alg)
    s2.validate(alg)
    if s1.dim != s2.dim or s1.family != s2.family:
        return False
    if s1.family == "C":
        return s1.alpha == s2.alpha
    return s1.gamma == s2.gamma and _joint_shift_exists(s1, s2)


def iso_bruteforce(r1: MatrixRep, r2: MatrixRep) -> bool:
    """Search for an invertible intertwiner T with T a1 = a2 T for a = x, y, h.

    For a basis T_1..T_d of the intertwiners, det(sum c_i T_i) is a form of
    degree n = dim in c.  If nonzero it stays so at c_1 = 1 (see
    _projective_points).  Over Q, and over GF(q) with q > n, S is the first
    n + 1 elements in sort_key order (0..n over Q); by the polynomial
    identity lemma (Schwartz 1980; Zippel 1979) a nonzero polynomial of
    degree at most n in c_2..c_d is nonzero at a point of S^(d-1), so the
    (n + 1)^(d-1) points {1} x S^(d-1), one per line, are tried.  Over GF(q)
    with q <= n a nonzero form can vanish on all of {1} x F^(d-1), so one T
    per line of F^d is tried; c T is invertible iff T is.  Past
    _INTERTWINER_LINE_BUDGET lines one greedy T is tried first, and only a
    scan of that many lines with none invertible raises SearchSpaceTooLarge.
    The linear system for the intertwiners has n^2 unknowns and 3 n^2
    equations; past _MATRIX_CELL_BUDGET dense cells SearchSpaceTooLarge is
    raised before it is built.
    """
    if r1.field != r2.field:
        raise FieldMismatch("modules over different fields")
    if r1.dim != r2.dim:
        return False
    field, n = r1.field, r1.dim
    if n == 0:
        return True  # the empty matrix is an invertible intertwiner
    cells = 3 * n ** 4
    if cells > _MATRIX_CELL_BUDGET:
        raise SearchSpaceTooLarge(f"the intertwiner system of two {n}-dimensional modules takes {cells} cells, "
                                  f"past the budget of {_MATRIX_CELL_BUDGET}")
    mats = intertwiners(((r1.x, r2.x), (r1.y, r2.y), (r1.h, r2.h)))
    if not mats:
        return False
    m = n + 1 if field.order is None else min(field.order, n + 1)
    elems = list(itertools.islice(field.elements(), m)) if field.order else list(map(field.element, range(m)))
    zero, d = Matrix.zero(field, n, n), len(mats)
    # the points {1} x S^(d-1) come first in _projective_points
    lines = m ** (d - 1) if m > n else (m ** d - 1) // (m - 1)
    budget = _INTERTWINER_LINE_BUDGET
    if lines > budget:
        acc = zero  # each coefficient in turn maximises the rank; c = 0 keeps it, so it never falls
        for t in mats:
            acc = max((acc + t * c for c in elems), key=rank)
        if is_invertible(acc):
            return True
    for cs in itertools.islice(_projective_points(field.zero, field.one, elems, d), min(lines, budget)):
        if is_invertible(sum((t * c for t, c in zip(mats, cs) if not c.is_zero), zero)):
            return True
    if lines <= budget:
        return False
    which = " with c_1 = 1" if m > n else ""
    raise SearchSpaceTooLarge(f"no invertible intertwiner on the first {budget} of {lines} lines{which}")


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def enumerate_simples(alg: AlgebraSpec, n: int) -> list[ModuleSpec]:
    """The simple n-dimensional modules whose classification data lies in F, each once.

    The paper classifies over an algebraically closed field; this lists
    only the modules with lambda, mu, gamma (or alpha) in F itself, so it
    can miss simple modules that are defined over F: U(h_3) = H_1(h, h)
    over GF(3) in dimension 3 has 18, of which this lists 10.

    f and g are tabulated once at every point of F on raw values
    (spectra._PointTable), and everything below reads those tables.
    Families A and B run over the lambda-orbits of period l dividing n:
    with m = n/l, an anchor beta whose mu-sequence has period m gives the
    window mu(t) = q^t beta + c_t, where q^t and the drift c_t are computed
    once per orbit.  Its m re-anchorings beta -> mu(j l) give isomorphic
    modules: the class is the cycle of beta under beta -> q^l beta + c_l,
    read off the same walk as the orbits (spectra._cycles), listed once at
    its smallest member and then once per unit gamma.  The period rule of
    each orbit (mu_periods) is checked first, so an orbit with no anchor
    of period m costs no walk.  Family C
    contributes one module per alpha whose nu-sequence first vanishes at
    n.  The three families and distinct data never collide, so the list
    is irredundant without any matrix computation; it is in sort_key
    order within each orbit and family.  The modules are counted first,
    and more than _ENUMERATE_BUDGET of them raise SearchSpaceTooLarge
    before any ModuleSpec is built.
    """
    if n < 1:
        raise InvalidSpec("dimension must be at least 1")
    if alg.q.is_zero:
        raise QZeroUnsupported("classification of simple modules needs q != 0")
    field = alg.field
    if field.order is None:
        raise UnsupportedField("enumeration needs a finite coefficient field")

    table = _PointTable(field, alg.f, alg.g)
    ring = field._ring
    add, mul, q = ring._add, ring._mul, alg.q.value
    points, index = table.points, table.index
    units = [table.element(i) for i in range(1, len(points))]
    plan = []  # (orbit, anchors, the anchors that also give family B)
    count = 0
    orders: dict[int, int] = {}  # ord(q^l) by orbit period l, for mu_periods
    for cycle in _cycles(table.next, n):
        orbit = LambdaOrbit._unchecked(alg.f, tuple(map(table.element, cycle)))
        l = orbit.period
        if n % l:
            continue
        m = n // l
        # a fixed anchor exists only when q^l != 1; it alone has period 1,
        # and every other anchor has period ord(q^l) >= 2
        fixed, period = mu_periods(orbit, alg.q, alg.g, orders)
        if m != period and not (m == 1 and fixed is not None):
            continue
        # mu(t) = q^t beta + c_t, where the drift c_t is the sequence anchored at 0
        c = MuSequence(orbit, alg.q, alg.g, field.zero)._raw_values(n + 1)
        qt = [ring.one]
        for _ in range(n):
            qt.append(mul(q, qt[-1]))
        # mu(t) vanishes for t < n exactly at the anchor -c_t / q^t
        vanishing = {mul(ring._neg(c[t]), ring._inv(qt[t])) for t in range(n)}
        # the class of beta is its cycle under beta -> mu(l) = q^l beta + c_l,
        # listed at its smallest member
        step = [index[add(mul(qt[l], v), c[l])] for v in points]
        anchors = [cls[0] for cls in _cycles(step, m) if len(cls) == m]
        also_b = {b for b in anchors if points[b] in vanishing}
        count += (len(anchors) + len(also_b)) * len(units)
        _check_budget(count, n)
        plan.append((orbit, anchors, also_b))
    alphas = table.nu_first_zero_at(alg.q, n)
    _check_budget(count + len(alphas), n)

    specs_a: list[ModuleSpec] = []
    specs_b: list[ModuleSpec] = []
    for orbit, anchors, also_b in plan:
        for b in anchors:
            mu = MuSequence(orbit, alg.q, alg.g, table.element(b))
            specs_a += [ModuleSpec.family_a(mu, gamma) for gamma in units]
            if b in also_b:
                specs_b += [ModuleSpec.family_b(mu, gamma) for gamma in units]
    specs_c = [ModuleSpec.family_c(table.element(i), n) for i in alphas]
    return specs_a + specs_b + specs_c


def _check_budget(count: int, n: int):
    if count > _ENUMERATE_BUDGET:
        raise SearchSpaceTooLarge(
            f"more than {_ENUMERATE_BUDGET} simple modules of dimension {n}; enumeration refused"
        )


def extend_algebra(alg: AlgebraSpec, ext: FieldSpec) -> AlgebraSpec:
    """The same algebra with scalars extended from a prime field to ext."""
    return AlgebraSpec(
        ext,
        ext.embed(alg.q),
        alg.f.map_coefficients(ext.embed, ext),
        alg.g.map_coefficients(ext.embed, ext),
        alg.degree_cap,
    )


def enumerate_c_extensions(
    alg: AlgebraSpec, n: int, bound: int
) -> list[tuple[AlgebraSpec, ModuleSpec]]:
    """Simple family-C modules whose alpha lives in a proper extension.

    Searches GF(p^m) for 2 <= m <= bound and keeps the alphas of degree
    exactly m, so together with the base-field enumeration every C module
    over fields up to the bound appears exactly once.
    """
    if not alg.field.is_prime_field:
        raise UnsupportedField("extension search starts from a prime base field")
    if alg.q.is_zero:
        raise QZeroUnsupported("classification of simple modules needs q != 0")
    out = []
    for m in range(2, bound + 1):
        ext_alg = extend_algebra(alg, FieldSpec.extension(alg.field.char, m))
        table = _PointTable(ext_alg.field, ext_alg.f, ext_alg.g)
        alphas = map(table.element, table.nu_first_zero_at(ext_alg.q, n))
        out += [(ext_alg, ModuleSpec.family_c(alpha, n)) for alpha in alphas if frobenius_degree(alpha) == m]
    return out
