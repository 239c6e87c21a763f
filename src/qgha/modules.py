"""Finite-dimensional simple modules: construction, tests, classification.

Three families of n-dimensional modules cover every simple module when
q != 0 and the field is big enough to hold the eigenvalue data:

  A: both x and y act bijectively.  Data: a lambda-orbit of period l, a
     periodic mu-sequence of period m with n = l m, and a unit gamma;
     x cycles the basis with a single gamma twist, so x^n = gamma.
  B: y bijective, x nilpotent.  Same data with mu vanishing somewhere;
     y^n = gamma^{-1} and x^n = 0.
  C: both nilpotent.  Data: a point alpha with nu_alpha(n) = 0; simple
     exactly when no earlier nu_alpha(i) vanishes.

Modules from different families are never isomorphic except across A/B,
where an explicit gamma relation decides; within a family the data is
unique up to a simultaneous shift of (lambda, mu).

Enumeration over a finite field makes one pass over it: f and g are
tabulated at every point on raw values (spectra._PointTable), and the
lambda-orbits, mu-windows and family-C nu-tests are read from the tables.
build_matrix_rep builds its rows from raw recurrences as well.

The brute-force oracles check the structural answers on the matrices.
is_simple_bruteforce makes one pass over the lines of F^dim and closes
only the lines whose images reach no line already shown to generate;
iso_bruteforce is exact over every field, Q included, by one scan that the
polynomial identity lemma keeps finite.
"""

from __future__ import annotations

import itertools
from array import array
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
from .linalg import Matrix, _echelon_insert, intertwiners, is_invertible, poly_on_matrix, rank
from .spectra import (
    LambdaOrbit,
    MuSequence,
    NuTable,
    _PointTable,
    mu_periods,
    nu_table,
)

# enumerate_simples refuses to list more modules than this; a ModuleSpec takes
# about 150 bytes before the CLI builds and prints its matrices
_ENUMERATE_BUDGET = 1 << 20


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


def build_matrix_rep(alg: AlgebraSpec, spec: ModuleSpec) -> MatrixRep:
    """Matrices of the module described by spec; basis vector j is column j.

    x has a band below the diagonal and y one above it, each closed by a
    corner entry in families A and B; h is diagonal.  After spec.validate,
    everything runs on raw values: the mu-values come from their recurrence,
    family C takes its nu-values and h-eigenvalues from the nu table that
    validate returns, and the rows are built from raw values, so no entry is
    coerced on its own.
    """
    nu = spec.validate(alg)
    field = alg.field
    ring = field._ring
    n = spec.dim
    ones = [ring.one] * (n - 1)
    if spec.family == "C":
        lam = [v.value for v in nu.points]
        x_band, x_corner = ones, None
        y_band, y_corner = [v.value for v in nu.values[1:n]], None
    else:
        mu = spec.mu._raw_values(n + 1)
        lam = [v.value for v in spec.orbit.values] * spec.mu.period  # n = l m
        gamma = spec.gamma.value
        if spec.family == "A":
            x_band, x_corner = ones, gamma
            y_band, y_corner = mu[1:n], ring._mul(mu[0], ring._inv(gamma))
        else:
            x_band, x_corner = mu[1:n], ring._mul(gamma, mu[n])
            y_band, y_corner = ones, ring._inv(gamma)
    zeros = (ring.zero,) * n

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
    i = _first_nu_zero(nu)
    if i == spec.n:
        return SimplicityReport(True, "nu(i) != 0 for 0 < i < n")
    return SimplicityReport(False, f"nu({i}) = 0: basis vectors {i}..{spec.n - 1} span a proper submodule")


def _first_nu_zero(nu: NuTable) -> int | None:
    """The first i >= 1 with nu(i) = 0 in the table nu(0..n), or None; C(alpha, n) is simple iff it is n."""
    return next((i for i in range(1, len(nu.values)) if nu.value(i).is_zero), None)


def is_simple_bruteforce(rep: MatrixRep, bound: int = 10 ** 6) -> bool:
    """Check simplicity on every line of F^dim, closing only the lines that reach no generating line.

    Let W(v) be the smallest invariant subspace that contains v; the module
    is simple exactly when W(v) = F^dim for every line v.  For m in {x, y, h},
    W(m v) is contained in W(v), so when the line of m v generates, so does
    the line of v.  The scan records an edge from each line to the line of
    each image m v that is nonzero and off it, then walks the lines in
    _projective_points order.  It closes every line not yet known to
    generate, line 0 before any edge is built: a proper closure returns
    False, and a full one marks every line with a path of edges to it.  So
    each line of a True is certified by its own full closure or by a path
    to one, and a False by one line whose closure is proper.  Past
    dimension 1, only finite fields with |F|^dim within the bound are
    accepted, and that is checked before any line is built.
    """
    field, n = rep.field, rep.dim
    if n == 1:
        return True
    if field.order is None:
        raise UnsupportedField("brute-force simplicity needs a finite field")
    if field.order ** n > bound:
        raise SearchSpaceTooLarge(f"|F|^dim = {field.order ** n} exceeds bound {bound}")
    ring = field._ring
    zero, one, add, mul, inv = ring.zero, ring.one, ring._add, ring._mul, ring._inv
    elems = list(field._raw_elements())
    digit = {a: i for i, a in enumerate(elems)}
    q = len(elems)
    place = [q ** (n - 1 - i) for i in range(n)]
    # the lines whose first nonzero coordinate is i are numbered from start[i]
    start = [(q ** n - q ** (n - i)) // (q - 1) for i in range(n + 1)]
    count = start[n]
    # x, y and h as sparse rows: the (column, entry) of each nonzero entry
    mats = [[[(j, a) for j, a in enumerate(row) if a] for row in m.rows] for m in (rep.x, rep.y, rep.h)]

    def act(rows, v):
        out = []
        for row in rows:
            acc = zero
            for j, a in row:
                if v[j]:
                    acc = add(acc, mul(a, v[j])) if acc else mul(a, v[j])
            out.append(acc)
        return out

    def line(w) -> int:
        """The number of the line through w, or -1 when w = 0."""
        for i, a in enumerate(w):
            if a:
                break
        else:
            return -1
        if a != one:
            s = inv(a)
            w = [mul(b, s) for b in w]
        k = start[i]
        for j in range(i + 1, n):
            if w[j]:
                k += digit[w[j]] * place[j]
        return k

    def generates(v) -> bool:
        basis: dict[int, list] = {}
        queue = [_echelon_insert(basis, list(v), ring)]
        while queue and len(basis) < n:
            u = queue.pop()
            for rows in mats:
                w = _echelon_insert(basis, act(rows, u), ring)
                if w is not None:
                    queue.append(w)
        return len(basis) == n

    # line 0, e_0, is closed first in any case; closed before the edges are
    # built, it answers at once when a proper submodule holds e_0
    if not generates((one,) + (zero,) * (n - 1)):
        return False
    # edge e = 3 k + t runs from line k to the line of mats[t] applied to it;
    # into[h] is the last edge into line h and before[e] the one into it before e
    into = array("i", [-1]) * count
    before = array("i", [-1]) * (3 * count)
    for k, v in enumerate(_projective_points(zero, one, elems, n)):
        for e, rows in enumerate(mats, 3 * k):
            h = line(act(rows, v))
            if h >= 0 and h != k:
                before[e], into[h] = into[h], e
    known = bytearray(count)
    for k, v in enumerate(_projective_points(zero, one, elems, n)):
        if known[k]:
            continue
        if k and not generates(v):
            return False
        known[k] = 1
        stack = [k]
        while stack:
            e = into[stack.pop()]
            while e >= 0:
                s = e // 3
                if not known[s]:
                    known[s] = 1
                    stack.append(s)
                e = before[e]
    return True


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
    """Is (lambda2, mu2) a cyclic shift of (lambda1, mu1) over a full period?"""
    n = s1.dim
    lam1 = [s1.orbit.value(t) for t in range(n)]
    mu1 = list(s1.mu.values(n))
    lam2 = [s2.orbit.value(t) for t in range(n)]
    mu2 = list(s2.mu.values(n))
    for s in range(n):
        if all(lam2[t] == lam1[(t + s) % n] and mu2[t] == mu1[(t + s) % n] for t in range(n)):
            return True
    return False


def iso_structural(alg: AlgebraSpec, s1: ModuleSpec, s2: ModuleSpec) -> bool:
    """Isomorphism test straight from the classification data.

    Within families A or B: same gamma and jointly shifted (lambda, mu).
    Family C: equal alpha (and dimension).  Across A and B: gamma_A must
    equal gamma_B times the product of mu over a full period, with the
    same joint shift; C never meets A or B.
    """
    s1.validate(alg)
    s2.validate(alg)
    if s1.dim != s2.dim:
        return False
    pair = (s1.family, s2.family)
    if pair in (("A", "A"), ("B", "B")):
        return s1.gamma == s2.gamma and _joint_shift_exists(s1, s2)
    if pair == ("C", "C"):
        return s1.alpha == s2.alpha
    if pair == ("B", "A"):
        return iso_structural(alg, s2, s1)
    if pair == ("A", "B"):
        prod = alg.field.one
        for v in s1.mu.values(s1.dim):
            prod = prod * v
        if prod.is_zero:
            return False
        return s1.gamma == s2.gamma * prod and _joint_shift_exists(s1, s2)
    return False


def iso_bruteforce(r1: MatrixRep, r2: MatrixRep, scan_bound: int = 10 ** 4) -> bool:
    """Search for an invertible intertwiner T with T a1 = a2 T for a = x, y, h.

    For a basis T_1..T_d of the intertwiners, det(sum c_i T_i) is a form of
    degree n = dim in c.  If nonzero it stays so at c_1 = 1 (see
    _projective_points).  Over Q, and over GF(q) with q > n, S is the first
    n + 1 elements in sort_key order (0..n over Q); by the polynomial
    identity lemma (Schwartz 1980; Zippel 1979) a nonzero polynomial of
    degree at most n in c_2..c_d is nonzero at a point of S^(d-1), so the
    (n + 1)^(d-1) points {1} x S^(d-1), one per line, are tried.  Over GF(q)
    with q <= n a nonzero form can vanish on all of {1} x F^(d-1), so one T
    per line of F^d is tried; c T is invertible iff T is.  With more lines
    than scan_bound, one greedy T is tried first, and SearchSpaceTooLarge is
    raised once scan_bound lines hold no invertible T: every True or False is exact.
    """
    if r1.field != r2.field:
        raise FieldMismatch("modules over different fields")
    if r1.dim != r2.dim:
        return False
    field, n = r1.field, r1.dim
    mats = intertwiners(((r1.x, r2.x), (r1.y, r2.y), (r1.h, r2.h)))
    if not mats:
        return False
    m = n + 1 if field.order is None else min(field.order, n + 1)
    elems = list(itertools.islice(field.elements(), m)) if field.order else list(map(field.element, range(m)))
    zero, d = Matrix.zero(field, n, n), len(mats)
    # the points {1} x S^(d-1) come first in _projective_points
    lines = m ** (d - 1) if m > n else (m ** d - 1) // (m - 1)
    if lines > scan_bound:
        acc = zero  # each coefficient in turn maximises the rank; c = 0 keeps it, so it never falls
        for t in mats:
            acc = max((acc + t * c for c in elems), key=rank)
        if is_invertible(acc):
            return True
    for cs in itertools.islice(_projective_points(field.zero, field.one, elems, d), min(lines, scan_bound)):
        if is_invertible(sum((t * c for t, c in zip(mats, cs) if not c.is_zero), zero)):
            return True
    if lines <= scan_bound:
        return False
    which = " with c_1 = 1" if m > n else ""
    raise SearchSpaceTooLarge(f"no invertible intertwiner on the first {scan_bound} of {lines} lines{which}")


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
    modules; the class is listed once, anchored at its smallest member,
    and then once per unit gamma.  The period rule is computed once per
    orbit (mu_periods), so only anchors of period m are visited.  Family C
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
    for cycle in table.cycles(n):
        orbit = LambdaOrbit(alg.f, tuple(map(table.element, cycle)))
        l = orbit.period
        if n % l:
            continue
        m = n // l
        # a fixed anchor exists only when q^l != 1; it alone has period 1,
        # and every other anchor has period ord(q^l) >= 2
        fixed, period = mu_periods(orbit, alg.q, alg.g)
        if m != period and not (m == 1 and fixed is not None):
            continue
        # mu(t) = q^t beta + c_t, where the drift c_t is the sequence anchored at 0
        c = MuSequence(orbit, alg.q, alg.g, field.zero)._raw_values(n + 1)
        qt = [ring.one]
        for _ in range(n):
            qt.append(mul(q, qt[-1]))
        # mu(t) vanishes for t < n exactly at the anchor -c_t / q^t
        vanishing = {mul(ring._neg(c[t]), ring._inv(qt[t])) for t in range(n)}
        if m != period:
            anchors = [index[fixed.value]]
        else:
            # the class of beta is beta -> mu(l) = q^l beta + c_l iterated m
            # times; scanning in sort_key order meets each class first at its
            # smallest member
            ql, cl = qt[l], c[l]
            skip = [False] * len(points)
            if fixed is not None:
                skip[index[fixed.value]] = True
            anchors = []
            for b in range(len(points)):
                if skip[b]:
                    continue
                anchors.append(b)
                v = points[b]
                for _ in range(m - 1):
                    v = add(mul(ql, v), cl)
                    skip[index[v]] = True
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
