"""Exact dense linear algebra over the package's fields.

A Matrix holds its entries as raw values of the field's ring (see fields),
and its arithmetic runs on them; entries become field elements only when
read.  Every field is eliminated by one routine, _eliminate, on the ring's
polynomial operations.  It takes a system as its columns, each a ring
polynomial over the row index, and reduces each column against the earlier
pivots by its last nonzero row, one scalar linear combination per step,
while it records the column's combination of the input columns.  A column
that reaches zero is free, and its combination is a canonical kernel
vector; _nullspace and _solve read their results off those vectors, and
rref rebuilds the reduced rows from them.  The engine's systems are built
as columns: a center block's are triangular but for a few, an intertwiner
system's are sparse.  A subspace grown one vector at a time stays in
echelon form through one incremental routine, which serves both
invariant-subspace closures and invertibility.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import FieldMismatch
from .fields import FieldElement, FieldSpec, _power
from .poly import Poly


class Matrix:
    """rows holds raw ring values; indexing and str build elements on read."""

    __slots__ = ("spec", "rows")

    def __init__(self, spec: FieldSpec, rows: Iterable[Iterable[FieldElement]]):
        element = spec.element
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "rows", tuple(tuple(element(a).value for a in r) for r in rows))

    def __setattr__(self, *_):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def _raw(spec: FieldSpec, rows: Iterable[Iterable]) -> "Matrix":
        """A matrix over spec from rows of raw values, stored as given."""
        out = object.__new__(Matrix)
        object.__setattr__(out, "spec", spec)
        object.__setattr__(out, "rows", tuple(map(tuple, rows)))
        return out

    @staticmethod
    def zero(spec: FieldSpec, n: int, m: int | None = None) -> "Matrix":
        m = n if m is None else m
        return Matrix._raw(spec, ((spec._ring.zero,) * m for _ in range(n)))

    @staticmethod
    def identity(spec: FieldSpec, n: int) -> "Matrix":
        z, o = spec._ring.zero, spec._ring.one
        return Matrix._raw(spec, ((o if i == j else z for j in range(n)) for i in range(n)))

    @staticmethod
    def diagonal(spec: FieldSpec, entries: Sequence[FieldElement]) -> "Matrix":
        z = spec.zero
        n = len(entries)
        return Matrix(spec, ((entries[i] if i == j else z for j in range(n)) for i in range(n)))

    @staticmethod
    def from_entries(spec: FieldSpec, n: int, m: int, entries: dict[tuple[int, int], FieldElement]) -> "Matrix":
        z = spec.zero
        return Matrix(spec, ((entries.get((i, j), z) for j in range(m)) for i in range(n)))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, ij: tuple[int, int]) -> FieldElement:
        return FieldElement(self.spec, self.rows[ij[0]][ij[1]])

    def _check(self, other: "Matrix"):
        if self.spec != other.spec:
            raise FieldMismatch("matrices over different fields")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        add = self.spec._ring._add
        return Matrix._raw(self.spec, (map(add, r1, r2) for r1, r2 in zip(self.rows, other.rows)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        sub = self.spec._ring._sub
        return Matrix._raw(self.spec, (map(sub, r1, r2) for r1, r2 in zip(self.rows, other.rows)))

    def __neg__(self) -> "Matrix":
        neg = self.spec._ring._neg
        return Matrix._raw(self.spec, (map(neg, r) for r in self.rows))

    def __mul__(self, other):
        ring = self.spec._ring
        if isinstance(other, Matrix):
            self._check(other)
            cols = list(zip(*other.rows))
            return Matrix._raw(self.spec, ((_dot(row, col, ring) for col in cols) for row in self.rows))
        if isinstance(other, FieldElement) or isinstance(other, int):
            c = self.spec.element(other).value
            return Matrix._raw(self.spec, ((ring._mul(a, c) for a in r) for r in self.rows))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (FieldElement, int)):
            return self * other
        return NotImplemented

    def __pow__(self, n: int) -> "Matrix":
        if not isinstance(n, int) or n < 0:
            raise ValueError("matrix powers must be nonnegative integers")
        return _power(self, n, Matrix.identity(self.spec, self.nrows))

    @property
    def is_zero(self) -> bool:
        return not any(a for r in self.rows for a in r)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.spec == other.spec and self.rows == other.rows

    def __hash__(self):
        return hash((self.spec, self.rows))

    def __str__(self):
        spec = self.spec
        return "\n".join("[" + ", ".join(str(FieldElement(spec, a)) for a in r) + "]" for r in self.rows)


def _dot(row: Sequence, col: Sequence, ring):
    add, mul = ring._add, ring._mul
    acc = ring.zero
    for a, b in zip(row, col):
        if a and b:
            acc = add(acc, mul(a, b))
    return acc


def poly_on_matrix(p: Poly, m: Matrix) -> Matrix:
    """Evaluate p at a square matrix by Horner's rule."""
    acc = Matrix.zero(m.spec, m.nrows)
    for c in reversed(p.coeffs):
        acc = acc * m + Matrix.identity(m.spec, m.nrows) * c
    return acc


# ---------------------------------------------------------------------------
# Elimination
# ---------------------------------------------------------------------------


def _eliminate(cols: Sequence, ring) -> tuple[list[int], dict[int, object]]:
    """The pivot columns, and the kernel vector of every other column.

    Each column is a ring polynomial over the row index (see fields), so
    its leading row is its last nonzero one.  Column j starts with the
    combination e_j of the input columns.  While its leading row is that of
    an earlier pivot, the column and its combination take c times the pivot
    and its combination, c the column's leading entry over the pivot's, in
    one linear combination each.  A column that reaches 0 is free: its
    combination, a ring polynomial over the column index, is 1 at j, 0 at
    every other free column and past j, so it is the canonical kernel
    vector of reduced row echelon form.  Any other column becomes the pivot
    of its leading row.  A column is a pivot exactly when it is independent
    of the columns before it, so the pivots are the pivot columns of
    reduced row echelon form, in increasing order.
    """
    zero, one, mul, neg, lincomb = ring.zero, ring.one, ring._mul, ring._neg, ring._poly_lincomb
    leads: dict[int, tuple] = {}  # leading row -> (pivot column, its combination, 1 / its leading entry)
    pivots: list[int] = []
    kernel: dict[int, object] = {}
    for j, col in enumerate(cols):
        combo = ring._poly_from([zero] * j + [one])
        while col and len(col) - 1 in leads:
            pivot, pivot_combo, inv = leads[len(col) - 1]
            c = neg(mul(col[-1], inv))
            col, combo = lincomb((one, c), (col, pivot)), lincomb((one, c), (combo, pivot_combo))
        if col:
            leads[len(col) - 1] = col, combo, ring._inv(col[-1])
            pivots.append(j)
        else:
            kernel[j] = combo
    return pivots, kernel


def rref(rows: Sequence[Sequence[FieldElement]], spec: FieldSpec) -> tuple[list[list], list[int]]:
    """Reduced row echelon form, as rows of raw ring values, and the pivot columns.

    Row i of the rank many nonzero rows is 1 at the i-th pivot column p_i
    and -x_f[p_i] at every free column f, x_f the kernel vector of f.
    """
    ring = spec._ring
    ncols = len(rows[0]) if rows else 0
    pivots, kernel = _eliminate([ring._poly_from([row[j].value for row in rows]) for j in range(ncols)], ring)
    red = [[ring.zero] * ncols for _ in rows]
    for row, p in zip(red, pivots):
        row[p] = ring.one
        for f, x in kernel.items():
            if p < len(x):
                row[f] = ring._neg(x[p])
    return red, pivots


def _nullspace(cols: Sequence, ring) -> list[list]:
    """The canonical kernel basis of the matrix with these ring-polynomial columns, as raw vectors.

    One vector per free column, in increasing order: 1 there and 0 at the
    other free columns, so results are deterministic.
    """
    n = len(cols)
    return [list(x) + [ring.zero] * (n - len(x)) for x in _eliminate(cols, ring)[1].values()]


def _solve(cols: Sequence, b, ring) -> list | None:
    """A raw v with sum_j v_j cols[j] = b, free coordinates 0, or None; b and the columns are ring polynomials."""
    x = _eliminate([*cols, b], ring)[1].get(len(cols))
    return None if x is None else [ring._neg(v) for v in list(x)[:-1]]


def _echelon_insert(basis: dict[int, list], v: list, ring) -> list | None:
    """Reduce raw v against basis; insert and return it if independent, else None.

    basis maps each pivot column to a raw row that is 1 there and 0 before it.
    """
    mul, sub = ring._mul, ring._sub
    for c in range(len(v)):
        a = v[c]
        if not a:
            continue
        row = basis.get(c)
        if row is None:
            inv = ring._inv(a)
            basis[c] = v = [mul(b, inv) for b in v]
            return v
        v = [sub(x, mul(a, y)) if y else x for x, y in zip(v, row)]
    return None


def invariant_span_dim(mats: Sequence[Matrix], seed: Sequence[FieldElement]) -> int:
    """Dimension of the smallest subspace that contains seed and that mats map into itself."""
    spec = mats[0].spec
    if any(m.spec != spec for m in mats):
        raise FieldMismatch("matrices over different fields")
    ring = spec._ring
    basis: dict[int, list] = {}
    v = _echelon_insert(basis, [spec.element(a).value for a in seed], ring)
    queue = [] if v is None else [v]
    while queue and len(basis) < len(seed):
        v = queue.pop()
        for m in mats:
            w = _echelon_insert(basis, [_dot(row, v, ring) for row in m.rows], ring)
            if w is not None:
                queue.append(w)
    return len(basis)


def intertwiners(pairs: Sequence[tuple[Matrix, Matrix]]) -> list[Matrix]:
    """Basis of the matrices T with T a = b T for every pair (a, b) of n x n matrices.

    The basis is the canonical kernel basis (see _eliminate) over the entries of T read row by row.
    """
    spec = pairs[0][0].spec
    ring = spec._ring
    n = pairs[0][0].nrows
    if any(m.spec != spec for pair in pairs for m in pair):
        raise FieldMismatch("matrices over different fields")
    m = len(pairs)
    cols = []
    for k in range(n):
        for l in range(n):
            # the unknown T[k][l] meets a[l][j] in entry (k, j) of T a - b T and -b[i][k] in
            # entry (i, l); its column holds entry (i, j) of pair t at row (i n + j) m + t.
            # The kernel is the same in any row order; with the pairs interleaved, fewer
            # columns share a leading row than pair by pair (dim-13 U(h_3) module over
            # GF(13): 9.3 vs 13.1 ms, best of 9 runs on a 2-core Xeon).
            col = [ring.zero] * (n * n * m)
            for t, (a, b) in enumerate(pairs):
                col[k * n * m + t:(k + 1) * n * m:m] = a.rows[l]
                col[l * m + t::n * m] = map(ring._sub, col[l * m + t::n * m], [r[k] for r in b.rows])
            cols.append(ring._poly_from(col))
    return [Matrix._raw(spec, (vec[i * n:(i + 1) * n] for i in range(n))) for vec in _nullspace(cols, ring)]


def rank(m: Matrix) -> int:
    basis: dict[int, list] = {}
    ring = m.spec._ring
    return sum(_echelon_insert(basis, list(r), ring) is not None for r in m.rows)


def is_invertible(m: Matrix) -> bool:
    return m.nrows == m.ncols and rank(m) == m.nrows
