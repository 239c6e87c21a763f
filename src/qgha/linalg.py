"""Exact dense linear algebra over the package's fields.

A Matrix holds its entries as raw values of the field's ring (see fields),
and its arithmetic runs on them; entries become field elements only when
read.  Elimination has a private raw core: _rref, _nullspace and _solve
take rows of raw values and return raw rows or vectors, and the public
rref and nullspace only unwrap their element rows and wrap what they
return.  Over GF(p^k), k = 1 for GF(p), with k (p-1)^2 + p < 2^63, one
numpy kernel reduces rows whose entries are k int64 residues each, one per
power of u; multiplying by a field element is a k x k matrix over GF(p)
that the field's ring builds.  Fields past that int64 guard run the same
kernel on exact Python ints.  Over Q elimination is fraction-free on
primitive integer rows, and Fractions appear only when the reduced rows
are divided by their pivots.  A subspace grown one vector at a time stays
in echelon form through one incremental routine, which serves both
invariant-subspace closures and invertibility.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import FieldMismatch
from .fields import FieldElement, FieldSpec, _power
from .poly import Poly

Vector = tuple[FieldElement, ...]


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


def _fits_int64(p: int, k: int) -> bool:
    """Whether _rref_slots can reduce GF(p^k) on int64: an update subtracts k products of residues below p."""
    return k * (p - 1) ** 2 + p < 2 ** 63


def _rref_slots(rows: list[list], ring) -> tuple[list[list], list[int]]:
    """Gauss-Jordan over GF(p^k), k = 1 for GF(p), on arrays of residues.

    The residues are int64 where _fits_int64 holds and exact Python ints
    (dtype object) past it; the loop is the same for both.
    a[i, t, c] is the residue at u^t of entry (i, c).  The ring's scale
    matrix of the pivot's inverse, times the pivot row's slots, stacks u^j
    times the scaled pivot row for j < k; one matmul of every nonzero lead's
    slots with that block clears the column, and the pivot row, cleared too,
    is then replaced by its scaled form.  Left of column c the pivot row is
    zero, so only slots from column c on change.  Rows are never swapped:
    the pivot is the first unused row with a nonzero lead.
    """
    p, k = ring.p, ring.k
    dtype = np.int64 if _fits_int64(p, k) else object
    flat = np.array([ring._to_slots(r) for r in rows], dtype=dtype)
    nrows, ncols = flat.shape[0], flat.shape[1] // k
    a = flat.reshape(nrows, ncols, k).transpose(0, 2, 1)
    used: dict[int, int] = {}  # pivot row -> its column, in pivot order
    for c in range(ncols):
        lead = a[:, :, c]
        nonzero = np.nonzero(lead)[0]  # a row repeats once per nonzero slot; repeats write equal rows
        r = next((i for i in nonzero.tolist() if i not in used), None)
        if r is None:
            continue
        scale = np.array(ring._scale_matrix(ring._inv(ring._from_slots(lead[r].tolist())[0])), dtype=dtype)
        rest = a[:, :, c:]
        block = scale @ rest[r] % p
        rest[nonzero] = (rest[nonzero] - (lead[nonzero] @ block.reshape(k, -1)).reshape(-1, k, ncols - c)) % p
        rest[r] = block[:k]
        used[r] = c
        if len(used) == nrows:
            break
    out = flat.tolist()  # pivot rows in pivot order, then the rest, which are zero
    order = [*used, *(i for i in range(nrows) if i not in used)]
    return [ring._from_slots(out[i]) for i in order], list(used.values())


def _rref_rational(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Fraction-free Gauss-Jordan over Q on primitive integer rows.

    Each row is scaled to integers with content 1.  The pivot of column c
    is the candidate entry of least absolute value, made positive.
    Clearing column c of row i against the pivot row r replaces row i by
    a row_i - b row_r (a, b the pivot and row_i[c] over their gcd, so a is
    1 whenever the pivot divides row_i[c]) divided by its content, so no
    Fraction is built inside the loop.  Only the reduced rows are divided
    by their pivots at the end; the reduced echelon form is unique, so the
    result equals element-wise Gauss-Jordan's.
    """
    ints = []
    for row in rows:
        den = math.lcm(*[v.denominator for v in row])
        row = [v.numerator * (den // v.denominator) for v in row]
        content = math.gcd(*row)
        ints.append([v // content for v in row] if content > 1 else row)
    nrows, ncols = len(ints), len(ints[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        nonzero = [i for i in range(r, nrows) if ints[i][c]]
        if not nonzero:
            continue
        pivot = min(nonzero, key=lambda i: abs(ints[i][c]))
        ints[r], ints[pivot] = ints[pivot], ints[r]
        if ints[r][c] < 0:
            ints[r] = [-v for v in ints[r]]
        prow, lead = ints[r], ints[r][c]
        for i in range(nrows):
            row, b = ints[i], ints[i][c]
            if i == r or not b:
                continue
            g = math.gcd(lead, b)
            a, b = lead // g, b // g
            if a == 1:
                row = [x - b * y if y else x for x, y in zip(row, prow)]
            else:
                row = [a * x - b * y if y else a * x for x, y in zip(row, prow)]
            content = math.gcd(*row)
            ints[i] = [v // content for v in row] if content > 1 else row
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    zero = Fraction(0)
    out = [[Fraction(v, row[c]) if v else zero for v in row] for row, c in zip(ints, pivots)]
    return out + [[zero] * ncols for _ in range(nrows - r)], pivots


def _rref(rows: list[list], spec: FieldSpec) -> tuple[list[list], list[int]]:
    """rref on raw rows, which it may overwrite."""
    if not rows or not rows[0]:
        return rows, []
    if spec.is_rationals:
        return _rref_rational(rows)
    return _rref_slots(rows, spec._ring)


def rref(rows: Sequence[Sequence[FieldElement]], spec: FieldSpec) -> tuple[list[list], list[int]]:
    """Reduced row echelon form, as rows of raw ring values, and the pivot columns."""
    return _rref([[e.value for e in r] for r in rows], spec)


def _nullspace(rows: list[list], spec: FieldSpec, ncols: int) -> list[list]:
    """nullspace on raw rows, which it may overwrite; returns raw vectors."""
    red, pivots = _rref(rows, spec)
    ring = spec._ring
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        vec = [ring.zero] * ncols
        vec[fc] = ring.one
        for row, c in zip(red, pivots):
            vec[c] = ring._neg(row[fc])
        basis.append(vec)
    return basis


def nullspace(rows: Sequence[Sequence[FieldElement]], spec: FieldSpec, ncols: int | None = None) -> list[Vector]:
    """Canonical basis of the right kernel of the given row list.

    Basis vectors carry a 1 in their free coordinate and are emitted in
    increasing free-column order, so results are deterministic.
    """
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    raw = [[e.value for e in r] for r in rows]
    return [tuple(FieldElement(spec, v) for v in vec) for vec in _nullspace(raw, spec, ncols)]


def _solve(rows: list[list], spec: FieldSpec) -> list | None:
    """A raw v with A v = b from the raw augmented rows [A | b], free coordinates 0, or None."""
    if not rows:
        return []
    ncols = len(rows[0]) - 1
    red, pivots = _rref(rows, spec)
    if ncols in pivots:
        return None
    sol = [spec._ring.zero] * ncols
    for row, c in zip(red, pivots):
        sol[c] = row[ncols]
    return sol


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

    The basis is nullspace's, over the entries of T read row by row.
    """
    spec = pairs[0][0].spec
    ring = spec._ring
    n = pairs[0][0].nrows
    if any(m.spec != spec for pair in pairs for m in pair):
        raise FieldMismatch("matrices over different fields")
    rows = []
    for a, b in pairs:
        for i in range(n):
            for j in range(n):
                # entry (i, j) of T a - b T as a row over the unknowns T[k][l]
                row = [ring.zero] * (n * n)
                row[i * n:(i + 1) * n] = [a.rows[k][j] for k in range(n)]
                for k in range(n):
                    row[k * n + j] = ring._sub(row[k * n + j], b.rows[i][k])
                rows.append(row)
    return [Matrix._raw(spec, (vec[i * n:(i + 1) * n] for i in range(n)))
            for vec in _nullspace(rows, spec, n * n)]


def is_invertible(m: Matrix) -> bool:
    basis: dict[int, list] = {}
    ring = m.spec._ring
    return m.nrows == m.ncols and all(_echelon_insert(basis, list(r), ring) is not None for r in m.rows)
