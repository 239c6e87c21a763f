"""Exact dense linear algebra over the package's fields.

Matrices are immutable tuples of tuples of field elements.  Dot products
work on raw values through the field's ring (see fields).  rref unwraps its
rows once, eliminates on raw values (through numpy on int64 residues over
GF(p) with (p-1)^2 + p < 2^63, the hot path for centers and iso searches),
and wraps the reduced rows once.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import FieldMismatch
from .fields import FieldElement, FieldSpec
from .poly import Poly

Vector = tuple[FieldElement, ...]


class Matrix:
    __slots__ = ("spec", "rows")

    def __init__(self, spec: FieldSpec, rows: Iterable[Iterable[FieldElement]]):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "rows", tuple(tuple(r) for r in rows))

    def __setattr__(self, *_):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def zero(spec: FieldSpec, n: int, m: int | None = None) -> "Matrix":
        m = n if m is None else m
        z = spec.zero
        return Matrix(spec, ((z,) * m for _ in range(n)))

    @staticmethod
    def identity(spec: FieldSpec, n: int) -> "Matrix":
        z, o = spec.zero, spec.one
        return Matrix(spec, ((o if i == j else z for j in range(n)) for i in range(n)))

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
        return self.rows[ij[0]][ij[1]]

    def _check(self, other: "Matrix"):
        if self.spec != other.spec:
            raise FieldMismatch("matrices over different fields")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        return Matrix(self.spec, ((a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.rows, other.rows)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        return Matrix(self.spec, ((a - b for a, b in zip(r1, r2)) for r1, r2 in zip(self.rows, other.rows)))

    def __neg__(self) -> "Matrix":
        return Matrix(self.spec, ((-a for a in r) for r in self.rows))

    def __mul__(self, other):
        if isinstance(other, Matrix):
            self._check(other)
            cols = list(zip(*other.rows))
            return Matrix(
                self.spec,
                ((_dot(row, col, self.spec) for col in cols) for row in self.rows),
            )
        if isinstance(other, FieldElement) or isinstance(other, int):
            c = self.spec.element(other)
            return Matrix(self.spec, ((a * c for a in r) for r in self.rows))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (FieldElement, int)):
            return self * other
        return NotImplemented

    def __pow__(self, n: int) -> "Matrix":
        if not isinstance(n, int) or n < 0:
            raise ValueError("matrix powers must be nonnegative integers")
        out = Matrix.identity(self.spec, self.nrows)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def apply(self, vec: Vector) -> Vector:
        return tuple(_dot(row, vec, self.spec) for row in self.rows)

    @property
    def is_zero(self) -> bool:
        return all(a.is_zero for r in self.rows for a in r)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.spec == other.spec and self.rows == other.rows

    def __hash__(self):
        return hash((self.spec, self.rows))

    def __str__(self):
        return "\n".join("[" + ", ".join(str(a) for a in r) + "]" for r in self.rows)


def _dot(row: Sequence[FieldElement], col: Sequence[FieldElement], spec: FieldSpec) -> FieldElement:
    ring = spec._ring
    add, mul = ring._add, ring._mul
    acc = ring.zero
    for a, b in zip(row, col):
        if a.value and b.value:
            acc = add(acc, mul(a.value, b.value))
    return FieldElement(spec, acc)


def poly_on_matrix(p: Poly, m: Matrix) -> Matrix:
    """Evaluate p at a square matrix by Horner's rule."""
    acc = Matrix.zero(m.spec, m.nrows)
    for c in reversed(p.coeffs):
        acc = acc * m + Matrix.identity(m.spec, m.nrows) * c
    return acc


# ---------------------------------------------------------------------------
# Elimination
# ---------------------------------------------------------------------------


def _rref_generic(rows: list[list], spec: FieldSpec) -> tuple[list[list], list[int]]:
    ring = spec._ring
    mul, sub, inv = ring._mul, ring._sub, ring._inv
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        scale = inv(rows[r][c])
        rows[r] = [mul(v, scale) for v in rows[r]]
        for i in range(nrows):
            factor = rows[i][c]
            if i != r and factor:
                rows[i] = [sub(a, mul(factor, b)) if b else a for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def _rref_prime(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    a = np.array(rows, dtype=np.int64) % p
    nrows, ncols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        col = a[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        pivot = r + int(nz[0])
        if pivot != r:
            a[[r, pivot]] = a[[pivot, r]]
        a[r] = (a[r] * pow(int(a[r, c]), -1, p)) % p
        mask = np.nonzero(a[:, c])[0]
        mask = mask[mask != r]
        if mask.size:
            a[mask] = (a[mask] - np.outer(a[mask, c], a[r])) % p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a.tolist(), pivots


def rref(rows: Sequence[Sequence[FieldElement]], spec: FieldSpec) -> tuple[list[list[FieldElement]], list[int]]:
    """Reduced row echelon form and pivot columns."""
    raw = [[e.value for e in r] for r in rows]
    if not raw or not raw[0]:
        return raw, []
    # numpy works in int64: residues stay below p and products below p^2
    numpy_safe = spec.is_prime_field and (spec.char - 1) ** 2 + spec.char < 2 ** 63
    raw, pivots = _rref_prime(raw, spec.char) if numpy_safe else _rref_generic(raw, spec)
    return [[FieldElement(spec, v) for v in row] for row in raw], pivots


def nullspace(rows: Sequence[Sequence[FieldElement]], spec: FieldSpec, ncols: int | None = None) -> list[Vector]:
    """Canonical basis of the right kernel of the given row list.

    Basis vectors carry a 1 in their free coordinate and are emitted in
    increasing free-column order, so results are deterministic.
    """
    rows = [list(r) for r in rows]
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    if ncols == 0:
        return []
    if not rows:
        return [tuple(spec.one if i == j else spec.zero for i in range(ncols)) for j in range(ncols)]
    red, pivots = rref(rows, spec)
    pivot_of_col = {c: r for r, c in enumerate(pivots)}
    free = [c for c in range(ncols) if c not in pivot_of_col]
    basis = []
    for fc in free:
        vec = [spec.zero] * ncols
        vec[fc] = spec.one
        for c, r in pivot_of_col.items():
            vec[c] = -red[r][fc]
        basis.append(tuple(vec))
    return basis


def solve(rows: Sequence[Sequence[FieldElement]], rhs: Sequence[FieldElement], spec: FieldSpec) -> Vector | None:
    """One solution of A v = b with free coordinates set to zero, or None."""
    rows = [list(r) for r in rows]
    if not rows:
        return ()
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug, spec)
    if ncols in pivots:
        return None
    sol = [spec.zero] * ncols
    for r, c in enumerate(pivots):
        sol[c] = red[r][ncols]
    return tuple(sol)


def rank(rows: Sequence[Sequence[FieldElement]], spec: FieldSpec) -> int:
    if not rows:
        return 0
    return len(rref(rows, spec)[1])


def is_invertible(m: Matrix) -> bool:
    return m.nrows == m.ncols and rank(m.rows, m.spec) == m.nrows
