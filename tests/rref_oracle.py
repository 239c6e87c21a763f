"""Element-wise Gauss-Jordan, the test oracle for linalg's elimination.

It shares no code with linalg: rows of raw values are reduced with the
field ring's element operations, pivoting on the first nonzero entry.
"""

from qgha.fields import FieldElement


def generic_rref(rows, F):
    """Element-wise Gauss-Jordan on raw rows, which it overwrites: the reduced rows and the pivot columns."""
    ring = F._ring
    mul, sub, inv = ring._mul, ring._sub, ring._inv
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        scale = inv(rows[r][c])
        rows[r] = [mul(v, scale) for v in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                rows[i] = [sub(a, mul(row[c], b)) for a, b in zip(row, rows[r])]
        pivots.append(c)
    return rows, pivots


def generic_nullspace_raw(rows, F, ncols):
    """The canonical kernel basis of raw rows, read off generic_rref: 1 at each free column, in order."""
    red, pivots = generic_rref([list(row) for row in rows], F)
    ring = F._ring
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [ring.zero] * ncols
        vec[free] = ring.one
        for row, c in zip(red, pivots):
            vec[c] = ring._neg(row[free])
        basis.append(vec)
    return basis


def generic_nullspace(rows, F, ncols):
    """generic_nullspace_raw on rows of field elements, as tuples of field elements."""
    raw = [[e.value for e in row] for row in rows]
    return [tuple(FieldElement(F, v) for v in vec) for vec in generic_nullspace_raw(raw, F, ncols)]
