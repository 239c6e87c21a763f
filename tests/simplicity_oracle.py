"""Per-line closure, the test oracle for modules.is_simple_bruteforce.

It shares no code with modules or linalg: every line of F^n is closed on
its own under dense matrix-vector products, with the field ring's element
operations, and the module is simple exactly when every closure is F^n.
"""

import itertools


def closure_dim(mats, seed, ring):
    """Dimension of the smallest subspace that holds the raw vector seed and that mats (raw rows) map into itself."""
    add, sub, mul, inv = ring._add, ring._sub, ring._mul, ring._inv
    n = len(seed)
    basis = {}  # pivot column -> raw row that is 1 there and 0 before it

    def insert(v):
        for c in range(n):
            if not v[c]:
                continue
            row = basis.get(c)
            if row is None:
                s = inv(v[c])
                basis[c] = v = [mul(b, s) for b in v]
                return v
            a = v[c]
            v = [sub(x, mul(a, y)) for x, y in zip(v, row)]
        return None

    def dot(row, v):
        acc = ring.zero
        for a, b in zip(row, v):
            acc = add(acc, mul(a, b))
        return acc

    v = insert(list(seed))
    queue = [] if v is None else [v]
    while queue and len(basis) < n:
        v = queue.pop()
        for m in mats:
            w = insert([dot(row, v) for row in m])
            if w is not None:
                queue.append(w)
    return len(basis)


def is_simple_per_line(rep):
    """Does every line of F^n generate the module?  One closure per line, leading coordinate one."""
    field, n = rep.field, rep.dim
    ring = field._ring
    elems = [a.value for a in field.elements()]
    mats = [m.rows for m in (rep.x, rep.y, rep.h)]
    for lead in range(n):
        for tail in itertools.product(elems, repeat=n - lead - 1):
            seed = (ring.zero,) * lead + (ring.one,) + tail
            if closure_dim(mats, seed, ring) < n:
                return False
    return True
