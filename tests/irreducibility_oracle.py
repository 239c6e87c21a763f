"""Trial division, the test oracle for fields.poly_is_irreducible and find_irreducible.

It shares no code with fields: a polynomial over GF(p) is irreducible
exactly when no monic polynomial of degree 1 to half its degree divides it,
and the divisions are schoolbook long division on lists of residues.
"""

import itertools


def monic_polys(p, degree):
    """All monic degree-d polynomials over GF(p), low to high, in itertools.product order of the lower coefficients.

    So the u^(d-1) coefficient varies fastest and u^0 slowest: over GF(3) in
    degree 2 the first are (0, 0, 1), (0, 1, 1), (0, 2, 1), (1, 0, 1).
    """
    for lower in itertools.product(range(p), repeat=degree):
        yield lower + (1,)


def _remainder(a, b, p):
    """a mod b for a monic b over GF(p), both low to high; an empty list is zero."""
    rem = list(a)
    db = len(b) - 1
    while len(rem) > db:
        c = rem[-1]
        shift = len(rem) - 1 - db
        for i, v in enumerate(b):
            rem[shift + i] = (rem[shift + i] - c * v) % p
        while rem and not rem[-1]:
            rem.pop()
    return rem


def is_irreducible(coeffs, p):
    """Irreducibility over GF(p) by trial division by every monic polynomial up to half the degree."""
    c = [v % p for v in coeffs]
    while c and not c[-1]:
        c.pop()
    if len(c) < 2:
        return False
    return all(_remainder(c, d, p) for deg in range(1, (len(c) - 1) // 2 + 1) for d in monic_polys(p, deg))


def first_irreducible(p, degree):
    """The first monic irreducible of the degree in monic_polys order."""
    return next(c for c in monic_polys(p, degree) if is_irreducible(c, p))
