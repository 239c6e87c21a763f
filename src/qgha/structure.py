"""Structural computations: conformality, the center, the domain criterion.

Everything here reduces to exact linear algebra over the coefficient
field.  The element Z = q(xy - a) attached to a conformal algebra, the
truncated center basis and the zero-divisor witnesses are all returned as
normal-form elements so callers can re-verify every claim inside the
algebra itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgebraSpec, PBWElement, commutator, q_commutator, theta
from .errors import UnsupportedDegF
from .fields import FieldElement
from .linalg import nullspace, solve
from .poly import Poly


# ---------------------------------------------------------------------------
# Conformality: does g = sigma(a) - q a have a polynomial solution a?
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConformalWitness:
    """A solution a of g = sigma(a) - q a together with Z = q(xy - a)."""

    alg: AlgebraSpec
    a: Poly
    z: PBWElement


def _conformal_degree_bound(alg: AlgebraSpec) -> int:
    dg = max(alg.g.degree, 0)
    df = max(alg.f.degree, 1)
    return max(dg, dg // df + 1) + 2


def conformal_witness(alg: AlgebraSpec) -> ConformalWitness | None:
    """Solve sigma(a) - q a = g for a, or report None when no solution exists.

    The map a -> sigma(a) - q a is linear in the coefficients of a, and a
    solution of degree at most max(deg g, deg g / deg f + 1) + 2 exists
    whenever any solution does: for deg f >= 2 leading terms cannot cancel,
    and for deg f <= 1 the degree drop is at most one per term.
    """
    field = alg.field
    bound = _conformal_degree_bound(alg)
    cols = []
    for d in range(bound + 1):
        image = alg.sigma(Poly.monomial(field, d)) - alg.q * Poly.monomial(field, d)
        cols.append(image)
    nrows = max([c.degree for c in cols] + [alg.g.degree, 0]) + 1
    rows = [[cols[d].coefficient(e) for d in range(bound + 1)] for e in range(nrows)]
    rhs = [alg.g.coefficient(e) for e in range(nrows)]
    sol = solve(rows, rhs, field)
    if sol is None:
        return None
    a = Poly(field, sol)
    z = (PBWElement.x(alg) * PBWElement.y(alg) - PBWElement.h_poly(alg, a)) * alg.q
    return ConformalWitness(alg, a, z)


@dataclass(frozen=True)
class ZRelationReport:
    """Residuals of the defining equation and the three Z commutation laws."""

    defect: Poly                  # g - (sigma(a) - q a)
    hz_commutator: PBWElement     # h Z - Z h
    zx_residual: PBWElement       # Z x - q x Z
    yz_residual: PBWElement       # y Z - q Z y

    @property
    def ok(self) -> bool:
        return (
            self.defect.is_zero
            and self.hz_commutator.is_zero
            and self.zx_residual.is_zero
            and self.yz_residual.is_zero
        )


def verify_z_relations(witness: ConformalWitness) -> ZRelationReport:
    alg = witness.alg
    x, y, h = PBWElement.x(alg), PBWElement.y(alg), PBWElement.h(alg)
    z = witness.z
    defect = alg.g - (alg.sigma(witness.a) - alg.q * witness.a)
    return ZRelationReport(
        defect=defect,
        hz_commutator=commutator(h, z),
        zx_residual=q_commutator(z, x, alg.q),
        yz_residual=q_commutator(y, z, alg.q),
    )


# ---------------------------------------------------------------------------
# Centralizer of h and the truncated center
# ---------------------------------------------------------------------------


def center_basis_truncated(alg: AlgebraSpec, max_xy: int, max_h: int) -> list[PBWElement]:
    """Basis of the central elements within the truncation window.

    Scans the space of weight-zero elements sum_k x^k p_k(h) y^k with
    k <= max_xy and deg p_k <= max_h.  Such an element is central exactly
    when q^k sigma(p_k) - p_k + p_{k+1} theta_{k+1} = 0 for every k; the
    same cascade makes it commute with x, with y and with h, so the window
    intersected with the center is precisely this solution space.

    Requires deg f >= 2; lower degrees fall outside this computation's
    supported regime.
    """
    if alg.f.degree < 2:
        raise UnsupportedDegF("center computation requires deg f >= 2")
    if max_xy < 0 or max_h < 0:
        raise ValueError("truncation bounds must be nonnegative")
    field = alg.field
    width = max_h + 1
    ncols = (max_xy + 1) * width

    # precompute the column polynomials q^k f^d - h^d and h^d theta_{k+1}
    f_pows = [Poly.one(field)]
    for _ in range(max_h):
        f_pows.append(f_pows[-1] * alg.f)

    rows: list[list[FieldElement]] = []
    for k in range(max_xy + 1):
        qk = alg.q_power(k)
        th = theta(alg, k + 1)
        contribs: dict[int, Poly] = {}
        for d in range(width):
            contribs[k * width + d] = qk * f_pows[d] - Poly.monomial(field, d)
            if k < max_xy and not th.is_zero:
                contribs[(k + 1) * width + d] = Poly.monomial(field, d) * th
        height = max((p.degree for p in contribs.values()), default=-1) + 1
        for e in range(height):
            row = [field.zero] * ncols
            nonzero = False
            for col, p in contribs.items():
                c = p.coefficient(e)
                if not c.is_zero:
                    row[col] = c
                    nonzero = True
            if nonzero:
                rows.append(row)

    basis = []
    for vec in nullspace(rows, field, ncols):
        terms = {}
        for k in range(max_xy + 1):
            p = Poly(field, vec[k * width : (k + 1) * width])
            if not p.is_zero:
                terms[(k, k)] = p
        basis.append(PBWElement(alg, terms))
    return basis


# ---------------------------------------------------------------------------
# Domain criterion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DomainReport:
    """Verdict of the domain test, with explicit zero divisors when it fails."""

    is_domain: bool
    reason: str
    left: PBWElement | None = None
    right: PBWElement | None = None


def domain_check(alg: AlgebraSpec) -> DomainReport:
    """The algebra is a domain exactly when q != 0 and deg f >= 1.

    Failing cases come with a certified witness pair (left, right) of
    nonzero elements whose product is zero.
    """
    field = alg.field
    if alg.f.degree < 1:
        # h x = x f0 with f0 constant, so (h - f0) x = 0
        left = PBWElement.h_poly(alg, Poly.gen(field) - alg.f)
        return DomainReport(False, "f is constant", left, PBWElement.x(alg))
    if not alg.q.is_zero:
        return DomainReport(True, "q nonzero and deg f >= 1")
    if alg.g.is_zero:
        # q = 0 and g = 0 collapse the straightening rule to y x = 0
        return DomainReport(False, "q = 0 and g = 0", PBWElement.y(alg), PBWElement.x(alg))
    # q = 0, g != 0: pick P0 != 0 with g | sigma(P0); the degree-(deg g)
    # coefficient space maps into the deg g dimensional space of residues
    # mod g, so a kernel vector exists.
    dg = alg.g.degree
    cols = [alg.sigma(Poly.monomial(field, d)) % alg.g for d in range(dg + 1)]
    rows = [[cols[d].coefficient(e) for d in range(dg + 1)] for e in range(dg)]
    kernel = nullspace(rows, field, dg + 1)
    p0 = Poly(field, kernel[0])
    quot, rem = divmod(alg.sigma(p0), alg.g)
    assert rem.is_zero
    right = PBWElement.monomial(alg, 1, quot, 1) - PBWElement.h_poly(alg, p0)
    return DomainReport(False, "q = 0 and g != 0", PBWElement.y(alg), right)
