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
from .errors import DegreeOverflow, SearchSpaceTooLarge, UnsupportedDegF
from .linalg import _nullspace, _solve
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
    # column d <= bound holds sigma(h^d) - q h^d
    cols = []
    for d in range(bound + 1):
        h_d = Poly.monomial(field, d)
        cols.append((alg.sigma(h_d) - alg.q * h_d).values)
    sol = _solve(cols, alg.g.values, field._ring)
    if sol is None:
        return None
    a = Poly._raw(field, sol)
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

# The most cells a center window may span, counted as if its whole linear
# system were one dense matrix: about 33.5 million.  The solve goes block by
# block and never builds that matrix; the count bounds the window, so the
# windows refused stay the same however the system is solved.
_CENTER_CELL_BUDGET = 2 ** 25


def center_basis_truncated(alg: AlgebraSpec, max_xy: int, max_h: int) -> list[PBWElement]:
    """Basis of the central elements within the truncation window.

    Scans the space of weight-zero elements sum_k x^k p_k(h) y^k with
    k <= max_xy and deg p_k <= max_h.  Such an element is central exactly
    when q^k sigma(p_k) - p_k + p_{k+1} theta_{k+1} = 0 for every k; the
    same cascade makes it commute with x, with y and with h, so the window
    intersected with the center is precisely this solution space.

    Block k of that system touches only p_k and p_{k+1}, so it is solved
    down the cascade, one block at a time.  The solutions of block max_xy
    are the raw nullspace over the coefficients of p_max_xy.  Given a basis
    of the solutions of blocks k+1 .. max_xy, those of blocks k .. max_xy
    are the raw nullspace of block k over the coefficients of p_k and one
    coordinate t_j per basis vector, whose p_{k+1} enters block k through
    theta_{k+1}; each kernel vector (p_k, t) extends to p_k followed by
    sum_j t_j basis_j.  Block k is divided by q^k when q^k != 0, which
    leaves its kernel alone and makes its p_k columns the powers of f,
    built once, less h^d / q^k.

    By induction down the cascade, each basis is the canonical nullspace
    basis of its blocks: one vector per free column, 1 there and 0 at the
    other free columns and past its own, in increasing free-column order.
    The free columns of blocks k .. max_xy are block k's free p_k columns
    followed by the free columns of the basis vectors whose t_j is free in
    block k, and block k's kernel vectors are 1 at their own free
    coordinate and 0 at the others and past it.  So the final basis is,
    vector for vector, the one a dense solve of the whole system gives.

    Only theta_1 .. theta_max_xy are built.  Before any product, a window
    with max_h deg f past degree_cap raises DegreeOverflow, and one with
    more than _CENTER_CELL_BUDGET cells, about (max_xy + 1)(max_h deg f + 1)
    rows by (max_xy + 1)(max_h + 1) columns counted as one dense system,
    raises SearchSpaceTooLarge.

    Requires deg f >= 2; lower degrees fall outside this computation's
    supported regime.
    """
    if alg.f.degree < 2:
        raise UnsupportedDegF("center computation requires deg f >= 2")
    if max_xy < 0 or max_h < 0:
        raise ValueError("truncation bounds must be nonnegative")
    if max_h * alg.f.degree > alg.degree_cap:
        raise DegreeOverflow(f"center window degree {max_h * alg.f.degree} exceeds cap {alg.degree_cap}")
    cells = (max_xy + 1) ** 2 * (max_h * alg.f.degree + 1) * (max_h + 1)
    if cells > _CENTER_CELL_BUDGET:
        raise SearchSpaceTooLarge(f"center window needs about {cells} matrix cells, "
                                  f"more than the budget {_CENTER_CELL_BUDGET}")
    field = alg.field
    ring = field._ring
    zero, one, add, mul, sub, poly_from = ring.zero, ring.one, ring._add, ring._mul, ring._sub, ring._poly_from
    width = max_h + 1

    f_pows = [poly_from([one])]
    for _ in range(max_h):
        f_pows.append(ring._poly_mul(f_pows[-1], alg.f.values))
    f_pows = [list(fp) for fp in f_pows]
    thetas = [theta(alg, k).values for k in range(max_xy + 1)]
    inv_q_pows = [one]  # 1 / q^k for every k with q^k != 0: all k, or k = 0 when q = 0
    if not alg.q.is_zero:
        inv_q = ring._inv(alg.q.value)
        for _ in range(max_xy):
            inv_q_pows.append(mul(inv_q_pows[-1], inv_q))

    # a basis of the solutions of blocks k .. max_xy, each the coefficients of p_k .. p_max_xy
    basis: list[list] = []
    for k in range(max_xy, -1, -1):
        # block k divided by q^k, so that f^d needs no product: column d < width holds
        # f^d - h^d / q^k and column width + j holds theta_{k+1} / q^k times basis[j]'s p_{k+1};
        # when q^k = 0 they hold -h^d and theta_{k+1} times basis[j]'s p_{k+1}.  For d >= 1 the
        # leading row of column d is d deg f (d when q^k = 0), so only the theta columns reduce.
        if k < len(inv_q_pows):
            scale = inv_q_pows[k]
            cols = [poly_from(fp[:d] + [sub(fp[d], scale)] + fp[d + 1:]) for d, fp in enumerate(f_pows)]
        else:
            scale = one
            cols = [poly_from([zero] * d + [ring._neg(one)]) for d in range(width)]
        if basis:
            th = ring._poly_scale(thetas[k + 1], scale)
            cols += [ring._poly_mul(poly_from(vec[:width]), th) for vec in basis]
        solutions = []
        for sol in _nullspace(cols, ring):
            rest = [zero] * (width * (max_xy - k))
            for t, vec in zip(sol[width:], basis):
                if t:
                    rest = [add(a, mul(t, b)) if b else a for a, b in zip(rest, vec)]
            solutions.append(sol[:width] + rest)
        basis = solutions

    return [PBWElement(alg, {(k, k): Poly._raw(field, vec[k * width:(k + 1) * width])
                             for k in range(max_xy + 1)})
            for vec in basis]


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
    cols = [(alg.sigma(Poly.monomial(field, d)) % alg.g).values for d in range(dg + 1)]
    kernel = _nullspace(cols, field._ring)
    p0 = Poly._raw(field, kernel[0])
    quot, rem = divmod(alg.sigma(p0), alg.g)
    assert rem.is_zero
    right = PBWElement.monomial(alg, 1, quot, 1) - PBWElement.h_poly(alg, p0)
    return DomainReport(False, "q = 0 and g != 0", PBWElement.y(alg), right)
