"""Conformality, Z relations, centralizer of h, truncated center, domain."""

import random
import time

import pytest

from qgha.algebra import AlgebraSpec, PBWElement, commutator, generators, theta
from qgha.errors import DegreeOverflow, UnsupportedDegF
from qgha.fields import FieldSpec
from qgha.poly import Poly
from qgha.structure import (
    ConformalWitness,
    center_basis_truncated,
    conformal_witness,
    domain_check,
    verify_z_relations,
)
from rref_oracle import generic_nullspace

QQ = FieldSpec.rationals()
F5 = FieldSpec.prime(5)


def test_conformal_basic_example():
    # f = h^2, g = h^2 - h, q = 1: a = h works
    alg = AlgebraSpec(QQ, QQ.one, Poly.from_ints(QQ, [0, 0, 1]), Poly.from_ints(QQ, [0, -1, 1]))
    w = conformal_witness(alg)
    assert w is not None
    assert w.a == Poly.gen(QQ)
    assert verify_z_relations(w).ok


def test_conformal_heisenberg_family():
    # g = f - h with q = 1 is always conformal via a = h
    for f_coeffs in ([1, 0, 1], [2, 1], [0, 0, 0, 1]):
        f = Poly.from_ints(QQ, f_coeffs)
        alg = AlgebraSpec(QQ, QQ.one, f, f - Poly.gen(QQ))
        w = conformal_witness(alg)
        assert w is not None and verify_z_relations(w).ok


def test_not_conformal():
    # f = h^2, g = 1, q = 1: sigma(a) - a has zero constant-term-only solutions
    alg = AlgebraSpec(QQ, QQ.one, Poly.from_ints(QQ, [0, 0, 1]), Poly.one(QQ))
    assert conformal_witness(alg) is None


def test_conformal_difference_operator_case():
    # f = h + 1, q = 1: sigma - id is the forward difference, always solvable
    f = Poly.from_ints(QQ, [1, 1])
    for g_coeffs in ([1], [0, 1], [3, 0, 2], [0, 0, 0, 1]):
        alg = AlgebraSpec(QQ, QQ.one, f, Poly.from_ints(QQ, g_coeffs))
        w = conformal_witness(alg)
        assert w is not None
        assert alg.sigma(w.a) - alg.q * w.a == alg.g


def test_conformal_random_planted():
    # plant a, derive g, recover some (possibly different) valid witness
    rng = random.Random(21)
    for _ in range(40):
        spec = rng.choice((QQ, F5))
        f = Poly(spec, [spec.random_element(rng) for _ in range(rng.randint(2, 4))])
        q = spec.random_element(rng)
        a = Poly(spec, [spec.random_element(rng) for _ in range(rng.randint(1, 4))])
        g = a.compose(f) - q * a
        alg = AlgebraSpec(spec, q, f, g, degree_cap=4096)
        w = conformal_witness(alg)
        assert w is not None
        assert alg.sigma(w.a) - alg.q * w.a == alg.g
        assert verify_z_relations(w).ok


def test_z_relations_reject_wrong_witness():
    alg = AlgebraSpec(QQ, QQ.one, Poly.from_ints(QQ, [0, 0, 1]), Poly.from_ints(QQ, [0, -1, 1]))
    bad_a = Poly.from_ints(QQ, [0, 2])   # sigma(2h) - 2h = 2h^2 - 2h != g
    bogus = ConformalWitness(
        alg,
        bad_a,
        (PBWElement.x(alg) * PBWElement.y(alg) - PBWElement.h_poly(alg, bad_a)) * alg.q,
    )
    report = verify_z_relations(bogus)
    assert not report.ok
    assert not report.defect.is_zero


def test_centralizer_of_h():
    alg = AlgebraSpec(F5, F5.element(2), Poly.from_ints(F5, [0, 0, 1]), Poly.gen(F5))
    x, y, h = generators(alg)

    def commutes_with_h(e):
        return commutator(h, e).is_zero

    assert commutes_with_h(PBWElement.h_poly(alg, Poly.from_ints(F5, [0, 1, 0, 1])))
    assert commutes_with_h(x * y)
    assert commutes_with_h(x * x * y * y + x * y * 3)
    assert not commutes_with_h(x)
    assert not commutes_with_h(y + x * y)
    # for deg f > 1, commuting with h is exactly having weight 0
    rng = random.Random(31)
    for _ in range(60):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            key = (rng.randint(0, 2), rng.randint(0, 2))
            terms[key] = Poly(F5, [F5.random_element(rng) for _ in range(3)])
        e = PBWElement(alg, terms)
        if e.is_zero:
            continue
        weight_zero = {i - k for i, k in e.terms} <= {0}
        assert commutes_with_h(e) == weight_zero


def test_center_trivial_over_q():
    # q = 2 is not a root of unity: center reduces to scalars in the window
    alg = AlgebraSpec(QQ, QQ.element(2), Poly.from_ints(QQ, [0, 0, 1]), Poly.gen(QQ))
    basis = center_basis_truncated(alg, 4, 8)
    assert len(basis) == 1
    assert basis[0] == PBWElement.one(alg)


def test_center_root_of_unity_gf5():
    # q = 2 has order 4 in GF(5); with conformal g the center is generated by Z^4
    alg = AlgebraSpec(
        F5, F5.element(2), Poly.from_ints(F5, [0, 0, 1]), Poly.from_ints(F5, [0, 3, 1]),
        degree_cap=2048,
    )
    w = conformal_witness(alg)
    z4 = w.z ** 4
    basis = center_basis_truncated(alg, 4, max(p.degree for p in z4.terms.values()))
    assert len(basis) == 2
    x, y, h = generators(alg)
    for b in basis:
        assert commutator(b, x).is_zero
        assert commutator(b, y).is_zero
        assert commutator(b, h).is_zero
    assert _in_span(basis, PBWElement.one(alg))
    assert _in_span(basis, z4)
    assert not _in_span(basis, w.z)   # Z itself is not central (q-commutes only)


def _in_span(basis, element):
    """Membership via a nullspace computation over the joint support, by the element-wise oracle."""
    alg = element.alg
    keys = sorted({k for b in basis for k in b.terms} | set(element.terms))
    degree = max(
        [p.degree for b in basis for p in b.terms.values()]
        + [p.degree for p in element.terms.values()]
    )
    width = degree + 1
    cols = []
    for b in basis + [element]:
        col = []
        for key in keys:
            p = b.coefficient(*key)
            col.extend(p.coefficient(d) for d in range(width))
        cols.append(col)
    rows = [[cols[j][i] for j in range(len(cols))] for i in range(len(cols[0]))]
    for vec in generic_nullspace(rows, alg.field, len(cols)):
        if not vec[-1].is_zero:
            return True
    return False


def test_center_monotone_in_window():
    alg = AlgebraSpec(F5, F5.element(4), Poly.from_ints(F5, [0, 0, 1]), Poly.from_ints(F5, [0, 1]),
                      degree_cap=2048)
    small = center_basis_truncated(alg, 2, 4)
    large = center_basis_truncated(alg, 4, 8)
    for b in small:
        assert _in_span(large, b)


def _center_elementwise(alg, max_xy, max_h):
    """The whole center system as one dense matrix built entry by entry from field elements.

    The oracle for the block-by-block solve: its nullspace basis, from the
    element-wise Gauss-Jordan of rref_oracle, is the canonical one.
    """
    field = alg.field
    width = max_h + 1
    ncols = (max_xy + 1) * width
    f_pows = [Poly.one(field)]
    for _ in range(max_h):
        f_pows.append(f_pows[-1] * alg.f)
    rows = []
    for k in range(max_xy + 1):
        qk = alg.q ** k
        th = theta(alg, k + 1)
        contribs = {}
        for d in range(width):
            contribs[k * width + d] = qk * f_pows[d] - Poly.monomial(field, d)
            if k < max_xy and not th.is_zero:
                contribs[(k + 1) * width + d] = Poly.monomial(field, d) * th
        height = max((p.degree for p in contribs.values()), default=-1) + 1
        for e in range(height):
            row = [field.zero] * ncols
            for col, p in contribs.items():
                row[col] = p.coefficient(e)
            if any(not c.is_zero for c in row):
                rows.append(row)
    basis = []
    for vec in generic_nullspace(rows, field, ncols):
        terms = {(k, k): Poly(field, vec[k * width:(k + 1) * width]) for k in range(max_xy + 1)}
        basis.append(PBWElement(alg, terms))
    return basis


_F49, _F8 = FieldSpec.extension(7, 2), FieldSpec.extension(2, 3)


# per field: q = 0, q = 1, roots of unity of small order, and q of large or infinite order
@pytest.mark.parametrize("field,qs", [
    (QQ, [0, 1, -1, 2, QQ.element(1) / 3]),
    (F5, [0, 1, 4, 2]),
    (_F49, [0, 1, 6, _F49.generator]),
    (_F8, [0, 1, _F8.generator, _F8.generator + 1]),
], ids=["Q", "GF(5)", "GF(7^2)", "GF(2^3)"])
def test_center_matches_elementwise_assembly(field, qs):
    rng = random.Random(str(field))
    for q in qs:
        for g_kind in ("generic", "conformal", "zero"):
            f = Poly(field, [field.random_element(rng), field.random_element(rng), field.one])
            if g_kind == "conformal":
                a = Poly(field, [field.random_element(rng), field.one])
                g = a.compose(f) - a * field.element(q)
            elif g_kind == "generic":
                g = Poly(field, [field.random_element(rng) for _ in range(3)])
            else:
                g = Poly.zero(field)
            alg = AlgebraSpec(field, field.element(q), f, g)
            # every window with max_xy <= 3 and max_h <= 6, max_xy = 0 and max_h = 0 among them
            for max_xy in range(4):
                for max_h in range(7):
                    expect = [b.render() for b in _center_elementwise(alg, max_xy, max_h)]
                    assert [b.render() for b in center_basis_truncated(alg, max_xy, max_h)] == expect


def test_center_q_window_10_48_is_fast():
    # solved as one dense system of 539 columns this window took seconds; block by block, well under one
    alg = AlgebraSpec(QQ, QQ.element(2), Poly.from_ints(QQ, [1, 1, 1]), Poly.gen(QQ), degree_cap=2048)
    start = time.perf_counter()
    assert center_basis_truncated(alg, 10, 48) == [PBWElement.one(alg)]
    assert time.perf_counter() - start < 10


def test_center_window_past_degree_cap():
    alg = AlgebraSpec(F5, F5.element(2), Poly.from_ints(F5, [0, 0, 1]), Poly.gen(F5), degree_cap=16)
    with pytest.raises(DegreeOverflow, match="center window degree 18 exceeds cap 16"):
        center_basis_truncated(alg, 1, 9)
    assert center_basis_truncated(alg, 1, 8) == [PBWElement.one(alg)]
    # the window needs theta_1 .. theta_max_xy only: deg theta_5 = 16, deg theta_6 = 32
    assert center_basis_truncated(alg, 5, 0) == [PBWElement.one(alg)]
    with pytest.raises(DegreeOverflow, match="composition degree 32 exceeds cap 16"):
        center_basis_truncated(alg, 6, 0)


def test_center_requires_deg_f_at_least_two():
    alg = AlgebraSpec(QQ, QQ.element(2), Poly.from_ints(QQ, [1, 1]), Poly.gen(QQ))
    with pytest.raises(UnsupportedDegF):
        center_basis_truncated(alg, 2, 2)


@pytest.mark.parametrize("q,f,g,expect_domain", [
    (2, [0, 0, 1], [0, 1], True),
    (1, [0, 1], [3], True),
    (0, [0, 0, 1], [0, 1], False),
    (0, [0, 1], [], False),
    (3, [4], [0, 1], False),
    (0, [2], [1], False),
])
def test_domain_criterion(q, f, g, expect_domain):
    alg = AlgebraSpec(QQ, QQ.element(q), Poly.from_ints(QQ, f), Poly.from_ints(QQ, g))
    report = domain_check(alg)
    assert report.is_domain == expect_domain
    if not expect_domain:
        assert not report.left.is_zero and not report.right.is_zero
        assert (report.left * report.right).is_zero


def test_domain_witness_kernel_branch_gf5():
    # q = 0, g of degree 2: the kernel search branch, verified in the algebra
    alg = AlgebraSpec(F5, F5.zero, Poly.from_ints(F5, [0, 1, 1]), Poly.from_ints(F5, [1, 0, 1]))
    report = domain_check(alg)
    assert not report.is_domain
    assert not report.left.is_zero and not report.right.is_zero
    assert (report.left * report.right).is_zero
