"""fields._power, the one square-and-multiply behind every ** in the package.

Each power is checked against repeated multiplication: field elements over
Q, GF(5) and GF(7^2) with negative exponents, polynomials, matrices and PBW
elements, whose negative exponents stay a ValueError.
"""

import operator
from fractions import Fraction

import pytest

from qgha.algebra import AlgebraSpec, PBWElement
from qgha.errors import DivisionByZero
from qgha.fields import FieldSpec, _power
from qgha.linalg import Matrix
from qgha.poly import Poly

QQ = FieldSpec.rationals()
F5 = FieldSpec.prime(5)
F49 = FieldSpec.extension(7, 2)
EXPONENTS = [*range(10), 64]


def _repeated(x, n, one):
    out = one
    for _ in range(n):
        out = out * x
    return out


def _pbw(spec, n=1):
    """An element of H_3(h + 1, h), where deg f = 1 keeps h-degrees small.

    x + 2 h y + 1 up to n = 9; its support grows like n^2, so past that
    x h + 1, whose powers stay near n terms.
    """
    alg = AlgebraSpec(spec, spec.element(3), Poly.from_ints(spec, [1, 1]), Poly.gen(spec))
    x, y, h = PBWElement.x(alg), PBWElement.y(alg), PBWElement.h(alg)
    return (x + h * y * 2 if n <= 9 else x * h) + PBWElement.one(alg)


SCALARS = [QQ.element(Fraction(-3, 2)), F5.element(2), F49.element([3, 5])]


@pytest.mark.parametrize("n", EXPONENTS)
@pytest.mark.parametrize("a", SCALARS, ids=str)
def test_field_element_powers(a, n):
    one = a.spec.one
    assert a ** n == _repeated(a, n, one)
    assert a ** -n == _repeated(a.inverse(), n, one)
    assert a ** n * a ** -n == one


@pytest.mark.parametrize("spec", [QQ, F5, F49], ids=str)
def test_field_element_power_arguments(spec):
    assert spec.zero ** 0 == spec.one and spec.zero ** 3 == spec.zero
    with pytest.raises(DivisionByZero):
        spec.zero ** -1
    with pytest.raises(TypeError):
        spec.one ** 1.5


@pytest.mark.parametrize("n", EXPONENTS)
@pytest.mark.parametrize("spec", [QQ, F5, F49], ids=str)
def test_poly_matrix_and_pbw_powers(spec, n):
    p = Poly.from_ints(spec, [Fraction(1, 2), 0, 1]) if spec.is_rationals else Poly.from_ints(spec, [3, 0, 1])
    m = Matrix(spec, [[1, 2, 0], [0, 1, 1], [1, 0, 2]])
    e = _pbw(spec, n)
    assert p ** n == _repeated(p, n, Poly.one(spec))
    assert m ** n == _repeated(m, n, Matrix.identity(spec, 3))
    assert e ** n == _repeated(e, n, PBWElement.one(e.alg))


@pytest.mark.parametrize("spec", [QQ, F5, F49], ids=str)
def test_negative_powers_of_poly_matrix_and_pbw_raise(spec):
    for x in (Poly.gen(spec), Matrix.identity(spec, 2), _pbw(spec)):
        with pytest.raises(ValueError):
            x ** -1


def test_power_takes_any_associative_product():
    assert [_power(3, n, 0, operator.add) for n in EXPONENTS] == [3 * n for n in EXPONENTS]
    assert [_power(3, n, 1) for n in EXPONENTS] == [3 ** n for n in EXPONENTS]
    ring = F49._ring
    u = (0, 1)
    assert _power(u, 48, ring.one, ring._packed_mul) == ring.one
    assert _power(u, 7, ring.one, ring._packed_mul) == _repeated(F49.generator, 7, F49.one).value
