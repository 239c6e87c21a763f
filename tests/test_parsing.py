"""Parser grammar, error offsets, and render round-trips."""

import random
import time
from fractions import Fraction

import pytest

from qgha.algebra import AlgebraSpec, PBWElement
from qgha.errors import DegreeOverflow, PolyParseError, UnsupportedField
from qgha.fields import FieldSpec
from qgha.parsing import parse_element, parse_field, parse_poly, parse_scalar
from qgha.poly import Poly

QQ = FieldSpec.rationals()
F5 = FieldSpec.prime(5)
F49 = FieldSpec.extension(7, 2)


def test_poly_grammar():
    assert parse_poly("h^2 - 3*h + 1/2", QQ) == Poly(
        QQ, [QQ.element(Fraction(1, 2)), QQ.element(-3), QQ.one]
    )
    assert parse_poly("(h+1)*(h-1)", QQ) == Poly.from_ints(QQ, [-1, 0, 1])
    assert parse_poly("-h^3", QQ) == Poly.from_ints(QQ, [0, 0, 0, -1])
    assert parse_poly("- - h", QQ) == Poly.gen(QQ)
    assert parse_poly("2*(h + 3)^2", F5) == Poly.from_ints(F5, [3, 2, 2])
    assert parse_poly("0", QQ).is_zero
    assert parse_poly("   h  ", QQ) == Poly.gen(QQ)


def test_poly_grammar_extension_generator():
    p = parse_poly("u*h + u^2", F49)
    assert p.degree == 1
    assert p.coefficient(1) == F49.generator
    assert p.coefficient(0) == F49.generator ** 2


def test_error_positions():
    with pytest.raises(PolyParseError) as e:
        parse_poly("h^^2", QQ)
    assert e.value.position == 2
    with pytest.raises(PolyParseError) as e:
        parse_poly("h + $", QQ)
    assert e.value.position == 4
    with pytest.raises(PolyParseError) as e:
        parse_poly("(h + 1", QQ)
    assert e.value.position == 6
    with pytest.raises(PolyParseError) as e:
        parse_poly("h 2", QQ)   # no implicit multiplication
    assert e.value.position == 2
    with pytest.raises(PolyParseError):
        parse_poly("", QQ)
    with pytest.raises(PolyParseError):
        parse_poly("t + 1", QQ)  # unknown symbol


def test_power_degree_cap():
    h = Poly.gen(QQ)
    assert parse_poly("h^512", QQ, max_degree=512) == h ** 512
    assert parse_poly("(h^2 + 1)^256", F5, max_degree=512).degree == 512
    assert parse_poly("3^1000", QQ, max_degree=1) == Poly.constant(QQ, 3 ** 1000)
    for text in ("h^513", "(h^2 + 1)^257", "h^200000", "(h^512)^99999999999"):
        with pytest.raises(DegreeOverflow):
            parse_poly(text, QQ, max_degree=512)
    assert parse_poly("h^513", QQ).degree == 513  # no cap by default


def test_power_degree_cap_bounds_products():
    assert parse_poly("h^300 * h^212", F5, max_degree=512).degree == 512
    assert parse_poly("0 * h^512 * h^512", F5, max_degree=512).is_zero
    with pytest.raises(DegreeOverflow):
        parse_poly("h^300 * h^213", F5, max_degree=512)
    assert parse_poly("h^300 * h^213", F5).degree == 513  # no cap by default


def test_long_integers_raise_parse_errors():
    digits = "9" * 5000  # longer than int() converts by default
    with pytest.raises(PolyParseError) as e:
        parse_poly(f"h + {digits}", QQ)
    assert e.value.position == 4
    with pytest.raises(PolyParseError) as e:
        parse_poly(f"h^{digits}", QQ, max_degree=512)
    assert e.value.position == 2


def test_parse_field_long_integers_raise_parse_errors():
    digits = "7" * 5000
    for text, position in ((f"GF({digits})", 3), (f"GF(7^{digits})", 5)):
        with pytest.raises(PolyParseError) as e:
            parse_field(text)
        assert e.value.position == position


def test_division_rules():
    assert parse_poly("h/2", QQ) == Poly(QQ, [QQ.zero, QQ.element(Fraction(1, 2))])
    assert parse_poly("(h^2 - 1)/3", F5) == Poly.from_ints(F5, [3, 0, 2])
    with pytest.raises(PolyParseError):
        parse_poly("h/(h+1)", QQ)
    with pytest.raises(PolyParseError):
        parse_poly("h/0", QQ)
    with pytest.raises(PolyParseError):
        parse_poly("h^-1", QQ)


def test_parse_element_normalizes():
    alg = AlgebraSpec(F5, F5.element(2), Poly.from_ints(F5, [0, 0, 1]), Poly.gen(F5))
    e = parse_element("y*x", alg)
    assert e == PBWElement.x(alg) * PBWElement.y(alg) * alg.q + PBWElement.h_poly(alg, alg.g)
    assert parse_element("x*y - x*y", alg).is_zero
    assert parse_element("(x + y)^2", alg) == parse_element("x^2 + x*y + y*x + y^2", alg)
    with pytest.raises(PolyParseError):
        parse_element("x/y", alg)
    with pytest.raises(PolyParseError):
        parse_element("z + 1", alg)


def test_parse_scalar():
    assert parse_scalar("-7/2", QQ).value == Fraction(-7, 2)
    assert parse_scalar("12", F5).value == 2
    assert parse_scalar("u^2+1", F49) == F49.generator ** 2 + F49.one
    with pytest.raises(PolyParseError):
        parse_scalar("h", QQ)
    with pytest.raises(PolyParseError):
        parse_scalar("h + 1", F49)
    assert parse_scalar("h - h + 3^2", F5).value == 4
    # powers and products of h are refused before they are computed
    start = time.perf_counter()
    for text in ("h^200000", "(h + 1)^2 - h", "h * h"):
        with pytest.raises(PolyParseError, match="expected a scalar, found a polynomial"):
            parse_scalar(text, QQ)
    assert time.perf_counter() - start < 0.5


def test_parse_field_forms():
    assert parse_field("Q") == QQ
    assert parse_field("GF(5)") == F5
    assert parse_field("GF(7^2)") == F49
    explicit = parse_field("GF(2^3),mod=u^3+u+1")
    assert explicit.order == 8 and explicit.modulus == (1, 1, 0, 1)
    with pytest.raises(UnsupportedField):
        parse_field("GF(4)")   # 4 is not prime; write GF(2^2)
    with pytest.raises(PolyParseError):
        parse_field("F5")
    with pytest.raises(PolyParseError):
        parse_field("GF(5) extra")


def test_roundtrip_polys():
    rng = random.Random(77)
    for spec in (QQ, F5, F49):
        for _ in range(60):
            p = Poly(spec, [spec.random_element(rng) for _ in range(rng.randint(0, 5))])
            assert parse_poly(p.render(), spec) == p


def test_roundtrip_elements():
    rng = random.Random(78)
    algs = [
        AlgebraSpec(F5, F5.element(2), Poly.from_ints(F5, [0, 0, 1]), Poly.gen(F5)),
        AlgebraSpec(QQ, QQ.element(Fraction(1, 2)), Poly.from_ints(QQ, [1, 1]),
                    Poly.from_ints(QQ, [0, -1])),
        AlgebraSpec(F49, F49.generator, Poly.from_ints(F49, [0, 0, 1]), Poly.gen(F49)),
    ]
    for alg in algs:
        for _ in range(40):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                key = (rng.randint(0, 2), rng.randint(0, 2))
                terms[key] = Poly(alg.field, [alg.field.random_element(rng) for _ in range(3)])
            e = PBWElement(alg, terms)
            assert parse_element(e.render(), alg) == e
