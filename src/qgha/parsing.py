"""Text input: polynomials, normal-form elements and field descriptions.

A single recursive-descent parser handles both commutative polynomials
(atoms: integers and one variable) and algebra elements (atoms also
include x and y); over extension fields the generator u is a scalar atom.
Errors carry the character offset of the first offending token.
"""

from __future__ import annotations

import math
import re
import sys

from .algebra import AlgebraSpec, PBWElement
from .errors import DegreeOverflow, DivisionByZero, PolyParseError
from .fields import FieldSpec
from .poly import Poly

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*/^]))")


class _Parser:
    """Shunting-free recursive descent over +, -, *, /, ^ and parentheses."""

    def __init__(self, text: str, atoms: dict[str, object], one, max_degree: int | None = None):
        self.text = text
        self.atoms = atoms
        self.one = one
        self.max_degree = max_degree
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            if text[pos].isspace():
                pos += 1
                continue
            m = _TOKEN.match(text, pos)
            if m is None:
                raise PolyParseError(f"unexpected character {text[pos]!r}", pos)
            if m.group(1):
                self.tokens.append(("int", m.group(1), m.start(1)))
            elif m.group(2):
                self.tokens.append(("name", m.group(2), m.start(2)))
            elif m.group(3):
                self.tokens.append(("op", m.group(3), m.start(3)))
            pos = m.end()
        self.tokens.append(("end", "", len(text)))
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self):
        value = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise PolyParseError(f"unexpected {text!r}", pos)
        return value

    def expr(self):
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.next()
            value = -self.term()
        else:
            value = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.next()
                rhs = self.term()
                value = value + rhs if text == "+" else value - rhs
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text == "*":
                self.next()
                rhs = self.factor()
                if self.max_degree is not None and value.degree + rhs.degree > self.max_degree:
                    raise DegreeOverflow(
                        f"product degree {value.degree + rhs.degree} exceeds cap {self.max_degree}"
                    )
                _check_rational_product(value, rhs, pos)
                value = value * rhs
            elif kind == "op" and text == "/":
                self.next()
                rhs = self.factor()
                _check_rational_product(value, rhs, pos)
                value = self._divide(value, rhs, pos)
            else:
                return value

    def _divide(self, lhs, rhs, pos: int):
        scalar = _as_scalar(rhs)
        if scalar is None:
            raise PolyParseError("division is only defined by nonzero constants", pos)
        try:
            inv = scalar.inverse()
        except DivisionByZero:
            raise PolyParseError("division by zero", pos) from None
        return lhs * inv

    def factor(self):
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.next()
            return -self.factor()
        value = self.atom()
        kind, text, pos = self.peek()
        if kind == "op" and text == "^":
            self.next()
            kind, text, pos = self.next()
            if kind != "int":
                raise PolyParseError("exponent must be a nonnegative integer", pos)
            n = _int(text, pos)
            if self.max_degree is not None and value.degree * n > self.max_degree:
                raise DegreeOverflow(f"power degree {value.degree * n} exceeds cap {self.max_degree}")
            _check_rational_power(value, n, pos)
            return value ** n
        return value

    def atom(self):
        kind, text, pos = self.next()
        if kind == "int":
            return self.one * _int(text, pos)
        if kind == "name":
            if text in self.atoms:
                return self.atoms[text]
            raise PolyParseError(f"unknown symbol {text!r}", pos)
        if kind == "op" and text == "(":
            value = self.expr()
            kind, text, pos = self.next()
            if not (kind == "op" and text == ")"):
                raise PolyParseError("expected ')'", pos)
            return value
        raise PolyParseError(f"expected a value, found {text!r}" if text else "unexpected end of input", pos)


def _int(text: str, pos: int) -> int:
    try:
        return int(text)
    except ValueError:  # past sys.get_int_max_str_digits()
        raise PolyParseError(f"integer of {len(text)} digits is too long", pos) from None


def _check_rational_power(value, n: int, pos: int) -> None:
    """Refuse value^n over Q before computing it when it would pass the integer digit limit.

    The bound is n times the digit count of the largest numerator or
    denominator among value's coefficients.
    """
    limit = sys.get_int_max_str_digits()
    digits = _rational_digits(value) if limit else None
    if digits and n * digits >= limit:
        raise PolyParseError(f"power would have more than {limit} digits", pos)


def _check_rational_product(lhs, rhs, pos: int) -> None:
    """Refuse lhs * rhs or lhs / rhs over Q before computing it when it could pass the digit limit.

    The bound is the sum of the factors' largest numerator or denominator
    digit counts, the rule _check_rational_power applies to c^n.
    """
    limit = sys.get_int_max_str_digits()
    digits = _rational_digits(lhs) if limit else None
    if digits is not None and digits + _rational_digits(rhs) >= limit:
        raise PolyParseError(f"product would have more than {limit} digits", pos)


def _rational_digits(value):
    """log10 of the largest numerator or denominator of a Poly or PBWElement over Q, else None."""
    if isinstance(value, Poly):
        spec, polys = value.spec, (value,)
    else:
        spec, polys = value.alg.field, value.terms.values()
    if not spec.is_rationals:
        return None
    return max((math.log10(max(abs(v.numerator), v.denominator)) for p in polys for v in p.values), default=0)


def _as_scalar(value):
    """The constant behind a Poly or PBWElement, or None if not constant."""
    if isinstance(value, Poly):
        return value.constant_value() if value.is_constant else None
    if isinstance(value, PBWElement):
        if not value.terms:
            return value.alg.field.zero
        if set(value.terms) == {(0, 0)} and value.terms[(0, 0)].is_constant:
            return value.terms[(0, 0)].constant_value()
        return None
    return None


def parse_poly(text: str, spec: FieldSpec, var: str = "h", max_degree: int | None = None) -> Poly:
    """A polynomial in one variable over spec; u is a scalar over extensions.

    With max_degree set, a power p^n with deg p * n above it, or a product
    p * r with deg p + deg r above it, raises DegreeOverflow before it is
    computed.
    """
    atoms = {var: Poly.gen(spec)}
    if spec.is_extension and var != "u":
        atoms["u"] = Poly.constant(spec, spec.generator)
    return _Parser(text, atoms, Poly.one(spec), max_degree).parse()


def parse_element(text: str, alg: AlgebraSpec) -> PBWElement:
    """An algebra element in generators x, y, h (and u over extensions)."""
    atoms = {
        "x": PBWElement.x(alg),
        "y": PBWElement.y(alg),
        "h": PBWElement.h(alg),
    }
    if alg.field.is_extension:
        atoms["u"] = PBWElement.scalar(alg, alg.field.generator)
    return _Parser(text, atoms, PBWElement.one(alg)).parse()


def parse_scalar(text: str, spec: FieldSpec):
    """A single field element, e.g. '3', '-7/2', 'u^2+1'.

    A power or product of non-constants is refused before it is computed.
    """
    try:
        p = parse_poly(text, spec, max_degree=0)
    except DegreeOverflow:
        p = None
    if p is None or not p.is_constant:
        raise PolyParseError("expected a scalar, found a polynomial", 0)
    return p.constant_value()


_FIELD = re.compile(r"^\s*GF\(\s*(\d+)\s*(?:\^\s*(\d+)\s*)?\)\s*(?:,\s*mod\s*=\s*(.+?)\s*)?$")


def parse_field(text: str) -> FieldSpec:
    """Field syntax: Q, GF(p), GF(p^k), GF(p^k),mod=<monic poly in u>."""
    if text.strip() == "Q":
        return FieldSpec.rationals()
    m = _FIELD.match(text)
    if m is None:
        raise PolyParseError("expected Q, GF(p) or GF(p^k)[,mod=...]", 0)
    p = _int(m.group(1), m.start(1))
    k = _int(m.group(2), m.start(2)) if m.group(2) else 1
    if m.group(3) is None:
        return FieldSpec.prime(p) if k == 1 else FieldSpec.extension(p, k)
    base = FieldSpec.prime(p)
    mod_poly = parse_poly(m.group(3), base, var="u")
    return FieldSpec.extension(p, k, mod_poly.values)
