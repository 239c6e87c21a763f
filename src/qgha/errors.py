"""Exception hierarchy shared across the package.

Every library-raised error derives from :class:`QghaError` so the CLI can
map "domain" failures to exit code 1 and parse failures to exit code 2.
"""


class QghaError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"


class FieldMismatch(QghaError):
    """Operands belong to different field specifications."""

    code = "field_mismatch"


class DivisionByZero(QghaError, ZeroDivisionError):
    """Division by the zero element of a field (or by a zero polynomial)."""

    code = "division_by_zero"


class ZeroArgument(QghaError):
    """An argument required to be nonzero was zero."""

    code = "zero_argument"


class UnsupportedField(QghaError):
    """The requested operation is not available over the given field."""

    code = "unsupported_field"


class DegreeOverflow(QghaError):
    """An intermediate polynomial exceeded the configured degree cap."""

    code = "degree_overflow"


class DigitLimitExceeded(QghaError, ValueError):
    """A computed rational has more digits than Python will convert to text."""

    code = "digit_limit"


class UnsupportedDegF(QghaError):
    """Operation requires deg f > 1 (lower degrees are out of scope)."""

    code = "unsupported_deg_f"


class QZero(QghaError):
    """Operation requires the deformation parameter q to be nonzero."""

    code = "q_zero"


class QZeroUnsupported(QZero):
    """Module classification refuses q = 0."""

    code = "q_zero_unsupported"


class InvalidSpec(QghaError):
    """A module specification violates its invariants."""

    code = "invalid_spec"


class SearchSpaceTooLarge(QghaError):
    """A search or computation would exceed a work budget."""

    code = "search_space_too_large"


class PolyParseError(QghaError):
    """Syntax error in a polynomial, element or field expression.

    Carries the zero-based offset of the offending character.
    """

    code = "parse_error"

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position
