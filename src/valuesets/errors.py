"""Exception types shared across the package.

Each class names the precondition it reports; messages carry the offending
values so a failing run can be reproduced from the text alone, and `shown`
shortens a long one.
"""


class CompositeP(ValueError):
    """Field characteristic is not prime."""


class ReducibleModulus(ValueError):
    """Supplied extension modulus factors over the prime field."""


class DegreeMismatch(ValueError):
    """Modulus length or extension degree is inconsistent."""


class ZeroInverse(ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class FieldMismatch(ValueError):
    """Operands belong to different fields."""


class ZeroPolynomial(ValueError):
    """Operation undefined for the zero polynomial."""


class BothZero(ValueError):
    """gcd(0, 0) requested."""


class DegreeTooLow(ValueError):
    """Polynomial degree below the operation's minimum."""


class EmptyPoints(ValueError):
    """A divided difference needs at least one node."""


class ArityMismatch(ValueError):
    """Number of variables or point coordinates is wrong."""


class RankDeficient(ValueError):
    """Linear constraint forms do not have full rank."""


class ParameterRange(ValueError):
    """Numeric parameter outside its documented range."""


class EmptyFamily(ValueError):
    """Constraint system has no solutions, so averages are undefined."""


class BudgetExceeded(RuntimeError):
    """A brute-force oracle would exceed its configured work budget."""


class ParseError(ValueError):
    """Config or expression text is malformed; carries line/column."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            where = f"line {line}" if col is None else f"line {line}, col {col}"
            message = f"{where}: {message}"
        super().__init__(message)


class UnknownVariable(ParseError):
    """Expression uses a variable outside the declared set."""


class ValidationError(ValueError):
    """Config violates a documented precondition."""


class IdentityViolation(AssertionError):
    """An exact combinatorial identity failed; aborts the run loudly."""


def shown(text):
    """`text` for an error message: unchanged up to 40 characters, else its
    first 12 characters and its length, so a long value prints one short line."""
    if len(text) <= 40:
        return text
    return f"{text[:12]}... ({len(text)} characters)"
