"""Exception taxonomy shared by all modules."""

__all__ = [
    "AsymmetricMatrixError",
    "DomainError",
    "InvalidArgumentError",
    "MatrixParseError",
    "NumericError",
]


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition."""


class DomainError(ValueError):
    """The input lies outside the mathematical domain of the operation."""


class NumericError(ArithmeticError):
    """A numerical procedure failed to produce a trustworthy result."""


class AsymmetricMatrixError(InvalidArgumentError):
    """A matrix that must be symmetric is not, beyond tolerance."""


class MatrixParseError(InvalidArgumentError):
    """A matrix file could not be parsed; carries the offending position."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column
