"""Exception types shared across the toolkit."""


class InvalidParameterError(ValueError):
    """A parameter violates its documented domain, or a run's configuration
    is refused: a missing or malformed option, config file or split."""


class GridMismatchError(ValueError):
    """Two objects that must share a time grid do not."""


class NumericOverflowError(ArithmeticError):
    """A simulated quantity accumulated to a non-finite value."""


class ParseError(ValueError):
    """Malformed input data; carries the 1-based line number when known."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class OrderingError(ParseError):
    """Timestamps are not strictly increasing; malformed input like any other."""
