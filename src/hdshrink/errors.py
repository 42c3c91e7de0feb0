"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes, one rule each: ConfigError -> 2,
DataError or an OSError on a path the user passed -> 3, NumericError -> 4.
Nothing raises HdshrinkError itself; it lets library callers catch them all.
"""


class HdshrinkError(Exception):
    """Base class for all package errors."""


class ConfigError(HdshrinkError):
    """Bad configuration: unknown keys, invalid values, unsupported modes."""


class RegimeError(ConfigError):
    """Inputs outside the supported regime (e.g. p >= n for spectral methods)."""


class DataError(HdshrinkError):
    """Invalid input data: wrong shapes, non-finite entries, parse failures."""


class DimensionError(DataError):
    """Shape or length mismatch between operands."""


class DomainError(DataError):
    """Value outside the mathematical domain of an operation."""


class ParseError(DataError):
    """Malformed input file; carries a line number when available."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NumericError(HdshrinkError):
    """Numerical failure: non-convergence, degenerate statistics, underflow."""


class ConvergenceError(NumericError):
    """Iteration failed to reach tolerance; carries the last residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DegenerateStatisticError(NumericError):
    """A standardization scale or variance collapsed to zero."""
