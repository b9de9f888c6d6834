"""Exception types shared across the package."""

from __future__ import annotations


class StatisticsFormatError(ValueError):
    """A statistics file or payload could not be turned into a typed value."""


class ParseError(StatisticsFormatError):
    """The input is not syntactically valid."""


class SchemaError(StatisticsFormatError):
    """The input parses but has missing, unknown, or mistyped fields."""


class RangeError(StatisticsFormatError):
    """A probability lies outside [0, 1]."""


class ValidationFailure(RuntimeError):
    """Observed statistics failed hard validation.

    Carries the offending :class:`~bellbound.statistics_io.ValidationReport`
    so callers can surface the residuals.
    """

    def __init__(self, report, message: str | None = None):
        self.report = report
        super().__init__(message or f"statistics failed validation: {report}")


class NumericFailure(RuntimeError):
    """A numerical routine could not produce a trustworthy result."""
