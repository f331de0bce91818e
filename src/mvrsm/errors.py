"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "MvrsmError",
    "EmptySpaceError",
    "VariableError",
    "UnknownKindError",
    "InvertedBoundsError",
    "NonIntegerBoundError",
    "NonNumericBoundError",
    "InvalidSettingError",
    "NoIntegerVariablesError",
    "DimensionMismatchError",
    "NonPositiveLambdaError",
    "NonFiniteError",
    "NonIntegralInputError",
    "DimensionTooSmallError",
    "UnknownBenchmarkError",
    "ProtocolViolationError",
    "ObjectiveFailureError",
    "ConfigError",
    "LengthMismatchError",
    "MalformedTraceError",
]


class MvrsmError(Exception):
    """Base class for every error raised by this package."""


class EmptySpaceError(MvrsmError, ValueError):
    """A search space must declare at least one variable."""


class VariableError(MvrsmError, ValueError):
    """A malformed search-space variable: ``index`` is its declaration position."""

    def __init__(self, index: int, reason: str):
        self.index = index
        self.reason = reason
        super().__init__(f"variable {index}: {reason}")


class UnknownKindError(VariableError):
    """A variable's kind is neither "continuous" nor "integer"."""


class InvertedBoundsError(VariableError):
    """A variable's bounds are not a finite interval: lower > upper, or a
    bound is not finite (infinite, NaN, or an int beyond the float range)."""


class NonIntegerBoundError(VariableError):
    """An integer variable was declared with a non-integral bound."""


class NonNumericBoundError(VariableError, TypeError):
    """A bound is not a real number; booleans do not count as numbers."""


class InvalidSettingError(MvrsmError, ValueError):
    """A setting is of the wrong type or out of range. ``field`` names it as the
    object it configures does, so a caller can report ``reason`` under its own name."""

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"{field} {reason}")


class NoIntegerVariablesError(MvrsmError, ValueError):
    """The method requires at least one integer variable."""


class DimensionMismatchError(MvrsmError, ValueError):
    """A point or vector does not match the expected dimension."""


class NonPositiveLambdaError(MvrsmError, ValueError):
    """The recursive least squares regulariser must be strictly positive."""


class NonFiniteError(MvrsmError, ValueError):
    """A NaN or infinity reached a numerical routine."""


class NonIntegralInputError(MvrsmError, ValueError):
    """An integer-block vector holds non-integral values."""


class DimensionTooSmallError(MvrsmError, ValueError):
    """The objective needs more coordinates than were supplied."""


class UnknownBenchmarkError(MvrsmError, KeyError):
    """No benchmark is registered under this name."""


class ProtocolViolationError(MvrsmError, RuntimeError):
    """ask/tell were called out of turn."""


class ObjectiveFailureError(MvrsmError, RuntimeError):
    """The objective raised or returned a non-finite value; carries the partial trace."""

    def __init__(self, message: str, trace=None):
        self.trace = trace
        super().__init__(message)


class ConfigError(MvrsmError, ValueError):
    """An experiment config file is malformed or inconsistent."""


class LengthMismatchError(MvrsmError, ValueError):
    """Traces passed to the summarizer are empty or have unequal lengths."""


class MalformedTraceError(MvrsmError, ValueError):
    """A trace CSV is empty, lacks a column, has ragged rows or a non-numeric cell."""
