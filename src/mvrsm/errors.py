"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "MvrsmError",
    "EmptySpaceError",
    "UnknownKindError",
    "InvertedBoundsError",
    "NonIntegerBoundError",
    "NonNumericBoundError",
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


class UnknownKindError(MvrsmError, ValueError):
    """A variable's kind is neither "continuous" nor "integer"."""

    def __init__(self, index: int, kind):
        self.index = index
        super().__init__(f"variable {index}: unknown kind {kind!r}")


class InvertedBoundsError(MvrsmError, ValueError):
    """A variable's bounds are not a finite interval: lower > upper, or a
    bound is not finite (infinite, NaN, or an int beyond the float range).

    ``reason`` replaces the default "lower > upper" message when the bounds
    are not finite, so the message names the bound at fault.
    """

    def __init__(self, index: int, lower: float, upper: float, reason: str | None = None):
        self.index = index
        super().__init__(f"variable {index}: {reason or f'lower {lower!r} > upper {upper!r}'}")


class NonIntegerBoundError(MvrsmError, ValueError):
    """An integer variable was declared with a non-integral bound."""

    def __init__(self, index: int, value: float):
        self.index = index
        super().__init__(f"variable {index}: integer bound {value!r} is not integral")


class NonNumericBoundError(MvrsmError, TypeError):
    """A bound is not a real number; booleans do not count as numbers."""

    def __init__(self, index: int, value):
        self.index = index
        super().__init__(f"variable {index}: bound {value!r} is not a real number")


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
