"""Exception types shared across the package: one class per kind of mistake."""

from __future__ import annotations

__all__ = [
    "MvrsmError",
    "VariableError",
    "InvalidSettingError",
    "DimensionMismatchError",
    "NonFiniteError",
    "ProtocolViolationError",
    "ObjectiveFailureError",
    "ConfigError",
    "MalformedTraceError",
]


class MvrsmError(Exception):
    """Base class for every error raised by this package."""


class VariableError(MvrsmError, ValueError):
    """A malformed search-space variable: an unknown kind, a bound that is not a
    finite real number, inverted bounds, or an integer bound that is not integral
    or is beyond 2**53 in magnitude. ``index`` is the variable's declaration position."""

    def __init__(self, index: int, reason: str):
        self.index = index
        self.reason = reason
        super().__init__(f"variable {index}: {reason}")


class InvalidSettingError(MvrsmError, ValueError):
    """A setting is of the wrong type or out of range. ``field`` names it as the
    object it configures does, so a caller can report ``reason`` under its own name."""

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"{field} {reason}")


class DimensionMismatchError(MvrsmError, ValueError):
    """A point or vector does not have the length its consumer needs."""


class NonFiniteError(MvrsmError, ValueError):
    """A NaN or infinity reached ``tell`` or a numerical routine, a finite value would
    overflow the fit's update, or rounding left a routine's state invalid. The fit
    raises it before its state changes."""


class ProtocolViolationError(MvrsmError, RuntimeError):
    """ask/tell were called out of turn, or ask after the budget's last value was told."""


class ObjectiveFailureError(MvrsmError, RuntimeError):
    """The objective raised or returned a non-finite value during a session's ``run``;
    the session's ``trace`` holds the values told before it."""


class ConfigError(MvrsmError, ValueError):
    """An experiment config file is malformed or inconsistent."""


class MalformedTraceError(MvrsmError, ValueError):
    """A trace cannot be written or summarized: a trace CSV is empty, lacks a column,
    has ragged rows or a non-numeric cell; there are no traces to summarize or their
    lengths differ; or an empty trace was asked to be written."""
