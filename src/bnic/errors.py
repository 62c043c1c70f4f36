"""Exception types shared across the package."""

from __future__ import annotations


class BnicError(Exception):
    """Base class for all package errors."""


class UnknownVariableError(BnicError):
    """A variable id or name is not (or no longer) part of the model."""


class CycleError(BnicError):
    """An arc insertion would create a directed cycle."""


class InvalidEditError(BnicError):
    """A structural modification violates its preconditions."""


class NotChordalError(BnicError):
    """An operation required a chordal graph and got a non-chordal one."""


class InconsistencyError(BnicError):
    """An internal structural invariant broke; never silently repaired."""


class UnwritableNameError(BnicError):
    """A variable name that a text format could not read back."""


class ParseError(BnicError):
    """A text input could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)
