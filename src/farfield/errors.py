"""Shared exception types.

Analyses distinguish bad input (caller error), geometry the code knows it
cannot handle, exhausted search budgets, and internal consistency failures.
CLI maps InputError/UnsupportedGeometryError to exit code 2.
"""

from __future__ import annotations


class InputError(ValueError):
    """Malformed or out-of-contract input (dimensions, signs, empty sets)."""


class UnsupportedGeometryError(InputError):
    """The variant combination is outside the supported analysis matrix."""


class WindowTooSmallError(InputError):
    """A windowed analysis needs a larger window to be conclusive."""

    def __init__(self, message: str, required: object = None):
        super().__init__(message)
        self.required = required


class SearchBudgetExceeded(RuntimeError):
    """An exhaustive search was aborted because it passed its size bound."""


class InternalInvariantError(RuntimeError):
    """A self-check that should hold by construction failed."""
