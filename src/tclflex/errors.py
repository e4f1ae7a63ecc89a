"""Shared exception types.

Every module raises one of these instead of bare ValueError so callers
(and the CLI exit-code mapping) can tell bad inputs apart from numerical
trouble.
"""

from __future__ import annotations


class TclFlexError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(TclFlexError):
    """An argument fails a documented precondition (shape, range, finiteness)."""


class InvalidConfigurationError(TclFlexError):
    """A scenario or model configuration is inconsistent or incomplete."""


class NumericalFailureError(TclFlexError):
    """An iterative or external numerical routine failed to converge or
    returned a result that does not pass independent verification."""


class FrontierMonotonicityError(TclFlexError):
    """A computed boundary violates the monotone frontier invariant."""
