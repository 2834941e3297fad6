"""Exception types shared across the package.

The CLI maps these onto exit codes: usage/config problems exit 1, bad
input data exits 2, anything unexpected exits 3.
"""


class BubblefitError(Exception):
    """Base class for all package errors."""


class UsageError(BubblefitError):
    """A function was called in a way its contract forbids."""


class ConfigError(UsageError):
    """Bad configuration (missing column, malformed option, ...)."""


class DataError(BubblefitError):
    """Input data violates what the operation requires."""


class DegenerateInputError(DataError):
    """Input is technically valid but statistically degenerate (e.g. zero variance)."""


class DegeneracyError(BubblefitError):
    """The linear sub-problem is rank deficient (collinear basis columns)."""


class WindowRejection(BubblefitError):
    """A candidate bubble window has too few observations to fit."""

    def __init__(self, message: str, n_observations: int):
        super().__init__(message)
        self.n_observations = n_observations


class GenerationError(UsageError):
    """The synthetic generator produced values outside its admissible
    range; the spec has to change."""
