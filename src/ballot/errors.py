"""Error taxonomy shared by every module.

Each failure mode maps to exactly one exception class so that callers
(and the CLI exit-code mapping) never have to parse messages.
"""

from __future__ import annotations


class BallotError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(BallotError):
    """Invalid configuration: bad shapes, bad hyperparameters, bad widths."""


class DataError(BallotError):
    """Invalid data: malformed targets, absent classes, unreadable rows."""


class NumericalFailure(BallotError):
    """A NaN or infinity appeared where a finite value is required.

    ``index`` is the slot, on the leading seed axis, of the network that
    failed when the computation ran on a stack of networks.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class UsageError(BallotError):
    """API misuse: out-of-order calls or objects from the wrong context."""


class PersistenceError(BallotError):
    """A checkpoint or report file could not be written or read back."""


class InfeasibleMaskError(ConfigurationError):
    """The requested retention cannot be reached by any legal mask.

    Carries the minimum retention that *is* achievable so callers can
    report a corrected bound.
    """

    def __init__(self, message: str, min_retention: float):
        super().__init__(message)
        self.min_retention = min_retention
