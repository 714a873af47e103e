"""Exception types shared across the package.

Everything raised on purpose derives from EchoFeedError so callers (and the
CLI) can catch domain failures with a single except clause.
"""


class EchoFeedError(Exception):
    """Base class for all errors raised by this package."""


class IndexOutOfRangeError(EchoFeedError, IndexError):
    """A user or event index lies outside the declared dimensions."""


class DuplicateEntryError(EchoFeedError, ValueError):
    """The same (user, event) pair appears twice with differing values."""


class InvalidValueError(EchoFeedError, ValueError):
    """A rating value is negative or not finite."""


class ParseError(EchoFeedError, ValueError):
    """A file could not be parsed. Carries the 1-based offending line."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class EmptyInputError(EchoFeedError, ValueError):
    """An input that must contain data is empty."""


class EmptyMatrixError(EchoFeedError, ValueError):
    """The operation needs at least one observation."""


class InvalidDimensionError(EchoFeedError, ValueError):
    """A dimension count is zero or otherwise unusable."""


class DimensionMismatchError(EchoFeedError, ValueError):
    """Model and matrix shapes do not agree."""


class InvalidParameterError(EchoFeedError, ValueError):
    """A parameter violates its documented range."""


class NonFiniteUpdateError(EchoFeedError, ArithmeticError):
    """A factor update produced NaN or Inf; training diverged."""

    def __init__(self, message: str, epoch: int | None = None, step: int | None = None):
        super().__init__(message)
        self.epoch = epoch
        self.step = step


class NonFiniteScoreError(EchoFeedError, ArithmeticError):
    """A score or error metric of finite factors overflowed to NaN or Inf,
    or an output to be written as JSON holds one."""


class InvalidPayloadError(EchoFeedError, ValueError):
    """A ledger payload is malformed for its declared type."""


class SigningFailureError(EchoFeedError):
    """A block could not be signed."""


class UnregisteredUserError(EchoFeedError):
    """A user has no registered public key (or no blocks on the ledger)."""


class VerificationFailureError(EchoFeedError, ValueError):
    """A portable profile failed verification on import."""
