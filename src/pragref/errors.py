"""Exception types shared across the package, and its shared input checks.

Each class is a distinct error category. A command-line interface that maps
each class to its own exit code is not written yet (ROADMAP.md, item 2).
"""

import math
import numbers


def require_count(name: str, value, minimum: int = 1) -> None:
    """Raise ValueError unless value is an integer of at least `minimum` (not a bool)."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < minimum:
        raise ValueError(f"{name} must be an integer of at least {minimum}, got {value!r}")


def require_real(name: str, value) -> None:
    """Raise ValueError unless value is a finite real number (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")


def require_rows(name: str, x, ok, what: str) -> None:
    """Raise ValueError unless the bool array ok (x's shape) is all True, naming the
    first bad entry's row (its index on x's first axis, 0 for one axis) and value."""
    if not ok.all():
        bad = tuple(int(i[0]) for i in (~ok).nonzero())
        raise ValueError(f"{name} row {bad[0] if x.ndim > 1 else 0} {what}: {x[bad]}")


class PragrefError(Exception):
    """Base class for all package-specific errors."""


class PerceptibilityViolation(PragrefError):
    """A color pair is closer than the perceptibility floor epsilon."""


class SamplingBudgetExceeded(PragrefError):
    """Rejection sampling hit its attempt cap without an accepted draw."""


class ParseError(PragrefError):
    """A corpus row could not be parsed; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class MissingField(ParseError):
    """A corpus row is missing a required field."""


class NonFiniteGradient(PragrefError):
    """A backward pass or optimizer step produced NaN/inf gradients."""


class NonFiniteDevScore(PragrefError):
    """A training epoch's dev score (accuracy, or minus perplexity) is NaN or infinite."""


class IndexOutOfRange(PragrefError, IndexError):
    """A token id fell outside an embedding table."""


class EmptyUtterance(PragrefError):
    """A listener or speaker scorer was given an utterance with no tokens."""


class VacuousUtterance(PragrefError):
    """An utterance (or referent) has no support under the lexicon."""


class MissingCheckpoint(PragrefError, FileNotFoundError):
    """A required model checkpoint file does not exist."""
