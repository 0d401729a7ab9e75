"""Exception types shared across the package.

Each class maps to a distinct CLI exit code (see cli.EXIT_CODES), so error
categories stay distinguishable in batch runs.
"""


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


class IndexOutOfRange(PragrefError, IndexError):
    """A token id fell outside an embedding table."""


class EmptyUtterance(PragrefError):
    """The listener was given an utterance with no tokens."""


class VacuousUtterance(PragrefError):
    """An utterance (or referent) has no support under the lexicon."""


class MissingCheckpoint(PragrefError, FileNotFoundError):
    """A required model checkpoint file does not exist."""
