"""Exception types shared across the package, and the one cap refusal."""


class EmptyInputError(ValueError):
    """An operation that needs at least one letter was given an empty word."""


class ParseError(ValueError):
    """Text could not be parsed as a word or a pattern."""


class SizeMismatchError(ValueError):
    """Two inputs that must have the same size do not."""


class NotCompatibleError(ValueError):
    """A permutation cannot be decoded against the given multiset."""


class UnknownNameError(ValueError):
    """Unrecognized statistic, pattern-sum, or check name."""


class ShapeMismatchError(ValueError):
    """A tableau pair does not share a common shape."""


class NotStandardError(ValueError):
    """A tableau filling is not standard."""


class InvalidTripleError(ValueError):
    """A top/bottom/shuffle triple describes no permutation."""


class BoundTooLargeError(ValueError):
    """An exhaustive domain would exceed the configured instance cap."""


# A refusal writes its count only below this: a longer count tells a reader
# nothing more, and past 4,300 digits `str` refuses to write it at all.
WRITTEN_COUNT_LIMIT = 10**20


# The most instances a command enumerates unless given another cap.
DEFAULT_CAP = 10_000_000


def refuse_over_cap(subject: str, size: int, noun: str, cap: int) -> None:
    """Raise BoundTooLargeError when `size` exceeds `cap`.  `subject` ends in
    its verb, as in "rearrangement class has"."""
    if size <= cap:
        return
    if size < WRITTEN_COUNT_LIMIT:
        raise BoundTooLargeError(f"{subject} {size} {noun}, more than the cap {cap}")
    raise BoundTooLargeError(f"{subject} more {noun} than the cap {cap}")


class InternalInvariantError(RuntimeError):
    """A property that must hold unconditionally was observed to fail."""
