"""
Involutions on permutations that swap MAJ with STAT.

Every nonempty permutation splits into a defining triple: the subword of
letters above its first letter (top), the subword below it (bottom), and
the shuffle set recording where the word crosses that threshold.  The
triple determines the permutation: the shuffle set cuts positions 1..n into
blocks that alternate high/low starting high, filled from the first letter
followed by the top subword, respectively from the bottom subword.

`phi` and `burstein_p` are defined on triples: apply a subword involution
to the standardized top and to the bottom, and reflect the shuffle set.
`phi` applies tableau switching; it fixes des, the inverse descent set and
the first letter while swapping MAJ and STAT.  `burstein_p` applies
reverse-complement and fixes Adj instead of the inverse descent set.  Both
transfer to a rearrangement class of words by coding, acting, and decoding.
`decompose`, `transform_shuffle` and `recompose` state that definition and
are the reference the maps are tested against.  The maps act on p itself:
reflecting the shuffle set reverses the high/low pattern of p_2..p_n, so the
image is t = p_1 and then, for each x of p_n, ..., p_2, the next letter of
the switched top (plus t) if x > t, else of the switched bottom.
Reverse-complement reads a subword backwards, as this walk does, so
`burstein_p` sends x to its complement in t+1..n or 1..t-1: n+1+t-x or t-x.
`phi` switches its subwords through `tableaux.switch`, which owns the memo.
The maps check their input, except a `words.Permutation`, which its maker
has already checked.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import EmptyInputError, InternalInvariantError, InvalidTripleError
from .tableaux import foata_j, switch  # foata_j stays importable from here
from .words import Permutation, Word, check_permutation, code, decode, format_word, shuffle_set


@dataclass(frozen=True)
class ShuffleTriple:
    """(top subword, bottom subword, shuffle set) of a permutation."""

    top: Word
    bottom: Word
    shuffle: frozenset[int]

    @property
    def size(self) -> int:
        return len(self.top) + len(self.bottom) + 1

    @property
    def threshold(self) -> int:
        """The first letter of the permutation the triple describes."""
        return len(self.bottom) + 1


def decompose(p: Sequence[int]) -> ShuffleTriple:
    """Split a permutation into its defining triple.

    >>> t = decompose((5, 4, 6, 7, 3, 1, 9, 8, 2))
    >>> t.top, t.bottom, sorted(t.shuffle)
    ((6, 7, 9, 8), (4, 3, 1, 2), [1, 2, 4, 6, 8])
    """
    check_permutation(p)
    if not p:
        raise EmptyInputError("cannot decompose an empty permutation")
    first = p[0]
    top = tuple(x for x in p if x > first)
    bottom = tuple(x for x in p if x < first)
    return ShuffleTriple(top, bottom, shuffle_set(p))


def recompose(triple: ShuffleTriple) -> Word:
    """The unique permutation with the given triple.

    Fails closed: letter ranges, boundary ranges, and the alternating block
    sizes are all validated before any filling happens.
    """
    n, threshold = triple.size, triple.threshold
    if sorted(triple.top) != list(range(threshold + 1, n + 1)) or sorted(
        triple.bottom
    ) != list(range(1, threshold)):
        raise InvalidTripleError("top/bottom letters must split 1..n around the threshold")
    cuts = sorted(triple.shuffle)
    if any(not 1 <= b <= n - 1 for b in cuts):
        raise InvalidTripleError(f"shuffle boundaries must lie in 1..{n - 1}: {cuts}")
    high_positions: list[int] = []
    low_positions: list[int] = []
    start = 1
    for block_index, end in enumerate(cuts + [n]):
        target = high_positions if block_index % 2 == 0 else low_positions
        target.extend(range(start, end + 1))
        start = end + 1
    if len(high_positions) != len(triple.top) + 1:
        raise InvalidTripleError(
            f"{len(high_positions)} high positions cannot hold {len(triple.top) + 1} high letters"
        )
    out = [0] * n
    for pos, letter in zip(high_positions, (threshold,) + triple.top):
        out[pos - 1] = letter
    for pos, letter in zip(low_positions, triple.bottom):
        out[pos - 1] = letter
    return tuple(out)


def transform_shuffle(shuffle: Iterable[int], n: int) -> frozenset[int]:
    """Reflect a shuffle set for a length-n permutation.

    Boundaries k >= 2 map to n+1-k; the boundary 1 is included exactly when
    the input has odd size.  Applying the transform twice gives the input
    back.

    >>> sorted(transform_shuffle({1, 2, 4, 6, 8}, 9))
    [1, 2, 4, 6, 8]
    """
    cuts = frozenset(shuffle)
    if any(not 1 <= b <= n - 1 for b in cuts):
        raise ValueError(f"shuffle boundaries must lie in 1..{n - 1}: {sorted(cuts)}")
    image = frozenset(n + 1 - b for b in cuts if b >= 2)
    return image | {1} if len(cuts) % 2 == 1 else image


def phi(p: Sequence[int]) -> Word:
    """Involution swapping MAJ and STAT while fixing des, Id, and the first letter.

    >>> phi((5, 4, 6, 7, 3, 1, 9, 8, 2))
    (5, 1, 9, 6, 4, 3, 7, 8, 2)
    """
    check_permutation(p)
    if not p:
        raise EmptyInputError("cannot act on an empty permutation")
    t = p[0]
    top = tuple([x - t for x in p if x > t])
    bottom = tuple([x for x in p if x < t])
    highs = iter(switch(top))
    lows = iter(switch(bottom))
    return (t, *[next(highs) + t if x > t else next(lows) for x in p[:0:-1]])


def burstein_p(p: Sequence[int]) -> Word:
    """Involution swapping MAJ and STAT while fixing Adj, des, and the first letter.

    `phi`'s walk with reverse-complement in place of switching: t = p_1,
    then p_n, ..., p_2, each complemented in t+1..n or in 1..t-1.

    >>> burstein_p((2, 3, 1))
    (2, 1, 3)
    """
    check_permutation(p)
    if not p:
        raise EmptyInputError("cannot act on an empty permutation")
    t, high = p[0], len(p) + 1 + p[0]
    return (t, *[high - x if x > t else t - x for x in p[:0:-1]])


def phi_on_class(v: Sequence[int]) -> Word:
    """Transfer `phi` to the rearrangement class of a word: code, act, decode.

    Well-defined since `phi` keeps Id, so its image stays compatible; `phi`
    takes `code(v)` unread, and an image that `decode` refuses is a fault.

    >>> phi_on_class((4, 3, 4, 4, 2, 1, 6, 5, 1))
    (4, 1, 6, 4, 3, 2, 4, 5, 1)
    """
    image = phi(Permutation(code(v)))  # code(()) raises EmptyInputError
    try:
        return decode(image, v)
    except ValueError as exc:  # code(v) is compatible and phi keeps Id
        raise InternalInvariantError(f"phi sends the code of {format_word(v)} to {image}; {exc}")
