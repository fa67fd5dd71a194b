"""
Words over a positive-integer alphabet and their classical statistics.

A word is any sequence of letters >= 1; a permutation is a word whose
letters are exactly 1..n.  The coding map (standardization) sends a word to
the unique order-isomorphic permutation, breaking ties between equal
letters left to right; decoding inverts it on the rearrangement class of a
multiset.  All positions and set elements are 1-based.

Seven statistics live here: the first letter F, the descent count and major
index (des, MAJ), their inverse counterparts (ides, IMAJ) read off the
coded permutation, the adjacency count Adj, and STAT, a Mahonian companion
of MAJ.  `STATISTICS` is the one table of them by name, with the descent,
inverse descent and shuffle sets; des, MAJ and STAT are projections of the
descent set, ides and IMAJ of the inverse descent set.  `reader` is the one
reader of the table: it looks each name up once, when it is built, and finds
each word's descents once.  A `Permutation` is a word known to be a
permutation: the maps take it unchecked, and Id, STAT and Adj read it
without coding or sorting it.
"""
from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from types import CodeType, FunctionType
from typing import Callable, Iterable, Sequence

from .errors import (
    EmptyInputError,
    NotCompatibleError,
    ParseError,
    SizeMismatchError,
    UnknownNameError,
)

Word = tuple[int, ...]

_SEPARATOR_RE = re.compile(r"[,\s]+")


def is_permutation(w: Sequence[int]) -> bool:
    """True when the letters of `w` are exactly the ints 1..n, each once.

    A float or bool letter is refused even when it equals an int:
    `tableaux._switch`, `phi`'s memo, keys by value, and 1 == 1.0 == True
    would let an image computed for one type answer for another.
    """
    return sorted(w) == list(range(1, len(w) + 1)) and {int}.issuperset(map(type, w))


class Permutation(tuple):
    """A tuple its maker knows to be a permutation of 1..n.  Its makers are
    `verify.symmetric_group` (a chunk's head, checked once), `code` (its ranks
    are 1..n by construction) and the swap walk of `verify`, which wraps a map's
    image once `is_permutation` has read it.  `check_permutation` accepts one
    without reading its letters, and `inverse_descent_set`, `stat` and `adj`
    read one as its own code, so only code that has checked them may make one."""

    __slots__ = ()


def check_permutation(w: Sequence[int]) -> None:
    if type(w) is not Permutation and not is_permutation(w):
        raise ValueError(f"not a permutation of 1..{len(w)}: {tuple(w)}")


def parse_word(text: str) -> Word:
    """Parse a word from text.

    Two forms are accepted: a contiguous digit string such as "212231"
    (letters 1-9 only), or comma/space-separated integers such as
    "10,2,10,3" for larger alphabets.  Letters are ASCII digits in both.

    >>> parse_word("212231")
    (2, 1, 2, 2, 3, 1)
    >>> parse_word("10 2 10 3")
    (10, 2, 10, 3)
    """
    s = text.strip()
    if _SEPARATOR_RE.search(s):
        tokens = [tok for tok in _SEPARATOR_RE.split(s) if tok]
    else:
        tokens = list(s)
    if not tokens:  # "", or separators only
        raise ParseError("empty word text")
    # str.isdigit alone admits other scripts' digits, which int() reads or rejects.
    if not all(tok.isascii() and tok.isdigit() for tok in tokens):
        raise ParseError(f"not a word: {text!r}")
    letters = tuple(int(tok) for tok in tokens)
    if any(x < 1 for x in letters):
        raise ParseError(f"letters must be positive: {text!r}")
    return letters


def format_word(w: Sequence[int]) -> str:
    """Digit string when every letter fits one digit, else comma-separated."""
    if all(1 <= x <= 9 for x in w):
        return "".join(str(x) for x in w)
    return ",".join(str(x) for x in w)


def format_index_set(s: Iterable[int]) -> str:
    """Brace-delimited ascending rendering, e.g. "{2,3,4,8}"."""
    return "{" + ",".join(str(x) for x in sorted(s)) + "}"


# ------------------------------------------------------------- coding map

def code(w: Sequence[int]) -> Permutation:
    """Standardize a word to a permutation, equal letters ranked left to right,
    returned as a `Permutation`.

    >>> code((2, 1, 2, 2, 3, 1))
    (3, 1, 4, 5, 6, 2)
    """
    if not w:
        raise EmptyInputError("cannot code an empty word")
    ranks = [0] * len(w)
    # The sort is stable, so equal letters keep their left-to-right order.
    for rank, i in enumerate(sorted(range(len(w)), key=w.__getitem__), start=1):
        ranks[i] = rank
    return Permutation(ranks)  # the ranks are 1..n, each once


def sorted_word(letters: Iterable[int]) -> Word:
    """The nondecreasing word carrying a multiset of letters."""
    return tuple(sorted(letters))


def block_boundaries(letters: Iterable[int]) -> frozenset[int]:
    """Positions where a letter run of the sorted word ends, except the last.

    These are the only values the inverse descent set of a compatible
    permutation may contain.

    >>> sorted(block_boundaries((1, 1, 2, 2)))
    [2]
    """
    w = sorted_word(letters)
    return frozenset(i for i in range(1, len(w)) if w[i - 1] != w[i])


def decode(p: Sequence[int], letters: Iterable[int]) -> Word:
    """Invert the coding map: reletter `p` by the sorted letters of a multiset.

    Defined only for permutations compatible with the multiset, i.e. those
    whose inverse descent set lies in its run boundaries: those `code` gives back.

    >>> decode((3, 1, 4, 5, 6, 2), (2, 1, 2, 2, 3, 1))
    (2, 1, 2, 2, 3, 1)
    >>> decode((2, 1), (1, 1))
    Traceback (most recent call last):
    mahonian.errors.NotCompatibleError: (2, 1) is not compatible with the class of 11
    """
    wbar = sorted_word(letters)
    try:  # a letter that is not an int is left out, so the round trip fails
        out = tuple([wbar[x - 1] for x in p if type(x) is int])
        if len(p) == len(wbar) and (not p or code(out) == tuple(p)):
            return out
    except (IndexError, EmptyInputError):  # a letter past the end of wbar, or none left
        pass
    check_permutation(p)
    if len(p) != len(wbar):
        raise SizeMismatchError(f"permutation size {len(p)} != multiset size {len(wbar)}")
    raise NotCompatibleError(f"{tuple(p)} is not compatible with the class of {format_word(wbar)}")


# ------------------------------------------------------------- statistics

def descent_set(w: Sequence[int]) -> frozenset[int]:
    """Positions i with w_i > w_{i+1}."""
    # One pass carrying the previous letter: no subscripts, no generator frame.
    descents, i, prev = [], 0, w[0] if w else 0
    for x in w:
        if prev > x:
            descents.append(i)
        prev = x
        i += 1
    return frozenset(descents)


def inverse_descent_set(w: Sequence[int]) -> frozenset[int]:
    """Values v of the coded word such that v+1 appears before v.  A
    `Permutation` is its own code, read in one pass without a sort."""
    if not w:
        raise EmptyInputError("inverse descents of an empty word are undefined")
    if type(w) is Permutation:
        # v is an inverse descent when v+1 was seen before it; flags 0..n+1.
        seen, ids = [False] * (len(w) + 2), []
        for x in w:
            if seen[x + 1]:
                ids.append(x)
            seen[x] = True
        return frozenset(ids)
    # order[v - 1] is the position of the letter that codes to v.
    order = sorted(range(len(w)), key=w.__getitem__)
    return frozenset(v for v in range(1, len(w)) if order[v] < order[v - 1])


def shuffle_set(w: Sequence[int]) -> frozenset[int]:
    """Positions where the word crosses the threshold set by its first letter.

    >>> sorted(shuffle_set((5, 4, 6, 7, 3, 1, 9, 8, 2)))
    [1, 2, 4, 6, 8]
    """
    if not w:
        raise EmptyInputError("shuffle set of an empty word is undefined")
    first = w[0]
    return frozenset(
        i
        for i in range(1, len(w))
        if (w[i - 1] >= first > w[i]) or (w[i - 1] < first <= w[i])
    )


def adj(w: Sequence[int]) -> int:
    """Count positions of the coded word where an entry is followed by its
    predecessor, with a trailing sentinel 0 (so the last term fires iff the
    coded word ends in 1).  A `Permutation` is its own code."""
    if not w:
        raise EmptyInputError("Adj of an empty word is undefined")
    # One pass carrying the previous letter, as `descent_set`; the sentinel
    # is the last term.
    count, prev = 0, 0
    for x in w if type(w) is Permutation else code(w):
        if prev == x + 1:
            count += 1
        prev = x
    return count + (prev == 1)


def _stat(w: Sequence[int], d: frozenset[int]) -> int:
    """STAT from the descent set d of w: (n+1)*des - #{j : w_j < w_1} - MAJ.

    STAT is the six-term vincular pattern sum `patterns.eval_sum("STAT_w")`.
    Lemma 3.4 gives it as (n+1)*des - (F-1) - MAJ on permutations; by eq. 2
    coding keeps STAT, des and MAJ, and F-1 of the coded word counts the
    letters below w_1; on a `Permutation` that count is w_1 - 1.  The checks
    lemma-3.4 and eq-2 compare against the pattern sum itself.

    >>> stat((2, 1, 2, 1))
    4
    >>> stat((4, 3, 4, 4, 2, 1, 6, 5, 1))
    21
    """
    first = w[0] if w else 1
    below = first - 1 if type(w) is Permutation else len([x for x in w if x < first])
    return (len(w) + 1) * len(d) - below - sum(d)


def first_letter(w: Sequence[int]) -> int:
    """F, the first letter."""
    if not w:
        raise EmptyInputError("F of an empty word is undefined")
    return w[0]


@dataclass(frozen=True, slots=True)
class Projection:
    """A statistic `fn(w, value)` of a word and the value of another entry of
    `STATISTICS`, its source.  Called alone, it looks its source up at each
    call; a `reader` looks it up when it is built.  Either way a replaced
    source is seen."""

    source: str
    fn: Callable[[Sequence[int], object], object]

    def __call__(self, w: Sequence[int]) -> object:
        return self.fn(w, STATISTICS[self.source](w))


stat = Projection("D-set", _stat)

# Every statistic by name.  des, MAJ and STAT are read off the descent set,
# ides and IMAJ off the inverse descent set; index sets are the frozensets
# the functions above return.
STATISTICS: dict[str, Callable[[Sequence[int]], object]] = {
    "F": first_letter,
    "des": Projection("D-set", lambda w, d: len(d)),
    "ides": Projection("Id-set", lambda w, d: len(d)),
    "adj": adj,
    "maj": Projection("D-set", lambda w, d: sum(d)),
    "imaj": Projection("Id-set", lambda w, d: sum(d)),
    "stat": stat,
    "D-set": descent_set,
    "Id-set": inverse_descent_set,
    "Sh-set": shuffle_set,
}

# Column heading of each statistic in tables and reports; the CLI also
# accepts a heading wherever it takes a statistic name.
HEADINGS: dict[str, str] = {
    "F": "F",
    "des": "des",
    "ides": "ides",
    "adj": "Adj",
    "maj": "MAJ",
    "imaj": "IMAJ",
    "stat": "STAT",
    "D-set": "D",
    "Id-set": "Id",
    "Sh-set": "Sh",
}


def statistic(name: str) -> Callable[[Sequence[int]], object]:
    """Look up a statistic extractor by name; index sets come back as frozensets."""
    try:
        return STATISTICS[name]
    except KeyError:
        raise UnknownNameError(
            f"unknown statistic {name!r}; known: {', '.join(STATISTICS)}"
        ) from None


def format_statistic(value: object) -> str:
    """A statistic value as text: an index set in braces, a number as is."""
    return format_index_set(value) if isinstance(value, frozenset) else str(value)


# A reader's code depends only on its schema's shape: which distinct entry
# each name reads, and whether through a projection.  Its text holds only
# indices; each reader is a new function over that code, with the keys,
# entries and projections bound in its namespace when it is built, so it
# calls the entries in place then.  The cache holds code only, and like
# `patterns._counter`'s it is bounded.
@functools.lru_cache(maxsize=64)
def _read_code(shape: tuple[tuple[int, bool], ...]) -> CodeType:
    lines = ["def read(w, row):"]
    for k in range(len({k for k, _ in shape})):
        lines += [
            f"    if k{k} in row:",
            f"        v{k} = row[k{k}]",
            "    else:",
            f"        v{k} = row[k{k}] = e{k}(w)",
        ]
    values = [f"p{i}(w, v{k})" if projected else f"v{k}" for i, (k, projected) in enumerate(shape)]
    lines.append(f"    return ({''.join(value + ', ' for value in values)})")
    module = compile("\n".join(lines) + "\n", "<profile reader>", "exec")
    return next(c for c in module.co_consts if isinstance(c, CodeType))


def reader(names: Sequence[str]) -> Callable[[Sequence[int], dict], tuple]:
    """A function `read(w, row)` of the named statistics of a word.  Each
    name is looked up in `STATISTICS` once, here; a projection reads its
    source entry.  `read` computes each source and each plain entry of the
    word once into `row`, keyed by its name, so readers that share a row
    share them, and applies the projections at each read.

    >>> read = reader(("des", "maj", "Id-set", "ides"))
    >>> read((2, 1, 1, 2), {})
    (1, 1, frozenset({2}), 1)
    """
    keys: dict[str, int] = {}
    namespace: dict = {}
    shape = []
    for i, name in enumerate(names):
        f = statistic(name)  # raises UnknownNameError
        projected = type(f) is Projection
        key = f.source if projected else name
        if key not in keys:
            k = keys[key] = len(keys)
            namespace[f"k{k}"], namespace[f"e{k}"] = key, STATISTICS[key]
        if projected:
            namespace[f"p{i}"] = f.fn
        shape.append((keys[key], projected))
    return FunctionType(_read_code(tuple(shape)), namespace)


# ------------------------------------------------------- reverse-complement

def reverse_complement(p: Sequence[int]) -> Word:
    """Reversal and complement x -> n+1-x of a permutation, in either order."""
    check_permutation(p)
    n = len(p)
    return tuple(n + 1 - x for x in reversed(p))
