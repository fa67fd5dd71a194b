"""
Vincular patterns and pattern-sum statistics.

A vincular pattern is a classical (order-isomorphic subsequence) pattern in
which designated letters must also sit in consecutive positions of the host
word.  Textually a pattern is written as dash-separated digit blocks:
letters inside a block must be adjacent in the host, letters in different
blocks need not be.  So "31-4-2" matches occurrences of 3142 whose first two
letters are adjacent.

Patterns may repeat letters ("21-2"): equal pattern letters must be matched
by equal host letters, distinct ones by host letters in the same strict
order.  Each pattern is compiled on first use into, per block, the
comparisons its letters must reproduce against earlier letters, and
counting places one block at a time.  The counter stays generic in the
pattern, since it is the oracle that the verifier holds the closed-form
STAT kernel to; the tests compare it with a naive backtracker and with a
scan of every index tuple.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import ParseError, UnknownNameError

_PATTERN_RE = re.compile(r"[1-9]+(?:-[1-9]+)*")


@dataclass(frozen=True)
class VincularPattern:
    """Pattern letters plus, for each neighbouring pair, an adjacency flag."""

    letters: tuple[int, ...]
    glued: tuple[bool, ...]

    def __post_init__(self) -> None:
        if not self.letters:
            raise ParseError("pattern needs at least one letter")
        if len(self.glued) != len(self.letters) - 1:
            raise ParseError("adjacency flags must cover consecutive letter pairs")
        if set(self.letters) != set(range(1, max(self.letters) + 1)):
            raise ParseError(f"pattern letters must cover 1..max without gaps: {self.letters}")

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Maximal runs of letters required to be adjacent."""
        out: list[list[int]] = [[self.letters[0]]]
        for letter, stuck in zip(self.letters[1:], self.glued):
            if stuck:
                out[-1].append(letter)
            else:
                out.append([letter])
        return tuple(tuple(block) for block in out)

    def __str__(self) -> str:
        return "-".join("".join(str(x) for x in block) for block in self.blocks)

    @cached_property
    def _compiled(self) -> tuple[tuple[int, tuple], ...]:
        """Per block: how many letters run from its start to the pattern's end,
        and for each of its letter indices i the pairs (d, sign(letters[i] -
        letters[d])) over d < i."""
        letters = self.letters
        out, first = [], 0
        for block in self.blocks:
            checks = tuple(
                (i, tuple((d, (a > b) - (a < b)) for d, b in enumerate(letters[:i])))
                for i, a in enumerate(letters[first : first + len(block)], first)
            )
            out.append((len(letters) - first, checks))
            first += len(block)
        return tuple(out)


def parse_pattern(text: str) -> VincularPattern:
    """Parse dash-separated digit blocks into a pattern.

    >>> parse_pattern("31-4-2").letters
    (3, 1, 4, 2)
    >>> parse_pattern("31-4-2").glued
    (True, False, False)
    """
    s = text.strip()
    if not _PATTERN_RE.fullmatch(s):
        raise ParseError(f"not a valid pattern: {text!r}")
    blocks = s.split("-")
    letters = tuple(int(ch) for block in blocks for ch in block)
    glued: list[bool] = []
    for block in blocks:
        glued.extend([True] * (len(block) - 1))
        glued.append(False)
    glued.pop()
    return VincularPattern(letters, tuple(glued))


def count_occurrences(pattern: VincularPattern, word: Sequence[int]) -> int:
    """Number of occurrences of `pattern` in `word`.

    An occurrence is an index tuple i_1 < ... < i_r, consecutive wherever the
    pattern demands adjacency, whose letters compare pairwise exactly like
    the pattern letters (equal matches equal, smaller matches smaller).

    >>> count_occurrences(parse_pattern("3-1-4-2"), (4, 1, 2, 5, 3))
    2
    >>> count_occurrences(parse_pattern("31-4-2"), (4, 1, 2, 5, 3))
    1
    """
    blocks = pattern._compiled
    n, last = len(word), len(blocks) - 1
    got = [0] * blocks[0][0]  # host letter matched to each pattern letter so far

    def place(b: int, lo: int) -> int:
        need, checks = blocks[b]
        total = 0
        for start in range(lo, n - need + 1):
            q = start
            for i, pairs in checks:
                x = word[q]
                for d, sign in pairs:
                    y = got[d]
                    if (x > y) - (x < y) != sign:
                        break
                else:  # the host letter at q fits pattern letter i
                    got[i] = x
                    q += 1
                    continue
                break
            else:  # the whole block fits at `start`
                total += 1 if b == last else place(b + 1, q)
        return total

    return place(0, 0)


@dataclass(frozen=True)
class PatternSum:
    """A statistic obtained by adding the occurrence counts of several patterns."""

    terms: tuple[VincularPattern, ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("a pattern sum needs at least one term")


# Adjacency decompositions of the classical Mahonian statistics on
# permutations, and the word analogues of MAJ and STAT whose extra
# repeated-letter terms vanish on permutations.
_SUM_SPECS: dict[str, tuple[str, ...]] = {
    "INV": ("21", "3-12", "3-21", "2-31"),
    "MAJ": ("21", "1-32", "2-31", "3-21"),
    "MAK": ("21", "1-32", "2-31", "32-1"),
    "STAT": ("21", "13-2", "21-3", "32-1"),
    "MAJ_w": ("1-32", "1-21", "2-31", "2-21", "3-21", "21"),
    "STAT_w": ("21-3", "21-2", "13-2", "12-1", "32-1", "21"),
}

NAMED_SUMS: tuple[str, ...] = tuple(_SUM_SPECS)

_CACHE: dict[str, PatternSum] = {}


def named_sum(name: str) -> PatternSum:
    """Look up one of the built-in pattern sums by its exact name."""
    if name not in _SUM_SPECS:
        raise UnknownNameError(f"unknown pattern sum {name!r}; known: {', '.join(NAMED_SUMS)}")
    if name not in _CACHE:
        _CACHE[name] = PatternSum(tuple(parse_pattern(t) for t in _SUM_SPECS[name]))
    return _CACHE[name]


def eval_sum(patterns: PatternSum | str, word: Sequence[int]) -> int:
    """Evaluate a pattern sum (or a named one, e.g. "MAJ_w") on a word.

    >>> eval_sum("MAJ_w", (2, 1, 2, 1))
    4
    """
    if isinstance(patterns, str):
        patterns = named_sum(patterns)
    return sum(count_occurrences(term, word) for term in patterns.terms)
