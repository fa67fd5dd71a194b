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
order.  Counting runs generated Python code: on first use a pattern becomes
one small function per block, which places the block at each start
position, compares each of its letters inline with at most two letters
already matched, and calls the next block's function.  The code is built
from letter indices and fixed operators only, and is kept in a small
bounded cache keyed by the pattern.  The counter stays generic in the
pattern, since it is the oracle that the verifier holds the closed-form
STAT kernel to; the tests compare it with a naive backtracker and with a
scan of every index tuple.
"""
from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import BoundTooLargeError, ParseError, UnknownNameError

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
    return _counter(pattern.letters, pattern.glued)(word)


# The most blocks a counter is generated for.  Each block is one nested call,
# so a deeper pattern would exhaust Python's recursion limit (1,000 frames).
_MAX_BLOCKS = 500


# Generated counters are cached by pattern letters and adjacency flags, plain
# tuples that hash faster than the pattern.  Like `re`'s cache it is bounded,
# and it lets every parse of the same pattern text, one per CLI call, reuse
# the code generated for it.
@functools.lru_cache(maxsize=64)
def _counter(letters: tuple[int, ...], glued: tuple[bool, ...]) -> Callable[[Sequence[int]], int]:
    pattern = VincularPattern(letters, glued)
    blocks = len(pattern.blocks)
    if blocks > _MAX_BLOCKS:
        raise BoundTooLargeError(
            f"a {blocks}-block pattern has more blocks than the limit {_MAX_BLOCKS}"
        )
    namespace: dict = {}
    exec(compile(_source(pattern), "<vincular pattern>", "exec"), namespace)
    return namespace["b0"]


def _comparison(letters: tuple[int, ...], i: int) -> str:
    """The comparison that host letter x<i> must pass, given that the host
    letters matched before it already compare like their pattern letters:
    equality with an earlier equal letter if there is one, else strict
    order between the nearest earlier letters below and above it."""
    a, earlier = letters[i], letters[:i]
    if a in earlier:
        return f"x{i} == x{earlier.index(a)}"
    chain = [f"x{i}"]
    below, above = [b for b in earlier if b < a], [b for b in earlier if b > a]
    if below:
        chain.insert(0, f"x{earlier.index(max(below))}")
    if above:
        chain.append(f"x{earlier.index(min(above))}")
    return " < ".join(chain) if len(chain) > 1 else ""


def _source(pattern: VincularPattern) -> str:
    """Python source of the counter: one function b<k> per block, which tries
    each start position for its letters and calls b<k+1> with the host letters
    matched so far.  Calls, not nested loops, chain the blocks, so that more
    blocks compile than Python nests loops, up to `_MAX_BLOCKS`.  Only
    indices and fixed operators are written."""
    letters, blocks = pattern.letters, pattern.blocks
    lines, first = [], 0
    for k, block in enumerate(blocks):
        end = first + len(block)
        if k == 0:
            lines += ["def b0(w):", "    n, lo = len(w), 0"]
        else:
            lines.append(f"def b{k}(w, n, lo, {', '.join(f'x{d}' for d in range(first))}):")
        # Start positions leave room for this block and every later one.
        lines += ["    total = 0", f"    for s in range(lo, n - {len(letters) - first - 1}):"]
        for i in range(first, end):
            offset = f" + {i - first}" if i > first else ""
            lines.append(f"        x{i} = w[s{offset}]")
            test = _comparison(letters, i)
            if test:
                lines += [f"        if not ({test}):", "            continue"]
        if k == len(blocks) - 1:
            lines.append("        total += 1")
        else:
            matched = ", ".join(f"x{d}" for d in range(end))
            lines.append(f"        total += b{k + 1}(w, n, s + {len(block)}, {matched})")
        lines.append("    return total")
        first = end
    return "\n".join(lines) + "\n"


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


@functools.cache
def named_sum(name: str) -> PatternSum:
    """Look up one of the built-in pattern sums by its exact name."""
    if name not in _SUM_SPECS:
        raise UnknownNameError(f"unknown pattern sum {name!r}; known: {', '.join(NAMED_SUMS)}")
    return PatternSum(tuple(parse_pattern(t) for t in _SUM_SPECS[name]))


def eval_sum(patterns: PatternSum | str, word: Sequence[int]) -> int:
    """Evaluate a pattern sum (or a named one, e.g. "MAJ_w") on a word.

    >>> eval_sum("MAJ_w", (2, 1, 2, 1))
    4
    """
    if isinstance(patterns, str):
        patterns = named_sum(patterns)
    return sum(count_occurrences(term, word) for term in patterns.terms)
