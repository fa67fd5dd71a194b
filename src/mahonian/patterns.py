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
order.  Counting runs generated Python code: on first use a pattern sum,
or one pattern as a sum of one term, becomes one counter for the trie of
its terms' blocks.  Terms share a node for as long as their blocks have the
same lengths and their letters so far the same relative order, which is
when they make the same comparisons.  Each node's block is placed once, by
one loop over its start positions, which its siblings of the same length
share; each compares its letters in one guard, each letter with at most two
letters already matched; the terms that end there add their multiplicity,
and the single-letter last blocks below it are counted together in one
inner loop over the rest of the word.  The code is built from letter
indices and fixed operators only, and is kept in a small bounded cache
keyed by the terms; a `PatternSum` also holds its own.  The counter stays
generic in the pattern, since it is the oracle that the verifier holds the
closed-form STAT kernel to; the tests compare it with a naive backtracker
and with a scan of every index tuple.
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
    # A letter is glued to the next one unless a dash comes between them.
    glued = tuple(after != "-" for ch, after in zip(s, s[1:]) if ch != "-")
    return VincularPattern(tuple(int(ch) for ch in s if ch != "-"), glued)


def count_occurrences(pattern: VincularPattern, word: Sequence[int]) -> int:
    """Number of occurrences of `pattern` in `word`: the sum of one term.

    An occurrence is an index tuple i_1 < ... < i_r, consecutive wherever the
    pattern demands adjacency, whose letters compare pairwise exactly like
    the pattern letters (equal matches equal, smaller matches smaller).

    >>> count_occurrences(parse_pattern("3-1-4-2"), (4, 1, 2, 5, 3))
    2
    >>> count_occurrences(parse_pattern("31-4-2"), (4, 1, 2, 5, 3))
    1
    """
    return _counter((pattern,))(word)


# The most blocks of one term a counter is generated for.  Each block past
# the first is placed by a nested call, so a deeper term would exhaust
# Python's recursion limit (1,000 frames).
_MAX_BLOCKS = 500

# Compiled sums are cached by their terms.  Like `re`'s cache it is bounded,
# and it lets every parse of the same pattern text, one per CLI call, and
# every use of the same sum reuse the code generated for it.
@functools.lru_cache(maxsize=64)
def _counter(terms: tuple[VincularPattern, ...]) -> Callable[[Sequence[int]], int]:
    for term in terms:
        blocks = term.glued.count(False) + 1
        if blocks > _MAX_BLOCKS:
            raise BoundTooLargeError(
                f"a {blocks}-block pattern has more blocks than the limit {_MAX_BLOCKS}"
            )
    namespace: dict = {}
    exec(compile(_source(terms), "<pattern sum>", "exec"), namespace)
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


class _Node:
    """A block in the trie of a sum's terms: its letters, standardized, up to
    its end, and the index of its first letter.  Terms share a node for as
    long as their blocks have the same lengths and their letters so far the
    same relative order, which is when they make the same comparisons."""

    def __init__(self, letters: tuple[int, ...] = (), first: int = 0, reach: int = 0) -> None:
        self.letters, self.first, self.ends = letters, first, 0  # ends: terms ending here
        self.reach = reach  # the fewest letters a term through it has from `first` on
        self.children: dict[tuple[int, ...], _Node] = {}

    def tail(self) -> bool:
        """Whether this is a last block of one letter below another block."""
        return self.first > 0 and len(self.letters) == self.first + 1 and not self.children


def _source(terms: tuple[VincularPattern, ...]) -> str:
    """Python source of the counter of a sum: one function b<k> per trie node
    with blocks below, b0 the root's, which loops once over the start
    positions of the blocks below of each length but the tails.  Calls, not
    nested loops, chain the blocks, so that more blocks compile than Python
    nests loops, up to `_MAX_BLOCKS` per term.  Only indices and fixed
    operators are written."""
    root = _Node()
    for term in terms:
        node, letters = root, term.letters
        for block in term.blocks:
            first, prefix = len(node.letters), letters[: len(node.letters) + len(block)]
            values = sorted(set(prefix))
            key = tuple(values.index(a) + 1 for a in prefix)
            reach = len(letters) - first
            node = node.children.setdefault(key, _Node(key, first, reach))
            node.reach = min(node.reach, reach)
        node.ends += 1
    lines, todo, made = ["def b0(w):", "    n, lo, total = len(w), 0, 0"], [(root, 0)], 0
    while todo:
        node, k = todo.pop()
        if k:
            matched = "".join(f", x{d}" for d in range(len(node.letters)))
            lines += [f"def b{k}(w, n, lo{matched}):", "    total = 0"]
        first, siblings = len(node.letters), {}  # the blocks below, by length
        for c in node.children.values():
            if not c.tail():
                siblings.setdefault(len(c.letters) - first, []).append(c)
        for size, blocks in siblings.items():
            end, reach = first + size, min(block.reach for block in blocks)
            # Start positions leave room for the shortest term through the blocks.
            lines.append(f"    for s in range(lo, n - {reach - 1}):")
            for i in range(first, end):
                offset = f" + {i - first}" if i > first else ""
                lines.append(f"        x{i} = w[s{offset}]")
            for block in blocks:
                tests = [f"s < n - {block.reach - 1}"] if block.reach > reach else []
                tests += filter(None, (_comparison(block.letters, i) for i in range(first, end)))
                pad = "            " if tests else "        "
                lines += [f"        if {' and '.join(tests)}:"] if tests else []
                lines += [f"{pad}total += {block.ends}"] if block.ends else []
                tails = [c for c in block.children.values() if c.tail()]
                lines += [f"{pad}for x{end} in w[s + {size}:]:"] if tails else []
                for tail in tails:
                    test = _comparison(tail.letters, end)
                    lines += [f"{pad}    if {test}:", f"{pad}        total += {tail.ends}"]
                if len(tails) < len(block.children):
                    made += 1
                    matched = "".join(f", x{d}" for d in range(end))
                    lines.append(f"{pad}total += b{made}(w, n, s + {size}{matched})")
                    todo.append((block, made))
        lines.append("    return total")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class PatternSum:
    """A statistic obtained by adding the occurrence counts of several patterns."""

    terms: tuple[VincularPattern, ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("a pattern sum needs at least one term")

    @functools.cached_property
    def counter(self) -> Callable[[Sequence[int]], int]:
        """The compiled counter of the sum, held here so that evaluating the
        sum does not rehash its terms."""
        return _counter(self.terms)


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
    return patterns.counter(word)
