"""
Standard Young tableaux and the row-insertion (RSK) correspondence.

Row insertion bumps the smallest entry strictly greater than the inserted
value; the recording tableau marks the cell created at each step.  The
correspondence is a bijection between permutations of 1..n and pairs of
same-shape standard tableaux with n cells.

`foata_j` is the tableau-switching involution: pair the insertion tableau
of a permutation with the recording tableau of its reverse-complement and
invert.  It preserves the inverse descent set and reflects the descent set
(i goes to n-i), which is exactly what the involutions in
:mod:`mahonian.involution` need from it.  As Q(rc(p)) = evac(Q(p))
(Schützenberger; Stanley, EC2, App. A1), `foata_j` inserts p once and reads
rc(p)'s recording rows from `_EVACUATED`, keyed by p's.  A miss inserts
rc(p) and stores the rows, each a function of Q(p) alone.

A sweep meets the same few standardized subwords many times (the
permutations of size at most 7 have 874 of them), so `phi` switches them
through `switch`, whose memo `_switch` keeps up to 1,024 switched subwords.
Both caches take only words of at most `_CACHED_LETTERS` (10) letters.
That admits every subword of a permutation of up to 11 letters, and bounds
`_EVACUATED` by the 13,231 standard tableaux of 1..10 cells (a few MB).  A
longer subword is rarely met again, and 1,024 of them would hold megabytes,
so it is switched and checked by `_switched` each time.  lemma-3.1 may read
evacuations `phi` stored, but an entry is a function of Q alone, computed by
the `_insert` lemma-3.1 would run, and lemma-3.1 computes each image's Id
and D from scratch: a wrong entry that moves a descent FAILs it at the first
permutation with that Q.  `_switch` keys by value, where 1 == 1.0 == True,
so the maps admit only int letters.

`Tableau` objects exist only at the public `rsk`/`inverse_rsk` boundary.
Inside, a tableau pair is the insertion rows as lists together with the
row in which each step's cell appeared, and `foata_j` runs on that form
after checking its input once.
"""
from __future__ import annotations

import functools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InternalInvariantError, NotStandardError, ShapeMismatchError
from .words import Word, check_permutation, is_permutation

_CACHED_LETTERS = 10
# Q(rc(p)) by row, keyed by Q(p) by row; tuples, which `_unbump` cannot consume.
_EVACUATED: dict[tuple[int, ...], tuple[int, ...]] = {}


@dataclass(frozen=True)
class Tableau:
    """A filling of a Young diagram, stored row by row, top row first."""

    rows: tuple[tuple[int, ...], ...]

    @classmethod
    def of(cls, rows: Iterable[Iterable[int]]) -> "Tableau":
        return cls(tuple(tuple(row) for row in rows))

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(row) for row in self.rows)

    @property
    def size(self) -> int:
        return sum(len(row) for row in self.rows)

    def validate(self) -> None:
        """Raise NotStandardError unless this is a standard Young tableau."""
        shape = self.shape
        if any(a < b for a, b in zip(shape, shape[1:])) or (shape and shape[-1] == 0):
            raise NotStandardError(f"row lengths must weakly decrease and stay positive: {shape}")
        if not is_permutation([e for row in self.rows for e in row]):
            raise NotStandardError("entries must be exactly 1..n, each once")
        for row in self.rows:
            if any(a >= b for a, b in zip(row, row[1:])):
                raise NotStandardError(f"row not strictly increasing: {row}")
        for upper, lower in zip(self.rows, self.rows[1:]):
            if any(upper[j] >= lower[j] for j in range(len(lower))):
                raise NotStandardError("columns must strictly increase downward")

    def __str__(self) -> str:
        return "\n".join(" ".join(str(e) for e in row) for row in self.rows)


def _insert(p: Sequence[int]) -> tuple[list[list[int]], list[int]]:
    """Row insertion of a permutation: the insertion rows, and for each step
    the row in which its new cell appeared (the recording tableau, by row)."""
    rows: list[list[int]] = []
    row_of_step: list[int] = []
    for x in p:
        r = 0
        for current in rows:
            if x >= current[-1]:
                current.append(x)
                break
            j = bisect_right(current, x)
            current[j], x = x, current[j]
            r += 1
        else:
            rows.append([x])
        row_of_step.append(r)
    return rows, row_of_step


def rsk(p: Sequence[int]) -> tuple[Tableau, Tableau]:
    """Insertion and recording tableaux of a permutation via row insertion.

    >>> insert, record = rsk((4, 3, 1, 2))
    >>> insert.rows, record.rows
    (((1, 2), (3,), (4,)), ((1, 4), (2,), (3,)))
    """
    check_permutation(p)
    rows, row_of_step = _insert(p)
    record_rows: list[list[int]] = [[] for _ in rows]
    for step, r in enumerate(row_of_step, start=1):
        record_rows[r].append(step)
    return Tableau.of(rows), Tableau.of(record_rows)


def inverse_rsk(insert_tab: Tableau, record_tab: Tableau) -> Word:
    """The unique permutation whose row insertion produces the given pair.

    Entries of the recording tableau are removed in decreasing order; each
    removal pops a corner of the insertion tableau and reverse-bumps it up,
    row by row, displacing the largest smaller entry.
    """
    insert_tab.validate()
    record_tab.validate()
    if insert_tab.shape != record_tab.shape:
        raise ShapeMismatchError(f"shapes differ: {insert_tab.shape} vs {record_tab.shape}")
    row_of_step = [0] * record_tab.size
    for i, row in enumerate(record_tab.rows):
        for step in row:
            row_of_step[step - 1] = i
    return _unbump([list(row) for row in insert_tab.rows], row_of_step)


def _unbump(rows: list[list[int]], row_of_step: Sequence[int]) -> Word:
    """`inverse_rsk` on insertion rows (consumed) and the recording tableau
    by row, already known to be standard and of one shape."""
    out: list[int] = []
    for i in reversed(row_of_step):
        # The largest remaining recording entry sits at the end of its row,
        # so the matching insertion cell is a corner.
        x = rows[i].pop()
        while i:
            i -= 1
            current = rows[i]
            j = bisect_left(current, x) - 1
            current[j], x = x, current[j]
        out.append(x)
    out.reverse()
    return tuple(out)


def foata_j(p: Sequence[int]) -> Word:
    """Tableau-switching involution: invert (P of p, Q of reverse-complement).

    Preserves the inverse descent set and sends each descent i to n-i.

    >>> foata_j((1, 2, 4, 3))
    (4, 1, 2, 3)
    """
    check_permutation(p)
    return _foata_j(p)


def _foata_j(p: Sequence[int]) -> Word:
    """`foata_j` on a sequence already known to be a permutation."""
    rows, row_of_step = _insert(p)
    key = tuple(row_of_step)
    rc_row_of_step = _EVACUATED.get(key)
    if rc_row_of_step is None:
        n = len(p)
        rc_rows, rc_row_of_step = _insert([n + 1 - x for x in reversed(p)])
        if list(map(len, rows)) != list(map(len, rc_rows)):
            raise InternalInvariantError(
                "insertion shape must match the reverse-complement recording shape"
            )
        if n <= _CACHED_LETTERS:
            rc_row_of_step = _EVACUATED[key] = tuple(rc_row_of_step)
    # Both come straight from `_insert`, so they are standard.
    return _unbump(rows, rc_row_of_step)


def _switched(w: Word) -> Word:
    """The switched form of a standardized subword, checked to be a permutation."""
    image = _foata_j(w)
    if len(image) != len(w) or not is_permutation(image):
        raise InternalInvariantError(f"switching sends the subword {w} to {image}")
    return image


# A bigger memo helps little at n = 9, and this one stays under a megabyte.
# An image is checked once, when computed; a refusal is not cached.
_switch = functools.lru_cache(maxsize=1024)(_switched)


def switch(w: Word) -> Word:
    """The switched form of a standardized subword, memoized up to `_CACHED_LETTERS`."""
    return _switch(w) if len(w) <= _CACHED_LETTERS else _switched(w)
