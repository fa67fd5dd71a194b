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
:mod:`mahonian.involution` need from it.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InternalInvariantError, NotStandardError, ShapeMismatchError
from .words import Word, check_permutation


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
        entries = sorted(e for row in self.rows for e in row)
        if entries != list(range(1, self.size + 1)):
            raise NotStandardError("entries must be exactly 1..n, each once")
        for row in self.rows:
            if any(a >= b for a, b in zip(row, row[1:])):
                raise NotStandardError(f"row not strictly increasing: {row}")
        for upper, lower in zip(self.rows, self.rows[1:]):
            if any(upper[j] >= lower[j] for j in range(len(lower))):
                raise NotStandardError("columns must strictly increase downward")

    def __str__(self) -> str:
        return "\n".join(" ".join(str(e) for e in row) for row in self.rows)


def rsk(p: Sequence[int]) -> tuple[Tableau, Tableau]:
    """Insertion and recording tableaux of a permutation via row insertion.

    >>> insert, record = rsk((4, 3, 1, 2))
    >>> insert.rows, record.rows
    (((1, 2), (3,), (4,)), ((1, 4), (2,), (3,)))
    """
    check_permutation(p)
    return _rsk(p)


def _rsk(p: Sequence[int]) -> tuple[Tableau, Tableau]:
    """`rsk` on a sequence already known to be a permutation."""
    insert_rows: list[list[int]] = []
    record_rows: list[list[int]] = []
    for step, value in enumerate(p, start=1):
        x = value
        row = 0
        while row < len(insert_rows):
            current = insert_rows[row]
            j = bisect_right(current, x)
            if j == len(current):
                current.append(x)
                record_rows[row].append(step)
                break
            current[j], x = x, current[j]
            row += 1
        else:
            insert_rows.append([x])
            record_rows.append([step])
    return Tableau.of(insert_rows), Tableau.of(record_rows)


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
    return _unbump(insert_tab, record_tab)


def _unbump(insert_tab: Tableau, record_tab: Tableau) -> Word:
    """`inverse_rsk` on a pair already known to be standard and of one shape."""
    rows = [list(row) for row in insert_tab.rows]
    row_of = {entry: i for i, row in enumerate(record_tab.rows) for entry in row}
    out: list[int] = []
    for step in range(record_tab.size, 0, -1):
        i = row_of[step]
        # The largest remaining recording entry sits at the end of its row,
        # so the matching insertion cell is a corner.
        x = rows[i].pop()
        for r in range(i - 1, -1, -1):
            j = bisect_left(rows[r], x) - 1
            rows[r][j], x = x, rows[r][j]
        out.append(x)
    return tuple(reversed(out))


def foata_j(p: Sequence[int]) -> Word:
    """Tableau-switching involution: invert (P of p, Q of reverse-complement).

    Preserves the inverse descent set and sends each descent i to n-i.

    >>> foata_j((1, 2, 4, 3))
    (4, 1, 2, 3)
    """
    check_permutation(p)
    n = len(p)
    insert_tab, _ = _rsk(p)
    _, record_rc = _rsk([n + 1 - x for x in reversed(p)])
    if insert_tab.shape != record_rc.shape:
        raise InternalInvariantError(
            "insertion shape must match the reverse-complement recording shape"
        )
    # Both tableaux come straight from `_rsk`, so they are standard.
    return _unbump(insert_tab, record_rc)
