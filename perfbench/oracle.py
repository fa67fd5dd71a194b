"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports `mahonian`: every value is computed from definitions,
so a defect in the measured code cannot make its own output look right.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from itertools import combinations

# Closed-form instance counts of the verify checks at n <= 7, alphabet 3.
N, ALPHABET = 7, 3
PERM_INSTANCES = sum(math.factorial(k) for k in range(1, N + 1))  # 5,913
CUBE_INSTANCES = sum(m**k for m in range(1, ALPHABET + 1) for k in range(1, N + 1))  # 3,540
CLASS_INSTANCES = sum(ALPHABET**k for k in range(1, N + 1))  # 3,279
PROP_INSTANCES = sum(math.comb(k + ALPHABET - 1, k) for k in range(1, N + 1))  # 119

EXPECTED_INSTANCES = {
    "thm-1.1": PERM_INSTANCES,
    "thm-1.3": PERM_INSTANCES,
    "lemma-3.1": PERM_INSTANCES,
    "lemma-3.4": PERM_INSTANCES,
    "lemma-3.5": PERM_INSTANCES,
    "thm-1.2": CUBE_INSTANCES,
    "eq-2": CUBE_INSTANCES,
    "cor-1.4": CLASS_INSTANCES,
    "cor-1.5": CLASS_INSTANCES,
    "prop-2.4": PROP_INSTANCES,
}


def code(w):
    """Standardization: equal letters ranked left to right."""
    order = sorted(range(len(w)), key=lambda i: (w[i], i))
    ranks = [0] * len(w)
    for rank, i in enumerate(order, start=1):
        ranks[i] = rank
    return tuple(ranks)


def descents(w):
    return [i for i in range(1, len(w)) if w[i - 1] > w[i]]


def inverse_descents(w):
    c = code(w)
    where = {v: i for i, v in enumerate(c)}
    return [v for v in range(1, len(c)) if where[v + 1] < where[v]]


def shuffle_set(w):
    f = w[0]
    return [
        i
        for i in range(1, len(w))
        if (w[i - 1] >= f > w[i]) or (w[i - 1] < f <= w[i])
    ]


def adj(w):
    c = code(w) + (0,)
    return sum(1 for j in range(len(w)) if c[j] == c[j + 1] + 1)


def stat(w):
    """STAT(w) = (n+1)*des(c) - (F(c)-1) - MAJ(c) with c = code(w)."""
    c = code(w)
    d = descents(c)
    return (len(c) + 1) * len(d) - (c[0] - 1) - sum(d)


def stats_record(w):
    """The fields `mahonian stats` prints, computed from the definitions."""
    d, i = descents(w), inverse_descents(w)
    return {
        "Adj": str(adj(w)),
        "des": str(len(d)),
        "ides": str(len(i)),
        "F": str(w[0]),
        "IMAJ": str(sum(i)),
        "MAJ": str(sum(d)),
        "STAT": str(stat(w)),
        "D": "{" + ",".join(map(str, d)) + "}",
        "Id": "{" + ",".join(map(str, i)) + "}",
        "Sh": "{" + ",".join(map(str, shuffle_set(w))) + "}",
    }


def count_31_4_2(w):
    """Occurrences of the vincular pattern 31-4-2, by brute force: each
    adjacent pair (a, a+1) that can play "31" is extended by every pair of
    later positions from itertools.combinations."""
    n, total = len(w), 0
    for a in range(n - 1):
        hi, lo = w[a], w[a + 1]
        if hi <= lo:
            continue
        for c, d in combinations(range(a + 2, n), 2):
            if w[c] > hi > w[d] > lo:
                total += 1
    return total


def inverse_rsk(p_rows, q_rows):
    """The permutation whose row insertion gives (P, Q)."""
    rows = [list(r) for r in p_rows]
    row_of = {e: i for i, r in enumerate(q_rows) for e in r}
    out = []
    for step in range(sum(len(r) for r in q_rows), 0, -1):
        i = row_of[step]
        x = rows[i].pop()
        for r in range(i - 1, -1, -1):
            j = bisect_left(rows[r], x) - 1
            rows[r][j], x = x, rows[r][j]
        out.append(x)
    return tuple(reversed(out))


def is_standard(rows):
    shape = [len(r) for r in rows]
    if any(a < b for a, b in zip(shape, shape[1:])):
        return False
    if sorted(e for r in rows for e in r) != list(range(1, sum(shape) + 1)):
        return False
    if any(a >= b for r in rows for a, b in zip(r, r[1:])):
        return False
    return all(up[j] < low[j] for up, low in zip(rows, rows[1:]) for j in range(len(low)))
