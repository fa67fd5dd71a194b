"""
Bounded exhaustive verification.

Enumerates symmetric groups, word cubes [m]^n and rearrangement classes,
builds joint statistic distributions, and runs a registry of named checks.
Where a check asserts a statistic swap under one of the involutions it is
verified pointwise, element by element, together with the map being an
involution there: the image of each word's image must be the word.  A
pointwise swap by a bijection gives the equidistribution, and any failure
is localized to one word.

Each check scans its domain in lexicographic order and reports the instance
count, from the closed forms that the cap is held to, plus the first
counterexample, if any.  Domains are partitioned into lexicographically
contiguous chunks: first-letter slices of S_n and of each cube [a]^k with
k >= 2, the whole of [a]^1, runs of consecutive classes of one size up to a
fixed number of words, and for prop-2.4 the multisets of one size.  The
involutions fix the first letter and the class, so every image lies in its
word's chunk: a swap check walks the chunk by involution pairs, maps and
profiles each word once, and holds only the images it has vouched for until
the walk reaches them.  thm-1.2's sextuple includes F, so it holds on a cube
exactly when it holds on each slice, and it is judged per slice.

A task is one chunk, judged in one pass by every check of the run that
shares its chunk function: a single check is a pass of one, and `run_all`
runs one pass per chunk for the five S_n checks, for thm-1.2 and eq-2, and
for cor-1.4 and cor-1.5.  A pass hands each word to every check that has
not failed yet, with a row made afresh for the word, in which each image
and statistic of the word and of its images is computed once for all of
them: statistics read by `words.reader`s that each check builds when the
pass starts, and each image with its own row nested in the word's.  Each
check keeps its own judge and first failure, and across words only what its
verdict needs: a swap walk the images it vouched for, to skip them; thm-1.2
its tally, judged once the slice is read; prop-2.4 its counts of S_k by
inverse descent set, which every multiset of size k reads.  eq-2 and the
lemmas judge each word alone.  A run sends every task to one executor,
serial or, when it has more than one worker, a single process pool that
takes the largest tasks first and is imported only then; the results merge
in check and chunk order, so every report is identical either way.  The
S_n enumerator yields each permutation as a `words.Permutation`, whose maps
skip their input check and whose Id, STAT and Adj are read without a sort.
A swap walk checks each image of a permutation once, with
`words.is_permutation`, and carries it as a `words.Permutation` into its
profile and its map back; an image that is no permutation stays a plain
tuple, and its map back refuses it.
"""
from __future__ import annotations

import functools
import math
import operator
import os
from collections import Counter
from dataclasses import dataclass
from itertools import combinations_with_replacement, count, groupby, islice, product
from itertools import permutations as _permutations
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import involution, patterns, words
from .errors import (
    DEFAULT_CAP,
    WRITTEN_COUNT_LIMIT,
    UnknownNameError,
    refuse_over_cap,
)
from .tableaux import foata_j
# The statistic table lives in `words`; `verify.STATISTICS` is the same dict.
from .words import HEADINGS, STATISTICS, Permutation, Word, statistic

# ------------------------------------------------------------------ domains


def symmetric_group(n: int, *head: int) -> Iterator[Word]:
    """All permutations of 1..n that begin with `head`, in lexicographic order.

    `head` is checked once to be distinct int letters of 1..n, so every word
    yielded is a permutation, and is yielded as a `words.Permutation`.
    """
    rest = [v for v in range(1, n + 1) if v not in head]
    if len(head) + len(rest) != n or not {int}.issuperset(map(type, head)):
        raise ValueError(f"a head of S_{n} needs distinct int letters of 1..{n}: {head}")
    return (Permutation(head + tail) for tail in _permutations(rest))


def word_cube(m: int, n: int, *head: int) -> Iterator[Word]:
    """All length-n words over 1..m that begin with `head`, in lexicographic order."""
    if len(head) > n or not all(type(x) is int and 1 <= x <= m for x in head):
        raise ValueError(f"a head of [{m}]^{n} needs at most {n} int letters of 1..{m}: {head}")
    return (head + tail for tail in product(range(1, m + 1), repeat=n - len(head)))


def rearrangement_class(letters: Iterable[int]) -> Iterator[Word]:
    """All distinct rearrangements of the given letters, lexicographic.

    >>> list(rearrangement_class((1, 1, 2)))
    [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    """
    current = sorted(letters)
    n = len(current)
    while True:
        yield tuple(current)
        i = n - 2
        while i >= 0 and current[i] >= current[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while current[j] <= current[i]:
            j -= 1
        current[i], current[j] = current[j], current[i]
        current[i + 1 :] = reversed(current[i + 1 :])


def multinomial(letters: Iterable[int]) -> int:
    """Number of distinct rearrangements of the letters, as a product of one
    binomial per letter, so that the factorial of the length is never formed."""
    total, size = 1, 0
    for c in Counter(letters).values():
        size += c
        total *= math.comb(size, c)
    return total


def multisets(max_letter: int, max_size: int) -> Iterator[Word]:
    """Nondecreasing words over 1..max_letter of every length 1..max_size."""
    for n in range(1, max_size + 1):
        yield from combinations_with_replacement(range(1, max_letter + 1), n)


def _compatible_by_id(wbar: Word) -> frozenset[Word]:
    """The permutations whose inverse descent set, read through `STATISTICS`,
    stays inside the run boundaries of the sorted word `wbar`."""
    ids, bounds = statistic("Id-set"), words.block_boundaries(wbar)
    return frozenset(p for p in symmetric_group(len(wbar)) if ids(p) <= bounds)


# --------------------------------------------------------------- statistics


def joint_distribution(domain: Iterable[Sequence[int]], schema: Sequence[str]) -> Counter:
    """Multiset of statistic tuples over a domain of words."""
    read = words.reader(schema)  # raises UnknownNameError on an unknown name
    return Counter(read(w, {}) for w in domain)


# ------------------------------------------------------------------ reports


@dataclass(frozen=True)
class Counterexample:
    input: str
    expected: str
    actual: str


@dataclass(frozen=True)
class CheckReport:
    name: str
    domain: str
    instances: int
    passed: bool
    counterexample: Counterexample | None = None

    def lines(self) -> list[str]:
        verdict = "PASS" if self.passed else "FAIL"
        head = f"{verdict} {self.name} ({self.domain}): {self.instances} instances"
        if self.counterexample is None:
            return [head]
        ce = self.counterexample
        return [
            head,
            f"    input:    {ce.input}",
            f"    expected: {ce.expected}",
            f"    actual:   {ce.actual}",
        ]


@dataclass(frozen=True)
class CheckBounds:
    """Size parameters for a check run.

    `n` is the permutation size for symmetric-group checks and the maximum
    word length elsewhere; `alphabet` bounds the letters of word domains;
    `word` restricts class checks to a single rearrangement class; `cap`
    refuses domains with more elements than it; `jobs` > 1 runs every chunk
    of the run on one process pool of at most `jobs` workers, and no more
    than there are chunks in the whole run or CPUs this process may use (its
    affinity set, where the platform keeps one).  A run left with one worker
    runs serially and imports no pool.
    """

    n: int = 6
    alphabet: int = 3
    word: Word | None = None
    cap: int = DEFAULT_CAP
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.n < 1 or self.alphabet < 1 or self.cap < 1 or self.jobs < 1:
            raise ValueError("bounds must be positive")
        if self.word is not None and (not self.word or min(self.word) < 1):
            raise ValueError("a word needs at least one letter, and its letters must be >= 1")


# --------------------------------------------------------------- predicates

_SWAP_SCHEMA = ("des", "Id-set", "F", "maj", "stat")
_ADJ_SCHEMA = ("adj", "des", "F", "maj", "stat")
_SEXT_SCHEMA = ("imaj", "des", "ides", "F", "maj", "stat")
_CODE_SCHEMA = ("adj", "des", "Id-set", "maj", "stat")
_CUBE_SCHEMA = ("adj", "des", "ides", "F", "maj", "stat")
_SUM_SCHEMA = ("des", "maj", "F")


def _swapped(schema: Sequence[str]) -> tuple[str, ...]:
    """The schema with MAJ and STAT exchanged: what the image of a swap must show."""
    exchange = {"maj": "stat", "stat": "maj"}
    return tuple(exchange.get(name, name) for name in schema)


_CUBE_SWAPPED = _swapped(_CUBE_SCHEMA)


def _fmt_profile(schema: Sequence[str], values: Sequence[object]) -> str:
    names = ", ".join(HEADINGS[s] for s in schema)
    rendered = ", ".join(map(words.format_statistic, values))
    return f"({names}) = ({rendered})"


def _oracle_stat(w) -> int:
    """STAT as the pattern sum, not the kernel `words.stat`: lemma-3.4 shows it
    is the closed form on S_n and eq-2 that coding keeps it, des and MAJ, so
    together they certify the kernel on words."""
    return patterns.eval_sum("STAT_w", w)


def _mismatch(w, role, image, left_schema, left, right_schema, right) -> Counterexample:
    return Counterexample(
        input=words.format_word(w),
        expected=_fmt_profile(left_schema, left),
        actual=f"{role} {words.format_word(image)}: {_fmt_profile(right_schema, right)}",
    )


def _raised(shown: str, exc: Exception) -> Counterexample:
    return Counterexample(
        input=shown,
        expected="no exception",
        actual=f"raised {type(exc).__name__}: {exc}",
    )


# A judge is started with its chunk's arguments when its pass starts, and
# builds its `words.reader`s then, so they call the `STATISTICS` entries in
# place for the pass.  It sees each word with the word's row, a dict made
# afresh for the word and shared by every judge of the pass: the word's
# statistics, and under a map's name (image, image's row), kept by `_image`,
# so that each image and statistic of the word and of its images is computed
# once for the pass, and no word is hashed to find its row.


def _image(row: dict, map_name: str, w) -> tuple:
    """(image of w under `involution.<map_name>`, the image's row), kept in
    w's row; a fixed point's row is w's own.  The map is read from
    `involution` at each call, so that a patched one is the one checked."""
    pair = row.get(map_name)
    if pair is None:
        image = getattr(involution, map_name)(w)
        pair = row[map_name] = (image, row if image == w else {})
    return pair


class _Judge:
    """One check's judge of one chunk: `step(w, row)` judges each word in
    order and returns its failure, if any; `verdict()` judges the chunk as a
    whole once every word has passed."""

    def verdict(self) -> Counterexample | None:
        return None


class _Each(_Judge):
    """Applies `predicate(*readers, w, row)` to each word, with a reader of
    each of `schemas`."""

    def __init__(self, predicate: Callable, schemas: Sequence[tuple], args: tuple) -> None:
        self.step = functools.partial(predicate, *map(words.reader, schemas))


class _SwapWalk(_Judge):
    """The pointwise MAJ/STAT swap under `involution.<map_name>`.  Each word
    is judged in order: its map must not raise, its image must show its
    `schema` profile with MAJ and STAT exchanged, and the image of its image
    must be the word.

    The chunk is walked by involution pairs.  A word w maps to v, and v is
    profiled and, unless it is w, mapped back.  When w passes, v passes too,
    since exchanging MAJ and STAT is itself an involution on profiles; so v
    is vouched for, and skipped when the walk reaches it.  Each word is thus
    mapped and profiled once, and only the vouched words are held.  The walk
    never looks back: a word whose image precedes it and that is not vouched
    for fails, since its image does not map back to it."""

    def __init__(self, map_name: str, schema: Sequence[str], args: tuple) -> None:
        self.map_name, self.schema, self.read = map_name, schema, words.reader(schema)
        self.image_schema = _swapped(schema)
        self.columns = operator.itemgetter(*[schema.index(name) for name in self.image_schema])
        self.vouched: set[Word] = set()

    def step(self, w, row: dict) -> Counterexample | None:
        if w in self.vouched:
            self.vouched.remove(w)
            return None
        name, schema = self.map_name, self.schema
        image, image_row = _image(row, name, w)
        if type(w) is Permutation and image != w and words.is_permutation(image):
            image = Permutation(image)  # read as its own code, and mapped back unchecked
        left = self.read(w, row)
        right = self.columns(left if image == w else self.read(image, image_row))
        if left != right:
            return _mismatch(w, "image", image, schema, left, self.image_schema, right)
        if image == w:
            return None
        fmt = words.format_word
        try:
            back, _ = _image(image_row, name, image)
        except Exception as exc:  # the word fails: its image cannot be mapped back
            actual = f"raised {type(exc).__name__}: {exc}"
        else:
            if back == w:
                self.vouched.add(image)
                return None
            actual = f"= {fmt(back)}"
        return Counterexample(
            input=fmt(w),
            expected=f"{name}({name}({fmt(w)})) = {fmt(w)}",
            actual=f"{name}({fmt(image)}) {actual}",
        )


def _pred_code_sums(read, w, row):
    """eq-2: coding keeps (Adj, des, Id, MAJ), read by `read`, and the
    pattern-sum STAT, summed for w and for its code."""
    image = words.code(w)
    left = read(w, row) + (_oracle_stat(w),)
    right = left if image == w else read(image, {}) + (_oracle_stat(image),)
    if left == right:
        return None
    return _mismatch(w, "coded", image, _CODE_SCHEMA, left, _CODE_SCHEMA, right)


class _CubeTally(_Judge):
    """thm-1.2 on one chunk (a, k, ...) of a cube [a]^k: the sextuple's
    distribution must equal itself with MAJ and STAT exchanged.  A raise in
    either half fails the cube, named by its chunk."""

    def __init__(self, args: tuple) -> None:
        a, k, *_ = args
        self.read, self.counts, self.cube = words.reader(_CUBE_SCHEMA), Counter(), f"[{a}]^{k}"

    def step(self, w, row: dict) -> Counterexample | None:
        try:
            self.counts[self.read(w, row)] += 1
        except Exception as exc:  # the cube fails, named by its chunk
            return _raised(self.cube, exc)
        return None

    def verdict(self) -> Counterexample | None:
        left = self.counts
        # The swapped distribution re-indexes the columns of the same one:
        # the swapped schema permutes the schema, so no two tuples share a key.
        columns = [_CUBE_SCHEMA.index(name) for name in _CUBE_SWAPPED]
        right = Counter({tuple(t[i] for i in columns): count for t, count in left.items()})
        if left == right:
            return None
        try:
            # Both Counters list their keys in the chunk's order, so that the
            # comparisons, and any error they raise, are the same in every run.
            bad = min(t for t in (*left, *right) if left[t] != right[t])
        except Exception as exc:  # a column whose values do not compare
            return _raised(self.cube, exc)
        return Counterexample(
            input=self.cube,
            expected=f"multiplicity of {bad} in the (.., MAJ, STAT) distribution = {left[bad]}",
            actual=f"multiplicity in the (.., STAT, MAJ) distribution = {right[bad]}",
        )


def _pred_switch_sets(p, row):
    """foata_j against the descent and inverse descent sets of `words`,
    computed from scratch; nothing is read through the row."""
    n = len(p)
    image = foata_j(p)
    want_id = words.inverse_descent_set(p)
    want_d = frozenset(n - k for k in words.descent_set(p))
    got_id = words.inverse_descent_set(image)
    got_d = words.descent_set(image)
    if (want_id, want_d) == (got_id, got_d):
        return None
    fmt = words.format_index_set
    return Counterexample(
        input=words.format_word(p),
        expected=f"Id = {fmt(want_id)}, reflected D = {fmt(want_d)}",
        actual=f"image {words.format_word(image)}: Id = {fmt(got_id)}, D = {fmt(got_d)}",
    )


def _maj_sum(read, p, row: dict, term: str, value: int):
    """The counterexample, if any, to MAJ(p) + `term` = (n+1)*des(p) - (F-1).
    des, MAJ and F are read through `STATISTICS` by `read`, a reader of
    `_SUM_SCHEMA`, as the swap checks read them, so that the identity also
    pins those columns."""
    des, maj, first = read(p, row)
    lhs = maj + value
    rhs = (len(p) + 1) * des - (first - 1)
    if lhs == rhs:
        return None
    return Counterexample(
        input=words.format_word(p),
        expected=f"MAJ + {term} = (n+1)*des - (F-1) = {rhs}",
        actual=f"MAJ + {term} = {lhs}",
    )


def _pred_maj_stat_sum(read, p, row):
    return _maj_sum(read, p, row, "STAT", _oracle_stat(p))


def _pred_maj_pair_sum(read, read_maj, p, row):
    image, image_row = _image(row, "phi", p)
    (image_maj,) = read_maj(image, image_row)
    return _maj_sum(read, p, row, "MAJ(image)", image_maj)


class _Characterizations(_Judge):
    """prop-2.4: both characterizations agree, shown from counts.  The coded
    words are multinomial many permutations of S_k with Id inside the
    boundaries, and so many permutations of S_k have Id inside them, read off
    the counts of S_k by inverse descent set, grouped once per size k.  Only
    a class that disagrees builds the inverse-descent set, to name the stray
    permutation."""

    def __init__(self, args: tuple) -> None:
        self.ids = statistic("Id-set")
        self.counts = functools.cache(lambda k: Counter(map(self.ids, symmetric_group(k))))

    def step(self, wbar: Word, row: dict) -> Counterexample | None:
        k, bounds, ids = len(wbar), words.block_boundaries(wbar), self.ids
        coded = frozenset(words.code(v) for v in rearrangement_class(wbar))
        want = multinomial(wbar)
        if (
            len(coded) == want
            and all(len(p) == k and words.is_permutation(p) and ids(p) <= bounds for p in coded)
            and sum(count for s, count in self.counts(k).items() if s <= bounds) == want
        ):
            return None
        by_id, shown = _compatible_by_id(wbar), words.format_word(wbar)
        if coded != by_id:
            stray = min(coded.symmetric_difference(by_id))
            side = "coded image" if stray in coded else "inverse-descent side"
            return Counterexample(
                input=shown,
                expected="identical characterizations of the compatible permutations",
                actual=f"{words.format_word(stray)} appears only in the {side}",
            )
        if len(coded) != want:
            return Counterexample(
                input=shown,
                expected=f"{want} compatible permutations (multinomial)",
                actual=str(len(coded)),
            )
        return Counterexample(
            input=shown,
            expected=f"{want} distinct coded permutations of 1..{k}, each with Id inside the"
            f" boundaries {words.format_index_set(bounds)}, and {want} such in S_{k}",
            actual="the counts disagree, but the coded and inverse-descent sets agree",
        )


# ------------------------------------------------------------------ chunks

# A chunk function takes the picklable arguments of one lexicographically
# contiguous piece of a domain and returns its instances; for S_n and the
# cubes it is the domain's enumerator, given the chunk's head.


def _class_chunk(*classes: Word):
    """The words of each class in turn."""
    return (w for letters in classes for w in rearrangement_class(letters))


def _given(*instances: Word):
    """A chunk whose arguments are its instances."""
    return instances


class _Check(NamedTuple):
    chunk: Callable[..., Iterable]
    start: Callable[..., _Judge]  # a fresh judge of one chunk, given its args


_CHECKS: dict[str, _Check] = {
    "thm-1.1": _Check(
        symmetric_group,
        functools.partial(_SwapWalk, "burstein_p", _ADJ_SCHEMA),
    ),
    "thm-1.2": _Check(
        word_cube,
        _CubeTally,
    ),
    "thm-1.3": _Check(
        symmetric_group,
        functools.partial(_SwapWalk, "phi", _SWAP_SCHEMA),
    ),
    "cor-1.4": _Check(
        _class_chunk,
        functools.partial(_SwapWalk, "phi_on_class", _SWAP_SCHEMA),
    ),
    "cor-1.5": _Check(
        _class_chunk,
        functools.partial(_SwapWalk, "phi_on_class", _SEXT_SCHEMA),
    ),
    "lemma-3.1": _Check(
        symmetric_group,
        functools.partial(_Each, _pred_switch_sets, ()),
    ),
    "lemma-3.4": _Check(
        symmetric_group,
        functools.partial(_Each, _pred_maj_stat_sum, [_SUM_SCHEMA]),
    ),
    "lemma-3.5": _Check(
        symmetric_group,
        functools.partial(_Each, _pred_maj_pair_sum, [_SUM_SCHEMA, ("maj",)]),
    ),
    "eq-2": _Check(
        word_cube,
        functools.partial(_Each, _pred_code_sums, [_CODE_SCHEMA[:-1]]),
    ),
    "prop-2.4": _Check(
        _given,
        _Characterizations,
    ),
}

CHECK_IDS: tuple[str, ...] = tuple(_CHECKS)

_CLASS_CHECKS = tuple(
    name for name, c in _CHECKS.items() if c.chunk in (_class_chunk, _given)
)


# ------------------------------------------------------------ task running

# A task is one chunk judged by every check of the run that shares its chunk
# function, and returns each check's first failure in the chunk, so a merge
# in task order yields each check's lexicographically least counterexample
# independent of scheduling.


class _Task(NamedTuple):
    names: tuple[str, ...]  # the checks that judge the chunk, in check order
    args: tuple  # the chunk's arguments
    size: int  # the chunk's closed-form size, which orders the pool's queue


def _fused(task: _Task) -> list[Counterexample | None]:
    """Each of the task's checks' first failure on its chunk, read once: each
    word goes, in check order, to every judge that has not failed, with one
    row that lets them share the word's images and statistics."""
    judges = [_CHECKS[name].start(task.args) for name in task.names]
    failures: list[Counterexample | None] = [None] * len(judges)
    live = [(i, judge.step) for i, judge in enumerate(judges)]
    for w in _CHECKS[task.names[0]].chunk(*task.args):
        row: dict = {}
        for i, step in live:
            try:
                failures[i] = step(w, row)
            except Exception as exc:  # a map that raises on an instance fails there
                failures[i] = _raised(words.format_word(w), exc)
        if failures.count(None) < len(live):
            live = [(i, step) for i, step in live if failures[i] is None]
            if not live:
                break
    for i, _ in live:
        failures[i] = judges[i].verdict()
    return failures


def ProcessPoolExecutor(max_workers: int):
    """A process pool, imported only by a run that starts one: the import
    loads `multiprocessing`, which a serial run never needs."""
    import concurrent.futures

    return concurrent.futures.ProcessPoolExecutor(max_workers=max_workers)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    keeps one, else every CPU of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _execute(tasks: list[_Task], jobs: int) -> list[list[Counterexample | None]]:
    """The results of the tasks, in their order.  A pool is handed them
    largest first, so that the smallest tasks fill the end of the run."""
    workers = min(jobs, _usable_cpus(), len(tasks))
    if workers <= 1:
        return [_fused(task) for task in tasks]
    order = sorted(range(len(tasks)), key=lambda i: -tasks[i].size)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        results = dict(zip(order, pool.map(_fused, [tasks[i] for i in order])))
    return [results[i] for i in range(len(tasks))]


# ----------------------------------------------------------- check builders


# Consecutive classes of one size share a chunk of at most this many words;
# a larger class is a chunk of its own.
_CLASS_CHUNK_WORDS = 1024


def _class_chunks(bounds: CheckBounds, by_size: bool) -> Iterator[tuple[int, tuple[Word, ...]]]:
    """(size, arguments) of each chunk of a class sweep, generated only once
    iterated.  For prop-2.4 a chunk is every multiset of one size k, sized by
    the m^k words it codes and the k! permutations it groups; else it is a
    run of consecutive classes of one size, sized by their words."""
    m = bounds.alphabet
    for k, group in groupby(multisets(m, bounds.n), key=len):
        if by_size:
            yield m**k + math.factorial(k), tuple(group)
            continue
        chunk, size = [], 0
        for letters in group:
            words_in = multinomial(letters)
            if chunk and size + words_in > _CLASS_CHUNK_WORDS:
                yield size, tuple(chunk)
                chunk, size = [], 0
            chunk.append(letters)
            size += words_in
        yield size, tuple(chunk)


def _sum_past(terms: Iterable[int], limit: int) -> int:
    """The sum of `terms` if it is at most `limit`; else a partial sum past it."""
    total = 0
    for term in terms:
        total += term
        if total > limit:
            break
    return total


def _factorials(n: int, limit: int) -> Iterator[int]:
    """1!, 2!, ..., n!, ending early after the first one past `limit`."""
    value = 1
    for k in range(1, n + 1):
        value *= k
        yield value
        if value > limit:
            return


def _power_sums(m: int) -> Iterator[int]:
    """1^k + 2^k + ... + m^k for k = 1, 2, ..., each from the ones before by
    (m+1)^(k+1) - 1 = sum of C(k+1, j) * (1^j + ... + m^j) over j <= k."""
    sums = [m]
    for k in count(1):
        rest = sum(math.comb(k + 1, j) * s for j, s in enumerate(sums))
        sums.append(((m + 1) ** (k + 1) - 1 - rest) // (k + 1))
        yield sums[-1]


def _class_label(letters: Word) -> str:
    """R(w) for the sorted word w, by letter counts, as R(1^40 2), when shorter."""
    runs = [(x, len(list(run))) for x, run in groupby(letters)]
    counted = " ".join(str(x) if k == 1 else f"{x}^{k}" for x, k in runs)
    return f"R({min(words.format_word(letters), counted, key=len)})"


def _build(name: str, bounds: CheckBounds, sweep: bool):
    """(domain description, instance count, chunks) of one check, where each
    chunk is (closed-form size, chunk arguments).  The count is compared with
    the cap in closed form, and summed only until it is past both the cap and
    the largest count a refusal writes, so it is exact whenever the check
    runs.  Chunks are generated lazily, so an oversized check raises
    BoundTooLargeError before any instance is generated or memory allocated."""
    try:
        chunk = _CHECKS[name].chunk
    except KeyError:
        raise UnknownNameError(f"unknown check {name!r}; known: {', '.join(CHECK_IDS)}") from None
    by_size = chunk is _given
    n, m = bounds.n, bounds.alphabet
    limit = max(bounds.cap, WRITTEN_COUNT_LIMIT - 1)
    if chunk is symmetric_group:
        sizes = range(1, n + 1) if sweep else range(n, n + 1)
        domain = f"S_{n}" if len(sizes) == 1 else f"S_1..S_{n}"
        if sweep:
            work = _sum_past(_factorials(n, limit), limit)
        else:
            *_, work = _factorials(n, limit)
        chunks = ((math.factorial(k - 1), (k, first)) for k in sizes for first in range(1, k + 1))
    elif chunk is word_cube:
        domain = f"[m]^n, m<={m}, n<={n}"
        # sum of a^k over the grid; with one letter, each cube has one word
        work = n if m == 1 else _sum_past(islice(_power_sums(m), n), limit)
        grid = ((a, k) for k in range(1, n + 1) for a in range(1, m + 1))
        # [a]^1 is one chunk: sliced by first letter, it would be one task per word.
        chunks = (
            (a ** (k - len(head)), (a, k, *head))
            for a, k in grid
            for head in (product(range(1, a + 1)) if k > 1 else [()])
        )
    # Class checks: each word of a class is one instance.  prop-2.4 codes the
    # words of every class and groups S_k once per size k, one chunk per size.
    elif bounds.word is not None:
        letters = words.sorted_word(bounds.word)
        domain = _class_label(letters)
        work = multinomial(letters)
        if by_size:
            *_, k_factorial = _factorials(len(letters), limit)
            work += k_factorial
        chunks = [(work, (letters,))]
    else:
        domain = f"classes with n<={n}, letters<={m}"
        # the classes of size k hold m^k words
        work = n if m == 1 else _sum_past((m**k for k in range(1, n + 1)), limit)
        if by_size:
            work += _sum_past(_factorials(n, limit), limit)
        chunks = _class_chunks(bounds, by_size)
    noun = "words and permutations" if by_size else "instances"
    refuse_over_cap(f"{name} over {domain} needs", work, noun, bounds.cap)
    instances = work
    if by_size:  # prop-2.4's instances are its multisets; its cap also counts S_k
        instances = 1 if bounds.word is not None else math.comb(m + n, n) - 1
    return domain, instances, chunks


def _run(names: Sequence[str], bounds: CheckBounds, sweep: bool) -> list[CheckReport]:
    """Build every named check, holding each to the cap before any runs, then
    run all their chunks through one `_execute`.  The checks that share a
    chunk function judge each of its chunks in one task."""
    built = {name: _build(name, bounds, sweep) for name in names}
    groups: dict[Callable, list[str]] = {}
    for name in names:
        groups.setdefault(_CHECKS[name].chunk, []).append(name)
    tasks = [
        _Task(tuple(group), args, size)
        for group in groups.values()
        for size, args in built[group[0]][2]
    ]
    failures: dict[str, Counterexample] = {}
    for task, found in zip(tasks, _execute(tasks, bounds.jobs)):
        for name, failure in zip(task.names, found):
            if failure is not None:
                failures.setdefault(name, failure)
    return [
        CheckReport(name, domain, count, name not in failures, failures.get(name))
        for name, (domain, count, _) in built.items()
    ]


def check(name: str, bounds: CheckBounds = CheckBounds(), sweep: bool = False) -> CheckReport:
    """Run one named check within `bounds`.

    Symmetric-group checks run at exactly size `n`, or at every size 1..n
    when `sweep` is set; word and class checks always cover everything
    within (`n`, `alphabet`), or the single class of `word`.  Bounds are
    passed as one `CheckBounds`, e.g. ``check("thm-1.3", CheckBounds(n=7))``.
    """
    if bounds.word is not None and name in _CHECKS and name not in _CLASS_CHECKS:
        *others, last = _CLASS_CHECKS
        raise ValueError(f"--word restricts only {', '.join(others)} and {last}, not {name}")
    return _run([name], bounds, sweep)[0]


def run_all(bounds: CheckBounds = CheckBounds()) -> list[CheckReport]:
    """Run every check within `bounds`; symmetric-group checks sweep sizes 1..n."""
    return _run(CHECK_IDS, bounds, sweep=True)
