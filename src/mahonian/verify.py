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
count plus the first counterexample, if any.  Domains are partitioned into
lexicographically contiguous chunks, and a check judges a whole chunk at a
time.  The involutions fix the first letter and the class, so every image
lies in its word's chunk: a swap check walks the chunk by involution pairs,
maps and profiles each word once, and holds only the images it has vouched
for until the walk reaches them.  A run sends the chunks of all its checks,
in check order, to one executor, serial or a single process pool, so every
report is identical either way.
"""
from __future__ import annotations

import functools
import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import combinations_with_replacement, count, groupby, islice, product
from itertools import permutations as _permutations
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import involution, patterns, words
from .errors import (
    WRITTEN_COUNT_LIMIT,
    InternalInvariantError,
    UnknownNameError,
    refuse_over_cap,
)
from .tableaux import foata_j
# The statistic table lives in `words`; `verify.STATISTICS` is the same dict.
from .words import HEADINGS, STATISTICS, Word, statistic

# ------------------------------------------------------------------ domains


def symmetric_group(n: int) -> Iterator[Word]:
    """All permutations of 1..n in lexicographic order."""
    return iter(_permutations(range(1, n + 1)))


def word_cube(m: int, n: int) -> Iterator[Word]:
    """All length-n words over the alphabet 1..m in lexicographic order."""
    return iter(product(range(1, m + 1), repeat=n))


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
    """Number of distinct rearrangements of the letters."""
    counts = Counter(letters)
    total = math.factorial(sum(counts.values()))
    for c in counts.values():
        total //= math.factorial(c)
    return total


def multisets(max_letter: int, max_size: int) -> Iterator[Word]:
    """Nondecreasing words over 1..max_letter of every length 1..max_size."""
    for n in range(1, max_size + 1):
        yield from combinations_with_replacement(range(1, max_letter + 1), n)


def _characterizations(letters: Iterable[int]) -> tuple[frozenset[Word], frozenset[Word]]:
    """Compatible permutations computed two independent ways: as the coded
    image of the rearrangement class, and as the permutations whose inverse
    descent set stays inside the multiset's run boundaries."""
    wbar = words.sorted_word(letters)
    coded = frozenset(words.code(v) for v in rearrangement_class(wbar))
    bounds = words.block_boundaries(wbar)
    by_id = frozenset(
        p for p in symmetric_group(len(wbar)) if words.inverse_descent_set(p) <= bounds
    )
    return coded, by_id


def compatible_set(letters: Iterable[int]) -> frozenset[Word]:
    """Permutations compatible with a multiset, cross-checked both ways."""
    letters = tuple(letters)
    if not letters:
        return frozenset({()})
    coded, by_id = _characterizations(letters)
    if coded != by_id:
        raise InternalInvariantError(
            "coded-image and inverse-descent characterizations disagree"
        )
    return coded


# --------------------------------------------------------------- statistics


def profile(w: Sequence[int], schema: Sequence[str]) -> tuple:
    """The tuple of the named statistics of one word."""
    return tuple(statistic(name)(w) for name in schema)


def joint_distribution(domain: Iterable[Sequence[int]], schema: Sequence[str]) -> Counter:
    """Multiset of statistic tuples over a domain of words."""
    extractors = [statistic(name) for name in schema]
    return Counter(tuple(f(w) for f in extractors) for w in domain)


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
    than there are CPUs or chunks in the whole run.
    """

    n: int = 6
    alphabet: int = 3
    word: Word | None = None
    cap: int = 10_000_000
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


def _oracle_profile(w, schema: Sequence[str]) -> tuple:
    """`profile`, with STAT from the pattern-sum oracle."""
    return tuple(_oracle_stat(w) if name == "stat" else statistic(name)(w) for name in schema)


def _mismatch(w, role, image, left_schema, left, right_schema, right) -> Counterexample:
    return Counterexample(
        input=words.format_word(w),
        expected=_fmt_profile(left_schema, left),
        actual=f"{role} {words.format_word(image)}: {_fmt_profile(right_schema, right)}",
    )


def _raised(x, exc: Exception) -> Counterexample:
    return Counterexample(
        input=words.format_word(x) if type(x) is tuple else str(x),
        expected="no exception",
        actual=f"raised {type(exc).__name__}: {exc}",
    )


def _first_failure(predicate, instances: Iterable) -> Counterexample | None:
    """The failure of the first instance that fails `predicate`; an
    instance on which the predicate raises fails there."""
    for x in instances:
        try:
            found = predicate(x)
        except Exception as exc:  # a map that raises on an instance fails there
            found = _raised(x, exc)
        if found is not None:
            return found
    return None


def _each(predicate):
    """Judge of a chunk that applies `predicate` to each instance in order."""
    return functools.partial(_first_failure, predicate)


def _swap_judge(map_name: str, schema: Sequence[str]):
    """Judge of a chunk for the pointwise MAJ/STAT swap under
    `involution.<map_name>`, looked up at each call so that a patched map is
    the one checked.  Each word is judged in order: its map must not raise,
    its image must show its `schema` profile with MAJ and STAT exchanged,
    and the image of its image must be the word.

    The chunk is walked by involution pairs.  A word w maps to v, and v is
    profiled and, unless it is w, mapped back.  When w passes, v passes too,
    since exchanging MAJ and STAT is itself an involution on profiles; so v
    is vouched for and skipped when the walk reaches it.  Each word is thus
    mapped and profiled once, and only the vouched words are held.  The walk
    never looks back: a word whose image precedes it and that is not vouched
    for fails, since its image does not map back to it."""
    image_schema = _swapped(schema)
    columns = [schema.index(name) for name in image_schema]

    def judge(instances: Iterable) -> Counterexample | None:
        mapper = getattr(involution, map_name)
        vouched = set()
        fmt = words.format_word

        def failure(w) -> Counterexample | None:
            if w in vouched:
                vouched.remove(w)
                return None
            image = mapper(w)
            left = profile(w, schema)
            image_profile = left if image == w else profile(image, schema)
            right = tuple(image_profile[i] for i in columns)
            if left != right:
                return _mismatch(w, "image", image, schema, left, image_schema, right)
            if image == w:
                return None
            try:
                back = mapper(image)
            except Exception as exc:  # the word fails: its image cannot be mapped back
                actual = f"raised {type(exc).__name__}: {exc}"
            else:
                if back == w:
                    vouched.add(image)
                    return None
                actual = f"= {fmt(back)}"
            return Counterexample(
                input=fmt(w),
                expected=f"{map_name}({map_name}({fmt(w)})) = {fmt(w)}",
                actual=f"{map_name}({fmt(image)}) {actual}",
            )

        return _first_failure(failure, instances)

    return judge


def _pred_code_preserves(w):
    image = words.code(w)
    left, right = _oracle_profile(w, _CODE_SCHEMA), _oracle_profile(image, _CODE_SCHEMA)
    if left == right:
        return None
    return _mismatch(w, "coded", image, _CODE_SCHEMA, left, _CODE_SCHEMA, right)


def _pred_switch_sets(p):
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


def _maj_sum(p, term: str, value: int):
    """The counterexample, if any, to MAJ(p) + `term` = (n+1)*des(p) - (F-1).
    des, MAJ and F are read through `STATISTICS`, as the swap checks read
    them, so that the identity also pins those columns."""
    des, maj, first = profile(p, ("des", "maj", "F"))
    lhs = maj + value
    rhs = (len(p) + 1) * des - (first - 1)
    if lhs == rhs:
        return None
    return Counterexample(
        input=words.format_word(p),
        expected=f"MAJ + {term} = (n+1)*des - (F-1) = {rhs}",
        actual=f"MAJ + {term} = {lhs}",
    )


def _pred_maj_stat_sum(p):
    return _maj_sum(p, "STAT", _oracle_stat(p))


def _pred_maj_pair_sum(p):
    return _maj_sum(p, "MAJ(image)", statistic("maj")(involution.phi(p)))


class _Cube(NamedTuple):
    """The whole word cube [m]^n, judged as one instance by thm-1.2."""

    m: int
    n: int

    def __str__(self) -> str:
        return f"[{self.m}]^{self.n}"


def _pred_cube_swap(cube: _Cube):
    left = joint_distribution(word_cube(*cube), _CUBE_SCHEMA)
    # The swapped distribution re-indexes the columns of the same one.  Counts
    # are summed, since a schema that repeats a column maps several tuples
    # onto one key.
    columns = [_CUBE_SCHEMA.index(name) for name in _CUBE_SWAPPED]
    right = Counter()
    for t, count in left.items():
        right[tuple(t[i] for i in columns)] += count
    if left == right:
        return None
    bad = min(t for t in set(left) | set(right) if left[t] != right[t])
    return Counterexample(
        input=str(cube),
        expected=f"multiplicity of {bad} in the (.., MAJ, STAT) distribution = {left[bad]}",
        actual=f"multiplicity in the (.., STAT, MAJ) distribution = {right[bad]}",
    )


class _Class(NamedTuple):
    """One multiset of prop-2.4, with the counts of S_k by inverse descent set
    that every class of its size k shares, grouped on first use."""

    letters: Word
    id_counts: Callable[[], Counter]

    def __str__(self) -> str:
        return words.format_word(self.letters)


def _pred_characterizations(c: _Class):
    """Both characterizations agree, shown from counts: the coded words are
    multinomial many permutations of S_k with Id inside the boundaries, and
    so many permutations of S_k have Id inside them.  Only a class that
    disagrees builds both sets, to name the stray permutation."""
    wbar = c.letters
    k, bounds = len(wbar), words.block_boundaries(wbar)
    coded = {words.code(v) for v in rearrangement_class(wbar)}
    want = multinomial(wbar)
    if (
        len(coded) == want
        and all(
            len(p) == k and words.is_permutation(p) and words.inverse_descent_set(p) <= bounds
            for p in coded
        )
        and sum(count for ids, count in c.id_counts().items() if ids <= bounds) == want
    ):
        return None
    coded, by_id = _characterizations(wbar)
    if coded != by_id:
        stray = min(coded.symmetric_difference(by_id))
        side = "coded image" if stray in coded else "inverse-descent side"
        return Counterexample(
            input=words.format_word(wbar),
            expected="identical characterizations of the compatible permutations",
            actual=f"{words.format_word(stray)} appears only in the {side}",
        )
    if len(coded) != want:
        return Counterexample(
            input=words.format_word(wbar),
            expected=f"{want} compatible permutations (multinomial)",
            actual=str(len(coded)),
        )
    return None


# ------------------------------------------------------------------ chunks

# A chunk function takes the picklable arguments of one lexicographically
# contiguous piece of a domain and returns (chunk size, instances).


def _perm_chunk(n: int, first: int):
    rest = [v for v in range(1, n + 1) if v != first]
    return math.factorial(n - 1), ((first, *tail) for tail in _permutations(rest))


def _cube_chunk(m: int, n: int, first: int):
    return m ** (n - 1), ((first, *tail) for tail in product(range(1, m + 1), repeat=n - 1))


def _whole_cube(m: int, n: int):
    return m**n, [_Cube(m, n)]


def _class_chunk(letters: Word):
    return multinomial(letters), rearrangement_class(letters)


def _classes_of_one_size(*classes: Word):
    k = len(classes[0])
    id_counts = functools.cache(
        lambda: Counter(words.inverse_descent_set(p) for p in symmetric_group(k))
    )
    return len(classes), (_Class(letters, id_counts) for letters in classes)


class _Check(NamedTuple):
    summary: str
    chunk: Callable[..., tuple[int, Iterable]]
    judge: Callable[[Iterable], Counterexample | None]


_CHECKS: dict[str, _Check] = {
    "thm-1.1": _Check(
        "pointwise (Adj, des, F, MAJ, STAT) swap under burstein_p on S_n",
        _perm_chunk,
        _swap_judge("burstein_p", _ADJ_SCHEMA),
    ),
    "thm-1.2": _Check(
        "sextuple (Adj, des, ides, F, MAJ, STAT) equidistribution on [m]^n",
        _whole_cube,
        _each(_pred_cube_swap),
    ),
    "thm-1.3": _Check(
        "pointwise (des, Id, F, MAJ, STAT) swap under phi on S_n",
        _perm_chunk,
        _swap_judge("phi", _SWAP_SCHEMA),
    ),
    "cor-1.4": _Check(
        "pointwise quintuple swap under phi_on_class over rearrangement classes",
        _class_chunk,
        _swap_judge("phi_on_class", _SWAP_SCHEMA),
    ),
    "cor-1.5": _Check(
        "pointwise (IMAJ, des, ides, F, MAJ, STAT) swap under phi_on_class",
        _class_chunk,
        _swap_judge("phi_on_class", _SEXT_SCHEMA),
    ),
    "lemma-3.1": _Check(
        "foata_j preserves Id and reflects D on S_n", _perm_chunk, _each(_pred_switch_sets)
    ),
    "lemma-3.4": _Check(
        "MAJ + STAT = (n+1)*des - (F-1) on S_n", _perm_chunk, _each(_pred_maj_stat_sum)
    ),
    "lemma-3.5": _Check(
        "MAJ + MAJ(phi image) = (n+1)*des - (F-1) on S_n",
        _perm_chunk,
        _each(_pred_maj_pair_sum),
    ),
    "eq-2": _Check(
        "coding preserves (Adj, des, Id, MAJ, STAT) on [m]^n",
        _cube_chunk,
        _each(_pred_code_preserves),
    ),
    "prop-2.4": _Check(
        "both characterizations of compatible permutations coincide",
        _classes_of_one_size,
        _each(_pred_characterizations),
    ),
}

CHECK_IDS: tuple[str, ...] = tuple(_CHECKS)

CHECK_SUMMARIES: dict[str, str] = {name: c.summary for name, c in _CHECKS.items()}

_CLASS_CHECKS = tuple(
    name for name, c in _CHECKS.items() if c.chunk in (_class_chunk, _classes_of_one_size)
)


# ------------------------------------------------------------ task running

# A task is (check name, chunk arguments) and returns (chunk size, first
# failure in the chunk), so a merge in task order yields the
# lexicographically least counterexample and an instance count independent
# of scheduling.


def _run_task(task: tuple[str, tuple]) -> tuple[int, Counterexample | None]:
    name, args = task
    entry = _CHECKS[name]
    size, instances = entry.chunk(*args)
    return size, entry.judge(instances)


def _execute(tasks: list[tuple], jobs: int) -> list[tuple[int, Counterexample | None]]:
    workers = min(jobs, os.cpu_count() or 1, len(tasks))
    if workers <= 1:
        return [_run_task(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_task, tasks))


# ----------------------------------------------------------- check builders


def _class_args(bounds: CheckBounds, by_size: bool) -> Iterator[tuple[Word, ...]]:
    """Chunk arguments of a class sweep, generated only once iterated: every
    multiset of one size per chunk for prop-2.4, else one multiset per chunk."""
    classes = multisets(bounds.alphabet, bounds.n)
    if by_size:
        yield from (tuple(group) for _, group in groupby(classes, key=len))
    else:
        yield from ((letters,) for letters in classes)


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


def _build(name: str, bounds: CheckBounds, sweep: bool):
    """(domain description, chunk arguments) of one check.  The instance
    count is compared with the cap in closed form, and summed only until it
    is past both the cap and the largest count a refusal writes.  Chunk
    arguments are generated lazily, so an oversized check raises
    BoundTooLargeError before anything is enumerated or allocated."""
    try:
        chunk = _CHECKS[name].chunk
    except KeyError:
        raise UnknownNameError(f"unknown check {name!r}; known: {', '.join(CHECK_IDS)}") from None
    by_size = chunk is _classes_of_one_size
    n, m = bounds.n, bounds.alphabet
    limit = max(bounds.cap, WRITTEN_COUNT_LIMIT - 1)
    if chunk is _perm_chunk:
        sizes = range(1, n + 1) if sweep else range(n, n + 1)
        domain = f"S_{n}" if len(sizes) == 1 else f"S_1..S_{n}"
        if sweep:
            work = _sum_past(_factorials(n, limit), limit)
        else:
            *_, work = _factorials(n, limit)
        args = ((k, first) for k in sizes for first in range(1, k + 1))
    elif chunk is _cube_chunk or chunk is _whole_cube:
        grid = ((a, k) for k in range(1, n + 1) for a in range(1, m + 1))
        if chunk is _cube_chunk:
            args = ((a, k, first) for a, k in grid for first in range(1, a + 1))
        else:
            args = grid
        domain = f"[m]^n, m<={m}, n<={n}"
        # sum of a^k over the grid; with one letter, each cube has one word
        work = n if m == 1 else _sum_past(islice(_power_sums(m), n), limit)
    # Class checks: each word of a class is one instance.  prop-2.4 codes the
    # words of every class and groups S_k once per size k, one task per size.
    elif bounds.word is not None:
        letters = words.sorted_word(bounds.word)
        domain = f"R({words.format_word(letters)})"
        work = multinomial(letters) + (math.factorial(len(letters)) if by_size else 0)
        args = [(letters,)]
    else:
        domain = f"classes with n<={n}, letters<={m}"
        # the classes of size k hold m^k words
        work = n if m == 1 else _sum_past((m**k for k in range(1, n + 1)), limit)
        if by_size:
            work += _sum_past(_factorials(n, limit), limit)
        args = _class_args(bounds, by_size)
    refuse_over_cap(f"{name} over {domain} needs", work, "instances", bounds.cap)
    return domain, args


def _resolve(bounds: CheckBounds | None, overrides: dict) -> CheckBounds:
    resolved = bounds if bounds is not None else CheckBounds()
    return replace(resolved, **overrides) if overrides else resolved


def _run(names: Sequence[str], bounds: CheckBounds, sweep: bool) -> list[CheckReport]:
    """Build every named check, holding each to the cap before any runs, then
    run all their chunks, in check order, through one `_execute`."""
    built = [(name, *_build(name, bounds, sweep)) for name in names]
    tasks = [[(name, a) for a in args] for name, _, args in built]
    results = iter(_execute([task for own in tasks for task in own], bounds.jobs))
    reports = []
    for (name, domain, _), own in zip(built, tasks):
        mine = [next(results) for _ in own]
        failure = next((f for _, f in mine if f is not None), None)
        instances = sum(count for count, _ in mine)
        reports.append(CheckReport(name, domain, instances, failure is None, failure))
    return reports


def check(
    name: str,
    bounds: CheckBounds | None = None,
    sweep: bool = False,
    **overrides,
) -> CheckReport:
    """Run one named check.

    Symmetric-group checks run at exactly size `n`, or at every size 1..n
    when `sweep` is set; word and class checks always cover everything
    within (`n`, `alphabet`), or the single class of `word`.  Keyword
    overrides patch the bounds, e.g. ``check("thm-1.3", n=7)``.
    """
    resolved = _resolve(bounds, overrides)
    if resolved.word is not None and name in _CHECKS and name not in _CLASS_CHECKS:
        *others, last = _CLASS_CHECKS
        raise ValueError(f"--word restricts only {', '.join(others)} and {last}, not {name}")
    return _run([name], resolved, sweep)[0]


def run_all(bounds: CheckBounds | None = None, **overrides) -> list[CheckReport]:
    """Run every check; symmetric-group checks sweep sizes 1..n."""
    return _run(CHECK_IDS, _resolve(bounds, overrides), sweep=True)
