"""The verdict against planted mutants: each row plants one fault, runs every
check at n=5 over [3], and names exactly the checks that FAIL.

A mutant is a `words.STATISTICS` entry made constant or made to read
another entry, a wrong kernel planted wherever the checks reach it, or a
map that does not swap MAJ and STAT or is not an involution.  Below the
hand rows, whole substitution families are generated.  The mutants that no
check catches yet are strict xfails: ROADMAP item 2 asks that every
column a verdict line names be pinned, and a row that starts to fail a
check must then list it.
"""
import pytest

from mahonian import involution, tableaux, verify, words
from mahonian.words import Permutation

S = words.STATISTICS

SWAPS = ("thm-1.1", "thm-1.2", "thm-1.3", "cor-1.4", "cor-1.5")


def constant(name, value):
    return lambda m: m.setitem(S, name, lambda w: value)


def reads(name, other):
    return lambda m: m.setitem(S, name, S[other])


def wrong(target, name, fault):
    """Plant `fault(real)` as `target.<name>` and as every `STATISTICS` entry
    bound to the same function."""

    def plant(m):
        real = getattr(target, name)
        fake = fault(real)
        m.setattr(target, name, fake)
        for key, fn in S.items():
            if fn is real:
                m.setitem(S, key, fake)

    return plant


def code_ties_right_to_left(real):
    def planted(w):
        order = sorted(range(len(w)), key=lambda i: (w[i], -i))
        ranks = [0] * len(w)
        for rank, i in enumerate(order, start=1):
            ranks[i] = rank
        return tuple(ranks)

    return planted


def stat_off_by_first_letter(real):
    return lambda w: real(w) + w[0]


def stat_closed_form(form):
    """Plant `form(w, d)` as the body of `words._stat`, the closed form that
    `words.stat` projects the descent set through."""
    return lambda m: m.setattr(words._stat, "__code__", form.__code__)


def ids_scan_reads_the_letter_below(real):
    """Id's one-pass scan of a `Permutation` asking whether v-1 came before v,
    not v+1; any other word is sorted as before."""

    def planted(w):
        if type(w) is not Permutation:
            return real(w)
        seen, ids = [False] * (len(w) + 2), []
        for x in w:
            if seen[x - 1]:
                ids.append(x)
            seen[x] = True
        return frozenset(ids)

    return planted


def stat_subtracts_the_first_letter_of_a_permutation(w, d):
    """`words._stat` counting w_1, not w_1 - 1, letters below w_1 of a
    `Permutation`; planted as its body, so its names are `words`' own."""
    first = w[0] if w else 1
    below = first if type(w) is Permutation else len([x for x in w if x < first])
    return (len(w) + 1) * len(d) - below - sum(d)


def adj_without_the_sentinel(real):
    """Adj's pass over the coded word without its last term, the sentinel's."""

    def planted(w):
        count, prev = 0, 0
        for x in w if type(w) is Permutation else words.code(w):
            if prev == x + 1:
                count += 1
            prev = x
        return count

    return planted


def adj_scan_without_the_sentinel(real):
    """Adj's scan of a plain word's sorted positions without its sentinel,
    the leading n; a `Permutation` is read as before."""

    def planted(w):
        if type(w) is Permutation:
            return real(w)
        count, prev = 0, -1
        for i in sorted(range(len(w)), key=w.__getitem__):
            if prev == i + 1:
                count += 1
            prev = i
        return count

    return planted


def ids_scan_reads_ascents_of_the_order(real):
    """Id's scan of a plain word's sorted positions taking v where they
    rise from v - 1 to v, not where they drop; a `Permutation` is read as
    before."""

    def planted(w):
        if type(w) is Permutation:
            return real(w)
        ids, v, prev = [], 0, len(w)
        for i in sorted(range(len(w)), key=w.__getitem__):
            if prev < i:
                ids.append(v)
            prev = i
            v += 1
        return frozenset(ids)

    return planted


def burstein_tail(fn):
    """`burstein_p` with a wrong tail: t = p_1, then `fn(p, r)` for the
    closed form's letter map r."""

    def planted(real):
        def mapped(p):
            t, n = p[0], len(p)
            return (t, *fn(p, lambda x: n + 1 + t - x if x > t else t - x))

        return mapped

    return wrong(involution, "burstein_p", planted)


def not_injective(map_name, word, other):
    """`word` goes where `other` goes; both have the same profile, so the
    swap holds pointwise but the map is not an involution."""

    def plant(m):
        real = getattr(involution, map_name)
        target = real(other)
        m.setattr(involution, map_name, lambda w: target if tuple(w) == word else real(w))

    return plant


class Unevacuated(dict):
    """An evacuation dict that answers every recording tableau with itself,
    so that `foata_j` inverts (P, Q) back to p."""

    def get(self, key, default=None):
        return key


def evacuation_unchanged(m):
    m.setattr(tableaux, "_EVACUATED", Unevacuated())


def evacuation_wrong_on_one_tableau(m):
    """Q = 12/34 is its own evacuation, with descent set {2}; answer it with
    13/24, of the same shape and with descent set {1, 3}."""
    m.setitem(tableaux._EVACUATED, (0, 0, 1, 1), (0, 1, 0, 1))


def switch_wrong_on_one_subword(m):
    """`phi`'s memo answers the subword 123 with 132; `foata_j` fixes 123."""
    real = tableaux._switch
    m.setattr(tableaux, "_switch", lambda w: (1, 3, 2) if w == (1, 2, 3) else real(w))


UNCAUGHT = pytest.mark.xfail(strict=True, reason="no check pins this column yet (ROADMAP item 2)")


def row(label, plant, must_fail, marks=()):
    """A mutant: its label, how to plant it, and the checks that FAIL."""
    return pytest.param(plant, must_fail, id=label, marks=marks)


MUTANTS = [
    row("F is 1", constant("F", 1), ("lemma-3.4", "lemma-3.5")),
    row("des is 0", constant("des", 0), ("lemma-3.4", "lemma-3.5")),
    row("ides is 0", constant("ides", 0), (), UNCAUGHT),
    row("adj is 0", constant("adj", 0), (), UNCAUGHT),
    row("maj is 0", constant("maj", 0), SWAPS + ("lemma-3.4", "lemma-3.5")),
    row("imaj is 0", constant("imaj", 0), (), UNCAUGHT),
    row("stat is 0", constant("stat", 0), SWAPS),
    row("D-set is empty", constant("D-set", frozenset()), SWAPS + ("lemma-3.4", "lemma-3.5")),
    row("Id-set is empty", constant("Id-set", frozenset()), ("prop-2.4",)),
    row("Sh-set is empty", constant("Sh-set", frozenset()), (), UNCAUGHT),
    row("des reads ides", reads("des", "ides"), ("lemma-3.4", "lemma-3.5")),
    row("ides reads des", reads("ides", "des"), (), UNCAUGHT),
    row("maj reads imaj", reads("maj", "imaj"), SWAPS + ("lemma-3.4", "lemma-3.5")),
    row("imaj reads maj", reads("imaj", "maj"), ("cor-1.5",)),
    row("imaj reads ides", reads("imaj", "ides"), (), UNCAUGHT),
    row("stat reads maj", reads("stat", "maj"), ("thm-1.1", "thm-1.3", "cor-1.4", "cor-1.5")),
    row("D-set reads Id-set", reads("D-set", "Id-set"), SWAPS + ("lemma-3.4", "lemma-3.5")),
    row(
        "Id-set reads D-set",
        reads("Id-set", "D-set"),
        ("thm-1.3", "cor-1.4", "cor-1.5", "prop-2.4"),
    ),
    row("Sh-set reads D-set", reads("Sh-set", "D-set"), (), UNCAUGHT),
    row(
        "descent_set misses the last descent",
        wrong(words, "descent_set", lambda real: lambda w: frozenset(sorted(real(w))[:-1])),
        SWAPS + ("lemma-3.1", "lemma-3.4", "lemma-3.5"),
    ),
    row(
        "inverse_descent_set misses 1",
        wrong(words, "inverse_descent_set", lambda real: lambda w: real(w) - {1}),
        ("thm-1.2", "prop-2.4"),
    ),
    row(
        "Id's scan of a permutation reads the letter below",
        wrong(words, "inverse_descent_set", ids_scan_reads_the_letter_below),
        ("lemma-3.1", "eq-2", "prop-2.4"),
    ),
    row(
        "code ranks ties right to left",
        wrong(words, "code", code_ties_right_to_left),
        ("cor-1.4", "cor-1.5", "eq-2", "prop-2.4"),
    ),
    row("stat is off by the first letter", wrong(words, "stat", stat_off_by_first_letter), SWAPS),
    row(
        "STAT's closed form drops the letters below F",
        stat_closed_form(lambda w, d: (len(w) + 1) * len(d) - sum(d)),
        SWAPS,
    ),
    row(
        "STAT's closed form counts F letters below F of a permutation",
        stat_closed_form(stat_subtracts_the_first_letter_of_a_permutation),
        ("thm-1.1", "thm-1.3"),
    ),
    row(
        "Adj drops the sentinel's term",
        wrong(words, "adj", adj_without_the_sentinel),
        ("thm-1.1", "thm-1.2"),
    ),
    row(
        "Adj's position scan drops the sentinel's term",
        wrong(words, "adj", adj_scan_without_the_sentinel),
        ("thm-1.2", "eq-2"),
    ),
    row(
        "Id's position scan reads ascents of the order",
        wrong(words, "inverse_descent_set", ids_scan_reads_ascents_of_the_order),
        ("lemma-3.1", "eq-2"),
    ),
    row(
        "phi is the identity",
        wrong(involution, "phi", lambda real: tuple),
        ("thm-1.3", "cor-1.4", "cor-1.5", "lemma-3.5"),
    ),
    row(
        "burstein_p is the identity",
        wrong(involution, "burstein_p", lambda real: tuple),
        ("thm-1.1",),
    ),
    row(
        "burstein_p keeps the tail in order",
        burstein_tail(lambda p, r: [r(x) for x in p[1:]]),
        ("thm-1.1",),
    ),
    row(
        "burstein_p reflects the tail over 1..n",
        burstein_tail(lambda p, r: [len(p) + 1 - x for x in p[:0:-1]]),
        ("thm-1.1",),
    ),
    row(
        "burstein_p reverses the tail without reflecting it",
        burstein_tail(lambda p, r: p[:0:-1]),
        ("thm-1.1",),
    ),
    row(
        "the evacuation returns Q unchanged",
        evacuation_unchanged,
        ("thm-1.3", "cor-1.4", "cor-1.5", "lemma-3.1", "lemma-3.5"),
    ),
    row(
        "the evacuation of 12/34 is 13/24",
        evacuation_wrong_on_one_tableau,
        ("thm-1.3", "cor-1.4", "cor-1.5", "lemma-3.1", "lemma-3.5"),
    ),
    row(
        "the switch of 123 is 132",
        switch_wrong_on_one_subword,
        ("thm-1.3", "cor-1.4", "cor-1.5", "lemma-3.5"),
    ),
    row(
        "phi_on_class is the identity",
        wrong(involution, "phi_on_class", lambda real: tuple),
        ("cor-1.4", "cor-1.5"),
    ),
    row(
        "phi is not injective",
        not_injective("phi", (1, 2, 4, 3, 5), (1, 4, 5, 2, 3)),
        ("thm-1.3", "cor-1.4", "cor-1.5"),
    ),
    row(
        "burstein_p is not injective",
        not_injective("burstein_p", (2, 3, 1, 4), (2, 4, 1, 3)),
        ("thm-1.1",),
    ),
    row(
        "phi_on_class is not injective",
        not_injective("phi_on_class", (1, 1, 2, 1, 2), (1, 2, 2, 1, 1)),
        ("cor-1.4", "cor-1.5"),
    ),
]


@pytest.mark.parametrize("plant, must_fail", MUTANTS)
def test_mutant_fails_its_checks(monkeypatch, plant, must_fail):
    plant(monkeypatch)
    failing = {r.name for r in verify.run_all(verify.CheckBounds(n=5, alphabet=3)) if not r.passed}
    assert failing, "every check passes"
    # An uncaught row lists nothing, so it passes, and trips its strict
    # xfail, as soon as any check fails.
    assert not must_fail or failing == set(must_fail)


# The substitution families: every statistic column replaced by every other
# column of its kind and by a constant, each numeric column also off by one
# on a subset that every map keeps, and each map replaced by the identity or
# by the other map of S_n.  A generated case asserts only that some check
# FAILs; the hand rows above pin exactly which.
SETS = ("D-set", "Id-set", "Sh-set")
NUMERIC = tuple(name for name in S if name not in SETS)
MAPS = ("phi", "burstein_p", "phi_on_class")


def plus_one_on_length_5_first_letter_2(name):
    def plant(m):
        real, first = S[name], S["F"]
        m.setitem(S, name, lambda w: real(w) + 1 if len(w) == 5 and first(w) == 2 else real(w))

    return plant


def substitutions():
    for kind, value, shown in ((NUMERIC, 0, "0"), (SETS, frozenset(), "empty")):
        for name in kind:
            yield f"{name} is {shown}", constant(name, value)
            for other in kind:
                if other != name:
                    yield f"{name} reads {other}", reads(name, other)
            if kind is NUMERIC:
                yield f"{name} + 1 on length 5, F = 2", plus_one_on_length_5_first_letter_2(name)
    for name in MAPS:
        yield f"{name} is the identity", wrong(involution, name, lambda real: tuple)
    for name, other in (("phi", "burstein_p"), ("burstein_p", "phi")):
        swapped = wrong(involution, name, lambda real, other=other: getattr(involution, other))
        yield f"{name} is {other}", swapped


# The substitutions that pass every check.
GAPS = {
    "ides is 0",
    "ides reads F",
    "ides reads des",
    "ides + 1 on length 5, F = 2",
    "adj is 0",
    "adj reads des",
    "adj reads ides",
    "imaj is 0",
    "imaj reads F",
    "imaj reads des",
    "imaj reads ides",
    "imaj + 1 on length 5, F = 2",
    "Sh-set is empty",
    "Sh-set reads D-set",
    "Sh-set reads Id-set",
}


@pytest.mark.parametrize(
    "plant",
    [
        pytest.param(plant, id=label, marks=UNCAUGHT if label in GAPS else ())
        for label, plant in substitutions()
    ],
)
def test_substitution_fails_some_check(monkeypatch, plant):
    plant(monkeypatch)
    assert not all(r.passed for r in verify.run_all(verify.CheckBounds(n=5, alphabet=3)))
