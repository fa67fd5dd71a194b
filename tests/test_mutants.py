"""The verdict against planted mutants: each row plants one fault, runs every
check at n=5 over [3], and names the checks that must FAIL.

A mutant is a `words.STATISTICS` entry made constant or made to read
another entry, a wrong kernel planted wherever the checks reach it, or a
map that does not swap MAJ and STAT or is not an involution.  The rows
that no check catches yet are strict xfails: ROADMAP item 2 asks that every
column a verdict line names be pinned, and a row that starts to fail a
check must then list it.
"""
import pytest

from mahonian import involution, verify, words

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


def not_injective(map_name, word, other):
    """`word` goes where `other` goes; both have the same profile, so the
    swap holds pointwise but the map is not an involution."""

    def plant(m):
        real = getattr(involution, map_name)
        target = real(other)
        m.setattr(involution, map_name, lambda w: target if tuple(w) == word else real(w))

    return plant


UNCAUGHT = pytest.mark.xfail(strict=True, reason="no check pins this column yet (ROADMAP item 2)")


def row(label, plant, must_fail, marks=()):
    """A mutant: its label, how to plant it, and the checks that must FAIL."""
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
        "code ranks ties right to left",
        wrong(words, "code", code_ties_right_to_left),
        ("thm-1.2", "eq-2", "prop-2.4"),
    ),
    row("stat is off by the first letter", wrong(words, "stat", stat_off_by_first_letter), SWAPS),
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
    failing = {r.name for r in verify.run_all(n=5, alphabet=3) if not r.passed}
    assert failing, "every check passes"
    assert set(must_fail) <= failing
