"""Vincular pattern parsing, occurrence counting, and the named pattern sums."""
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from mahonian import patterns, words
from mahonian.errors import ParseError, UnknownNameError
from mahonian.verify import symmetric_group, word_cube

random_words = st.lists(st.integers(1, 4), min_size=1, max_size=7).map(tuple)

ALL_NAMED_PATTERNS = sorted(
    {text for terms in patterns._SUM_SPECS.values() for text in terms}
    | {"3-1-4-2", "31-4-2"}
)


def reference_count(pattern, word):
    """Reference oracle: a naive backtracker that extends a partial
    occurrence one pattern letter at a time, testing every candidate
    position against all the letters already picked."""
    letters, glued = pattern.letters, pattern.glued
    r, n = len(letters), len(word)
    if r > n:
        return 0
    picked = []

    def fits(pos):
        a = letters[len(picked)]
        return all(
            (word[q] < word[pos]) == (letters[d] < a)
            and (word[q] == word[pos]) == (letters[d] == a)
            for d, q in enumerate(picked)
        )

    def extend():
        depth = len(picked)
        if depth == r:
            return 1
        if depth and glued[depth - 1]:
            candidates = range(picked[-1] + 1, min(picked[-1] + 2, n))
        else:
            candidates = range(picked[-1] + 1 if picked else 0, n)
        total = 0
        for pos in candidates:
            if fits(pos):
                picked.append(pos)
                total += extend()
                picked.pop()
        return total

    return extend()


@st.composite
def vincular_patterns(draw):
    """1-4 letters covering 1..k, repeats allowed, with random glue flags."""
    r = draw(st.integers(1, 4))
    raw = draw(st.lists(st.integers(1, r), min_size=r, max_size=r))
    values = sorted(set(raw))
    letters = tuple(values.index(x) + 1 for x in raw)
    glued = tuple(draw(st.lists(st.booleans(), min_size=r - 1, max_size=r - 1)))
    return patterns.VincularPattern(letters, glued)


def brute_count(pattern, word):
    """Independent oracle: scan every index combination."""
    r = len(pattern.letters)
    total = 0
    for idx in combinations(range(len(word)), r):
        if any(
            pattern.glued[j] and idx[j + 1] != idx[j] + 1 for j in range(r - 1)
        ):
            continue
        ok = all(
            (word[idx[a]] < word[idx[b]]) == (pattern.letters[a] < pattern.letters[b])
            and (word[idx[a]] == word[idx[b]]) == (pattern.letters[a] == pattern.letters[b])
            for a in range(r)
            for b in range(a + 1, r)
        )
        total += ok
    return total


class TestParse:
    def test_multi_block(self):
        pat = patterns.parse_pattern("31-4-2")
        assert pat.letters == (3, 1, 4, 2)
        assert pat.glued == (True, False, False)
        assert pat.blocks == ((3, 1), (4,), (2,))

    def test_single_block(self):
        pat = patterns.parse_pattern("21")
        assert pat.letters == (2, 1)
        assert pat.glued == (True,)

    def test_repeated_letters(self):
        pat = patterns.parse_pattern("21-2")
        assert pat.letters == (2, 1, 2)
        assert pat.glued == (True, False)

    @pytest.mark.parametrize("bad", ["", "-21", "21-", "2--1", "1-3", "a1", "103"])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            patterns.parse_pattern(bad)

    def test_str_roundtrip(self):
        for text in ALL_NAMED_PATTERNS:
            assert str(patterns.parse_pattern(text)) == text


class TestCount:
    def test_classical_vs_vincular(self):
        w = (4, 1, 2, 5, 3)
        assert patterns.count_occurrences(patterns.parse_pattern("3-1-4-2"), w) == 2
        assert patterns.count_occurrences(patterns.parse_pattern("31-4-2"), w) == 1

    def test_repeated_letter_pattern(self):
        pat = patterns.parse_pattern("21-2")
        assert brute_count(pat, (2, 1, 2, 1)) == 1
        assert patterns.count_occurrences(pat, (2, 1, 2, 1)) == 1

    def test_short_word(self):
        pat = patterns.parse_pattern("21-3")
        assert patterns.count_occurrences(pat, (2, 1)) == 0
        assert patterns.count_occurrences(pat, ()) == 0

    @given(random_words, st.sampled_from(ALL_NAMED_PATTERNS))
    def test_matches_brute_force(self, w, text):
        pat = patterns.parse_pattern(text)
        assert patterns.count_occurrences(pat, w) == brute_count(pat, w)

    @given(vincular_patterns(), st.lists(st.integers(1, 5), max_size=9).map(tuple))
    def test_random_pattern_matches_both_references(self, pat, w):
        count = patterns.count_occurrences(pat, w)
        assert count == reference_count(pat, w) == brute_count(pat, w)

    def test_named_sums_match_reference_on_small_words(self):
        specs = patterns._SUM_SPECS
        terms = {text: patterns.parse_pattern(text) for ts in specs.values() for text in ts}
        for n in range(7):
            for w in word_cube(4, n) if n else [()]:
                want = {text: reference_count(pat, w) for text, pat in terms.items()}
                for text, pat in terms.items():
                    assert patterns.count_occurrences(pat, w) == want[text], (text, w)
                for name in patterns.NAMED_SUMS:
                    got = patterns.eval_sum(name, w)
                    assert got == sum(want[text] for text in specs[name]), (name, w)


class TestSums:
    def test_table_values(self):
        assert patterns.eval_sum("MAJ_w", (2, 1, 2, 1)) == 4
        assert patterns.eval_sum("STAT_w", (2, 1, 2, 1)) == 4

    def test_sorted_word_has_no_inversions(self):
        assert patterns.eval_sum("INV", (1, 2, 3, 4, 5)) == 0

    def test_unknown_name(self):
        with pytest.raises(UnknownNameError):
            patterns.eval_sum("NOPE", (1, 2))

    def test_accepts_pattern_sum_object(self):
        ps = patterns.named_sum("MAJ")
        assert patterns.eval_sum(ps, (2, 3, 1)) == 2

    def test_empty_sum_rejected(self):
        with pytest.raises(ValueError):
            patterns.PatternSum(())

    def test_maj_w_equals_descent_sum(self):
        for m in range(1, 5):
            for n in range(1, 5):
                for w in word_cube(m, n):
                    _, _, maj = words.descent_data(w)
                    assert patterns.eval_sum("MAJ_w", w) == maj

    def test_stat_word_form_equals_permutation_form_on_perms(self):
        for n in range(1, 6):
            for p in symmetric_group(n):
                assert patterns.eval_sum("STAT_w", p) == patterns.eval_sum("STAT", p)

    def test_inv_equals_direct_count(self):
        for n in range(1, 7):
            for p in symmetric_group(n):
                direct = sum(
                    1
                    for i in range(n)
                    for j in range(i + 1, n)
                    if p[i] > p[j]
                )
                assert patterns.eval_sum("INV", p) == direct

    def test_mak_is_mahonian_on_s5(self):
        from collections import Counter

        inv_dist = Counter(patterns.eval_sum("INV", p) for p in symmetric_group(5))
        mak_dist = Counter(patterns.eval_sum("MAK", p) for p in symmetric_group(5))
        assert inv_dist == mak_dist
