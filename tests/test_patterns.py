"""Vincular pattern parsing, occurrence counting, and the named pattern sums."""
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from mahonian import patterns, words
from mahonian.errors import BoundTooLargeError, ParseError, UnknownNameError
from mahonian.verify import symmetric_group, word_cube

random_words = st.lists(st.integers(1, 4), min_size=1, max_size=7).map(tuple)

ALL_NAMED_PATTERNS = sorted(
    {text for terms in patterns._SUM_SPECS.values() for text in terms}
    | {"3-1-4-2", "31-4-2"}
)


def reference_count(pattern, word):
    """Reference oracle: a naive backtracker that extends a partial
    occurrence one pattern letter at a time, testing every candidate
    position against all the letters already picked.  It stops wherever
    fewer host positions remain than pattern letters still to place."""
    letters, glued = pattern.letters, pattern.glued
    r, n = len(letters), len(word)
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
        stop = n - (r - depth) + 1  # past the last position with room for the rest
        if depth and glued[depth - 1]:
            candidates = range(picked[-1] + 1, min(picked[-1] + 2, stop))
        else:
            candidates = range(picked[-1] + 1 if picked else 0, stop)
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


@st.composite
def many_block_patterns(draw):
    """21-30 blocks of one or two letters, at most 32 letters, each value
    repeated up to k times for a drawn k, so that all letters may be equal,
    and a host word: the pattern's own letters with up to two letters
    inserted, so that most draws occur."""
    blocks = draw(st.integers(21, 30))
    pairs = draw(st.sets(st.integers(0, blocks - 1), max_size=32 - blocks))
    lengths = [2 if b in pairs else 1 for b in range(blocks)]
    order = draw(st.permutations(range(sum(lengths))))
    k = draw(st.integers(1, len(order)))
    letters = tuple(x // k + 1 for x in order)
    glued = []
    for length in lengths:
        glued += [True] * (length - 1) + [False]
    pattern = patterns.VincularPattern(letters, tuple(glued[:-1]))
    word = list(letters)
    for _ in range(draw(st.integers(0, 2))):
        word.insert(draw(st.integers(0, len(word))), draw(st.integers(1, max(letters) + 1)))
    return pattern, tuple(word)


@st.composite
def pattern_sums(draw):
    """1-6 terms.  Each term after the first is a new pattern, an earlier
    term again, or an earlier term's leading blocks followed by a new block
    of one or two letters placed anywhere in their order, so that terms
    share leading blocks, end in blocks of several letters, and repeat."""
    terms = [draw(vincular_patterns())]
    for _ in range(draw(st.integers(0, 5))):
        how = draw(st.sampled_from(["new", "again", "grown"]))
        if how == "new":
            terms.append(draw(vincular_patterns()))
            continue
        base = draw(st.sampled_from(terms))
        if how == "again":
            terms.append(base)
            continue
        keep = sum(map(len, base.blocks[: draw(st.integers(1, len(base.blocks)))]))
        # Doubled, the kept letters leave odd values free between them.
        grown = [2 * a for a in base.letters[:keep]]
        grown += draw(st.lists(st.integers(1, 2 * max(grown) + 1), min_size=1, max_size=2))
        values = sorted(set(grown))
        letters = tuple(values.index(a) + 1 for a in grown)
        glued = base.glued[: keep - 1] + (False,) + (True,) * (len(letters) - keep - 1)
        terms.append(patterns.VincularPattern(letters, glued))
    return patterns.PatternSum(tuple(terms))


@pytest.fixture
def generated(monkeypatch):
    """The terms of each sum whose counter source is generated from now on."""
    made, real = [], patterns._source
    monkeypatch.setattr(patterns, "_source", lambda terms: made.append(terms) or real(terms))
    return made


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

    @pytest.mark.parametrize("letters, glued", [((), ()), ((1, 2), ())])
    def test_rejects_flags_that_miss_a_letter_pair(self, letters, glued):
        """A pattern needs a letter, and one adjacency flag per neighbouring pair."""
        with pytest.raises(ParseError):
            patterns.VincularPattern(letters, glued)

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

    @settings(max_examples=40, deadline=None)
    @given(many_block_patterns())
    def test_more_blocks_than_python_nests_match_both_references(self, drawn):
        pat, w = drawn
        assert len(pat.blocks) > 20
        assert patterns.count_occurrences(pat, pat.letters) == 1
        count = patterns.count_occurrences(pat, w)
        assert count == reference_count(pat, w) == brute_count(pat, w)

    def test_parsing_again_reuses_the_generated_code(self, generated):
        patterns._counter.cache_clear()
        first, again = patterns.parse_pattern("31-4-2"), patterns.parse_pattern("31-4-2")
        assert first is not again
        w = (4, 1, 2, 5, 3)
        assert patterns.count_occurrences(first, w) == patterns.count_occurrences(again, w) == 1
        key = (first,)
        assert generated == [key]
        assert patterns._counter(key) is patterns._counter((again,))
        info = patterns._counter.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 3, 1)

    def test_generated_code_cache_is_bounded(self):
        patterns._counter.cache_clear()
        valid = [  # the 4-letter patterns ab-cd whose letters cover 1..max
            patterns.parse_pattern("{}{}-{}{}".format(*letters))
            for letters in product(range(1, 5), repeat=4)
            if set(letters) == set(range(1, max(letters) + 1))
        ]
        bound = patterns._counter.cache_info().maxsize
        assert bound == 64 and len(valid) > bound
        w = (1, 2, 1, 3, 2)
        for pat in valid:
            assert patterns.count_occurrences(pat, w) == brute_count(pat, w)
        assert patterns._counter.cache_info().currsize == bound
        misses = patterns._counter.cache_info().misses
        patterns._counter((valid[-1],))
        assert patterns._counter.cache_info().misses == misses

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


class TestCompiledSums:
    @given(pattern_sums(), st.lists(st.integers(1, 5), max_size=9).map(tuple))
    def test_random_sum_matches_its_terms_counted_apart(self, summed, w):
        assert patterns.eval_sum(summed, w) == sum(brute_count(t, w) for t in summed.terms)

    @given(vincular_patterns(), st.lists(st.integers(1, 5), max_size=9).map(tuple))
    def test_a_sum_of_one_term_is_its_occurrence_count(self, pat, w):
        one_term = patterns.PatternSum((pat,))
        assert patterns.eval_sum(one_term, w) == patterns.count_occurrences(pat, w)

    def test_stat_w_places_each_leading_block_once_and_counts_last_letters_inline(self):
        source = patterns._source(patterns.named_sum("STAT_w").terms)
        # 21-3, 21-2, 32-1 and 21 begin with a descent, 13-2 and 12-1 with an
        # ascent: two blocks of two letters, placed by one loop.
        assert source.count("def ") == 1 and source.count("for s in range(") == 1
        assert source.count("for x2 in w[s + 2:]:") == 2 and "b1(" not in source

    @pytest.mark.parametrize("terms", [("21", "12-3"), ("21", "12-3-1", "11"), ("12-1", "21-3-2")])
    def test_sibling_blocks_of_one_length_and_different_reach_share_a_loop(self, terms):
        summed = patterns.PatternSum(tuple(map(patterns.parse_pattern, terms)))
        source = patterns._source(summed.terms)
        # The shortest term through the blocks sets the loop's range; the
        # longer one is bounded in its own guard.
        assert source.count("for s in range(lo, n - ") == 1 + ("b1(" in source)
        assert f"s < n - {len(summed.terms[1].letters) - 1} and " in source
        for n in range(8):
            for w in word_cube(3, n):
                assert patterns.eval_sum(summed, w) == sum(brute_count(t, w) for t in summed.terms)

    def test_terms_share_a_block_until_their_comparisons_differ(self):
        source = patterns._source(patterns.named_sum("INV").terms)
        # 3-12, 3-21 and 2-31 share their first letter; 21 is a block of its own.
        # Their three second blocks, of two letters each, share one loop.
        assert source.count("def ") == 2 and source.count("for s in range(") == 3
        assert source.count("total += b1(") == 1

    def test_a_term_past_the_block_limit_is_refused_before_any_code(self, generated):
        ones = ["1"] * 501
        summed = patterns.PatternSum(tuple(map(patterns.parse_pattern, ("21", "-".join(ones)))))
        with pytest.raises(BoundTooLargeError, match="a 501-block pattern .* limit 500$"):
            patterns.eval_sum(summed, (1,) * 501)
        assert generated == []
        deepest = patterns.parse_pattern("-".join(ones[1:]))
        at_limit = patterns.PatternSum((summed.terms[0], deepest))
        assert patterns.eval_sum(at_limit, (2,) + (1,) * 501) == 1 + 501

    def test_naming_or_parsing_a_sum_again_reuses_its_code(self, generated):
        patterns._counter.cache_clear()
        patterns.named_sum.cache_clear()
        stat_w = patterns._SUM_SPECS["STAT_w"]
        parsed = patterns.PatternSum(tuple(map(patterns.parse_pattern, stat_w)))
        w = (2, 1, 2, 1)
        assert patterns.eval_sum("STAT_w", w) == patterns.eval_sum(parsed, w) == 4
        assert patterns.eval_sum("STAT_w", w) == 4
        assert generated == [parsed.terms] == [patterns.named_sum("STAT_w").terms]
        assert patterns.named_sum("STAT_w").counter is parsed.counter
        # The second evaluation of the named sum reads the counter held on it.
        info = patterns._counter.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


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
                    assert patterns.eval_sum("MAJ_w", w) == sum(words.descent_set(w))

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
