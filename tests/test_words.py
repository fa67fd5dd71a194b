"""Core word machinery: parsing, coding/decoding, and the seven statistics."""
from collections import Counter
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

import mahonian
from mahonian import patterns, verify, words
from mahonian.errors import (
    EmptyInputError,
    NotCompatibleError,
    ParseError,
    SizeMismatchError,
    UnknownNameError,
)

random_words = st.lists(st.integers(1, 6), min_size=1, max_size=8).map(tuple)
random_perms = (
    st.integers(1, 7)
    .flatmap(lambda n: st.permutations(range(1, n + 1)))
    .map(tuple)
)

# Columns: Adj, des, ides, F, IMAJ, MAJ, STAT.
CLASS_1122_TABLE = {
    (1, 1, 2, 2): (0, 0, 0, 1, 0, 0, 0),
    (1, 2, 1, 2): (1, 1, 1, 1, 2, 2, 3),
    (1, 2, 2, 1): (0, 1, 1, 1, 2, 3, 2),
    (2, 1, 1, 2): (0, 1, 1, 2, 2, 1, 2),
    (2, 1, 2, 1): (0, 2, 1, 2, 2, 4, 4),
    (2, 2, 1, 1): (0, 1, 1, 2, 2, 2, 1),
}


class TestParsing:
    def test_digit_string(self):
        assert words.parse_word("212231") == (2, 1, 2, 2, 3, 1)

    def test_separated_integers(self):
        assert words.parse_word("10,2,10,3") == (10, 2, 10, 3)
        assert words.parse_word("10 2 10 3") == (10, 2, 10, 3)
        assert words.parse_word(" 3, 1 ,2 ") == (3, 1, 2)

    @pytest.mark.parametrize("bad", ["", "  ", ",", " , ", ",,", "1a2", "102", "0", "1,0,2", "-1 2"])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            words.parse_word(bad)

    # An underscore, Arabic-Indic and fullwidth digits, and a superscript two:
    # int() reads the first three, and str.isdigit() admits the last.
    @pytest.mark.parametrize(
        "bad", ["1_0,2", "\u0661\u0662", "\uff11\uff12", "\u00b21", "3,\u0663"]
    )
    def test_letters_are_ascii_digits(self, bad):
        with pytest.raises(ParseError, match="^not a word: "):
            words.parse_word(bad)

    def test_format_small_letters(self):
        assert words.format_word((2, 1, 2, 2, 3, 1)) == "212231"

    def test_format_large_letters(self):
        assert words.format_word((10, 2, 10, 3)) == "10,2,10,3"

    @given(random_words)
    def test_format_parse_roundtrip(self, w):
        assert words.parse_word(words.format_word(w)) == w

    def test_format_index_set(self):
        assert words.format_index_set({8, 2, 4, 3}) == "{2,3,4,8}"
        assert words.format_index_set(frozenset()) == "{}"


class TestCode:
    def test_worked_example(self):
        assert words.code((2, 1, 2, 2, 3, 1)) == (3, 1, 4, 5, 6, 2)
        assert words.code((4, 3, 4, 4, 2, 1, 6, 5, 1)) == (5, 4, 6, 7, 3, 1, 9, 8, 2)

    def test_fixes_permutations(self):
        assert words.code((1, 2, 3)) == (1, 2, 3)

    @given(random_perms)
    def test_fixes_permutations_random(self, p):
        assert words.code(p) == p

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            words.code(())

    @given(random_words)
    def test_result_is_permutation(self, w):
        assert words.is_permutation(words.code(w))

    def test_returns_its_ranks_as_a_permutation(self):
        """On [3]^<=6 `code` returns a `words.Permutation` whose letters are
        the ranks of w's letters, equal letters ranked left to right."""
        for n in range(1, 7):
            for w in product(range(1, 4), repeat=n):
                order = sorted(range(n), key=lambda i: (w[i], i))
                assert type(words.code(w)) is words.Permutation
                assert words.code(w) == tuple(order.index(i) + 1 for i in range(n)), w


class TestDecode:
    def test_worked_examples(self):
        assert words.decode((3, 1, 4, 5, 6, 2), (1, 1, 2, 2, 2, 3)) == (2, 1, 2, 2, 3, 1)
        assert words.decode(
            (5, 1, 9, 6, 4, 3, 7, 8, 2), (1, 1, 2, 3, 4, 4, 4, 5, 6)
        ) == (4, 1, 6, 4, 3, 2, 4, 5, 1)

    def test_identity_decodes_to_sorted_word(self):
        assert words.decode((1, 2, 3, 4), (2, 1, 2, 1)) == (1, 1, 2, 2)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            words.decode((1, 2), (1, 1, 1))

    def test_not_compatible(self):
        # 21 needs 2 before 1, impossible with two equal letters
        with pytest.raises(NotCompatibleError):
            words.decode((2, 1), (1, 1))

    @pytest.mark.parametrize(
        "p, letters",
        [
            ((1, 1), (1, 2)),
            ((0, 1), (1, 2)),
            ((1, 3), (1, 2)),
            ((True, 2), (1, 2)),
            ((1.0, 2.0), (1, 2)),
            ((1, 1), (1, 2, 3)),
        ],
        ids=["repeated", "zero", "past-n", "bool", "float", "longer-multiset"],
    )
    def test_rejects_non_permutation(self, p, letters):
        # A plain ValueError, raised before the sizes are compared.
        with pytest.raises(ValueError, match="not a permutation") as info:
            words.decode(p, letters)
        assert type(info.value) is ValueError

    def test_decodes_exactly_the_compatible_permutations(self):
        from mahonian.verify import multisets, symmetric_group

        for letters in multisets(3, 5):
            bounds = words.block_boundaries(letters)
            for p in symmetric_group(len(letters)):
                if words.inverse_descent_set(p) <= bounds:
                    assert words.decode(p, letters) == tuple(letters[x - 1] for x in p)
                else:
                    with pytest.raises(NotCompatibleError):
                        words.decode(p, letters)

    @given(random_words)
    def test_roundtrip(self, w):
        assert words.decode(words.code(w), w) == w

    def test_code_injective_on_classes(self):
        from mahonian.verify import multisets, rearrangement_class

        for letters in multisets(3, 5):
            coded = [words.code(v) for v in rearrangement_class(letters)]
            assert len(set(coded)) == len(coded)


def descent_data(w):
    """(descent set, des, MAJ), each read alone."""
    return words.descent_set(w), words.statistic("des")(w), words.statistic("maj")(w)


def inverse_descent_data(w):
    """(inverse descent set, ides, IMAJ), each read alone."""
    return words.inverse_descent_set(w), words.statistic("ides")(w), words.statistic("imaj")(w)


class TestDescentData:
    def test_worked_example(self):
        d, des, maj = descent_data((4, 3, 4, 4, 2, 1, 6, 5, 1))
        assert (d, des, maj) == ({1, 4, 5, 7, 8}, 5, 25)

    def test_no_descents(self):
        assert descent_data((1, 1, 2, 2)) == (frozenset(), 0, 0)
        assert descent_data((1, 2, 3, 4, 5)) == (frozenset(), 0, 0)

    def test_empty_word_allowed(self):
        assert descent_data(()) == (frozenset(), 0, 0)

    def test_matches_definition(self):
        for n in range(1, 7):
            for w in [*verify.word_cube(4, n), *verify.symmetric_group(n)]:
                want = frozenset(i for i in range(1, n) if w[i - 1] > w[i])
                assert words.descent_set(w) == want, w


class TestInverseDescentData:
    def test_worked_example(self):
        idset, ides, imaj = inverse_descent_data((4, 3, 4, 4, 2, 1, 6, 5, 1))
        assert (idset, ides, imaj) == ({2, 3, 4, 8}, 4, 17)

    def test_repeated_letters(self):
        _, ides, imaj = inverse_descent_data((2, 1, 2, 1))
        assert (ides, imaj) == (1, 2)

    def test_identity(self):
        assert inverse_descent_data((1, 2, 3, 4)) == (frozenset(), 0, 0)

    def test_empty(self):
        for name in ("Id-set", "ides", "imaj"):
            with pytest.raises(EmptyInputError):
                words.statistic(name)(())

    def test_matches_definition_on_the_coded_word(self):
        for n in range(1, 7):
            for w in verify.word_cube(4, n):
                cw = words.code(w)
                want = frozenset(v for v in range(1, n) if cw.index(v + 1) < cw.index(v))
                assert words.inverse_descent_set(w) == want, w


class TestShuffleSet:
    def test_worked_example(self):
        assert words.shuffle_set((5, 4, 6, 7, 3, 1, 9, 8, 2)) == {1, 2, 4, 6, 8}

    def test_sorted_word_has_none(self):
        assert words.shuffle_set((1, 2, 3, 4, 5)) == frozenset()

    def test_small_case(self):
        # hand scan: only position 2 crosses the threshold 2
        assert words.shuffle_set((2, 3, 1)) == {2}

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            words.shuffle_set(())


class TestAdj:
    @pytest.mark.parametrize(
        "w, expected",
        [((1, 2, 1, 2), 1), ((1, 1, 2, 2), 0), ((2, 1), 2), ((1,), 1), ((1, 1, 1), 0)],
    )
    def test_values(self, w, expected):
        assert words.adj(w) == expected

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            words.adj(())

    def test_a_permutation_is_its_own_code(self):
        for n in range(1, 8):
            for p in verify.symmetric_group(n):
                assert type(p) is words.Permutation
                assert words.adj(p) == words.adj(tuple(p)), p


class TestPermutationPath:
    """Id, STAT and Adj read a `words.Permutation` as its own code, without a
    sort; on all of S_1..S_7 each gives the value it gives on the plain tuple,
    which it codes or sorts."""

    @pytest.mark.parametrize("fn", [words.inverse_descent_set, words.stat, words.adj])
    def test_a_permutation_reads_as_its_tuple(self, fn):
        for n in range(1, 8):
            for p in permutations(range(1, n + 1)):
                assert fn(words.Permutation(p)) == fn(p), p


# Words of the long-words shapes: lengths 1-48 over [12], the alphabet drawn
# first so that small alphabets, and so many ties, are as common as large ones.
long_words = (
    st.tuples(st.integers(1, 12), st.integers(1, 48))
    .flatmap(lambda mn: st.lists(st.integers(1, mn[0]), min_size=mn[1], max_size=mn[1]))
    .map(tuple)
)


class TestPositionScan:
    """Id and Adj read a plain word off its sorted positions, without coding
    it; each gives the value that its `Permutation` path gives on the code."""

    @pytest.mark.parametrize("fn", [words.inverse_descent_set, words.adj])
    def test_a_word_reads_as_its_code(self, fn):
        for n in range(1, 8):
            for w in verify.word_cube(3, n):
                assert fn(w) == fn(words.code(w)), w

    @settings(max_examples=200, deadline=None)
    @given(long_words)
    def test_a_long_word_reads_as_its_code(self, w):
        p = words.code(w)
        assert words.inverse_descent_set(w) == words.inverse_descent_set(p)
        assert words.adj(w) == words.adj(p)

    # 2321 codes to 2431: 4 is followed by 3 and 1 ends it; 2 precedes 1, 4 precedes 3.
    @pytest.mark.parametrize("fn, want", [(words.adj, 2), (words.inverse_descent_set, {1, 3})])
    def test_a_word_is_not_coded(self, monkeypatch, fn, want):
        monkeypatch.setattr(words, "code", None)
        assert fn((2, 3, 2, 1)) == want


class TestStat:
    def test_table_values(self):
        assert words.stat((2, 1, 2, 1)) == 4
        assert words.stat((4, 3, 4, 4, 2, 1, 6, 5, 1)) == 21

    def test_sorted_word(self):
        assert words.stat((1, 2, 3, 4, 5)) == 0

    def test_empty_word_allowed(self):
        assert words.stat(()) == 0
        assert words.stat(words.Permutation(())) == 0


class TestStatKernel:
    """The closed-form kernel against the six-term vincular pattern sum."""

    def test_matches_pattern_sum_exhaustively(self):
        for n in range(1, 7):
            for w in verify.word_cube(4, n):
                assert words.stat(w) == patterns.eval_sum("STAT_w", w), w

    # Lengths are drawn first so that long words are as common as short ones.
    @settings(max_examples=100, deadline=None)
    @given(
        st.tuples(st.integers(1, 12), st.integers(1, 100)).flatmap(
            lambda mn: st.lists(st.integers(1, mn[0]), min_size=mn[1], max_size=mn[1])
        ).map(tuple)
    )
    def test_matches_pattern_sum_on_long_words(self, w):
        assert words.stat(w) == patterns.eval_sum("STAT_w", w)

    def test_empty_word_agrees(self):
        assert words.stat(()) == patterns.eval_sum("STAT_w", ()) == 0


class TestStatVector:
    """A word's statistics read together through a `words.reader`."""

    @pytest.mark.parametrize("w, row", sorted(CLASS_1122_TABLE.items()))
    def test_class_1122(self, w, row):
        names = ("adj", "des", "ides", "F", "imaj", "maj", "stat")
        assert words.reader(names)(w, {}) == row

    def test_worked_example(self):
        names = ("F", "des", "maj", "stat", "Id-set", "Sh-set")
        assert words.reader(names)((5, 4, 6, 7, 3, 1, 9, 8, 2), {}) == (
            5, 5, 25, 21, {2, 3, 4, 8}, {1, 2, 4, 6, 8}
        )

    def test_field_consistency(self):
        des, maj, d, ides, imaj, idset = words.reader(
            ("des", "maj", "D-set", "ides", "imaj", "Id-set")
        )((2, 1, 1, 2), {})
        assert des == len(d) and maj == sum(d)
        assert ides == len(idset) and imaj == sum(idset)

    def test_empty(self):
        for name in ("ides", "adj", "imaj", "Id-set", "Sh-set", "F"):
            with pytest.raises(EmptyInputError):
                words.reader((name,))((), {})
        assert words.reader(("des", "maj", "stat", "D-set"))((), {}) == (0, 0, 0, frozenset())

    @given(random_words)
    def test_index_sets_in_range(self, w):
        d, idset, sh = words.reader(("D-set", "Id-set", "Sh-set"))(w, {})
        interior = set(range(1, len(w)))
        assert d <= interior and sh <= interior and idset <= interior

    @given(random_words)
    def test_equals_registry_row(self, w):
        row = tuple(f(w) for f in words.STATISTICS.values())
        assert words.reader(tuple(words.STATISTICS))(w, {}) == row


class TestRegistry:
    def test_verify_reads_the_same_table(self):
        assert verify.STATISTICS is words.STATISTICS
        assert verify.HEADINGS is words.HEADINGS

    def test_the_reader_computes_each_set_once(self, monkeypatch):
        w, names = (4, 3, 4, 4, 2, 1, 6, 5, 1), tuple(words.STATISTICS)
        want = tuple(words.statistic(name)(w) for name in names)
        calls = Counter()
        for source in ("D-set", "Id-set"):
            real = words.STATISTICS[source]
            monkeypatch.setitem(
                words.STATISTICS, source, lambda w, s=source, f=real: calls.update([s]) or f(w)
            )
        row = {}
        assert words.reader(names)(w, row) == want
        assert words.reader(("imaj", "maj"))(w, row) == (17, 25)
        assert calls == {"D-set": 1, "Id-set": 1}

    @pytest.mark.parametrize("source, names", [("D-set", ("des", "maj")), ("Id-set", ("ides", "imaj"))])
    def test_projections_read_a_planted_source(self, monkeypatch, source, names):
        monkeypatch.setitem(words.STATISTICS, source, lambda w: frozenset({1, 2}))
        w = (1, 2, 3)
        assert words.reader(names)(w, {}) == (2, 3)
        assert tuple(words.statistic(name)(w) for name in names) == (2, 3)

    def test_stat_reads_a_planted_descent_set(self, monkeypatch):
        monkeypatch.setitem(words.STATISTICS, "D-set", lambda w: frozenset({1, 2}))
        w = (2, 3, 1)  # (n+1)*des - #{x < w_1} - MAJ = 4*2 - 1 - 3
        assert words.reader(("stat",))(w, {}) == (4,)
        assert words.stat(w) == words.statistic("stat")(w) == 4

    def test_des_maj_and_stat_find_the_descents_once(self, monkeypatch):
        calls = []
        monkeypatch.setitem(
            words.STATISTICS, "D-set", lambda w: calls.append(w) or frozenset({1, 2})
        )
        w = (2, 3, 1)
        assert words.reader(("des", "maj", "stat"))(w, {}) == (2, 3, 4)
        assert calls == [w]

    def test_the_reader_refuses_an_unknown_name(self):
        with pytest.raises(UnknownNameError, match="unknown statistic 'foo'"):
            words.reader(("des", "foo"))

    def test_a_reader_calls_the_entries_in_place_when_it_is_built(self, monkeypatch):
        w, names = (2, 3, 1), ("des", "maj", "stat", "F", "D-set")
        monkeypatch.setitem(words.STATISTICS, "D-set", lambda w: frozenset({1, 2}))
        monkeypatch.setitem(words.STATISTICS, "F", lambda w: 7)
        planted = words.reader(names)
        monkeypatch.setattr(words._stat, "__code__", (lambda w, d: -1).__code__)
        assert planted(w, {}) == (2, 3, -1, 7, frozenset({1, 2}))
        monkeypatch.undo()
        # A reader built before a plant keeps the entries it was built with.
        real = words.reader(names)
        monkeypatch.setitem(words.STATISTICS, "D-set", lambda w: frozenset({1, 2}))
        monkeypatch.setitem(words.STATISTICS, "F", lambda w: 7)
        assert real(w, {}) == (1, 2, 1, 2, frozenset({2}))
        assert words.reader(names)(w, {}) == (2, 3, 4, 7, frozenset({1, 2}))

    def test_a_reader_fills_its_row_with_sources_and_plain_entries(self):
        w, row = (4, 3, 4, 4, 2, 1, 6, 5, 1), {}
        read = words.reader(("des", "maj", "stat", "F", "imaj"))
        assert read(w, row) == (5, 25, 21, 4, 17)
        assert row == {
            "D-set": words.descent_set(w),
            "F": 4,
            "Id-set": words.inverse_descent_set(w),
        }

    def test_the_compiled_code_cache_is_bounded(self):
        bound = words._read_code.cache_info().maxsize
        # ("F",) * k is a different shape for each k
        for k in range(1, 2 * bound + 1):
            assert words.reader(("F",) * k)((3, 1), {}) == (3,) * k
            assert words._read_code.cache_info().currsize <= bound
        assert words._read_code.cache_info().currsize == bound

    def test_stat_is_one_object(self):
        assert words.STATISTICS["stat"] is words.stat is mahonian.stat
        assert words.stat.source == "D-set"

    @pytest.mark.parametrize("name", ["D-set", "Id-set", "Sh-set"])
    def test_set_statistics_are_frozensets(self, name):
        w = (4, 3, 4, 4, 2, 1, 6, 5, 1)
        assert isinstance(words.STATISTICS[name](w), frozenset)
        assert isinstance(verify.statistic(name)(w), frozenset)


class TestSymmetries:
    def test_worked_examples(self):
        assert words.reverse_complement((1, 2, 4, 3)) == (2, 1, 3, 4)
        assert words.reverse_complement((4, 3, 1, 2)) == (3, 4, 2, 1)

    def test_identity(self):
        assert words.reverse_complement((1, 2, 3, 4)) == (1, 2, 3, 4)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError, match=r"\(1, 1, 3\)"):
            words.reverse_complement((1, 1, 3))
        with pytest.raises(ValueError):
            words.reverse_complement((1, 1))

    @given(random_perms)
    def test_involutions(self, p):
        assert words.reverse_complement(words.reverse_complement(p)) == p

    def test_involutions_exhaustive(self):
        from mahonian.verify import symmetric_group

        for n in range(1, 7):
            for p in symmetric_group(n):
                assert words.reverse_complement(words.reverse_complement(p)) == p

    @given(random_perms)
    def test_rc_commutes(self, p):
        """Complementing first and reversing after gives the same word."""
        complemented = [len(p) + 1 - x for x in p]
        assert words.reverse_complement(p) == tuple(reversed(complemented))


class TestIdentities:
    def test_maj_plus_stat_on_permutations(self):
        from mahonian.verify import symmetric_group

        for n in range(1, 7):
            for p in symmetric_group(n):
                _, des, maj = descent_data(p)
                assert maj + words.stat(p) == (n + 1) * des - (p[0] - 1)

    def test_maj_plus_stat_fails_on_raw_words(self):
        # length-4 word with repeated letters where the permutation identity breaks
        w = (2, 1, 2, 1)
        _, des, maj = descent_data(w)
        assert maj + words.stat(w) != (len(w) + 1) * des - (w[0] - 1)

    def test_coding_preserves_five_statistics(self):
        from mahonian.verify import word_cube

        for m in range(1, 4):
            for n in range(1, 4):
                for w in word_cube(m, n):
                    cw = words.code(w)
                    assert words.adj(w) == words.adj(cw)
                    assert descent_data(w) == descent_data(cw)
                    assert words.inverse_descent_set(w) == words.inverse_descent_set(cw)
                    assert words.stat(w) == words.stat(cw)
