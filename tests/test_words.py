"""Core word machinery: parsing, coding/decoding, and the seven statistics."""
import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from mahonian import patterns, verify, words
from mahonian.errors import (
    EmptyInputError,
    NotCompatibleError,
    ParseError,
    SizeMismatchError,
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

    @pytest.mark.parametrize("bad", ["", "  ", "1a2", "102", "0", "1,0,2", "-1 2"])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
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

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            words.decode((1, 1), (1, 2))

    @given(random_words)
    def test_roundtrip(self, w):
        assert words.decode(words.code(w), w) == w

    def test_code_injective_on_classes(self):
        from mahonian.verify import multisets, rearrangement_class

        for letters in multisets(3, 5):
            coded = [words.code(v) for v in rearrangement_class(letters)]
            assert len(set(coded)) == len(coded)


class TestDescentData:
    def test_worked_example(self):
        d, des, maj = words.descent_data((4, 3, 4, 4, 2, 1, 6, 5, 1))
        assert (d, des, maj) == ({1, 4, 5, 7, 8}, 5, 25)

    def test_no_descents(self):
        assert words.descent_data((1, 1, 2, 2)) == (frozenset(), 0, 0)
        assert words.descent_data((1, 2, 3, 4, 5)) == (frozenset(), 0, 0)

    def test_empty_word_allowed(self):
        assert words.descent_data(()) == (frozenset(), 0, 0)


class TestInverseDescentData:
    def test_worked_example(self):
        idset, ides, imaj = words.inverse_descent_data((4, 3, 4, 4, 2, 1, 6, 5, 1))
        assert (idset, ides, imaj) == ({2, 3, 4, 8}, 4, 17)

    def test_repeated_letters(self):
        _, ides, imaj = words.inverse_descent_data((2, 1, 2, 1))
        assert (ides, imaj) == (1, 2)

    def test_identity(self):
        assert words.inverse_descent_data((1, 2, 3, 4)) == (frozenset(), 0, 0)

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            words.inverse_descent_data(())

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


class TestStat:
    def test_table_values(self):
        assert words.stat((2, 1, 2, 1)) == 4
        assert words.stat((4, 3, 4, 4, 2, 1, 6, 5, 1)) == 21

    def test_sorted_word(self):
        assert words.stat((1, 2, 3, 4, 5)) == 0

    def test_empty_word_allowed(self):
        assert words.stat(()) == 0


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
    @pytest.mark.parametrize("w, row", sorted(CLASS_1122_TABLE.items()))
    def test_class_1122(self, w, row):
        sv = words.stat_vector(w)
        assert (sv.adj, sv.des, sv.ides, sv.first, sv.imaj, sv.maj, sv.stat) == row

    def test_worked_example(self):
        sv = words.stat_vector((5, 4, 6, 7, 3, 1, 9, 8, 2))
        assert (sv.first, sv.des, sv.maj, sv.stat) == (5, 5, 25, 21)
        assert sv.id_set == {2, 3, 4, 8}
        assert sv.sh_set == {1, 2, 4, 6, 8}

    def test_field_consistency(self):
        sv = words.stat_vector((2, 1, 1, 2))
        assert sv.des == len(sv.d_set) and sv.maj == sum(sv.d_set)
        assert sv.ides == len(sv.id_set) and sv.imaj == sum(sv.id_set)

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            words.stat_vector(())

    @given(random_words)
    def test_index_sets_in_range(self, w):
        sv = words.stat_vector(w)
        interior = set(range(1, len(w)))
        assert sv.d_set <= interior and sv.sh_set <= interior and sv.id_set <= interior

    @given(random_words)
    def test_equals_registry_row(self, w):
        row = tuple(f(w) for f in words.STATISTICS.values())
        assert dataclasses.astuple(words.stat_vector(w)) == row


class TestRegistry:
    def test_verify_reads_the_same_table(self):
        assert verify.STATISTICS is words.STATISTICS
        assert verify.HEADINGS is words.HEADINGS

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
        r, c, rc = words.symmetries((1, 2, 3, 4))
        assert r == (4, 3, 2, 1) and c == (4, 3, 2, 1) and rc == (1, 2, 3, 4)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            words.symmetries((1, 1))

    @given(random_perms)
    def test_involutions(self, p):
        assert words.reverse(words.reverse(p)) == p
        assert words.complement(words.complement(p)) == p
        assert words.reverse_complement(words.reverse_complement(p)) == p

    def test_involutions_exhaustive(self):
        from mahonian.verify import symmetric_group

        for n in range(1, 7):
            for p in symmetric_group(n):
                r, c, rc = words.symmetries(p)
                assert words.reverse(r) == p
                assert words.complement(c) == p
                assert words.reverse_complement(rc) == p

    @given(random_perms)
    def test_rc_commutes(self, p):
        assert words.reverse_complement(p) == words.reverse(words.complement(p))


class TestIdentities:
    def test_maj_plus_stat_on_permutations(self):
        from mahonian.verify import symmetric_group

        for n in range(1, 7):
            for p in symmetric_group(n):
                _, des, maj = words.descent_data(p)
                assert maj + words.stat(p) == (n + 1) * des - (p[0] - 1)

    def test_maj_plus_stat_fails_on_raw_words(self):
        # length-4 word with repeated letters where the permutation identity breaks
        w = (2, 1, 2, 1)
        _, des, maj = words.descent_data(w)
        assert maj + words.stat(w) != (len(w) + 1) * des - (w[0] - 1)

    def test_coding_preserves_five_statistics(self):
        from mahonian.verify import word_cube

        for m in range(1, 4):
            for n in range(1, 4):
                for w in word_cube(m, n):
                    cw = words.code(w)
                    assert words.adj(w) == words.adj(cw)
                    assert words.descent_data(w) == words.descent_data(cw)
                    assert words.inverse_descent_set(w) == words.inverse_descent_set(cw)
                    assert words.stat(w) == words.stat(cw)
