"""RSK row insertion, inverse RSK, and the tableau-switching involution."""
import random

import pytest
from hypothesis import given, strategies as st

from mahonian import involution, tableaux, words
from mahonian.errors import InternalInvariantError, NotStandardError, ShapeMismatchError
from mahonian.tableaux import Tableau, foata_j, inverse_rsk, rsk
from mahonian.verify import symmetric_group

random_perms = (
    st.integers(1, 9)
    .flatmap(lambda n: st.permutations(range(1, n + 1)))
    .map(tuple)
)
long_perms = (
    st.integers(1, 60)
    .flatmap(lambda n: st.permutations(range(1, n + 1)))
    .map(tuple)
)


def switch_by_tableaux(p):
    """foata_j through the public, validating entry points only."""
    return inverse_rsk(rsk(p)[0], rsk(words.reverse_complement(p))[1])


class TestRsk:
    @pytest.mark.parametrize(
        "perm, insert_rows, record_rows",
        [
            ((1, 2, 4, 3), [[1, 2, 3], [4]], [[1, 2, 3], [4]]),
            ((2, 1, 3, 4), [[1, 3, 4], [2]], [[1, 3, 4], [2]]),
            ((4, 3, 1, 2), [[1, 2], [3], [4]], [[1, 4], [2], [3]]),
            ((3, 4, 2, 1), [[1, 4], [2], [3]], [[1, 2], [3], [4]]),
        ],
    )
    def test_worked_examples(self, perm, insert_rows, record_rows):
        insert_tab, record_tab = rsk(perm)
        assert insert_tab == Tableau.of(insert_rows)
        assert record_tab == Tableau.of(record_rows)

    def test_empty(self):
        insert_tab, record_tab = rsk(())
        assert insert_tab.rows == () and record_tab.rows == ()

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            rsk((1, 1, 2))

    @given(random_perms)
    def test_outputs_standard_same_shape(self, p):
        insert_tab, record_tab = rsk(p)
        insert_tab.validate()
        record_tab.validate()
        assert insert_tab.shape == record_tab.shape
        assert insert_tab.size == len(p)

    def test_render(self):
        insert_tab, _ = rsk((4, 3, 1, 2))
        assert str(insert_tab) == "1 2\n3\n4"


class TestInverseRsk:
    def test_worked_examples(self):
        assert inverse_rsk(
            Tableau.of([[1, 2, 3], [4]]), Tableau.of([[1, 3, 4], [2]])
        ) == (4, 1, 2, 3)
        assert inverse_rsk(
            Tableau.of([[1, 2], [3], [4]]), Tableau.of([[1, 2], [3], [4]])
        ) == (1, 4, 3, 2)

    def test_single_row_is_identity(self):
        row = Tableau.of([[1, 2, 3, 4, 5]])
        assert inverse_rsk(row, row) == (1, 2, 3, 4, 5)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            inverse_rsk(Tableau.of([[1, 2], [3]]), Tableau.of([[1, 2, 3]]))

    @pytest.mark.parametrize(
        "rows",
        [
            [[2, 1], [3]],       # row not increasing
            [[1, 2], [2]],       # duplicate entry
            [[1], [2, 3]],       # shape not weakly decreasing
            [[1, 2], [4], [3]],  # column not increasing
        ],
    )
    def test_not_standard(self, rows):
        bad = Tableau.of(rows)
        with pytest.raises(NotStandardError):
            inverse_rsk(bad, bad)

    def test_roundtrip_exhaustive(self):
        for n in range(0, 7):
            for p in symmetric_group(n):
                assert inverse_rsk(*rsk(p)) == p

    @given(random_perms)
    def test_roundtrip_random(self, p):
        assert inverse_rsk(*rsk(p)) == p


class TestFoataJ:
    def test_worked_examples(self):
        assert foata_j((1, 2, 4, 3)) == (4, 1, 2, 3)
        assert foata_j((4, 3, 1, 2)) == (1, 4, 3, 2)

    def test_identity_fixed(self):
        assert foata_j((1, 2, 3, 4, 5)) == (1, 2, 3, 4, 5)

    def test_empty(self):
        assert foata_j(()) == ()

    def test_shapes_agree_with_reverse_complement(self):
        for n in range(1, 7):
            for p in symmetric_group(n):
                insert_tab, _ = rsk(p)
                _, record_rc = rsk(words.reverse_complement(p))
                assert insert_tab.shape == record_rc.shape

    def test_involution(self):
        for n in range(1, 6):
            for p in symmetric_group(n):
                assert foata_j(foata_j(p)) == p

    def test_equals_inverse_rsk_of_public_tableaux(self):
        for n in range(0, 8):
            for p in symmetric_group(n):
                assert foata_j(p) == switch_by_tableaux(p), p

    @given(long_perms)
    def test_equals_inverse_rsk_of_public_tableaux_long(self, p):
        assert foata_j(p) == switch_by_tableaux(p)

    def test_a_shape_mismatch_is_an_internal_fault(self, monkeypatch):
        real = tableaux._insert

        def planted(w):  # the reverse-complement of 1243 is 2134; insert it in one row
            rows, row_of_step = real(w)
            return ([sorted(w)], row_of_step) if list(w) == [2, 1, 3, 4] else (rows, row_of_step)

        monkeypatch.setattr(tableaux, "_insert", planted)
        with pytest.raises(InternalInvariantError, match="shape"):
            foata_j((1, 2, 4, 3))

    def test_preserves_id_reflects_d(self):
        for n in range(1, 6):
            for p in symmetric_group(n):
                image = foata_j(p)
                assert words.inverse_descent_set(image) == words.inverse_descent_set(p)
                assert words.descent_set(image) == {n - k for k in words.descent_set(p)}


def two_insertions(p):
    """foata_j by its definition: insert p and rc(p), then invert
    (P(p), Q(rc(p)))."""
    rows, _ = tableaux._insert(p)
    _, rc_row_of_step = tableaux._insert(words.reverse_complement(p))
    return tableaux._unbump(rows, rc_row_of_step)


class TestEvacuated:
    """`_foata_j` reads Q(rc(p)) from `tableaux._EVACUATED`, keyed by Q(p)."""

    def test_warm_equals_two_insertions(self):
        perms = [p for n in range(9) for p in symmetric_group(n)]
        for p in perms:
            tableaux._foata_j(p)
        # One entry per standard tableau of 0..8 cells, as many as involutions.
        assert len(tableaux._EVACUATED) == 1 + 1 + 2 + 4 + 10 + 26 + 76 + 232 + 764
        for p in perms:
            assert tableaux._foata_j(p) == two_insertions(p), p

    def test_long_permutations_are_not_stored(self):
        rng = random.Random(20261019)
        for n in (40, 11, 10):
            foata_j(tuple(rng.sample(range(1, n + 1), n)))
        assert [len(key) for key in tableaux._EVACUATED] == [10]

    def test_stored_rows_are_tuples(self):
        for n in range(8):
            for p in symmetric_group(n):
                assert foata_j(p) == foata_j(p), p
        assert all(type(rows) is tuple for rows in tableaux._EVACUATED.values())

    @pytest.mark.parametrize("n, stored", [(10, 1), (11, 0)])
    def test_one_letter_bound_for_both_caches(self, n, stored):
        """`_CACHED_LETTERS` bounds the evacuation dict and `phi`'s memo
        alike: a word of 10 letters is stored in each, one of 11 in neither."""
        assert tableaux._CACHED_LETTERS == 10
        foata_j(tuple(range(n, 0, -1)))
        assert len(tableaux._EVACUATED) == stored
        # 1 then 2..n+1: a top subword of n letters and an empty bottom one.
        involution.phi((1, *range(2, n + 2)))
        assert tableaux._switch.cache_info().currsize == 1 + stored

    @pytest.mark.parametrize("n, stored", [(10, 1), (11, 0)])
    def test_switch_memoizes_up_to_the_letter_bound(self, n, stored):
        """`switch` is `phi`'s one way to the memo, and applies the bound."""
        w = tuple(range(n, 0, -1))
        assert tableaux.switch(w) == tableaux.switch(w) == foata_j(w)
        assert tableaux._switch.cache_info().currsize == stored


@pytest.mark.parametrize(
    "module, name, checks",
    [
        (tableaux, "foata_j", 1),
        (involution, "phi", 1),
        (involution, "burstein_p", 1),
        (involution, "phi_on_class", 1),
    ],
)
def test_kernel_checks_its_input_once(monkeypatch, module, name, checks):
    calls = []

    def counting(w, check=words.check_permutation):
        calls.append(tuple(w))
        check(w)

    for wrapped in (words, tableaux, involution):
        monkeypatch.setattr(wrapped, "check_permutation", counting)
    p = (3, 1, 4, 5, 2, 7, 6)
    getattr(module, name)(p)
    assert len(calls) == checks and calls[0] == p


@pytest.mark.parametrize("f", [foata_j, involution.phi, involution.burstein_p])
@pytest.mark.parametrize("w", [(1, 1, 2), (2, 3), (0, 1)])
def test_kernel_rejects_non_permutation(f, w):
    with pytest.raises(ValueError):
        f(w)
