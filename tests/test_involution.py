"""The triple decomposition and the MAJ/STAT-swapping involutions."""
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from mahonian import cli, involution, tableaux, verify, words
from mahonian.errors import EmptyInputError, InternalInvariantError, InvalidTripleError
from mahonian.involution import (
    ShuffleTriple,
    burstein_p,
    decompose,
    phi,
    phi_on_class,
    recompose,
    transform_shuffle,
)
from mahonian.tableaux import foata_j
from mahonian.verify import multisets, rearrangement_class, symmetric_group

random_perms = (
    st.integers(1, 8)
    .flatmap(lambda n: st.permutations(range(1, n + 1)))
    .map(tuple)
)
random_words = st.lists(st.integers(1, 4), min_size=1, max_size=7).map(tuple)


def des_maj(w):
    d = words.descent_set(w)
    return len(d), sum(d)


def quintuple(w):
    des, maj = des_maj(w)
    return des, words.inverse_descent_set(w), w[0], maj, words.stat(w)


class TestDecompose:
    def test_worked_example(self):
        t = decompose((5, 4, 6, 7, 3, 1, 9, 8, 2))
        assert t.top == (6, 7, 9, 8)
        assert t.bottom == (4, 3, 1, 2)
        assert t.shuffle == {1, 2, 4, 6, 8}

    def test_identity(self):
        t = decompose((1, 2, 3, 4))
        assert t == ShuffleTriple((2, 3, 4), (), frozenset())

    def test_small_case(self):
        assert decompose((2, 3, 1)) == ShuffleTriple((3,), (1,), frozenset({2}))

    def test_singleton(self):
        assert decompose((1,)) == ShuffleTriple((), (), frozenset())

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            decompose(())

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            decompose((2, 2, 1))


class TestRecompose:
    def test_worked_examples(self):
        assert recompose(
            ShuffleTriple((6, 7, 9, 8), (4, 3, 1, 2), frozenset({1, 2, 4, 6, 8}))
        ) == (5, 4, 6, 7, 3, 1, 9, 8, 2)
        assert recompose(
            ShuffleTriple((9, 6, 7, 8), (1, 4, 3, 2), frozenset({1, 2, 4, 6, 8}))
        ) == (5, 1, 9, 6, 4, 3, 7, 8, 2)

    def test_identity(self):
        assert recompose(ShuffleTriple((2, 3, 4), (), frozenset())) == (1, 2, 3, 4)

    def test_bad_letters(self):
        with pytest.raises(InvalidTripleError):
            recompose(ShuffleTriple((2, 3), (5,), frozenset({1})))

    def test_bad_boundary_range(self):
        with pytest.raises(InvalidTripleError):
            recompose(ShuffleTriple((3,), (1,), frozenset({3})))

    def test_bad_alternation(self):
        # one low letter but no boundary leaves room only for highs
        with pytest.raises(InvalidTripleError):
            recompose(ShuffleTriple((), (1,), frozenset()))

    def test_roundtrip_exhaustive(self):
        for n in range(1, 8):
            for p in symmetric_group(n):
                assert recompose(decompose(p)) == p

    @given(random_perms)
    def test_roundtrip_random(self, p):
        assert recompose(decompose(p)) == p


class TestTransformShuffle:
    def test_worked_example(self):
        assert transform_shuffle({1, 2, 4, 6, 8}, 9) == {1, 2, 4, 6, 8}

    def test_empty(self):
        assert transform_shuffle(frozenset(), 5) == frozenset()

    def test_odd_case(self):
        assert transform_shuffle({2}, 3) == {1, 2}
        assert transform_shuffle({1, 2}, 3) == {2}

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            transform_shuffle({5}, 5)
        with pytest.raises(ValueError):
            transform_shuffle({0}, 5)

    @given(st.integers(2, 12).flatmap(
        lambda n: st.tuples(st.just(n), st.sets(st.integers(1, n - 1)))
    ))
    def test_self_inverse(self, case):
        n, cuts = case
        assert transform_shuffle(transform_shuffle(cuts, n), n) == frozenset(cuts)


class TestPhi:
    def test_worked_example(self):
        assert phi((5, 4, 6, 7, 3, 1, 9, 8, 2)) == (5, 1, 9, 6, 4, 3, 7, 8, 2)

    def test_identity_fixed(self):
        assert phi((1, 2, 3, 4, 5)) == (1, 2, 3, 4, 5)

    def test_singleton(self):
        assert phi((1,)) == (1,)

    def test_small_case_swaps_maj_stat(self):
        assert phi((2, 3, 1)) == (2, 1, 3)
        assert quintuple((2, 3, 1)) == (1, frozenset({1}), 2, 2, 1)
        assert quintuple((2, 1, 3)) == (1, frozenset({1}), 2, 1, 2)

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            phi(())

    def test_involution(self):
        for n in range(1, 6):
            for p in symmetric_group(n):
                assert phi(phi(p)) == p

    def test_quintuple_swap(self):
        for n in range(1, 6):
            for p in symmetric_group(n):
                des, idset, first, maj, stat = quintuple(p)
                assert quintuple(phi(p)) == (des, idset, first, stat, maj)

    def test_maj_pair_identity(self):
        for n in range(1, 6):
            for p in symmetric_group(n):
                des, maj = des_maj(p)
                _, maj_image = des_maj(phi(p))
                assert maj + maj_image == (n + 1) * des - (p[0] - 1)

    @given(random_perms)
    def test_involution_random(self, p):
        assert phi(phi(p)) == p


class TestBursteinP:
    def test_small_case(self):
        assert burstein_p((2, 3, 1)) == (2, 1, 3)

    def test_small_case_statistics(self):
        def adj_quintuple(p):
            des, maj = des_maj(p)
            return words.adj(p), des, p[0], maj, words.stat(p)

        assert adj_quintuple((2, 3, 1))[1:] == (1, 2, 2, 1)
        assert adj_quintuple((2, 1, 3))[1:] == (1, 2, 1, 2)

    def test_identity_fixed(self):
        assert burstein_p((1, 2, 3)) == (1, 2, 3)

    def test_involution_s5(self):
        for p in symmetric_group(5):
            assert burstein_p(burstein_p(p)) == p

    def test_adj_quintuple_swap(self):
        for n in range(1, 5):
            for p in symmetric_group(n):
                des, maj = des_maj(p)
                image = burstein_p(p)
                des_i, maj_i = des_maj(image)
                assert (words.adj(image), des_i, image[0]) == (words.adj(p), des, p[0])
                assert maj_i == words.stat(p) and words.stat(image) == maj

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            burstein_p(())

    @pytest.mark.parametrize("p", [(2, 2, 1), (1, 3), (2.0, 1.0), (True,)])
    def test_rejects_non_permutation(self, p):
        with pytest.raises(ValueError):
            burstein_p(p)


def reference_triple_map(p, g):
    """Act by `g` on the triple through the public coding maps."""
    t = decompose(p)
    top = words.decode(g(words.code(t.top)), t.top) if t.top else ()
    return recompose(ShuffleTriple(top, g(t.bottom), transform_shuffle(t.shuffle, t.size)))


@pytest.mark.parametrize(
    "mapper, g", [(phi, foata_j), (burstein_p, words.reverse_complement)]
)
def test_maps_equal_the_reference_triple_composition(mapper, g):
    for n in range(1, 9):
        for p in symmetric_group(n):
            assert mapper(p) == reference_triple_map(p, g), p


class TestPhiOnClass:
    def test_worked_example(self):
        assert phi_on_class((4, 3, 4, 4, 2, 1, 6, 5, 1)) == (4, 1, 6, 4, 3, 2, 4, 5, 1)

    def test_sorted_word_fixed(self):
        assert phi_on_class((1, 1, 2, 2)) == (1, 1, 2, 2)
        assert phi_on_class((1, 2, 3, 4)) == (1, 2, 3, 4)

    def test_table_pairing(self):
        assert phi_on_class((1, 2, 1, 2)) == (1, 2, 2, 1)
        assert phi_on_class((2, 1, 1, 2)) == (2, 2, 1, 1)
        assert phi_on_class((2, 1, 2, 1)) == (2, 1, 2, 1)

    def test_agrees_with_phi_on_permutations(self):
        for p in symmetric_group(4):
            assert phi_on_class(p) == phi(p)

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            phi_on_class(())

    def test_involution_on_classes(self):
        for letters in multisets(3, 5):
            for v in rearrangement_class(letters):
                assert phi_on_class(phi_on_class(v)) == v

    def test_the_image_is_not_checked_again(self, monkeypatch):
        """`decode`'s round trip is the one check of the image: no call goes
        through `words` to the checks it replaced.  `phi`'s own input check
        is bound in `involution` and is not counted."""
        calls = Counter()
        for name in ("inverse_descent_set", "block_boundaries", "check_permutation"):

            def counted(*args, name=name, real=getattr(words, name)):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(words, name, counted)
        for letters in multisets(3, 5):
            for v in rearrangement_class(letters):
                phi_on_class(v)
        assert calls == Counter()

    def test_a_phi_that_breaks_compatibility_is_an_internal_fault(self, monkeypatch):
        monkeypatch.setattr(involution, "phi", lambda p: tuple(sorted(p, reverse=True)))
        with pytest.raises(InternalInvariantError, match=r"112 to \(3, 2, 1\)"):
            phi_on_class((1, 1, 2))

    @given(random_words)
    def test_preserves_multiset(self, v):
        assert Counter(phi_on_class(v)) == Counter(v)

    @given(random_words)
    def test_quintuple_swap_random(self, v):
        des, idset, first, maj, stat = quintuple(v)
        assert quintuple(phi_on_class(v)) == (des, idset, first, stat, maj)


def uncached_phi(p):
    return reference_triple_map(p, tableaux._foata_j)


class TestSwitchMemo:
    """`phi` switches its standardized subwords through the bounded `_switch`."""

    def assert_phi_uncached_on_small_groups(self):
        for n in range(8):
            for p in symmetric_group(n):
                if not p:
                    with pytest.raises(EmptyInputError):
                        phi(p)
                    continue
                assert phi(p) == uncached_phi(p), p

    def test_equals_uncached_before_and_after_eviction(self):
        self.assert_phi_uncached_on_small_groups()
        rng = random.Random(20261018)
        for _ in range(600):
            p = tuple(rng.sample(range(1, 13), 12))
            assert phi(p) == uncached_phi(p), p
        info = tableaux._switch.cache_info()
        assert info.misses > info.maxsize == info.currsize
        self.assert_phi_uncached_on_small_groups()

    @given(st.integers(1, 60).flatmap(lambda n: st.permutations(range(1, n + 1))).map(tuple))
    def test_equals_uncached_random(self, p):
        assert phi(p) == uncached_phi(p)

    def test_bound(self):
        assert tableaux._switch.cache_info().maxsize == 1024

    def test_long_subwords_are_not_memoized(self):
        """A 40-letter permutation starting at 20 has subwords of 19 and 20
        letters, past the memo's 10."""
        rest = list(range(1, 20)) + list(range(21, 41))
        random.Random(20261019).shuffle(rest)
        p = (20, *rest)
        phi((3, 1, 2, 4, 5))
        before = tableaux._switch.cache_info().currsize
        assert phi(p) == uncached_phi(p)
        assert tableaux._switch.cache_info().currsize == before

    def test_a_wrong_switch_fails_closed_without_the_memo(self, monkeypatch):
        """A 24-letter permutation starting at 12 has subwords of 11 and 12
        letters, switched without the memo and still checked."""
        monkeypatch.setattr(tableaux, "_foata_j", lambda w: w[:1] * len(w))
        p = (12, *range(1, 12), *range(13, 25))
        with pytest.raises(InternalInvariantError):
            phi(p)
        assert tableaux._switch.cache_info().currsize == 0

    def test_foata_j_check_never_reads_the_memo(self):
        phi((3, 1, 2, 4, 5))
        before = tableaux._switch.cache_info()
        assert verify.check("lemma-3.1", verify.CheckBounds(n=6)).passed
        after = tableaux._switch.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_equal_letters_of_another_type_are_refused(self):
        for p in [(3.0, 1.0, 2.0, 4.0, 5.0), (True,)]:
            with pytest.raises(ValueError):
                phi(p)
        image = phi((3, 1, 2, 4, 5))
        assert image == (3, 4, 5, 1, 2) and all(type(x) is int for x in image)

    def test_each_subword_is_switched_once(self, monkeypatch):
        """All 874 standardized subwords of S_7 (sizes 0..6) fit the memo,
        which starts empty (conftest), so thm-1.3 at n = 7 inserts each at
        most twice; without the memo it inserts twice per subword of each of
        the 7! permutations."""
        calls = []
        real = tableaux._insert

        def counted(p):
            calls.append(1)
            return real(p)

        monkeypatch.setattr(tableaux, "_insert", counted)
        assert verify.check("thm-1.3", verify.CheckBounds(n=7)).passed
        assert 0 < len(calls) <= 2 * 874


long_perms = st.integers(1, 60).flatmap(lambda n: st.permutations(range(1, n + 1))).map(tuple)


@pytest.mark.parametrize(
    "mapper, g", [(phi, foata_j), (burstein_p, words.reverse_complement)]
)
@given(p=long_perms)
def test_maps_equal_the_reference_triple_composition_random(mapper, g, p):
    assert mapper(p) == reference_triple_map(p, g)


class TestDirectAction:
    """`phi` and `burstein_p` act on the permutation without building its triple."""

    @pytest.mark.parametrize(
        "planted",
        [
            lambda w: tuple(x + 1 for x in w),  # letters out of range
            lambda w: w[:1] * len(w),  # a letter repeated
            lambda w: w[:-1],  # one letter short
            lambda w: w + (len(w) + 1,),  # one letter long
        ],
    )
    def test_a_wrong_switch_fails_closed(self, monkeypatch, capsys, planted):
        """The switch is planted beneath the memo, which checks each image
        once and stores no refusal, so every call fails again."""
        monkeypatch.setattr(tableaux, "_foata_j", planted)
        tableaux._switch.cache_clear()
        for _ in range(2):
            with pytest.raises(InternalInvariantError):
                phi((1, 2, 3, 4))
        assert cli.main(["verify", "thm-1.3", "--n", "4"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["FAIL thm-1.3 (S_4): 24 instances", "    input:    1234"]
        assert lines[3].startswith("    actual:   raised InternalInvariantError")

    @pytest.mark.parametrize("name", ["thm-1.1", "thm-1.3"])
    def test_no_triple_is_built(self, monkeypatch, name):
        calls = Counter()
        for fn in ("decompose", "recompose"):
            real = getattr(involution, fn)

            def counted(*args, fn=fn, real=real):
                calls[fn] += 1
                return real(*args)

            monkeypatch.setattr(involution, fn, counted)
        assert verify.check(name, verify.CheckBounds(n=7)).passed
        assert calls == Counter()
