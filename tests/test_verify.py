"""Enumeration, joint distributions, and the named check registry."""
import math
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from mahonian import cli, involution, patterns, tableaux, verify, words
from mahonian.errors import BoundTooLargeError, UnknownNameError

random_multisets = st.lists(st.integers(1, 4), min_size=0, max_size=6).map(
    lambda xs: tuple(sorted(xs))
)

ROOT = Path(__file__).resolve().parent.parent

TABLE_1122 = Counter(
    {
        (0, 0, 0, 1, 0, 0, 0): 1,
        (1, 1, 1, 1, 2, 2, 3): 1,
        (0, 1, 1, 1, 2, 3, 2): 1,
        (0, 1, 1, 2, 2, 1, 2): 1,
        (0, 2, 1, 2, 2, 4, 4): 1,
        (0, 1, 1, 2, 2, 2, 1): 1,
    }
)


DOMAIN_KINDS = {
    "thm-1.1": "perm",
    "thm-1.2": "cube",
    "thm-1.3": "perm",
    "cor-1.4": "class",
    "cor-1.5": "class",
    "lemma-3.1": "perm",
    "lemma-3.4": "perm",
    "lemma-3.5": "perm",
    "eq-2": "cube",
    "prop-2.4": "multiset",
}


def naive_profile(w, schema):
    """The named statistics of one word, each read afresh through `statistic`,
    independent of the reader that the checks share."""
    return tuple(verify.statistic(name)(w) for name in schema)


def plant(monkeypatch, target, name, fake):
    """Replace `target.<name>` by `fake` wherever the checks reach it: the
    attribute, and every `words.STATISTICS` entry bound to the same function."""
    real = getattr(target, name)
    monkeypatch.setattr(target, name, fake)
    for key, fn in words.STATISTICS.items():
        if fn is real:
            monkeypatch.setitem(words.STATISTICS, key, fake)


class TestEnumeration:
    def test_class_1122_order(self):
        assert list(verify.rearrangement_class((1, 1, 2, 2))) == [
            (1, 1, 2, 2),
            (1, 2, 1, 2),
            (1, 2, 2, 1),
            (2, 1, 1, 2),
            (2, 1, 2, 1),
            (2, 2, 1, 1),
        ]

    def test_singleton_class(self):
        assert list(verify.rearrangement_class((1, 1, 1))) == [(1, 1, 1)]

    def test_distinct_letters_give_symmetric_group(self):
        assert list(verify.rearrangement_class((1, 2, 3))) == list(
            verify.symmetric_group(3)
        )

    @given(random_multisets)
    def test_lex_increasing_and_counted(self, letters):
        members = list(verify.rearrangement_class(letters))
        assert members == sorted(set(members))
        assert len(members) == verify.multinomial(letters)

    def test_multinomial(self):
        assert verify.multinomial((1, 1, 2, 2)) == 6
        assert verify.multinomial(()) == 1
        assert verify.multinomial((1, 2, 3, 4)) == 24
        for k in range(1, 30):
            assert verify.multinomial((1,) * k + (2,)) == k + 1
            assert verify.multinomial(range(1, k + 1)) == math.factorial(k)

    def test_word_cube(self):
        cube = list(verify.word_cube(2, 3))
        assert len(cube) == 8 and cube[0] == (1, 1, 1) and cube[-1] == (2, 2, 2)

    def test_heads_give_the_words_that_begin_with_them(self):
        assert list(verify.symmetric_group(3, 2, 3)) == [(2, 3, 1)]
        assert list(verify.word_cube(3, 3, 2, 2)) == [(2, 2, 1), (2, 2, 2), (2, 2, 3)]

    @pytest.mark.parametrize("head", [(5,), (4,), (1.0,), (True,), (1, 1), (1, 2, 3, 4)])
    def test_symmetric_group_refuses_a_head_of_no_permutation_of_1_to_n(self, head):
        with pytest.raises(ValueError, match="head of S_3"):
            verify.symmetric_group(3, *head)

    @pytest.mark.parametrize("head", [(4,), (0,), (1.0,), (1, 1, 1)])
    def test_word_cube_refuses_a_head_of_no_word_of_the_cube(self, head):
        with pytest.raises(ValueError, match=r"head of \[3\]\^2"):
            verify.word_cube(3, 2, *head)


class TestCompatibleSet:
    """The permutations compatible with a multiset are the codes of its
    rearrangement class, and those whose Id lies in its run boundaries."""

    def codes(self, letters):
        return {words.code(v) for v in verify.rearrangement_class(letters)}

    def test_class_1122(self):
        got = self.codes((1, 1, 2, 2))
        assert got == {
            (1, 2, 3, 4),
            (1, 3, 2, 4),
            (1, 3, 4, 2),
            (3, 1, 2, 4),
            (3, 1, 4, 2),
            (3, 4, 1, 2),
        }
        assert all(words.inverse_descent_set(p) <= {2} for p in got)
        assert got == verify._compatible_by_id((1, 1, 2, 2))

    def test_distinct_letters(self):
        assert self.codes((1, 2, 3)) == set(verify.symmetric_group(3))

    def test_constant_word(self):
        assert self.codes((1, 1, 1, 1)) == {(1, 2, 3, 4)}


class TestJointDistribution:
    def test_class_1122_table(self):
        dist = verify.joint_distribution(
            verify.rearrangement_class((1, 1, 2, 2)),
            ("adj", "des", "ides", "F", "imaj", "maj", "stat"),
        )
        assert dist == TABLE_1122

    def test_singleton(self):
        assert verify.joint_distribution(verify.symmetric_group(1), ("maj",)) == Counter(
            {(0,): 1}
        )

    def test_mahonian_s3(self):
        dist = verify.joint_distribution(verify.symmetric_group(3), ("maj",))
        assert dist == Counter({(0,): 1, (1,): 2, (2,): 2, (3,): 1})

    def test_unknown_statistic(self):
        with pytest.raises(UnknownNameError):
            verify.joint_distribution([(1, 2)], ("nope",))
        with pytest.raises(UnknownNameError):
            verify.statistic("MAJ ")


class TestCheck:
    def test_quintuple_swap_sn(self):
        report = verify.check("thm-1.3", verify.CheckBounds(n=4))
        assert report.passed and report.instances == 24 and report.domain == "S_4"

    def test_sweep_flag(self):
        report = verify.check("thm-1.3", verify.CheckBounds(n=4), sweep=True)
        assert report.passed and report.instances == 33
        assert report.domain == "S_1..S_4"

    def test_single_class(self):
        report = verify.check("cor-1.4", verify.CheckBounds(word=(1, 1, 2, 2)))
        assert report.passed and report.instances == 6
        assert report.domain == "R(1122)"

    def test_smallest_case(self):
        report = verify.check("lemma-3.4", verify.CheckBounds(n=1))
        assert report.passed and report.instances == 1

    def test_cube_checks(self):
        for name in ("thm-1.2", "eq-2"):
            report = verify.check(name, verify.CheckBounds(n=3, alphabet=3))
            assert report.passed
            assert report.instances == sum(
                m**n for n in range(1, 4) for m in range(1, 4)
            )

    def test_class_sweep_counts_words(self):
        report = verify.check("cor-1.5", verify.CheckBounds(n=4, alphabet=2))
        assert report.passed
        assert report.instances == sum(2**n for n in range(1, 5))

    def test_prop_counts_classes(self):
        report = verify.check("prop-2.4", verify.CheckBounds(n=3, alphabet=3))
        assert report.passed and report.instances == 3 + 6 + 10

    def test_unknown_check(self):
        with pytest.raises(UnknownNameError):
            verify.check("thm-9.9")

    def test_word_refused_by_a_check_without_classes(self):
        with pytest.raises(ValueError, match="restricts only cor-1.4, cor-1.5 and prop-2.4"):
            verify.check("eq-2", verify.CheckBounds(word=(1, 2)))

    def test_cap(self):
        with pytest.raises(BoundTooLargeError):
            verify.check("thm-1.3", verify.CheckBounds(n=11, cap=1000))

    @pytest.mark.parametrize("name", ["cor-1.4", "cor-1.5", "prop-2.4"])
    def test_cap_refused_before_enumerating(self, monkeypatch, name):
        def refuse(*args):
            raise AssertionError("multisets enumerated before the cap check")

        monkeypatch.setattr(verify, "multisets", refuse)
        with pytest.raises(BoundTooLargeError):
            verify.check(name, verify.CheckBounds(n=8, alphabet=60, cap=1000))

    def test_long_class_refused_without_its_factorial(self, monkeypatch):
        """prop-2.4 on one class holds k! to the cap without computing it whole."""
        factorial = math.factorial

        def small_factorial(k):
            assert k <= 1000, f"{k}! computed before the cap check"
            return factorial(k)

        monkeypatch.setattr(math, "factorial", small_factorial)
        with pytest.raises(BoundTooLargeError):
            verify.check("prop-2.4", verify.CheckBounds(word=(1,) * 20000 + (2,)))

    def test_cap_counts_in_closed_form(self):
        with pytest.raises(BoundTooLargeError, match="needs 23 words and permutations, more"):
            verify.check("prop-2.4", verify.CheckBounds(n=3, alphabet=2, cap=1))
        with pytest.raises(BoundTooLargeError, match="needs 14 instances"):
            verify.check("cor-1.4", verify.CheckBounds(n=3, alphabet=2, cap=1))

    @pytest.mark.parametrize("alphabet", [1, 2, 5])
    def test_cap_counts_every_domain_exactly(self, alphabet):
        n = 5
        perms = sum(math.factorial(k) for k in range(1, n + 1))
        class_words = sum(alphabet**k for k in range(1, n + 1))
        cubes = sum(a**k for k in range(1, n + 1) for a in range(1, alphabet + 1))
        for name, sweep, count in [
            ("thm-1.3", False, math.factorial(n)),
            ("lemma-3.1", True, perms),
            ("thm-1.2", False, cubes),
            ("eq-2", False, cubes),
            ("cor-1.5", False, class_words),
            ("prop-2.4", False, class_words + perms),
        ]:
            noun = "words and permutations" if name == "prop-2.4" else "instances"
            with pytest.raises(BoundTooLargeError, match=f"needs {count} {noun}, more"):
                verify.check(
                    name, verify.CheckBounds(n=n, alphabet=alphabet, cap=count - 1), sweep=sweep
                )
            assert verify._build(name, verify.CheckBounds(n, alphabet, cap=count), sweep)

    @staticmethod
    def pools_started(monkeypatch):
        """The worker counts of the pools a run of thm-1.3 at n=4 with a
        million jobs starts; its report must equal the serial one."""
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(verify, "ProcessPoolExecutor", SerialPool)
        report = verify.check("thm-1.3", verify.CheckBounds(n=4, jobs=10**6))
        assert report == verify.check("thm-1.3", verify.CheckBounds(n=4))
        return started

    @pytest.mark.parametrize("cpus, workers", [(8, [4]), (None, [])])
    def test_jobs_clamped(self, monkeypatch, cpus, workers):
        """Without an affinity set the clamp counts the machine's CPUs."""
        monkeypatch.delattr(verify.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
        assert self.pools_started(monkeypatch) == workers

    @pytest.mark.parametrize("usable, workers", [({0}, []), (set(range(8)), [4])])
    def test_jobs_clamped_by_the_usable_cpus(self, monkeypatch, usable, workers):
        """The CPUs this process may use bound the pool, not the machine's."""
        monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: usable, raising=False)
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 8)
        assert self.pools_started(monkeypatch) == workers

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            verify.CheckBounds(n=0)

    @pytest.mark.parametrize("word", [(), (0, 2)])
    def test_bad_word_is_a_usage_error(self, word):
        with pytest.raises(ValueError):
            verify.CheckBounds(word=word)
        with pytest.raises(ValueError):
            verify.check("cor-1.4", verify.CheckBounds(word=word))

    def test_parallel_reports_identical(self):
        sequential = verify.check("thm-1.3", verify.CheckBounds(n=5, jobs=1))
        parallel = verify.check("thm-1.3", verify.CheckBounds(n=5, jobs=3))
        assert sequential == parallel
        sweep_seq = verify.check("cor-1.4", verify.CheckBounds(n=4, alphabet=3, jobs=1))
        sweep_par = verify.check("cor-1.4", verify.CheckBounds(n=4, alphabet=3, jobs=2))
        assert sweep_seq == sweep_par

    def test_planted_failure_reports_least_counterexample(self, monkeypatch):
        monkeypatch.setattr(involution, "phi", lambda p: tuple(p))
        report = verify.check("thm-1.3", verify.CheckBounds(n=3))
        assert not report.passed
        assert report.instances == 6
        assert report.counterexample is not None
        # 123 and 132 satisfy MAJ = STAT, so 213 is the least violation
        assert report.counterexample.input == "213"
        text = "\n".join(report.lines())
        assert text.startswith("FAIL thm-1.3") and "213" in text

    def test_planted_failure_in_distribution_check(self, monkeypatch):
        monkeypatch.setattr(
            verify,
            "_CUBE_SWAPPED",
            ("adj", "des", "ides", "F", "maj", "maj"),
        )
        report = verify.check("thm-1.2", verify.CheckBounds(n=3, alphabet=2))
        assert not report.passed and report.counterexample is not None

    @pytest.mark.parametrize("fault", [None, "swapped schema", "wrong stat", "raising ides"])
    def test_slices_judge_thm_1_2_like_whole_cubes(self, monkeypatch, fault):
        if fault == "swapped schema":
            monkeypatch.setattr(verify, "_CUBE_SWAPPED", ("adj", "des", "ides", "F", "maj", "maj"))
        elif fault == "wrong stat":
            real = words.STATISTICS["stat"]
            # first fails on the slice of [2]^2 that begins with 1, not with 2
            monkeypatch.setitem(words.STATISTICS, "stat", lambda w: real(w) + (w[:2] == (1, 2)))
        elif fault == "raising ides":
            ides = words.STATISTICS["ides"]

            def raising(w):
                if w == (1, 3, 1):
                    raise ValueError("planted")
                return ides(w)

            monkeypatch.setitem(words.STATISTICS, "ides", raising)
        columns = [verify._CUBE_SCHEMA.index(name) for name in verify._CUBE_SWAPPED]

        def whole_cube_fails(a, k):
            try:
                left = verify.joint_distribution(verify.word_cube(a, k), verify._CUBE_SCHEMA)
            except ValueError:
                return True
            right = Counter()
            for t, count in left.items():
                right[tuple(t[i] for i in columns)] += count
            return left != right

        fails = {(a, k): whole_cube_fails(a, k) for a in range(1, 4) for k in range(1, 6)}
        assert any(fails.values()) == (fault is not None)
        for a in range(1, 4):
            for k in range(1, 6):
                grid = [(b, j) for j in range(1, k + 1) for b in range(1, a + 1)]
                first = next((f"[{b}]^{j}" for b, j in grid if fails[b, j]), None)
                report = verify.check("thm-1.2", verify.CheckBounds(n=k, alphabet=a))
                assert report.passed == (first is None)
                shown = report.counterexample and report.counterexample.input
                assert shown == first

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_verdict_that_raises_fails_its_cube(self, monkeypatch, jobs):
        """A column that mixes None with ints makes the tally's comparison
        raise; the chunk fails, named by its cube, as a raise in a step does."""
        real = words.STATISTICS["maj"]
        monkeypatch.setitem(
            words.STATISTICS, "maj", lambda w: None if len(w) == 3 and w[0] == 2 else real(w)
        )
        report = verify.check("thm-1.2", verify.CheckBounds(n=3, alphabet=2, jobs=jobs))
        assert report.lines() == [
            "FAIL thm-1.2 ([m]^n, m<=2, n<=3): 17 instances",
            "    input:    [2]^3",
            "    expected: no exception",
            "    actual:   raised TypeError: '<' not supported between instances of 'int'"
            " and 'NoneType'",
        ]

    def test_a_one_letter_cube_is_one_chunk(self, monkeypatch):
        tasks = []
        real = verify._execute
        monkeypatch.setattr(
            verify, "_execute", lambda ts, jobs: tasks.append(len(ts)) or real(ts, jobs)
        )
        for name in ("eq-2", "thm-1.2"):
            assert verify.check(name, verify.CheckBounds(n=1, alphabet=300)).passed
        assert tasks == [300, 300]

    @pytest.mark.parametrize("sweep", [False, True])
    def test_instance_counts_equal_enumerated_domains(self, monkeypatch, sweep):
        monkeypatch.setattr(
            verify, "_execute", lambda tasks, jobs: [[None] * len(t.names) for t in tasks]
        )

        def words_upto(n, m):
            return [w for k in range(1, n + 1) for w in verify.word_cube(m, k)]

        for n in range(1, 5):
            sizes = range(1, n + 1) if sweep else [n]
            perms = sum(1 for k in sizes for _ in verify.symmetric_group(k))
            for m in range(1, 4):
                domains = {
                    "perm": perms,
                    "cube": sum(len(words_upto(n, a)) for a in range(1, m + 1)),
                    "class": len(words_upto(n, m)),
                    "multiset": len({tuple(sorted(w)) for w in words_upto(n, m)}),
                }
                for name in verify.CHECK_IDS:
                    report = verify.check(name, verify.CheckBounds(n=n, alphabet=m), sweep=sweep)
                    assert report.instances == domains[DOMAIN_KINDS[name]], (name, n, m)
        word = (1, 1, 2)
        for name, want in [("cor-1.4", 3), ("cor-1.5", 3), ("prop-2.4", 1)]:
            assert verify.check(name, verify.CheckBounds(word=word), sweep=sweep).instances == want

    @pytest.mark.parametrize(
        "map_name, name, lines",
        [
            (
                "burstein_p",
                "thm-1.1",
                [
                    "FAIL thm-1.1 (S_3): 6 instances",
                    "    input:    213",
                    "    expected: (Adj, des, F, MAJ, STAT) = (1, 1, 2, 1, 2)",
                    "    actual:   image 213: (Adj, des, F, STAT, MAJ) = (1, 1, 2, 2, 1)",
                ],
            ),
            (
                "phi",
                "thm-1.3",
                [
                    "FAIL thm-1.3 (S_3): 6 instances",
                    "    input:    213",
                    "    expected: (des, Id, F, MAJ, STAT) = (1, {1}, 2, 1, 2)",
                    "    actual:   image 213: (des, Id, F, STAT, MAJ) = (1, {1}, 2, 2, 1)",
                ],
            ),
            (
                "phi_on_class",
                "cor-1.4",
                [
                    "FAIL cor-1.4 (classes with n<=3, letters<=2): 14 instances",
                    "    input:    212",
                    "    expected: (des, Id, F, MAJ, STAT) = (1, {1}, 2, 1, 2)",
                    "    actual:   image 212: (des, Id, F, STAT, MAJ) = (1, {1}, 2, 2, 1)",
                ],
            ),
            (
                "phi_on_class",
                "cor-1.5",
                [
                    "FAIL cor-1.5 (classes with n<=3, letters<=2): 14 instances",
                    "    input:    212",
                    "    expected: (IMAJ, des, ides, F, MAJ, STAT) = (1, 1, 1, 2, 1, 2)",
                    "    actual:   image 212: (IMAJ, des, ides, F, STAT, MAJ) = (1, 1, 1, 2, 2, 1)",
                ],
            ),
        ],
    )
    def test_planted_identity_fails_each_swap_check(self, monkeypatch, map_name, name, lines):
        monkeypatch.setattr(involution, map_name, lambda w: tuple(w))
        assert verify.check(name, verify.CheckBounds(n=3, alphabet=2)).lines() == lines

    @pytest.mark.parametrize(
        "target, name, fault, lines",
        [
            (
                words,
                "code",
                lambda real: lambda w: (2, 1, 3) if tuple(w) == (2, 1, 1) else real(w),
                [
                    "    input:    112",
                    "    expected: identical characterizations of the compatible permutations",
                    "    actual:   213 appears only in the coded image",
                ],
            ),
            (
                words,
                "inverse_descent_set",
                lambda real: lambda w: frozenset() if tuple(w) == (2, 1, 3) else real(w),
                [
                    "    input:    111",
                    "    expected: identical characterizations of the compatible permutations",
                    "    actual:   213 appears only in the inverse-descent side",
                ],
            ),
            (
                words,
                "code",
                lambda real: lambda w: tuple(x - 1 for x in real(w)),
                [
                    "    input:    1",
                    "    expected: identical characterizations of the compatible permutations",
                    "    actual:   0 appears only in the coded image",
                ],
            ),
            (
                words,
                "code",
                lambda real: tuple,
                [
                    "    input:    2",
                    "    expected: identical characterizations of the compatible permutations",
                    "    actual:   1 appears only in the inverse-descent side",
                ],
            ),
            (
                verify,
                "multinomial",
                lambda real: lambda letters: real(letters) + 1,
                [
                    "    input:    1",
                    "    expected: 2 compatible permutations (multinomial)",
                    "    actual:   1",
                ],
            ),
            (
                words,
                "code",
                lambda real: lambda w: tuple(map(float, real(w))),
                [
                    "    input:    1",
                    "    expected: 1 distinct coded permutations of 1..1, each with Id inside the"
                    " boundaries {}, and 1 such in S_1",
                    "    actual:   the counts disagree, but the coded and inverse-descent"
                    " sets agree",
                ],
            ),
        ],
    )
    def test_planted_fault_fails_prop_2_4(self, monkeypatch, target, name, fault, lines):
        plant(monkeypatch, target, name, fault(getattr(target, name)))
        assert verify.check("prop-2.4", verify.CheckBounds(n=3, alphabet=2)).lines() == [
            "FAIL prop-2.4 (classes with n<=3, letters<=2): 9 instances",
            *lines,
        ]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_raise_while_grouping_names_least_multiset(self, monkeypatch, capsys, jobs):
        real = words.inverse_descent_set

        def planted(w):  # 21 is in S_2 but not in the coded image of 11, the least size-2 class
            if tuple(w) == (2, 1):
                raise ValueError("planted")
            return real(w)

        plant(monkeypatch, words, "inverse_descent_set", planted)
        argv = ["verify", "prop-2.4", "--n", "3", "--alphabet", "2", "--jobs", jobs]
        assert cli.main(argv) == 1
        assert capsys.readouterr().out.splitlines() == [
            "FAIL prop-2.4 (classes with n<=3, letters<=2): 9 instances",
            "    input:    11",
            "    expected: no exception",
            "    actual:   raised ValueError: planted",
        ]

    def test_checks_of_the_kernel_read_the_oracle(self, monkeypatch, capsys):
        kernel = words.stat

        def wrong(w):  # off by the first letter, so it also changes under coding
            return kernel(w) + w[0]

        monkeypatch.setattr(words, "stat", wrong)
        monkeypatch.setitem(words.STATISTICS, "stat", wrong)
        assert verify.check("lemma-3.4", verify.CheckBounds(n=4)).passed
        assert verify.check("eq-2", verify.CheckBounds(n=3, alphabet=3)).passed
        assert cli.main(["verify", "thm-1.3", "--n", "3"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("FAIL thm-1.3") and "input:    123\n" in out

    @pytest.mark.parametrize("column, wrong", [("des", 0), ("maj", 0), ("F", 1)])
    def test_lemmas_pin_the_columns_they_read(self, monkeypatch, column, wrong):
        monkeypatch.setitem(words.STATISTICS, column, lambda w: wrong)
        for name in ("lemma-3.4", "lemma-3.5"):
            assert not verify.check(name, verify.CheckBounds(n=5)).passed, name

    def test_wrong_pattern_sum_fails_lemma_3_4(self, monkeypatch):
        oracle = patterns.eval_sum
        monkeypatch.setattr(patterns, "eval_sum", lambda name, w: oracle(name, w) + 1)
        report = verify.check("lemma-3.4", verify.CheckBounds(n=3))
        assert not report.passed and report.counterexample.input == "123"
        assert verify.check("thm-1.3", verify.CheckBounds(n=3)).passed

    def test_pass_report_renders_one_line(self):
        report = verify.check("lemma-3.1", verify.CheckBounds(n=3))
        assert report.lines() == ["PASS lemma-3.1 (S_3): 6 instances"]

    def test_empty_id_column_fails_prop_2_4(self, monkeypatch):
        monkeypatch.setitem(words.STATISTICS, "Id-set", lambda w: frozenset())
        reports = verify.run_all(verify.CheckBounds(n=5, alphabet=3))
        assert [r.name for r in reports if not r.passed] == ["prop-2.4"]
        assert reports[-1].lines() == [
            "FAIL prop-2.4 (classes with n<=5, letters<=3): 55 instances",
            "    input:    11",
            "    expected: identical characterizations of the compatible permutations",
            "    actual:   21 appears only in the inverse-descent side",
        ]

    def test_class_chunks_hold_consecutive_classes_up_to_a_word_budget(self, monkeypatch):
        tasks = []
        real = verify._execute
        monkeypatch.setattr(
            verify, "_execute", lambda ts, jobs: tasks.extend(ts) or real(ts, jobs)
        )
        assert verify.check("cor-1.4", verify.CheckBounds(n=2, alphabet=300)).passed
        assert len(tasks) == 89  # one task per class would be 300 + C(301, 2) = 45,450
        assert [c for task in tasks for c in task.args] == list(verify.multisets(300, 2))
        budget = verify._CLASS_CHUNK_WORDS
        chunks = list(verify._class_chunks(verify.CheckBounds(n=9, alphabet=3), by_size=False))
        assert [c for _, classes in chunks for c in classes] == list(verify.multisets(3, 9))
        for size, classes in chunks:
            assert len({len(c) for c in classes}) == 1
            assert size == sum(map(verify.multinomial, classes))
            assert size <= budget or len(classes) == 1
        assert max(size for size, _ in chunks) == verify.multinomial((1, 1, 1, 2, 2, 2, 3, 3, 3))

    def test_eq_2_sums_each_word_and_each_code_other_than_the_word(self, monkeypatch):
        bounds = verify.CheckBounds(n=7, alphabet=3)
        cube = [w for k in range(1, 8) for a in range(1, 4) for w in verify.word_cube(a, k)]
        coded = sum(1 for w in cube if words.code(w) != w)
        assert (len(cube), coded) == (3_540, 3_527)
        oracle, calls = patterns.eval_sum, Counter()

        def counted(name, w):
            calls[name] += 1
            return oracle(name, w)

        monkeypatch.setattr(patterns, "eval_sum", counted)
        assert verify.check("eq-2", bounds).passed
        assert calls == {"STAT_w": 7_067}


SWAP_CHECKS = {
    "thm-1.1": "burstein_p",
    "thm-1.3": "phi",
    "cor-1.4": "phi_on_class",
    "cor-1.5": "phi_on_class",
}

# For each map: a word, and another word of its chunk with the same profile
# in every swap check of the map.
SAME_PROFILE = {
    "burstein_p": ((2, 3, 1, 4), (2, 4, 1, 3)),
    "phi": ((1, 2, 4, 3, 5), (1, 4, 5, 2, 3)),
    "phi_on_class": ((1, 1, 2, 1, 2), (1, 2, 2, 1, 1)),
}


def _non_injective(map_name):
    """Send the word of SAME_PROFILE to the image of the other word: the swap
    still holds pointwise, but the map is not injective."""
    real = getattr(involution, map_name)
    word, other = SAME_PROFILE[map_name]
    target = real(other)
    return lambda w: target if tuple(w) == word else real(w)


def _raising_on(map_name, word):
    real = getattr(involution, map_name)

    def planted(w):
        if tuple(w) == word:
            raise ValueError("planted")
        return real(w)

    return planted


FAULTS = {
    "identity": lambda map_name: lambda w: tuple(w),
    "raises": lambda map_name: _raising_on(map_name, SAME_PROFILE[map_name][0]),
    "not injective": _non_injective,
}


class TestInvolutivity:
    @pytest.mark.parametrize(
        "name, bounds, lines",
        [
            (
                "thm-1.1",
                {"n": 4},
                [
                    "FAIL thm-1.1 (S_4): 24 instances",
                    "    input:    2314",
                    "    expected: burstein_p(burstein_p(2314)) = 2314",
                    "    actual:   burstein_p(2413) = 2413",
                ],
            ),
            (
                "thm-1.3",
                {"n": 5},
                [
                    "FAIL thm-1.3 (S_5): 120 instances",
                    "    input:    12435",
                    "    expected: phi(phi(12435)) = 12435",
                    "    actual:   phi(14523) = 14523",
                ],
            ),
            (
                "cor-1.4",
                {"word": (1, 1, 1, 2, 2)},
                [
                    "FAIL cor-1.4 (R(11122)): 10 instances",
                    "    input:    11212",
                    "    expected: phi_on_class(phi_on_class(11212)) = 11212",
                    "    actual:   phi_on_class(12211) = 12211",
                ],
            ),
            (
                "cor-1.5",
                {"n": 5, "alphabet": 2},
                [
                    "FAIL cor-1.5 (classes with n<=5, letters<=2): 62 instances",
                    "    input:    11212",
                    "    expected: phi_on_class(phi_on_class(11212)) = 11212",
                    "    actual:   phi_on_class(12211) = 12211",
                ],
            ),
        ],
    )
    def test_non_injective_map_that_swaps_pointwise_fails(self, monkeypatch, name, bounds, lines):
        map_name = SWAP_CHECKS[name]
        word, other = SAME_PROFILE[map_name]
        schema = {"thm-1.1": verify._ADJ_SCHEMA, "cor-1.5": verify._SEXT_SCHEMA}.get(
            name, verify._SWAP_SCHEMA
        )
        assert naive_profile(word, schema) == naive_profile(other, schema)
        monkeypatch.setattr(involution, map_name, _non_injective(map_name))
        assert verify.check(name, verify.CheckBounds(**bounds)).lines() == lines

    def test_map_raising_on_an_image_names_the_word(self, monkeypatch):
        assert involution.phi((2, 1, 3)) == (2, 3, 1)
        monkeypatch.setattr(involution, "phi", _raising_on("phi", (2, 3, 1)))
        assert verify.check("thm-1.3", verify.CheckBounds(n=3)).lines() == [
            "FAIL thm-1.3 (S_3): 6 instances",
            "    input:    213",
            "    expected: phi(phi(213)) = 213",
            "    actual:   phi(231) raised ValueError: planted",
        ]


SWAP_SCHEMAS = {
    "thm-1.1": verify._ADJ_SCHEMA,
    "thm-1.3": verify._SWAP_SCHEMA,
    "cor-1.4": verify._SWAP_SCHEMA,
    "cor-1.5": verify._SEXT_SCHEMA,
}


def naive_swap_judge(map_name, schema):
    """The swap judge without involution pairs: every word is mapped and
    profiled, its image profiled under the swapped schema and mapped back,
    and the first of the five failures is reported."""
    swapped, fmt = verify._swapped(schema), words.format_word

    def judge(instances):
        mapper = getattr(involution, map_name)
        for w in instances:
            try:
                image = mapper(w)
                left, right = naive_profile(w, schema), naive_profile(image, swapped)
            except Exception as exc:
                return verify.Counterexample(
                    fmt(w), "no exception", f"raised {type(exc).__name__}: {exc}"
                )
            if left != right:
                return verify.Counterexample(
                    fmt(w),
                    verify._fmt_profile(schema, left),
                    f"image {fmt(image)}: {verify._fmt_profile(swapped, right)}",
                )
            try:
                back = mapper(image)
            except Exception as exc:
                actual = f"raised {type(exc).__name__}: {exc}"
            else:
                if back == w:
                    continue
                actual = f"= {fmt(back)}"
            return verify.Counterexample(
                fmt(w),
                f"{map_name}({map_name}({fmt(w)})) = {fmt(w)}",
                f"{map_name}({fmt(image)}) {actual}",
            )
        return None

    return judge


# Every schema the checks read, and the whole table.
READER_SCHEMAS = (
    verify._SWAP_SCHEMA,
    verify._ADJ_SCHEMA,
    verify._SEXT_SCHEMA,
    verify._CODE_SCHEMA,
    verify._CUBE_SCHEMA,
    verify._CODE_SCHEMA[:-1],
    verify._SUM_SCHEMA,
    ("maj",),
    tuple(words.STATISTICS),
)


class TestReader:
    @pytest.mark.parametrize("schema", READER_SCHEMAS, ids=",".join)
    def test_equals_the_naive_profile(self, schema):
        read = words.reader(schema)
        perms = [p for n in range(1, 7) for p in verify.symmetric_group(n)]
        cube = [w for n in range(1, 6) for w in verify.word_cube(3, n)]
        for w in perms + cube:
            assert read(w, {}) == naive_profile(w, schema), w

    def test_readers_that_share_a_row_equal_the_naive_profile(self):
        readers = [(schema, words.reader(schema)) for schema in READER_SCHEMAS]
        for w in [p for n in range(1, 7) for p in verify.symmetric_group(n)]:
            row = {}
            for schema, read in readers:
                assert read(w, row) == naive_profile(w, schema), (w, schema)


class TestPairWalk:
    @pytest.mark.parametrize("fault", [None, *FAULTS])
    def test_reports_equal_the_naive_judge(self, monkeypatch, fault):
        """Every swap check over S_1..S_5 or the classes of [3]^<=5, with
        `fault` planted in its map, reports what the naive judge reports."""
        for name, map_name in SWAP_CHECKS.items():
            with monkeypatch.context() as m:
                if fault is not None:
                    m.setattr(involution, map_name, FAULTS[fault](map_name))
                paired = verify.check(name, verify.CheckBounds(n=5, alphabet=3), sweep=True).lines()
                assert paired[0].split()[0] == ("PASS" if fault is None else "FAIL")
                naive = naive_swap_judge(map_name, SWAP_SCHEMAS[name])
                # the naive judge keeps nothing between words, so it can judge one at a time
                alone = SimpleNamespace(step=lambda w, row: naive([w]), verdict=lambda: None)
                naive_check = verify._CHECKS[name]._replace(start=lambda args: alone)
                m.setitem(verify._CHECKS, name, naive_check)
                assert (
                    verify.check(name, verify.CheckBounds(n=5, alphabet=3), sweep=True).lines()
                    == paired
                )

    @pytest.mark.parametrize(
        "name, bounds, domain",
        [
            ("thm-1.3", {"n": 6}, list(verify.symmetric_group(6))),
            (
                "cor-1.4",
                {"word": (1, 1, 2, 2, 3, 3)},
                list(verify.rearrangement_class((1, 1, 2, 2, 3, 3))),
            ),
        ],
        ids=["thm-1.3", "cor-1.4"],
    )
    def test_each_word_is_mapped_and_profiled_once(self, monkeypatch, name, bounds, domain):
        map_name, mapped, profiled = SWAP_CHECKS[name], Counter(), Counter()
        real_map, real_reader = getattr(involution, map_name), words.reader

        def counted_map(w):
            mapped[tuple(w)] += 1
            return real_map(w)

        def counted_reader(names):
            read = real_reader(names)

            def counted_read(w, row):
                profiled[tuple(w)] += 1
                return read(w, row)

            return counted_read

        monkeypatch.setattr(involution, map_name, counted_map)
        monkeypatch.setattr(words, "reader", counted_reader)
        assert verify.check(name, verify.CheckBounds(**bounds)).passed
        assert mapped == profiled == Counter(domain)


class TestRunAll:
    def test_all_pass_small(self):
        reports = verify.run_all(verify.CheckBounds(n=4, alphabet=3))
        assert [r.name for r in reports] == list(verify.CHECK_IDS)
        assert all(r.passed for r in reports)
        by_name = {r.name: r for r in reports}
        assert by_name["thm-1.3"].instances == 1 + 2 + 6 + 24
        assert by_name["thm-1.3"].domain == "S_1..S_4"

    def test_over_the_cap_refused_before_any_check_runs(self, monkeypatch, capsys):
        def refuse(*_):
            raise AssertionError("a check ran before every check was held to the cap")

        monkeypatch.setattr(verify, "_execute", refuse)
        argv = ["verify", "all", "--n", "5", "--alphabet", "2", "--cap", "200"]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: prop-2.4 over classes with n<=5, letters<=2 needs 215 words"
            " and permutations, more than the cap 200\n"
        )

    def test_n9_alphabet4_within_the_default_cap(self, monkeypatch, capsys):
        calls = []

        def stub(tasks, jobs):
            calls.append(tasks)
            return [[None] * len(task.names) for task in tasks]

        monkeypatch.setattr(verify, "_execute", stub)
        assert cli.main(["verify", "all", "--n", "9", "--alphabet", "4"]) == 0
        assert len(calls) == 1
        # one task per chunk, for every check that shares the chunk's function
        groups = {}
        for task in calls[0]:
            groups[task.names] = groups.get(task.names, 0) + task.size
        perms = sum(math.factorial(k) for k in range(1, 10))
        class_words = sum(4**k for k in range(1, 10))
        assert groups == {
            ("thm-1.1", "thm-1.3", "lemma-3.1", "lemma-3.4", "lemma-3.5"): perms,
            ("thm-1.2", "eq-2"): sum(a**k for k in range(1, 10) for a in range(1, 5)),
            ("cor-1.4", "cor-1.5"): class_words,
            ("prop-2.4",): class_words + perms,
        }
        assert sorted(name for names in groups for name in names) == sorted(verify.CHECK_IDS)
        assert capsys.readouterr().out.splitlines()[-1] == (
            "PASS prop-2.4 (classes with n<=9, letters<=4): 714 instances"
        )
        with pytest.raises(BoundTooLargeError, match="needs 758637 words and permutations"):
            verify.check("prop-2.4", verify.CheckBounds(n=9, alphabet=4, cap=758_636))

    def test_builds_each_check_once(self, monkeypatch):
        built = Counter()
        real = verify._build

        def counted(name, bounds, sweep):
            built[name] += 1
            return real(name, bounds, sweep)

        monkeypatch.setattr(verify, "_build", counted)
        verify.run_all(verify.CheckBounds(n=3, alphabet=2))
        assert built == Counter(verify.CHECK_IDS)

    def test_one_executor_for_the_whole_run(self, monkeypatch, capsys):
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(verify, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
        argv = ["verify", "all", "--n", "4", "--alphabet", "2", "--jobs"]
        assert cli.main([*argv, "1"]) == 0
        serial = capsys.readouterr().out
        assert started == []
        assert cli.main([*argv, "2"]) == 0
        assert started == [2]
        assert capsys.readouterr().out == serial

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_planted_fault_split_per_check(self, monkeypatch, jobs):
        monkeypatch.setattr(involution, "phi", lambda p: tuple(p))
        reports = verify.run_all(verify.CheckBounds(n=3, alphabet=2, jobs=jobs))
        swap = "(des, Id, F, MAJ, STAT) = (1, {1}, 2, 1, 2)"
        swapped = "(des, Id, F, STAT, MAJ) = (1, {1}, 2, 2, 1)"
        assert [r.lines() for r in reports] == [
            ["PASS thm-1.1 (S_1..S_3): 9 instances"],
            ["PASS thm-1.2 ([m]^n, m<=2, n<=3): 17 instances"],
            [
                "FAIL thm-1.3 (S_1..S_3): 9 instances",
                "    input:    213",
                f"    expected: {swap}",
                f"    actual:   image 213: {swapped}",
            ],
            [
                "FAIL cor-1.4 (classes with n<=3, letters<=2): 14 instances",
                "    input:    212",
                f"    expected: {swap}",
                f"    actual:   image 212: {swapped}",
            ],
            [
                "FAIL cor-1.5 (classes with n<=3, letters<=2): 14 instances",
                "    input:    212",
                "    expected: (IMAJ, des, ides, F, MAJ, STAT) = (1, 1, 1, 2, 1, 2)",
                "    actual:   image 212: (IMAJ, des, ides, F, STAT, MAJ) = (1, 1, 1, 2, 2, 1)",
            ],
            ["PASS lemma-3.1 (S_1..S_3): 9 instances"],
            ["PASS lemma-3.4 (S_1..S_3): 9 instances"],
            [
                "FAIL lemma-3.5 (S_1..S_3): 9 instances",
                "    input:    213",
                "    expected: MAJ + MAJ(image) = (n+1)*des - (F-1) = 3",
                "    actual:   MAJ + MAJ(image) = 2",
            ],
            ["PASS eq-2 ([m]^n, m<=2, n<=3): 17 instances"],
            ["PASS prop-2.4 (classes with n<=3, letters<=2): 9 instances"],
        ]

    def test_readme_table_lists_every_check_in_order(self):
        """README's "Verification checks" table is the one description of the checks."""
        section = (ROOT / "README.md").read_text().split("## Verification checks", 1)[1]
        rows = section.split("\n\n", 2)[1].splitlines()[2:]  # below the header and its rule
        assert tuple(row.split("`")[1] for row in rows) == verify.CHECK_IDS


def _patched(target, name, fault):
    """Plant `fault(real)` as `target.<name>`, a module attribute or a
    `words.STATISTICS` entry, and wherever else the checks reach it."""
    if target is words.STATISTICS:
        return lambda m: m.setitem(target, name, fault(target[name]))
    return lambda m: plant(m, target, name, fault(getattr(target, name)))


def _raising_at(word):
    def fault(real):
        def planted(w):
            if tuple(w) == word:
                raise ValueError("planted")
            return real(w)

        return planted

    return fault


def _constant(value):
    return lambda real: lambda w: value


def _wrong_kernel_stat(m):
    wrong = lambda w, kernel=words.stat: kernel(w) + w[0]  # noqa: E731
    m.setattr(words, "stat", wrong)
    m.setitem(words.STATISTICS, "stat", wrong)


STATS = words.STATISTICS

# Every fault planted in this module, or one of its kind: how to plant it.
PLANTED = {
    **{
        f"{map_name} {kind}": _patched(involution, map_name, lambda real, f=f, n=map_name: f(n))
        for kind, f in FAULTS.items()
        for map_name in SAME_PROFILE
    },
    "phi raising on an image": _patched(involution, "phi", _raising_at((2, 3, 1))),
    "swapped cube schema": lambda m: m.setattr(
        verify, "_CUBE_SWAPPED", ("adj", "des", "ides", "F", "maj", "maj")
    ),
    "wrong stat column": _patched(
        STATS, "stat", lambda real: lambda w: real(w) + (w[:2] == (1, 2))
    ),
    "raising ides": _patched(STATS, "ides", _raising_at((1, 2, 1))),
    "wrong kernel stat": _wrong_kernel_stat,
    "des is 0": _patched(STATS, "des", _constant(0)),
    "maj is 0": _patched(STATS, "maj", _constant(0)),
    "F is 1": _patched(STATS, "F", _constant(1)),
    "Id is empty": _patched(STATS, "Id-set", _constant(frozenset())),
    "wrong pattern sum": _patched(patterns, "eval_sum", lambda real: lambda n, w: real(n, w) + 1),
    "code off at 211": _patched(
        words, "code", lambda real: lambda w: (2, 1, 3) if tuple(w) == (2, 1, 1) else real(w)
    ),
    "code 0-based": _patched(words, "code", lambda real: lambda w: tuple(x - 1 for x in real(w))),
    "code is the word": _patched(words, "code", lambda real: tuple),
    "code of floats": _patched(words, "code", lambda real: lambda w: tuple(map(float, real(w)))),
    "multinomial off by one": _patched(
        verify, "multinomial", lambda real: lambda letters: real(letters) + 1
    ),
    "Id raising at 21": _patched(words, "inverse_descent_set", _raising_at((2, 1))),
    "Id empty at 213": _patched(
        words,
        "inverse_descent_set",
        lambda real: lambda w: frozenset() if tuple(w) == (2, 1, 3) else real(w),
    ),
}


class TestFusedPass:
    def test_map_calls_are_shared_only_within_a_word(self, monkeypatch):
        calls = Counter()
        for name in ("phi", "phi_on_class"):
            real = getattr(involution, name)
            monkeypatch.setattr(
                involution, name, lambda w, real=real, name=name: calls.update([name]) or real(w)
            )
        assert all(r.passed for r in verify.run_all(verify.CheckBounds(n=6, alphabet=3)))
        # S_1..S_6 has 873 permutations, 369 of them vouched for by thm-1.3's
        # walk, which lemma-3.5 maps again; the classes of [3]^<=6 have 1,092
        # words, each mapped once for cor-1.4 and cor-1.5, and phi_on_class
        # maps through phi.
        assert calls == {"phi": 873 + 369 + 1_092, "phi_on_class": 1_092}

    def test_the_memo_holds_only_the_word_and_its_images(self, monkeypatch):
        """Each word's row, the last judge of the pass sees it, holds only the
        word's own statistics and, under a map's name, (image, image's row),
        whose row holds only the image's own, a fixed point's being the word's."""
        held = {}

        class Spy(verify._Judge):
            def __init__(self, args):
                pass

            def step(self, w, row):
                held[w] = row

        def maps_of(w, row, maps):
            """The map names in `row`, each value checked against w."""
            found = set(row) - set(words.STATISTICS)
            assert found <= set(maps), (w, found)
            for name in set(row) & set(words.STATISTICS):
                assert row[name] == verify.statistic(name)(w), (w, name)
            for name in found:
                image, image_row = row[name]
                assert image == getattr(involution, name)(w), (w, name)
                assert (image_row is row) == (image == w), (w, name)
                if image_row is not row:
                    maps_of(image, image_row, maps)
            return found

        monkeypatch.setitem(verify._CHECKS, "spy", verify._Check(verify.symmetric_group, Spy))
        names = ("thm-1.1", "thm-1.3", "lemma-3.1", "lemma-3.4", "lemma-3.5", "spy")
        assert verify._fused(verify._Task(names, (6, 3), 0)) == [None] * len(names)
        assert list(held) == list(verify.symmetric_group(6, 3))
        assert len({id(row) for row in held.values()}) == len(held)  # a fresh row per word
        found = [maps_of(w, row, ("phi", "burstein_p")) for w, row in held.items()]
        assert max(map(len, found)) == 2
        held.clear()
        names = ("thm-1.2", "eq-2", "spy")
        assert verify._fused(verify._Task(names, (3, 5, 2), 0)) == [None] * len(names)
        assert list(held) == list(verify.word_cube(3, 5, 2))
        assert len({id(row) for row in held.values()}) == len(held)
        assert not any(maps_of(w, row, ()) for w, row in held.items())
        assert min(map(len, held.values())) > 0

    @pytest.mark.parametrize("fault", PLANTED)
    def test_reports_equal_each_check_run_alone(self, monkeypatch, fault):
        bounds = verify.CheckBounds(n=5, alphabet=2)
        PLANTED[fault](monkeypatch)
        alone = [verify.check(name, bounds, sweep=True).lines() for name in verify.CHECK_IDS]
        assert any(lines[0].startswith("FAIL") for lines in alone)
        for jobs in (1, 2):
            fused = verify.run_all(replace(bounds, jobs=jobs))
            assert [r.lines() for r in fused] == alone, jobs

    def test_a_pool_takes_the_largest_tasks_first(self, monkeypatch):
        handed = []

        class SerialPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                handed.extend(tasks)
                return map(fn, tasks)

        monkeypatch.setattr(involution, "phi", lambda p: tuple(p))
        serial = [r.lines() for r in verify.run_all(verify.CheckBounds(n=4, alphabet=2))]
        monkeypatch.setattr(verify, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
        assert [
            r.lines() for r in verify.run_all(verify.CheckBounds(n=4, alphabet=2, jobs=2))
        ] == serial
        sizes = [task.size for task in handed]
        assert sizes == sorted(sizes, reverse=True) and sizes[0] > sizes[-1]


class TestEnumeratedWords:
    """The S_n enumerator yields `words.Permutation`s, which the maps accept
    unchecked; an image, output of the map under test, is checked once by
    the swap walk and carried as a `words.Permutation` into its profile and
    its map back.  A wrapper bound in a map's place passes the type through."""

    def checked_by_walk(self, monkeypatch, name="thm-1.3", map_name="phi"):
        """The words `words.is_permutation` reads in the swap check `name`
        under `map_name` at n=5, and the images its walk maps back."""
        vouched, mapped_back = set(), []
        for w in verify.symmetric_group(5):
            image = getattr(involution, map_name)(w)
            if w not in vouched and image != w:
                vouched.add(image)
                mapped_back.append(image)
        checked = []

        def counting(w, is_permutation=words.is_permutation):
            checked.append(tuple(w))
            return is_permutation(w)

        monkeypatch.setattr(words, "is_permutation", counting)
        assert verify.check(name, verify.CheckBounds(n=5)).passed
        assert 0 < len(mapped_back) < math.factorial(5)
        return checked, mapped_back

    def test_thm_1_3_checks_only_the_images_it_maps_back(self, monkeypatch):
        checked, mapped_back = self.checked_by_walk(monkeypatch)
        assert checked == mapped_back

    def test_thm_1_1_checks_only_the_images_it_maps_back(self, monkeypatch):
        checked, mapped_back = self.checked_by_walk(monkeypatch, "thm-1.1", "burstein_p")
        assert checked == mapped_back

    def test_each_check_reads_as_many_words_for_permutations_as_before(self, monkeypatch):
        """At n=5 over [3] the swap walks of S_5 check the 48 and 44 images
        they map back, prop-2.4 each coded word of [3]^<=5 once (3 + 9 + 27 +
        81 + 243), and no other check reads one: the counts of `words.is_permutation`
        calls made before the walk carried its checked images."""
        calls = []

        def counting(w, is_permutation=words.is_permutation):
            calls.append(w)
            return is_permutation(w)

        monkeypatch.setattr(words, "is_permutation", counting)
        counts = {}
        for name in verify.CHECK_IDS:
            calls.clear()
            assert verify.check(name, verify.CheckBounds(n=5, alphabet=3)).passed
            counts[name] = len(calls)
        assert counts == {
            **dict.fromkeys(verify.CHECK_IDS, 0), "thm-1.1": 48, "thm-1.3": 44, "prop-2.4": 363
        }

    @pytest.mark.parametrize("name, map_name", [("thm-1.3", "phi"), ("thm-1.1", "burstein_p")])
    def test_a_checked_image_is_mapped_back_as_a_permutation(self, monkeypatch, name, map_name):
        received, real = [], getattr(involution, map_name)

        def recording(p):
            received.append(p)
            return real(p)

        monkeypatch.setattr(involution, map_name, recording)
        assert verify.check(name, verify.CheckBounds(n=5)).passed
        # Each word is mapped once: as a word, or as an image mapped back.
        assert sorted(received) == sorted(verify.symmetric_group(5))
        assert {type(p) for p in received} == {words.Permutation}

    @pytest.mark.parametrize(
        "name, map_name", [("thm-1.1", "burstein_p"), ("thm-1.3", "phi")]
    )
    def test_an_image_that_is_no_permutation_is_refused_when_mapped_back(
        self, monkeypatch, name, map_name
    ):
        """An image with float letters shows its word's profile, so the walk
        maps it back as a plain tuple, and the map refuses it: the FAIL line
        is the one printed when every image was checked only there."""
        real = getattr(involution, map_name)
        monkeypatch.setattr(involution, map_name, lambda p: tuple(map(float, real(p))))
        assert verify.check(name, verify.CheckBounds(n=3)).lines() == [
            f"FAIL {name} (S_3): 6 instances",
            "    input:    213",
            f"    expected: {map_name}({map_name}(213)) = 213",
            f"    actual:   {map_name}(2.03.01.0) raised ValueError: not a permutation of"
            " 1..3: (2.0, 3.0, 1.0)",
        ]

    def test_a_pass_through_wrapper_of_phi_checks_the_same_words(self, monkeypatch):
        real = involution.phi
        monkeypatch.setattr(involution, "phi", lambda p: real(p))
        checked, mapped_back = self.checked_by_walk(monkeypatch)
        assert checked == mapped_back

    @pytest.mark.parametrize("fn", [involution.phi, involution.burstein_p, tableaux.foata_j])
    def test_the_maps_refuse_a_plain_tuple_that_is_no_permutation(self, fn):
        for w in [(1, 1, 2), (2, 3, 4), (1.0, 2, 3)]:
            with pytest.raises(ValueError, match="not a permutation"):
                fn(w)

    @pytest.mark.parametrize(
        "name, map_name", [("thm-1.3", "phi"), ("lemma-3.5", "phi"), ("thm-1.1", "burstein_p")]
    )
    def test_a_patched_map_receives_every_generated_permutation(self, monkeypatch, name, map_name):
        received, real = [], getattr(involution, map_name)

        def recording(p):
            received.append(tuple(p))
            return real(p)

        monkeypatch.setattr(involution, map_name, recording)
        assert verify.check(name, verify.CheckBounds(n=5)).passed
        assert set(received) == set(verify.symmetric_group(5))

    @pytest.mark.parametrize("name", ["cor-1.4", "cor-1.5"])
    def test_phi_on_class_hands_phi_its_code_unread(self, monkeypatch, name):
        """`code` returns a `words.Permutation`, which `phi_on_class` hands
        to `phi` as it is, so no class word's code is read again."""
        checked = []

        def counting(w, is_permutation=words.is_permutation):
            checked.append(tuple(w))
            return is_permutation(w)

        monkeypatch.setattr(words, "is_permutation", counting)
        assert verify.check(name, verify.CheckBounds(n=5, alphabet=3)).passed
        assert checked == []

    @pytest.mark.parametrize("module, body, name", [(tableaux, "_foata_j", "lemma-3.1")])
    def test_a_patched_body_is_the_one_checked(self, monkeypatch, module, body, name):
        """The identity in place of `foata_j`'s kernel fails lemma-3.1, whose
        permutations reach it through `foata_j`."""
        monkeypatch.setattr(module, body, tuple)
        assert not verify.check(name, verify.CheckBounds(n=4)).passed

    def test_a_patched_foata_j_receives_every_generated_permutation(self, monkeypatch):
        received, real = [], verify.foata_j
        monkeypatch.setattr(verify, "foata_j", lambda p: received.append(p) or real(p))
        assert verify.check("lemma-3.1", verify.CheckBounds(n=4)).passed
        assert received == list(verify.symmetric_group(4))


def _first_failure(judge, instances):
    """A judge's first failure over `instances`, each with a fresh row, else
    its verdict: `verify._fused` for one judge."""
    for w in instances:
        failure = judge.step(w, {})
        if failure is not None:
            return failure
    return judge.verdict()


class TestFalseStatements:
    """Each judge class FAILs a false statement built from the true kernels:
    a stronger schema than the paper claims, or a kernel bound where the
    paper does not claim it.  Nothing is planted wrong."""

    @pytest.mark.parametrize(
        "map_name, schema, expected, actual",
        [
            # Burstein's map keeps Adj, not Id
            (
                "burstein_p",
                verify._SWAP_SCHEMA,
                "(des, Id, F, MAJ, STAT) = (1, {3}, 1, 3, 2)",
                "image 1324: (des, Id, F, STAT, MAJ) = (1, {2}, 1, 3, 2)",
            ),
            # phi keeps Id, not Adj
            (
                "phi",
                verify._ADJ_SCHEMA,
                "(Adj, des, F, MAJ, STAT) = (1, 1, 1, 3, 2)",
                "image 1423: (Adj, des, F, STAT, MAJ) = (0, 1, 1, 3, 2)",
            ),
        ],
        ids=["burstein_p keeps no Id", "phi keeps no Adj"],
    )
    def test_a_swap_walk_on_the_other_maps_schema(self, map_name, schema, expected, actual):
        judge = verify._SwapWalk(map_name, schema, (4,))
        assert _first_failure(judge, verify.symmetric_group(4)) == verify.Counterexample(
            "1243", expected, actual
        )

    def test_the_cube_sextuple_is_not_symmetric_on_a_class(self):
        """Kitaev and Vajnovszki's sextuple is equidistributed on [m]^n, not
        on R(w); the tally names the cube of the arguments it is started with."""
        judge = verify._CubeTally((2, 4))
        assert _first_failure(judge, verify.rearrangement_class((1, 1, 1, 2))) == (
            verify.Counterexample(
                "[2]^4",
                "multiplicity of (0, 1, 1, 1, 2, 3) in the (.., MAJ, STAT) distribution = 1",
                "multiplicity in the (.., STAT, MAJ) distribution = 0",
            )
        )
        failing = [
            letters
            for letters in verify.multisets(3, 7)
            if _first_failure(
                verify._CubeTally((3, len(letters))), verify.rearrangement_class(letters)
            )
        ]
        assert (len(failing), failing[0]) == (68, (1, 1, 1, 2))
        assert sum(1 for _ in verify.multisets(3, 7)) == 119

    def test_lemma_3_1_with_burstein_p_for_foata_j(self, monkeypatch):
        """Reverse-complement keeps no Id and reflects no D; 132 is fixed."""
        monkeypatch.setattr(verify, "foata_j", involution.burstein_p)
        assert verify.check("lemma-3.1", verify.CheckBounds(n=3)).lines() == [
            "FAIL lemma-3.1 (S_3): 6 instances",
            "    input:    132",
            "    expected: Id = {2}, reflected D = {1}",
            "    actual:   image 132: Id = {2}, D = {2}",
        ]

    def test_prop_2_4_with_the_descent_set_for_id(self, monkeypatch):
        """Compatibility is a condition on Id; on D it admits other codes."""
        monkeypatch.setitem(words.STATISTICS, "Id-set", words.descent_set)
        assert verify.check("prop-2.4", verify.CheckBounds(n=4, alphabet=2)).lines() == [
            "FAIL prop-2.4 (classes with n<=4, letters<=2): 14 instances",
            "    input:    112",
            "    expected: identical characterizations of the compatible permutations",
            "    actual:   231 appears only in the inverse-descent side",
        ]
