"""CLI surface: subcommands, output formats, exit codes, thin-wrapper checks."""
import json
import math
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from mahonian import cli, involution, patterns, tableaux, words
from mahonian.errors import InvalidTripleError

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).parent / "data"
SET_SCHEMA = "Id-set,D-set,Sh-set,MAJ,STAT"

TABLE_1122_TSV = (
    "word\tAdj\tdes\tides\tF\tIMAJ\tMAJ\tSTAT\n"
    "1122\t0\t0\t0\t1\t0\t0\t0\n"
    "1212\t1\t1\t1\t1\t2\t2\t3\n"
    "1221\t0\t1\t1\t1\t2\t3\t2\n"
    "2112\t0\t1\t1\t2\t2\t1\t2\n"
    "2121\t0\t2\t1\t2\t2\t4\t4\n"
    "2211\t0\t1\t1\t2\t2\t2\t1\n"
)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStats:
    def test_line(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "2112")
        assert code == 0
        assert out == "Adj=0 des=1 ides=1 F=2 IMAJ=2 MAJ=1 STAT=2 D={1} Id={2} Sh={1,3}\n"

    def test_single_letter(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "1")
        assert code == 0
        assert out.startswith("Adj=1 des=0 ides=0 F=1 IMAJ=0 MAJ=0 STAT=0")

    def test_worked_example(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "434421651")
        assert code == 0
        assert "des=5" in out and "F=4" in out and "MAJ=25" in out and "STAT=21" in out
        assert "Id={2,3,4,8}" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "2112", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["word"] == "2112" and payload["MAJ"] == 1 and payload["Id"] == [2]

    def test_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "stats", "10x")
        assert code == 2 and "error" in err

    def test_json_golden(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "434421651", "--format", "json")
        assert code == 0
        assert out == (
            '{"word": "434421651", "Adj": 2, "des": 5, "ides": 4, "F": 4, "IMAJ": 17,'
            ' "MAJ": 25, "STAT": 21, "D": [1, 4, 5, 7, 8], "Id": [2, 3, 4, 8],'
            ' "Sh": [1, 2, 4, 6, 8]}\n'
        )


class TestMap:
    @pytest.mark.parametrize(
        "name, word, expected",
        [
            ("phi", "434421651", "416432451"),
            ("phi", "546731982", "519643782"),
            ("j", "1243", "4123"),
            ("j", "4312", "1432"),
            ("code", "212231", "314562"),
            ("rc", "1243", "2134"),
            ("p", "231", "213"),
        ],
    )
    def test_values(self, capsys, name, word, expected):
        code, out, _ = run_cli(capsys, "map", name, word)
        assert code == 0 and out == expected + "\n"

    def test_j_rejects_words(self, capsys):
        code, _, err = run_cli(capsys, "map", "j", "212")
        assert code == 2 and "permutation" in err

    def test_unknown_map(self, capsys):
        code, _, _ = run_cli(capsys, "map", "zeta", "123")
        assert code == 2

    def test_text_with_no_letters_is_refused(self, capsys):
        code, out, err = run_cli(capsys, "map", "rc", ",")
        assert (code, out) == (2, "") and "empty word text" in err

    def test_a_shape_mismatch_in_j_is_an_internal_fault(self, capsys, monkeypatch):
        real = tableaux._insert

        def planted(w):  # the reverse-complement of 1243 is 2134; insert it in one row
            rows, row_of_step = real(w)
            return ([sorted(w)], row_of_step) if list(w) == [2, 1, 3, 4] else (rows, row_of_step)

        monkeypatch.setattr(tableaux, "_insert", planted)
        code, out, err = run_cli(capsys, "map", "j", "1243")
        assert (code, out) == (1, "")
        assert err.startswith("internal error: ") and err.count("\n") == 1

    def test_a_broken_switch_is_an_internal_fault_not_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(tableaux, "_foata_j", lambda w: w[:1] * len(w))
        code, out, err = run_cli(capsys, "map", "phi", "2413")
        assert (code, out) == (1, "")
        assert err.startswith("internal error: ") and err.count("\n") == 1
        assert "(2, 1)" in err and "(2, 2)" in err and "Traceback" not in err


class TestPattern:
    def test_vincular(self, capsys):
        assert run_cli(capsys, "pattern", "31-4-2", "41253")[:2] == (0, "1\n")

    def test_classical(self, capsys):
        assert run_cli(capsys, "pattern", "3-1-4-2", "41253")[:2] == (0, "2\n")

    def test_no_occurrence(self, capsys):
        assert run_cli(capsys, "pattern", "21", "12345")[:2] == (0, "0\n")

    def test_bad_pattern(self, capsys):
        code, _, err = run_cli(capsys, "pattern", "1-3", "123")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize(
        "argv, tuples, cap",
        [
            (["--cap", "100"], 4845, 100),
            ([], 64684950, 10_000_000),
        ],
    )
    def test_cap_refused_before_searching(self, capsys, monkeypatch, argv, tuples, cap):
        def refuse(*_):
            raise AssertionError("searched past the cap")

        monkeypatch.setattr(patterns, "count_occurrences", refuse)
        length = 20 if argv else 200
        word = ",".join(str(1 + i % 12) for i in range(length))
        code, out, err = run_cli(capsys, "pattern", "31-4-2", word, *argv)
        assert (code, out) == (2, "")
        assert err == (
            f"error: a 4-letter pattern in {length} letters has {tuples}"
            f" index tuples, more than the cap {cap}\n"
        )

    @pytest.mark.parametrize(
        "blocks, result",
        [
            (300, (0, "1\n", "")),
            (1200, (2, "", "error: a 1200-block pattern has more blocks than the limit 500\n")),
        ],
    )
    def test_deep_pattern_is_a_usage_error(self, capsys, blocks, result):
        """One block per letter on a word of as many ones: one index tuple,
        so the cap lets it through, and only the block limit refuses it."""
        assert run_cli(capsys, "pattern", "-".join(["1"] * blocks), "1" * blocks) == result

    @pytest.mark.parametrize("length", [16, 31, 48])
    def test_long_word_shapes(self, capsys, length):
        """`pattern 31-4-2` on a word of 16-48 letters over 1..12, counted
        directly, and its refusal one index tuple below the cap."""
        rng = random.Random(length)
        w = [rng.randint(1, 12) for _ in range(length)]
        want = sum(
            w[i + 1] < w[k] < w[i] < w[j]
            for i in range(length - 1)
            for j in range(i + 2, length)
            for k in range(j + 1, length)
        )
        text, tuples = ",".join(map(str, w)), math.comb(length, 4)
        assert run_cli(capsys, "pattern", "31-4-2", text) == (0, f"{want}\n", "")
        assert run_cli(capsys, "pattern", "31-4-2", text, "--cap", str(tuples)) == (
            0,
            f"{want}\n",
            "",
        )
        assert run_cli(capsys, "pattern", "31-4-2", text, "--cap", str(tuples - 1)) == (
            2,
            "",
            f"error: a 4-letter pattern in {length} letters has {tuples}"
            f" index tuples, more than the cap {tuples - 1}\n",
        )

    def test_short_pattern_on_a_long_word(self, capsys):
        word = ",".join(str(1 + i % 12) for i in range(20_000))
        assert run_cli(capsys, "pattern", "1", word)[:2] == (0, "20000\n")
        word = ",".join(str(1 + i % 12) for i in range(4_000))
        assert run_cli(capsys, "pattern", "21", word)[:2] == (0, "333\n")

    def test_largest_long_word_stays_under_the_default_cap(self, capsys):
        word = ",".join(str(1 + i % 12) for i in range(48))
        code, out, _ = run_cli(capsys, "pattern", "31-4-2", word)
        assert code == 0
        assert int(out) == patterns.count_occurrences(
            patterns.parse_pattern("31-4-2"), words.parse_word(word)
        )


class TestRsk:
    def test_output(self, capsys):
        code, out, _ = run_cli(capsys, "rsk", "4312")
        assert code == 0
        assert out == "P:\n1 2\n3\n4\nQ:\n1 4\n2\n3\n"

    def test_rejects_words(self, capsys):
        assert run_cli(capsys, "rsk", "212")[0] == 2


class TestTable:
    def test_table_1122(self, capsys):
        code, out, _ = run_cli(capsys, "table", "1122")
        assert code == 0 and out == TABLE_1122_TSV

    def test_two_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table", "12")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 3
        assert lines[1].startswith("12\t") and lines[2].startswith("21\t")

    def test_constant_word(self, capsys):
        code, out, _ = run_cli(capsys, "table", "111")
        assert code == 0
        assert out.splitlines()[1] == "111\t0\t0\t0\t1\t0\t0\t0"

    def test_custom_schema(self, capsys):
        code, out, _ = run_cli(capsys, "table", "1122", "--schema", "des,MAJ,Id")
        lines = out.splitlines()
        assert code == 0 and lines[0] == "word\tdes\tMAJ\tId"
        assert lines[1] == "1122\t0\t0\t{}"
        assert lines[4] == "2112\t1\t1\t{2}"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "table", "12", "--format", "json")
        payload = json.loads(out)
        assert code == 0 and [row["word"] for row in payload] == ["12", "21"]
        assert payload[1]["MAJ"] == 1

    @pytest.mark.parametrize(
        "fmt, golden", [("tsv", "table_112233_sets.tsv"), ("json", "table_112233_sets.json")]
    )
    def test_set_columns_golden(self, capsys, fmt, golden):
        code, out, _ = run_cli(capsys, "table", "112233", "--schema", SET_SCHEMA, "--format", fmt)
        assert code == 0 and out == (DATA / golden).read_text()

    def test_cap(self, capsys):
        code, _, err = run_cli(capsys, "table", "123456", "--cap", "100")
        assert code == 2 and "cap" in err

    def test_byte_identical_across_runs(self, capsys):
        first = run_cli(capsys, "table", "1122")[1]
        second = run_cli(capsys, "table", "1122")[1]
        assert first == second == TABLE_1122_TSV
        assert run_cli(capsys, "table", "1122", "--jobs", "4")[0] == 2


class TestVerify:
    def test_single_check(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "thm-1.3", "--n", "4")
        assert code == 0 and out == "PASS thm-1.3 (S_4): 24 instances\n"

    def test_single_class(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "cor-1.4", "--word", "1122")
        assert code == 0 and "6 instances" in out

    def test_single_class_output(self, capsys):
        assert run_cli(capsys, "verify", "cor-1.4", "--word", "1122") == (
            0,
            "PASS cor-1.4 (R(1122)): 6 instances\n",
            "",
        )

    def test_a_long_class_is_written_by_letter_counts(self, capsys):
        assert run_cli(capsys, "verify", "cor-1.4", "--word", "1" * 40 + "2") == (
            0,
            "PASS cor-1.4 (R(1^40 2)): 41 instances\n",
            "",
        )

    def test_all_restricts_the_class_checks_to_one_class(self, capsys):
        argv = ("verify", "all", "--n", "3", "--alphabet", "2", "--word", "1122")
        assert run_cli(capsys, *argv) == (
            0,
            "PASS thm-1.1 (S_1..S_3): 9 instances\n"
            "PASS thm-1.2 ([m]^n, m<=2, n<=3): 17 instances\n"
            "PASS thm-1.3 (S_1..S_3): 9 instances\n"
            "PASS cor-1.4 (R(1122)): 6 instances\n"
            "PASS cor-1.5 (R(1122)): 6 instances\n"
            "PASS lemma-3.1 (S_1..S_3): 9 instances\n"
            "PASS lemma-3.4 (S_1..S_3): 9 instances\n"
            "PASS lemma-3.5 (S_1..S_3): 9 instances\n"
            "PASS eq-2 ([m]^n, m<=2, n<=3): 17 instances\n"
            "PASS prop-2.4 (R(1122)): 1 instances\n",
            "",
        )

    def test_all_small_bounds(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "all", "--n", "3", "--alphabet", "2")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 10 and all(line.startswith("PASS") for line in lines)

    def test_unknown_check(self, capsys):
        assert run_cli(capsys, "verify", "thm-9.9")[0] == 2

    def test_cap_exceeded(self, capsys):
        code, _, err = run_cli(capsys, "verify", "thm-1.3", "--n", "12", "--cap", "10")
        assert code == 2 and "cap" in err

    def test_counterexample_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(involution, "phi", lambda p: tuple(p))
        code, out, _ = run_cli(capsys, "verify", "thm-1.3", "--n", "3")
        assert code == 1
        assert out.splitlines()[0] == "FAIL thm-1.3 (S_3): 6 instances"
        assert "213" in out

    def test_a_broken_phi_is_an_internal_fault_not_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(involution, "phi", lambda p: tuple(sorted(p, reverse=True)))
        code, out, err = run_cli(capsys, "map", "phi", "112")
        assert (code, out) == (1, "")
        assert err.startswith("internal error: ") and err.count("\n") == 1
        assert "112" in err and "Traceback" not in err
        code, out, _ = run_cli(capsys, "verify", "cor-1.4", "--word", "112")
        assert code == 1
        assert out.splitlines()[:2] == ["FAIL cor-1.4 (R(112)): 3 instances", "    input:    112"]
        assert "raised InternalInvariantError" in out

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_raising_map_is_a_counterexample(self, capsys, monkeypatch, jobs):
        real_phi = involution.phi

        def phi(p):
            if tuple(p) == (2, 1, 3):
                raise InvalidTripleError("planted")
            return real_phi(p)

        monkeypatch.setattr(involution, "phi", phi)
        code, out, _ = run_cli(capsys, "verify", "thm-1.3", "--n", "3", "--jobs", jobs)
        assert code == 1
        assert out.splitlines() == [
            "FAIL thm-1.3 (S_3): 6 instances",
            "    input:    213",
            "    expected: no exception",
            "    actual:   raised InvalidTripleError: planted",
        ]

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "lemma-3.4", "--n", "3", "--format", "json")
        payload = json.loads(out)
        assert code == 0 and payload[0]["passed"] and payload[0]["instances"] == 6

    def test_jobs_do_not_change_output(self, capsys):
        serial = run_cli(capsys, "verify", "thm-1.3", "--n", "5", "--jobs", "1")
        parallel = run_cli(capsys, "verify", "thm-1.3", "--n", "5", "--jobs", "2")
        assert serial == parallel

    def test_jobs_do_not_change_all(self, capsys):
        argv = ("verify", "all", "--n", "5", "--alphabet", "3")
        serial = run_cli(capsys, *argv, "--jobs", "1")
        parallel = run_cli(capsys, *argv, "--jobs", "2")
        assert serial == parallel and serial[0] == 0

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_all_prints_the_stored_verdict(self, capsys, jobs):
        stored = (ROOT / "perfbench" / "data" / "verify_all_n7_a3.txt").read_text()
        argv = ("verify", "all", "--n", "7", "--alphabet", "3", "--jobs", jobs)
        assert run_cli(capsys, *argv) == (0, stored, "")


class TestThinWrapper:
    def test_stats_matches_library(self, capsys):
        rng = random.Random(20240811)
        for _ in range(100):
            n = rng.randint(1, 7)
            w = tuple(rng.randint(1, 8) for _ in range(n))
            code, out, _ = run_cli(capsys, "stats", words.format_word(w))
            assert code == 0
            fields = dict(part.split("=", 1) for part in out.split())
            for name, heading in words.HEADINGS.items():
                want = words.format_statistic(words.statistic(name)(w))
                assert fields[heading] == want, (w, name)

    def test_map_matches_library(self, capsys):
        rng = random.Random(77)
        for _ in range(100):
            n = rng.randint(1, 7)
            w = tuple(rng.randint(1, 5) for _ in range(n))
            _, out, _ = run_cli(capsys, "map", "phi", words.format_word(w))
            assert out.strip() == words.format_word(involution.phi_on_class(w))
            _, out, _ = run_cli(capsys, "map", "code", words.format_word(w))
            assert out.strip() == words.format_word(words.code(w))


@pytest.mark.parametrize(
    "argv, err",
    [
        (["map", "p", "1122"], "error: not a permutation of 1..4: (1, 1, 2, 2)\n"),
        (["map", "rc", "22"], "error: not a permutation of 1..2: (2, 2)\n"),
        (["rsk", "1122"], "error: not a permutation of 1..4: (1, 1, 2, 2)\n"),
        (
            ["pattern", "21", "123", "--cap", "2"],
            "error: a 2-letter pattern in 3 letters has 3 index tuples, more than the cap 2\n",
        ),
        (
            ["table", "1122", "--cap", "5"],
            "error: rearrangement class has 6 elements, more than the cap 5\n",
        ),
        (["verify", "cor-1.4", "--word", ""], "error: empty word text\n"),
        (
            ["verify", "thm-1.3", "--n", "3", "--word", "1122"],
            "error: --word restricts only cor-1.4, cor-1.5 and prop-2.4, not thm-1.3\n",
        ),
        (
            ["verify", "eq-2", "--word", "1122"],
            "error: --word restricts only cor-1.4, cor-1.5 and prop-2.4, not eq-2\n",
        ),
        (["stats", "\u00b21"], "error: not a word: '\u00b21'\n"),
        (
            ["pattern", "-".join(["1"] * 300), "1" * 1200],
            "error: a 300-letter pattern in 1200 letters has more index tuples"
            " than the cap 10000000\n",
        ),
        (
            ["pattern", "1" * 10_000, "1" * 20_000],
            "error: a 10000-letter pattern in 20000 letters has more index tuples"
            " than the cap 10000000\n",
        ),
        (
            ["table", ",".join(map(str, range(1, 26)))],
            "error: rearrangement class has more elements than the cap 10000000\n",
        ),
        (["pattern", "21", "123", "--cap", "-5"], "error: --cap must be positive\n"),
        (["table", "1122", "--cap", "0"], "error: --cap must be positive\n"),
        (
            ["verify", "thm-1.3", "--n", "20000"],
            "error: thm-1.3 over S_20000 needs more instances than the cap 10000000\n",
        ),
        (
            ["verify", "eq-2", "--n", "2000", "--alphabet", "100"],
            "error: eq-2 over [m]^n, m<=100, n<=2000 needs more instances"
            " than the cap 10000000\n",
        ),
        (
            ["verify", "eq-2", "--n", "30", "--alphabet", "3000"],
            "error: eq-2 over [m]^n, m<=3000, n<=30 needs more instances"
            " than the cap 10000000\n",
        ),
        (
            ["verify", "all", "--n", "20000"],
            "error: thm-1.1 over S_1..S_20000 needs more instances than the cap 10000000\n",
        ),
        (["table", "12", "--schema", ","], "error: --schema names no statistic\n"),
        (["table", "112", "--schema", "des,MAJ,maj"], "error: --schema names MAJ twice\n"),
        (
            ["verify", "prop-2.4", "--word", "1" * 1999 + "2"],
            "error: prop-2.4 over R(1^1999 2) needs more words and permutations"
            " than the cap 10000000\n",
        ),
    ],
)
def test_refusals_print_one_error_line_and_exit_2(capsys, argv, err):
    assert run_cli(capsys, *argv) == (2, "", err)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mahonian", "map", "code", "212231"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
    )
    assert proc.returncode == 0 and proc.stdout == "314562\n"


def _readme_transcript() -> list[tuple[str, list[str]]]:
    """Each `$ mahonian ...` command of the README's "Command line" block that
    shows output, with its trailing comment dropped, and the lines below it."""
    section = (ROOT / "README.md").read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    transcript = []
    for line in block.splitlines():
        if line.startswith("$ mahonian "):
            transcript.append((line[2:].split("#", 1)[0].strip(), []))
        elif line and transcript:
            transcript[-1][1].append(line)
    return [(command, shown) for command, shown in transcript if shown]


README_TRANSCRIPT = _readme_transcript()


def test_the_readme_transcript_shows_nine_outputs():
    assert len(README_TRANSCRIPT) == 9


@pytest.mark.parametrize("command, shown", README_TRANSCRIPT, ids=[c for c, _ in README_TRANSCRIPT])
def test_readme_transcript(capsys, command, shown):
    """The README shows TSV with spaces, so lines are compared split on whitespace."""
    code, out, _ = run_cli(capsys, *shlex.split(command)[1:])
    assert code == 0
    assert [line.split() for line in out.splitlines()] == [line.split() for line in shown]
