"""Smoke tests: the example scripts run against the package in src/."""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mahonian import involution, patterns, tableaux, verify, words

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, timeout=120):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


CLASS_1122_OUTPUT = """\
class of 1122: 6 words

(des, MAJ) coefficients
des\\q   0   1   2   3   4
    0   1   0   0   0   0
    1   0   1   2   1   0
    2   0   0   0   0   1

(des, STAT) coefficients
des\\q   0   1   2   3   4
    0   1   0   0   0   0
    1   0   1   2   1   0
    2   0   0   0   0   1

equal distributions: True

involution pairing (word -> image, MAJ/STAT shown):
  fixed 1122 (MAJ=0, STAT=0) <-> 1122 (MAJ=0, STAT=0)
  swap  1212 (MAJ=2, STAT=3) <-> 1221 (MAJ=3, STAT=2)
  swap  2112 (MAJ=1, STAT=2) <-> 2211 (MAJ=2, STAT=1)
  fixed 2121 (MAJ=4, STAT=4) <-> 2121 (MAJ=4, STAT=4)
"""


def test_class_distribution():
    proc = run_script("class_distribution.py", "1122")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == CLASS_1122_OUTPUT


@pytest.mark.parametrize(
    "word, message",
    [
        ("0", "letters must be positive: '0'"),
        (
            ",".join(map(str, range(1, 15))),  # 14! words
            "rearrangement class has 87178291200 elements, more than the cap 10000000",
        ),
    ],
    ids=["letter-0", "class-of-14!"],
)
def test_class_distribution_refuses_before_enumerating(word, message):
    proc = run_script("class_distribution.py", word, timeout=5)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")


def load_bench():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_bench_parts():
    bench = load_bench()
    colds = bench.cold_start([ROOT / "src", ROOT / "src"], 2)
    assert len(colds) == 2
    for cold in colds:
        assert cold["runs"] == 2 and cold["wall_ms_median"] > 0
        assert cold["peak_rss_mb_median"] > 0 and cold["import_mahonian_cli_us_median"] > 0
    [rows] = bench.per_call([(involution, patterns, tableaux, verify, words)], 3, 1)
    assert len(rows) == 14 and all(us > 0 for us in rows.values())
    [rows] = bench.per_call([(involution, patterns, tableaux, verify, words)], 3, 1, 2)
    assert tuple(rows) == bench.WORD_ROWS and all(us > 0 for us in rows.values())
    [groups] = bench.fused_groups([verify], 3, 2, 1)
    assert sorted(name for group in groups for name in group["checks"]) == sorted(verify.CHECK_IDS)
    [sn] = bench.sn_pass([verify], (4, 2), 1)
    assert sn["checks"] == ("thm-1.1", "thm-1.3", "lemma-3.1", "lemma-3.4", "lemma-3.5")
    assert (sn["n"], sn["first_letter"], sn["permutations"]) == (4, 2, 6)
    assert sn["us_per_permutation"] > 0


def test_bench_children_write_their_bytecode(monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    argv, env = load_bench().child(["-c", "pass"], ROOT / "src")
    assert argv == [sys.executable, "-c", "pass"]
    assert "PYTHONDONTWRITEBYTECODE" not in env
    assert env["PYTHONPATH"].split(os.pathsep)[0] == str(ROOT / "src")


def test_bench_adds_a_record(tmp_path, monkeypatch, capsys):
    """In process, with 2 cold starts in place of the default 30, and the
    fused S_n pass over the S_3 slice with first letter 2 in place of the
    S_9 slice with first letter 5."""
    bench = load_bench()
    assert (bench.RUNS, bench.SLICE) == (30, (9, 5))
    monkeypatch.setattr(bench, "RUNS", 2)
    monkeypatch.setattr(bench, "SLICE", (3, 2))
    monkeypatch.setattr(sys, "path", list(sys.path))  # main puts --src first
    out = tmp_path / "bench.json"
    out.write_text('{"parent": {}}\n')
    argv = ["--out", str(out), "--n", "3", "--alphabet", "2", "--label", "change"]
    assert bench.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["change"]["runs"] == 2
    record = json.loads(out.read_text())
    assert list(record) == ["parent", "change"] and record["parent"] == {}
    src_lines = sum(len(p.read_text().splitlines()) for p in ROOT.glob("src/mahonian/*.py"))
    assert record["change"]["src_lines"] == src_lines
    assert record["change"]["cold_start"]["runs"] == 2
    assert len(record["change"]["us_per_call_on_S_3"]) == 14
    assert tuple(record["change"]["us_per_call_on_[2]^3"]) == bench.WORD_ROWS
    groups = record["change"]["fused_group_s_at_n3_over_2"]
    assert sorted(name for group in groups for name in group["checks"]) == sorted(verify.CHECK_IDS)
    sn = record["change"]["fused_sn_pass"]
    assert (sn["n"], sn["first_letter"], sn["permutations"]) == (3, 2, 2)


def test_bench_records_two_checkouts(tmp_path, monkeypatch, capsys):
    """Two labels give two records, each imported from its own --src, and
    the package imported before is the one in place afterwards."""
    bench = load_bench()
    monkeypatch.setattr(bench, "RUNS", 1)
    monkeypatch.setattr(bench, "PASSES", 1)
    monkeypatch.setattr(bench, "SLICE", (2, 1))
    out, src = tmp_path / "bench.json", ROOT / "src"
    argv = ["--out", str(out), "--n", "2", "--alphabet", "1"]
    argv += ["--label", "parent", "--src", str(src), "--label", "change", "--src", str(src)]
    assert bench.main(argv) == 0
    assert list(json.loads(capsys.readouterr().out)) == ["parent", "change"]
    record = json.loads(out.read_text())
    assert list(record) == ["parent", "change"]
    assert record["parent"]["src_lines"] == record["change"]["src_lines"] > 0
    import mahonian.verify

    assert mahonian.verify is verify
    with pytest.raises(SystemExit) as refused:  # two labels need two --src
        bench.main(["--out", str(out), "--label", "a", "--label", "b"])
    assert refused.value.code == 2
