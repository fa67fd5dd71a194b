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


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_class_distribution():
    proc = run_script("class_distribution.py", "1122")
    assert proc.returncode == 0, proc.stderr
    assert "equal distributions: True" in proc.stdout


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
    [groups] = bench.fused_groups([verify], 3, 2, 1)
    assert sorted(name for group in groups for name in group["checks"]) == sorted(verify.CHECK_IDS)


def test_bench_adds_a_record(tmp_path, monkeypatch, capsys):
    """In process, with 2 cold starts in place of the default 30."""
    bench = load_bench()
    assert bench.RUNS == 30
    monkeypatch.setattr(bench, "RUNS", 2)
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
    groups = record["change"]["fused_group_s_at_n3_over_2"]
    assert sorted(name for group in groups for name in group["checks"]) == sorted(verify.CHECK_IDS)


def test_bench_records_two_checkouts(tmp_path, monkeypatch, capsys):
    """Two labels give two records, each imported from its own --src, and
    the package imported before is the one in place afterwards."""
    bench = load_bench()
    monkeypatch.setattr(bench, "RUNS", 1)
    monkeypatch.setattr(bench, "PASSES", 1)
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
