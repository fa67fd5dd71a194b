"""What a fresh interpreter loads: only a run with more than one worker
imports the process pool, and with it `multiprocessing`."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mahonian import verify

ROOT = Path(__file__).resolve().parent.parent
POOL_MODULES = ("multiprocessing", "concurrent.futures.process")

# Runs each argv of argv[1] through `cli.main` in one fresh interpreter, then
# prints the pool modules it loaded as the last line of stdout.
PROBE = """
import json, sys
from mahonian import cli
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
print(json.dumps([m for m in json.loads(sys.argv[2]) if m in sys.modules]))
"""


def fresh(code, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    *out, loaded = proc.stdout.splitlines()
    return out, json.loads(loaded)


def run_cli(*argvs):
    return fresh(PROBE, json.dumps(argvs), json.dumps(POOL_MODULES))


def test_commands_without_a_pool_import_none():
    out, loaded = run_cli(
        ["stats", "212231"],
        ["map", "phi", "2413"],
        ["table", "112"],
        ["verify", "thm-1.3", "--n", "4"],
    )
    assert out[0].startswith("Adj=") and out[-1] == "PASS thm-1.3 (S_4): 24 instances"
    assert loaded == []


@pytest.mark.skipif(verify._usable_cpus() < 2, reason="a pool needs at least 2 usable CPUs")
def test_two_jobs_import_the_pool_and_report_the_same():
    argv = ["verify", "thm-1.3", "--n", "5"]
    serial, none = run_cli(argv)
    pooled, loaded = run_cli([*argv, "--jobs", "2"])
    assert none == [] and loaded == list(POOL_MODULES)
    assert pooled == serial == ["PASS thm-1.3 (S_5): 120 instances"]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
def test_one_usable_cpu_runs_serially():
    """Pinned to one CPU, two jobs start no worker and import no pool."""
    code = """
import json, os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
forks = []
os.register_at_fork(after_in_parent=lambda: forks.append(1))
from mahonian import verify
reports = verify.run_all(verify.CheckBounds(n=5, alphabet=2, jobs=2))
print(all(r.passed for r in reports), len(forks))
print(json.dumps([m for m in json.loads(sys.argv[1]) if m in sys.modules]))
"""
    out, loaded = fresh(code, json.dumps(POOL_MODULES))
    assert out == ["True 0"] and loaded == []
