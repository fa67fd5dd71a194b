#!/usr/bin/env python3
"""Measure one checkout of the package and add the record to a BENCH file.

A record holds four things:

- the number of lines of `mahonian/*.py`, the library's size;
- the cold start of `python -m mahonian stats 212231`: the median wall time
  and peak RSS of 30 fresh processes, and the median cumulative
  `-X importtime` of `mahonian.cli`, with bytecode cached;
- microseconds per call on every permutation of S_n, the minimum of 5
  passes in one process, warm caches;
- seconds per fused group of `verify all` at n over [alphabet], each group
  the checks that share a chunk function, the minimum of 5 runs.

The package is imported from --src (default: this repository's src), so
another checkout is measured with the same script.  The record is stored
under --label in the JSON file --out, whose other records are kept.

Example:
    python scripts/bench.py --out BENCH.json --label change
    python scripts/bench.py --out BENCH.json --label parent --src ../parent/src
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from itertools import permutations
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
COLD_ARGV = ["-m", "mahonian", "stats", "212231"]
RUNS = 30  # cold-start processes
PASSES = 5  # passes per timing, of which the fastest counts


def child(args, src):
    """A fresh interpreter's argv and environment, importing from `src`."""
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return [sys.executable, *args], {**os.environ, "PYTHONPATH": path}


def cold_start(src, runs):
    """Median wall (ms) and peak RSS (MB) of the stats command, and the median
    cumulative import time (µs) of `mahonian.cli`."""
    argv, env = child(COLD_ARGV, src)
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)  # writes bytecode
    walls, peaks = [], []
    for _ in range(runs):
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)  # the rusage of this child alone
        walls.append(time.perf_counter() - start)
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        if proc.returncode:
            raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}")
        # ru_maxrss is in kB on Linux and in bytes on macOS
        peaks.append(usage.ru_maxrss / (2**20 if sys.platform == "darwin" else 2**10))
    argv, env = child(["-X", "importtime", "-c", "import mahonian.cli"], src)
    imports = []
    for _ in range(runs):
        err = subprocess.run(argv, env=env, check=True, capture_output=True, text=True).stderr
        for line in err.splitlines():  # import time: self [us] | cumulative | name
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "mahonian.cli":
                imports.append(int(fields[1]))
    return {
        "argv": "python " + " ".join(COLD_ARGV),
        "runs": runs,
        "wall_ms_median": round(statistics.median(walls) * 1e3, 2),
        "peak_rss_mb_median": round(statistics.median(peaks), 2),
        "import_mahonian_cli_us_median": statistics.median(imports),
    }


def per_call(lib, n, passes):
    """µs per call of each layer over S_n, the minimum of `passes` passes."""
    involution, patterns, tableaux, verify, words = lib
    calls = {
        "is_permutation": words.is_permutation,
        "descent_set": words.descent_set,
        "inverse_descent_set": words.inverse_descent_set,
        "code": words.code,
        "adj": words.adj,
        "stat": words.stat,
        "profile of _SWAP_SCHEMA": lambda p: words.profile(p, verify._SWAP_SCHEMA),
        "profile of _ADJ_SCHEMA": lambda p: words.profile(p, verify._ADJ_SCHEMA),
        "burstein_p": involution.burstein_p,
        "phi": involution.phi,
        "phi_on_class": involution.phi_on_class,  # a permutation is a word of its own class
        "foata_j": tableaux.foata_j,
        "rsk": tableaux.rsk,
        'eval_sum("STAT_w")': lambda p: patterns.eval_sum("STAT_w", p),
    }
    domain = list(permutations(range(1, n + 1)))
    out = {}
    for name, fn in calls.items():
        best = float("inf")
        for _ in range(passes):
            start = time.perf_counter()
            for p in domain:
                fn(p)
            best = min(best, time.perf_counter() - start)
        out[name] = round(best / len(domain) * 1e6, 3)
    return out


def fused_groups(verify, n, alphabet, passes):
    """Seconds of each fused group of `verify all`, the minimum of `passes`."""
    groups = {}
    for name in verify.CHECK_IDS:
        groups.setdefault(verify._CHECKS[name].chunk, []).append(name)
    bounds = verify.CheckBounds(n=n, alphabet=alphabet)
    out = []
    for names in groups.values():
        best = float("inf")
        for _ in range(passes):
            start = time.perf_counter()
            reports = verify._run(names, bounds, sweep=True)
            best = min(best, time.perf_counter() - start)
        if not all(r.passed for r in reports):
            raise SystemExit(f"{', '.join(names)} FAIL at n={n} over [{alphabet}]")
        out.append({"checks": names, "s": round(best, 4), "instances": reports[0].instances})
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--out", type=Path, required=True, help="the JSON file to add to")
    parser.add_argument("--label", required=True, help="the record's key, e.g. parent or change")
    parser.add_argument("--src", type=Path, default=SRC, help="the directory holding mahonian/")
    parser.add_argument("--n", type=int, default=7, help="size and word length (default 7)")
    parser.add_argument("--alphabet", type=int, default=3, help="letter bound (default 3)")
    args = parser.parse_args(argv)
    if min(args.n, args.alphabet) < 1:
        parser.error("--n and --alphabet must be positive")

    src = args.src.resolve()
    sys.path.insert(0, str(src))
    from mahonian import involution, patterns, tableaux, verify, words

    if Path(verify.__file__).resolve().parent.parent != src:
        raise SystemExit(f"mahonian imported from {verify.__file__}, not from {src}")
    record = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "src_lines": sum(len(p.read_text().splitlines()) for p in src.glob("mahonian/*.py")),
        "cold_start": cold_start(src, RUNS),
        f"us_per_call_on_S_{args.n}": per_call(
            (involution, patterns, tableaux, verify, words), args.n, PASSES
        ),
        f"fused_group_s_at_n{args.n}_over_{args.alphabet}": fused_groups(
            verify, args.n, args.alphabet, PASSES
        ),
    }
    bench = json.loads(args.out.read_text()) if args.out.exists() else {}
    bench[args.label] = record
    args.out.write_text(json.dumps(bench, indent=2, ensure_ascii=False) + "\n")
    print(json.dumps(record["cold_start"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
