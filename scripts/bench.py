#!/usr/bin/env python3
"""Measure checkouts of the package and add a record of each to a BENCH file.

A record holds five things:

- the number of lines of `mahonian/*.py`, the library's size;
- the cold start of `python -m mahonian stats 212231`: the median wall time
  and peak RSS of 30 fresh processes, and the median cumulative
  `-X importtime` of `mahonian.cli`, with bytecode cached;
- microseconds per call on every permutation of S_n, as the S_n checks pass
  it (a `words.Permutation`), and of the layers in `WORD_ROWS` on every
  plain word of [alphabet]^n, as the cube checks pass it; the minimum of 5
  passes in one process, warm caches; a statistic reader is built once per
  schema, outside the timing;
- seconds per fused group of `verify all` at n over [alphabet], each group
  the checks that share a chunk function, and seconds of the same checks
  run alone, one pass each, one after another, each the minimum of 5 runs;
- microseconds per permutation of the fused pass of the five S_n checks
  over one chunk, the S_9 slice with first letter 5 (8! = 40,320
  permutations), the minimum of 5 passes.

Each checkout is a --label and the --src directory holding its mahonian/
(a single --label defaults to this repository's src).  The cold starts of
all the checkouts are interleaved, one process of each in turn, so that the
host's drift falls on every checkout alike, and so do the passes of the
in-process parts: each checkout is imported once, and they take turns at
each pass.  Each record is stored under its label in the JSON file --out,
whose other records are kept.

Example:
    python scripts/bench.py --out BENCH.json --label change
    python scripts/bench.py --out BENCH.json \\
        --label parent --src ../parent/src --label change --src src
"""
import argparse
import functools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from itertools import permutations, product
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
COLD_ARGV = ["-m", "mahonian", "stats", "212231"]
RUNS = 30  # cold-start processes
PASSES = 5  # passes per timing, of which the fastest counts
SLICE = (9, 5)  # (n, first letter) of the S_n chunk the fused pass reads
# The layers also timed on plain words, which they read without a
# `Permutation`'s shortcuts.
WORD_ROWS = ("adj", "inverse_descent_set", "code", 'eval_sum("STAT_w")')


def child(args, src):
    """A fresh interpreter's argv and environment, importing from `src` and
    free to write its bytecode, so every checkout starts from a warm cache."""
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    return [sys.executable, *args], {**env, "PYTHONPATH": path}


def cold_start(srcs, runs):
    """For each of `srcs`, the median wall (ms) and peak RSS (MB) of the stats
    command, and the median cumulative import time (µs) of `mahonian.cli`.
    Each run starts one process of each checkout in turn."""
    stats = [child(COLD_ARGV, src) for src in srcs]
    imports = [child(["-X", "importtime", "-c", "import mahonian.cli"], src) for src in srcs]
    for argv, env in stats:
        subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)  # writes bytecode
    walls, peaks, import_us = [[] for _ in srcs], [[] for _ in srcs], [[] for _ in srcs]
    for _ in range(runs):
        for i, (argv, env) in enumerate(stats):
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
            _, status, usage = os.wait4(proc.pid, 0)  # the rusage of this child alone
            walls[i].append(time.perf_counter() - start)
            proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
            if proc.returncode:
                raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}")
            # ru_maxrss is in kB on Linux and in bytes on macOS
            peaks[i].append(usage.ru_maxrss / (2**20 if sys.platform == "darwin" else 2**10))
    for _ in range(runs):
        for i, (argv, env) in enumerate(imports):
            err = subprocess.run(argv, env=env, check=True, capture_output=True, text=True).stderr
            for line in err.splitlines():  # import time: self [us] | cumulative | name
                fields = line.split("|")
                if len(fields) == 3 and fields[2].strip() == "mahonian.cli":
                    import_us[i].append(int(fields[1]))
    return [
        {
            "argv": "python " + " ".join(COLD_ARGV),
            "runs": runs,
            "wall_ms_median": round(statistics.median(walls[i]) * 1e3, 2),
            "peak_rss_mb_median": round(statistics.median(peaks[i]), 2),
            "import_mahonian_cli_us_median": statistics.median(import_us[i]),
        }
        for i in range(len(srcs))
    ]


def load(src):
    """The layers of the package in `src`, imported afresh.  Each checkout's
    modules keep working side by side: any `mahonian` in `sys.modules` before
    is put back afterwards, and nothing imports a layer at run time."""
    def ours(name):
        return name == "mahonian" or name.startswith("mahonian.")

    saved = {name: module for name, module in sys.modules.items() if ours(name)}
    for name in saved:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        from mahonian import involution, patterns, tableaux, verify, words

        if Path(verify.__file__).resolve().parent.parent != src:
            raise SystemExit(f"mahonian imported from {verify.__file__}, not from {src}")
        return involution, patterns, tableaux, verify, words
    finally:
        sys.path.remove(str(src))
        for name in [name for name in sys.modules if ours(name)]:
            del sys.modules[name]
        sys.modules.update(saved)


def best_of(runs, passes):
    """The fastest of `passes` timings of each of `runs`, which take turns,
    and the result of each one's last run."""
    best, results = [float("inf")] * len(runs), [None] * len(runs)
    for _ in range(passes):
        for i, run in enumerate(runs):
            start = time.perf_counter()
            results[i] = run()
            best[i] = min(best[i], time.perf_counter() - start)
    return best, results


def each(fn, domain):
    for p in domain:
        fn(p)


def read_once(words, schema):
    """A call of a reader of `schema` built here, once."""
    read = words.reader(schema)
    return lambda p: read(p, {})


def layer_calls(lib):
    """Each timed layer of one checkout by its row name."""
    involution, patterns, tableaux, verify, words = lib
    return {
        "is_permutation": words.is_permutation,
        "descent_set": words.descent_set,
        "inverse_descent_set": words.inverse_descent_set,
        "code": words.code,
        "adj": words.adj,
        "stat": words.stat,
        "reader of _SWAP_SCHEMA": read_once(words, verify._SWAP_SCHEMA),
        "reader of _ADJ_SCHEMA": read_once(words, verify._ADJ_SCHEMA),
        "burstein_p": involution.burstein_p,
        "phi": involution.phi,
        "phi_on_class": involution.phi_on_class,  # a permutation is a word of its own class
        "foata_j": tableaux.foata_j,
        "rsk": tableaux.rsk,
        'eval_sum("STAT_w")': lambda p: patterns.eval_sum("STAT_w", p),
    }


def per_call(libs, n, passes, alphabet=None):
    """For each checkout, µs per call of each layer over S_n, or of each of
    `WORD_ROWS` over the plain words of [alphabet]^n when an alphabet is
    given, the minimum of `passes` passes; the checkouts take turns at each
    pass."""
    tables = [layer_calls(lib) for lib in libs]
    if alphabet is None:
        names = list(tables[0])
        domains = [[lib[4].Permutation(p) for p in permutations(range(1, n + 1))] for lib in libs]
    else:
        names = WORD_ROWS
        domains = [list(product(range(1, alphabet + 1), repeat=n))] * len(libs)
    out = [{} for _ in libs]
    for name in names:
        runs = [functools.partial(each, t[name], domain) for t, domain in zip(tables, domains)]
        for row, best in zip(out, best_of(runs, passes)[0]):
            row[name] = round(best / len(domains[0]) * 1e6, 3)
    return out


def run_alone(verify, names, bounds):
    """The reports of the checks `names`, each run in a pass of its own."""
    return [report for name in names for report in verify._run([name], bounds, True)]


def fused_groups(verifies, n, alphabet, passes):
    """For each checkout's `verify`, the seconds of each fused group of
    `verify all` and of the group's checks run alone one after another, each
    the minimum of `passes`; the checkouts, and in each the fused group and
    its checks alone, take turns."""
    groups = {}
    for name in verifies[0].CHECK_IDS:
        groups.setdefault(verifies[0]._CHECKS[name].chunk, []).append(name)
    out = [[] for _ in verifies]
    for names in groups.values():
        runs = []
        for verify in verifies:
            bounds = verify.CheckBounds(n=n, alphabet=alphabet)
            runs += [
                functools.partial(verify._run, names, bounds, True),
                functools.partial(run_alone, verify, names, bounds),
            ]
        best, results = best_of(runs, passes)
        for i, record in enumerate(out):
            fused, alone = best[2 * i], best[2 * i + 1]
            reports = results[2 * i] + results[2 * i + 1]
            if not all(r.passed for r in reports):
                raise SystemExit(f"{', '.join(names)} FAIL at n={n} over [{alphabet}]")
            record.append(
                {
                    "checks": names,
                    "s": round(fused, 4),
                    "alone_s": round(alone, 4),
                    "fused_over_alone": round(fused / alone, 3),
                    "instances": reports[0].instances,
                }
            )
    return out


def sn_pass(verifies, chunk, passes):
    """For each checkout's `verify`, µs per permutation of one task of the
    checks whose chunks are S_n slices, over the slice `chunk` = (n, first
    letter), the minimum of `passes`; the checkouts take turns."""
    v0 = verifies[0]
    names = tuple(name for name in v0.CHECK_IDS if v0._CHECKS[name].chunk is v0.symmetric_group)
    size = math.factorial(chunk[0] - 1)
    runs = [functools.partial(v._fused, v._Task(names, chunk, size)) for v in verifies]
    best, results = best_of(runs, passes)
    if any(failure is not None for found in results for failure in found):
        raise SystemExit(f"{', '.join(names)} FAIL on the S_{chunk[0]} slice {chunk}")
    record = {"checks": names, "n": chunk[0], "first_letter": chunk[1], "permutations": size}
    return [{**record, "us_per_permutation": round(b / size * 1e6, 3)} for b in best]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--out", type=Path, required=True, help="the JSON file to add to")
    parser.add_argument(
        "--label", action="append", required=True, help="a record's key, e.g. parent or change"
    )
    parser.add_argument(
        "--src", action="append", type=Path, help="the directory holding mahonian/, one per --label"
    )
    parser.add_argument("--n", type=int, default=7, help="size and word length (default 7)")
    parser.add_argument("--alphabet", type=int, default=3, help="letter bound (default 3)")
    args = parser.parse_args(argv)
    if min(args.n, args.alphabet) < 1:
        parser.error("--n and --alphabet must be positive")
    srcs = [src.resolve() for src in args.src or [SRC]]
    if len(srcs) != len(args.label):
        parser.error("give one --src per --label, or a single --label for this repository")

    libs = [load(src) for src in srcs]
    colds = cold_start(srcs, RUNS)
    calls = per_call(libs, args.n, PASSES)
    word_calls = per_call(libs, args.n, PASSES, args.alphabet)
    groups = fused_groups([lib[3] for lib in libs], args.n, args.alphabet, PASSES)
    passes = sn_pass([lib[3] for lib in libs], SLICE, PASSES)
    bench = json.loads(args.out.read_text()) if args.out.exists() else {}
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    for i, (label, src) in enumerate(zip(args.label, srcs)):
        bench[label] = {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "usable_cpus": cpus,
            "src_lines": sum(len(f.read_text().splitlines()) for f in src.glob("mahonian/*.py")),
            "cold_start": colds[i],
            f"us_per_call_on_S_{args.n}": calls[i],
            f"us_per_call_on_[{args.alphabet}]^{args.n}": word_calls[i],
            f"fused_group_s_at_n{args.n}_over_{args.alphabet}": groups[i],
            "fused_sn_pass": passes[i],
        }
    args.out.write_text(json.dumps(bench, indent=2, ensure_ascii=False) + "\n")
    print(json.dumps(dict(zip(args.label, colds))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
