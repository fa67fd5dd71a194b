#!/usr/bin/env python3
"""Benchmark of the mahonian library and CLI, driven from outside.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ./src.  Each
run sets up (import plus input generation) several times and reports the
median, then repeats whole rounds of its workload until --seconds is used
up, timing every call into the program.  It checks every output against
perfbench/oracle.py or the stored verdict, and prints one `name value unit`
line per metric, a provenance line, and as its last line a JSON object
{correct, attempted, failed, metrics}.

Every time it reports is corrected for the speed of the host, which on a
shared machine drifts by tens of percent within minutes: while set-ups
and rounds run, perfbench/hostspeed.py samples a fixed kernel of the
benchmark's own every 20 ms, and each time is reported as it would read
at the kernel's reference speed: measured time x hostspeed.scale() over
the samples taken while it was measured.  The uncorrected times are in the
provenance line.

--trace 0 reports the end-to-end metrics.  --trace 1 spends half the time
on untraced rounds, then runs one round with every layer wrapped
(perfbench/tracer.py), reports the per-layer metrics, and writes the spans
to .bench_out/trace-<workload>.spans.  Sampling goes on while tracing, so
that trace_overhead_frac compares corrected times; the traced self times
are uncorrected and include the sampler's share (about 3%).  The
cli.*.p50_us latencies come from the untraced rounds and are corrected.
--workload all runs every workload in turn, each in its own process.

Workloads (one process, at most min(2, nproc) workers; closed loop, one
caller):
  sn-sweep          the five S_n checks at n<=7, jobs=1: the permutation
                    path, dominated by the STAT pattern search.
  word-classes      the five word and class checks at n<=7, alphabet 3,
                    jobs=1: repeated letters, code/decode, phi_on_class,
                    multiset and class enumeration.
  verify-all-jobs2  `mahonian verify all --n 7 --alphabet 3 --jobs 2` in
                    process; stdout must equal the stored verdict.
  long-words        2,000 CLI calls per round on single words and
                    permutations of length 16-48 over letters 1..12; no
                    verify layer.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
import oracle
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
VERDICT = Path(__file__).resolve().parent / "data" / "verify_all_n7_a3.txt"
TRACE_DIR = ROOT / ".bench_out"

WORKLOADS = ("sn-sweep", "word-classes", "verify-all-jobs2", "long-words")
LAYERS = ("words", "patterns", "tableaux", "involution", "verify", "cli")
SN_CHECKS = ("thm-1.1", "thm-1.3", "lemma-3.1", "lemma-3.4", "lemma-3.5")
CLASS_CHECKS = ("thm-1.2", "eq-2", "cor-1.4", "cor-1.5", "prop-2.4")
ALL_CHECKS = SN_CHECKS + CLASS_CHECKS
# Order in which `verify all` reports its checks.
CLI_ORDER = ("thm-1.1", "thm-1.2", "thm-1.3", "cor-1.4", "cor-1.5",
             "lemma-3.1", "lemma-3.4", "lemma-3.5", "eq-2", "prop-2.4")
SETUPS = 15
LONG_CALLS = 2000
LONG_KINDS = (("stats",), ("map", "phi"), ("map", "j"), ("rsk",), ("pattern", "31-4-2"))
CLI_LABELS = ("stats", "map_phi", "map_j", "rsk", "pattern", "verify")


class SetupError(Exception):
    """The benchmark cannot run here: no package to measure, a stored
    verdict that disagrees with the closed forms, or a workload that died."""


def import_mahonian():
    """Import every layer afresh from ./src and return them by name."""
    for key in [k for k in sys.modules if k == "mahonian" or k.startswith("mahonian.")]:
        del sys.modules[key]
    if not (SRC / "mahonian" / "__init__.py").is_file():
        raise SetupError(f"no package at {SRC / 'mahonian'}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    layers = {name: importlib.import_module(f"mahonian.{name}") for name in LAYERS}
    if not Path(layers["cli"].__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"mahonian imported from outside {SRC}")
    return argparse.Namespace(**layers)


@dataclass(frozen=True)
class Call:
    """One timed call into the program.  `slot` names the same unit of work
    in every round: a check id, or a position in the long-words sequence."""

    slot: object
    label: str
    start: float
    wall_s: float


@dataclass
class Round:
    """One pass over a workload's inputs; times exclude output checking."""

    start: float
    wall_s: float
    cpu_s: float
    child_cpu_s: float
    instances: int
    calls: list[Call]
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)


def at_reference(start, seconds):
    """A time measured from perf_counter() reading `start`, at reference
    host speed."""
    return seconds * hostspeed.scale(start, start + seconds)


def _child_cpu():
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def timed(body):
    """Run body(calls) and wrap what it returns in a Round with wall and CPU."""
    calls: list[Call] = []
    self0, kids0 = hostspeed.cpu_clock(), _child_cpu()
    start, t0 = time.perf_counter(), hostspeed.clock()
    instances, outputs = body(calls)
    wall = hostspeed.clock() - t0
    self1, kids1 = hostspeed.cpu_clock(), _child_cpu()
    result = Round(start, wall, (self1 - self0) + (kids1 - kids0), kids1 - kids0, instances, calls)
    return result, outputs


def timed_call(calls, slot, label, fn, *args):
    """fn(*args), or the exception it raised; appends its wall time."""
    start, t = time.perf_counter(), hostspeed.clock()
    try:
        result = fn(*args)
    except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
        result = exc
    wall = hostspeed.clock() - t
    calls.append(Call(slot, label, start, wall))
    return result


def run_cli(main, argv):
    """(exit status, stdout) of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(argv)
    return status, out.getvalue()


# ---------------------------------------------------------------- workloads


class CheckSweep:
    """verify.check over a fixed list of checks, in a seed-shuffled order."""

    def __init__(self, lib, seed, checks, sweep):
        self.lib, self.seed, self.checks, self.sweep = lib, seed, checks, sweep
        self.bounds = lib.verify.CheckBounds(n=oracle.N, alphabet=oracle.ALPHABET, jobs=1)
        self.workers = 1

    def run(self, r, tracer=None):
        order = list(self.checks)
        random.Random(f"{self.seed}:{r}").shuffle(order)
        check = self.lib.verify.check

        def body(calls):
            reports = [timed_call(calls, cid, cid, check, cid, self.bounds, self.sweep)
                       for cid in order]
            return sum(oracle.EXPECTED_INSTANCES[cid] for cid in order), reports

        with _tracing(tracer):
            rnd, reports = timed(body)
        for cid, rep in zip(order, reports):
            rnd.attempted += 1
            want = oracle.EXPECTED_INSTANCES[cid]
            if isinstance(rep, Exception):
                rnd.failed += 1
                rnd.notes.append(f"{cid}: raised {type(rep).__name__}: {rep}")
            elif rep.name != cid or not rep.passed or rep.instances != want:
                rnd.failed += 1
                rnd.notes.append(f"{cid}: passed={rep.passed} instances={rep.instances} want {want}")
        return rnd


class VerifyAll:
    """`mahonian verify all` through cli.main on a process pool."""

    def __init__(self, lib, workers):
        self.lib, self.workers = lib, workers
        self.argv = ["verify", "all", "--n", str(oracle.N), "--alphabet", str(oracle.ALPHABET),
                     "--jobs", str(workers)]
        self.verdict = VERDICT.read_text().splitlines()
        bad = _verdict_errors(self.verdict)
        if bad:
            raise SetupError(f"stored verdict disagrees with the closed forms: {bad}")

    def run(self, r, tracer=None):
        def body(calls):
            result = timed_call(calls, "verify", "verify", run_cli, self.lib.cli.main, self.argv)
            return sum(oracle.EXPECTED_INSTANCES.values()), result

        with _tracing(tracer):
            rnd, result = timed(body)
        status, text = ("raised", repr(result)) if isinstance(result, Exception) else result
        lines = text.splitlines()
        rnd.attempted = len(CLI_ORDER)
        if status != 0 or text != "\n".join(self.verdict) + "\n":
            bad = {i for i, line in enumerate(self.verdict) if i >= len(lines) or lines[i] != line}
            rnd.failed = len(bad) if status == 0 and bad else len(CLI_ORDER)
            rnd.notes.append(f"exit {status}; stdout differs from the stored verdict: {text!r}")
        return rnd


def _verdict_errors(lines):
    """Lines of a `verify all` verdict that are not PASS with the closed-form count."""
    bad = []
    for cid, line in zip(CLI_ORDER, lines):
        want = oracle.EXPECTED_INSTANCES[cid]
        if not (line.startswith(f"PASS {cid} (") and line.endswith(f": {want} instances")):
            bad.append(line)
    if len(lines) != len(CLI_ORDER):
        bad.append(f"{len(lines)} lines, want {len(CLI_ORDER)}")
    return bad


def long_shapes(seed):
    """(label, argv prefix, length) of each call of a long-words round.

    Each command gets the same spread of lengths 16..48 under every seed;
    the seed orders them."""
    rng = random.Random(f"long-words:{seed}")
    per_kind = LONG_CALLS // len(LONG_KINDS)
    lengths = []
    for _ in LONG_KINDS:
        spread = [16 + i * 33 // per_kind for i in range(per_kind)]
        rng.shuffle(spread)
        lengths.append(spread)
    shapes = []
    for i in range(LONG_CALLS):
        k = i % len(LONG_KINDS)
        kind = LONG_KINDS[k]
        label = f"map_{kind[1]}" if kind[0] == "map" else kind[0]
        shapes.append((label, kind, lengths[k][i // len(LONG_KINDS)]))
    return shapes


def long_inputs(seed, shapes, r):
    """(label, argv, input word) of each call of round r: the same commands
    and lengths in every round, with fresh letters, so no input repeats."""
    rng = random.Random(f"long-words:{seed}:{r}")
    out = []
    for label, kind, n in shapes:
        if label in ("map_j", "rsk"):
            w = list(range(1, n + 1))
            rng.shuffle(w)
        else:
            w = [rng.randint(1, 12) for _ in range(n)]
        out.append((label, [*kind, ",".join(map(str, w))], tuple(w)))
    return out


class LongWords:
    """Single long inputs through cli.main, one call after another."""

    def __init__(self, lib, seed):
        self.lib, self.seed, self.workers = lib, seed, 1
        self.shapes = long_shapes(seed)
        self.first = long_inputs(seed, self.shapes, 0)

    def run(self, r, tracer=None):
        inputs = self.first if r == 0 else long_inputs(self.seed, self.shapes, r)
        main = self.lib.cli.main

        def body(calls):
            results = [timed_call(calls, i, label, run_cli, main, argv)
                       for i, (label, argv, _) in enumerate(inputs)]
            return len(inputs), results

        with _tracing(tracer):
            rnd, results = timed(body)
        for (label, _, w), result in zip(inputs, results):
            rnd.attempted += 1
            if isinstance(result, Exception):
                problem = f"raised {type(result).__name__}: {result}"
            else:
                status, text = result
                problem = f"exit {status}" if status != 0 else self.problem(label, w, text)
            if problem:
                rnd.failed += 1
                rnd.notes.append(f"{label} {','.join(map(str, w))}: {problem}")
        return rnd

    def problem(self, label, w, text):
        """Why the output of one call is wrong, or None."""
        try:
            if label == "stats":
                got = dict(item.split("=", 1) for item in text.split())
                return None if got == oracle.stats_record(w) else f"stats {text.strip()!r}"
            if label == "pattern":
                want = oracle.count_31_4_2(w)
                return None if int(text) == want else f"count {text.strip()} != {want}"
            if label == "rsk":
                return self._rsk_problem(w, text)
            image = _parse_word(text)
            if sorted(image) != sorted(w):
                return f"image {text.strip()} changes the multiset"
            if label == "map_phi":
                again = self.lib.involution.phi_on_class(image)
                a, b = oracle.stats_record(w), oracle.stats_record(image)
                swapped = [a[k] == b[k] for k in ("des", "Id", "F")] + [
                    a["MAJ"] == b["STAT"], a["STAT"] == b["MAJ"]]
                if not all(swapped):
                    return f"image {text.strip()} does not swap MAJ and STAT"
            else:
                again = self.lib.tableaux.foata_j(image)
                n = len(w)
                if oracle.inverse_descents(image) != oracle.inverse_descents(w) or sorted(
                    oracle.descents(image)
                ) != sorted(n - d for d in oracle.descents(w)):
                    return f"image {text.strip()} breaks Id/D"
            return None if tuple(again) == w else "not an involution"
        except (ValueError, KeyError, IndexError) as exc:
            return f"unreadable output {text!r}: {exc}"

    @staticmethod
    def _rsk_problem(w, text):
        lines = text.splitlines()
        split = lines.index("Q:")
        p_rows = [tuple(map(int, ln.split())) for ln in lines[1:split]]
        q_rows = [tuple(map(int, ln.split())) for ln in lines[split + 1:]]
        if lines[0] != "P:" or not (oracle.is_standard(p_rows) and oracle.is_standard(q_rows)):
            return "tableaux not standard"
        if [len(x) for x in p_rows] != [len(x) for x in q_rows]:
            return "shapes differ"
        return None if oracle.inverse_rsk(p_rows, q_rows) == w else "inverse_rsk != input"


def _parse_word(text):
    s = text.strip()
    return tuple(int(x) for x in s.split(",")) if "," in s else tuple(int(ch) for ch in s)


@contextlib.contextmanager
def _tracing(tracer):
    if tracer is not None:
        tracer.active = True
    try:
        yield
    finally:
        if tracer is not None:
            tracer.active = False


def make_workload(name, lib, seed, workers):
    if name == "sn-sweep":
        return CheckSweep(lib, seed, SN_CHECKS, sweep=True)
    if name == "word-classes":
        return CheckSweep(lib, seed, CLASS_CHECKS, sweep=False)
    if name == "verify-all-jobs2":
        return VerifyAll(lib, workers)
    return LongWords(lib, seed)


# ------------------------------------------------------------------ metrics


def quantile(xs, q):
    xs = sorted(xs)
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[round(q * 100) - 1]


def slot_medians(rounds):
    """Per slot (a check, or a position in the long-words sequence), the
    median over the rounds of its wall time at reference host speed, and
    its label."""
    walls = {}
    for call in (c for r in rounds for c in r.calls):
        walls.setdefault(call.slot, (call.label, []))[1].append(at_reference(call.start, call.wall_s))
    return {slot: (statistics.median(ts), label) for slot, (label, ts) in walls.items()}


def end_to_end(setups, rounds):
    """The metrics a user sees, from untraced rounds, at reference host
    speed: set-up as the median of the run's set-ups, wall and CPU time as
    the mean round, call latencies over the per-slot medians."""
    wall_s = statistics.fmean(at_reference(r.start, r.wall_s) for r in rounds)
    cpu_s = statistics.fmean(r.cpu_s * hostspeed.scale(r.start, r.start + r.wall_s) for r in rounds)
    walls = [wall for wall, _ in slot_medians(rounds).values()]
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": (statistics.median(at_reference(t, s) for t, s in setups), "s"),
        "wall_s": (wall_s, "s"),
        "ops_per_s": (rounds[0].instances / wall_s, "1/s"),
        "cpu_s": (cpu_s, "s"),
        "peak_rss_mb": (max(me, kids) / 1024, "MB"),
        "call_p50_us": (quantile(walls, 0.50) * 1e6, "us"),
        "call_p99_us": (quantile(walls, 0.99) * 1e6, "us"),
    }


def per_layer(tracer, traced, rounds, workers):
    """Counts and self times of each layer from the traced round; pool and
    CLI latencies (at reference host speed) from the untraced rounds of the
    same run."""
    spans = tracer.summary()

    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    out = {}
    co = "patterns.count_occurrences"
    out[f"{co}.calls"] = (get(co, "calls"), "count")
    out[f"{co}.self_s"] = (get(co, "self_s"), "s")
    out[f"{co}.us_per_call"] = (get(co, "s") / get(co, "calls") * 1e6 if get(co, "calls") else 0.0, "us")
    out["patterns.eval_sum.calls"] = (get("patterns.eval_sum", "calls"), "count")
    for fn in ("code", "inverse_descent_set", "adj", "decode"):
        out[f"words.{fn}.calls"] = (get(f"words.{fn}", "calls"), "count")
        out[f"words.{fn}.self_s"] = (get(f"words.{fn}", "self_s"), "s")
    out["words.stat.calls"] = (get("words.stat", "calls"), "count")
    out["words.stat.s"] = (get("words.stat", "s"), "s")
    out["words.code.calls_per_instance"] = (get("words.code", "calls") / traced.instances, "count")
    for layer, fns in (("tableaux", ("rsk", "inverse_rsk", "foata_j", "Tableau.validate")),
                       ("involution", ("phi", "burstein_p", "phi_on_class", "decompose", "recompose"))):
        for fn in fns:
            out[f"{layer}.{fn}.calls"] = (get(f"{layer}.{fn}", "calls"), "count")
            out[f"{layer}.{fn}.self_s"] = (get(f"{layer}.{fn}", "self_s"), "s")
    for cid in ALL_CHECKS:
        out[f"verify.check.{cid}.s"] = (get(f"verify.check.{cid}", "s"), "s")
    out["verify.self_s"] = (sum(v["self_s"] for k, v in spans.items() if k.startswith("verify.")), "s")
    out["verify.pool.utilization"] = (
        statistics.median(r.cpu_s / (workers * r.wall_s) for r in rounds), "fraction")
    out["verify.pool.child_cpu_s"] = (statistics.median(r.child_cpu_s for r in rounds), "s")
    medians = slot_medians(rounds).values()
    for label in CLI_LABELS:
        times = [wall for wall, lab in medians if lab == label]
        out[f"cli.{label}.p50_us"] = (statistics.median(times) * 1e6 if times else 0.0, "us")
    cli_s = sum(v["s"] for k, v in spans.items() if k.startswith("cli.main"))
    cli_self = sum(v["self_s"] for k, v in spans.items() if k.startswith("cli.main"))
    out["cli.self_frac"] = (cli_self / cli_s if cli_s else 0.0, "fraction")
    untraced = statistics.fmean(at_reference(r.start, r.wall_s) for r in rounds)
    out["trace_overhead_frac"] = (at_reference(traced.start, traced.wall_s) / untraced - 1, "fraction")
    return out


# --------------------------------------------------------------- provenance


def git_commit():
    """The checked-out commit, read from .git without running git; None
    when the checkout is not a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


# --------------------------------------------------------------------- main


def run_one(args):
    load = loadavg()
    workers = min(2, os.cpu_count() or 1)
    forks = [0]
    os.register_at_fork(after_in_parent=lambda: forks.__setitem__(0, forks[0] + 1))

    def set_up():
        start, t0 = time.perf_counter(), hostspeed.clock()
        workload = make_workload(args.workload, import_mahonian(), args.seed, workers)
        setups.append((start, hostspeed.clock() - t0))
        return workload

    setups = []
    budget = args.seconds / 2 if args.trace else args.seconds
    rounds = []
    start = time.perf_counter()
    with hostspeed.sampling():
        for _ in range(SETUPS):
            workload = set_up()
        while True:
            before = time.perf_counter()
            rounds.append(workload.run(len(rounds)))
            hostspeed.collect()
            last = time.perf_counter() - before
            if time.perf_counter() - start + last > budget:
                break
        traced = None
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
            # A round index of its own: the traced inputs do not depend on how
            # many untraced rounds fitted, so call counts repeat exactly.
            traced = workload.run("traced", tracer)

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "git_commit": git_commit(),
        "workers": workload.workers,
        "worker_processes_started": forks[0],
        "loadavg_at_start": load,
        "rounds": len(rounds),
        "round_wall_s": [round(r.wall_s, 6) for r in rounds],
        "setup_s": [round(s, 6) for _, s in setups],
        "host_samples": len(hostspeed.samples),
        "host_scale": round(hostspeed.scale(), 6),
        "calls": sum(len(r.calls) for r in rounds),
    }
    if args.trace:
        metrics = per_layer(tracer, traced, rounds, workload.workers)
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(str(TRACE_DIR / f"trace-{args.workload}.spans"), {"provenance": provenance})
        provenance["spans"] = len(tracer.start)
    else:
        metrics = end_to_end(setups, rounds)

    all_rounds = rounds + ([traced] if traced else [])
    attempted = sum(r.attempted for r in all_rounds)
    failed = sum(r.failed for r in all_rounds)
    for note in [n for r in all_rounds for n in r.notes][:20]:
        print(f"FAILED {note}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(f"{args.workload} failed_frac {failed / attempted:.6g} fraction")
    print("provenance " + json.dumps(provenance))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(args):
    """Every workload in its own process; metrics are prefixed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise SetupError(f"{name} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result = run_all(args) if args.workload == "all" else run_one(args)
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
