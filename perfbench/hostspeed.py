"""Host-speed sampling, so that times from a shared host can be compared.

On a shared virtual machine the same code runs up to 1.7x slower for
minutes at a time, because of what other tenants do; CPU time slows with
wall time, so neither can tell a slower program from a slower host.  While
a workload runs, a SIGALRM handler runs a fixed pure-Python kernel every
PERIOD_S seconds and records when it started and how long it took.  The
kernel belongs to the benchmark, not to the program, so no change to the
program moves it.  The samples cover the workload's run time evenly, so
their mean slows when and as much as the host does; `scale(t0, t1)` turns
a time measured between perf_counter() readings t0 and t1 into the time it
would have taken at REFERENCE_S per kernel run, from the samples taken
between t0 - PAD_S and t1 + PAD_S.  It leaves out the slowest tenth of
them, so that one sample cut short by another tenant does not swing the
figure for a call of a few milliseconds.

Worker processes forked while sampling sample too, on their own CPU, and
send their samples back through a pipe; `collect()` reads them.

`clock()` and `cpu_clock()` are perf_counter() and process_time() with the
time spent in this process's handler taken out, so timings made with them
exclude the sampling.  A worker's own samples stay in its time (about 3%).
"""
from __future__ import annotations

import math
import os
import random
import signal
import struct
import time
from bisect import bisect_left, bisect_right
from itertools import combinations

PERIOD_S = 0.02
PAD_S = 0.25
# One kernel run (mean of the fastest nine tenths) on the machine the
# benchmark was defined on: 2 vCPUs of an Intel Xeon KVM guest, CPython
# 3.11.7, at its usual speed.
REFERENCE_S = 0.00048
_RECORD = struct.Struct("dd")

_rng = random.Random(20170825)
_WORDS = tuple(tuple(_rng.randint(1, 9) for _ in range(22)) for _ in range(8))

samples: list[tuple[float, float]] = []  # (perf_counter at start, seconds)
_spent_wall = 0.0
_spent_cpu = 0.0
_pipe: tuple[int, int] | None = None  # (read, write) while sampling
_in_worker = False


def kernel():
    """Standardise a few fixed words and count 31-4-2-like occurrences in
    them: the same mix of sorting, tuple building, comparisons and nested
    loops as the program's own statistics."""
    total = 0
    for w in _WORDS:
        n = len(w)
        order = sorted(range(n), key=lambda i: (w[i], i))
        c = [0] * n
        for rank, i in enumerate(order, start=1):
            c[i] = rank
        descents = [i for i in range(1, n) if c[i - 1] > c[i]]
        total += (n + 1) * len(descents) - sum(descents)
        for a in range(n - 1):
            hi, lo = c[a], c[a + 1]
            if hi > lo:
                total += sum(1 for x, y in combinations(c[a + 2:], 2) if x > hi > y > lo)
    return total


def _tick(signum, frame):
    global _spent_wall, _spent_cpu
    t, c = time.perf_counter(), time.process_time()
    kernel()
    wall = time.perf_counter() - t
    if _in_worker:
        try:
            os.write(_pipe[1], _RECORD.pack(t, wall))
        except BlockingIOError:  # the parent stopped reading; drop the sample
            pass
        return
    samples.append((t, wall))
    _spent_wall += time.perf_counter() - t
    _spent_cpu += time.process_time() - c


def _start_in_worker():
    global _in_worker
    if _pipe is not None:
        _in_worker = True
        os.close(_pipe[0])
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)


os.register_at_fork(after_in_child=_start_in_worker)


def clock():
    return time.perf_counter() - _spent_wall


def cpu_clock():
    return time.process_time() - _spent_cpu


def collect():
    """Move the samples that workers have sent into `samples`."""
    data = b""
    while _pipe is not None:
        try:
            chunk = os.read(_pipe[0], 1 << 16)
        except BlockingIOError:
            break
        if not chunk:
            break
        data += chunk
    usable = len(data) - len(data) % _RECORD.size
    samples.extend(_RECORD.iter_unpack(data[:usable]))


class sampling:
    """Context manager: sample the host's speed while the block runs."""

    def __enter__(self):
        global _pipe
        _pipe = os.pipe()
        for fd in _pipe:
            os.set_blocking(fd, False)
        self.previous = signal.signal(signal.SIGALRM, _tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        global _pipe
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        collect()
        samples.sort()
        for fd in _pipe:
            os.close(fd)
        _pipe = None
        return False


def scale(t0=-math.inf, t1=math.inf):
    """Factor from a time measured between perf_counter() readings t0 and
    t1 to the same time at reference speed; by default over every sample."""
    lo = bisect_left(samples, (t0 - PAD_S,))
    hi = bisect_right(samples, (t1 + PAD_S, math.inf))
    taken = sorted(wall for _, wall in samples[lo:hi])
    if not taken:
        raise RuntimeError("no host-speed samples were taken")
    kept = taken[:len(taken) - len(taken) // 10]
    return REFERENCE_S * len(kept) / sum(kept)
