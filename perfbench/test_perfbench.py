"""Self-tests of the benchmark's tracing and reference computations.

    python3 -m pytest perfbench -q

The exact call counts pin the call structure of the sn-sweep workload:
STAT is reached through `words.stat` (lemma-3.4, once per instance) and
through `verify.STATISTICS["stat"]` (thm-1.1 and thm-1.3, twice per
instance each), and evaluates a six-term pattern sum.
"""
from __future__ import annotations

import os
import random
import signal
import sys
import time
from itertools import product

import pytest

import hostspeed
import oracle
import run
import tracer as tracing


@pytest.fixture
def traced_lib():
    lib = run.import_mahonian()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    return lib, tracer


def test_every_binding_is_wrapped(traced_lib):
    lib, tracer = traced_lib
    assert tracing.unwrapped(tracer) == []
    package = sys.modules["mahonian"]
    assert lib.verify.STATISTICS["stat"] is lib.words.stat is package.stat
    assert lib.verify.STATISTICS["adj"] is lib.words.adj
    assert lib.verify.foata_j is lib.involution.foata_j is lib.tableaux.foata_j
    assert lib.involution.code is lib.words.code
    assert lib.involution.decode is lib.words.decode
    for fn in (lib.words.stat, lib.verify.foata_j, lib.tableaux.Tableau.validate, lib.cli.main):
        assert hasattr(fn, "__wrapped__")


def _ancestor(tracer, i, prefix):
    names = tracer.names
    while i >= 0:
        if names[tracer.name[i]].startswith(prefix):
            return names[tracer.name[i]]
        i = tracer.parent[i]
    return None


def test_sn_sweep_counts(traced_lib):
    lib, tracer = traced_lib
    workload = run.CheckSweep(lib, 0, run.SN_CHECKS, sweep=True)
    rnd = workload.run(0, tracer)
    assert rnd.failed == 0 and rnd.instances == 5 * oracle.PERM_INSTANCES
    spans = tracer.summary()
    assert spans["words.stat"]["calls"] == 29_565
    assert spans["patterns.count_occurrences"]["calls"] == 177_390
    assert spans["patterns.eval_sum"]["calls"] == 29_565
    stat_id = tracer.names.index("words.stat")
    by_check = {}
    for i in range(len(tracer.start)):
        if tracer.name[i] == stat_id:
            owner = _ancestor(tracer, i, "verify.check.")
            by_check[owner] = by_check.get(owner, 0) + 1
    # Direct `words.stat` binding: lemma-3.4.  `STATISTICS["stat"]`: thm-1.1, thm-1.3.
    assert by_check == {
        "verify.check.lemma-3.4": 5_913,
        "verify.check.thm-1.1": 11_826,
        "verify.check.thm-1.3": 11_826,
    }


def test_untraced_wrappers_pass_through(traced_lib):
    lib, tracer = traced_lib
    assert lib.words.stat((2, 1, 2, 1)) == oracle.stat((2, 1, 2, 1))
    assert len(tracer.start) == 0


def test_oracle_agrees_with_library_on_small_words():
    lib = run.import_mahonian()
    for n in range(1, 6):
        for w in product(range(1, 4), repeat=n):
            assert oracle.stat(w) == lib.words.stat(w)
            assert oracle.adj(w) == lib.words.adj(w)
            assert oracle.code(w) == lib.words.code(w)
    pattern = lib.patterns.parse_pattern("31-4-2")
    rng = random.Random(0)
    for _ in range(200):
        w = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 12)))
        assert oracle.count_31_4_2(w) == lib.patterns.count_occurrences(pattern, w)
        p = list(range(1, len(w) + 1))
        rng.shuffle(p)
        insert, record = lib.tableaux.rsk(p)
        assert oracle.is_standard(insert.rows) and oracle.is_standard(record.rows)
        assert oracle.inverse_rsk(insert.rows, record.rows) == tuple(p)


def test_closed_forms():
    assert oracle.PERM_INSTANCES == 5_913
    assert oracle.CUBE_INSTANCES == 3_540
    assert oracle.CLASS_INSTANCES == 3_279
    assert oracle.PROP_INSTANCES == 119
    assert 5 * oracle.PERM_INSTANCES == 29_565
    assert sum(oracle.EXPECTED_INSTANCES[c] for c in run.CLASS_CHECKS) == 13_757


def test_long_words_checker_rejects_wrong_outputs():
    lib = run.import_mahonian()
    workload = run.LongWords(lib, 0)
    label, argv, w = workload.first[0]
    assert label == "stats"
    assert workload.problem("pattern", w, str(oracle.count_31_4_2(w) + 1)) is not None
    assert workload.problem("pattern", w, str(oracle.count_31_4_2(w))) is None
    perm = workload.first[2][2]
    assert workload.problem("map_j", perm, ",".join(map(str, perm))) is not None


def test_stored_verdict_matches_closed_forms():
    assert run._verdict_errors(run.VERDICT.read_text().splitlines()) == []


def test_long_words_lengths_do_not_depend_on_the_seed():
    def lengths(seed):
        return sorted((label, n) for label, _, n in run.long_shapes(seed))

    assert lengths(1) == lengths(2)
    assert run.long_shapes(1) != run.long_shapes(2)
    assert {n for _, n in lengths(1)} == set(range(16, 49))


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_host_speed_sampling_excludes_itself_and_hears_workers():
    with hostspeed.sampling():
        t, c = time.perf_counter(), hostspeed.clock()
        _busy(0.3)
        sampler = (time.perf_counter() - t) - (hostspeed.clock() - c)
        pid = os.fork()
        if pid == 0:
            _busy(0.3)
            os._exit(0)
        os.waitpid(pid, 0)
        signal.setitimer(signal.ITIMER_REAL, 0)  # from here on only the worker's samples arrive
        before = len(hostspeed.samples)
        hostspeed.collect()
        from_worker = len(hostspeed.samples) - before
    assert sampler > 0
    assert from_worker > 0
    assert 0 < hostspeed.scale() < 10
