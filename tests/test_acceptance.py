"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every expected value here is exact (integer or frozen
text); the only tolerances are the stated wall-clock budgets.
"""
import math
import random
import time

from mahonian import cli, involution, patterns, tableaux, verify, words

TABLE_1122_TSV = (
    "word\tAdj\tdes\tides\tF\tIMAJ\tMAJ\tSTAT\n"
    "1122\t0\t0\t0\t1\t0\t0\t0\n"
    "1212\t1\t1\t1\t1\t2\t2\t3\n"
    "1221\t0\t1\t1\t1\t2\t3\t2\n"
    "2112\t0\t1\t1\t2\t2\t1\t2\n"
    "2121\t0\t2\t1\t2\t2\t4\t4\n"
    "2211\t0\t1\t1\t2\t2\t2\t1\n"
)


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS  ({detail})")


def des_maj(w):
    d = words.descent_set(w)
    return len(d), sum(d)


def quintuple(w):
    des, maj = des_maj(w)
    return des, tuple(sorted(words.inverse_descent_set(w))), w[0], maj, words.stat(w)


def test_criterion_1_table_reproduction(capsys):
    start = time.perf_counter()
    code = cli.main(["table", "1122"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    assert code == 0
    assert out == TABLE_1122_TSV
    assert elapsed < 1.0
    with capsys.disabled():
        _report("criterion 1", f"six rows byte-exact, {elapsed:.3f}s < 1s")


def test_criterion_2_worked_example_pipeline():
    v = (4, 3, 4, 4, 2, 1, 6, 5, 1)
    pi = words.code(v)
    assert pi == (5, 4, 6, 7, 3, 1, 9, 8, 2)

    triple = involution.decompose(pi)
    assert triple.top == (6, 7, 9, 8)
    assert triple.bottom == (4, 3, 1, 2)
    assert triple.shuffle == {1, 2, 4, 6, 8}

    expected_tableaux = {
        (1, 2, 4, 3): ([[1, 2, 3], [4]], [[1, 2, 3], [4]]),
        (2, 1, 3, 4): ([[1, 3, 4], [2]], [[1, 3, 4], [2]]),
        (4, 3, 1, 2): ([[1, 2], [3], [4]], [[1, 4], [2], [3]]),
        (3, 4, 2, 1): ([[1, 4], [2], [3]], [[1, 2], [3], [4]]),
    }
    for perm, (p_rows, q_rows) in expected_tableaux.items():
        insert_tab, record_tab = tableaux.rsk(perm)
        assert insert_tab == tableaux.Tableau.of(p_rows)
        assert record_tab == tableaux.Tableau.of(q_rows)

    assert tableaux.foata_j((1, 2, 4, 3)) == (4, 1, 2, 3)
    assert tableaux.foata_j((4, 3, 1, 2)) == (1, 4, 3, 2)

    image = involution.phi(pi)
    assert image == (5, 1, 9, 6, 4, 3, 7, 8, 2)
    class_image = involution.phi_on_class(v)
    assert class_image == (4, 1, 6, 4, 3, 2, 4, 5, 1)

    assert quintuple(v) == (5, (2, 3, 4, 8), 4, 25, 21)
    des, idset, first, maj, stat = quintuple(class_image)
    assert (des, idset, first, stat, maj) == (5, (2, 3, 4, 8), 4, 25, 21)
    _report("criterion 2", "full worked-example pipeline exact")


def test_criterion_3_quintuple_swap_s1_to_s7():
    start = time.perf_counter()
    total = 0
    for n in range(1, 8):
        report = verify.check("thm-1.3", n=n)
        assert report.passed, report.lines()
        assert report.instances == math.factorial(n) <= 6000
        total += report.instances
    elapsed = time.perf_counter() - start
    assert total == 5913
    assert elapsed < 10.0
    _report("criterion 3", f"5913 instances over S_1..S_7, {elapsed:.2f}s < 10s")


def test_criterion_4_class_swap():
    start = time.perf_counter()
    report = verify.check("cor-1.4", n=6, alphabet=4)
    elapsed = time.perf_counter() - start
    assert report.passed, report.lines()
    assert report.instances == sum(4**n for n in range(1, 7))  # 5460 words
    assert elapsed < 30.0
    _report("criterion 4", f"{report.instances} instances, {elapsed:.2f}s < 30s")


def test_criterion_5_adj_swap_and_cube_distribution():
    for n in range(1, 7):
        report = verify.check("thm-1.1", n=n)
        assert report.passed, report.lines()
        assert report.instances == math.factorial(n)
    cube = verify.check("thm-1.2", n=4, alphabet=4)
    assert cube.passed, cube.lines()
    assert cube.instances == sum(m**n for n in range(1, 5) for m in range(1, 5))
    _report("criterion 5", "pointwise swap on S_1..S_6 and sextuple distributions on [4]^4")


def test_criterion_6_lemmas_coding_and_characterization():
    for n in range(1, 7):
        assert verify.check("lemma-3.1", n=n).passed
    for n in range(1, 8):
        assert verify.check("lemma-3.4", n=n).passed
        assert verify.check("lemma-3.5", n=n).passed
    assert verify.check("eq-2", n=4, alphabet=4).passed
    prop = verify.check("prop-2.4", n=6, alphabet=4)
    assert prop.passed and prop.instances == 209  # classes with n<=6 over 1..4
    _report("criterion 6", "set lemmas, sum identities, coding, and class characterization")


def test_criterion_7_property_suite():
    # RSK round trip: exhaustive through S_7, then 1000 random length-12 draws
    for n in range(0, 8):
        for p in verify.symmetric_group(n):
            assert tableaux.inverse_rsk(*tableaux.rsk(p)) == p
    rng = random.Random(441)
    base = list(range(1, 13))
    for _ in range(1000):
        p = tuple(rng.sample(base, 12))
        assert tableaux.inverse_rsk(*tableaux.rsk(p)) == p

    # involutions
    for n in range(1, 7):
        for p in verify.symmetric_group(n):
            assert tableaux.foata_j(tableaux.foata_j(p)) == p
            assert involution.phi(involution.phi(p)) == p
            assert involution.burstein_p(involution.burstein_p(p)) == p
    for letters in verify.multisets(4, 6):
        for v in verify.rearrangement_class(letters):
            assert involution.phi_on_class(involution.phi_on_class(v)) == v

    # pattern sums against independent routes on all 256 words of [4]^4
    count = 0
    for w in verify.word_cube(4, 4):
        _, maj = des_maj(w)
        assert patterns.eval_sum("MAJ_w", w) == maj
        cw = words.code(w)
        des_c, maj_c = des_maj(cw)
        assert patterns.eval_sum("STAT_w", w) == words.stat(w)
        assert words.stat(w) == 5 * des_c - (cw[0] - 1) - maj_c
        count += 1
    assert count == 256
    _report("criterion 7", "RSK round trips, four involutions, pattern-sum formulas")


def test_criterion_8_default_verification_gate():
    # The unbounded claims are replaced by the bounded sweep plus the worked
    # example above: `verify all` at default bounds must pass end to end.
    reports = verify.run_all()
    assert [r.name for r in reports] == list(verify.CHECK_IDS)
    for report in reports:
        assert report.passed, report.lines()
    _report("criterion 8", "verify-all gate green at default bounds (n<=6, letters<=3)")
