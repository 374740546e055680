"""Acceptance suite.

One test per headline criterion.  Every test prints a single PASS/FAIL line
(visible with ``pytest -s`` or in captured output on failure) and then
asserts, so a red run still shows the full scoreboard.
"""
import random
import time

from strips_operad import mutants
from strips_operad.framework import ALGEBRA, OPERAD, REL, Block, run_check
from strips_operad.intervals import intervals_operad, random_intervals
from strips_operad.sheets import (random_pointed_map, sheet_algebra,
                                  sheet_violation)
from strips_operad.shapes import output_shape
from strips_operad.strips import (random_strip, random_strip_over,
                                  strip_compose, strip_violation,
                                  strips_rel_operad)
from strips_operad.trees import enumerate_trees, f_vector, trees_operad

from helpers import (catalan, chain_inputs, polygon_dissection_counts,
                     report_bytes)

SEED = 1105


def _line(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_1_interval_laws():
    t0 = time.perf_counter()
    report = run_check(OPERAD, intervals_operad(), "intervals", seed=SEED,
                       cases=200, max_arity=4)
    dt = time.perf_counter() - t0
    ok = report.ok and report.cases_run == 200 and dt < 5.0
    _line(1, ok, f"intervals: {report.cases_run} cases, arity <= 4, "
                 f"{len(report.failures)} failures, {dt:.2f}s")
    assert report.ok
    assert report.cases_run == 200
    assert dt < 5.0


def test_criterion_2_strip_laws_and_shape_witness():
    t0 = time.perf_counter()
    report = run_check(REL, strips_rel_operad(), "strips", seed=SEED,
                       cases=100, max_r=3, max_total=5)
    dt = time.perf_counter() - t0

    # a two-strip diagram glued onto arity-(2, 3) bases lands in (3, 1, 0, 0, 0)
    rng = random.Random(SEED)
    outer = random_strip((2, 0), seed=SEED)
    base1 = random_intervals(2, rng)
    base2 = random_intervals(3, rng)
    c1 = random_strip_over((1, 0), base1, rng)
    c2 = random_strip_over((2, 1), base1, rng)
    composed = strip_compose(outer, (Block(base1, (c1, c2)),
                                     Block(base2, ())))
    witness = (composed.shape == (3, 1, 0, 0, 0)
               and strip_violation(composed) is None
               and output_shape((2, 0), (2, 3),
                                [[(1, 0), (2, 1)], []]) == (3, 1, 0, 0, 0))

    ok = report.ok and report.cases_run == 100 and dt < 30.0 and witness
    _line(2, ok, f"strips: {report.cases_run} cases, <=5 rectangles, "
                 f"{len(report.failures)} failures, shape witness "
                 f"{composed.shape}, {dt:.2f}s")
    assert report.ok
    assert report.cases_run == 100
    assert witness
    assert dt < 30.0


def test_criterion_3_tree_exhaustive_and_face_counts():
    t0 = time.perf_counter()
    report = run_check(OPERAD, trees_operad(), "trees", seed=SEED, cases=None,
                       max_arity=3)
    dt = time.perf_counter() - t0

    counts_ok = True
    for r in range(2, 8):
        oracle = polygon_dissection_counts(r)
        fv = f_vector(r)
        counts_ok &= all(fv[d] == oracle.get(d, 0) for d in range(len(fv)))
        counts_ok &= fv[0] == catalan(r - 1)
    counts_ok &= [f_vector(r)[0] for r in range(2, 8)] == [1, 2, 5, 14, 42, 132]
    counts_ok &= len(enumerate_trees(4)) == 11

    ok = report.ok and counts_ok
    _line(3, ok, f"trees: exhaustive over {report.cases_run} cases "
                 f"(all plans, arity <= 3), {len(report.failures)} failures, "
                 f"face counts r=2..7 vs dissection oracle, {dt:.2f}s")
    assert report.ok
    assert counts_ok


def test_criterion_4_sheet_action_laws_and_closure():
    def make(rng):
        f = random_pointed_map(rng, rng.randint(0, 2), rng.randint(0, 2))
        return sheet_algebra(f)

    t0 = time.perf_counter()
    report = run_check(ALGEBRA, (make, strips_rel_operad()), "sheets",
                       seed=SEED, cases=50, max_r=3, max_total=4)
    closure_rng = random.Random(SEED)
    closed = 0
    for k in range(10):
        f = random_pointed_map(closure_rng, closure_rng.randint(0, 2),
                               closure_rng.randint(0, 2))
        alg = sheet_algebra(f)
        shape = tuple(closure_rng.randint(0, 2) for _ in range(2))
        if not any(shape):
            shape = (1, 0)
        config = random_strip(shape, seed=SEED + k)
        out = alg.act_sheet(config, chain_inputs(f, config, closure_rng))
        if sheet_violation(f, out) is None:
            closed += 1
    dt = time.perf_counter() - t0

    ok = report.ok and report.cases_run == 50 and closed == 10 and dt < 60.0
    _line(4, ok, f"sheets: {report.cases_run} cases, <=4 rectangles, "
                 f"{len(report.failures)} failures, closure {closed}/10, "
                 f"{dt:.2f}s")
    assert report.ok
    assert report.cases_run == 50
    assert closed == 10
    assert dt < 60.0


def test_criterion_5_degenerate_regimes():
    def make_no_source(rng):
        return sheet_algebra(random_pointed_map(rng, 0, rng.randint(1, 2)))

    def make_no_target(rng):
        return sheet_algebra(random_pointed_map(rng, rng.randint(1, 2), 0))

    r1 = run_check(ALGEBRA, (make_no_source, strips_rel_operad()), "no-source",
                   seed=SEED, cases=20, max_r=3, max_total=4)
    r2 = run_check(ALGEBRA, (make_no_target, strips_rel_operad()), "no-target",
                   seed=SEED, cases=20, max_r=3, max_total=4)
    ok = r1.ok and r2.ok and r1.cases_run == 20 and r2.cases_run == 20
    _line(5, ok, f"degenerate regimes: source-dim 0 {len(r1.failures)} "
                 f"failures / target-dim 0 {len(r2.failures)} failures, "
                 f"20 cases each")
    assert r1.ok and r1.cases_run == 20
    assert r2.ok and r2.cases_run == 20


def test_criterion_6_mutation_sensitivity():
    m1 = run_check(OPERAD, mutants.intervals_operad(), "intervals", seed=SEED,
                   cases=200, max_arity=4)
    m2 = run_check(REL, mutants.strips_rel_operad(), "strips", seed=SEED,
                   cases=100, max_r=3, max_total=5)

    def make(rng):
        f = random_pointed_map(rng, rng.randint(0, 2), rng.randint(1, 2))
        return mutants.sheet_algebra(f)

    m4 = run_check(ALGEBRA, (make, strips_rel_operad()), "sheets-mutated",
                   seed=SEED, cases=50, max_r=3, max_total=4)
    ok = (not m1.ok) and (not m2.ok) and (not m4.ok)
    _line(6, ok, f"mutants caught: intervals {len(m1.failures)}, strips "
                 f"{len(m2.failures)}, sheets {len(m4.failures)} failures "
                 f"under the same seeds")
    assert not m1.ok and m1.failures
    assert not m2.ok and m2.failures
    assert not m4.ok and m4.failures
    # a law comparison caught each mutant, not a crash
    for m in (m1, m2, m4):
        assert all(f.law != "exception" for f in m.failures)


def test_criterion_7_deterministic_reports():
    pairs = []
    for _ in range(2):
        a = report_bytes(run_check(OPERAD, intervals_operad(), "intervals",
                                   seed=SEED, cases=50, max_arity=4))
        b = report_bytes(run_check(REL, strips_rel_operad(), "strips", seed=SEED,
                                   cases=30, max_r=3, max_total=5))
        c = report_bytes(run_check(OPERAD, trees_operad(), "trees", seed=SEED,
                                   cases=50, max_arity=6))

        def make(rng):
            f = random_pointed_map(rng, rng.randint(0, 2), rng.randint(0, 2))
            return sheet_algebra(f)

        d = report_bytes(run_check(ALGEBRA, (make, strips_rel_operad()), "sheets",
                                   seed=SEED, cases=10, max_r=3, max_total=4))
        pairs.append((a, b, c, d))
    ok = pairs[0] == pairs[1]
    _line(7, ok, "reports byte-identical across reruns for all four checkers")
    assert pairs[0] == pairs[1]
