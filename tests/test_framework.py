"""Law checkers, plan generators, and deterministic reports."""
import collections
import json
import random

import pytest

from strips_operad import mutants
from strips_operad.framework import (ALGEBRA, OPERAD, REL, CheckFailure,
                                     FiberProductError, Elements,
                                     all_operad_plans, check_operad_laws,
                                     check_rel_laws, operad_plan_count,
                                     random_algebra_plan, random_operad_plan,
                                     random_rel_elements, random_rel_plan,
                                     run_check)
from strips_operad.intervals import intervals_operad
from strips_operad.shapes import output_shape
from strips_operad.strips import strips_rel_operad
from strips_operad.trees import trees_operad

from helpers import report_bytes, words_algebra


# --- plans --------------------------------------------------------------------

def test_all_operad_plans_counts():
    # middle arities in 1..k, deep arities in 1..k for every middle slot:
    # sum over r<=k of k^r plan skeletons times their deep choices.
    plans = list(all_operad_plans(2))
    assert len(plans) == len({(p.s, p.t) for p in plans})
    for p in plans:
        assert 1 <= len(p.s) <= 2
        assert all(1 <= a <= 2 for a in p.s)
        # one deep arity per middle slot, listed flat
        assert len(p.t) == sum(p.s)
        assert all(1 <= d <= 2 for d in p.t)
    # sum over outer arity r of (sum over middle arity a of 2^a) ** r
    assert len(plans) == 6 + 36


@pytest.mark.parametrize("max_arity", [1, 2, 3])
def test_operad_plan_count_is_the_enumeration_length(max_arity):
    assert operad_plan_count(max_arity) == sum(1 for _ in all_operad_plans(max_arity))


def test_operad_plan_count_values():
    assert [operad_plan_count(r) for r in (1, 2, 3, 4)] == [
        1, 42, 60_879, 13_402_779_940]


def test_random_plans_respect_bounds():
    rng = random.Random(7)
    algebra_rng = random.Random(8)     # leaves rng's stream as it was
    for _ in range(50):
        p = random_operad_plan(rng, 3)
        assert 1 <= len(p.s) <= 3
        assert all(1 <= a <= 3 for a in p.s)
        assert len(p.t) == sum(p.s)
        assert p.m == p.inner == p.deep == ()
        rp = random_rel_plan(rng, 3, 5)
        assert 1 <= len(rp.m) <= 3
        assert sum(rp.m) >= 1
        stage_one = sum(sum(row) for rows in rp.inner for row in rows)
        assert stage_one <= 5
        final = sum(sum(sh) for per_strip in rp.deep for sh in per_strip)
        assert final <= 5
        # the second stage is flat, one entry per first-stage output strip
        assert len(rp.t) == sum(rp.s)
        assert tuple(map(len, rp.deep)) == output_shape(rp.m, rp.s, rp.inner)
        assert all(len(sh) == t_k for t_k, shapes in zip(rp.t, rp.deep)
                   for sh in shapes)
        ap = random_algebra_plan(algebra_rng, 3, 5)
        assert 1 <= len(ap.m) <= 3
        assert ap.t == ap.deep == ()


# --- unit plans give zero failures ---------------------------------------------

def _unit_operad_elements(op):
    u = op.unit()
    return Elements(outer=u, first=(u,), second=(u,))


@pytest.mark.parametrize("make", [intervals_operad, trees_operad])
def test_unit_plan_has_no_failures(make):
    op = make()
    elems = _unit_operad_elements(op)
    assert check_operad_laws(op, elems, "", []) == []


def test_unit_rel_plan_has_no_failures():
    rel = strips_rel_operad()
    rng = random.Random(0)
    plan = random_rel_plan(rng, 2, 4)
    elems = random_rel_elements(rel, plan, rng)
    assert check_rel_laws(rel, elems, "", []) == []


def test_rel_check_goes_on_after_an_earlier_cases_shape_failure():
    # in a run every case appends to the report's list, so the shape
    # arithmetic failure at its end may be another case's; case "1" must
    # still check associativity, which the mutant breaks
    rel = mutants.strips_rel_operad()
    rng = random.Random(0)
    elems = random_rel_elements(rel, random_rel_plan(rng, 2, 4), rng)
    earlier = CheckFailure("0", "shape arithmetic", "(1,)", "(2,)")
    fails = check_rel_laws(rel, elems, "1", [earlier])
    assert fails[0] is earlier
    assert ("1", "associativity") in [(f.case, f.law) for f in fails[1:]]


# --- failure reporting -----------------------------------------------------------

def _broken_intervals():
    """An intervals instance whose composition drifts: laws must fail."""
    return mutants.intervals_operad()


def test_broken_instance_reports_failures():
    op = _broken_intervals()
    report = run_check(OPERAD, op, "intervals", seed=5, cases=10, max_arity=3)
    assert not report.ok
    assert report.cases_run == 10
    assert len(report.failures) >= 10
    assert all(f.law != "exception" for f in report.failures)
    f = report.failures[0]
    assert isinstance(f, CheckFailure)
    assert f.law
    assert f.case


def test_report_json_shape_and_determinism():
    op = intervals_operad()
    r1 = run_check(OPERAD, op, "intervals", seed=11, cases=25, max_arity=3)
    r2 = run_check(OPERAD, op, "intervals", seed=11, cases=25, max_arity=3)
    assert report_bytes(r1) == report_bytes(r2)
    doc = json.loads(report_bytes(r1))
    assert set(doc) == {"instance", "mode", "seed", "plan", "cases_run",
                        "ok", "failures"}
    assert doc["seed"] == 11
    assert doc["cases_run"] == 25
    assert doc["ok"] is True
    assert doc["failures"] == []
    assert doc["plan"]["max_arity"] == 3
    assert report_bytes(r1).endswith(b"\n")


def test_report_changes_with_seed():
    op = intervals_operad()
    r1 = run_check(OPERAD, op, "intervals", seed=1, cases=5, max_arity=3)
    r2 = run_check(OPERAD, op, "intervals", seed=2, cases=5, max_arity=3)
    assert json.loads(report_bytes(r1))["seed"] == 1
    assert json.loads(report_bytes(r2))["seed"] == 2


def test_exhaustive_mode_runs_every_plan():
    op = trees_operad()
    report = run_check(OPERAD, op, "trees", seed=0, cases=None, max_arity=2)
    assert report.mode == "exhaustive"
    assert report.ok
    assert report.cases_run == 2 * (6 + 36)


def test_run_with_no_cases_is_not_ok():
    # `check trees --exhaustive --max-r 0` once reported ok after 0 cases
    report = run_check(OPERAD, trees_operad(), "trees", seed=0, cases=None,
                       max_arity=0)
    assert report.cases_run == 0
    assert not report.failures
    assert report.ok is False
    assert json.loads(report_bytes(report))["ok"] is False


def test_rel_check_runs_and_passes():
    rel = strips_rel_operad()
    report = run_check(REL, rel, "strips", seed=3, cases=10, max_r=2, max_total=4)
    assert report.ok
    assert report.cases_run == 10


def test_shape_arithmetic_catches_a_lost_rectangle():
    # A compose that loses the top rectangle of its last strip holding two
    # or more.  The composite is still a valid configuration, so only the
    # shape arithmetic law can see the loss; it once compared output_shape
    # with itself, and the case raised later instead.
    from strips_operad.strips import StripConfig, strip_compose

    def compose(outer, blocks):
        q = strip_compose(outer, blocks)
        rows = list(q.rects)
        k = max((i for i, row in enumerate(rows) if len(row) >= 2), default=None)
        if k is None:
            return q
        rows[k] = rows[k][:-1]
        return StripConfig(tuple(map(len, rows)), q.base, tuple(rows))

    rel = strips_rel_operad()._replace(compose=compose)
    report = run_check(REL, rel, "strips", seed=3, cases=30, max_r=3, max_total=5)
    laws = {f.law for f in report.failures}
    assert "shape arithmetic" in laws
    assert "exception" not in laws


def test_fiber_product_mismatch_is_a_precondition_error():
    """Mismatched bases inside a block are an input error, not a law failure."""
    from strips_operad.framework import Block
    from strips_operad.strips import random_strip, strip_compose

    outer = random_strip((2,), seed=1)
    c1 = random_strip((1, 1), seed=2)
    c2 = random_strip((1, 1), seed=3)  # different base than c1
    assert c1.base != c2.base
    with pytest.raises(FiberProductError):
        strip_compose(outer, (Block(c1.base, (c1, c2)),))


def test_empty_fiber_product_block_is_a_bare_base():
    from strips_operad.framework import Block
    from strips_operad.intervals import random_intervals
    from strips_operad.strips import random_strip, strip_compose, strip_violation

    rng = random.Random(9)
    outer = random_strip((0, 1), seed=4)
    base1 = random_intervals(2, rng)
    inner = random_strip((1, 2), seed=5)
    composed = strip_compose(outer, (Block(base1, ()), Block(inner.base, (inner,))))
    assert strip_violation(composed) is None
    # the empty block contributes arity-many empty strips
    assert composed.shape[:2] == (0, 0)


# --- one runner for every kind -----------------------------------------------------

def _words(reverse_top=False):
    return run_check(ALGEBRA, lambda rng: words_algebra(reverse_top), "words",
                     seed=0, cases=300, max_r=3, max_total=5)


def test_algebra_laws_hold_for_tuple_carriers():
    # the laws once told a carrier from a chain by isinstance(c, tuple), so
    # 226 of these cases failed as exception: a word read as a chain
    report = _words()
    assert report.ok and report.cases_run == 300


def test_a_words_mutant_fails_the_laws_that_read_top_words():
    laws = collections.Counter(f.law for f in _words(reverse_top=True).failures)
    assert set(laws) == {"target boundary", "interchange", "unit"}
    assert min(laws.values()) >= 50


def test_run_check_reports_the_bounds_of_its_kind():
    doc = json.loads(report_bytes(run_check(REL, strips_rel_operad(), "strips-x",
                                            seed=4, cases=2, max_r=2,
                                            max_total=3)))
    assert (doc["instance"], doc["mode"], doc["plan"]) == (
        "strips-x", "seeded", {"cases": 2, "max_r": 2, "max_total": 3})
    doc = json.loads(report_bytes(run_check(OPERAD, trees_operad(), "trees",
                                            seed=4, cases=None, max_arity=1)))
    assert (doc["mode"], doc["plan"], doc["cases_run"]) == (
        "exhaustive", {"max_arity": 1, "samples_per_plan": 2}, 2)
