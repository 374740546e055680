"""Command-line interface: exit codes, report files, plan documents."""
import collections
import hashlib
import importlib
import json
import subprocess
import sys
import time
import tracemalloc
import xml.etree.ElementTree as ET
from fractions import Fraction
from random import Random

import pytest

from strips_operad import cli, framework, mutants
from strips_operad.cli import (TARGETS, Target, _check_args_error,
                               build_parser, main)
from strips_operad.framework import ALGEBRA, OPERAD, REL, run_check
from strips_operad.intervals import intervals_operad
from strips_operad.strips import strips_rel_operad
from strips_operad.trees import trees_operad

from helpers import report_bytes, words_algebra


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- check -----------------------------------------------------------------------

def test_check_passes_and_prints_report(capsys):
    code, out, err = run(["check", "intervals", "--seed", "3",
                          "--cases", "20"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["cases_run"] == 20
    assert doc["seed"] == 3
    assert doc["failures"] == []


def test_check_mutate_fails_with_exit_1(capsys):
    code, out, err = run(["check", "intervals", "--seed", "3", "--cases", "5",
                          "--mutate"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["failures"]


@pytest.mark.parametrize("target", ["strips", "trees", "sheets"])
def test_check_all_targets(tmp_path, capsys, target):
    out_file = tmp_path / "report.json"
    code, _, _ = run(["check", target, "--seed", "5", "--cases", "5",
                      "--out", str(out_file)], capsys)
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["ok"] is True
    assert doc["instance"]


# the function each target's instance composes or acts through
FAULT_SITES = {"intervals": ("intervals", "interval_compose"),
               "strips": ("strips", "strip_compose"),
               "trees": ("trees", "graft"),
               "sheets": ("sheets", "act_on_sheets")}


@pytest.mark.parametrize("target", sorted(FAULT_SITES))
def test_check_records_a_fault_in_one_case_and_runs_the_rest(
        tmp_path, capsys, monkeypatch, target):
    module = importlib.import_module("strips_operad." + FAULT_SITES[target][0])
    real = getattr(module, FAULT_SITES[target][1])
    calls = []

    def faulty(*args):
        calls.append(None)
        if len(calls) == 5:     # in case 0 or 1: each makes three or more calls
            raise ZeroDivisionError("planted fault")
        return real(*args)

    monkeypatch.setattr(module, FAULT_SITES[target][1], faulty)
    out_file = tmp_path / "report.json"
    code, out, err = run(["check", target, "--seed", "5", "--cases", "6",
                          "--out", str(out_file)], capsys)
    assert (code, out, err) == (1, "", "")
    assert len(calls) > 5
    doc = json.loads(out_file.read_text())
    assert doc["ok"] is False
    assert doc["cases_run"] == 6
    assert len(doc["failures"]) == 1
    fault = doc["failures"][0]
    assert fault["case"] in {"0", "1"}
    assert fault["law"] == "exception"
    assert fault["lhs"] == "ZeroDivisionError: planted fault"
    assert fault["rhs"] == "None"


def test_check_records_a_fault_in_an_exhaustive_case_and_runs_the_rest(
        capsys, monkeypatch):
    from strips_operad import trees
    real = trees.graft
    calls = []

    def faulty(*args):
        calls.append(None)
        if len(calls) == 5:     # in the first case, which makes six calls
            raise ZeroDivisionError("planted fault")
        return real(*args)

    monkeypatch.setattr(trees, "graft", faulty)
    code, out, err = run(["check", "trees", "--exhaustive", "--max-r", "2"],
                         capsys)
    assert (code, err) == (1, "")
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["cases_run"] == 84
    faults = [f for f in doc["failures"] if f["law"] == "exception"]
    assert faults == [{"case": "plan0:0", "law": "exception",
                       "lhs": "ZeroDivisionError: planted fault", "rhs": "None"}]
    # recorded after the failures its case appended before the raise
    assert [f for f in doc["failures"] if f["case"] == "plan0:0"][-1] == faults[0]


def test_check_keeps_the_failures_a_case_recorded_before_it_raised(
        tmp_path, capsys, monkeypatch):
    # the first projection (of the first-stage composite) is wrong, so the
    # projection square fails; the next composition (the deep one) raises
    from strips_operad import strips
    from strips_operad.intervals import IntervalConfig
    real_project, real_compose = strips.strip_project, strips.strip_compose
    projections, compositions = [], []

    def project(config):
        projections.append(None)
        base = real_project(config)
        return IntervalConfig(base.embeddings * 2) if len(projections) == 1 else base

    def compose(outer, blocks):
        compositions.append(None)
        if len(compositions) == 2:
            raise ZeroDivisionError("planted fault")
        return real_compose(outer, blocks)

    monkeypatch.setattr(strips, "strip_project", project)
    monkeypatch.setattr(strips, "strip_compose", compose)
    assert _laws_of_one_failing_case("strips", tmp_path, capsys) == [
        "projection square", "exception"]


def _laws_of_one_failing_case(target, tmp_path, capsys):
    """The laws that ``check TARGET --seed 5 --cases 1`` fails, in report
    order, given that its last failure is the planted fault."""
    out_file = tmp_path / "report.json"
    code, out, err = run(["check", target, "--seed", "5", "--cases", "1",
                          "--out", str(out_file)], capsys)
    assert (code, out, err) == (1, "", "")
    doc = json.loads(out_file.read_text())
    assert doc["cases_run"] == 1
    assert {f["case"] for f in doc["failures"]} == {"0"}
    assert doc["failures"][-1]["lhs"] == "ZeroDivisionError: planted fault"
    return [f["law"] for f in doc["failures"]]


def _planted_fault(*args):
    raise ZeroDivisionError("planted fault")


def _plant_in_intervals(monkeypatch):
    # the second composition, the left side of associativity, drifts, so
    # associativity fails; the unit laws then ask for the unit, which raises
    from strips_operad import intervals
    real_compose, compositions = intervals.interval_compose, []

    def compose(outer, inners):
        compositions.append(None)
        if len(compositions) == 2:
            return mutants.intervals_operad().compose(outer, inners)
        return real_compose(outer, inners)

    monkeypatch.setattr(intervals, "interval_compose", compose)
    monkeypatch.setattr(intervals, "interval_unit", _planted_fault)
    return "associativity"


def _plant_in_sheets(monkeypatch):
    # the first action, the one-step side of interchange, drifts, so
    # interchange fails; the closure check, made last, then raises
    from strips_operad import sheets
    real_act, actions = sheets.act_on_sheets, []

    def act(f, config, inputs):
        actions.append(None)
        if len(actions) == 1:
            return mutants.sheet_algebra(f).act_sheet(config, inputs)
        return real_act(f, config, inputs)

    monkeypatch.setattr(sheets, "act_on_sheets", act)
    monkeypatch.setattr(sheets, "sheet_violation", _planted_fault)
    return "interchange"


@pytest.mark.parametrize("target, plant", [("intervals", _plant_in_intervals),
                                           ("sheets", _plant_in_sheets)])
def test_check_keeps_the_failures_recorded_before_a_raise_for_every_checker(
        tmp_path, capsys, monkeypatch, target, plant):
    # the strips checker is covered above; these cover the operad and the
    # algebra checkers
    law = plant(monkeypatch)
    assert _laws_of_one_failing_case(target, tmp_path, capsys) == [
        law, "exception"]


def test_check_trees_exhaustive(capsys):
    code, out, _ = run(["check", "trees", "--exhaustive", "--max-r", "2"],
                       capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "exhaustive"


def test_check_intervals_exhaustive_runs_every_plan(capsys):
    # the intervals kind enumerates its plans, so the target takes the flag
    argv = ["check", "intervals", "--exhaustive", "--max-r", "2"]
    report = run_check(OPERAD, intervals_operad(), "intervals", seed=0,
                       cases=None, max_arity=2)
    assert run(argv, capsys) == (0, report_bytes(report).decode(), "")
    assert run([*argv, "--mutate"], capsys)[0] == 1


def test_a_rel_target_is_refused_exhaustive_by_its_kind(capsys, monkeypatch):
    # a REL kind has no all_plans: a table field that said otherwise once
    # sent the run to call None
    build_parser.cache_clear()      # the parser reads the table when built
    monkeypatch.setitem(cli.TARGETS, "strips-x", Target(
        REL, strips_rel_operad, mutants.strips_rel_operad))
    try:
        assert run(["check", "strips-x", "--exhaustive"], capsys) == (
            2, "", "error: --exhaustive applies only to intervals, trees, "
                   "not strips-x\n")
        assert ("--exhaustive intervals/trees only: all plans"
                in _check_help(capsys))
    finally:
        build_parser.cache_clear()


def test_check_reports_are_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(["check", "strips", "--seed", "9", "--cases", "10",
                          "--out", str(path)], capsys)
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


# SHA-256 of `check sheets --seed S --cases 5 --max-r 4 --max-n 6` reports,
# keyed by (seed, --mutate).  A mutated report holds the repr of both sheet
# sides, so these pin the assembled sheets themselves, not only the verdict.
SHEETS_REPORT_SHA256 = {
    ("1", False): "36b7bebc03a52effe2b6d769816af54a5e23fb9dc58c7aed2b22a2dc128c1b1a",
    ("2", False): "602685204557245a66a51cbdd47fad8a743a24f73e9a60d74d16919cd57ca52c",
    ("3", False): "2b45d762d0c9e6d5b9014a755d715ded089d68e8127461aacd35561107e7f26b",
    ("1", True): "ac120b7f66d4807142c775c59732d0818d85baad1d032820c0286e966dbf2a4d",
}


@pytest.mark.parametrize("seed,mutate", sorted(SHEETS_REPORT_SHA256))
def test_check_sheets_report_bytes_are_pinned(tmp_path, capsys, seed, mutate):
    out_file = tmp_path / "report.json"
    argv = ["check", "sheets", "--seed", seed, "--cases", "5", "--max-r", "4",
            "--max-n", "6", "--out", str(out_file)]
    code, _, _ = run(argv + ["--mutate"] * mutate, capsys)
    assert code == (1 if mutate else 0)
    digest = hashlib.sha256(out_file.read_bytes()).hexdigest()
    assert digest == SHEETS_REPORT_SHA256[(seed, mutate)]


# SHA-256 of `check sheets` reports at larger scopes, where a product grid of
# the assembled sheets would hold up to 39 times the values of their columns.
SHEETS_LARGE_REPORT_SHA256 = {
    ("--seed", "3", "--cases", "3", "--max-r", "32", "--max-n", "256"):
        "a9f520f136b2867f323f9f7932f891764f11a5cd3629ca4429fc5440eb8dbc75",
    ("--seed", "1", "--cases", "2", "--max-r", "8", "--max-n", "32", "--mutate"):
        "9e261ac170163a900e0bcfc0159d8b0172235aebb14be747bbe7a91a73dd9569",
}


@pytest.mark.parametrize("args", sorted(SHEETS_LARGE_REPORT_SHA256))
def test_check_sheets_report_bytes_are_pinned_at_larger_scopes(tmp_path, capsys,
                                                              args):
    out_file = tmp_path / "report.json"
    code, _, _ = run(["check", "sheets", *args, "--out", str(out_file)], capsys)
    assert code == (1 if "--mutate" in args else 0)
    digest = hashlib.sha256(out_file.read_bytes()).hexdigest()
    assert digest == SHEETS_LARGE_REPORT_SHA256[args]


# SHA-256 of tree outputs.  A mutated `check trees` report holds the repr of
# both tree sides, and the enumerations list or draw every face, so these pin
# the trees themselves as well as the verdicts.
TREES_OUTPUT_SHA256 = {
    ("check", "trees", "--seed", "1", "--cases", "20", "--max-r", "4"):
        "1c768278d810e687054fa23a6463948a8db468c1efb13a75d3000e7f74a14fa2",
    ("check", "trees", "--seed", "1", "--cases", "20", "--max-r", "4",
     "--mutate"):
        "a60c6413d1500b535140508c8d05206564ef54e11b3befaac29fdc51e9342e6f",
    ("check", "trees", "--seed", "2", "--cases", "20", "--max-r", "4"):
        "e3d86676ca9aea446a604ca39de25242fa82aa8c582e08647a06e9631bc83d75",
    ("check", "trees", "--seed", "2", "--cases", "20", "--max-r", "4",
     "--mutate"):
        "b769de33c822b34b8271017ad79af48bac95e8c43145e349df66b90178a9be4b",
    ("check", "trees", "--seed", "3", "--cases", "20", "--max-r", "4"):
        "e0d7cf4e45b591867d32424357958f6a4826db16e3e01d5fe334db57eee7bf8c",
    ("check", "trees", "--seed", "3", "--cases", "20", "--max-r", "4",
     "--mutate"):
        "dd42ce1f95488534218655a65e7a586fbdd4fdbb15f5680f9a1d69c527771b7b",
    # past four leaves a tree is drawn by ``random.sample``, not a draw table
    ("check", "trees", "--seed", "1", "--cases", "5", "--max-r", "6"):
        "2d0be1c0617ab1e0f3f32a8461a602698d0e5d3d0d696620e801d6b3f213a844",
    ("check", "trees", "--seed", "1", "--cases", "5", "--max-r", "6",
     "--mutate"):
        "2883a389759afabe56b15378cee0801f0dfa788193f348ea8c979dae3465fc5c",
    ("check", "trees", "--seed", "2", "--cases", "5", "--max-r", "6"):
        "1579c9c2c16437229b3224bb2805fa2248a7a319f64da2b6525724ee700fc910",
    ("check", "trees", "--seed", "2", "--cases", "5", "--max-r", "6",
     "--mutate"):
        "a8d4001fe5f65cea803dad5df4b2a64916e40195e67d313f8effbcf9794a32c7",
    ("check", "trees", "--exhaustive", "--max-r", "2"):
        "3334b6f83f84cea71c47bbbb9af8fe56c636829562c1d92ff79d3a8988c7a016",
    ("check", "trees", "--exhaustive", "--max-r", "2", "--mutate"):
        "dfc5cd67075633f3b91d5c48ad3b696376d258b743191fa6e8e387c07940e063",
    ("enumerate", "5", "--format", "dot"):
        "b6e9fe1f8737c771cab870eebee986c82a7229be70b369a4c4514fc4ad14a639",
    ("enumerate", "5", "--format", "svg"):
        "cd8b88a6aa204c63c3a46a621a8423390bda13ad537075ea60647a42a6d2c98c",
    ("enumerate", "8"):
        "70dca0eea00a53d52c85a32095f05b8834b849a745545f18acf2efc9dbb287ff",
}


@pytest.mark.parametrize("argv", sorted(TREES_OUTPUT_SHA256), ids=" ".join)
def test_tree_output_bytes_are_pinned(capsys, argv):
    code, out, _ = run(list(argv), capsys)
    assert code == (1 if "--mutate" in argv else 0)
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == TREES_OUTPUT_SHA256[argv]


# SHA-256 of `check strips` and `check intervals` reports.  A mutated report
# holds the repr of both sides, so these pin the sampled plans and the
# composites themselves, not only the verdicts.
STRIPS_INTERVALS_OUTPUT_SHA256 = {
    ("check", "strips", "--seed", "1"):
        "f7fc37fdd104f679edd516d619b29450543bc478e85398aab1e8c905ff3170f2",
    ("check", "strips", "--seed", "1", "--mutate"):
        "a96f699541639660fc1cf901a57f0970afdeb8477af01216dc2c0fa0434fce3e",
    ("check", "strips", "--seed", "1", "--max-r", "2", "--max-n", "4"):
        "9ad08d2cb03434b8f9126aeaf0fa90aa0b9059c8e223718e964c1d19c34532eb",
    ("check", "strips", "--seed", "1", "--max-r", "4", "--max-n", "6",
     "--cases", "5"):
        "b5ff542d7d7cfede5831f9b1276b473251f05e05208139387dc60e59c9392726",
    ("check", "strips", "--seed", "2"):
        "9afaeb55619beb793d960567e3a82da141aba71833738ce0d96301bd124af9f7",
    ("check", "strips", "--seed", "2", "--mutate"):
        "65c3027ac10de223469112df0e16c708a5ce10b682a286aca720be5afd9b5d94",
    ("check", "strips", "--seed", "2", "--max-r", "2", "--max-n", "4"):
        "b80aa8a9df509a04310a9e676dac0a9f74e09e8373339429c0242c8cc41aa6c3",
    ("check", "strips", "--seed", "2", "--max-r", "4", "--max-n", "6",
     "--cases", "5"):
        "fd9e25fe451259d1c64388f821b66893baa00d75d61c4024c8af592f98389046",
    ("check", "strips", "--seed", "3"):
        "b7518e2e238b4011e39a4650c3ce645ffc87ea56ace0fdf1d932fad5eadeae46",
    ("check", "strips", "--seed", "3", "--mutate"):
        "504debe7338e661ce2d380eae5adc3133a0ac4c2008c3ef98f95979039a71e39",
    ("check", "strips", "--seed", "3", "--max-r", "2", "--max-n", "4"):
        "fbe5011c16e9fdb6b163ae340cf661f64708eeac529ac7b1772bd04fb498fb5b",
    ("check", "strips", "--seed", "3", "--max-r", "4", "--max-n", "6",
     "--cases", "5"):
        "40f179bad13b77cb7e907dba93783f32c7e3df3ee5f4e24f83eb33dbb3bf7506",
    ("check", "intervals", "--seed", "1"):
        "1dca3b2d1210317ed45a175a034c713a9367d8331eb2f8c8567496f8205d3004",
    ("check", "intervals", "--seed", "1", "--mutate"):
        "db14f97ec7d413a763bba651bcd6c16fc1f44d3938d7f6a0e2867dca52f24819",
    ("check", "intervals", "--seed", "2"):
        "568c670bb6061d979b70f4b4fce2b63c2795ac8a26a456d3555377900a91ed1a",
    ("check", "intervals", "--seed", "2", "--mutate"):
        "f07f0f0fa9ad3b188ae61d5c1dfac72727bf59fc9b365a9910aa8756b082f221",
    ("check", "intervals", "--seed", "3"):
        "7f184edda33dc1b0d1cdf29d23114400cd6f73884032b6d07402dc9215e0f421",
    ("check", "intervals", "--seed", "3", "--mutate"):
        "6d4495cccfdfac1ff266accaa1cb21a2db5729f76d98f8e5772e4f3ae5c0f729",
}


@pytest.mark.parametrize("argv", sorted(STRIPS_INTERVALS_OUTPUT_SHA256),
                         ids=" ".join)
def test_strips_and_intervals_report_bytes_are_pinned(capsys, argv):
    code, out, _ = run(list(argv), capsys)
    assert code == (1 if "--mutate" in argv else 0)
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == STRIPS_INTERVALS_OUTPUT_SHA256[argv]


def test_check_takes_its_seed_from_argv_alone(capsys, monkeypatch):
    # the default seed once came from STRIPS_OPERAD_SEED, and a value that
    # was not an integer exited 2
    argv = ["check", "intervals", "--cases", "5"]
    seed_0 = run([*argv, "--seed", "0"], capsys)
    assert seed_0[0] == 0
    for value in ("5", "abc"):
        monkeypatch.setenv("STRIPS_OPERAD_SEED", value)
        assert run(argv, capsys) == seed_0


def test_check_rejects_unknown_target(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "pretzels"])
    assert exc.value.code == 2


def test_check_has_no_max_arity_synonym(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "trees", "--max-arity", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-arity 2" in capsys.readouterr().err


def assert_usage_error(argv, capsys, flag):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert flag in err


def test_check_rejects_no_cases(capsys):
    # once reported "ok": true with "cases_run": -3
    assert_usage_error(["check", "intervals", "--cases", "-3"], capsys, "--cases")
    assert_usage_error(["check", "sheets", "--cases", "0"], capsys, "--cases")


def test_check_rejects_arity_bound_below_one(capsys):
    # once a raw randrange message
    assert_usage_error(["check", "intervals", "--max-r", "0"], capsys, "--max-r")
    assert_usage_error(["check", "trees", "--exhaustive", "--max-r", "0"],
                       capsys, "--max-r")


@pytest.mark.parametrize("argv", [["intervals", "--max-r", "2048"],
                                  ["trees", "--max-r", "129"],
                                  ["strips", "--max-r", "2048"],
                                  ["sheets", "--max-r", "129"],
                                  *[[target, "--max-r", "2049"] for target in
                                    ("intervals", "trees", "strips", "sheets")]])
def test_check_rejects_composites_over_the_bound(capsys, argv):
    # once grew past 4 GB: three stages of arity 2048 compose to arity 2048**3;
    # strips and sheets once spun in the rejection sampler instead; at 2049,
    # intervals need more than the 4097 points of the 1/4096 grid
    target, r = argv[0], int(argv[2])
    reach = (f"draw {r ** 2} carriers, more than 16384" if target == "sheets"
             else f"composites reach arity {r ** 3}, more than 2097152")
    assert_usage_error(["check", *argv, "--cases", "2"], capsys,
                       f"lets {target} {reach}; use --max-r 128 or less")


@pytest.mark.parametrize("target", ["intervals", "trees", "strips", "sheets"])
def test_check_composite_bound_admits_max_r_128(target):
    args = build_parser().parse_args(["check", target, "--max-r", "128"])
    assert _check_args_error(args) is None


def _timed_check(argv, capsys):
    start = time.perf_counter()
    code, out, _ = run(["check", *argv], capsys)
    return code, json.loads(out), time.perf_counter() - start


def test_check_strips_with_wide_plans_runs_in_seconds(capsys):
    # the rejection sampler redrew shapes here for about two minutes
    code, report, seconds = _timed_check(
        ["strips", "--seed", "1105", "--cases", "100", "--max-r", "4",
         "--max-n", "8"], capsys)
    assert (code, report["ok"], report["cases_run"]) == (0, True, 100)
    assert seconds < 5


@pytest.mark.parametrize("target", ["strips", "sheets"])
def test_check_with_a_huge_total_bound_runs_in_seconds(capsys, target):
    # shape tables sized by --max-n would never finish; they are sized by
    # the largest total the shapes can reach
    code, report, seconds = _timed_check(
        [target, "--max-n", "1000000000", "--max-r", "4", "--cases", "3"],
        capsys)
    assert (code, report["ok"], report["cases_run"]) == (0, True, 3)
    assert seconds < 2


def test_check_rejects_an_exhaustive_run_over_the_plan_cap(capsys):
    # --max-r 4 would be 13 402 779 940 plans, and the run would never end
    code, out, err = run(["check", "trees", "--exhaustive", "--max-r", "4"],
                         capsys)
    assert (code, out) == (2, "")
    assert err == ("error: --exhaustive --max-r 4 checks more than 1000000 "
                   "plans; use --max-r 3 or less\n")
    assert_usage_error(["check", "trees", "--exhaustive", "--max-r", str(10 ** 9)],
                       capsys, "--max-r 3")


@pytest.mark.parametrize("target", ["strips", "sheets"])
def test_check_rejects_total_bound_below_one(capsys, target):
    # once looped forever drawing shapes
    assert_usage_error(["check", target, "--max-n", "0"], capsys, "--max-n")


@pytest.mark.parametrize("target", ["strips", "sheets"])
def test_check_rejects_exhaustive_outside_trees(capsys, target):
    # once ignored silently
    assert_usage_error(["check", target, "--exhaustive"], capsys, "--exhaustive")


def test_check_rejects_cases_with_exhaustive(capsys):
    # once ignored silently: exhaustive runs check every plan
    assert_usage_error(["check", "trees", "--exhaustive", "--cases", "5"],
                       capsys, "--cases")


def _over_the_bound(target, r):
    return (f"error: --max-r {r} lets {target} composites reach arity "
            f"{r ** 3}, more than 2097152; use --max-r 128 or less\n")


# every check rejection, argv to the whole of stderr; the empty ones exit 0
CHECK_STDERR = {
    **{(target, "--cases", "0"): "error: --cases must be at least 1, got 0\n"
       for target in ("intervals", "strips", "trees", "sheets")},
    **{(target, "--max-r", "0"): "error: --max-r must be at least 1, got 0\n"
       for target in ("intervals", "strips", "trees", "sheets")},
    **{(target, "--max-r", str(r)): _over_the_bound(target, r)
       for target in ("intervals", "strips", "trees") for r in (129, 2049)},
    ("sheets", "--max-r", "129"): "error: --max-r 129 lets sheets draw 16641 "
                                  "carriers, more than 16384; use --max-r 128 "
                                  "or less\n",
    ("sheets", "--max-r", "2049"): "error: --max-r 2049 lets sheets draw "
                                   "4198401 carriers, more than 16384; use "
                                   "--max-r 128 or less\n",
    ("strips", "--max-n", "0"): "error: --max-n must be at least 1, got 0\n",
    ("sheets", "--max-n", "0"): "error: --max-n must be at least 1, got 0\n",
    **{(target, "--exhaustive"): "error: --exhaustive applies only to "
                                 f"intervals, trees, not {target}\n"
       for target in ("strips", "sheets")},
    ("trees", "--exhaustive", "--cases", "3"):
        "error: --cases does not apply with --exhaustive, which runs every plan\n",
    ("trees", "--exhaustive", "--max-r", "4"):
        "error: --exhaustive --max-r 4 checks more than 1000000 plans; use "
        "--max-r 3 or less\n",
    # --max-n bounds only the strips a run draws
    ("intervals", "--max-n", "0", "--cases", "1"): "",
    ("trees", "--max-n", "0", "--cases", "1"): "",
}


@pytest.mark.parametrize("argv", list(CHECK_STDERR), ids=" ".join)
def test_check_rejection_lines_are_pinned(capsys, argv):
    code, out, err = run(["check", *argv], capsys)
    assert err == CHECK_STDERR[argv]
    assert (code, out == "") == ((2, True) if err else (0, False))


def test_a_new_check_target_is_one_table_entry(capsys, monkeypatch):
    # the usage line and argparse's invalid-choice message print this order
    assert tuple(TARGETS) == ("intervals", "strips", "trees", "sheets")
    build_parser.cache_clear()      # the parser reads the table when built
    monkeypatch.setitem(cli.TARGETS, "intervals-x", Target(
        OPERAD, intervals_operad, mutants.intervals_operad))
    # an algebra with tuple carriers, which the laws once read as chains
    monkeypatch.setitem(cli.TARGETS, "words", Target(
        ALGEBRA, lambda: lambda rng: words_algebra(),
        lambda: lambda rng: words_algebra(reverse_top=True)))
    try:
        argv = ["check", "intervals-x", "--exhaustive", "--max-r", "2"]
        report = run_check(OPERAD, intervals_operad(), "intervals-x", seed=0,
                           cases=None, max_arity=2)
        assert run(argv, capsys) == (0, report_bytes(report).decode(), "")
        assert run([*argv, "--mutate"], capsys)[0] == 1
        assert run(["check", "strips", "--exhaustive"], capsys) == (
            2, "", "error: --exhaustive applies only to intervals, trees, "
                   "intervals-x, not strips\n")
        report = run_check(ALGEBRA, lambda rng: words_algebra(), "words",
                           seed=5, cases=40, max_r=3, max_total=4)
        argv = ["check", "words", "--seed", "5", "--cases", "40", "--max-n", "4"]
        assert run(argv, capsys) == (0, report_bytes(report).decode(), "")
        assert run([*argv, "--mutate"], capsys)[0] == 1
        assert run(["check", "words", "--max-n", "0"], capsys) == (
            2, "", "error: --max-n must be at least 1, got 0\n")
    finally:
        build_parser.cache_clear()


def _check_help(capsys) -> str:
    """``check --help``, as one line per option: argparse wraps its text to
    the terminal width."""
    with pytest.raises(SystemExit) as exc:
        main(["check", "--help"])
    assert exc.value.code == 0
    return " ".join(capsys.readouterr().out.split())


def test_check_help_names_the_targets_of_each_option_from_the_table(
        capsys, monkeypatch):
    build_parser.cache_clear()      # the parser reads the table when built
    try:
        text = _check_help(capsys)
        assert ("--max-r MAX_R arity bound, at most 128; it lets "
                "intervals/strips/trees composites reach arity max_r**3 and "
                "sheets draw max_r**2 carriers --max-n") in text
        assert "--max-n MAX_N total rectangle bound for strips/sheets " in text
        assert ("--exhaustive intervals/trees only: all plans up to the arity "
                "bound") in text
        # a REL kind fills --max-n into its second bound
        monkeypatch.setitem(cli.TARGETS, "intervals-x", Target(
            REL, intervals_operad, mutants.intervals_operad))
        monkeypatch.setitem(cli.TARGETS, "trees-x", Target(
            OPERAD, trees_operad, mutants.trees_operad,
            reach=("graft {} leaves", 4)))
        build_parser.cache_clear()
        text = _check_help(capsys)
        assert ("it lets intervals/strips/trees/intervals-x composites reach "
                "arity max_r**3 and sheets draw max_r**2 carriers and trees-x "
                "graft max_r**4 leaves --max-n") in text
        assert ("--max-n MAX_N total rectangle bound for "
                "strips/sheets/intervals-x ") in text
        assert "--exhaustive intervals/trees/trees-x only: all plans" in text
    finally:
        build_parser.cache_clear()


def test_check_looks_its_functions_up_when_it_runs(capsys, monkeypatch):
    # the benchmark's tracer rebinds module attributes: a table or a kind
    # holding these functions themselves would hide every run from it
    calls = collections.Counter()

    def counting(name):
        function = getattr(framework, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        monkeypatch.setattr(framework, name, counted)

    for name in ("run_check", "random_rel_plan", "random_rel_elements",
                 "check_rel_laws"):
        counting(name)
    assert run(["check", "strips", "--cases", "3"], capsys)[0] == 0
    assert calls == {"run_check": 1, "random_rel_plan": 3,
                     "random_rel_elements": 3, "check_rel_laws": 3}


def test_check_has_no_format_option(capsys):
    # --format once offered only "json", which every report already is
    with pytest.raises(SystemExit) as exc:
        main(["check", "intervals", "--format", "json"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_check_cases_default_is_one_hundred(capsys):
    code, out, _ = run(["check", "trees", "--seed", "4"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["plan"]["cases"] == doc["cases_run"] == 100


def test_shared_parser_carries_nothing_between_calls(capsys):
    valid = ["check", "trees", "--seed", "2", "--cases", "7", "--max-r", "4"]
    other = ["check", "trees", "--seed", "5", "--mutate"]
    code, alone, _ = run(valid, capsys)
    assert code == 0
    code, other_alone, _ = run(other, capsys)
    assert code == 1
    with pytest.raises(SystemExit) as exc:      # rejected by argparse
        main(["check", "trees", "--cases", "many", "--exhaustive"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(valid, capsys)[1] == alone
    # rejected by validation, after argparse accepted every option
    assert run(["check", "strips", "--cases", "0", "--max-n", "0",
                "--mutate", "--seed", "9"], capsys)[0] == 2
    assert run(valid, capsys)[1] == alone
    assert run(other, capsys)[1] == other_alone
    assert run(valid, capsys)[1] == alone


# --- enumerate ----------------------------------------------------------------------

def test_enumerate_json(capsys):
    code, out, _ = run(["enumerate", "4"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["leaves"] == 4
    assert doc["total"] == 11
    assert doc["f_vector"] == [5, 5, 1]
    assert len(doc["trees"]) == 11


@pytest.mark.parametrize("r", range(2, 9))
def test_enumerate_json_equals_the_tree_json_payload(capsys, r):
    from strips_operad.serialize import tree_to_json
    from strips_operad.trees import enumerate_trees, f_vector
    trees = enumerate_trees(r)
    payload = {"leaves": r, "f_vector": list(f_vector(r)),
               "total": len(trees), "trees": [tree_to_json(t) for t in trees]}
    code, out, _ = run(["enumerate", str(r)], capsys)
    assert code == 0
    expected = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    # compared line by line: a failing diff of two long strings takes minutes
    assert out.splitlines(keepends=True) == expected.splitlines(keepends=True)


def test_enumerate_out_of_range(capsys):
    code, _, err = run(["enumerate", "9"], capsys)
    assert code == 2
    assert err
    code, _, _ = run(["enumerate", "1"], capsys)
    assert code == 2


def test_enumerate_dot(capsys):
    code, out, _ = run(["enumerate", "3", "--format", "dot"], capsys)
    assert code == 0
    assert out.startswith("digraph")
    assert "(**)*" in out or "((**)*)" in out.replace(" ", "")


def test_enumerate_svg(tmp_path, capsys):
    path = tmp_path / "hasse.svg"
    code, _, _ = run(["enumerate", "4", "--format", "svg",
                      "--out", str(path)], capsys)
    assert code == 0
    assert path.read_text().lstrip().startswith("<svg")


def test_enumerate_svg_range_is_tighter(capsys):
    code, _, err = run(["enumerate", "6", "--format", "svg"], capsys)
    assert code == 2


def test_enumerate_8_never_holds_its_document_whole(tmp_path):
    # the 897 038-byte document was held as its tree texts, their joined
    # list, the document and its encoding: a peak of 3.7 MiB
    path = str(tmp_path / "e8.json")
    assert main(["enumerate", "8", "--out", path]) == 0   # warms enumerate_trees
    tracemalloc.start()
    try:
        assert main(["enumerate", "8", "--out", path]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("argv", [("enumerate", "8"),
                                  ("check", "strips", "--seed", "1", "--mutate")],
                         ids=" ".join)
def test_out_writes_the_bytes_stdout_gets(tmp_path, capsys, argv):
    code, out, _ = run(list(argv), capsys)
    path = tmp_path / "out"
    assert run([*argv, "--out", str(path)], capsys) == (code, "", "")
    assert path.read_bytes() == out.encode()


# --- compose -------------------------------------------------------------------------

INTERVALS_PLAN = {
    "kind": "intervals",
    "outer": {"embeddings": [{"a": "1/2", "c": "1/4"}]},
    "inners": [{"embeddings": [{"a": "1/3", "c": "0"},
                               {"a": "1/3", "c": "2/3"}]}],
}


def test_compose_intervals_hand_example(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(INTERVALS_PLAN))
    code, out, _ = run(["compose", str(plan)], capsys)
    assert code == 0
    doc = json.loads(out)
    embs = doc["embeddings"]
    assert embs[0] == {"a": "1/6", "c": "1/4"}
    assert embs[1] == {"a": "1/6", "c": "7/12"}


def test_an_empty_output_path_is_refused(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(INTERVALS_PLAN))
    for argv in (["enumerate", "3", "--out", ""],
                 ["compose", str(plan), "--out", str(tmp_path / "c.json"),
                  "--svg", ""]):
        code, _, err = run(argv, capsys)
        assert (code, err) == (2, "error: [Errno 2] No such file or directory: ''\n")


@pytest.mark.parametrize("svg", ["missing/c.svg", ""])
def test_compose_with_an_unwritable_svg_leaves_no_out_file(tmp_path, capsys, svg):
    # the JSON was once written and closed before the SVG was opened, so a
    # refused --svg left it behind
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(INTERVALS_PLAN))
    out = tmp_path / "c.json"
    svg = str(tmp_path / svg) if svg else svg
    code, _, err = run(["compose", str(plan), "--out", str(out), "--svg", svg],
                       capsys)
    assert (code, err) == (2, f"error: [Errno 2] No such file or directory: {svg!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("svg", ["missing/e.svg", ""])
def test_compose_to_stdout_with_an_unwritable_svg_writes_nothing(tmp_path, capsys,
                                                                 svg):
    # stdout was once written before the SVG was opened, so a refused --svg
    # still printed the composed document
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(INTERVALS_PLAN))
    svg = str(tmp_path / svg) if svg else svg
    assert run(["compose", str(plan), "--svg", svg], capsys) == (
        2, "", f"error: [Errno 2] No such file or directory: {svg!r}\n")


def test_compose_with_one_file_for_out_and_svg_leaves_the_svg(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(INTERVALS_PLAN))
    both, svg = tmp_path / "both", tmp_path / "c.svg"
    for argv in (["--out", str(both), "--svg", str(both)], ["--svg", str(svg)]):
        assert run(["compose", str(plan), *argv], capsys)[0] == 0
    assert both.read_bytes() == svg.read_bytes()


def test_check_refuses_an_unwritable_out_before_the_first_case(
        tmp_path, capsys, monkeypatch):
    # the report file was once opened after the run, so this refusal came
    # only after every plan was checked
    real, calls = framework.run_check, []

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(framework, "run_check", counted)
    missing = tmp_path / "missing-dir" / "r.json"
    code, out, err = run(["check", "trees", "--exhaustive", "--max-r", "2",
                          "--out", str(missing)], capsys)
    assert (code, out, len(calls)) == (2, "", 0)
    assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
    argv = ["check", "trees", "--seed", "2", "--cases", "5", "--mutate"]
    code, out, _ = run(argv, capsys)
    path = tmp_path / "r.json"
    assert run([*argv, "--out", str(path)], capsys) == (code, "", "")
    assert path.read_bytes() == out.encode()
    assert len(calls) == 2


@pytest.mark.parametrize("raised", [KeyboardInterrupt, ValueError])
def test_a_check_cut_short_leaves_no_report_file(tmp_path, capsys, monkeypatch,
                                                raised):
    # the report file is opened before the first case, and a run that
    # stopped there once left it behind, empty
    def stopped(*args, **kwargs):
        raise raised("stopped")

    monkeypatch.setattr(framework, "run_check", stopped)
    path = tmp_path / "r.json"
    path.write_text("an earlier report")
    argv = ["check", "trees", "--seed", "2", "--cases", "5", "--out", str(path)]
    if raised is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    else:
        assert run(argv, capsys) == (2, "", "error: stopped\n")
    assert not path.exists()


def test_an_enumeration_cut_short_leaves_no_partial_document(
        tmp_path, capsys, monkeypatch):
    from strips_operad import serialize
    real = serialize.enumeration_pieces

    def stopped(*args):
        pieces = real(*args)
        yield next(pieces)
        yield next(pieces)
        raise KeyboardInterrupt

    monkeypatch.setattr(serialize, "enumeration_pieces", stopped)
    path = tmp_path / "e8.json"
    with pytest.raises(KeyboardInterrupt):
        main(["enumerate", "8", "--out", str(path)])
    assert not path.exists()
    # a link is left in place, as a device such as /dev/null would be
    target = tmp_path / "target.json"
    target.write_text("")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    with pytest.raises(KeyboardInterrupt):
        main(["enumerate", "8", "--out", str(link)])
    assert link.is_symlink() and target.exists()
    monkeypatch.setattr(serialize, "enumeration_pieces", real)
    assert run(["enumerate", "8", "--out", str(path)], capsys) == (0, "", "")
    assert path.read_text() == run(["enumerate", "8"], capsys)[1]


def test_compose_rejects_invalid_input(tmp_path, capsys):
    bad = dict(INTERVALS_PLAN)
    bad["outer"] = {"embeddings": [{"a": "2", "c": "0"}]}
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(bad))
    code, _, err = run(["compose", str(plan)], capsys)
    assert code == 2
    assert "error" in err


def test_compose_strips_with_file_indirection(tmp_path, capsys):
    base = {"embeddings": [{"a": "1/2", "c": "1/4"}]}
    (tmp_path / "base.json").write_text(json.dumps(base))
    plan = {
        "kind": "strips",
        "outer": {
            "shape": [1],
            "base": {"$file": "base.json"},
            "rects": [[{"a": "1/2", "c": "1/4", "b": "1/2", "d": "1/4"}]],
        },
        "blocks": [{
            "base": {"embeddings": [{"a": "1", "c": "0"}]},
            "configs": [{
                "shape": [2],
                "base": {"embeddings": [{"a": "1", "c": "0"}]},
                "rects": [[{"a": "1", "c": "0", "b": "1/4", "d": "0"},
                           {"a": "1", "c": "0", "b": "1/2", "d": "1/2"}]],
            }],
        }],
    }
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    svg = tmp_path / "out.svg"
    code, out, _ = run(["compose", str(path), "--svg", str(svg)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["shape"] == [2]
    assert doc["rects"][0][0] == {"a": "1/2", "c": "1/4",
                                  "b": "1/8", "d": "1/4"}
    assert svg.read_text().lstrip().startswith("<svg")


def test_compose_missing_file_is_a_usage_error(capsys):
    code, _, err = run(["compose", "/nonexistent/plan.json"], capsys)
    assert code == 2
    assert "error" in err


def test_compose_unknown_kind(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"kind": "widgets"}))
    code, _, err = run(["compose", str(plan)], capsys)
    assert code == 2


def test_compose_fiber_product_mismatch(tmp_path, capsys):
    plan = {
        "kind": "strips",
        "outer": {
            "shape": [2],
            "base": {"embeddings": [{"a": "1/2", "c": "1/4"}]},
            "rects": [[{"a": "1/2", "c": "1/4", "b": "1/8", "d": "1/8"},
                       {"a": "1/2", "c": "1/4", "b": "1/8", "d": "1/2"}]],
        },
        "blocks": [{
            "base": {"embeddings": [{"a": "1", "c": "0"}]},
            "configs": [
                {"shape": [1],
                 "base": {"embeddings": [{"a": "1", "c": "0"}]},
                 "rects": [[{"a": "1", "c": "0", "b": "1/4", "d": "0"}]]},
                {"shape": [1],
                 "base": {"embeddings": [{"a": "1/2", "c": "0"}]},
                 "rects": [[{"a": "1/2", "c": "0", "b": "1/4", "d": "0"}]]},
            ],
        }],
    }
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    code, _, err = run(["compose", str(path)], capsys)
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("doc", [[], 5])
def test_compose_rejects_a_plan_that_is_not_an_object(tmp_path, capsys, doc):
    # once an AttributeError traceback and exit 1
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(doc))
    assert run(["compose", str(path)], capsys) == (
        2, "", "error: the plan document is not a JSON object\n")


@pytest.mark.parametrize("top", ["plan.json", "other.json"])
def test_compose_rejects_a_file_that_splices_in_itself(tmp_path, capsys, top):
    # plan.json splices in itself directly; other.json through plan.json.
    # Both were once a RecursionError traceback and exit 1.
    plan = dict(INTERVALS_PLAN, outer={"$file": "plan.json"})
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    (tmp_path / "other.json").write_text(json.dumps({"$file": "plan.json"}))
    assert run(["compose", str(tmp_path / top)], capsys) == (
        2, "", "error: $file 'plan.json' splices in itself\n")


@pytest.mark.parametrize("name, text", [(5, "5"), (["plan.json"], "['plan.json']")])
def test_compose_rejects_a_file_name_that_is_not_a_string(tmp_path, capsys,
                                                         name, text):
    # once Python's own TypeError text: "unsupported operand type(s) for /"
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(dict(INTERVALS_PLAN, outer={"$file": name})))
    assert run(["compose", str(path)], capsys) == (
        2, "", f"error: $file {text} is not a file name\n")


@pytest.mark.parametrize("name, line", [
    ("", "$file '' names no readable file: Is a directory"),
    (".", "$file '.' names no readable file: Is a directory"),
    ("a\u0000b", "$file 'a\\x00b' is not a file name"),
    ("missing.json",
     "$file 'missing.json' names no readable file: No such file or directory"),
    ("loop.json",
     "$file 'loop.json' names no readable file: Too many levels of symbolic links"),
    ("text.json", "$file 'text.json' is not JSON: "
                  "Expecting value: line 1 column 1 (char 0)"),
], ids=["empty", "dot", "null-byte", "missing", "symlink-loop", "not-json"])
def test_compose_rejects_a_file_that_is_no_json_document(tmp_path, capsys,
                                                         name, line):
    # once Python's own text, such as "[Errno 21] Is a directory: '<dir>'"
    # or "embedded null byte", which did not name $file, and for a symlink
    # loop a RuntimeError traceback and exit 1
    (tmp_path / "text.json").write_text("not JSON")
    (tmp_path / "loop.json").symlink_to("loop.json")
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(dict(INTERVALS_PLAN, outer={"$file": name})))
    assert run(["compose", str(path)], capsys) == (2, "", f"error: {line}\n")


@pytest.mark.parametrize("command, what", [("compose", "plan"), ("render", "input")])
@pytest.mark.parametrize("name, line", [
    ("nope.json", "is not JSON: Expecting value: line 1 column 1 (char 0)"),
    ("bytes.json", "is not JSON: 'utf-8' codec can't decode byte 0xff in "
                   "position 0: invalid start byte"),
    (".", "names no readable file: Is a directory"),
    ("missing.json", "names no readable file: No such file or directory"),
], ids=["not-json", "not-utf-8", "directory", "missing"])
def test_compose_and_render_name_a_file_that_is_no_json_document(
        tmp_path, capsys, monkeypatch, command, what, name, line):
    # once Python's own text, such as "Expecting value: ..." or "'utf-8'
    # codec can't decode ...", which did not name the file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nope.json").write_text("nope")
    (tmp_path / "bytes.json").write_bytes(b"\xff\xfe")
    assert run([command, name], capsys) == (
        2, "", f"error: {what} {name!r} {line}\n")


def test_compose_splices_one_file_into_two_places(tmp_path, capsys):
    unit = {"embeddings": [{"a": "1", "c": "0"}]}
    (tmp_path / "unit.json").write_text(json.dumps(unit))
    plan = {"kind": "intervals",
            "outer": {"embeddings": [{"a": "1/4", "c": "0"},
                                     {"a": "1/4", "c": "1/2"}]},
            "inners": [{"$file": "unit.json"}, {"$file": "unit.json"}]}
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    code, out, err = run(["compose", str(path)], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out) == plan["outer"]


def test_compose_and_render_reject_a_zero_denominator(tmp_path, capsys):
    # once a ZeroDivisionError traceback and exit 1
    line = "error: not a rational: '1/0'\n"
    plan = dict(INTERVALS_PLAN, outer={"embeddings": [{"a": "1/0", "c": "0"}]})
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    assert run(["compose", str(path)], capsys) == (
        2, "", "error: outer: not a rational: '1/0'\n")
    path.write_text(json.dumps(plan["outer"]))
    assert run(["render", str(path)], capsys) == (2, "", line)


# "1e-3000000" took 1.7 s to refuse as an exponent string, and each further
# exponent digit multiplied that
HUGE_EXPONENT = '{"embeddings": [{"a": "1e-1000000000", "c": "0"}]}'


def test_render_refuses_an_exponent_rational_at_once(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(HUGE_EXPONENT)
    t0 = time.perf_counter()
    result = run(["render", str(path)], capsys)
    assert time.perf_counter() - t0 < 1
    assert result == (2, "", "error: not a rational: '1e-1000000000'\n")


@pytest.mark.parametrize("text", ["0.5", "1e3", "+1/2", " 1/2", "1_000", "1/-2"])
def test_compose_and_render_refuse_what_rat_to_json_never_writes(
        tmp_path, capsys, text):
    line = f"error: not a rational: {text!r}\n"
    plan = dict(INTERVALS_PLAN, outer={"embeddings": [{"a": text, "c": "0"}]})
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    assert run(["compose", str(path)], capsys) == (
        2, "", f"error: outer: not a rational: {text!r}\n")
    path.write_text(json.dumps(plan["outer"]))
    assert run(["render", str(path)], capsys) == (2, "", line)


HALVES = {"embeddings": [{"a": "1/4", "c": "0"}, {"a": "1/4", "c": "1/2"}]}
UNIT_INTERVALS = {"embeddings": [{"a": "1", "c": "0"}]}
INTERVALS_HALVES = {"kind": "intervals", "outer": HALVES,
                    "inners": [UNIT_INTERVALS, UNIT_INTERVALS]}
STRIPS_HALVES = {
    "kind": "strips",
    "outer": {"shape": [1, 0], "base": HALVES,
              "rects": [[{"a": "1/4", "c": "0", "b": "1/2", "d": "0"}], []]},
    "blocks": [{"base": UNIT_INTERVALS, "configs": [
                   {"shape": [1], "base": UNIT_INTERVALS,
                    "rects": [[{"a": "1", "c": "0", "b": "1/2", "d": "0"}]]}]},
               {"base": UNIT_INTERVALS, "configs": []}]}
# where each label sits in two plans that compose: the path to an intervals
# document, decoded by itself or as a strip configuration's base
LABELED_INTERVALS = {
    "outer": (INTERVALS_HALVES, ("outer",)),
    "inner 2": (INTERVALS_HALVES, ("inners", 1)),
    "block 2 base": (STRIPS_HALVES, ("blocks", 1, "base")),
    "block 1 configuration 1": (STRIPS_HALVES,
                                ("blocks", 0, "configs", 0, "base")),
}


@pytest.mark.parametrize("label", sorted(LABELED_INTERVALS))
@pytest.mark.parametrize("embeddings, message", [
    ([{"a": "x", "c": "0"}], "not a rational: 'x'"),
    ("ab", '"embeddings" is not a JSON array')], ids=["rational", "array"])
def test_compose_names_the_document_a_decoding_error_is_in(
        tmp_path, capsys, label, embeddings, message):
    # interval documents were once decoded without their label, so only a
    # strip configuration's errors named the document
    plan, where = LABELED_INTERVALS[label]
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    assert run(["compose", str(path)], capsys)[0] == 0
    plan = json.loads(json.dumps(plan))
    doc = plan
    for key in where:
        doc = doc[key]
    doc["embeddings"] = embeddings
    path.write_text(json.dumps(plan))
    assert run(["compose", str(path)], capsys) == (
        2, "", f"error: {label}: {message}\n")


def test_compose_rejects_an_invalid_intervals_composite(tmp_path, capsys,
                                                       monkeypatch):
    # valid inputs always compose to a valid result, so stand in a compose
    # whose result leaves the unit interval
    from strips_operad import intervals
    from strips_operad.exact import AffineMap1
    from strips_operad.intervals import IntervalConfig
    monkeypatch.setattr(intervals, "interval_compose",
                        lambda outer, inners: IntervalConfig((AffineMap1(2, 0),)))
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(INTERVALS_PLAN))
    assert run(["compose", str(path)], capsys) == (
        2, "", "error: composed result: interval 1 image [0, 2] leaves [0, 1]\n")


DEEP_ARRAY = "[" * 100_000 + "]" * 100_000        # too deep for json.loads
# parses, but too deep for splicing in ``$file`` nodes
DEEP_PLAN = '{"kind": "strips", "outer": ' + "[" * 800 + "]" * 800 + "}"


@pytest.mark.parametrize("command, text", [
    ("compose", DEEP_ARRAY), ("render", DEEP_ARRAY), ("compose", DEEP_PLAN)],
    ids=["compose", "render", "compose-splice"])
def test_compose_and_render_reject_a_deeply_nested_document(tmp_path, capsys,
                                                            command, text):
    # once a RecursionError traceback and exit 1
    path = tmp_path / "deep.json"
    path.write_text(text)
    assert run([command, str(path)], capsys) == (
        2, "", "error: the input document nests too deeply\n")


# --- render ---------------------------------------------------------------------------

def test_render_intervals(tmp_path, capsys):
    doc = {"embeddings": [{"a": "1/4", "c": "0"}, {"a": "1/4", "c": "1/2"}]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "cfg.svg"
    code, _, _ = run(["render", str(path), "--out", str(out)], capsys)
    assert code == 0
    assert out.read_text().lstrip().startswith("<svg")


def test_render_strip_and_sheet(tmp_path, capsys):
    from strips_operad import serialize as ser
    from strips_operad.strips import random_strip
    from strips_operad.sheets import random_pointed_map, random_sheet_element
    import random as _r

    strip_doc = ser.strip_to_json(random_strip((1, 2), seed=3))
    p1 = tmp_path / "strip.json"
    p1.write_text(json.dumps(strip_doc))
    code, out, _ = run(["render", str(p1)], capsys)
    assert code == 0 and out.lstrip().startswith("<svg")

    rng = _r.Random(0)
    f = random_pointed_map(rng, 1, 2)
    elem_doc = ser.sheet_element_to_json(random_sheet_element(f, rng))
    p2 = tmp_path / "elem.json"
    p2.write_text(json.dumps(elem_doc))
    code, out, _ = run(["render", str(p2)], capsys)
    assert code == 0 and out.lstrip().startswith("<svg")


DIM0_SHEET = {"x_breaks": ["0", "1"], "y_breaks": ["0", "1"],
              "values": [[[], []], [[], []]]}
DIM0_LOOP = {"breaks": ["0", "1"], "values": [[], []]}


@pytest.mark.parametrize("doc", [
    DIM0_SHEET, {"sheet": DIM0_SHEET, "bottom": DIM0_LOOP, "top": DIM0_LOOP}],
    ids=["sheet", "element"])
def test_render_of_a_dimension_0_sheet_is_one_grey_square(tmp_path, capsys, doc):
    # Q^0 is a point, so there is no coordinate to colour the square by
    path = tmp_path / "dim0.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["render", str(path)], capsys)
    assert (code, err) == (0, "")
    rects = ET.fromstring(out).findall("{http://www.w3.org/2000/svg}rect")
    assert [r.get("fill") for r in rects] == ["white", "#cccccc"]


def test_render_unknown_document(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text(json.dumps({"widgets": 3}))
    code, _, err = run(["render", str(path)], capsys)
    assert code == 2


@pytest.mark.parametrize("doc", [[], 5, "embeddings"])
def test_render_rejects_a_document_that_is_not_an_object(tmp_path, capsys, doc):
    # a list, a number and a string once met the key dispatch itself
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert run(["render", str(path)], capsys) == (
        2, "", "error: the input document is not a JSON object\n")


HUGE = "1" + "0" * 400     # 10**400 does not fit a float
HUGE_COORDINATE_DOCS = {
    "intervals": {"embeddings": [{"a": "1", "c": HUGE}]},
    "strip": {"shape": [1], "base": {"embeddings": [{"a": "1", "c": "0"}]},
              "rects": [[{"a": "1", "b": "1", "c": "0", "d": HUGE}]]},
}


@pytest.mark.parametrize("name", sorted(HUGE_COORDINATE_DOCS))
def test_render_rejects_a_coordinate_too_large_for_a_float(tmp_path, capsys,
                                                          name):
    # once an OverflowError traceback and exit 1
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(HUGE_COORDINATE_DOCS[name]))
    assert run(["render", str(path)], capsys) == (
        2, "", "error: a coordinate is too large to draw\n")


# A string or an object where an array belongs once iterated as characters or
# keys, so these documents rendered: "01" as the breaks 0, 1 and "12" as the
# point (1, 2).
UNIT_LOOP = {"breaks": ["0", "1"], "values": [["1"], ["1"]]}
NOT_ARRAY_DOCS = {
    "sheet": ({"x_breaks": "01", "y_breaks": ["0", "1"],
               "values": [["12", "34"], ["56", "78"]]},
              'error: "x_breaks" is not a JSON array\n'),
    "sheet point": ({"x_breaks": ["0", "1"], "y_breaks": ["0", "1"],
                     "values": [["12", "34"], ["56", "78"]]},
                    "error: a point is not a JSON array\n"),
    "sheet element": ({"sheet": {"x_breaks": ["0", "1"], "y_breaks": ["0", "1"],
                                 "values": [[["1"], ["1"]], [["1"], ["1"]]]},
                       "bottom": dict(UNIT_LOOP, breaks="01"), "top": UNIT_LOOP},
                      'error: "breaks" is not a JSON array\n'),
}


@pytest.mark.parametrize("name", sorted(NOT_ARRAY_DOCS))
def test_render_refuses_strings_and_objects_as_arrays(tmp_path, capsys, name):
    doc, line = NOT_ARRAY_DOCS[name]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert run(["render", str(path)], capsys) == (2, "", line)


def test_compose_refuses_strings_and_objects_as_arrays(tmp_path, capsys):
    path = tmp_path / "plan.json"
    plan = dict(INTERVALS_PLAN, outer={"embeddings": "ab"})
    path.write_text(json.dumps(plan))
    assert run(["compose", str(path)], capsys) == (
        2, "", 'error: outer: "embeddings" is not a JSON array\n')
    path.write_text(json.dumps(dict(INTERVALS_PLAN, inners="ab")))
    assert run(["compose", str(path)], capsys) == (
        2, "", 'error: "inners" is not a JSON array\n')
    plan = pin_strips_plan(2, 40, 8)
    plan["outer"]["rects"] = dict(enumerate(plan["outer"]["rects"]))
    path.write_text(json.dumps(plan))
    assert run(["compose", str(path)], capsys) == (
        2, "", 'error: outer: "rects" is not a JSON array\n')
    # an empty string or object once passed as the configurations of an
    # empty strip
    unit = {"embeddings": [{"a": "1", "c": "0"}]}
    rect = {"a": "1", "c": "0", "b": "1/2", "d": "0"}
    for empty in ("", {}):
        plan = {"kind": "strips",
                "outer": {"shape": [1, 0],
                          "base": {"embeddings": [{"a": "1/4", "c": "0"},
                                                  {"a": "1/4", "c": "1/2"}]},
                          "rects": [[dict(rect, a="1/4")], []]},
                "blocks": [{"base": unit, "configs": [
                               {"shape": [1], "base": unit, "rects": [[rect]]}]},
                           {"base": unit, "configs": empty}]}
        path.write_text(json.dumps(plan))
        assert run(["compose", str(path)], capsys) == (
            2, "", 'error: "configs" is not a JSON array\n')
        plan["blocks"][1]["configs"] = []
        path.write_text(json.dumps(plan))
        assert run(["compose", str(path)], capsys)[0] == 0


def _plan_without_b():
    plan = pin_strips_plan(2, 40, 8)
    del plan["outer"]["rects"][0][0]["b"]
    return plan


def _element_without_values():
    doc = pin_sheet_element(7)
    del doc["bottom"]["values"]
    return doc


# A missing key or a non-object once printed Python's own text: "error: 'b'"
# or "error: list indices must be integers or slices, not str".
DECODING_ERRORS = {
    "compose rectangle without b": ("compose", _plan_without_b,
                                    'error: outer: missing key "b"\n'),
    "compose block as a list": (
        "compose", lambda: dict(pin_strips_plan(2, 40, 8), blocks=[[1]]),
        "error: block 1 is not a JSON object\n"),
    "compose without outer": ("compose", lambda: {"kind": "intervals", "inners": []},
                              'error: missing key "outer"\n'),
    "render embedding as a list": ("render", lambda: {"embeddings": [["1/2", "0"]]},
                                   "error: an embedding is not a JSON object\n"),
    "render loop without values": ("render", _element_without_values,
                                   'error: missing key "values"\n'),
}


@pytest.mark.parametrize("name", sorted(DECODING_ERRORS))
def test_decoding_errors_name_the_key_or_the_node(tmp_path, capsys, name):
    command, make, line = DECODING_ERRORS[name]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(make()))
    assert run([command, str(path)], capsys) == (2, "", line)


def test_render_of_a_bare_sheet_draws_its_minimal_grid(tmp_path, capsys):
    # a bare sheet was once drawn with every grid line of its document
    from strips_operad import serialize as ser

    from helpers import sheet_presentation

    redundant = {"x_breaks": ["0", "1/2", "1"], "y_breaks": ["0", "1"],
                 "values": [[["0"], ["0"]], [["1"], ["2"]], [["2"], ["4"]]]}
    minimal = {"x_breaks": ["0", "1"], "y_breaks": ["0", "1"],
               "values": [[["0"], ["0"]], [["2"], ["4"]]]}
    xb, yb, values = sheet_presentation(ser.sheet_from_json(pin_sheet(6)),
                                        {Fraction(1, 3)}, {Fraction(5, 7)})
    refined = {"x_breaks": [ser.rat_to_json(t) for t in xb],
               "y_breaks": [ser.rat_to_json(t) for t in yb],
               "values": [[ser.point_to_json(v) for v in col] for col in values]}
    for doc, want in ((redundant, minimal), (refined, pin_sheet(6))):
        pictures = []
        for d in (doc, want):
            path = tmp_path / "sheet.json"
            path.write_text(json.dumps(d))
            code, out, err = run(["render", str(path)], capsys)
            assert (code, err) == (0, "")
            pictures.append(out)
        assert pictures[0] == pictures[1]


def test_render_refuses_a_rectangle_off_its_strip(tmp_path, capsys):
    doc = {"shape": [1, 1],
           "base": {"embeddings": [{"a": "1/4", "c": "0"},
                                   {"a": "1/4", "c": "1/2"}]},
           "rects": [[{"a": "1/4", "c": "0", "b": "1/2", "d": "0"}],
                     [{"a": "1/4", "c": "1/2", "b": "1/2", "d": "0"}]]}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["render", str(path)], capsys)
    assert (code, err) == (0, "")
    doc["rects"][0][0]["c"] = "1/2"         # strip 2's offset
    path.write_text(json.dumps(doc))
    assert run(["render", str(path)], capsys) == (
        2, "", "error: rectangle (1, 1) is not aligned with strip 1\n")


def test_strips_mutate_report_prints_each_rectangle_once(capsys):
    # a rectangle's repr is its vertical embedding alone; the horizontal one
    # is its strip's, printed once in the base
    code, out, _ = run(["check", "strips", "--seed", "1", "--mutate"], capsys)
    assert code == 1
    assert len(out.encode()) < 400_000
    assert "x_part" not in out and "AffineMap2" not in out


# --- console script ---------------------------------------------------------------------

def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "strips_operad.cli",
                           "check", "intervals", "--cases", "3"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True


# --- compose and render output pins -------------------------------------------------
#
# Plan and sheet documents are drawn here from a seeded `random.Random`,
# independently of the package's samplers, so the pins below hold the
# composition, validation, serialization and SVG code alone.

PIN_DENOM = 4096


def _pin_cuts(rng, n):
    """n disjoint closed intervals [lo, hi] inside [0, 1], left to right."""
    pts = sorted(rng.sample(range(PIN_DENOM + 1), 2 * n))
    return [(Fraction(pts[2 * k], PIN_DENOM), Fraction(pts[2 * k + 1], PIN_DENOM))
            for k in range(n)]


def _pin_intervals(rng, r):
    return {"embeddings": [{"a": str(hi - lo), "c": str(lo)}
                           for lo, hi in _pin_cuts(rng, r)]}


def _pin_strip(rng, base, shape):
    embs = base["embeddings"]
    return {"shape": list(shape), "base": base,
            "rects": [[{"a": embs[i]["a"], "c": embs[i]["c"],
                        "b": str(hi - lo), "d": str(lo)}
                       for lo, hi in _pin_cuts(rng, n)]
                      for i, n in enumerate(shape)]}


def _pin_split(rng, total, parts, least):
    counts = [least] * parts
    for _ in range(total - least * parts):
        counts[rng.randrange(parts)] += 1
    return counts


def pin_strips_plan(seed, target, outer_total):
    """A valid strips plan whose composite has ``target`` rectangles."""
    rng = Random(seed)
    r = rng.randint(2, 4)
    m = _pin_split(rng, outer_total, r, 0)
    outer = _pin_strip(rng, _pin_intervals(rng, r), m)
    per_inner = _pin_split(rng, target, outer_total, 1)
    blocks, k = [], 0
    for i in range(r):
        s = rng.randint(1, 3)
        base = _pin_intervals(rng, s)
        configs = []
        for _ in range(m[i]):
            configs.append(_pin_strip(rng, base,
                                      _pin_split(rng, per_inner[k], s, 0)))
            k += 1
        blocks.append({"base": base, "configs": configs})
    return {"kind": "strips", "outer": outer, "blocks": blocks}


def pin_intervals_plan(seed):
    rng = Random(seed)
    r = rng.randint(2, 4)
    return {"kind": "intervals", "outer": _pin_intervals(rng, r),
            "inners": [_pin_intervals(rng, rng.randint(1, 3)) for _ in range(r)]}


def pin_sheet(seed, dim=2):
    """A grid sheet whose first and last columns rest at the origin."""
    rng = Random(seed)

    def breaks(n):
        inner = sorted(rng.sample(range(1, 64), n - 2))
        return ["0"] + [str(Fraction(t, 64)) for t in inner] + ["1"]

    xb, yb = breaks(rng.randint(3, 5)), breaks(rng.randint(2, 4))
    origin = ["0"] * dim
    values = [[origin if ix in (0, len(xb) - 1) else
               [str(Fraction(rng.randint(-20, 20), rng.randint(1, 4)))
                for _ in range(dim)]
               for _ in yb]
              for ix in range(len(xb))]
    return {"x_breaks": xb, "y_breaks": yb, "values": values}


def pin_sheet_element(seed):
    sheet = pin_sheet(seed)

    def edge(iy):
        return {"breaks": sheet["x_breaks"],
                "values": [col[iy] for col in sheet["values"]]}

    return {"sheet": sheet, "bottom": edge(0), "top": edge(-1)}


def _write_file_plan(tmp_path):
    """The seed-4 plan with its outer base and one inner configuration
    moved into files, reached through ``$file``."""
    plan = pin_strips_plan(4, 30, 6)
    (tmp_path / "outer_base.json").write_text(
        json.dumps(plan["outer"]["base"]))
    plan["outer"]["base"] = {"$file": "outer_base.json"}
    block = next(b for b in plan["blocks"] if b["configs"])
    (tmp_path / "inner.json").write_text(json.dumps(block["configs"][0]))
    block["configs"][0] = {"$file": "inner.json"}
    return plan


COMPOSE_PLANS = {
    "strips seed 1": lambda tmp: pin_strips_plan(1, 12, 4),
    "strips seed 2": lambda tmp: pin_strips_plan(2, 40, 8),
    "strips seed 3 (208 rectangles)": lambda tmp: pin_strips_plan(3, 208, 20),
    "strips seed 4 via $file": _write_file_plan,
    "intervals seed 5": lambda tmp: pin_intervals_plan(5),
}

# SHA-256 of (the JSON `compose` writes, the `--svg` picture), per plan.
COMPOSE_OUTPUT_SHA256 = {
    "strips seed 1":
        ("9fa9f8e5e003f745a346a6a07d159e8fb5892bbf4c84abc1b3a0ccaa02f1fb06",
         "f8d4e10bbeb1f70cc05973fd3d60be8bdc4dfd143db557d4c1927522838a02e8"),
    "strips seed 2":
        ("3eadc9892b37ffa51c05c0502e1b065fabd5ca2556ac06f47cbdad633283f852",
         "ec195983136bbf9b7843c3d7a79458bfa3d022d70422d1183618b0a16b251156"),
    "strips seed 3 (208 rectangles)":
        ("41f85b20e00610bf7f57cc4ea7ad3d3c1dff455492f199958f06293ff8166b54",
         "b9ebc48b3529d331ec11e6912a530b7ca20065eb7b2a0c573721719bec47e660"),
    "strips seed 4 via $file":
        ("8bfd1538ae9d7e20d787f37f3cb72943989e3beb82b5d719e328195722a3e0ae",
         "dcedbdf4310df61fc30d06a6c8447db9ace05594f819e831dbc62903e96d87cb"),
    "intervals seed 5":
        ("2796ad51623b73ab192ef062df8e9ef649b1656cc0d0b5a92017e82fa6b469ec",
         "310cc2242b8c736ffc4265db8aac0eebfbfa9d4cd1a51a3b7737d361d7fd39dc"),
}


@pytest.mark.parametrize("name", sorted(COMPOSE_PLANS))
def test_compose_output_bytes_are_pinned(tmp_path, capsys, name):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(COMPOSE_PLANS[name](tmp_path)))
    picture = tmp_path / "out.svg"
    code, out, err = run(["compose", str(path), "--svg", str(picture)], capsys)
    assert (code, err) == (0, "")
    digests = (hashlib.sha256(out.encode()).hexdigest(),
               hashlib.sha256(picture.read_bytes()).hexdigest())
    assert digests == COMPOSE_OUTPUT_SHA256[name]


def _composite_doc(tmp_path, capsys):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(pin_strips_plan(2, 40, 8)))
    code, out, _ = run(["compose", str(path)], capsys)
    assert code == 0
    return json.loads(out)


RENDER_DOCS = {
    "composite": _composite_doc,
    "sheet": lambda tmp, capsys: pin_sheet(6),
    "sheet element": lambda tmp, capsys: pin_sheet_element(7),
}

RENDER_OUTPUT_SHA256 = {
    "composite":
        "e4caec48f85c9c53e9cd264ac35ddd236573ac9f8f958f3922f8e74e400717df",
    "sheet":
        "cc7664d1b4d5577f272ecaf69eca2b10637f41e65d51da4ff05dece47cd84428",
    "sheet element":
        "29e33803e851277d35776b17bd7fff36599886c4d33f75b66d76f38d452add8d",
}


@pytest.mark.parametrize("name", sorted(RENDER_DOCS))
def test_render_output_bytes_are_pinned(tmp_path, capsys, name):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(RENDER_DOCS[name](tmp_path, capsys)))
    code, out, err = run(["render", str(path)], capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == RENDER_OUTPUT_SHA256[name]


def _break_outer(plan):
    rects = next(row for row in plan["outer"]["rects"] if len(row) >= 2)
    rects[1]["d"] = rects[0]["d"]        # two rectangles at one height


def _break_block_base(plan):
    plan["blocks"][0]["base"]["embeddings"][0]["c"] = "-1/8"


def _break_block_config(plan):
    config = next(c for b in plan["blocks"] for c in b["configs"]
                  if any(c["shape"]))
    row = next(row for row in config["rects"] if row)
    row[0]["c"] = "1/3"                  # off its strip


COMPOSE_REJECTIONS = {
    "outer": (_break_outer,
              "error: outer: rectangle (1, 1) does not sit strictly below "
              "rectangle (1, 2)\n"),
    "block base": (_break_block_base,
                   "error: block 1 base: interval 1 image [-1/8, 37/4096] "
                   "leaves [0, 1]\n"),
    "block configuration": (_break_block_config,
                            "error: block 1 configuration 1: rectangle (1, 1) "
                            "is not aligned with strip 1\n"),
}


@pytest.mark.parametrize("name", sorted(COMPOSE_REJECTIONS))
def test_compose_rejection_lines_are_pinned(tmp_path, capsys, name):
    plan = pin_strips_plan(2, 40, 8)
    breaker, line = COMPOSE_REJECTIONS[name]
    breaker(plan)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    assert run(["compose", str(path)], capsys) == (2, "", line)


def test_compose_rejects_an_invalid_composite(tmp_path, capsys, monkeypatch):
    # valid inputs always compose to a valid result, so break the composite
    # by composing through the mutant that lifts the last rectangle by 2
    from strips_operad import strips
    monkeypatch.setattr(mutants, "DRIFT", Fraction(2))
    monkeypatch.setattr(strips, "strip_compose", mutants.strips_rel_operad().compose)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(pin_strips_plan(2, 40, 8)))
    assert run(["compose", str(path)], capsys) == (
        2, "", "error: composed result: rectangle (5, 10) vertical image "
               "[22093259/8388608, 11062303/4194304] leaves [0, 1]\n")
