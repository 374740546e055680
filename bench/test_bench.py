"""Tests of the benchmark itself.

Run from the root of a checkout::

    python3 -m unittest discover -s bench
"""
from __future__ import annotations

import json
import shutil
import sys
import time
import unittest
from math import comb

import run
import verify
import workloads
from tracer import BOUNDARIES, Tracer

SMALL_CHECK = {"argv": ["check", "trees", "--seed", "3", "--cases", "5",
                        "--out", "out/a.json"],
               "expect": {"kind": "report", "out": "out/a.json",
                          "instance": "trees", "cases": 5}}


class WorkDir(unittest.TestCase):
    def setUp(self):
        self.workdir = run.WORK / f"selftest-{self.id().rsplit('.', 1)[-1]}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        (self.workdir / "out").mkdir(parents=True)

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


class TimeoutTest(WorkDir):
    def test_stalled_op_is_killed_and_unfinished_ops_fail(self):
        ops = [SMALL_CHECK, {"stall": True}, SMALL_CHECK]
        t = time.monotonic()
        child = run.Child(self.workdir, ops, False, timeout=5).run()
        self.assertLess(time.monotonic() - t, 15)
        self.assertTrue(child.timed_out)
        self.assertIsNotNone(child.returncode)       # reaped, not left running
        self.assertEqual(sorted(child.records), [0])
        self.assertEqual(sorted(child.failures()), [1, 2])


class TimingTest(unittest.TestCase):
    @staticmethod
    def child(start, op_ns, probe_ns):
        c = run.Child(run.WORK, [{}] * len(op_ns), False, 1, start=start)
        c.records = {k: {"ns": ns} for k, ns in enumerate(op_ns)}
        c.probes = [probe_ns] * 3
        return c

    def test_times_are_medians_at_the_reference_speed(self):
        ref = run.REF_PROBE_NS
        runs = [self.child(0, [10, 40], ref),          # host at reference speed
                self.child(0, [50, 120], 2 * ref),     # host twice as slow
                self.child(0, [30, 20], ref),
                self.child(2, [50], ref)]
        got = sorted(round(t * 1e9, 6) for t in run.op_times_s(runs))
        self.assertEqual(got, [25, 40, 50])
        raw = sorted(round(t * 1e9, 6) for t in run.op_times_s(runs, reference=False))
        self.assertEqual(raw, [30, 40, 50])


class InputTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOADS:
            a = workloads.make_batch(name, 7, 1)
            b = workloads.make_batch(name, 7, 1)
            c = workloads.make_batch(name, 8, 1)
            self.assertEqual(a.digest(), b.digest(), name)
            self.assertNotEqual(a.digest(), c.digest(), name)
            self.assertGreaterEqual(len(a.ops), workloads.MIN_OPS, name)

    def test_generated_sheets_are_canonical(self):
        sys.path.insert(0, str(run.SRC))
        from strips_operad import serialize
        batch = workloads.make_batch("cli-docs", 3, 1)
        for name, text in batch.docs.items():
            doc = json.loads(text)
            if "x_breaks" in doc:
                sheet = serialize.sheet_from_json(doc)
                self.assertIs(sheet.canonical(), sheet, name)
            if "sheet" in doc:
                elem = serialize.sheet_element_from_json(doc)
                self.assertEqual(serialize.sheet_element_to_json(elem),
                                 json.loads(text), name)


class VerifyTest(WorkDir):
    def test_f_vectors_are_the_kirkman_cayley_numbers(self):
        for r, fv in verify.F_VECTORS.items():
            # faces with k diagonals of an (r+1)-gon have dimension r-2-k
            want = [comb(r - 2, k) * comb(r + k, k) // (k + 1)
                    for k in range(r - 1)][::-1]
            self.assertEqual(list(fv), want)
        self.assertEqual([sum(verify.F_VECTORS[r]) for r in range(2, 9)],
                         [1, 3, 11, 45, 197, 903, 4279])

    def test_wrong_composite_is_caught(self):
        batch = workloads.make_batch("cli-docs", 5, 1)
        expect = next(op["expect"] for op in batch.ops
                      if op["expect"]["kind"] == "compose"
                      and "shape" in op["expect"]["want"])
        want = json.loads(json.dumps(expect["want"]))
        (self.workdir / expect["svg"]).write_text("<svg/>")
        (self.workdir / expect["out"]).write_text(json.dumps(want))
        self.assertIsNone(verify.check_op(self.workdir, expect))
        rect = want["rects"][next(i for i, row in enumerate(want["rects"]) if row)][0]
        rect["d"] = str(verify.Fraction(rect["d"]) + verify.Fraction(1, 8192))
        (self.workdir / expect["out"]).write_text(json.dumps(want))
        self.assertIn("differs", verify.check_op(self.workdir, expect))

    def test_failed_report_and_bad_svg_are_caught(self):
        out = self.workdir / "out" / "r.json"
        out.write_text(json.dumps({"ok": True, "cases_run": 4, "instance": "trees"}))
        self.assertIn("cases_run", verify.check_report(out, "trees", 5))
        svg = self.workdir / "out" / "x.svg"
        svg.write_text("<svg><rect></svg>")
        self.assertIn("does not parse", verify.check_svg(svg))


class TracerTest(WorkDir):
    def test_traced_child_counts_layers(self):
        ops = [{"argv": ["check", "strips", "--seed", "1", "--cases", "3",
                         "--out", "out/s.json"]}, SMALL_CHECK]
        counts = []
        for _ in range(2):
            child = run.Child(self.workdir, ops, True, timeout=60).run()
            self.assertEqual(child.failures(), {})
            trace = child.tail["trace"]
            self.assertEqual(trace["absent"], [])
            counts.append({k: (v["calls"], v["count"])
                           for k, v in trace["boundaries"].items()})
        self.assertEqual(counts[0], counts[1])
        b = counts[0]
        self.assertEqual(b["cli.cmd"][0], 2)
        self.assertEqual(b["framework.plan"][0], 3 + 5)
        self.assertGreater(b["framework.plan"][1], 0)       # rng draws
        self.assertGreater(b["strips.eq"][0], 0)
        self.assertGreater(b["trees.eq"][0], 0)
        self.assertEqual(b["sheets.act_on_sheets"][0], 0)

    def test_missing_target_is_absent_not_an_error(self):
        sys.path.insert(0, str(run.SRC))
        saved = dict(BOUNDARIES)
        BOUNDARIES["strips.violation"] = [("strips", "no_such_function"),
                                          ("nosuchmodule", "f")]
        try:
            tracer = Tracer()
            tracer.install()
        finally:
            BOUNDARIES.clear()
            BOUNDARIES.update(saved)
        self.assertEqual(sorted(tracer.absent),
                         ["nosuchmodule.f", "strips.no_such_function"])


if __name__ == "__main__":
    unittest.main()
