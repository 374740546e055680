"""Benchmark of the strips-operad command line, end to end and per layer.

Usage, from the root of a checkout::

    python3 bench/run.py --workload strips-check --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1

Each run builds a batch of ``strips_operad.cli.main`` invocations from the
workload seed, split into chunks.  It runs each chunk in fresh child
interpreters that import the package cold from ``src/``, checks every output
against an independent recomputation, and prints one JSON object as the last
line of standard output.  ``--trace 0`` runs every chunk the workload's
number of passes and reports the end-to-end metrics, with times expressed at
one reference host speed; ``--trace 1`` runs the first chunk untraced and
traced, alternately, and reports per-layer metrics.
Workloads, metrics, the reference speed and the layer-to-metric map are
described in ``bench/README.md``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import verify
import workloads
from tracer import BOUNDARIES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACE_PAIRS = 2              # untraced and traced children in a trace run
STOP_AFTER = 1.5             # start no child after this many --seconds
REF_PROBE_NS = 500_000       # the reference speed: child.probe() takes this
SETUP_SAMPLES = 10           # set-up times behind the median, from pass
                             # children plus import-only children
RUN_BUDGET_S = 170           # a whole run, trace mode included, ends before this

# extra per-layer metrics: (metric, boundary, source, unit)
EXTRAS = (
    ("framework.plan.max_ms", "framework.plan", "max_ms", "ms"),
    ("framework.plan.rng_draws", "framework.plan", "count", "count"),
    ("strips.violation.rect_pairs", "strips.violation", "count", "count"),
    ("sheets.act_on_sheets.p90_ms", "sheets.act_on_sheets", "p90_ms", "ms"),
    ("sheets.act_on_sheets.cells", "sheets.act_on_sheets", "count", "count"),
    ("exact.canonical.noop_ratio", "exact.canonical", "ratio", "ratio"),
    ("serialize.decode.bytes", "serialize.decode", "count", "bytes"),
    ("serialize.encode.bytes", "serialize.encode", "count", "bytes"),
    ("svg.render.bytes", "svg.render", "count", "bytes"),
)


def calibrate() -> float:
    """Seconds for a fixed Fraction loop: a host-speed diagnostic only."""
    t = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 40000):
        acc += Fraction(k % 97, k % 89 + 1)
    return time.perf_counter() - t


def git_revision() -> str:
    """HEAD of the checkout's own .git, if it has one (read, not run)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Child:
    """One child interpreter running a list of ops in ``workdir``."""

    def __init__(self, workdir: Path, ops: list, trace: bool, timeout: float,
                 cpu=None, start: int = 0):
        self.workdir = workdir
        self.cpu = cpu
        self.start = start      # batch index of the first op
        self.ops = ops
        self.trace = trace
        self.timeout = timeout
        self.timed_out = False
        self.returncode = None
        self.records = {}
        self.setup_s = None
        self.probes = []        # reference probe times, ns
        self.package = None
        self.tail = {}
        self.stderr = ""

    def run(self) -> "Child":
        tag = "trace" if self.trace else "plain"
        spec = self.workdir / f"spec-{tag}.json"
        results = self.workdir / f"results-{tag}.jsonl"
        spec.write_text(json.dumps({"trace": self.trace, "results": results.name,
                                    "cpu": self.cpu,
                                    "ops": [{k: v for k, v in op.items() if k != "expect"}
                                            for op in self.ops]}))
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        env.pop("STRIPS_OPERAD_SEED", None)
        with open(self.workdir / f"stderr-{tag}.txt", "w") as err:
            proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), spec.name],
                                    cwd=self.workdir, env=env, stdin=subprocess.DEVNULL,
                                    stdout=err, stderr=err)
            try:
                self.returncode = proc.wait(timeout=self.timeout)
            except subprocess.TimeoutExpired:
                self.timed_out = True
            finally:                # also when this process is told to stop
                if proc.poll() is None:
                    proc.kill()
                    self.returncode = proc.wait()
        self.stderr = (self.workdir / f"stderr-{tag}.txt").read_text()[-2000:]
        if results.exists():
            for line in results.read_text().splitlines():
                rec = json.loads(line)
                if "k" in rec:
                    self.records[rec["k"]] = rec
                    self.probes.append(rec["probe_ns"])
                elif "setup_s" in rec:
                    self.setup_s = rec["setup_s"]
                    self.package = rec["package"]
                    self.probes += rec["probe_ns"]
                else:
                    self.tail = rec
        return self

    def failures(self, check_outputs: bool = True) -> dict:
        """Batch op index -> reason, for every op that did not finish
        correctly.  ``check_outputs=False`` skips output verification, for a
        child whose outputs are compared byte for byte with verified ones."""
        bad = {}
        for k, op in enumerate(self.ops):
            rec = self.records.get(k)
            if rec is None:
                why = "killed at the run timeout" if self.timed_out else "never ran"
            elif rec["error"]:
                why = rec["error"].strip().splitlines()[-1]
            elif rec["rc"] != 0:
                why = f"exit code {rec['rc']}"
            elif check_outputs and "expect" in op:
                why = verify.check_op(self.workdir, op["expect"])
            else:
                why = None
            if why:
                bad[self.start + k] = why
        return bad

    def times_s(self) -> list:
        return [rec["ns"] / 1e9 for rec in self.records.values()]

    def speed(self) -> float:
        """Reference probe time over its mean in this child: multiplies a
        time measured here into the same time at the reference speed."""
        return REF_PROBE_NS * len(self.probes) / sum(self.probes)

    def op_ns(self, reference: bool = True) -> dict:
        """Batch op index -> wall time of each finished op, in ns, at the
        reference speed or (``reference=False``) as measured."""
        f = self.speed() if reference else 1.0
        return {self.start + k: rec["ns"] * f for k, rec in self.records.items()}

    def output_digests(self) -> list:
        """SHA-256 of each op's output files, in op order."""
        digests = []
        for op in self.ops:
            h = hashlib.sha256()
            for key in ("out", "svg"):
                name = op.get("expect", {}).get(key)
                if name and (self.workdir / name).exists():
                    h.update((self.workdir / name).read_bytes())
            digests.append(h.hexdigest())
        return digests


def prepare_outputs(workdir: Path) -> None:
    shutil.rmtree(workdir / "out", ignore_errors=True)
    (workdir / "out").mkdir(parents=True)


def prepare(workdir: Path, batch) -> None:
    prepare_outputs(workdir)
    for name, text in batch.docs.items():
        path = workdir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def pass_cpus() -> list:
    """CPUs this process may run on, cycled through by successive children,
    so that a slow spell on one CPU does not hit every sample of an op."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return [None]


def m(value, unit) -> dict:
    return {"value": value, "unit": unit}


def op_times_s(runs: list, reference: bool = True) -> list:
    """Each finished op's median time over the children in ``runs`` that ran
    it, in seconds."""
    seen = {}
    for child in runs:
        for k, ns in child.op_ns(reference).items():
            seen.setdefault(k, []).append(ns / 1e9)
    return [statistics.median(v) for v in seen.values()]


def timings(runs: list, setups: list, reference: bool) -> dict:
    """The timed end-to-end metrics, at the reference speed or as measured."""
    times = op_times_s(runs, reference)
    if len(times) < 2:          # nothing to time; the failures say why
        times = [0.0, 0.0]
    setup = [c.setup_s * (c.speed() if reference else 1.0) for c in setups + runs]
    return {
        "ops_per_s": m(len(times) / (sum(times) or float("inf")), "1/s"),
        "op_p50_ms": m(statistics.median(times) * 1e3, "ms"),
        "op_p90_ms": m(statistics.quantiles(times, n=10)[8] * 1e3, "ms"),
        "setup_s": m(statistics.median(setup), "s"),
    }


def end_to_end(runs: list, setups: list, n_ops: int, failed: int,
               cases: int) -> tuple:
    metrics = timings(runs, setups, True)
    metrics["peak_rss_mb"] = m(max(c.tail.get("rss_kib", 0) for c in runs) / 1024, "MiB")
    metrics["ok_frac"] = m((n_ops - failed) / n_ops, "ratio")
    probes = [ns for c in runs for ns in c.probes]
    info = {"fail_frac": failed / n_ops,
            "cases_per_s": metrics["ops_per_s"]["value"] * cases if cases else None,
            "as_measured": {k: v["value"] for k, v in timings(runs, setups, False).items()},
            "probe_ns_median": statistics.median(probes)}
    return metrics, info


def per_layer(plain: list, traced: list) -> dict:
    """Layer metrics of the fastest traced child, and the overhead of tracing
    from each op's traced and untraced times."""
    fastest = min(traced, key=lambda c: sum(c.times_s()))
    summary = (fastest.tail.get("trace") or {}).get("boundaries", {})
    metrics = {}
    for name in BOUNDARIES:
        b = summary.get(name, {"calls": 0, "self_ns": 0})
        metrics[f"{name}.calls"] = m(b["calls"], "count")
        metrics[f"{name}.self_s"] = m(b["self_ns"] / 1e9, "s")
    for metric, name, source, unit in EXTRAS:
        b = summary.get(name, {})
        spans = b.get("spans", 0)
        value = {"max_ms": b.get("max_ns", 0) / 1e6,
                 "p90_ms": b.get("p90_ns", 0) / 1e6,
                 "count": b.get("count", 0),
                 "ratio": b.get("count", 0) / spans if spans else 0.0}[source]
        metrics[metric] = m(value, unit)
    plain_s, traced_s = sum(op_times_s(plain)), sum(op_times_s(traced))
    metrics["trace.overhead"] = m(traced_s / plain_s if plain_s else 0.0, "ratio")
    return metrics


def layer_table(metrics: dict) -> list:
    """Boundaries and whole modules ranked by self time, for the log."""
    selfs = {k[:-7]: v["value"] for k, v in metrics.items() if k.endswith(".self_s")}
    modules = {}
    for name, s in selfs.items():
        mod = name.split(".")[0]
        modules[mod] = modules.get(mod, 0.0) + s
    top = sorted(selfs.items(), key=lambda kv: -kv[1])[:8]
    return ([f"  self time by module: " + ", ".join(
                f"{k} {v:.3f}s" for k, v in sorted(modules.items(), key=lambda kv: -kv[1]))]
            + [f"  {k:28s} {v:9.4f} s  {metrics[k + '.calls']['value']:>9} calls"
               for k, v in top])


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    started = time.monotonic()
    wl = workloads.WORKLOADS[name]
    batch = wl.batch(name, seed, seconds)
    cases = getattr(wl, "cases", 0)
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        prepare(workdir, batch)
        cpus = pass_cpus()
        Child(workdir, [], False, 60).run()     # writes the bytecode cache
        calibration = calibrate()
        budget = lambda: RUN_BUDGET_S - (time.monotonic() - started)  # noqa: E731
        runs, traced, bad, digests, setups = [], [], {}, {}, []
        # untraced: every chunk once per pass, each time in a fresh child;
        # traced: the first chunk, untraced and traced in turn
        starts = [0]
        for chunk in batch.chunks:
            starts.append(starts[-1] + len(chunk))
        plan = list(zip(starts, batch.chunks))
        plan = plan[:1] * TRACE_PAIRS if trace else plan * wl.passes
        for j, (start, ops) in enumerate(plan):
            if not trace and time.monotonic() - started > STOP_AFTER * seconds:
                break           # a slow host: keep the run near its length
            cpu = cpus[j % len(cpus)]
            prepare_outputs(workdir)
            child = Child(workdir, ops, False,
                          min(seconds + 30, budget() / (2 if trace else 1)),
                          cpu, start).run()
            if child.setup_s is None:
                sys.exit(f"error: the child did not start:\n{child.stderr}")
            got = child.output_digests()
            first = digests.setdefault(start, got)
            bad.update(child.failures(check_outputs=first is got))
            bad.update({start + k: "output differs between passes"
                        for k, (x, y) in enumerate(zip(first, got)) if x != y})
            runs.append(child)
            if trace:
                prepare_outputs(workdir)
                traced.append(Child(workdir, ops, True,
                                    budget() / (2 * (TRACE_PAIRS - j)),
                                    cpu, start).run())
                bad.update(traced[-1].failures())
            if child.timed_out or (traced and traced[-1].timed_out):
                break           # a stalled op would stall every later child too
        while not trace and len(setups) + len(runs) < SETUP_SAMPLES:
            setups.append(Child(workdir, [], False, 60,
                                cpus[len(setups) % len(cpus)]).run())
        plain = runs[0]
        n_ops = sum(len(ops) for start, ops in plan[:len(digests)])
        out_digest = hashlib.sha256("".join(
            d for start in sorted(digests) for d in digests[start]).encode()).hexdigest()
        if trace:
            metrics = per_layer(runs, traced)
            info = {"fail_frac": len(bad) / n_ops}
        else:
            metrics, info = end_to_end(runs, setups, n_ops, len(bad), cases)
        record = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "ops": n_ops, "cases_per_op": cases or None, "children": len(runs),
            "batch_ops": len(batch.ops),
            "wall_s": round(time.monotonic() - started, 3),
            "input_sha256": batch.digest(), "output_sha256": out_digest,
            "python": platform.python_version(), "platform": platform.platform(),
            "nproc": os.cpu_count(), "git_revision": git_revision(),
            "calibration_s": calibration, "package": plain.package,
            "persistent_caches": plain.tail.get("caches"),
            "timed_out": any(c.timed_out for c in runs + traced),
            "failures": {str(k): v for k, v in sorted(bad.items())[:10]},
            **info,
        }
        if traced:
            record["absent"] = (traced[0].tail.get("trace") or {}).get("absent")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"record": record,
            "result": {"correct": not bad, "attempted": n_ops,
                       "failed": len(bad), "metrics": metrics}}


def report(name: str, out: dict) -> None:
    print(json.dumps({"record": out["record"]}, sort_keys=True))
    for key, v in out["result"]["metrics"].items():
        print(f"{name:13s} {key:36s} {v['value']:14.6f} {v['unit']}")
    rec = out["record"]
    print(f"{name:13s} {'fail_frac':36s} {rec['fail_frac']:14.6f} ratio")
    if rec.get("cases_per_s"):
        print(f"{name:13s} {'cases_per_s (info)':36s} {rec['cases_per_s']:14.6f} 1/s")
    if rec["trace"]:
        print("\n".join(layer_table(out["result"]["metrics"])))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "strips_operad" / "cli.py").is_file():
        print(f"error: no package source at {SRC}/strips_operad; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        out = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(name, out)
        results[name] = out["result"]
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
