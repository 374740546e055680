"""One benchmark run inside a fresh interpreter.

Usage: ``python3 bench/child.py SPEC.json`` with the working directory set to
the run's work directory and ``src`` on ``PYTHONPATH``.

The spec names the ops to run, whether to trace, and where to write results.
The child imports ``strips_operad.cli`` cold, builds its parser (that is the
set-up time), then calls ``cli.main`` once per op.  Each op's exit code and
wall time go to the results file as one JSON line, flushed at once, so that
a parent that kills a stalled child still knows which ops finished.

Right after set-up and before every op the child also times :func:`probe`, a
fixed loop of standard-library ``Fraction`` arithmetic that no change to the
package can speed up or slow down.  The parent uses these times to express
the ops' times at one reference host speed (see ``README.md``).
"""
from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
import traceback
from fractions import Fraction


SETUP_PROBES = 20


def probe() -> int:
    """Nanoseconds for a fixed loop of ``Fraction`` arithmetic."""
    t = time.perf_counter_ns()
    acc = Fraction(0)
    for k in range(1, 120):
        acc += Fraction(k % 97, k % 89 + 1)
    return time.perf_counter_ns() - t


def _stall() -> int:
    """Benchmark-internal op that never finishes, for testing the timeout."""
    while True:
        time.sleep(0.05)


def _caches() -> dict:
    """Package functions whose cache persists across ops, with entry counts."""
    found = {}
    for mod_name, mod in sorted(sys.modules.items()):
        if not mod_name.startswith("strips_operad."):
            continue
        for attr, val in sorted(vars(mod).items()):
            fn = val if hasattr(val, "cache_info") else getattr(val, "__wrapped__", None)
            if hasattr(fn, "cache_info") and fn.__module__ == mod_name:
                found[f"{mod_name}.{attr}"] = fn.cache_info().currsize
    return found


def _peak_rss_kib() -> int:
    """Peak resident set of this process since it started.  On Linux a child
    inherits its parent's ``ru_maxrss`` across fork and exec, so read the
    child's own high-water mark instead where the kernel shows it."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    if spec.get("cpu") is not None:
        os.sched_setaffinity(0, {spec["cpu"]})
    tracer = None
    if spec["trace"]:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
    t0 = time.perf_counter()
    import strips_operad.cli as cli
    cli.build_parser()
    setup_s = time.perf_counter() - t0

    with open(spec["results"], "w") as out:
        def emit(rec):
            out.write(json.dumps(rec) + "\n")
            out.flush()

        emit({"setup_s": setup_s, "package": cli.__file__,
              "probe_ns": [probe() for _ in range(SETUP_PROBES)]})
        if tracer is not None:
            tracer.install()
        with open("stdout.txt", "w") as sink:
            run_ops(spec["ops"], cli, sink, emit)
        emit({"rss_kib": _peak_rss_kib(),
              "caches": _caches(),
              "trace": tracer.summary() if tracer is not None else None})
    return 0


def run_ops(ops, cli, sink, emit) -> None:
    """Call ``cli.main`` once per op, recording exit code and wall time."""
    for k, op in enumerate(ops):
        err = None
        ref = probe()
        t = time.perf_counter_ns()
        try:
            with contextlib.redirect_stdout(sink):
                rc = _stall() if op.get("stall") else cli.main(op["argv"])
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # one op's crash is a failed op, not a failed run
            rc, err = None, traceback.format_exc(limit=3)
        emit({"k": k, "rc": rc, "ns": time.perf_counter_ns() - t, "probe_ns": ref,
              "error": err})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
