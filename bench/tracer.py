"""Outside-in tracer: times the package's layer boundaries without editing it.

Each boundary is a named group of package functions.  :meth:`Tracer.install`
replaces every one of them with a timing wrapper, rebinding the original
object by identity under every name it has in every ``strips_operad.*``
module, and on the class for methods (``canonical``, ``at``, ``__eq__``).
Instance bundles such as ``OperadInstance`` are built inside ``cmd_check``
from module globals, so wrappers installed before the first op are seen by
every op.  A target that a later refactor removes is listed as absent and its
boundary reports zero calls.

Span rules:

* every call of a boundary counts toward ``<name>.calls``;
* a call made while the same boundary is already open (recursion, or a
  nested call between functions of one group) is counted but opens no span;
* self time is a span's duration minus the durations of the spans opened
  directly inside it;
* equality boundaries (``*.eq``) only trace comparisons made directly by a
  law checker (``framework.laws``), that is, comparisons of law sides.

Spans are kept in memory as per-boundary totals and duration lists and are
summarized once, when the run ends.
"""
from __future__ import annotations

import importlib
import json
import random
import sys
import time
from array import array

P = "strips_operad."

# boundary name -> [(module, attribute or Class.method), ...]
BOUNDARIES = {
    "cli.cmd": [("cli", "main")],
    "framework.run": [("framework", "run_operad_check"),
                      ("framework", "run_operad_exhaustive"),
                      ("framework", "run_rel_check"),
                      ("framework", "run_algebra_check")],
    "framework.plan": [("framework", "random_operad_plan"),
                       ("framework", "random_rel_plan"),
                       ("framework", "random_algebra_plan")],
    "framework.elements": [("framework", "random_operad_elements"),
                           ("framework", "random_rel_elements"),
                           ("framework", "random_algebra_elements")],
    "framework.laws": [("framework", "check_operad_laws"),
                       ("framework", "check_rel_laws"),
                       ("framework", "check_algebra_laws")],
    "shapes.output_shape": [("shapes", "output_shape")],
    "intervals.compose": [("intervals", "interval_compose")],
    "intervals.random": [("intervals", "random_intervals")],
    "intervals.violation": [("intervals", "interval_violation")],
    "intervals.eq": [("intervals", "IntervalConfig.__eq__")],
    "strips.compose": [("strips", "strip_compose")],
    "strips.random_over": [("strips", "random_strip_over")],
    "strips.violation": [("strips", "strip_violation")],
    "strips.eq": [("strips", "StripConfig.__eq__")],
    "sheets.act_on_sheets": [("sheets", "act_on_sheets")],
    "sheets.act_on_loops": [("sheets", "act_on_loops")],
    "sheets.violation": [("sheets", "sheet_violation")],
    "sheets.random": [("sheets", "random_sheet_element"),
                      ("sheets", "random_loop"),
                      ("sheets", "random_pointed_map")],
    "sheets.eq": [("sheets", "SheetElement.__eq__"), ("sheets", "Loop.__eq__")],
    "exact.canonical": [("exact", "PLPath.canonical"),
                        ("exact", "GridSheet.canonical")],
    "exact.at": [("exact", "PLPath.at"), ("exact", "GridSheet.at"),
                 ("exact", "PathFragment.at"), ("exact", "SheetFragment.at")],
    "trees.eq": [("trees", "PlanarTree.__eq__")],
    "trees.random_tree": [("trees", "random_tree")],
    "trees.graft": [("trees", "graft")],
    "trees.tree_leaves": [("trees", "tree_leaves")],
    "trees.enumerate": [("trees", "enumerate_trees")],
    "trees.hasse": [("svg", "_hasse_edges")],
    "serialize.decode": [("serialize", "intervals_from_json"),
                         ("serialize", "strip_from_json"),
                         ("serialize", "sheet_from_json"),
                         ("serialize", "sheet_element_from_json")],
    "serialize.encode": [("serialize", "dumps"),
                         ("serialize", "intervals_to_json"),
                         ("serialize", "strip_to_json"),
                         ("serialize", "tree_to_json")],
    "svg.render": [("svg", "render_intervals"), ("svg", "render_strip_config"),
                   ("svg", "render_before_after"), ("svg", "render_sheet"),
                   ("svg", "render_sheet_element"), ("svg", "hasse_svg"),
                   ("svg", "hasse_dot")],
}
EQ_PARENT = "framework.laws"


class Stats:
    __slots__ = ("name", "calls", "self_ns", "open", "durations", "count")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.self_ns = 0
        self.open = False
        self.durations = array("q")
        self.count = 0          # the boundary's own extra count, if any


class CountingRandom:
    """Stands in for the ``random.Random`` a plan sampler receives and counts
    the method calls the sampler makes on it."""

    def __init__(self, rng: random.Random, stats: Stats):
        self._rng = rng
        self._stats = stats

    def __getattr__(self, name):
        attr = getattr(self._rng, name)
        if not callable(attr):
            return attr
        stats = self._stats

        def counted(*args, **kwargs):
            stats.count += 1
            return attr(*args, **kwargs)
        setattr(self, name, counted)     # later lookups skip __getattr__
        return counted


# Extra counts, each computed from a boundary's input or output.
def _plan_args(stats, args):
    if args and isinstance(args[0], random.Random):
        return (CountingRandom(args[0], stats),) + args[1:]
    return args


def _rect_pairs(stats, args, result):
    n = sum(len(row) for row in args[0].rects)
    stats.count += n * (n - 1) // 2


def _cells(stats, args, result):
    sheet = result.sheet
    stats.count += (len(sheet.x_breaks) - 1) * (len(sheet.y_breaks) - 1)


def _noop(stats, args, result):
    stats.count += result is args[0]


def _text_bytes(stats, args, result):
    if isinstance(result, str):
        stats.count += len(result.encode())


def _doc_bytes(stats, args, result):
    stats.count += len(json.dumps(args[0], separators=(",", ":")))


PRE_HOOKS = {"framework.plan": _plan_args}
POST_HOOKS = {"strips.violation": _rect_pairs, "sheets.act_on_sheets": _cells,
              "exact.canonical": _noop, "serialize.encode": _text_bytes,
              "serialize.decode": _doc_bytes, "svg.render": _text_bytes}


class Tracer:
    def __init__(self):
        self.stats = {name: Stats(name) for name in BOUNDARIES}
        self.stack = []          # one [child_ns, stats] frame per open span
        self.absent = []

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, stats: Stats):
        stack = self.stack
        clock = time.perf_counter_ns
        pre = PRE_HOOKS.get(stats.name)
        post = POST_HOOKS.get(stats.name)
        eq_parent = self.stats[EQ_PARENT] if stats.name.endswith(".eq") else None

        def traced(*args, **kwargs):
            if eq_parent is not None and not stats.open and (
                    not stack or stack[-1][1] is not eq_parent):
                return fn(*args, **kwargs)
            stats.calls += 1
            if stats.open:
                return fn(*args, **kwargs)
            if pre is not None:
                args = pre(stats, args)
            frame = [0, stats]
            stack.append(frame)
            stats.open = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stats.open = False
                stack.pop()
                stats.self_ns += dt - frame[0]
                stats.durations.append(dt)
                if stack:
                    stack[-1][0] += dt
            if post is not None:
                t1 = clock()
                post(stats, args, result)
                if stack:      # keep the hook's own time out of the parent
                    stack[-1][0] += clock() - t1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", stats.name)
        return traced

    def install(self) -> None:
        found = []                        # (stats, module, attribute)
        for name, targets in BOUNDARIES.items():
            for mod_name, attr in targets:
                try:
                    found.append((self.stats[name],
                                  importlib.import_module(P + mod_name), attr))
                except ImportError:
                    self.absent.append(f"{mod_name}.{attr}")
        modules = [m for name, m in sys.modules.items() if name.startswith(P)]
        modules.append(sys.modules[P[:-1]])
        for stats, mod, attr in found:
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                owner = getattr(mod, cls_name, None)
                fn = vars(owner).get(meth) if isinstance(owner, type) else None
            else:
                fn = getattr(mod, attr, None)
            if fn is None:
                self.absent.append(f"{mod.__name__[len(P):]}.{attr}")
            elif cls_name:
                setattr(owner, meth, self._wrap(fn, stats))
            else:
                wrapped = self._wrap(fn, stats)
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, key, wrapped)

    # -- summary -----------------------------------------------------------

    def summary(self) -> dict:
        out = {"absent": self.absent, "boundaries": {}}
        for name, st in self.stats.items():
            spans = sorted(st.durations)
            out["boundaries"][name] = {
                "calls": st.calls, "spans": len(spans), "self_ns": st.self_ns,
                "count": st.count,
                "max_ns": spans[-1] if spans else 0,
                "p90_ns": spans[int(0.9 * (len(spans) - 1))] if spans else 0}
        return out
