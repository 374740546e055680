"""Command-line front end: law fuzzing, face enumeration, composition, SVG.

Subcommands::

    strips-operad check TARGET [--seed N] [--cases N] [--max-r N] [--max-n N]
                  [--mutate] [--exhaustive] [--out F]
    strips-operad enumerate R [--format json|dot|svg] [--out F]
    strips-operad compose PLAN.json [--out F] [--svg F]
    strips-operad render INPUT.json [--out F]

Exit codes: 0 success, 1 at least one law failure, 2 usage or validation
error.  ``compose`` validates its inputs and its result; it and ``render``
exit 2 with a line naming the file when the plan, the input or a ``$file``
is no readable file (a directory, a missing file, a symlink loop; ``""``
and ``"."`` name the plan's directory) or holds no JSON document (text
that is not UTF-8, say), and also on a malformed document: one that is not
a JSON object, one nested too deeply to read, a rational that is not an int
or a string such as ``"-7/2"`` with a nonzero denominator (decimals and
exponents are refused), a string or an object where an array belongs, a
rectangle off its strip, or a ``$file`` that is not a file name (not a
string, or one with a null byte) or splices in itself; ``render`` also
exits 2 on a coordinate too large for a float.
``check`` checks one entry of ``TARGETS`` (with ``--mutate``, its broken
twin in :mod:`strips_operad.mutants`); it exits 2 on arguments that cannot
give a bounded, non-empty run, among them an ``--exhaustive`` run of more
than ``MAX_EXHAUSTIVE_PLANS`` plans and a ``--max-r`` above
``MAX_CHECK_ARITY``, the bound on each target's ``reach``.  A case that
raises is recorded in the report as a failure of the law ``exception``
(exit 1), and the remaining cases still run.
The seed is ``--seed``, 0 when not given; identical seeds give
byte-identical reports.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import json
import os
import sys
from pathlib import Path
from typing import Callable

from . import framework
from .framework import ALGEBRA, OPERAD, REL, Block, operad_plan_count
from .records import _Frozen, _set_slots

DEFAULT_CASES = 100
MAX_EXHAUSTIVE_PLANS = 10 ** 6      # --exhaustive --max-r 3 runs 60 879 plans
# check intervals|strips|sheets --max-r 128 --cases 2: about 2.3, 2.4-3.0 and
# 0.3 s on a shared 2-CPU host
MAX_CHECK_ARITY = 128


@contextlib.contextmanager
def _output(out):
    """The file ``out`` opened for writing, or stdout when ``out`` is None:
    every command writes through it.  A document formed piece by piece is
    written with ``writelines`` and never held whole.  An empty path names
    no file, so it is refused.  A body that raises removes the file."""
    if out is None:
        yield sys.stdout
    else:
        f = open(out, "w")
        try:
            with f:
                yield f
        except BaseException:
            # a run cut short leaves no partial file; a device or link stays
            if os.path.isfile(out) and not os.path.islink(out):
                os.remove(out)
            raise


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

class Target(_Frozen):
    """A ``check`` target, of ``kind``; ``--mutate`` runs ``mutant`` in place
    of ``make``, and --max-r then --max-n fill the kind's bounds.
    ``exhaustive``: the target takes --exhaustive; ``reach``, a pair (text,
    power): --max-r r reaches text of r ** power, bounded at MAX_CHECK_ARITY
    ** power (three stages of arity r compose to r ** 3)."""

    __slots__ = _fields = ("kind", "make", "mutant", "exhaustive", "reach")

    def __init__(self, kind: framework.Kind, make: Callable, mutant: Callable,
                 exhaustive: bool = False,
                 reach: tuple = ("composites reach arity {}", 3)):
        _set_slots(self, self._fields, (kind, make, mutant, exhaustive, reach))


def _module(name: str):
    """The package module ``name``, imported when a command first runs it."""
    return importlib.import_module(f".{name}", __package__)


TARGETS = {
    "intervals": Target(OPERAD, lambda: _module("intervals").intervals_operad(),
                        lambda: _module("mutants").intervals_operad()),
    "strips": Target(REL, lambda: _module("strips").strips_rel_operad(),
                     lambda: _module("mutants").strips_rel_operad()),
    "trees": Target(OPERAD, lambda: _module("trees").trees_operad(),
                    lambda: _module("mutants").trees_operad(), exhaustive=True),
    # one carrier or chain per output strip of the first stage
    "sheets": Target(ALGEBRA,
                     lambda: (_module("sheets").random_sheet_algebra,
                              _module("strips").strips_rel_operad()),
                     lambda: (_module("mutants").random_sheet_algebra,
                              _module("strips").strips_rel_operad()),
                     reach=("draw {} carriers", 2)),
}


def _targets_with(test: Callable) -> list:
    """The names of the targets that pass ``test``."""
    return [name for name, target in TARGETS.items() if test(target)]


def _check_args_error(args):
    """Why the ``check`` arguments cannot give a bounded, non-empty run, or None."""
    target = TARGETS[args.target]
    if args.cases is not None and args.cases < 1:
        return f"--cases must be at least 1, got {args.cases}"
    if args.max_r < 1:
        return f"--max-r must be at least 1, got {args.max_r}"
    if len(target.kind.bounds) > 1 and args.max_n < 1:
        return f"--max-n must be at least 1, got {args.max_n}"
    if args.exhaustive and not target.exhaustive:
        takes = ", ".join(_targets_with(lambda t: t.exhaustive))
        return f"--exhaustive applies only to {takes}, not {args.target}"
    if args.exhaustive and args.cases is not None:
        return "--cases does not apply with --exhaustive, which runs every plan"
    if args.exhaustive:
        # the plan count grows with --max-r, so the first bound over the cap
        # decides, and a huge --max-r is never counted out
        over = next((r for r in range(1, args.max_r + 1)
                     if operad_plan_count(r) > MAX_EXHAUSTIVE_PLANS), None)
        if over is not None:
            return (f"--exhaustive --max-r {args.max_r} checks more than "
                    f"{MAX_EXHAUSTIVE_PLANS} plans; use --max-r {over - 1} "
                    f"or less")
    if args.max_r > MAX_CHECK_ARITY:
        reach, power = target.reach
        return (f"--max-r {args.max_r} lets {args.target} "
                f"{reach.format(args.max_r ** power)}, more than "
                f"{MAX_CHECK_ARITY ** power}; use --max-r {MAX_CHECK_ARITY} "
                f"or less")
    return None


def cmd_check(args) -> int:
    bad = _check_args_error(args)
    if bad is not None:
        raise ValueError(bad)
    cases = args.cases if args.cases is not None else DEFAULT_CASES
    target = TARGETS[args.target]
    make = target.mutant if args.mutate else target.make
    # opened before the run, so a path that cannot be written is refused
    # before the first case
    with _output(args.out) as f:
        report = framework.run_check(
            target.kind, make(), args.target, seed=args.seed,
            cases=None if args.exhaustive else cases,
            **dict(zip(target.kind.bounds, (args.max_r, args.max_n))))
        f.writelines(report.json_pieces())
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def cmd_enumerate(args) -> int:
    r = args.r
    if not 2 <= r <= 8:
        raise ValueError(f"leaf count {r} out of range 2..8")
    if args.format in ("dot", "svg") and r > 5:
        raise ValueError(f"the face poset rendering is limited to 5 leaves, got {r}")
    if args.format == "json":
        from . import serialize
        from .trees import enumerate_trees, f_vector
        pieces = serialize.enumeration_pieces(r, f_vector(r), enumerate_trees(r))
    else:
        from . import svg
        pieces = ((svg.hasse_dot if args.format == "dot" else svg.hasse_svg)(r),)
    with _output(args.out) as f:
        f.writelines(pieces)
    return 0


# ---------------------------------------------------------------------------
# compose
# ---------------------------------------------------------------------------

def _json_object(doc, what: str) -> dict:
    if not isinstance(doc, dict):
        raise ValueError(f"the {what} document is not a JSON object")
    return doc


def _read_json(f: Path, what: str):
    """The JSON document in the file f; a ``ValueError`` names ``what``
    when f is no readable file or holds no JSON document."""
    try:    # a directory is an OSError too
        return json.loads(f.read_text())
    except OSError as exc:
        raise ValueError(f"{what} names no readable file: "
                         f"{exc.strerror}") from None
    except ValueError as exc:   # not UTF-8 text, or not JSON
        raise ValueError(f"{what} is not JSON: {exc}") from None


def _load_plan(plan: str) -> dict:
    """The plan in the file ``plan`` with each {"$file": name} node replaced
    by the document it names, relative to the plan's directory.  A file may
    be spliced in many times, but not into itself, directly or through
    others."""
    path = Path(plan)

    def splice(node, open_files: tuple):
        if isinstance(node, dict):
            if "$file" in node:
                name = node["$file"]
                if not isinstance(name, str) or "\0" in name:
                    raise ValueError(f"$file {name!r} is not a file name")
                # realpath, unlike Path.resolve before Python 3.13, raises no
                # RuntimeError on a symlink loop: reading it is an OSError
                f = Path(os.path.realpath(path.parent / name))
                if f in open_files:
                    raise ValueError(f"$file {name!r} splices in itself")
                # "" and "." name the plan's own directory
                return splice(_read_json(f, f"$file {name!r}"), open_files + (f,))
            return {k: splice(v, open_files) for k, v in node.items()}
        if isinstance(node, list):
            return [splice(v, open_files) for v in node]
        return node

    return _json_object(splice(_read_json(path, f"plan {plan!r}"),
                               (path.resolve(),)), "plan")


def _valid(label: str, violation, value):
    """``value``, or a ``ValueError`` naming ``label`` and its first defect."""
    bad = violation(value)
    if bad is not None:
        raise ValueError(f"{label}: {bad}")
    return value


def _decoded(label: str, decode, violation, doc):
    """The valid value ``decode(doc)``; a ``ValueError`` from decoding it
    or a defect names ``label``."""
    try:
        value = decode(doc)
    except ValueError as exc:
        raise ValueError(f"{label}: {exc}") from None
    return _valid(label, violation, value)


def cmd_compose(args) -> int:
    """Each document is decoded and checked before the next one is read,
    in document order, so the first defect in that order is reported."""
    from . import serialize
    from .intervals import interval_compose, interval_violation
    from .strips import strip_compose, strip_violation
    plan = _load_plan(args.plan)
    kind = plan.get("kind")
    field = functools.partial(serialize.key_from_json, plan, what="the plan")
    intervals = (serialize.intervals_from_json, interval_violation)
    strips = (serialize.strip_from_json, strip_violation)
    if kind == "intervals":
        outer = _decoded("outer", *intervals, field("outer"))
        inners = serialize.array_from_json(field("inners"), '"inners"')
        parts = [_decoded(f"inner {k}", *intervals, doc)
                 for k, doc in enumerate(inners, 1)]
        compose, violation = interval_compose, interval_violation
        to_json = serialize.intervals_to_json
    elif kind == "strips":
        outer = _decoded("outer", *strips, field("outer"))
        parts = []
        blocks = serialize.array_from_json(field("blocks"), '"blocks"')
        for i, blk in enumerate(blocks, 1):
            base = _decoded(f"block {i} base", *intervals,
                            serialize.key_from_json(blk, "base", f"block {i}"))
            configs = serialize.array_from_json(blk.get("configs", []), '"configs"')
            parts.append(Block(base, tuple(
                _decoded(f"block {i} configuration {a}", *strips, doc)
                for a, doc in enumerate(configs, 1))))
        compose, violation = strip_compose, strip_violation
        to_json = serialize.strip_to_json
    else:
        raise ValueError(f"unknown plan kind {kind!r} (expected intervals or strips)")
    result = _valid("composed result", violation, compose(outer, parts))
    docs = [(args.out, serialize.dumps(to_json(result)))]
    if args.svg is not None:
        from . import svg
        docs.append((args.svg, svg.render_before_after(outer, result)))
    # a refused --svg removes --out, open until then, and stdout, written
    # last, gets nothing; the flush keeps the SVG whole when --svg names --out
    with contextlib.ExitStack() as stack:
        for out, text in docs if args.out is not None else docs[::-1]:
            f = stack.enter_context(_output(out))
            f.write(text)
            f.flush()
    return 0


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------

def cmd_render(args) -> int:
    from . import serialize, svg
    payload = _json_object(_read_json(Path(args.input), f"input {args.input!r}"),
                           "input")
    if "embeddings" in payload:
        picture = svg.render_intervals(serialize.intervals_from_json(payload))
    elif "shape" in payload:
        picture = svg.render_strip_config(serialize.strip_from_json(payload))
    elif "sheet" in payload:
        picture = svg.render_sheet_element(serialize.sheet_element_from_json(payload))
    elif "x_breaks" in payload:
        picture = svg.render_sheet(serialize.sheet_from_json(payload))
    else:
        raise ValueError("unrecognized input document")
    with _output(args.out) as f:
        f.write(picture)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    ``main`` call; callers must not modify it."""
    parser = argparse.ArgumentParser(
        prog="strips-operad",
        description="Exact operad law checking, enumeration, and rendering.")
    sub = parser.add_subparsers(dest="command", required=True)

    reach = {}      # Target.reach -> the names of the targets with it
    for name, target in TARGETS.items():
        reach.setdefault(target.reach, []).append(name)
    check = sub.add_parser("check", help="fuzz the laws of one instance")
    check.add_argument("target", choices=tuple(TARGETS))
    check.add_argument("--seed", type=int, default=0, help="default 0")
    check.add_argument("--cases", type=int, default=None,
                       help=f"seeded cases (default {DEFAULT_CASES}); "
                            "not with --exhaustive")
    check.add_argument("--max-r", dest="max_r", type=int, default=3,
                       help=f"arity bound, at most {MAX_CHECK_ARITY}; it lets "
                            + " and ".join(
                                f"{'/'.join(names)} {text.format(f'max_r**{power}')}"
                                for (text, power), names in reach.items()))
    check.add_argument("--max-n", dest="max_n", type=int, default=5,
                       help="total rectangle bound for " + "/".join(
                           _targets_with(lambda t: len(t.kind.bounds) > 1)))
    check.add_argument("--mutate", action="store_true",
                       help="check a deliberately broken instance "
                            "(strips_operad.mutants); every target fails at "
                            "the defaults, but a small trees scope can miss "
                            "the mutant")
    check.add_argument("--exhaustive", action="store_true",
                       help="/".join(_targets_with(lambda t: t.exhaustive))
                            + " only: all plans up to the arity bound "
                            f"(at most {MAX_EXHAUSTIVE_PLANS} plans)")
    check.add_argument("--out", default=None, help="report path (default stdout)")
    check.set_defaults(func=cmd_check)

    enum = sub.add_parser("enumerate", help="faces of one associahedron")
    enum.add_argument("r", type=int, help="leaf count, 2..8")
    enum.add_argument("--format", choices=("json", "dot", "svg"),
                      default="json")
    enum.add_argument("--out", default=None)
    enum.set_defaults(func=cmd_enumerate)

    comp = sub.add_parser("compose", help="compose configurations from a plan file")
    comp.add_argument("plan", help="JSON plan document")
    comp.add_argument("--out", default=None)
    comp.add_argument("--svg", default=None,
                      help="write a before/after rendering here")
    comp.set_defaults(func=cmd_compose)

    rend = sub.add_parser("render", help="SVG for a JSON value")
    rend.add_argument("input")
    rend.add_argument("--out", default=None)
    rend.set_defaults(func=cmd_render)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TypeError, KeyError, OSError) as exc:
        bad = exc
    except RecursionError:
        bad = "the input document nests too deeply"
    except OverflowError:
        bad = "a coordinate is too large to draw"
    print(f"error: {bad}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
