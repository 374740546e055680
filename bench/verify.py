"""Checks of op outputs that do not use the code under test.

Composites are recomputed by :mod:`workloads` with plain ``Fraction`` affine
composition; face counts of the associahedra are fixed numbers; SVG is only
required to parse with ``xml.etree``.  Each check returns ``None`` when the
output is right and a one-line reason when it is not.
"""
from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

# Faces of the (r-2)-dimensional associahedron by dimension, r = 2..8 leaves;
# the totals are the little Schroeder numbers 1, 3, 11, 45, 197, 903, 4279.
F_VECTORS = {
    2: (1,),
    3: (2, 1),
    4: (5, 5, 1),
    5: (14, 21, 9, 1),
    6: (42, 84, 56, 14, 1),
    7: (132, 330, 300, 120, 20, 1),
    8: (429, 1287, 1485, 825, 225, 27, 1),
}


def _rats(obj):
    """Parse every rational string in a JSON value to Fraction."""
    if isinstance(obj, dict):
        return {k: _rats(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_rats(v) for v in obj]
    if isinstance(obj, str):
        return Fraction(obj)
    return obj


def check_report(path: Path, instance: str, cases: int):
    doc = json.loads(path.read_text())
    if doc.get("ok") is not True:
        return f"report not ok: {len(doc.get('failures', []))} failures"
    if doc.get("cases_run") != cases:
        return f"cases_run {doc.get('cases_run')}, asked for {cases}"
    if doc.get("instance") != instance:
        return f"instance {doc.get('instance')!r}, expected {instance!r}"
    return None


def check_svg(path: Path):
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        return f"SVG does not parse: {exc}"
    if not root.tag.endswith("svg"):
        return f"root element {root.tag!r} is not svg"
    return None


def check_compose(path: Path, svg_path: Path, want: dict):
    got = json.loads(path.read_text())
    if "shape" in want:
        if got.get("shape") != want["shape"]:
            return f"shape {got.get('shape')}, expected {want['shape']}"
        got, want = ({"base": d["base"], "rects": d["rects"]} for d in (got, want))
    if _rats(got) != _rats(want):
        return "composite differs from the affine recomputation"
    return check_svg(svg_path)


def _leaves(tree) -> int:
    return 1 if tree == [] else sum(_leaves(c) for c in tree)


def _tree_dim(tree) -> int:
    if tree == []:
        return 0
    if len(tree) < 2:
        raise ValueError("unary vertex")
    return len(tree) - 2 + sum(_tree_dim(c) for c in tree)


def check_enumerate(path: Path, r: int):
    doc = json.loads(path.read_text())
    want = F_VECTORS[r]
    if doc.get("leaves") != r or doc.get("total") != sum(want):
        return f"leaves {doc.get('leaves')} total {doc.get('total')}, expected {r}, {sum(want)}"
    if tuple(doc.get("f_vector", ())) != want:
        return f"f-vector {doc.get('f_vector')}, expected {list(want)}"
    trees = doc.get("trees", [])
    if len({json.dumps(t) for t in trees}) != sum(want):
        return f"{len(trees)} trees listed, not {sum(want)} distinct ones"
    counts = [0] * len(want)
    for t in trees:
        if _leaves(t) != r:
            return f"tree with {_leaves(t)} leaves in the r = {r} list"
        try:
            counts[_tree_dim(t)] += 1
        except ValueError as exc:
            return f"tree with a {exc}"
    if tuple(counts) != want:
        return f"listed trees have f-vector {counts}, expected {list(want)}"
    return None


def check_op(workdir: Path, expect: dict):
    """Verify one finished op's output files; None when correct."""
    kind = expect["kind"]
    out = workdir / expect["out"]
    if not out.exists():
        return f"no output file {expect['out']}"
    try:
        if kind == "report":
            return check_report(out, expect["instance"], expect["cases"])
        if kind == "svg":
            return check_svg(out)
        if kind == "compose":
            return check_compose(out, workdir / expect["svg"], expect["want"])
        if kind == "enumerate":
            return check_enumerate(out, expect["r"])
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return f"malformed output: {exc!r}"
    raise ValueError(f"unknown expectation {kind!r}")
