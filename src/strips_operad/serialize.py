"""JSON encoding and decoding for every value class in the package.

Rationals are encoded as strings like ``"3/4"`` (or ``"2"`` when integral);
all container encodings are plain dicts/lists so the output of
:func:`dumps` is stable and diff-friendly.
"""
from __future__ import annotations

import json
import math
import re
from fractions import Fraction

from .exact import AffineMap1, AffineMap2, GridSheet, PLPath
from .intervals import IntervalConfig
from .sheets import Loop, PointedMap, SheetElement
from .strips import StripConfig
from .trees import LEAF, PlanarTree


def rat_to_json(x: Fraction) -> str:
    return str(Fraction(x))


def _ratio_text(n: int, d: int) -> str:
    """:func:`rat_to_json` of ``n/d`` for ints with ``d > 0``."""
    g = math.gcd(n, d)
    n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


# the forms rat_to_json writes: digits with an optional minus sign, optionally
# over digits that are not all zero
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]*[1-9][0-9]*))?", re.ASCII)


def rat_from_json(s) -> Fraction:
    """The rational of a JSON int or of a string as :func:`rat_to_json`
    writes it (``"-7/2"``, ``"3"``); any other value, decimals and exponents
    included, is a ``ValueError``.  Digits are read by ``int``, so decoding
    time depends on the length of the string alone."""
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    if isinstance(s, str):
        m = _RATIONAL.fullmatch(s)
        if m is not None:
            num, den = m.groups()
            try:
                return Fraction(int(num), int(den) if den else 1)
            except ValueError:      # more digits than int() will read
                pass
    raise ValueError(f"not a rational: {s!r}")


def point_to_json(p) -> list:
    return [rat_to_json(c) for c in p]


def point_from_json(obj) -> tuple:
    return tuple(rat_from_json(c) for c in obj)


# --- affine maps -----------------------------------------------------------

def affine1_to_json(e: AffineMap1) -> dict:
    return {"a": _ratio_text(e.an, e.d), "c": _ratio_text(e.cn, e.d)}


def affine1_from_json(obj) -> AffineMap1:
    return AffineMap1(rat_from_json(obj["a"]), rat_from_json(obj["c"]))


def affine2_to_json(e: AffineMap2) -> dict:
    x, y = e.x_part, e.y_part
    return {"a": _ratio_text(x.an, x.d), "b": _ratio_text(y.an, y.d),
            "c": _ratio_text(x.cn, x.d), "d": _ratio_text(y.cn, y.d)}


def affine2_from_json(obj) -> AffineMap2:
    return AffineMap2(AffineMap1(rat_from_json(obj["a"]), rat_from_json(obj["c"])),
                      AffineMap1(rat_from_json(obj["b"]), rat_from_json(obj["d"])))


# --- configurations --------------------------------------------------------

def intervals_to_json(config: IntervalConfig) -> dict:
    return {"embeddings": [affine1_to_json(e) for e in config.embeddings]}


def intervals_from_json(obj) -> IntervalConfig:
    return IntervalConfig(tuple(affine1_from_json(e) for e in obj["embeddings"]))


def strip_to_json(config: StripConfig) -> dict:
    return {"shape": list(config.shape),
            "base": intervals_to_json(config.base),
            "rects": [[affine2_to_json(rect) for rect in row]
                      for row in config.rects]}


def strip_from_json(obj) -> StripConfig:
    return StripConfig(tuple(obj["shape"]),
                       intervals_from_json(obj["base"]),
                       tuple(tuple(affine2_from_json(r) for r in row)
                             for row in obj["rects"]))


# --- paths and sheets ------------------------------------------------------

def plpath_to_json(path: PLPath) -> dict:
    return {"breaks": [rat_to_json(t) for t in path.breaks],
            "values": [point_to_json(v) for v in path.values]}


def plpath_from_json(obj) -> PLPath:
    return PLPath(tuple(rat_from_json(t) for t in obj["breaks"]),
                  tuple(point_from_json(v) for v in obj["values"]))


def sheet_to_json(sheet: GridSheet) -> dict:
    return {"x_breaks": [rat_to_json(t) for t in sheet.x_breaks],
            "y_breaks": [rat_to_json(t) for t in sheet.y_breaks],
            "values": [[point_to_json(v) for v in col] for col in sheet.values]}


def sheet_from_json(obj) -> GridSheet:
    return GridSheet(tuple(rat_from_json(t) for t in obj["x_breaks"]),
                     tuple(rat_from_json(t) for t in obj["y_breaks"]),
                     tuple(tuple(point_from_json(v) for v in col)
                           for col in obj["values"]))


def loop_to_json(loop: Loop) -> dict:
    return plpath_to_json(loop.path)


def loop_from_json(obj) -> Loop:
    return Loop(plpath_from_json(obj))


def sheet_element_to_json(elem: SheetElement) -> dict:
    return {"sheet": sheet_to_json(elem.sheet),
            "bottom": loop_to_json(elem.bottom),
            "top": loop_to_json(elem.top)}


def sheet_element_from_json(obj) -> SheetElement:
    return SheetElement(sheet_from_json(obj["sheet"]),
                        loop_from_json(obj["bottom"]),
                        loop_from_json(obj["top"]))


def pointed_map_to_json(f: PointedMap) -> dict:
    return {"matrix": [point_to_json(row) for row in f.matrix],
            "offset": point_to_json(f.offset),
            "dom_base": point_to_json(f.dom_base),
            "cod_base": point_to_json(f.cod_base)}


def pointed_map_from_json(obj) -> PointedMap:
    return PointedMap(tuple(point_from_json(row) for row in obj["matrix"]),
                      point_from_json(obj["offset"]),
                      point_from_json(obj["dom_base"]),
                      point_from_json(obj["cod_base"]))


# --- trees -----------------------------------------------------------------

def tree_to_json(t: PlanarTree) -> list:
    return [tree_to_json(c) for c in t.children]


def tree_from_json(obj) -> PlanarTree:
    if obj == []:
        return LEAF
    return PlanarTree(tuple(tree_from_json(c) for c in obj))


def enumeration_dumps(leaves: int, f_vector, trees) -> str:
    """``dumps`` of an enumeration document, written from text pieces.

    Equal to ``dumps({"leaves": leaves, "f_vector": list(f_vector),
    "total": len(trees), "trees": [tree_to_json(t) for t in trees]})``, but
    no nested lists are built: the indented text of each distinct subtree at
    each nesting depth is formed once per call and joined into its parents.
    Trees are interned, so a subtree is keyed by identity.
    """
    memo = {}

    def text(t: PlanarTree, depth: int) -> str:
        if not t.children:
            return "[]"
        key = (t, depth)
        s = memo.get(key)
        if s is None:
            s = _list_text([text(c, depth + 1) for c in t.children], depth)
            memo[key] = s
        return s

    head = json.dumps({"f_vector": list(f_vector), "leaves": leaves,
                       "total": len(trees)}, sort_keys=True, indent=2)
    body = _list_text([text(t, 2) for t in trees], 1)
    # "trees" sorts after every key of head, so it goes before head's "\n}"
    return f'{head[:-2]},\n  "trees": {body}\n}}\n'


def _list_text(items: list, depth: int) -> str:
    """The ``indent=2`` layout of a list of already-encoded items, for a list
    nested ``depth`` levels deep."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "]"


# --- generic front door ----------------------------------------------------

_ENCODERS = (
    (AffineMap1, affine1_to_json),
    (AffineMap2, affine2_to_json),
    (IntervalConfig, intervals_to_json),
    (StripConfig, strip_to_json),
    (PLPath, plpath_to_json),
    (GridSheet, sheet_to_json),
    (Loop, loop_to_json),
    (SheetElement, sheet_element_to_json),
    (PointedMap, pointed_map_to_json),
    (PlanarTree, tree_to_json),
)


def to_json(obj):
    for cls, enc in _ENCODERS:
        if isinstance(obj, cls):
            return enc(obj)
    raise TypeError(f"no JSON encoding for {type(obj).__name__}")


def dumps(obj) -> str:
    """Deterministic JSON text (sorted keys, two-space indent, newline)."""
    payload = to_json(obj) if not isinstance(obj, (dict, list)) else obj
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
