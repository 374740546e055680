"""JSON encoding and decoding for the value classes of the package (trees
are only encoded).

Rationals are encoded as strings like ``"3/4"`` (or ``"2"`` when integral);
all container encodings are plain dicts/lists so the output of
:func:`dumps` is stable and diff-friendly.  Decoders refuse, naming the node
or key, a non-array where an array belongs and a non-object or missing key.
Maps, paths and sheets are decoded with no ``Fraction``: each rational is read
as a reduced int pair, checked and stored as the public constructors do.
"""
from __future__ import annotations

import json
import math
import re
from fractions import Fraction

from .exact import AffineMap1, GridSheet, PLPath, _init_affine1, _init_path, _init_sheet
from .intervals import IntervalConfig
from .sheets import Loop, PointedMap, SheetElement
from .strips import StripConfig
from .trees import PlanarTree


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


def _ratio(s) -> tuple[int, int]:
    """The rational of a JSON int or of a string as :func:`rat_to_json`
    writes it (``"-7/2"``, ``"3"``), as a reduced pair ``(n, d)`` with ``d >
    0``; any other value, decimals and exponents included, is a
    ``ValueError``.  Digits are read by ``int``, so decoding time depends on
    the length of the string alone."""
    if isinstance(s, str):
        m = _RATIONAL.fullmatch(s)
        if m is not None:
            num, den = m.groups()
            try:
                n, d = int(num), int(den) if den else 1
            except ValueError:      # more digits than int() will read
                pass
            else:
                g = math.gcd(n, d)
                return n // g, d // g
    elif isinstance(s, int) and not isinstance(s, bool):
        return s, 1
    raise ValueError(f"not a rational: {s!r}")


def rat_from_json(s) -> Fraction:
    """The ``Fraction`` of :func:`_ratio`."""
    return Fraction(*_ratio(s))


def array_from_json(obj, what: str) -> list:
    """``obj`` if it is a JSON array, else a ``ValueError`` naming ``what``."""
    if type(obj) is not list:
        raise ValueError(f"{what} is not a JSON array")
    return obj


def key_from_json(obj, key: str, what: str):
    """``obj[key]``; a ``ValueError`` names ``what`` if it is not a JSON
    object, or the key if it is missing."""
    if type(obj) is not dict:
        raise ValueError(f"{what} is not a JSON object")
    if key not in obj:
        raise ValueError(f'missing key "{key}"')
    return obj[key]


def point_to_json(p) -> list:
    return [rat_to_json(c) for c in p]


def point_from_json(obj) -> tuple:
    return tuple(rat_from_json(c) for c in array_from_json(obj, "a point"))


def _point_ratios(obj) -> list:
    return [_ratio(c) for c in array_from_json(obj, "a point")]


# --- affine maps -----------------------------------------------------------

def affine1_to_json(e: AffineMap1) -> dict:
    return {"a": _ratio_text(e.an, e.d), "c": _ratio_text(e.cn, e.d)}


def affine1_from_json(obj) -> AffineMap1:
    return _embedding(obj, "a", "c")


def _embedding(obj, a: str, c: str) -> AffineMap1:
    """The map with scale ``obj[a]`` and offset ``obj[c]``."""
    return _init_affine1(_ratio(key_from_json(obj, a, "an embedding")),
                         _ratio(key_from_json(obj, c, "an embedding")))


# --- configurations --------------------------------------------------------

def intervals_to_json(config: IntervalConfig) -> dict:
    return {"embeddings": [affine1_to_json(e) for e in config.embeddings]}


def intervals_from_json(obj) -> IntervalConfig:
    embeddings = key_from_json(obj, "embeddings", "an interval configuration")
    return IntervalConfig(tuple(affine1_from_json(e) for e in
                                array_from_json(embeddings, '"embeddings"')))


def strip_to_json(config: StripConfig) -> dict:
    """Each rectangle as ``{"a", "c"}``, its strip's embedding across, and
    ``{"b", "d"}``, its own vertical embedding."""
    base = intervals_to_json(config.base)
    return {"shape": list(config.shape),
            "base": base,
            "rects": [[dict(x, b=_ratio_text(y.an, y.d), d=_ratio_text(y.cn, y.d))
                       for y in row]
                      for x, row in zip(base["embeddings"], config.rects)]}


def strip_from_json(obj) -> StripConfig:
    """The configuration of a :func:`strip_to_json` document; a rectangle
    whose ``"a"`` and ``"c"`` are not its strip's embedding is a
    ``ValueError``."""
    what = "a strip configuration"
    shape = tuple(array_from_json(key_from_json(obj, "shape", what), '"shape"'))
    base = intervals_from_json(key_from_json(obj, "base", what))
    rows = [[(affine1_from_json(r),     # a rectangle embeds the square
              _embedding(r, "b", "d"))
             for r in array_from_json(row, 'a row of "rects"')]
            for row in array_from_json(key_from_json(obj, "rects", what), '"rects"')]
    config = StripConfig(shape, base,
                         tuple(tuple(y for _, y in row) for row in rows))
    for i, (emb, row) in enumerate(zip(base.embeddings, rows), 1):
        for j, (x, _) in enumerate(row, 1):
            if x != emb:
                raise ValueError(
                    f"rectangle ({i}, {j}) is not aligned with strip {i}")
    return config


# --- paths and sheets ------------------------------------------------------

def plpath_to_json(path: PLPath) -> dict:
    return {"breaks": [rat_to_json(t) for t in path.breaks],
            "values": [point_to_json(v) for v in path.values]}


def plpath_from_json(obj) -> PLPath:
    breaks, values = (array_from_json(key_from_json(obj, k, "a path"), f'"{k}"')
                      for k in ("breaks", "values"))
    return _init_path([_ratio(t) for t in breaks],
                      [_point_ratios(v) for v in values])


def sheet_to_json(sheet: GridSheet) -> dict:
    return {"x_breaks": [rat_to_json(t) for t in sheet.x_breaks],
            "y_breaks": [rat_to_json(t) for t in sheet.y_breaks],
            "values": [[point_to_json(v) for v in col] for col in sheet.values]}


def sheet_from_json(obj) -> GridSheet:
    xb, yb, values = (array_from_json(key_from_json(obj, k, "a sheet"), f'"{k}"')
                      for k in ("x_breaks", "y_breaks", "values"))
    return _init_sheet([_ratio(t) for t in xb], [_ratio(t) for t in yb],
                       [[_point_ratios(v)
                         for v in array_from_json(col, 'a column of "values"')]
                        for col in values])


def loop_to_json(loop: Loop) -> dict:
    return plpath_to_json(loop.path)


def loop_from_json(obj) -> Loop:
    return Loop(plpath_from_json(obj))


def sheet_element_to_json(elem: SheetElement) -> dict:
    return {"sheet": sheet_to_json(elem.sheet),
            "bottom": loop_to_json(elem.bottom),
            "top": loop_to_json(elem.top)}


def sheet_element_from_json(obj) -> SheetElement:
    return SheetElement(sheet_from_json(key_from_json(obj, "sheet", "a sheet element")),
                        loop_from_json(key_from_json(obj, "bottom", "a sheet element")),
                        loop_from_json(key_from_json(obj, "top", "a sheet element")))


def pointed_map_to_json(f: PointedMap) -> dict:
    return {"matrix": [point_to_json(row) for row in f.matrix],
            "dom_base": point_to_json(f.dom_base),
            "cod_base": point_to_json(f.cod_base)}


def pointed_map_from_json(obj) -> PointedMap:
    matrix = array_from_json(key_from_json(obj, "matrix", "a pointed map"), '"matrix"')
    return PointedMap(tuple(point_from_json(row) for row in matrix),
                      point_from_json(key_from_json(obj, "dom_base", "a pointed map")),
                      point_from_json(key_from_json(obj, "cod_base", "a pointed map")))


# --- trees -----------------------------------------------------------------

def tree_to_json(t: PlanarTree) -> list:
    return [tree_to_json(c) for c in t.children]


def enumeration_pieces(leaves: int, f_vector, trees):
    """The text of an enumeration document, as a generator of pieces.

    Joined, the pieces equal ``dumps({"leaves": leaves, "f_vector":
    list(f_vector), "total": len(trees), "trees": [tree_to_json(t) for t in
    trees]})``, but no nested lists and no whole document are built: the head
    comes first, then each listed tree's indented text as soon as it is
    formed, then the tail.  The text of each distinct proper subtree at each
    nesting depth is formed once per call and joined into its parents; the
    listed trees themselves are not kept.  Trees are interned, so a subtree
    is keyed by identity.
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
    # "trees" sorts after every key of head, so it goes before head's "\n}"
    yield f'{head[:-2]},\n  "trees": ['
    sep = "\n    "
    for t in trees:
        yield sep
        yield _list_text([text(c, 3) for c in t.children], 2)
        sep = ",\n    "
    yield "\n  ]\n}\n" if trees else "]\n}\n"


def _list_text(items: list, depth: int) -> str:
    """The ``indent=2`` layout of a list of already-encoded items, for a list
    nested ``depth`` levels deep."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "]"


# --- output ----------------------------------------------------------------

def dumps(payload) -> str:
    """Deterministic JSON text (sorted keys, two-space indent, newline) of
    an encoded document."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
