"""Deterministic SVG pictures of configurations, sheets, and face posets.

Strip configurations are drawn as a unit square above a horizontal interval
bar: full-height bands mark the strips, the rectangles sit inside them, and
the bar below shows the base intervals.  Sheets are drawn as heat grids.
Each coordinate is one correctly rounded int division of stored ints, such
as ``cn / d``, so it is the float of the exact rational.  All output is
plain string assembly — same input, same bytes.
"""
from __future__ import annotations

import math

from .exact import GridSheet, _align
from .intervals import IntervalConfig
from .sheets import SheetElement
from .strips import StripConfig
from .trees import enumerate_trees, one_step_contractions, tree_dim, tree_to_brackets

SQUARE = 360          # pixel size of the unit square
PAD = 24
BAR_H = 16            # interval bar height
GAP = 26              # gap between square and bar

STRIP_FILL = "#d9efd9"
STRIP_EDGE = "#3c8c3c"
RECT_FILL = "#b3ccf5"
RECT_EDGE = "#2a5bb5"
BAR_FILL = "#444444"


def _n(x) -> str:
    return f"{float(x):.2f}"


def _doc(width: int, height: int, body: str) -> str:
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">\n'
            f'<rect width="{width}" height="{height}" fill="white"/>\n'
            f"{body}</svg>\n")


def _rect(x, y, w, h, fill, edge=None) -> str:
    stroke = f' stroke="{edge}" stroke-width="1"' if edge else ""
    return (f'<rect x="{_n(x)}" y="{_n(y)}" width="{_n(w)}" height="{_n(h)}" '
            f'fill="{fill}"{stroke}/>\n')


def _text(x, y, s) -> str:
    return (f'<text x="{_n(x)}" y="{_n(y)}" font-family="monospace" '
            f'font-size="11" text-anchor="middle">{s}</text>\n')


def _bar(config: IntervalConfig, x0: float, y0: float, width: float) -> str:
    body = _rect(x0, y0 + BAR_H / 3, width, BAR_H / 3, "#eeeeee", "#999999")
    for e in config.embeddings:
        body += _rect(x0 + e.cn / e.d * width, y0, e.an / e.d * width,
                      BAR_H, BAR_FILL)
    return body


def render_intervals(config: IntervalConfig) -> str:
    width = SQUARE + 2 * PAD
    body = _bar(config, PAD, PAD, SQUARE)
    return _doc(width, 2 * PAD + BAR_H, body)


def _strip_body(config: StripConfig, x0: float, y0: float) -> str:
    """Square above an interval bar, origin of the square at (x0, y0)."""
    body = _rect(x0, y0, SQUARE, SQUARE, "none", "#888888")
    strips = [(x0 + emb.cn / emb.d * SQUARE, emb.an / emb.d * SQUARE)
              for emb in config.base.embeddings]
    for x, w in strips:
        body += _rect(x, y0, w, SQUARE, STRIP_FILL, STRIP_EDGE)
    for (x, w), row in zip(strips, config.rects):
        for r in row:
            body += _rect(x, y0 + (1.0 - (r.an + r.cn) / r.d) * SQUARE, w,
                          r.an / r.d * SQUARE, RECT_FILL, RECT_EDGE)
    body += _bar(config.base, x0, y0 + SQUARE + GAP, SQUARE)
    return body


def render_strip_config(config: StripConfig) -> str:
    width = SQUARE + 2 * PAD
    height = SQUARE + GAP + BAR_H + 2 * PAD
    return _doc(width, height, _strip_body(config, PAD, PAD))


def render_before_after(before, after) -> str:
    """Two configurations side by side (interval or strip)."""
    def panel(config, x0):
        if isinstance(config, StripConfig):
            return _strip_body(config, x0, PAD + 18)
        return _bar(config, x0, PAD + 18 + SQUARE + GAP, SQUARE)

    width = 2 * SQUARE + 3 * PAD
    height = SQUARE + GAP + BAR_H + 2 * PAD + 18
    body = _text(PAD + SQUARE / 2, PAD + 6, "input")
    body += _text(2 * PAD + SQUARE + SQUARE / 2, PAD + 6, "composed")
    body += panel(before, PAD)
    body += panel(after, 2 * PAD + SQUARE)
    return _doc(width, height, body)


# ---------------------------------------------------------------------------
# sheet heat grids
# ---------------------------------------------------------------------------

def _ramp(t: float) -> str:
    """Blue-to-orange ramp, t in [0, 1]."""
    lo = (43, 108, 176)
    hi = (221, 107, 32)
    rgb = tuple(round(a + (b - a) * t) for a, b in zip(lo, hi))
    return f"rgb({rgb[0]},{rgb[1]},{rgb[2]})"


def render_sheet(sheet: GridSheet) -> str:
    """A heat grid of the first coordinate, one cell per cell of the
    minimal product grid."""
    width = SQUARE + 2 * PAD
    height = SQUARE + 2 * PAD
    if sheet.dim == 0:
        body = _rect(PAD, PAD, SQUARE, SQUARE, "#cccccc", "#888888")
        return _doc(width, height, body)
    xs = sheet._x
    ys, read = _align(sheet._c)
    m = math.lcm(*[vm for _, vm in read])
    vals = [[v[0] * (m // vm) for v in col] for col, vm in read]
    xm, ym = xs[-1], ys[-1]
    flat = [c for col in vals for c in col]
    lo, hi = min(flat), max(flat)
    span = hi - lo
    body = ""
    for ix in range(len(xs) - 1):
        left, right = vals[ix], vals[ix + 1]
        for iy in range(len(ys) - 1):
            total = left[iy] + right[iy] + left[iy + 1] + right[iy + 1]
            t = 0.5 if span == 0 else (total - 4 * lo) / (4 * span)
            x = PAD + xs[ix] / xm * SQUARE
            w = (xs[ix + 1] - xs[ix]) / xm * SQUARE
            y = PAD + (1.0 - ys[iy + 1] / ym) * SQUARE
            h = (ys[iy + 1] - ys[iy]) / ym * SQUARE
            body += _rect(x, y, w, h, _ramp(t))
    for t in xs:
        x = PAD + t / xm * SQUARE
        body += (f'<line x1="{_n(x)}" y1="{PAD}" x2="{_n(x)}" '
                 f'y2="{PAD + SQUARE}" stroke="white" stroke-width="0.5"/>\n')
    for t in ys:
        y = PAD + (1.0 - t / ym) * SQUARE
        body += (f'<line x1="{PAD}" y1="{_n(y)}" x2="{PAD + SQUARE}" '
                 f'y2="{_n(y)}" stroke="white" stroke-width="0.5"/>\n')
    body += _rect(PAD, PAD, SQUARE, SQUARE, "none", "#888888")
    return _doc(width, height, body)


def render_sheet_element(elem: SheetElement) -> str:
    return render_sheet(elem.sheet)


# ---------------------------------------------------------------------------
# face posets
# ---------------------------------------------------------------------------

def _hasse_edges(trees) -> list:
    index = {t: k for k, t in enumerate(trees)}
    edges = []
    for t in trees:
        for u in set(one_step_contractions(t)):
            edges.append((index[t], index[u]))
    return sorted(edges)


def hasse_dot(r: int) -> str:
    """The face poset as a DOT graph, edges pointing at the contraction."""
    trees = enumerate_trees(r)
    lines = ["digraph faces {", "  rankdir=BT;",
             '  node [shape=box, fontname="monospace"];']
    for k, t in enumerate(trees):
        lines.append(f'  n{k} [label="{tree_to_brackets(t)}"];')
    for a, b in _hasse_edges(trees):
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def hasse_svg(r: int) -> str:
    trees = enumerate_trees(r)
    levels: dict = {}
    for k, t in enumerate(trees):
        levels.setdefault(tree_dim(t), []).append(k)
    n_levels = max(levels) + 1
    widest = max(len(v) for v in levels.values())
    cell_w = 30 + 12 * (2 * r)
    width = widest * cell_w + 2 * PAD
    height = n_levels * 80 + 2 * PAD
    pos = {}
    for d, ks in levels.items():
        y = height - PAD - d * 80 - 40
        step = (width - 2 * PAD) / len(ks)
        for col, k in enumerate(ks):
            pos[k] = (PAD + step * (col + 0.5), y)
    body = ""
    for a, b in _hasse_edges(trees):
        (xa, ya), (xb, yb) = pos[a], pos[b]
        body += (f'<line x1="{_n(xa)}" y1="{_n(ya - 8)}" x2="{_n(xb)}" '
                 f'y2="{_n(yb + 8)}" stroke="#aaaaaa"/>\n')
    for k, t in enumerate(trees):
        x, y = pos[k]
        label = tree_to_brackets(t)
        w = 8 + 7 * len(label)
        body += _rect(x - w / 2, y - 10, w, 16, "#f5f5f5", "#666666")
        body += _text(x, y + 2, label)
    return _doc(int(width), int(height), body)
