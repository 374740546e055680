"""Loops and sheets over a pointed affine map, and the strip actions on them.

Fix an affine map f from one rational affine space to another carrying a
basepoint q to a basepoint p.  The carriers here are piecewise-linear loops at
q in the source space; over them sit *sheet elements*: grid-bilinear squares
in the target space whose bottom and top edges are the images under f of two
such loops and whose left and right edges are constantly p.  Paths and sheets
are stored in their minimal form (:mod:`strips_operad.exact`), so ``==`` on
loops and sheet elements is equality of functions.

An interval configuration acts on a list of loops by playing each loop inside
its interval and resting at q elsewhere.  A strip configuration acts on chains
of sheet elements (one chain per strip, matched end-to-start; a bare loop for
an empty strip) by inserting each sheet into its rectangle, filling the rest
of its strip with the junction loops pushed through f, and filling columns
outside all strips with p.
"""
from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Optional, Sequence

from .exact import (ONE, ZERO, GridSheet, PLPath, _path, _sheet, as_point,
                    grid_lines, lerp, locate, scaled_by)
from .framework import AlgebraInstance, ChainError
from .intervals import IntervalConfig
from .strips import StripConfig


@dataclass(frozen=True)
class PointedMap:
    """Affine map between rational affine spaces with chosen basepoints.

    ``matrix`` has one row per output coordinate; ``apply(v) = matrix·v +
    offset``, where the offset is fixed by carrying the source basepoint to
    the target one."""

    matrix: tuple
    dom_base: tuple
    cod_base: tuple
    offset: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        matrix = tuple(as_point(row) for row in self.matrix)
        dom = as_point(self.dom_base)
        cod = as_point(self.cod_base)
        if len(matrix) != len(cod):
            raise ValueError("matrix rows must match the target dimension")
        if any(len(row) != len(dom) for row in matrix):
            raise ValueError("matrix columns must match the source dimension")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "dom_base", dom)
        object.__setattr__(self, "cod_base", cod)
        object.__setattr__(self, "offset", tuple(
            c - sum(a * x for a, x in zip(row, dom))
            for row, c in zip(matrix, cod)))

    @property
    def dim_in(self) -> int:
        return len(self.dom_base)

    @property
    def dim_out(self) -> int:
        return len(self.cod_base)

    def apply(self, point) -> tuple:
        """``matrix·point + offset``; each coordinate is summed over one
        common denominator and reduced once."""
        point = [(x.numerator, x.denominator) for x in as_point(point)]
        out = []
        for row, b in zip(self.matrix, self.offset):
            num, den = b.numerator, b.denominator
            for a, (xn, xd) in zip(row, point):
                tn = a.numerator * xn
                if tn:
                    td = a.denominator * xd
                    num, den = num * td + tn * den, den * td
            out.append(Fraction(num, den))
        return tuple(out)


@dataclass(frozen=True)
class Loop:
    """A closed PL path."""

    path: PLPath

    def __post_init__(self):
        if self.path.values[0] != self.path.values[-1]:
            raise ValueError("a loop must end where it starts")

    @property
    def basepoint(self) -> tuple:
        return self.path.values[0]

    @property
    def dim(self) -> int:
        return self.path.dim

    def at(self, t) -> tuple:
        return self.path.at(t)


def constant_loop(basepoint) -> Loop:
    v = as_point(basepoint)
    return Loop(PLPath((ZERO, ONE), (v, v)))


@dataclass(frozen=True)
class SheetElement:
    """A sheet with its two boundary loops."""

    sheet: GridSheet
    bottom: Loop
    top: Loop


def push_loop(f: PointedMap, loop: Loop) -> PLPath:
    """The loop carried into the target space.

    Each (map, loop) pair is pushed once: the result is kept on the loop,
    outside its fields, keyed by the identity of the map.  The entry holds
    the map itself, so that identity cannot pass to another map while the
    entry lives.
    """
    memo = loop.__dict__.setdefault("_pushed", {})
    hit = memo.get(id(f))
    if hit is None:
        hit = memo[id(f)] = (f, _path(loop.path.breaks, tuple(
            f.apply(v) for v in loop.path.values)))
    return hit[1]


# ---------------------------------------------------------------------------
# actions
# ---------------------------------------------------------------------------

def _check_spans(spans: Sequence, what: str, direction: str,
                 where: str = "") -> None:
    """Raise unless each span of Fractions lies in [0, 1] and ends no later
    than the next one starts."""
    for k, (lo, hi) in enumerate(spans):
        if lo.numerator < 0 or hi.numerator > hi.denominator:
            raise ValueError(f"{where}{what} {k + 1} image [{lo}, {hi}] "
                             f"leaves [0, 1]")
        if k and lo < spans[k - 1][1]:
            raise ValueError(
                f"{where}{what}s must run {direction} without overlapping: "
                f"{what} {k + 1} starts at {lo}, before {what} {k} "
                f"ends at {spans[k - 1][1]}")


def act_on_loops(config: IntervalConfig, loops: Sequence[Loop]) -> Loop:
    """Play loop i inside interval i, rest at the basepoint elsewhere.

    The intervals must lie in [0, 1] and run left to right (each ends no
    later than the next starts); otherwise ``ValueError``.  The loops are
    spliced directly: the result breaks at 0, 1 and the image of every loop
    breakpoint, and takes the loop's own value there, or the basepoint
    outside every interval.
    """
    if len(loops) != config.arity:
        raise ValueError(f"{config.arity} intervals need {config.arity} loops, "
                         f"got {len(loops)}")
    dims = {loop.dim for loop in loops}
    if len(dims) > 1:
        raise ValueError("loops live in different dimensions")
    basepoints = {loop.basepoint for loop in loops}
    if len(basepoints) > 1:
        raise ValueError("loops must share a basepoint")
    spans = config.images()
    _check_spans(spans, "interval", "left to right")
    q = loops[0].basepoint
    # every loop starts and ends at q, so a point shared by two neighbouring
    # intervals, or by an interval and 0 or 1, has the value q on both sides;
    # inside one interval the images of the breaks strictly increase
    breaks, values = [ZERO], [q]
    for loop, emb, (lo, _) in zip(loops, config.embeddings, spans):
        start = 1 if lo == breaks[-1] else 0
        breaks.extend([emb(t) for t in loop.path.breaks[start:]])
        values.extend(loop.path.values[start:])
    if breaks[-1] != ONE:
        breaks.append(ONE)
        values.append(q)
    return Loop(_path(tuple(breaks), tuple(values)))


def _column_plan(ys: list, sheet_ys: list) -> tuple:
    """How to read each output height in one strip, the same for every column.

    ``ys`` are the output heights and ``sheet_ys[j]`` the heights of the
    y-lines of rectangle j's sheet, bottom to top, all as ints over one
    denominator.  Entry ``(j, k, w)``: inside rectangle j, at ``w = (num,
    den)`` of the way from the sheet's y-line k to line k+1 (on line k when w
    is None).  Entry ``(None, g, None)``: in the gap above the first g
    rectangles, where the value is junction loop g.  A height y is placed by
    one bisection, ``j = bisect_left(tops, y)``: it is in rectangle j when
    that rectangle starts at or below y, else in gap j, so a height on the
    edge shared by two rectangles belongs to the lower one.
    """
    bottoms = [lines[0] for lines in sheet_ys]
    tops = [lines[-1] for lines in sheet_ys]
    plan = []
    for y in ys:
        j = bisect_left(tops, y)
        if j < len(tops) and bottoms[j] <= y:
            plan.append((j, *locate(sheet_ys[j], y)))
        else:
            plan.append((None, j, None))
    return tuple(plan)


def act_on_sheets(f: PointedMap, config: StripConfig,
                  inputs: Sequence) -> SheetElement:
    """Assemble one sheet element from a chain of them per strip.

    ``inputs[i]`` is a sequence of ``shape[i]`` elements whose loops chain
    end-to-start (the top loop of each equals the bottom loop of the next),
    or a single :class:`Loop` when strip i is empty.

    The strips must lie in [0, 1] and run left to right, and the rectangles
    of each strip must lie in [0, 1] and run bottom to top, each ending no
    later than the next starts; otherwise ``ValueError``.  A point on an edge
    shared by two strips or two rectangles belongs to the left or lower one.

    The output grid lines are the images of every input breakpoint, scaled
    to ints over one denominator per axis, so every lookup is a bisection on
    ints (:func:`~strips_operad.exact.locate`) and no column inverts a map.
    Each strip takes the x-lines from its left edge to its right one, less
    any an earlier strip took; each junction path and each rectangle's sheet
    is read at those columns through the images of its own breaks.  Each
    sheet is read once per column along its own y-lines, and the
    rectangle's heights are filled from that line with one interpolation in
    y each, by a plan made once per strip.  Between rectangles a column
    takes the junction loop pushed through f (:func:`push_loop` pushes each
    loop once per map).  Coordinates that fall on a breakpoint are read
    without interpolating.
    """
    r = config.arity
    if len(inputs) != r:
        raise ValueError(f"{r} strips need {r} inputs, got {len(inputs)}")
    q, p = f.dom_base, f.cod_base

    junctions = []   # per strip: n_i + 1 loops (bottom of the stack upward)
    chains = []      # per strip: the sheet elements themselves
    for i, (n, inp) in enumerate(zip(config.shape, inputs)):
        if n == 0:
            if not isinstance(inp, Loop):
                raise ChainError(f"strip {i + 1} is empty and takes a single loop")
            junctions.append((inp,))
            chains.append(())
            continue
        if isinstance(inp, (Loop, SheetElement)):
            raise ChainError(f"strip {i + 1} takes a sequence of {n} elements")
        elems = tuple(inp)
        if len(elems) != n:
            raise ChainError(f"strip {i + 1} takes {n} chained elements, "
                             f"got {len(elems)}")
        for a in range(n - 1):
            if elems[a].top != elems[a + 1].bottom:
                raise ChainError(
                    f"strip {i + 1}: top loop of element {a + 1} differs from "
                    f"bottom loop of element {a + 2}")
        junctions.append((elems[0].bottom,) + tuple(e.top for e in elems))
        chains.append(elems)

    for i, loops in enumerate(junctions):
        for loop in loops:
            if loop.dim != f.dim_in:
                raise ValueError(f"strip {i + 1}: loop dimension {loop.dim} "
                                 f"does not match the map source {f.dim_in}")
            if loop.basepoint != q:
                raise ValueError(f"strip {i + 1}: loop based at {loop.basepoint}, "
                                 f"expected {q}")
    for i, elems in enumerate(chains):
        for e in elems:
            if e.sheet.dim != f.dim_out:
                raise ValueError(f"strip {i + 1}: sheet dimension {e.sheet.dim} "
                                 f"does not match the map target {f.dim_out}")

    spans = config.base.images()
    _check_spans(spans, "strip", "left to right")
    for i, rects in enumerate(config.rects):
        _check_spans(tuple(rect.image() for rect in rects),
                     "rectangle", "bottom to top", f"strip {i + 1}: ")

    # grid lines, with the images of each sheet's breaks kept per rectangle
    embs = config.base.embeddings
    x_pts, y_pts = [ZERO, ONE], [ZERO, ONE]
    x_images, y_images = [], []      # per strip, per rectangle
    for i in range(r):
        x_pts.extend(spans[i])
        for loop in junctions[i]:
            x_pts.extend([embs[i](t) for t in loop.path.breaks])
        x_images.append([[embs[i](t) for t in elem.sheet.x_breaks]
                         for elem in chains[i]])
        y_images.append([[rect(t) for t in elem.sheet.y_breaks]
                         for elem, rect in zip(chains[i], config.rects[i])])
        for images in x_images[i]:
            x_pts.extend(images)
        for images in y_images[i]:
            y_pts.extend(images)
    xs, x_ints, xm = grid_lines(x_pts)
    ys, y_ints, ym = grid_lines(y_pts)

    outside = tuple(p for _ in ys)
    values = []
    done = 0
    for i, span in enumerate(spans):
        lo, hi = scaled_by(xm, span)
        a = max(done, bisect_left(x_ints, lo))
        b = bisect_right(x_ints, hi, a)
        values.extend(outside for _ in range(done, a))
        done = b
        cols = x_ints[a:b]
        plan = _column_plan(y_ints, [scaled_by(ym, images)
                                     for images in y_images[i]])
        # the junction loops the plan reads, pushed through f (exact, since f
        # is affine), and their values along the strip's columns
        gaps = {}
        for j, g, _ in plan:
            if j is None and g not in gaps:
                path = push_loop(f, junctions[i][g])
                pv = path.values
                breaks = scaled_by(xm, [embs[i](t) for t in path.breaks])
                gaps[g] = [pv[k] if w is None else lerp(pv[k], pv[k + 1], *w)
                           for k, w in [locate(breaks, x) for x in cols]]
        # each rectangle's sheet along its own y-lines, one line per column
        lines = []
        for elem, images in zip(chains[i], x_images[i]):
            sv = elem.sheet.values
            breaks = scaled_by(xm, images)
            lines.append([sv[k] if w is None else
                          tuple([lerp(v0, v1, *w)
                                 for v0, v1 in zip(sv[k], sv[k + 1])])
                          for k, w in [locate(breaks, x) for x in cols]])
        for c in range(b - a):
            col = []
            for j, k, w in plan:
                if j is None:
                    col.append(gaps[k][c])
                else:
                    line = lines[j][c]
                    col.append(line[k] if w is None else
                               lerp(line[k], line[k + 1], *w))
            values.append(tuple(col))
    values.extend(outside for _ in range(done, len(xs)))

    bottom = act_on_loops(config.base, tuple(j[0] for j in junctions))
    top = act_on_loops(config.base, tuple(j[-1] for j in junctions))
    return SheetElement(_sheet(xs, ys, tuple(values)), bottom, top)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def sheet_violation(f: PointedMap, elem: SheetElement) -> Optional[str]:
    """First broken boundary condition, or None when the element is valid.

    Checked in order: dimensions, loop basepoints, constant-p left and right
    edges, bottom edge against the mapped bottom loop, top edge against the
    mapped top loop.
    """
    if elem.bottom.dim != f.dim_in:
        return f"bottom loop dimension {elem.bottom.dim}, expected {f.dim_in}"
    if elem.top.dim != f.dim_in:
        return f"top loop dimension {elem.top.dim}, expected {f.dim_in}"
    if elem.sheet.dim != f.dim_out:
        return f"sheet dimension {elem.sheet.dim}, expected {f.dim_out}"
    if elem.bottom.basepoint != f.dom_base:
        return f"bottom loop based at {elem.bottom.basepoint}, expected {f.dom_base}"
    if elem.top.basepoint != f.dom_base:
        return f"top loop based at {elem.top.basepoint}, expected {f.dom_base}"
    p = f.cod_base
    sheet = elem.sheet
    for edge, ix in (("left", 0), ("right", len(sheet.x_breaks) - 1)):
        for iy, v in enumerate(sheet.values[ix]):
            if v != p:
                return (f"{edge} edge value {v} at height {sheet.y_breaks[iy]}, "
                        f"expected the basepoint {p}")
    if sheet.bottom_edge() != push_loop(f, elem.bottom):
        return "bottom edge differs from the mapped bottom loop"
    if sheet.top_edge() != push_loop(f, elem.top):
        return "top edge differs from the mapped top loop"
    return None


# ---------------------------------------------------------------------------
# random elements
# ---------------------------------------------------------------------------

GRID = 16


def random_point(rng: random.Random, dim: int, spread: int = 8) -> tuple:
    return tuple(Fraction(rng.randint(-spread, spread), rng.choice((1, 2, 4)))
                 for _ in range(dim))


MAX_INTERIOR = 2    # interior breakpoints of a random loop, at most


def random_loop(rng: random.Random, dim: int, basepoint) -> Loop:
    base = as_point(basepoint)
    k = rng.randint(0, MAX_INTERIOR)
    interior = sorted(rng.sample([Fraction(i, GRID) for i in range(1, GRID)], k))
    values = (base,) + tuple(random_point(rng, dim) for _ in interior) + (base,)
    return Loop(PLPath((ZERO, *interior, ONE), values))


def random_sheet_element(f: PointedMap, rng: random.Random,
                         source: Optional[Loop] = None) -> SheetElement:
    bottom = source if source is not None else random_loop(rng, f.dim_in, f.dom_base)
    top = random_loop(rng, f.dim_in, f.dom_base)
    xs = tuple(sorted({ZERO, ONE}
                      | set(bottom.path.breaks) | set(top.path.breaks)
                      | {Fraction(rng.randint(1, GRID - 1), GRID)}))
    ys = (ZERO, Fraction(rng.randint(1, GRID - 1), GRID), ONE)
    p = f.cod_base
    cols = []
    for x in xs:
        inner = p if x in (ZERO, ONE) else random_point(rng, f.dim_out)
        cols.append((f.apply(bottom.at(x)), inner, f.apply(top.at(x))))
    return SheetElement(GridSheet(xs, ys, tuple(cols)), bottom, top)


def random_pointed_map(rng: random.Random, dim_in: int, dim_out: int) -> PointedMap:
    matrix = tuple(tuple(Fraction(rng.randint(-2, 2), rng.choice((1, 2)))
                         for _ in range(dim_in))
                   for _ in range(dim_out))
    return PointedMap(matrix, random_point(rng, dim_in, spread=4),
                      random_point(rng, dim_out, spread=4))


# ---------------------------------------------------------------------------
# the algebra instance
# ---------------------------------------------------------------------------

def sheet_algebra(f: PointedMap) -> AlgebraInstance:
    """Loops and sheets over ``f``, packaged for the framework checkers."""
    return AlgebraInstance(
        source=lambda e: e.bottom,
        target=lambda e: e.top,
        act_path=act_on_loops,
        act_sheet=partial(act_on_sheets, f),
        random_carrier=lambda rng: random_loop(rng, f.dim_in, f.dom_base),
        random_element=lambda rng, source=None: random_sheet_element(f, rng, source),
        violation=lambda e: sheet_violation(f, e),
    )
