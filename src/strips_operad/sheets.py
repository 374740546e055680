"""Loops and sheets over a pointed affine map, and the strip actions on them.

Fix an affine map f from one rational affine space to another carrying a
basepoint q to a basepoint p.  The carriers here are piecewise-linear loops
at q in the source space; over them sit *sheet elements*: grid-bilinear
squares in the target space whose bottom and top edges are the images under f
of two such loops and whose left and right edges are constantly p.

An interval configuration acts on a list of loops by playing each loop inside
its interval and resting at q elsewhere.  A strip configuration acts on
chains of sheet elements (one chain per strip, matched end-to-start;
a bare loop for an empty strip) by inserting each sheet into its rectangle,
filling the rest of its strip with the junction loops pushed through f, and
filling columns outside all strips with p.
"""
from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Optional, Sequence

from .exact import ONE, ZERO, GridSheet, PLPath, as_point, lerp, locate
from .framework import AlgebraInstance, ChainError
from .intervals import IntervalConfig
from .strips import StripConfig


@dataclass(frozen=True)
class PointedMap:
    """Affine map between rational affine spaces with chosen basepoints.

    ``matrix`` has one row per output coordinate; ``apply(v) = matrix·v +
    offset``; the basepoint of the source must land on the basepoint of the
    target."""

    matrix: tuple
    offset: tuple
    dom_base: tuple
    cod_base: tuple

    def __post_init__(self):
        matrix = tuple(as_point(row) for row in self.matrix)
        offset = as_point(self.offset)
        dom = as_point(self.dom_base)
        cod = as_point(self.cod_base)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "dom_base", dom)
        object.__setattr__(self, "cod_base", cod)
        if len(matrix) != len(offset) or len(offset) != len(cod):
            raise ValueError("matrix rows, offset and target basepoint must match")
        if any(len(row) != len(dom) for row in matrix):
            raise ValueError("matrix columns must match the source dimension")
        if self.apply(dom) != cod:
            raise ValueError("the map must carry the source basepoint to the target one")

    @property
    def dim_in(self) -> int:
        return len(self.dom_base)

    @property
    def dim_out(self) -> int:
        return len(self.cod_base)

    def apply(self, point) -> tuple:
        point = as_point(point)
        return tuple(sum(a * x for a, x in zip(row, point)) + b
                     for row, b in zip(self.matrix, self.offset))

    @classmethod
    def from_basepoints(cls, matrix, dom_base, cod_base) -> "PointedMap":
        """Build the unique affine map with this linear part and basepoints."""
        matrix = tuple(as_point(row) for row in matrix)
        dom = as_point(dom_base)
        cod = as_point(cod_base)
        offset = tuple(c - sum(a * x for a, x in zip(row, dom))
                       for row, c in zip(matrix, cod))
        return cls(matrix, offset, dom, cod)


@dataclass(frozen=True)
class Loop:
    """A closed PL path, stored in canonical form."""

    path: PLPath

    def __post_init__(self):
        object.__setattr__(self, "path", self.path.canonical())
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
    """A sheet with its two boundary loops; the sheet is kept canonical."""

    sheet: GridSheet
    bottom: Loop
    top: Loop

    def __post_init__(self):
        object.__setattr__(self, "sheet", self.sheet.canonical())


def push_loop(f: PointedMap, loop: Loop) -> PLPath:
    """The loop carried into the target space, canonicalized."""
    return PLPath(loop.path.breaks,
                  tuple(f.apply(v) for v in loop.path.values)).canonical()


# ---------------------------------------------------------------------------
# actions
# ---------------------------------------------------------------------------

def _check_order(spans: Sequence, what: str, direction: str,
                 where: str = "") -> None:
    """Raise unless each span ends no later than the next one starts."""
    for k in range(len(spans) - 1):
        (_, hi), (lo, _) = spans[k], spans[k + 1]
        if lo < hi:
            raise ValueError(
                f"{where}{what}s must run {direction} without overlapping: "
                f"{what} {k + 2} starts at {lo}, before {what} {k + 1} "
                f"ends at {hi}")


def act_on_loops(config: IntervalConfig, loops: Sequence[Loop]) -> Loop:
    """Play loop i inside interval i, rest at the basepoint elsewhere.

    The intervals must run left to right (each ends no later than the next
    starts); otherwise ``ValueError``.  The loops are spliced directly: the
    result breaks at 0, 1 and the image of every loop breakpoint, and takes
    the loop's own value there, or the basepoint outside every interval.
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
    _check_order(config.images(), "interval", "left to right")
    q = loops[0].basepoint
    # every loop starts and ends at q, so a point shared by two neighbouring
    # intervals, or by an interval and 0 or 1, has the value q on both sides
    breaks, values = [ZERO], [q]
    for loop, emb in zip(loops, config.embeddings):
        for t, v in zip(loop.path.breaks, loop.path.values):
            x = emb(t)
            if x != breaks[-1]:
                breaks.append(x)
                values.append(v)
    if breaks[-1] != ONE:
        breaks.append(ONE)
        values.append(q)
    return Loop(PLPath(tuple(breaks), tuple(values)))


def _column_plan(ys: tuple, rects: tuple, sheets: tuple) -> tuple:
    """How to read each output height in one strip, the same for every column.

    Entry ``(j, k, w)``: inside rectangle j, at fraction w between the
    sheet's y-lines k and k+1 (on line k when w is None).  Entry
    ``(None, g, None)``: in the gap above the first g rectangles, where the
    value is junction loop g.  A height on the edge shared by two rectangles
    belongs to the lower one.
    """
    ranges = tuple(rect.y_part.image() for rect in rects)
    plan = []
    j, n = 0, len(rects)
    for y in ys:
        while j < n and ranges[j][1] < y:
            j += 1
        if j < n and ranges[j][0] <= y:
            plan.append((j,) + locate(sheets[j].y_breaks,
                                      rects[j].y_part.invert(y)))
        else:
            plan.append((None, j, None))
    return tuple(plan)


def act_on_sheets(f: PointedMap, config: StripConfig,
                  inputs: Sequence) -> SheetElement:
    """Assemble one sheet element from a chain of them per strip.

    ``inputs[i]`` is a sequence of ``shape[i]`` elements whose loops chain
    end-to-start (the top loop of each equals the bottom loop of the next),
    or a single :class:`Loop` when strip i is empty.

    The strips must run left to right and the rectangles of each strip bottom
    to top, each ending no later than the next starts; otherwise
    ``ValueError``.  A point on an edge shared by two strips or two rectangles
    belongs to the left or lower one.

    The output grid is built column by column.  A column finds its strip by
    bisection over the strip spans.  It reads each rectangle's sheet once
    along that sheet's own y-lines, at the x given by the rectangle's inverse
    map, and then fills the rectangle's heights with one interpolation in y
    each.  Between rectangles it takes the junction loop pushed through f.
    Coordinates that fall on a breakpoint are read without interpolating.
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
    _check_order(spans, "strip", "left to right")
    for i, rects in enumerate(config.rects):
        _check_order(tuple(rect.y_part.image() for rect in rects),
                     "rectangle", "bottom to top", f"strip {i + 1}: ")

    # grid lines
    xs = {ZERO, ONE}
    ys = {ZERO, ONE}
    for i in range(r):
        emb = config.base.embeddings[i]
        xs.update(spans[i])
        for loop in junctions[i]:
            xs.update(emb(t) for t in loop.path.breaks)
        for elem, rect in zip(chains[i], config.rects[i]):
            xs.update(rect.x_part(t) for t in elem.sheet.x_breaks)
            ys.update(rect.y_part(t) for t in elem.sheet.y_breaks)
    xs = tuple(sorted(xs))
    ys = tuple(sorted(ys))

    # per strip: the column plan and the junction loops it reads, pushed
    # through f once (exact, since f is affine)
    plans = []
    pushed = []
    for i in range(r):
        sheets = tuple(elem.sheet for elem in chains[i])
        plan = _column_plan(ys, config.rects[i], sheets)
        plans.append(plan)
        gaps = {g for j, g, _ in plan if j is None}
        pushed.append({g: push_loop(f, junctions[i][g]) for g in gaps})

    outside = tuple(p for _ in ys)
    his = tuple(hi for _, hi in spans)
    values = []
    for x in xs:
        strip = bisect.bisect_left(his, x)
        if strip == r or x < spans[strip][0]:
            values.append(outside)
            continue
        local = config.base.embeddings[strip].invert(x)
        jvals = {g: path.at(local) for g, path in pushed[strip].items()}
        lines = []
        for elem, rect in zip(chains[strip], config.rects[strip]):
            sv = elem.sheet.values
            a, u = locate(elem.sheet.x_breaks, rect.x_part.invert(x))
            lines.append(sv[a] if u is None else
                         tuple(lerp(v0, v1, u) for v0, v1 in zip(sv[a], sv[a + 1])))
        col = []
        for j, k, w in plans[strip]:
            if j is None:
                col.append(jvals[k])
            elif w is None:
                col.append(lines[j][k])
            else:
                col.append(lerp(lines[j][k], lines[j][k + 1], w))
        values.append(tuple(col))

    bottom = act_on_loops(config.base, tuple(j[0] for j in junctions))
    top = act_on_loops(config.base, tuple(j[-1] for j in junctions))
    return SheetElement(GridSheet(xs, ys, tuple(values)), bottom, top)


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
    if sheet.bottom_edge().canonical() != push_loop(f, elem.bottom):
        return "bottom edge differs from the mapped bottom loop"
    if sheet.top_edge().canonical() != push_loop(f, elem.top):
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
    return PointedMap.from_basepoints(matrix,
                                      random_point(rng, dim_in, spread=4),
                                      random_point(rng, dim_out, spread=4))


# ---------------------------------------------------------------------------
# the algebra instance
# ---------------------------------------------------------------------------

def sheet_algebra(f: PointedMap) -> AlgebraInstance:
    """Loops and sheets over ``f``, packaged for the framework checkers."""
    return AlgebraInstance(
        name=f"sheets[{f.dim_in}->{f.dim_out}]",
        source=lambda e: e.bottom,
        target=lambda e: e.top,
        act_path=act_on_loops,
        act_sheet=partial(act_on_sheets, f),
        random_carrier=lambda rng: random_loop(rng, f.dim_in, f.dom_base),
        random_element=lambda rng, source=None: random_sheet_element(f, rng, source),
        violation=lambda e: sheet_violation(f, e),
    )
