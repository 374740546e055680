"""Loops and sheets over a pointed affine map, and the strip actions on them.

Fix an affine map f from one rational affine space to another carrying a
basepoint q to a basepoint p.  The carriers here are piecewise-linear loops at
q in the source space; over them sit *sheet elements*: grid-bilinear squares
in the target space whose bottom and top edges are the images under f of two
such loops and whose left and right edges are constantly p.  Paths and sheets
are stored in their minimal form, as ints over one denominator per axis and
one for the values (:mod:`strips_operad.exact`), so ``==`` on loops and sheet
elements is equality of functions, and the actions, the samplers and the
validity check below compute on those ints and build no ``Fraction``.

An interval configuration acts on a list of loops by playing each loop inside
its interval and resting at q elsewhere.  A strip configuration acts on chains
of sheet elements (one chain per strip, matched end-to-start; a bare loop for
an empty strip) by inserting each sheet into its rectangle, filling the rest
of its strip with the junction loops pushed through f, and filling columns
outside all strips with p.
"""
from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import chain
from typing import Optional, Sequence

from .exact import (ONE, ZERO, AffineMap1, GridSheet, PLPath, _fractions,
                    _over_lcm, _path, _points, _sheet, as_point, lerp, locate)
from .framework import AlgebraInstance, ChainError
from .intervals import IntervalConfig
from .strips import StripConfig


@dataclass(frozen=True)
class PointedMap:
    """Affine map between rational affine spaces with chosen basepoints.

    ``matrix`` has one row per output coordinate; ``apply(v) = matrix·v +
    offset``, where the offset is fixed by carrying the source basepoint to
    the target one.  The map is also kept on ints, for the actions: the
    point ``v/m`` (ints v) goes to ``(_rows·v + _shift·m) / (_den·m)``, and
    each basepoint is held as ``(ints, denominator)`` in ``_q`` and ``_p``."""

    matrix: tuple
    dom_base: tuple
    cod_base: tuple
    offset: tuple = field(init=False, repr=False, compare=False)
    _rows: tuple = field(init=False, repr=False, compare=False)
    _shift: tuple = field(init=False, repr=False, compare=False)
    _den: int = field(init=False, repr=False, compare=False)
    _q: tuple = field(init=False, repr=False, compare=False)
    _p: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        matrix = tuple(as_point(row) for row in self.matrix)
        dom = as_point(self.dom_base)
        cod = as_point(self.cod_base)
        if len(matrix) != len(cod):
            raise ValueError("matrix rows must match the target dimension")
        if any(len(row) != len(dom) for row in matrix):
            raise ValueError("matrix columns must match the source dimension")
        offset = tuple(c - sum(a * x for a, x in zip(row, dom))
                       for row, c in zip(matrix, cod))
        flat, den = _over_lcm([a for row in matrix for a in row] + list(offset))
        cells = len(dom) * len(cod)
        fields = {"matrix": matrix, "dom_base": dom, "cod_base": cod,
                  "offset": offset, "_den": den, "_q": _over_lcm(dom),
                  "_p": _over_lcm(cod), "_shift": flat[cells:],
                  "_rows": tuple(_points(flat, len(dom), len(cod)))}
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    @property
    def dim_in(self) -> int:
        return len(self.dom_base)

    @property
    def dim_out(self) -> int:
        return len(self.cod_base)

    def _image(self, v: tuple, m: int) -> tuple:
        """The image of the point ``v/m`` (ints), as ints over ``_den·m``:
        one integer matrix product."""
        if len(v) != len(self.dom_base):
            raise ValueError(f"point dimension {len(v)} does not match the "
                             f"map source {len(self.dom_base)}")
        return tuple([sum([a * x for a, x in zip(row, v)], s * m)
                      for row, s in zip(self._rows, self._shift)])

    def apply(self, point) -> tuple:
        """``matrix·point + offset``, computed on ints and read out as one
        Fraction per coordinate.  A point whose dimension is not the
        source's is a ``ValueError``."""
        v, m = _over_lcm(as_point(point))
        return _fractions(self._image(v, m), self._den * m)


@dataclass(frozen=True)
class Loop:
    """A closed PL path."""

    path: PLPath

    def __post_init__(self):
        if self.path._v[0] != self.path._v[-1]:
            raise ValueError("a loop must end where it starts")

    @property
    def basepoint(self) -> tuple:
        return _fractions(self.path._v[0], self.path._vm)

    @property
    def dim(self) -> int:
        return self.path.dim

    def at(self, t) -> tuple:
        return self.path.at(t)


def _based_at(loop: Loop, base: tuple) -> bool:
    """Whether the loop starts at ``base = (ints, m)`` of its dimension,
    decided by cross-multiplying."""
    (q, m), path = base, loop.path
    vm = path._vm
    return [c * m for c in path._v[0]] == [c * vm for c in q]


def _loop_defect(f: PointedMap, loop: Loop, what: str) -> Optional[str]:
    """Why ``loop``, named ``what`` in the message, is no loop at q in f's
    source (its dimension first, then its basepoint), or None when it is."""
    if loop.dim != f.dim_in:
        return f"{what} dimension {loop.dim}, expected {f.dim_in}"
    if not _based_at(loop, f._q):
        return f"{what} based at {loop.basepoint}, expected {f.dom_base}"
    return None


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
    """The loop carried into the target space, its breaks kept and each
    value mapped on ints.

    Each (map, loop) pair is pushed once: the result is kept on the loop,
    outside its fields, keyed by the identity of the map.  The entry holds
    the map itself, so that identity cannot pass to another map while the
    entry lives.
    """
    memo = loop.__dict__.setdefault("_pushed", {})
    hit = memo.get(id(f))
    if hit is None:
        path = loop.path
        vm = path._vm
        hit = memo[id(f)] = (f, _path(path._t, [f._image(v, vm) for v in path._v],
                                      f._den * vm))
    return hit[1]


# ---------------------------------------------------------------------------
# actions
# ---------------------------------------------------------------------------

def _check_spans(maps: Sequence[AffineMap1], what: str, direction: str,
                 where: str = "") -> None:
    """Raise unless the image of each map lies in [0, 1] and ends no later
    than the next one starts, decided on the integer triples."""
    for k, m in enumerate(maps):
        if not m.maps_into_unit():
            lo, hi = m.image()
            raise ValueError(f"{where}{what} {k + 1} image [{lo}, {hi}] "
                             f"leaves [0, 1]")
        if k:
            prev = maps[k - 1]
            if m.cn * prev.d < (prev.an + prev.cn) * m.d:
                raise ValueError(
                    f"{where}{what}s must run {direction} without overlapping: "
                    f"{what} {k + 1} starts at {m.image()[0]}, before {what} {k} "
                    f"ends at {prev.image()[1]}")


def _embedded(emb: AffineMap1, ts: Sequence, m: int) -> list:
    """The images under ``emb`` of the points ``ts`` (ints over ``ts[-1]``),
    as ints over m, a multiple of ``emb.d * ts[-1]``."""
    den = ts[-1]
    s = m // (emb.d * den)
    a, c = emb.an * s, emb.cn * den * s
    return [a * t + c for t in ts]


def _rescaled(ts: Sequence, m: int) -> Sequence:
    """The points ``ts`` (ints over ``ts[-1]``) as ints over m, a multiple
    of ``ts[-1]``."""
    k = m // ts[-1]
    return ts if k == 1 else [t * k for t in ts]


def _reduced_locate(breaks: Sequence, t: int) -> tuple:
    """:func:`~strips_operad.exact.locate` with its ratio in lowest terms."""
    i, w = locate(breaks, t)
    if w is not None:
        g = math.gcd(*w)
        if g != 1:
            w = (w[0] // g, w[1] // g)
    return i, w


def _lowest(v: tuple, d: int) -> tuple:
    """``(point, denominator)`` for the point ``v/d`` (ints) in lowest terms."""
    g = math.gcd(d, *v)
    if g == 1:
        return v, d
    return tuple([c // g for c in v]), d // g


def _along(ts: Sequence, vals: Sequence, vm: int, unit: int, cols: Sequence) -> list:
    """One source read along a strip's columns: ``(line, d)`` for each column
    x of ``cols`` (ints over ``unit``, a multiple of ``ts[-1]``), the source's
    line of points at x as ints over d.  The source has one line per break
    ``ts[k]``, ``vals[k]``, over ``vm``: a sheet passes its columns, a path
    its points as 1-tuples.  Between two equal lines the line is kept over
    ``vm``, so a flat stretch adds no factor to the denominator; a line
    interpolated between two others is put over its least denominator."""
    breaks = _rescaled(ts, unit)
    out = []
    for k, w in [_reduced_locate(breaks, x) for x in cols]:
        line = vals[k]
        if w is None or line == vals[k + 1]:
            out.append((line, vm))
        else:
            line = [lerp(a, b, *w) for a, b in zip(line, vals[k + 1])]
            d = vm * w[1]
            g = math.gcd(d, *chain.from_iterable(line))
            if g != 1:
                line, d = [tuple([c // g for c in v]) for v in line], d // g
            out.append((line, d))
    return out


def _over_one(grid: list, dens: list) -> tuple:
    """``(values, m)``: the points of ``grid`` (columns of tuples of ints,
    each over the matching entry of ``dens``) as ints over m, the LCM of
    all the denominators.  A point object met again with the same
    denominator (a gap's value at every height of the gap, p in every
    column outside the strips) is scaled once and its copy shared."""
    every = set(chain.from_iterable(dens))
    m = math.lcm(*every)
    scale = {d: m // d for d in every}
    done = {}       # id(point) -> (denominator, the point over m)
    values = []
    for col, cd in zip(grid, dens):
        out = []
        for v, d in zip(col, cd):
            k = scale[d]
            if k != 1:
                hit = done.get(id(v))
                if hit is None or hit[0] != d:
                    hit = done[id(v)] = (d, tuple([c * k for c in v]))
                v = hit[1]
            out.append(v)
        values.append(out)
    return values, m


def act_on_loops(config: IntervalConfig, loops: Sequence[Loop]) -> Loop:
    """Play loop i inside interval i, rest at the basepoint elsewhere.

    The intervals must lie in [0, 1] and run left to right (each ends no
    later than the next starts); otherwise ``ValueError``.  The loops are
    spliced directly: the result breaks at 0, 1 and the image of every loop
    breakpoint, and takes the loop's own value there, or the basepoint
    outside every interval.  Breaks and values are brought to one
    denominator each as ints.
    """
    if len(loops) != config.arity:
        raise ValueError(f"{config.arity} intervals need {config.arity} loops, "
                         f"got {len(loops)}")
    dims = {loop.dim for loop in loops}
    if len(dims) > 1:
        raise ValueError("loops live in different dimensions")
    first = loops[0].path
    base = (first._v[0], first._vm)
    if not all(_based_at(loop, base) for loop in loops):
        raise ValueError("loops must share a basepoint")
    embs = config.embeddings
    _check_spans(embs, "interval", "left to right")
    paths = [loop.path for loop in loops]
    xm = math.lcm(*[e.d * path._t[-1] for e, path in zip(embs, paths)])
    vm = math.lcm(*[path._vm for path in paths])
    q = tuple([c * (vm // first._vm) for c in first._v[0]])
    # every loop starts and ends at q, so a point shared by two neighbouring
    # intervals, or by an interval and 0 or 1, has the value q on both sides;
    # inside one interval the images of the breaks strictly increase
    ts, values = [0], [q]
    for emb, path in zip(embs, paths):
        images = _embedded(emb, path._t, xm)
        k = vm // path._vm
        points = path._v if k == 1 else [tuple([c * k for c in v]) for v in path._v]
        start = 1 if images[0] == ts[-1] else 0
        ts.extend(images[start:])
        values.extend(points[start:])
    if ts[-1] != xm:
        ts.append(xm)
        values.append(q)
    return Loop(_path(ts, values, vm))


def _column_plan(ys: list, sheet_ys: list) -> tuple:
    """How to read each output height in one strip, the same for every column.

    ``ys`` are the output heights and ``sheet_ys[j]`` the heights of the
    y-lines of rectangle j's sheet, bottom to top, all as ints over one
    denominator.  With n rectangles, the strip's sources are their sheets,
    0 to n-1, and its junction loops, n to 2n.  Entry ``(j, k, w)``: in
    source j, at ``w = (num, den)`` (in lowest terms) of the way from its
    line k to line k+1 (on line k when w is None).  Inside rectangle j that
    is the sheet's y-line k; in the gap above the first g rectangles it is
    ``(n + g, 0, None)``, junction loop g, whose lines are single points.
    A height y is placed by one bisection, ``j = bisect_left(tops, y)``: it
    is in rectangle j when that rectangle starts at or below y, else in gap
    j, so a height on the edge shared by two rectangles belongs to the
    lower one.
    """
    n = len(sheet_ys)
    bottoms = [lines[0] for lines in sheet_ys]
    tops = [lines[-1] for lines in sheet_ys]
    plan = []
    for y in ys:
        j = bisect_left(tops, y)
        if j < n and bottoms[j] <= y:
            plan.append((j, *_reduced_locate(sheet_ys[j], y)))
        else:
            plan.append((n + j, 0, None))
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

    Everything is computed on the stored ints.  The output's y-lines are
    the images of every sheet's y-lines, over one denominator.  Each strip
    is a stack of sources: its rectangles' sheets and its junction loops
    pushed through f (:func:`push_loop` pushes each loop once per map).  A
    plan made once per strip (:func:`_column_plan`) says which source each
    height reads.  The strip's columns are its sources' x-breaks, in its
    own units (the LCM of their denominators, so every lookup there is a
    bisection on small ints, :func:`~strips_operad.exact.locate`), less a
    first column that the strip to its left took; the output's x-lines are
    their images.  A row of the output bends only where its source does,
    and a pushed loop breaks only where f∘loop bends, so no column is
    missed.  Each source is read once per column (:func:`_along`), and each
    height is filled from its source's line with one interpolation in y.
    Each value keeps its own denominator until all go to their LCM at the
    end.
    """
    r = config.arity
    if len(inputs) != r:
        raise ValueError(f"{r} strips need {r} inputs, got {len(inputs)}")

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
            defect = _loop_defect(f, loop, f"strip {i + 1}: loop")
            if defect:
                raise ValueError(defect)
    for i, elems in enumerate(chains):
        for e in elems:
            if e.sheet.dim != f.dim_out:
                raise ValueError(f"strip {i + 1}: sheet dimension {e.sheet.dim} "
                                 f"does not match the map target {f.dim_out}")

    embs = config.base.embeddings
    _check_spans(embs, "strip", "left to right")
    for i, rects in enumerate(config.rects):
        _check_spans(rects, "rectangle", "bottom to top", f"strip {i + 1}: ")

    # y-lines: the images of each sheet's y-lines, kept per rectangle
    ym = math.lcm(*[rect.d * e.sheet._y[-1] for rects, elems in
                    zip(config.rects, chains) for rect, e in zip(rects, elems)])
    y_images = [[_embedded(rect, e.sheet._y, ym) for rect, e in zip(rects, elems)]
                for rects, elems in zip(config.rects, chains)]
    ys = sorted({0, ym, *[y for images in y_images for lines in images
                          for y in lines]})

    # each strip's own units: the LCM of its sources' x denominators
    units = [math.lcm(*[e.sheet._x[-1] for e in elems],
                      *[push_loop(f, loop)._t[-1] for loop in loops])
             for loops, elems in zip(junctions, chains)]
    xm = math.lcm(*[emb.d * unit for emb, unit in zip(embs, units)])

    p, pm = f._p
    outside = ([p] * len(ys), [pm] * len(ys))
    xs, grid, dens = [], [], []
    if embs[0].cn:                  # the first strip starts right of 0
        xs.append(0)
        grid.append(outside[0])
        dens.append(outside[1])
    for emb, unit, loops, elems, sheet_ys in zip(embs, units, junctions, chains,
                                                 y_images):
        # the strip's stack of sources, as its plan numbers them: rectangle
        # j's sheet at j, and junction loop g pushed through f (exact, since
        # f is affine) at n + g; the strip's columns are their x-breaks
        stack = [(e.sheet._x, e.sheet._v, e.sheet._vm) for e in elems]
        for loop in loops:
            path = push_loop(f, loop)
            stack.append((path._t, [(v,) for v in path._v], path._vm))
        cols = sorted({x for ts, _, _ in stack for x in _rescaled(ts, unit)})
        images = _embedded(emb, cols, xm)
        if xs and images[0] == xs[-1]:      # taken by the strip to the left
            cols, images = cols[1:], images[1:]
        xs.extend(images)
        # each source read once per column, then each height filled from its
        # source's line with one interpolation in y
        lines = [_along(*source, unit, cols) for source in stack]
        plan = _column_plan(ys, sheet_ys)
        for c in range(len(cols)):
            col, cd = [], []
            for j, k, w in plan:
                line, d = lines[j][c]
                v = line[k]
                if w is not None and v != line[k + 1]:
                    v, d = _lowest(lerp(v, line[k + 1], *w), d * w[1])
                col.append(v)
                cd.append(d)
            grid.append(col)
            dens.append(cd)
    if xs[-1] != xm:                # the last strip ends left of 1
        xs.append(xm)
        grid.append(outside[0])
        dens.append(outside[1])

    values, m = _over_one(grid, dens)
    bottom = act_on_loops(config.base, tuple(j[0] for j in junctions))
    top = act_on_loops(config.base, tuple(j[-1] for j in junctions))
    return SheetElement(_sheet(xs, ys, values, m), bottom, top)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def sheet_violation(f: PointedMap, elem: SheetElement) -> Optional[str]:
    """First broken boundary condition, or None when the element is valid.

    Checked in order: the bottom loop's dimension and basepoint, the top
    loop's, the sheet's dimension, constant-p left and right edges, bottom
    edge against the mapped bottom loop, top edge against the mapped top
    loop.  Points are compared on ints by cross-multiplying.
    """
    for what, loop in (("bottom loop", elem.bottom), ("top loop", elem.top)):
        defect = _loop_defect(f, loop, what)
        if defect:
            return defect
    if elem.sheet.dim != f.dim_out:
        return f"sheet dimension {elem.sheet.dim}, expected {f.dim_out}"
    (p, pm), sheet = f._p, elem.sheet
    vm = sheet._vm
    want = [c * vm for c in p]
    for edge, col in (("left", sheet._v[0]), ("right", sheet._v[-1])):
        for iy, v in enumerate(col):
            if [c * pm for c in v] != want:
                return (f"{edge} edge value {_fractions(v, vm)} at height "
                        f"{sheet.y_breaks[iy]}, expected the basepoint {f.cod_base}")
    if sheet.bottom_edge() != push_loop(f, elem.bottom):
        return "bottom edge differs from the mapped bottom loop"
    if sheet.top_edge() != push_loop(f, elem.top):
        return "top edge differs from the mapped top loop"
    return None


# ---------------------------------------------------------------------------
# random elements
# ---------------------------------------------------------------------------

GRID = 16


def _random_quarters(rng: random.Random, dim: int, spread: int = 8) -> tuple:
    """The draws of :func:`random_point`, as the ints of the point over 4."""
    return tuple([rng.randint(-spread, spread) * (4 // rng.choice((1, 2, 4)))
                  for _ in range(dim)])


def random_point(rng: random.Random, dim: int, spread: int = 8) -> tuple:
    return _fractions(_random_quarters(rng, dim, spread), 4)


MAX_INTERIOR = 2    # interior breakpoints of a random loop, at most


def _random_loop(rng: random.Random, dim: int, base: tuple) -> Loop:
    """:func:`random_loop` at the basepoint ``base = (ints, m)``."""
    q, qm = base
    k = rng.randint(0, MAX_INTERIOR)
    interior = sorted(rng.sample(range(1, GRID), k))
    m = math.lcm(qm, 4)
    s = m // 4
    q = tuple([c * (m // qm) for c in q])
    points = [tuple([c * s for c in _random_quarters(rng, dim)]) for _ in interior]
    return Loop(_path((0, *interior, GRID), (q, *points, q), m))


def random_loop(rng: random.Random, dim: int, basepoint) -> Loop:
    base = as_point(basepoint)
    if len(base) != dim:
        raise ValueError(f"basepoint dimension {len(base)}, expected {dim}")
    return _random_loop(rng, dim, _over_lcm(base))


def random_sheet_element(f: PointedMap, rng: random.Random,
                         source: Optional[Loop] = None) -> SheetElement:
    """A random element over ``f``: its bottom loop is ``source`` or drawn,
    its top loop is drawn, and the sheet runs through f of both along its
    bottom and top edges, p along its sides, with one random interior
    point per interior column.  A ``source`` of the wrong dimension or
    basepoint is a ``ValueError``, raised before anything is drawn."""
    if source is None:
        bottom = _random_loop(rng, f.dim_in, f._q)
    else:
        defect = _loop_defect(f, source, "source loop")
        if defect:
            raise ValueError(defect)
        bottom = source
    top = _random_loop(rng, f.dim_in, f._q)
    x_cut = rng.randint(1, GRID - 1)
    y_cut = rng.randint(1, GRID - 1)
    xm = math.lcm(GRID, bottom.path._t[-1], top.path._t[-1])
    xs = sorted({*_rescaled(bottom.path._t, xm), *_rescaled(top.path._t, xm),
                 x_cut * (xm // GRID)})
    # f of each loop at every column, as (1-tuple, denominator)
    edges = [_along(path._t, [(v,) for v in path._v], path._vm, xm, xs)
             for path in (push_loop(f, bottom), push_loop(f, top))]
    p, pm = f._p
    grid, dens = [], []
    for x, ((low,), low_d), ((high,), high_d) in zip(xs, *edges):
        if x == 0 or x == xm:
            inner, inner_d = p, pm
        else:
            inner, inner_d = _random_quarters(rng, f.dim_out), 4
        grid.append((low, inner, high))
        dens.append((low_d, inner_d, high_d))
    values, m = _over_one(grid, dens)
    return SheetElement(_sheet(xs, (0, y_cut, GRID), values, m), bottom, top)


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
        random_carrier=lambda rng: _random_loop(rng, f.dim_in, f._q),
        random_element=lambda rng, source=None: random_sheet_element(f, rng, source),
        violation=lambda e: sheet_violation(f, e),
    )
