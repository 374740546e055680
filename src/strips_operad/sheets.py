"""Loops and sheets over a pointed affine map, and the strip actions on them.

Fix an affine map f from one rational affine space to another carrying a
basepoint q to a basepoint p.  The carriers here are piecewise-linear loops at
q in the source space; over them sit *sheet elements*: grid-bilinear squares
in the target space whose bottom and top edges are the images under f of two
such loops and whose left and right edges are constantly p.  Paths and sheets
are stored in their minimal form, as ints (:mod:`strips_operad.exact`: a
sheet as one minimal column in y per x-line), so ``==`` on loops and sheet
elements is equality of functions, and the actions, the samplers and the
validity check below compute on those ints and build no ``Fraction``.

An interval configuration acts on a list of loops by playing each loop inside
its interval and resting at q elsewhere.  A strip configuration acts on chains
of sheet elements (one chain per strip, matched end-to-start; a bare loop for
an empty strip) by inserting each sheet into its rectangle and filling the
rest of its strip with the junction loops pushed through f.  For a valid
element the pushed junction loops are its sheets' bottom and top edges, so
a strip with rectangles is read from its sheets alone, and only an empty
strip shows a pushed loop.  Both actions are one splice (:func:`_splice`):
lay paths into subintervals, each piece ending strictly before the next
starts, run straight between them and rest at the ends of the first and
the last.  Loops are spliced in x; the output sheet is a splice in x of its
strips' columns, each column a splice in y.
"""
from __future__ import annotations

import math
import operator
import random
from fractions import Fraction
from functools import partial
from typing import Optional, Sequence

from .exact import (AffineMap1, GridSheet, PLPath, _align, _columns_at,
                    _fractions, _Frozen, _minimal, _over_lcm, _path, _points,
                    _ratios, _rescaled, _set_slots, _sheet, _values_at,
                    as_point)
from .framework import AlgebraInstance, ChainError
from .intervals import IntervalConfig, interval_violation
from .strips import StripConfig, strip_violation


class PointedMap(_Frozen):
    """Affine map between rational affine spaces with chosen basepoints.

    ``matrix`` has one row per output coordinate; ``apply(v) = matrix·v +
    offset``, where the offset is fixed by carrying the source basepoint to
    the target one.  The map is also kept on ints, for the actions: the
    point ``v/m`` (ints v) goes to ``(_rows·v + _shift·m) / (_den·m)``, and
    each basepoint is held as ``(ints, denominator)`` in ``_q`` and ``_p``.
    Only ``matrix``, ``dom_base`` and ``cod_base`` are compared, hashed and
    printed; the rest follow from them."""

    _fields = ("matrix", "dom_base", "cod_base")
    __slots__ = _fields + ("offset", "_rows", "_shift", "_den", "_q", "_p")
    _key = operator.attrgetter(*_fields)

    def __init__(self, matrix, dom_base, cod_base):
        matrix = tuple(as_point(row) for row in matrix)
        dom = as_point(dom_base)
        cod = as_point(cod_base)
        if len(matrix) != len(cod):
            raise ValueError("matrix rows must match the target dimension")
        if any(len(row) != len(dom) for row in matrix):
            raise ValueError("matrix columns must match the source dimension")
        offset = tuple(c - sum(a * x for a, x in zip(row, dom))
                       for row, c in zip(matrix, cod))
        flat, den = _over_lcm(_ratios([a for row in matrix for a in row]
                                      + list(offset)))
        cells = len(dom) * len(cod)
        _set_slots(self, self.__slots__, (
            matrix, dom, cod, offset, tuple(_points(flat, len(dom), len(cod))),
            flat[cells:], den, _over_lcm(_ratios(dom)), _over_lcm(_ratios(cod))))

    @property
    def dim_in(self) -> int:
        return len(self.dom_base)

    @property
    def dim_out(self) -> int:
        return len(self.cod_base)

    def _images(self, vs: Sequence, m: int) -> list:
        """The images of the points ``v/m`` of ``vs`` (ints, one dimension),
        as ints over ``_den·m``: one integer matrix product each."""
        if len(vs[0]) != len(self.dom_base):
            raise ValueError(f"point dimension {len(vs[0])} does not match the "
                             f"map source {len(self.dom_base)}")
        rows, shift = self._rows, [s * m for s in self._shift]
        return [tuple([sum([a * x for a, x in zip(row, v)], s)
                       for row, s in zip(rows, shift)]) for v in vs]

    def apply(self, point) -> tuple:
        """``matrix·point + offset``, computed on ints and read out as one
        Fraction per coordinate.  A point whose dimension is not the
        source's is a ``ValueError``."""
        v, m = _over_lcm(_ratios(point))
        return _fractions(self._images([v], m)[0], self._den * m)


class Loop(_Frozen):
    """A closed PL path."""

    __slots__ = _fields = ("path",)
    _key = operator.attrgetter(*_fields)
    # where bench/tracer.py finds it; with __hash__, which would else be None
    __eq__ = _Frozen.__eq__
    __hash__ = _Frozen.__hash__

    def __init__(self, path: PLPath):
        if path._v[0] != path._v[-1]:
            raise ValueError("a loop must end where it starts")
        _set_slots(self, self._fields, (path,))

    @property
    def basepoint(self) -> tuple:
        return _fractions(self.path._v[0], self.path._vm)

    @property
    def dim(self) -> int:
        return self.path.dim

    def at(self, t) -> tuple:
        return self.path.at(t)


def _is_point(v: tuple, vm: int, point: tuple) -> bool:
    """Whether the point ``v/vm`` (ints) is ``point = (ints, m)`` of its
    dimension, decided by cross-multiplying."""
    q, m = point
    return [c * m for c in v] == [c * vm for c in q]


def _loop_defect(f: PointedMap, loop: Loop, what: str) -> Optional[str]:
    """Why ``loop``, named ``what`` in the message, is no loop at q in f's
    source (its dimension first, then its basepoint), or None when it is."""
    if loop.dim != f.dim_in:
        return f"{what} dimension {loop.dim}, expected {f.dim_in}"
    if not _is_point(loop.path._v[0], loop.path._vm, f._q):
        return f"{what} based at {loop.basepoint}, expected {f.dom_base}"
    return None


class SheetElement(_Frozen):
    """A sheet with its two boundary loops."""

    __slots__ = _fields = ("sheet", "bottom", "top")
    _key = operator.attrgetter(*_fields)
    # where bench/tracer.py finds it; with __hash__, which would else be None
    __eq__ = _Frozen.__eq__
    __hash__ = _Frozen.__hash__

    def __init__(self, sheet: GridSheet, bottom: Loop, top: Loop):
        _set_slots(self, self._fields, (sheet, bottom, top))


def push_loop(f: PointedMap, loop: Loop) -> PLPath:
    """The loop carried into the target space, its breaks kept and each
    value mapped on ints, less the breaks where the image does not bend.
    Nothing is kept on the loop: each call maps it again."""
    path = loop.path
    vm = path._vm
    return _path(path._t, f._images(path._v, vm), f._den * vm)


# ---------------------------------------------------------------------------
# actions
# ---------------------------------------------------------------------------

def _splice(embs: Sequence[AffineMap1], pieces: Sequence) -> tuple:
    """``(ts, vals, vm)``: the path on [0, m] that plays each piece ``(ts,
    vals, vm)`` (breaks ints over ``ts[-1]`` from 0, strictly increasing)
    over ``embs[k]`` of its own span and runs straight from one piece's end
    to the next one's start, m the LCM of ``emb.d * ts[-1]``.  Before the
    first piece it rests at that piece's start, and after the last at that
    piece's end.  There is at least one piece, and each piece ends strictly
    before the next starts.  Values go to the LCM of the denominators met."""
    m = math.lcm(*[emb.d * piece[0][-1] for emb, piece in zip(embs, pieces)])
    vm = math.lcm(*[piece[2] for piece in pieces])
    ts, vals = [], []
    for emb, (pts, points, pm) in zip(embs, pieces):
        s = m // (emb.d * pts[-1])
        a, c = emb.an * s, emb.cn * pts[-1] * s
        ts.extend([a * t + c for t in pts])
        k = vm // pm
        vals.extend(points if k == 1 else
                    [tuple([x * k for x in v]) for v in points])
    if ts[0]:
        ts.insert(0, 0)
        vals.insert(0, vals[0])
    if ts[-1] != m:
        ts.append(m)
        vals.append(vals[-1])
    return ts, vals, vm


def act_on_loops(config: IntervalConfig, loops: Sequence[Loop]) -> Loop:
    """Play loop i inside interval i, rest at the basepoint elsewhere.

    The intervals must lie in [0, 1] and run left to right, each piece
    ending strictly before the next starts; otherwise ``ValueError`` with
    the message of :func:`~strips_operad.intervals.interval_violation`.
    Checked in order: the loop count, the configuration, the loops'
    dimensions, their basepoint.  The loops are spliced directly
    (:func:`_splice`): the result breaks at 0, 1 and the image of every
    loop breakpoint and takes the loop's own value there; every loop starts
    and ends at the basepoint, so the splice rests there outside the intervals.
    """
    if len(loops) != config.arity:
        raise ValueError(f"{config.arity} intervals need {config.arity} loops, "
                         f"got {len(loops)}")
    defect = interval_violation(config)
    if defect is not None:
        raise ValueError(defect)
    dims = {loop.dim for loop in loops}
    if len(dims) > 1:
        raise ValueError("loops live in different dimensions")
    first = loops[0].path
    base = (first._v[0], first._vm)
    if not all(_is_point(loop.path._v[0], loop.path._vm, base) for loop in loops):
        raise ValueError("loops must share a basepoint")
    return _play(config.embeddings, [loop.path for loop in loops])


def _play(embs: Sequence[AffineMap1], paths: Sequence[PLPath]) -> Loop:
    """:func:`act_on_loops` of the loops ``paths`` (one dimension, one
    basepoint) in the intervals ``embs`` (checked), without checking them
    again: one :func:`_splice` of the paths in x."""
    return Loop(_path(*_splice(embs, [(p._t, p._v, p._vm) for p in paths])))


def act_on_sheets(f: PointedMap, config: StripConfig,
                  inputs: Sequence) -> SheetElement:
    """Assemble one sheet element from a chain of them per strip.

    ``inputs[i]`` is a sequence of ``shape[i]`` elements whose loops chain
    end-to-start (the top loop of each equals the bottom loop of the next),
    or a single :class:`Loop` when strip i is empty.

    The strips must lie in [0, 1] and run left to right, and the rectangles
    of each strip must lie in [0, 1] and run bottom to top, each piece
    ending strictly before the next starts; otherwise ``ValueError`` with
    the message of :func:`~strips_operad.strips.strip_violation`.  The
    input count is checked first, then the configuration, then each strip
    in turn: its chain, its loops and its sheets' dimension.

    Everything is computed on the stored ints.  The output sheet is one
    splice in x (:func:`_splice`) of one piece per strip: its columns, at
    x-lines in the strip's own units.  A strip with rectangles is read from
    its sheets alone: its x-lines are the union of its sheets' x-lines, in
    the LCM of their denominators, and each column is one splice in y:
    inside rectangle j it reads sheet j's column at that x
    (:func:`~strips_operad.exact._columns_at`), rescaled into the
    rectangle; below the first rectangle it rests at the lowest sheet's
    bottom value and above the last at the highest sheet's top value;
    between two rectangles it runs from the lower sheet's top to the upper
    one's bottom.  For a valid element those values are junction loop 0, n
    and g pushed through f, and a minimal sheet keeps an x-line wherever its
    bottom or top edge bends, so the pushed loops add no x-line.  An element
    whose sheet edge is not f of its loop yields the sheet's edge there.
    An empty strip is its junction loop pushed through f
    (:func:`push_loop`), constant in y, with a column at each of its
    breaks.  Left of the first strip the sheet rests at that strip's left
    column, right of the last at that strip's right column, and between two
    strips it runs straight from one's right column to the next one's left
    column; for valid inputs every such column is p, so the sheet is p
    outside all strips.  A sheet's interior x-line bends in the output, and
    so does a break of a pushed loop, so only the x-lines on the strips'
    edges can turn out redundant (:func:`~strips_operad.exact._sheet`).
    """
    r = config.arity
    if len(inputs) != r:
        raise ValueError(f"{r} strips need {r} inputs, got {len(inputs)}")
    defect = strip_violation(config)
    if defect is not None:
        raise ValueError(defect)
    embs = config.base.embeddings

    bottoms, tops, pieces = [], [], []
    for i, (n, inp, rects) in enumerate(zip(config.shape, inputs, config.rects)):
        if n == 0:
            if not isinstance(inp, Loop):
                raise ChainError(f"strip {i + 1} is empty and takes a single loop")
            elems, loops = (), (inp,)
        elif isinstance(inp, (Loop, SheetElement)):
            raise ChainError(f"strip {i + 1} takes a sequence of {n} elements")
        else:
            elems = tuple(inp)
            if len(elems) != n:
                raise ChainError(f"strip {i + 1} takes {n} chained elements, "
                                 f"got {len(elems)}")
            for a in range(n - 1):
                if elems[a].top != elems[a + 1].bottom:
                    raise ChainError(
                        f"strip {i + 1}: top loop of element {a + 1} differs "
                        f"from bottom loop of element {a + 2}")
            loops = (elems[0].bottom,) + tuple(e.top for e in elems)
        for loop in loops:
            defect = _loop_defect(f, loop, f"strip {i + 1}: loop")
            if defect:
                raise ValueError(defect)
        sheets = [e.sheet for e in elems]
        for sheet in sheets:
            if sheet.dim != f.dim_out:
                raise ValueError(f"strip {i + 1}: sheet dimension {sheet.dim} "
                                 f"does not match the map target {f.dim_out}")
        bottoms.append(loops[0].path)
        tops.append(loops[-1].path)
        if not f.dim_out:
            continue
        if sheets:          # each sheet read once along the strip's columns
            unit = math.lcm(*[s._x[-1] for s in sheets])
            xcols = sorted({x for s in sheets for x in _rescaled(s._x, unit)})
            reads = [_columns_at(s, unit, xcols) for s in sheets]
            cols = [_minimal(*_splice(rects, col)) for col in zip(*reads)]
        else:               # the pushed loop at its own breaks, constant in y
            path = push_loop(f, inp)
            xcols = path._t
            cols = [_minimal((0, 1), (v, v), path._vm) for v in path._v]
        pieces.append((xcols, cols, 1))     # each column has its own denominators

    if f.dim_out:
        xs, cols, _ = _splice(embs, pieces)
        sheet = _sheet(xs, cols, {c * (xs[-1] // e.d) for e in embs
                                  for c in (e.cn, e.an + e.cn)})
    else:                           # Q^0 is a point, so is every sheet in it
        point = _minimal((0, 1), ((), ()), 1)
        sheet = _sheet((0, 1), (point, point))
    return SheetElement(sheet, _play(embs, bottoms), _play(embs, tops))


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
    sheet = elem.sheet
    for edge, k in (("left", 0), ("right", -1)):
        _, vals, vm = sheet._c[k]
        if not all(_is_point(v, vm, f._p) for v in vals):
            # name the first height of the product grid where it is not p
            ys, read = _align(sheet._c)
            col, vm = read[k]
            for y, v in zip(ys, col):
                if not _is_point(v, vm, f._p):
                    return (f"{edge} edge value {_fractions(v, vm)} at height "
                            f"{Fraction(y, ys[-1])}, expected the basepoint "
                            f"{f.cod_base}")
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


def random_point(rng: random.Random, dim: int) -> tuple:
    return _fractions(_random_quarters(rng, dim, 4), 4)


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
    return _random_loop(rng, dim, _over_lcm(_ratios(base)))


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
    # f of each loop at every column; each column is stored over the LCM of
    # its own three values' denominators
    lows, highs = [_values_at(_rescaled(path._t, xm), path._v, path._vm, xs)
                   for path in (push_loop(f, bottom), push_loop(f, top))]
    cols = []
    for x, low, high in zip(xs, lows, highs):
        inner = f._p if x == 0 or x == xm else (_random_quarters(rng, f.dim_out), 4)
        m = math.lcm(low[1], inner[1], high[1])
        cols.append(_minimal((0, y_cut, GRID), [tuple([c * (m // d) for c in v])
                                                for v, d in (low, inner, high)], m))
    return SheetElement(_sheet(xs, cols), bottom, top)


def random_pointed_map(rng: random.Random, dim_in: int, dim_out: int) -> PointedMap:
    matrix = tuple(tuple(Fraction(rng.randint(-2, 2), rng.choice((1, 2)))
                         for _ in range(dim_in))
                   for _ in range(dim_out))
    return PointedMap(matrix, random_point(rng, dim_in), random_point(rng, dim_out))


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


def random_sheet_algebra(rng: random.Random) -> AlgebraInstance:
    """The algebra over a random map from dimension 0, 1 or 2 to 0, 1 or 2."""
    return sheet_algebra(random_pointed_map(rng, rng.randint(0, 2),
                                            rng.randint(0, 2)))
