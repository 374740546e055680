"""Deliberately broken instances, for confirming that the checkers catch a
broken law.

Each mutant is the production instance with one callable replaced; its name
and everything else are unchanged.  ``strips-operad check --mutate`` runs
them, and so do the tests.

* :func:`intervals_operad` -- every composite's last embedding drifts by
  ``DRIFT`` = 1/1000.
* :func:`strips_rel_operad` -- every composite's last rectangle (in the last
  non-empty strip) drifts vertically by ``DRIFT``, read when the composite
  is made.
* :func:`trees_operad` -- every composite with an internal edge has one
  edge contracted; a composite that is a corolla is unchanged.
* :func:`sheet_algebra` -- every acted sheet's value at the centre of the
  square drifts by ``DRIFT`` in its first coordinate, so the target
  dimension must be positive; :func:`random_sheet_algebra` is
  ``sheets.random_sheet_algebra`` with target dimension 1 or 2.
"""
from __future__ import annotations

import math
import random
from dataclasses import replace
from fractions import Fraction

from . import intervals, sheets, strips, trees
from .exact import (AffineMap1, GridSheet, _columns_at, _minimal, _rescaled,
                    _segments, _sheet, _sum, _union)
from .framework import AlgebraInstance, OperadInstance, RelTwoOperadInstance
from .intervals import IntervalConfig, interval_compose
from .sheets import SheetElement, act_on_sheets, random_pointed_map
from .strips import StripConfig, strip_compose
from .trees import graft, one_step_contractions

DRIFT = Fraction(1, 1000)


def intervals_operad() -> OperadInstance:
    def compose(outer, inners):
        emb = interval_compose(outer, inners).embeddings
        bad = AffineMap1(emb[-1].a, emb[-1].c + DRIFT)
        return IntervalConfig(emb[:-1] + (bad,))

    return replace(intervals.intervals_operad(), compose=compose)


def strips_rel_operad() -> RelTwoOperadInstance:
    def compose(outer, blocks):
        result = strip_compose(outer, blocks)
        rows = list(result.rects)
        for i in range(len(rows) - 1, -1, -1):
            if rows[i]:
                rect = rows[i][-1]
                rows[i] = rows[i][:-1] + (AffineMap1(rect.a, rect.c + DRIFT),)
                break
        return StripConfig(result.shape, result.base, tuple(rows))

    return replace(strips.strips_rel_operad(), compose=compose)


def trees_operad() -> OperadInstance:
    def compose(outer, inners):
        result = graft(outer, inners)
        return next(one_step_contractions(result), result)

    return replace(trees.trees_operad(), compose=compose)


def sheet_algebra(f: sheets.PointedMap) -> AlgebraInstance:
    if f.dim_out < 1:
        raise ValueError("the sheets mutant needs at least one target dimension")

    def act(config, inputs):
        res = act_on_sheets(f, config, inputs)
        return SheetElement(_drifted(res.sheet), res.bottom, res.top)

    return replace(sheets.sheet_algebra(f), act_sheet=act)


def _drifted(sheet: GridSheet) -> GridSheet:
    """The sheet with its value at the centre moved by DRIFT in the first
    coordinate, on its minimal product grid with lines at 1/2 added, and
    bilinear on each cell of that grid.  The sheet is bilinear on those
    cells already, so this adds DRIFT times the grid's hat function at the
    centre.  The hat is 0 on every x-line but 1/2, so only the column at
    1/2 changes: it gains a tent in y, DRIFT at 1/2 and 0 from the product
    grid's y-lines on either side, added to the column at 1/2 by
    :func:`~strips_operad.exact._sum`.  Built on the stored ints."""
    unit = math.lcm(sheet._x[-1], 2)
    xs, half = list(_rescaled(sheet._x, unit)), unit // 2
    (col,) = _columns_at(sheet, unit, [half])
    ys = _union(sheet._c)
    ym = math.lcm(ys[-1], 2)
    ys = sorted({ym // 2, *_rescaled(ys, ym)})
    k = ys.index(ym // 2)
    zero = (0,) * len(col[1][0])
    lo, hi = ys[k - 1], ys[k + 1]
    tent = ([0] * (lo > 0) + [lo, ym // 2, hi] + [ym] * (hi < ym),
            [zero] * (lo > 0) + [zero, (DRIFT.numerator, *zero[1:]), zero]
            + [zero] * (hi < ym), DRIFT.denominator)
    col = _minimal(*_sum(col, 1, tent, 1, 1))
    cols = list(sheet._c)
    ((i, w),) = _segments(xs, [half])
    if w is None:
        cols[i] = col
    else:
        xs.insert(i + 1, half)
        cols.insert(i + 1, col)
    return _sheet(xs, cols)


def random_sheet_algebra(rng: random.Random) -> AlgebraInstance:
    """:func:`strips_operad.sheets.random_sheet_algebra` with the mutant
    :func:`sheet_algebra` and target dimension 1 or 2."""
    return sheet_algebra(random_pointed_map(rng, rng.randint(0, 2),
                                            rng.randint(1, 2)))
