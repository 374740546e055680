"""Shared test utilities: strategies, independent oracles, chain builders,
reference reprs."""
from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction

from hypothesis import strategies as st

from strips_operad.exact import ONE, ZERO, GridSheet, PLPath, as_point
from strips_operad.framework import AlgebraInstance, CheckReport
from strips_operad.serialize import array_from_json
from strips_operad.sheets import (Loop, PointedMap, random_loop,
                                  random_sheet_element)
from strips_operad.strips import StripConfig, strips_rel_operad
from strips_operad.trees import LEAF, PlanarTree

# --- hypothesis strategies --------------------------------------------------

rationals = st.fractions(min_value=Fraction(-4), max_value=Fraction(4),
                         max_denominator=64)
positive_scales = st.fractions(min_value=Fraction(1, 32), max_value=Fraction(4),
                               max_denominator=32)
unit_rationals = st.fractions(min_value=Fraction(0), max_value=Fraction(1),
                              max_denominator=64)


# --- independent associahedron oracle ----------------------------------------

def polygon_dissection_counts(r: int) -> dict:
    """Faces of the (r-2)-dimensional associahedron, counted independently.

    Faces correspond to sets of pairwise non-crossing diagonals of a convex
    (r+1)-gon; a set of size s is a face of dimension r - 2 - s.  Counted by
    plain backtracking over the diagonal list, with no tree structures
    involved.  Returns {dimension: count}.
    """
    n = r + 1
    diagonals = [(i, j)
                 for i in range(1, n + 1)
                 for j in range(i + 2, n + 1)
                 if not (i == 1 and j == n)]

    def crosses(d1, d2):
        (a, b), (c, d) = d1, d2
        return (a < c < b < d) or (c < a < d < b)

    counts: dict = {}

    def extend(start: int, chosen: list) -> None:
        dim = r - 2 - len(chosen)
        counts[dim] = counts.get(dim, 0) + 1
        for k in range(start, len(diagonals)):
            d = diagonals[k]
            if all(not crosses(d, c) for c in chosen):
                chosen.append(d)
                extend(k + 1, chosen)
                chosen.pop()

    extend(0, [])
    return counts


def catalan(k: int) -> int:
    import math
    return math.comb(2 * k, k) // (k + 1)


# --- constant paths, sheets and loops ---------------------------------------

def constant_path(value) -> PLPath:
    v = as_point(value)
    return PLPath((ZERO, ONE), (v, v))


def constant_sheet(value) -> GridSheet:
    v = as_point(value)
    return GridSheet((ZERO, ONE), (ZERO, ONE), ((v, v), (v, v)))


def constant_loop(basepoint) -> Loop:
    return Loop(constant_path(basepoint))


# --- trees from JSON ---------------------------------------------------------

def tree_from_json(obj) -> PlanarTree:
    """The tree of a ``serialize.tree_to_json`` document: a leaf is ``[]``,
    any other tree the list of its children."""
    if array_from_json(obj, "a tree") == []:
        return LEAF
    return PlanarTree(tuple(tree_from_json(c) for c in obj))


# --- redundant presentations of paths and sheets -----------------------------

def path_presentation(path, extra) -> tuple:
    """``(breaks, values)`` of ``path``'s function on its breaks and the
    points of ``extra`` in [0, 1]: a presentation with redundant breaks."""
    breaks = tuple(sorted({*path.breaks, *map(Fraction, extra)}))
    return breaks, tuple(path.at(t) for t in breaks)


def sheet_presentation(sheet, extra_x, extra_y) -> tuple:
    """``(x_breaks, y_breaks, values)`` of ``sheet``'s function on its grid
    lines and the extra ones: a presentation with redundant grid lines."""
    xb = tuple(sorted({*sheet.x_breaks, *map(Fraction, extra_x)}))
    yb = tuple(sorted({*sheet.y_breaks, *map(Fraction, extra_y)}))
    return xb, yb, tuple(tuple(sheet.at(x, y) for y in yb) for x in xb)


# --- chain inputs for sheet actions ------------------------------------------

def chain_inputs(f: PointedMap, config: StripConfig, rng: random.Random):
    """Valid inputs for acting with ``config``: a chain per strip, a loop for
    each empty strip."""
    inputs = []
    for n in config.shape:
        if n == 0:
            inputs.append(random_loop(rng, f.dim_in, f.dom_base))
            continue
        chain = [random_sheet_element(f, rng)]
        for _ in range(n - 1):
            chain.append(random_sheet_element(f, rng, source=chain[-1].top))
        inputs.append(tuple(chain))
    return tuple(inputs)


# --- an algebra whose carriers are tuples ---------------------------------------

def _word(rng: random.Random) -> tuple:
    return tuple(rng.randrange(3) for _ in range(rng.randrange(4)))


def words_algebra(reverse_top: bool = False) -> AlgebraInstance:
    """Carriers are words, tuples of small ints, and an element is its
    ``(bottom, top)`` pair of words.  A path concatenates its words; a sheet
    concatenates each strip's first bottom and last top, and reads the word
    w over an empty strip as ``(w, w)``.  ``reverse_top`` gives a mutant
    whose sheets reverse their top word."""
    def act_sheet(config, inputs):
        bottom = top = ()
        for n, x in zip(config.shape, inputs):
            bottom += x[0][0] if n else x
            top += x[-1][1] if n else x
        return bottom, top[::-1] if reverse_top else top

    def random_element(rng, source=None):
        return _word(rng) if source is None else source, _word(rng)

    return AlgebraInstance(strips_rel_operad(), operator.itemgetter(0),
                           operator.itemgetter(1),
                           lambda config, words: sum(words, ()), act_sheet,
                           _word, random_element, lambda value: None)


# --- check reports -------------------------------------------------------------

def report_bytes(report: CheckReport) -> bytes:
    """The report's JSON text, as ``check --out`` writes it, encoded."""
    return "".join(report.json_pieces()).encode()


# --- reference reprs -----------------------------------------------------------

def dataclass_repr(class_name: str, /, **parts) -> str:
    """The repr of a frozen dataclass called ``class_name`` with these
    fields, as paths, sheets and the package's records printed when they
    were dataclasses."""
    fields = {"__annotations__": dict.fromkeys(parts, "tuple")}
    cls = dataclass(frozen=True)(type(class_name, (), fields))
    return repr(cls(**parts))
