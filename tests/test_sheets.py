"""Loops, sheets, and the action of strip diagrams on them."""
import json
import random
import re
from fractions import Fraction as F
from functools import partial

import pytest

from strips_operad import mutants, sheets
from strips_operad.cli import main
from strips_operad.exact import AffineMap1, GridSheet, PLPath
from strips_operad.framework import (ChainError, random_algebra_elements,
                                     random_algebra_plan, run_algebra_check)
from strips_operad.intervals import (IntervalConfig, grid_embeddings,
                                     interval_unit, interval_violation)
from strips_operad.serialize import (intervals_to_json, sheet_from_json,
                                     sheet_to_json, strip_to_json)
from strips_operad.sheets import (Loop, PointedMap, SheetElement,
                                  act_on_loops, act_on_sheets,
                                  push_loop, random_loop, random_pointed_map,
                                  random_sheet_element, sheet_algebra,
                                  sheet_violation)
from strips_operad.strips import (StripConfig, random_strip, strip_unit,
                                  strip_violation, strips_rel_operad)

from helpers import (chain_inputs, constant_loop, constant_path, constant_sheet,
                     path_presentation, sheet_presentation)


def _map2d() -> PointedMap:
    # doubles both coordinates, sends (1, 1) to (1, 1)
    return PointedMap(((F(2), F(0)), (F(0), F(2))), (F(1), F(1)), (F(1), F(1)))


# --- pointed maps ---------------------------------------------------------------

def test_pointed_map_sends_basepoint_to_basepoint():
    f = _map2d()
    assert f.apply(f.dom_base) == f.cod_base
    assert f.apply((F(2), F(1))) == (F(3), F(1))


def test_pointed_map_dimension_checks():
    with pytest.raises(ValueError, match="rows"):
        PointedMap(((F(1), F(0)),), (F(0), F(0)), (F(0), F(0)))
    with pytest.raises(ValueError, match="columns"):
        PointedMap(((F(1), F(0)),), (F(0),), (F(0),))


def _huge_rational(rng: random.Random) -> F:
    if rng.random() < 0.2:
        return F(0)
    return F(rng.randint(-10**12, 10**12), rng.randint(1, 10**12))


def test_pointed_map_apply_matches_fraction_sums():
    rng = random.Random(67)
    seen = set()
    for _ in range(300):
        din, dout = rng.randint(0, 3), rng.randint(0, 3)
        seen.add((din, dout))
        matrix = tuple(tuple(_huge_rational(rng) for _ in range(din))
                       for _ in range(dout))
        dom = tuple(_huge_rational(rng) for _ in range(din))
        cod = tuple(_huge_rational(rng) for _ in range(dout))
        f = PointedMap(matrix, dom, cod)
        for point in (dom, tuple(_huge_rational(rng) for _ in range(din)),
                      tuple(rng.randint(-5, 5) for _ in range(din))):
            got = f.apply(point)
            want = tuple(sum(a * F(x) for a, x in zip(row, point)) + b
                         for row, b in zip(f.matrix, f.offset))
            assert got == want
            assert all(type(c) is F for c in got)
        assert f.apply(dom) == f.cod_base
    assert len(seen) == 16      # every pair of dimensions in 0..3


def test_pointed_map_apply_rejects_a_point_of_the_wrong_dimension():
    f = _map2d()
    for point in ((F(3),), (F(1), F(2), F(3))):
        with pytest.raises(ValueError) as caught:
            f.apply(point)
        assert str(caught.value) == (f"point dimension {len(point)} does not "
                                     f"match the map source 2")


def test_push_loop_rejects_a_loop_of_the_wrong_dimension():
    f = _map2d()
    loop = Loop(PLPath((F(0), F(1, 2), F(1)), ((F(1),), (F(3),), (F(1),))))
    with pytest.raises(ValueError, match="point dimension 1 does not match "
                                         "the map source 2"):
        push_loop(f, loop)


def test_random_pointed_map_is_pointed():
    rng = random.Random(5)
    for din, dout in ((0, 0), (0, 2), (2, 0), (1, 2)):
        f = random_pointed_map(rng, din, dout)
        assert f.dim_in == din and f.dim_out == dout
        assert f.apply(f.dom_base) == f.cod_base


# --- loops ----------------------------------------------------------------------

def test_loop_must_close_at_basepoint():
    with pytest.raises(ValueError):
        Loop(PLPath((F(0), F(1)), ((F(0),), (F(1),))))


def test_loop_is_canonicalized():
    loop = Loop(PLPath(*path_presentation(constant_path((F(1),)), {F(1, 3)})))
    assert loop.path.breaks == (F(0), F(1))
    assert loop.basepoint == (F(1),)


def test_push_loop_applies_map_pointwise():
    f = _map2d()
    q = f.dom_base
    loop = Loop(PLPath((F(0), F(1, 2), F(1)),
                       (q, (F(2), F(3)), q)))
    pushed = push_loop(f, loop)
    assert pushed.at(F(0)) == f.cod_base
    assert pushed.at(F(1, 2)) == (F(3), F(5))


# --- loop action -----------------------------------------------------------------

def test_push_loop_keeps_each_maps_own_image():
    rng = random.Random(61)
    loop = random_loop(rng, 2, (F(1), F(1)))
    pristine = Loop(loop.path)
    doubling = _map2d()
    shearing = PointedMap(((F(1), F(1)), (F(0), F(-1))),
                          (F(1), F(1)), (F(0), F(0)))

    def image(f):
        return PLPath(loop.path.breaks,
                      tuple(f.apply(v) for v in loop.path.values))

    for f in (doubling, shearing, doubling, shearing):
        assert push_loop(f, loop) == image(f)
    assert push_loop(doubling, loop) != push_loop(shearing, loop)
    # an equal map that is another object gets an equal image
    twin = PointedMap(doubling.matrix, doubling.dom_base, doubling.cod_base)
    assert push_loop(twin, loop) == image(doubling)
    # what push_loop keeps on the loop is not part of its value
    assert loop == pristine and hash(loop) == hash(pristine)
    assert repr(loop) == repr(pristine)


def test_act_on_loops_unit_is_identity():
    rng = random.Random(1)
    loop = random_loop(rng, 2, (F(1), F(0)))
    assert act_on_loops(interval_unit(), [loop]) == loop


def test_act_on_loops_rests_at_basepoint_between_intervals():
    q = (F(1), F(-1, 2))
    cfg = IntervalConfig((AffineMap1(F(3, 8), F(0)),
                          AffineMap1(F(3, 8), F(5, 8))))
    v = (F(2), F(2))
    l1 = Loop(PLPath((F(0), F(1, 2), F(1)), (q, v, q)))
    l2 = Loop(PLPath((F(0), F(1, 2), F(1)), (q, v, q)))
    out = act_on_loops(cfg, [l1, l2])
    assert out.basepoint == q
    assert out.path.breaks == (F(0), F(3, 16), F(3, 8), F(5, 8),
                               F(13, 16), F(1))
    assert out.at(F(1, 2)) == q        # the gap rests at the basepoint
    assert out.at(F(3, 16)) == v       # peak of the first loop
    assert out.at(F(13, 16)) == v      # peak of the second loop
    assert out.at(F(3, 32)) == ((q[0] + v[0]) / 2, (q[1] + v[1]) / 2)


def test_act_on_loops_all_constant_gives_constant():
    q = (F(0), F(0))
    cfg = IntervalConfig((AffineMap1(F(1, 4), F(1, 8)),))
    out = act_on_loops(cfg, [constant_loop(q)])
    assert out == constant_loop(q)


def test_act_on_loops_validates_count_and_basepoint():
    cfg = IntervalConfig((AffineMap1(F(1, 4), F(1, 8)),))
    with pytest.raises(ValueError):
        act_on_loops(cfg, [])
    with pytest.raises(ValueError):
        act_on_loops(cfg, [constant_loop((F(0),)), constant_loop((F(0),))])


# --- sheet elements ----------------------------------------------------------------

def test_random_sheet_element_is_valid():
    rng = random.Random(7)
    for din, dout in ((0, 0), (0, 1), (2, 0), (1, 2)):
        f = random_pointed_map(rng, din, dout)
        for _ in range(10):
            elem = random_sheet_element(f, rng)
            assert sheet_violation(f, elem) is None
            # the columns built directly are stored as the constructor and
            # the JSON decoder store the product grid they present
            s = elem.sheet
            for twin in (GridSheet(s.x_breaks, s.y_breaks, s.values),
                         sheet_from_json(sheet_to_json(s))):
                assert twin == s and hash(twin) == hash(s)


def test_random_sheet_element_rejects_a_foreign_source_before_drawing():
    f = _map2d()
    rng = random.Random(97)
    flat = random_loop(random.Random(1), 1, (F(1),))
    elsewhere = random_loop(random.Random(2), 2, (F(5), F(5)))
    for source, message in ((flat, "source loop dimension 1, expected 2"),
                            (elsewhere, "source loop based at (Fraction(5, 1), "
                                        "Fraction(5, 1)), expected (Fraction(1, 1), "
                                        "Fraction(1, 1))")):
        state = rng.getstate()
        with pytest.raises(ValueError) as caught:
            random_sheet_element(f, rng, source)
        assert str(caught.value) == message
        assert rng.getstate() == state


def test_sheet_violation_catches_broken_side():
    f = _map2d()
    rng = random.Random(11)
    elem = random_sheet_element(f, rng)
    xb, yb, values = sheet_presentation(elem.sheet, {F(1, 2)}, {F(1, 2)})
    values = [list(col) for col in values]
    values[0][1] = (values[0][1][0] + F(1, 7), values[0][1][1])
    broken = GridSheet(xb, yb, tuple(tuple(col) for col in values))
    msg = sheet_violation(f, SheetElement(broken, elem.bottom, elem.top))
    assert msg is not None and "left edge" in msg



def test_sheet_violation_names_the_first_height_of_the_product_grid():
    # the left column bends only at 1/2, but the middle one bends at 1/4, so
    # the product grid's first height off p on the left edge is 1/4
    f = _map2d()
    p, v = f.cod_base, (F(2), F(1))
    half = tuple((a + b) / 2 for a, b in zip(p, v))
    left = (p, half, v, p)
    middle = (p, (F(5), F(1)), (F(11, 3), F(1)), p)
    sheet = GridSheet((F(0), F(1, 2), F(1)), (F(0), F(1, 4), F(1, 2), F(1)),
                      (left, middle, (p,) * 4))
    assert [len(ts) for ts, _, _ in sheet._c] == [3, 3, 2]
    still = constant_loop(f.dom_base)
    assert sheet_violation(f, SheetElement(sheet, still, still)) == (
        f"left edge value {half} at height 1/4, expected the basepoint {p}")


def test_sheet_violation_catches_edge_mismatch():
    f = _map2d()
    rng = random.Random(13)
    elem = random_sheet_element(f, rng)
    other = random_loop(rng, f.dim_in, f.dom_base)
    while push_loop(f, other) == push_loop(f, elem.bottom):
        other = random_loop(rng, f.dim_in, f.dom_base)
    msg = sheet_violation(f, SheetElement(elem.sheet, other, elem.top))
    assert msg is not None and "bottom" in msg


def test_sheet_violation_catches_dimension_mismatch():
    f = _map2d()
    rng = random.Random(17)
    elem = random_sheet_element(f, rng)
    bad = SheetElement(elem.sheet, constant_loop((F(0),)), elem.top)
    assert "dimension" in sheet_violation(f, bad)


def test_all_basepoint_element_is_valid():
    f = _map2d()
    elem = SheetElement(constant_sheet(f.cod_base),
                        constant_loop(f.dom_base),
                        constant_loop(f.dom_base))
    assert sheet_violation(f, elem) is None
    assert (elem.bottom, elem.top) == (constant_loop(f.dom_base),
                                       constant_loop(f.dom_base))


# --- sheet action -----------------------------------------------------------------

def test_act_on_sheets_unit_is_identity():
    f = _map2d()
    rng = random.Random(19)
    elem = random_sheet_element(f, rng)
    out = act_on_sheets(f, strip_unit(), ((elem,),))
    assert out == elem


def test_act_on_sheets_output_is_valid_and_boundaries_match():
    rng = random.Random(23)
    for din, dout in ((1, 1), (2, 2), (0, 2), (2, 0)):
        f = random_pointed_map(rng, din, dout)
        for _ in range(5):
            shape = tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 3)))
            if not any(shape):
                shape = shape[:-1] + (1,)
            config = random_strip(shape, seed=rng.randint(0, 10 ** 6))
            inputs = chain_inputs(f, config, rng)
            out = act_on_sheets(f, config, inputs)
            assert sheet_violation(f, out) is None

            from strips_operad.strips import strip_project
            bottoms = []
            tops = []
            for n, chain in zip(config.shape, inputs):
                if n == 0:
                    bottoms.append(chain)
                    tops.append(chain)
                else:
                    bottoms.append(chain[0].bottom)
                    tops.append(chain[-1].top)
            assert out.bottom == act_on_loops(strip_project(config), bottoms)
            assert out.top == act_on_loops(strip_project(config), tops)


def test_act_on_sheets_outside_strips_is_basepoint():
    f = _map2d()
    rng = random.Random(29)
    config = random_strip((1, 1), seed=31)
    inputs = chain_inputs(f, config, rng)
    out = act_on_sheets(f, config, inputs)
    images = [e.image() for e in config.base.embeddings]
    p = f.cod_base
    for _ in range(40):
        x = F(rng.randint(0, 64), 64)
        if any(lo <= x <= hi for lo, hi in images):
            continue
        y = F(rng.randint(0, 8), 8)
        assert out.sheet.at(x, y) == p


def test_act_on_sheets_rests_at_the_outer_strips_and_runs_straight_between():
    # the output is one splice in x of its strips' columns: left of the first
    # strip it rests at that strip's left column, right of the last at that
    # strip's right column, and between two strips it runs straight from one
    # strip's edge column to the next one's.  For a valid element each of
    # those columns is p, so only an element whose sides are not p shows it.
    f = _map2d()
    left, right = (F(3), F(-2)), (F(5), F(7))
    sheet = GridSheet((F(0), F(1)), (F(0), F(1)), ((left, left), (right, right)))
    loop = constant_loop(f.dom_base)
    elem = SheetElement(sheet, loop, loop)
    assert sheet_violation(f, elem).startswith("left edge value (Fraction(3, 1)")
    quarter = F(1, 4)
    base = IntervalConfig((AffineMap1(quarter, F(1, 8)), AffineMap1(quarter, F(1, 2))))
    config = StripConfig((1, 1), base, ((AffineMap1(F(1, 2), quarter),),) * 2)
    out = act_on_sheets(f, config, ((elem,), (elem,))).sheet
    for k in range(33):
        x = F(k, 32)
        if x <= F(1, 8):                   # left of strip 1: its left column
            want = left
        elif F(3, 8) <= x <= F(1, 2):      # from strip 1's right to 2's left
            s = (x - F(3, 8)) / F(1, 8)
            want = tuple(a + (b - a) * s for a, b in zip(right, left))
        elif x >= F(3, 4):                 # right of strip 2: its right column
            want = right
        else:
            continue
        for y in (F(0), F(1, 3), F(1)):
            assert out.at(x, y) == want


def test_act_on_sheets_chain_mismatch_raises():
    f = _map2d()
    rng = random.Random(37)
    config = random_strip((2,), seed=41)
    e1 = random_sheet_element(f, rng)
    e2 = random_sheet_element(f, rng)
    while e2.bottom == e1.top:
        e2 = random_sheet_element(f, rng)
    with pytest.raises(ChainError):
        act_on_sheets(f, config, ((e1, e2),))


def test_act_on_sheets_empty_strip_needs_a_loop():
    f = _map2d()
    rng = random.Random(43)
    config = random_strip((0, 1), seed=47)
    elem = random_sheet_element(f, rng)
    with pytest.raises(ChainError):
        act_on_sheets(f, config, ((elem,), (elem,)))
    loop = random_loop(rng, f.dim_in, f.dom_base)
    with pytest.raises(ChainError):
        act_on_sheets(f, config, (loop, loop))
    out = act_on_sheets(f, config, (loop, (elem,)))
    assert sheet_violation(f, out) is None


def test_empty_strip_plays_the_loop_through_the_map():
    f = _map2d()
    rng = random.Random(53)
    config = random_strip((0, 1), seed=59)
    loop = random_loop(rng, f.dim_in, f.dom_base)
    elem = random_sheet_element(f, rng)
    out = act_on_sheets(f, config, (loop, (elem,)))
    emb = config.base.embeddings[0]
    pushed = push_loop(f, loop)
    for k in range(17):
        t = F(k, 16)
        x = emb(t)
        for y in (F(0), F(1, 3), F(1)):
            assert out.sheet.at(x, y) == pushed.at(t)


# --- pointwise reference for the actions -------------------------------------------

def _reference_loop(config, loops, t):
    """The loop action at t, point by point: the first interval holding t plays
    its loop, anywhere else rests at the basepoint."""
    for emb, loop in zip(config.embeddings, loops):
        lo, hi = emb.image()
        if lo <= t <= hi:
            return loop.path.at(emb.invert(t))
    return loops[0].basepoint


def _reference_sheet(f, config, inputs, x, y):
    """The sheet action at (x, y), point by point: the first strip holding x,
    then the first of its rectangles holding y; in a gap, the junction loop
    above the rectangles below y, pushed through f; outside every strip, p."""
    for i, emb in enumerate(config.base.embeddings):
        lo, hi = emb.image()
        if lo <= x <= hi:
            break
    else:
        return f.cod_base
    below = 0
    for j, rect in enumerate(config.rects[i]):
        y_lo, y_hi = rect.image()
        if y_lo <= y <= y_hi:
            return inputs[i][j].sheet.at(emb.invert(x), rect.invert(y))
        if y_hi < y:
            below += 1
    chain = inputs[i]
    if config.shape[i] == 0:
        loop = chain
    elif below == 0:
        loop = chain[0].bottom
    else:
        loop = chain[below - 1].top
    return f.apply(loop.path.at(emb.invert(x)))


def _probe_lines(config, inputs):
    """Every x and y where the reference can bend: 0, 1, strip and rectangle
    edges and the images of all input breakpoints.  Both sides are bilinear
    between these lines, so agreeing on their crossings is agreeing
    everywhere."""
    xs, ys = {F(0), F(1)}, {F(0), F(1)}
    for i, (emb, n) in enumerate(zip(config.base.embeddings, config.shape)):
        xs.update(emb.image())
        loops = [inputs[i]] if n == 0 else [inputs[i][0].bottom] + [
            e.top for e in inputs[i]]
        for loop in loops:
            xs.update(emb(t) for t in loop.path.breaks)
        for rect, elem in zip(config.rects[i], inputs[i] if n else ()):
            xs.update(emb(t) for t in elem.sheet.x_breaks)
            ys.update(rect(t) for t in elem.sheet.y_breaks)
    return sorted(xs), sorted(ys)


def _assert_matches_reference(f, config, inputs):
    out = act_on_sheets(f, config, inputs)
    xs, ys = _probe_lines(config, inputs)
    for x in xs:
        for y in ys:
            assert out.sheet.at(x, y) == _reference_sheet(f, config, inputs, x, y)
    bottoms = [c if n == 0 else c[0].bottom for n, c in zip(config.shape, inputs)]
    tops = [c if n == 0 else c[-1].top for n, c in zip(config.shape, inputs)]
    for loops, edge in ((bottoms, out.bottom), (tops, out.top)):
        assert edge == act_on_loops(config.base, loops)
        for t in xs:
            assert edge.at(t) == _reference_loop(config.base, loops, t)
    return out


def test_actions_match_pointwise_reference_on_random_configurations():
    rng = random.Random(73)
    hits = dict.fromkeys(("empty strip", "dim_in 0", "dim_out 0",
                          "touches 0", "touches 1"), 0)
    for case in range(60):
        din, dout = rng.randint(0, 2), rng.randint(0, 2)
        f = random_pointed_map(rng, din, dout)
        r = rng.randint(1, 3)
        shape = tuple(rng.randint(0, 3) for _ in range(r))
        if not any(shape):
            shape = shape[:-1] + (1,)
        # coarse grids put intervals against 0 and 1 and rectangles against
        # the bottom and top of their strip
        base = IntervalConfig(grid_embeddings(
            r, rng, rng.choice((2 * r, 2 * r + 1, 4096))))
        d = rng.choice((2 * max(shape), 16, 4096))
        config = StripConfig(shape, base,
                             tuple(grid_embeddings(n, rng, d) for n in shape))
        inputs = chain_inputs(f, config, rng)
        _assert_matches_reference(f, config, inputs)
        spans = config.base.images()
        hits["empty strip"] += 0 in shape
        hits["dim_in 0"] += din == 0
        hits["dim_out 0"] += dout == 0
        hits["touches 0"] += spans[0][0] == 0
        hits["touches 1"] += spans[-1][1] == 1
    assert all(hits.values()), hits



def test_actions_match_pointwise_reference_at_check_scope():
    # configurations and inputs drawn as `check sheets --max-r 8 --max-n 32`
    # draws them; the assembled sheets, whose columns stop at different
    # y-lines, are then acted on again beside a fresh element
    rel = strips_rel_operad()
    rng = random.Random(137)
    tees = 0
    for case in range(10):
        f = random_pointed_map(rng, rng.randint(0, 2), rng.randint(0, 2))
        alg = sheet_algebra(f)
        plan = random_algebra_plan(rng, 8, 32)
        elems = random_algebra_elements(alg, rel, plan, rng)
        composite = rel.compose(elems.outer, elems.first)
        out = _assert_matches_reference(f, composite, elems.second)
        assert sheet_violation(f, out) is None
        # the action stores what the constructor stores for its product grid:
        # every column minimal, and only the x-lines that bend
        s = out.sheet
        again = GridSheet(s.x_breaks, s.y_breaks, s.values)
        assert (again._x, again._c) == (s._x, s._c)
        above = random_sheet_element(f, rng, source=out.top)
        config = random_strip((2, 0, 1), seed=139 + case)
        _assert_matches_reference(f, config, ((out, above), out.bottom, (out,)))
        tees += len({ts for ts, _, _ in out.sheet._c}) > 1
    assert tees >= 3


def _flattening_map() -> PointedMap:
    # reads only the first coordinate, so a loop that moves along the second
    # moves its image less, or not at all
    return PointedMap(((F(1), F(0)),), (F(0), F(0)), (F(3),))


def _loop(ts, *points) -> Loop:
    origin = (F(0), F(0))
    return Loop(PLPath(ts, (origin, *points, origin)))


# f keeps only the first coordinate: BEND pushes to 3, 4, 5, 3, so its break
# at 1/4 is gone, and STILL pushes to the constant loop at p
BEND = _loop((0, F(1, 4), F(1, 2), 1), (F(1), F(0)), (F(2), F(5)))
STILL = _loop((0, F(1, 3), F(2, 3), 1), (F(0), F(1)), (F(0), F(-2)))


def test_actions_match_reference_when_the_map_flattens_a_loop():
    # the junction loops push to paths with fewer breaks than they have,
    # and an empty strip takes its columns from its pushed path
    f = _flattening_map()
    for loop in (BEND, STILL):
        assert len(push_loop(f, loop).breaks) < len(loop.path.breaks)
    quarter, half = F(1, 4), F(1, 2)
    base = IntervalConfig((AffineMap1(half, 0), AffineMap1(quarter, F(3, 4))))
    config = StripConfig((1, 0), base, ((AffineMap1(half, quarter),), ()))
    rng = random.Random(101)
    for bottom in (BEND, STILL):
        elem = random_sheet_element(f, rng, source=bottom)
        for empty in (BEND, STILL):
            out = _assert_matches_reference(f, config, ((elem,), empty))
            assert sheet_violation(f, out) is None


def test_an_empty_strip_sees_only_the_pushed_loop():
    # two loops with one pushforward give one sheet, but their own edges
    f = _flattening_map()
    still = constant_loop(f.dom_base)
    bend = _loop((0, F(1, 4), F(1, 2), 1), (F(1), F(7)), (F(2), F(5)))
    assert push_loop(f, still) == push_loop(f, STILL)
    assert push_loop(f, bend) == push_loop(f, BEND)
    config = random_strip((0, 1), seed=109)
    elem = random_sheet_element(f, random.Random(113))
    for one, other in ((still, STILL), (bend, BEND)):
        a = act_on_sheets(f, config, (one, (elem,)))
        b = act_on_sheets(f, config, (other, (elem,)))
        assert a.sheet == b.sheet
        assert a.bottom != b.bottom and a.top != b.top


def test_strips_with_rectangles_push_no_loop(monkeypatch):
    # a strip with rectangles is read from its sheets alone, also where its
    # rectangles leave room below or above it; only an empty strip pushes
    # its loop through f
    pushes = []

    def counted(f, loop):
        pushes.append(loop)
        return push_loop(f, loop)

    monkeypatch.setattr(sheets, "push_loop", counted)
    rng = random.Random(149)
    gaps = 0
    for _ in range(30):
        f = random_pointed_map(rng, rng.randint(0, 2), rng.randint(0, 2))
        r = rng.randint(1, 3)
        shape = tuple(rng.randint(1, 3) for _ in range(r))
        base = IntervalConfig(grid_embeddings(r, rng, rng.choice((2 * r, 4096))))
        config = StripConfig(shape, base, tuple(
            grid_embeddings(n, rng, rng.choice((2 * n, 4096))) for n in shape))
        inputs = chain_inputs(f, config, rng)     # the sampler pushes loops
        pushes.clear()
        act_on_sheets(f, config, inputs)
        assert pushes == []
        gaps += any(rects[0].cn or rects[-1].an + rects[-1].cn < rects[-1].d
                    for rects in config.rects)
    assert gaps >= 10
    config = random_strip((1, 0), seed=151)
    chain, loop = chain_inputs(f, config, rng)
    pushes.clear()
    act_on_sheets(f, config, (chain, loop))
    assert pushes == [loop]


def test_a_column_runs_straight_across_the_gap_between_two_rectangles():
    # the lower sheet's top edge is a and the upper sheet's bottom edge is
    # b != a, and the chain's shared loop pushes to p, which is neither:
    # between the rectangles each column runs from a to b, read from the
    # sheets alone
    f = PointedMap(((F(1),),), (F(0),), (F(0),))
    a, b = (F(2),), (F(5),)
    p = f.cod_base
    lower = GridSheet((0, 1), (0, 1), ((p, a), (p, a)))
    upper = GridSheet((0, 1), (0, 1), ((b, p), (b, p)))
    loop = constant_loop(f.dom_base)
    chain = (SheetElement(lower, loop, loop), SheetElement(upper, loop, loop))
    y_lo, y_hi = F(3, 8), F(5, 8)
    strip = IntervalConfig((AffineMap1(F(1, 2), F(1, 4)),))
    config = StripConfig((2,), strip, ((AffineMap1(y_lo - F(1, 8), F(1, 8)),
                                        AffineMap1(F(7, 8) - y_hi, y_hi)),))
    out = act_on_sheets(f, config, (chain,)).sheet
    assert not any(y_lo < y < y_hi for y in out.y_breaks)
    for x in (F(1, 4), F(3, 8), F(1, 2), F(3, 4)):
        for k in range(5):
            t = F(k, 4)
            y = y_lo + t * (y_hi - y_lo)
            assert out.at(x, y) == (a[0] + t * (b[0] - a[0]),)


def test_a_foreign_loop_is_named_alike_by_action_check_and_sampler():
    f = _map2d()
    rng = random.Random(127)
    config = random_strip((1, 0), seed=131)
    elem = random_sheet_element(f, rng)
    flat = random_loop(random.Random(1), 1, (F(1),))
    elsewhere = random_loop(random.Random(2), 2, (F(5), F(5)))
    based = ("based at (Fraction(5, 1), Fraction(5, 1)), "
             "expected (Fraction(1, 1), Fraction(1, 1))")
    for loop, defect in ((flat, "dimension 1, expected 2"), (elsewhere, based)):
        with pytest.raises(ValueError) as caught:
            act_on_sheets(f, config, ((elem,), loop))
        assert str(caught.value) == "strip 2: loop " + defect
        foreign = SheetElement(elem.sheet, loop, elem.top)
        with pytest.raises(ValueError) as caught:
            act_on_sheets(f, config, ((foreign,), elem.top))
        assert str(caught.value) == "strip 1: loop " + defect
        assert sheet_violation(f, foreign) == "bottom loop " + defect
        assert sheet_violation(f, SheetElement(elem.sheet, elem.bottom, loop)) == (
            "top loop " + defect)
        with pytest.raises(ValueError) as caught:
            random_sheet_element(f, rng, loop)
        assert str(caught.value) == "source loop " + defect


# an interval or a strip that leaves [0, 1] is named, with its image
LEAVING = [(AffineMap1(F(1, 2), F(-1, 4)), "1 image [-1/4, 1/4] leaves [0, 1]"),
           (AffineMap1(F(1, 2), F(3, 4)), "1 image [3/4, 5/4] leaves [0, 1]")]


@pytest.mark.parametrize("emb, message", LEAVING)
def test_actions_on_intervals_leaving_the_unit_interval_raise(emb, message):
    f = _map2d()
    loop = random_loop(random.Random(5), 2, f.dom_base)
    with pytest.raises(ValueError) as caught:
        act_on_loops(IntervalConfig((emb,)), [loop])
    assert str(caught.value) == "interval " + message
    config = StripConfig((1,), IntervalConfig((emb,)),
                         ((AffineMap1(F(1, 2), F(1, 4)),),))
    with pytest.raises(ValueError) as caught:
        act_on_sheets(f, config, chain_inputs(f, config, random.Random(7)))
    assert str(caught.value) == "base: interval " + message


# the message for a rectangle with each offset below
RECTANGLE_LEAVING = {
    F(-1, 4): "rectangle (1, 1) vertical image [-1/4, 1/4] leaves [0, 1]",
    F(3, 4): "rectangle (1, 1) vertical image [3/4, 5/4] leaves [0, 1]"}


@pytest.mark.parametrize("y_part", [AffineMap1(F(1, 2), F(-1, 4)),
                                    AffineMap1(F(1, 2), F(3, 4))])
def test_act_on_sheets_with_a_rectangle_leaving_the_square_raises(y_part):
    f = _map2d()
    emb = AffineMap1(F(1, 2), F(1, 4))
    config = StripConfig((1,), IntervalConfig((emb,)),
                         ((y_part,),))
    with pytest.raises(ValueError) as caught:
        act_on_sheets(f, config, chain_inputs(f, config, random.Random(7)))
    assert str(caught.value) == RECTANGLE_LEAVING[y_part.c]


# --- ordering preconditions -----------------------------------------------------------

def test_act_on_sheets_rejects_strips_out_of_order():
    f = _map2d()
    rng = random.Random(83)
    quarter = F(1, 4)
    base = IntervalConfig((AffineMap1(quarter, F(1, 2)), AffineMap1(quarter, F(0))))
    config = StripConfig((1, 1), base, ((AffineMap1(quarter, quarter),),) * 2)
    with pytest.raises(ValueError, match=re.escape(
            "base: interval 1 (ends 3/4) does not sit strictly left of "
            "interval 2 (starts 0)")):
        act_on_sheets(f, config, chain_inputs(f, config, rng))


def test_act_on_sheets_rejects_rectangles_out_of_order():
    f = _map2d()
    rng = random.Random(89)
    emb = AffineMap1(F(1, 2), F(1, 4))
    config = StripConfig((2,), IntervalConfig((emb,)), ((
        AffineMap1(F(1, 4), F(1, 2)), AffineMap1(F(1, 4), F(1, 8))),))
    with pytest.raises(ValueError, match=re.escape(
            "rectangle (1, 1) does not sit strictly below rectangle (1, 2)")):
        act_on_sheets(f, config, chain_inputs(f, config, rng))


def test_act_on_loops_rejects_overlapping_intervals():
    cfg = IntervalConfig((AffineMap1(F(1, 2), F(0)), AffineMap1(F(1, 2), F(1, 4))))
    loop = constant_loop((F(0),))
    with pytest.raises(ValueError, match=re.escape(
            "interval 1 (ends 1/2) does not sit strictly left of "
            "interval 2 (starts 1/4)")):
        act_on_loops(cfg, [loop, loop])


@pytest.mark.parametrize("other", [constant_loop((F(0), F(0))),
                                   constant_loop((F(1),))],
                         ids=["two dimensions", "two basepoints"])
def test_act_on_loops_names_the_configuration_before_the_loops(other):
    # act_on_sheets checks its configuration before its inputs; act_on_loops
    # once named the loops' defect first
    cfg = IntervalConfig((AffineMap1(F(1, 2), F(0)), AffineMap1(F(1, 2), F(1, 4))))
    with pytest.raises(ValueError, match=re.escape(
            "interval 1 (ends 1/2) does not sit strictly left of "
            "interval 2 (starts 1/4)")):
        act_on_loops(cfg, [constant_loop((F(0),)), other])


# --- one placement rule --------------------------------------------------------------

HALF, QUARTER = F(1, 2), F(1, 4)
MIDDLE = IntervalConfig((AffineMap1(HALF, QUARTER),))

# hand-made configurations the validators refuse, each with its defect:
# touching endpoints count, so pieces that share an edge are refused too
REFUSED = {
    "touching intervals": (IntervalConfig((
        AffineMap1(HALF, 0), AffineMap1(HALF, HALF))),
        "interval 1 (ends 1/2) does not sit strictly left of interval 2 "
        "(starts 1/2)"),
    "overlapping intervals": (IntervalConfig((
        AffineMap1(HALF, 0), AffineMap1(HALF, QUARTER))),
        "interval 1 (ends 1/2) does not sit strictly left of interval 2 "
        "(starts 1/4)"),
    "intervals out of order": (IntervalConfig((
        AffineMap1(QUARTER, HALF), AffineMap1(QUARTER, 0))),
        "interval 1 (ends 3/4) does not sit strictly left of interval 2 "
        "(starts 0)"),
    "leaving interval": (IntervalConfig((AffineMap1(HALF, F(3, 4)),)),
                         "interval 1 image [3/4, 5/4] leaves [0, 1]"),
    "touching strips with touching rectangles": (StripConfig(
        (2, 0), IntervalConfig((AffineMap1(HALF, 0), AffineMap1(HALF, HALF))),
        ((AffineMap1(HALF, 0), AffineMap1(HALF, HALF)), ())),
        "base: interval 1 (ends 1/2) does not sit strictly left of "
        "interval 2 (starts 1/2)"),
    "three touching strips": (StripConfig(
        (1, 2, 1), IntervalConfig((AffineMap1(QUARTER, 0),
                                   AffineMap1(QUARTER, QUARTER),
                                   AffineMap1(HALF, HALF))),
        ((AffineMap1(HALF, QUARTER),),
         (AffineMap1(HALF, 0), AffineMap1(HALF, HALF)),
         (AffineMap1(QUARTER, 0),))),
        "base: interval 1 (ends 1/4) does not sit strictly left of "
        "interval 2 (starts 1/4)"),
    "strips out of order": (StripConfig(
        (1, 1), IntervalConfig((AffineMap1(QUARTER, HALF),
                                AffineMap1(QUARTER, 0))),
        ((AffineMap1(QUARTER, QUARTER),),) * 2),
        "base: interval 1 (ends 3/4) does not sit strictly left of "
        "interval 2 (starts 0)"),
    "touching rectangles": (StripConfig(
        (2,), MIDDLE, ((AffineMap1(HALF, 0), AffineMap1(HALF, HALF)),)),
        "rectangle (1, 1) does not sit strictly below rectangle (1, 2)"),
    "leaving rectangle": (StripConfig(
        (1,), MIDDLE, ((AffineMap1(HALF, F(3, 4)),),)),
        "rectangle (1, 1) vertical image [3/4, 5/4] leaves [0, 1]"),
}


@pytest.mark.parametrize("config, defect", REFUSED.values(), ids=list(REFUSED))
def test_compose_and_both_actions_refuse_what_the_validators_refuse(
        config, defect, tmp_path, capsys):
    # one placement rule: each action raises the validator's message, and
    # compose names it for the plan's outer configuration
    if isinstance(config, IntervalConfig):
        assert interval_violation(config) == defect
        loops = [constant_loop((F(0),))] * config.arity
        act = partial(act_on_loops, config, loops)
        plan = {"kind": "intervals", "outer": intervals_to_json(config),
                "inners": []}
    else:
        assert strip_violation(config) == defect
        f = _map2d()
        act = partial(act_on_sheets, f, config,
                      chain_inputs(f, config, random.Random(79)))
        plan = {"kind": "strips", "outer": strip_to_json(config), "blocks": []}
    with pytest.raises(ValueError) as caught:
        act()
    assert str(caught.value) == defect
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    assert main(["compose", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: outer: {defect}\n")


# --- degenerate regimes --------------------------------------------------------------

def test_source_dimension_zero_reduces_to_rectangle_insertion():
    rng = random.Random(61)
    for case in range(20):
        f = random_pointed_map(rng, 0, rng.randint(1, 2))
        loop = random_loop(rng, 0, ())
        assert loop == constant_loop(())  # no room for anything else
        shape = (rng.randint(1, 2), rng.randint(0, 2))
        if not any(shape):
            continue
        config = random_strip(shape, seed=1000 + case)
        inputs = chain_inputs(f, config, rng)
        out = act_on_sheets(f, config, inputs)
        p = f.cod_base
        for _ in range(12):
            x = F(rng.randint(0, 32), 32)
            y = F(rng.randint(0, 32), 32)
            expected = p
            for i, (emb, strip) in enumerate(zip(config.base.embeddings,
                                                 config.rects)):
                for j, rect in enumerate(strip):
                    (xl, xh) = emb.image()
                    (yl, yh) = rect.image()
                    if xl <= x <= xh and yl <= y <= yh:
                        u = emb.invert(x)
                        v = rect.invert(y)
                        expected = inputs[i][j].sheet.at(u, v)
                        break
                else:
                    continue
                break
            assert out.sheet.at(x, y) == expected


def test_target_dimension_zero_reduces_to_loop_action():
    rng = random.Random(67)
    for case in range(20):
        f = random_pointed_map(rng, rng.randint(1, 2), 0)
        shape = tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 2)))
        if not any(shape):
            shape = (1,)
        config = random_strip(shape, seed=2000 + case)
        inputs = chain_inputs(f, config, rng)
        out = act_on_sheets(f, config, inputs)
        assert out.sheet == constant_sheet(())
        from strips_operad.strips import strip_project
        bottoms = [c if n == 0 else c[0].bottom
                   for n, c in zip(config.shape, inputs)]
        tops = [c if n == 0 else c[-1].top
                for n, c in zip(config.shape, inputs)]
        assert out.bottom == act_on_loops(strip_project(config), bottoms)
        assert out.top == act_on_loops(strip_project(config), tops)


# --- the full law suite ----------------------------------------------------------------

def test_algebra_laws_seeded():
    def make(rng):
        f = random_pointed_map(rng, rng.randint(0, 2), rng.randint(0, 2))
        return sheet_algebra(f)

    report = run_algebra_check(make, strips_rel_operad(), seed=71, cases=50,
                               max_r=3, max_total=4, name="sheets")
    assert report.ok
    assert report.cases_run == 50


def test_mutated_algebra_fails():
    def make(rng):
        f = random_pointed_map(rng, rng.randint(0, 2), rng.randint(1, 2))
        return mutants.sheet_algebra(f)

    report = run_algebra_check(make, strips_rel_operad(), seed=71, cases=20,
                               max_r=3, max_total=4, name="sheets-mutated")
    assert not report.ok
    assert len({fl.case for fl in report.failures}) == 20
    assert all(fl.law != "exception" for fl in report.failures)


# --- every sheets law can fail ---------------------------------------------------------

def _swap_ends(alg):
    """``alg`` with an ``act_sheet`` whose results have their bottom and top
    loops swapped."""
    def act_sheet(config, inputs):
        out = alg.act_sheet(config, inputs)
        return out._replace(bottom=out.top, top=out.bottom)
    return alg._replace(act_sheet=act_sheet)


def _unit_plays_in_half(alg):
    """``alg`` with an ``act_path`` that plays the unit's loop in [0, 1/2]."""
    half = IntervalConfig((AffineMap1(F(1, 2), 0),))

    def act_path(config, loops):
        return alg.act_path(half if config == interval_unit() else config, loops)
    return alg._replace(act_path=act_path)


@pytest.mark.parametrize("law, broken", [
    ("source boundary", _swap_ends), ("target boundary", _swap_ends),
    ("unit", _swap_ends), ("path unit", _unit_plays_in_half)])
def test_each_sheets_law_fails_on_an_instance_that_breaks_it(law, broken):
    # act_on_sheets builds its boundary loops as act_on_loops plays loops, so
    # a fault in that shared routine passes both boundary laws; these
    # instances break the action's result instead
    def make(rng):
        f = random_pointed_map(rng, rng.randint(0, 2), rng.randint(1, 2))
        return broken(sheet_algebra(f))

    report = run_algebra_check(make, strips_rel_operad(), seed=71, cases=20,
                               max_r=3, max_total=4, name="sheets-broken")
    assert law in {fl.law for fl in report.failures}
