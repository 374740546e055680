"""Strip diagrams over interval configurations and their block composition."""
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strips_operad import mutants
from strips_operad import serialize
from strips_operad.exact import AffineMap1
from strips_operad.framework import REL, Block, FiberProductError, run_check
from strips_operad.intervals import IntervalConfig, interval_violation
from strips_operad.strips import (StripConfig, random_strip,
                                  random_strip_over, strip_compose,
                                  strip_project, strip_unit, strip_violation,
                                  strips_rel_operad)


def emb(a, c):
    return AffineMap1(F(*a) if isinstance(a, tuple) else F(a),
                      F(*c) if isinstance(c, tuple) else F(c))


def test_unit_projects_to_unit_interval():
    u = strip_unit()
    assert u.shape == (1,)
    assert strip_project(u).embeddings[0] == AffineMap1(F(1), F(0))
    assert strip_violation(u) is None


def test_compose_hand_example():
    base = IntervalConfig((emb((1, 2), (1, 4)),))
    outer = StripConfig((1,), base, ((emb((1, 2), (1, 4)),),))
    inner_base = IntervalConfig((emb(1, 0),))
    inner = StripConfig((2,), inner_base,
                        ((emb((1, 4), 0), emb((1, 2), (1, 2))),))
    out = strip_compose(outer, (Block(inner_base, (inner,)),))
    assert out.shape == (2,)
    assert strip_project(out).images() == ((F(1, 4), F(3, 4)),)
    r1, r2 = out.rects[0]
    assert r1.image() == (F(1, 4), F(3, 8))
    assert r2.image() == (F(1, 2), F(3, 4))
    assert strip_violation(out) is None


def test_compose_shape_arithmetic_matches_witness():
    """A two-strip outer glued to arity-(2,3) bases lands in shape (3,1,0,0,0)."""
    from strips_operad.intervals import random_intervals
    rng = random.Random("witness")
    outer = random_strip((2, 0), seed=17)
    base1 = random_intervals(2, rng)
    base2 = random_intervals(3, rng)
    c1 = random_strip_over((1, 0), base1, rng)
    c2 = random_strip_over((2, 1), base1, rng)
    out = strip_compose(outer, (Block(base1, (c1, c2)), Block(base2, ())))
    assert out.shape == (3, 1, 0, 0, 0)
    assert strip_violation(out) is None


def test_unit_laws():
    cfg = random_strip((2, 1), seed=5)
    left = strip_compose(strip_unit(), (Block(strip_project(cfg), (cfg,)),))
    assert left == cfg
    blocks = tuple(Block(strip_project(strip_unit()), (strip_unit(),) * n)
                   for n in cfg.shape)
    assert strip_compose(cfg, blocks) == cfg


def test_validator_catches_x_misalignment():
    # a rectangle spans its strip by construction, so only a document can
    # put one off its strip, and the decoder refuses it
    doc = {"shape": [1], "base": {"embeddings": [{"a": "1/2", "c": "0"}]},
           "rects": [[{"a": "1/2", "b": "1/4", "c": "1/4", "d": "1/4"}]]}
    with pytest.raises(ValueError, match=r"^rectangle \(1, 1\) is not aligned "
                                         r"with strip 1$"):
        serialize.strip_from_json(doc)
    # alignment is decided on values, not on their text
    doc["rects"][0][0].update(a="2/4", c="0/3")
    assert serialize.strip_from_json(doc).rects == ((emb((1, 4), (1, 4)),),)


def test_rectangles_must_be_vertical_embeddings():
    base = IntervalConfig((emb((1, 2), 0),))
    for rect in ((emb((1, 2), 0), emb((1, 4), 0)), F(1, 4), None):
        with pytest.raises(TypeError, match="expected AffineMap1"):
            StripConfig((1,), base, ((rect,),))


def test_validator_catches_vertical_overlap():
    base = IntervalConfig((emb((1, 2), 0),))
    bad = StripConfig((2,), base, ((emb((1, 2), 0), emb((1, 2), (1, 4))),))
    assert strip_violation(bad) is not None


def test_validator_catches_touching_rects():
    base = IntervalConfig((emb((1, 2), 0),))
    bad = StripConfig((2,), base, ((emb((1, 4), 0), emb((1, 4), (1, 4))),))
    assert strip_violation(bad) is not None


def test_validator_catches_bad_base():
    base = IntervalConfig((emb(2, 0),))
    assert interval_violation(base) is not None
    cfg = StripConfig((1,), base, ((emb((1, 2), (1, 4)),),))
    msg = strip_violation(cfg)
    assert msg is not None and msg.startswith("base")


def test_validator_accepts_empty_strips():
    cfg = random_strip((0, 1, 0), seed=6)
    assert strip_violation(cfg) is None
    assert cfg.rects[0] == () and cfg.rects[2] == ()


def test_rects_in_different_strips_must_not_collide():
    # two strips whose rectangles overlap horizontally cannot exist, since
    # each rectangle spans its own strip and the strips are disjoint; only
    # overlapping strips, a bad base, can make them collide.
    base = IntervalConfig((emb((1, 4), 0), emb((1, 4), (1, 8))))
    assert interval_violation(base) is not None


def test_random_strip_determinism_and_validity():
    for seed in range(100):
        rng = random.Random(seed)
        r = rng.randint(1, 3)
        shape = tuple(rng.randint(0, 2) for _ in range(r))
        if not any(shape):
            shape = shape[:-1] + (1,)
        if sum(shape) > 5:
            continue
        a = random_strip(shape, seed=seed)
        b = random_strip(shape, seed=seed)
        assert a == b
        assert strip_violation(a) is None


def test_random_strip_denominators_are_bounded():
    cfg = random_strip((2, 2), seed=123)
    for strip in cfg.rects:
        for r in strip:
            for v in (r.a, r.c):
                assert v.denominator <= 2 ** 16


def test_fiber_product_requires_shared_base():
    outer = random_strip((2,), seed=1)
    c1 = random_strip((1, 1), seed=2)
    c2 = random_strip((1, 1), seed=3)
    with pytest.raises(FiberProductError):
        strip_compose(outer, (Block(c1.base, (c1, c2)),))


def test_compose_validates_block_count():
    outer = random_strip((1, 1), seed=4)
    c = random_strip((1,), seed=5)
    with pytest.raises(ValueError):
        strip_compose(outer, (Block(c.base, (c,)),))


def test_compose_preserves_validity():
    from strips_operad.framework import random_rel_elements, random_rel_plan
    rng = random.Random("closure")
    rel = strips_rel_operad()
    for _ in range(40):
        plan = random_rel_plan(rng, 3, 5)
        elems = random_rel_elements(rel, plan, rng)
        stage1 = rel.compose(elems.outer, elems.first)
        assert strip_violation(stage1) is None


def test_projection_square_and_associativity_seeded():
    report = run_check(REL, strips_rel_operad(), "strips", seed=77, cases=100,
                       max_r=3, max_total=5)
    assert report.ok
    assert report.cases_run == 100


def test_mutated_strips_fail():
    report = run_check(REL, mutants.strips_rel_operad(), "strips", seed=77,
                       cases=30, max_r=3, max_total=5)
    assert not report.ok
    assert len({f.case for f in report.failures}) == 30
    assert all(f.law != "exception" for f in report.failures)


# --- strip_violation against the all-pairs definition ------------------------------

def quadratic_strip_violation(config):
    """The validator as it stood with an explicit all-pairs disjointness
    pass; kept as the oracle for the linear one."""
    from strips_operad.exact import ONE, ZERO
    base_bad = interval_violation(config.base)
    if base_bad is not None:
        return f"base: {base_bad}"
    for i, row in enumerate(config.rects):
        for j, rect in enumerate(row):
            lo, hi = rect.image()
            if lo < ZERO or hi > ONE:
                return (f"rectangle ({i + 1}, {j + 1}) vertical image "
                        f"[{lo}, {hi}] leaves [0, 1]")
        for j in range(len(row) - 1):
            if not row[j].image()[1] < row[j + 1].image()[0]:
                return (f"rectangle ({i + 1}, {j + 1}) does not sit strictly "
                        f"below rectangle ({i + 1}, {j + 2})")
    flat = [(i, j, emb.image(), rect.image())
            for i, (emb, row) in enumerate(zip(config.base.embeddings,
                                               config.rects))
            for j, rect in enumerate(row)]
    for a in range(len(flat)):
        i1, j1, (x1l, x1h), (y1l, y1h) = flat[a]
        for b in range(a + 1, len(flat)):
            i2, j2, (x2l, x2h), (y2l, y2h) = flat[b]
            if x1l <= x2h and x2l <= x1h and y1l <= y2h and y2l <= y1h:
                return (f"rectangles ({i1 + 1}, {j1 + 1}) and "
                        f"({i2 + 1}, {j2 + 1}) intersect")
    return None


def assert_same_verdict(config):
    got = strip_violation(config)
    assert got == quadratic_strip_violation(config)
    return got


def _spread(rng, total, parts, least):
    counts = [least] * parts
    for _ in range(total - least * parts):
        counts[rng.randrange(parts)] += 1
    return counts


def large_composite(rng, target):
    """A composite of ``target`` rectangles from a random valid plan."""
    from strips_operad.intervals import random_intervals
    r = rng.randint(2, 5)
    outer_total = rng.randint(r, 20)
    outer = random_strip_over(_spread(rng, outer_total, r, 0),
                              random_intervals(r, rng), rng)
    per_inner = iter(_spread(rng, target, outer_total, 1))
    blocks = []
    for n in outer.shape:
        base = random_intervals(rng.randint(1, 4), rng)
        configs = tuple(
            random_strip_over(_spread(rng, next(per_inner), base.arity, 0),
                              base, rng)
            for _ in range(n))
        blocks.append(Block(base, configs))
    return strip_compose(outer, tuple(blocks))


def test_linear_validator_matches_oracle_on_valid_configurations():
    rng = random.Random("linear validator")
    for _ in range(40):
        shape = tuple(rng.randint(0, 4) for _ in range(rng.randint(1, 4)))
        shape = shape[:-1] + (shape[-1] or 1,)
        assert assert_same_verdict(random_strip(shape, rng.random())) is None
    for target in (100, 137, 208, 250):
        composite = large_composite(rng, target)
        assert sum(composite.shape) == target
        assert assert_same_verdict(composite) is None


def _with_rect(config, i, j, rect):
    rows = [list(row) for row in config.rects]
    rows[i][j] = rect
    return StripConfig(config.shape, config.base, tuple(map(tuple, rows)))


def test_linear_validator_matches_oracle_on_each_invalid_class():
    rng = random.Random("invalid classes")
    composite = large_composite(rng, 120)
    rows = [(i, row) for i, row in enumerate(composite.rects) if len(row) >= 2]
    bad = []
    for i, row in rows[:3]:
        j = rng.randrange(len(row) - 1)
        rect, above = row[j], row[j + 1]
        y_lo, y_hi = above.image()
        # vertical image leaving [0, 1], above and below
        bad.append(_with_rect(composite, i, len(row) - 1,
                              AffineMap1(F(1, 2), F(3, 4))))
        bad.append(_with_rect(composite, i, 0, AffineMap1(F(1, 8), F(-1, 16))))
        # overlapping, touching, and out of order within a strip
        bad.append(_with_rect(composite, i, j,
                              AffineMap1(y_hi - rect.c, rect.c)))
        bad.append(_with_rect(composite, i, j,
                              AffineMap1(y_lo - rect.c, rect.c)))
        bad.append(_with_rect(composite, i, j + 1, rect))
    for config in bad:
        assert assert_same_verdict(config) is not None
    # a bad base: an interval leaving [0, 1], and two strips that touch
    x = emb((1, 2), (3, 4))
    leaving = StripConfig((1,), IntervalConfig((x,)), ((emb((1, 2), 0),),))
    assert assert_same_verdict(leaving).startswith("base: interval 1 image")
    left, right = emb((1, 4), 0), emb((1, 4), (1, 4))
    touching = StripConfig((1, 1), IntervalConfig((left, right)),
                           ((emb((1, 2), 0),), (emb((1, 2), 0),)))
    assert "does not sit strictly left of" in assert_same_verdict(touching)
    # empty strips, alone and between full ones
    for shape in ((0, 0, 1), (0, 3, 0), (2, 0, 1), (1, 0, 0, 0)):
        assert assert_same_verdict(random_strip(shape, seed=len(shape))) is None


GRID = 8


@st.composite
def grid_configs(draw):
    """Strip configurations on a small grid.  The base and each strip's
    vertical boxes are either in strictly increasing order inside [0, 1] or
    arbitrary boxes around it."""
    def box():
        lo = draw(st.integers(-1, GRID))
        hi = draw(st.integers(lo + 1, GRID + 1))
        return AffineMap1(F(hi - lo, GRID), F(lo, GRID))

    def boxes(n):
        if draw(st.booleans()):
            return [box() for _ in range(n)]
        pts = sorted(draw(st.lists(st.integers(0, GRID), min_size=2 * n,
                                   max_size=2 * n, unique=True)))
        return [AffineMap1(F(pts[2 * k + 1] - pts[2 * k], GRID),
                           F(pts[2 * k], GRID)) for k in range(n)]

    r = draw(st.integers(1, 3))
    base = IntervalConfig(tuple(boxes(r)))
    shape = tuple(draw(st.integers(0, 3)) for _ in range(r))
    shape = shape[:-1] + (shape[-1] or 1,)       # at least one rectangle
    return StripConfig(shape, base, tuple(tuple(boxes(n)) for n in shape))


@settings(max_examples=400, deadline=None)
@given(grid_configs())
def test_linear_validator_matches_oracle_on_grid_boxes(config):
    got = assert_same_verdict(config)
    assert got is None or "intersect" not in got


# --- composites built without re-validation -----------------------------------------

def test_composites_equal_the_public_constructor():
    from strips_operad.framework import random_rel_elements, random_rel_plan
    rng = random.Random("trusted builder")
    rel = strips_rel_operad()
    for _ in range(60):
        elems = random_rel_elements(rel, random_rel_plan(rng, 3, 5), rng)
        out = strip_compose(elems.outer, elems.first)
        built = StripConfig(list(out.shape), out.base,
                            [list(row) for row in out.rects])
        assert out == built and hash(out) == hash(built)
        assert type(out.shape) is tuple and type(out.rects) is tuple
        assert all(type(row) is tuple for row in out.rects)
        assert all(type(rect) is AffineMap1 for row in out.rects for rect in row)


def _copy(e):
    return AffineMap1(e.a, e.c)


def _unshared_base(base):
    return IntervalConfig(tuple(map(_copy, base.embeddings)))


def _unshared(config):
    """An equal configuration that shares no embedding object with ``config``."""
    return StripConfig(config.shape, _unshared_base(config.base),
                       tuple(tuple(map(_copy, row)) for row in config.rects))


def test_compose_does_not_depend_on_shared_x_parts():
    # equal copies of every strip embedding (the x part of its rectangles)
    # and of every vertical embedding compose to the same result
    from strips_operad.framework import random_rel_elements, random_rel_plan
    rng = random.Random("shared x parts")
    rel = strips_rel_operad()
    for _ in range(40):
        elems = random_rel_elements(rel, random_rel_plan(rng, 3, 5), rng)
        blocks = tuple(Block(_unshared_base(b.base),
                             tuple(_unshared(q) for q in b.configs))
                       for b in elems.first)
        shared = strip_compose(elems.outer, elems.first)
        assert strip_compose(_unshared(elems.outer), blocks) == shared
