"""Exact arithmetic core: affine maps, piecewise-linear paths, grid sheets."""
import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from strips_operad.exact import (IDENTITY_1, IDENTITY_2, AffineMap1,
                                 AffineMap2, GridSheet, PLPath,
                                 canonical_form, constant_path,
                                 constant_sheet, rect_of)

from helpers import positive_scales, rationals, unit_rationals


# --- 1d affine maps ----------------------------------------------------------

def test_affine_compose_hand_value():
    g = AffineMap1(F(1, 2), F(1, 4))
    f = AffineMap1(F(1, 3), F(0))
    assert g.compose(f) == AffineMap1(F(1, 6), F(1, 4))


def test_affine_identity_laws():
    f = AffineMap1(F(3, 7), F(2, 5))
    assert f.compose(IDENTITY_1) == f
    assert IDENTITY_1.compose(f) == f


def test_affine_rejects_nonpositive_scale():
    with pytest.raises(ValueError):
        AffineMap1(F(0), F(1, 2))
    with pytest.raises(ValueError):
        AffineMap1(F(-1, 2), F(0))


def test_affine_image_and_invert():
    f = AffineMap1(F(1, 2), F(1, 4))
    assert f.image() == (F(1, 4), F(3, 4))
    assert f.image(F(1, 3), F(2, 3)) == (F(5, 12), F(7, 12))
    assert f.invert(f(F(5, 17))) == F(5, 17)


@given(positive_scales, rationals, positive_scales, rationals,
       positive_scales, rationals)
def test_affine_compose_associative(a1, c1, a2, c2, a3, c3):
    # law: (f . g) . h == f . (g . h)
    f, g, h = AffineMap1(a1, c1), AffineMap1(a2, c2), AffineMap1(a3, c3)
    assert f.compose(g).compose(h) == f.compose(g.compose(h))


@given(positive_scales, rationals, positive_scales, rationals, rationals)
def test_affine_compose_pointwise(a1, c1, a2, c2, x):
    # law: (f . g)(x) == f(g(x))
    f, g = AffineMap1(a1, c1), AffineMap1(a2, c2)
    assert f.compose(g)(x) == f(g(x))


def test_affine2_compose_componentwise():
    f = AffineMap2(AffineMap1(F(1, 2), F(1, 4)), AffineMap1(F(1, 3), F(1, 2)))
    g = AffineMap2(AffineMap1(F(1, 3), F(0)), AffineMap1(F(1, 2), F(1, 8)))
    fg = f.compose(g)
    assert fg.x_part == f.x_part.compose(g.x_part)
    assert fg.y_part == f.y_part.compose(g.y_part)
    assert f.compose(IDENTITY_2) == f == IDENTITY_2.compose(f)


def test_rect_of_roundtrip():
    r = rect_of(F(1, 4), F(3, 4), F(1, 4), F(3, 8))
    assert r.x_part.image() == (F(1, 4), F(3, 4))
    assert r.y_part.image() == (F(1, 4), F(3, 8))


# --- piecewise-linear paths ---------------------------------------------------

def test_path_evaluation_is_linear_interpolation():
    p = PLPath((F(0), F(1, 2), F(1)), ((F(0),), (F(1),), (F(0),)))
    assert p.at(F(1, 4)) == (F(1, 2),)
    assert p.at(F(3, 4)) == (F(1, 2),)
    assert p.at(F(1, 2)) == (F(1),)
    assert p.at(F(0)) == (F(0),)
    assert p.at(F(1)) == (F(0),)


def test_path_canonical_drops_collinear_breakpoint():
    p = PLPath((F(0), F(1, 2), F(1)), ((F(0),), (F(1, 2),), (F(1),)))
    assert p.canonical() == PLPath((F(0), F(1)), ((F(0),), (F(1),)))


def test_path_canonical_keeps_slope_changes():
    p = PLPath((F(0), F(1, 2), F(1)), ((F(0),), (F(1),), (F(0),)))
    assert p.canonical() == p


def test_constant_path_canonical_has_two_breakpoints():
    q = (F(2), F(-1, 3))
    assert constant_path(q).canonical().breaks == (F(0), F(1))


def _random_path(rng: random.Random, dim: int = 2, interior: int = 3) -> PLPath:
    cuts = sorted(rng.sample([F(k, 16) for k in range(1, 16)], interior))
    breaks = [F(0)] + cuts + [F(1)]
    values = [tuple(F(rng.randint(-8, 8), rng.choice((1, 2, 4))) for _ in range(dim))
              for _ in breaks]
    return PLPath(tuple(breaks), tuple(values))


def test_path_canonical_is_complete_for_equality():
    """Redundantly refined copies of one path agree after canonicalisation."""
    for k in range(200):
        rng = random.Random(f"canon:{k}")
        base = _random_path(rng).canonical()
        extra1 = {F(rng.randint(1, 31), 32) for _ in range(3)}
        extra2 = {F(rng.randint(1, 63), 64) for _ in range(3)}
        left = base.refined(extra1)
        right = base.refined(extra2)
        assert left.canonical() == right.canonical() == base
        assert base.canonical() == base  # idempotent


def test_path_refined_preserves_values():
    rng = random.Random("refine")
    for _ in range(20):
        p = _random_path(rng)
        q = p.refined({F(1, 3), F(2, 3), F(1, 7)})
        for _ in range(16):
            t = F(rng.randint(0, 128), 128)
            assert p.at(t) == q.at(t)


# --- grid sheets ----------------------------------------------------------------

def _random_sheet(rng: random.Random, dim: int = 2) -> GridSheet:
    xs = [F(0)] + sorted(rng.sample([F(k, 8) for k in range(1, 8)], 2)) + [F(1)]
    ys = [F(0)] + sorted(rng.sample([F(k, 8) for k in range(1, 8)], 2)) + [F(1)]
    values = tuple(
        tuple(tuple(F(rng.randint(-8, 8), rng.choice((1, 2, 4)))
                    for _ in range(dim)) for _ in ys)
        for _ in xs)
    return GridSheet(tuple(xs), tuple(ys), values)


def test_sheet_bilinear_evaluation():
    s = GridSheet((F(0), F(1)), (F(0), F(1)),
                  (((F(0),), (F(0),)), ((F(0),), (F(4),))))
    assert s.at(F(1, 2), F(1, 2)) == (F(1),)
    assert s.at(F(1), F(1, 2)) == (F(2),)
    assert s.at(F(1, 4), F(1, 4)) == (F(1, 4),)


def test_sheet_canonical_merges_redundant_lines():
    rng = random.Random("sheetcanon")
    for k in range(200):
        base = _random_sheet(rng).canonical()
        refined = base.refined({F(rng.randint(1, 15), 16)},
                               {F(rng.randint(1, 15), 16)})
        assert refined.canonical() == base
        assert base.canonical() == base
        for _ in range(8):
            x = F(rng.randint(0, 32), 32)
            y = F(rng.randint(0, 32), 32)
            assert refined.at(x, y) == base.at(x, y)


def test_sheet_line_essential_if_any_row_bends():
    # value bends across x = 1/2 only in the y = 1 row; the line must survive.
    s = GridSheet((F(0), F(1, 2), F(1)), (F(0), F(1)),
                  (((F(0),), (F(0),)),
                   ((F(0),), (F(1),)),
                   ((F(0),), (F(0),))))
    assert s.canonical() == s


def test_sheet_axes_canonicalise_independently():
    # a redundant line on one axis disappears without touching the other
    s = constant_sheet((F(3),)).refined({F(1, 2)}, set())
    t = s.canonical()
    assert t.x_breaks == (F(0), F(1))
    assert t.y_breaks == (F(0), F(1))


def test_constant_sheet_dim_zero():
    s = constant_sheet(())
    assert s.at(F(1, 3), F(2, 3)) == ()
    assert s.canonical() == s


def test_sheet_edges():
    s = _random_sheet(random.Random("edges"))
    bottom = s.bottom_edge()
    top = s.top_edge()
    for k in range(9):
        x = F(k, 8)
        assert bottom.at(x) == s.at(x, F(0))
        assert top.at(x) == s.at(x, F(1))


def test_canonical_form_dispatch():
    p = constant_path((F(1),)).refined({F(1, 2)})
    assert canonical_form(p).breaks == (F(0), F(1))
    s = constant_sheet((F(1),)).refined({F(1, 3)}, {F(1, 2)})
    assert canonical_form(s).x_breaks == (F(0), F(1))
    with pytest.raises(TypeError):
        canonical_form("nope")


@given(st.lists(unit_rationals, min_size=2, max_size=5))
def test_refinement_never_changes_constant_paths(cuts):
    # law: refine then canonicalise is the identity on canonical paths
    q = (F(5, 7),)
    p = constant_path(q)
    inner = {c for c in cuts if F(0) < c < F(1)}
    assert p.refined(inner).canonical() == p
