"""Exact arithmetic core: affine maps, piecewise-linear paths, grid sheets."""
import math
import pickle
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from strips_operad.exact import (IDENTITY_1, AffineMap1, GridSheet, PLPath,
                                 _affine1, _minimal, _path, _segments, _sheet)

from helpers import (constant_path, constant_sheet, dataclass_repr,
                     path_presentation, positive_scales, rationals,
                     sheet_presentation, unit_rationals)


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


def test_affine_compose_matches_fraction_arithmetic():
    # a composite's coefficients are a*a' and a*c' + c, reduced, whatever the
    # size of the denominators or the sign of the offsets
    rng = random.Random(1729)

    def rat(lo):
        return F(rng.randint(lo, 10 ** 12), rng.randint(1, 10 ** 12))

    for _ in range(500):
        a, c, ia, ic = rat(1), rat(-10 ** 12), rat(1), rat(-10 ** 12)
        got = AffineMap1(a, c).compose(AffineMap1(ia, ic))
        assert (got.a, got.c) == (a * ia, a * ic + c)
        assert (type(got.a), type(got.c)) == (F, F)


def test_affine_composites_are_like_constructed_maps():
    # composites skip the constructor's coercion and sign test; they must
    # still equal, hash like and hold the same field types as built maps
    rng = random.Random(2718)

    def rat(lo):
        return F(rng.randint(lo, 10 ** 9), rng.randint(1, 10 ** 9))

    for _ in range(500):
        outer = AffineMap1(rat(1), rat(-10 ** 9))
        inner = AffineMap1(rat(1), rat(-10 ** 9))
        got = outer.compose(inner)
        built = AffineMap1(got.a, got.c)
        assert got == built and hash(got) == hash(built)
        assert (type(got.a), type(got.c)) == (F, F)
        assert got.a > 0 and repr(got) == repr(built)
        assert got.compose(IDENTITY_1) == built == IDENTITY_1.compose(got)
        with pytest.raises(AttributeError):
            got.a = F(1)


@pytest.mark.parametrize("scale", [F(0), F(-3, 7), 0, -2, "-1/5"])
def test_affine_scale_error_names_the_coerced_scale(scale):
    with pytest.raises(ValueError) as err:
        AffineMap1(scale, F(1, 2))
    assert str(err.value) == f"affine scale must be positive, got {F(scale)}"


def test_affine_image_and_invert():
    f = AffineMap1(F(1, 2), F(1, 4))
    assert f.image() == (F(1, 4), F(3, 4))
    assert (f(F(1, 3)), f(F(2, 3))) == (F(5, 12), F(7, 12))
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


# --- the integer triple behind AffineMap1 --------------------------------------
# Each map is checked against the plain-Fraction map x |-> a*x + c.

wide_scales = st.fractions(min_value=F(1, 10 ** 6), max_value=F(10 ** 3),
                           max_denominator=10 ** 6)
wide_offsets = st.fractions(min_value=F(-10 ** 3), max_value=F(10 ** 3),
                            max_denominator=10 ** 6)


def assert_normal_form(f):
    assert all(type(k) is int for k in (f.an, f.cn, f.d))
    assert f.d > 0 and f.an > 0
    assert math.gcd(f.an, f.cn, f.d) == 1


@given(wide_scales, wide_offsets)
def test_triple_is_the_reduced_normal_form(a, c):
    f = AffineMap1(a, c)
    assert_normal_form(f)
    assert (F(f.an, f.d), F(f.cn, f.d)) == (a, c)
    assert (f.a, f.c) == (a, c) and (type(f.a), type(f.c)) == (F, F)
    assert f.image() == (c, a + c)
    assert all(type(t) is F for t in f.image())


@given(wide_scales, wide_offsets, wide_scales, wide_offsets)
def test_triple_compose_matches_fractions(a, c, ia, ic):
    got = AffineMap1(a, c).compose(AffineMap1(ia, ic))
    assert_normal_form(got)
    assert (got.a, got.c) == (a * ia, a * ic + c)
    assert got == AffineMap1(a * ia, a * ic + c)


@given(wide_scales, wide_offsets, wide_offsets)
def test_triple_call_and_invert_match_fractions(a, c, x):
    f = AffineMap1(a, c)
    assert f(x) == a * x + c and type(f(x)) is F
    assert f.invert(x) == (x - c) / a and type(f.invert(x)) is F
    assert f.invert(f(x)) == x
    assert f(3) == 3 * a + c and f("1/2") == a / 2 + c


@given(wide_scales, wide_offsets, st.integers(2, 10 ** 6))
def test_triple_equality_ignores_how_the_map_was_scaled(a, c, k):
    f = AffineMap1(a, c)
    scaled = _affine1(k * f.an, k * f.cn, k * f.d)
    same = [scaled, AffineMap1(str(a), str(c)),
            AffineMap1(F(a.numerator * k, a.denominator * k), c),
            f.compose(IDENTITY_1), IDENTITY_1.compose(f)]
    for g in same:
        assert_normal_form(g)
        assert g == f and not g != f and hash(g) == hash(f)
        assert (g.an, g.cn, g.d) == (f.an, f.cn, f.d)
    assert len({f, *same}) == 1
    assert f != AffineMap1(a, c + F(1, k))
    assert f != (f.an, f.cn, f.d) and f != a


@given(wide_scales, wide_offsets)
def test_triple_repr_is_the_dataclass_repr(a, c):
    # --mutate reports embed this text
    assert repr(AffineMap1(a, c)) == f"AffineMap1(a={a!r}, c={c!r})"


def test_triple_repr_hand_value():
    assert repr(AffineMap1(F(1, 2), F(1, 4))) == \
        "AffineMap1(a=Fraction(1, 2), c=Fraction(1, 4))"
    assert repr(AffineMap1(2, "-1/3")) == \
        "AffineMap1(a=Fraction(2, 1), c=Fraction(-1, 3))"


def test_triple_is_frozen_and_pickles():
    f = AffineMap1(F(2, 3), F(-1, 6))
    for name in ("an", "cn", "d", "a", "c", "other"):
        with pytest.raises(AttributeError):
            setattr(f, name, 1)
    with pytest.raises(FrozenInstanceError):
        f.an = 5
    with pytest.raises(FrozenInstanceError):
        del f.d
    assert (f.an, f.cn, f.d) == (4, -1, 6)
    assert pickle.loads(pickle.dumps(f)) == f


# --- piecewise-linear paths ---------------------------------------------------

def _ints(xs, k: int = 1) -> tuple:
    """``(ints, m)``: the Fractions xs over m, k times the LCM of their
    denominators, computed with Fraction arithmetic."""
    m = math.lcm(*[x.denominator for x in xs]) * k
    return [(x * m).numerator for x in xs], m


def _flat_points(points, k: int) -> tuple:
    """``(tuples of ints, m)`` for points of Fractions over one m."""
    points = list(points)
    d = len(points[0])
    flat, m = _ints([c for v in points for c in v], k)
    return [tuple(flat[i * d:i * d + d]) for i in range(len(points))], m


def _path_ints(breaks, values, k: int = 6) -> PLPath:
    """:func:`_path`, the trusted builder on ints, given a Fraction
    presentation over denominators k times too large, so that it has to
    reduce them."""
    points, vm = _flat_points(values, k)
    return _path(_ints(breaks, k)[0], points, vm)


def _sheet_ints(x_breaks, y_breaks, values, k: int = 6) -> GridSheet:
    """:func:`_sheet` given a Fraction presentation, as :func:`_path_ints`,
    with each column first brought to its stored form by :func:`_minimal`."""
    ny = len(y_breaks)
    points, vm = _flat_points([v for col in values for v in col], k)
    ys = _ints(y_breaks, k)[0]
    return _sheet(_ints(x_breaks, k)[0],
                  [_minimal(ys, points[i:i + ny], vm) for i in range(0, len(points), ny)])


def test_path_evaluation_is_linear_interpolation():
    p = PLPath((F(0), F(1, 2), F(1)), ((F(0),), (F(1),), (F(0),)))
    assert p.at(F(1, 4)) == (F(1, 2),)
    assert p.at(F(3, 4)) == (F(1, 2),)
    assert p.at(F(1, 2)) == (F(1),)
    assert p.at(F(0)) == (F(0),)
    assert p.at(F(1)) == (F(0),)


def test_path_canonical_drops_collinear_breakpoint():
    p = PLPath((F(0), F(1, 2), F(1)), ((F(0),), (F(1, 2),), (F(1),)))
    assert p.breaks == (F(0), F(1))
    assert p == PLPath((F(0), F(1)), ((F(0),), (F(1),)))


def test_path_canonical_keeps_slope_changes():
    p = PLPath((F(0), F(1, 2), F(1)), ((F(0),), (F(1),), (F(0),)))
    assert p.breaks == (F(0), F(1, 2), F(1))
    assert p.values == ((F(0),), (F(1),), (F(0),))


def test_constant_path_canonical_has_two_breakpoints():
    q = (F(2), F(-1, 3))
    assert constant_path(q).breaks == (F(0), F(1))


def _random_path(rng: random.Random, dim: int = 2, interior: int = 3) -> PLPath:
    cuts = sorted(rng.sample([F(k, 16) for k in range(1, 16)], interior))
    breaks = [F(0)] + cuts + [F(1)]
    values = [tuple(F(rng.randint(-8, 8), rng.choice((1, 2, 4))) for _ in range(dim))
              for _ in breaks]
    return PLPath(tuple(breaks), tuple(values))


def test_path_canonical_is_complete_for_equality():
    """Redundant presentations of one path build equal, equally hashed paths."""
    for k in range(200):
        rng = random.Random(f"canon:{k}")
        base = _random_path(rng)
        extra1 = {F(rng.randint(1, 31), 32) for _ in range(3)}
        extra2 = {F(rng.randint(1, 63), 64) for _ in range(3)}
        for extra in (extra1, extra2):
            for build in (PLPath, _path_ints):
                p = build(*path_presentation(base, extra))
                assert p == base and hash(p) == hash(base)
                assert (p.breaks, p.values) == (base.breaks, base.values)
        assert PLPath(base.breaks, base.values) == base  # idempotent
        assert base.canonical() is base


def test_path_refined_preserves_values():
    rng = random.Random("refine")
    for _ in range(20):
        p = _random_path(rng)
        breaks, values = path_presentation(p, {F(1, 3), F(2, 3), F(1, 7)})
        q = PLPath(breaks, values)
        assert len(q.breaks) < len(breaks)
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
        base = _random_sheet(rng)
        parts = sheet_presentation(base, {F(rng.randint(1, 15), 16)},
                                   {F(rng.randint(1, 15), 16)})
        for build in (GridSheet, _sheet_ints):
            refined = build(*parts)
            assert refined == base and hash(refined) == hash(base)
        assert GridSheet(base.x_breaks, base.y_breaks, base.values) == base
        assert base.canonical() is base
        for _ in range(8):
            x = F(rng.randint(0, 32), 32)
            y = F(rng.randint(0, 32), 32)
            assert refined.at(x, y) == base.at(x, y)


def test_sheet_line_essential_if_any_row_bends():
    # value bends across x = 1/2 only in the y = 1 row; the line must survive.
    values = (((F(0),), (F(0),)),
              ((F(0),), (F(1),)),
              ((F(0),), (F(0),)))
    s = GridSheet((F(0), F(1, 2), F(1)), (F(0), F(1)), values)
    assert (s.x_breaks, s.y_breaks) == ((F(0), F(1, 2), F(1)), (F(0), F(1)))
    assert s.values == values


def test_sheet_axes_canonicalise_independently():
    # a redundant line on one axis disappears without touching the other
    t = GridSheet(*sheet_presentation(constant_sheet((F(3),)), {F(1, 2)}, set()))
    assert t.x_breaks == (F(0), F(1))
    assert t.y_breaks == (F(0), F(1))


def test_constant_sheet_dim_zero():
    s = constant_sheet(())
    assert s.at(F(1, 3), F(2, 3)) == ()
    refined = GridSheet(*sheet_presentation(s, {F(1, 3)}, {F(1, 2)}))
    assert refined == s and hash(refined) == hash(s)
    assert (s.x_breaks, s.y_breaks) == ((F(0), F(1)), (F(0), F(1)))


def test_sheet_edges():
    s = _random_sheet(random.Random("edges"))
    bottom = s.bottom_edge()
    top = s.top_edge()
    for k in range(9):
        x = F(k, 8)
        assert bottom.at(x) == s.at(x, F(0))
        assert top.at(x) == s.at(x, F(1))


@given(st.lists(unit_rationals, min_size=2, max_size=5))
def test_refinement_never_changes_constant_paths(cuts):
    # law: a redundant presentation of a path builds that path
    q = (F(5, 7),)
    p = constant_path(q)
    inner = {c for c in cuts if F(0) < c < F(1)}
    assert PLPath(*path_presentation(p, inner)) == p


# --- integer canonical forms against the Fraction-division reference ----------

def _reference_keep(breaks, n_other, value):
    """Kept line indices by the direct rule: compare slopes as Fractions.

    ``value(line, other)`` is the point on grid line ``line`` at position
    ``other`` along it.  This is the division-based algorithm that the
    integer scan in :mod:`strips_operad.exact` replaced, kept as an oracle.
    """
    keep = [0]
    for k in range(1, len(breaks) - 1):
        prev = keep[-1]
        dt0 = breaks[k] - breaks[prev]
        dt1 = breaks[k + 1] - breaks[k]
        if any((b - a) / dt0 != (c - b) / dt1
               for o in range(n_other)
               for a, b, c in zip(value(prev, o), value(k, o), value(k + 1, o))):
            keep.append(k)
    keep.append(len(breaks) - 1)
    return keep


def reference_path_canonical(breaks, values) -> tuple:
    """The minimal ``(breaks, values)`` of a path presentation, as raw tuples."""
    keep = _reference_keep(breaks, 1, lambda k, o: values[k])
    return tuple(breaks[k] for k in keep), tuple(values[k] for k in keep)


def reference_sheet_canonical(x_breaks, y_breaks, values) -> tuple:
    """The minimal ``(x_breaks, y_breaks, values)`` of a sheet presentation,
    as raw tuples."""
    keep_x = _reference_keep(x_breaks, len(y_breaks), lambda k, o: values[k][o])
    keep_y = _reference_keep(y_breaks, len(x_breaks), lambda k, o: values[o][k])
    return (tuple(x_breaks[i] for i in keep_x), tuple(y_breaks[i] for i in keep_y),
            tuple(tuple(values[ix][iy] for iy in keep_y) for ix in keep_x))


def _stored(obj) -> tuple:
    """The parts of a path or sheet, as the accessors read them."""
    if isinstance(obj, PLPath):
        return obj.breaks, obj.values
    return obj.x_breaks, obj.y_breaks, obj.values


PATH_BUILDERS = (PLPath, _path_ints)
SHEET_BUILDERS = (GridSheet, _sheet_ints)


def assert_canonical_matches_reference(parts, reference, builders):
    """Every builder stores the reference's minimal form of ``parts``, and
    building that form again gives an equal object with an equal hash."""
    want = reference(*parts)
    for build in builders:
        got = build(*parts)
        assert _stored(got) == want
        again = build(*want)
        assert again == got and hash(again) == hash(got)
    return got


# Denominators from 1 to well above 2**40, so scaled integers outgrow machine words.
DENOMINATORS = (1, 2, 3, 8, 2**40 + 15, 3**27, 2**61 - 1)


def _big_rational(rng: random.Random) -> F:
    return F(rng.randint(-2**45, 2**45), rng.choice(DENOMINATORS))


def _big_cuts(rng: random.Random, count: int) -> list:
    cuts = set()
    for _ in range(count):
        den = rng.choice(DENOMINATORS[2:])
        cuts.add(F(rng.randint(1, den - 1), den))
    return sorted(cuts)


def _bumped(point: tuple, rng: random.Random) -> tuple:
    """The point with one coordinate moved by a tiny amount (if it has one)."""
    if not point:
        return point
    i = rng.randrange(len(point))
    return point[:i] + (point[i] + F(1, rng.choice(DENOMINATORS[4:])),) + point[i + 1:]


def test_path_canonical_matches_fraction_reference():
    for k in range(300):
        rng = random.Random(f"intcanon-path:{k}")
        dim = rng.randint(0, 3)
        breaks = (F(0), *_big_cuts(rng, rng.randint(0, 4)), F(1))
        values = tuple(tuple(_big_rational(rng) for _ in range(dim)) for _ in breaks)
        base = assert_canonical_matches_reference((breaks, values),
                                                  reference_path_canonical,
                                                  PATH_BUILDERS)
        refined = path_presentation(base, _big_cuts(rng, rng.randint(1, 4)))
        got = assert_canonical_matches_reference(refined, reference_path_canonical,
                                                 PATH_BUILDERS)
        assert got == base and hash(got) == hash(base)
        # one interior value moved off its line by a tiny amount
        if len(refined[0]) > 2:
            j = rng.randrange(1, len(refined[0]) - 1)
            vals = list(refined[1])
            vals[j] = _bumped(vals[j], rng)
            assert_canonical_matches_reference((refined[0], tuple(vals)),
                                               reference_path_canonical,
                                               PATH_BUILDERS)


def test_sheet_canonical_matches_fraction_reference():
    for k in range(120):
        rng = random.Random(f"intcanon-sheet:{k}")
        dim = rng.randint(0, 3)
        xs = (F(0), *_big_cuts(rng, rng.randint(0, 3)), F(1))
        ys = (F(0), *_big_cuts(rng, rng.randint(0, 3)), F(1))
        values = tuple(tuple(tuple(_big_rational(rng) for _ in range(dim)) for _ in ys)
                       for _ in xs)
        base = assert_canonical_matches_reference((xs, ys, values),
                                                  reference_sheet_canonical,
                                                  SHEET_BUILDERS)
        refined = sheet_presentation(base, _big_cuts(rng, rng.randint(0, 2)),
                                     _big_cuts(rng, rng.randint(0, 2)))
        got = assert_canonical_matches_reference(refined, reference_sheet_canonical,
                                                 SHEET_BUILDERS)
        assert got == base and hash(got) == hash(base)
        # one grid value off its lines: a redundant line bends in one row only
        cols = [list(col) for col in refined[2]]
        ix, iy = rng.randrange(len(cols)), rng.randrange(len(cols[0]))
        cols[ix][iy] = _bumped(cols[ix][iy], rng)
        assert_canonical_matches_reference(
            (refined[0], refined[1], tuple(tuple(col) for col in cols)),
            reference_sheet_canonical, SHEET_BUILDERS)


big_unit_rationals = st.fractions(min_value=F(0), max_value=F(1),
                                  max_denominator=2**50)
big_rationals = st.fractions(min_value=F(-4), max_value=F(4), max_denominator=2**50)


@given(st.integers(0, 2), st.lists(big_unit_rationals, max_size=4),
       st.lists(big_unit_rationals, max_size=3), st.data())
def test_path_canonical_matches_reference_on_generated_paths(dim, cuts, extra, data):
    breaks = (F(0), *sorted({c for c in cuts if F(0) < c < F(1)}), F(1))
    values = data.draw(st.lists(st.tuples(*[big_rationals] * dim),
                                min_size=len(breaks), max_size=len(breaks)))
    p = assert_canonical_matches_reference((breaks, tuple(values)),
                                           reference_path_canonical, PATH_BUILDERS)
    refined = assert_canonical_matches_reference(path_presentation(p, extra),
                                                 reference_path_canonical,
                                                 PATH_BUILDERS)
    assert refined == p and hash(refined) == hash(p)


@given(st.integers(0, 2), st.lists(big_unit_rationals, max_size=2),
       st.lists(big_unit_rationals, max_size=2), st.data())
def test_sheet_canonical_matches_reference_on_generated_sheets(dim, cuts_x, cuts_y,
                                                               data):
    xs = (F(0), *sorted({c for c in cuts_x if F(0) < c < F(1)}), F(1))
    ys = (F(0), *sorted({c for c in cuts_y if F(0) < c < F(1)}), F(1))
    point = st.tuples(*[big_rationals] * dim)
    column = st.lists(point, min_size=len(ys), max_size=len(ys)).map(tuple)
    values = data.draw(st.lists(column, min_size=len(xs), max_size=len(xs)))
    s = assert_canonical_matches_reference((xs, ys, tuple(values)),
                                           reference_sheet_canonical, SHEET_BUILDERS)
    extra = data.draw(st.lists(big_unit_rationals, max_size=2))
    refined = assert_canonical_matches_reference(sheet_presentation(s, extra, extra),
                                                 reference_sheet_canonical,
                                                 SHEET_BUILDERS)
    assert refined == s and hash(refined) == hash(s)


def test_coercion_keeps_fractions_and_converts_the_rest():
    half = F(1, 2)
    p = PLPath((0, "1/2", half * 2), ((1,), (half,), ("-3/4",)))
    assert p.breaks == (F(0), F(1, 2), F(1))
    assert all(type(t) is F for t in p.breaks)
    assert p.values == ((F(1),), (F(1, 2),), (F(-3, 4),))
    assert p.values[1][0] == half
    assert all(type(c) is F for v in p.values for c in v)


# --- trusted builders and the grid lookup ----------------------------------------

def _assert_same_object(trusted, public):
    assert trusted == public and hash(trusted) == hash(public)
    assert repr(trusted) == repr(public)


def test_trusted_builders_match_the_public_constructors():
    for k in range(100):
        rng = random.Random(f"trusted:{k}")
        dim = rng.randint(0, 3)
        xb = tuple([F(0)] + _big_cuts(rng, rng.randint(0, 4)) + [F(1)])
        yb = tuple([F(0)] + _big_cuts(rng, rng.randint(0, 3)) + [F(1)])
        # some values repeat a neighbour, so the builders drop lines
        pts = [tuple(_big_rational(rng) for _ in range(dim)) for _ in range(3)]
        path_values = tuple(rng.choice(pts) for _ in xb)
        grid = tuple(tuple(rng.choice(pts) for _ in yb) for _ in xb)

        path = _path_ints(xb, path_values)
        _assert_same_object(path, PLPath(xb, path_values))
        _assert_same_object(path, _path(path._t, path._v, path._vm))
        _assert_same_object(path, _path_ints(path.breaks, path.values, 1))

        sheet = _sheet_ints(xb, yb, grid)
        _assert_same_object(sheet, GridSheet(xb, yb, grid))
        _assert_same_object(sheet, _sheet(sheet._x, sheet._c))
        _assert_same_object(sheet, _sheet_ints(sheet.x_breaks, sheet.y_breaks,
                                               sheet.values, 1))
        for edge, iy in ((sheet.bottom_edge(), 0), (sheet.top_edge(), -1)):
            _assert_same_object(edge, PLPath(xb, tuple(c[iy] for c in grid)))


def _bisect_segment(breaks: tuple, t: F) -> tuple:
    """The segment of t among the increasing Fractions ``breaks``, by a
    plain bisection: ``(i, None)`` when t is ``breaks[i]``, else ``(i, r)``
    with t the ratio r of the way from ``breaks[i]`` to ``breaks[i + 1]``."""
    lo, hi = 0, len(breaks) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if breaks[mid] <= t:
            lo = mid
        else:
            hi = mid
    for i in (lo, hi):
        if t == breaks[i]:
            return i, None
    return lo, (t - breaks[lo]) / (breaks[lo + 1] - breaks[lo])


def _interpolate(breaks: tuple, values: tuple, t: F) -> tuple:
    """The value at t of the path through ``values`` at ``breaks``, on
    Fractions."""
    i, r = _bisect_segment(breaks, t)
    if r is None:
        return values[i]
    return tuple(a + r * (b - a) for a, b in zip(values[i], values[i + 1]))


def _unit_points(rng: random.Random, breaks: tuple) -> list:
    """Points of [0, 1] to read at: the breaks, halfway between them,
    anywhere between, and both ends again."""
    mids = [(a + b) / 2 for a, b in zip(breaks, breaks[1:])]
    return list(breaks) + mids + _big_cuts(rng, rng.randint(0, 8)) + [F(0), F(1)]


def _assert_segments_agree(breaks: tuple, ts: list) -> None:
    # _segments on the breaks and points over one denominator puts each
    # point where the bisection on Fractions does, its ratio in lowest terms
    m = math.lcm(*[x.denominator for x in (*breaks, *ts)])
    us = sorted(ts)
    got = _segments([(b * m).numerator for b in breaks],
                    [(t * m).numerator for t in us])
    assert len(got) == len(us)
    for t, (i, w) in zip(us, got):
        j, r = _bisect_segment(breaks, t)
        assert i == j
        if r is None:
            assert w is None
        else:
            n, d = w
            assert type(n) is int and type(d) is int
            assert 0 < n < d and math.gcd(n, d) == 1
            assert F(n, d) == r


def test_segments_match_fraction_bisection():
    rng = random.Random("segments")
    for _ in range(300):
        breaks = (F(0), *_big_cuts(rng, rng.randint(0, 6)), F(1))
        _assert_segments_agree(breaks, _unit_points(rng, breaks))
    for _ in range(100):    # breaks anywhere on the line, points between them
        breaks = tuple(sorted({_big_rational(rng) for _ in range(rng.randint(2, 6))}))
        if len(breaks) < 2:
            continue
        lo, hi = breaks[0], breaks[-1]
        ts = [lo + c * (hi - lo) for c in _unit_points(rng, (F(0), F(1)))]
        _assert_segments_agree(breaks, list(breaks) + ts)


@given(st.lists(st.fractions(F(0), F(1), max_denominator=2**61 - 1), max_size=6,
                unique=True),
       st.lists(st.fractions(F(0), F(1), max_denominator=2**61 - 1), max_size=8))
def test_segments_match_fraction_bisection_hypothesis(cuts, ts):
    breaks = (F(0), *sorted({c for c in cuts if F(0) < c < F(1)}), F(1))
    _assert_segments_agree(breaks, list(breaks) + ts)


def _assert_at_interpolates(xb: tuple, yb: tuple, grid: tuple, xs: list,
                            ys: list) -> None:
    # a path and a sheet read at a Fraction give plain Fraction interpolation
    # of the presentation they were built from
    path = PLPath(yb, grid[0])
    for y in ys:
        assert path.at(y) == _interpolate(yb, grid[0], y)
    sheet = GridSheet(xb, yb, grid)
    for x in xs:
        for y in ys:
            across = tuple(_interpolate(yb, col, y) for col in grid)
            assert sheet.at(x, y) == _interpolate(xb, across, x)


def test_at_matches_fraction_interpolation():
    rng = random.Random("at")
    for _ in range(60):
        dim = rng.randint(0, 2)
        xb = (F(0), *_big_cuts(rng, rng.randint(0, 3)), F(1))
        yb = (F(0), *_big_cuts(rng, rng.randint(0, 3)), F(1))
        pts = [tuple(_big_rational(rng) for _ in range(dim)) for _ in range(3)]
        grid = tuple(tuple(rng.choice(pts) for _ in yb) for _ in xb)
        _assert_at_interpolates(xb, yb, grid, _unit_points(rng, xb),
                                _unit_points(rng, yb))


@given(st.lists(st.fractions(F(0), F(1), max_denominator=2**61 - 1), max_size=3,
                unique=True),
       st.lists(st.fractions(F(0), F(1), max_denominator=2**61 - 1), max_size=3,
                unique=True),
       st.lists(st.fractions(F(0), F(1), max_denominator=2**61 - 1), max_size=4),
       st.randoms(use_true_random=False))
def test_at_matches_fraction_interpolation_hypothesis(xcuts, ycuts, ts, rng):
    xb = (F(0), *sorted({c for c in xcuts if F(0) < c < F(1)}), F(1))
    yb = (F(0), *sorted({c for c in ycuts if F(0) < c < F(1)}), F(1))
    grid = tuple(tuple((F(rng.randint(-9, 9), rng.choice(DENOMINATORS)),)
                       for _ in yb) for _ in xb)
    _assert_at_interpolates(xb, yb, grid, list(xb) + ts, list(yb) + ts)


# --- the int storage against plain Fraction arithmetic -------------------------

def _reference_segment(breaks, t) -> tuple:
    """``(k, s)``: t lies in segment k, at ``s`` of the way along, in Fractions."""
    k = max(i for i in range(len(breaks) - 1) if breaks[i] <= t)
    return k, (t - breaks[k]) / (breaks[k + 1] - breaks[k])


def _reference_path_at(breaks, values, t) -> tuple:
    k, s = _reference_segment(breaks, t)
    return tuple(a + s * (b - a) for a, b in zip(values[k], values[k + 1]))


def _reference_sheet_at(x_breaks, y_breaks, values, x, y) -> tuple:
    i, u = _reference_segment(x_breaks, x)
    j, w = _reference_segment(y_breaks, y)
    return tuple((1 - u) * (1 - w) * a + u * (1 - w) * b + (1 - u) * w * c + u * w * e
                 for a, b, c, e in zip(values[i][j], values[i + 1][j],
                                       values[i][j + 1], values[i + 1][j + 1]))


def _assert_int_form(obj) -> None:
    """Every stored part is an int, and each denominator is the LCM of the
    denominators of the Fractions it stands for, so none can be reduced.
    A sheet's x-lines are one axis, and each of its columns is stored like
    a path, with its own denominators."""
    if isinstance(obj, PLPath):
        parts = [((obj._t, obj.breaks), obj._v, obj._vm)]
    else:
        parts = [((obj._x, obj.x_breaks), vals, vm) for _, vals, vm in obj._c]
        parts += [((ts, tuple(F(t, ts[-1]) for t in ts)), (), 1)
                  for ts, _, _ in obj._c]
    for (ints, breaks), points, vm in parts:
        assert all(type(t) is int for t in ints) and ints[0] == 0
        assert ints[-1] == math.lcm(*[t.denominator for t in breaks])
        assert math.gcd(*ints) == 1
        assert all(type(c) is int for v in points for c in v)
        assert type(vm) is int
        assert vm == math.lcm(*[F(c, vm).denominator for v in points for c in v])
        assert math.gcd(vm, *[c for v in points for c in v]) == 1


def _probes(breaks, rng: random.Random, count: int = 4) -> list:
    """The breaks, the middle of each segment and a few random points."""
    mids = [(a + b) / 2 for a, b in zip(breaks, breaks[1:])]
    return list(breaks) + mids + [F(rng.randint(0, 2**62), 2**62) for _ in range(count)]


def _assert_path_storage(breaks, values, rng: random.Random) -> PLPath:
    """Both builders store the same minimal int form of the presentation;
    ``at``, the accessors and ``repr`` agree with Fraction arithmetic."""
    want_breaks, want_values = reference_path_canonical(breaks, values)
    got = [build(breaks, values) for build in PATH_BUILDERS]
    for p in got:
        _assert_int_form(p)
        assert (p._t, p._v, p._vm) == (got[0]._t, got[0]._v, got[0]._vm)
        assert p.breaks == want_breaks and p.values == want_values
        assert all(type(c) is F for c in p.breaks)
        assert all(type(c) is F for v in p.values for c in v)
        assert p == got[0] and hash(p) == hash(got[0])
        assert repr(p) == dataclass_repr("PLPath", breaks=want_breaks,
                                         values=want_values)
        for t in _probes(breaks, rng):
            assert p.at(t) == _reference_path_at(breaks, values, t)
    return got[0]


def _assert_sheet_storage(x_breaks, y_breaks, values, rng: random.Random) -> GridSheet:
    want = reference_sheet_canonical(x_breaks, y_breaks, values)
    got = [build(x_breaks, y_breaks, values) for build in SHEET_BUILDERS]
    for s in got:
        _assert_int_form(s)
        assert (s._x, s._c) == (got[0]._x, got[0]._c)
        assert _stored(s) == want
        assert s == got[0] and hash(s) == hash(got[0])
        assert repr(s) == dataclass_repr("GridSheet", x_breaks=want[0],
                                         y_breaks=want[1], values=want[2])
        for x in _probes(x_breaks, rng, 1):
            for y in _probes(y_breaks, rng, 1):
                assert s.at(x, y) == _reference_sheet_at(x_breaks, y_breaks,
                                                         values, x, y)
    return got[0]


def test_path_int_storage_matches_fraction_arithmetic():
    for k in range(100):
        rng = random.Random(f"int-path:{k}")
        dim = k % 4
        breaks = (F(0), *_big_cuts(rng, rng.randint(0, 4)), F(1))
        values = tuple(tuple(_big_rational(rng) for _ in range(dim)) for _ in breaks)
        base = _assert_path_storage(breaks, values, rng)
        redundant = path_presentation(base, _big_cuts(rng, rng.randint(1, 3)))
        assert _assert_path_storage(*redundant, rng) == base


def test_sheet_int_storage_matches_fraction_arithmetic():
    for k in range(40):
        rng = random.Random(f"int-sheet:{k}")
        dim = k % 4
        xs = (F(0), *_big_cuts(rng, rng.randint(0, 3)), F(1))
        ys = (F(0), *_big_cuts(rng, rng.randint(0, 2)), F(1))
        values = tuple(tuple(tuple(_big_rational(rng) for _ in range(dim)) for _ in ys)
                       for _ in xs)
        base = _assert_sheet_storage(xs, ys, values, rng)
        redundant = sheet_presentation(base, _big_cuts(rng, rng.randint(0, 2)),
                                       _big_cuts(rng, rng.randint(0, 2)))
        assert _assert_sheet_storage(*redundant, rng) == base


huge_denominator_rationals = st.builds(
    F, st.integers(-2**64, 2**64), st.sampled_from(DENOMINATORS))


@given(st.integers(0, 3), st.lists(big_unit_rationals, max_size=4),
       st.lists(big_unit_rationals, max_size=3), st.data())
def test_path_int_storage_matches_fraction_arithmetic_on_generated_paths(
        dim, cuts, extra, data):
    breaks = (F(0), *sorted({c for c in cuts if F(0) < c < F(1)}), F(1))
    values = data.draw(st.lists(st.tuples(*[huge_denominator_rationals] * dim),
                                min_size=len(breaks), max_size=len(breaks)))
    rng = random.Random(len(breaks))
    base = _assert_path_storage(breaks, tuple(values), rng)
    assert _assert_path_storage(*path_presentation(base, extra), rng) == base


@given(st.integers(0, 3), st.lists(big_unit_rationals, max_size=2),
       st.lists(big_unit_rationals, max_size=2), st.data())
def test_sheet_int_storage_matches_fraction_arithmetic_on_generated_sheets(
        dim, cuts_x, cuts_y, data):
    xs = (F(0), *sorted({c for c in cuts_x if F(0) < c < F(1)}), F(1))
    ys = (F(0), *sorted({c for c in cuts_y if F(0) < c < F(1)}), F(1))
    point = st.tuples(*[huge_denominator_rationals] * dim)
    column = st.lists(point, min_size=len(ys), max_size=len(ys)).map(tuple)
    values = data.draw(st.lists(column, min_size=len(xs), max_size=len(xs)))
    rng = random.Random(len(xs) * len(ys))
    base = _assert_sheet_storage(xs, ys, tuple(values), rng)
    extra = data.draw(st.lists(big_unit_rationals, max_size=2))
    assert _assert_sheet_storage(*sheet_presentation(base, extra, extra), rng) == base


def test_paths_and_sheets_are_frozen_and_pickle():
    rng = random.Random("frozen")
    p = _random_path(rng)
    s = _random_sheet(rng)
    for obj, name in ((p, "_t"), (p, "breaks"), (s, "_c"), (s, "x_breaks")):
        with pytest.raises(AttributeError):
            setattr(obj, name, ())
        with pytest.raises(AttributeError):
            delattr(obj, name)
    for obj in (p, s, constant_path(()), constant_sheet((F(1, 3),))):
        again = pickle.loads(pickle.dumps(obj))
        assert again == obj and hash(again) == hash(obj) and repr(again) == repr(obj)


def test_every_value_compares_and_hashes_its_stored_slots():
    """One equality for all three classes: a value hashes as the tuple of
    its slots, which it does not equal, and never equals a value of
    another class."""
    stored = {AffineMap1: lambda m: (m.an, m.cn, m.d),
              PLPath: lambda p: (p._t, p._v, p._vm),
              GridSheet: lambda s: (s._x, s._c)}
    rng = random.Random("one equality")
    values = []
    for _ in range(30):
        values += [AffineMap1(F(rng.randint(1, 8), rng.randint(1, 8)),
                              F(rng.randint(-8, 8), rng.randint(1, 8))),
                   _random_path(rng, rng.randint(0, 2)),
                   _random_sheet(rng, rng.randint(0, 2))]
    for x in values:
        key = x._key(x)
        assert key == stored[type(x)](x) and hash(x) == hash(key)
        assert not x == key and x != key
        for y in values:
            if type(y) is not type(x):
                assert not x == y and x != y


# --- the column store against a product grid ------------------------------------

class ProductSheet:
    """A grid sheet stored as its minimal product grid of Fractions, pruned
    by the reference rule: the form sheets had before they were stored as
    columns, kept as the oracle for the column store."""

    def __init__(self, x_breaks, y_breaks, values):
        self.parts = reference_sheet_canonical(x_breaks, y_breaks, values)
        self.x_breaks, self.y_breaks, self.values = self.parts

    def __eq__(self, other):
        return self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return dataclass_repr("GridSheet", x_breaks=self.x_breaks,
                              y_breaks=self.y_breaks, values=self.values)

    def at(self, x, y):
        return _reference_sheet_at(*self.parts, x, y)

    def bottom_edge(self):
        return PLPath(self.x_breaks, [col[0] for col in self.values])

    def top_edge(self):
        return PLPath(self.x_breaks, [col[-1] for col in self.values])


def _assert_column_store(x_breaks, y_breaks, values, rng) -> tuple:
    """``(sheet, oracle)`` for the presentation, after checking that the
    column store reads like the product grid, keeps every column minimal
    and keeps no x-line that its neighbours' columns already give."""
    s = GridSheet(x_breaks, y_breaks, values)
    o = ProductSheet(x_breaks, y_breaks, values)
    assert repr(s) == repr(o)
    assert (s.x_breaks, s.y_breaks, s.values) == o.parts
    assert (s.bottom_edge(), s.top_edge()) == (o.bottom_edge(), o.top_edge())
    for x in _probes(x_breaks, rng, 1):
        for y in _probes(y_breaks, rng, 1):
            assert s.at(x, y) == o.at(x, y)
    assert len(s._c) == len(s.x_breaks)
    for ts, vals, vm in s._c:
        assert _minimal(ts, vals, vm) == (ts, vals, vm)
        column = (tuple(F(t, ts[-1]) for t in ts),
                  tuple(tuple(F(c, vm) for c in v) for v in vals))
        assert reference_path_canonical(*column) == column
    xb = s.x_breaks
    for k in range(1, len(xb) - 1):
        u = (xb[k] - xb[k - 1]) / (xb[k + 1] - xb[k - 1])
        assert any(s.at(xb[k], y) != tuple(a + u * (b - a) for a, b in
                                           zip(s.at(xb[k - 1], y), s.at(xb[k + 1], y)))
                   for y in s.y_breaks)
    return s, o


def _column_grid(rng: random.Random, xs, ys, dim: int) -> tuple:
    """Values on the grid ``xs`` by ``ys`` whose columns each bend at their
    own few y-lines, so that y-lines stop (T-junctions); some columns repeat
    or interpolate their left neighbours, so that some x-lines are
    redundant."""
    cols = []
    for k in range(len(xs)):
        kind = rng.random()
        if cols and kind < 0.15:
            cols.append(cols[-1])
            continue
        if len(cols) > 1 and kind < 0.3:
            u = (xs[k] - xs[k - 2]) / (xs[k - 1] - xs[k - 2])
            cols.append(tuple(tuple(a + u * (b - a) for a, b in zip(p, q))
                              for p, q in zip(cols[-2], cols[-1])))
            continue
        bends = [0] + sorted(rng.sample(range(1, len(ys) - 1),
                                        rng.randint(0, len(ys) - 2))) + [len(ys) - 1]
        path = PLPath([ys[i] for i in bends],
                      [tuple(_big_rational(rng) for _ in range(dim)) for _ in bends])
        cols.append(tuple(path.at(y) for y in ys))
    return tuple(cols)


def test_column_store_matches_the_product_grid():
    sheets = []
    hits = dict.fromkeys(("T-junction", "x-line dropped", "dim 0"), 0)
    for k in range(60):
        rng = random.Random(f"columns:{k}")
        dim = k % 4
        xs = (F(0), *_big_cuts(rng, rng.randint(0, 4)), F(1))
        ys = (F(0), *_big_cuts(rng, rng.randint(0, 4)), F(1))
        values = _column_grid(rng, xs, ys, dim)
        s, o = _assert_column_store(xs, ys, values, rng)
        hits["T-junction"] += len({ts for ts, _, _ in s._c}) > 1
        hits["x-line dropped"] += len(s.x_breaks) < len(xs)
        hits["dim 0"] += dim == 0
        redundant = sheet_presentation(s, _big_cuts(rng, rng.randint(0, 2)),
                                       _big_cuts(rng, rng.randint(0, 2)))
        again, _ = _assert_column_store(*redundant, rng)
        assert again == s and hash(again) == hash(s)
        assert (again._x, again._c) == (s._x, s._c)
        sheets.append((s, o))
    # the same function twice, and two functions that differ by little
    s, o = sheets[5]
    sheets.append((GridSheet(s.x_breaks, s.y_breaks, s.values), o))
    for a, oa in sheets:
        for b, ob in sheets:
            assert (a == b) == (oa == ob)
            if a == b:
                assert hash(a) == hash(b)
    assert all(hits.values()), hits


def test_columns_stop_where_they_stop_bending():
    # column 0 bends at y = 1/3 only, column 1 at y = 1/2 only and column 2
    # nowhere: each keeps only its own y-lines, and the product grid has both
    ys = (F(0), F(1, 3), F(1, 2), F(1))
    values = (tuple((v,) for v in (F(0), F(3), F(9, 4), F(0))),
              tuple((v,) for v in (F(0), F(4, 3), F(2), F(0))),
              ((F(0),),) * 4)
    s, _ = _assert_column_store((F(0), F(1, 2), F(1)), ys, values,
                                random.Random("tee"))
    assert [tuple(F(t, ts[-1]) for t in ts) for ts, _, _ in s._c] == [
        (F(0), F(1, 3), F(1)), (F(0), F(1, 2), F(1)), (F(0), F(1))]
    assert s.y_breaks == ys and s.values == values


def test_column_store_in_dimension_zero():
    rng = random.Random("columns-dim0")
    xs = (F(0), F(1, 3), F(1))
    ys = (F(0), F(1, 5), F(1))
    s, o = _assert_column_store(xs, ys, (((),) * 3,) * 3, rng)
    assert s == constant_sheet(()) and hash(s) == hash(constant_sheet(()))
    assert s._c == (((0, 1), ((), ()), 1),) * 2
    assert (s.x_breaks, s.y_breaks, s.dim) == ((F(0), F(1)), (F(0), F(1)), 0)


@given(st.integers(0, 2), st.lists(big_unit_rationals, max_size=3),
       st.lists(big_unit_rationals, max_size=3), st.integers(0, 2**32), st.data())
def test_column_store_matches_the_product_grid_on_generated_sheets(
        dim, cuts_x, cuts_y, seed, data):
    xs = (F(0), *sorted({c for c in cuts_x if F(0) < c < F(1)}), F(1))
    ys = (F(0), *sorted({c for c in cuts_y if F(0) < c < F(1)}), F(1))
    rng = random.Random(seed)
    s, _ = _assert_column_store(xs, ys, _column_grid(rng, xs, ys, dim), rng)
    extra = data.draw(st.lists(big_unit_rationals, max_size=2))
    again, _ = _assert_column_store(*sheet_presentation(s, extra, extra), rng)
    assert again == s and hash(again) == hash(s)


def test_sheet_tests_only_the_x_lines_it_is_given():
    # the column at x = 1/2 is the average of its neighbours', and only the
    # first of them bends in y, so the test has to align the columns
    def col(*v):
        return _minimal(tuple(range(len(v))), tuple((c,) for c in v), 1)

    xs, cols = (0, 1, 2), (col(0, 2, 0), col(0, 1, 0), col(0, 0))
    assert (_sheet(xs, cols, set())._x, _sheet(xs, cols, set())._c) == (xs, cols)
    assert _sheet(xs, cols) == _sheet(xs, cols, {1})
    assert (_sheet(xs, cols)._x, _sheet(xs, cols)._c) == ((0, 1), cols[::2])
    # four columns along one line: an untested x-line stays, and a tested
    # one is judged against the last kept one
    xs, cols = (0, 1, 2, 3), tuple(col(k, 2 * k) for k in range(4))
    assert _sheet(xs, cols, {1})._x == (0, 2, 3)
    assert _sheet(xs, cols, {2})._x == (0, 1, 3)
    assert _sheet(xs, cols)._x == (0, 1)       # (0, 3) over its least denominator


def test_sheet_tests_x_lines_by_their_break_value():
    # the x-line at 3 (over 4), interior index 1, is the interpolation of its
    # neighbours: ``tests`` names it by its break value, not by its index
    def col(v):
        return _minimal((0, 1), ((v,), (v,)), 1)

    xs, cols = (0, 3, 4), (col(0), col(3), col(4))
    assert _sheet(xs, cols, set())._x == xs
    assert _sheet(xs, cols, {xs[1]})._x == (0, 1)
    assert _sheet(xs, cols, {1})._x == xs


huge_rationals = st.fractions(min_value=F(-4), max_value=F(4), max_denominator=2**64)
huge_unit_rationals = st.fractions(min_value=F(0), max_value=F(1),
                                   max_denominator=2**64)


@given(st.integers(0, 2), st.lists(huge_unit_rationals, max_size=5), st.data())
def test_a_sheet_constant_in_y_keeps_the_breaks_of_its_minimal_path(dim, cuts, data):
    # one pruning walk serves both levels: a sheet whose columns are constant
    # keeps exactly the x-lines that the path of their values keeps.  Values
    # between drawn knots are interpolated, so that some of them go.
    xs = (F(0), *sorted({c for c in cuts if F(0) < c < F(1)}), F(1))
    knots = [0, *[k for k in range(1, len(xs) - 1) if data.draw(st.booleans())],
             len(xs) - 1]
    points = {k: data.draw(st.tuples(*[huge_rationals] * dim)) for k in knots}
    values = []
    for i, j in zip(knots, knots[1:]):
        for k in range(i, j):
            u = (xs[k] - xs[i]) / (xs[j] - xs[i])
            values.append(tuple(a + u * (b - a) for a, b in zip(points[i], points[j])))
    values.append(points[knots[-1]])
    path = PLPath(xs, values)
    sheet = GridSheet(xs, (F(0), F(1)), [(v, v) for v in values])
    assert sheet._x == path._t
    assert sheet.bottom_edge() == path == sheet.top_edge()
