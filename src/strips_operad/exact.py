"""Exact piecewise-linear primitives over the rationals.

Everything in this package that looks like geometry bottoms out here:
increasing affine reparametrizations of the unit interval (a rectangle of a
strip configuration is two of them: its strip's across, its own upward),
piecewise-linear paths, and grid-bilinear sheets.  An affine map of the line
is stored as a reduced integer triple ``(an, cn, d)`` for ``x |-> (an*x +
cn)/d``, which is unique per map, and composed on those ints; paths and
sheets hold :class:`fractions.Fraction` coordinates.  Every value is stored
in the one form its function has (the normal triple, or the minimal
breakpoint set, which each constructor prunes to), so ``==`` and ``hash``
are those of the underlying functions.  That is the property the law
checkers in :mod:`strips_operad.framework` rely on.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from typing import Iterable, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


def as_rat(x) -> Fraction:
    """Coerce ints / strings like ``\"3/4\"`` to Fraction; a Fraction is kept."""
    if type(x) is Fraction:
        return x
    return Fraction(x)


def as_point(p) -> tuple[Fraction, ...]:
    return tuple([c if type(c) is Fraction else Fraction(c) for c in p])


def lerp(p, q, tn: int, td: int) -> tuple[Fraction, ...]:
    """Point on the segment from p to q at parameter ``tn/td`` (``td > 0``;
    the ratio need not be reduced).

    Each coordinate ``(1 - t)·a + t·b`` is formed over one common denominator
    and reduced once, instead of after each of three Fraction operations.
    """
    sn = td - tn
    out = []
    for a, b in zip(p, q):
        an, ad = a.numerator, a.denominator
        bn, bd = b.numerator, b.denominator
        if an == bn and ad == bd:
            out.append(a)
        else:
            out.append(Fraction(an * bd * sn + bn * ad * tn, ad * bd * td))
    return tuple(out)


def locate(breaks: Sequence, t) -> tuple:
    """``(i, None)`` when t is ``breaks[i]``, else ``(i, (t - t0, t1 - t0))``
    with t at that ratio of the way from ``t0 = breaks[i]`` to ``t1 =
    breaks[i + 1]``.  The breaks strictly increase; past either end the first
    or last segment is extended.  Breaks and t are all ints (rationals scaled
    by one common denominator) or all Fractions, found by one bisection."""
    i = bisect_right(breaks, t, 1, len(breaks) - 1) - 1
    t0 = breaks[i]
    if t == t0:
        return i, None
    t1 = breaks[i + 1]
    if t == t1:
        return i + 1, None
    return i, (t - t0, t1 - t0)


def _lerp_at(p, q, w) -> tuple:
    """:func:`lerp` at the ratio ``w = (num, den)`` of two Fractions from
    :func:`locate`, passed on as ints without dividing them."""
    num, den = w
    return lerp(p, q, num.numerator * den.denominator,
                num.denominator * den.numerator)


# ---------------------------------------------------------------------------
# affine embeddings
# ---------------------------------------------------------------------------

class AffineMap1:
    """Increasing affine map x |-> a*x + c with a > 0.

    The map is stored as three ints ``(an, cn, d)`` with ``a = an/d``,
    ``c = cn/d``, ``d > 0`` and ``gcd(an, cn, d) == 1``.  Each map has exactly
    one such triple, so equality and hashing compare triples.  A composite is
    formed on the triples and reduced by one gcd; ``a``, ``c``, a call, an
    inverse and ``image()`` build ``Fraction``s only when they are asked for.
    Instances are immutable.
    """

    __slots__ = ("an", "cn", "d")

    def __init__(self, a, c):
        a, c = as_rat(a), as_rat(c)
        if a.numerator <= 0:
            raise ValueError(f"affine scale must be positive, got {a}")
        ad, cd = a.denominator, c.denominator
        d = math.lcm(ad, cd)        # both reduced, so the triple is too
        _SET_AN(self, a.numerator * (d // ad))
        _SET_CN(self, c.numerator * (d // cd))
        _SET_D(self, d)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (_affine1, (self.an, self.cn, self.d))

    def __eq__(self, other):
        if other is self:
            return True
        if type(other) is not AffineMap1:
            return NotImplemented
        return self.an == other.an and self.cn == other.cn and self.d == other.d

    def __hash__(self):
        return hash((self.an, self.cn, self.d))

    def __repr__(self):
        return f"AffineMap1(a={self.a!r}, c={self.c!r})"

    @property
    def a(self) -> Fraction:
        return Fraction(self.an, self.d)

    @property
    def c(self) -> Fraction:
        return Fraction(self.cn, self.d)

    def __call__(self, x: Fraction) -> Fraction:
        x = as_rat(x)
        xn, xd = x.numerator, x.denominator
        return Fraction(self.an * xn + self.cn * xd, self.d * xd)

    def compose(self, inner: "AffineMap1") -> "AffineMap1":
        """self after inner:  x |-> self(inner(x))."""
        an, id_ = self.an, inner.d
        return _affine1(an * inner.an, an * inner.cn + self.cn * id_, self.d * id_)

    def invert(self, y: Fraction) -> Fraction:
        y = as_rat(y)
        yn, yd = y.numerator, y.denominator
        return Fraction(yn * self.d - self.cn * yd, yd * self.an)

    def image(self) -> tuple[Fraction, Fraction]:
        """Image of the unit interval, ``(f(0), f(1))``."""
        cn, d = self.cn, self.d
        return (Fraction(cn, d), Fraction(self.an + cn, d))

    def maps_into_unit(self) -> bool:
        """Whether ``image()`` lies inside [0, 1], decided on the ints."""
        return self.cn >= 0 and self.an + self.cn <= self.d

    def ends_before(self, other: "AffineMap1") -> bool:
        """Whether ``image()`` ends strictly before ``other.image()`` starts,
        decided on the ints by cross-multiplying."""
        return (self.an + self.cn) * other.d < other.cn * self.d


# the slots' own setters, which the frozen ``__setattr__`` does not reach
_SET_AN = AffineMap1.an.__set__
_SET_CN = AffineMap1.cn.__set__
_SET_D = AffineMap1.d.__set__


def _affine1(an: int, cn: int, d: int) -> AffineMap1:
    """The :class:`AffineMap1` ``x |-> (an*x + cn)/d`` from ints with
    ``an > 0`` and ``d > 0``, reduced to its normal form by one gcd, built
    without the constructor's coercion and sign test."""
    g = math.gcd(an, cn, d)
    if g != 1:
        an, cn, d = an // g, cn // g, d // g
    m = object.__new__(AffineMap1)
    _SET_AN(m, an)
    _SET_CN(m, cn)
    _SET_D(m, d)
    return m


IDENTITY_1 = AffineMap1(ONE, ZERO)


# ---------------------------------------------------------------------------
# piecewise-linear paths
# ---------------------------------------------------------------------------

def _check_breaks(breaks: tuple) -> None:
    if len(breaks) < 2:
        raise ValueError("need at least two breakpoints")
    for u, v in zip(breaks, breaks[1:]):
        if not u < v:
            raise ValueError(f"breakpoints must be strictly increasing, got {u} >= {v}")


@dataclass(frozen=True)
class PLPath:
    """Piecewise-linear function [0,1] -> Q^d, linear between breakpoints.

    ``values[k]`` is the value at ``breaks[k]``; breaks are strictly
    increasing with ``breaks[0] == 0`` and ``breaks[-1] == 1``.  An interior
    breakpoint where the slope does not change is dropped on construction,
    so two paths are ``==`` exactly when they are the same function.
    """

    breaks: tuple
    values: tuple

    def __post_init__(self):
        breaks = tuple([as_rat(t) for t in self.breaks])
        values = tuple([as_point(v) for v in self.values])
        _check_breaks(breaks)
        if breaks[0] != ZERO or breaks[-1] != ONE:
            raise ValueError("path must be parametrized over [0, 1]")
        if len(values) != len(breaks):
            raise ValueError("one value per breakpoint required")
        d = len(values[0])
        if any(len(v) != d for v in values):
            raise ValueError("all values must have the same dimension")
        _store_path(self, breaks, values)

    @property
    def dim(self) -> int:
        return len(self.values[0])

    def at(self, t: Fraction) -> tuple:
        t = as_rat(t)
        if not ZERO <= t <= ONE:
            raise ValueError(f"argument {t} outside [0, 1]")
        i, w = locate(self.breaks, t)
        v = self.values[i]
        return v if w is None else _lerp_at(v, self.values[i + 1], w)

    def canonical(self) -> "PLPath":
        """``self``, since a path is stored in its minimal form.  Kept only
        because the benchmark harness in ``bench/`` still calls it."""
        return self


def _store_path(path: PLPath, breaks: tuple, values: tuple) -> PLPath:
    """Store ``breaks`` and ``values`` as the fields of ``path``, less every
    interior breakpoint where the slope does not change; return ``path``."""
    n, d = len(breaks), len(values[0])
    flat = _scaled([c for v in values for c in v])
    keep = _essential(breaks, [flat[k * d:k * d + d] for k in range(n)])
    if len(keep) < n:
        breaks = tuple([breaks[k] for k in keep])
        values = tuple([values[k] for k in keep])
    fields = path.__dict__          # the frozen dataclass's own storage
    fields["breaks"], fields["values"] = breaks, values
    return path


def _path(breaks: tuple, values: tuple) -> PLPath:
    """A :class:`PLPath` from parts that already hold its invariants (a tuple
    of strictly increasing ``Fraction`` breaks from 0 to 1, and a tuple of as
    many ``Fraction`` points of one dimension), built without coercing or
    checking them again, and pruned to its minimal form."""
    return _store_path(object.__new__(PLPath), breaks, values)


def constant_path(value) -> PLPath:
    v = as_point(value)
    return PLPath((ZERO, ONE), (v, v))


# ---------------------------------------------------------------------------
# grid-bilinear sheets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSheet:
    """Function [0,1]^2 -> Q^d, bilinear on each cell of a rectangular grid.

    ``values[ix][iy]`` is the value at ``(x_breaks[ix], y_breaks[iy])``.  A
    redundant grid line is dropped on construction, so two sheets are ``==``
    exactly when they are the same function.
    """

    x_breaks: tuple
    y_breaks: tuple
    values: tuple

    def __post_init__(self):
        xb = tuple([as_rat(t) for t in self.x_breaks])
        yb = tuple([as_rat(t) for t in self.y_breaks])
        vals = tuple([tuple([as_point(v) for v in col]) for col in self.values])
        for breaks in (xb, yb):
            _check_breaks(breaks)
            if breaks[0] != ZERO or breaks[-1] != ONE:
                raise ValueError("sheet must be parametrized over the unit square")
        if len(vals) != len(xb) or any(len(col) != len(yb) for col in vals):
            raise ValueError("value grid must be len(x_breaks) x len(y_breaks)")
        d = len(vals[0][0])
        if any(len(v) != d for col in vals for v in col):
            raise ValueError("all values must have the same dimension")
        _store_sheet(self, xb, yb, vals)

    @property
    def dim(self) -> int:
        return len(self.values[0][0])

    def at(self, x: Fraction, y: Fraction) -> tuple:
        x, y = as_rat(x), as_rat(y)
        if not (ZERO <= x <= ONE and ZERO <= y <= ONE):
            raise ValueError(f"argument ({x}, {y}) outside the unit square")
        ix, u = locate(self.x_breaks, x)
        iy, w = locate(self.y_breaks, y)
        col = self.values[ix]
        nxt = None if u is None else self.values[ix + 1]

        def on_line(k):     # the value at x on the y-line k
            if nxt is None:
                return col[k]
            return _lerp_at(col[k], nxt[k], u)

        lo = on_line(iy)
        return lo if w is None else _lerp_at(lo, on_line(iy + 1), w)

    def canonical(self) -> "GridSheet":
        """``self``, since a sheet is stored in its minimal form.  Kept only
        because the benchmark harness in ``bench/`` still calls it."""
        return self

    def row(self, iy: int) -> tuple:
        """Values along the iy-th y grid line, indexed by x."""
        return tuple(col[iy] for col in self.values)

    def bottom_edge(self) -> PLPath:
        return _path(self.x_breaks, self.row(0))

    def top_edge(self) -> PLPath:
        return _path(self.x_breaks, self.row(len(self.y_breaks) - 1))


def _store_sheet(sheet: GridSheet, x_breaks: tuple, y_breaks: tuple,
                 values: tuple) -> GridSheet:
    """Store the parts as the fields of ``sheet``, less every redundant grid
    line; return ``sheet``.

    An interior x-line is kept iff some row of grid values has a slope
    change across it, and symmetrically for y-lines.  Whether a line is
    redundant does not depend on redundant lines along the other axis
    (slopes are computed between retained neighbours), so both axes can be
    pruned in one pass, over one integer scaling of the value grid.
    """
    nx, ny, d = len(x_breaks), len(y_breaks), len(values[0][0])
    flat = _scaled([c for col in values for v in col for c in v])
    m = ny * d
    x_lines = [flat[ix * m:ix * m + m] for ix in range(nx)]
    y_lines = [[c for line in x_lines for c in line[iy * d:iy * d + d]]
               for iy in range(ny)]
    keep_x = _essential(x_breaks, x_lines)
    keep_y = _essential(y_breaks, y_lines)
    if len(keep_x) < nx or len(keep_y) < ny:
        values = tuple([tuple([values[ix][iy] for iy in keep_y]) for ix in keep_x])
        x_breaks = tuple([x_breaks[i] for i in keep_x])
        y_breaks = tuple([y_breaks[i] for i in keep_y])
    fields = sheet.__dict__         # the frozen dataclass's own storage
    fields["x_breaks"], fields["y_breaks"] = x_breaks, y_breaks
    fields["values"] = values
    return sheet


def _sheet(x_breaks: tuple, y_breaks: tuple, values: tuple) -> GridSheet:
    """A :class:`GridSheet` from parts that already hold its invariants (two
    tuples of strictly increasing ``Fraction`` breaks from 0 to 1, and a
    tuple of columns, one per x-break, each a tuple of one ``Fraction`` point
    per y-break, all of one dimension), built without coercing or checking
    them again, and pruned to its minimal form."""
    return _store_sheet(object.__new__(GridSheet), x_breaks, y_breaks, values)


def _scaled(xs: Sequence[Fraction]) -> list:
    """The Fractions ``xs`` times the LCM of their denominators, as ints.

    One positive factor scales every entry, so ratios of differences, and with
    them collinearity, are unchanged.
    """
    dens = [x.denominator for x in xs]
    m = math.lcm(*dens)
    return [x.numerator * (m // d) for x, d in zip(xs, dens)]


def scaled_by(m: int, xs: Iterable[Fraction]) -> list:
    """The Fractions ``xs``, whose denominators divide ``m``, times m as ints."""
    return [x.numerator * (m // x.denominator) for x in xs]


def grid_lines(points: Iterable[Fraction]) -> tuple:
    """``(lines, ints, m)`` for the given points: the distinct ones in
    increasing order, the same times ``m`` as ints, and ``m``, the LCM of
    their denominators.  Merging and sorting are done on the ints."""
    pts = list(points)
    m = math.lcm(*[x.denominator for x in pts])
    by_int = dict(zip(scaled_by(m, pts), pts))
    ints = sorted(by_int)
    return tuple([by_int[k] for k in ints]), ints, m


def _essential(breaks: tuple, lines: list) -> list:
    """Indices of the breakpoints to keep along one axis.

    ``lines[k]`` lists the integer-scaled value coordinates on the line at
    ``breaks[k]`` (a path's value, or a whole row or column of a grid).  An
    interior line is redundant when, against the last kept line ``prev`` and
    the next line, every coordinate satisfies ``(b - a)/dt0 == (c - b)/dt1``,
    tested as ``(b - a)·dt1 == (c - b)·dt0`` on integers.
    """
    ts = _scaled(breaks)
    n = len(ts)
    keep = [0]
    for k in range(1, n - 1):
        prev = keep[-1]
        t = ts[k]
        dt0, dt1 = t - ts[prev], ts[k + 1] - t
        for a, b, c in zip(lines[prev], lines[k], lines[k + 1]):
            if (b - a) * dt1 != (c - b) * dt0:
                keep.append(k)
                break
    keep.append(n - 1)
    return keep


def constant_sheet(value) -> GridSheet:
    v = as_point(value)
    return GridSheet((ZERO, ONE), (ZERO, ONE), ((v, v), (v, v)))
