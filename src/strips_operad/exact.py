"""Exact piecewise-linear primitives over the rationals.

Everything in this package that looks like geometry bottoms out here:
increasing affine reparametrizations of the unit interval (a rectangle of a
strip configuration is two of them: its strip's across, its own upward),
piecewise-linear paths, and grid-bilinear sheets.  An affine map of the line
is stored as a reduced integer triple ``(an, cn, d)`` for ``x |-> (an*x +
cn)/d``, which is unique per map, and composed on those ints.  A path is
stored as ints too: its breakpoints over one denominator, and all its value
coordinates over one more.  A sheet is stored as its x-lines over one
denominator and, per x-line, its column: the path in y it runs along that
line, stored like a path, with only the y-lines where that column bends (a
T-mesh, in the sense of Sederberg et al., *T-splines and T-NURCCs*, 2003:
a grid line may stop instead of crossing the square): a path whose values
are columns.  So :mod:`strips_operad.sheets` evaluates, prunes, compares and
builds sheets on ints, one column at a time.  One pruning walk,
:func:`_pruned`, serves paths and sheets alike, one walk, :func:`_segments`,
finds where points fall among breaks, and one weighted sum, :func:`_sum`,
mixes two columns.  Every value is stored in the one form its function has
(the normal triple, or the minimal breakpoint sets, with every denominator
reduced), so ``==`` and ``hash``, defined once in
:class:`strips_operad.records._Frozen` on the stored slots, are those of
the underlying functions.  That is the property the law checkers in
:mod:`strips_operad.framework` rely on.  Each class has one private
builder on ints, :func:`_affine1`, :func:`_path` or :func:`_sheet`.  A
constructor and a JSON decoder check reduced int pairs in one ``_init_*``
routine, which hands them to the builder, so ``Fraction``s are built only
where a coordinate is read: in the public accessors, ``at``, ``repr`` and
error messages.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .records import _Frozen

ZERO = Fraction(0)
ONE = Fraction(1)


def as_rat(x) -> Fraction:
    """Coerce ints / strings like ``\"3/4\"`` to Fraction; a Fraction is kept."""
    if type(x) is Fraction:
        return x
    return Fraction(x)


def as_point(p) -> tuple[Fraction, ...]:
    return tuple([c if type(c) is Fraction else Fraction(c) for c in p])


def _ratios(xs) -> list:
    """The rationals ``xs``, as :func:`as_rat` reads them, as reduced
    ``(n, d)`` pairs with ``d > 0``."""
    return [as_rat(x).as_integer_ratio() for x in xs]


def _over_lcm(ratios: Sequence[tuple]) -> tuple[tuple, int]:
    """``(ints, m)``: the rationals ``n/d`` of the reduced pairs ``ratios``
    times m, the LCM of their denominators, as a tuple of ints.  This is
    where a public constructor or a JSON decoder leaves rationals behind."""
    m = math.lcm(*[d for _, d in ratios])
    return tuple([n * (m // d) for n, d in ratios]), m


def _points(flat: tuple, d: int, n: int) -> list:
    """The n points of dimension d that ``flat`` lists one after another."""
    return [flat[k * d:k * d + d] for k in range(n)]


def _read(ts: Sequence, vals: Sequence, vm: int, t: Fraction) -> tuple:
    """The value at the Fraction t of the path with breaks ``ts`` (ints
    over ``ts[-1]``) and values ``vals`` (ints over vm), as Fractions: the
    breaks are scaled by the denominator of t."""
    m = ts[-1]
    ((v, d),) = _values_at(_rescaled(ts, m * t.denominator), vals, vm,
                           [t.numerator * m])
    return _fractions(v, d)


def _rescaled(ts: Sequence, m: int) -> Sequence:
    """The points ``ts`` (ints over ``ts[-1]``) as ints over m, a multiple
    of ``ts[-1]``."""
    k = m // ts[-1]
    return ts if k == 1 else [t * k for t in ts]


def _fractions(point, den: int) -> tuple[Fraction, ...]:
    return tuple([Fraction(c, den) for c in point])


# ---------------------------------------------------------------------------
# affine embeddings
# ---------------------------------------------------------------------------

class AffineMap1(_Frozen):
    """Increasing affine map x |-> a*x + c with a > 0.

    The map is stored as three ints ``(an, cn, d)`` with ``a = an/d``,
    ``c = cn/d``, ``d > 0`` and ``gcd(an, cn, d) == 1``.  Each map has exactly
    one such triple, so equality and hashing compare triples.  A composite is
    formed on the triples and reduced by one gcd; ``a``, ``c``, a call, an
    inverse and ``image()`` build ``Fraction``s only when they are asked for.
    Instances are immutable.
    """

    __slots__ = ("an", "cn", "d")

    def __new__(cls, a, c):
        return _init_affine1(as_rat(a).as_integer_ratio(),
                             as_rat(c).as_integer_ratio())

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


def _init_affine1(a: tuple, c: tuple) -> AffineMap1:
    """The map ``x |-> a*x + c``, for a and c as reduced ``(n, d)`` pairs,
    checked on ints and built by :func:`_affine1`."""
    (an, ad), (cn, cd) = a, c
    if an <= 0:
        raise ValueError(f"affine scale must be positive, got {Fraction(an, ad)}")
    d = math.lcm(ad, cd)
    return _affine1(an * (d // ad), cn * (d // cd), d)


def _affine1(an: int, cn: int, d: int) -> AffineMap1:
    """The :class:`AffineMap1` ``x |-> (an*x + cn)/d`` from ints with
    ``an > 0`` and ``d > 0``, reduced to its normal form by one gcd, with
    no coercion and no sign test."""
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

def _check_axis(ts: Sequence, m: int, where: str) -> None:
    """Refuse breakpoints ``ts`` (ints over m) unless there are two or more,
    strictly increasing from 0 to 1; ``where`` is the text of the last."""
    if len(ts) < 2:
        raise ValueError("need at least two breakpoints")
    for u, v in zip(ts, ts[1:]):
        if u >= v:
            raise ValueError("breakpoints must be strictly increasing, "
                             f"got {Fraction(u, m)} >= {Fraction(v, m)}")
    if ts[0] != 0 or ts[-1] != m:
        raise ValueError(where)


def _check_dim(points) -> int:
    d = len(points[0])      # the one length of all points
    if any(len(v) != d for v in points):
        raise ValueError("all values must have the same dimension")
    return d


class PLPath(_Frozen):
    """Piecewise-linear function [0,1] -> Q^d, linear between breakpoints.

    ``values[k]`` is the value at ``breaks[k]``; breaks are strictly
    increasing with ``breaks[0] == 0`` and ``breaks[-1] == 1``.  An interior
    breakpoint where the slope does not change is dropped on construction,
    so two paths are ``==`` exactly when they are the same function.

    The path is stored as ints: ``_t`` holds the breaks times their least
    common denominator, which is ``_t[-1]``, and ``_v`` the values times
    ``_vm``, the least common denominator of all their coordinates.  That
    form is unique, so ``==`` and ``hash`` compare the three fields.
    ``breaks``, ``values``, ``at`` and ``repr`` build ``Fraction``s when
    they are called.
    """

    __slots__ = ("_t", "_v", "_vm")

    def __new__(cls, breaks, values):
        return _init_path(_ratios(breaks), [_ratios(v) for v in values])

    def __repr__(self):
        return f"PLPath(breaks={self.breaks!r}, values={self.values!r})"

    @property
    def breaks(self) -> tuple:
        return _fractions(self._t, self._t[-1])

    @property
    def values(self) -> tuple:
        vm = self._vm
        return tuple([_fractions(v, vm) for v in self._v])

    @property
    def dim(self) -> int:
        return len(self._v[0])

    def at(self, t: Fraction) -> tuple:
        t = as_rat(t)
        if not ZERO <= t <= ONE:
            raise ValueError(f"argument {t} outside [0, 1]")
        return _read(self._t, self._v, self._vm, t)

    def canonical(self) -> "PLPath":
        """``self``, since a path is stored in its minimal form.  Kept only
        because the benchmark harness in ``bench/`` still calls it."""
        return self


_SET_T = PLPath._t.__set__
_SET_PV = PLPath._v.__set__
_SET_PVM = PLPath._vm.__set__


def _minimal(ts: Sequence, vals: Sequence, vm: int) -> tuple:
    """``(ts, vals, vm)`` as tuples: the path with breaks ``ts[k]/ts[-1]``
    and values ``vals[k]/vm`` (tuples of ints), :func:`_pruned` of every
    interior breakpoint where the slope does not change, each side over its
    least denominator.  That is the one stored form of the path."""
    ts, vals = _pruned(ts, vals, _point_bends)
    g = vm
    for v in vals:
        g = math.gcd(g, *v)
        if g == 1:
            break
    if g != 1:
        vm //= g
        vals = tuple([tuple([c // g for c in v]) for v in vals])
    return ts, vals, vm


def _point_bends(a: tuple, b: tuple, c: tuple, dt0: int, dt1: int) -> bool:
    """Whether the point b, ``dt0`` after a and ``dt1`` before c (all over
    one denominator), is off their line: ``(b - a)·dt1 != (c - b)·dt0``."""
    for x, y, z in zip(a, b, c):
        if (y - x) * dt1 != (z - y) * dt0:
            return True
    return False


def _pruned(ts: Sequence, vals: Sequence, bends, tests=None) -> tuple:
    """``(ts, vals)`` as tuples, less each interior break ``ts[k]`` in
    ``tests`` (all when None) where ``bends(last, vals[k], vals[k + 1],
    dt0, dt1)`` is false: its value is on the line through the last kept
    value, ``dt0`` before, and the next, ``dt1`` after.  The breaks are
    ints over ``ts[-1]``, as are the values in ``tests``, and come back over
    their least denominator.  The one walk for a path's points
    (:func:`_minimal`) and a sheet's x-lines."""
    if len(ts) > 2:
        t0, last = ts[0], vals[0]
        kept_ts, kept = [t0], [last]
        for k in range(1, len(ts) - 1):
            t, v = ts[k], vals[k]
            if ((tests is None or t in tests)
                    and not bends(last, v, vals[k + 1], t - t0, ts[k + 1] - t)):
                continue
            t0, last = t, v
            kept_ts.append(t)
            kept.append(v)
        kept_ts.append(ts[-1])
        kept.append(vals[-1])
        ts, vals = kept_ts, kept
    g = math.gcd(*ts)
    return (tuple(ts) if g == 1 else tuple([t // g for t in ts])), tuple(vals)


def _init_path(breaks: Sequence, points: Sequence) -> PLPath:
    """The path with breaks ``breaks`` and values ``points``, as reduced
    ``(n, d)`` pairs, checked on ints and built by :func:`_path`."""
    ts, m = _over_lcm(breaks)
    _check_axis(ts, m, "path must be parametrized over [0, 1]")
    if len(points) != len(ts):
        raise ValueError("one value per breakpoint required")
    flat, vm = _over_lcm([c for v in points for c in v])
    return _path(ts, _points(flat, _check_dim(points), len(ts)), vm)


def _path(ts: Sequence, vals: Sequence, vm: int) -> PLPath:
    """The :class:`PLPath` with breaks ``ts[k]/ts[-1]`` and values
    ``vals[k]/vm``, from ints that already hold its invariants (breaks
    strictly increasing from 0, one tuple of ints of one dimension per
    break, ``vm > 0``), stored in its :func:`_minimal` form without
    checking them again."""
    ts, vals, vm = _minimal(ts, vals, vm)
    path = object.__new__(PLPath)
    _SET_T(path, ts)
    _SET_PV(path, vals)
    _SET_PVM(path, vm)
    return path


# ---------------------------------------------------------------------------
# grid-bilinear sheets
# ---------------------------------------------------------------------------

class GridSheet(_Frozen):
    """Function [0,1]^2 -> Q^d, linear in x between its x-lines and
    piecewise linear in y along each of them.

    Built from a product grid: ``values[ix][iy]`` is the value at
    ``(x_breaks[ix], y_breaks[iy])``, bilinear on each cell.  It is stored
    as its x-lines and one column per x-line, the path in y that the sheet
    runs along that line, with only the y-lines where that path bends: a
    y-line may stop instead of crossing the square.  An x-line is kept iff
    its column is not the linear interpolation of its kept neighbours', and
    each column is a minimal path, so two sheets are ``==`` exactly when
    they are the same function.

    ``_x`` holds the x-lines over their least common denominator
    (``_x[-1]``), and ``_c`` the columns, each stored like a
    :class:`PLPath` as a triple ``(ts, vals, vm)`` of ints with its own
    denominators.  ``x_breaks``, ``y_breaks`` and ``values`` give the
    minimal product grid, whose y-lines are the union of the columns'.
    """

    __slots__ = ("_x", "_c")

    def __new__(cls, x_breaks, y_breaks, values):
        return _init_sheet(_ratios(x_breaks), _ratios(y_breaks),
                           [[_ratios(v) for v in col] for col in values])

    def __repr__(self):
        return (f"GridSheet(x_breaks={self.x_breaks!r}, "
                f"y_breaks={self.y_breaks!r}, values={self.values!r})")

    @property
    def x_breaks(self) -> tuple:
        return _fractions(self._x, self._x[-1])

    @property
    def y_breaks(self) -> tuple:
        ys = _union(self._c)
        return _fractions(ys, ys[-1])

    @property
    def values(self) -> tuple:
        return tuple([tuple([_fractions(v, vm) for v in col])
                      for col, vm in _align(self._c)[1]])

    @property
    def dim(self) -> int:
        return len(self._c[0][1][0])

    def at(self, x: Fraction, y: Fraction) -> tuple:
        x, y = as_rat(x), as_rat(y)
        if not (ZERO <= x <= ONE and ZERO <= y <= ONE):
            raise ValueError(f"argument ({x}, {y}) outside the unit square")
        m = self._x[-1]
        (col,) = _columns_at(self, m * x.denominator, [x.numerator * m])
        return _read(*col, y)

    def canonical(self) -> "GridSheet":
        """``self``, since a sheet is stored in its minimal form.  Kept only
        because the benchmark harness in ``bench/`` still calls it."""
        return self

    def _edge(self, k: int) -> PLPath:
        vm = math.lcm(*[m for _, _, m in self._c])
        return _path(self._x, [tuple([c * (vm // m) for c in vals[k]])
                               for _, vals, m in self._c], vm)

    def bottom_edge(self) -> PLPath:
        return self._edge(0)

    def top_edge(self) -> PLPath:
        return self._edge(-1)


_SET_X = GridSheet._x.__set__
_SET_C = GridSheet._c.__set__


def _init_sheet(xb: Sequence, yb: Sequence, grid: Sequence) -> GridSheet:
    """:func:`_init_path` for the sheet with x-lines ``xb``, y-lines ``yb``
    and values ``grid[ix][iy]``: each column is made minimal, and
    :func:`_sheet` keeps the x-lines where the sheet bends."""
    (xs, mx), (ys, my) = _over_lcm(xb), _over_lcm(yb)
    for ts, m in ((xs, mx), (ys, my)):
        _check_axis(ts, m, "sheet must be parametrized over the unit square")
    nx, ny = len(xs), len(ys)
    if len(grid) != nx or any(len(col) != ny for col in grid):
        raise ValueError("value grid must be len(x_breaks) x len(y_breaks)")
    points = [v for col in grid for v in col]
    flat, vm = _over_lcm([c for v in points for c in v])
    points = _points(flat, _check_dim(points), nx * ny)
    return _sheet(xs, [_minimal(ys, points[ix * ny:ix * ny + ny], vm)
                       for ix in range(nx)])


def _sheet(xs: Sequence, cols: Sequence, tests=None) -> GridSheet:
    """The :class:`GridSheet` with x-lines ``xs[i]/xs[-1]`` and columns
    ``cols[i]``, from ints that already hold its invariants (x-lines
    strictly increasing from 0, one :func:`_minimal` path triple of one
    dimension per x-line), without checking them again.  :func:`_pruned`
    tests the interior x-lines whose values ``xs[i]`` are in ``tests`` (all
    when None) with :func:`_bends`; the caller knows that every other one
    bends."""
    xs, cols = _pruned(xs, cols, _bends, tests)
    sheet = object.__new__(GridSheet)
    _SET_X(sheet, xs)
    _SET_C(sheet, cols)
    return sheet


# ---------------------------------------------------------------------------
# reading paths at other paths' breaks
# ---------------------------------------------------------------------------

def _segments(ts: Sequence, us: Sequence) -> list:
    """Where each of the ascending ints ``us`` lies among the strictly
    increasing ints ``ts``, with ``ts[0] <= us[0]`` and ``us[-1] <= ts[-1]``:
    ``(i, None)`` when u is ``ts[i]``, else ``(i, (n, d))`` with u the
    ratio ``n/d``, in lowest terms, of the way from ``ts[i]`` to ``ts[i +
    1]``.  One walk along both lists."""
    out, i, last = [], 0, len(ts) - 2
    for u in us:
        while i < last and ts[i + 1] <= u:
            i += 1
        t0, t1 = ts[i], ts[i + 1]
        if u == t0 or u == t1:
            out.append((i if u == t0 else i + 1, None))
        else:
            g = math.gcd(u - t0, t1 - t0)
            out.append((i, ((u - t0) // g, (t1 - t0) // g)))
    return out


def _values_at(ts: Sequence, vals: Sequence, vm: int, us: Sequence) -> list:
    """``[(point, d), ...]``: the values of the path with breaks ``ts`` and
    values ``vals`` over vm at the ascending ints ``us`` (:func:`_segments`),
    each over a d of its own."""
    out = []
    for i, w in _segments(ts, us):
        if w is None:
            out.append((vals[i], vm))
        else:
            n, d = w
            out.append((tuple([x * (d - n) + y * n
                               for x, y in zip(vals[i], vals[i + 1])]), vm * d))
    return out


def _union(paths: Sequence) -> Sequence:
    """The union of the breaks of the path triples ``paths``, over its last."""
    first = paths[0][0]
    if all(ts == first for ts, _, _ in paths):
        return first
    m = math.lcm(*[ts[-1] for ts, _, _ in paths])
    return sorted({t for ts, _, _ in paths for t in _rescaled(ts, m)})


def _align(paths: Sequence) -> tuple:
    """``(us, [(vals, vm), ...])``: the path triples ``paths`` read at the
    :func:`_union` ``us`` of their breaks, each over a denominator of its own."""
    us = _union(paths)
    m = us[-1]
    out = []
    for ts, vals, vm in paths:
        if len(ts) < len(us):       # read it at the others' breaks too
            read = _values_at(_rescaled(ts, m), vals, vm, us)
            vm = math.lcm(*[d for _, d in read])
            vals = [tuple([c * (vm // d) for c in v]) for v, d in read]
        out.append((vals, vm))
    return us, out


def _sum(a: tuple, ka: int, b: tuple, kb: int, k: int) -> tuple:
    """The path triple ``(ka·a + kb·b)/k`` of the path triples a and b, for
    ints ``ka``, ``kb`` and ``k > 0``, on the :func:`_union` of their
    breaks; a itself when that is a."""
    if ka + kb == k and a == b:
        return a
    us, ((va, ma), (vb, mb)) = _align((a, b))
    m = math.lcm(ma, mb)
    sa, sb = ka * (m // ma), kb * (m // mb)
    return us, [tuple([x * sa + y * sb for x, y in zip(p, q)])
                for p, q in zip(va, vb)], m * k


def _columns_at(sheet: GridSheet, unit: int, xs: Sequence) -> list:
    """The sheet's column at each of the ascending ints ``xs`` over
    ``unit``, a multiple of ``sheet._x[-1]``, as a path triple: the stored
    column on an x-line, else the one n/d of the way from the column before
    x to the next (:func:`_sum`)."""
    cols = sheet._c
    return [cols[i] if w is None else _sum(cols[i], w[1] - w[0], cols[i + 1], *w)
            for i, w in _segments(_rescaled(sheet._x, unit), xs)]


def _bends(left: tuple, mid: tuple, right: tuple, dt0: int, dt1: int) -> bool:
    """Whether the column (path triple) mid, ``dt0`` after left and ``dt1``
    before right, is not the linear interpolation of the other two.  Equal
    columns are stored alike, so when mid equals a neighbour it bends iff
    the other one differs.  Else all three are linear between the union of
    their breaks, so ``b·(dt0 + dt1) == a·dt1 + c·dt0`` is tested there, on
    ints: each side times the three denominators."""
    if mid == left or mid == right:
        return left != right
    _, ((va, ma), (vb, mb), (vc, mc)) = _align((left, mid, right))
    ka, kb, kc = mb * mc * dt1, ma * mc * (dt0 + dt1), ma * mb * dt0
    return any(b * kb != a * ka + c * kc
               for p, q, r in zip(va, vb, vc) for a, b, c in zip(p, q, r))
