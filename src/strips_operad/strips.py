"""Rectangle configurations in vertical strips over an interval configuration.

An element of shape ``n = (n_1, ..., n_r)`` consists of a base configuration
of r little intervals and, over the full-height strip of the i-th interval,
``n_i`` axis-aligned rectangles stacked bottom to top, all 2|n| rectangle
images disjoint.  A rectangle spans its strip across, so it is stored as
its vertical embedding alone, an :class:`AffineMap1`; its horizontal
embedding is the strip's, ``base.embeddings[i]``.

Composition glues one block per strip: a base configuration shared by all
inner elements of that strip, each inner element replacing one rectangle.
"""
from __future__ import annotations

import random
from typing import Optional, Sequence

from .exact import IDENTITY_1, AffineMap1
from .framework import Block, FiberProductError, RelTwoOperadInstance
from .intervals import (DEFAULT_DENOM, IntervalConfig, grid_embeddings,
                        interval_compose, interval_unit, interval_violation,
                        intervals_operad, random_intervals)
from .records import _Frozen, _set_slots
from .shapes import check_shape


class StripConfig(_Frozen):
    """``rects[i]`` lists the vertical embeddings of the rectangles of strip
    i, bottom to top; each rectangle's horizontal embedding is
    ``base.embeddings[i]``."""

    __slots__ = _fields = ("shape", "base", "rects")
    # where bench/tracer.py finds it; with __hash__, which would else be None
    __eq__ = _Frozen.__eq__
    __hash__ = _Frozen.__hash__

    def __init__(self, shape: Sequence, base: IntervalConfig, rects: Sequence):
        shape = check_shape(shape)
        rects = tuple(tuple(row) for row in rects)
        if len(shape) != base.arity:
            raise ValueError(
                f"shape of length {len(shape)} over a base of arity {base.arity}")
        if len(rects) != len(shape):
            raise ValueError("one rectangle list per strip required")
        for i, (n, row) in enumerate(zip(shape, rects)):
            if len(row) != n:
                raise ValueError(f"strip {i + 1} declares {n} rectangles, got {len(row)}")
            for rect in row:
                if not isinstance(rect, AffineMap1):
                    raise TypeError(f"expected AffineMap1, got {type(rect).__name__}")
        _set_slots(self, self._fields, (shape, base, rects))

    @property
    def arity(self) -> int:
        return len(self.shape)


# the slots' own setters, which the frozen ``__setattr__`` does not reach
_SET_SHAPE = StripConfig.shape.__set__
_SET_BASE = StripConfig.base.__set__
_SET_RECTS = StripConfig.rects.__set__


def _strip(shape: tuple, base: IntervalConfig, rects: tuple) -> StripConfig:
    """A :class:`StripConfig` from parts that already hold its invariants (a
    valid shape as long as the base's arity, and a tuple of rows of
    :class:`AffineMap1`, one per strip, as long as its entry), built without
    checking them again."""
    config = object.__new__(StripConfig)
    _SET_SHAPE(config, shape)
    _SET_BASE(config, base)
    _SET_RECTS(config, rects)
    return config


def strip_unit() -> StripConfig:
    return StripConfig((1,), interval_unit(), ((IDENTITY_1,),))


def strip_project(config: StripConfig) -> IntervalConfig:
    return config.base


def strip_compose(outer: StripConfig, blocks: Sequence[Block]) -> StripConfig:
    """Glue one block of inner configurations into each strip of ``outer``.

    ``blocks[i].configs`` supplies one inner element per rectangle of strip i
    (so none for an empty strip), all lying over ``blocks[i].base``; the i-th
    strip then fans out into ``blocks[i].base.arity`` output strips.  The
    composite's shape is the row lengths of the rectangles built here, so the
    ``shape arithmetic`` law compares it with :func:`shapes.output_shape`.
    """
    r = outer.arity
    if len(blocks) != r:
        raise ValueError(f"arity {r} composition got {len(blocks)} blocks")
    for i, block in enumerate(blocks):
        if not isinstance(block.base, IntervalConfig):
            raise TypeError(f"block {i + 1}: base must be an IntervalConfig")
        if len(block.configs) != outer.shape[i]:
            raise ValueError(
                f"strip {i + 1} has {outer.shape[i]} rectangles, "
                f"got {len(block.configs)} inner configurations")
        for q in block.configs:
            if q.base != block.base:
                raise FiberProductError(
                    f"strip {i + 1}: inner configuration over {q.base.images()} "
                    f"does not share the block base {block.base.images()}")

    base = interval_compose(outer.base, tuple(b.base for b in blocks))
    rects = tuple(tuple(o.compose(rect)
                        for o, q in zip(outer.rects[i], block.configs)
                        for rect in q.rects[j])
                  for i, block in enumerate(blocks)
                  for j in range(block.base.arity))
    return _strip(tuple(map(len, rects)), base, rects)


def strip_violation(config: StripConfig) -> Optional[str]:
    """First defect of the configuration, or None if valid.

    Checked in order: the base configuration; per strip i, each rectangle
    (i, j)'s vertical image staying inside [0, 1], then the bottom-to-top
    order within the strip.  Indices in messages are 1-based.

    Pairwise disjointness of the rectangles needs no check of its own.  A
    valid base orders the strips strictly left to right, and every rectangle
    spans its own strip, so rectangles in different strips are x-disjoint;
    rectangles within one strip are strictly ordered bottom to top, so they
    are y-disjoint.  The tests are decided on the maps' integer triples, an
    image is formed only for a message, and the whole check is linear in the
    rectangle count.
    """
    base_bad = interval_violation(config.base)
    if base_bad is not None:
        return f"base: {base_bad}"
    for i, row in enumerate(config.rects):
        for j, rect in enumerate(row):
            if not rect.maps_into_unit():
                lo, hi = rect.image()
                return (f"rectangle ({i + 1}, {j + 1}) vertical image "
                        f"[{lo}, {hi}] leaves [0, 1]")
        for j in range(len(row) - 1):
            if not row[j].ends_before(row[j + 1]):
                return (f"rectangle ({i + 1}, {j + 1}) does not sit strictly "
                        f"below rectangle ({i + 1}, {j + 2})")
    return None


def random_strip_over(shape: Sequence, base: IntervalConfig,
                      rng: random.Random) -> StripConfig:
    """A random valid configuration of the given shape over the given base."""
    shape = check_shape(shape)
    if len(shape) != base.arity:
        raise ValueError("shape length must match base arity")
    rows = tuple(grid_embeddings(n, rng, DEFAULT_DENOM) for n in shape)
    return _strip(shape, base, rows)


def random_strip(shape: Sequence, seed) -> StripConfig:
    """Seeded convenience wrapper: base and rectangles from one seed."""
    rng = random.Random(seed)
    shape = check_shape(shape)
    return random_strip_over(shape, random_intervals(len(shape), rng), rng)


def strips_rel_operad() -> RelTwoOperadInstance:
    """The strips instance over the intervals operad."""
    return RelTwoOperadInstance(
        base=intervals_operad(),
        unit=strip_unit,
        shape=lambda q: q.shape,
        project=strip_project,
        compose=strip_compose,
        random_over=random_strip_over,
    )
