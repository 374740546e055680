"""The operad of little intervals.

An arity-r element is an ordered family of r increasing affine embeddings of
the unit interval whose images are disjoint and appear left to right.
Composition shrinks each inner family into the corresponding interval of the
outer one.
"""
from __future__ import annotations

import random
from typing import Iterable, Optional, Sequence

from .exact import AffineMap1, IDENTITY_1, _affine1
from .framework import OperadInstance
from .records import _Frozen, _set_slots

DEFAULT_DENOM = 4096


class IntervalConfig(_Frozen):
    __slots__ = _fields = ("embeddings",)
    # where bench/tracer.py finds it; with __hash__, which would else be None
    __eq__ = _Frozen.__eq__
    __hash__ = _Frozen.__hash__

    def __init__(self, embeddings: Iterable[AffineMap1]):
        embeddings = tuple(embeddings)
        if not embeddings:
            raise ValueError("an interval configuration needs at least one interval")
        for e in embeddings:
            if not isinstance(e, AffineMap1):
                raise TypeError(f"expected AffineMap1, got {type(e).__name__}")
        _set_slots(self, self._fields, (embeddings,))

    @property
    def arity(self) -> int:
        return len(self.embeddings)

    def images(self) -> tuple:
        return tuple(e.image() for e in self.embeddings)


# the slot's own setter, which the frozen ``__setattr__`` does not reach
_SET_EMBEDDINGS = IntervalConfig.embeddings.__set__


def _intervals(embeddings: tuple) -> IntervalConfig:
    """An :class:`IntervalConfig` from a non-empty tuple of
    :class:`AffineMap1`, built without checking it again."""
    config = object.__new__(IntervalConfig)
    _SET_EMBEDDINGS(config, embeddings)
    return config


def interval_unit() -> IntervalConfig:
    return IntervalConfig((IDENTITY_1,))


def interval_compose(outer: IntervalConfig,
                     inners: Sequence[IntervalConfig]) -> IntervalConfig:
    if len(inners) != outer.arity:
        raise ValueError(
            f"arity {outer.arity} composition got {len(inners)} inner configurations")
    embeddings = []
    for out_emb, inner in zip(outer.embeddings, inners):
        embeddings.extend([out_emb.compose(e) for e in inner.embeddings])
    return _intervals(tuple(embeddings))


def interval_violation(config: IntervalConfig) -> Optional[str]:
    """First geometric defect of the configuration, or None if valid.

    Checked in order: each interval inside [0, 1]; each interval strictly
    left of the next (this also forces disjointness).  The tests are decided
    on the maps' integer triples; an image is formed only for a message.
    """
    embs = config.embeddings
    for k, e in enumerate(embs):
        if not e.maps_into_unit():
            lo, hi = e.image()
            return f"interval {k + 1} image [{lo}, {hi}] leaves [0, 1]"
    for k, (e, f) in enumerate(zip(embs, embs[1:])):
        if not e.ends_before(f):
            return (f"interval {k + 1} (ends {e.image()[1]}) does not sit strictly "
                    f"left of interval {k + 2} (starts {f.image()[0]})")
    return None


def grid_embeddings(n: int, rng: random.Random, denom: int) -> tuple:
    """n embeddings of the unit interval with disjoint images, left to right,
    their endpoints 2n distinct points of the 1/denom grid."""
    cuts = sorted(rng.sample(range(denom + 1), 2 * n))
    return tuple([_affine1(hi - lo, lo, denom)
                  for lo, hi in zip(cuts[::2], cuts[1::2])])


def random_intervals(r: int, rng: random.Random) -> IntervalConfig:
    """r disjoint ordered intervals with endpoints on the 1/DEFAULT_DENOM grid."""
    if r < 1:
        raise ValueError("arity must be at least 1")
    return _intervals(grid_embeddings(r, rng, DEFAULT_DENOM))


def intervals_operad() -> OperadInstance:
    """The instance plugged into the framework checkers."""
    return OperadInstance(
        unit=interval_unit,
        arity=lambda c: c.arity,
        compose=interval_compose,
        random_element=random_intervals,
    )
