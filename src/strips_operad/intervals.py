"""The operad of little intervals.

An arity-r element is an ordered family of r increasing affine embeddings of
the unit interval whose images are disjoint and appear left to right.
Composition shrinks each inner family into the corresponding interval of the
outer one.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exact import ONE, ZERO, AffineMap1, IDENTITY_1
from .framework import OperadInstance

DEFAULT_DENOM = 4096


@dataclass(frozen=True)
class IntervalConfig:
    embeddings: tuple

    def __post_init__(self):
        object.__setattr__(self, "embeddings", tuple(self.embeddings))
        if not self.embeddings:
            raise ValueError("an interval configuration needs at least one interval")
        for e in self.embeddings:
            if not isinstance(e, AffineMap1):
                raise TypeError(f"expected AffineMap1, got {type(e).__name__}")

    @property
    def arity(self) -> int:
        return len(self.embeddings)

    def images(self) -> tuple:
        return tuple(e.image() for e in self.embeddings)


def interval_unit() -> IntervalConfig:
    return IntervalConfig((IDENTITY_1,))


def interval_compose(outer: IntervalConfig,
                     inners: Sequence[IntervalConfig]) -> IntervalConfig:
    if len(inners) != outer.arity:
        raise ValueError(
            f"arity {outer.arity} composition got {len(inners)} inner configurations")
    embeddings = []
    for out_emb, inner in zip(outer.embeddings, inners):
        embeddings.extend(out_emb.compose(e) for e in inner.embeddings)
    return IntervalConfig(tuple(embeddings))


def interval_violation(config: IntervalConfig) -> Optional[str]:
    """First geometric defect of the configuration, or None if valid.

    Checked in order: each interval inside [0, 1]; each interval strictly
    left of the next (this also forces disjointness).
    """
    images = config.images()
    for k, (lo, hi) in enumerate(images):
        if lo < ZERO or hi > ONE:
            return f"interval {k + 1} image [{lo}, {hi}] leaves [0, 1]"
    for k in range(len(images) - 1):
        if not images[k][1] < images[k + 1][0]:
            return (f"interval {k + 1} (ends {images[k][1]}) overlaps or passes "
                    f"interval {k + 2} (starts {images[k + 1][0]})")
    return None


def grid_embeddings(n: int, rng: random.Random, denom: int) -> tuple:
    """n embeddings of the unit interval with disjoint images, left to right,
    their endpoints 2n distinct points of the 1/denom grid."""
    cuts = sorted(rng.sample(range(denom + 1), 2 * n))
    return tuple(AffineMap1(Fraction(cuts[2 * k + 1] - cuts[2 * k], denom),
                            Fraction(cuts[2 * k], denom))
                 for k in range(n))


def random_intervals(r: int, rng: random.Random,
                     denom: int = DEFAULT_DENOM) -> IntervalConfig:
    """r disjoint ordered intervals with endpoints on the 1/denom grid."""
    if r < 1:
        raise ValueError("arity must be at least 1")
    return IntervalConfig(grid_embeddings(r, rng, denom))


def intervals_operad() -> OperadInstance:
    """The instance plugged into the framework checkers."""
    return OperadInstance(
        name="intervals",
        unit=interval_unit,
        arity=lambda c: c.arity,
        compose=interval_compose,
        random_element=random_intervals,
    )
