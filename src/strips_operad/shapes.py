"""Shape vectors and their composition arithmetic.

A shape is a tuple of non-negative rectangle counts, one per strip, with at
least one positive entry.  Composing configurations multiplies out shapes:
each rectangle of the outer configuration is replaced by a whole inner
configuration, and rectangles landing in the same output strip are added up.
"""
from __future__ import annotations

from typing import Sequence

class ShapeError(ValueError):
    """A shape vector or a family of shapes fails the composition rules."""


def check_shape(shape: Sequence) -> tuple:
    shape = tuple(shape)
    if not shape:
        raise ShapeError("shape must have at least one strip")
    for n in shape:
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ShapeError(f"shape entries must be non-negative ints, got {n!r}")
    if all(n == 0 for n in shape):
        raise ShapeError("shape must have at least one rectangle")
    return shape


def output_shape(m: Sequence, arities: Sequence, inner_shapes: Sequence) -> tuple:
    """Shape of a two-level composite.

    ``m`` is the outer shape (length r), ``arities[i]`` the number of strips
    of the base configuration glued into strip i, and ``inner_shapes[i]`` the
    list of the m_i inner shapes over that base (each of length
    ``arities[i]``; the list is empty when ``m[i] == 0``).  Strip i of the
    outer configuration contributes a run of ``arities[i]`` output strips
    whose counts are the entrywise sums of its inner shapes.
    """
    m = check_shape(m)
    if len(arities) != len(m):
        raise ShapeError(f"expected {len(m)} base arities, got {len(arities)}")
    if len(inner_shapes) != len(m):
        raise ShapeError(f"expected {len(m)} inner shape lists, got {len(inner_shapes)}")
    out: list = []
    for i, (m_i, s_i) in enumerate(zip(m, arities)):
        if not isinstance(s_i, int) or s_i < 1:
            raise ShapeError(f"strip {i + 1}: base arity must be a positive int, got {s_i!r}")
        shapes = [check_shape(sh) for sh in inner_shapes[i]]
        if len(shapes) != m_i:
            raise ShapeError(
                f"strip {i + 1}: expected {m_i} inner shapes, got {len(shapes)}")
        for sh in shapes:
            if len(sh) != s_i:
                raise ShapeError(
                    f"strip {i + 1}: inner shape {sh} does not match base arity {s_i}")
        out.extend(sum(sh[j] for sh in shapes) for j in range(s_i))
    return check_shape(out)
