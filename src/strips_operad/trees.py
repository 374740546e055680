"""Planar rooted trees without unary vertices.

Trees with r leaves index the faces of the (r-2)-dimensional associahedron:
binary trees are the vertices, the r-leaf star the top face, and contracting
internal edges moves up the face order.  Grafting trees onto leaves is the
operad composition whose laws the framework checkers exercise.
"""
from __future__ import annotations

import functools
import itertools
import random
import weakref
from typing import Callable, Iterator, Sequence

from .framework import OperadInstance


class _Ref(weakref.ref):
    """A weak reference to a tree that remembers the tree's children tuple,
    its key in ``_TREES``."""

    __slots__ = ("key",)


_TREES = {}     # children tuple -> _Ref to the live tree with those children


def _drop(ref, _trees=_TREES):
    """Remove a dead tree's entry, unless a new tree has taken its key.  The
    table is bound here so that nothing is looked up at interpreter exit."""
    if _trees.get(ref.key) is ref:
        del _trees[ref.key]


class PlanarTree:
    """A leaf when ``children`` is empty; internal vertices have >= 2 children.

    Trees are hash-consed: the constructor returns the one live tree with the
    given children, so equal trees are the same object and equality is
    identity.  ``leaves`` is the leaf count and ``dim`` the dimension of the
    face the tree labels, both computed once per distinct tree.  The table
    holds its trees weakly, so a tree nothing refers to is dropped.
    """

    __slots__ = ("children", "leaves", "dim", "__weakref__")

    def __new__(cls, children=()):
        children = tuple(children)
        try:
            ref = _TREES.get(children)
        except TypeError:   # an unhashable child; reported below
            ref = None
        if ref is not None:
            tree = ref()
            if tree is not None:
                return tree
        if len(children) == 1:
            raise ValueError("unary vertices are not allowed")
        leaves = 0
        dim = len(children) - 2 if children else 0
        for c in children:
            if not isinstance(c, PlanarTree):
                raise TypeError(f"expected PlanarTree, got {type(c).__name__}")
            leaves += c.leaves
            dim += c.dim
        tree = object.__new__(cls)
        object.__setattr__(tree, "children", children)
        object.__setattr__(tree, "leaves", leaves or 1)   # a leaf is one
        object.__setattr__(tree, "dim", dim)
        ref = _Ref(tree, _drop)
        ref.key = children
        _TREES[children] = ref
        return tree

    def __setattr__(self, name, value):
        raise AttributeError("PlanarTree is immutable")

    def __delattr__(self, name):
        raise AttributeError("PlanarTree is immutable")

    def __eq__(self, other):
        return self is other

    __hash__ = object.__hash__

    def __reduce__(self):
        return (PlanarTree, (self.children,))

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def __repr__(self):
        return f"PlanarTree.parse({tree_to_brackets(self)!r})"


LEAF = PlanarTree()


def corolla(r: int) -> PlanarTree:
    """The r-leaf tree with a single internal vertex (r >= 2)."""
    if r < 2:
        raise ValueError("a corolla needs at least two leaves")
    return PlanarTree((LEAF,) * r)


def tree_leaves(t: PlanarTree) -> int:
    return t.leaves


def tree_dim(t: PlanarTree) -> int:
    """Dimension of the face the tree labels: sum over internal vertices of
    (number of children - 2).  Binary trees have dimension 0."""
    return t.dim


def tree_to_brackets(t: PlanarTree) -> str:
    if t.is_leaf:
        return "*"
    return "(" + "".join(tree_to_brackets(c) for c in t.children) + ")"


def tree_from_brackets(s: str) -> PlanarTree:
    """The tree ``tree_to_brackets`` writes as s, read with one stack of the
    children of the open vertices; the bottom entry holds the whole tree."""
    stack = [[]]
    for pos, ch in enumerate(s):
        if len(stack) == 1 and stack[0]:
            raise ValueError(f"trailing characters at {pos}")
        if ch == "*":
            stack[-1].append(LEAF)
        elif ch == "(":
            stack.append([])
        elif ch == ")" and len(stack) > 1:
            kids = stack.pop()
            stack[-1].append(PlanarTree(kids))
        else:
            raise ValueError(f"unexpected character {ch!r} at {pos}")
    if len(stack) > 1:
        raise ValueError("unbalanced parentheses")
    if not stack[0]:
        raise ValueError("unexpected end of tree expression")
    return stack[0][0]


PlanarTree.parse = staticmethod(tree_from_brackets)


def graft(outer: PlanarTree, inners: Sequence[PlanarTree]) -> PlanarTree:
    """Replace the leaves of ``outer``, left to right, by the given trees.

    Grafted onto a corolla, the given trees are the result's children."""
    if len(inners) != outer.leaves:
        raise ValueError(
            f"tree with {outer.leaves} leaves grafted with {len(inners)} trees")
    if not outer.children:
        return inners[0]
    if len(outer.children) == len(inners):     # every child is a leaf
        return PlanarTree(inners)
    take = iter(inners).__next__

    def go(t: PlanarTree) -> PlanarTree:
        kids = []
        for c in t.children:
            kids.append(go(c) if c.children else take())
        return PlanarTree(kids)

    return go(outer)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def enumerate_trees(r: int) -> tuple:
    """All planar trees with r leaves, in a fixed deterministic order: by
    root degree, then by the children's leaf counts in lexicographic order,
    then by the children themselves in the order of their own enumeration."""
    if r < 1:
        raise ValueError("trees have at least one leaf")
    if r == 1:
        return (LEAF,)
    out = []
    for parts in range(2, r + 1):
        for cuts in itertools.combinations(range(1, r), parts - 1):
            comp = [b - a for a, b in zip((0, *cuts), (*cuts, r))]
            out.extend(map(PlanarTree, itertools.product(
                *(enumerate_trees(k) for k in comp))))
    return tuple(out)


def f_vector(r: int) -> tuple:
    """Face counts of the (r-2)-dimensional associahedron by dimension."""
    counts = [0] * max(r - 1, 1)
    for t in enumerate_trees(r):
        counts[t.dim] += 1
    return tuple(counts)


def random_tree(r: int, rng: random.Random) -> PlanarTree:
    """A random tree with r leaves: the root's degree is ``randint(2, r)``,
    the cuts between its parts are ``sample(range(1, r), degree - 1)``, and
    each part of more than one leaf is drawn the same way.

    A tree of more than four leaves makes those two calls on ``rng``.  A
    tree of at most four leaves, and every part of at most four leaves, is
    read off a table of their draws (see ``_draw_trie``): it reads
    ``rng.getrandbits`` exactly as the two calls do on CPython 3.10-3.13, so
    it consumes the same words and gives the same trees;
    ``tests/test_trees.py`` checks this against the running interpreter's
    ``random``.
    """
    if r < 1:
        raise ValueError("trees have at least one leaf")
    return _random_tree(r, rng)


def _draw_trie(r: int, then: Callable[[PlanarTree], object]):
    """The trie of the draws of an r-leaf tree, each leaf ``then(tree)``.

    A node ``(k, n, children)`` is one ``Random._randbelow(n)``: a word of
    ``k = n.bit_length()`` bits, redrawn at the same node while it is at
    least n, and the word v leads to ``children[v]``.  The degree comes
    first, then the pool swaps of ``random.sample``, then the parts, left
    to right."""
    if r == 1:
        return then(LEAF)

    def cuts(pool, taken, count):
        if len(taken) == count:
            ends = sorted(taken) + [r]
            return parts([b - a for a, b in zip([0] + ends, ends)], ())
        return _trie_node(len(pool), [cuts(swapped(pool, j), taken + [pool[j]], count)
                                      for j in range(len(pool))])

    def swapped(pool, j):       # the pool once pool[j] is taken
        rest = pool[:-1]
        if j < len(rest):
            rest[j] = pool[-1]
        return rest

    def parts(sizes, done):
        if not sizes:
            return then(PlanarTree(done))
        return _draw_trie(sizes[0], lambda t: parts(sizes[1:], done + (t,)))

    return _trie_node(r - 1, [cuts(list(range(1, r)), [], d)
                              for d in range(1, r)])


def _trie_node(n: int, children: list) -> tuple:
    return (n.bit_length(), n, tuple(children))


# the draw tries of trees of up to four leaves (3, 13 and 71 nodes and
# leaves for r = 2, 3, 4); ``_TRIES[1]`` is the leaf, which draws nothing
_TRIES = (None, LEAF, *(_draw_trie(r, lambda t: t) for r in range(2, 5)))
_TRIE_MAX = len(_TRIES) - 1


def _random_tree(r: int, rng: random.Random) -> PlanarTree:
    if r <= _TRIE_MAX:
        node, bits = _TRIES[r], rng.getrandbits
        while node.__class__ is tuple:
            k, n, children = node
            v = bits(k)
            while v >= n:
                v = bits(k)
            node = children[v]
        return node
    cuts = rng.sample(range(1, r), rng.randint(2, r) - 1)
    cuts.sort()
    cuts.append(r)
    children = []
    prev = 0
    for c in cuts:
        children.append(_random_tree(c - prev, rng))
        prev = c
    return PlanarTree(children)


# ---------------------------------------------------------------------------
# the contraction order
# ---------------------------------------------------------------------------

def one_step_contractions(t: PlanarTree) -> Iterator[PlanarTree]:
    """Trees obtained by contracting exactly one internal edge of t."""
    if t.is_leaf:
        return
    for k, child in enumerate(t.children):
        if not child.is_leaf:
            merged = t.children[:k] + child.children + t.children[k + 1:]
            yield PlanarTree(merged)
        for sub in one_step_contractions(child):
            yield PlanarTree(t.children[:k] + (sub,) + t.children[k + 1:])


def _spans(t: PlanarTree) -> set:
    """The brackets of t: the leaf span ``(first, stop)`` of each internal
    vertex below the root, as ``tree_to_brackets`` writes them inside the
    outer pair.  They determine t among the trees with as many leaves, and
    contracting an edge deletes one."""
    spans = set()
    stack = [(t, 0)]
    while stack:
        vertex, first = stack.pop()
        for c in vertex.children:
            if c.children:
                spans.add((first, first + c.leaves))
                stack.append((c, first))
            first += c.leaves
    return spans


def contracts_to(t1: PlanarTree, t2: PlanarTree) -> bool:
    """Whether t1 can be turned into t2 by contracting internal edges, that
    is, whether t2's brackets are some of t1's.  This is the face order:
    t1 <= t2 in the associahedron iff t1 contracts to t2."""
    if t1.leaves != t2.leaves:
        raise ValueError("trees must have the same number of leaves")
    return _spans(t2) <= _spans(t1)


def trees_operad() -> OperadInstance:
    """The grafting operad instance."""
    return OperadInstance(
        unit=lambda: LEAF,
        arity=tree_leaves,
        compose=graft,
        random_element=random_tree,
    )
