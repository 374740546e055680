"""Operad-style interfaces and exact law checkers.

Three kinds of structure are checked here, each supplied as a small bundle of
callables:

* :class:`OperadInstance` -- one-level composition (interval configurations,
  planar trees): associativity and the two unit laws.
* :class:`RelTwoOperadInstance` -- two-level configurations lying over a base
  operad (rectangle strips over intervals): the projection square, shape
  arithmetic, associativity of block composition, and units.
* :class:`AlgebraInstance` -- carriers and two-level elements acted on by the
  structures above (loops and sheets): interchange of acting before or after
  composing, boundary compatibility, units, and closure of the carrier class.

Every law is instantiated on concrete elements and both sides are compared
with ``==``; element types are expected to make that equality decide equality
of the underlying functions (see :mod:`strips_operad.exact`).  Checkers append
failures to the list they are given, so a corrupted instance yields a report
instead of a crash; a case that raises also fails the law ``exception``.
Deliberately broken instances are in :mod:`strips_operad.mutants`.
"""
from __future__ import annotations

import itertools
import json
import random
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from .shapes import output_shape


class FiberProductError(ValueError):
    """Configurations meant to share a base configuration do not."""


class ChainError(ValueError):
    """Two-level inputs for one strip do not chain end-to-start."""


@dataclass(frozen=True)
class Block:
    """Composition input for one outer strip: a base element plus the
    two-level elements lying over it (none when the strip is empty)."""

    base: Any
    configs: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "configs", tuple(self.configs))


# ---------------------------------------------------------------------------
# instance bundles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OperadInstance:
    name: str
    unit: Callable[[], Any]
    arity: Callable[[Any], int]
    compose: Callable[[Any, Sequence], Any]
    random_element: Callable[[int, random.Random], Any]


@dataclass(frozen=True)
class RelTwoOperadInstance:
    name: str
    base: OperadInstance
    unit: Callable[[], Any]
    shape: Callable[[Any], tuple]
    project: Callable[[Any], Any]
    compose: Callable[[Any, Sequence[Block]], Any]
    random_over: Callable[[tuple, Any, random.Random], Any]


@dataclass(frozen=True)
class AlgebraInstance:
    """Carriers (one level) and elements (two levels) acted on by a
    relative two-operad and its base."""

    name: str
    source: Callable[[Any], Any]
    target: Callable[[Any], Any]
    act_path: Callable[[Any, Sequence], Any]
    act_sheet: Callable[[Any, Sequence], Any]
    random_carrier: Callable[[random.Random], Any]
    random_element: Callable[..., Any]
    violation: Callable[[Any], Optional[str]]


# ---------------------------------------------------------------------------
# plans: the combinatorial skeleton of one law instantiation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OperadPlan:
    """Arities for a two-stage operad composition.

    ``middle_arities[i]`` is the arity of the element glued into slot i of
    the outer element; ``deep_arities[i][j]`` the arity glued into slot j of
    that element.
    """

    middle_arities: tuple
    deep_arities: tuple


@dataclass(frozen=True)
class RelPlan:
    """Shapes and arities for a two-stage block composition.

    ``m`` -- outer shape (length r); ``s[i]`` -- arity of the base glued into
    strip i; ``inner[i][a]`` -- shape of the a-th element over that base;
    ``t[i][j]`` -- arity of the base glued into output strip (i, j);
    ``deep[i][j][a][b]`` -- shape of the element glued onto the b-th
    rectangle that inner element a contributes to strip (i, j).
    """

    m: tuple
    s: tuple
    inner: tuple
    t: tuple
    deep: tuple


@dataclass(frozen=True)
class AlgebraPlan:
    m: tuple
    s: tuple
    inner: tuple


def random_operad_plan(rng: random.Random, max_arity: int) -> OperadPlan:
    bits = rng.getrandbits
    r = _arity(bits, max_arity)
    middles = tuple(_arity(bits, max_arity) for _ in range(r))
    deep = tuple(tuple(_arity(bits, max_arity) for _ in range(s)) for s in middles)
    return OperadPlan(middles, deep)


def all_operad_plans(max_arity: int) -> Iterator[OperadPlan]:
    """Every OperadPlan with all arities between 1 and max_arity, in a fixed
    deterministic order."""
    arities = range(1, max_arity + 1)
    for r in arities:
        for middles in itertools.product(arities, repeat=r):
            slots = sum(middles)
            for flat in itertools.product(arities, repeat=slots):
                deep = []
                pos = 0
                for s in middles:
                    deep.append(flat[pos:pos + s])
                    pos += s
                yield OperadPlan(middles, tuple(deep))


def operad_plan_count(max_arity: int) -> int:
    """How many plans :func:`all_operad_plans` yields.  A middle arity s
    leaves ``max_arity ** s`` choices of deep arities, so r middle arities
    leave ``(sum over s of max_arity ** s) ** r`` plans."""
    per_middle = sum(max_arity ** s for s in range(1, max_arity + 1))
    return sum(per_middle ** r for r in range(1, max_arity + 1))


# The plan samplers read the Mersenne Twister through ``getrandbits`` the way
# CPython's ``Random.choice`` and ``Random.randint`` do (``_randbelow``: draw
# ``n.bit_length()`` bits, redraw while the value is at least n).  They consume
# the same words and return the same plans as those calls would, without
# their per-call overhead.  ``tests/test_plan_sampler.py`` checks this
# against the running interpreter's ``random``.

_SHAPE = (0, 0, 1, 1, 2)    # a shape entry is a uniform choice from these


def _randbelow(bits: Callable[[int], int], n: int) -> int:
    """``Random._randbelow(n)`` for n >= 1, word for word."""
    k = n.bit_length()
    v = bits(k)
    while v >= n:
        v = bits(k)
    return v


def _arity(bits: Callable[[int], int], n: int) -> int:
    """``randint(1, n)``, word for word."""
    return _randbelow(bits, n) + 1


def _random_shape(bits: Callable[[int], int], length: int,
                  max_total: int) -> tuple:
    """``(shape, total)``: a shape of the given length with total between 1
    and ``max_total``, redrawn whole until it fits."""
    while True:
        sh = []
        for _ in range(length):
            k = bits(3)
            while k >= 5:
                k = bits(3)
            sh.append(_SHAPE[k])
        n = sum(sh)
        if 0 < n <= max_total:
            return tuple(sh), n


def _random_shapes(bits: Callable[[int], int], lengths: Sequence[int],
                   max_total: int) -> list:
    """Shapes of the given lengths, each drawn by :func:`_random_shape`, the
    whole list redrawn until their totals sum to at most ``max_total``."""
    while True:
        shapes, n = [], 0
        for length in lengths:
            sh, k = _random_shape(bits, length, max_total)
            shapes.append(sh)
            n += k
        if n <= max_total:
            return shapes


def _first_stage_plan(bits: Callable[[int], int], max_r: int,
                      max_total: int) -> tuple:
    """``(m, s, inner)``, the first-stage draws that rel and algebra plans
    share, in their order.  The sum of the inner totals is the rectangle
    count of the first-stage composite (see :func:`shapes.output_shape`)."""
    r = _arity(bits, max_r)
    m, _ = _random_shape(bits, r, min(3, max_total))
    s = tuple(_arity(bits, max_r) for _ in range(r))
    shapes = iter(_random_shapes(
        bits, [s_i for m_i, s_i in zip(m, s) for _ in range(m_i)], max_total))
    return m, s, tuple(tuple(next(shapes) for _ in range(m_i)) for m_i in m)


def random_rel_plan(rng: random.Random, max_r: int, max_total: int) -> RelPlan:
    bits = rng.getrandbits
    m, s, inner = _first_stage_plan(bits, max_r, max_total)
    r = len(m)
    t = tuple(tuple(_arity(bits, max_r) for _ in range(s_i)) for s_i in s)
    # deep[i][j][a] holds inner[i][a][j] shapes of length t[i][j], drawn flat
    # in that order
    shapes = iter(_random_shapes(
        bits, [t[i][j] for i in range(r) for j in range(s[i])
               for a in range(m[i]) for _ in range(inner[i][a][j])], max_total))
    deep = tuple(
        tuple(
            tuple(tuple(next(shapes) for _ in range(inner[i][a][j]))
                  for a in range(m[i]))
            for j in range(s[i]))
        for i in range(r))
    return RelPlan(m, s, inner, t, deep)


def random_algebra_plan(rng: random.Random, max_r: int, max_total: int) -> AlgebraPlan:
    return AlgebraPlan(*_first_stage_plan(rng.getrandbits, max_r, max_total))


# ---------------------------------------------------------------------------
# elements for one law instantiation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OperadElements:
    outer: Any
    middles: tuple
    inners: tuple


@dataclass(frozen=True)
class RelElements:
    outer: Any
    blocks: tuple       # blocks[i]: the first-stage Block glued into strip i
    deep_bases: tuple   # deep_bases[i][j]
    deep: tuple         # deep[i][j][a][b]


@dataclass(frozen=True)
class AlgebraElements:
    outer: Any
    blocks: tuple       # as in RelElements
    chains: tuple       # per flattened output strip: tuple of elements, or a carrier


def random_operad_elements(op: OperadInstance, plan: OperadPlan,
                           rng: random.Random) -> OperadElements:
    outer = op.random_element(len(plan.middle_arities), rng)
    middles = tuple(op.random_element(s, rng) for s in plan.middle_arities)
    inners = tuple(tuple(op.random_element(a, rng) for a in row)
                   for row in plan.deep_arities)
    return OperadElements(outer, middles, inners)


def _first_stage_elements(rel: RelTwoOperadInstance, plan,
                          rng: random.Random) -> tuple:
    """``(outer, blocks)`` over the first stage ``(m, s, inner)`` of a rel or
    algebra plan, one :class:`Block` per strip: the draws both samplers share."""
    proj = rel.base.random_element(len(plan.m), rng)
    outer = rel.random_over(plan.m, proj, rng)
    bases = tuple(rel.base.random_element(s_i, rng) for s_i in plan.s)
    return outer, tuple(Block(base, [rel.random_over(sh, base, rng) for sh in shapes])
                        for base, shapes in zip(bases, plan.inner))


def random_rel_elements(rel: RelTwoOperadInstance, plan: RelPlan,
                        rng: random.Random) -> RelElements:
    outer, blocks = _first_stage_elements(rel, plan, rng)
    deep_bases = tuple(tuple(rel.base.random_element(plan.t[i][j], rng)
                             for j in range(plan.s[i]))
                       for i in range(len(plan.m)))
    deep = tuple(
        tuple(
            tuple(
                tuple(rel.random_over(sh, deep_bases[i][j], rng)
                      for sh in plan.deep[i][j][a])
                for a in range(plan.m[i]))
            for j in range(plan.s[i]))
        for i in range(len(plan.m)))
    return RelElements(outer, blocks, deep_bases, deep)


def random_algebra_elements(alg: AlgebraInstance, rel: RelTwoOperadInstance,
                            plan: AlgebraPlan, rng: random.Random) -> AlgebraElements:
    outer, blocks = _first_stage_elements(rel, plan, rng)
    # output strip (i, j) holds the rectangles of strip j of every inner
    # shape glued into strip i (see shapes.output_shape)
    counts = [sum(sh[j] for sh in shapes)
              for s_i, shapes in zip(plan.s, plan.inner) for j in range(s_i)]
    chains = []
    for n in counts:
        if n == 0:
            chains.append(alg.random_carrier(rng))
        else:
            chain = [alg.random_element(rng)]
            for _ in range(n - 1):
                chain.append(alg.random_element(rng, source=alg.target(chain[-1])))
            chains.append(tuple(chain))
    return AlgebraElements(outer, blocks, tuple(chains))


# ---------------------------------------------------------------------------
# failure records and reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckFailure:
    case: str
    law: str
    lhs: str
    rhs: str


@dataclass
class CheckReport:
    instance: str
    mode: str
    seed: Optional[int]
    plan: dict
    cases_run: int
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """No law failed, and at least one case was checked."""
        return self.cases_run > 0 and not self.failures

    def to_json(self) -> dict:
        return {**asdict(self), "ok": self.ok}

    def json_bytes(self) -> bytes:
        return (json.dumps(self.to_json(), sort_keys=True, indent=2) + "\n").encode()


# ---------------------------------------------------------------------------
# law checkers
# ---------------------------------------------------------------------------

def _expect(fails: list, case: str, law: str, lhs, rhs) -> bool:
    """Whether the sides of ``law`` are equal; if not, record its failure."""
    if lhs != rhs:
        fails.append(CheckFailure(case, law, repr(lhs), repr(rhs)))
        return False
    return True


def check_operad_laws(op: OperadInstance, elems: OperadElements, case: str,
                      fails: list) -> list:
    """Append to ``fails`` the failures of associativity and units on the
    given elements, and return it."""
    r = op.arity(elems.outer)
    stage1 = op.compose(elems.outer, elems.middles)
    flat = tuple(w for row in elems.inners for w in row)
    lhs = op.compose(stage1, flat)
    rhs = op.compose(elems.outer,
                     tuple(op.compose(elems.middles[i], elems.inners[i])
                           for i in range(r)))
    _expect(fails, case, "associativity", lhs, rhs)

    unit = op.unit()
    _expect(fails, case, "right unit",
            op.compose(elems.outer, (unit,) * r), elems.outer)
    _expect(fails, case, "left unit",
            op.compose(unit, (elems.outer,)), elems.outer)
    return fails


def check_rel_laws(rel: RelTwoOperadInstance, elems: RelElements, case: str,
                   fails: list) -> list:
    """Append to ``fails`` the failures of the projection square, shape
    arithmetic, associativity and units, and return it.  A shape arithmetic
    failure ends the check: the deep elements fit only the expected shape."""
    base_op = rel.base
    outer, blocks = elems.outer, elems.blocks
    m = rel.shape(outer)
    stage1 = rel.compose(outer, blocks)
    r = len(m)

    _expect(fails, case, "projection square",
            rel.project(stage1),
            base_op.compose(rel.project(outer), tuple(b.base for b in blocks)))
    if not _expect(fails, case, "shape arithmetic", rel.shape(stage1),
                   output_shape(m, tuple(base_op.arity(b.base) for b in blocks),
                                tuple(tuple(rel.shape(q) for q in b.configs)
                                      for b in blocks))):
        return fails

    deep_blocks = []
    for i in range(r):
        s_i = base_op.arity(blocks[i].base)
        for j in range(s_i):
            configs = tuple(w for a in range(m[i]) for w in elems.deep[i][j][a])
            deep_blocks.append(Block(elems.deep_bases[i][j], configs))
    lhs = rel.compose(stage1, tuple(deep_blocks))

    inner_composed = tuple(
        tuple(rel.compose(blocks[i].configs[a],
                          tuple(Block(elems.deep_bases[i][j], elems.deep[i][j][a])
                                for j in range(base_op.arity(blocks[i].base))))
              for a in range(m[i]))
        for i in range(r))
    base_composed = tuple(base_op.compose(blocks[i].base, elems.deep_bases[i])
                          for i in range(r))
    rhs = rel.compose(outer,
                      tuple(Block(base_composed[i], inner_composed[i])
                            for i in range(r)))
    _expect(fails, case, "associativity", lhs, rhs)

    unit2 = rel.unit()
    unit1 = base_op.unit()
    _expect(fails, case, "right unit",
            rel.compose(outer, tuple(Block(unit1, (unit2,) * m[i])
                                     for i in range(r))),
            outer)
    _expect(fails, case, "left unit",
            rel.compose(unit2, (Block(rel.project(outer), (outer,)),)),
            outer)
    return fails


def _split_chain(alg: AlgebraInstance, chain_or_carrier, counts: Sequence):
    """Split one strip's input among the inner elements meeting that strip.

    ``counts[a]`` rectangles of the strip belong to inner element a; an inner
    with no rectangle there receives the junction carrier at its position.
    """
    if not isinstance(chain_or_carrier, tuple):
        # empty strip: every inner sees the same carrier
        return [chain_or_carrier] * len(counts)
    chain = chain_or_carrier
    parts = []
    off = 0
    for n in counts:
        if n == 0:
            if off == 0:
                parts.append(alg.source(chain[0]))
            else:
                parts.append(alg.target(chain[off - 1]))
        else:
            parts.append(chain[off:off + n])
            off += n
    if off != len(chain):
        raise ChainError(f"chain of length {len(chain)} does not split as {counts}")
    return parts


def check_algebra_laws(alg: AlgebraInstance, rel: RelTwoOperadInstance,
                       elems: AlgebraElements, case: str, fails: list) -> list:
    """Append to ``fails`` the failures of interchange of acting and
    composing, boundary compatibility, units, and closure, and return it."""
    base_op = rel.base
    outer = elems.outer
    m = rel.shape(outer)
    composite = rel.compose(outer, elems.blocks)

    # one-step action with the composed configuration
    lhs = alg.act_sheet(composite, elems.chains)

    # two-step action: inner elements first, then the outer one
    outer_inputs = []
    k0 = 0
    for m_i, block in zip(m, elems.blocks):
        s_i = base_op.arity(block.base)
        strip_chains = elems.chains[k0:k0 + s_i]
        if m_i == 0:
            outer_inputs.append(alg.act_path(block.base, strip_chains))
        else:
            # parts[j][a]: strip j's share of inner element a
            parts = [
                _split_chain(alg, strip_chains[j],
                             [rel.shape(inner)[j] for inner in block.configs])
                for j in range(s_i)]
            middles = tuple(
                alg.act_sheet(inner, tuple(parts[j][a] for j in range(s_i)))
                for a, inner in enumerate(block.configs))
            outer_inputs.append(middles)
        k0 += s_i
    rhs = alg.act_sheet(outer, tuple(outer_inputs))
    _expect(fails, case, "interchange", lhs, rhs)

    # boundary compatibility of the one-step action
    firsts = tuple(alg.source(c[0]) if isinstance(c, tuple) else c
                   for c in elems.chains)
    lasts = tuple(alg.target(c[-1]) if isinstance(c, tuple) else c
                  for c in elems.chains)
    _expect(fails, case, "source boundary", alg.source(lhs),
            alg.act_path(rel.project(composite), firsts))
    _expect(fails, case, "target boundary", alg.target(lhs),
            alg.act_path(rel.project(composite), lasts))

    # units
    some = next((c[0] for c in elems.chains if isinstance(c, tuple)), None)
    if some is not None:
        _expect(fails, case, "unit",
                alg.act_sheet(rel.unit(), ((some,),)), some)
    carrier = firsts[0]
    _expect(fails, case, "path unit",
            alg.act_path(base_op.unit(), (carrier,)), carrier)

    # closure: composite results stay inside the carrier class
    for label, res in (("one-step", lhs), ("two-step", rhs)):
        msg = alg.violation(res)
        if msg is not None:
            fails.append(CheckFailure(case, "closure", f"{label}: {msg}", "None"))
    return fails


# ---------------------------------------------------------------------------
# the check engine and its four runners
# ---------------------------------------------------------------------------

def _run(name: str, mode: str, seed: int, plan: dict,
         cases: Iterable[tuple]) -> CheckReport:
    """The one loop over check cases.

    ``cases`` yields ``(label, key, check)``: the label its failures carry,
    the key of its RNG ``Random(f"{seed}:{key}")``, and
    ``check(rng, label, fails)``, which samples the case and appends its law
    failures to ``fails``, the report's list.  A case that raises also fails
    the law ``exception``, recorded after the failures it appended before the
    raise, and the run goes on.
    """
    report = CheckReport(name, mode, seed, plan, 0)
    for label, key, check in cases:
        try:
            check(random.Random(f"{seed}:{key}"), label, report.failures)
        except Exception as exc:
            report.failures.append(CheckFailure(
                label, "exception", f"{type(exc).__name__}: {exc}", "None"))
        report.cases_run += 1
    return report


def _seeded(cases: int, check: Callable) -> Iterator[tuple]:
    return ((str(k), k, check) for k in range(cases))


def run_operad_check(op: OperadInstance, *, seed: int, cases: int,
                     max_arity: int) -> CheckReport:
    def check(rng, label, fails):
        elems = random_operad_elements(op, random_operad_plan(rng, max_arity), rng)
        return check_operad_laws(op, elems, label, fails)
    return _run(op.name, "seeded", seed, {"cases": cases, "max_arity": max_arity},
                _seeded(cases, check))


SAMPLES_PER_PLAN = 2    # element samples per plan in an exhaustive run


def run_operad_exhaustive(op: OperadInstance, *, max_arity: int,
                          seed: int = 0) -> CheckReport:
    """Check every composition plan with arities up to ``max_arity``,
    sampling ``SAMPLES_PER_PLAN`` element tuples per plan from the seed."""
    def check_plan(plan):
        return lambda rng, label, fails: check_operad_laws(
            op, random_operad_elements(op, plan, rng), label, fails)
    cases = ((f"plan{idx}:{v}", f"{idx}:{v}", check_plan(plan))
             for idx, plan in enumerate(all_operad_plans(max_arity))
             for v in range(SAMPLES_PER_PLAN))
    return _run(op.name, "exhaustive", seed,
                {"max_arity": max_arity, "samples_per_plan": SAMPLES_PER_PLAN},
                cases)


def run_rel_check(rel: RelTwoOperadInstance, *, seed: int, cases: int,
                  max_r: int, max_total: int) -> CheckReport:
    def check(rng, label, fails):
        elems = random_rel_elements(rel, random_rel_plan(rng, max_r, max_total), rng)
        return check_rel_laws(rel, elems, label, fails)
    return _run(rel.name, "seeded", seed,
                {"cases": cases, "max_r": max_r, "max_total": max_total},
                _seeded(cases, check))


def run_algebra_check(make_algebra: Callable[[random.Random], AlgebraInstance],
                      rel: RelTwoOperadInstance, *, seed: int, cases: int,
                      max_r: int, max_total: int, name: str) -> CheckReport:
    """``make_algebra`` builds the algebra for each case, so runs can vary
    the underlying map along with the elements."""
    def check(rng, label, fails):
        alg = make_algebra(rng)
        plan = random_algebra_plan(rng, max_r, max_total)
        elems = random_algebra_elements(alg, rel, plan, rng)
        return check_algebra_laws(alg, rel, elems, label, fails)
    return _run(name, "seeded", seed,
                {"cases": cases, "max_r": max_r, "max_total": max_total},
                _seeded(cases, check))
