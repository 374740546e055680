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

All three check the same two-stage composition ``outer ∘ first ∘ second``.
One :class:`Plan` holds its arities and shapes and one :class:`Elements` its
inputs, with the second stage listed flat, one entry per slot of the
first-stage composite; the laws cut it into runs per first-stage element.

Every law is instantiated on concrete elements and both sides are compared
with ``==``; element types are expected to make that equality decide equality
of the underlying functions (see :mod:`strips_operad.exact`).  Checkers append
failures to the list they are given, so a corrupted instance yields a report
instead of a crash; a case that raises also fails the law ``exception``.
:func:`run_check` runs the cases of any of the three kinds, each described
by a :class:`Kind` record: :data:`OPERAD`, :data:`REL` or :data:`ALGEBRA`.
Deliberately broken instances are in :mod:`strips_operad.mutants`.
"""
from __future__ import annotations

import functools
import itertools
import json
import random
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from .records import _Frozen, _set_slots
from .shapes import output_shape


class FiberProductError(ValueError):
    """Configurations meant to share a base configuration do not."""


class ChainError(ValueError):
    """Two-level inputs for one strip do not chain end-to-start."""


class Block(_Frozen):
    """Composition input for one outer strip: a base element plus the
    two-level elements lying over it (none when the strip is empty)."""

    __slots__ = _fields = ("base", "configs")

    def __init__(self, base: Any, configs: Iterable = ()):
        _set_slots(self, self._fields, (base, tuple(configs)))


def _runs(flat: Sequence, lengths: Iterable[int]) -> list:
    """``flat`` cut into consecutive runs of the given lengths."""
    runs, k = [], 0
    for n in lengths:
        runs.append(flat[k:k + n])
        k += n
    return runs


# ---------------------------------------------------------------------------
# instance bundles
# ---------------------------------------------------------------------------

class OperadInstance(_Frozen):
    __slots__ = _fields = ("unit", "arity", "compose", "random_element")

    def __init__(self, unit: Callable[[], Any],
                 arity: Callable[[Any], int],
                 compose: Callable[[Any, Sequence], Any],
                 random_element: Callable[[int, random.Random], Any]):
        _set_slots(self, self._fields, (unit, arity, compose, random_element))


class RelTwoOperadInstance(_Frozen):
    __slots__ = _fields = ("base", "unit", "shape", "project", "compose",
                           "random_over")

    def __init__(self, base: OperadInstance, unit: Callable[[], Any],
                 shape: Callable[[Any], tuple], project: Callable[[Any], Any],
                 compose: Callable[[Any, Sequence[Block]], Any],
                 random_over: Callable[[tuple, Any, random.Random], Any]):
        _set_slots(self, self._fields, (base, unit, shape, project, compose, random_over))


class AlgebraInstance(_Frozen):
    """Carriers (one level) and elements (two levels) acted on by a
    relative two-operad and its base."""

    __slots__ = _fields = ("source", "target", "act_path", "act_sheet",
                           "random_carrier", "random_element", "violation")

    def __init__(self, source: Callable[[Any], Any], target: Callable[[Any], Any],
                 act_path: Callable[[Any, Sequence], Any],
                 act_sheet: Callable[[Any, Sequence], Any],
                 random_carrier: Callable[[random.Random], Any],
                 random_element: Callable[..., Any],
                 violation: Callable[[Any], Optional[str]]):
        _set_slots(self, self._fields, (source, target, act_path, act_sheet,
                                        random_carrier, random_element, violation))


# ---------------------------------------------------------------------------
# plans and elements: the skeleton and the inputs of one law instantiation
# ---------------------------------------------------------------------------

class Plan(_Frozen):
    """Arities and shapes for a composition ``outer ∘ first ∘ second``.

    ``s[i]`` -- arity of the first-stage element glued into slot i of the
    outer one; ``t[k]`` -- arity of the second-stage element glued into slot
    k of the first-stage composite, listed flat.  Rel and algebra plans also
    have ``m``, the outer shape, and ``inner[i]``, the shapes over strip i.
    A rel plan's ``deep[k]`` holds the shapes over output strip k, in the
    order of the inner elements whose rectangles lie there.  Operad plans
    leave ``m``, ``inner`` and ``deep`` empty, algebra plans ``t`` and
    ``deep``.
    """

    __slots__ = _fields = ("s", "t", "m", "inner", "deep")

    def __init__(self, s: tuple, t: tuple = (), m: tuple = (), inner: tuple = (),
                 deep: tuple = ()):
        _set_slots(self, self._fields, (s, t, m, inner, deep))


class Elements(_Frozen):
    """Elements for a :class:`Plan`.  ``first[i]`` is glued into slot i of
    ``outer``: an operad element, or a :class:`Block`.  ``second[k]`` is glued
    into slot k of the first-stage composite, listed flat: an operad element,
    a :class:`Block`, or, over an output strip of n rectangles, an algebra
    chain of n elements (a tuple) when n > 0 and a carrier when n = 0."""

    __slots__ = _fields = ("outer", "first", "second")

    def __init__(self, outer: Any, first: tuple, second: tuple):
        _set_slots(self, self._fields, (outer, first, second))


def random_operad_plan(rng: random.Random, max_arity: int) -> Plan:
    _check_arity_bound(max_arity)
    bits = rng.getrandbits
    s = _arities(bits, max_arity, _arity(bits, max_arity))
    return Plan(s, _arities(bits, max_arity, sum(s)))


def all_operad_plans(max_arity: int) -> Iterator[Plan]:
    """Every operad Plan with all arities between 1 and max_arity, in a fixed
    deterministic order."""
    arities = range(1, max_arity + 1)
    for r in arities:
        for s in itertools.product(arities, repeat=r):
            for t in itertools.product(arities, repeat=sum(s)):
                yield Plan(s, t)


def operad_plan_count(max_arity: int) -> int:
    """How many plans :func:`all_operad_plans` yields.  A middle arity s
    leaves ``max_arity ** s`` choices of deep arities, so r middle arities
    leave ``(sum over s of max_arity ** s) ** r`` plans."""
    per_middle = sum(max_arity ** s for s in range(1, max_arity + 1))
    return sum(per_middle ** r for r in range(1, max_arity + 1))


# The plan samplers read the Mersenne Twister through ``getrandbits``.  An
# arity is drawn word for word as CPython's ``Random.randint`` draws it.  The
# shapes of one call are drawn from the law of entries chosen uniformly from
# ``_SHAPE`` and conditioned on the totals fitting, exactly and with no retry,
# by the recursive method (Nijenhuis and Wilf, *Combinatorial Algorithms*).
# ``tests/test_plan_sampler.py`` checks both, the second law exactly.

_SHAPE = (0, 0, 1, 1, 2)    # a shape entry is a uniform choice from these
_WEIGHTS = tuple((e, _SHAPE.count(e)) for e in range(3))   # (entry, weight)


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


def _arities(bits: Callable[[int], int], n: int, count: int) -> tuple:
    """``count`` draws of ``randint(1, n)``, word for word, in one loop."""
    k = n.bit_length()
    out = []
    for _ in range(count):
        v = bits(k)
        while v >= n:
            v = bits(k)
        out.append(v + 1)
    return tuple(out)


def _check_arity_bound(n: int) -> None:
    """Refuse an arity bound below 1 before anything is drawn, as
    ``randint(1, n)`` does: ``_randbelow(bits, 0)`` would redraw for ever."""
    if n < 1:
        raise ValueError(f"no arity lies between 1 and {n}")


@functools.lru_cache(maxsize=256)     # 900 plans at the CLI defaults use 161
def _shape_counts(flat: tuple, budget: int) -> tuple:
    """``(c, fits)``: ``c[L][n]`` weighs the shapes of length L and total n,
    the coefficient of x**n in (2 + 2x + x**2)**L, for n <= budget, and
    ``fits[j][b]`` the shapes of lengths ``flat[j:]`` whose totals are at
    least 1 and sum to at most b."""
    c = [(1,)]
    for _ in range(max(flat, default=0)):
        row = c[-1]
        c.append(tuple(sum(w * row[n - e] for e, w in _WEIGHTS
                           if 0 <= n - e < len(row))
                       for n in range(min(len(row) + 2, budget + 1))))
    fits = [(1,) * (budget + 1)]
    for length in reversed(flat):
        row, rest = c[length], fits[-1]
        fits.append(tuple(sum(row[n] * rest[b - n]
                              for n in range(1, min(b + 1, len(row))))
                          for b in range(budget + 1)))
    return tuple(c), tuple(reversed(fits))


def _random_shapes(bits: Callable[[int], int], lengths: Sequence[int],
                   counts: Sequence[int], max_total: int) -> tuple:
    """Group k of ``counts[k]`` shapes of length ``lengths[k]``, for every k,
    the totals at least 1 and summing to at most ``max_total``.  One
    ``_randbelow`` per shape picks its total n, with weight
    ``c[L][n] * fits[j + 1][budget - n]``, and the rest of the value its
    entries e, each with weight ``_SHAPE.count(e) * c[left][n - e]``."""
    flat = tuple(length for length, n in zip(lengths, counts) for _ in range(n))
    budget = min(max_total, 2 * sum(flat))     # no shape total exceeds 2 * L
    c, fits = _shape_counts(flat, budget)
    if not fits[0][budget]:
        raise ValueError(f"{len(flat)} shapes, each of total at least 1, "
                         f"exceed a total of {max_total}")
    shapes = []
    for length, fit, rest in zip(flat, fits, fits[1:]):
        v, n = _randbelow(bits, fit[budget]), 1
        while v >= c[length][n] * rest[budget - n]:
            v -= c[length][n] * rest[budget - n]
            n += 1
        v //= rest[budget - n]      # now uniform below c[length][n]
        budget -= n
        shape = []
        for left in reversed(range(length)):
            for e, w in _WEIGHTS:
                block = w * c[left][n - e] if 0 <= n - e < len(c[left]) else 0
                if v < block:
                    break
                v -= block
            v //= w
            n -= e
            shape.append(e)
        shapes.append(tuple(shape))
    return tuple(map(tuple, _runs(shapes, counts)))


def _first_stage_plan(bits: Callable[[int], int], max_r: int,
                      max_total: int) -> tuple:
    """``(m, s, inner)``, the first-stage draws that rel and algebra plans
    share, in their order."""
    _check_arity_bound(max_r)
    r = _arity(bits, max_r)
    m = _random_shapes(bits, (r,), (1,), min(3, max_total))[0][0]
    s = _arities(bits, max_r, r)
    return m, s, _random_shapes(bits, s, m, max_total)


def random_rel_plan(rng: random.Random, max_r: int, max_total: int) -> Plan:
    bits = rng.getrandbits
    m, s, inner = _first_stage_plan(bits, max_r, max_total)
    # output strip k of the first stage holds counts[k] rectangles
    counts = output_shape(m, s, inner)
    t = _arities(bits, max_r, len(counts))
    return Plan(s, t, m, inner, _random_shapes(bits, t, counts, max_total))


def random_algebra_plan(rng: random.Random, max_r: int, max_total: int) -> Plan:
    m, s, inner = _first_stage_plan(rng.getrandbits, max_r, max_total)
    return Plan(s, m=m, inner=inner)


def random_operad_elements(op: OperadInstance, plan: Plan,
                           rng: random.Random) -> Elements:
    outer = op.random_element(len(plan.s), rng)
    return Elements(outer, tuple(op.random_element(a, rng) for a in plan.s),
                    tuple(op.random_element(a, rng) for a in plan.t))


def _first_stage_elements(rel: RelTwoOperadInstance, plan: Plan,
                          rng: random.Random) -> tuple:
    """``(outer, first)`` for a rel or algebra plan, one :class:`Block` per
    strip of ``outer``: the draws both samplers share."""
    proj = rel.base.random_element(len(plan.m), rng)
    outer = rel.random_over(plan.m, proj, rng)
    bases = tuple(rel.base.random_element(s_i, rng) for s_i in plan.s)
    return outer, tuple(Block(base, [rel.random_over(sh, base, rng) for sh in shapes])
                        for base, shapes in zip(bases, plan.inner))


def random_rel_elements(rel: RelTwoOperadInstance, plan: Plan,
                        rng: random.Random) -> Elements:
    outer, first = _first_stage_elements(rel, plan, rng)
    bases = tuple(rel.base.random_element(t_k, rng) for t_k in plan.t)
    return Elements(outer, first, tuple(
        Block(base, [rel.random_over(sh, base, rng) for sh in shapes])
        for base, shapes in zip(bases, plan.deep)))


def random_algebra_elements(alg: AlgebraInstance, rel: RelTwoOperadInstance,
                            plan: Plan, rng: random.Random) -> Elements:
    outer, first = _first_stage_elements(rel, plan, rng)
    chains = []
    for n in output_shape(plan.m, plan.s, plan.inner):
        if n == 0:
            chains.append(alg.random_carrier(rng))
        else:
            chain = [alg.random_element(rng)]
            for _ in range(n - 1):
                chain.append(alg.random_element(rng, source=alg.target(chain[-1])))
            chains.append(tuple(chain))
    return Elements(outer, first, tuple(chains))


# ---------------------------------------------------------------------------
# failure records and reports
# ---------------------------------------------------------------------------

class CheckFailure(_Frozen):
    __slots__ = _fields = ("case", "law", "lhs", "rhs")

    def __init__(self, case: str, law: str, lhs: str, rhs: str):
        _set_slots(self, self._fields, (case, law, lhs, rhs))


class CheckReport:
    """The result of one check run; :func:`run_check` appends to
    ``failures`` and counts ``cases_run`` as it goes."""

    __slots__ = ("instance", "mode", "seed", "plan", "cases_run", "failures")

    def __init__(self, instance: str, mode: str, seed: Optional[int], plan: dict):
        self.instance = instance
        self.mode = mode
        self.seed = seed
        self.plan = plan
        self.cases_run = 0
        self.failures = []

    @property
    def ok(self) -> bool:
        """No law failed, and at least one case was checked."""
        return self.cases_run > 0 and not self.failures

    def to_json(self) -> dict:
        return {"instance": self.instance, "mode": self.mode, "seed": self.seed,
                "plan": dict(self.plan), "cases_run": self.cases_run,
                "failures": [{"case": f.case, "law": f.law, "lhs": f.lhs,
                              "rhs": f.rhs} for f in self.failures],
                "ok": self.ok}

    def json_pieces(self) -> Iterator[str]:
        """The report's JSON text (sorted keys, two-space indent, newline),
        as the pieces the encoder forms it in."""
        return itertools.chain(
            json.JSONEncoder(sort_keys=True, indent=2).iterencode(self.to_json()),
            ("\n",))


# ---------------------------------------------------------------------------
# law checkers
# ---------------------------------------------------------------------------

def _expect(fails: list, case: str, law: str, lhs, rhs) -> bool:
    """Whether the sides of ``law`` are equal; if not, record its failure."""
    if lhs != rhs:
        fails.append(CheckFailure(case, law, repr(lhs), repr(rhs)))
        return False
    return True


def check_operad_laws(op: OperadInstance, elems: Elements, case: str,
                      fails: list) -> list:
    """Append to ``fails`` the failures of associativity and units on the
    given elements, and return it."""
    outer, first = elems.outer, elems.first
    r = op.arity(outer)
    lhs = op.compose(op.compose(outer, first), elems.second)
    rhs = op.compose(outer, tuple(
        op.compose(middle, run)
        for middle, run in zip(first, _runs(elems.second, map(op.arity, first)))))
    _expect(fails, case, "associativity", lhs, rhs)

    unit = op.unit()
    _expect(fails, case, "right unit", op.compose(outer, (unit,) * r), outer)
    _expect(fails, case, "left unit", op.compose(unit, (outer,)), outer)
    return fails


def check_rel_laws(rel: RelTwoOperadInstance, elems: Elements, case: str,
                   fails: list) -> list:
    """Append to ``fails`` the failures of the projection square, shape
    arithmetic, associativity and units, and return it.  A shape arithmetic
    failure ends the check: the second stage fits only the expected shape."""
    base_op = rel.base
    outer, first = elems.outer, elems.first
    m = rel.shape(outer)
    stage1 = rel.compose(outer, first)
    arities = tuple(base_op.arity(b.base) for b in first)
    inner = tuple(tuple(rel.shape(q) for q in b.configs) for b in first)

    _expect(fails, case, "projection square",
            rel.project(stage1),
            base_op.compose(rel.project(outer), tuple(b.base for b in first)))
    if not _expect(fails, case, "shape arithmetic", rel.shape(stage1),
                   output_shape(m, arities, inner)):
        return fails

    lhs = rel.compose(stage1, elems.second)
    # strip j of inner element a is glued to its share of second-stage block j
    rhs_blocks = []
    for block, shapes, run in zip(first, inner, _runs(elems.second, arities)):
        parts = [_runs(b.configs, [sh[j] for sh in shapes])
                 for j, b in enumerate(run)]
        configs = tuple(
            rel.compose(q, tuple(Block(b.base, parts[j][a]) for j, b in enumerate(run)))
            for a, q in enumerate(block.configs))
        rhs_blocks.append(Block(base_op.compose(block.base, tuple(b.base for b in run)),
                                configs))
    _expect(fails, case, "associativity", lhs, rel.compose(outer, tuple(rhs_blocks)))

    unit2 = rel.unit()
    unit1 = base_op.unit()
    _expect(fails, case, "right unit",
            rel.compose(outer, tuple(Block(unit1, (unit2,) * m_i) for m_i in m)),
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
    if not any(counts):
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
                       elems: Elements, case: str, fails: list) -> list:
    """Append to ``fails`` the failures of interchange of acting and
    composing, boundary compatibility, units, and closure, and return it."""
    base_op = rel.base
    outer, first, chains = elems.outer, elems.first, elems.second
    m = rel.shape(outer)
    composite = rel.compose(outer, first)

    # one-step action with the composed configuration
    lhs = alg.act_sheet(composite, chains)

    # two-step action: inner elements first, then the outer one
    outer_inputs = []
    for m_i, block, strip_chains in zip(
            m, first, _runs(chains, [base_op.arity(b.base) for b in first])):
        if m_i == 0:
            outer_inputs.append(alg.act_path(block.base, strip_chains))
        else:
            # parts[j][a]: strip j's share of inner element a
            parts = [_split_chain(alg, chain, [rel.shape(q)[j] for q in block.configs])
                     for j, chain in enumerate(strip_chains)]
            outer_inputs.append(tuple(
                alg.act_sheet(inner, tuple(part[a] for part in parts))
                for a, inner in enumerate(block.configs)))
    rhs = alg.act_sheet(outer, tuple(outer_inputs))
    _expect(fails, case, "interchange", lhs, rhs)

    # boundary compatibility of the one-step action; over an empty strip of
    # the composite the input is a carrier, over any other strip a chain
    shape = rel.shape(composite)
    firsts = tuple(alg.source(c[0]) if n else c for n, c in zip(shape, chains))
    lasts = tuple(alg.target(c[-1]) if n else c for n, c in zip(shape, chains))
    _expect(fails, case, "source boundary", alg.source(lhs),
            alg.act_path(rel.project(composite), firsts))
    _expect(fails, case, "target boundary", alg.target(lhs),
            alg.act_path(rel.project(composite), lasts))

    # units
    some = next((c[0] for n, c in zip(shape, chains) if n), None)
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
# the check engine: three kinds of instance, one runner
# ---------------------------------------------------------------------------

class Kind(_Frozen):
    """One kind of instance.  ``bounds`` names its keyword bounds;
    ``case(instance, rng, plan, label, fails, **bounds)`` draws one case (its
    plan too when ``plan`` is None, then its elements) and checks its laws;
    ``all_plans(**bounds)`` yields the plans of an exhaustive run, and is
    None for a kind with none."""

    __slots__ = _fields = ("bounds", "case", "all_plans")

    def __init__(self, bounds: tuple, case: Callable,
                 all_plans: Optional[Callable[..., Iterator[Plan]]] = None):
        _set_slots(self, self._fields, (bounds, case, all_plans))


# The cases call the samplers and checkers by their module-global names when
# they run, so a wrapper bound to one of those names sees every case.

def _operad_case(op: OperadInstance, rng, plan, label, fails, max_arity):
    if plan is None:
        plan = random_operad_plan(rng, max_arity)
    return check_operad_laws(op, random_operad_elements(op, plan, rng), label, fails)


def _rel_case(rel: RelTwoOperadInstance, rng, plan, label, fails, max_r, max_total):
    if plan is None:
        plan = random_rel_plan(rng, max_r, max_total)
    return check_rel_laws(rel, random_rel_elements(rel, plan, rng), label, fails)


def _algebra_case(instance: tuple, rng, plan, label, fails, max_r, max_total):
    """``instance`` is ``(make_algebra, rel)``; ``make_algebra(rng)`` builds
    the algebra first, so runs vary the underlying map with the elements."""
    make_algebra, rel = instance
    alg = make_algebra(rng)
    if plan is None:
        plan = random_algebra_plan(rng, max_r, max_total)
    elems = random_algebra_elements(alg, rel, plan, rng)
    return check_algebra_laws(alg, rel, elems, label, fails)


OPERAD = Kind(("max_arity",), _operad_case, all_operad_plans)
REL = Kind(("max_r", "max_total"), _rel_case)
ALGEBRA = Kind(("max_r", "max_total"), _algebra_case)

SAMPLES_PER_PLAN = 2    # element samples per plan in an exhaustive run


def run_check(kind: Kind, instance: Any, name: str, *, seed: int,
              cases: Optional[int], **bounds) -> CheckReport:
    """Check ``instance``, of ``kind``, in ``cases`` seeded cases, or with
    ``cases=None`` in every plan of ``kind.all_plans(**bounds)``, sampling
    ``SAMPLES_PER_PLAN`` element tuples per plan from the seed.

    The one loop over check cases.  Each case draws from its own RNG,
    ``Random(f"{seed}:{key}")``, and appends its failures, labelled, to the
    report's list.  A case that raises also fails the law ``exception``,
    recorded after the failures it appended before the raise; the run goes on.
    """
    if cases is None:
        report = CheckReport(name, "exhaustive", seed,
                             {**bounds, "samples_per_plan": SAMPLES_PER_PLAN})
        stream = ((f"plan{idx}:{v}", f"{idx}:{v}", plan)
                  for idx, plan in enumerate(kind.all_plans(**bounds))
                  for v in range(SAMPLES_PER_PLAN))
    else:
        report = CheckReport(name, "seeded", seed, {"cases": cases, **bounds})
        stream = ((str(k), k, None) for k in range(cases))
    for label, key, plan in stream:
        try:
            kind.case(instance, random.Random(f"{seed}:{key}"), plan, label,
                      report.failures, **bounds)
        except Exception as exc:
            report.failures.append(CheckFailure(
                label, "exception", f"{type(exc).__name__}: {exc}", "None"))
        report.cases_run += 1
    return report
