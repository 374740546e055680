"""Plan samplers: arities word for word as ``randint``, shapes exactly from
the rejection sampler's law.

The samplers in :mod:`strips_operad.framework` read arities straight from
``getrandbits``.  The reference operad sampler below is the earlier
implementation on top of ``Random.randint``, kept here only as an oracle: for
a seed, both must give equal plans and leave the generator in the same state.
The guard tests pin the ``random`` behaviour this rests on, so an interpreter
whose ``random`` draws differently fails here rather than silently changing
every report.

Shapes are drawn with no retry from the law of the earlier rejection sampler:
every entry uniform on ``(0, 0, 1, 1, 2)``, the whole list kept only if every
shape total is at least 1 and the totals sum to at most the bound.  The
oracle runs the sampler with a scripted ``_randbelow`` and ``_arities`` that
take every branch, so each outcome gets its exact ``Fraction`` probability,
and compares that with the product measure restricted to the same set,
enumerated.
"""
import functools
import itertools
import random
from collections import defaultdict
from fractions import Fraction
from unittest import mock

import pytest

from strips_operad import framework
from strips_operad.framework import (_SHAPE, Plan, _arity, _runs,
                                     _random_shapes, random_algebra_plan,
                                     random_operad_plan, random_rel_plan)
from strips_operad.shapes import output_shape


# --- reference samplers and laws ------------------------------------------------

def ref_operad_plan(rng, max_arity):
    r = rng.randint(1, max_arity)
    middles = tuple(rng.randint(1, max_arity) for _ in range(r))
    deep = tuple(tuple(rng.randint(1, max_arity) for _ in range(s)) for s in middles)
    return Plan(middles, tuple(a for row in deep for a in row))


@functools.lru_cache(maxsize=None)
def ref_shapes_law(lengths, counts, max_total):
    """The rejection sampler's law of ``_random_shapes``: the product measure
    on entries, restricted to the lists that fit, by enumeration."""
    flat = [length for length, n in zip(lengths, counts) for _ in range(n)]
    law = defaultdict(int)
    for entries in itertools.product(_SHAPE, repeat=sum(flat)):
        shapes = [tuple(sh) for sh in _runs(entries, flat)]
        totals = [sum(sh) for sh in shapes]
        if min(totals, default=1) >= 1 and sum(totals) <= max_total:
            law[tuple(map(tuple, _runs(shapes, counts)))] += 1
    weight = sum(law.values())
    return {shapes: Fraction(n, weight) for shapes, n in law.items()}


def ref_plan_law(max_r, max_total, rel):
    """The law of the rejection sampler's rel (or algebra) plans."""
    arities = range(1, max_r + 1)
    law = defaultdict(Fraction)
    for r in arities:
        for ((m,),), p_m in ref_shapes_law((r,), (1,), min(3, max_total)).items():
            for s in itertools.product(arities, repeat=r):
                for inner, p_inner in ref_shapes_law(s, m, max_total).items():
                    p = p_m * p_inner / max_r ** (r + 1)
                    if not rel:
                        law[Plan(s, m=m, inner=inner)] += p
                        continue
                    counts = output_shape(m, s, inner)
                    for t in itertools.product(arities, repeat=len(counts)):
                        for deep, p_deep in ref_shapes_law(t, counts, max_total).items():
                            law[Plan(s, t, m, inner, deep)] += (
                                p * p_deep / max_r ** len(counts))
    return dict(law)


# --- the sampler's exact law ------------------------------------------------------

def exact_law(sample):
    """``{outcome: probability}`` of ``sample(pick)``, where each call
    ``pick(weights)`` returns i with probability ``weights[i]``.  Every branch
    is run once, from a script of the picks before it."""
    law = defaultdict(Fraction)
    pending = [()]
    while pending:
        script = pending.pop()
        calls = []

        def pick(weights):
            calls.append(weights)
            return script[len(calls) - 1] if len(calls) <= len(script) else 0
        outcome = sample(pick)
        path = script + (0,) * (len(calls) - len(script))
        for k in range(len(script), len(calls)):
            pending.extend(path[:k] + (i,) for i in range(1, len(calls[k])))
        p = Fraction(1)
        for weights, i in zip(calls, path):
            p *= weights[i]
        law[outcome] += p
    return dict(law)


def _scripted_randbelow(pick):
    return mock.patch.multiple(
        framework, _randbelow=lambda bits, n: pick([Fraction(1, n)] * n),
        _arities=lambda bits, n, count: tuple(pick([Fraction(1, n)] * n) + 1
                                              for _ in range(count)))


@functools.lru_cache(maxsize=None)
def shapes_law(lengths, counts, max_total):
    def sample(pick):
        with _scripted_randbelow(pick):
            return _random_shapes(None, lengths, counts, max_total)
    return exact_law(sample)


def plan_law(sampler, max_r, max_total):
    """The exact law of ``sampler``'s plans.  Each ``_random_shapes`` call
    picks its outcome from :func:`shapes_law`, the law of the same call run
    on every branch, so the branches of one call are run once per scope."""
    def sample(pick):
        def shapes(bits, lengths, counts, bound):
            law = list(shapes_law(tuple(lengths), tuple(counts), bound).items())
            return law[pick([p for _, p in law])][0]
        with _scripted_randbelow(pick), \
                mock.patch.object(framework, "_random_shapes", shapes):
            return sampler(random.Random(0), max_r, max_total)
    return exact_law(sample)


# (lengths, counts, max_total): one shape as for the outer shape, a binding
# total, an empty group, repeated lengths, and bounds past every total
SHAPES_SCOPES = [((1,), (1,), 1), ((3,), (1,), 3), ((1, 2, 1), (2, 0, 1), 4),
                 ((2,), (2,), 3), ((3, 1), (1, 1), 3), ((1, 2), (1, 1), 4),
                 ((5,), (1,), 10), ((2, 1), (1, 2), 10 ** 9)]


@pytest.mark.parametrize("lengths,counts,max_total", SHAPES_SCOPES)
def test_shapes_law_is_the_rejection_law(lengths, counts, max_total):
    law = shapes_law(lengths, counts, max_total)
    assert law == ref_shapes_law(lengths, counts, max_total)
    assert sum(law.values()) == 1


@pytest.mark.parametrize("max_r,max_total,plans", [(1, 1, 1), (2, 2, 1681)])
def test_rel_plan_law_is_the_rejection_law(max_r, max_total, plans):
    law = plan_law(random_rel_plan, max_r, max_total)
    assert len(law) == plans
    assert law == ref_plan_law(max_r, max_total, rel=True)


@pytest.mark.parametrize("max_r,max_total", [(1, 1), (2, 2)])
def test_algebra_plan_law_is_the_rejection_law(max_r, max_total):
    law = plan_law(random_algebra_plan, max_r, max_total)
    assert law == ref_plan_law(max_r, max_total, rel=False)


def test_shapes_that_cannot_fit_raise():
    # the rejection sampler spun here for ever
    with pytest.raises(ValueError, match="exceed a total of 1"):
        _random_shapes(random.Random(0).getrandbits, (1,), (2,), 1)


# --- equivalence ---------------------------------------------------------------

def _pairs(seed):
    return random.Random(seed), random.Random(seed)


class ForwardingRandom:
    """Forwards attribute lookups to a ``random.Random`` and counts the calls
    made through it, like the benchmark tracer's counting wrapper."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = 0

    def __getattr__(self, name):
        attr = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return attr(*args, **kwargs)
        return counted


@pytest.mark.parametrize("max_arity", [1, 2, 3, 4, 7])
def test_operad_plans_match_reference(max_arity):
    new, ref = _pairs(f"operad:{max_arity}")
    for k in range(100):
        assert random_operad_plan(new, max_arity) == ref_operad_plan(ref, max_arity), k
        assert new.getstate() == ref.getstate(), k


def test_plans_through_forwarding_wrapper_match_reference():
    new, ref = _pairs("forwarded")
    wrapped = ForwardingRandom(new)
    for k in range(40):
        assert random_rel_plan(wrapped, 3, 5) == random_rel_plan(ref, 3, 5), k
        assert random_algebra_plan(wrapped, 3, 5) == random_algebra_plan(ref, 3, 5), k
        assert random_operad_plan(wrapped, 3) == ref_operad_plan(ref, 3), k
        assert new.getstate() == ref.getstate(), k
    assert wrapped.calls > 0


@pytest.mark.parametrize("sample", [
    lambda rng: random_operad_plan(rng, 0),
    lambda rng: random_rel_plan(rng, 0, 5),
    lambda rng: random_algebra_plan(rng, 0, 5),
], ids=["operad", "rel", "algebra"])
def test_an_arity_bound_below_one_raises_before_any_draw(sample):
    # ``_randbelow(bits, 0)`` once redrew here for ever
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(ValueError, match="between 1 and 0"):
        sample(rng)
    assert rng.getstate() == state


# --- guards on the interpreter's random ---------------------------------------------

def _entry(bits):
    k = bits(3)
    while k >= 5:
        k = bits(3)
    return _SHAPE[k]


def test_choice_of_a_shape_entry_reads_getrandbits_3():
    a, b = _pairs("choice")
    for k in range(2000):
        assert a.choice((0, 0, 1, 1, 2)) == _entry(b.getrandbits), k
    assert a.getstate() == b.getstate()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17])
def test_randint_reads_getrandbits_of_its_bit_length(n):
    a, b = _pairs(f"randint:{n}")
    for k in range(500):
        assert a.randint(1, n) == _arity(b.getrandbits, n), k
    assert a.getstate() == b.getstate()
