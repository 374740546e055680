"""Plan samplers: the same plans and the same RNG stream as ``choice`` and
``randint``.

The samplers in :mod:`strips_operad.framework` read shape entries and arities
straight from ``getrandbits``.  The reference samplers below are the earlier
implementation on top of ``Random.choice`` and ``Random.randint``, kept here
only as an oracle: for a seed, both must give equal plans and leave the
generator in the same state.  The guard tests pin the ``random`` behaviour
this rests on, so an interpreter whose ``random`` draws differently fails
here rather than silently changing every report.
"""
import random

import pytest

from strips_operad.framework import (_SHAPE, Plan, _arity, random_algebra_plan,
                                     random_operad_plan, random_rel_plan)
from strips_operad.shapes import output_shape


# --- reference samplers (choice / randint) ----------------------------------------

def ref_operad_plan(rng, max_arity):
    r = rng.randint(1, max_arity)
    middles = tuple(rng.randint(1, max_arity) for _ in range(r))
    deep = tuple(tuple(rng.randint(1, max_arity) for _ in range(s)) for s in middles)
    return Plan(middles, tuple(a for row in deep for a in row))


def ref_random_shape(rng, length, max_total):
    while True:
        sh = tuple(rng.choice((0, 0, 1, 1, 2)) for _ in range(length))
        if any(sh) and sum(sh) <= max_total:
            return sh


def ref_rel_plan(rng, max_r, max_total):
    r = rng.randint(1, max_r)
    m = ref_random_shape(rng, r, min(3, max_total))
    s = tuple(rng.randint(1, max_r) for _ in range(r))
    while True:
        inner = tuple(tuple(ref_random_shape(rng, s[i], max_total) for _ in range(m[i]))
                      for i in range(r))
        mid_shape = output_shape(m, s, inner)
        if sum(mid_shape) <= max_total:
            break
    t = tuple(tuple(rng.randint(1, max_r) for _ in range(s[i])) for i in range(r))
    while True:
        deep = tuple(
            tuple(
                tuple(
                    tuple(ref_random_shape(rng, t[i][j], max_total)
                          for _ in range(inner[i][a][j]))
                    for a in range(m[i]))
                for j in range(s[i]))
            for i in range(r))
        final = sum(sum(sh)
                    for i in range(r) for j in range(len(deep[i]))
                    for row in deep[i][j] for sh in row)
        if final <= max_total:
            return Plan(s, tuple(a for row in t for a in row), m, inner,
                        tuple(tuple(sh for per_cfg in per_col for sh in per_cfg)
                              for per_strip in deep for per_col in per_strip))


def ref_algebra_plan(rng, max_r, max_total):
    r = rng.randint(1, max_r)
    m = ref_random_shape(rng, r, min(3, max_total))
    s = tuple(rng.randint(1, max_r) for _ in range(r))
    while True:
        inner = tuple(tuple(ref_random_shape(rng, s[i], max_total) for _ in range(m[i]))
                      for i in range(r))
        if sum(output_shape(m, s, inner)) <= max_total:
            return Plan(s, m=m, inner=inner)


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


# --- equivalence ---------------------------------------------------------------

# (max_r, max_n) -> plans drawn of each kind.  (4, 6) has a heavy rejection
# tail under the reference sampler, so it draws fewer.
GRID = {(3, 5): 60, (2, 4): 60, (4, 6): 8, (3, 8): 40, (1, 1): 40,
        (3, 1): 40, (4, 3): 40}


def _pairs(seed):
    return random.Random(seed), random.Random(seed)


@pytest.mark.parametrize("max_r,max_n", sorted(GRID))
def test_rel_and_algebra_plans_match_reference(max_r, max_n):
    new, ref = _pairs(f"plans:{max_r}:{max_n}")
    for k in range(GRID[max_r, max_n]):
        assert random_rel_plan(new, max_r, max_n) == ref_rel_plan(ref, max_r, max_n), k
        assert new.getstate() == ref.getstate(), k
        assert (random_algebra_plan(new, max_r, max_n)
                == ref_algebra_plan(ref, max_r, max_n)), k
        assert new.getstate() == ref.getstate(), k


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
        assert random_rel_plan(wrapped, 3, 5) == ref_rel_plan(ref, 3, 5), k
        assert random_algebra_plan(wrapped, 3, 5) == ref_algebra_plan(ref, 3, 5), k
        assert random_operad_plan(wrapped, 3) == ref_operad_plan(ref, 3), k
        assert new.getstate() == ref.getstate(), k
    assert wrapped.calls > 0


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
