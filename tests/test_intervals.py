"""The operad of disjoint increasing affine embeddings of [0, 1]."""
import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from strips_operad import mutants
from strips_operad.exact import AffineMap1
from strips_operad.framework import OPERAD, run_check
from strips_operad.intervals import (IntervalConfig, grid_embeddings,
                                     interval_compose, interval_unit,
                                     interval_violation, intervals_operad,
                                     random_intervals)


def emb(a, c):
    return AffineMap1(F(a[0], a[1]) if isinstance(a, tuple) else F(a),
                      F(c[0], c[1]) if isinstance(c, tuple) else F(c))


def test_unit_is_identity_embedding():
    u = interval_unit()
    assert u.arity == 1
    assert u.embeddings[0](F(1, 3)) == F(1, 3)


def test_compose_hand_example():
    outer = IntervalConfig((emb((1, 2), (1, 4)),))
    inner = IntervalConfig((emb((1, 3), 0), emb((1, 3), (2, 3))))
    out = interval_compose(outer, (inner,))
    assert out.arity == 2
    assert out.images() == ((F(1, 4), F(5, 12)), (F(7, 12), F(3, 4)))


def test_compose_concatenates_in_order():
    outer = IntervalConfig((emb((1, 4), 0), emb((1, 4), (3, 4))))
    i1 = IntervalConfig((emb((1, 2), 0),))
    i2 = IntervalConfig((emb((1, 2), (1, 2)),))
    out = interval_compose(outer, (i1, i2))
    assert out.arity == 2
    assert out.images() == ((F(0), F(1, 8)), (F(7, 8), F(1)))


def test_unit_laws():
    rng = random.Random("unit")
    cfg = random_intervals(3, rng)
    assert interval_compose(interval_unit(), (cfg,)) == cfg
    assert interval_compose(cfg, (interval_unit(),) * 3) == cfg


def test_violation_reports_order_and_range():
    ok = IntervalConfig((emb((1, 4), 0), emb((1, 4), (1, 2))))
    assert interval_violation(ok) is None

    overlapping = IntervalConfig((emb((1, 2), 0), emb((1, 2), (1, 4))))
    assert interval_violation(overlapping) is not None

    identical = IntervalConfig((emb((1, 4), (1, 4)), emb((1, 4), (1, 4))))
    assert interval_violation(identical) is not None

    swapped = IntervalConfig((emb((1, 4), (1, 2)), emb((1, 4), 0)))
    msg = interval_violation(swapped)
    assert msg is not None and "interval 1" in msg

    outside = IntervalConfig((emb(2, 0),))
    msg = interval_violation(outside)
    assert msg is not None


def test_touching_endpoints_are_a_violation():
    touching = IntervalConfig((emb((1, 2), 0), emb((1, 2), (1, 2))))
    assert interval_violation(touching) is not None


def test_compose_requires_matching_count():
    outer = IntervalConfig((emb((1, 2), 0),))
    with pytest.raises(ValueError):
        interval_compose(outer, ())


def test_compose_preserves_validity():
    rng = random.Random("closure")
    for _ in range(50):
        r = rng.randint(1, 4)
        outer = random_intervals(r, rng)
        inners = tuple(random_intervals(rng.randint(1, 3), rng) for _ in range(r))
        out = interval_compose(outer, inners)
        assert interval_violation(out) is None
        assert out.arity == sum(c.arity for c in inners)


def test_scale_multiplies_under_composition():
    rng = random.Random("scale")
    for _ in range(25):
        outer = random_intervals(1, rng)
        inner = random_intervals(1, rng)
        out = interval_compose(outer, (inner,))
        assert out.embeddings[0].a == outer.embeddings[0].a * inner.embeddings[0].a


def test_random_intervals_is_seed_deterministic():
    a = random_intervals(3, random.Random(99))
    b = random_intervals(3, random.Random(99))
    assert a == b
    assert interval_violation(a) is None


def test_random_intervals_denominator_bound():
    cfg = IntervalConfig(grid_embeddings(4, random.Random(1), 64))
    for e in cfg.embeddings:
        lo, hi = e.image()
        assert lo.denominator <= 64 and hi.denominator <= 64


def test_associativity_and_units_seeded():
    report = run_check(OPERAD, intervals_operad(), "intervals", seed=2024,
                       cases=200, max_arity=4)
    assert report.ok
    assert report.cases_run == 200


def test_mutated_instance_fails_every_case():
    report = run_check(OPERAD, mutants.intervals_operad(), "intervals",
                       seed=2024, cases=40, max_arity=4)
    assert not report.ok
    failed_cases = {f.case for f in report.failures}
    assert len(failed_cases) == 40
    assert all(f.law != "exception" for f in report.failures)


# --- the integer triples against plain Fractions ----------------------------------

def fraction_interval_violation(config):
    """The validator as it stood on Fraction images; the oracle for the one
    that decides on integer triples."""
    images = config.images()
    for k, (lo, hi) in enumerate(images):
        if lo < 0 or hi > 1:
            return f"interval {k + 1} image [{lo}, {hi}] leaves [0, 1]"
    for k in range(len(images) - 1):
        if not images[k][1] < images[k + 1][0]:
            return (f"interval {k + 1} (ends {images[k][1]}) does not sit strictly "
                    f"left of interval {k + 2} (starts {images[k + 1][0]})")
    return None


loose_maps = st.builds(
    AffineMap1,
    st.fractions(min_value=F(1, 48), max_value=F(5, 4), max_denominator=48),
    st.fractions(min_value=F(-1, 4), max_value=F(5, 4), max_denominator=48))


@given(st.lists(loose_maps, min_size=1, max_size=5))
def test_violation_matches_the_fraction_oracle(embeddings):
    config = IntervalConfig(embeddings)
    assert interval_violation(config) == fraction_interval_violation(config)


@given(st.integers(1, 6), st.integers(12, 5000), st.integers(0, 2 ** 32))
def test_grid_embeddings_match_fraction_endpoints(n, denom, seed):
    cuts = sorted(random.Random(seed).sample(range(denom + 1), 2 * n))
    got = grid_embeddings(n, random.Random(seed), denom)
    assert [e.image() for e in got] == [
        (F(cuts[2 * k], denom), F(cuts[2 * k + 1], denom)) for k in range(n)]
    assert got == tuple(AffineMap1(hi - lo, lo) for lo, hi in
                        (e.image() for e in got))


@given(st.integers(0, 2 ** 32))
def test_composites_equal_the_public_constructor(seed):
    # interval_compose builds its result without the constructor's checks
    rng = random.Random(seed)
    r = rng.randint(1, 4)
    outer = random_intervals(r, rng)
    inners = tuple(random_intervals(rng.randint(1, 3), rng) for _ in range(r))
    out = interval_compose(outer, inners)
    built = IntervalConfig(list(out.embeddings))
    assert out == built and hash(out) == hash(built)
    assert type(out.embeddings) is tuple
    assert all(type(e) is AffineMap1 for e in out.embeddings)
    assert out.embeddings == tuple(o.compose(e) for o, c in
                                   zip(outer.embeddings, inners)
                                   for e in c.embeddings)
