"""The package's record types, all built on ``exact._Frozen``: each prints,
compares, hashes, refuses writes, pickles, copies and replaces fields as the
frozen dataclass it once was."""
import copy
import pickle
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction as F

import pytest

from strips_operad import mutants
from strips_operad.cli import Target
from strips_operad.exact import IDENTITY_1, AffineMap1, _Frozen
from strips_operad.framework import (OPERAD, AlgebraInstance, Block,
                                     CheckFailure, CheckReport, Elements,
                                     OperadInstance, Plan, RelTwoOperadInstance)
from strips_operad.intervals import (IntervalConfig, interval_compose,
                                     interval_unit, intervals_operad,
                                     random_intervals)
from strips_operad.sheets import (Loop, PointedMap, SheetElement,
                                  act_on_loops, act_on_sheets, random_loop,
                                  random_sheet_element, sheet_violation)
from strips_operad.strips import (StripConfig, random_strip, random_strip_over,
                                  strip_compose, strip_project, strip_unit)

from helpers import dataclass_repr


def _samples() -> list:
    """``(record, fields, change)`` per record type: ``fields`` are the
    fields its dataclass printed and compared, in order, and ``change`` a
    ``_replace`` that builds a different record."""
    rng = random.Random("records")
    intervals = IntervalConfig((AffineMap1(F(1, 4), 0), AffineMap1(F(1, 4), F(1, 2))))
    strip = random_strip((1, 1), 3)
    f = PointedMap(((1, 2),), (0, "1/2"), (3,))
    loop, other_loop = (random_loop(rng, 2, f.dom_base) for _ in range(2))
    elem = random_sheet_element(f, rng)
    op = OperadInstance(interval_unit, len, interval_compose, random_intervals)
    return [
        (Target(OPERAD, intervals_operad, mutants.intervals_operad, exhaustive=True),
         ("kind", "make", "mutant", "exhaustive", "reach"), {"exhaustive": False}),
        (OPERAD, ("bounds", "case", "all_plans"), {"all_plans": None}),
        (Block(strip.base, [strip]), ("base", "configs"), {"configs": []}),
        (op, ("unit", "arity", "compose", "random_element"), {"arity": abs}),
        (RelTwoOperadInstance(op, strip_unit, len, strip_project,
                              strip_compose, random_strip_over),
         ("base", "unit", "shape", "project", "compose", "random_over"),
         {"compose": interval_compose}),
        (AlgebraInstance(len, abs, act_on_loops, act_on_sheets, random_loop,
                         random_sheet_element, sheet_violation),
         ("source", "target", "act_path", "act_sheet", "random_carrier",
          "random_element", "violation"), {"violation": abs}),
        (Plan((2, 1), (1, 2, 1), (1, 0), (((1, 0),), ()), ()),
         ("s", "t", "m", "inner", "deep"), {"deep": ((), (1,))}),
        (Elements(strip, (Block(strip.base, (strip,)),), (loop,)),
         ("outer", "first", "second"), {"second": ()}),
        (CheckFailure("3", "associativity", "lhs", "rhs"),
         ("case", "law", "lhs", "rhs"), {"law": "left unit"}),
        (intervals, ("embeddings",), {"embeddings": [IDENTITY_1]}),
        (strip, ("shape", "base", "rects"), {"rects": strip.rects[::-1]}),
        (f, ("matrix", "dom_base", "cod_base"), {"cod_base": (5,)}),
        (loop, ("path",), {"path": other_loop.path}),
        (elem, ("sheet", "bottom", "top"), {"bottom": elem.top, "top": elem.bottom}),
    ]


SAMPLES = _samples()


@pytest.fixture(params=SAMPLES, ids=[type(r).__name__ for r, _, _ in SAMPLES])
def sample(request):
    return request.param


def _slots(record) -> list:
    return [getattr(record, name) for name in type(record).__slots__]


def test_every_record_type_is_sampled():
    assert len({type(r) for r, _, _ in SAMPLES}) == len(SAMPLES) == 14
    assert all(isinstance(r, _Frozen) for r, _, _ in SAMPLES)


def test_repr_is_the_dataclass_repr(sample):
    # reports embed the repr of law sides, byte for byte
    record, fields, _ = sample
    assert repr(record) == dataclass_repr(
        type(record).__name__, **{name: getattr(record, name) for name in fields})


def test_equality_and_hashing_read_only_the_compared_fields(sample):
    record, fields, _ = sample
    same = copy.copy(record)
    assert same is not record and same == record and hash(same) == hash(record)
    for name in type(record).__slots__:
        twin = copy.copy(record)
        object.__setattr__(twin, name, object())
        if name in fields:
            assert twin != record and record != twin
        else:       # a value derived from the compared ones
            assert twin == record and hash(twin) == hash(record)
    assert record != tuple(getattr(record, name) for name in fields)


def test_fields_cannot_be_set_or_deleted(sample):
    record, _, _ = sample
    before = _slots(record)
    for name in (*type(record).__slots__, "other"):
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(record, name)
    assert _slots(record) == before


@pytest.mark.parametrize("round_trip", [
    lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy, copy.copy],
    ids=["pickle", "deepcopy", "copy"])
def test_pickle_and_copies_give_back_an_equal_record(sample, round_trip):
    record, _, _ = sample
    again = round_trip(record)
    assert type(again) is type(record) and again is not record
    assert _slots(again) == _slots(record)
    assert again == record and hash(again) == hash(record)
    assert repr(again) == repr(record)


def test_replace_builds_a_new_record_through_the_constructor(sample):
    record, fields, change = sample
    before = _slots(record)
    new = record._replace(**change)
    built = type(record)(**{**{name: getattr(record, name) for name in fields},
                            **change})
    assert type(new) is type(record)
    assert new == built and _slots(new) == _slots(built)
    assert new != record and _slots(record) == before
    assert record._replace() == record and record._replace() is not record
    with pytest.raises(TypeError):
        record._replace(no_such_field=1)


def test_replace_checks_as_the_constructor_does():
    strip = random_strip((1, 1), 3)
    with pytest.raises(ValueError, match="one rectangle list per strip"):
        strip._replace(rects=strip.rects[:1])
    with pytest.raises(ValueError, match="at least one interval"):
        strip.base._replace(embeddings=())
    assert Block(strip.base)._replace(configs=[strip]).configs == (strip,)


@pytest.mark.parametrize("cls", [IntervalConfig, StripConfig, SheetElement, Loop])
def test_law_side_types_define_equality_in_their_class_body(cls):
    # the benchmark tracer wraps the __eq__ it finds in the class's own dict
    assert vars(cls)["__eq__"] is _Frozen.__eq__
    assert vars(cls)["__hash__"] is _Frozen.__hash__


def test_check_report_is_mutable_and_serializes_its_fields():
    failure = CheckFailure("0", "unit", "a", "b")
    report = CheckReport("trees", "seeded", 4, {"cases": 2, "max_arity": 3}, 0)
    assert report.failures == [] and not report.ok
    assert CheckReport("trees", "seeded", 4, {}, 0).failures is not report.failures
    report.cases_run += 2
    assert report.ok
    report.failures.append(failure)
    doc = report.to_json()
    assert doc == {"instance": "trees", "mode": "seeded", "seed": 4,
                   "plan": {"cases": 2, "max_arity": 3}, "cases_run": 2,
                   "failures": [{"case": "0", "law": "unit", "lhs": "a",
                                 "rhs": "b"}],
                   "ok": False}
    doc["plan"]["cases"] = 7
    assert report.plan == {"cases": 2, "max_arity": 3}
    assert report.json_bytes().startswith(b'{\n  "cases_run": 2,\n')
    with pytest.raises(AttributeError):
        report.other = 1
