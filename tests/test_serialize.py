"""JSON codecs round-trip every value type exactly."""
import json
import random
from fractions import Fraction as F

import pytest

from strips_operad.sheets import (random_loop, random_pointed_map,
                                  random_sheet_element)
from strips_operad.framework import random_rel_elements, random_rel_plan
from strips_operad.strips import (StripConfig, random_strip, strip_compose,
                                  strips_rel_operad)
from strips_operad.trees import LEAF, corolla, graft, random_tree
from strips_operad.intervals import IntervalConfig, random_intervals
from strips_operad.exact import AffineMap1
from strips_operad import serialize as ser

from helpers import constant_path


def test_rationals_use_exact_strings():
    assert ser.rat_to_json(F(3, 4)) == "3/4"
    assert ser.rat_to_json(F(2)) == "2"
    assert ser.rat_from_json("3/4") == F(3, 4)
    assert ser.rat_from_json("-7/2") == F(-7, 2)
    assert ser.rat_from_json(5) == F(5)


def test_rationals_reject_floats_and_bools():
    with pytest.raises((TypeError, ValueError)):
        ser.rat_from_json(0.75)
    with pytest.raises((TypeError, ValueError)):
        ser.rat_from_json(True)


def test_rationals_reject_a_zero_denominator():
    # once a ZeroDivisionError, which the command line did not catch
    with pytest.raises(ValueError, match="^not a rational: '1/0'$"):
        ser.rat_from_json("1/0")


def test_rationals_read_the_forms_rat_to_json_writes():
    for x in (F(0), F(-3), F(10 ** 40, 7), F(-1, 10 ** 30), F(4095, 4096)):
        assert ser.rat_from_json(ser.rat_to_json(x)) == x
    assert ser.rat_from_json("6/4") == F(3, 2)
    assert ser.rat_from_json("-0") == 0 and ser.rat_from_json("007/010") == F(7, 10)
    assert type(ser.rat_from_json("1/2")) is F and type(ser.rat_from_json(3)) is F


@pytest.mark.parametrize("text", [
    "", "-", "/2", "1/", "1/0", "1/00", "0.5", ".5", "1e3", "1e-1000000000",
    "1E3", "+1", "1/+2", "1/-2", "-1/-2", " 1", "1 ", "1 / 2", "1_000", "½",
    "\u0661", "1/2/3", "nan", "inf", "1\n"])
def test_rationals_refuse_every_other_string(text):
    with pytest.raises(ValueError) as err:
        ser.rat_from_json(text)
    assert str(err.value) == f"not a rational: {text!r}"


@pytest.mark.parametrize("value", [None, 0.5, [1, 2], {"n": 1}, False])
def test_rationals_refuse_other_json_values(value):
    with pytest.raises(ValueError, match="^not a rational: "):
        ser.rat_from_json(value)


def test_rationals_refuse_more_digits_than_int_reads():
    # int() has a digit limit on Python 3.11+; its error is reported the same way
    digits = "1" * 10 ** 5
    try:
        expected = F(int(digits))
    except ValueError:
        with pytest.raises(ValueError, match="^not a rational: '1111"):
            ser.rat_from_json(digits)
    else:
        assert ser.rat_from_json(digits) == expected


def test_affine_encoders_write_reduced_rationals():
    e = AffineMap1(F(6, 4), F(-2, 3))
    assert ser.affine1_to_json(e) == {"a": "3/2", "c": "-2/3"}
    cfg = StripConfig((1,), IntervalConfig((AffineMap1(F(2, 4), 0),)),
                      ((AffineMap1(F(2, 8), F(6, 8)),),))
    assert ser.strip_to_json(cfg)["rects"] == [
        [{"a": "1/2", "b": "1/4", "c": "0", "d": "3/4"}]]


def test_affine_round_trip():
    e = AffineMap1(F(1, 3), F(-2, 7))
    assert ser.affine1_from_json(ser.affine1_to_json(e)) == e


def test_intervals_round_trip():
    cfg = random_intervals(3, random.Random(1))
    assert ser.intervals_from_json(ser.intervals_to_json(cfg)) == cfg


def test_strip_round_trip():
    cfg = random_strip((2, 0, 1), seed=2)
    doc = ser.strip_to_json(cfg)
    assert ser.strip_from_json(doc) == cfg
    # survive a JSON print/parse cycle too
    assert ser.strip_from_json(json.loads(json.dumps(doc))) == cfg


def _assert_strip_round_trip(q):
    doc = ser.strip_to_json(q)
    assert ser.strip_from_json(doc) == q
    for emb, row in zip(doc["base"]["embeddings"], doc["rects"]):
        assert all({"a": r["a"], "c": r["c"]} == emb for r in row)


def test_strip_round_trip_on_random_configurations_and_composites():
    rng = random.Random("strip codec")
    rel = strips_rel_operad()
    big = 0
    for _ in range(60):
        shape = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 4)))
        _assert_strip_round_trip(random_strip(shape[:-1] + (shape[-1] or 1,),
                                              rng.random()))
        elems = random_rel_elements(rel, random_rel_plan(rng, 3, 5), rng)
        q = strip_compose(elems.outer, elems.first)
        _assert_strip_round_trip(q)
        big += any(y.d > 4096 for row in q.rects for y in row)
    assert big > 10        # composites leave the 1/4096 grid


def _path(doc, keys):
    for k in keys:
        doc = doc[k]
    return doc


NOT_ARRAYS = ["01", {"0": "0", "1": "1"}, 5, None]
ARRAY_FIELDS = {
    "intervals": (lambda: ser.intervals_to_json(random_intervals(2, random.Random(1))),
                  ser.intervals_from_json, [("embeddings",)]),
    "strip": (lambda: ser.strip_to_json(random_strip((1, 2), seed=2)),
              ser.strip_from_json,
              [("shape",), ("rects",), ("rects", 1), ("base", "embeddings")]),
    "sheet element": (
        lambda: ser.sheet_element_to_json(random_sheet_element(
            random_pointed_map(random.Random(3), 1, 2), random.Random(4))),
        ser.sheet_element_from_json,
        [("sheet", "x_breaks"), ("sheet", "y_breaks"), ("sheet", "values"),
         ("sheet", "values", 0), ("sheet", "values", 0, 0),
         ("bottom", "breaks"), ("top", "values"), ("top", "values", 1)]),
    "pointed map": (
        lambda: ser.pointed_map_to_json(random_pointed_map(random.Random(5), 2, 2)),
        ser.pointed_map_from_json,
        [("matrix",), ("matrix", 0), ("dom_base",), ("cod_base",)]),
    "tree": (lambda: ser.tree_to_json(graft(corolla(2), (corolla(3), LEAF))),
             ser.tree_from_json, [(), (0,), (0, 1)]),
}


@pytest.mark.parametrize("name", sorted(ARRAY_FIELDS))
def test_decoders_refuse_strings_and_objects_as_arrays(name):
    # a string or an object iterates too, as characters or keys; "01" once
    # read as the breaks 0, 1 and "12" as the point (1, 2)
    make, decode, paths = ARRAY_FIELDS[name]
    for keys in paths:
        for bad in NOT_ARRAYS:
            doc = make()
            if keys:
                _path(doc, keys[:-1])[keys[-1]] = bad
            else:
                doc = bad
            with pytest.raises(ValueError, match=" is not a JSON array$"):
                decode(doc)


NOT_OBJECTS = [["a", "c"], "ac", 5, None]
# per decoder: the object nodes of its document, each with the keys it needs
OBJECT_FIELDS = {
    "intervals": {(): ["embeddings"], ("embeddings", 1): ["a", "c"]},
    "strip": {(): ["shape", "base", "rects"], ("base",): ["embeddings"],
              ("base", "embeddings", 0): ["a", "c"],
              ("rects", 1, 0): ["a", "b", "c", "d"]},
    "sheet element": {(): ["sheet", "bottom", "top"],
                      ("sheet",): ["x_breaks", "y_breaks", "values"],
                      ("bottom",): ["breaks", "values"],
                      ("top",): ["breaks", "values"]},
    "pointed map": {(): ["matrix", "dom_base", "cod_base"]},
}


@pytest.mark.parametrize("name", sorted(OBJECT_FIELDS))
def test_decoders_refuse_non_objects_and_missing_keys(name):
    # a missing key was once a bare KeyError, and a list a TypeError
    make, decode, _ = ARRAY_FIELDS[name]
    for keys, required in OBJECT_FIELDS[name].items():
        for key in required:
            doc = make()
            del _path(doc, keys)[key]
            with pytest.raises(ValueError, match=f'^missing key "{key}"$'):
                decode(doc)
        for bad in NOT_OBJECTS:
            doc = make()
            if keys:
                _path(doc, keys[:-1])[keys[-1]] = bad
            else:
                doc = bad
            with pytest.raises(ValueError, match=" is not a JSON object$"):
                decode(doc)


def test_path_and_sheet_round_trip():
    rng = random.Random(3)
    f = random_pointed_map(rng, 2, 2)
    loop = random_loop(rng, 2, f.dom_base)
    assert ser.loop_from_json(ser.loop_to_json(loop)) == loop
    elem = random_sheet_element(f, rng)
    assert ser.sheet_element_from_json(ser.sheet_element_to_json(elem)) == elem
    p = constant_path((F(1, 2),))
    assert ser.plpath_from_json(ser.plpath_to_json(p)) == p


def test_pointed_map_round_trip():
    f = random_pointed_map(random.Random(4), 1, 2)
    doc = ser.pointed_map_to_json(f)
    assert sorted(doc) == ["cod_base", "dom_base", "matrix"]   # no offset
    g = ser.pointed_map_from_json(doc)
    assert g == f and g.offset == f.offset


def test_tree_round_trip():
    t = graft(corolla(2), (corolla(3), LEAF))
    doc = ser.tree_to_json(t)
    assert ser.tree_from_json(doc) == t
    assert ser.tree_from_json([]) == LEAF
    rng = random.Random(5)
    for _ in range(25):
        t = random_tree(rng.randint(1, 6), rng)
        assert ser.tree_from_json(ser.tree_to_json(t)) == t


def test_dumps_is_deterministic_and_sorted():
    cfg = random_strip((1, 1), seed=6)
    a = ser.dumps(ser.strip_to_json(cfg))
    b = ser.dumps(ser.strip_to_json(cfg))
    assert a == b
    assert a.endswith("\n")
    doc = json.loads(a)
    assert list(doc) == sorted(doc)


def test_enumeration_text_equals_dumps_of_the_nested_lists():
    # repeated trees and shared subtrees at several depths exercise the memo
    rng = random.Random("enumeration text")
    for n in (0, 1, 2, 25):
        trees = [random_tree(rng.randint(1, 9), rng) for _ in range(n)]
        trees += trees[: n // 2] + [LEAF, corolla(3)]
        payload = {"leaves": 9, "f_vector": [n, 1], "total": len(trees),
                   "trees": [ser.tree_to_json(t) for t in trees]}
        assert (ser.enumeration_dumps(9, (n, 1), trees)
                == ser.dumps(payload))
    empty = {"leaves": 2, "f_vector": [], "total": 0, "trees": []}
    assert ser.enumeration_dumps(2, (), []) == ser.dumps(empty)
