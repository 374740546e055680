"""JSON codecs round-trip every value type exactly."""
import json
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strips_operad.sheets import (random_loop, random_pointed_map,
                                  random_sheet_element)
from strips_operad.framework import random_rel_elements, random_rel_plan
from strips_operad.strips import (StripConfig, random_strip, strip_compose,
                                  strips_rel_operad)
from strips_operad.trees import LEAF, corolla, graft, random_tree
from strips_operad.intervals import IntervalConfig, random_intervals
from strips_operad.exact import AffineMap1, GridSheet, PLPath
from strips_operad import serialize as ser, svg
from strips_operad.cli import main

from helpers import constant_path, tree_from_json


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
             tree_from_json, [(), (0,), (0, 1)]),
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
    assert tree_from_json(doc) == t
    assert tree_from_json([]) == LEAF
    rng = random.Random(5)
    for _ in range(25):
        t = random_tree(rng.randint(1, 6), rng)
        assert tree_from_json(ser.tree_to_json(t)) == t


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
        assert ("".join(ser.enumeration_pieces(9, (n, 1), trees))
                == ser.dumps(payload))
    empty = {"leaves": 2, "f_vector": [], "total": 0, "trees": []}
    assert "".join(ser.enumeration_pieces(2, (), [])) == ser.dumps(empty)


# --- the int decoders against the public constructors -----------------------

def _outcome(build, *args):
    """``("ok", value)`` or ``("error", text)`` of ``build(*args)``."""
    try:
        return "ok", build(*args)
    except ValueError as exc:
        return "error", str(exc)


def _fractions(doc):
    """``doc`` with every string read as the Fraction it names."""
    if isinstance(doc, list):
        return [_fractions(x) for x in doc]
    return F(doc)


def _path_pair(doc):
    """A path document's decoded outcome and its constructor's."""
    return (_outcome(ser.plpath_from_json, doc),
            _outcome(PLPath, *_fractions([doc["breaks"], doc["values"]])))


def _sheet_pair(doc):
    return (_outcome(ser.sheet_from_json, doc),
            _outcome(GridSheet, *_fractions([doc[k] for k in
                                             ("x_breaks", "y_breaks", "values")])))


PATH_DEFECTS = [
    (["0"], [["0"]], "need at least two breakpoints"),
    (["0", "1/2", "2/4", "1"], [["0"]] * 4,
     "breakpoints must be strictly increasing, got 1/2 >= 1/2"),
    (["0", "3/4", "1/2", "1"], [["0"]] * 4,
     "breakpoints must be strictly increasing, got 3/4 >= 1/2"),
    (["1/4", "1"], [["0"], ["0"]], "path must be parametrized over [0, 1]"),
    (["0", "3/4"], [["0"], ["0"]], "path must be parametrized over [0, 1]"),
    (["0", "1"], [["0"], ["0"], ["0"]], "one value per breakpoint required"),
    (["0", "1"], [["0"], ["0", "1"]], "all values must have the same dimension"),
]
SQUARE = "sheet must be parametrized over the unit square"
SHEET_DEFECTS = [
    (["0"], ["0", "1"], [[["0"], ["0"]]], "need at least two breakpoints"),
    (["0", "1"], ["0", "2/3", "4/6", "1"], [[["0"]] * 4] * 2,
     "breakpoints must be strictly increasing, got 2/3 >= 2/3"),
    (["0", "1/2"], ["0", "1"], [[["0"], ["0"]]] * 2, SQUARE),
    (["0", "1"], ["-1/2", "1"], [[["0"], ["0"]]] * 2, SQUARE),
    (["0", "1/2", "1"], ["0", "1"], [[["0"], ["0"]]] * 2,
     "value grid must be len(x_breaks) x len(y_breaks)"),
    (["0", "1"], ["0", "1"], [[["0"], ["0"]], [["0"]]],
     "value grid must be len(x_breaks) x len(y_breaks)"),
    (["0", "1"], ["0", "1"], [[["0"], ["0"]], [["0"], ["0", "0"]]],
     "all values must have the same dimension"),
]


def _render_error(tmp_path, capsys, doc) -> str:
    """The stderr of ``render`` on ``doc``, which must exit 2."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["render", str(path)]) == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("breaks, values, message", PATH_DEFECTS)
def test_path_decoder_refuses_as_the_constructor_does(breaks, values, message,
                                                      tmp_path, capsys):
    doc = {"breaks": breaks, "values": values}
    decoded, built = _path_pair(doc)
    assert decoded == built == ("error", message)
    # a loop of a sheet element is decoded as a path
    elem = ser.sheet_element_to_json(random_sheet_element(
        random_pointed_map(random.Random(3), 1, 1), random.Random(4)))
    elem["bottom"] = doc
    assert _render_error(tmp_path, capsys, elem) == f"error: {message}\n"


@pytest.mark.parametrize("xb, yb, values, message", SHEET_DEFECTS)
def test_sheet_decoder_refuses_as_the_constructor_does(xb, yb, values, message,
                                                       tmp_path, capsys):
    doc = {"x_breaks": xb, "y_breaks": yb, "values": values}
    decoded, built = _sheet_pair(doc)
    assert decoded == built == ("error", message)
    assert _render_error(tmp_path, capsys, doc) == f"error: {message}\n"


@pytest.mark.parametrize("a", ["0", "-0", "-1/2", "0/7"])
def test_affine_decoders_refuse_a_scale_as_the_constructor_does(a, tmp_path, capsys):
    message = _outcome(AffineMap1, F(a), F(0))
    assert message == ("error", f"affine scale must be positive, got {F(a)}")
    assert _outcome(ser.affine1_from_json, {"a": a, "c": "1/3"}) == message
    strip = {"shape": [1], "base": {"embeddings": [{"a": "1/2", "c": "0"}]},
             "rects": [[{"a": "1/2", "b": a, "c": "0", "d": "0"}]]}
    assert _outcome(ser.strip_from_json, strip) == message
    assert _render_error(tmp_path, capsys, strip) == f"error: {message[1]}\n"
    assert _render_error(tmp_path, capsys, {"embeddings": [{"a": a, "c": "0"}]}) \
        == f"error: {message[1]}\n"


def test_decoders_refuse_more_digits_than_int_reads(tmp_path, capsys):
    # int() has a digit limit on Python 3.11+; past it every decoder reports
    # the string as not a rational, and render exits 2 either way
    digits = "1" * 10 ** 5
    docs = [{"embeddings": [{"a": "1", "c": digits}]},
            {"x_breaks": ["0", digits], "y_breaks": ["0", "1"],
             "values": [[["0"], ["0"]]] * 2},
            {"x_breaks": ["0", "1"], "y_breaks": ["0", "1"],
             "values": [[["0"], [digits]], [["0"], ["0"]]]}]
    for doc in docs:
        err = _render_error(tmp_path, capsys, doc)
        if hasattr(sys, "set_int_max_str_digits"):
            assert err.startswith("error: not a rational: '1111")


# rationals with denominators far beyond 2**64, and the texts of each: the
# reduced one rat_to_json writes, and unreduced ones with leading zeros
wide_rationals = st.builds(F, st.integers(-2 ** 80, 2 ** 80), st.integers(1, 2 ** 80))


@st.composite
def rational_texts(draw, x=None):
    """``(Fraction, text)``: a wide rational and a text or JSON int for it."""
    if x is None:
        x = draw(wide_rationals)
    k = draw(st.sampled_from([1, 1, 2, 3, 10 ** 20]))
    n, d = x.numerator * k, x.denominator * k
    sign = "-" if n < 0 or (n == 0 and draw(st.booleans())) else ""
    pad, dpad = draw(st.sampled_from(["", "0", "00"])), draw(st.sampled_from(["", "0"]))
    forms = [f"{sign}{pad}{abs(n)}/{dpad}{d}", ser.rat_to_json(x)]
    if d == k:
        forms += [f"{sign}{pad}{abs(x.numerator)}", x.numerator]
    return x, draw(st.sampled_from(forms))


def _texts(draw, xs):
    return [draw(rational_texts(x)) for x in xs]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_path_decoder_equals_the_constructor(data):
    # sorted or not, from 0 to 1 or not, one value per break or not: the
    # decoder and the constructor give the same path or the same refusal
    inner = data.draw(st.lists(st.fractions(0, 1, max_denominator=2 ** 70), max_size=5))
    breaks = [F(0), *inner, F(1)] if data.draw(st.booleans()) else inner
    dims = data.draw(st.sampled_from([(1,), (2,), (1, 2)]))
    n = len(breaks) + data.draw(st.sampled_from([0, 0, 0, 1]))
    values = [data.draw(st.lists(wide_rationals, min_size=dims[k % len(dims)],
                                 max_size=dims[k % len(dims)]))
              for k in range(n)]
    doc = {"breaks": [t for _, t in _texts(data.draw, breaks)],
           "values": [[t for _, t in _texts(data.draw, v)] for v in values]}
    assert _outcome(ser.plpath_from_json, doc) == _outcome(PLPath, breaks, values)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_sheet_decoder_equals_the_constructor(data):
    def axis():
        inner = sorted(set(data.draw(st.lists(
            st.fractions(0, 1, max_denominator=2 ** 70), max_size=3))) - {0, 1})
        return [F(0), *inner, F(1)]

    xb, yb = axis(), axis()
    dim = data.draw(st.integers(1, 2))
    values = [[data.draw(st.lists(wide_rationals, min_size=dim, max_size=dim))
               for _ in yb] for _ in xb]
    doc = {"x_breaks": [t for _, t in _texts(data.draw, xb)],
           "y_breaks": [t for _, t in _texts(data.draw, yb)],
           "values": [[[t for _, t in _texts(data.draw, v)] for v in col]
                      for col in values]}
    decoded = ser.sheet_from_json(doc)
    assert decoded == GridSheet(xb, yb, values)
    assert ser.sheet_from_json(ser.sheet_to_json(decoded)) == decoded


@settings(max_examples=200, deadline=None)
@given(rational_texts(), rational_texts())
def test_affine_decoder_equals_the_constructor(a, c):
    (x, a_text), (y, c_text) = a, c
    decoded = _outcome(ser.affine1_from_json, {"a": a_text, "c": c_text})
    assert decoded == _outcome(AffineMap1, x, y)
    if decoded[0] == "ok":
        e = decoded[1]
        # the ints svg divides give the floats of the exact rationals
        assert e.cn / e.d == float(e.c) and e.an / e.d == float(e.a)
        assert (e.an + e.cn) / e.d == float(e.a + e.c)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_strip_documents_with_unreduced_rationals_round_trip(data):
    rel = strips_rel_operad()
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    elems = random_rel_elements(rel, random_rel_plan(rng, 3, 5), rng)
    q = strip_compose(elems.outer, elems.first)
    doc = ser.strip_to_json(q)

    def unreduced(node):
        if isinstance(node, dict):
            return {k: unreduced(v) if k != "shape" else v for k, v in node.items()}
        if isinstance(node, list):
            return [unreduced(v) for v in node]
        return data.draw(rational_texts(F(node)))[1]

    assert ser.strip_from_json(doc) == q
    assert ser.strip_to_json(ser.strip_from_json(unreduced(doc))) == doc
    assert svg.render_strip_config(ser.strip_from_json(unreduced(doc))) \
        == svg.render_strip_config(q)
