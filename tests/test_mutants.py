"""Broken instances live in one module, outside the production constructors."""
import inspect
import random
from fractions import Fraction

import pytest

from strips_operad import mutants
from strips_operad.exact import GridSheet
from strips_operad.framework import ALGEBRA, OPERAD, REL, run_check
from strips_operad.intervals import intervals_operad
from strips_operad.sheets import (random_pointed_map, random_sheet_element,
                                  sheet_algebra)
from strips_operad.strips import strips_rel_operad
from strips_operad.trees import trees_operad


def test_production_constructors_take_no_mutation():
    for make in (intervals_operad, strips_rel_operad, trees_operad):
        assert list(inspect.signature(make).parameters) == []
    assert list(inspect.signature(sheet_algebra).parameters) == ["f"]


def _mutant_report(target):
    if target == "intervals":
        return run_check(OPERAD, mutants.intervals_operad(), "intervals",
                         seed=1, cases=5, max_arity=3)
    if target == "trees":
        return run_check(OPERAD, mutants.trees_operad(), "trees", seed=1,
                         cases=5, max_arity=4)
    if target == "strips":
        return run_check(REL, mutants.strips_rel_operad(), "strips", seed=1,
                         cases=5, max_r=3, max_total=5)
    return run_check(ALGEBRA, mutants.random_sheet_algebra, "sheets", seed=1,
                     cases=5, max_r=3, max_total=4)


@pytest.mark.parametrize("target", ["intervals", "strips", "trees", "sheets"])
def test_each_mutant_fails_its_laws(target):
    report = _mutant_report(target)
    assert report.cases_run == 5
    assert not report.ok
    assert report.failures
    assert all(f.law != "exception" for f in report.failures)


def test_sheets_mutant_needs_a_target_dimension():
    f = random_pointed_map(random.Random(0), 1, 0)
    with pytest.raises(ValueError):
        mutants.sheet_algebra(f)


def _drifted_on_the_grid(sheet):
    """The sheets mutant's sheet as a product grid: the sheet read at every
    point of its grid with lines at 1/2 added, the centre value moved."""
    half = Fraction(1, 2)
    xs = sorted({*sheet.x_breaks, half})
    ys = sorted({*sheet.y_breaks, half})
    vals = [[sheet.at(x, y) for y in ys] for x in xs]
    ix, iy = xs.index(half), ys.index(half)
    vals[ix][iy] = (vals[ix][iy][0] + mutants.DRIFT,) + vals[ix][iy][1:]
    return GridSheet(xs, ys, vals)


def test_sheets_mutant_moves_the_centre_of_the_grid_sheet():
    # 1/2 on a grid line or not, on either axis
    q = Fraction(1, 4)
    sheets = [GridSheet(xb, yb, [[(x * y - 3 * x, y) for y in yb] for x in xb])
              for xb in ((0, 1), (0, q, 1), (0, 2 * q, 1))
              for yb in ((0, 1), (0, 3 * q, 1), (0, 2 * q, 3 * q, 1))]
    rng = random.Random("sheets mutant")
    for _ in range(40):
        f = random_pointed_map(rng, rng.randint(0, 2), rng.randint(1, 2))
        sheets.append(random_sheet_element(f, rng).sheet)
    for sheet in sheets:
        assert mutants._drifted(sheet) == _drifted_on_the_grid(sheet)
