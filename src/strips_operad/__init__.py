"""Exact-arithmetic operads of little intervals and rectangle strips, the
loop/sheet algebras they act on, associahedron face enumeration, and seeded
law-checking tools.

Each public name is imported from its module on first use (PEP 562), so
``import strips_operad.cli`` loads only the modules a command runs."""

import importlib

# the public names, by the module that defines them
_EXPORTS = {
    "exact": ("AffineMap1", "GridSheet", "PLPath"),
    "framework": ("ALGEBRA", "OPERAD", "REL", "AlgebraInstance", "Block",
                  "ChainError", "CheckFailure", "CheckReport",
                  "FiberProductError", "Kind", "OperadInstance",
                  "RelTwoOperadInstance", "check_algebra_laws",
                  "check_operad_laws", "check_rel_laws", "run_check"),
    "intervals": ("IntervalConfig", "interval_compose", "interval_unit",
                  "interval_violation", "intervals_operad", "random_intervals"),
    "shapes": ("ShapeError", "check_shape", "output_shape"),
    "sheets": ("Loop", "PointedMap", "SheetElement", "act_on_loops",
               "act_on_sheets", "random_loop", "random_pointed_map",
               "random_sheet_element", "sheet_algebra", "sheet_violation"),
    "strips": ("StripConfig", "random_strip", "random_strip_over",
               "strip_compose", "strip_project", "strip_unit",
               "strip_violation", "strips_rel_operad"),
    "trees": ("LEAF", "PlanarTree", "contracts_to", "corolla", "enumerate_trees",
              "f_vector", "graft", "random_tree", "tree_dim", "tree_leaves",
              "trees_operad"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value         # later reads skip this hook
    return value


def __dir__():
    return list(__all__)
