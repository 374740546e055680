"""Exact-arithmetic operads of little intervals and rectangle strips, the
loop/sheet algebras they act on, associahedron face enumeration, and seeded
law-checking tools."""

from .exact import AffineMap1, GridSheet, PLPath
from .framework import (ALGEBRA, OPERAD, REL, AlgebraInstance, Block,
                        ChainError, CheckFailure, CheckReport,
                        FiberProductError, Kind, OperadInstance,
                        RelTwoOperadInstance, check_algebra_laws,
                        check_operad_laws, check_rel_laws, run_check)
from .intervals import (IntervalConfig, interval_compose, interval_unit,
                        interval_violation, intervals_operad, random_intervals)
from .shapes import ShapeError, check_shape, output_shape
from .sheets import (Loop, PointedMap, SheetElement, act_on_loops,
                     act_on_sheets, random_loop, random_pointed_map,
                     random_sheet_element, sheet_algebra, sheet_violation)
from .strips import (StripConfig, random_strip, random_strip_over,
                     strip_compose, strip_project, strip_unit,
                     strip_violation, strips_rel_operad)
from .trees import (LEAF, PlanarTree, contracts_to, corolla, enumerate_trees,
                    f_vector, graft, random_tree, tree_dim, tree_leaves,
                    trees_operad)

__version__ = "0.1.0"
