"""Every module under ``src/`` and ``tests/`` uses each name it imports,
the CLI starts without the standard library's heavier modules or the
modules of commands it does not run, and the package namespace resolves
its public names on first use."""
import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import strips_operad

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path: Path) -> list:
    """``(line, name)`` for each name the module imports and never reads.

    ``from __future__`` imports are skipped.  A dotted ``import a.b`` binds
    ``a``, and any read of ``a`` counts as a use.
    """
    tree = ast.parse(path.read_text(), str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.partition(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


def test_no_unused_imports():
    # the package __init__ modules import names only to re-export them
    paths = [p for top in ("src", "tests")
             for p in sorted((ROOT / top).rglob("*.py"))
             if p.name != "__init__.py"]
    assert len(paths) > 20
    unused = [f"{p.relative_to(ROOT)}:{line}: {name}"
              for p in paths for line, name in unused_imports(p)]
    assert not unused, "imported but never used:\n" + "\n".join(unused)


# the modules loaded after importing the CLI, and again after a check of
# every target
COLD_START = """
import os, sys
import strips_operad.cli as cli

def heavy():
    return [m for m in ("dataclasses", "inspect") if m in sys.modules]

print(heavy())
for target in cli.TARGETS:
    cli.main(["check", target, "--cases", "1", "--out", os.devnull])
print(heavy())
"""


def test_the_cli_imports_and_checks_without_dataclasses_or_inspect():
    # dataclasses pulls in inspect, ast and dis: about a quarter of the
    # CLI's cold start, which is most of a short run's wall time
    proc = subprocess.run([sys.executable, "-S", "-c", COLD_START],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[]\n[]\n"


# the rational modules loaded after importing the CLI, and again after a
# check of trees
RATIONALS = """
import os, sys
import strips_operad.cli as cli

def rationals():
    return [m for m in ("fractions", "strips_operad.exact") if m in sys.modules]

print(rationals())
cli.main(["check", "trees", "--cases", "3", "--out", os.devnull])
print(rationals())
"""


def test_the_cli_imports_and_checks_trees_without_exact_or_fractions():
    # trees have no rational geometry, and a short run is mostly start-up
    proc = subprocess.run([sys.executable, "-S", "-c", RATIONALS],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[]\n[]\n"


# a fresh interpreter imports the CLI, builds its parser and runs each argv
# given; it prints the exit codes and, after the parser and after each
# command, the package modules it has loaded
PROBE = """
import json, sys
import strips_operad.cli as cli

def loaded():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "strips_operad")

cli.build_parser()
steps, codes = [loaded()], []
for argv in json.loads(sys.argv[1]):
    codes.append(cli.main(argv))
    steps.append(loaded())
print(json.dumps([codes, steps]))
"""

START = ["strips_operad", "strips_operad.cli", "strips_operad.framework",
         "strips_operad.records", "strips_operad.shapes"]


def loaded_by(*argvs, cwd: Path) -> tuple:
    """The exit codes of the commands ``argvs`` run in one fresh interpreter,
    and the package modules loaded after the parser and after each."""
    proc = subprocess.run([sys.executable, "-S", "-c", PROBE, json.dumps(argvs)],
                          capture_output=True, text=True, cwd=cwd,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert (proc.returncode, proc.stderr) == (0, "")
    codes, steps = json.loads(proc.stdout)
    return codes, steps


# a command -> its exit code and the package modules it adds to START
LOADS = {
    "check trees": (0, ["trees"]),
    "check intervals": (0, ["exact", "intervals"]),
    "check strips --cases 3": (0, ["exact", "intervals", "strips"]),
    "check sheets --max-n 3": (0, ["exact", "intervals", "sheets", "strips"]),
    "check trees --mutate --max-r 4": (
        1, ["exact", "intervals", "mutants", "sheets", "strips", "trees"]),
    "enumerate 4": (0, ["exact", "intervals", "serialize", "sheets", "strips",
                        "trees"]),
    "enumerate 4 --format dot": (0, ["svg", "trees"]),
}


@pytest.mark.parametrize("command", sorted(LOADS))
def test_a_command_loads_only_the_modules_it_runs(tmp_path, command):
    # a short run is mostly start-up, and without a bytecode cache every
    # module it loads is compiled from source
    code, added = LOADS[command]
    codes, (start, after) = loaded_by([*command.split(), "--out", "out.txt"],
                                      cwd=tmp_path)
    assert start == START
    assert codes == [code]
    assert after == sorted(START + [f"strips_operad.{m}" for m in added])


def test_compose_and_render_load_serialize_and_svg_only_when_run(tmp_path):
    plan = {"kind": "intervals", "outer": {"embeddings": [{"a": "1/2", "c": "0"}]},
            "inners": [{"embeddings": [{"a": "1/2", "c": "1/4"}]}]}
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    (tmp_path / "tree.json").write_text(json.dumps(plan["outer"]))
    codes, steps = loaded_by(
        ["check", "intervals", "--out", "r.json"],
        ["compose", "plan.json", "--out", "c.json"],
        ["compose", "plan.json", "--out", "c.json", "--svg", "c.svg"],
        ["render", "tree.json", "--out", "t.svg"], cwd=tmp_path)
    assert codes == [0, 0, 0, 0]
    module = "strips_operad.{}".format
    assert [module(m) in step for step in steps
            for m in ("serialize", "svg")] == [False, False, False, False,
                                               True, False, True, True,
                                               True, True]
    assert module("mutants") not in steps[-1]


# the names the package namespace held when its __init__ imported them all
PUBLIC = {
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
NAMES = sorted(name for names in PUBLIC.values() for name in names)
MODULES = sorted(p.stem for p in (ROOT / "src" / "strips_operad").glob("*.py")
                 if p.stem != "__init__")


def test_every_public_name_is_its_modules_own_object():
    assert len(NAMES) == 57
    for module, names in PUBLIC.items():
        home = importlib.import_module(f"strips_operad.{module}")
        for name in names:
            scope = {}
            exec(f"from strips_operad import {name}", scope)
            assert scope[name] is getattr(home, name), name


def test_star_import_and_dir_give_the_public_names():
    scope = {}
    exec("from strips_operad import *", scope)
    assert sorted(set(scope) - {"__builtins__"}) == NAMES
    assert dir(strips_operad) == NAMES
    assert strips_operad.__all__ == NAMES


def test_the_package_imports_its_modules_and_refuses_unknown_names():
    assert len(MODULES) == 12
    for module in MODULES:
        scope = {}
        exec(f"from strips_operad import {module}", scope)
        assert scope[module] is sys.modules[f"strips_operad.{module}"]
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        strips_operad.nothing
    with pytest.raises(ImportError):
        exec("from strips_operad import nothing", {})
    assert strips_operad.__version__ == "0.1.0"


def test_the_readme_quick_start_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Quick start", 1)[1].split("```python\n", 1)[1]
    code = block.split("```", 1)[0]
    assert "from strips_operad import (" in code
    exec(compile(code, "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out == ["(1, 2) 100", "True", "True", "84"]
