"""Every module under ``src/`` and ``tests/`` uses each name it imports,
and the CLI starts without the standard library's heavier modules."""
import ast
import os
import subprocess
import sys
from pathlib import Path

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
