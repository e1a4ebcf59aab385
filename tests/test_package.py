"""Properties of the package as a whole rather than of one algorithm."""

import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import tis

SRC = Path(tis.__file__).parent
TRACING = Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py"


def test_cli_import_loads_no_networkx():
    # networkx was once a dependency; importing it cost most of `tis`'s
    # start-up time.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, tis.cli; print('networkx' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_no_assert_statements():
    # `python -O` strips asserts; a failed consistency check must raise
    # InternalError instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _trees():
    return {path: ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}


def test_no_unused_imports():
    # A name counts as used when the module reads it or lists it in
    # __all__; "# noqa: F401" on an import's first line exempts it.
    found = []
    for path, tree in _trees().items():
        lines = path.read_text().splitlines()
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= {
            elt.value
            for n in ast.walk(tree)
            if isinstance(n, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in n.targets)
            for elt in n.value.elts
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__":
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    found.append(f"{path.name}:{node.lineno}: {name}")
    assert found == []


def test_no_unreferenced_private_definitions():
    # A module-level `_name` counts as referenced when some module of the
    # package reads it: as a name, an attribute or an imported name. A
    # definition nothing reads is dead code.
    trees = _trees()
    used = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                used.add(n.id)
            elif isinstance(n, ast.Attribute):
                used.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                used |= {alias.name for alias in n.names}
    found = [
        f"{path.name}:{node.lineno}: {node.name}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and node.name not in used
    ]
    assert found == []


def test_benchmark_bindings_resolve():
    # benchmark/tracing.py rebinds these module attributes in traced runs
    # and looks each one up with vars(owner)[attr]; one that a refactor
    # drops would otherwise fail only in a traced benchmark run.
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for table in (tracing.SPANS, tracing.COUNTS):
        for bindings in table.values():
            for modname, path in bindings:
                owner = importlib.import_module(modname)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                if attr not in vars(owner):
                    missing.append(f"{modname}:{path}")
    assert missing == []
