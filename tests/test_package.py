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
