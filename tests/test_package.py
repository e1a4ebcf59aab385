"""Properties of the package as a whole rather than of one algorithm."""

import ast
import subprocess
import sys
from pathlib import Path

import tis

SRC = Path(tis.__file__).parent


def test_cli_import_loads_no_networkx():
    # networkx is a test-only reference; importing it cost most of `tis`'s
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
