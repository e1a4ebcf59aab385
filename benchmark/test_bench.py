"""Fast self-test of the benchmark: every workload at toy size.

    PYTHONPATH=src python3 -m pytest benchmark/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import harness  # noqa: E402
from tracing import LayerTotals  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_at_toy_size(workload, trace):
    attempted, failed, metrics, notes = harness.run(workload, 1, 0.2, trace, toy=True)
    assert attempted >= 1
    assert failed == 0
    assert notes[0].startswith("failed_ratio 0 ")
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: unit for name, (_, unit) in metrics.items()} == {
        m["name"]: m["unit"] for m in named
    }


def test_self_time_excludes_children():
    totals = LayerTotals()
    spans = [
        ["opvd.min_opvd", 0.0, 10.0, -1, None],
        ["order.recognize", 1.0, 4.0, 0, False],
        ["pqtree.c1p_order", 2.0, 3.0, 1, None],
        ["order.recognize", 5.0, 9.0, 0, True],
    ]
    totals.fold(spans, {"pqtree.reduce": 7})
    assert totals.self_s["opvd.min_opvd"] == 3.0
    assert totals.self_s["order.recognize"] == 6.0
    assert totals.calls["opvd.recognitions"] == 2
    assert totals.calls["opvd.recognitions.yes"] == 1
    assert totals.calls["pqtree.reduce"] == 7


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "op_large", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
