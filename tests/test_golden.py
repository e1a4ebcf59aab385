"""Golden CLI output: stdout and exit code of `tis solve`, `recognize`,
`opvd` and `conflict` on the fixtures, byte for byte.

`data/golden.json` was recorded before the solver policies were shared
between modules; every refactor since must reproduce it exactly.
`gen_op_n40.tis` is `tis gen op --n 40 --tau 3 --delta 2 --k 10 --seed 7`;
`gen_random_n12.tis` is `tis gen random --n 12 --tau 3 --delta 2 --k 4
--seed 8 --spread 5 --max-weight 3`, an instance with several optimal
sets. The `fpt` cases on it and on `two_layer_path.tis` were re-recorded
when `fpt` took the canonical tie break: each now prints the `exact` set,
with the objective unchanged. `gen_op_edges_n30.tis` is `tis gen op
--n 30 --tau 3 --delta 2 --k 8 --seed 11` with each layer written as the
edge list of its graph. Its cases were recorded while the cliques of
those graphs were enumerated by Bron-Kerbosch; they are unchanged now that
recognition sweeps each layer's normalized model along its umbrella
ordering.
`planted_n60_d9.tis` is `planted_deletion(60, 3, 1, 9, seed=1)` of
`benchmark/workloads.py`: its `opvd` case, a minimum deletion set of 9
vertices, was recorded while the deletion search still grew its candidate
sets one vertex per level, and the hitting-set search reproduces it.
"""

import json
from pathlib import Path

import pytest

from tis.cli import run

DATA = Path(__file__).parent / "data"
CASES = json.loads((DATA / "golden.json").read_text())


@pytest.mark.parametrize(
    "case", CASES, ids=[f"{c['file']}:{' '.join(c['args'])}" for c in CASES]
)
def test_cli_output_matches_golden(case, capsys):
    code = run([case["args"][0], str(DATA / case["file"]), *case["args"][1:]])
    assert capsys.readouterr().out == case["stdout"]
    assert code == case["exit"]
