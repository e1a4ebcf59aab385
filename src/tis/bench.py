"""Benchmark harness: run every solver over a directory of instance files
and emit one CSV row per (instance, algorithm).

Column schema is fixed for downstream tooling:

  instance, n, tau, delta, k, algorithm, objective, cardinality,
  runtime_ms, verified, oracle_objective, ratio_bound, bound_holds

objective and oracle_objective are exact rationals. ratio_bound is the
greedy guarantee (tau - delta + 1) * 2^delta and is only filled on greedy
rows of unit instances; bound_holds checks objective * ratio_bound >=
oracle_objective whenever both sides are known. verified is the
independence verdict of verify_solution on the row's set, not the solver's
own certificate. The op and fpt answers are the canonical optimum, so when
the exact run exists an objective or a selected set that differs from its
answer is an internal error. runtime_ms is end to end per algorithm, as
`solvers.solve` runs it: the op time includes recognition and the fpt time
includes min_opvd. An unreadable file, or an input the algorithms refuse,
produces a single row with verified=ERROR and the run continues; an
internal error stops the run.
Rows are sorted by (instance, algorithm) before writing, so the CSV is
deterministic up to the runtime_ms column.
"""

from __future__ import annotations

import csv
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .conflict import WindowSemantics
from .model import (
    InternalError,
    Solution,
    TemporalIntervalInstance,
    parse_instance,
)
from .solvers import solve, verify_solution

COLUMNS = [
    "instance",
    "n",
    "tau",
    "delta",
    "k",
    "algorithm",
    "objective",
    "cardinality",
    "runtime_ms",
    "verified",
    "oracle_objective",
    "ratio_bound",
    "bound_holds",
]


def _greedy_ratio(inst: TemporalIntervalInstance) -> Optional[int]:
    if not inst.unit_flag:
        return None
    return (inst.tau - inst.delta + 1) * 2**inst.delta


def _row(
    inst: TemporalIntervalInstance,
    name: str,
    algorithm: str,
    sol: Solution,
    elapsed_ms: float,
    oracle: Optional[Fraction],
    semantics: WindowSemantics,
) -> dict[str, str]:
    verified = verify_solution(inst, sol.selected, semantics).independent
    ratio = _greedy_ratio(inst) if algorithm == "greedy" else None
    bound = ""
    if ratio is not None and oracle is not None:
        bound = "yes" if sol.objective * ratio >= oracle else "no"
    return {
        "instance": name,
        "n": str(inst.n),
        "tau": str(inst.tau),
        "delta": str(inst.delta),
        "k": str(inst.k),
        "algorithm": algorithm,
        "objective": str(sol.objective),
        "cardinality": str(sol.cardinality),
        "runtime_ms": f"{elapsed_ms:.3f}",
        "verified": "PASS" if verified else "FAIL",
        "oracle_objective": "" if oracle is None else str(oracle),
        "ratio_bound": "" if ratio is None else str(ratio),
        "bound_holds": bound,
    }


def _error_row(name: str, message: str) -> dict[str, str]:
    row = {col: "" for col in COLUMNS}
    row["instance"] = name
    row["verified"] = "ERROR"
    row["algorithm"] = message[:80]
    return row


def run_bench(
    directory: str | Path,
    csv_out: str | Path,
    semantics: WindowSemantics = WindowSemantics.FIGURE,
    oracle_limit: int = 30,
) -> list[dict[str, str]]:
    """Benchmark every *.tis file under `directory` and write the CSV."""
    directory = Path(directory)
    rows: list[dict[str, str]] = []
    for path in sorted(directory.glob("*.tis")):
        name = path.name
        try:
            inst = parse_instance(path.read_text())
        except (OSError, ValueError) as exc:
            rows.append(_error_row(name, str(exc)))
            continue
        try:
            rows.extend(_instance_rows(inst, name, semantics, oracle_limit))
        except ValueError as exc:  # an input the algorithms refuse
            rows.append(_error_row(name, str(exc)))
    rows.sort(key=lambda r: (r["instance"], r["algorithm"]))
    out = Path(csv_out)
    with out.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    return rows


def _instance_rows(
    inst: TemporalIntervalInstance,
    name: str,
    semantics: WindowSemantics,
    oracle_limit: int,
) -> list[dict[str, str]]:
    """One row per algorithm that applies; the timed exact run doubles as
    the oracle for every row, and op and fpt must return its set."""
    algorithms = ["exact"] if inst.n <= oracle_limit else []
    algorithms.append("greedy")
    if inst.unit_flag:
        algorithms += ["op", "fpt"]
    runs: dict[str, tuple[Solution, float]] = {}
    for algorithm in algorithms:
        t0 = time.perf_counter()
        sol = solve(inst, algorithm, semantics, limit=oracle_limit)
        if sol is not None:
            runs[algorithm] = (sol, (time.perf_counter() - t0) * 1000.0)
    exact = runs["exact"][0] if "exact" in runs else None
    oracle = exact.objective if exact is not None else None
    for algorithm in ("op", "fpt"):
        if exact is not None and algorithm in runs:
            sol = runs[algorithm][0]
            if sol.objective != oracle:
                raise InternalError(
                    f"{name}: {algorithm} objective {sol.objective} differs "
                    f"from the exact optimum {oracle}"
                )
            if sol.selected != exact.selected:
                raise InternalError(f"{name}: {algorithm} set is not the exact run's")
    return [
        _row(inst, name, algorithm, sol, elapsed_ms, oracle, semantics)
        for algorithm, (sol, elapsed_ms) in runs.items()
    ]
