#!/usr/bin/env python3
"""Run every workload, untraced and traced, and print all their metrics.

    python3 benchmark/report.py [--seed N] [--seconds S]

Each workload runs twice, each time in its own process: with --trace 0 for
the end-to-end metrics and with --trace 1 for the per-layer metrics. Every
line is prefixed with the workload's name; metric lines read "name value
unit". Exits 1 when a run fails a check, leaves out a metric named in
BENCHMARK.json, or does not finish.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args(argv)
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True,
                text=True,
                timeout=600,
            )
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload}: run with --trace {trace} exited {proc.returncode}")
                ok = False
                continue
            for line in lines[:-1]:
                print(f"{workload}: {line}")
            result = json.loads(lines[-1])
            missing = [m["name"] for m in spec[kind] if m["name"] not in result["metrics"]]
            if missing:
                print(f"{workload}: missing {kind} metrics: {', '.join(missing)}")
            if missing or not result["correct"] or result["failed"]:
                ok = False
    print("all checks passed" if ok else "FAILED: see the lines above")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
