"""Run one workload for a fixed time and compute its metrics.

An untraced run gives the end-to-end metrics; a traced run executes every
input twice, once untraced and once traced, in alternating order, and its
spans give the per-layer metrics and the tracing overhead. Outputs are
checked between operations, outside the timed region.

End-to-end times are normalized to a fixed machine speed. On a shared
virtual machine, other tenants slow whole stretches of 10 to 30 seconds by
up to half, and a run cannot average that away. So a fixed calibration
loop, built from the same kinds of work as the library (Fractions,
frozensets, dict lookups), is timed right before and right after every
timed operation, and the operation's time is scaled by CALIBRATION_S over
the mean of the two. On a two-core Intel Xeon virtual machine, one input
repeated for 80 seconds varied by 40% between the medians of 10-second
blocks in raw time, and by 3% (exact_sparse) to 13% (op_large) in
normalized time.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import resource
import statistics
import sys
import tempfile
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from checks import CheckFailed, require
from tracing import LayerTotals, Tracer
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
# The calibration loop's time on an undisturbed machine (Intel Xeon, Python
# 3.11.7). A normalized second is a second at that speed.
CALIBRATION_S = 0.004
MODULES = ("model", "conflict", "order", "intervals", "pqtree", "opvd", "solvers", "cli")
_FAILED = object()


def canonical(value):
    """A comparable form of an operation's output: sets become sorted tuples
    and dataclasses tuples of their fields. Certificates are left out: they
    restate a set the checks verify directly, and they are large."""
    if dataclasses.is_dataclass(value):
        return tuple(
            canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.name != "certificate"
        )
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(value))
    if isinstance(value, (list, tuple)):
        return tuple(canonical(v) for v in value)
    return value


def settle() -> None:
    """Collect the garbage of earlier work and freeze what survives, so that
    every operation starts from the same collector state and its own
    collections never walk the corpus."""
    gc.collect()
    gc.freeze()


def _execute(run, *args):
    """Run one operation. An exception is a failed operation: its traceback
    goes to stderr and the loop goes on."""
    try:
        return run(*args)
    except Exception:  # noqa: BLE001  (counted as failed, never hidden)
        traceback.print_exc()
        return _FAILED


class Checker:
    """Checks each output as it arrives. The full check runs once per corpus
    entry; a repeat must give the same output as the checked run. Only a
    digest of each checked output is kept, so memory stays flat."""

    def __init__(self, w: Workload) -> None:
        self.w = w
        self.digests: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0

    def __call__(self, item, out) -> bool:
        self.attempted += 1
        if out is _FAILED:
            self.failed += 1
            return False
        try:
            digest = hashlib.sha256(repr(canonical(out)).encode()).hexdigest()
            if item.index in self.digests:
                require(digest == self.digests[item.index], "output differs from an earlier run")
            else:
                self.w.check(item, out)
                self.digests[item.index] = digest
            return True
        except CheckFailed as exc:
            print(f"check failed: {self.w.name} entry {item.index}: {exc}", file=sys.stderr)
        except Exception:  # noqa: BLE001  (a crashing check is a failure)
            traceback.print_exc()
        self.failed += 1
        return False

    def notes(self) -> list[str]:
        ratio = self.failed / self.attempted
        return [f"failed_ratio {ratio:.6g} ({self.failed} of {self.attempted} operations)"]


def calibrate() -> float:
    """Time a fixed loop of exact-arithmetic, set and dict work."""
    t0 = perf_counter()
    fr = [Fraction(i, 7) for i in range(300)]
    table: dict[frozenset[int], Fraction] = {}
    for a in range(0, 300, 3):
        key = frozenset(range(a, a + 20))
        table[key] = max(fr[a], fr[299 - a]) + fr[a // 2]
        for b in range(a, a + 20):
            if b in key and (b * 7) % 3:
                table[key] += 1
    return perf_counter() - t0


def timed(run, *args):
    """Return `run(*args)`, its raw time and its normalized time. The
    machine's speed during the call is taken as the mean of a calibration
    right before and one right after it."""
    settle()
    before = calibrate()
    t0 = perf_counter()
    out = run(*args)
    elapsed = perf_counter() - t0
    after = calibrate()
    return out, elapsed, elapsed * CALIBRATION_S * 2 / (before + after)


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and its
    value. With ten samples or fewer, the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(w: Workload, corpus, seconds: float, setup_s: float):
    check = Checker(w)
    raw: list[float] = []
    latencies: list[float] = []
    good = 0
    while sum(raw) < seconds or not raw:
        item = corpus[len(raw) % len(corpus)]
        out, elapsed, scaled = timed(_execute, w.run, item)
        raw.append(elapsed)
        latencies.append(scaled)
        good += check(item, out)
    pct, tail_value = tail(latencies)
    metrics = {
        "throughput_ips": (good / sum(latencies), "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail_value, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(w.measures_children), "MB"),
    }
    notes = check.notes() + [
        f"{len(raw)} inputs in a closed loop with one client, {sum(raw):.3f} s timed",
        f"latency_tail_s is the p{pct:.1f} latency of {len(raw)} inputs",
        f"times are normalized; raw median latency {statistics.median(raw)!r} s,"
        f" raw throughput {good / sum(raw)!r} 1/s",
    ]
    return check.attempted, check.failed, metrics, notes


def layer_metrics(totals: LayerTotals, ops: int, traced_s: float, untraced_s: float, probes):
    def per_op(name):
        return (totals.self_s[name] / ops, "s/op")

    def calls(name):
        return (totals.calls[name] / ops, "calls/op")

    def ratio(a, b):
        return (a / b if b else 0.0, "ratio")

    c = totals.calls
    metrics = {
        "model.parse_s": per_op("model.parse"),
        "model.induced_graph_s": per_op("model.induced_graph"),
        "model.induced_graph.calls": calls("model.induced_graph"),
        "model.layer_graph.calls": calls("model.layer_graph"),
        "model.layer_graph.hit_ratio": (
            1.0 - ratio(c["model.induced_graph"], c["model.layer_graph"])[0],
            "ratio",
        ),
        "model.remove_vertices_s": per_op("model.remove_vertices"),
        "model.remove_vertices.calls": calls("model.remove_vertices"),
        "conflict.conflict_graph_s": per_op("conflict.conflict_graph"),
        "conflict.independence_check_s": per_op("conflict.independence_check"),
        "order.recognize_s": per_op("order.recognize"),
        "order.recognize.calls": calls("order.recognize"),
        "order.pooled_matrix_s": per_op("order.pooled_matrix"),
        "order.conflict_model_s": per_op("order.conflict_model"),
        "intervals.maximal_cliques_s": per_op("intervals.maximal_cliques"),
        "intervals.normalize_s": per_op("intervals.normalize"),
        "intervals.mwis_interval_s": per_op("intervals.mwis_interval"),
        "intervals.c1p_test_s": per_op("intervals.c1p_test"),
        "intervals.c1p_test.calls": calls("intervals.c1p_test"),
        "pqtree.c1p_order_s": per_op("pqtree.c1p_order"),
        "pqtree.c1p_order.calls": calls("pqtree.c1p_order"),
        "pqtree.reduce.calls": calls("pqtree.reduce"),
        "pqtree.c1p_order_per_c1p_test": ratio(c["pqtree.c1p_order"], c["intervals.c1p_test"]),
        "opvd.min_opvd_s": per_op("opvd.min_opvd"),
        "opvd.recognitions": calls("opvd.recognitions"),
        "opvd.op_ratio": ratio(c["opvd.recognitions.yes"], c["opvd.recognitions"]),
        "solvers.exact_s": per_op("solvers.exact"),
        "solvers.greedy_s": per_op("solvers.greedy"),
        "solvers.op_s": per_op("solvers.op"),
        "solvers.fpt_s": per_op("solvers.fpt"),
        "solvers.verify_s": per_op("solvers.verify"),
        "solvers.fpt.op_solves": calls("solvers.fpt.op_solves"),
        "cli.interpreter_s": (statistics.median(probes) if probes else 0.0, "s/op"),
        "cli.import_s": per_op("cli.import"),
        "cli.run_s": per_op("cli.run"),
        "trace.overhead_ratio": ratio(traced_s, untraced_s),
    }
    for module in MODULES:
        own = sum(s for name, s in totals.self_s.items() if name.startswith(module + "."))
        metrics[f"share.{module}"] = (100.0 * own / traced_s, "%")
    return metrics


def per_layer(w: Workload, corpus, seconds: float):
    check = Checker(w)
    tracer, totals = Tracer(), LayerTotals()
    probes: list[float] = []
    traced_s = untraced_s = 0.0
    ops = 0
    while ops == 0 or traced_s + untraced_s < seconds:
        item = corpus[ops % len(corpus)]
        for traced in (False, True) if ops % 2 == 0 else (True, False):
            settle()
            t0 = perf_counter()
            if traced:
                out = _execute(w.run_traced, item, tracer)
            else:
                out = _execute(w.run, item)
            elapsed = perf_counter() - t0
            spans, counts = tracer.take()
            if traced:
                totals.fold(spans, counts)
                traced_s += elapsed
            else:
                untraced_s += elapsed
            check(item, out)
        probe = w.probe()
        if probe is not None:
            probes.append(probe)
        ops += 1
    notes = check.notes() + [
        f"{ops} inputs, each run once untraced and once traced;"
        " per-layer times are self times per traced operation",
    ]
    metrics = layer_metrics(totals, ops, traced_s, untraced_s, probes)
    return check.attempted, check.failed, metrics, notes


def run(name: str, seed: int, seconds: float, trace: bool, toy: bool = False):
    """Set up and run one workload; returns (attempted, failed, metrics,
    notes), where metrics maps a name to (value, unit)."""
    w = WORKLOADS[name](toy)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".benchwork-") as tmp:
        times = []
        for _ in range(SETUP_REPEATS):
            corpus, _, scaled = timed(w.corpus, seed, Path(tmp))
            times.append(scaled)
        w.warm_up()
        if trace:
            return per_layer(w, corpus, seconds)
        return end_to_end(w, corpus, seconds, statistics.median(times))
