"""In-memory span tracing for the benchmark's traced runs.

The benchmark does not change the program to trace it. While a Tracer is
installed, the library functions below are replaced at the module bindings
through which their callers look them up, by wrappers that record a span
(name, start, end, parent span, note) or bump a counter. The originals are
put back when the `installed` block ends. Spans stay in memory; the harness
folds each operation's spans into per-layer self times and counts.

A span's self time is its duration minus the durations of its direct
children. Calls are strictly nested in one thread, so children never
overlap and this equals the time not covered by any child span.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import Counter

perf = time.perf_counter

# Span name -> the (module, attribute) bindings that callers use. Entries for
# modules not yet imported are skipped, so in-process runs never import
# tis.cli.
SPANS: dict[str, list[tuple[str, str]]] = {
    "model.parse": [("tis.model", "parse_instance"), ("tis.cli", "parse_instance")],
    "model.induced_graph": [("tis.model", "IntervalModel.induced_graph")],
    "model.remove_vertices": [
        ("tis.opvd", "remove_vertices"),
        ("tis.solvers", "remove_vertices"),
    ],
    "conflict.conflict_graph": [("tis.solvers", "conflict_graph")],
    "conflict.independence_check": [("tis.solvers", "delta_independence_check")],
    "order.recognize": [
        ("tis.order", "recognize_order_preserving"),
        ("tis.opvd", "recognize_order_preserving"),
        ("tis.solvers", "recognize_order_preserving"),
        ("tis.cli", "recognize_order_preserving"),
    ],
    "order.pooled_matrix": [("tis.order", "pooled_clique_matrix")],
    "order.conflict_model": [("tis.solvers", "conflict_interval_model")],
    "intervals.maximal_cliques": [("tis.order", "maximal_cliques")],
    "intervals.normalize": [("tis.order", "normalized_model_for")],
    "intervals.mwis_interval": [("tis.solvers", "mwis_interval")],
    "intervals.c1p_test": [("tis.order", "c1p_test")],
    "pqtree.c1p_order": [("tis.intervals", "c1p_order")],
    "opvd.min_opvd": [("tis.opvd", "min_opvd"), ("tis.cli", "min_opvd")],
    "solvers.exact": [
        ("tis.solvers", "solve_exact_bruteforce"),
        ("tis.cli", "solve_exact_bruteforce"),
    ],
    "solvers.greedy": [("tis.solvers", "solve_greedy"), ("tis.cli", "solve_greedy")],
    "solvers.op": [("tis.solvers", "solve_exact_op"), ("tis.cli", "solve_exact_op")],
    "solvers.fpt": [("tis.solvers", "solve_fpt"), ("tis.cli", "solve_fpt")],
    "solvers.verify": [
        ("tis.solvers", "verify_solution"),
        ("tis.cli", "verify_solution"),
    ],
}

# Counter name -> bindings. These are called too often (per layer lookup,
# per PQ-tree row) for a span each.
COUNTS: dict[str, list[tuple[str, str]]] = {
    "model.layer_graph": [("tis.model", "TemporalIntervalInstance.layer_graph")],
    "pqtree.reduce": [("tis.pqtree", "PQTree.reduce")],
}

# Span name -> what to note from the call's result.
NOTES = {"order.recognize": lambda report: bool(report.is_order_preserving)}


class Tracer:
    """Collects spans as [name, start, end, parent index, note] lists and
    counters, in memory, for one operation at a time."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = perf()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def take(self) -> tuple[list[list], Counter]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def _span_wrapper(tracer: Tracer, name: str, fn):
    note = NOTES.get(name)

    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if note is not None:
            tracer.spans[idx][4] = note(result)
        return result

    return traced


def _count_wrapper(tracer: Tracer, name: str, fn):
    def counted(*args, **kwargs):
        tracer.counts[name] += 1
        return fn(*args, **kwargs)

    return counted


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route the bindings in SPANS and COUNTS through `tracer` for the
    duration of the block."""
    saved = []
    try:
        for table, make in ((SPANS, _span_wrapper), (COUNTS, _count_wrapper)):
            for name, bindings in table.items():
                for modname, path in bindings:
                    module = sys.modules.get(modname)
                    if module is None:
                        continue
                    owner = module
                    *outer, attr = path.split(".")
                    for part in outer:
                        owner = getattr(owner, part)
                    original = vars(owner)[attr]
                    setattr(owner, attr, make(tracer, name, original))
                    saved.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class LayerTotals:
    """Self time, call counts and derived counters summed over operations."""

    def __init__(self) -> None:
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()

    def fold(self, spans: list[list], counts: Counter) -> None:
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, note) in enumerate(spans):
            self.self_s[name] += (end - start) - child[i]
            self.calls[name] += 1
            if name == "order.recognize" and _within(spans, i, "opvd.min_opvd"):
                self.calls["opvd.recognitions"] += 1
                self.calls["opvd.recognitions.yes"] += int(bool(note))
            elif name == "solvers.op" and _within(spans, i, "solvers.fpt"):
                self.calls["solvers.fpt.op_solves"] += 1
        self.calls.update(counts)


def _within(spans: list[list], idx: int, ancestor: str) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == ancestor:
            return True
        parent = spans[parent][3]
    return False


TRACE_PREFIX = "#tis-bench-trace "


def traced_cli_main(argv: list[str]) -> int:
    """Entry point of a traced `tis` subprocess: time the import of the
    command line module, run it with tracing installed, and write the spans
    as one JSON line to stderr (stdout stays the command's own output)."""
    tracer = Tracer()
    with tracer.span("cli.import"):
        import tis.cli
    with installed(tracer), tracer.span("cli.run"):
        code = tis.cli.run(argv)
    sys.stdout.flush()
    sys.stderr.write(
        TRACE_PREFIX + json.dumps({"spans": tracer.spans, "counts": tracer.counts}) + "\n"
    )
    return code


def read_child_trace(stderr: str) -> tuple[str, list[list], Counter]:
    """Split a traced child's stderr into its own text and its trace."""
    lines = stderr.splitlines(keepends=True)
    if not lines or not lines[-1].startswith(TRACE_PREFIX):
        raise ValueError("traced subprocess wrote no trace line")
    data = json.loads(lines[-1][len(TRACE_PREFIX):])
    return "".join(lines[:-1]), data["spans"], Counter(data["counts"])
