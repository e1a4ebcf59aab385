"""Conflict graph construction and independence checking.

The conflict graph collects, over a sliding window of consecutive layers, the
edges present in every layer of the window. A vertex set is delta-independent
exactly when it is independent in the conflict graph: for every pair and
every window there is a layer in the window where the pair is non-adjacent.
One window fold (`_window_edges`) serves both. It intersects the layers'
edge sets (`layer_edges`) and runs on the selected set alone for the
independence check; only the conflict graph is built as a graph.

Two window semantics are supported. The default ("figure") uses windows of
exactly delta consecutive layers, starting at 1..tau-delta+1, with a single
all-layer window when delta = tau. The alternate ("formula") uses delta+1
layers per window, starting at 1..tau-delta; it is implemented literally, so
delta = tau yields no windows at all and an empty conflict graph.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .model import StaticGraph, TemporalIntervalInstance


class WindowSemantics(enum.Enum):
    FIGURE = "figure"
    FORMULA = "formula"


@dataclass(frozen=True)
class WindowPlan:
    """Resolved windows for one instance: a window is the layer range
    [start, start + window_length - 1], 1-based inclusive."""

    window_length: int
    starts: tuple[int, ...]

    def layers(self, start: int) -> range:
        return range(start, start + self.window_length)


def window_plan(
    tau: int, delta: int, semantics: WindowSemantics = WindowSemantics.FIGURE
) -> WindowPlan:
    if semantics is WindowSemantics.FIGURE:
        if delta >= tau:
            return WindowPlan(tau, (1,))
        starts = tuple(range(1, tau - delta + 2))
        return WindowPlan(delta, starts)
    # formula semantics: delta+1 layers per window, tau-delta windows
    starts = tuple(range(1, tau - delta + 1))
    return WindowPlan(delta + 1, starts)


def _window_edges(
    inst: TemporalIntervalInstance,
    semantics: WindowSemantics,
    skip: frozenset[int] = frozenset(),
) -> list[tuple[int, frozenset[tuple[int, int]]]]:
    """(start, edges present in every layer of the window) for each window,
    in start order, on inst - skip (survivors re-indexed densely in
    ascending order); each layer's edge set is read once."""
    plan = window_plan(inst.tau, inst.delta, semantics)
    used = {t for start in plan.starts for t in plan.layers(start)}
    edges = {t: inst.layer_edges(t, skip=skip) for t in used}
    return [
        (start, frozenset.intersection(*(edges[t] for t in plan.layers(start))))
        for start in plan.starts
    ]


def conflict_graph(
    inst: TemporalIntervalInstance,
    semantics: WindowSemantics = WindowSemantics.FIGURE,
) -> StaticGraph:
    """Union over windows of the edge-intersection of the window's layers,
    taken on the layers' edge sets; only the result is built as a graph."""
    windows = _window_edges(inst, semantics)
    return StaticGraph(inst.n, frozenset().union(*(common for _, common in windows)))


@dataclass(frozen=True)
class IndependenceReport:
    """Outcome of the delta-independence check. When not independent,
    `violation` names the first (u, v, window_start), in pair and window
    order, whose window contains the pair in every layer.
    """

    independent: bool
    violation: Optional[tuple[int, int, int]] = None


def delta_independence_check(
    inst: TemporalIntervalInstance,
    selected,
    semantics: WindowSemantics = WindowSemantics.FIGURE,
) -> IndependenceReport:
    """Check delta-independence of `selected` (vertex names or indices).

    The conflict graph's window fold runs on inst minus the unselected
    vertices, so each layer's edge set holds the selected set S alone, and
    no graph is built. A model layer's sweep on its cached ranks walks past
    the unselected intervals, so it costs O(n + m) for a layer of m edges;
    an edge list is filtered in O(m). Any edge left is a violation; dense
    re-indexing keeps the vertex order, so the smallest (a, b, start) maps
    back to the first violating pair, then window.
    """
    S = sorted(inst.vertex_set(selected))
    unselected = frozenset(range(inst.n)).difference(S)
    windows = _window_edges(inst, semantics, unselected)
    first = min((e + (start,) for start, common in windows for e in common), default=None)
    if first is None:
        return IndependenceReport(True)
    return IndependenceReport(False, (S[first[0]], S[first[1]], first[2]))

