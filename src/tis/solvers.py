"""Solvers for maximum-weight delta-independent sets.

Four strategies, all returning Solution values whose selected sets pass
delta_independence_check on the input instance:

  solve_exact_bruteforce  branch and bound on the conflict graph (int
                          bitmasks)
  solve_greedy            weight-greedy with closed-neighborhood removal
  solve_exact_op          the sweep with S empty, along an ordering that
                          agrees with the conflict graph
  solve_fpt               parameterized by a deletion set S: the sweep
                          along the common ordering of inst - S

`_sweep` plans one interval-scheduling DP from the conflict graph's edges
without S, along the ordering, and runs it once per independent subset of
S. The conflict graph and the certificate come from `conflict`'s window fold.

The three exact solvers return the canonical optimum, the lexicographically
smallest optimal index set, from one optimizer run on the perturbed integer
weights of intervals.canonical_optimum. So tests may compare their selected
sets, not just objectives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from . import opvd
from .conflict import (
    IndependenceReport,
    WindowSemantics,
    conflict_graph,
    delta_independence_check,
)
from .intervals import REOrdering, _leftmost_earlier, _schedule, canonical_optimum
from .model import (
    InternalError,
    LimitExceeded,
    Solution,
    StaticGraph,
    TemporalIntervalInstance,
)
from .order import recognize_order_preserving

# Unused here; benchmark/tracing.py wraps these tis.solvers bindings.
from .intervals import mwis_interval  # noqa: F401
from .model import remove_vertices  # noqa: F401
from .order import conflict_interval_model  # noqa: F401

BRUTEFORCE_DEFAULT_LIMIT = 30


def _mwis_graph_kernel(
    g: StaticGraph, weights: Sequence[int]
) -> tuple[int, list[int]]:
    """The maximum total weight of an independent set of g, for nonnegative
    integer weights, and the first such set found.

    Adjacency is one int bitmask per vertex. Branch and bound on an explicit
    stack: peel isolated vertices for free, branch on the highest-degree
    remaining vertex (ties: smallest index), include before exclude, and
    prune when the current weight plus all remaining weight, carried along
    rather than re-summed, cannot beat the incumbent. Each stack entry
    carries the set chosen so far.
    """
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    best = best_set = 0
    stack = [((1 << g.n) - 1, 0, sum(weights), 0)]
    while stack:
        remaining, current, rest, chosen = stack.pop()
        if current > best:
            best, best_set = current, chosen
        if not remaining or current + rest <= best:
            continue
        iso = iso_w = 0
        top = top_deg = -1
        m = remaining
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            deg = (adj[v] & remaining).bit_count()
            if deg == 0:
                iso |= low
                iso_w += weights[v]
            elif deg > top_deg:
                top, top_deg = v, deg
        if iso:
            current += iso_w
            rest -= iso_w
            remaining ^= iso
            chosen |= iso
            if current > best:
                best, best_set = current, chosen
            if not remaining or current + rest <= best:
                continue
        low, w = 1 << top, weights[top]
        stack.append((remaining ^ low, current, rest - w, chosen))
        drop = adj[top] & remaining
        dropped = w
        while drop:
            bit = drop & -drop
            drop ^= bit
            dropped += weights[bit.bit_length() - 1]
        kept = remaining & ~(adj[top] | low)
        stack.append((kept, current + w, rest - dropped, chosen | low))
    return best, [v for v in range(g.n) if best_set >> v & 1]


def _certified(
    inst: TemporalIntervalInstance,
    selected: frozenset[int],
    objective: Fraction,
    algorithm: str,
    semantics: WindowSemantics,
) -> Solution:
    """Wrap a solver's answer, with its independence report as certificate;
    a dependent answer is a bug in the solver."""
    report = delta_independence_check(inst, selected, semantics)
    if not report.independent:
        raise InternalError(
            f"{algorithm} returned a set that is not delta independent: "
            f"violation (u, v, window start) = {report.violation}"
        )
    return Solution(selected, objective, algorithm, certificate=report)


def solve_exact_bruteforce(
    inst: TemporalIntervalInstance,
    semantics: WindowSemantics = WindowSemantics.FIGURE,
    limit: int = BRUTEFORCE_DEFAULT_LIMIT,
) -> Solution:
    """Exact maximum-weight delta-independent set via the conflict graph:
    one branch and bound on the perturbed weights of canonical_optimum."""
    if inst.n > limit:
        raise LimitExceeded(f"bruteforce capped at n <= {limit}, got {inst.n}")
    g = conflict_graph(inst, semantics)
    selected, objective = canonical_optimum(
        inst.weights, lambda weights: _mwis_graph_kernel(g, weights)[1]
    )
    return _certified(inst, selected, objective, "bruteforce", semantics)


def solve_greedy(
    inst: TemporalIntervalInstance,
    semantics: WindowSemantics = WindowSemantics.FIGURE,
) -> Solution:
    """Pick the heaviest remaining vertex (ties: smallest index), discard its
    closed conflict neighborhood, repeat: one pass over the vertices sorted
    by (-weight, index) that skips discarded ones. Runs anywhere, no
    optimality."""
    g = conflict_graph(inst, semantics)
    removed: set[int] = set()
    chosen: list[int] = []
    for v in sorted(range(inst.n), key=lambda u: (-inst.weights[u], u)):
        if v not in removed:
            chosen.append(v)
            removed |= g.neighbors(v)
    total = sum((inst.weights[v] for v in chosen), Fraction(0))
    return _certified(inst, frozenset(chosen), total, "greedy", semantics)


def _sweep(
    inst: TemporalIntervalInstance,
    deletion: frozenset[int],
    ordering: REOrdering,
    semantics: WindowSemantics,
    algorithm: str,
) -> Solution:
    """The canonical optimum of inst, given a deletion set S and an ordering
    of inst - S (survivors re-indexed densely in ascending order) agreeing
    with its conflict graph (that of inst induced on the survivors);
    OrderingIncompatible otherwise.

    The DP items are the survivors in ordering order; prev[j], the leftmost
    position among item j and its earlier neighbours, counts the items
    ending before item j's normalized interval [prev[j] + 1, j + 1] starts.
    The subsets X of S independent in the conflict graph of inst grow in
    ascending order, only by vertices with no neighbour in X. Each X runs
    the DP with its neighbours at weight 0, which the DP never takes; the
    best X plus remainder is the maximizer of one canonical_optimum call.
    """
    g = conflict_graph(inst, semantics)
    keep = [v for v in range(inst.n) if v not in deletion]
    prev = _leftmost_earlier(len(keep), g.edge_pairs(skip=deletion), ordering)
    items = [keep[j] for j in ordering.order]  # plan items as vertices of inst
    at = {v: i for i, v in enumerate(items)}
    subsets: list[tuple[int, ...]] = [()]
    for v in sorted(deletion):
        subsets += [x + (v,) for x in subsets if g.neighbors(v).isdisjoint(x)]
    blocks = {v: [at[u] for u in g.neighbors(v) if u not in deletion] for v in deletion}

    def maximize(weights: list[int]) -> list[int]:
        base = [weights[v] for v in items]

        def run(x: tuple[int, ...]) -> list[int]:
            w = base.copy()
            for v in x:
                for i in blocks[v]:
                    w[i] = 0
            return [*x, *(items[i] for i in _schedule(prev, w))]

        return max(map(run, subsets), key=lambda xs: sum(weights[v] for v in xs))

    selected, objective = canonical_optimum(inst.weights, maximize)
    return _certified(inst, selected, objective, algorithm, semantics)


def solve_exact_op(
    inst: TemporalIntervalInstance,
    ordering: REOrdering,
    semantics: WindowSemantics = WindowSemantics.FIGURE,
) -> Solution:
    """Exact solve for an instance whose conflict graph agrees with
    `ordering` (as it does when every layer does; OrderingIncompatible
    otherwise): the sweep with no deletion set, instead of branching."""
    if ordering.n != inst.n:
        raise ValueError("ordering size does not match instance")
    return _sweep(inst, frozenset(), ordering, semantics, "exact-op")


def solve_fpt(
    inst: TemporalIntervalInstance,
    deletion_set: Iterable,
    semantics: WindowSemantics = WindowSemantics.FIGURE,
) -> Solution:
    """Exact solve parameterized by a deletion set S to order preservation:
    the sweep along the common ordering of inst - S. Recognizes inst - S in
    place, so an edges-mode unit declaration is verified once, on inst, and
    builds no reduced instance. Requires inst - S to be order preserving.
    Runtime is exponential only in |S|.
    """
    s_set = inst.vertex_set(deletion_set)
    rep = recognize_order_preserving(inst, witness=False, deleted=s_set)
    if rep.ordering is None:
        raise ValueError("deletion set does not leave an order-preserving instance")
    return _sweep(inst, s_set, rep.ordering, semantics, "fpt")


def solve(
    inst: TemporalIntervalInstance,
    alg: str,
    semantics: WindowSemantics = WindowSemantics.FIGURE,
    limit: int = BRUTEFORCE_DEFAULT_LIMIT,
    deletion_set: Optional[Iterable] = None,
) -> Optional[Solution]:
    """Run one algorithm end to end: "exact" (bruteforce, capped at
    `limit` vertices), "greedy", "op" (recognition, then the sweep; None when
    the instance is not order preserving) or "fpt" (solve_fpt; with no
    `deletion_set`, min_opvd's set and the sweep along its ordering, which
    is the one solve_fpt would recognize again)."""
    if alg == "exact":
        return solve_exact_bruteforce(inst, semantics, limit=limit)
    if alg == "greedy":
        return solve_greedy(inst, semantics)
    if alg == "op":
        rep = recognize_order_preserving(inst, witness=False)
        if rep.ordering is None:
            return None
        return solve_exact_op(inst, rep.ordering, semantics)
    if alg == "fpt":
        if deletion_set is not None:
            return solve_fpt(inst, deletion_set, semantics)
        res = opvd.min_opvd(inst)
        keep = [v for v in range(inst.n) if v not in res.deletion_set]
        at = {v: i for i, v in enumerate(keep)}
        ordering = REOrdering(tuple(at[v] for v in res.ordering))
        return _sweep(inst, res.deletion_set, ordering, semantics, "fpt")
    raise ValueError(f"unknown algorithm {alg!r}")


@dataclass(frozen=True)
class VerificationReport:
    independent: bool
    cardinality: int
    k: int
    meets_k: bool
    total_weight: Fraction
    accepted: bool
    certificate: IndependenceReport


def verify_solution(
    inst: TemporalIntervalInstance,
    selected: Iterable,
    semantics: WindowSemantics = WindowSemantics.FIGURE,
) -> VerificationReport:
    """Judge a proposed vertex set: delta independence, cardinality against
    the instance target k, and total weight. Accepts iff independent and
    |selected| >= k."""
    sel = inst.vertex_set(selected)
    report = delta_independence_check(inst, sel, semantics)
    weight = sum((inst.weights[v] for v in sel), Fraction(0))
    meets = len(sel) >= inst.k
    return VerificationReport(
        independent=report.independent,
        cardinality=len(sel),
        k=inst.k,
        meets_k=meets,
        total_weight=weight,
        accepted=report.independent and meets,
        certificate=report,
    )
