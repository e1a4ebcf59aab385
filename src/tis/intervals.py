"""Interval-graph algorithmics.

Maximum-weight independent set on interval models, the canonical tie break
shared with the exact solver, maximal clique enumeration by a sweep of an
interval model, consecutive-ones testing with minimal witnesses, and
normalization of a graph to an agreeing right-endpoint ordering. An
edge-list layer declared unit is verified by the C1P test of its
closed-neighbourhood matrix (a graph is unit interval iff that matrix has
the consecutive ones property, Roberts 1969) and gets its cliques from its
normalized model along the resulting umbrella ordering (`ensure_unit`), so
both instance modes share the one sweep.

A vertex ordering `agrees` with a graph when the graph has an interval model
whose right endpoints appear in exactly that order. That holds iff, for every
vertex, its neighbors at earlier positions occupy a contiguous block of
positions ending immediately before it. Normalizing to an agreeing ordering
puts right(v) at v's 1-based position and left(v) at the smallest position
among the vertices sharing a clique with v. One pass over the edge pairs
counts each vertex's earlier neighbours and finds the leftmost
(`_leftmost_earlier`); normalization, recognition's re-check of a layer's
edge set and the solvers' DP plan all read it.

The canonical optimum is the lexicographically smallest maximum-weight set.
`canonical_optimum` gets it from one optimizer run on perturbed integer
weights, w_int(v) * 2^n + 2^(n-1-v), which make that set the only maximum;
`mwis_interval` runs one interval-scheduling DP (`_schedule`) on those
weights; the solvers' sweep plans it from `_leftmost_earlier` instead and
runs it once per subset of S, with each blocked vertex at weight zero.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .model import (
    _EXACT,
    InternalError,
    IntervalModel,
    NotUnitError,
    Solution,
    StaticGraph,
    TemporalIntervalInstance,
    dense_index,
)
from .pqtree import c1p_order, check_consecutive


class OrderingIncompatible(ValueError):
    """A model/graph does not agree with the requested vertex ordering."""

    def __init__(self, message: str, pair: tuple[int, int] | None = None):
        self.pair = pair
        super().__init__(message)


@dataclass(frozen=True)
class REOrdering:
    """A total vertex order, realizable as a right-endpoint order: order[j]
    is the vertex whose normalized right endpoint is j + 1."""

    order: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.order) != list(range(len(self.order))):
            raise ValueError("ordering is not a permutation of 0..n-1")

    @property
    def n(self) -> int:
        return len(self.order)


@dataclass(frozen=True)
class C1PResult:
    """Either a column ordering making every row consecutive, or an
    inclusion-minimal column subset whose submatrix has no such ordering
    (None when the test ran without a witness)."""

    ordering: tuple[int, ...] | None
    witness: tuple[int, ...] | None

    @property
    def is_c1p(self) -> bool:
        return self.ordering is not None


def c1p_test(
    rows: Sequence[frozenset[int]], ncols: int, *, witness: bool = True
) -> C1PResult:
    """Consecutive-ones test of the 0/1 matrix whose rows are the given
    column sets over columns 0..ncols-1, with a verified ordering or a
    minimal witness.

    The consecutive ones property is hereditary under column deletion, so
    shrink_witness yields an inclusion-minimal non-C1P column subset. With
    `witness=False` a negative answer carries witness None and costs one
    PQ-tree run instead of the shrink's probes; a positive answer is
    verified either way."""
    order = c1p_order(rows, ncols)
    if order is not None:
        if not check_consecutive(rows, order):
            raise InternalError("returned ordering failed row scan")
        return C1PResult(ordering=tuple(order), witness=None)
    if not witness:
        return C1PResult(ordering=None, witness=None)
    return C1PResult(
        ordering=None,
        witness=shrink_witness(
            range(ncols),
            lambda cols: c1p_order([r & cols for r in rows], ncols) is None,
        ),
    )


def shrink_witness(
    items: Iterable[int], fails: Callable[[frozenset[int]], bool]
) -> tuple[int, ...]:
    """An inclusion-minimal subset of `items` on which `fails` holds.

    Requires `fails(items)`, not `fails(∅)`, and a hereditary failure:
    whenever a subset fails, so does every superset of it. The result is
    the set an ascending pass returns (drop each item whose removal keeps
    the subset failing), found by QuickXplain (Junker, AAAI 2004) over the
    items in descending order. `explain` returns the candidates needed on
    top of a base: none when the base alone fails, otherwise split them,
    find the second half's needed items with the whole first half in the
    base, then the first half's with those. A w-element witness among n
    items costs O(w log(n/w)) probes instead of n.
    """

    def explain(base: frozenset[int], grew: bool, cands: list[int]) -> frozenset[int]:
        if grew and fails(base):
            return frozenset()
        if len(cands) <= 1:
            return frozenset(cands)
        head, tail = cands[: len(cands) // 2], cands[len(cands) // 2 :]
        need_tail = explain(base | frozenset(head), True, tail)
        need_head = explain(base | need_tail, bool(need_tail), head)
        return need_head | need_tail

    descending = sorted(set(items), reverse=True)
    return tuple(sorted(explain(frozenset(), False, descending)))


def canonical_optimum(
    weights: Sequence[Fraction], maximize: Callable[[list[int]], Iterable[int]]
) -> tuple[frozenset[int], Fraction]:
    """The lexicographically smallest maximum-weight feasible set (indices
    into `weights`) and its weight, from one run of an optimizer.

    `maximize(W)` returns a feasible set of largest total W. Here
    W(v) = w_int(v) * 2^n + 2^(n-1-v), with w_int the weights scaled to
    integers by the LCM of their denominators. The bonuses of a set sum to
    less than 2^n, so the maximum is unique: the optimal set that holds the
    first vertex where two optimal sets differ. Its shortest prefix of
    optimal weight (the empty one included) only drops trailing zero-weight
    vertices, and is the lexicographically smallest optimal set.
    """
    n = len(weights)
    scale = math.lcm(*(w.denominator for w in weights))
    ints = [w.numerator * (scale // w.denominator) for w in weights]
    chosen = sorted(maximize([w << n | 1 << (n - 1 - v) for v, w in enumerate(ints)]))
    opt = sum(ints[v] for v in chosen)
    total = cut = 0
    while total != opt:
        total += ints[chosen[cut]]
        cut += 1
    return frozenset(chosen[:cut]), Fraction(opt, scale)


# -- maximum-weight independent set on an interval model ---------------------


def mwis_interval(model: IntervalModel, weights: Sequence[Fraction]) -> Solution:
    """Maximum-total-weight set of pairwise non-intersecting intervals, for
    nonnegative int or Fraction weights (TypeError for any other type).

    Among equal-weight optima, returns the lexicographically smallest index
    set (canonical_optimum on one interval-scheduling DP).
    """
    if len(weights) != model.n:
        raise ValueError("weight count does not match model size")
    for w in weights:
        if type(w) not in _EXACT:
            raise TypeError(f"weight {w!r}: weights must be int or Fraction")
    if any(w < 0 for w in weights):
        raise ValueError("negative weight refused")
    # plan: items by (right rank, vertex); prev[i] counts those ending
    # before item i starts (touching intervals conflict)
    left, right, _, items = model.ranks()
    rights = [right[v] for v in items]
    prev = [bisect.bisect_left(rights, left[v], 0, i) for i, v in enumerate(items)]
    selected, opt = canonical_optimum(
        weights, lambda iw: [items[i] for i in _schedule(prev, [iw[v] for v in items])]
    )
    return Solution(selected, opt, "mwis-interval")


def _schedule(prev: Sequence[int], weights: Sequence[int]) -> list[int]:
    """A maximum-weight set of pairwise disjoint items of a plan, weights[i]
    the weight of item i: the classic DP, then a walk back through it. The
    walk never takes a weight-0 item, since best[] never falls and
    prev[i] <= i, so a zero weight blocks an item without a second plan."""
    best = [0]
    for i, p in enumerate(prev):
        best.append(max(best[i], weights[i] + best[p]))
    chosen = []
    i = len(prev)
    while i:
        if best[i] == best[i - 1]:
            i -= 1
        else:
            chosen.append(i - 1)
            i = prev[i - 1]
    return chosen


# -- maximal cliques ---------------------------------------------------------


def maximal_cliques(
    model: IntervalModel, *, skip: frozenset[int] = frozenset()
) -> list[frozenset[int]]:
    """Maximal cliques of the model's graph, ordered by sweep position; with
    `skip`, those of the model without these vertices, in survivor indices
    (the cliques of `model.restrict(survivors)`, see edge_pairs).

    Every maximal clique of an interval graph shows up as the set K_p of
    intervals covering some right endpoint p (the smallest right endpoint in
    the clique). The sweep walks the distinct right endpoints in ascending
    order, keeping the covering set as intervals enter (left <= p) and
    leave (right < p), and emits K_p exactly when some interval entered
    since the previous point. Such a K_p holds an interval that no earlier
    point covers and one that ends at p, so it is no subset of any other
    K_q: no duplicate and no non-maximal set is emitted. When nothing
    entered, K_p is a proper subset of the previous point's set. So the
    emitted sets are the maximal cliques, each charged to a distinct
    interval, in O(n log n) comparisons plus the output size. The sweep
    runs on the model's endpoint ranks and passes over skipped vertices, so
    the covering set sees the same additions and removals as a sweep of the
    restricted model.
    """
    left, right, by_left, by_right = model.ranks()
    idx = dense_index(model.n, skip)
    n = len(by_left)
    out: list[frozenset[int]] = []
    active: set[int] = set()
    entering = leaving = 0
    last = -1
    for i, v in enumerate(by_right):
        p = right[v]
        if v in skip or p == last:
            continue  # one candidate per distinct surviving right endpoint
        last = p
        while leaving < i:  # by_right[:i] are the intervals ending before p
            u = by_right[leaving]
            if u not in skip:
                active.remove(idx[u])
            leaving += 1
        grew = False
        while entering < n and left[by_left[entering]] <= p:
            u = by_left[entering]
            if u not in skip:
                active.add(idx[u])
                grew = True
            entering += 1
        if grew:
            out.append(frozenset(active))
    return out


# -- agreement with an ordering and normalization ----------------------------


def _leftmost_earlier(
    n: int, edges: Iterable[tuple[int, int]], ordering: REOrdering
) -> list[int]:
    """For each position j, the smallest position among j and the earlier
    neighbours of the vertex at j, when the ordering agrees with the graph
    on 0..n-1 with these edges (each given once, either way round).

    The earlier neighbours of w fill positions lo..j-1 iff there are j - lo
    of them, lo being the smallest: one pass over the edges counts them and
    takes the min, O(n + m). Raises OrderingIncompatible with the first
    violating pair (the vertex at lo, w) otherwise."""
    if ordering.n != n:
        raise ValueError("ordering size does not match graph")
    order = ordering.order
    pos = [0] * n
    for j, v in enumerate(order):
        pos[v] = j
    lows = list(range(n))
    earlier = [0] * n
    for u, v in edges:
        p, q = pos[u], pos[v]
        if p > q:
            p, q = q, p
        earlier[q] += 1
        if p < lows[q]:
            lows[q] = p
    for j, lo in enumerate(lows):
        if earlier[j] != j - lo:
            pair = (order[lo], order[j])
            raise OrderingIncompatible(
                f"ordering incompatible: violating pair {pair}", pair=pair
            )
    return lows


def normalized_model_for(g: StaticGraph, ordering: REOrdering) -> IntervalModel:
    """The normalized model of g along an agreeing ordering: right(v) = v's
    1-based position, left(v) = smallest position among vertices sharing a
    clique with v (equivalently min over N(v) ∪ {v}). Raises
    OrderingIncompatible when the ordering does not agree with g."""
    intervals: list[tuple[int, int]] = [None] * g.n  # type: ignore
    lows = _leftmost_earlier(g.n, g.edges, ordering)
    for j, (v, lo) in enumerate(zip(ordering.order, lows)):
        intervals[v] = (lo + 1, j + 1)
    return IntervalModel(intervals)


# -- edge-list layers declared unit ------------------------------------------


def _unit_model(g: StaticGraph) -> Optional[IntervalModel]:
    """The normalized model of g along the umbrella ordering of its
    closed-neighbourhood matrix, or None when g is not a unit interval
    graph (the C1P decision alone: no witness is shrunk)."""
    rows = [g.closed_neighborhood(v) for v in range(g.n)]
    res = c1p_test(rows, ncols=g.n, witness=False)
    if not res.is_c1p:
        return None
    try:
        model = normalized_model_for(g, REOrdering(res.ordering))
    except OrderingIncompatible:
        raise InternalError("umbrella ordering does not agree with the graph") from None
    if model.induced_graph() != g:
        raise InternalError("normalized layer model mismatch")
    return model


def ensure_unit(inst: TemporalIntervalInstance) -> tuple[IntervalModel, ...]:
    """An interval model of every layer of inst, in layer order; refuses
    instances that do not carry (and, in edges mode, survive) the unit
    declaration.

    Model-mode layers are their own unit models, their lengths verified at
    construction. An edges-mode declaration is verified here layer by
    layer, on the first call only, by the C1P decision alone (a refusal
    shrinks no witness). Each layer then gets its normalized model along
    the umbrella ordering: integer endpoints in 1..n, right(v) the
    position of v, not unit length. Every clique sweep needs only some
    model of the layer, and each kept model induces exactly its layer (the
    instance is immutable). Unit interval graphs are hereditary, so the
    verdict also holds for every induced sub-instance."""
    if not inst.unit_flag:
        raise NotUnitError("operation requires a unit instance (unit flag false)")
    if inst.mode == "model":
        return inst.layers
    if inst._unit_models is None:
        models = []
        for t in range(1, inst.tau + 1):
            model = _unit_model(inst.layer_graph(t))
            if model is None:
                raise NotUnitError(
                    f"unit declared but layer {t} is not a unit interval graph"
                )
            models.append(model)
        object.__setattr__(inst, "_unit_models", tuple(models))
    return inst._unit_models
