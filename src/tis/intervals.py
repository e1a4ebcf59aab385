"""Interval-graph algorithmics.

Maximum-weight independent set on interval models, the canonical tie break
shared with the exact solver, maximal clique enumeration by a sweep of an
interval model, consecutive-ones testing with minimal witnesses,
unit-interval recognition with model synthesis, and normalization of a graph
to an agreeing right-endpoint ordering. An edge-list layer declared unit
gets its cliques from the unit model its recognition synthesizes
(`ensure_unit`), so both instance modes share the one sweep.

A vertex ordering `agrees` with a graph when the graph has an interval model
whose right endpoints appear in exactly that order. That holds iff, for every
vertex, its neighbors at earlier positions occupy a contiguous block of
positions ending immediately before it (checked by `ordering_agrees`).
Normalizing to an agreeing ordering puts right(v) at v's 1-based position and
left(v) at the smallest position among the vertices sharing a clique with v.
One pass along the ordering finds each vertex's leftmost earlier neighbour
(`_leftmost_earlier`); agreement, normalization and unit synthesis all read it.

The canonical optimum is the lexicographically smallest maximum-weight set.
`canonical_optimum` gets it from one optimizer run on perturbed integer
weights, w_int(v) * 2^n + 2^(n-1-v), which make that set the only maximum;
`mwis_interval` is one interval-scheduling DP on those weights.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .model import (
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
    """Maximum-total-weight set of pairwise non-intersecting intervals.

    Among equal-weight optima, returns the lexicographically smallest index
    set (canonical_optimum on one interval-scheduling DP).
    """
    if len(weights) != model.n:
        raise ValueError("weight count does not match model size")
    weights = [Fraction(w) for w in weights]
    if any(w < 0 for w in weights):
        raise ValueError("negative weight refused")
    selected, opt = canonical_optimum(
        weights, lambda iw: _interval_schedule(model, iw)
    )
    return Solution(selected, opt, "mwis-interval")


def _interval_schedule(model: IntervalModel, weights: Sequence[int]) -> list[int]:
    """A maximum-weight set of pairwise disjoint closed intervals (touching
    intervals conflict): the classic weighted interval-scheduling DP over
    the intervals sorted by (right endpoint, vertex), then a walk back
    through it. It runs on the endpoint ranks, which keep order and ties."""
    left, right, _, items = model.ranks()
    rights = [right[v] for v in items]
    best, prev = [0], []  # prev[i]: how many items end before items[i] starts
    for i, v in enumerate(items):
        prev.append(bisect.bisect_left(rights, left[v], 0, i))
        best.append(max(best[i], weights[v] + best[prev[i]]))
    chosen = []
    i = len(items)
    while i:
        if best[i] == best[i - 1]:
            i -= 1
        else:
            chosen.append(items[i - 1])
            i = prev[i - 1]
    return chosen


# -- maximal cliques ---------------------------------------------------------


def maximal_cliques(
    model: IntervalModel, *, skip: frozenset[int] = frozenset()
) -> list[frozenset[int]]:
    """Maximal cliques of the model's graph, ordered by sweep position; with
    `skip`, those of the model without these vertices, in survivor indices
    (the cliques of `model.restrict(survivors)`, see induced_graph).

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


def _leftmost_earlier(g: StaticGraph, ordering: REOrdering) -> list[int]:
    """For each position j, the smallest position among j and the earlier
    neighbours of the vertex at j, when the ordering agrees with g.

    The earlier neighbours of w fill positions lo..j-1 iff there are j - lo
    of them, lo being the smallest: O(n + m) over all positions. Raises
    OrderingIncompatible with the first violating pair (the vertex at lo,
    w) otherwise."""
    if ordering.n != g.n:
        raise ValueError("ordering size does not match graph")
    order = ordering.order
    pos = [0] * g.n
    for j, v in enumerate(order):
        pos[v] = j
    lows = []
    for j, w in enumerate(order):
        below = [p for p in map(pos.__getitem__, g.neighbors(w)) if p < j]
        lo = min(below, default=j)
        if len(below) != j - lo:
            pair = (order[lo], w)
            raise OrderingIncompatible(
                f"ordering incompatible: violating pair {pair}", pair=pair
            )
        lows.append(lo)
    return lows


def ordering_agrees(
    g: StaticGraph, ordering: REOrdering
) -> Optional[tuple[int, int]]:
    """None when some interval model of g has its right endpoints in this
    order; otherwise a violating pair (u, w): the edge {u, w} spans a
    position whose vertex is not adjacent to w."""
    try:
        _leftmost_earlier(g, ordering)
    except OrderingIncompatible as exc:
        return exc.pair
    return None


def normalized_model_for(g: StaticGraph, ordering: REOrdering) -> IntervalModel:
    """The normalized model of g along an agreeing ordering: right(v) = v's
    1-based position, left(v) = smallest position among vertices sharing a
    clique with v (equivalently min over N(v) ∪ {v}). Raises
    OrderingIncompatible when the ordering does not agree with g."""
    intervals: list[tuple[Fraction, Fraction]] = [None] * g.n  # type: ignore
    for j, (v, lo) in enumerate(zip(ordering.order, _leftmost_earlier(g, ordering))):
        intervals[v] = (Fraction(lo + 1), Fraction(j + 1))
    return IntervalModel(intervals)


# -- unit-interval recognition -----------------------------------------------


@dataclass(frozen=True)
class UnitIntervalResult:
    """Outcome of unit-interval recognition: a unit-length model on success,
    or a minimal vertex set whose closed-neighborhood submatrix is non-C1P."""

    model: IntervalModel | None
    ordering: REOrdering | None
    witness: tuple[int, ...] | None

    @property
    def ok(self) -> bool:
        return self.model is not None


def recognize_unit_interval(g: StaticGraph) -> UnitIntervalResult:
    """Recognize unit (= proper) interval graphs and synthesize a unit model.

    A graph is a proper interval graph iff its closed-neighborhood matrix has
    the consecutive ones property; the C1P column order is then an umbrella
    ordering. Left endpoints along that ordering are pinned by an exact
    difference-constraint system (adjacent to the leftmost below-neighbor,
    separated from the one before it) solved with a symbolic infinitesimal
    margin, which one rational margin then realizes (`_unit_lefts`), so
    closed-interval touching comes out exactly right. The model is compared
    with g by the rank sweep, an internal error should they differ. Failure
    is a value carrying the witness, not an exception.
    """
    n = g.n
    if n == 0:
        return UnitIntervalResult(IntervalModel([]), REOrdering(()), None)
    rows = [g.closed_neighborhood(v) for v in range(n)]
    res = c1p_test(rows, ncols=n)
    if not res.is_c1p:
        return UnitIntervalResult(None, None, res.witness)
    sigma = REOrdering(res.ordering)
    if not g.edges:
        model = IntervalModel((Fraction(2 * v), Fraction(2 * v + 1)) for v in range(n))
        return UnitIntervalResult(model, sigma, None)
    try:
        lows = _leftmost_earlier(g, sigma)
    except OrderingIncompatible:
        raise InternalError("umbrella ordering does not agree with the graph") from None
    lefts = _unit_lefts(lows)
    intervals: list[tuple[Fraction, Fraction]] = [None] * n  # type: ignore
    for j, v in enumerate(sigma.order):
        intervals[v] = (lefts[j], lefts[j] + 1)
    model = IntervalModel(intervals)
    if model.induced_graph() != g:
        raise InternalError("synthesized unit model mismatch")
    return UnitIntervalResult(model, sigma, None)


def _unit_lefts(f: Sequence[int]) -> list[Fraction]:
    """Left endpoints x_0..x_{n-1} (position space) for unit intervals along
    an umbrella ordering, given its leftmost earlier neighbours f.

    Constraints, with f(j) = leftmost below-neighbor position (f(j)=j if none):
      x_{j-1} <= x_j                      (right endpoints in order)
      x_j <= x_{f(j)} + 1    if f(j) < j  (touch the leftmost neighbor)
      x_j >= x_{f(j)-1} + 1 + mu  if f(j) >= 1  (clear the nearest non-neighbor)
    Solved as a shortest-path problem over weights (a, b) meaning a + b*mu
    with mu an infinitesimal, then instantiated once at mu = 1/(n+1).

    That one margin is enough. A shortest path has at most n-1 edges of b
    weight 0 or -1, so every b lies in [-(n-1), 0]. A constraint whose
    integer slack is 0 holds by its b comparison; one whose integer slack
    is at least 1 loses at most n*mu = n/(n+1) < 1 of it, so it holds too.
    Along an umbrella ordering the constraints fix every pair: the
    below-neighbors of position j are f(j)..j-1, so x_j - x_i <= 1 for
    f(j) <= i < j and x_j - x_i >= 1 + mu for i < f(j).
    """
    n = len(f)
    # Difference constraints x_b - x_a <= (c0, c1) as edges (a, b, c0, c1).
    edges: list[tuple[int, int, int, int]] = []
    for j in range(1, n):
        edges.append((j, j - 1, 0, 0))
        if f[j] < j:
            edges.append((f[j], j, 1, 0))
        if f[j] >= 1:
            edges.append((j, f[j] - 1, -1, -1))

    dist = [(0, 0)] * n
    for round_ in range(n + 1):
        changed = False
        for a, b, c0, c1 in edges:
            cand = (dist[a][0] + c0, dist[a][1] + c1)
            if cand < dist[b]:
                dist[b] = cand
                changed = True
        if not changed:
            break
    else:
        raise InternalError("unit synthesis constraints infeasible")

    return [Fraction(a * (n + 1) + b, n + 1) for a, b in dist]


def ensure_unit(inst: TemporalIntervalInstance) -> tuple[IntervalModel, ...]:
    """A unit interval model of every layer of inst, in layer order; refuses
    instances that do not carry (and, in edges mode, survive) the unit
    declaration.

    Model-mode layers are their own models, their lengths verified at
    construction. An edges-mode declaration is verified here layer by
    layer, on the first call only, and the models recognition synthesizes
    are kept: each induces exactly its layer, and the instance is
    immutable. Unit interval graphs are hereditary, so the verdict also
    holds for every induced sub-instance."""
    if not inst.unit_flag:
        raise NotUnitError("operation requires a unit instance (unit flag false)")
    if inst.mode == "model":
        return inst.layers
    if inst._unit_models is None:
        models = []
        for t in range(1, inst.tau + 1):
            res = recognize_unit_interval(inst.layer_graph(t))
            if not res.ok:
                raise NotUnitError(
                    f"unit declared but layer {t} is not a unit interval graph"
                )
            models.append(res.model)
        object.__setattr__(inst, "_unit_models", tuple(models))
    return inst._unit_models
