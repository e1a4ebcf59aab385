"""Deletion sets to order preservation.

min_opvd finds a minimum vertex set whose removal makes the instance order
preserving. The search is iterative-deepening DFS. At every node the current
reduced instance is re-recognized; when it is not order preserving, the
branching set is an inclusion-minimal vertex set whose *induced sub-instance*
is itself not order preserving. Order preservation is hereditary under taking
induced sub-instances (restrict an agreeing representation), so every valid
deletion set must meet every such set: branching on its members is complete.

Branching on a minimal non-C1P column subset of the pooled clique matrix
would NOT be complete: cliques must be re-extracted after a deletion (a
maximal clique can stop being maximal), and there are instances where a
single vertex outside the minimal column witness is a valid deletion set
while the witness itself induces an order-preserving sub-instance. The test
suite carries such an instance as a regression fixture.

All recognitions are memoized by deletion set and ask only for the
decision (`witness=False`): the column witness is never read here, so each
costs one PQ-tree run. The branching witness is shrunk by QuickXplain
(intervals.shrink_witness), which finds the set a one-vertex-at-a-time pass
would, with O(w log(n/w)) recognitions for a w-vertex witness. The first
successful depth collects every minimum before tie-breaking, so the
returned set is the lexicographically smallest minimum regardless of
exploration order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .intervals import ensure_unit, shrink_witness
from .model import (
    BudgetExceeded,
    InternalError,
    LimitExceeded,
    TemporalIntervalInstance,
    remove_vertices,
)
from .order import OrderPreservationReport, recognize_order_preserving

EXHAUSTIVE_DEFAULT_LIMIT = 16


@dataclass(frozen=True)
class OpvdResult:
    """A deletion set plus a right-endpoint ordering of the survivors.

    `ordering` holds original vertex indices in agreement order; removing
    `deletion_set` and following it normalizes every layer.
    """

    deletion_set: frozenset[int]
    size: int
    ordering: tuple[int, ...]


def _result(
    inst: TemporalIntervalInstance,
    dels: frozenset[int],
    rep: OrderPreservationReport,
) -> OpvdResult:
    """The OpvdResult for deleting `dels`, with the ordering of inst - dels
    in `rep` mapped back to original indices."""
    if rep.ordering is None:
        raise InternalError(f"no ordering after deleting vertices {sorted(dels)}")
    keep = [v for v in range(inst.n) if v not in dels]
    return OpvdResult(
        deletion_set=dels,
        size=len(dels),
        ordering=tuple(keep[i] for i in rep.ordering.order),
    )


class _RecognitionCache:
    """Memoized `is the instance minus this deletion set order preserving`."""

    def __init__(self, inst: TemporalIntervalInstance):
        self.inst = inst
        self.cache: dict[frozenset[int], OrderPreservationReport] = {}

    def report(self, dels: frozenset[int]) -> OrderPreservationReport:
        hit = self.cache.get(dels)
        if hit is None:
            hit = recognize_order_preserving(
                remove_vertices(self.inst, dels), witness=False
            )
            self.cache[dels] = hit
        return hit

    def is_op(self, dels: frozenset[int]) -> bool:
        return self.report(dels).is_order_preserving

    def result_for(self, dels: frozenset[int]) -> OpvdResult:
        return _result(self.inst, dels, self.report(dels))


def _hereditary_witness(
    cache: _RecognitionCache, dels: frozenset[int]
) -> tuple[int, ...]:
    """An inclusion-minimal vertex set (disjoint from dels) whose induced
    sub-instance is not order preserving. shrink_witness applies because
    order preservation is hereditary and the empty instance is order
    preserving."""
    if cache.is_op(dels):
        raise InternalError("no witness: the reduced instance is order preserving")
    everything = frozenset(range(cache.inst.n))
    return shrink_witness(
        everything - dels, lambda kept: not cache.is_op(everything - kept)
    )


def min_opvd(
    inst: TemporalIntervalInstance,
    budget: int | None = None,
    candidates: Optional[Iterable] = None,
) -> OpvdResult:
    """Minimum deletion set to order preservation (unit instances only).

    With `candidates`, only subsets of that vertex set are considered,
    enumerated smallest-cardinality-first then lexicographically. Otherwise
    the witness-branching search runs. Ties always go to the
    lexicographically smallest vertex-index set. Raises BudgetExceeded when
    no set within `budget` exists (or, with candidates, none within them).
    """
    ensure_unit(inst)
    cache = _RecognitionCache(inst)
    if cache.is_op(frozenset()):
        return cache.result_for(frozenset())

    if candidates is not None:
        pool = sorted(inst.vertex_set(candidates))
        top = len(pool) if budget is None else min(budget, len(pool))
        for d in range(1, top + 1):
            for combo in itertools.combinations(pool, d):
                dels = frozenset(combo)
                if cache.is_op(dels):
                    return cache.result_for(dels)
        raise BudgetExceeded(
            f"no deletion set of size <= {top} within the candidate set"
        )

    n = inst.n
    top = n if budget is None else min(budget, n)
    for depth in range(1, top + 1):
        found: list[frozenset[int]] = []
        visited: set[frozenset[int]] = set()

        def dfs(dels: frozenset[int], remaining: int) -> None:
            if dels in visited:
                return
            visited.add(dels)
            if cache.is_op(dels):
                found.append(dels)
                return
            if remaining == 0:
                return
            for v in _hereditary_witness(cache, dels):
                dfs(dels | {v}, remaining - 1)

        dfs(frozenset(), depth)
        if found:
            best = min(found, key=lambda s: tuple(sorted(s)))
            return cache.result_for(best)
    raise BudgetExceeded(f"no deletion set of size <= {top}")


def opvd_exhaustive(
    inst: TemporalIntervalInstance, limit: int = EXHAUSTIVE_DEFAULT_LIMIT
) -> OpvdResult:
    """Exact minimum by plain subset enumeration (the oracle used to
    cross-check min_opvd); smallest cardinality first, then lexicographic."""
    ensure_unit(inst)
    if inst.n > limit:
        raise LimitExceeded(
            f"exhaustive deletion search capped at n <= {limit}, got {inst.n}"
        )
    for d in range(inst.n + 1):
        for combo in itertools.combinations(range(inst.n), d):
            dels = frozenset(combo)
            rep = recognize_order_preserving(
                remove_vertices(inst, dels), witness=False
            )
            if rep.is_order_preserving:
                return _result(inst, dels, rep)
    raise InternalError("unreachable: the empty instance is order preserving")
