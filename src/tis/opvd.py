"""Deletion sets to order preservation.

min_opvd finds a minimum vertex set whose removal makes the instance order
preserving. The search is one loop over deletion-set sizes: a level whose
sets all fail grows each set by one vertex of its branching set, an
inclusion-minimal vertex set whose *induced sub-instance* is itself not
order preserving. Order preservation is hereditary under taking induced
sub-instances (restrict an agreeing representation), so every valid
deletion set must meet every such set: level d holds every minimum deletion
set of size d.

Branching on a minimal non-C1P column subset of the pooled clique matrix
would NOT be complete: cliques must be re-extracted after a deletion (a
maximal clique can stop being maximal), and there are instances where a
single vertex outside the minimal column witness is a valid deletion set
while the witness itself induces an order-preserving sub-instance. The test
suite carries such an instance as a regression fixture.

All recognitions are memoized by deletion set and ask only for the decision
(`witness=False`): the column witness is never read here, so each costs one
PQ-tree run. No reduced instance is built: each recognition runs on the
instance itself with the deletion set passed as `deleted`, and its sweeps
pass over those vertices (see order.recognize_order_preserving).
opvd_exhaustive, the reference the search is tested against, still builds
every reduced instance with remove_vertices. The branching witness is shrunk
by QuickXplain (intervals.shrink_witness), which finds the set a
one-vertex-at-a-time pass would, with O(w log(n/w)) recognitions for a
w-vertex witness.

Witnesses are reused. By heredity a witness found for one deletion set is a
witness for every set that misses it: such a set is not order preserving,
and it may branch on that witness, since branching needs only some
non-order-preserving vertex set disjoint from it. So min_opvd stores every
witness it shrinks. Only a set that meets every stored witness is
recognized, and only such a set, when it fails, is shrunk to a new one.
Because each level is checked in lexicographic order, the returned set is
the lexicographically smallest minimum whichever witness a set branches on.
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
            hit = recognize_order_preserving(self.inst, witness=False, deleted=dels)
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

    One loop over deletion-set sizes: each level is checked in
    lexicographic order and the first order-preserving set is returned, so
    ties go to the lexicographically smallest vertex-index set. A set that
    fails grows by each vertex of a hereditary witness: the first stored
    witness it misses (such a set is skipped, not recognized), else a new
    one shrunk from it and stored. With `candidates` a set grows by each
    pool vertex it lacks, so level d then holds every d-subset of the pool.
    Raises BudgetExceeded when no set within `budget` exists (or, with
    candidates, none within them).
    """
    ensure_unit(inst)
    cache = _RecognitionCache(inst)
    pool = None if candidates is None else inst.vertex_set(candidates)
    top = inst.n if pool is None else len(pool)
    if budget is not None:
        top = min(budget, top)
    witnesses: list[frozenset[int]] = []

    def missed(dels: frozenset[int]) -> Optional[frozenset[int]]:
        return next((w for w in witnesses if w.isdisjoint(dels)), None)

    def branching(dels: frozenset[int]) -> frozenset[int]:
        if pool is not None:
            return pool - dels
        found = missed(dels)
        if found is None:
            found = frozenset(_hereditary_witness(cache, dels))
            witnesses.append(found)
        return found

    level: list[frozenset[int]] = [frozenset()]
    size = 0
    while True:
        for dels in level:
            if missed(dels) is None and cache.is_op(dels):
                return cache.result_for(dels)
        if size >= top:
            scope = "" if pool is None else " within the candidate set"
            raise BudgetExceeded(f"no deletion set of size <= {top}{scope}")
        level = sorted(
            {dels | {v} for dels in level for v in branching(dels)}, key=sorted
        )
        size += 1


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
