"""Deletion sets to order preservation.

min_opvd finds a minimum vertex set whose removal makes the instance order
preserving, by the implicit hitting-set scheme (Chandrasekaran, Karp,
Moreno-Centeno and Vempala, SODA 2011; Moreno-Centeno and Karp, Oper. Res.
2013). A witness is an inclusion-minimal vertex set whose *induced
sub-instance* is itself not order preserving. Order preservation is
hereditary under taking induced sub-instances (restrict an agreeing
representation), so every deletion set meets every witness. The search
stores witnesses and repeats: take H, the lexicographically smallest
minimum set that meets every stored witness; return H if inst - H is order
preserving, else shrink a new witness from the survivors of H and store it
(H misses it, so no witness repeats and the loop ends). A returned H is a
minimum deletion set, since no deletion set is smaller than a minimum
hitting set, and the lexicographically smallest one, since every minimum
deletion set is a hitting set of H's size.

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
every reduced instance with remove_vertices. A witness is shrunk by
QuickXplain (intervals.shrink_witness), which finds the set a
one-vertex-at-a-time pass would, with O(w log(n/w)) recognitions for a
w-vertex witness.
"""

from __future__ import annotations

import functools
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


def _hitting_set(witnesses: list[int], size: int, floor: int | None) -> int | None:
    """The lexicographically smallest set of at most `size` vertices that
    meets every witness (sets as bitmasks), or None. Callers deepen `size`
    from a lower bound; `floor` is the answer for a subset of the
    witnesses at the same size, or None, and no smaller set meets them.

    A depth-first search that branches on the smallest vertex of the
    witnesses not yet met, taking it before leaving it out (`drop`): it
    decides vertices in ascending order, so it finds the smallest set
    first. It takes no vertex that would put the set below `floor`, and
    prunes when more witnesses than its room are pairwise disjoint, packed
    greedily smallest first. Children get the witnesses left to meet.
    """
    stack = [(0, witnesses, size, 0)]
    while stack:
        chosen, unmet, room, drop = stack.pop()
        if drop:
            unmet = [w & ~drop for w in unmet]
            if 0 in unmet:
                continue
        if not unmet:
            return chosen
        used = union = packed = 0
        for w in sorted(unmet, key=int.bit_count):
            union |= w
            if not w & used:
                used |= w
                packed += 1
        if packed > room:
            continue
        low = union & -union
        stack.append((chosen, unmet, room, low))
        if floor is None or floor & low or floor & (low - 1) != chosen:
            taken = [w for w in unmet if not w & low]
            stack.append((chosen | low, taken, room - 1, 0))
    return None


def min_opvd(
    inst: TemporalIntervalInstance,
    budget: int | None = None,
    candidates: Optional[Iterable] = None,
) -> OpvdResult:
    """Minimum deletion set to order preservation (unit instances only)
    within the pool, every vertex or `candidates`; ties go to the
    lexicographically smallest vertex-index set.

    Witnesses are shrunk within the pool: a minimal set P of pool vertices
    such that deleting the pool's other vertices leaves an instance that is
    not order preserving, so by heredity every deletion set in the pool
    meets P. Raises BudgetExceeded when no set within `budget` exists: once
    no set of at most `budget` vertices meets every witness, or, before a
    shrink, when deleting the whole pool fails; a negative budget is a
    ValueError.
    """
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    ensure_unit(inst)
    pool = inst.vertex_set(range(inst.n) if candidates is None else candidates)
    top = len(pool) if budget is None else min(budget, len(pool))
    scope = "" if candidates is None else " within the candidate set"
    refusal = f"no deletion set of size <= {top}{scope}"

    @functools.cache
    def report(dels: frozenset[int]) -> OrderPreservationReport:
        return recognize_order_preserving(inst, witness=False, deleted=dels)

    witnesses: list[int] = []
    size, hit = 0, None
    while True:
        while (hit := _hitting_set(witnesses, size, hit)) is None:
            size += 1
            if size > top:
                raise BudgetExceeded(refusal)
        dels = frozenset(v for v in pool if hit >> v & 1)
        if report(dels).is_order_preserving:
            return _result(inst, dels, report(dels))
        if not report(pool).is_order_preserving:
            raise BudgetExceeded(refusal)
        found = shrink_witness(
            pool - dels, lambda kept: not report(pool - kept).is_order_preserving
        )
        witnesses.append(sum(1 << v for v in found))


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
