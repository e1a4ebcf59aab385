"""Order preservation: recognition and the conflict-graph interval model.

A temporal interval instance is order preserving when all layers agree on a
single right-endpoint ordering. For unit layers this is equivalent to the
pooled vertices-vs-maximal-cliques matrix having the consecutive ones
property, which is how recognition works here; any C1P column order makes
every maximal clique of every layer a contiguous block, and a contiguous
clique cover forces the per-layer agreement condition directly.
Recognition also answers for the instance minus a deleted vertex set
without building that instance or any graph: the clique sweeps run on each
layer's kept integer endpoint ranks and pass over the deleted vertices, and
the ordering found is re-checked against each layer's edge set without them
(`layer_edges`: a model's sweep, an edge list's filter).

On an order-preserving instance the conflict graph itself is an interval
graph that agrees with the common ordering: for u before v, u meets v in
every layer of a window iff u's position is at least the max over those
layers of v's normalized left endpoint, and the union over windows takes the
min. So conflict_interval_model normalizes conflict_graph itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .conflict import WindowSemantics, conflict_graph
from .intervals import (
    OrderingIncompatible,
    REOrdering,
    _leftmost_earlier,
    c1p_test,
    ensure_unit,
    maximal_cliques,
    normalized_model_for,
)
from .model import InternalError, IntervalModel, TemporalIntervalInstance, VertexRef


@dataclass(frozen=True)
class OrderPreservationReport:
    """Recognition outcome. `ordering` is a common right-endpoint order when
    order preserving, and None otherwise; then `witness` is an
    inclusion-minimal vertex set whose pooled clique-matrix columns are
    non-C1P (a certificate that no common ordering exists, though not in
    general a set meeting every minimum deletion set), or None when
    recognition ran without one."""

    ordering: Optional[REOrdering]
    witness: Optional[tuple[int, ...]]

    @property
    def is_order_preserving(self) -> bool:
        return self.ordering is not None


def pooled_clique_matrix(
    inst: TemporalIntervalInstance, *, deleted: frozenset[int] = frozenset()
) -> list[frozenset[int]]:
    """Maximal cliques of every layer of inst - deleted (vertex indices),
    pooled and deduplicated, over the survivors re-indexed densely in
    ascending order: the rows of the matrix whose columns are the
    inst.n - len(deleted) survivors.

    Every layer's cliques come from a sweep of its interval model
    (`ensure_unit`, so a non-unit instance is refused). Rows are kept in
    (layer, position) order of first appearance; the PQ-tree reads them in
    that order. A model-mode layer's cliques keep their sweep order. An
    edges-mode layer's model is one of several that induce the layer (its
    reversal, another order of its components), and the models of the
    layer with and without the deleted vertices need not sweep alike. So
    those cliques are sorted by their sorted vertex tuples, which makes the
    rows a function of the graphs alone; re-indexing keeps that order, and
    recognizing inst - deleted in place builds the rows of
    remove_vertices(inst, deleted).
    """
    rows: list[frozenset[int]] = []
    seen: set[frozenset[int]] = set()
    for model in ensure_unit(inst):
        cliques = maximal_cliques(model, skip=deleted)
        if inst.mode == "edges":
            cliques.sort(key=sorted)
        for K in cliques:
            if K not in seen:
                seen.add(K)
                rows.append(K)
    return rows


def recognize_order_preserving(
    inst: TemporalIntervalInstance,
    *,
    witness: bool = True,
    deleted: Iterable[VertexRef] = (),
) -> OrderPreservationReport:
    """Recognize order preservation of the unit instance inst - deleted via
    the pooled clique matrix.

    The report is the one for `remove_vertices(inst, deleted)`: ordering
    and witness are over the survivors re-indexed densely in ascending
    order. No reduced instance and no graph is built: the clique and edge
    sweeps pass over the deleted vertices. The unit declaration is checked
    on inst itself (pooled_clique_matrix), which covers inst - deleted
    because unit interval graphs are hereditary.

    On success the returned ordering is re-verified against the edge set
    of every layer of inst - deleted by `_leftmost_earlier`, the pass
    behind normalized_model_for (an internal error otherwise, since a contiguous
    clique arrangement always agrees). A negative answer carries the
    minimal column witness, or None with `witness=False`, which skips the
    shrink: callers that only need the decision pass it. Non-unit
    instances are refused; recognition of non-unit temporal interval
    graphs is not offered.
    """
    deleted = inst.vertex_set(deleted)
    rows = pooled_clique_matrix(inst, deleted=deleted)
    res = c1p_test(rows, inst.n - len(deleted), witness=witness)
    if not res.is_c1p:
        return OrderPreservationReport(None, res.witness)
    ordering = REOrdering(res.ordering)
    for t in range(1, inst.tau + 1):
        try:
            _leftmost_earlier(ordering.n, inst.layer_edges(t, skip=deleted), ordering)
        except OrderingIncompatible as exc:
            raise InternalError(
                f"C1P ordering disagrees with layer {t}: violating pair {exc.pair}"
            ) from None
    return OrderPreservationReport(ordering, None)


def conflict_interval_model(
    inst: TemporalIntervalInstance,
    ordering: REOrdering,
    semantics: WindowSemantics = WindowSemantics.FIGURE,
) -> IntervalModel:
    """The conflict graph's normalized model along an ordering that agrees
    with it, as a common ordering of every layer does. An ordering that
    agrees with the conflict graph alone is accepted too; any other raises
    OrderingIncompatible with a violating pair of the conflict graph. With
    no windows (formula semantics at delta = tau) the conflict graph is
    edgeless and left(v) = right(v).
    """
    if ordering.n != inst.n:
        raise ValueError("ordering size does not match instance")
    return normalized_model_for(conflict_graph(inst, semantics), ordering)
