import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import tis
from tis.conflict import WindowSemantics, conflict_graph
from tis.intervals import c1p_test, maximal_cliques
from tis.model import (
    IntervalModel,
    StaticGraph,
    TemporalIntervalInstance,
    remove_vertices,
)
from tis.order import (
    conflict_interval_model,
    pooled_clique_matrix,
    recognize_order_preserving,
)

DATA = Path(__file__).parent / "data"


def edges_copy(inst):
    graphs = [inst.layer_graph(t) for t in range(1, inst.tau + 1)]
    return TemporalIntervalInstance(
        inst.names, inst.weights, inst.tau, inst.delta, inst.k, "edges", graphs, True
    )


class TestPooledMatrix:
    def test_rows_are_per_layer_maximal_cliques(self, two_layer_path):
        m = pooled_clique_matrix(two_layer_path)
        # layer 1 is the path: its maximal cliques are the five edges, and
        # they come first
        assert set(m[:5]) == {
            frozenset({0, 1}),
            frozenset({1, 2}),
            frozenset({2, 3}),
            frozenset({3, 4}),
            frozenset({4, 5}),
        }

    def test_rows_are_layer_cliques_in_first_seen_order(self, small_corpus):
        # the rows are the PQ-tree's input, so their order decides the
        # printed orderings: each layer's cliques in sweep order in model
        # mode, and sorted by their sorted vertex tuples in edges mode
        for inst in small_corpus[:40]:
            for deleted in (frozenset(), frozenset(range(0, inst.n, 3))):
                cliques, sorted_cliques = [], []
                for t in range(1, inst.tau + 1):
                    m = inst.layers[t - 1]
                    cliques += maximal_cliques(m, skip=deleted)
                    ivs = [iv for v, iv in enumerate(m.intervals) if v not in deleted]
                    by_points = oracles.maximal_cliques_by_points(ivs)
                    sorted_cliques += sorted(by_points, key=sorted)
                got = pooled_clique_matrix(inst, deleted=deleted)
                assert got == list(dict.fromkeys(cliques))
                got = pooled_clique_matrix(edges_copy(inst), deleted=deleted)
                assert got == list(dict.fromkeys(sorted_cliques))

    def test_isolated_vertex_forms_singleton_row(self):
        inst = tis.gen_random_unit(1, 2, 1, 0, seed=0)
        m = pooled_clique_matrix(inst)
        assert set(m) == {frozenset({0})}


class TestRecognition:
    def test_negative_with_witness(self, two_layer_path):
        rep = recognize_order_preserving(two_layer_path)
        assert not rep.is_order_preserving
        assert rep.ordering is None
        assert rep.witness is not None
        # witness columns are genuinely non-C1P in the pooled matrix
        m = pooled_clique_matrix(two_layer_path)
        keep = set(rep.witness)
        sub = [r & keep for r in m]
        assert not oracles.c1p_by_subset_dp(sub, two_layer_path.n)

    def test_failed_reverification_is_internal_error(self, op_corpus, monkeypatch):
        # a C1P ordering that some layer rejects is a library bug, not bad input
        def disagree(n, edges, ordering):
            raise tis.OrderingIncompatible("stub", pair=(0, 1))

        monkeypatch.setattr(tis.order, "_leftmost_earlier", disagree)
        for deleted in ((), (0, 2)):
            with pytest.raises(tis.InternalError, match=r"violating pair \(0, 1\)"):
                recognize_order_preserving(op_corpus[0], deleted=deleted)

    def test_deleting_v4_makes_it_order_preserving(self, two_layer_path):
        rep = recognize_order_preserving(remove_vertices(two_layer_path, ["v4"]))
        assert rep.is_order_preserving
        assert rep.ordering is not None

    def test_positive_on_generated_instances(self, op_corpus):
        for inst in op_corpus[:60]:
            rep = recognize_order_preserving(inst)
            assert rep.is_order_preserving
            # the ordering's normalized models re-induce every layer
            for t in range(1, inst.tau + 1):
                norm = tis.normalized_model_for(
                    inst.layers[t - 1].induced_graph(), rep.ordering
                )
                assert norm.induced_graph() == inst.layer_graph(t)

    def test_agrees_with_ordering_search(self, small_corpus):
        for inst in small_corpus[:80]:
            rep = recognize_order_preserving(inst)
            found = oracles.common_ordering_exists(inst)
            assert rep.is_order_preserving == (found is not None)

    def test_single_vertex_trivially_preserving(self, single_vertex):
        rep = recognize_order_preserving(single_vertex)
        assert rep.is_order_preserving

    def test_band_layer_in_seconds(self):
        # 1,000 vertices, each adjacent to the next 599: 401 maximal cliques
        # of up to 600 vertices, about 420,000 edges; the sweep of the
        # layer's normalized model takes about a second
        n = 1000
        band = StaticGraph(
            n, [(u, v) for u in range(n) for v in range(u + 1, min(n, u + 600))]
        )
        names = [f"v{i}" for i in range(n)]
        inst = TemporalIntervalInstance(names, [1] * n, 1, 1, 0, "edges", [band], True)
        start = time.perf_counter()
        rep = recognize_order_preserving(inst, witness=False)
        assert rep.is_order_preserving
        assert time.perf_counter() - start < 15


NON_UNIT_LAYERS = {
    # not an interval graph
    "four_cycle": [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")],
    # an interval graph, but not a unit one
    "claw": [("a", "b"), ("a", "c"), ("a", "d")],
}


@pytest.mark.parametrize("name", sorted(NON_UNIT_LAYERS))
def test_non_unit_edges_layer_refused(name, tmp_path, run_cli):
    # the unit check is what stands between such a layer and the sweeps
    edges = "".join(f"edge {u} {v}\n" for u, v in NON_UNIT_LAYERS[name])
    text = (
        "tis 1\nmode edges\nn 4\ntau 1\ndelta 1\nk 1\nunit true\n"
        + "".join(f"vertex {v}\n" for v in "abcd")
        + "layer 1\n"
        + edges
    )
    inst = tis.parse_instance(text)
    with pytest.raises(tis.NotUnitError):
        recognize_order_preserving(inst)
    with pytest.raises(tis.NotUnitError):
        tis.min_opvd(inst)
    with pytest.raises(tis.NotUnitError):  # though inst - {a} is unit
        tis.solve_fpt(inst, ["a"])
    path = tmp_path / f"{name}.tis"
    path.write_text(text)
    r = run_cli("recognize", str(path))
    assert r.returncode == 2
    assert r.stdout == ""


@st.composite
def instances_with_deletions(draw):
    """Unit instances with lefts on a half-integer grid, so that endpoints
    tie and touch, in model mode or as an edges-mode copy, with a deleted
    set from none to every vertex."""
    n = draw(st.integers(1, 8))
    tau = draw(st.integers(1, 3))
    lefts = st.lists(st.integers(0, n), min_size=n, max_size=n)
    layers = [
        IntervalModel((F(x, 2), F(x, 2) + 1) for x in draw(lefts)) for _ in range(tau)
    ]
    names = [f"v{i}" for i in range(n)]
    inst = TemporalIntervalInstance(names, [1] * n, tau, 1, 0, "model", layers, True)
    if draw(st.booleans()):
        graphs = [inst.layer_graph(t) for t in range(1, tau + 1)]
        inst = TemporalIntervalInstance(names, [1] * n, tau, 1, 0, "edges", graphs, True)
    return inst, draw(st.sets(st.integers(0, n - 1)))


class TestDeletedSet:
    """Recognizing inst - D in place reports what recognizing the rebuilt
    reduced instance reports."""

    @settings(max_examples=400, deadline=None)
    @given(case=instances_with_deletions(), witness=st.booleans())
    def test_matches_remove_vertices(self, case, witness):
        inst, deleted = case
        got = recognize_order_preserving(inst, witness=witness, deleted=deleted)
        want = recognize_order_preserving(
            remove_vertices(inst, deleted), witness=witness
        )
        assert got == want

    def test_names_and_indices_agree(self, two_layer_path):
        by_name = recognize_order_preserving(two_layer_path, deleted=["v1"])
        assert by_name == recognize_order_preserving(two_layer_path, deleted={0})
        assert by_name.is_order_preserving

    def test_model_layers_build_no_static_graph(self, monkeypatch):
        # recognition's re-check of inst - D, the deletion search and the
        # independence check of a proper subset read the layers' edge sets
        inst = tis.parse_instance((DATA / "planted_n20.tis").read_text())

        def refuse(self, n, edges=()):
            raise AssertionError("a StaticGraph was built")

        monkeypatch.setattr(StaticGraph, "__init__", refuse)
        found = tis.min_opvd(inst)
        assert found.size == 2
        rep = recognize_order_preserving(inst, deleted=found.deletion_set)
        assert rep.is_order_preserving
        for selected in ([0, 1], range(1, inst.n), found.deletion_set):
            tis.delta_independence_check(inst, selected)

    def test_unknown_vertex_refused(self, two_layer_path):
        with pytest.raises(tis.InstanceError):
            recognize_order_preserving(two_layer_path, deleted={two_layer_path.n})


class TestPooledTrapRegression:
    """The pooled matrix's minimal column witness is a certificate that the
    instance is not order preserving, but NOT a set every deletion set must
    meet: here the witness is {a,b,c}, the induced sub-instance on it is
    order preserving, and {s} (outside the witness) is a valid deletion."""

    def test_witness_is_abc(self, pooled_trap):
        rep = recognize_order_preserving(pooled_trap)
        assert not rep.is_order_preserving
        assert set(rep.witness) == {0, 1, 2}

    def test_witness_induces_preserving_subinstance(self, pooled_trap):
        induced = remove_vertices(pooled_trap, ["s"])
        assert recognize_order_preserving(induced).is_order_preserving

    def test_plain_column_drop_misjudges(self, pooled_trap):
        # dropping column s from the pooled matrix without re-extracting
        # cliques leaves stale non-maximal rows and a false negative
        m = pooled_clique_matrix(pooled_trap)
        s = pooled_trap.vertex_index("s")
        stale = [r - {s} for r in m]
        assert not c1p_test(stale, pooled_trap.n).is_c1p

    def test_min_opvd_still_finds_size_one(self, pooled_trap):
        res = tis.min_opvd(pooled_trap)
        assert res.size == 1
        exh = tis.opvd_exhaustive(pooled_trap)
        assert exh.size == 1


class TestConflictIntervalModel:
    def test_induces_conflict_graph(self, op_corpus):
        for inst in op_corpus[:60]:
            rep = recognize_order_preserving(inst)
            model = conflict_interval_model(inst, rep.ordering)
            got = oracles.model_edge_set(model.intervals)
            assert got == set(conflict_graph(inst).edges)

    def test_formula_semantics(self, op_corpus):
        for inst in op_corpus[:30]:
            rep = recognize_order_preserving(inst)
            model = conflict_interval_model(
                inst, rep.ordering, WindowSemantics.FORMULA
            )
            got = oracles.model_edge_set(model.intervals)
            assert got == oracles.conflict_edge_set(inst, "formula")

    def test_incompatible_ordering_refused(self, op_corpus):
        inst = op_corpus[0]
        rep = recognize_order_preserving(inst)
        order = list(rep.ordering.order)
        # walk through rotations until one disagrees (some instance layers
        # may admit several orderings, the conflict graph usually does not)
        import itertools

        for perm in itertools.permutations(range(inst.n)):
            try:
                conflict_interval_model(inst, tis.REOrdering(tuple(perm)))
            except tis.OrderingIncompatible:
                break
        else:
            pytest.skip("every ordering agrees with this instance")

    def test_layer_disagreement_alone_is_not_refused(self):
        # layer 1 is the path a-b-c, layer 2 is edgeless; (b, a, c) disagrees
        # with layer 1 but agrees with any conflict graph that lacks {b, c}
        path = StaticGraph(3, [(0, 1), (1, 2)])
        sigma = tis.REOrdering((1, 0, 2))

        def instance(delta):
            return TemporalIntervalInstance(
                ("a", "b", "c"), [1] * 3, 2, delta, 0, "edges",
                [path, StaticGraph(3)], True,
            )

        with pytest.raises(tis.OrderingIncompatible) as exc:
            tis.intervals._leftmost_earlier(3, path.edges, sigma)
        assert exc.value.pair == (1, 2)
        # delta = 2: one window of both layers, so the conflict graph is
        # edgeless and its normalized model has left = right = position
        model = conflict_interval_model(instance(2), sigma)
        assert model.intervals == ((F(2), F(2)), (F(1), F(1)), (F(3), F(3)))
        assert tis.solve_exact_op(instance(2), sigma).selected == {0, 1, 2}
        # delta = 1: the conflict graph is the path itself
        with pytest.raises(tis.OrderingIncompatible) as exc:
            conflict_interval_model(instance(1), sigma)
        assert exc.value.pair == (1, 2)
