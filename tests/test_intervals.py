import random
import time
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import tis
import tis.intervals
from tis.intervals import (
    OrderingIncompatible,
    REOrdering,
    c1p_test,
    ensure_unit,
    maximal_cliques,
    mwis_interval,
    normalized_model_for,
    shrink_witness,
)
from tis.model import IntervalModel, NotUnitError, StaticGraph, TemporalIntervalInstance
from tis.order import conflict_interval_model


def model(*pairs):
    return IntervalModel(tuple((F(a), F(b)) for a, b in pairs))


def random_model(rng, n, denom=4, span=8):
    ivs = []
    for _ in range(n):
        left = F(rng.randint(0, span * denom), denom)
        length = F(rng.randint(0, 2 * denom), denom)
        ivs.append((left, left + length))
    return IntervalModel(tuple(ivs))


class TestMwis:
    def test_empty(self):
        sol = mwis_interval(model(), [])
        assert sol.selected == frozenset() and sol.objective == 0

    def test_touching_chain(self):
        m = model((0, 1), (F(1, 2), F(3, 2)), (2, 3))
        sol = mwis_interval(m, [F(1)] * 3)
        assert sol.objective == 2
        assert sol.selected == frozenset({0, 2})

    def test_weight_beats_cardinality(self):
        m = model((0, 1), (F(1, 2), F(3, 2)), (F(6, 5), F(11, 5)))
        sol = mwis_interval(m, [F(1), F(3), F(1)])
        assert sol.objective == 3
        assert sol.selected == frozenset({1})

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            mwis_interval(model((0, 1)), [F(-1)])

    @pytest.mark.parametrize("bad", [0.1, Decimal("0.5"), True, "1", None], ids=repr)
    def test_refuses_inexact_weights(self, bad):
        # converted, 0.1 would give an objective of 3602879701896397/2^55
        with pytest.raises(TypeError):
            mwis_interval(model((0, 1), (2, 3)), [1, bad])

    def test_int_weights_give_exact_objective(self):
        sol = mwis_interval(model((0, 1), (2, 3)), [1, F(1, 10)])
        assert sol.objective == F(11, 10) and sol.selected == frozenset({0, 1})

    def test_lexicographically_smallest_optimum(self):
        rng = random.Random(777)
        for _ in range(120):
            n = rng.randint(1, 8)
            m = random_model(rng, n)
            weights = [F(rng.randint(0, 4)) for _ in range(n)]
            sol = mwis_interval(m, weights)
            edges = oracles.model_edge_set(m.intervals)
            optima = oracles.all_optimal_independent_sets(n, edges, weights)
            assert sol.objective == max(
                sum((weights[v] for v in s), F(0)) for s in optima
            )
            assert sol.selected == optima[0]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(0, 9))
    def test_matches_enumeration(self, seed, n):
        rng = random.Random(seed)
        m = random_model(rng, n)
        weights = [F(rng.randint(0, 5)) for _ in range(n)]
        sol = mwis_interval(m, weights)
        edges = oracles.model_edge_set(m.intervals)
        assert sol.objective == oracles.max_weight_independent(n, edges, weights)
        for u in sol.selected:
            for v in sol.selected:
                if u < v:
                    assert (u, v) not in edges

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(0, 9), data=st.data())
    def test_rational_weights_give_lex_min_optimum(self, seed, n, data):
        # non-integer weights with zeros and ties: exercises the integer
        # scaling and the perturbed tie break together
        m = random_model(random.Random(seed), n)
        weights = data.draw(
            st.lists(
                st.builds(F, st.integers(0, 6), st.integers(1, 12)),
                min_size=n,
                max_size=n,
            )
        )
        sol = mwis_interval(m, weights)
        edges = oracles.model_edge_set(m.intervals)
        optima = oracles.all_optimal_independent_sets(n, edges, weights)
        best = oracles.max_weight_independent(n, edges, weights)
        assert (sol.selected, sol.objective) == (optima[0], best)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(0, 9))
    def test_touching_ends_give_lex_min_optimum(self, data, n):
        # endpoints from a few shared values, so ends touch often; the two
        # Mersenne-prime offsets put a model past the integer-key width bound
        points = [F(x) for x in range(5)] + [F(1, 2**521 - 1), 2 + F(1, 2**607 - 1)]
        pair = st.lists(st.sampled_from(points), min_size=2, max_size=2)
        ivs = [tuple(sorted(data.draw(pair))) for _ in range(n)]
        weights = [F(data.draw(st.integers(0, 2))) for _ in range(n)]
        sol = mwis_interval(IntervalModel(ivs), weights)
        edges = oracles.model_edge_set(ivs)
        optima = oracles.all_optimal_independent_sets(n, edges, weights)
        best = oracles.max_weight_independent(n, edges, weights)
        assert (sol.selected, sol.objective) == (optima[0], best)

    def test_all_zero_weights_select_nothing(self):
        sol = mwis_interval(model((0, 1), (2, 3), (4, 5)), [F(0)] * 3)
        assert sol.selected == frozenset() and sol.objective == 0

    def test_trailing_zero_weights_are_not_added(self):
        m = model((0, 1), (2, 3), (4, 5))
        sol = mwis_interval(m, [F(1, 2), F(0), F(0)])
        assert sol.selected == frozenset({0}) and sol.objective == F(1, 2)
        # a zero weight before the last positive one stays: (0, 1) < (1,)
        sol = mwis_interval(m, [F(0), F(1), F(0)])
        assert sol.selected == frozenset({0, 1}) and sol.objective == 1


class TestMaximalCliques:
    def test_disjoint_intervals(self):
        m = model((0, 1), (2, 3), (4, 5))
        assert maximal_cliques(m) == [{0}, {1}, {2}]

    def test_touching_triple_is_one_clique(self):
        m = model((0, 1), (F(1, 2), F(3, 2)), (1, 2))
        assert maximal_cliques(m) == [{0, 1, 2}]

    def test_sweep_order_and_coverage(self):
        rng = random.Random(31)
        for _ in range(150):
            n = rng.randint(1, 9)
            m = random_model(rng, n)
            cliques = maximal_cliques(m)
            edges = oracles.model_edge_set(m.intervals)
            assert len(cliques) <= n
            seen = set()
            for c in cliques:
                for u in c:
                    for v in c:
                        if u < v:
                            assert (u, v) in edges
                            seen.add((u, v))
                # maximality: no vertex extends the clique
                for w in range(n):
                    if w in c:
                        continue
                    assert not all(
                        (min(w, u), max(w, u)) in edges for u in c
                    )
            assert seen == edges
            assert len({frozenset(c) for c in cliques}) == len(cliques)


models = st.builds(
    lambda seed, n, denom, span: random_model(random.Random(seed), n, denom, span),
    st.integers(0, 10**6),
    st.integers(0, 14),
    st.sampled_from([1, 2, 4]),
    st.integers(1, 8),
)


def survivors(m, drop):
    """A skip set drawn as any subset of 0..13, cut to the model, and the
    intervals left once it is deleted."""
    skip = frozenset(v for v in drop if v < m.n)
    return skip, [iv for v, iv in enumerate(m.intervals) if v not in skip]


class TestSweepKernels:
    """The sweeps against the pairwise definitions, on models with mixed
    lengths, shared and touching endpoints, with skip sets from none to
    every vertex."""

    @settings(max_examples=300, deadline=None)
    @given(m=models, drop=st.sets(st.integers(0, 13)))
    def test_induced_graph_matches_pairwise_scan(self, m, drop):
        skip, ivs = survivors(m, drop)
        want = oracles.model_edge_set(ivs)
        pairs = m.edge_pairs(skip=skip)
        assert all(a < b for a, b in pairs) and len(set(pairs)) == len(pairs)
        assert set(pairs) == want
        if not skip:
            assert m.induced_graph() == StaticGraph(m.n, want)

    @settings(max_examples=300, deadline=None)
    @given(
        m=models,
        drop=st.sets(st.integers(0, 13)),
        mode=st.sampled_from(["model", "edges"]),
    )
    def test_layer_edges_match_filtered_layer(self, m, drop, mode):
        # the layer's edges without the skipped vertices, in either mode:
        # the whole layer's edges, filtered and re-indexed
        skip, _ = survivors(m, drop)
        layer = m
        if mode == "edges":
            layer = StaticGraph(m.n, oracles.model_edge_set(m.intervals))
        names = [f"v{i}" for i in range(m.n)]
        inst = TemporalIntervalInstance(names, [1] * m.n, 1, 1, 0, mode, [layer], False)
        whole = oracles.layer_edge_set(inst, 1)
        idx = {v: i for i, v in enumerate(v for v in range(m.n) if v not in skip)}
        want = {(idx[u], idx[v]) for u, v in whole if u in idx and v in idx}
        assert inst.layer_edges(1, skip=skip) == want
        assert inst.layer_edges(1) == whole
        assert inst.layer_graph(1).edges == whole
        # a model sweeps its edge set once and keeps it
        assert m.edges == oracles.model_edge_set(m.intervals)
        assert m.edges is m.edges

    @settings(max_examples=300, deadline=None)
    @given(m=models, drop=st.sets(st.integers(0, 13)))
    def test_maximal_cliques_match_point_scan_in_order(self, m, drop):
        skip, ivs = survivors(m, drop)
        assert maximal_cliques(m, skip=skip) == oracles.maximal_cliques_by_points(ivs)

    def test_skip_outside_the_model_refused(self):
        m = model((0, 1), (2, 3))
        sweeps = (
            m.edge_pairs,
            lambda skip: maximal_cliques(m, skip=skip),
        )
        for sweep in sweeps:
            with pytest.raises(ValueError):
                sweep(skip=frozenset({2}))


def violating_pair(edges, ordering):
    """The pair _leftmost_earlier reports for an edge iterable (as
    recognition passes a layer's edges), or None when the ordering agrees."""
    try:
        tis.intervals._leftmost_earlier(ordering.n, edges, ordering)
    except OrderingIncompatible as exc:
        return exc.pair
    return None


class TestOrderingAgrees:
    """The linear check against the quadratic scan: same verdict and the
    same first violating pair."""

    @settings(max_examples=400, deadline=None)
    @given(m=models, seed=st.integers(0, 10**6), swaps=st.integers(0, 3))
    def test_matches_scan_on_perturbed_endpoint_orders(self, m, seed, swaps):
        rng = random.Random(seed)
        order = sorted(range(m.n), key=lambda v: (m.intervals[v][1], v))
        for _ in range(swaps if m.n > 1 else 0):
            i = rng.randrange(m.n - 1)
            order[i], order[i + 1] = order[i + 1], order[i]
        g = m.induced_graph()
        want = oracles.first_disagreeing_pair(m.n, g.edges, order)
        assert violating_pair(g.edges, REOrdering(tuple(order))) == want

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(0, 10), seed=st.integers(0, 10**6))
    def test_matches_scan_on_arbitrary_graphs(self, n, seed):
        rng = random.Random(seed)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        order = list(range(n))
        rng.shuffle(order)
        want = oracles.first_disagreeing_pair(n, edges, order)
        assert violating_pair(edges, REOrdering(tuple(order))) == want
        reversed_pairs = [(v, u) for u, v in edges]
        assert violating_pair(reversed_pairs, REOrdering(tuple(order))) == want

    @settings(max_examples=300, deadline=None)
    @given(
        m=models,
        drop=st.sets(st.integers(0, 13)),
        seed=st.integers(0, 10**6),
        swaps=st.integers(0, 3),
    )
    def test_matches_scan_on_survivor_edge_pairs(self, m, drop, seed, swaps):
        # as recognition re-checks a layer: an ordering of the survivors
        # against the sweep's edge pairs without the deleted vertices
        skip, ivs = survivors(m, drop)
        rng = random.Random(seed)
        order = sorted(range(len(ivs)), key=lambda v: (ivs[v][1], v))
        for _ in range(swaps if len(order) > 1 else 0):
            i = rng.randrange(len(order) - 1)
            order[i], order[i + 1] = order[i + 1], order[i]
        edges = oracles.model_edge_set(ivs)
        want = oracles.first_disagreeing_pair(len(ivs), edges, order)
        got = violating_pair(m.edge_pairs(skip=skip), REOrdering(tuple(order)))
        assert got == want


class TestShrinkWitness:
    @settings(max_examples=400, deadline=None)
    @given(
        n=st.integers(1, 16),
        gens=st.lists(
            st.sets(st.integers(0, 15), min_size=1, max_size=4), min_size=1, max_size=4
        ),
    )
    def test_matches_ascending_pass(self, n, gens):
        # a monotone predicate: the up-closure of a few nonempty sets
        gens = [frozenset(g) for g in gens if max(g) < n] or [frozenset({n - 1})]

        def fails(s):
            return any(g <= s for g in gens)

        want = oracles.ascending_shrink(range(n), fails)
        assert shrink_witness(range(n), fails) == want

    def test_one_element_witness_needs_few_probes(self):
        probes = []

        def fails(s):
            probes.append(s)
            return 37 in s

        assert shrink_witness(range(64), fails) == (37,)
        assert len(probes) < 20


class TestC1P:
    def test_ordering_xor_witness(self):
        rng = random.Random(4242)
        for _ in range(200):
            ncols = rng.randint(1, 7)
            rows = [
                frozenset(c for c in range(ncols) if rng.random() < 0.45)
                for _ in range(rng.randint(1, 6))
            ]
            res = c1p_test(rows, ncols)
            assert (res.ordering is None) != (res.witness is None)
            assert res.is_c1p == oracles.c1p_by_subset_dp(rows, ncols)

    def test_witness_is_inclusion_minimal(self):
        rng = random.Random(616)
        found = 0
        while found < 40:
            ncols = rng.randint(3, 7)
            rows = [
                frozenset(c for c in range(ncols) if rng.random() < 0.5)
                for _ in range(rng.randint(3, 6))
            ]
            res = c1p_test(rows, ncols)
            if res.is_c1p:
                continue
            found += 1
            w = set(res.witness)
            sub = [r & w for r in rows]
            assert not oracles.c1p_by_subset_dp(sub, ncols)
            for drop in w:
                smaller = [r & (w - {drop}) for r in rows]
                assert oracles.c1p_by_subset_dp(smaller, ncols)


@st.composite
def unit_models(draw):
    """Unit models with left ends on a grid of 1/d, the vertices in a drawn
    order: random spreads, long paths with touching ends, cliques, edgeless
    layouts and clusters with gaps between them."""
    d = draw(st.sampled_from([1, 2, 3, 7]))
    n = draw(st.integers(0, 40))
    shape = draw(st.sampled_from(["random", "path", "clique", "edgeless", "clusters"]))
    if shape == "random":
        ks = draw(st.lists(st.integers(0, n * d), min_size=n, max_size=n))
    elif shape == "path":
        ks = [i * d for i in range(draw(st.integers(0, 300)))]
    elif shape == "clique":
        ks = [0] * n
    elif shape == "edgeless":
        ks = [2 * d * i for i in range(n)]
    else:
        pair = st.tuples(st.integers(0, 3), st.integers(0, 2 * d))
        ks = [4 * d * c + k for c, k in draw(st.lists(pair, min_size=n, max_size=n))]
    ks = draw(st.permutations(ks))
    return IntervalModel((F(k, d), F(k, d) + 1) for k in ks)


def claw_on_path(n):
    """A path on n vertices, with one more vertex hung on its middle one."""
    return StaticGraph(n + 1, [(v, v + 1) for v in range(n - 1)] + [(n // 2, n)])


def edges_instance(graphs):
    n = graphs[0].n
    names = [f"v{i}" for i in range(n)]
    return TemporalIntervalInstance(
        names, [1] * n, len(graphs), 1, 0, "edges", list(graphs), True
    )


def layer_model(g):
    """The model ensure_unit keeps for g as the one layer of an edges
    instance declared unit; NotUnitError when g is not unit interval."""
    (m,) = ensure_unit(edges_instance([g]))
    return m


def assert_normalized_model_of(m, g):
    """m induces g, with integer endpoints, and is g's normalized model
    along its right endpoints: a permutation of 1..n."""
    assert all(x.denominator == 1 for iv in m.intervals for x in iv)
    assert m.induced_graph() == g
    order = sorted(range(g.n), key=lambda v: m.intervals[v][1])
    assert [m.intervals[v][1] for v in order] == list(range(1, g.n + 1))
    assert m == normalized_model_for(g, REOrdering(tuple(order)))


class TestUnitRecognition:
    """The unit check of an edges-mode layer and the model it keeps."""

    @settings(max_examples=300, deadline=None)
    @given(m=unit_models())
    def test_layer_model_is_integer_and_normalized(self, m):
        g = m.induced_graph()
        assert_normalized_model_of(layer_model(g), g)

    def test_unit_check_at_4000_vertices_in_seconds(self):
        # the edge-list copy of a 5-layer order-preserving instance: one
        # pass per layer after the C1P test
        src = tis.gen_order_preserving(4000, 5, 2, 0, seed=1)
        inst = edges_instance([src.layer_graph(t) for t in range(1, src.tau + 1)])
        start = time.perf_counter()
        models = ensure_unit(inst)
        assert time.perf_counter() - start < 3
        for t, model in enumerate(models, 1):
            assert model.induced_graph() == inst.layer_graph(t)

    def test_non_unit_layer_refused_without_a_witness(self, monkeypatch):
        # the refusal needs the C1P decision alone, so no witness is shrunk
        g = claw_on_path(2000)
        shrinks = []
        original = tis.intervals.shrink_witness

        def counted(*args):
            shrinks.append(args)
            return original(*args)

        monkeypatch.setattr(tis.intervals, "shrink_witness", counted)
        start = time.perf_counter()
        with pytest.raises(NotUnitError):
            ensure_unit(edges_instance([g]))
        assert time.perf_counter() - start < 5
        assert shrinks == []

    def test_edgeless_graph(self):
        g = StaticGraph(3)
        assert_normalized_model_of(layer_model(g), g)

    def test_claw_refused(self):
        g = StaticGraph(4, [(0, 1), (0, 2), (0, 3)])
        with pytest.raises(NotUnitError, match="layer 1 is not a unit interval graph"):
            layer_model(g)

    def test_path_four(self):
        g = StaticGraph(4, [(0, 1), (1, 2), (2, 3)])
        assert_normalized_model_of(layer_model(g), g)

    def test_long_containment_case(self):
        # diamond plus pendant: proper interval, defeats naive left-endpoint
        # placement
        g = StaticGraph(4, [(0, 1), (1, 2), (1, 3), (2, 3)])
        assert_normalized_model_of(layer_model(g), g)

    def test_random_unit_models_roundtrip(self):
        # up to 60 vertices, left ends on grids of several denominators;
        # integer grids make many ends touch
        rng = random.Random(2024)
        for i in range(240):
            n = rng.randint(1, 60)
            denom = (1, 2, 3, 7, n + 1)[i % 5]
            span = rng.randint(1, max(1, n // 2))
            ivs = []
            for _ in range(n):
                left = F(rng.randint(0, span * denom), denom)
                ivs.append((left, left + 1))
            g = IntervalModel(tuple(ivs)).induced_graph()
            assert_normalized_model_of(layer_model(g), g)

    def test_not_unit_interval_graphs_refused(self):
        rng = random.Random(123)
        refused = 0
        for _ in range(200):
            n = rng.randint(4, 8)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.4
            ]
            g = StaticGraph(n, edges)
            try:
                m = layer_model(g)
            except NotUnitError:
                refused += 1
            else:
                assert_normalized_model_of(m, g)
        assert refused > 0


class TestNormalization:
    def test_single_vertex(self):
        m = normalized_model_for(StaticGraph(1), REOrdering((0,)))
        assert m.intervals == ((F(1), F(1)),)

    def test_normalized_model_keeps_graph(self):
        rng = random.Random(99)
        for _ in range(100):
            n = rng.randint(1, 8)
            ivs = []
            for _ in range(n):
                left = F(rng.randint(0, 2 * (n + 1)), n + 1)
                ivs.append((left, left + 1))
            m = IntervalModel(tuple(ivs))
            g = m.induced_graph()
            order = sorted(range(n), key=lambda v: (m.intervals[v][1], v))
            norm = normalized_model_for(g, REOrdering(tuple(order)))
            assert norm.induced_graph() == g
            pos = {v: i + 1 for i, v in enumerate(order)}
            for v in range(n):
                assert norm.intervals[v][1] == pos[v]

    def test_incompatible_ordering_raises_with_pair(self):
        g = StaticGraph(3, [(0, 2)])  # 1 sits between the only edge
        with pytest.raises(OrderingIncompatible) as err:
            normalized_model_for(g, REOrdering((0, 1, 2)))
        assert err.value.pair is not None

    def test_agreement_check(self):
        g = StaticGraph(3, [(0, 1), (1, 2)])
        assert violating_pair(g.edges, REOrdering((0, 1, 2))) is None
        g2 = StaticGraph(3, [(0, 2)])
        assert violating_pair(g2.edges, REOrdering((0, 1, 2))) is not None


class TestModelAlgebra:
    """Two layers normalized to one ordering share their right endpoints;
    the conflict model of the two-layer instance is their edge intersection
    at delta = 2 (one window of both layers) and their edge union at
    delta = 1 (one window per layer)."""

    def _unit_pair(self, rng, n):
        order = list(range(n))
        rng.shuffle(order)
        models = []
        for _ in range(2):
            rights = {}
            r = F(0)
            for v in order:
                r += F(rng.randint(1, n + 2), n + 1)
                rights[v] = r
            ivs = [(rights[v] - 1, rights[v]) for v in range(n)]
            models.append(IntervalModel(tuple(ivs)))
        return models, REOrdering(tuple(order))

    def _intersect_and_union(self, layers, sigma):
        n = layers[0].n
        names = [f"v{i}" for i in range(n)]
        return tuple(
            conflict_interval_model(
                TemporalIntervalInstance(
                    names, [1] * n, 2, delta, 0, "model", layers, True
                ),
                sigma,
            )
            for delta in (2, 1)
        )

    def test_idempotence(self):
        rng = random.Random(7)
        (raw, _), sigma = self._unit_pair(rng, 5)
        m1 = normalized_model_for(raw.induced_graph(), sigma)
        inter, union = self._intersect_and_union((raw, raw), sigma)
        assert inter.intervals == m1.intervals
        assert union.intervals == m1.intervals

    def test_intersection_and_union_graphs(self):
        rng = random.Random(1234)
        for _ in range(120):
            n = rng.randint(1, 9)
            raw, sigma = self._unit_pair(rng, n)
            e1 = oracles.model_edge_set(raw[0].intervals)
            e2 = oracles.model_edge_set(raw[1].intervals)
            mi, mu = self._intersect_and_union(raw, sigma)
            assert oracles.model_edge_set(mi.intervals) == (e1 & e2)
            assert oracles.model_edge_set(mu.intervals) == (e1 | e2)

    def test_union_identity_element(self):
        rng = random.Random(8)
        (raw, _), sigma = self._unit_pair(rng, 6)
        m1 = normalized_model_for(raw.induced_graph(), sigma)
        # disjoint unit intervals in sigma's order: an edgeless layer, whose
        # normalized model has left = right = position
        pos = {v: i for i, v in enumerate(sigma.order)}
        edgeless = IntervalModel(
            tuple((F(2 * pos[v]), F(2 * pos[v] + 1)) for v in range(6))
        )
        _, union = self._intersect_and_union((raw, edgeless), sigma)
        assert union.intervals == m1.intervals
