import random

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import tis
from tis.conflict import (
    WindowSemantics,
    conflict_graph,
    delta_independence_check,
    window_plan,
)


class TestWindowPlan:
    def test_sliding(self):
        plan = window_plan(5, 2, WindowSemantics.FIGURE)
        assert plan.window_length == 2
        assert plan.starts == (1, 2, 3, 4)
        assert list(plan.layers(3)) == [3, 4]

    def test_delta_equals_tau(self):
        plan = window_plan(3, 3, WindowSemantics.FIGURE)
        assert plan.starts == (1,)
        assert list(plan.layers(1)) == [1, 2, 3]

    def test_formula_windows_are_longer(self):
        plan = window_plan(5, 2, WindowSemantics.FORMULA)
        assert plan.window_length == 3
        assert plan.starts == (1, 2, 3)

    def test_formula_delta_equals_tau_has_no_windows(self):
        plan = window_plan(3, 3, WindowSemantics.FORMULA)
        assert plan.starts == ()


class TestConflictGraph:
    def test_known_window_intersections(self, windows_triangle):
        g = conflict_graph(windows_triangle)
        names = windows_triangle.names
        got = {(names[u], names[v]) for u, v in g.edges}
        assert got == {
            ("v1", "v2"),
            ("v1", "v3"),
            ("v2", "v3"),
            ("v2", "v4"),
            ("v3", "v5"),
        }

    def test_delta_one_is_layer_union(self, two_layer_path):
        g = conflict_graph(two_layer_path)
        want = oracles.layer_edge_set(two_layer_path, 1) | oracles.layer_edge_set(
            two_layer_path, 2
        )
        assert set(g.edges) == want

    def test_formula_semantics_differ(self, windows_triangle):
        fig = conflict_graph(windows_triangle, WindowSemantics.FIGURE)
        form = conflict_graph(windows_triangle, WindowSemantics.FORMULA)
        # tau=3, delta=2: formula has one window spanning all three layers
        assert set(form.edges) <= set(fig.edges)
        want = oracles.conflict_edge_set(windows_triangle, "formula")
        assert set(form.edges) == want

    def test_formula_empty_when_delta_equals_tau(self):
        inst = tis.gen_random_unit(5, 2, 2, 0, seed=3)
        form = conflict_graph(inst, WindowSemantics.FORMULA)
        assert form.edges == frozenset()

    def test_matches_definition_on_random_instances(self):
        for seed in range(80):
            n = 3 + seed % 5
            tau = 1 + seed % 4
            delta = 1 + seed % tau if tau > 1 else 1
            inst = tis.gen_random_unit(n, tau, min(delta, tau), 0, seed=900 + seed)
            for sem in WindowSemantics:
                got = set(conflict_graph(inst, sem).edges)
                assert got == oracles.conflict_edge_set(inst, sem.value)


class TestIndependenceCheck:
    def test_accepts_named_vertices(self, windows_triangle):
        rep = delta_independence_check(windows_triangle, ["v1", "v4", "v5"])
        assert rep.independent
        assert rep.violation is None

    def test_violation_carries_window(self, windows_triangle):
        rep = delta_independence_check(windows_triangle, ["v1", "v2"])
        assert not rep.independent
        u, v, start = rep.violation
        assert {u, v} == {0, 1}
        assert start in (1, 2)

    def test_empty_set_always_independent(self, two_layer_path):
        assert delta_independence_check(two_layer_path, []).independent

    def test_agrees_with_conflict_graph(self):
        rng = random.Random(55)
        for seed in range(40):
            inst = tis.gen_random_unit(6, 2 + seed % 3, 1 + seed % 2, 0, seed=seed)
            g = conflict_graph(inst)
            for _ in range(6):
                sel = frozenset(
                    v for v in range(inst.n) if rng.random() < 0.4
                )
                rep = delta_independence_check(inst, sel)
                clash = any(
                    u in g.neighbors(v) for u in sel for v in sel if u < v
                )
                assert rep.independent == (not clash)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(1, 12),
        tau=st.integers(1, 5),
        semantics=st.sampled_from(list(WindowSemantics)),
        data=st.data(),
    )
    def test_report_matches_definition(self, seed, n, tau, semantics, data):
        inst = tis.gen_random_unit(
            n, tau, 1 + seed % tau, 0, seed=seed, spread=2 + seed % 3
        )
        if data.draw(st.booleans(), label="edges mode"):
            inst = tis.TemporalIntervalInstance(
                inst.names, inst.weights, inst.tau, inst.delta, inst.k, "edges",
                [inst.layer_graph(t) for t in range(1, tau + 1)], True,
            )
        greedy = tis.solve_greedy(inst, semantics).selected
        # a random set (mostly dependent) or a greedy answer (independent,
        # so every pair and window has a witness)
        sel = data.draw(
            st.one_of(st.just(greedy), st.frozensets(st.integers(0, n - 1)))
        )
        rep = delta_independence_check(inst, sel, semantics)
        want = oracles.independence_report(inst, sel, semantics.value)
        assert (rep.independent, rep.violation) == want
