import itertools
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import tis
from tis.conflict import WindowSemantics, conflict_graph
from tis.model import (
    InternalError,
    IntervalModel,
    LimitExceeded,
    StaticGraph,
    TemporalIntervalInstance,
)
from tis.solvers import (
    _mwis_graph_kernel,
    solve,
    solve_exact_bruteforce,
    solve_exact_op,
    solve_fpt,
    solve_greedy,
    verify_solution,
)


class TestBruteforce:
    def test_fixture_optimum(self, windows_triangle):
        sol = solve_exact_bruteforce(windows_triangle)
        assert sol.cardinality == 3
        names = [windows_triangle.names[i] for i in sorted(sol.selected)]
        assert names == ["v1", "v4", "v5"]

    def test_matches_enumeration(self, weighted_corpus):
        for inst in weighted_corpus[:80]:
            sol = solve_exact_bruteforce(inst)
            g = conflict_graph(inst)
            edges = oracles.graph_edges(g)
            best = oracles.max_weight_independent(inst.n, edges, inst.weights)
            assert sol.objective == best

    def test_canonical_among_optima(self, weighted_corpus):
        for inst in weighted_corpus[:40]:
            sol = solve_exact_bruteforce(inst)
            edges = oracles.graph_edges(conflict_graph(inst))
            optima = oracles.all_optimal_independent_sets(
                inst.n, edges, inst.weights
            )
            assert frozenset(sol.selected) == optima[0]

    def test_formula_semantics(self, weighted_corpus):
        for inst in weighted_corpus[:30]:
            sol = solve_exact_bruteforce(inst, WindowSemantics.FORMULA)
            edges = oracles.conflict_edge_set(inst, "formula")
            best = oracles.max_weight_independent(inst.n, edges, inst.weights)
            assert sol.objective == best

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(1, 12),
        tau=st.integers(1, 4),
        data=st.data(),
    )
    def test_rational_weights_match_enumeration(self, seed, n, tau, data):
        # weights p/q with q up to 12, zero included: exercises the integer
        # scaling of the branch and bound
        base = tis.gen_random_unit(
            n, tau, 1 + seed % tau, 0, seed=seed, spread=2 + seed % 3
        )
        weights = data.draw(
            st.lists(
                st.builds(Fraction, st.integers(0, 30), st.integers(1, 12)),
                min_size=n,
                max_size=n,
            )
        )
        inst = TemporalIntervalInstance(
            base.names, weights, base.tau, base.delta, 0, base.mode,
            base.layers, base.unit_flag,
        )
        sol = solve_exact_bruteforce(inst)
        edges = oracles.conflict_edge_set(inst)
        assert sol.objective == oracles.max_weight_independent(n, edges, weights)
        optima = oracles.all_optimal_independent_sets(n, edges, weights)
        assert frozenset(sol.selected) == optima[0]
        g = conflict_graph(inst)
        assert _mwis_graph_kernel(g, [1] * g.n)[0] == oracles.mis_cardinality(n, edges)

    def test_cut_drops_only_trailing_zero_weights(self):
        # three vertices that never conflict: every subset is independent
        layer = IntervalModel([(0, 1), (2, 3), (4, 5)])

        def solve(weights):
            inst = TemporalIntervalInstance(
                ["a", "b", "c"], weights, 1, 1, 0, "model", [layer], True
            )
            sol = solve_exact_bruteforce(inst)
            return sol.selected, sol.objective

        assert solve([0, 0, 0]) == (frozenset(), 0)
        assert solve([Fraction(1, 3), 0, 0]) == (frozenset({0}), Fraction(1, 3))
        assert solve([0, 1, 0]) == (frozenset({0, 1}), 1)

    def test_size_guard(self):
        inst = tis.gen_random_unit(8, 2, 1, 0, seed=5)
        with pytest.raises(LimitExceeded):
            solve_exact_bruteforce(inst, limit=7)

    def test_certificate_attached(self, windows_triangle):
        sol = solve_exact_bruteforce(windows_triangle)
        assert sol.certificate is not None
        assert sol.certificate.independent


class TestGreedy:
    def test_result_is_independent(self, weighted_corpus):
        for inst in weighted_corpus[:60]:
            sol = solve_greedy(inst)
            rep = tis.delta_independence_check(inst, sol.selected)
            assert rep.independent

    def test_ratio_bound(self, weighted_corpus):
        for inst in weighted_corpus[:60]:
            sol = solve_greedy(inst)
            opt = solve_exact_bruteforce(inst).objective
            ratio = (inst.tau - inst.delta + 1) * 2**inst.delta
            assert sol.objective * ratio >= opt

    def test_deterministic(self, weighted_corpus):
        inst = weighted_corpus[0]
        assert solve_greedy(inst).selected == solve_greedy(inst).selected

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(1, 14),
        tau=st.integers(1, 4),
        semantics=st.sampled_from(list(WindowSemantics)),
        data=st.data(),
    )
    def test_matches_naive_greedy(self, seed, n, tau, semantics, data):
        base = tis.gen_random_unit(
            n, tau, 1 + seed % tau, 0, seed=seed, spread=2 + seed % 3
        )
        # few distinct weights, so ties are common
        weights = data.draw(
            st.lists(
                st.builds(Fraction, st.integers(0, 3), st.integers(1, 2)),
                min_size=n,
                max_size=n,
            )
        )
        inst = TemporalIntervalInstance(
            base.names, weights, base.tau, base.delta, 0, base.mode,
            base.layers, base.unit_flag,
        )
        sol = solve_greedy(inst, semantics)
        edges = oracles.conflict_edge_set(inst, semantics.value)
        picks = oracles.greedy_by_definition(n, edges, weights)
        assert sol.selected == picks
        assert sol.objective == sum((weights[v] for v in picks), Fraction(0))

    def test_failed_self_check_is_internal_error(self, weighted_corpus, monkeypatch):
        # the check must survive python -O, so it cannot be an assert
        monkeypatch.setattr(
            tis.solvers,
            "delta_independence_check",
            lambda *args: tis.IndependenceReport(False, violation=(0, 1, 1)),
        )
        with pytest.raises(InternalError):
            solve_greedy(weighted_corpus[0])


class TestExactOp:
    def test_agrees_with_bruteforce(self, op_corpus):
        for inst in op_corpus[:60]:
            rep = tis.recognize_order_preserving(inst)
            sol = solve_exact_op(inst, rep.ordering)
            ref = solve_exact_bruteforce(inst)
            assert sol.objective == ref.objective
            assert sol.selected == ref.selected

    def test_weighted_instances(self, weighted_corpus):
        checked = 0
        for inst in weighted_corpus:
            rep = tis.recognize_order_preserving(inst)
            if not rep.is_order_preserving:
                continue
            sol = solve_exact_op(inst, rep.ordering)
            assert sol.objective == solve_exact_bruteforce(inst).objective
            checked += 1
            if checked >= 40:
                break
        assert checked >= 40

    @pytest.mark.parametrize("semantics", list(WindowSemantics))
    def test_is_fpt_with_empty_deletion_set(self, op_corpus, semantics, monkeypatch):
        # one sweep: op is fpt with S empty, and builds no interval model
        # once it has the ordering (every model construction sets its keys)
        orderings = [tis.recognize_order_preserving(i).ordering for i in op_corpus]
        built = []
        set_keys = tis.model._set_keys
        monkeypatch.setattr(
            tis.model, "_set_keys", lambda *args: built.append(1) or set_keys(*args)
        )
        sols = [solve_exact_op(i, o, semantics) for i, o in zip(op_corpus, orderings)]
        assert built == []
        for inst, sol in zip(op_corpus, sols):
            ref = solve_fpt(inst, (), semantics)
            assert (sol.selected, sol.objective) == (ref.selected, ref.objective)


class TestFpt:
    def test_matches_bruteforce(self, fpt_corpus):
        for inst in fpt_corpus[:80]:
            s = tis.min_opvd(inst).deletion_set
            sol = solve_fpt(inst, s)
            ref = solve_exact_bruteforce(inst)
            assert sol.objective == ref.objective
            assert sol.selected == ref.selected

    @pytest.mark.parametrize("semantics", list(WindowSemantics))
    def test_solve_recognizes_once_with_no_set(self, fpt_corpus, semantics, monkeypatch):
        # solve(…, "fpt") sweeps along min_opvd's ordering instead of
        # recognizing inst - D again, and answers as solve_fpt on D does
        refs = [
            solve_fpt(i, tis.min_opvd(i).deletion_set, semantics) for i in fpt_corpus[:30]
        ]
        seen = []
        monkeypatch.setattr(
            tis.solvers, "recognize_order_preserving", lambda *a, **k: seen.append(1)
        )
        for inst, ref in zip(fpt_corpus, refs):
            sol = solve(inst, "fpt", semantics)
            assert (sol.selected, sol.objective, sol.algorithm) == (
                ref.selected, ref.objective, ref.algorithm,
            )
        assert seen == []

    def test_accepts_non_minimal_deletion_set(self, two_layer_path):
        ref = solve_exact_bruteforce(two_layer_path)
        for s in (frozenset({0}), frozenset({0, 1}), frozenset({0, 5})):
            sol = solve_fpt(two_layer_path, s)
            assert sol.objective == ref.objective
            assert sol.selected == ref.selected

    def test_rejects_insufficient_set(self, two_layer_path):
        with pytest.raises(ValueError):
            solve_fpt(two_layer_path, frozenset())

    def test_result_independent_and_within_bound(self, fpt_corpus):
        for inst in fpt_corpus[:40]:
            s = tis.min_opvd(inst).deletion_set
            sol = solve_fpt(inst, s)
            assert tis.delta_independence_check(inst, sol.selected).independent

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(1, 10),
        tau=st.integers(1, 4),
        semantics=st.sampled_from(list(WindowSemantics)),
        data=st.data(),
    )
    def test_canonical_optimum(self, seed, n, tau, semantics, data):
        # weights p/q with q up to 12, zeros common: ties between optima
        # must go to the lexicographically smallest set, as for exact
        base = tis.gen_random_unit(
            n, tau, 1 + seed % tau, 0, seed=seed, spread=2 + seed % 3
        )
        weights = data.draw(
            st.lists(
                st.one_of(
                    st.just(Fraction(0)),
                    st.builds(Fraction, st.integers(0, 6), st.integers(1, 12)),
                ),
                min_size=n,
                max_size=n,
            )
        )
        inst = TemporalIntervalInstance(
            base.names, weights, base.tau, base.delta, 0, base.mode,
            base.layers, base.unit_flag,
        )
        s = tis.min_opvd(inst).deletion_set
        s |= data.draw(st.sets(st.integers(0, n - 1), max_size=2))
        sol = solve_fpt(inst, s, semantics)
        edges = oracles.conflict_edge_set(inst, semantics.value)
        optima = oracles.all_optimal_independent_sets(n, edges, weights)
        assert sol.selected == optima[0]
        assert sol.objective == oracles.max_weight_independent(n, edges, weights)

    def test_one_model_and_one_certification(self, two_layer_path, monkeypatch):
        # one conflict graph, of inst; the survivors' DP plan is read off it
        # induced, along the ordering, with no reduced instance built
        calls = {"graph": 0, "plan": 0, "reduce": 0, "check": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name, key in (
            ("conflict_graph", "graph"),
            ("_leftmost_earlier", "plan"),
            ("remove_vertices", "reduce"),
            ("delta_independence_check", "check"),
        ):
            monkeypatch.setattr(
                tis.solvers, name, counted(key, getattr(tis.solvers, name))
            )
        monkeypatch.setattr(
            tis.model, "remove_vertices", counted("reduce", tis.model.remove_vertices)
        )
        solve_fpt(two_layer_path, frozenset({0, 1, 5}))
        assert calls == {"graph": 1, "plan": 1, "reduce": 0, "check": 1}

    @pytest.mark.parametrize("seed", [1, 2])
    def test_wide_deletion_set_matches_op(self, seed):
        # an order-preserving instance with 10 random vertices as S: any S
        # leaves it order preserving, so fpt must return op's canonical set
        rng = random.Random(seed)
        base = tis.gen_order_preserving(200, 5, 2, 0, seed=seed)
        weights = [Fraction(rng.randint(0, 9), rng.randint(1, 4)) for _ in range(200)]
        inst = TemporalIntervalInstance(
            base.names, weights, base.tau, base.delta, 0, base.mode,
            base.layers, base.unit_flag,
        )
        s = rng.sample(range(200), 10)
        for semantics in WindowSemantics:
            sol = solve_fpt(inst, s, semantics)
            ref = solve(inst, "op", semantics)
            assert (sol.selected, sol.objective) == (ref.selected, ref.objective)

    @pytest.mark.parametrize("semantics", list(WindowSemantics))
    def test_one_plan_and_one_dp_per_independent_subset(self, semantics, monkeypatch):
        calls = {"plan": 0, "dp": 0, "restrict": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        for owner, name, key in (
            (tis.solvers, "_leftmost_earlier", "plan"),
            (tis.solvers, "_schedule", "dp"),
            (IntervalModel, "restrict", "restrict"),
        ):
            monkeypatch.setattr(owner, name, counted(key, getattr(owner, name)))
        inst = tis.gen_order_preserving(60, 4, 2, 0, seed=3)
        edges = oracles.conflict_edge_set(inst, semantics.value)
        s = [0, 2, 3, 4, 7, 10, 46, 53, 54]
        independent = sum(
            all((u, v) not in edges for u, v in itertools.combinations(x, 2))
            for size in range(len(s) + 1)
            for x in itertools.combinations(s, size)
        )
        assert 1 < independent < 2 ** len(s)
        solve_fpt(inst, s, semantics)
        # no reduced instance, so no layer is restricted
        assert calls == {"plan": 1, "dp": independent, "restrict": 0}

    @pytest.mark.parametrize("semantics", list(WindowSemantics))
    def test_one_static_graph_after_recognition(self, semantics, monkeypatch):
        # the conflict graph is the only graph built: the plan reads its
        # edges without S, and in model mode neither recognition nor the
        # certificate builds one
        inst = tis.gen_order_preserving(60, 4, 2, 0, seed=3)
        ordering = tis.recognize_order_preserving(inst, witness=False).ordering
        built = []
        init = StaticGraph.__init__

        def counted(self, n, edges=()):
            built.append(n)
            init(self, n, edges)

        monkeypatch.setattr(StaticGraph, "__init__", counted)
        solve_exact_op(inst, ordering, semantics)
        assert built == [inst.n]
        solve_fpt(inst, [0, 2, 3, 46], semantics)
        assert built == [inst.n, inst.n]

def test_pipeline_at_2000_vertices_in_both_modes():
    # the whole op / fpt / greedy pipeline on a large order-preserving
    # instance and its edge-list copy, with the recursion limit a little
    # above the current depth: nothing may recurse along n
    inst = tis.gen_order_preserving(2000, 5, 2, 0, seed=1)
    edges = TemporalIntervalInstance(
        inst.names, inst.weights, inst.tau, inst.delta, inst.k, "edges",
        [inst.layer_graph(t) for t in range(1, inst.tau + 1)], True,
    )
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    start = time.perf_counter()
    try:
        runs = [
            (solve(i, "op"), solve(i, "fpt"), tis.min_opvd(i), solve(i, "greedy"))
            for i in (inst, edges)
        ]
    finally:
        sys.setrecursionlimit(old_limit)
    assert time.perf_counter() - start < 120
    op = runs[0][0]
    for op_sol, fpt_sol, deletion, greedy in runs:
        assert deletion.deletion_set == frozenset()
        assert op_sol.selected == fpt_sol.selected == op.selected
        assert op_sol.certificate.independent
        assert greedy.certificate.independent
        assert greedy.objective <= op.objective


class TestVerification:
    def test_accepts_optimum(self, windows_triangle):
        sol = solve_exact_bruteforce(windows_triangle)
        rep = verify_solution(windows_triangle, sol.selected)
        assert rep.accepted
        assert rep.cardinality == 3
        assert rep.meets_k

    def test_rejects_conflicting_pair(self, windows_triangle):
        rep = verify_solution(windows_triangle, ["v1", "v2"])
        assert not rep.accepted
        assert not rep.independent
        assert rep.certificate.violation is not None

    def test_rejects_small_set(self, windows_triangle):
        # independent but below the target cardinality
        rep = verify_solution(windows_triangle, ["v1"])
        assert rep.independent
        assert not rep.meets_k
        assert not rep.accepted

    def test_weight_reported(self, single_vertex):
        rep = verify_solution(single_vertex, ["u"])
        assert rep.total_weight == Fraction(2)
        assert rep.accepted


class TestCardinalityHelper:
    def test_matches_oracle(self, weighted_corpus):
        for inst in weighted_corpus[:40]:
            g = conflict_graph(inst)
            assert _mwis_graph_kernel(g, [1] * g.n)[0] == oracles.mis_cardinality(
                inst.n, oracles.graph_edges(g)
            )
