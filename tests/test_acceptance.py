"""End to end acceptance checks, one test function per shipped guarantee.

Run with -v to get one pass/fail line per criterion.  Every comparison is
exact: rational arithmetic everywhere, no float tolerances anywhere.
"""

import concurrent.futures
import csv
import io
import random

import oracles
import tis
from conftest import invoke_cli
from tis.conflict import conflict_graph
from tis.intervals import c1p_test
from tis.model import remove_vertices
from tis.solvers import (
    solve_exact_bruteforce,
    solve_exact_op,
    solve_fpt,
    solve_greedy,
    verify_solution,
)

DATA = "tests/data"


def test_criterion_01_conflict_graph_and_optimum_on_three_layer_fixture(
    windows_triangle,
):
    inst = windows_triangle
    g = conflict_graph(inst)
    got = {
        frozenset((inst.names[u], inst.names[v])) for u, v in g.edges
    }
    want = {
        frozenset(p)
        for p in (("v1", "v2"), ("v1", "v3"), ("v2", "v3"),
                  ("v2", "v4"), ("v3", "v5"))
    }
    assert got == want
    sol = solve_exact_bruteforce(inst)
    assert sol.cardinality == 3
    rep = verify_solution(inst, ["v1", "v4", "v5"])
    assert rep.accepted


def test_criterion_02_deletion_distance_on_two_layer_fixture(two_layer_path):
    inst = two_layer_path
    assert not tis.recognize_order_preserving(inst).is_order_preserving
    res = tis.min_opvd(inst)
    assert res.size == 1
    after = remove_vertices(inst, ["v4"])
    assert tis.recognize_order_preserving(after).is_order_preserving


def test_criterion_03_greedy_approximation_bound(weighted_corpus):
    assert len(weighted_corpus) >= 500
    for inst in weighted_corpus:
        greedy = solve_greedy(inst)
        opt = solve_exact_bruteforce(inst).objective
        ratio = (inst.tau - inst.delta + 1) * 2**inst.delta
        assert greedy.objective * ratio >= opt


def test_criterion_04_neighborhood_independence_cap(weighted_corpus):
    assert len(weighted_corpus) >= 500
    for inst in weighted_corpus:
        edges = oracles.conflict_edge_set(inst)
        bound = 2**inst.delta * (inst.tau - inst.delta + 1)
        for v in range(inst.n):
            hood = [v] + [u for u in range(inst.n) if (min(u, v), max(u, v)) in edges]
            index = {u: i for i, u in enumerate(hood)}
            sub = {(index[a], index[b]) for a, b in edges if a in index and b in index}
            assert oracles.mis_cardinality(len(hood), sub) <= bound


def with_delta(inst, delta):
    return tis.TemporalIntervalInstance(
        inst.names,
        inst.weights,
        inst.tau,
        delta,
        inst.k,
        inst.mode,
        inst.layers,
        inst.unit_flag,
    )


def test_criterion_05_model_algebra_closure():
    cases = 0
    seed = 0
    while cases < 500:
        inst = tis.gen_order_preserving(3 + seed % 6, 2, 1, 0, seed=20000 + seed)
        seed += 1
        rep = tis.recognize_order_preserving(inst)
        m1 = tis.normalized_model_for(inst.layer_graph(1), rep.ordering)
        m2 = tis.normalized_model_for(inst.layer_graph(2), rep.ordering)
        # one window of both layers at delta = 2, one per layer at delta = 1
        inter, union = (
            tis.conflict_interval_model(with_delta(inst, delta), rep.ordering)
            for delta in (2, 1)
        )
        g1 = oracles.model_edge_set(m1.intervals)
        g2 = oracles.model_edge_set(m2.intervals)
        assert oracles.model_edge_set(inter.intervals) == g1 & g2
        assert oracles.model_edge_set(union.intervals) == g1 | g2
        for result in (inter, union):
            for i in range(inst.n):
                # right endpoints stay pinned to ordering positions, all exact
                assert result.intervals[i][1] == m1.intervals[i][1]
        cases += 1
    assert cases >= 500


def test_criterion_06_order_preserving_pipeline_equivalence(op_corpus):
    assert len(op_corpus) >= 200
    for inst in op_corpus:
        rep = tis.recognize_order_preserving(inst)
        assert rep.is_order_preserving
        model = tis.conflict_interval_model(inst, rep.ordering)
        assert oracles.model_edge_set(model.intervals) == set(
            conflict_graph(inst).edges
        )
        fast = solve_exact_op(inst, rep.ordering)
        slow = solve_exact_bruteforce(inst)
        assert fast.objective == slow.objective
        assert fast.selected == slow.selected


def test_criterion_07_recognition_matches_ordering_search(small_corpus):
    assert len(small_corpus) >= 200
    for inst in small_corpus:
        assert inst.n <= 7
        rep = tis.recognize_order_preserving(inst)
        found = oracles.common_ordering_exists(inst)
        assert rep.is_order_preserving == (found is not None)


def test_criterion_08_deletion_solver_equivalences(opvd_corpus, fpt_corpus):
    assert len(opvd_corpus) >= 100
    for inst in opvd_corpus:
        fast = tis.min_opvd(inst)
        slow = tis.opvd_exhaustive(inst)
        assert fast.size == slow.size
        assert fast.deletion_set == slow.deletion_set
    assert len(fpt_corpus) >= 200
    for inst in fpt_corpus:
        s = tis.min_opvd(inst).deletion_set
        sol = solve_fpt(inst, s)
        ref = solve_exact_bruteforce(inst)
        assert sol.objective == ref.objective


def test_criterion_09_gadget_deletion_law(gadget_cases):
    assert len(gadget_cases) >= 50
    for strings in gadget_cases:
        inst = tis.gen_lcsp_gadget(strings)
        chars = tis.gadget_character_vertices(inst)
        res = tis.min_opvd(inst, candidates=sorted(chars))
        n = len(strings[0])
        assert res.size == n - oracles.lcs_by_subsets(strings)


def test_criterion_10_consecutive_ones_brute_force():
    rng = random.Random(424242)
    checked = 0
    while checked < 1000:
        ncols = rng.randint(1, 8)
        nrows = rng.randint(1, 6)
        rows = [
            frozenset(c for c in range(ncols) if rng.random() < 0.45)
            for _ in range(nrows)
        ]
        verdict = c1p_test(rows, ncols).is_c1p
        assert verdict == oracles.c1p_by_subset_dp(rows, ncols)
        if ncols <= 6:
            assert verdict == oracles.c1p_by_permutations(rows, ncols)
        checked += 1
    assert checked >= 1000


def test_criterion_11_cli_determinism(tmp_path):
    invocations = [
        ("validate", f"{DATA}/windows_triangle.tis"),
        ("conflict", f"{DATA}/windows_triangle.tis"),
        ("conflict", f"{DATA}/two_layer_path.tis", "--out", "dot"),
        ("solve", f"{DATA}/windows_triangle.tis", "--alg", "exact"),
        ("solve", f"{DATA}/two_layer_path.tis", "--alg", "fpt",
         "--opvd", "auto"),
        ("recognize", f"{DATA}/two_layer_path.tis"),
        ("opvd", f"{DATA}/pooled_trap.tis"),
        ("gen", "random", "--n", "8", "--tau", "3", "--delta", "2",
         "--k", "2", "--seed", "41"),
        ("gen", "lcsp", "--perms", "abc,cab"),
    ]
    for argv in invocations:
        first = invoke_cli(*argv)
        second = invoke_cli(*argv)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode
        with concurrent.futures.ThreadPoolExecutor(2) as pool:
            par = list(pool.map(lambda _: invoke_cli(*argv), range(2)))
        assert par[0].stdout == par[1].stdout == first.stdout

    # benchmark runs: stdout identical, csv identical once timings are masked
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for s in range(3):
        invoke_cli("gen", "random", "--n", "6", "--tau", "2", "--delta", "1",
                   "--k", "2", "--seed", str(s),
                   "--out", str(corpus / f"r{s}.tis"))

    def masked(path):
        rows = list(csv.reader(open(path)))
        header = rows[0]
        t = header.index("runtime_ms")
        return [r[:t] + r[t + 1:] for r in rows]

    out1, out2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
    r1 = invoke_cli("bench", str(corpus), str(out1))
    r2 = invoke_cli("bench", str(corpus), str(out2))
    assert r1.stdout.replace(str(out1), "#") == r2.stdout.replace(str(out2), "#")
    assert masked(out1) == masked(out2)
