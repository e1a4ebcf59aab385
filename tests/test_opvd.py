import hashlib
import itertools
import random
import time
from pathlib import Path

import pytest

import oracles
import tis
import tis.intervals
import tis.opvd
from tis.intervals import REOrdering
from tis.model import BudgetExceeded, InternalError, LimitExceeded, remove_vertices
from tis.opvd import OpvdResult, min_opvd, opvd_exhaustive
from tis.order import OrderPreservationReport

DATA = Path(__file__).parent / "data"


class TestFixtures:
    def test_two_layer_path_needs_one_deletion(self, two_layer_path):
        res = min_opvd(two_layer_path)
        assert res.size == 1
        assert res.deletion_set == frozenset({0})
        left = remove_vertices(two_layer_path, res.deletion_set)
        assert tis.recognize_order_preserving(left).is_order_preserving

    def test_pooled_trap_lex_smallest(self, pooled_trap):
        res = min_opvd(pooled_trap)
        assert res.size == 1
        # both {a} and {s} are valid, a is index 0 and wins the tie
        assert res.deletion_set == frozenset({0})

    def test_ordering_field_covers_remaining_vertices(self, two_layer_path):
        res = min_opvd(two_layer_path)
        assert sorted(res.ordering) == [
            v for v in range(two_layer_path.n) if v not in res.deletion_set
        ]

    def test_preserving_instance_needs_nothing(self, op_corpus):
        res = min_opvd(op_corpus[0])
        assert res.size == 0
        assert res.deletion_set == frozenset()

    def test_deterministic_across_runs(self, two_layer_path, pooled_trap):
        for inst in (two_layer_path, pooled_trap):
            first = min_opvd(inst)
            again = min_opvd(inst)
            assert first.deletion_set == again.deletion_set
            assert first.ordering == again.ordering


class TestDeepDeletion:
    def test_nine_planted_deletions_at_n60(self):
        # planted_deletion(60, 3, 1, 9, seed=1) from benchmark/workloads.py.
        # The bound guards the cost's growth with the deletion set: about
        # 0.15 s on one core of a shared x86-64 VM, against 17-24 s for a
        # search that enumerates the candidate sets size by size.
        inst = tis.parse_instance((DATA / "planted_n60_d9.tis").read_text())
        start = time.perf_counter()
        res = min_opvd(inst)
        assert time.perf_counter() - start < 5
        want = {"v3", "v4", "v7", "v8", "v9", "v13", "v28", "v41", "v43"}
        assert res.deletion_set == inst.vertex_set(want)
        left = remove_vertices(inst, res.deletion_set)
        assert tis.recognize_order_preserving(left).is_order_preserving


class TestBudget:
    def test_zero_budget_raises(self, two_layer_path):
        with pytest.raises(BudgetExceeded):
            min_opvd(two_layer_path, budget=0)

    def test_tight_budget_succeeds(self, two_layer_path):
        res = min_opvd(two_layer_path, budget=1)
        assert res.size == 1

    def test_budget_not_needed_when_preserving(self, op_corpus):
        res = min_opvd(op_corpus[0], budget=0)
        assert res.size == 0

    def test_negative_budget_is_refused(self, op_corpus):
        # even where the empty set would do, a size-0 answer exceeds it
        with pytest.raises(ValueError, match="nonnegative"):
            min_opvd(op_corpus[0], budget=-1)


class TestCandidates:
    def test_restricted_pool(self, pooled_trap):
        # searching only within {s} must find the off-witness deletion
        res = min_opvd(pooled_trap, candidates=["s"])
        assert res.deletion_set == frozenset({3})

    def test_empty_pool_on_bad_instance(self, two_layer_path):
        with pytest.raises(BudgetExceeded):
            min_opvd(two_layer_path, candidates=[])

    def test_gadget_candidates_match_unrestricted(self):
        inst = tis.gen_lcsp_gadget([(1, 2), (2, 1)])
        free = min_opvd(inst)
        restricted = min_opvd(
            inst, candidates=sorted(tis.gadget_character_vertices(inst))
        )
        assert free.size == restricted.size


def _restricted_minimum(inst, pool, budget):
    """The smallest, then lexicographically first, subset of `pool` within
    `budget` leaving a common ordering; None when there is none."""
    top = len(pool) if budget is None else min(budget, len(pool))
    for d in range(top + 1):
        for combo in itertools.combinations(sorted(pool), d):
            left = remove_vertices(inst, combo)
            if oracles.common_ordering_exists(left) is not None:
                return frozenset(combo)
    return None


class TestCandidatesAgainstEnumeration:
    @pytest.mark.parametrize("seed", range(30))
    def test_matches_restricted_enumeration(self, seed):
        rng = random.Random(7100 + seed)
        n = rng.randint(5, 8)
        inst = tis.gen_random_unit(n, 2, 1, 0, seed=seed, spread=2)
        # large pools, so that minima of size 2 with ties are common
        pool = [] if seed % 5 == 0 else rng.sample(range(n), rng.randint(n // 2, n))
        for budget in (None, 0, 1):
            want = _restricted_minimum(inst, pool, budget)
            if want is None:
                with pytest.raises(BudgetExceeded):
                    min_opvd(inst, budget=budget, candidates=pool)
            else:
                res = min_opvd(inst, budget=budget, candidates=pool)
                assert res.deletion_set == want


class TestExhaustive:
    def test_matches_branching_search(self, opvd_corpus):
        for inst in opvd_corpus[:40]:
            fast = min_opvd(inst)
            slow = opvd_exhaustive(inst)
            assert fast.size == slow.size
            assert fast.deletion_set == slow.deletion_set

    def test_limit_guard(self):
        inst = tis.gen_random_unit(6, 2, 1, 0, seed=1)
        with pytest.raises(LimitExceeded):
            opvd_exhaustive(inst, limit=5)


class TestResult:
    def test_missing_ordering_is_internal_error(self, two_layer_path):
        rep = OrderPreservationReport(None, None)
        assert not rep.is_order_preserving
        with pytest.raises(InternalError):
            tis.opvd._result(two_layer_path, frozenset({0}), rep)

    def test_ordering_in_original_indices(self, two_layer_path):
        rep = OrderPreservationReport(REOrdering((4, 0, 2, 1, 3)), None)
        assert rep.is_order_preserving
        res = tis.opvd._result(two_layer_path, frozenset({1}), rep)
        assert res == OpvdResult(frozenset({1}), 1, (5, 0, 3, 2, 4))


class TestDeletionValidity:
    def test_result_always_minimum(self, opvd_corpus):
        # every strictly smaller set must fail; spot-check via subsets of
        # the found set plus exhaustive confirmation on small instances
        for inst in opvd_corpus[:15]:
            res = min_opvd(inst)
            left = remove_vertices(inst, res.deletion_set)
            assert tis.recognize_order_preserving(left).is_order_preserving
            if res.size:
                for sub in itertools.combinations(
                    sorted(res.deletion_set), res.size - 1
                ):
                    rep = tis.recognize_order_preserving(
                        remove_vertices(inst, sub)
                    )
                    assert not rep.is_order_preserving


class TestColumnReduction:
    def test_check_rejects_insufficient_set(self, two_layer_path):
        def preserving_without(names):
            reduced = remove_vertices(two_layer_path, names)
            return tis.recognize_order_preserving(reduced).is_order_preserving

        assert not preserving_without([])
        assert preserving_without(["v1"])


class TestWitnessFreeRecognition:
    """min_opvd reads only the decision of each recognition, so a
    recognition costs one PQ-tree run and builds no column witness."""

    @pytest.mark.parametrize("name", ["pooled_trap.tis", "planted_n20.tis"])
    def test_one_c1p_order_call_per_cache_miss(self, name, monkeypatch):
        inst = tis.parse_instance((DATA / name).read_text())
        calls = {"recognize": 0, "c1p_order": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            tis.opvd,
            "recognize_order_preserving",
            counted("recognize", tis.opvd.recognize_order_preserving),
        )
        monkeypatch.setattr(
            tis.intervals, "c1p_order", counted("c1p_order", tis.intervals.c1p_order)
        )
        res = min_opvd(inst)
        assert res.size >= 1
        assert calls["recognize"] > 1
        assert calls["c1p_order"] == calls["recognize"]

    @pytest.mark.parametrize(
        "name", sorted(p.name for p in DATA.glob("*.tis")), ids=str
    )
    def test_decision_matches_default(self, name):
        inst = tis.parse_instance((DATA / name).read_text())
        try:
            full = tis.recognize_order_preserving(inst)
        except tis.NotUnitError:
            with pytest.raises(tis.NotUnitError):
                tis.recognize_order_preserving(inst, witness=False)
            return
        bare = tis.recognize_order_preserving(inst, witness=False)
        assert bare.is_order_preserving == full.is_order_preserving
        assert bare.ordering == full.ordering
        assert bare.witness is None


def counting(monkeypatch, module, name):
    """Count the calls made through `module.name`, still calling through."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestInPlaceRecognition:
    """min_opvd recognizes inst - D on inst itself: no reduced instance is
    built, and an edges-mode unit declaration is verified once, also when
    solve_fpt follows with that D."""

    def test_builds_no_reduced_instance(self, monkeypatch):
        inst = tis.parse_instance((DATA / "planted_n20.tis").read_text())
        calls = counting(monkeypatch, tis.opvd, "remove_vertices")
        assert min_opvd(inst).size == 2
        assert calls == []

    def test_edges_mode_unit_check_runs_once(self, monkeypatch):
        src = tis.parse_instance((DATA / "planted_n20.tis").read_text())
        graphs = [src.layer_graph(t) for t in range(1, src.tau + 1)]
        inst = tis.TemporalIntervalInstance(
            src.names, src.weights, src.tau, src.delta, src.k, "edges", graphs, True
        )
        calls = counting(monkeypatch, tis.intervals, "_unit_model")
        res = min_opvd(inst)
        assert res.deletion_set == min_opvd(src).deletion_set
        sol = tis.solve_fpt(inst, res.deletion_set)
        assert sol.selected == tis.solve_fpt(src, res.deletion_set).selected
        assert 0 < len(calls) <= inst.tau


def lcs_gadget(m):
    """The LCS gadget of the identity and two random permutations of 1..m."""
    rng = random.Random(1)
    perms = [list(range(1, m + 1))] + [rng.sample(range(1, m + 1), m) for _ in range(2)]
    return tis.gen_lcsp_gadget(perms)


class TestWitnessReuse:
    """min_opvd stores every witness it shrinks; a set that misses a stored
    witness is neither recognized nor shrunk, and the output is the one the
    search without reuse returns."""

    # deletion set and a digest of the ordering, as returned before reuse
    GADGETS = {
        5: ({0, 1, 2, 3}, "52c4234daaa14104"),
        6: ({1, 3, 4, 5}, "027e4f52aa9fd563"),
        7: ({0, 1, 2, 3, 4}, "ff14333e7d253c4f"),
        8: ({0, 1, 2, 3, 6, 7}, "5d6e6797fde98f6c"),
    }

    @pytest.mark.parametrize("m", sorted(GADGETS))
    def test_gadget_outputs_unchanged(self, m, monkeypatch):
        inst = lcs_gadget(m)
        calls = counting(monkeypatch, tis.opvd, "recognize_order_preserving")
        res = min_opvd(inst)
        dels, digest = self.GADGETS[m]
        ordering = ",".join(map(str, res.ordering)).encode()
        assert res.deletion_set == frozenset(dels)
        assert hashlib.sha256(ordering).hexdigest()[:16] == digest
        if m == 8:
            # 2,816 recognitions without reuse
            assert len(calls) <= 700

    @staticmethod
    def _logged_search(inst, monkeypatch):
        """Run min_opvd, logging its recognitions and its new witnesses in
        the order they happen."""
        log = []
        recognize = tis.opvd.recognize_order_preserving
        shrink = tis.opvd.shrink_witness

        def logged_recognize(inst, **kwargs):
            log.append(("recognize", frozenset(kwargs["deleted"])))
            return recognize(inst, **kwargs)

        def logged_shrink(items, fails):
            found = shrink(items, fails)
            log.append(("witness", frozenset(found)))
            return found

        monkeypatch.setattr(tis.opvd, "recognize_order_preserving", logged_recognize)
        monkeypatch.setattr(tis.opvd, "shrink_witness", logged_shrink)
        return min_opvd(inst), log

    def test_no_recognized_set_misses_a_stored_witness(self, opvd_corpus, monkeypatch):
        cases = opvd_corpus[:60] + [
            tis.parse_instance((DATA / "planted_n20.tis").read_text()),
            lcs_gadget(5),
        ]
        for inst in cases:
            res, log = self._logged_search(inst, monkeypatch)
            stored = []
            for kind, vertices in log:
                if kind == "recognize":
                    assert all(w & vertices for w in stored)
                else:
                    assert vertices not in stored
                    stored.append(vertices)
            assert all(w & res.deletion_set for w in stored)
