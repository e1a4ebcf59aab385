import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import oracles
import tis
from tis.generators import (
    gadget_character_vertices,
    gen_lcsp_gadget,
    gen_order_preserving,
    gen_random_unit,
    lcs_permutations,
)


class TestRandomUnit:
    def test_same_seed_same_instance(self):
        a = gen_random_unit(6, 3, 1, 2, seed=11)
        b = gen_random_unit(6, 3, 1, 2, seed=11)
        assert tis.serialize_instance(a) == tis.serialize_instance(b)

    def test_different_seeds_differ(self):
        texts = {
            tis.serialize_instance(gen_random_unit(6, 3, 1, 2, seed=s))
            for s in range(8)
        }
        assert len(texts) > 1

    def test_unit_lengths(self):
        inst = gen_random_unit(10, 4, 2, 3, seed=3)
        assert inst.unit_flag
        for t in range(1, inst.tau + 1):
            for l, r in inst.layers[t - 1].intervals:
                assert r - l == 1

    def test_weights_default_to_one(self):
        inst = gen_random_unit(5, 2, 1, 0, seed=0)
        assert all(w == 1 for w in inst.weights)

    def test_max_weight_range(self):
        inst = gen_random_unit(20, 2, 1, 0, seed=7, max_weight=5)
        assert all(1 <= w <= 5 for w in inst.weights)
        assert len(set(inst.weights)) > 1

    def test_bad_spread_rejected(self):
        with pytest.raises(ValueError):
            gen_random_unit(5, 2, 1, 0, seed=0, spread=0)

    def test_bad_max_weight_rejected(self):
        with pytest.raises(ValueError):
            gen_random_unit(5, 2, 1, 0, seed=0, max_weight=0)


class TestOrderPreserving:
    def test_instances_are_recognized(self):
        for s in range(30):
            inst = gen_order_preserving(4 + s % 8, 2 + s % 3, 1, 0, seed=s)
            assert tis.recognize_order_preserving(inst).is_order_preserving

    def test_same_seed_same_instance(self):
        a = gen_order_preserving(7, 3, 1, 2, seed=21)
        b = gen_order_preserving(7, 3, 1, 2, seed=21)
        assert tis.serialize_instance(a) == tis.serialize_instance(b)

    def test_unit_model(self):
        inst = gen_order_preserving(6, 2, 1, 0, seed=4)
        assert inst.unit_flag
        assert inst.mode == "model"


class TestGadget:
    def test_character_vertices_come_first(self):
        inst = gen_lcsp_gadget([(1, 2, 3), (3, 1, 2)])
        chars = gadget_character_vertices(inst)
        assert chars == ["c1", "c2", "c3"]
        assert inst.names[:3] == ("c1", "c2", "c3")

    def test_shape(self):
        strings = [(1, 2, 3), (2, 3, 1)]
        inst = gen_lcsp_gadget(strings)
        n = 3
        assert inst.tau == len(strings)
        assert inst.delta == 1
        assert inst.k == 0
        assert inst.unit_flag
        assert inst.n == n + 2 * n * n

    def test_frame_incidence_counts_positions(self):
        # the character sitting at position i of a layer's string overlaps
        # exactly the left stacks j >= i+1 and the right stacks j <= i-1,
        # which is what pins surviving characters to their positions
        strings = [(1, 2, 3), (2, 3, 1)]
        inst = gen_lcsp_gadget(strings)
        n = 3
        for t, s in enumerate(strings, start=1):
            g = inst.layer_graph(t)
            for i, ch in enumerate(s, start=1):
                c = inst.vertex_index(f"c{ch}")
                for j in range(1, n + 1):
                    lv = inst.vertex_index(f"L{j}_1")
                    rv = inst.vertex_index(f"R{j}_1")
                    assert (tuple(sorted((c, lv))) in g.edges) == (j >= i + 1)
                    assert (tuple(sorted((c, rv))) in g.edges) == (j <= i - 1)

    def test_fixating_stacks_overlap(self):
        inst = gen_lcsp_gadget([(1, 2), (2, 1)])
        for t in range(1, inst.tau + 1):
            g = inst.layer_graph(t)
            for j in (1, 2):
                stack = [inst.vertex_index(f"L{j}_{h}") for h in (1, 2)]
                for u, v in itertools.combinations(stack, 2):
                    assert (min(u, v), max(u, v)) in g.edges

    def test_law_on_small_cases(self):
        for strings in ([(1, 2), (2, 1)], [(1, 2, 3), (3, 2, 1)],
                        [(1, 2, 3), (2, 3, 1), (3, 1, 2)]):
            inst = gen_lcsp_gadget(strings)
            chars = gadget_character_vertices(inst)
            res = tis.min_opvd(inst, candidates=sorted(chars))
            n = len(strings[0])
            assert res.size == n - lcs_permutations(strings)

    # no shrink phase: at 0.3-0.8 s an example, shrinking a failure took
    # minutes, and the drawn triple is small enough to read as it is
    @settings(
        max_examples=10,
        deadline=None,
        phases=[Phase.explicit, Phase.reuse, Phase.generate],
    )
    @given(data=st.data(), a=st.integers(8, 9))
    def test_law_and_fpt_on_random_triples(self, data, a):
        # the whole deletion path at an alphabet no subset oracle reaches:
        # minimum deletions = alphabet - LCS, and fpt on that set solves
        perms = [data.draw(st.permutations(range(1, a + 1))) for _ in range(3)]
        inst = gen_lcsp_gadget(perms)
        res = tis.min_opvd(inst)
        assert res.size == a - lcs_permutations(perms)
        sol = tis.solve(inst, "fpt", deletion_set=res.deletion_set)
        assert tis.verify_solution(inst, sol.selected).independent
        assert sol.objective >= tis.solve(inst, "greedy").objective

    def test_rejects_non_permutations(self):
        with pytest.raises(ValueError):
            gen_lcsp_gadget([(1, 1)])
        with pytest.raises(ValueError):
            gen_lcsp_gadget([(1, 2), (1, 2, 3)])
        with pytest.raises(ValueError):
            gen_lcsp_gadget([])


class TestLcs:
    def test_two_strings(self):
        rng = random.Random(55)
        for _ in range(60):
            n = rng.randint(1, 6)
            a = list(range(1, n + 1))
            b = a[:]
            rng.shuffle(a)
            rng.shuffle(b)
            assert lcs_permutations([a, b]) == oracles.lcs_by_subsets([a, b])

    def test_three_strings(self):
        rng = random.Random(56)
        for _ in range(40):
            n = rng.randint(1, 5)
            strings = []
            for _ in range(3):
                s = list(range(1, n + 1))
                rng.shuffle(s)
                strings.append(s)
            assert lcs_permutations(strings) == oracles.lcs_by_subsets(strings)

    def test_many_strings_fallback(self):
        rng = random.Random(57)
        for _ in range(20):
            n = rng.randint(1, 4)
            strings = []
            for _ in range(4):
                s = list(range(1, n + 1))
                rng.shuffle(s)
                strings.append(s)
            assert lcs_permutations(strings) == oracles.lcs_by_subsets(strings)

    def test_single_string(self):
        assert lcs_permutations([(3, 1, 2)]) == 3

    def test_identical_strings(self):
        assert lcs_permutations([(1, 2, 3), (1, 2, 3)]) == 3

    def test_reversed_pair(self):
        assert lcs_permutations([(1, 2, 3, 4), (4, 3, 2, 1)]) == 1
