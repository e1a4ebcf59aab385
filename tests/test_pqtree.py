import hashlib
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import c1p_by_permutations, c1p_by_subset_dp
from tis.generators import gen_order_preserving
from tis.model import IntervalModel, TemporalIntervalInstance
from tis.order import pooled_clique_matrix
from tis.pqtree import EMPTY, PQTree, c1p_order, check_consecutive


def order_ok(rows, ncols):
    order = c1p_order(rows, ncols)
    if order is None:
        return False
    assert sorted(order) == list(range(ncols))
    assert check_consecutive(rows, order)
    return True


def test_identity_matrix():
    assert order_ok([{0}, {1}, {2}], 3)


def test_overlapping_chain():
    assert order_ok([{0, 1}, {1, 2}, {2, 3}], 4)


def test_triangle_cover_is_not_consecutive():
    # {a,b},{b,c},{a,c}: some pair must straddle the middle column
    assert not order_ok([{0, 1}, {1, 2}, {0, 2}], 3)


def test_full_and_empty_rows_are_neutral():
    assert order_ok([set(), {0, 1, 2, 3}, {1, 2}], 4)


def test_nested_blocks():
    assert order_ok([{0, 1, 2, 3, 4}, {1, 2, 3}, {2, 3}, {2}], 5)


def test_q_node_reversal_case():
    # forces a Q-node to be traversed against its construction direction
    rows = [{0, 1}, {1, 2}, {0, 1, 2, 3}, {3, 4}]
    assert order_ok(rows, 5)


def test_tucker_style_obstruction():
    # bipartite-claw pattern: three rows pairwise overlapping through a hub
    rows = [{0, 1}, {0, 2}, {0, 3}, {1, 2, 3}]
    assert not order_ok(rows, 4)


def test_single_column():
    assert order_ok([{0}], 1)
    assert order_ok([set()], 1)


def test_zero_columns():
    assert order_ok([], 0)


def test_agrees_with_oracles_on_random_small():
    rng = random.Random(5150)
    for _ in range(300):
        ncols = rng.randint(1, 6)
        rows = [
            {c for c in range(ncols) if rng.random() < 0.5}
            for _ in range(rng.randint(1, 5))
        ]
        got = order_ok(rows, ncols)
        frozen = [frozenset(r) for r in rows]
        assert got == c1p_by_subset_dp(frozen, ncols)
        assert got == c1p_by_permutations(frozen, ncols)


@settings(max_examples=120, deadline=None)
@given(
    ncols=st.integers(1, 8),
    data=st.data(),
)
def test_matches_subset_dp(ncols, data):
    nrows = data.draw(st.integers(1, 6))
    rows = [
        data.draw(st.sets(st.integers(0, ncols - 1), max_size=ncols))
        for _ in range(nrows)
    ]
    frozen = [frozenset(r) for r in rows]
    assert order_ok(rows, ncols) == c1p_by_subset_dp(frozen, ncols)


def test_deeply_nested_rows_need_no_recursion():
    # rows {0,1}, {0,1,2}, ... nest the tree one level per row; the
    # reduction must not recurse along that depth
    ncols = 400
    rows = [range(i + 1) for i in range(1, ncols - 1)]
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        order = c1p_order(rows, ncols)
    finally:
        sys.setrecursionlimit(old_limit)
    assert order is not None
    assert check_consecutive(rows, order)


@pytest.mark.parametrize("bad", [-1, 3, 0.5])
def test_out_of_range_column_is_a_value_error(bad):
    with pytest.raises(ValueError, match=r"not within 0\.\.2"):
        c1p_order([{0, 1}, {1, bad}], 3)


@pytest.mark.parametrize("one", [1.0, Fraction(1), True])
def test_column_equal_to_an_int_is_that_column(one):
    # the check is range membership, which takes any value equal to a column
    assert c1p_order([{0, 2}, {one, 2}], 3) == c1p_order([{0, 2}, {1, 2}], 3)


def test_path_matrix_of_10000_columns():
    # rows {2k, 2k+1}, {2k+1, 2k+2}, ...: each reduce touches a few nodes
    # of a tree whose root has thousands of children
    ncols = 10000
    rows = [{c, c + 1} for c in range(ncols - 1)]
    start = time.perf_counter()
    order = c1p_order(rows, ncols)
    assert time.perf_counter() - start < 5
    assert order is not None
    assert check_consecutive(rows, order)


def test_shrinking_nested_rows_of_1500_columns():
    # rows {0..1498}, {0..1497}, ...: each row holds all but one of a P
    # node's children, so finding them one list.index at a time is cubic
    ncols = 1500
    rows = [range(i + 1) for i in reversed(range(1, ncols - 1))]
    start = time.perf_counter()
    order = c1p_order(rows, ncols)
    assert time.perf_counter() - start < 5
    assert order is not None
    assert check_consecutive(rows, order)


def _check_tree(tree, reduced):
    """The tree's structure after a reduce, and every per-reduce field of
    its nodes at rest. `reduced` says whether the reduce succeeded; after a
    failure only the fields are checked."""
    nodes = [tree.root] if tree.root is not None else []
    for node in nodes:
        nodes.extend(node.children)
    for node in set(nodes) | set(tree.leaves):
        assert (node.count, node.labelled, node.label, node.pert) == (0, 0, EMPTY, None)
    if not reduced:
        return
    assert tree.root is None or tree.root.parent is None
    for node in nodes:
        if node.kind == "L":
            assert not node.children
            assert tree.leaves[node.col] is node
        else:
            assert len(node.children) >= 2
            assert all(ch.parent is node for ch in node.children)
    assert sorted(tree.frontier()) == list(range(tree.ncols))


@settings(max_examples=300, deadline=None)
@given(ncols=st.integers(0, 12), data=st.data())
def test_tree_invariants_after_every_reduce(ncols, data):
    rows = data.draw(
        st.lists(st.sets(st.integers(0, max(ncols - 1, 0)), max_size=ncols), max_size=10)
    )
    tree = PQTree(ncols)
    _check_tree(tree, True)
    for row in rows:
        ok = tree.reduce(row)
        _check_tree(tree, ok)
        if not ok:
            break


@settings(max_examples=100, deadline=None)
@given(ncols=st.integers(2, 12), rng=st.randoms(use_true_random=True))
def test_tree_invariants_after_reducing_runs_of_the_frontier(ncols, rng):
    # short runs of the current frontier build Q nodes, and most later runs
    # lie within one: their leaves share a parent; now and then a stray
    # column makes a row fail
    tree = PQTree(ncols)
    rows = []
    for _ in range(4 * ncols):
        order = tree.frontier()
        a = rng.randrange(ncols - 1)
        row = set(order[a : a + rng.randint(2, 3)])
        if rng.random() < 0.05:
            row.add(rng.randrange(ncols))
        rows.append(frozenset(row))
        ok = tree.reduce(row)
        _check_tree(tree, ok)
        if not ok:
            assert not c1p_by_subset_dp(rows, ncols)
            break
        assert check_consecutive(rows, tree.frontier())


def _chain_tree():
    """Five columns after {0,1}, {1,2}, {2,3}: columns 0-3 are the children
    of one Q node, in that order."""
    tree = PQTree(5)
    for row in ({0, 1}, {1, 2}, {2, 3}):
        assert tree.reduce(row)
    (q,) = [node for node in tree.root.children if node.kind == "Q"]
    assert [ch.col for ch in q.children] == [0, 1, 2, 3]
    return tree


@pytest.mark.parametrize("row", [{0, 2}, {0, 3}])
def test_siblings_apart_in_a_q_node_fail(row):
    assert not _chain_tree().reduce(row)


def test_siblings_adjacent_in_a_q_node_leave_the_tree():
    tree = _chain_tree()
    assert tree.reduce({1, 2})
    assert tree.frontier() == [4, 0, 1, 2, 3]
    _check_tree(tree, True)


def test_siblings_in_a_wider_p_node_move_into_one_child():
    tree = PQTree(6)
    assert tree.reduce({4, 1})
    assert tree.frontier() == [0, 2, 3, 5, 1, 4]
    _check_tree(tree, True)


# Frontier pins. c1p_order's frontier is the ordering `tis recognize` prints,
# so the reduce may not change which ordering it returns. The digests hash
# c1p_order's result (frontier or None) on each matrix in turn.

RANDOM_FRONTIERS = "72f61b1e1eb4d982f24962c1ce1acb1952d02d0f94e9635a9973c9756521b5b2"
WORKLOAD_FRONTIERS = "871f37f1e65c0eec76a9101d519165410d75518da3695fe779e2c05fd52eccf9"
LEAF_PARENT_FRONTIERS = "ee81390b315fbccfc3593cbcfc0c7d820cd7d988ecd454501f56c018353059fa"


def _random_matrices():
    """4,000 seeded matrices over at most 9 columns: even ones are blocks of
    a hidden column order, sometimes with one flipped entry; odd ones are
    Bernoulli."""
    rng = random.Random(1976)
    for i in range(4000):
        ncols = rng.randint(1, 9)
        nrows = rng.randint(1, 8)
        if i % 2 == 0:
            perm = rng.sample(range(ncols), ncols)
            rows = []
            for _ in range(nrows):
                a = rng.randrange(ncols)
                b = rng.randrange(a, ncols)
                row = set(perm[a : b + 1])
                if rng.random() < 0.15:
                    row ^= {rng.randrange(ncols)}
                rows.append(row)
        else:
            p = rng.choice((0.2, 0.35, 0.5, 0.7))
            rows = [{c for c in range(ncols) if rng.random() < p} for _ in range(nrows)]
        yield rows, ncols


def _planted(seed):
    """gen_order_preserving(20, 3, 1, 0) with the intervals of two vertices
    adjacent in layer 1's right-endpoint order swapped in that layer."""
    base = gen_order_preserving(20, 3, 1, 0, seed=seed)
    layers = [list(layer.intervals) for layer in base.layers]
    by_right = sorted(range(20), key=lambda v: layers[0][v][1])
    i = random.Random(seed).randrange(19)
    a, b = by_right[i], by_right[i + 1]
    layers[0][a], layers[0][b] = layers[0][b], layers[0][a]
    return TemporalIntervalInstance(
        names=base.names,
        weights=base.weights,
        tau=3,
        delta=1,
        k=0,
        mode="model",
        layers=[IntervalModel(layer) for layer in layers],
        unit_flag=True,
    )


def _workload_matrices():
    """Pooled clique matrices: 20 order-preserving instances at n=120, then
    20 planted-swap instances at n=20 with each single vertex deleted."""
    for seed in range(20):
        inst = gen_order_preserving(120, 5, 2, 0, seed=seed)
        yield pooled_clique_matrix(inst), inst.n
    for seed in range(20):
        inst = _planted(seed)
        for v in range(inst.n):
            yield pooled_clique_matrix(inst, deleted=frozenset({v})), inst.n - 1


def _leaf_parent_matrices():
    """Matrices whose rows mostly have all their leaves under one parent:
    pooled clique matrices of 10 order-preserving instances at n=120 with
    their rows reversed; the path matrix of 2,000 columns with each row
    repeated at once, then with the whole matrix repeated; and the path
    matrix of 200 columns, one wide Q node, followed by a row of two or
    three of its children, adjacent or not."""
    for seed in range(10):
        inst = gen_order_preserving(120, 5, 2, 0, seed=seed)
        yield pooled_clique_matrix(inst)[::-1], inst.n
    path = [{c, c + 1} for c in range(1999)]
    yield [row for row in path for _ in range(2)], 2000
    yield path + path, 2000
    path = [{c, c + 1} for c in range(199)]
    rows = ({0, 2}, {0, 199}, {57, 59}, {100, 101}, {198, 199}, {3, 150}, {10, 11, 13})
    for row in rows:
        yield path + [row], 200


def _frontier_digest(matrices):
    h = hashlib.sha256()
    for rows, ncols in matrices:
        h.update(repr(c1p_order(rows, ncols)).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_frontiers_pinned_on_random_matrices():
    assert _frontier_digest(_random_matrices()) == RANDOM_FRONTIERS


def test_frontiers_pinned_on_pooled_clique_matrices():
    assert _frontier_digest(_workload_matrices()) == WORKLOAD_FRONTIERS


def test_frontiers_pinned_on_rows_under_one_parent():
    assert _frontier_digest(_leaf_parent_matrices()) == LEAF_PARENT_FRONTIERS
