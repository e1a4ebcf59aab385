import random
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import c1p_by_permutations, c1p_by_subset_dp
from tis.pqtree import c1p_order, check_consecutive


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
