"""Independent reference implementations the test suite trusts.

Everything here is deliberately written from the definitions, in the most
literal (and slow) way that still runs in test time, sharing no code paths
with the package beyond raw data access. When a package routine and an
oracle disagree, the package is wrong until proven otherwise.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from tis.model import StaticGraph, TemporalIntervalInstance


def layer_edge_set(inst: TemporalIntervalInstance, t: int) -> set[tuple[int, int]]:
    """Edges of layer t (1-based), recomputed from the raw layer data."""
    layer = inst.layers[t - 1]
    if inst.mode == "edges":
        return set(layer.edges)
    edges = set()
    iv = layer.intervals
    for u in range(inst.n):
        for v in range(u + 1, inst.n):
            if max(iv[u][0], iv[v][0]) <= min(iv[u][1], iv[v][1]):
                edges.add((u, v))
    return edges


def conflict_edge_set(
    inst: TemporalIntervalInstance, semantics: str = "figure"
) -> set[tuple[int, int]]:
    """Conflict edges straight from the window definition."""
    if semantics == "figure":
        length = min(inst.delta, inst.tau)
        starts = range(1, inst.tau - length + 2)
    else:
        length = inst.delta + 1
        starts = range(1, inst.tau - inst.delta + 1)
    per_layer = [layer_edge_set(inst, t) for t in range(1, inst.tau + 1)]
    conflict: set[tuple[int, int]] = set()
    for s in starts:
        window = per_layer[s - 1]
        for t in range(s + 1, s + length):
            window = window & per_layer[t - 1]
        conflict |= window
    return conflict


def max_weight_independent(
    n: int,
    edges: Iterable[tuple[int, int]],
    weights: Sequence[Fraction],
) -> Fraction:
    """Maximum weight over all independent subsets, by full enumeration."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    best = Fraction(0)
    for s in range(1 << n):
        t = s
        ok = True
        while t:
            i = (t & -t).bit_length() - 1
            if adj[i] & s:
                ok = False
                break
            t &= t - 1
        if ok:
            w = sum(
                (weights[i] for i in range(n) if s >> i & 1), Fraction(0)
            )
            if w > best:
                best = w
    return best


def all_optimal_independent_sets(
    n: int,
    edges: Iterable[tuple[int, int]],
    weights: Sequence[Fraction],
) -> list[frozenset[int]]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    best = Fraction(0)
    sets: list[tuple[Fraction, frozenset[int]]] = []
    for s in range(1 << n):
        t = s
        ok = True
        while t:
            i = (t & -t).bit_length() - 1
            if adj[i] & s:
                ok = False
                break
            t &= t - 1
        if not ok:
            continue
        w = sum((weights[i] for i in range(n) if s >> i & 1), Fraction(0))
        if w > best:
            best = w
        sets.append((w, frozenset(i for i in range(n) if s >> i & 1)))
    return sorted(
        (fs for w, fs in sets if w == best), key=lambda fs: tuple(sorted(fs))
    )


def mis_cardinality(n: int, edges: Iterable[tuple[int, int]]) -> int:
    value = max_weight_independent(n, edges, [Fraction(1)] * n)
    assert value.denominator == 1
    return int(value)


def c1p_by_subset_dp(rows: Sequence[frozenset[int]], ncols: int) -> bool:
    """Consecutive-ones decidability as a left-to-right column placement
    search with memoized states.

    A column order is built position by position; the state is the set of
    already placed columns. A row is "active" in a placed set T when it has
    started (intersects T) but not finished (is not contained in T); every
    active row must contain the next placed column, otherwise its ones would
    split. This explores exactly the valid prefixes of all column
    permutations, so reachability of the full set decides C1P.
    """
    rows = [r for r in rows if r]
    full = frozenset(range(ncols))
    seen = {frozenset()}
    frontier = [frozenset()]
    while frontier:
        state = frontier.pop()
        if state == full:
            return True
        active = [r for r in rows if r & state and not r <= state]
        for c in range(ncols):
            if c in state:
                continue
            if all(c in r for r in active):
                nxt = state | {c}
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return False


def c1p_by_permutations(rows: Sequence[frozenset[int]], ncols: int) -> bool:
    """Literal check of every column permutation. Only for tiny ncols."""
    for perm in itertools.permutations(range(ncols)):
        pos = {c: i for i, c in enumerate(perm)}
        if all(_consecutive(sorted(pos[c] for c in r)) for r in rows):
            return True
    return False


def _consecutive(positions: list[int]) -> bool:
    return all(b == a + 1 for a, b in zip(positions, positions[1:]))


def ordering_respects_layer(
    order: Sequence[int], edges: set[tuple[int, int]]
) -> bool:
    """Is `order` a right-endpoint order of some *unit* interval model
    inducing this layer? Characterized by the umbrella condition: whenever
    u < v < w in the order and uw is an edge, both uv and vw are edges.
    (For general interval models only vw would be forced; equal lengths
    force both sides, and the converse is the classic proper-interval
    ordering theorem.)"""
    pos = {v: i for i, v in enumerate(order)}
    for u, w in edges:
        a, b = (u, w) if pos[u] < pos[w] else (w, u)
        for v in order[pos[a] + 1 : pos[b]]:
            if (min(v, b), max(v, b)) not in edges:
                return False
            if (min(a, v), max(a, v)) not in edges:
                return False
    return True


def common_ordering_exists(
    inst: TemporalIntervalInstance,
) -> Optional[tuple[int, ...]]:
    """Search all vertex orderings for one satisfying the umbrella condition
    in every layer, with prefix pruning mathematically equivalent to the
    full n! scan: a violated triple inside a prefix stays violated in every
    extension (all three vertices stay in the same relative order). Returns
    a witness ordering or None."""
    layers = [layer_edge_set(inst, t) for t in range(1, inst.tau + 1)]
    n = inst.n

    def edge(es: set[tuple[int, int]], x: int, y: int) -> bool:
        return (min(x, y), max(x, y)) in es

    def extend(prefix: list[int], rest: list[int]) -> Optional[tuple[int, ...]]:
        if not rest:
            return tuple(prefix)
        for i, w in enumerate(rest):
            ok = True
            for es in layers:
                # new triples are (a, b, w) with a before b in the prefix
                for ai in range(len(prefix)):
                    a = prefix[ai]
                    if not edge(es, a, w):
                        continue
                    for b in prefix[ai + 1 :]:
                        if not edge(es, b, w) or not edge(es, a, b):
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if ok:
                hit = extend(prefix + [w], rest[:i] + rest[i + 1 :])
                if hit is not None:
                    return hit
        return None

    return extend([], list(range(n)))


def lcs_by_subsets(strings: Sequence[Sequence[int]]) -> int:
    """Longest common subsequence length by trying subsequences of the
    first string, longest first."""
    first = list(strings[0])
    rest = [list(s) for s in strings[1:]]
    for length in range(len(first), 0, -1):
        for combo in itertools.combinations(first, length):
            if all(_is_subseq(combo, s) for s in rest):
                return length
    return 0


def _is_subseq(sub: Sequence[int], s: Sequence[int]) -> bool:
    it = iter(s)
    return all(c in it for c in sub)


def graph_edges(g: StaticGraph) -> set[tuple[int, int]]:
    return set(g.edges)


def first_disagreeing_pair(
    n: int, edges: Iterable[tuple[int, int]], order: Sequence[int]
) -> Optional[tuple[int, int]]:
    """The first position j (in `order`) whose earlier neighbours are not
    the block of positions ending at j - 1, as the pair (vertex at the
    smallest such neighbour's position, vertex at j); None if none."""
    edge_set = {(min(u, v), max(u, v)) for u, v in edges}
    for j in range(n):
        w = order[j]
        below = [
            i for i in range(j) if (min(order[i], w), max(order[i], w)) in edge_set
        ]
        if below and below != list(range(below[0], j)):
            return (order[below[0]], w)
    return None


def model_edge_set(intervals) -> set[tuple[int, int]]:
    """Pairwise closed-interval intersection, recomputed locally."""
    n = len(intervals)
    out = set()
    for u in range(n):
        for v in range(u + 1, n):
            if max(intervals[u][0], intervals[v][0]) <= min(
                intervals[u][1], intervals[v][1]
            ):
                out.add((u, v))
    return out


def endpoint_ranks(intervals) -> tuple[list[int], list[int], list[int], list[int]]:
    """(left ranks, right ranks, vertices by (left, vertex), vertices by
    (right, vertex)), sorting the endpoints themselves: an endpoint's rank
    is the number of distinct endpoint values below it."""
    n = len(intervals)
    values = sorted({x for iv in intervals for x in iv})
    rank = {x: i for i, x in enumerate(values)}
    return (
        [rank[intervals[v][0]] for v in range(n)],
        [rank[intervals[v][1]] for v in range(n)],
        sorted(range(n), key=lambda v: (intervals[v][0], v)),
        sorted(range(n), key=lambda v: (intervals[v][1], v)),
    )


def unit_length(intervals) -> bool:
    """Every interval has the same length, right minus left."""
    return len({hi - lo for lo, hi in intervals}) <= 1


def maximal_cliques_by_points(intervals) -> list[frozenset[int]]:
    """Maximal cliques of a model in sweep order: for each distinct right
    endpoint, ascending, the set of intervals covering it; duplicates are
    dropped (first kept) and so is every set strictly inside another."""
    n = len(intervals)
    cands: list[frozenset[int]] = []
    for p in sorted({intervals[v][1] for v in range(n)}):
        covering = frozenset(
            v for v in range(n) if intervals[v][0] <= p <= intervals[v][1]
        )
        if covering not in cands:
            cands.append(covering)
    return [c for c in cands if not any(c < other for other in cands)]


def ascending_shrink(items, fails) -> tuple[int, ...]:
    """Drop each item, smallest first, whenever the rest still fails."""
    keep = set(items)
    for x in sorted(keep):
        if fails(frozenset(keep - {x})):
            keep.discard(x)
    return tuple(sorted(keep))


def greedy_by_definition(
    n: int, edges: Iterable[tuple[int, int]], weights: Sequence[Fraction]
) -> frozenset[int]:
    """Repeatedly take the heaviest vertex left (ties: smallest index) and
    drop it and its neighbours, scanning what is left at every step."""
    edge_set = {(min(u, v), max(u, v)) for u, v in edges}
    left = list(range(n))
    chosen = set()
    while left:
        v = left[0]
        for u in left:
            if weights[u] > weights[v]:
                v = u
        chosen.add(v)
        left = [u for u in left if u != v and (min(u, v), max(u, v)) not in edge_set]
    return frozenset(chosen)


def independence_report(
    inst: TemporalIntervalInstance, selected: Iterable[int], semantics: str = "figure"
) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """(independent, violation) from the window definition: the first pair
    of selected vertices in order and window, (u, v, window start), with the
    pair's edge in every layer of the window, or None when there is none."""
    if semantics == "figure":
        length = min(inst.delta, inst.tau)
        starts = range(1, inst.tau - length + 2)
    else:
        length = inst.delta + 1
        starts = range(1, inst.tau - inst.delta + 1)
    per_layer = [layer_edge_set(inst, t) for t in range(1, inst.tau + 1)]
    chosen = sorted(set(selected))
    for u, v in itertools.combinations(chosen, 2):
        for s in starts:
            if all((u, v) in per_layer[t - 1] for t in range(s, s + length)):
                return (False, (u, v, s))
    return (True, None)
