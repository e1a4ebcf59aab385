"""Instance generators and the longest-common-subsequence reduction gadget.

All generators are deterministic functions of their arguments: the RNG is a
local random.Random(seed), endpoints live on the grid of multiples of
1/(n+1) (so serialization round-trips exactly), and every emitted instance
is unit, model mode.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from typing import Sequence

from .model import IntervalModel, TemporalIntervalInstance


def gen_random_unit(
    n: int,
    tau: int,
    delta: int,
    k: int,
    seed: int,
    spread: Fraction | int = 2,
    max_weight: int | None = None,
) -> TemporalIntervalInstance:
    """Unit intervals with left endpoints drawn uniformly from the grid
    {i/(n+1) : 0 <= i <= floor(spread*(n+1))}. Smaller spread packs the
    intervals tighter and makes conflicts denser. With max_weight, weights
    are uniform integers in [1, max_weight]; otherwise all 1.
    """
    spread = Fraction(spread)
    if spread <= 0:
        raise ValueError("spread must be positive")
    if n < 1:
        raise ValueError("need at least one vertex")
    rng = random.Random(seed)
    grid = Fraction(1, n + 1)
    slots = int(spread / grid)
    layers = []
    for _ in range(tau):
        ivs = []
        for _ in range(n):
            left = grid * rng.randint(0, slots)
            ivs.append((left, left + 1))
        layers.append(IntervalModel(tuple(ivs)))
    if max_weight is None:
        weights = tuple(Fraction(1) for _ in range(n))
    else:
        if max_weight < 1:
            raise ValueError("max_weight must be at least 1")
        weights = tuple(Fraction(rng.randint(1, max_weight)) for _ in range(n))
    return TemporalIntervalInstance(
        names=tuple(f"v{i + 1}" for i in range(n)),
        weights=weights,
        tau=tau,
        delta=delta,
        k=k,
        mode="model",
        layers=tuple(layers),
        unit_flag=True,
    )


def gen_order_preserving(
    n: int, tau: int, delta: int, k: int, seed: int
) -> TemporalIntervalInstance:
    """Unit instance guaranteed order preserving: one hidden permutation is
    drawn, and every layer lays its intervals out left to right in that
    order with fresh random positive gaps between right endpoints."""
    if not 1 <= n <= sys.maxsize:
        raise ValueError(f"need between 1 and {sys.maxsize} vertices, got {n}")
    rng = random.Random(seed)
    sigma = list(range(n))
    rng.shuffle(sigma)
    grid = Fraction(1, n + 1)
    layers = []
    for _ in range(tau):
        by_vertex: dict[int, tuple[Fraction, Fraction]] = {}
        right = Fraction(0)
        for v in sigma:
            right += grid * rng.randint(1, n + 2)
            by_vertex[v] = (right - 1, right)
        layers.append(IntervalModel(tuple(by_vertex[v] for v in range(n))))
    return TemporalIntervalInstance(
        names=tuple(f"v{i + 1}" for i in range(n)),
        weights=tuple(Fraction(1) for _ in range(n)),
        tau=tau,
        delta=delta,
        k=k,
        mode="model",
        layers=tuple(layers),
        unit_flag=True,
    )


def _check_permutations(strings: Sequence[Sequence[int]]) -> int:
    if not strings:
        raise ValueError("need at least one string")
    n = len(strings[0])
    if n < 1:
        raise ValueError("strings must be nonempty")
    want = set(range(1, n + 1))
    for s in strings:
        if set(s) != want or len(s) != n:
            raise ValueError(
                f"every string must be a permutation of 1..{n}, got {list(s)}"
            )
    return n


def gen_lcsp_gadget(strings: Sequence[Sequence[int]]) -> TemporalIntervalInstance:
    """Encode longest-common-subsequence-of-permutations as deletion to
    order preservation.

    One layer per string. Character vertices c1..cn sit in the middle of the
    line at positions driven by where the character occurs in that layer's
    string; two rigid blocks of n^2 frame vertices (L_j_h on the left,
    R_j_h on the right) never move between layers and pin the layout so that
    the surviving character vertices must keep one common relative order.
    Deleting characters outside some common subsequence of all strings makes
    the instance order preserving, and conversely; so over character-only
    deletion sets, the minimum size is n minus the longest common
    subsequence length. Delta is 1 and all intervals are unit.
    """
    n = _check_permutations(strings)
    tau = len(strings)
    eps = Fraction(1, n + 2)
    names = [f"c{i}" for i in range(1, n + 1)]
    frame: list[tuple[Fraction, Fraction]] = []
    for j in range(1, n + 1):
        for h in range(1, n + 1):
            names.append(f"L{j}_{h}")
            left = eps * (j - 1)
            frame.append((left, left + 1))
    for j in range(1, n + 1):
        for h in range(1, n + 1):
            names.append(f"R{j}_{h}")
            left = 2 + eps * (j + 1)
            frame.append((left, left + 1))
    layers = []
    for s in strings:
        pos = {c: i + 1 for i, c in enumerate(s)}
        ivs = []
        for c in range(1, n + 1):
            left = 1 + eps * pos[c]
            ivs.append((left, left + 1))
        ivs.extend(frame)
        layers.append(IntervalModel(tuple(ivs)))
    return TemporalIntervalInstance(
        names=tuple(names),
        weights=tuple(Fraction(1) for _ in names),
        tau=tau,
        delta=1,
        k=0,
        mode="model",
        layers=tuple(layers),
        unit_flag=True,
    )


def gadget_character_vertices(inst: TemporalIntervalInstance) -> list[str]:
    """The candidate deletion pool for a gadget instance: its character
    vertices (names c1..cn, always declared first)."""
    return [name for name in inst.names if name.startswith("c")]


def lcs_permutations(strings: Sequence[Sequence[int]]) -> int:
    """Length of the longest common subsequence of permutations of 1..n.

    A common subsequence is a chain of characters, each before the next in
    every string, so its length is the longest path in that precedence
    order: one dynamic program along the first string, O(k*n^2) for k
    strings.
    """
    _check_permutations(strings)
    pos = [{c: i for i, c in enumerate(s)} for s in strings]
    longest: dict[int, int] = {}
    for c in strings[0]:
        before = [longest[d] for d in longest if all(p[d] < p[c] for p in pos)]
        longest[c] = 1 + max(before, default=0)
    return max(longest.values())
