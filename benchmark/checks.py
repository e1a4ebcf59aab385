"""Naive answer checks, written from the definitions and independent of the
library's algorithms. They run outside the timed region.

A check reads the raw intervals of the generated instance (not the parsed
copy the timed operation built) and raises CheckFailed with a reason.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence


class CheckFailed(Exception):
    """An operation's output is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Raw:
    """An instance reduced to integer endpoints: every endpoint is scaled by
    the least common multiple of all denominators, which keeps order and
    intersection exact."""

    def __init__(self, inst) -> None:
        ivs = [layer.intervals for layer in inst.layers]
        scale = 1
        for layer in ivs:
            for lo, hi in layer:
                scale = math.lcm(scale, lo.denominator, hi.denominator)
        self.layers = [[(int(lo * scale), int(hi * scale)) for lo, hi in layer] for layer in ivs]
        self.weights: tuple[Fraction, ...] = tuple(inst.weights)
        self.names: tuple[str, ...] = tuple(inst.names)
        self.tau: int = inst.tau
        self.delta: int = inst.delta
        self.n = len(self.names)

    def meets(self, t: int, u: int, v: int) -> bool:
        (lu, ru), (lv, rv) = self.layers[t][u], self.layers[t][v]
        return max(lu, lv) <= min(ru, rv)

    def windows(self) -> list[range]:
        """Windows of exactly delta consecutive layers (0-based), or one
        window of all layers when delta >= tau."""
        if self.delta >= self.tau:
            return [range(self.tau)]
        return [range(s, s + self.delta) for s in range(self.tau - self.delta + 1)]

    def weight(self, selected: Iterable[int]) -> Fraction:
        return sum((self.weights[v] for v in selected), Fraction(0))


def independent(raw: Raw, selected: Iterable[int]) -> bool:
    """Delta-independence by definition: no pair of selected vertices meets
    in every layer of some window."""
    sel = sorted(selected)
    windows = raw.windows()
    for i, u in enumerate(sel):
        for v in sel[i + 1:]:
            for w in windows:
                if all(raw.meets(t, u, v) for t in w):
                    return False
    return True


def agrees(raw: Raw, order: Sequence[int], keep: Iterable[int] | None = None) -> bool:
    """Is `order` (a sequence of vertices) a right-endpoint order of every
    layer restricted to `keep`? Per layer, each vertex's earlier neighbours
    must be the block of positions right before it."""
    vertices = set(range(raw.n) if keep is None else keep)
    if sorted(order) != sorted(vertices):
        return False
    for t in range(raw.tau):
        for j, w in enumerate(order):
            below = [i for i in range(j) if raw.meets(t, order[i], w)]
            if below and below != list(range(below[0], j)):
                return False
    return True


def check_solution(raw: Raw, sol, label: str) -> None:
    """A solver result: independent by definition, objective = its weight."""
    require(all(0 <= v < raw.n for v in sol.selected), f"{label}: vertex out of range")
    require(independent(raw, sol.selected), f"{label}: selected set is not delta-independent")
    require(
        sol.objective == raw.weight(sol.selected),
        f"{label}: objective {sol.objective} != weight of its set",
    )


def check_verify(raw: Raw, report, selected) -> None:
    """verify_solution's report agrees with the naive recheck."""
    require(report.independent == independent(raw, selected), "verify: independence differs")
    require(report.cardinality == len(selected), "verify: cardinality differs")
    require(report.total_weight == raw.weight(selected), "verify: total weight differs")


def check_greedy_bound(raw: Raw, greedy, exact) -> None:
    """Greedy is no better than exact and within (tau-delta+1)*2^delta of it."""
    ratio = (raw.tau - raw.delta + 1) * 2**raw.delta
    require(greedy.objective <= exact.objective, "greedy beats the exact optimum")
    require(
        exact.objective <= greedy.objective * ratio,
        f"greedy {greedy.objective} below optimum {exact.objective} / {ratio}",
    )


def check_recognition(raw: Raw, report) -> None:
    """A positive answer comes with an agreeing order; a negative one with a
    nonempty witness of real vertices."""
    if report.is_order_preserving:
        require(report.ordering is not None, "recognize: yes without an ordering")
        require(agrees(raw, report.ordering.order), "recognize: ordering does not agree")
    else:
        witness = report.witness or ()
        require(len(witness) > 0, "recognize: no without a witness")
        require(all(0 <= v < raw.n for v in witness), "recognize: witness out of range")


def cli_stdout(names: Sequence[str], sol) -> str:
    """The stdout `tis solve` prints for an accepted solution with k = 0."""
    chosen = ",".join(names[v] for v in sorted(sol.selected))
    return (
        f"algorithm={sol.algorithm}\n"
        f"objective={sol.objective}\n"
        f"cardinality={len(sol.selected)}\n"
        f"set={chosen}\n"
        "verify=PASS\n"
        "decision=YES\n"
    )
