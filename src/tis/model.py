"""Core data model: temporal interval instances, exact rational endpoints,
instance file I/O, and elementary graph algebra.

An instance bundles a weighted vertex set, tau layers (each either an interval
model or an explicit edge list), a window width delta, and a target size k.
Both layer types answer the two edge queries the algorithms above this module ask:
`edges`, the edge set, and `edge_pairs(skip=S)`, the edges without S, the
survivors re-indexed densely in ascending order.
All endpoints and weights are exact rationals, given as `int` or
`fractions.Fraction` (any other number type is a TypeError); adjacency
in a model is closed-interval intersection, so touching endpoints count as an
edge. A model stores its endpoints as exact integer keys over one scale, the
LCM of their denominators, while that LCM stays within a fixed bit width
(`_endpoint_keys`); past it the keys are the `Fraction`s themselves. The keys
are sorted, compared and printed as they are, and read back as `Fraction`s
only when asked. Every value is immutable after construction and every
operation here is a pure function of its inputs.

Instance file format (UTF-8, line oriented, '#' starts a comment):

    tis 1
    mode model|edges
    n <int>
    tau <int>
    delta <int>
    k <int>
    unit true|false          (optional; default true in model mode, false in edges mode)
    vertex <name> [weight]   (one per vertex; weight rational p/q or integer, default 1)
    layer <t>                (t = 1..tau, ascending)
    interval <name> <left> <right>   (model mode)
    edge <u> <v>                     (edges mode)

Integers and rationals are written in ASCII digits, 'p' or 'p/q' with an
optional sign and q > 0. A name is nonempty, with no whitespace and no '#'.

Canonical serialization: header fields in the order above, vertices in
declaration order, layers ascending, interval/edge lines sorted
lexicographically.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Union

VertexRef = Union[int, str]

# The only number types an instance takes: both are exact, and a float,
# Decimal or other type would be converted with its binary or decimal error.
_EXACT = (int, Fraction)


class InstanceError(ValueError):
    """Malformed instance text or inconsistent instance data.

    Carries the offending 1-based line number when raised by the parser.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NotUnitError(ValueError):
    """An operation that is only valid on unit instances was given a non-unit one."""


class LimitExceeded(RuntimeError):
    """An exact/oracle routine was asked to exceed its configured size cap."""


class BudgetExceeded(RuntimeError):
    """No deletion set within the requested budget exists."""


class InternalError(RuntimeError):
    """A computed result failed its own consistency check: a bug in the
    library, never a property of the input."""


# ASCII digits only: `\d` would also take other scripts' decimal digits.
_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([1-9][0-9]*))?")
_INTEGER_RE = re.compile(r"[+-]?[0-9]+")
_NAME_RE = re.compile(r"[^\s#]+")  # what the parser reads as one token


def _parse_ratio(token: str, line: int | None) -> tuple[int, int]:
    """Parse 'p' or 'p/q' into the reduced pair (p, q), q > 0."""
    m = _RATIONAL_RE.fullmatch(token)
    if not m:
        raise InstanceError(f"bad rational {token!r} (expected p or p/q)", line)
    p, q = m.groups()
    try:
        p = int(p)
        if q is None:
            return p, 1
        q = int(q)
    except ValueError:  # past the digits int() converts, from Python 3.10.7 on
        message = f"numeral of {len(token)} characters is too long"
        raise InstanceError(message, line) from None
    g = math.gcd(p, q)
    return (p // g, q // g) if g != 1 else (p, q)


def _format_ratio(p: int, q: int) -> str:
    return str(p) if q == 1 else f"{p}/{q}"


class StaticGraph:
    """An undirected graph on vertices 0..n-1: one layer, or a conflict graph.

    Edges are stored as a frozenset of (u, v) pairs with u < v; adjacency sets
    are precomputed. Instances are immutable by convention.
    """

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        norm = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            norm.add((u, v) if u < v else (v, u))
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in norm:
            adj[u].add(v)
            adj[v].add(u)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(norm))
        object.__setattr__(self, "_adj", tuple(frozenset(s) for s in adj))

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("StaticGraph is immutable")

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def closed_neighborhood(self, v: int) -> frozenset[int]:
        return self._adj[v] | {v}

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def edge_pairs(
        self, *, skip: frozenset[int] = frozenset()
    ) -> list[tuple[int, int]]:
        """The edges (a, b), a < b, each once; with `skip`, those without
        these vertices, survivors re-indexed densely in ascending order."""
        idx = dense_index(self.n, skip)
        return [
            (idx[u], idx[v]) for u, v in self.edges if u not in skip and v not in skip
        ]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StaticGraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"StaticGraph(n={self.n}, edges={sorted(self.edges)})"


class EndpointRanks(NamedTuple):
    """A model's endpoints replaced by their ranks among its distinct
    endpoint values. Left and right ends are ranked together, so two ranks
    compare exactly as their endpoints do and touching ends share a rank;
    every sweep only compares endpoints, so it runs on these small ints.
    `by_left` and `by_right` list the vertices by (left, vertex) and by
    (right, vertex): the two sweep orders. The ranking sorts and tie-tests
    exact integer keys (`_endpoint_keys`), up to the width bound."""

    left: list[int]
    right: list[int]
    by_left: list[int]
    by_right: list[int]


# The widest LCM of denominators that endpoint keys are scaled to. Keys
# grow with it: ranking 2,000 intervals takes 2.6 ms at 830 bits and
# 16 ms at 16,581 bits, against 13-23 ms on Fractions, and peak memory
# doubles by about 1,000 bits. The generators' grids need a few bits.
_KEY_BITS = 1024


def _endpoint_keys(
    nums: Sequence[int], dens: Sequence[int]
) -> tuple[tuple, int | None]:
    """Keys for the endpoints p/q given reduced (q > 0) in `nums` and
    `dens`, vertex v's ends at 2v and 2v + 1, that compare and tie exactly
    as the endpoints do, and their scale: each numerator scaled to L, the
    LCM of the distinct denominators, and L; or the endpoints themselves
    as `Fraction`s and None once L passes _KEY_BITS bits. L is the least
    common denominator, so equal endpoint lists give equal keys."""
    distinct = set(dens)
    scale = 1
    for d in distinct:
        scale = math.lcm(scale, d)
        if scale.bit_length() > _KEY_BITS:
            return tuple(map(Fraction, nums, dens)), None
    mults = {d: scale // d for d in distinct}
    return tuple(map(operator.mul, nums, map(mults.__getitem__, dens))), scale


def _rank_endpoints(keys: Sequence) -> EndpointRanks:
    order = sorted(range(len(keys)), key=keys.__getitem__)  # stable: ties by v
    rank = [0] * len(keys)
    r, prev = -1, None
    for i in order:
        if r < 0 or keys[i] != prev:
            r += 1
            prev = keys[i]
        rank[i] = r
    return EndpointRanks(
        rank[0::2],
        rank[1::2],
        [i >> 1 for i in order if not i & 1],
        [i >> 1 for i in order if i & 1],
    )


def dense_index(n: int, skip: frozenset[int]) -> Sequence[int]:
    """Each vertex's index once the vertices in `skip` are deleted from
    0..n-1 and the survivors re-indexed densely in ascending order (entries
    of skipped vertices are meaningless)."""
    if not skip:
        return range(n)
    idx = [-1] * n
    i = 0
    for v in range(n):
        if v not in skip:
            idx[v] = i
            i += 1
    if i + len(skip) != n:
        raise ValueError(f"skip set holds vertices outside 0..{n - 1}")
    return idx


class IntervalModel:
    """Closed intervals [left, right] with exact rational endpoints, one per vertex.

    The induced graph has an edge {u, v} exactly when the two intervals
    intersect; touching endpoints intersect. The model stores only the
    endpoint keys of `_endpoint_keys` and their scale; `intervals`, `left`
    and `right` build their `Fraction`s when read. Endpoints must be `int`
    or `Fraction`: anything else is a TypeError.
    """

    __slots__ = ("_keys", "_scale", "_ranks", "_edges")

    def __init__(self, intervals: Iterable[tuple[Fraction, Fraction]]):
        nums, dens = [], []
        for lo, hi in intervals:
            if type(lo) not in _EXACT or type(hi) not in _EXACT:
                raise TypeError(
                    f"interval [{lo!r}, {hi!r}]: endpoints must be int or Fraction"
                )
            p, q = lo.as_integer_ratio()
            r, s = hi.as_integer_ratio()
            if p * s > r * q:
                raise ValueError(f"empty interval [{lo}, {hi}]")
            nums += (p, r)
            dens += (q, s)
        _set_keys(self, *_endpoint_keys(nums, dens))

    def __setattr__(self, name, value):
        raise AttributeError("IntervalModel is immutable")

    @property
    def n(self) -> int:
        return len(self._keys) >> 1

    def _value(self, key) -> Fraction:
        return key if self._scale is None else Fraction(key, self._scale)

    @property
    def intervals(self) -> tuple[tuple[Fraction, Fraction], ...]:
        keys, scale = self._keys, self._scale
        ends = keys if scale is None else [Fraction(key, scale) for key in keys]
        return tuple(zip(ends[0::2], ends[1::2]))

    def left(self, v: int) -> Fraction:
        return self._value(self._keys[2 * v])

    def right(self, v: int) -> Fraction:
        return self._value(self._keys[2 * v + 1])

    def _endpoint_texts(self) -> list[str]:
        """Each endpoint as str() prints its Fraction, vertex v's ends at
        2v and 2v + 1, reduced from the keys without building Fractions."""
        keys, scale = self._keys, self._scale
        if scale is None or scale == 1:
            return list(map(str, keys))
        tail = f"/{scale}"
        texts = []
        for key in keys:
            g = math.gcd(key, scale)
            if g == 1:  # already reduced, the common case
                texts.append(f"{key}{tail}")
            else:
                texts.append(_format_ratio(key // g, scale // g))
        return texts

    def ranks(self) -> EndpointRanks:
        """The integer rank encoding of the endpoints, built on first use
        and kept: the model is immutable."""
        if self._ranks is None:
            object.__setattr__(self, "_ranks", _rank_endpoints(self._keys))
        return self._ranks

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The model's edge set (see edge_pairs), swept once and kept."""
        if self._edges is None:
            object.__setattr__(self, "_edges", frozenset(self.edge_pairs()))
        return self._edges

    def edge_pairs(
        self, *, skip: frozenset[int] = frozenset()
    ) -> list[tuple[int, int]]:
        """The edges (a, b), a < b, of the model's graph, each once; with
        `skip`, those of the model without these vertices, survivors
        re-indexed densely in ascending order (the edges of
        `restrict(survivors)`).

        Sweep by left endpoint on the ranks: an interval meets a
        later-starting one exactly when that one starts by its right
        endpoint, so each walk stops at the first start beyond it. The
        walks pass over skipped vertices: once the ranks are built (O(n log
        n), kept), a sweep costs O(n + m), m the edge count of the whole
        model, whatever is skipped."""
        left, right, by_left, _ = self.ranks()
        idx = dense_index(self.n, skip)
        n = len(by_left)
        edges = []
        for i, u in enumerate(by_left):
            if u in skip:
                continue
            a, end = idx[u], right[u]
            for k in range(i + 1, n):
                v = by_left[k]
                if left[v] > end:
                    break
                if v not in skip:
                    b = idx[v]
                    edges.append((a, b) if a < b else (b, a))
        return edges

    def induced_graph(self) -> StaticGraph:
        """The model's graph, swept afresh (see edge_pairs): `edges` keeps its set."""
        return StaticGraph(self.n, self.edge_pairs())

    def restrict(self, keep: Sequence[int]) -> "IntervalModel":
        """The model of the vertices in `keep`, in that order: the kept keys
        and the scale over their gcd, which leaves the least common
        denominator as scale, as `_endpoint_keys` has it."""
        keys = self._keys
        kept = [x for v in keep for x in (keys[2 * v], keys[2 * v + 1])]
        if self._scale is None:
            return IntervalModel(zip(kept[0::2], kept[1::2]))
        g = math.gcd(self._scale, *kept)
        return _keyed_model(tuple([key // g for key in kept]), self._scale // g)

    def is_unit_length(self) -> bool:
        """True when every interval has the same rational length."""
        keys = self._keys
        return len(set(map(operator.sub, keys[1::2], keys[0::2]))) <= 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntervalModel)
            and self._scale == other._scale
            and self._keys == other._keys
        )

    def __hash__(self) -> int:
        return hash((self._scale, self._keys))

    def __repr__(self) -> str:
        return f"IntervalModel({list(self.intervals)!r})"


def _set_keys(model: IntervalModel, keys: tuple, scale: int | None) -> None:
    object.__setattr__(model, "_keys", keys)
    object.__setattr__(model, "_scale", scale)
    object.__setattr__(model, "_ranks", None)
    object.__setattr__(model, "_edges", None)


def _keyed_model(keys: tuple, scale: int | None) -> IntervalModel:
    """The model with these keys and scale, as `_endpoint_keys` gives them."""
    model = object.__new__(IntervalModel)
    _set_keys(model, keys, scale)
    return model


Layer = Union[IntervalModel, StaticGraph]


class TemporalIntervalInstance:
    """A temporal interval instance: weighted vertices, tau layers, delta, k.

    Layers are interval models (mode 'model') or explicit edge lists (mode
    'edges'). `unit_flag` declares that all intervals within each layer share
    one length; in model mode this is verified at construction, in edges mode
    it is a declaration that unit-dependent operations verify lazily, once.
    Weights must be `int` or `Fraction` and are stored as `Fraction`s; tau,
    delta and k must be `int` and unit_flag a `bool` (a TypeError otherwise).
    """

    __slots__ = (
        "names",
        "weights",
        "tau",
        "delta",
        "k",
        "mode",
        "unit_flag",
        "layers",
        "_name_to_index",
        "_unit_models",
    )

    def __init__(
        self,
        names: Sequence[str],
        weights: Sequence[Fraction],
        tau: int,
        delta: int,
        k: int,
        mode: str,
        layers: Sequence[Layer],
        unit_flag: bool,
    ):
        names = tuple(names)
        weights = tuple(weights)
        for w in weights:
            if type(w) not in _EXACT:
                raise TypeError(f"weight {w!r}: weights must be int or Fraction")
        weights = tuple(w if type(w) is Fraction else Fraction(w) for w in weights)
        for key, value in (("tau", tau), ("delta", delta), ("k", k)):
            if type(value) is not int:  # a bool or float cannot be written back
                raise TypeError(f"{key} {value!r}: must be an int")
        if type(unit_flag) is not bool:
            raise TypeError(f"unit_flag {unit_flag!r}: must be a bool")
        n = len(names)
        if len(set(names)) != n:
            raise InstanceError("duplicate vertex name")
        for name in names:
            if not _NAME_RE.fullmatch(name):
                raise InstanceError(f"bad vertex name {name!r}")
        if len(weights) != n:
            raise InstanceError("weight count does not match vertex count")
        if any(w.numerator < 0 for w in weights):
            raise InstanceError("negative vertex weight")
        if tau < 1:
            raise InstanceError(f"tau must be positive, got {tau}")
        if not 1 <= delta <= tau:
            raise InstanceError(f"delta {delta} out of [1, {tau}]")
        if k < 0:
            raise InstanceError(f"k must be nonnegative, got {k}")
        if mode not in ("model", "edges"):
            raise InstanceError(f"unknown mode {mode!r}")
        layers = tuple(layers)
        if len(layers) != tau:
            raise InstanceError(f"expected {tau} layers, got {len(layers)}")
        for t, layer in enumerate(layers, start=1):
            if mode == "model":
                if not isinstance(layer, IntervalModel):
                    raise InstanceError(f"layer {t}: expected an interval model")
                if layer.n != n:
                    raise InstanceError(
                        f"layer {t}: model covers {layer.n} vertices, expected {n}"
                    )
                if unit_flag and not layer.is_unit_length():
                    raise InstanceError(
                        f"layer {t}: unit flag declared but interval lengths differ"
                    )
            else:
                if not isinstance(layer, StaticGraph):
                    raise InstanceError(f"layer {t}: expected an edge-list graph")
                if layer.n != n:
                    raise InstanceError(
                        f"layer {t}: graph has {layer.n} vertices, expected {n}"
                    )
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "unit_flag", unit_flag)
        object.__setattr__(self, "layers", layers)
        object.__setattr__(
            self, "_name_to_index", {name: i for i, name in enumerate(names)}
        )
        # Set by intervals.ensure_unit once an edges-mode unit declaration
        # has been verified: each layer's normalized model along its
        # umbrella ordering.
        object.__setattr__(self, "_unit_models", None)

    def __setattr__(self, name, value):
        raise AttributeError("TemporalIntervalInstance is immutable")

    @property
    def n(self) -> int:
        return len(self.names)

    def vertex_index(self, ref: VertexRef) -> int:
        if isinstance(ref, int):
            if not 0 <= ref < self.n:
                raise InstanceError(f"vertex index {ref} out of range")
            return ref
        idx = self._name_to_index.get(ref)
        if idx is None:
            raise InstanceError(f"unknown vertex name {ref!r}")
        return idx

    def vertex_set(self, refs: Iterable[VertexRef]) -> frozenset[int]:
        return frozenset(self.vertex_index(r) for r in refs)

    def layer_edges(
        self, t: int, *, skip: frozenset[int] = frozenset()
    ) -> frozenset[tuple[int, int]]:
        """The edges (a, b), a < b, of layer t (1-based): the layer's kept
        `edges`, or with `skip` those of layer t of remove_vertices(self,
        skip), found afresh by the layer's `edge_pairs` (a model's sweep past
        the skipped vertices, an edge list's filter). No graph is built."""
        if not 1 <= t <= self.tau:
            raise InstanceError(f"layer index {t} out of [1, {self.tau}]")
        layer = self.layers[t - 1]
        return frozenset(layer.edge_pairs(skip=skip)) if skip else layer.edges

    def layer_graph(self, t: int) -> StaticGraph:
        """The static graph of layer t (1-based): an edge list itself, or a
        graph built on each call from a model's kept `edges`."""
        edges = self.layer_edges(t)
        layer = self.layers[t - 1]
        return layer if isinstance(layer, StaticGraph) else StaticGraph(self.n, edges)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TemporalIntervalInstance)
            and self.names == other.names
            and self.weights == other.weights
            and self.tau == other.tau
            and self.delta == other.delta
            and self.k == other.k
            and self.mode == other.mode
            and self.unit_flag == other.unit_flag
            and self.layers == other.layers
        )

    def __hash__(self) -> int:
        return hash((self.names, self.tau, self.delta, self.k, self.mode))

    def __repr__(self) -> str:
        return (
            f"TemporalIntervalInstance(n={self.n}, tau={self.tau}, "
            f"delta={self.delta}, k={self.k}, mode={self.mode!r})"
        )


@dataclass(frozen=True)
class Solution:
    """A solver result: selected vertex indices, objective, and a certificate
    (the independence report) for independent re-verification."""

    selected: frozenset[int]
    objective: Fraction
    algorithm: str
    certificate: object = None

    @property
    def cardinality(self) -> int:
        return len(self.selected)


# -- instance file parsing ---------------------------------------------------

_HEADER_KEYS = ("mode", "n", "tau", "delta", "k", "unit")


def parse_instance(text: str) -> TemporalIntervalInstance:
    """Parse instance-file text into a validated instance.

    Errors carry the 1-based line number of the offending line.
    """
    lines: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append((lineno, body.split()))
    if not lines:
        raise InstanceError("empty instance file")

    lineno, toks = lines[0]
    if toks != ["tis", "1"]:
        raise InstanceError("expected header 'tis 1'", lineno)

    header: dict[str, tuple[str, int]] = {}  # key -> (value, line)
    pos = 1
    while pos < len(lines):
        lineno, toks = lines[pos]
        if toks[0] not in _HEADER_KEYS:
            break
        if len(toks) != 2:
            raise InstanceError(f"expected '{toks[0]} <value>'", lineno)
        if toks[0] in header:
            raise InstanceError(f"duplicate {toks[0]} line", lineno)
        header[toks[0]] = (toks[1], lineno)
        pos += 1

    for key in ("mode", "n", "tau", "delta", "k"):
        if key not in header:
            raise InstanceError(f"missing {key} line")
    mode, lineno = header["mode"]
    if mode not in ("model", "edges"):
        raise InstanceError(f"mode must be model or edges, got {mode!r}", lineno)

    def intfield(key: str) -> int:
        val, lineno = header[key]
        if not _INTEGER_RE.fullmatch(val):
            raise InstanceError(f"{key} must be an integer, got {val!r}", lineno)
        return _parse_ratio(val, lineno)[0]

    n = intfield("n")
    tau = intfield("tau")
    delta = intfield("delta")
    k = intfield("k")
    if n < 0:
        raise InstanceError("n must be nonnegative", header["n"][1])
    if "unit" in header:
        unit, lineno = header["unit"]
        if unit not in ("true", "false"):
            raise InstanceError(f"unit must be true or false, got {unit!r}", lineno)
        unit_flag = unit == "true"
    else:
        unit_flag = mode == "model"

    names: list[str] = []
    seen: set[str] = set()
    weights: list[Fraction] = []
    while pos < len(lines):
        lineno, toks = lines[pos]
        if toks[0] != "vertex":
            break
        if len(toks) not in (2, 3):
            raise InstanceError("expected 'vertex <name> [weight]'", lineno)
        name = toks[1]
        if name in seen:
            raise InstanceError(f"duplicate vertex {name!r}", lineno)
        seen.add(name)
        p, q = _parse_ratio(toks[2], lineno) if len(toks) == 3 else (1, 1)
        if p < 0:
            raise InstanceError(f"negative weight for vertex {name!r}", lineno)
        names.append(name)
        weights.append(Fraction(p, q))
        pos += 1
    if len(names) != n:
        raise InstanceError(f"declared n={n} but found {len(names)} vertex lines")
    name_to_index = {name: i for i, name in enumerate(names)}

    layers: list[Layer] = []
    expected_t = 1
    while pos < len(lines):
        lineno, toks = lines[pos]
        if toks[0] == "vertex":
            raise InstanceError("vertex line after first layer", lineno)
        if toks != ["layer", str(expected_t)]:
            raise InstanceError(
                f"expected 'layer {expected_t}', got {' '.join(toks)!r}", lineno
            )
        pos += 1
        if mode == "model":
            # vertex v's ends p/q at 2v and 2v + 1; q = 0 until its line
            nums = [0] * (2 * n)
            dens = [0] * (2 * n)
            while pos < len(lines) and lines[pos][1][0] == "interval":
                lineno, toks = lines[pos]
                if len(toks) != 4:
                    raise InstanceError("expected 'interval <name> <left> <right>'", lineno)
                name = toks[1]
                if name not in name_to_index:
                    raise InstanceError(f"unknown vertex {name!r}", lineno)
                i = 2 * name_to_index[name]
                if dens[i]:
                    raise InstanceError(f"duplicate interval for {name!r}", lineno)
                p, q = _parse_ratio(toks[2], lineno)
                r, s = _parse_ratio(toks[3], lineno)
                if p * s > r * q:
                    lo, hi = _format_ratio(p, q), _format_ratio(r, s)
                    raise InstanceError(f"empty interval [{lo}, {hi}]", lineno)
                nums[i], nums[i + 1], dens[i], dens[i + 1] = p, r, q, s
                pos += 1
            if 0 in dens:
                name = names[dens.index(0) // 2]
                raise InstanceError(
                    f"layer {expected_t}: missing interval for {name!r}"
                )
            layers.append(_keyed_model(*_endpoint_keys(nums, dens)))
        else:
            edges: set[tuple[int, int]] = set()
            while pos < len(lines) and lines[pos][1][0] == "edge":
                lineno, toks = lines[pos]
                if len(toks) != 3:
                    raise InstanceError("expected 'edge <u> <v>'", lineno)
                for name in toks[1:]:
                    if name not in name_to_index:
                        raise InstanceError(f"unknown vertex {name!r}", lineno)
                u, v = name_to_index[toks[1]], name_to_index[toks[2]]
                if u == v:
                    raise InstanceError(f"self-loop at {toks[1]!r}", lineno)
                key = (u, v) if u < v else (v, u)
                if key in edges:
                    raise InstanceError(f"duplicate edge {toks[1]} {toks[2]}", lineno)
                edges.add(key)
                pos += 1
            layers.append(StaticGraph(n, edges))
        expected_t += 1
    if len(layers) != tau:
        raise InstanceError(f"declared tau={tau} but found {len(layers)} layer blocks")

    try:
        return TemporalIntervalInstance(
            names, weights, tau, delta, k, mode, layers, unit_flag
        )
    except InstanceError:
        raise
    except ValueError as exc:
        raise InstanceError(str(exc)) from exc


def _number_text(inst: TemporalIntervalInstance, v: int, x: Fraction) -> str:
    """x as serialize_instance writes it, a number of vertex v."""
    try:
        return str(x)
    except ValueError:  # past the digits str() writes, from Python 3.10.7 on
        message = "a number of more digits than int-to-text conversion allows"
        raise InstanceError(f"vertex {inst.names[v]}: {message}") from None


def serialize_instance(inst: TemporalIntervalInstance) -> str:
    """Canonical deterministic text form; parse ∘ serialize is the identity.

    A weight or endpoint with more digits than the interpreter converts to
    text (sys.get_int_max_str_digits) is an InstanceError naming its
    vertex, as the parser refuses such a numeral."""
    out = ["tis 1"]
    out.append(f"mode {inst.mode}")
    out.append(f"n {inst.n}")
    out.append(f"tau {inst.tau}")
    out.append(f"delta {inst.delta}")
    out.append(f"k {inst.k}")
    out.append(f"unit {'true' if inst.unit_flag else 'false'}")
    for v, (name, w) in enumerate(zip(inst.names, inst.weights)):
        out.append(f"vertex {name} {_number_text(inst, v, w)}")
    names = inst.names
    by_name = sorted(range(inst.n), key=names.__getitem__)
    for t in range(1, inst.tau + 1):
        out.append(f"layer {t}")
        layer = inst.layers[t - 1]
        if isinstance(layer, IntervalModel):
            try:
                ends = layer._endpoint_texts()
            except ValueError:  # name the first vertex with a long endpoint
                ivs = layer.intervals
                ends = [_number_text(inst, v, x) for v in range(inst.n) for x in ivs[v]]
            for v in by_name:
                out.append(f"interval {names[v]} {ends[2 * v]} {ends[2 * v + 1]}")
        else:
            pairs = sorted(
                tuple(sorted((inst.names[u], inst.names[v])))
                for (u, v) in layer.edges
            )
            for a, b in pairs:
                out.append(f"edge {a} {b}")
    return "\n".join(out) + "\n"


def remove_vertices(
    inst: TemporalIntervalInstance, remove: Iterable[VertexRef]
) -> TemporalIntervalInstance:
    """The temporal instance induced on the surviving vertices.

    Vertices may be given by name or index. Surviving vertices keep their
    declaration order and names; indices are re-densified. tau, delta, k and
    the unit flag are unchanged.
    """
    gone = inst.vertex_set(remove)
    keep = [v for v in range(inst.n) if v not in gone]
    layers: list[Layer] = []
    for layer in inst.layers:
        if isinstance(layer, IntervalModel):
            layers.append(layer.restrict(keep))
        else:
            layers.append(StaticGraph(len(keep), layer.edge_pairs(skip=gone)))
    return TemporalIntervalInstance(
        [inst.names[v] for v in keep],
        [inst.weights[v] for v in keep],
        inst.tau,
        inst.delta,
        inst.k,
        inst.mode,
        layers,
        inst.unit_flag,
    )
