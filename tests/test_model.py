import hashlib
import sys
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import tis
from tis.model import (
    _KEY_BITS,
    InstanceError,
    IntervalModel,
    StaticGraph,
    TemporalIntervalInstance,
    _endpoint_keys,
    _parse_ratio,
    parse_instance,
    remove_vertices,
    serialize_instance,
)


def test_parse_rational_accepts_reduced_forms():
    assert _parse_ratio("3", 1) == (3, 1)
    assert _parse_ratio("-7/2", 1) == (-7, 2)
    assert _parse_ratio("+4/6", 1) == (2, 3)


@pytest.mark.parametrize(
    "bad", ["", "1/0", "1.5", "a", "1/-2", "2/", "/3", "\u0663", "1/\u0663", "3\n"]
)
def test_parse_rational_rejects_garbage(bad):
    with pytest.raises(InstanceError):
        _parse_ratio(bad, 3)


def test_static_graph_basics():
    g = StaticGraph(4, [(0, 1), (2, 1)])
    assert g.edges == {(0, 1), (1, 2)}
    assert g.neighbors(1) == {0, 2}
    assert g.closed_neighborhood(1) == {0, 1, 2}
    assert g.degree(3) == 0
    assert sorted(g.edge_pairs()) == [(0, 1), (1, 2)]
    # without vertex 0, survivors 1, 2, 3 re-indexed to 0, 1, 2
    assert g.edge_pairs(skip=frozenset({0})) == [(0, 1)]
    assert g.edge_pairs(skip=frozenset({1})) == []
    with pytest.raises(ValueError):
        g.edge_pairs(skip=frozenset({4}))


def test_static_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        StaticGraph(2, [(0, 2)])
    with pytest.raises(ValueError):
        StaticGraph(2, [(1, 1)])


def test_edge_set_operations():
    # conflict_graph intersects the layers' edge sets directly, which needs
    # every edge stored once as (low, high), whichever way it was given
    a = StaticGraph(3, [(1, 0), (1, 2)])
    b = StaticGraph(3, [(2, 1), (0, 2)])
    assert a.edges & b.edges == frozenset({(1, 2)})
    assert a.edges | b.edges == frozenset({(0, 1), (1, 2), (0, 2)})


def test_interval_model_queries():
    m = IntervalModel(((F(0), F(1)), (F(1), F(2)), (F(5, 2), F(7, 2))))
    # touching endpoints count: 0 meets 1, and 2 is disjoint from 0
    assert m.induced_graph().edges == frozenset({(0, 1)})
    assert m.is_unit_length()
    assert m.left(2) == F(5, 2) and m.right(2) == F(7, 2)
    ints = IntervalModel([(0, 1), (1, 2), (F(5, 2), F(7, 2))])
    assert ints == m and hash(ints) == hash(m)
    assert all(type(x) is F for iv in ints.intervals for x in iv)
    assert not IntervalModel(((F(0), F(2)), (F(0), F(1)))).is_unit_length()


def test_interval_model_rejects_inverted():
    with pytest.raises(ValueError):
        IntervalModel(((F(1), F(0)),))


def test_instance_validation_errors():
    mk = lambda **kw: TemporalIntervalInstance(**kw)
    base = dict(
        names=("a", "b"),
        weights=(F(1), F(1)),
        tau=1,
        delta=1,
        k=0,
        mode="edges",
        layers=(StaticGraph(2, [(0, 1)]),),
        unit_flag=False,
    )
    mk(**base)
    for field, value in [
        ("names", ("a", "a")),
        ("weights", (F(1),)),
        ("weights", (F(-1), F(1))),
        ("tau", 0),
        ("delta", 2),
        ("k", -1),
        ("mode", "mystery"),
        ("layers", ()),
    ]:
        bad = dict(base)
        bad[field] = value
        with pytest.raises(InstanceError):
            mk(**bad)


def test_unit_flag_checks_model_lengths():
    uneven = (
        IntervalModel(((F(0), F(1)), (F(2), F(4)))),
    )
    with pytest.raises(InstanceError):
        TemporalIntervalInstance(
            names=("a", "b"),
            weights=(F(1), F(1)),
            tau=1,
            delta=1,
            k=0,
            mode="model",
            layers=uneven,
            unit_flag=True,
        )


def _two_vertices(lows=(0, 0), highs=(1, 1), weights=(1, 1)):
    return TemporalIntervalInstance(
        names=("a", "b"),
        weights=weights,
        tau=1,
        delta=1,
        k=0,
        mode="model",
        layers=(IntervalModel(zip(lows, highs)),),
        unit_flag=False,
    )


# Each is refused rather than converted with its rounding error: a float
# weight of 0.1 would become 3602879701896397/36028797018963968.
INEXACT = [0.1, Decimal("0.5"), True, "1", None]


@pytest.mark.parametrize("bad", INEXACT, ids=repr)
def test_interval_model_refuses_inexact_endpoints(bad):
    for interval in [(bad, 2), (0, bad)]:
        with pytest.raises(TypeError):
            IntervalModel([interval])


@pytest.mark.parametrize("bad", INEXACT, ids=repr)
def test_instance_refuses_inexact_weights(bad):
    with pytest.raises(TypeError):
        _two_vertices(weights=(1, bad))


def test_int_and_fraction_numbers_round_trip():
    inst = _two_vertices(lows=(0, F(1, 2)), highs=(1, F(7, 3)), weights=(3, F(1, 3)))
    text = serialize_instance(inst)
    back = parse_instance(text)
    assert back.weights == (F(3), F(1, 3))
    assert all(type(w) is F for w in back.weights)
    assert back.layers[0].intervals == ((0, 1), (F(1, 2), F(7, 3)))
    assert serialize_instance(back) == text


NUMBERS = st.one_of(
    st.integers(0, 50),
    st.builds(F, st.integers(0, 50), st.integers(1, 9)),
    st.floats(0, 50),
    st.builds(Decimal, st.integers(0, 50)),
    st.booleans(),
)
NAME_CHARS = st.one_of(st.sampled_from("ab#  \t\n\r\x0b\x1c\x85 "), st.characters())
# tau, delta, k and the unit flag: the file format writes an int and a bool
HEADER_VALUES = st.one_of(
    st.integers(0, 1), st.builds(F, st.integers(0, 1)), st.floats(0, 1), st.booleans()
)
HEADERS = st.one_of(
    st.tuples(st.just(1), st.just(1), st.integers(0, 3), st.booleans()),
    st.tuples(HEADER_VALUES, HEADER_VALUES, HEADER_VALUES, HEADER_VALUES),
)


@settings(max_examples=300, deadline=None)
@given(
    names=st.lists(st.text(NAME_CHARS, max_size=3), min_size=1, max_size=4, unique=True),
    data=st.data(),
)
@example(names=["x#y", "b"], data=None)
@example(names=["a\n", "b"], data=None)
def test_mixed_numbers_and_names_round_trip_or_are_refused(names, data):
    # every accepted instance survives its text form; every refusal is
    # TypeError for a number that is not int or Fraction or a header field
    # of another type than the format writes, and InstanceError for a name
    # the file format cannot carry as one token or a header value out of
    # range for the instance (one layer, so tau = delta = 1)
    n = len(names)
    if data is None:
        weights, ends, header = [1] * n, [(0, 1)] * n, (1, 1, 0, False)
    else:
        weights = data.draw(st.lists(NUMBERS, min_size=n, max_size=n))
        pairs = st.tuples(NUMBERS, NUMBERS).map(sorted).map(tuple)
        ends = data.draw(st.lists(pairs, min_size=n, max_size=n))
        header = data.draw(HEADERS)
    tau, delta, k, unit = header
    numbers = [*weights, *(x for pair in ends for x in pair)]
    inexact = any(type(x) not in (int, F) for x in numbers)
    inexact |= any(type(x) is not int for x in (tau, delta, k)) or type(unit) is not bool
    bad_name = any(not s or "#" in s or any(c.isspace() for c in s) for s in names)
    bad_value = bad_name or (tau, delta) != (1, 1)
    try:
        layer = IntervalModel(ends)
        bad_value |= unit and not oracles.unit_length(ends)
        inst = TemporalIntervalInstance(names, weights, tau, delta, k, "model", [layer], unit)
    except TypeError:
        assert inexact
        return
    except InstanceError:
        assert bad_value and not inexact
        return
    assert not inexact and not bad_value
    assert parse_instance(serialize_instance(inst)) == inst


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter writes integers of any length",
)
@pytest.mark.parametrize("field", ["right", "weight"])
def test_serialize_names_the_vertex_of_an_unwritable_number(field):
    # Past the digits str() writes, serializing is an input error naming
    # the vertex, as parsing such a numeral is one naming its line.
    huge = 10 ** sys.get_int_max_str_digits()
    if field == "right":
        inst = _two_vertices(highs=(1, huge))
    else:
        inst = _two_vertices(weights=(1, huge))
    with pytest.raises(InstanceError, match="^vertex b: "):
        serialize_instance(inst)


def test_parse_reports_line_numbers():
    text = "tis 1\nmode edges\nn 1\ntau 1\ndelta 1\nk 0\nvertex a 1\nlayer 1\nedge a a\n"
    with pytest.raises(InstanceError) as err:
        parse_instance(text)
    assert err.value.line == 9


def test_parse_rejects_duplicate_vertex_with_its_line():
    text = "tis 1\nmode model\nn 2\ntau 1\ndelta 1\nk 0\nvertex a\nvertex a\n"
    with pytest.raises(InstanceError, match="duplicate vertex 'a'") as err:
        parse_instance(text)
    assert err.value.line == 8


def test_parse_is_linear_in_the_vertex_lines():
    n = 20_000
    text = (
        f"tis 1\nmode model\nn {n}\ntau 1\ndelta 1\nk 0\n"
        + "".join(f"vertex v{i}\n" for i in range(n))
        + "layer 1\n"
        + "".join(f"interval v{i} {i}/3 {i + 3}/3\n" for i in range(n))
    )
    start = time.perf_counter()
    inst = parse_instance(text)
    assert time.perf_counter() - start < 1
    assert inst.n == n and inst.layers[0].left(4) == F(4, 3)


def _one_vertex_text(k="0", weight="1", right="1"):
    return (
        f"tis 1\nmode model\nn 1\ntau 1\ndelta 1\nk {k}\n"
        f"vertex a {weight}\nlayer 1\ninterval a 0 {right}\n"
    )


_FIELD_LINES = {"k": 6, "weight": 7, "right": 9}


@pytest.mark.parametrize(
    "field, form", [("k", "{}"), ("weight", "{}"), ("right", "{}"), ("right", "1/{}")]
)
def test_over_long_numerals_are_instance_errors(field, form):
    # Python 3.10.7 and later cap the digits int() converts (0: no cap).
    # Past the cap a numeral is an input error with its line; without one
    # it parses to its value.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    numeral = form.format("1" + "0" * max(limit, 5000))
    text = _one_vertex_text(**{field: numeral})
    if limit:
        with pytest.raises(InstanceError) as err:
            parse_instance(text)
        assert err.value.line == _FIELD_LINES[field]
    else:
        inst = parse_instance(text)
        got = {"k": inst.k, "weight": inst.weights[0], "right": inst.layers[0].right(0)}
        assert got[field] == F(numeral)


@pytest.mark.parametrize("field", sorted(_FIELD_LINES))
def test_parse_refuses_non_ascii_digits(field):
    # U+0663 ARABIC-INDIC DIGIT THREE is a decimal digit that int() reads
    # as 3, but the file format's numerals are ASCII.
    with pytest.raises(InstanceError) as err:
        parse_instance(_one_vertex_text(**{field: "\u0663"}))
    assert err.value.line == _FIELD_LINES[field]


def test_representation_scales_to_20000_vertices(monkeypatch):
    # Parse, serialize and restrict run on the endpoint keys, in time linear
    # in the text: the parse builds a Fraction per weight but none per
    # endpoint, and serialize and remove_vertices build none at all.
    inst = tis.gen_order_preserving(20_000, 5, 2, 0, seed=1)
    text = serialize_instance(inst)
    built = []
    new = F.__new__

    def counted(cls, *args, **kwargs):
        built.append(cls)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(counted))
    start = time.perf_counter()
    parsed = parse_instance(text)
    parse_s = time.perf_counter() - start
    parse_built = len(built)
    start = time.perf_counter()
    again = serialize_instance(parsed)
    serialize_s = time.perf_counter() - start
    start = time.perf_counter()
    red = remove_vertices(parsed, range(0, parsed.n, 2))
    remove_s = time.perf_counter() - start
    monkeypatch.undo()
    assert parse_built <= parsed.n
    assert len(built) == parse_built
    assert parse_s < 5 and serialize_s < 1 and remove_s < 1
    assert parsed == inst and again == text
    odd = [iv for v, iv in enumerate(inst.layers[0].intervals) if v % 2]
    assert red.n == 10_000 and red.layers[0] == IntervalModel(odd)


def test_parse_rejects_duplicate_header_keys():
    text = "tis 1\nmode edges\nmode edges\nn 0\ntau 1\ndelta 1\nk 0\nlayer 1\n"
    with pytest.raises(InstanceError):
        parse_instance(text)


def test_parse_roundtrip_fixtures(windows_triangle, two_layer_path, pooled_trap):
    for inst in (windows_triangle, two_layer_path, pooled_trap):
        assert parse_instance(serialize_instance(inst)) == inst


def test_serialization_is_canonical(windows_triangle):
    text = serialize_instance(windows_triangle)
    assert text == serialize_instance(parse_instance(text))
    lines = text.splitlines()
    assert lines[0] == "tis 1"
    assert lines[1].startswith("mode ")


def test_layer_graph_modes(windows_triangle, pooled_trap):
    g1 = windows_triangle.layer_graph(1)
    assert (0, 1) in g1.edges
    gm = pooled_trap.layer_graph(2)
    # layer 2 of the trap: a,b overlap; c meets b; s is far right
    assert (0, 1) in gm.edges and (1, 2) in gm.edges
    assert (2, 3) not in gm.edges
    with pytest.raises(ValueError):
        windows_triangle.layer_graph(0)
    with pytest.raises(ValueError):
        windows_triangle.layer_graph(4)


def test_vertex_lookup(two_layer_path):
    inst = two_layer_path
    assert inst.vertex_index("v3") == 2
    assert inst.vertex_index(4) == 4
    assert inst.vertex_set(["v1", 5]) == frozenset({0, 5})
    with pytest.raises(InstanceError):
        inst.vertex_index("nope")
    with pytest.raises(InstanceError):
        inst.vertex_index(17)


def test_remove_vertices_reindexes(two_layer_path):
    red = remove_vertices(two_layer_path, ["v4"])
    assert red.names == ("v1", "v2", "v3", "v5", "v6")
    assert red.n == 5
    # v5 (now index 3) kept its layer-1 edge to v6 (now 4)
    assert (3, 4) in red.layer_graph(1).edges
    assert red.tau == two_layer_path.tau
    assert red.k == two_layer_path.k


def test_remove_vertices_model_mode(pooled_trap):
    red = remove_vertices(pooled_trap, ["s"])
    assert red.names == ("a", "b", "c")
    assert red.layers[0].intervals == pooled_trap.layers[0].intervals[:3]


def test_solution_cardinality():
    sol = tis.Solution(selected=frozenset({1, 3}), objective=F(5), algorithm="x")
    assert sol.cardinality == 2


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 7),
    tau=st.integers(1, 3),
    seed=st.integers(0, 10_000),
    weighted=st.booleans(),
)
def test_roundtrip_random_instances(n, tau, seed, weighted):
    inst = tis.gen_random_unit(
        n, tau, 1, 0, seed=seed, max_weight=9 if weighted else None
    )
    assert parse_instance(serialize_instance(inst)) == inst


# Output pin. Endpoint sorts and tie tests may run on any exact key, but
# never change what is computed from them. The digest hashes, per seeded
# instance, every layer's ranks(), the recognition ordering (or witness),
# the conflict interval model and the op and greedy sets.

SOLVE_OUTPUTS = "c69d2aa67aab4d3c74a8b321aac7181a994aaa3c8865b27a051437dc37e7071d"


def _pinned_instances():
    for seed in range(20):
        yield tis.gen_order_preserving(120, 5, 2, 0, seed=seed)
    for seed in range(20):
        yield tis.gen_random_unit(34, 4, 2, 0, seed=seed, spread=6, max_weight=5)


def _solve_outputs_digest():
    h = hashlib.sha256()
    for inst in _pinned_instances():
        for layer in inst.layers:
            h.update(repr(tuple(layer.ranks())).encode())
        rep = tis.recognize_order_preserving(inst)
        if rep.ordering is None:
            h.update(repr(rep.witness).encode())
        else:
            h.update(repr(rep.ordering.order).encode())
            model = tis.conflict_interval_model(inst, rep.ordering)
            h.update(repr(model.intervals).encode())
            op = tis.solve_exact_op(inst, rep.ordering)
            h.update(repr(sorted(op.selected)).encode())
        h.update(repr(sorted(tis.solve_greedy(inst).selected)).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_solve_outputs_pinned():
    assert _solve_outputs_digest() == SOLVE_OUTPUTS


# Endpoint keys. Mersenne primes as denominators: a model holding both of
# the last two has an LCM past the width bound, so it ranks on Fractions.
_PRIMES = (2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1, 2**521 - 1, 2**607 - 1)
_endpoint = st.builds(
    F, st.integers(-12, 12), st.sampled_from((1, 2, 3, 4, 6, 12) + _PRIMES)
)


@st.composite
def _models(draw):
    """Negative, integer, touching and mixed-denominator endpoints; with a
    shared length the model is unit."""
    shared = draw(st.none() | st.builds(abs, _endpoint))
    ivs = []
    for _ in range(draw(st.integers(0, 12))):
        lo = draw(_endpoint)
        length = shared if shared is not None else draw(st.builds(abs, _endpoint))
        ivs.append((lo, lo + length))
    return ivs


def test_endpoint_keys_switch_to_fractions_past_the_width_bound():
    assert _endpoint_keys([-3, 1, 5, 5], [4, 6, 1, 1]) == ((-9, 2, 60, 60), 12)
    assert _KEY_BITS < 521 + 607
    big = [F(1, 2**521 - 1), F(1, 2**607 - 1), F(0), F(0)]
    keys, scale = _endpoint_keys(
        [x.numerator for x in big], [x.denominator for x in big]
    )
    assert scale is None and keys == tuple(big)
    assert all(type(k) is F for k in keys)


@settings(max_examples=300, deadline=None)
@given(ivs=_models())
def test_ranks_and_unit_length_match_oracles(ivs):
    m = IntervalModel(ivs)
    assert tuple(m.ranks()) == oracles.endpoint_ranks(ivs)
    assert m.is_unit_length() == oracles.unit_length(ivs)


def _primes_below(limit):
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return [p for p in range(limit) if sieve[p]]


def test_distinct_denominators_rank_in_bounded_memory():
    # Scaled to one denominator, these 10,000 intervals would need keys of
    # about 150,000 bits each; past the width bound they rank on Fractions.
    primes = _primes_below(104_730)  # the 10,000th prime is 104,729
    assert len(primes) == 10_000
    ivs = [(F(v, p), F(v, p) + 1) for v, p in enumerate(primes)]
    tracemalloc.start()
    try:
        m = IntervalModel(ivs)
        ranks = m.ranks()
        unit = m.is_unit_length()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert unit
    assert peak < 50_000_000
    assert tuple(ranks) == oracles.endpoint_ranks(ivs)


@st.composite
def _models_and_selections(draw):
    ivs = draw(_models())
    keep = draw(st.lists(st.integers(0, len(ivs) - 1))) if ivs else []
    return ivs, keep


# Past the width bound with both of the largest primes; vertices 0 and 2
# alone fit within it again.
_WIDE = [(F(1, 2**521 - 1), F(1)), (F(-1, 2**607 - 1), F(0)), (F(2, 3), F(2, 3))]


@settings(max_examples=200, deadline=None)
@given(case=_models_and_selections())
@example(case=(_WIDE, [2, 0]))
@example(case=(_WIDE, [1, 1, 0]))
def test_model_api_reads_back_the_normalized_input(case):
    ivs, keep = case
    m = IntervalModel(ivs)
    want = tuple((F(lo), F(hi)) for lo, hi in ivs)
    assert m.intervals == want and m.n == len(ivs)
    assert [(m.left(v), m.right(v)) for v in range(m.n)] == list(want)
    sub = m.restrict(keep)
    fresh = IntervalModel([ivs[v] for v in keep])
    assert sub == fresh and hash(sub) == hash(fresh)
    assert sub.intervals == tuple(want[v] for v in keep)
    n = len(ivs)
    inst = TemporalIntervalInstance(
        names=[f"v{v}" for v in range(n)],
        weights=[F(1)] * n,
        tau=2,
        delta=1,
        k=0,
        mode="model",
        layers=(m, m.restrict(range(n - 1, -1, -1))),
        unit_flag=False,
    )
    assert parse_instance(serialize_instance(inst)) == inst
