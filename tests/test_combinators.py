"""Disjunction, edge cost caps and set-walk composition."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from loop_reference import or_compose_loop, rule_at
from pricing import c0_at

from lgkit.combinators import (
    CompositionError,
    johnson_compose,
    or_compose,
)
from lgkit.complexity import c1_max, complexity
from lgkit.model import BooleanFunction, GraphBuilder, Universe
from lgkit.rules import ONE, ConstRule, ProductRule, TableRule
from lgkit.serialize import dump_graph, dumps
from lgkit.validate import validate


def _bit_child(n_bits, i, domain):
    """Loads bit ``i``; positive when that bit is set."""
    b = GraphBuilder(n_bits)
    b.add_vertex("s", (i,))
    b.add_ordinary("r", "s", i, ONE, ONE)
    f = BooleanFunction(
        n_bits, {z: (z >> i) & 1 for z in domain}
    )
    return b.graph(flows={y: {0: 1.0} for y in f.positives()}), f


@pytest.mark.parametrize("n,k", [(8, 1), (8, 2), (8, 4), (6, 2)])
def test_or_cost_is_sqrt_n_over_k(n, k):
    full = (1 << n) - 1
    domain = (0, full)
    children = [_bit_child(n, i, domain) for i in range(n)]
    res = or_compose(children, k)
    rep = complexity(res.graph, res.function)
    assert rep.c1 == 1.0
    assert rep.c0 == n / k
    assert rep.value == math.sqrt(n / k)
    assert validate(res.graph, res.function).ok


def _and_child(n_bits, i, j, domain):
    b = GraphBuilder(n_bits)
    b.add_vertex("a", (i,))
    b.add_vertex("s", (i, j))
    b.add_ordinary("r", "a", i, ONE, ONE)
    b.add_ordinary("a", "s", j, ONE, ONE)
    f = BooleanFunction(n_bits, {z: int(z >> i & 1 and z >> j & 1) for z in domain})
    return b.graph(flows={y: {0: 1.0, 1: 1.0} for y in f.positives()}), f


def test_or_negative_cost_is_weighted_sum_of_children():
    domain = tuple(range(16))
    c0_ = _and_child(4, 0, 1, domain)
    c1_ = _and_child(4, 2, 3, domain)
    k = 1
    res = or_compose([c0_, c1_], k)
    for z in domain:
        # each child is weighted by its lambda, c1_max / k
        expected = sum(c1_max(g, f) / k * c0_at(g, z) for g, f in [c0_, c1_])
        assert c0_at(res.graph, z) == pytest.approx(expected, rel=1e-12)


def test_or_dead_child_gets_zero_weight():
    domain = (0, 3)
    live = _bit_child(2, 0, {0: 0, 3: 1})
    dead_f = BooleanFunction(2, {0: 0, 3: 0})
    dead = (_bit_child(2, 1, {0: 0, 3: 1})[0], dead_f)
    res = or_compose([dead, live], 1)
    assert c1_max(*dead) == 0.0
    assert res.function.values == live[1].values
    rep = complexity(res.graph, res.function)
    assert rep.value == complexity(*live).value


def test_or_rejects_starved_input():
    children = [_bit_child(2, i, tuple(range(4))) for i in range(2)]
    with pytest.raises(CompositionError, match="positive children"):
        or_compose(children, 2)


def test_or_rejects_domain_mismatch():
    a = _bit_child(2, 0, (0, 3))
    c = _bit_child(2, 1, (0, 1, 3))
    with pytest.raises(CompositionError):
        or_compose([a, c], 1)


def test_or_refuses_children_over_other_inputs():
    """A child whose function ranges over other inputs is refused, even
    where the promised domains agree, by both implementations alike."""
    u = Universe(2, (0, 1, 3))
    g, _ = _bit_child(2, 1, (0, 3))
    other = (g, BooleanFunction.from_bits(u, u.bitset((0, 3)), u.bitset((3,))))
    children = [_bit_child(2, 0, (0, 3)), other]
    for compose in (or_compose, or_compose_loop):
        with pytest.raises(CompositionError) as info:
            compose(children, 1)
        assert str(info.value) == "children disagree on the input universe"


def test_or_rejects_bad_fan_in():
    children = [_bit_child(2, 0, (0, 3))]
    with pytest.raises(CompositionError):
        or_compose(children, 0)
    with pytest.raises(CompositionError):
        or_compose(children, 2)


def _or_outcome(compose, children, k):
    """Everything ``or_compose`` returns, or the message it raises."""
    try:
        res = compose(children, k)
    except CompositionError as exc:
        return str(exc)
    flows = [(y, list(fl.items())) for y, fl in res.graph.flows.items()]
    return dumps(dump_graph(res.graph)), res.function.values, flows


def _fixture_or_cases():
    """(children, k) cases.  Their ids stay stable across versions: they
    still carry the routing hint column (None here), and 6-9 were the cases
    that set one, dropped with ``or_compose``'s ``routing`` option."""
    full = {n: (0, (1 << n) - 1) for n in (6, 8)}
    cases = [
        ([_bit_child(n, i, full[n]) for i in range(n)], k)
        for n, k in [(8, 1), (8, 2), (8, 4), (6, 2)]
    ]
    ands = tuple(range(16))
    cases.append(([_and_child(4, 0, 1, ands), _and_child(4, 2, 3, ands)], 1))
    dead = (_bit_child(2, 1, (0, 3))[0], BooleanFunction(2, {0: 0, 3: 0}))
    cases.append(([dead, _bit_child(2, 0, (0, 3))], 1))
    pair = [_bit_child(2, i, (0, 3)) for i in range(2)]
    cases.append(([_bit_child(2, i, tuple(range(4))) for i in range(2)], 2))
    cases.append(([_bit_child(2, 0, (0, 3)), _bit_child(2, 1, (0, 1, 3))], 1))
    cases += [(pair[:1], 0), (pair[:1], 2)]
    ids = [*range(6), *range(10, 14)]
    for i, (children, k) in zip(ids, cases):
        yield pytest.param(children, k, id=f"children{i}-{k}-None")


@pytest.mark.parametrize("children,k", list(_fixture_or_cases()))
def test_or_matches_loop_on_fixtures(children, k):
    assert _or_outcome(or_compose, children, k) == _or_outcome(
        or_compose_loop, children, k
    )


@st.composite
def _or_children(draw):
    """Children on one domain (now and then a different one), their functions
    all built from dicts or all as bitsets over a larger shared universe."""
    n_bits = draw(st.integers(1, 4))
    inputs = sorted(draw(st.sets(st.integers(0, (1 << n_bits) - 1), min_size=1)))
    u = Universe(n_bits, inputs)
    domain = sorted(draw(st.sets(st.sampled_from(inputs), min_size=1)))
    count = draw(st.integers(1, 5))
    from_dicts = draw(st.booleans())
    children = []
    for i in range(count):
        dom = domain
        if draw(st.integers(0, 7)) == 0:
            dom = sorted(draw(st.sets(st.sampled_from(inputs), min_size=1)))
        pos = sorted(draw(st.sets(st.sampled_from(dom))))
        if from_dicts:
            f = BooleanFunction(n_bits, {z: int(z in pos) for z in dom})
        else:
            f = BooleanFunction.from_bits(u, u.bitset(dom), u.bitset(pos))
        w = ConstRule(draw(st.sampled_from([0.5, 1.0, 2.0, 3.0])))
        b = GraphBuilder(n_bits)
        b.add_vertex("s", (i % n_bits,))
        b.add_ordinary("r", "s", i % n_bits, w, w)
        children.append((b.graph(flows={y: {0: 1.0} for y in pos}), f))
    k = draw(st.integers(1, 3))
    return children, k


@settings(max_examples=200, deadline=None)
@given(_or_children())
def test_or_matches_loop_on_random_children(case):
    children, k = case
    assert _or_outcome(or_compose, children, k) == _or_outcome(
        or_compose_loop, children, k
    )


# ---------------------------------------------------------------------------
# Set walks


def _identity_walk():
    ground = (0, 1, 2, 3)
    f = BooleanFunction.from_predicate(4, lambda z: bin(z).count("1") >= 2)

    def cert(y):
        bits = [i for i in range(4) if (y >> i) & 1]
        return tuple(bits[:2])

    return dict(
        n_bits=4,
        ground=ground,
        k=2,
        r=2,
        positions=lambda A: tuple(sorted(A)),
        function=f,
        cert=cert,
        load_kinds=("dense",) * 3,
    )


def test_johnson_identity_walk_shape():
    res = johnson_compose(**_identity_walk())
    g = res.graph
    assert len(g.vertices) == 11
    assert len(g.edges) == 16
    # one usable start, so every walk carries the whole unit of flow
    assert {p for y in res.function.positives() for p in g.flow_for(y).values()} == {
        1.0
    }
    assert len(g.stages) == 2
    assert validate(g, res.function).ok


def test_johnson_stage_cost_at_most_one_each():
    res = johnson_compose(**_identity_walk())
    g = res.graph
    for y in res.function.positives():
        flow = g.flow_for(y)
        for stage in g.stages:
            cost = sum(
                p * p / rule_at(g.edges[ei].w1, y)
                for ei, p in flow.items()
                if ei in set(stage.edges) and p > 0
            )
            assert cost <= 1.0 + 1e-12
    rep = complexity(g, res.function)
    assert rep.c1 <= len(g.stages) + 1e-12


def test_johnson_report_carries_raw_stage_totals():
    res = johnson_compose(**_identity_walk())
    obj = complexity(res.graph, res.function).to_json()
    assert [s["name"] for s in obj["stages"]] == ["walk1", "walk2"]
    for s in obj["stages"]:
        assert s["c1_max"] <= 1.0 + 1e-12
        assert s["raw"]["c1_max"] >= s["c1_max"]
    assert obj["total"]["c"] == pytest.approx(
        complexity(res.graph, res.function).value
    )


def test_johnson_rejects_uneven_start_counts():
    owner = {0: (0,), 1: (1,), 2: ()}

    def positions(A):
        out = []
        for j in A:
            out.extend(owner[j])
        return tuple(sorted(out))

    f = BooleanFunction(3, {1: 1, 4: 1})
    certs = {1: (0,), 4: (2,)}
    spec = dict(
        n_bits=3,
        ground=(0, 1, 2),
        k=2,
        r=1,
        positions=positions,
        function=f,
        cert=lambda y: certs[y],
        load_kinds=("dense",) * 2,
    )
    with pytest.raises(CompositionError, match="start count"):
        johnson_compose(**spec)


def test_johnson_strict_mode_rejects_weak_certificate():
    f = BooleanFunction.from_predicate(2, lambda z: z == 3)
    spec = dict(
        n_bits=2,
        ground=(0, 1),
        k=1,
        r=1,
        positions=lambda A: tuple(sorted(A)),
        function=f,
        cert=lambda y: (0,),
        load_kinds=("dense",) * 2,
    )
    with pytest.raises(CompositionError, match="force"):
        johnson_compose(**spec)


def test_johnson_rejects_non_monotone_positions():
    def positions(A):
        return (0,) if len(A) == 1 else ()

    f = BooleanFunction(2, {3: 1})
    spec = dict(
        n_bits=2,
        ground=(0, 1),
        k=2,
        r=1,
        positions=positions,
        function=f,
        cert=lambda y: (1,),
        load_kinds=("dense",) * 2,
    )
    with pytest.raises(CompositionError, match="monotone"):
        johnson_compose(**spec)


def test_johnson_rejects_non_monotone_step():
    """Positions shrink only on the two steps into {1,4,5}."""

    def positions(A):
        return tuple(sorted(set(A) - {4})) if set(A) == {1, 4, 5} else tuple(A)

    f = BooleanFunction.from_predicate(
        6, lambda z: bin(z).count("1") >= 3 and bool(z & 1)
    )

    def cert(y):
        bits = [i for i in range(6) if (y >> i) & 1]
        return tuple(bits[:3])

    spec = dict(
        n_bits=6,
        ground=tuple(range(6)),
        k=3,
        r=3,
        positions=positions,
        function=f,
        cert=cert,
        load_kinds=("dense",) * 4,
    )
    with pytest.raises(CompositionError, match="monotone"):
        johnson_compose(**spec)


def _leaf_factory_walk():
    """Walk over four elements, then a leaf that checks a shared flag bit."""
    ground = (0, 1, 2, 3)
    flag = 4

    def factory(A, kappa):
        amask = sum(1 << a for a in A)
        b = GraphBuilder(5)
        b.add_vertex("s", (flag,))
        b.add_ordinary("r", "s", flag, ONE, ONE)
        lf = BooleanFunction.from_predicate(
            5, lambda z: bool((z >> flag) & 1) and (z & amask) == kappa
        )
        return b.graph(flows={y: {0: 1.0} for y in lf.positives()}), lf

    f = BooleanFunction.from_predicate(
        5, lambda z: bin(z & 15).count("1") >= 2 and bool((z >> 4) & 1)
    )

    def cert(y):
        bits = [i for i in range(4) if (y >> i) & 1]
        return tuple(bits[:2])

    return dict(
        n_bits=5,
        ground=ground,
        k=2,
        r=2,
        positions=lambda A: tuple(sorted(A)),
        function=f,
        cert=cert,
        load_kinds=("dense",) * 3,
        factory=factory,
    )


def test_johnson_leaf_factory():
    res = johnson_compose(**_leaf_factory_walk())
    assert validate(res.graph, res.function).ok
    stages = res.graph.stages
    assert len(stages) == 3
    rep = complexity(res.graph, res.function)
    assert rep.c1 <= len(stages) + 1e-9
    # per-context leaf weights: a table over the full set's positions
    # scales every leaf edge
    assert stages[-1].name == "leaf"
    for ei in stages[-1].edges:
        e = res.graph.edges[ei]
        assert isinstance(e.w1, ProductRule) and isinstance(e.w1.left, TableRule)


def test_johnson_super_edge_loads():
    """Elements owning two positions each produce embedded load gadgets."""
    ground = (0, 1, 2)

    def positions(A):
        out = []
        for j in A:
            out.extend((2 * j, 2 * j + 1))
        return tuple(sorted(out))

    def block_done(z, j):
        return (z >> (2 * j)) & 3 == 3

    f = BooleanFunction.from_predicate(
        6, lambda z: sum(block_done(z, j) for j in range(3)) >= 2
    )

    def cert(y):
        done = [j for j in range(3) if block_done(y, j)]
        return tuple(done[:2])

    spec = dict(
        n_bits=6,
        ground=ground,
        k=2,
        r=2,
        positions=positions,
        function=f,
        cert=cert,
        load_kinds=("dense",) * 3,
    )
    res = johnson_compose(**spec)
    assert res.graph.has_super()
    assert validate(res.graph, res.function).ok


@pytest.mark.parametrize("kinds", [(), ("dense",) * 2, ("dense",) * 4])
def test_johnson_needs_one_load_kind_per_stage(kinds):
    spec = {**_identity_walk(), "load_kinds": kinds}
    with pytest.raises(CompositionError, match=f"^need 3 load kinds, got {len(kinds)}$"):
        johnson_compose(**spec)
