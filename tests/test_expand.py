"""Flattening nested gadget edges."""

import pytest
from loop_reference import validate_loop
from pricing import c0_at, c1_at

from lgkit.adversary import build_witness, linking_mutants
from lgkit.complexity import ComplexityError
from lgkit.expand import expand
from lgkit.loads import dense_load, sparse_load
from lgkit.model import BooleanFunction, GraphBuilder
from lgkit.combinators import or_compose
from lgkit.serialize import dumps
from lgkit.validate import validate


def _gadget_graph(kind_positions):
    n_bits = 8
    b = GraphBuilder(n_bits)
    prev = b.root
    label = []
    for i, (kind, positions) in enumerate(kind_positions):
        label = sorted(set(label) | set(positions))
        nxt = b.add_vertex(f"v{i}", label)
        maker = dense_load if kind == "dense" else sparse_load
        b.add_super(prev, nxt, maker(n_bits, positions))
        prev = nxt
    edges = {i: 1.0 for i in range(len(kind_positions))}
    return b.graph(const_flow=edges)


def test_expand_removes_super_edges():
    g = _gadget_graph([("dense", (0, 1)), ("sparse", (2, 3, 4))])
    flat = expand(g)
    assert g.has_super()
    assert not flat.has_super()
    assert len(flat.edges) == 5  # 2 + 3 single-bit steps


def test_expand_preserves_both_costs():
    g = _gadget_graph([("dense", (0, 1, 2)), ("sparse", (3, 4))])
    flat = expand(g)
    for z in range(256):
        assert c0_at(flat, z) == pytest.approx(c0_at(g, z), rel=1e-12)
        assert c1_at(flat, z) == pytest.approx(c1_at(g, z), rel=1e-12)


def test_expand_is_stable_when_flat():
    g = _gadget_graph([("dense", (0, 1))])
    flat = expand(g)
    again = expand(flat)
    assert [e.kind for e in again.edges] == [e.kind for e in flat.edges]
    assert c0_at(again, 17) == c0_at(flat, 17)


def test_expand_through_composition():
    """Supers nested inside a disjunction expand with scaled weights intact."""
    def leaf(positions):
        b = GraphBuilder(6)
        b.add_vertex("s", sorted(positions))
        b.add_super("r", "s", dense_load(6, positions))
        mask = sum(1 << p for p in positions)
        fn = BooleanFunction.from_predicate(6, lambda z, m=mask: z & m == m)
        return b.graph(const_flow={0: 1.0}), fn

    res = or_compose(
        [leaf((0, 1)), leaf((0, 1)), leaf((2, 3)), leaf((2, 3))], 2
    )
    flat = expand(res.graph)
    assert not flat.has_super()
    for y in res.function.positives():
        assert c1_at(flat, y) == pytest.approx(c1_at(res.graph, y), rel=1e-12)
    for z in res.function.negatives():
        assert c0_at(flat, z) == pytest.approx(c0_at(res.graph, z), rel=1e-12)


def test_expand_keeps_rebalance_factors():
    from lgkit.complexity import complexity
    from lgkit.corpus import _pairs_walk

    g, f = _pairs_walk()
    raw = {s.name: (s.raw_c0, s.raw_c1) for s in complexity(g, f).stages}
    flat = {s.name: (s.raw_c0, s.raw_c1) for s in complexity(expand(g), f).stages}
    assert raw == flat
    assert raw["walk1"][0] == 16.0
    assert raw["walk2"][0] == 48.0


def test_unknown_flow_edges_stay_unknown():
    """Flow on an edge a graph with a super edge does not have stays on an
    unknown edge of the expansion: a negative index as it is, one past the
    end shifted by the one edge the expansion adds.  validate reports both,
    and the witness and a mutant search refuse the flow with a cost error."""
    b = GraphBuilder(2)
    b.add_vertex("s", (0, 1))
    b.add_super("r", "s", dense_load(2, (0, 1)))
    g = b.graph(flows={3: {0: 1.0, 7: 0.5, -2: 0.25}})
    f = BooleanFunction(2, {z: int(z == 3) for z in range(4)})
    assert list(expand(g).flows[3].items())[-2:] == [(8, 0.5), (-2, 0.25)]
    report = validate(g, f)
    assert [v.message for v in report.entries if v.kind == "flow-edge"] == [
        "flow names unknown edge 8",
        "flow names unknown edge -2",
    ]
    assert dumps(report.to_json()) == dumps(validate_loop(g, f).to_json())
    for call in (build_witness, lambda g, f: linking_mutants(g, f, count=2)):
        with pytest.raises(ComplexityError, match="unknown edge 8"):
            call(g, f)
