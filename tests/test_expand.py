"""Flattening nested gadget edges."""

import json
from dataclasses import replace

import pytest
from pricing import c0_at, c1_at

from lgkit.expand import expand
from lgkit.loads import dense_load, sparse_load
from lgkit.model import BooleanFunction, GraphBuilder, StageInfo, SuperEdge
from lgkit.cli import main
from lgkit.combinators import or_compose
from lgkit.rules import ONE, ConstRule, TableRule, host_product
from lgkit.serialize import dump_function, dump_graph, write_json


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


def _placement_graph():
    """An empty edge, a plain edge, a dense gadget with a constant flow and
    a sparse gadget with a flow per input, on one path r, p, a, c, d; a
    stage rebalances the dense gadget's edge."""
    n_bits = 5
    b = GraphBuilder(n_bits)
    for vid, label in [("p", ()), ("a", (0,)), ("c", (0, 1, 2)), ("d", (0, 1, 2, 3, 4))]:
        b.add_vertex(vid, label)
    b.add_empty("r", "p")
    b.add_ordinary("p", "a", 0, ConstRule(3.0), TableRule((0,), {(1,): 2.0}, 1.0))
    b.add_super("a", "c", dense_load(n_bits, (1, 2)), ConstRule(2.0), ConstRule(0.5))
    sparse = sparse_load(n_bits, (3, 4)).inner
    inner_rows = {31: {0: 1.0, 1: 1.0}, 15: {1: 0.5, 0: 2.0}}
    sparse = replace(sparse, flows=inner_rows, const_flow=None)
    b.add_super("c", "d", SuperEdge(sparse), TableRule((1,), {(1,): 4.0}, 1.0))
    stages = [StageInfo("front", (1, 2), rebalance={2: 0.25}), StageInfo("back", (0, 3))]
    flows = {31: {1: 1.0, 2: 1.0, 3: 1.0}, 15: {3: 0.5, 1: 2.0, 2: 0.0}}
    return b.graph(flows=flows, stages=stages)


def test_expand_places_each_edge_as_a_run():
    g = _placement_graph()
    flat = expand(g)
    widths = [1 if e.gadget is None else len(e.gadget.inner.edges) for e in g.edges]
    starts = [0]
    for w in widths:
        starts.append(starts[-1] + w)
    assert starts == [0, 1, 2, 4, 6] and len(flat.edges) == 6
    run = lambda k: list(range(starts[k], starts[k + 1]))
    products = {}
    for k, e in enumerate(g.edges):
        new = flat.edges[starts[k] : starts[k + 1]]
        if e.gadget is None:
            (edge,) = new
            assert (edge.src, edge.dst, edge.load, edge.kind) == (e.src, e.dst, e.load, e.kind)
            assert e.kind == "empty" or (edge.w0, edge.w1) == (e.w0, e.w1)
            continue
        inner = e.gadget.inner
        assert new[0].src == e.src and new[-1].dst == e.dst
        for edge, old in zip(new, inner.edges, strict=True):
            assert edge.load == old.load
            assert flat.label(edge.dst) == tuple(sorted({*g.label(e.src), *inner.label(old.dst)}))
            for host, rule, got in [(e.w0, old.w0, edge.w0), (e.w1, old.w1, edge.w1)]:
                assert got.to_json() == host_product(host, rule, products).to_json()
    front, back = flat.stages
    assert front.edges == tuple(run(1) + run(2)) and front.rebalance == dict.fromkeys(run(2), 0.25)
    assert back.edges == tuple(run(0) + run(3)) and back.rebalance is None
    for y in (31, 15):
        want = {}
        for k, p in g.flow_for(y).items():
            gadget = g.edges[k].gadget
            if gadget is None:
                want[starts[k]] = p
                continue
            rows = gadget.inner.flow_for(y)
            for j in range(widths[k]):
                want[starts[k] + j] = 0.0 if p == 0.0 else p * rows.get(j, 0.0)
        assert list(flat.flow_for(y).items()) == list(want.items())


def _clash_graph(vid, label):
    """A 2-bit graph: super edge 0 a dense load of (0, 1) from r to s, and
    a path r, ``vid``, s that loads ``label`` first."""
    b = GraphBuilder(2)
    b.add_vertex("s", (0, 1))
    b.add_super("r", "s", dense_load(2, (0, 1)))
    b.add_vertex(vid, label)
    (first,) = label
    b.add_ordinary("r", vid, first, ONE, ONE)
    b.add_ordinary(vid, "s", 1 - first, ONE, ONE)
    return b.graph(flows={3: {0: 1.0}})


@pytest.mark.parametrize("label", [(0,), (1,)])  # the gadget's "g1" has (0,)
def test_expand_keeps_a_host_vertex_apart_from_gadget_vertices(label):
    """A host vertex named like the gadget's interior vertex e0.g1 stays its
    own vertex, with its own edges, and the expansion is the renamed
    graph's but for the interior vertex's name."""
    flat = expand(_clash_graph("e0.g1", label))
    renamed = expand(_clash_graph("h", label))
    assert len(flat.vertices) == len(renamed.vertices) == 4
    assert flat.vertices["e0.g1"].label == label
    assert flat.vertices["ee0.g1"].label == (0,)
    names = {"ee0.g1": "e0.g1", "e0.g1": "h"}
    ends = [(names.get(e.src, e.src), names.get(e.dst, e.dst)) for e in flat.edges]
    assert ends == [(e.src, e.dst) for e in renamed.edges]


@pytest.mark.parametrize("label", [(0,), (1,)])
def test_a_clashing_host_vertex_validates_like_a_renamed_one(label, tmp_path, capsys):
    """``lg validate`` and ``lg complexity`` with the function print the
    same JSON for the graph with a host vertex e0.g1 as for the graph with
    it renamed, and exit 0 (with another label, validate exited 2: vertex
    'e0.g1' redefined with a new label)."""
    f = BooleanFunction.from_predicate(2, lambda z: z == 3)
    write_json(str(tmp_path / "f.json"), dump_function(f))
    outs = {}
    for vid in ("e0.g1", "h"):
        write_json(str(tmp_path / f"{vid}.json"), dump_graph(_clash_graph(vid, label)))
        for command in ("validate", "complexity"):
            argv = [command, str(tmp_path / f"{vid}.json"), "--function", str(tmp_path / "f.json")]
            assert main(argv) == 0, (vid, command)
            outs[vid, command] = json.loads(capsys.readouterr().out)
    for command in ("validate", "complexity"):
        assert outs["e0.g1", command] == outs["h", command]
    assert outs["h", "validate"]["ok"]
