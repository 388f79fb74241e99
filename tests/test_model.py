"""Graph construction and structural bookkeeping."""

import re
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loop_reference import rule_at

from lgkit.model import (
    BooleanFunction,
    Edge,
    GraphBuilder,
    LearningGraph,
    ModelError,
    StageInfo,
    Universe,
    Vertex,
    topological_order,
)
from lgkit.loads import dense_load
from lgkit.rules import ConstRule, ONE, ZERO
from lgkit.serialize import dumps
from lgkit.validate import validate


def _chain(n_bits=3):
    b = GraphBuilder(n_bits)
    b.add_vertex("a", (0,))
    b.add_vertex("b", (0, 1))
    b.add_ordinary("r", "a", 0, ONE, ONE)
    b.add_ordinary("a", "b", 1, ONE, ONE)
    return b


def test_builder_root_is_empty_labelled():
    b = GraphBuilder(4)
    g = b.graph()
    assert g.label(g.root) == ()


def test_add_vertex_is_idempotent():
    b = GraphBuilder(3)
    b.add_vertex("v", (1,))
    b.add_vertex("v", (1,))
    with pytest.raises(ModelError):
        b.add_vertex("v", (0, 1))


def test_ordinary_edge_requires_known_endpoints():
    b = GraphBuilder(3)
    b.add_ordinary("r", "ghost", 0, ONE, ONE)
    with pytest.raises(ModelError, match=r"^edge endpoint 'ghost' not a known vertex$"):
        b.graph()


_CHAIN_VERTICES = {v: Vertex(v, label) for v, label in [("r", ()), ("a", (0,)), ("b", (0, 1))]}
_CHAIN_EDGES = (Edge("r", "a", 0, ONE, ONE), Edge("a", "b", 1, ONE, ONE))
_OF_2 = ", the graph has 2 edges"


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"root": "q"}, "root 'q' is no vertex with the empty label"),
        (
            {"vertices": {**_CHAIN_VERTICES, "r": Vertex("r", (2,))}},
            "root 'r' is no vertex with the empty label",
        ),
        (
            {"edges": (*_CHAIN_EDGES, Edge("ghost", "b", 2, ONE, ONE))},
            "edge endpoint 'ghost' not a known vertex",
        ),
        (
            {"edges": (*_CHAIN_EDGES, Edge("b", "ghost", None, ZERO, ZERO))},
            "edge endpoint 'ghost' not a known vertex",
        ),
        ({"flows": {3: {0: 1.0, -2: 0.25}}}, f"flow names unknown edge -2{_OF_2}"),
        # a zero flow names an edge too
        ({"flows": {1: {0: 1.0}, 3: {0: 1.0, 2: 0.0}}}, f"flow names unknown edge 2{_OF_2}"),
        ({"flows": {3: {2**64: 1.0}}}, f"flow names unknown edge {2**64}{_OF_2}"),
        ({"const_flow": {0: 1.0, 1: 1.0, 5: 0.5}}, f"flow names unknown edge 5{_OF_2}"),
        ({"stages": (StageInfo("x", (0, 7)),)}, f"stages[0] x names unknown edge 7{_OF_2}"),
        (
            {"stages": (StageInfo("x", (1,)), StageInfo("y", (0,), {1: 2.0}))},
            "stages[1] y rebalances edge 1 outside it",
        ),
    ],
    ids=[
        "missing-root",
        "root-label",
        "dangling-tail",
        "dangling-head",
        "flow-key-negative",
        "flow-key-len",
        "flow-key-2**64",
        "const-flow-key",
        "stage-edge",
        "rebalance-key",
    ],
)
def test_a_graph_refuses_a_broken_reference(changes, message):
    """The constructor checks every reference a graph holds, so a graph
    made by the constructor, by a builder or by ``replace`` refuses each
    broken form with one error."""
    b = _chain()
    good = b.graph()
    assert (good.vertices, good.edges) == (_CHAIN_VERTICES, _CHAIN_EDGES)
    init = {fl.name: getattr(good, fl.name) for fl in fields(LearningGraph) if fl.init}
    whole = f"^{re.escape(message)}$"
    with pytest.raises(ModelError, match=whole):
        LearningGraph(**{**init, **changes})
    with pytest.raises(ModelError, match=whole):
        replace(good, **changes)
    kwargs = dict(changes)
    for name in ("root", "vertices", "edges"):
        if name in kwargs:
            setattr(b, name, kwargs.pop(name))
    with pytest.raises(ModelError, match=whole):
        b.graph(**kwargs)


def test_a_copy_with_new_edges_keeps_their_ends():
    """``rescaled`` and the mutant search copy a checked graph with new
    edges and check only that each joins the ends of the edge it replaces;
    the copy keeps the other fields and none of the caches."""
    g = _chain().graph(flows={3: {0: 1.0, 1: 1.0}})
    g.out_edges("r")
    moved = (g.edges[0], Edge("r", "b", 1, ONE, ONE))
    with pytest.raises(ModelError, match="^new edges must join the ends of those they replace$"):
        g._with_edges(moved)
    with pytest.raises(ValueError):
        g._with_edges(g.edges[:1])
    h = g.rescaled(2.0)
    assert h == replace(g, edges=h.edges) and h.edges != g.edges
    assert (h.vertices, h.flows) == (g.vertices, g.flows)
    assert "_adjacency" not in vars(h) and h._lineage is None


def test_edge_kinds():
    b = _chain()
    b.add_vertex("s", (0, 1, 2))
    b.add_empty("b", "s")
    g = b.graph()
    kinds = [e.kind for e in g.edges]
    assert kinds == ["ordinary", "ordinary", "empty"]
    assert g.edges[2].loads == ()


def test_super_edge_endpoint_labels():
    b = GraphBuilder(4)
    b.add_vertex("s", (1, 2))
    gadget = dense_load(4, (1, 2))
    b.add_super("r", "s", gadget)
    g = b.graph()
    assert g.edges[0].kind == "super"
    assert g.edges[0].loads == (1, 2)



def test_super_edge_gadget_has_the_host_width():
    b = GraphBuilder(4)
    b.add_vertex("s", (1, 2))
    with pytest.raises(ModelError, match=r"^a 5-bit gadget in a 4-bit graph$"):
        b.add_super("r", "s", dense_load(5, (1, 2)))

def test_topological_order_detects_cycles():
    b = _chain()
    b.add_ordinary("b", "a", 2, ONE, ONE)
    g = b.graph()
    with pytest.raises(ModelError):
        topological_order(g)


def test_topological_order_of_chain():
    order = topological_order(_chain().graph())
    assert order.index("r") < order.index("a") < order.index("b")


def test_merge_shifts_labels():
    child = _chain().graph()
    b = GraphBuilder(3)
    b.add_vertex("mid", (2,))
    b.add_ordinary("r", "mid", 2, ONE, ONE)
    base = b.merge(
        child,
        prefix="c.",
        vmap={child.root: "mid"},
        label_shift=(2,),
    )
    g = b.graph()
    assert g.label("c.b") == (0, 1, 2)
    assert base == 1
    assert [(e.src, e.dst) for e in g.edges[base:]] == [("mid", "c.a"), ("c.a", "c.b")]


def test_merge_rejects_label_conflicts():
    child = _chain().graph()
    b = GraphBuilder(3)
    b.add_vertex("mid", (1,))  # shifted child labels would need (1,) unioned
    with pytest.raises(ModelError):
        b.merge(
            child,
            prefix="c.",
            vmap={child.root: "mid"},
        )


def test_merge_refuses_a_prefixed_id_that_names_a_vertex():
    child = _chain().graph()
    for label in ((0,), (1,)):  # the child's "a" has label (0,)
        b = GraphBuilder(3)
        b.add_vertex("c.a", label)
        with pytest.raises(ModelError, match="'c.a' is already a vertex"):
            b.merge(child, prefix="c.", vmap={child.root: b.root})


def test_flow_for_prefers_const():
    b = _chain()
    g = b.graph(flows={5: {0: 1.0}}, const_flow={0: 1.0, 1: 1.0})
    assert g.flow_for(3) == {0: 1.0, 1: 1.0}


def _two_paths(last):
    """r→a→s and r→c→d, then ``last`` (src, dst, load) into t; flow on the
    first path for the inputs 3 and 7, where f(z) = (z & 3 == 3)."""
    b = GraphBuilder(3)
    labels = {"a": (0,), "s": (0, 1), "c": (2,), "d": (0, 2), "t": (0, 1, 2)}
    for vid, label in labels.items():
        b.add_vertex(vid, label)
    for src, dst, load in [("r", "a", 0), ("a", "s", 1), ("r", "c", 2)]:
        b.add_ordinary(src, dst, load, ONE, ONE)
    b.add_ordinary("c", "d", 0, ONE, ONE)
    b.add_ordinary(*last, ONE, ONE)
    f = BooleanFunction.from_predicate(3, lambda z: z & 3 == 3)
    return b.graph(flows={3: {0: 1.0, 1: 1.0}, 7: {0: 1.0, 1: 1.0}}), f


def test_replace_recomputes_the_adjacency():
    """Adjacency is a cache, not a field: a ``replace`` copy with new edges
    gets its own, so flow ending at s, which is no longer a sink, is
    reported; and ``==`` ignores the cache."""
    names = [fl.name for fl in fields(LearningGraph)]
    assert not {"_out", "_in", "_adjacency", "_witness_parts"} & set(names)
    g, f = _two_paths(("d", "t", 1))
    assert g == _two_paths(("d", "t", 1))[0]
    assert validate(g, f).ok and g.sinks() == ("s", "t")
    assert g == _two_paths(("d", "t", 1))[0]
    edges = list(g.edges)
    edges[4] = Edge("s", "t", 2, ONE, ONE)
    copy = replace(g, edges=edges)
    fresh, _ = _two_paths(("s", "t", 2))
    assert copy == fresh
    assert copy.sinks() == fresh.sinks() == ("d", "t")
    rep = validate(copy, f).to_json()
    assert dumps(rep) == dumps(validate(fresh, f).to_json())
    where = [(v["kind"], v["where"]) for v in rep["violations"]]
    assert where == [("flow-conservation", "s 110"), ("flow-conservation", "s 111")]


def test_rescaled_scales_both_sides():
    g = _chain().graph()
    h = g.rescaled(2.0)
    assert rule_at(h.edges[0].w0, 0) == 2.0 * rule_at(g.edges[0].w0, 0)
    assert rule_at(h.edges[0].w1, 0) == 2.0 * rule_at(g.edges[0].w1, 0)


def test_boolean_function_from_predicate():
    f = BooleanFunction.from_predicate(3, lambda z: z % 2 == 1)
    assert f.positives() == tuple(z for z in range(8) if z % 2)
    assert f.negatives() == tuple(z for z in range(8) if not z % 2)
    assert f(5) == 1


def _dict_semantics(f, table, n_bits, absent):
    """``f`` behaves as the dict ``table``, the seed's representation."""
    assert f.n_bits == n_bits
    assert f.values == table
    assert list(f.values) == sorted(table)
    assert f.domain == tuple(sorted(table))
    assert f.positives() == tuple(sorted(z for z, v in table.items() if v))
    assert f.negatives() == tuple(sorted(z for z, v in table.items() if not v))
    for z, v in table.items():
        assert f(z) == v
    for z in absent:
        with pytest.raises(KeyError):
            f(z)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_boolean_function_bitsets_match_dict_semantics(data):
    n_bits = data.draw(st.integers(0, 9))
    zs = st.integers(0, (1 << n_bits) - 1)
    table = data.draw(st.dictionaries(zs, st.sampled_from([0, 1])))
    items = list(table.items())
    data.draw(st.randoms()).shuffle(items)
    f = BooleanFunction(n_bits, dict(items))
    absent = [z for z in range((1 << n_bits) + 2) if z not in table]
    _dict_semantics(f, table, n_bits, absent)

    # equality is that of the (n_bits, values, certs) triple
    assert f == BooleanFunction(n_bits, dict(reversed(items)))
    assert f != BooleanFunction(n_bits + 1, table)
    assert f != BooleanFunction(n_bits, table, {})
    if table:
        z = data.draw(st.sampled_from(sorted(table)))
        assert f != BooleanFunction(n_bits, {**table, z: 1 - table[z]})
        assert f != BooleanFunction(n_bits, {y: v for y, v in table.items() if y != z})

    # a sub-domain over the same universe, against its own dict function
    sub = sorted(data.draw(st.sets(st.sampled_from(sorted(table)))) if table else [])
    u = f.universe
    g = BooleanFunction.from_bits(u, u.bitset(sub), f.truth & u.bitset(sub))
    sub_table = {z: table[z] for z in sub}
    _dict_semantics(g, sub_table, n_bits, absent + sorted(set(table) - set(sub)))
    assert g == BooleanFunction(n_bits, sub_table)
    assert (g == f) == (sub_table == table)


def test_boolean_function_rejects_bad_tables():
    with pytest.raises(ModelError, match="not boolean"):
        BooleanFunction(2, {0: 0, 1: 2})
    with pytest.raises(ModelError, match="exceeds 2 bits"):
        BooleanFunction(2, {4: 1})
    u = Universe(2, (0, 1, 3))
    with pytest.raises(ModelError):
        BooleanFunction.from_bits(u, 0b011, 0b100)
    with pytest.raises(ModelError):
        BooleanFunction.from_bits(u, 0b1000, 0)
    with pytest.raises(TypeError):
        hash(BooleanFunction(2, {0: 1}))


def test_universe_select_and_split():
    u = Universe(3, range(8))
    assert u.members(u.column(1)) == (2, 3, 6, 7)
    assert u.members(u.select(0b101, 0b001)) == (1, 3)
    assert u.select(0b001, 0b010) == 0
    dom = u.bitset((0, 3, 5, 6))
    assert {k: u.members(b) for k, b in u.split(dom, (0, 2)).items()} == {
        0: (0,),
        1: (3,),
        5: (5,),
        4: (6,),
    }
    assert u.split(0, (0,)) == {}
