"""Graph construction and structural bookkeeping."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loop_reference import rule_at

from lgkit.model import (
    BooleanFunction,
    GraphBuilder,
    ModelError,
    Universe,
    Vertex,
    topological_order,
)
from lgkit.loads import dense_load
from lgkit.rules import ConstRule, ONE


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
    with pytest.raises(ModelError):
        b.add_ordinary("r", "ghost", 0, ONE, ONE)


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
    vmap, emap = b.merge(
        child,
        prefix="c.",
        vmap={child.root: "mid"},
        label_shift=(2,),
    )
    g = b.graph()
    assert g.label(vmap["b"]) == (0, 1, 2)
    assert len(emap) == 2


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


def test_flow_for_prefers_const():
    b = _chain()
    g = b.graph(flows={5: {0: 1.0}}, const_flow={0: 1.0, 1: 1.0})
    assert g.flow_for(3) == {0: 1.0, 1: 1.0}


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


def test_vertex_mask():
    v = Vertex("x", (0, 3))
    assert v.mask == 0b1001


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
    assert g.on(Universe(n_bits, sorted(table) + absent)) == g


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
