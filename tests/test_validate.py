"""Contract checking: structure, linking, flows, certificates."""

import pytest

from lgkit.loads import dense_load, sparse_load
from lgkit.model import BooleanFunction, GraphBuilder
from lgkit.rules import ConstRule, ONE, PatchRule, ProductRule, ScaleRule, TableRule
from lgkit.validate import validate


def _and_graph(n_bits=2):
    """Loads both bits along a path; computes AND."""
    b = GraphBuilder(n_bits)
    b.add_vertex("a", (0,))
    b.add_vertex("s", (0, 1))
    b.add_ordinary("r", "a", 0, ONE, ONE)
    b.add_ordinary("a", "s", 1, ONE, ONE)
    f = BooleanFunction.from_predicate(n_bits, lambda z: z & 3 == 3)
    flows = {y: {0: 1.0, 1: 1.0} for y in f.positives()}
    return b.graph(flows=flows), f


def test_clean_graph_passes():
    g, f = _and_graph()
    rep = validate(g, f)
    assert rep.ok
    assert rep.entries == []


def test_structure_only_mode():
    g, _ = _and_graph()
    assert validate(g).ok


def test_label_step_violation():
    b = GraphBuilder(2)
    b.add_vertex("s", (1,))
    b.add_ordinary("r", "s", 0, ONE, ONE)  # loads 0 but head owns only 1
    rep = validate(b.graph())
    assert not rep.ok
    assert any("label" in v.message or "load" in v.message for v in rep.entries)


def test_unreachable_vertex_flagged():
    b = GraphBuilder(2)
    b.add_vertex("lost", (0,))
    rep = validate(b.graph())
    assert not rep.ok


def test_support_must_stay_inside_head_label():
    b = GraphBuilder(3)
    b.add_vertex("s", (0,))
    w = TableRule((2,), {(1,): 2.0}, 1.0)  # reads an unloaded position
    b.add_ordinary("r", "s", 0, w, w)
    rep = validate(b.graph())
    assert not rep.ok
    assert any(v.kind == "support" for v in rep.entries)


def test_linking_breach_detected():
    g, f = _and_graph()
    edges = list(g.edges)
    e = edges[0]
    patched = PatchRule((1,), (1,), 4.0, e.w0)
    edges[0] = type(e)(e.src, e.dst, e.load, patched, e.w1, e.gadget)
    bad = type(g)(
        n_bits=g.n_bits,
        root=g.root,
        vertices=dict(g.vertices),
        edges=edges,
        flows=g.flows,
        const_flow=g.const_flow,
    )
    rep = validate(bad, f)
    assert not rep.ok
    assert any(v.kind == "linking" for v in rep.entries)


def test_missing_flow_reported():
    g, f = _and_graph()
    g = type(g)(
        n_bits=g.n_bits,
        root=g.root,
        vertices=dict(g.vertices),
        edges=list(g.edges),
        flows={},
        const_flow=None,
    )
    rep = validate(g, f)
    assert not rep.ok
    assert any("flow" in v.message.lower() for v in rep.entries)


def test_unbalanced_flow_reported():
    g, f = _and_graph()
    flows = {y: {0: 0.5, 1: 1.0} for y in f.positives()}
    g = type(g)(
        n_bits=g.n_bits,
        root=g.root,
        vertices=dict(g.vertices),
        edges=list(g.edges),
        flows=flows,
        const_flow=None,
    )
    rep = validate(g, f)
    assert not rep.ok


def test_uncertified_sink_reported():
    """A sink whose label does not pin the function down must be flagged."""
    b = GraphBuilder(2)
    b.add_vertex("s", (0,))
    b.add_ordinary("r", "s", 0, ONE, ONE)
    f = BooleanFunction.from_predicate(2, lambda z: z & 3 == 3)
    g = b.graph(flows={y: {0: 1.0} for y in f.positives()})
    rep = validate(g, f)
    assert not rep.ok
    assert any("certif" in v.message.lower() or "sink" in v.message.lower() for v in rep.entries)


def test_validation_sees_through_super_edges():
    b = GraphBuilder(3)
    b.add_vertex("s", (0, 1, 2))
    b.add_super("r", "s", sparse_load(3, (0, 1, 2)))
    f = BooleanFunction.from_predicate(3, lambda z: z == 7)
    g = b.graph(flows={7: {0: 1.0}})
    assert validate(g, f).ok


def test_report_json_shape():
    g, f = _and_graph()
    obj = validate(g, f).to_json()
    assert obj["ok"] is True
    assert obj["violations"] == []


@pytest.mark.parametrize("p", [float("nan"), float("inf")])
def test_non_finite_flow_reported(p):
    b = GraphBuilder(1)
    b.add_vertex("s", (0,))
    b.add_ordinary("r", "s", 0, ONE, ONE)
    f = BooleanFunction(1, {0: 0, 1: 1})
    rep = validate(b.graph(flows={1: {0: p}}), f)
    assert not rep.ok
    assert any(v.kind == "non-finite" for v in rep.entries)


def test_nan_weight_fails_linking():
    """A weight that overflows to inf and then meets a zero is NaN; the
    linking check must not let it through."""
    huge = ScaleRule(1e300, ScaleRule(1e300, ONE))
    nan_weight = ProductRule(huge, ConstRule(0.0))
    b = GraphBuilder(1)
    b.add_vertex("s", (0,))
    b.add_ordinary("r", "s", 0, nan_weight, nan_weight)
    f = BooleanFunction(1, {0: 0, 1: 1})
    rep = validate(b.graph(flows={1: {0: 1.0}}), f)
    assert not rep.ok
    assert [v.kind for v in rep.entries] == ["linking"]
