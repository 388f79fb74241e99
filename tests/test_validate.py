"""Contract checking: structure, linking, flows, certificates."""

import pytest

from lgkit.adversary import linking_mutants
from lgkit.loads import dense_load, sparse_load
from lgkit.model import (
    BooleanFunction,
    Edge,
    GraphBuilder,
    LearningGraph,
    Vertex,
)
from lgkit.rules import (
    ConstRule,
    DispatchRule,
    ONE,
    PatchRule,
    ProductRule,
    ScaleRule,
    SparseLoadRule,
    TableRule,
    ZERO,
)
from lgkit.validate import rules_linked, validate


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


def test_balances_add_in_flow_order():
    """Three parallel edges from the root, with flows 1e17, -1e17 and 1.
    In that order the root's balance is 0 - 1e17 + 1e17 - 1 = -1, exactly;
    with the 1 first, -1 - 1e17 rounds to -1e17 and the balance ends at 0,
    as does the sink's.  So each input's balances are summed in its own
    flow order."""
    b = GraphBuilder(1)
    b.add_vertex("s", (0,))
    for _ in range(3):
        b.add_ordinary("r", "s", 0, ONE, ONE)
    f = BooleanFunction(1, {0: 0, 1: 1})
    big = 1e17
    rep = validate(b.graph(flows={1: {0: big, 1: -big, 2: 1.0}}), f)
    assert [v.kind for v in rep.entries] == ["flow-negative"]
    assert rep.checked["certified-sinks"] == 1
    rep = validate(b.graph(flows={1: {2: 1.0, 0: big, 1: -big}}), f)
    assert [(v.kind, v.message) for v in rep.entries] == [
        ("flow-negative", "flow -1e+17 negative"),
        ("flow-unit", "root sends -0, expected 1"),
    ]
    assert "certified-sinks" not in rep.checked


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


TABLE_1 = TableRule((1,), {(0,): 1.0, (1,): 2.0})  # reads position 1
STEP = (SparseLoadRule((0, 1), 2, 0), SparseLoadRule((0, 1), 2, 1))  # cheap bit 1


@pytest.mark.parametrize(
    "w0, w1, loads, linked",
    [
        (TABLE_1, TABLE_1, (0,), True),
        (TABLE_1, TABLE_1, (1,), False),
        (*STEP, (1,), True),
        (*STEP, (0,), False),
        (STEP[1], STEP[0], (1,), False),
        (SparseLoadRule((1, 1), 2, 0), SparseLoadRule((1, 1), 2, 1), (1,), False),
        (ProductRule(TABLE_1, STEP[0]), ProductRule(TABLE_1, STEP[1]), (1,), False),
        (ProductRule(ONE, STEP[0]), ProductRule(ONE, STEP[1]), (1,), True),
        (ScaleRule(2.0, STEP[0]), ScaleRule(2.0, STEP[1]), (1,), True),
        (ScaleRule(2.0, STEP[0]), ScaleRule(3.0, STEP[1]), (1,), False),
        (
            DispatchRule((0,), {(1,): STEP[0]}, ONE),
            DispatchRule((0,), {(1,): STEP[1]}, ONE),
            (1,),
            True,
        ),
        (
            DispatchRule((0,), {(1,): STEP[0]}, ONE),
            DispatchRule((0,), {(0,): STEP[1]}, ONE),
            (1,),
            False,
        ),
        (
            DispatchRule((1,), {(1,): ONE}, ONE),
            DispatchRule((1,), {(1,): ONE}, ConstRule(2.0)),
            (0,),
            False,
        ),
        (
            DispatchRule((1,), {(1,): ONE}, ONE),
            DispatchRule((1,), {(1,): ONE}, ONE),
            (1,),
            False,
        ),
    ],
)
def test_rules_linked(w0, w1, loads, linked):
    assert rules_linked(w0, w1, loads) is linked


def test_structural_linking_agrees_with_semantic(dense4, sparse4, anchored4):
    for res in (dense4, sparse4, anchored4):
        assert validate(res.graph).ok, res.variant
        assert validate(res.graph, res.function).ok, res.variant
        for m in linking_mutants(res.graph, res.function, 3, seed=5):
            kinds = {v.kind for v in validate(m.graph).entries}
            assert kinds == {"linking"}, (res.variant, m.edge)
            assert not validate(m.graph, res.function).ok, (res.variant, m.edge)


def test_super_edge_label_step_skips_the_function_checks():
    """A super edge whose head label is not its tail plus its gadget's
    loads cannot be expanded: validate reports the label step, with or
    without a function, and runs no flow check.  A label fault on an
    ordinary edge keeps the full report."""
    b = GraphBuilder(2)
    b.add_vertex("s", (0,))
    b.add_super("r", "s", dense_load(2, (0, 1)))
    g = b.graph(flows={3: {0: 1.0}})
    f = BooleanFunction(2, {0: 0, 3: 1}, {3: (0, 1)})
    for fn in (f, None):
        rep = validate(g, fn)
        assert [v.to_json() for v in rep.entries] == [
            {
                "kind": "label-step",
                "where": "edge[0] r->s",
                "message": "head label [0] is not tail plus [0, 1]",
            }
        ]
        assert "flows" not in rep.checked
    b = GraphBuilder(2)
    b.add_vertex("a", (0,))
    b.add_vertex("s", (0,))
    b.add_ordinary("r", "a", 0, ONE, ONE)
    b.add_ordinary("a", "s", 1, ONE, ONE)
    rep = validate(b.graph(flows={3: {0: 1.0, 1: 1.0}}), f)
    assert [v.kind for v in rep.entries] == ["label-step"]
    assert rep.checked["flows"] == 1

def _graph(labels, edges):
    """A 1-bit graph: ``labels`` maps each vertex to its label, and an edge
    is (tail, head, load, w0), with w1 ONE, or ZERO on an empty edge."""
    vertices = {v: Vertex(v, label) for v, label in labels.items()}
    edges = [Edge(t, h, j, w0, ONE if j is not None else ZERO) for t, h, j, w0 in edges]
    return LearningGraph(1, "r", vertices, edges)


RAS = {"r": (), "a": (0,), "s": (0,)}
CYCLE = [("r", "a", 0, ONE), ("a", "s", None, ZERO), ("s", "a", None, ZERO)]


@pytest.mark.parametrize(
    "g, kind, message",
    [
        (_graph(RAS, CYCLE), "cycle", "graph contains a cycle"),
        (
            _graph(RAS, [("r", "a", 0, ONE), ("a", "s", 0, ONE)]),
            "label-step",
            "reloads positions {0}",
        ),
        (
            _graph({"r": (), "a": ()}, [("r", "a", None, ConstRule(5.0))]),
            "empty-weight",
            "side-0 weight not zero",
        ),
    ],
    ids=["cycle", "reload", "empty-weight"],
)
def test_broken_structure_reports_its_kind(g, kind, message):
    rep = validate(g)
    assert not rep.ok
    assert [(v.kind, v.message) for v in rep.entries] == [(kind, message)]
