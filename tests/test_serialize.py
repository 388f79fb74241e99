"""JSON persistence: canonical bytes, graph and function round trips, and
one rule object per rule value in a parsed graph."""

import json

import pytest

from loop_reference import rule_at

from lgkit.expand import expand
from lgkit.loads import dense_load
from lgkit.model import BooleanFunction, GraphBuilder
from lgkit.rules import ONE, TableRule
from lgkit.serialize import (
    FormatError,
    build_function,
    build_graph,
    dump_function,
    dump_graph,
    dumps,
    read_json,
    write_json,
)
from lgkit.validate import validate


def _graph():
    b = GraphBuilder(4)
    b.add_vertex("mid", (0, 1))
    b.add_vertex("s", (0, 1, 2, 3))
    host = TableRule((0,), {(1,): 2.0}, 1.0)
    b.add_super("r", "mid", dense_load(4, (0, 1)))
    b.add_super("mid", "s", dense_load(4, (2, 3)), w0=host, w1=host)
    f = BooleanFunction.from_predicate(4, lambda z: z == 15)
    return b.graph(flows={15: {0: 1.0, 1: 1.0}}), f


def test_dumps_is_canonical():
    s = dumps({"b": 1, "a": [2, 3]})
    assert s == '{"a":[2,3],"b":1}\n'


def test_graph_round_trip_is_byte_stable():
    g, _ = _graph()
    blob = dumps(dump_graph(g))
    again = dumps(dump_graph(build_graph(json.loads(blob))))
    assert blob == again


def test_graph_round_trip_preserves_weights():
    g, _ = _graph()
    g2 = build_graph(dump_graph(g))
    assert g2.n_bits == g.n_bits
    assert sorted(g2.vertices) == sorted(g.vertices)
    for e, e2 in zip(g.edges, g2.edges):
        for z in range(16):
            assert rule_at(e2.w0, z) == rule_at(e.w0, z)
            assert rule_at(e2.w1, z) == rule_at(e.w1, z)


def test_function_round_trip():
    _, f = _graph()
    f2 = build_function(dump_function(f))
    assert f2.n_bits == f.n_bits
    assert f2.values == f.values
    assert f2.certs == f.certs


def test_write_read_files(tmp_path):
    g, f = _graph()
    gp = tmp_path / "g.json"
    fp = tmp_path / "f.json"
    write_json(gp, dump_graph(g))
    write_json(fp, dump_function(f))
    assert gp.read_bytes().endswith(b"\n")
    g2 = build_graph(read_json(gp))
    f2 = build_function(read_json(fp))
    assert sorted(g2.vertices) == sorted(g.vertices)
    assert f2.values == f.values


def test_bad_edge_reference_rejected():
    g, _ = _graph()
    obj = dump_graph(g)
    obj["edges"][0]["to"] = "nowhere"
    with pytest.raises(ValueError):
        build_graph(obj)


def test_unknown_rule_kind_rejected():
    g, _ = _graph()
    obj = dump_graph(g)
    obj["edges"][1]["w0"] = {"rule": "mystery"}
    with pytest.raises(ValueError):
        build_graph(obj)


def _slots(g):
    """The rules of every non-empty edge, gadget edges included."""
    for e in g.edges:
        if e.kind != "empty":
            yield e.w0
            yield e.w1
        if e.gadget is not None:
            yield from _slots(e.gadget.inner)


def _value(rule):
    return json.dumps(rule.to_json(), sort_keys=True)


def _hosted_values(g, h0=(), h1=()):
    """(host values, rule value) of every non-empty slot of ``expand(g)``:
    each rule with the host rules of the super edges it sits in."""
    for e in g.edges:
        if e.gadget is not None:
            yield from _hosted_values(
                e.gadget.inner, h0 + (_value(e.w0),), h1 + (_value(e.w1),)
            )
        elif e.kind != "empty":
            yield h0, _value(e.w0)
            yield h1, _value(e.w1)


def _parsed(request, build):
    text = dumps(dump_graph(request.getfixturevalue(build).graph))
    return text, build_graph(json.loads(text))


@pytest.mark.parametrize("build", ["dense4", "anchored4"])
def test_parsed_graph_holds_one_object_per_rule_value(request, build):
    text, g = _parsed(request, build)
    rules = list(_slots(g))
    assert len({id(r) for r in rules}) == len({_value(r) for r in rules})
    assert len(rules) > 2 * len({id(r) for r in rules})
    assert dumps(dump_graph(g)) == text


@pytest.mark.parametrize("build", ["dense4", "anchored4"])
def test_rescale_and_expand_host_each_pair_once(request, build):
    _, g = _parsed(request, build)
    values = {_value(r) for r in _slots(g)}
    assert len({id(r) for r in _slots(g.rescaled(2.0))}) <= len(values)
    pairs = set(_hosted_values(g))
    assert len({id(r) for r in _slots(expand(g))}) <= len(pairs)


def test_parses_share_no_rule_object(dense4):
    obj = json.loads(dumps(dump_graph(dense4.graph)))
    first, second = build_graph(obj), build_graph(obj)
    assert not {id(r) for r in _slots(first)} & {id(r) for r in _slots(second)}


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"rule": "const"}, "missing key 'value'"),
        ({"rule": "table", "rows": {"9:1": 2.0}}, "position 9 outside 1..4"),
        # not JSON: parsed, and refused, at the first edge
        ({"rule": "const", "value": {1.0}}, r"float\(\) argument must be"),
    ],
)
def test_repeated_bad_rule_names_the_first_edge(spec, message):
    obj = dump_graph(_graph()[0])
    for rec in obj["edges"]:
        rec["w0"] = spec
    with pytest.raises(FormatError, match=r"^\$\.edges\[0\]\.w0: " + message):
        build_graph(obj)


def test_shared_rule_is_checked_at_every_edge():
    """A rule parsed once is still checked against each graph's input size:
    position 3 is in range at the top and outside the 2-bit gadget."""
    obj = dump_graph(_graph()[0])
    spec = {"rule": "table", "rows": {"3:1": 2.0}}
    obj["edges"][0]["w0"] = spec
    inner = obj["edges"][0]["loads"]["super"]["graph"]
    inner["n"] = 2
    inner["edges"][0]["w0"] = spec
    where = r"\$\.edges\[0\]\.loads\.super\.graph\.edges\[0\]\.w0"
    with pytest.raises(FormatError, match=f"^{where}: position 3 outside 1..2"):
        build_graph(obj)


def test_empty_edge_keeps_its_weights_as_written():
    """An empty edge with nonzero weights in its JSON is parsed as written,
    so validate reports it and the graph re-dumps to its bytes."""
    obj = {
        "n": 1,
        "root": "r",
        "vertices": [{"id": "r", "label": []}, {"id": "a", "label": []}],
        "edges": [
            {
                "from": "r",
                "to": "a",
                "loads": [],
                "w0": {"rule": "const", "value": 5.0},
                "w1": {"rule": "const", "value": 3.0},
            }
        ],
    }
    g = build_graph(obj)
    assert dumps(dump_graph(g)) == dumps(obj)
    rep = validate(g)
    assert not rep.ok
    assert [(v.kind, v.message) for v in rep.entries] == [
        ("empty-weight", "side-0 weight not zero"),
        ("empty-weight", "side-1 weight not zero"),
    ]


@pytest.mark.parametrize("build", ["dense4", "sparse4", "anchored4"])
def test_built_graph_re_dumps_to_its_bytes(request, build):
    text, g = _parsed(request, build)
    assert any(e.kind == "empty" for e in g.edges)
    assert dumps(dump_graph(g)) == text
