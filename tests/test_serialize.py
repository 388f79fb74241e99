"""JSON persistence: canonical bytes, graph and function round trips."""

import json

import pytest

from loop_reference import rule_at

from lgkit.loads import dense_load
from lgkit.model import BooleanFunction, GraphBuilder
from lgkit.rules import ONE, TableRule
from lgkit.serialize import (
    build_function,
    build_graph,
    dump_function,
    dump_graph,
    dumps,
    read_json,
    write_json,
)


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
