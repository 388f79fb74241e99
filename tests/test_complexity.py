"""Cost evaluation on both sides of the flow."""

import json
import math

import pytest

from loop_reference import graph_c1_loop
from pricing import c0_at, c1_at

from lgkit.complexity import (
    MissingFlowError,
    complexity,
    side1_totals,
)
from lgkit.loads import dense_load
from lgkit.model import BooleanFunction, GraphBuilder, StageInfo
from lgkit.rules import ConstRule, ONE, TableRule, ZERO
from lgkit.serialize import build_graph


def _single_bit(weight0=1.0, weight1=1.0):
    b = GraphBuilder(1)
    b.add_vertex("s", (0,))
    b.add_ordinary("r", "s", 0, ConstRule(weight0), ConstRule(weight1))
    return b


def test_costs_of_unit_edge():
    g = _single_bit().graph(const_flow={0: 1.0})
    assert c0_at(g, 0) == 1.0
    assert c1_at(g, 1) == 1.0


def test_c0_sums_weights_only():
    b = GraphBuilder(2)
    b.add_vertex("s", (0,))
    b.add_vertex("t", (0, 1))
    b.add_ordinary("r", "s", 0, ConstRule(2.0), ONE)
    b.add_ordinary("s", "t", 1, ConstRule(3.0), ONE)
    g = b.graph()
    assert c0_at(g, 0) == 5.0


def test_zero_flow_on_zero_weight_is_free():
    """An unused zero-weight edge costs nothing on the flow side."""
    b = _single_bit(weight1=0.0)
    g = b.graph(flows={1: {0: 0.0}})
    assert c1_at(g, 1) == 0.0


def test_flow_on_zero_weight_errors():
    b = _single_bit(weight1=0.0)
    g = b.graph(flows={1: {0: 0.5}})
    with pytest.raises(ValueError):
        c1_at(g, 1)


def test_missing_flow_errors():
    g = _single_bit().graph()
    with pytest.raises(MissingFlowError):
        c1_at(g, 1)


def test_super_edge_cost_scaling():
    b = GraphBuilder(4)
    b.add_vertex("s", (1, 2))
    host = ConstRule(0.5)
    b.add_super("r", "s", dense_load(4, (1, 2)), w0=host, w1=host)
    g = b.graph(const_flow={0: 1.0})
    # side 0: host times inner cost 4; side 1: p^2 / host times inner cost 1
    assert c0_at(g, 0) == pytest.approx(2.0)
    assert c1_at(g, 0b110) == pytest.approx(2.0)


def test_complexity_report_shape():
    b = _single_bit()
    g = b.graph(
        const_flow={0: 1.0},
        stages=[StageInfo("only", (0,))],
    )
    f = BooleanFunction(1, {0: 0, 1: 1})
    rep = complexity(g, f)
    assert rep.c0 == 1.0
    assert rep.c1 == 1.0
    assert rep.value == 1.0
    assert rep.stages[0].name == "only"
    assert rep.stages[0].c1 == 1.0
    obj = rep.to_json()
    assert obj["total"]["c"] == 1.0
    assert obj["stages"][0]["c1_max"] == 1.0
    assert "raw" not in obj["stages"][0]


def test_geometric_mean():
    b = _single_bit(weight0=4.0, weight1=4.0)
    g = b.graph(const_flow={0: 1.0})
    f = BooleanFunction(1, {0: 0, 1: 1})
    rep = complexity(g, f)
    assert rep.c0 == 4.0
    assert rep.c1 == 0.25
    assert rep.value == 1.0


def test_side1_overflow_is_silent_as_the_scalar_call(corpus_dir):
    # runs under the project's error::RuntimeWarning filter
    obj = json.loads((corpus_dir / "graphs" / "or-of-loads.json").read_text())
    key = sorted(obj["flows"])[0]
    edge = sorted(obj["flows"][key])[0]
    obj["flows"][key][edge] = 1e155
    g = build_graph(obj)
    ys = sorted(g.flows)
    totals = side1_totals(g, ys)[2]
    assert totals == [graph_c1_loop(g, y) for y in ys]
    assert math.inf in totals
