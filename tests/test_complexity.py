"""Cost evaluation on both sides of the flow."""

import importlib
import json
import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from loop_reference import graph_c1_loop
from pricing import c0_at, c1_at

from lgkit.adversary import rebalance_to_equal
from lgkit.complexity import (
    MissingFlowError,
    complexity,
    side1_totals,
)
from lgkit.loads import dense_load
from lgkit.model import BooleanFunction, GraphBuilder, StageInfo
from lgkit.rules import ConstRule, ONE, TableRule, ZERO
from lgkit.serialize import build_graph

# the module: the package's ``complexity`` is the function
pricing_module = importlib.import_module("lgkit.complexity")


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


def _count_pricing(monkeypatch):
    """Record every side0_rows and side1_totals call ``complexity`` makes."""
    calls = []
    for name in ("side0_rows", "side1_totals"):
        priced = getattr(pricing_module, name)

        def counted(*args, name=name, priced=priced):
            calls.append(name)
            return priced(*args)

        monkeypatch.setattr(pricing_module, name, counted)
    return calls


def test_complexity_keeps_its_report_for_the_function_object(dense4, monkeypatch):
    """The report is kept on the graph for the function object it priced:
    the same object gets it back, an equal object and a copy of the graph
    are priced again, to an equal report."""
    g, f = replace(dense4.graph), dense4.function
    calls = _count_pricing(monkeypatch)
    rep = complexity(g, f)
    once = len(calls)
    assert calls.count("side1_totals") == 1
    assert complexity(g, f) is rep and len(calls) == once
    equal = BooleanFunction(f.n_bits, f.values, f.certs)
    assert equal == f and equal is not f
    again = complexity(g, equal)
    assert again is not rep and again == rep and len(calls) == 2 * once
    copy = complexity(replace(g), f)
    assert copy is not rep and copy == rep and len(calls) == 3 * once


def test_a_shared_report_is_read_only():
    g = _single_bit().graph(const_flow={0: 1.0}, stages=[StageInfo("only", (0,))])
    rep = complexity(g, BooleanFunction(1, {0: 0, 1: 1}))
    with pytest.raises(FrozenInstanceError):
        rep.c0 = 2.0
    with pytest.raises(FrozenInstanceError):
        rep.stages[0].c1 = 2.0
    for per_input in (rep.per_input_c0, rep.per_input_c1, rep.stages[0].per_input_c0):
        with pytest.raises(TypeError):
            per_input[0] = 2.0
    assert isinstance(rep.stages, tuple)


def test_a_kept_report_cannot_go_stale_through_a_flow(anchored4):
    """After ``complexity``, every in-place write to a flow raises: through
    ``flow_for``, through ``g.flows`` (the table, a row, a gadget's
    input-independent row) and through the table's arrays.  So the kept
    report stays the graph's costs."""
    g, f = anchored4.graph, anchored4.function
    rep = complexity(g, f)
    y = f.positives()[0]
    row = g.flow_for(y)
    e = next(iter(row))
    table = g.flows
    gadget = dense_load(g.n_bits, (0, 1)).inner
    writes = {
        "flow_for": lambda: row.__setitem__(e, 2 * row[e]),
        "a row": lambda: table[y].__setitem__(e, 2.0),
        "a row, deleted": lambda: table[y].__delitem__(e),
        "the table": lambda: table.__setitem__(y, {e: 2.0}),
        "the table, deleted": lambda: table.__delitem__(y),
        "a gadget's row": lambda: gadget.const_flow.__setitem__(0, 2.0),
        "the flows array": lambda: table.flow.__setitem__(0, 2.0),
        "the flows array, in place": lambda: np.multiply(table.flow, 2.0, out=table.flow),
        "the edges array": lambda: table.edge.__setitem__(0, 1),
        "the offsets array": lambda: table.offsets.__setitem__(1, 0),
        "the inputs array": lambda: table.inputs.__setitem__(0, 0),
        "an array swapped": lambda: setattr(table, "flow", 2 * table.flow),
        "the field": lambda: setattr(g, "flows", {}),
    }
    for name, write in writes.items():
        with pytest.raises((TypeError, ValueError, AttributeError)):
            write()
            pytest.fail(f"{name} was written")
    assert complexity(g, f) is rep
    assert complexity(replace(g), f) == rep


def test_rebalance_reads_the_report_complexity_kept(dense4, sparse4, monkeypatch):
    """After ``complexity``, rebalancing prices nothing: its scale comes from
    the kept report."""
    for res in (dense4, sparse4):
        g, f = replace(res.graph), res.function
        calls = _count_pricing(monkeypatch)
        rep = complexity(g, f)
        del calls[:]
        balanced = rebalance_to_equal(g, f)
        assert calls == []
        assert balanced == g.rescaled(math.sqrt(rep.c1 / rep.c0))
