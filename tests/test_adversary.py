"""Dual witnesses: frozen small cases, exact objectives, mutant detection."""

import json
import math

import numpy as np
import pytest

from lgkit import adversary
from lgkit.adversary import (
    AdversaryError,
    build_witness,
    linking_mutants,
    rebalance_to_equal,
    verify_witness,
)
from lgkit.complexity import c0_max, c1_max, complexity
from lgkit.expand import expand
from lgkit.model import BooleanFunction, GraphBuilder
from lgkit.rules import ONE
from lgkit.serialize import build_function, build_graph, read_json


def _identity_bit():
    b = GraphBuilder(1)
    b.add_vertex("s", (0,))
    b.add_ordinary("r", "s", 0, ONE, ONE)
    f = BooleanFunction(1, {0: 0, 1: 1})
    return b.graph(flows={1: {0: 1.0}}), f


def _or_two_bits():
    """Disjunction of two unit-weight bit loads, promised domain {00, 11}."""
    b = GraphBuilder(2)
    b.add_vertex("s0", (0,))
    b.add_vertex("s1", (1,))
    b.add_ordinary("r", "s0", 0, ONE, ONE)
    b.add_ordinary("r", "s1", 1, ONE, ONE)
    f = BooleanFunction(2, {0: 0, 3: 1})
    return b.graph(flows={3: {0: 1.0}}), f


def test_single_bit_witness_matrix_frozen():
    g, f = _identity_bit()
    w = build_witness(g, f)
    assert w.blocks == 1
    assert np.array_equal(w.matrices[0], np.array([[1.0, 1.0], [1.0, 1.0]]))
    rep = verify_witness(w, f)
    assert rep.ok
    assert rep.crossing_lo == 1.0 == rep.crossing_hi
    assert rep.objective == 1.0 == rep.target
    assert rep.checked_pairs == 1


def test_rebalance_to_equal_equalizes_costs():
    g, f = _or_two_bits()
    g2 = rebalance_to_equal(g, f)
    rep = complexity(g2, f)
    assert rep.c0 == pytest.approx(rep.c1, rel=1e-12)
    assert rep.value == pytest.approx(math.sqrt(2), abs=1e-12)


def test_or_witness_objective_is_sqrt_two():
    g, f = _or_two_bits()
    w = build_witness(rebalance_to_equal(g, f), f)
    rep = verify_witness(w, f)
    assert rep.ok
    assert rep.objective == pytest.approx(math.sqrt(2), abs=1e-12)
    assert rep.crossing_lo == pytest.approx(1.0, abs=1e-12)
    assert rep.crossing_hi == pytest.approx(1.0, abs=1e-12)


def test_witness_to_json_shape():
    g, f = _identity_bit()
    obj = verify_witness(build_witness(g, f), f).to_json()
    assert obj["ok"] is True
    assert obj["crossing"] == [1.0, 1.0]
    assert set(obj) == {"ok", "crossing", "objective", "target", "checks", "pairs"}
    assert set(obj["checks"]) == {"crossing", "objective"}


def test_mutant_moves_crossing_sum():
    g, f = _or_two_bits()
    muts = linking_mutants(g, f, 1, seed=3)
    assert len(muts) == 1
    m = muts[0]
    w = build_witness(m.graph, f)
    rep = verify_witness(w, f)
    assert not rep.crossing_ok
    deviation = max(abs(rep.crossing_lo - 1.0), abs(rep.crossing_hi - 1.0))
    assert deviation == pytest.approx(m.flow * (math.sqrt(4.0) - 1.0), rel=1e-12)


def test_mutants_are_deterministic_per_seed():
    g, f = _or_two_bits()
    a = linking_mutants(g, f, 1, seed=7)
    b = linking_mutants(g, f, 1, seed=7)
    assert (a[0].edge, a[0].assignment) == (b[0].edge, b[0].assignment)


def test_mutants_error_when_sites_run_out():
    g, f = _or_two_bits()
    with pytest.raises(AdversaryError, match="mutation sites"):
        linking_mutants(g, f, 100)


def test_witness_rejects_missing_flow():
    g, f = _identity_bit()
    g = type(g)(
        n_bits=g.n_bits,
        root=g.root,
        vertices=dict(g.vertices),
        edges=list(g.edges),
        flows={},
        const_flow=None,
    )
    with pytest.raises(AdversaryError, match="flow"):
        build_witness(g, f)


def _corpus_and_n4(corpus_dir, builds):
    """(name, graph, function) for every corpus graph and every n=4 build."""
    meta = json.loads((corpus_dir / "meta.json").read_text())
    for rec in meta["graphs"]:
        g = build_graph(read_json(corpus_dir / rec["graph"]))
        yield rec["name"], g, build_function(read_json(corpus_dir / rec["function"]))
    for res in builds:
        yield f"{res.variant}-n4", res.graph, res.function


def test_witness_target_is_the_expansion_complexity(
    corpus_dir, dense4, sparse4, anchored4
):
    """The target is the complexity of the expanded graph, bit for bit, and
    within one ulp of the source graph's, raw and rebalanced."""
    cases = _corpus_and_n4(corpus_dir, (dense4, sparse4, anchored4))
    for name, g, f in cases:
        for h in (g, rebalance_to_equal(g, f)):
            ge = expand(h)
            target = build_witness(h, f).target
            assert target == math.sqrt(c0_max(ge, f) * c1_max(ge, f)), name
            source = math.sqrt(c0_max(h, f) * c1_max(h, f))
            assert abs(target - source) <= math.ulp(source), name


def test_witness_prices_from_its_own_entries(dense4, monkeypatch):
    """The witness takes its target from the entries it gathers for the
    factors, not from a second pricing of the graph."""
    g = rebalance_to_equal(dense4.graph, dense4.function)

    def refuse(*args):
        raise AssertionError("the witness priced the graph again")

    monkeypatch.setattr(adversary, "c0_max", refuse)
    monkeypatch.setattr(adversary, "c1_max", refuse)
    assert verify_witness(build_witness(g, dense4.function), dense4.function).ok
