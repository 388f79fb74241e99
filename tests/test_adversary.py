"""Dual witnesses: frozen small cases, exact objectives, mutant detection."""

import hashlib
import json
import math
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from loop_reference import build_witness_loop, linking_mutants_loop, verify_witness_loop

from lgkit import adversary, indexing
from lgkit.adversary import (
    AdversaryError,
    Factor,
    Witness,
    build_witness,
    linking_mutants,
    rebalance_to_equal,
    verify_witness,
)
from lgkit.complexity import MissingFlowError, complexity
from lgkit.expand import expand
from lgkit.model import BooleanFunction, GraphBuilder, LearningGraph
from lgkit.rules import ONE, ScaleRule
from lgkit.serialize import build_function, build_graph, dump_graph, dumps, read_json
from lgkit.triangle import build_sparsenew_lg


def _identity_bit():
    b = GraphBuilder(1)
    b.add_vertex("s", (0,))
    b.add_ordinary("r", "s", 0, ONE, ONE)
    f = BooleanFunction(1, {0: 0, 1: 1})
    return b.graph(flows={1: {0: 1.0}}), f


def test_verify_without_negatives_checks_no_pair():
    """With no negative there is no crossing sum to check; the objective
    (1) still misses the target, which C0 = 0 makes 0."""
    g, _ = _identity_bit()
    f = BooleanFunction(1, {1: 1})
    rep = verify_witness(build_witness(g, f), f)
    assert (rep.crossing_lo, rep.crossing_hi, rep.checked_pairs) == (1.0, 1.0, 0)
    assert rep.crossing_ok and not rep.objective_ok
    assert (rep.objective, rep.target) == (1.0, 0.0)


def test_an_empty_domain_has_no_columns():
    """With no input, every factor has no column and there is nothing to
    check: objective and target are both 0."""
    g, _ = _identity_bit()
    f = BooleanFunction(1, {})
    w = build_witness(g, f)
    assert w.blocks == 0 and w.factors[0].starts.tolist() == [0]
    assert verify_witness(w, f).ok


def _hand_witness(columns, target):
    """A witness over the 2-bit domain, row z for input z, that no builder
    makes: Ψ_j given column by column, each column as {row: value}."""
    factors = {}
    for j, cols in columns.items():
        starts = np.cumsum([0] + [len(col) for col in cols])
        rows = np.array([z for col in cols for z in col], dtype=np.int64)
        vals = np.array([v for col in cols for v in col.values()])
        factors[j] = Factor(rows, vals, starts)
    blocks = sum(fac.columns for fac in factors.values())
    return Witness(2, (0, 1, 2, 3), factors, target, blocks)


# bit 1 decides: negatives 0 and 1, positives 2 and 3
_BIT1 = BooleanFunction(2, {0: 0, 1: 0, 2: 1, 3: 1})
# position 0: one column with both values of bit 0 on each side, so both
# of its halves are live, {0, 3} and {1, 2}; position 1 adds 2·0.5, 2·1,
# 1·0.5 and 1·1, so every crossing sum is exactly 1
_BOTH_HALVES = {
    0: [{0: 1.0, 1: 1.0, 2: 0.5, 3: -1.0}],
    1: [{0: 2.0, 1: 1.0, 2: 0.5, 3: 1.0}],
}
# position 0: each column is one-sided, its negatives and positives agree
# on bit 0 or it holds negatives only, so no half of it is live
_ONE_SIDED = {
    0: [{0: 3.0, 2: 3.0}, {1: 2.0, 3: 2.0}, {0: 1.0, 1: 1.0}],
    1: [{0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0}],
}


def _assert_same_as_loop(w, f):
    got, want = verify_witness(w, f), verify_witness_loop(w, f)
    assert (got.ok, got.crossing_ok, got.objective_ok, got.checked_pairs) == (
        want.ok,
        want.crossing_ok,
        want.objective_ok,
        want.checked_pairs,
    )
    assert abs(got.crossing_lo - want.crossing_lo) <= 1e-12
    assert abs(got.crossing_hi - want.crossing_hi) <= 1e-12
    return got


def test_a_column_can_hold_two_live_halves():
    rep = _assert_same_as_loop(_hand_witness(_BOTH_HALVES, 5.0), _BIT1)
    assert rep.ok and (rep.crossing_lo, rep.crossing_hi) == (1.0, 1.0)


def test_a_position_with_no_live_half_adds_nothing():
    rep = _assert_same_as_loop(_hand_witness(_ONE_SIDED, 11.0), _BIT1)
    assert rep.ok and (rep.crossing_lo, rep.crossing_hi) == (1.0, 1.0)


def test_a_nan_in_a_one_sided_column_fails_the_crossing_check():
    """The NaN takes the place of a 1 that meets no positive: every
    crossing sum stays 1, as the dense reference finds, which takes no
    eigenvalue of the NaN matrix.  Any non-finite entry fails."""
    columns = {**_ONE_SIDED, 0: [*_ONE_SIDED[0][:2], {0: math.nan, 1: 1.0}]}
    w = _hand_witness(columns, 11.0)
    got, want = verify_witness(w, _BIT1), verify_witness_loop(w, _BIT1)
    assert want.crossing_ok and (want.crossing_lo, want.crossing_hi) == (1.0, 1.0)
    assert not got.crossing_ok
    assert math.isnan(got.crossing_lo) and math.isnan(got.crossing_hi)
    assert math.isnan(got.objective) and math.isnan(want.objective)
    assert not got.objective_ok and not want.objective_ok
    assert math.isnan(want.min_eigenvalue)
    assert got.checked_pairs == want.checked_pairs == 4


def test_rows_off_the_function_take_no_part():
    """Input 1 is in the witness but not in the domain of f: its entries
    join no pair, and the half it shares with input 2 is not live."""
    f = BooleanFunction(2, {0: 0, 2: 1, 3: 1})
    rep = _assert_same_as_loop(_hand_witness(_BOTH_HALVES, 5.0), f)
    assert rep.ok and rep.checked_pairs == 2
    assert (rep.crossing_lo, rep.crossing_hi) == (1.0, 1.0)


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


def test_verify_rejects_a_function_off_the_witness(anchored4):
    """A function of another width, or with an input the witness lacks, is
    an error, not a verdict."""
    w = build_witness(anchored4.graph, anchored4.function)
    wide = BooleanFunction(7, {0: 0, 64: 1})
    with pytest.raises(AdversaryError, match="7-bit function, 6-bit witness"):
        verify_witness(w, wide)
    g, f = _or_two_bits()
    w = build_witness(g, f)
    with pytest.raises(AdversaryError, match="input 10 of the function is not in"):
        verify_witness(w, BooleanFunction(2, {0: 0, 1: 0, 3: 1}))
    assert verify_witness(w, f).checked_pairs == 1


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
    with pytest.raises(MissingFlowError, match="no flow recorded for input"):
        build_witness(g, f)


@pytest.mark.parametrize("case", ["missing flow", "over cap"])
def test_the_search_refuses_what_the_witness_refuses(case, monkeypatch):
    """A mutant search prices its parent as the witness does, so it raises
    the witness's error, of the same type and with the same message; so
    does the search's scalar reference."""
    if case == "missing flow":
        g, f = _identity_bit()
        g, want = replace(g, flows={}), MissingFlowError
    else:
        (g, f), want = _or_two_bits(), AdversaryError
        monkeypatch.setattr(adversary, "WITNESS_CAP", len(f.domain) - 1)
    errors = []
    calls = (
        build_witness,
        lambda g, f: linking_mutants(g, f, 1),
        lambda g, f: linking_mutants_loop(g, f, 1),
    )
    for call in calls:
        with pytest.raises(want) as exc:
            call(g, f)
        errors.append((type(exc.value), str(exc.value)))
    assert errors[0] == errors[1] == errors[2], case


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
            assert target == complexity(ge, f).value, name
            source = complexity(h, f).value
            assert abs(target - source) <= math.ulp(source), name


def test_witness_prices_from_its_own_entries(dense4, monkeypatch):
    """The witness takes its target from the one positive-side call that
    gathers the entries for its factors, not from a second pricing of the
    graph."""
    g = rebalance_to_equal(dense4.graph, dense4.function)
    calls, priced = [], adversary.side1_totals

    def refuse(*args):
        raise AssertionError("the witness priced the graph again")

    def side1_totals(*args):
        calls.append(args)
        return priced(*args)

    monkeypatch.setattr(adversary, "complexity", refuse)
    monkeypatch.setattr(adversary, "side1_totals", side1_totals)
    assert verify_witness(build_witness(g, dense4.function), dense4.function).ok
    assert len(calls) == 1


def test_rebalance_scales_by_the_complexity_report(
    corpus_dir, dense4, sparse4, anchored4
):
    """Rebalancing rescales by the factor that equalizes the two costs
    ``complexity`` reports, on every corpus graph and every n=4 build."""
    for name, g, f in _corpus_and_n4(corpus_dir, (dense4, sparse4, anchored4)):
        rep = complexity(g, f)
        want = dumps(dump_graph(g.rescaled(math.sqrt(rep.c1 / rep.c0))))
        assert dumps(dump_graph(rebalance_to_equal(g, f))) == want, name


def _balanced_n4(*builds):
    return [
        (res.variant, rebalance_to_equal(res.graph, res.function), res.function)
        for res in builds
    ]


def _bits(a):
    return a.dtype, a.view(np.int64).tolist()


def _assert_bit_identical(got, want, name):
    assert (got.n_bits, got.domain) == (want.n_bits, want.domain)
    assert (got.blocks, _bits(np.array(got.target))) == (
        want.blocks,
        _bits(np.array(want.target)),
    ), name
    assert list(got.factors) == list(want.factors), name
    for j, fac in want.factors.items():
        for part in ("rows", "vals", "starts"):
            same = _bits(getattr(got.factors[j], part)) == _bits(getattr(fac, part))
            assert same, (name, j, part)


@pytest.fixture
def factor_calls(monkeypatch):
    """The positions whose factor each build makes, in order."""
    calls = []
    factor = adversary._factor

    def spy(parts, j, w0, packed):
        calls.append(j)
        return factor(parts, j, w0, packed)

    monkeypatch.setattr(adversary, "_factor", spy)
    return calls


def test_mutant_witness_reuses_its_parent_bit_for_bit(
    dense4, sparse4, anchored4, factor_calls
):
    """At every mutation site of the balanced n=4 graphs, the witness built
    from the parent's parts, which remakes one factor, equals a full build
    of the same graph (``replace`` carries no lineage), and on a sample of
    sites the dense reference."""
    sites = {}
    for name, g, f in _balanced_n4(dense4, sparse4, anchored4):
        with pytest.raises(AdversaryError, match="mutation sites") as exc:
            linking_mutants(g, f, 10**9)
        sites[name] = int(str(exc.value).split()[1])
        mutants = linking_mutants(g, f, sites[name], seed=5)
        build_witness(mutants[0].graph, f)  # the parent's parts, once
        for k, m in enumerate(mutants):
            where = f"{name} edge {m.edge} {m.assignment}"
            factor_calls.clear()
            got = build_witness(m.graph, f)
            assert factor_calls == [m.graph.edges[m.edge].load], where
            full = replace(m.graph)
            assert full._lineage is None
            _assert_bit_identical(got, build_witness(full, f), where)
            if k % 16 == 0:
                want = build_witness_loop(m.graph, f)
                assert (got.blocks, got.target) == (want.blocks, want.target)
                for j, mat in want.matrices.items():
                    assert _bits(got.matrices[j]) == _bits(mat), (where, j)
    assert sites == {"dense": 92, "sparse": 116, "sparsenew": 32}


def test_a_mutant_witness_packs_no_label_and_does_not_expand(dense4, monkeypatch):
    """A mutant's witness lays out its position over the search's label
    packs, and the mutant is flat, so it is not expanded; a full build of
    the same graph does both."""
    _, g, f = _balanced_n4(dense4)[0]
    mutants = linking_mutants(g, f, 6, seed=11)
    calls = []

    def spy(name, fn):
        def call(*args):
            calls.append(name)
            return fn(*args)

        return call

    monkeypatch.setattr(indexing, "pack_index", spy("pack_index", indexing.pack_index))
    monkeypatch.setattr(adversary, "expand", spy("expand", adversary.expand))
    for m in mutants:
        build_witness(m.graph, f)
    assert calls == []
    build_witness(replace(mutants[0].graph), f)
    assert {"pack_index", "expand"} <= set(calls)


def test_a_later_search_makes_its_own_parts(anchored4):
    """The parts a search's mutants reuse are kept by that search, not on
    the graph passed in (for sparsenew, ``expand(g) is g``): a flow cannot
    be edited in place, a later search's mutant witness equals a full
    build, and no graph passed to ``linking_mutants`` holds parts."""
    _, g, f = _balanced_n4(anchored4)[0]
    g = replace(g, flows={y: dict(p) for y, p in g.flows.items()})
    assert expand(g) is g
    (first,) = linking_mutants(g, f, 1, seed=3)
    build_witness(first.graph, f)
    flow = g.flows[min(g.flows)]
    with pytest.raises(TypeError):
        flow[min(flow)] /= 2
    (again,) = linking_mutants(g, f, 1, seed=3)
    got = build_witness(again.graph, f)
    want = build_witness(replace(again.graph), f)
    _assert_bit_identical(got, want, "a later search")
    assert verify_witness(got, f).crossing_lo == verify_witness(want, f).crossing_lo
    assert not [v for v in vars(g).values() if isinstance(v, adversary._Parts)]


def test_a_frozen_graph_keeps_its_lineage(dense4, factor_calls):
    """No field of a graph can be assigned, its edges are a tuple, and
    ``dataclasses.replace`` makes a graph with no lineage.  So each graph
    that differs from a mutant in more than the patched edge's w0 gets
    every factor made anew and the witness of a fresh build, as does a
    mutant built for another function object; a mutant of a mutant
    rebuilds one factor."""
    _, g, f = _balanced_n4(dense4)[0]
    first, second = linking_mutants(g, f, 2, seed=3)
    assert first.edge != second.edge
    mg, ei = first.graph, first.edge
    assert isinstance(mg.edges, tuple) and mg._lineage[1] == ei
    names = [fd.name for fd in fields(mg)]
    assert names[-1] == "_lineage"
    for name in names:
        with pytest.raises(FrozenInstanceError):
            setattr(mg, name, None)
    b = GraphBuilder(1)
    b.add_vertex("s", (0,))
    b.add_ordinary("r", "s", 0, ONE, ONE)
    built = LearningGraph(1, "r", b.vertices, b.edges)
    assert isinstance(b.edges, list) and built.edges == tuple(b.edges)
    everything = list(expand(g).by_load())
    other = next(k for k in range(len(mg.edges)) if k not in (ei, second.edge))
    patched = mg.edges[ei]
    doubled = ScaleRule(2.0, patched.w1)

    def edited(k, edge):
        return replace(mg, edges=mg.edges[:k] + (edge,) + mg.edges[k + 1 :])

    others = [
        ("second swapped edge", edited(other, replace(mg.edges[other]))),
        ("patched edge w1", edited(ei, replace(patched, w1=doubled))),
        ("patched edge head", edited(ei, replace(patched, dst=patched.src))),
        ("two patched edges", edited(second.edge, second.graph.edges[second.edge])),
        ("new flows", replace(mg, flows={y: dict(p) for y, p in mg.flows.items()})),
        ("more input bits", replace(mg, n_bits=mg.n_bits + 1)),
    ]
    assert all(lg._lineage is None for _, lg in others)
    others = [(name, lg, f) for name, lg in others]
    copy = BooleanFunction.from_bits(f.universe, f.dom, f.truth, f.certs)
    for name, lg, fn in others + [("another function object", mg, copy)]:
        factor_calls.clear()
        got = build_witness(lg, fn)
        assert factor_calls == everything, name
        _assert_bit_identical(got, build_witness(build_graph(dump_graph(lg)), fn), name)
    (grand,) = linking_mutants(mg, f, 1, seed=0)
    assert grand.graph._lineage[0] is not mg._lineage[0]
    factor_calls.clear()
    got = build_witness(grand.graph, f)
    assert factor_calls == [grand.graph.edges[grand.edge].load]
    _assert_bit_identical(got, build_witness(replace(grand.graph), f), "grandchild")


def _witness_digest(witnesses):
    """sha256 over every position's factor arrays, with their dtypes, the
    column count and the bits of the target of each witness in turn."""
    h = hashlib.sha256()
    for w in witnesses:
        h.update(f"{w.blocks} {np.array(w.target).view(np.int64)}".encode())
        for j, fac in w.factors.items():
            for a in (fac.rows, fac.vals, fac.starts):
                h.update(f"{j} {a.dtype.str} {a.size}".encode())
                h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# computed before the agreement blocks were laid out per loaded position;
# the witnesses, their column order within a position included, must stay
# byte-identical
WITNESS_SHA256 = {
    "dense/raw": "5afc22572b7ad5a3890ae8cf41eb2244803f872cec6f5eb8d546240e9b1fe3c1",
    "dense/balanced": "9703569fb33f8f282bc9697d09207a4da67bd420a63cfb36b7fe33354e10734a",
    "dense/mutants": "4397e442050867aa893bee538b10158cb0e2d120a69b9f7db4bdd1a7515ef097",
    "sparse/raw": "82ad3ba3028fbff57656d420c184968591af5324297518f9ac011c1d32232349",
    "sparse/balanced": "88c5709e6a5d422e36ccea882366719209a7a978e53cff0047398f09bf14a5c4",
    "sparse/mutants": "fbf64c81eb4af104eb4b3225d1af0813c3eab7b9e15ccebbce6dd827ff1e1956",
    "sparsenew-b2/raw": "e20f4a1439d972ba92024d72a81b14f6ee9a40184a524733a2e80e8776884e5b",
    "sparsenew-b2/balanced": "db07af77e30e47b6bfb1ab4281d3771258c8ea697fd78da1d2ae9ecd07ea09b2",
    "sparsenew-b2/mutants": "e02ace63a621071af2735fd4428d364d0ad878c48f2dd82ab34b1c5468b1b0be",
    "sparsenew-b3/raw": "bbc5772755ae98fe6dfc71bebce4625da36ac89e64d880f0d6a80d362a3c8add",
    "sparsenew-b3/balanced": "4c84d829a9b88cf15ef017ef557f241bd6db93d0ce3ef6ef76cc9fa7105c925e",
    "sparsenew-b3/mutants": "9b2c75b2d11c64a2981e2604e5631e5b2b6164c53bdc99ef7704ffaf28b45825",
}


def test_witness_bytes_are_pinned(dense4, sparse4):
    """The n=4 witnesses, raw and rebalanced, and those of six linking
    mutants of each rebalanced graph."""
    builds = {
        "dense": dense4,
        "sparse": sparse4,
        "sparsenew-b2": build_sparsenew_lg(4, 2),
        "sparsenew-b3": build_sparsenew_lg(4, 3),
    }
    got = {}
    for name, res in builds.items():
        g, f = res.graph, res.function
        balanced = rebalance_to_equal(g, f)
        got[f"{name}/raw"] = _witness_digest([build_witness(g, f)])
        got[f"{name}/balanced"] = _witness_digest([build_witness(balanced, f)])
        mutants = linking_mutants(balanced, f, 6, seed=11)
        got[f"{name}/mutants"] = _witness_digest(
            build_witness(m.graph, f) for m in mutants
        )
    assert got == WITNESS_SHA256
