"""Column-wise evaluation against the input-by-input reference, bit for bit."""

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loop_reference import (
    build_witness_loop,
    complexity_loop,
    edge_c1_cap_loop,
    flow_entries_loop,
    graph_c1_loop,
    linking_mutants_loop,
    rule_at,
    validate_loop,
    verify_witness_loop,
)

from lgkit.adversary import (
    AdversaryError,
    build_witness,
    linking_mutants,
    rebalance_to_equal,
    verify_witness,
)
from lgkit.complexity import (
    ComplexityError,
    MissingFlowError,
    c1_max,
    complexity,
    flow_entries,
    side1_totals,
)
from lgkit.corpus import _pairs_walk
from lgkit.expand import expand
from lgkit.indexing import all_assignments, input_array
from lgkit.loads import DENSE, SPARSE, load_c1_max, load_gadget, single_load_rules
from lgkit.model import BooleanFunction, GraphBuilder, LearningGraph, SuperEdge
from lgkit.rules import (
    RULE_TYPES,
    CandidatePairRule,
    ConstRule,
    DispatchRule,
    ONE,
    PatchRule,
    ProductRule,
    Rule,
    ScaleRule,
    SparseLoadRule,
    TableRule,
    ZERO,
)
from lgkit.serialize import build_function, build_graph, dump_graph, dumps, read_json
from lgkit.validate import validate


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


def _corpus(corpus_dir):
    out = []
    for path in sorted((corpus_dir / "graphs").glob("*.json")):
        if path.name.endswith(".fn.json"):
            continue
        fn = build_function(read_json(path.parent / (path.stem + ".fn.json")))
        out.append((path.stem, build_graph(read_json(path)), fn))
    return out


def _triangles(dense4, sparse4, anchored4):
    return [(r.variant, r.graph, r.function) for r in (dense4, sparse4, anchored4)]


def _mutants(graphs, count):
    return [
        (f"{name} mutant {k}", m.graph, f)
        for name, g, f in graphs
        for k, m in enumerate(linking_mutants(g, f, count, seed=11))
    ]


def _rules(g):
    for e in g.edges:
        yield e.w0
        yield e.w1
        if e.gadget is not None:
            yield from _rules(e.gadget.inner)


def _assert_eval_matches_call(rule, zs, body=True):
    """On int64 inputs, and on the same inputs plus bit 70 (Python ints);
    ``eval`` and, unless ``body`` is false, the body that fills the table,
    against the scalar ``rule_at``."""
    for arr in (input_array(zs, 62), input_array([z + (1 << 70) for z in zs], 71)):
        want = _bits([rule_at(rule, z) for z in arr.tolist()])
        # a first call may run the body, a later one looks the table up
        for got in (rule.eval(arr), rule.eval(arr)):
            assert np.array_equal(_bits(got), want), rule
        assert not body or np.array_equal(_bits(rule._body(arr)), want), rule


def test_eval_matches_call_on_graph_rules(corpus_dir, dense4, sparse4, anchored4):
    triangles = _triangles(dense4, sparse4, anchored4)
    graphs = _corpus(corpus_dir) + triangles + _mutants(triangles, 8)
    patches = 0
    for _, g, _ in graphs:
        zs = list(range(1 << g.n_bits))
        for rule in {id(r): r for r in _rules(g)}.values():
            patches += isinstance(rule, PatchRule)
            _assert_eval_matches_call(rule, zs)
    assert patches == 24


def _wrappers(rules):
    """Every scale and product rule in ``rules`` and below, each after the
    ones it wraps."""
    out, seen = [], set()

    def visit(rule):
        if id(rule) in seen:
            return
        seen.add(id(rule))
        for child in vars(rule).values():
            if isinstance(child, Rule):
                visit(child)
        if isinstance(rule, (ScaleRule, ProductRule)):
            out.append(rule)

    for rule in rules:
        visit(rule)
    return out


def test_wrapper_tables_are_their_bodies(dense4, sparse4, anchored4):
    """A scale's or a product's table multiplies the tables of the rules it
    wraps; it equals its body at every assignment bit for bit, in the n=4
    builds, their expansions, their rebalanced copies and the expansions of
    those, whether the wrapped rules' tables were built first or not."""
    kinds = set()
    for name, g, f in _triangles(dense4, sparse4, anchored4):
        balanced = rebalance_to_equal(g, f)
        for h in (g, expand(g), balanced, expand(balanced)):
            text = dumps(dump_graph(h))
            for children_first in (False, True):
                # a parsed copy: rule objects that have built no table yet
                wrappers = _wrappers(_rules(build_graph(json.loads(text))))
                assert wrappers and not any("_table" in vars(w) for w in wrappers)
                for w in wrappers if children_first else reversed(wrappers):
                    want = w._body(all_assignments(w.support))
                    assert np.array_equal(_bits(w._table), _bits(want)), (name, w)
                    kinds.add(type(w))
    assert kinds == {ScaleRule, ProductRule}


positions = st.integers(min_value=0, max_value=7)
weights = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


@st.composite
def tables(draw):
    indices = tuple(sorted(draw(st.sets(positions, max_size=3))))
    rows = draw(
        st.dictionaries(
            st.tuples(*[st.integers(0, 1)] * len(indices)), weights, max_size=8
        )
    )
    return TableRule(indices, rows, draw(weights))


@st.composite
def sparse_loads(draw):
    path = tuple(draw(st.lists(positions, min_size=1, max_size=5, unique=True)))
    pos = draw(st.integers(1, len(path)))
    return SparseLoadRule(path, pos, draw(st.integers(0, 1)))


@st.composite
def candidate_pairs(draw):
    required = tuple(draw(st.lists(positions, max_size=3)))
    blocked = tuple(draw(st.lists(st.tuples(positions, positions), max_size=3)))
    return CandidatePairRule(required, blocked)


leaves = st.one_of(tables(), sparse_loads(), candidate_pairs(), weights.map(ConstRule))


@st.composite
def dispatches(draw):
    indices = tuple(sorted(draw(st.sets(positions, max_size=3))))
    cases = draw(
        st.dictionaries(
            st.tuples(*[st.integers(0, 1)] * len(indices)), leaves, max_size=8
        )
    )
    return DispatchRule(indices, cases, draw(leaves))


rules = st.one_of(
    leaves,
    dispatches(),
    st.builds(ScaleRule, weights, st.one_of(leaves, dispatches())),
    st.builds(ProductRule, leaves, st.one_of(leaves, dispatches())),
    st.builds(
        PatchRule,
        st.just((1, 4)),
        st.tuples(st.integers(0, 1), st.integers(0, 1)),
        weights,
        leaves,
    ),
)


@settings(max_examples=200, deadline=None)
@given(rules)
def test_eval_matches_call_on_random_rules(rule):
    _assert_eval_matches_call(rule, list(range(256)))


def _wide_and():
    """AND of bits 0 and 69: inputs need Python ints, not int64."""
    top = 1 << 69
    b = GraphBuilder(70)
    b.add_vertex("a", (0,))
    b.add_vertex("s", (0, 69))
    b.add_ordinary("r", "a", 0, ConstRule(2.0), ConstRule(2.0))
    w = TableRule((0,), {(1,): 3.0}, 0.5)
    b.add_ordinary("a", "s", 69, w, w)
    f = BooleanFunction(70, {0: 0, 1: 0, top: 0, top | 1: 1})
    return b.graph(flows={top | 1: {0: 1.0, 1: 1.0}}), f


def _stage_graph():
    g, f = _pairs_walk()
    return [("pairs-walk", g, f), ("pairs-walk expanded", expand(g), f)]


def test_complexity_matches_loop(corpus_dir, dense4, sparse4, anchored4):
    graphs = _corpus(corpus_dir) + _triangles(dense4, sparse4, anchored4)
    graphs += _stage_graph() + [("wide", *_wide_and())]
    for name, g, f in graphs:
        want = complexity_loop(g, f)
        assert dumps(complexity(g, f).to_json()) == dumps(want.to_json()), name
        assert c1_max(g, f) == want.c1, name


def _broken_flows(name, g, f):
    """Variants of ``g`` whose flows break conservation, positivity and sinks."""
    ys = f.positives()
    out = []
    for label, change in (
        ("halved", lambda fl: {i: p / 2 for i, p in fl.items()}),
        ("negated", lambda fl: {i: -p for i, p in fl.items()}),
        ("first edge only", lambda fl: dict(list(fl.items())[:1])),
    ):
        flows = {y: g.flow_for(y) for y in ys}
        flows[ys[0]] = change(flows[ys[0]])
        flows[ys[-1]] = change(flows[ys[-1]])
        broken = LearningGraph(
            g.n_bits, g.root, dict(g.vertices), list(g.edges), flows=flows
        )
        out.append((f"{name} {label}", broken, f))
    return out


def _two_negatives_at_a_sink():
    """AND of bits 0 and 1 on 3 bits, certified by bit 0 alone: the sink
    matches the negatives 1 and 5 for both positives, and names 1."""
    b = GraphBuilder(3)
    b.add_vertex("s", (0,))
    b.add_ordinary("r", "s", 0, ONE, ONE)
    f = BooleanFunction(3, {z: int(z & 3 == 3) for z in range(8)})
    return b.graph(flows={3: {0: 1.0}, 7: {0: 1.0}}), f


def _one_sink_two_assignments():
    """OR of 2 bits, every positive flowing to one sink labelled (bit 0,):
    1 and 3 reach it with bit 0 = 1, which no negative matches, and 2 with
    bit 0 = 0, which the negative 0 matches, so the sink is uncertified for
    2 alone."""
    b = GraphBuilder(2)
    b.add_vertex("s", (0,))
    b.add_ordinary("r", "s", 0, ONE, ONE)
    f = BooleanFunction(2, {z: int(z != 0) for z in range(4)})
    return b.graph(flows={y: {0: 1.0} for y in (1, 2, 3)}), f


def _one_breach_in_a_shared_group():
    """AND of 2 bits: edges 1 and 2 both load bit 1 from the tail label
    (bit 0,), so they share their agreement blocks, and only edge 2 breaks
    linking, on the block of the negative 1 and the positive 3."""
    b = GraphBuilder(2)
    b.add_vertex("a", (0,))
    b.add_vertex("b", (0, 1))
    b.add_vertex("c", (0, 1))
    b.add_ordinary("r", "a", 0, ONE, ONE)
    b.add_ordinary("a", "b", 1, ONE, ONE)
    b.add_ordinary("a", "c", 1, ONE, ConstRule(2.0))
    f = BooleanFunction(2, {z: int(z == 3) for z in range(4)})
    return b.graph(flows={3: {0: 1.0, 1: 1.0}}), f


def test_validate_matches_loop(corpus_dir, dense4, sparse4, anchored4):
    triangles = _triangles(dense4, sparse4, anchored4)
    graphs = _corpus(corpus_dir) + triangles + _mutants(triangles, 6)
    graphs += [("wide", *_wide_and()), ("two negatives", *_two_negatives_at_a_sink())]
    graphs += [("two assignments", *_one_sink_two_assignments())]
    graphs += [("shared group", *_one_breach_in_a_shared_group())]
    for name, g, f in triangles:
        graphs += _broken_flows(name, expand(g), f)
    broken = 0
    for name, g, f in graphs:
        got = validate(g, f)
        assert dumps(got.to_json()) == dumps(validate_loop(g, f).to_json()), name
        broken += not got.ok
    assert broken == 18 + 9 + 3
    got = validate(*_one_breach_in_a_shared_group())
    assert [(v.kind, v.where) for v in got.entries] == [("linking", "edge[2] a->c")]
    # edge 0 joins 0 and 2 with 3; edges 1 and 2 each join 1 with 3
    assert got.checked["linking-pairs"] == 2 + 2 * 1


def _breaches_out_of_position_order():
    """Linking breaches on edges 1 and 2; edge 2 loads bit 0, which edge 0
    loads first, and edge 1 loads bit 1."""
    b = GraphBuilder(2)
    b.add_vertex("a", (0,))
    b.add_vertex("b", (1,))
    b.add_vertex("c", (0,))
    b.add_ordinary("r", "a", 0, ONE, ONE)
    b.add_ordinary("r", "b", 1, ONE, ConstRule(2.0))
    b.add_ordinary("r", "c", 0, ONE, ConstRule(3.0))
    f = BooleanFunction(2, {z: z & 1 for z in range(4)})
    return b.graph(flows={1: {0: 1.0}, 3: {0: 1.0}}), f


def test_validate_reports_linking_in_edge_order():
    g, f = _breaches_out_of_position_order()
    got = validate(g, f)
    assert dumps(got.to_json()) == dumps(validate_loop(g, f).to_json())
    assert [v.where for v in got.entries if v.kind == "linking"] == [
        "edge[1] r->b",
        "edge[1] r->b",
        "edge[2] r->c",
    ]


def _assert_same_witness(got, want, name):
    assert (got.blocks, got.target, list(got.matrices)) == (
        want.blocks,
        want.target,
        list(want.matrices),
    ), name
    for j, mat in want.matrices.items():
        same = np.array_equal(got.matrices[j].view(np.int64), mat.view(np.int64))
        assert same, (name, j)


def _zero_w1_flows():
    """Flow on zero side-1 weight at inputs 3 and 4 of an edge with tail
    label (bit 1,): the block of 4 (bit 1 = 0) comes first in the domain,
    though 3 is the smaller input."""
    b = GraphBuilder(3)
    b.add_vertex("a", (1,))
    b.add_vertex("s", (0, 1))
    b.add_ordinary("r", "a", 1, ONE, ONE)
    b.add_ordinary("a", "s", 0, ONE, ConstRule(0.0))
    f = BooleanFunction(3, {z: int(z in (3, 4)) for z in range(8)})
    return b.graph(flows={3: {0: 1.0, 1: 1.0}, 4: {0: 1.0, 1: 1.0}}), f


def _assert_same_verdict(got, want, name):
    """Factored against dense verification: the objective has the same bits,
    the crossing sums agree to rounding."""
    assert _bits([got.objective, got.target]).tolist() == (
        _bits([want.objective, want.target]).tolist()
    ), name
    assert (got.ok, got.crossing_ok, got.objective_ok, got.checked_pairs) == (
        want.ok,
        want.crossing_ok,
        want.objective_ok,
        want.checked_pairs,
    ), name
    assert abs(got.crossing_lo - want.crossing_lo) <= 1e-12, name
    assert abs(got.crossing_hi - want.crossing_hi) <= 1e-12, name
    # the dense matrices are PSD, which the factored check takes as given
    assert want.min_eigenvalue >= -1e-9, name


def _idle_position():
    """Bit 1 is loaded, but by an edge with no side-0 weight and no flow."""
    b = GraphBuilder(2)
    b.add_vertex("s", (0,))
    b.add_vertex("t", (1,))
    b.add_ordinary("r", "s", 0, ONE, ONE)
    b.add_ordinary("r", "t", 1, ZERO, ONE)
    f = BooleanFunction(2, {0: 0, 1: 1})
    return b.graph(flows={1: {0: 1.0}}), f


def test_witness_matches_loop(corpus_dir, dense4, sparse4, anchored4):
    triangles = [
        (name, rebalance_to_equal(g, f), f)
        for name, g, f in _triangles(dense4, sparse4, anchored4)
    ]
    graphs = _corpus(corpus_dir) + triangles + _mutants(triangles, 4)
    graphs += [("wide", *_wide_and()), ("idle", *_idle_position())]
    caught = 0
    for name, g, f in graphs:
        got = build_witness(g, f)
        want = build_witness_loop(g, f)
        _assert_same_witness(got, want, name)
        report = verify_witness(got, f)
        _assert_same_verdict(report, verify_witness_loop(want, f), name)
        caught += "mutant" in name and not report.crossing_ok
    assert caught == 12
    # the first fault in input order, as the positive side reports it
    g, f = _zero_w1_flows()
    with pytest.raises(ComplexityError) as want:
        build_witness_loop(g, f)
    with pytest.raises(ComplexityError) as got:
        build_witness(g, f)
    assert str(got.value) == str(want.value) == (
        "flow 1.0 on zero side-1 weight a->s at input 3"
    )


def test_witness_raises_the_positive_side_flow_error():
    """A flow fault in the witness is the error of ``side1_totals`` on the
    expansion: the first faulty input in input order, a missing flow
    included.  Edges 1 (bit 1) and 2 (bit 0) have zero side-1 weight."""
    b = GraphBuilder(2)
    b.add_vertex("a", (0,))
    b.add_vertex("s", (0, 1))
    b.add_vertex("t", (0,))
    b.add_ordinary("r", "a", 0, ONE, ONE)
    b.add_ordinary("a", "s", 1, ONE, ZERO)
    b.add_ordinary("r", "t", 0, ONE, ZERO)
    zero_w1 = {0: 1.0, 1: 1.0, 2: 1.0}
    one = BooleanFunction(2, {0: 0, 1: 0, 2: 0, 3: 1})
    two = BooleanFunction(2, {0: 0, 1: 1, 2: 0, 3: 1})
    zero = ComplexityError, "flow 1.0 on zero side-1 weight {} at input {}"
    missing = MissingFlowError, "no flow recorded for input {}"
    cases = [
        (one, {3: zero_w1}, zero, ("a->s", 3)),
        (one, {}, missing, (3,)),
        (two, {1: {0: 1.0, 2: 1.0}}, zero, ("r->t", 1)),  # before the missing 3
        (two, {3: zero_w1}, missing, (1,)),
    ]
    for f, flows, (kind, text), args in cases:
        g = b.graph(flows=flows)
        with pytest.raises(ComplexityError) as want:
            side1_totals(expand(g), f.positives())
        with pytest.raises(ComplexityError) as got:
            build_witness(g, f)
        assert type(got.value) is type(want.value) is kind
        assert str(got.value) == str(want.value) == text.format(*args)


def _sites(find, g, f):
    """The error that names how many mutation sites ``g`` offers."""
    with pytest.raises(AdversaryError, match="mutation sites") as exc:
        find(g, f, 10**9)
    return str(exc.value)


def _mutant_fields(mutants):
    """Every mutant's fields, and the first one's serialized graph (the
    graphs differ only in the mutated edge, and serializing is slow)."""
    fields = [(m.edge, m.assignment, m.factor, m.flow) for m in mutants]
    return fields, dumps(dump_graph(mutants[0].graph))


def _nan_sites():
    """A mutation site at a NaN w0 and one at a NaN flow, both of which the
    scalar scan keeps: neither NaN <= 0 nor NaN < MIN_FLOW holds."""
    nan = ProductRule(ScaleRule(1e300, ScaleRule(1e300, ONE)), ZERO)
    f = BooleanFunction(2, {0: 0, 3: 1})
    out = []
    for name, w0, p in (("nan w0", nan, 0.5), ("nan flow", ONE, float("nan"))):
        b = GraphBuilder(2)
        b.add_vertex("s0", (0,))
        b.add_vertex("s1", (1,))
        b.add_ordinary("r", "s0", 0, w0, ONE)
        b.add_ordinary("r", "s1", 1, ONE, ONE)
        out.append((name, b.graph(flows={3: {0: p, 1: 0.5}}), f))
    return out


def _broken_label_steps():
    """Sites on edges whose head label is not the tail plus the loaded bit,
    with f = bit 0 and flow at every positive.  On 3 bits, r->s loads bit 0
    into the label (0, 2): the scan finds one site, ``1:0,3:0``, where a
    key on the head label would find two.  On 2 bits, a->s reloads bit 0,
    so no negative agrees with a positive on its tail and not on bit 0."""
    out = []
    b = GraphBuilder(3)
    b.add_vertex("s", (0, 2))
    b.add_ordinary("r", "s", 0, ONE, ONE)
    f = BooleanFunction(3, {z: z & 1 for z in range(8)})
    out.append(("head label", b.graph(flows={y: {0: 1.0} for y in (1, 3, 5, 7)}), f))
    b = GraphBuilder(2)
    b.add_vertex("a", (0,))
    b.add_vertex("s", (0,))
    b.add_ordinary("r", "a", 0, ONE, ONE)
    b.add_ordinary("a", "s", 0, ONE, ONE)
    f = BooleanFunction(2, {z: z & 1 for z in range(4)})
    out.append(("reload", b.graph(flows={y: {0: 1.0, 1: 1.0} for y in (1, 3)}), f))
    return out


def test_mutants_match_loop(corpus_dir, dense4, sparse4, anchored4):
    triangles = _triangles(dense4, sparse4, anchored4)
    graphs = _corpus(corpus_dir) + triangles
    graphs += [(f"{n} balanced", rebalance_to_equal(g, f), f) for n, g, f in triangles]
    graphs += [("wide", *_wide_and())] + _nan_sites() + _broken_label_steps()
    for name, g, f in graphs:
        message = _sites(linking_mutants, g, f)
        assert message == _sites(linking_mutants_loop, g, f), name
        count = min(int(message.split()[1]), 12)
        for seed in (0, 1, 7):
            got = linking_mutants(g, f, count, seed=seed)
            want = linking_mutants_loop(g, f, count, seed=seed)
            assert _mutant_fields(got) == _mutant_fields(want), (name, seed)


def test_position_without_blocks():
    g, f = _idle_position()
    w = build_witness(g, f)
    assert list(w.matrices) == [0, 1]
    assert w.factors[1].columns == 0
    assert np.array_equal(w.matrices[1], np.zeros((2, 2)))
    assert verify_witness(w, f).ok


@dataclass(frozen=True, eq=False)
class _CountEvals(Rule):
    """Another rule, recording the size of every run of its body."""

    inner: Rule
    sizes: list = field(default_factory=list)

    @property
    def support(self):
        return self.inner.support

    def _body(self, zs):
        self.sizes.append(len(zs))
        return self.inner._body(zs)


def test_witness_evaluates_each_w0_once(anchored4):
    """Across validate, complexity, rebalance, the witness and 24 mutants'
    witnesses, a rule object's body runs at most twice: on its first call
    (on fewer than 64 inputs here) and to fill its table on the second.  A
    counter counts the runs of the graph's rule and of its rebalanced copy,
    a scale of it, which runs the counted body on its first call and fills
    its table from the counted rule's table: three runs for every w0 and
    for a w1 where flow is.  A mutant's patch looks the table of the rule
    it patches up, so it runs no body."""
    f = anchored4.function
    g = expand(anchored4.graph)
    assert not g.has_super()
    counted = []  # (edge, side, counter); one counter per edge and side
    edges = []
    for ei, e in enumerate(g.edges):
        if e.kind == "ordinary":
            w0, w1 = _CountEvals(e.w0), _CountEvals(e.w1)
            counted += [(ei, 0, w0), (ei, 1, w1)]
            e = replace(e, w0=w0, w1=w1)
        edges.append(e)
    g = replace(g, edges=edges)

    def runs():
        return [len(c.sizes) for _, _, c in counted]

    # a w1 is evaluated again only where flow is
    flow = {i for y in f.positives() for i, p in g.flow_for(y).items() if p}
    assert validate(g, f).ok
    complexity(g, f)
    balanced = rebalance_to_equal(g, f)
    assert runs() == [1 + (ei in flow) if side else 2 for ei, side, _ in counted]
    for _, _, c in counted:  # the second run fills the table
        assert c.sizes[1:2] == [1 << len(c.support)] * len(c.sizes[1:2])
    assert verify_witness(build_witness(balanced, f), f).ok
    for m in linking_mutants(balanced, f, 24, seed=11):
        assert not verify_witness(build_witness(m.graph, f), f).crossing_ok
    assert runs() == [1 + 2 * (ei in flow) if side else 3 for ei, side, _ in counted]
    plain = expand(anchored4.graph)
    _assert_same_witness(
        build_witness(balanced, f),
        build_witness(rebalance_to_equal(plain, f), f),
        "counted",
    )


@dataclass(frozen=True)
class _Counting(ConstRule):
    """A constant that records the size of every run of its body."""

    sizes: list = field(default_factory=list, compare=False, hash=False)

    def _body(self, zs):
        self.sizes.append(len(zs))
        return np.full(len(zs), self.value)


def _counting_dispatch():
    """Case k is keyed by the low four bits of k for k < 12; 12..15 fall to
    the default."""
    cases = {
        tuple((k >> i) & 1 for i in range(4)): _Counting(float(k)) for k in range(12)
    }
    return DispatchRule((0, 1, 2, 3), cases, _Counting(99.0))


def test_dispatch_evaluates_each_case_on_its_inputs():
    """A first call on few inputs routes them to their cases.  The next
    call builds the table, running each case's body once on the assignments
    routed to it; later calls, on any inputs, only look the table up.  A
    first call on many inputs builds the table at once."""
    rule = _counting_dispatch()
    cases, default = list(rule.cases.values()), rule.default
    zs = [0, 5, 5, 21, 15, 31, 7]  # keys 0, 5, 5, 5, 15, 15, 7
    rule.eval(input_array(zs, 62))
    sizes = {k: c.sizes for k, c in enumerate(cases) if c.sizes}
    assert sizes == {0: [1], 5: [3], 7: [1]}
    assert default.sizes == [2]
    for c in (*cases, default):
        c.sizes.clear()
    for zs in (zs, list(range(40)), [3, 19, 35, 12], []):
        _assert_eval_matches_call(rule, zs, body=False)
    assert [c.sizes for c in cases] == [[1]] * 12
    assert default.sizes == [4]
    assert rule.eval(input_array([], 4)).shape == (0,)
    rule = _counting_dispatch()
    _assert_eval_matches_call(rule, list(range(300)), body=False)
    assert [c.sizes for c in rule.cases.values()] == [[1]] * 12
    assert rule.default.sizes == [4]


def test_rules_over_many_positions():
    """Rules reading more positions than a lookup array covers."""
    indices = tuple(range(0, 80, 2))
    table = TableRule(indices, {(1,) * 40: 2.0, (0,) * 40: 3.0}, 0.5)
    rules = [
        table,
        DispatchRule(indices, {(1,) * 40: table}, ConstRule(1.0)),
        PatchRule(indices, (1,) * 40, 4.0, table),
    ]
    ones = sum(1 << i for i in indices)
    zs = [0, ones, 1 << 78, (1 << 80) - 1, ones ^ 1 << 40]
    for rule in rules:
        _assert_eval_matches_call(rule, zs)


@pytest.mark.parametrize("width", [17, 70])
def test_wide_tables_and_dispatches(width):
    """Tables and dispatches keyed by more positions than a lookup array
    covers find each input's row among their sorted packed keys, on int64
    inputs and on Python ints; an input no row matches gets the default."""
    indices = tuple(range(width - 1)) + (width + 3,)
    low = tuple(int(k < 10) for k in range(width))
    rows = {
        (1,) * width: 2.0,
        (0,) * width: 3.0,
        tuple(k & 1 for k in range(width)): 5.0,
        low: 7.0,
    }
    tables = [TableRule(indices, rows, 0.5), TableRule(indices, {}, 0.25)]
    cases = {bits: ConstRule(v) for bits, v in rows.items()}
    cases[low] = TableRule((width + 3,), {(1,): 13.0}, 17.0)
    dispatches = [
        DispatchRule(indices, cases, ScaleRule(0.5, ONE)),
        DispatchRule(indices, {}, ConstRule(0.25)),
    ]
    at = [sum(b << i for i, b in zip(indices, bits)) for bits in rows]
    zs = at + [z | 1 << (width - 1) for z in at] + [z ^ 1 for z in at] + [1, 6]
    for arr in (
        input_array([z for z in zs if z < 1 << 62], 62),
        input_array(zs + [z | 1 << 100 for z in zs], 101),
    ):
        for rule in tables + dispatches:
            want = _bits([rule_at(rule, z) for z in arr.tolist()])
            for got in (rule.eval(arr), rule.eval(arr), rule._body(arr)):
                assert np.array_equal(_bits(got), want), (rule, arr.dtype)
        # every row is met, except those reading bits past 61 on int64 inputs
        short = width == 70 and arr.dtype == np.int64
        met = {3.0, 7.0, 0.5} if short else {2.0, 3.0, 5.0, 7.0, 0.5}
        assert set(tables[0].eval(arr).tolist()) == met, arr.dtype


def _raised(call):
    """The type and message of what ``call`` raises, or its result."""
    try:
        return call()
    except ValueError as exc:  # ComplexityError and its subclasses
        return type(exc), str(exc)


def _fault_graph(flows):
    """Five edges over two bits, each faulty at some inputs.

    e0 r->s has zero w1 where bit 1 is set; e1 s->t has zero w1 where bit 0
    is clear; e2 r->t is empty; e3 r->u is a super edge whose host w1 is zero
    at input 0 and whose inner w1 is zero where bit 1 is clear; e4 r->u is a
    super edge whose inner graph has a flow only for input 3.
    """
    inner = GraphBuilder(2, root="g0")
    inner.add_vertex("g1", (1,))
    inner.add_ordinary("g0", "g1", 1, ONE, TableRule((1,), {(0,): 0.0}, 1.0))
    partial = GraphBuilder(2, root="g0")
    partial.add_vertex("g1", (1,))
    partial.add_ordinary("g0", "g1", 1, ONE, ONE)
    b = GraphBuilder(2)
    b.add_vertex("s", (0,))
    b.add_vertex("t", (0, 1))
    b.add_vertex("u", (1,))
    b.add_ordinary("r", "s", 0, ONE, TableRule((1,), {(1,): 0.0}, 1.0))
    b.add_ordinary("s", "t", 1, ONE, TableRule((0,), {(0,): 0.0}, 2.0))
    b.add_empty("r", "t")
    b.add_super(
        "r",
        "u",
        SuperEdge(inner.graph(const_flow={0: 1.0})),
        w1=TableRule((0, 1), {(0, 0): 0.0}, 1.0),
    )
    b.add_super("r", "u", SuperEdge(partial.graph(flows={3: {0: 1.0}})))
    return b.graph(flows=flows)


_SIDE1_FAULTS = {
    "missing flow": ([1, 2], {1: {0: 1.0, 1: 1.0}}),
    "negative flow": ([1], {1: {0: 1.0, 1: -0.5}}),
    "flow on an empty edge": ([1], {1: {2: 0.5}}),
    "negative flow on an empty edge": ([1], {1: {2: -0.5}}),
    "zero w1": ([1, 2], {1: {0: 1.0}, 2: {0: 1.0}}),
    "zero w1 and a negative flow at one edge": ([2], {2: {0: -0.5}}),
    "fault inside a gadget": ([2, 1], {2: {3: 1.0}, 1: {3: 1.0}}),
    "missing flow inside a gadget": ([3, 1], {3: {4: 1.0}, 1: {4: 1.0}}),
    "zero host w1 before the gadget": ([0], {0: {3: 1.0}}),
    "later edge faults at an earlier input": (
        [1, 2],
        {1: {0: 1.0, 3: 1.0}, 2: {0: 1.0}},
    ),
    "first faulty edge in flow order": ([2], {2: {1: 1.0, 0: 0.5}}),
    "flow order unlike first use": ([1, 2], {1: {0: 1.0, 1: 1.0}, 2: {1: 1.0, 0: 0.5}}),
    "earlier input, later edge": ([3, 2], {3: {1: 1.0, 0: 0.5}, 2: {1: 1.0}}),
}


@pytest.mark.parametrize("fault", sorted(_SIDE1_FAULTS))
def test_side1_errors_match_loop(fault):
    ys, flows = _SIDE1_FAULTS[fault]
    g = _fault_graph(flows)
    want = _raised(lambda: [graph_c1_loop(g, y) for y in ys])
    assert isinstance(want, tuple) and issubclass(want[0], ValueError), want
    assert _raised(lambda: side1_totals(g, ys)[2]) == want


@st.composite
def _flow_cases(draw):
    """Inputs in any order, each with no flow or some of the five edges in
    any order, with flows that are zero, positive or negative."""
    ys = draw(st.permutations(range(4)))[: draw(st.integers(1, 4))]
    flows = {}
    for y in ys:
        if draw(st.integers(0, 5)) == 0:
            continue
        edges = draw(st.permutations(range(5)))[: draw(st.integers(0, 5))]
        values = st.sampled_from([0.0, 0.5, 1.0, -0.5])
        flows[y] = {i: draw(values) for i in edges}
    return ys, flows


@settings(max_examples=300, deadline=None)
@given(_flow_cases())
def test_side1_matches_loop_on_random_flows(case):
    ys, flows = case
    g = _fault_graph(flows)
    got = _raised(lambda: side1_totals(g, ys)[2])
    want = _raised(lambda: [graph_c1_loop(g, y) for y in ys])
    if isinstance(want, list):
        assert np.array_equal(_bits(got), _bits(want))
    else:
        assert got == want


@st.composite
def _validate_cases(draw):
    """A function on some inputs of two bits, and flows on the fault graph
    at its positives: each missing, empty, or on some of its five edges
    with zero, signed, NaN and infinite values.  The sinks t and u match a
    negative or not, as the function falls."""
    domain = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True))
    f = BooleanFunction(2, {z: draw(st.integers(0, 1)) for z in domain})
    values = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, math.nan, math.inf, -math.inf])
    flows = {}
    for y in f.positives():
        if draw(st.integers(0, 5)) == 0:
            continue
        edges = draw(st.permutations(range(5)))[: draw(st.integers(0, 5))]
        flows[y] = {i: draw(values) for i in edges}
    return _fault_graph(flows), f


@settings(max_examples=300, deadline=None)
@given(_validate_cases())
def test_validate_matches_loop_on_random_flows(case):
    g, f = case
    got = _raised(lambda: dumps(validate(g, f).to_json()))
    assert got == _raised(lambda: dumps(validate_loop(g, f).to_json()))


def test_load_c1_max_matches_loop():
    """The closed-form cap the set walk rescales its load edges by against a
    scan over every input of the load's support: the one-position edge for
    k = 1, the gadget without its recorded bound for k >= 2.  They agree bit
    for bit except on sparse gadgets, where H_k / (3 ln(k+1)) and the fsum of
    the per-step terms round apart by up to 2 ulp (at k = 4)."""
    for kind in (DENSE, SPARSE):
        b = GraphBuilder(1)
        b.add_vertex("s", (0,))
        b.add_ordinary("r", "s", 0, *single_load_rules(kind, 0))
        edges = {1: b.edges[0]}
        for k in range(2, 13):
            b = GraphBuilder(k)
            b.add_vertex("s", tuple(range(k)))
            b.add_super("r", "s", SuperEdge(load_gadget(kind, k, range(k)).inner))
            edges[k] = b.edges[0]
        for k, e in edges.items():
            got, want = load_c1_max(kind, k), edge_c1_cap_loop(e)
            if kind == SPARSE and k >= 2:
                assert abs(got - want) <= 2 * math.ulp(want), (kind, k)
            else:
                assert np.array_equal(_bits([got]), _bits([want])), (kind, k)


def test_pipeline_prices_column_wise():
    """No rule class can be called at one input, so ``Rule.eval`` is the
    only way the pipeline can price a graph."""
    scalar = [
        kind
        for kind, cls in RULE_TYPES.items()
        if any("__call__" in vars(k) for k in cls.__mro__)
    ]
    assert scalar == []
    assert not callable(ONE)


def _assert_entries(ent, want, where):
    ks, es, ps, missing = want
    assert ent.input.tolist() == ks, where
    assert ent.edge.tolist() == es, where
    assert ent.flow.tolist() == ps, where
    assert ent.missing == missing, where


def test_flow_entries_gather_what_the_maps_give(dense4, sparse4, anchored4):
    """``flow_entries`` gathers rows of the flow table; it gives, entry for
    entry, what a read of each input's ``{edge: flow}`` map gives, on the
    tier-1 n=4 graphs, their expansions, their rebalanced copies and a
    linking mutant of each, at the positives and at every input (the
    negatives have no flow)."""
    for name, g, f in _triangles(dense4, sparse4, anchored4):
        gb = rebalance_to_equal(g, f)
        (mutant,) = linking_mutants(gb, f, 1, seed=11)
        for what, h in [
            ("built", g),
            ("expanded", expand(g)),
            ("rebalanced", gb),
            ("mutant", mutant.graph),
        ]:
            for ys in (f.positives(), f.domain):
                want = flow_entries_loop(h.flow_for, ys)
                _assert_entries(flow_entries(h, ys), want, f"{name} {what}")


def _two_routes(flow):
    """r→a→t and r→b→t over 2 bits, edge 2 (r→b) with zero w1, positive
    only at 3, with ``flow`` at 3."""
    b = GraphBuilder(2)
    for vid, label in [("a", (0,)), ("b", (1,)), ("t", (0, 1))]:
        b.add_vertex(vid, label)
    b.add_ordinary("r", "a", 0, ONE, ONE)
    b.add_ordinary("a", "t", 1, ONE, ONE)
    b.add_ordinary("r", "b", 1, ONE, ZERO)
    b.add_ordinary("b", "t", 0, ONE, ONE)
    return b.graph(flows={3: flow}), BooleanFunction(2, {0: 0, 1: 0, 2: 0, 3: 1})


@pytest.mark.parametrize(
    "flow, message",
    [
        ({3: -0.5, 0: 0.0, 2: 0.5}, "negative flow -0.5 on edge b->t"),
        ({2: 0.5, 1: 0.0, 0: -0.5}, "flow 0.5 on zero side-1 weight r->b at input 3"),
    ],
    ids=["negative", "zero-w1"],
)
def test_flow_order_and_the_first_fault_survive_the_table(flow, message):
    """Within an input, entries keep the order the flow was given in, not
    edge order, so the first fault raised is the first in that order,
    here on a higher edge index than a second fault; a zero flow is kept
    in the table and in the file, but makes no entry."""
    g, f = _two_routes(flow)
    ys = f.positives()
    _assert_entries(flow_entries(g, ys), flow_entries_loop({3: flow}.get, ys), "order")
    assert list(g.flows[3].items()) == list(flow.items())
    zero = next(str(i) for i, p in flow.items() if p == 0.0)
    assert dump_graph(g)["flows"]["11"][zero] == 0.0
    with pytest.raises(ComplexityError, match=f"^{message}$"):
        side1_totals(g, ys)
    assert _raised(lambda: graph_c1_loop(g, 3)) == (ComplexityError, message)
