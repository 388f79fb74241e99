"""Column-wise evaluation against the input-by-input reference, bit for bit."""

from dataclasses import dataclass, field, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loop_reference import (
    build_witness_loop,
    complexity_loop,
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
from lgkit.complexity import c0_max, c1_max, complexity
from lgkit.corpus import _pairs_walk
from lgkit.expand import expand
from lgkit.indexing import input_array
from lgkit.model import BooleanFunction, GraphBuilder, LearningGraph
from lgkit.rules import (
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
from lgkit.serialize import build_function, build_graph, dumps, read_json
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


def _assert_eval_matches_call(rule, zs):
    """On int64 inputs, and on the same inputs plus bit 70 (Python ints)."""
    for arr in (input_array(zs, 62), input_array([z + (1 << 70) for z in zs], 71)):
        want = [rule(z) for z in arr.tolist()]
        assert np.array_equal(_bits(rule.eval(arr)), _bits(want)), rule


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
        assert (c0_max(g, f), c1_max(g, f)) == (want.c0, want.c1), name


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


def test_validate_matches_loop(corpus_dir, dense4, sparse4, anchored4):
    triangles = _triangles(dense4, sparse4, anchored4)
    graphs = _corpus(corpus_dir) + triangles + _mutants(triangles, 6)
    graphs += [("wide", *_wide_and())]
    for name, g, f in triangles:
        graphs += _broken_flows(name, expand(g), f)
    broken = 0
    for name, g, f in graphs:
        got = validate(g, f)
        assert dumps(got.to_json()) == dumps(validate_loop(g, f).to_json()), name
        broken += not got.ok
    assert broken == 18 + 9


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
    assert (got.psd_ok, got.crossing_ok, got.objective_ok, got.checked_pairs) == (
        want.psd_ok,
        want.crossing_ok,
        want.objective_ok,
        want.checked_pairs,
    ), name
    assert abs(got.crossing_lo - want.crossing_lo) <= 1e-12, name
    assert abs(got.crossing_hi - want.crossing_hi) <= 1e-12, name
    assert min(got.min_eigenvalue, want.min_eigenvalue) >= -1e-9, name


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
    g, f = _zero_w1_flows()
    with pytest.raises(AdversaryError) as want:
        build_witness_loop(g, f)
    with pytest.raises(AdversaryError) as got:
        build_witness(g, f)
    assert str(got.value) == str(want.value) == (
        "flow on zero side-1 weight, edge 1 input 4"
    )


def test_position_without_blocks():
    g, f = _idle_position()
    w = build_witness(g, f)
    assert list(w.matrices) == [0, 1]
    assert w.factors[1].columns == 0
    assert np.array_equal(w.matrices[1], np.zeros((2, 2)))
    assert np.array_equal(w.matrix(1), np.zeros((2, 2)))
    report = verify_witness(w, f)
    assert report.ok
    assert report.min_eigenvalue == 0.0


@dataclass(frozen=True, eq=False)
class _CountEvals(Rule):
    """Another rule, recording the size of every ``eval`` call."""

    inner: Rule
    sizes: list = field(default_factory=list)

    @property
    def support(self):
        return self.inner.support

    def __call__(self, z):
        return self.inner(z)

    def eval(self, zs):
        self.sizes.append(len(zs))
        return self.inner.eval(zs)


def test_witness_evaluates_each_w0_once(anchored4):
    f = anchored4.function
    balanced = rebalance_to_equal(anchored4.graph, f)
    mutant = linking_mutants(balanced, f, 1, seed=11)[0].graph
    assert not mutant.has_super()
    counted = {}
    edges = [
        replace(e, w0=counted.setdefault(id(e.w0), _CountEvals(e.w0)))
        if e.kind == "ordinary"
        else e
        for e in mutant.edges
    ]
    g = replace(mutant, edges=edges, _out=None, _in=None)
    got = build_witness(g, f)
    assert {len(c.sizes) for c in counted.values()} == {1}
    _assert_same_witness(got, build_witness(mutant, f), "counted")


@dataclass(frozen=True)
class _Counting(Rule):
    """A constant that records the size of every ``eval`` call."""

    value: float
    sizes: list = field(default_factory=list, compare=False, hash=False)

    def __call__(self, z):
        return self.value

    def eval(self, zs):
        self.sizes.append(len(zs))
        return np.full(len(zs), self.value)


def test_dispatch_evaluates_each_case_on_its_inputs():
    # case k is keyed by the low four bits of k; 15 falls to the default
    cases = {
        tuple((k >> i) & 1 for i in range(4)): _Counting(float(k)) for k in range(15)
    }
    default = _Counting(99.0)
    rule = DispatchRule((0, 1, 2, 3), cases, default)
    zs = [0, 5, 5, 21, 15, 31, 7]  # keys 0, 5, 5, 5, 15, 15, 7
    _assert_eval_matches_call(rule, zs)  # evaluates twice
    sizes = {k: c.sizes for k, c in enumerate(cases.values()) if c.sizes}
    assert sizes == {0: [1, 1], 5: [3, 3], 7: [1, 1]}
    assert default.sizes == [2, 2]
    assert rule.eval(input_array([], 4)).shape == (0,)


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
