"""Cost evaluation.

The negative cost of a graph at an input sums the side-0 weights of all edges.
The positive cost at an input sums flow squared over side-1 weight along the
committed flow, with the convention that zero flow contributes zero.  A super
edge contributes its host weight times the inner negative cost on side 0, and
flow squared times the inner positive cost over the host weight on side 1.

``complexity`` aggregates both over a function's domain and reports per-stage
breakdowns when the graph carries stage metadata.

``side0_rows`` and ``_price`` are the one place costs are evaluated.
They price a whole set of inputs column-wise, one rule evaluation per
edge, a lookup in the rule's table (see :mod:`lgkit.rules`).  ``_price``
is the one positive-side routine: it prices one term per flow entry and
finds each part's first flow fault.  It has three callers:
``side1_totals`` (``complexity``, whose report, kept on the graph,
rebalancing reads, and the witness), ``side1_state`` (``side1_of``'s
fresh pass for the composition lambdas, and a set walk's own edges) and
``_price`` itself, for the inner graphs of super edges.  ``side1_of``
prices many graphs in one positive-side pass: their entries are gathered
one graph after another, grouped by edge once, and the inner costs of
every super edge of every graph priced in one pass more.
A composer keeps the state of that pass (:class:`Side1`) on the graph it
returns, for the function object it returns, and ``side1_of`` reads it
instead of evaluating rules.  Like the report it is a cache: ``replace``
drops it, ``==`` ignores it, an edge edited in place makes it stale.
Per-input totals are ``math.fsum`` over the per-edge values, so they do not
depend on the order of the edges.  The input-by-input reference they are
tested against, one scalar ``rule_at`` per (edge, input), lives in
``tests/loop_reference.py``.

``flow_entries`` is the one place flows are read.  It gathers the rows of
a graph's flow table (:class:`lgkit.model.Flows`) that serve a list of
inputs into ``FlowEntries``: arrays of the input, edge and flow of every
nonzero entry, in input order and, within an input, in flow order, and
the list of the inputs that have no flow.  Their one grouping by edge
(``by_edge``) serves the ``w1`` values, evaluated edge by edge on first
use, the super-edge recursion of the positive side, the witness and the
mutant search.  The positive side prices one term per
entry, and a total is the fsum of a group of entries: per input, and per
input within a stage.  ``validate`` checks flows from the same arrays.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain
from functools import cached_property
from types import MappingProxyType
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from .indexing import bitstring, input_array
from .model import BooleanFunction, Edge, LearningGraph, groups_of
from .rules import ConstRule, ProductRule, Rule, ScaleRule


class ComplexityError(ValueError):
    pass


class MissingFlowError(ComplexityError):
    pass


def column_fsums(rows: np.ndarray) -> list[float]:
    """Exactly rounded sum of each column, independent of the row order."""
    # one column at a time keeps few Python floats alive at once
    return [math.fsum(col.tolist()) for col in rows.T]


def eval_each(rules: Sequence[Rule], zs: np.ndarray) -> Iterator[np.ndarray]:
    """Yield each rule's weights over ``zs`` in turn, a lookup in its table
    per rule (see :meth:`Rule.eval`); ``zs`` is packed once per support and
    the packing kept only until the support's last use."""
    last_pack = {r.support: k for k, r in enumerate(rules)}
    packs: dict[tuple[int, ...], np.ndarray] = {}
    for k, r in enumerate(rules):
        w = r.eval(zs, packs)
        if last_pack[r.support] == k:
            packs.pop(r.support, None)
        yield w


@dataclass
class FlowEntries:
    """The (input, edge, flow) entries of the flows of a graph at a list of
    inputs: the rows of its flow table that serve them, gathered input
    after input, each in flow order, with zero flows left out.  An input
    that no row serves gives no entries, and its number is in
    ``missing``.  Entries of several graphs priced together number their
    inputs and their edges one graph after another, and ``edges`` holds
    the edges of each graph in turn."""

    input: np.ndarray  # int64: the number of the entry's input in the list
    edge: np.ndarray  # int64
    flow: np.ndarray  # float64
    edges: Sequence[Edge]  # the edges that ``edge`` numbers
    zs: np.ndarray  # the input of every entry
    missing: list[int]  # the numbers of the inputs with no flow, in order

    @cached_property
    def by_edge(self) -> dict[int, np.ndarray]:
        """Every edge with entries, in edge order, to its entries in entry
        order: the one grouping of the entries by edge."""
        return groups_of(self.edge)

    @cached_property
    def w1(self) -> np.ndarray:
        """The edge's w1 at every entry; 0 on empty edges.  On first
        access, each non-empty edge evaluates its ``w1`` on its own
        entries."""
        edges = self.edges
        w1s = np.zeros(len(self.flow))
        for i, grp in self.by_edge.items():
            if edges[i].kind != "empty":
                w1s[grp] = edges[i].w1.eval(self.zs[grp])
        return w1s

    @cached_property
    def core(self) -> np.ndarray:
        """The ``w1`` at every entry of the rule a :class:`ScaleRule` ``w1``
        wraps, evaluated on first access; elsewhere the ``w1``."""
        edges, cores = self.edges, self.w1.copy()
        for i, grp in self.by_edge.items():
            if isinstance(edges[i].w1, ScaleRule) and edges[i].kind != "empty":
                cores[grp] = edges[i].w1.inner.eval(self.zs[grp])
        return cores


def _entries(
    parts: Sequence[tuple[LearningGraph, Sequence[int]]], zeros: bool = False
) -> tuple[FlowEntries, np.ndarray]:
    """The entries of the flows of each graph of ``parts`` at its inputs,
    one graph after another: a gather of the rows of each graph's table,
    zero flows left out unless ``zeros``; and every input, as an input
    array."""
    ks, es, ps, zs, every = [], [], [], [], []
    missing: list[int] = []
    n_in = n_edges = 0
    for g, ys in parts:
        if len(ys):
            inputs = input_array(ys, g.n_bits)
            table = g.flows
            owner, at, lost = table.gather(inputs)
            flow = table.flow[at]
            keep = zeros or flow != 0.0
            if not np.all(keep):
                owner, at, flow = owner[keep], at[keep], flow[keep]
            ks.append(owner + n_in if n_in else owner)
            es.append(table.edge[at] + n_edges if n_edges else table.edge[at])
            ps.append(flow)
            zs.append(inputs[owner])
            every.append(inputs)
            missing += (lost + n_in).tolist()
            n_in += len(inputs)
        n_edges += len(g.edges)
    if len(parts) == 1:
        edges: Sequence[Edge] = parts[0][0].edges
    else:
        edges = tuple(chain.from_iterable(g.edges for g, _ in parts))
    if not ks:
        ks = es = zs = every = [np.zeros(0, dtype=np.int64)]
        ps = [np.zeros(0)]
    cat = _concatenate
    ent = FlowEntries(cat(ks), cat(es), cat(ps), edges, cat(zs), missing)
    return ent, cat(every)


def _concatenate(arrays: list[np.ndarray]) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def flow_entries(g: LearningGraph, ys: Sequence[int]) -> FlowEntries:
    """The entries of the flows ``g`` records at the inputs ``ys``."""
    return _entries([(g, ys)])[0]


def _group_fsums(keys: np.ndarray, values: np.ndarray, n: int) -> list[float]:
    """The ``math.fsum`` of the ``values`` of each key ``0..n-1``, where
    ``keys`` is sorted (as the inputs of flow entries are)."""
    if not len(keys):
        return [0.0] * n
    counts = np.bincount(keys, minlength=n)
    if counts.max() == 1:  # the fsum of one value is the value, -0.0 made 0.0
        sums = np.zeros(n)
        sums[keys] = values + 0.0
        return sums.tolist()
    vals = values.tolist()
    bounds = [0, *accumulate(counts.tolist())]
    return [math.fsum(vals[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def side0_rows(g: LearningGraph, zs: np.ndarray) -> np.ndarray:
    """The side-0 weight of every edge at every input of ``zs`` (see
    :func:`lgkit.indexing.input_array`), one row per edge.

    An empty edge's row is 0.  A super edge's row is its host weight times
    the inner graph's total, and 0 where the host weight is 0.
    """
    rows = np.zeros((len(g.edges), len(zs)))
    live = [i for i, e in enumerate(g.edges) if e.kind != "empty"]
    for i, host in zip(live, eval_each([g.edges[i].w0 for i in live], zs)):
        gadget = g.edges[i].gadget
        if gadget is None:
            rows[i] = host
        else:
            inner = np.array(column_fsums(side0_rows(gadget.inner, zs)))
            rows[i] = np.where(host == 0.0, 0.0, host * inner)
    return rows


Fault = tuple[int, ComplexityError]  # the number of an input and its error


def _price(
    ent: FlowEntries, ys: np.ndarray, starts: list[int]
) -> tuple[np.ndarray, list[Fault | None], np.ndarray | None]:
    """The entries ``ent`` of the flows of some graphs (the parts, each at
    its inputs of ``ys`` from ``starts``, their end last) priced together:
    the side-1 term of each entry, the first fault of each part (the
    number in its inputs of the faulty input, and the error it raises) or
    None, and the inner cost at each entry, or None without a super edge.
    A faulty part's terms are not its costs.

    An entry's term is flow squared over its edge's ``w1``, times the inner
    positive cost for a super edge.  ``w1`` is evaluated only where flow is,
    and the inner costs of every super edge of every part in one pass.

    The first faulty input of a part is the first of its inputs and, in
    that input, the first faulty edge in flow order.  The checks, in order:
    a missing flow, a negative flow, flow on an empty edge, flow on zero
    side-1 weight, and a fault of a super edge's inner graph at that input.
    """
    faults: list[Fault | None] = [None] * (len(starts) - 1)
    firsts: dict[int, int] = {}  # part -> its first faulty input so far
    for k in ent.missing:
        p = bisect_right(starts, k) - 1
        if p not in firsts:
            firsts[p] = k
            error = MissingFlowError(f"no flow recorded for input {ys[k]}")
            faults[p] = (k - starts[p], error)
    if not len(ent.flow):  # no entries: no grouping to do
        return ent.flow, faults, None
    pp, ww = ent.flow, ent.w1
    inner = None  # 1.0 at every entry: p * p * 1.0 is exactly p * p
    inner_faults: dict[int, ComplexityError] = {}  # entry -> error
    sub_parts, groups = [], []
    for i, grp in ent.by_edge.items():
        gadget = ent.edges[i].gadget
        if gadget is not None:
            sub_parts.append((gadget.inner, ent.zs[grp]))
            groups.append(grp)
    if sub_parts:
        inner = np.ones(len(pp))
        sub, every = _entries(sub_parts)
        sub_starts = list(accumulate((len(zs) for _, zs in sub_parts), initial=0))
        terms, sub_faults, _ = _price(sub, every, sub_starts)
        ends = np.searchsorted(sub.input, sub_starts).tolist()
        for q, fault in enumerate(sub_faults):
            if fault is not None:  # its terms are no costs: left out
                inner_faults[int(groups[q][fault[0]])] = fault[1]
                terms[ends[q] : ends[q + 1]] = 0.0
        totals = _group_fsums(sub.input, terms, sub_starts[-1])
        for grp, lo, hi in zip(groups, sub_starts, sub_starts[1:]):
            inner[grp] = totals[lo:hi]
    # entries are in input order, and each input's in flow order, so the
    # first faulty entry of a part is the one the scalar checks would meet first
    bad = np.flatnonzero((pp < 0.0) | (ww == 0.0)).tolist() + sorted(inner_faults)
    for n in sorted(bad):
        k = int(ent.input[n])
        p = bisect_right(starts, k) - 1
        if p in firsts and firsts[p] <= k:
            continue
        firsts[p] = k
        error = _flow_error(ent.edges[int(ent.edge[n])], ys[k], float(pp[n]), ww[n])
        faults[p] = (k - starts[p], error or inner_faults[n])
    # overflow to inf and inf times 0, silent as in the scalar call
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        squares = pp * pp if inner is None else pp * pp * inner
        return squares / ww, faults, inner


def _flow_error(e: Edge, y: int, p: float, w: float) -> ComplexityError | None:
    """The first plain check that the flow ``p`` on the edge ``e`` at input
    ``y`` fails, where ``w`` is the edge's side-1 weight there."""
    if p < 0.0:
        return ComplexityError(f"negative flow {p} on edge {e.src}->{e.dst}")
    if e.kind == "empty":
        return ComplexityError(
            f"flow {p} on empty transition {e.src}->{e.dst} at input {y}"
        )
    if w == 0.0:
        return ComplexityError(
            f"flow {p} on zero side-1 weight {e.src}->{e.dst} at input {y}"
        )
    return None


def side1_totals(
    g: LearningGraph, ys: Sequence[int]
) -> tuple[FlowEntries, np.ndarray, list[float]]:
    """The positive side at the inputs ``ys``: the entries of their flows,
    the side-1 term of each entry and the positive cost at every input, the
    ``math.fsum`` of its entries' terms.  Raises the first fault, as found
    by :func:`_price`."""
    ent, every = _entries([(g, ys)])
    terms, (fault,), _ = _price(ent, every, [0, len(ys)])
    if fault is not None:
        raise fault[1]
    return ent, terms, _group_fsums(ent.input, terms, len(ys))


@dataclass(frozen=True)
class Side1:
    """The flow rows of graphs at their functions' positives, zero flows
    kept, graph after graph (each one's positives from ``starts``, its
    edges numbered on), and per entry its edge, flow, ``w1``, core
    (:attr:`FlowEntries.core`) and inner cost (a super edge's, else 1.0),
    the last three NaN at a zero flow."""

    starts: list[int]
    offsets: np.ndarray  # where each positive's entries start, their end last
    edge: np.ndarray
    flow: np.ndarray
    w1: np.ndarray
    core: np.ndarray
    inner: np.ndarray

    def totals(self) -> list[float]:
        """Each positive's cost, as :func:`side1_totals` prices it."""
        n, live = len(self.offsets) - 1, self.flow != 0.0  # a zero flow is no entry
        owner = np.repeat(np.arange(n), np.diff(self.offsets))[live]
        p, inner, w1 = self.flow[live], self.inner[live], self.w1[live]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _group_fsums(owner, p * p * inner / w1, n)

    def hosted(self, at: np.ndarray, rules: Callable, host: Any = math.nan) -> tuple | None:
        """The ``w1`` and core of the entries at ``at`` under hosted rules, or
        None for one :func:`_step` does not know: ``rules(edge)`` gives an
        edge's rule and hosted rule, and a product's host the ``host``."""
        w1, core = self.w1[at], self.core[at]
        used, which = np.unique(self.edge[at], return_inverse=True)
        steps = [_step(*rules(e)) for e in used.tolist()]
        if not steps or None in steps:
            return None if steps else (w1, core)
        factor, src, scale = (np.array(col)[which] for col in zip(*steps))
        base = np.choose(src, (w1, core, np.ones(len(w1))))
        with np.errstate(over="ignore", invalid="ignore"):
            w1 = np.where(np.isnan(factor), host, factor) * base
        return w1, np.where(scale, base, w1)


def _step(rule: Rule, hosted: Rule) -> tuple[float, int, bool] | None:
    """How ``hosted``, ``rule`` under a host (:func:`lgkit.rules.host_product`),
    follows from ``rule`` by the IEEE operation it performs: a factor (NaN
    for the host's value) times ``rule``'s ``w1`` (0), core (1) or 1.0 (2);
    and whether ``hosted`` is a scale, whose core that operand is."""
    if isinstance(hosted, ScaleRule):  # ``scaled`` folds factors and keeps the inner rule
        wraps = hosted.inner
        if wraps is rule or isinstance(rule, ScaleRule) and wraps is rule.inner:
            return hosted.factor, int(wraps is not rule), True
    elif isinstance(hosted, ConstRule):
        return hosted.value, 2, False
    elif hosted is rule:
        return 1.0, 0, False
    elif isinstance(hosted, ProductRule) and hosted.right is rule:
        return math.nan, 0, False
    return None


def keep_side1(g: LearningGraph, f: BooleanFunction, cols: list[np.ndarray]) -> None:
    """Keep on ``g``, for the object ``f``, the state of its flow rows (at
    the positives of ``f``) with the columns ``w1``, core and inner cost,
    if given and no entry would raise a fault (pricing ``g`` raises it)."""
    t = g.flows
    if cols and np.all((t.flow == 0.0) | (t.flow > 0.0) & (cols[0] > 0.0)):
        state = Side1([0, len(t.offsets) - 1], t.offsets, t.edge, t.flow, *cols)
        g.__dict__["_side1"] = (f, state)


def side1_of(
    pairs: Sequence[tuple[LearningGraph, BooleanFunction]],
) -> tuple[Side1 | None, list[float]]:
    """The side-1 state of the graphs of ``pairs`` at their functions'
    positives (None without one) and each one's largest positive cost: the
    states they keep for those function objects, joined, else one fresh
    pass over all, which raises the first fault of the first faulty pair."""
    starts = list(accumulate((f.truth.bit_count() for _, f in pairs), initial=0))
    if not starts[-1]:  # as for most composition lambdas: nothing to price
        return None, [0.0] * len(pairs)
    kept = [g.__dict__.get("_side1", (None, None)) for g, _ in pairs]
    if all(k is f or not f.truth for (k, _), (_, f) in zip(kept, pairs)):
        bases = accumulate((len(g.edges) for g, _ in pairs), initial=0)
        states = [(st, b) for (_, st), (_, f), b in zip(kept, pairs, bases) if f.truth]
        state = states[0][0] if len(pairs) == 1 else _joined(states, starts)
        totals = state.totals()
    else:
        parts = [(g, f.universe.array(f.truth) if f.truth else ()) for g, f in pairs]
        state, faults, ent, terms = side1_state(*_entries(parts, zeros=True), starts)
        for fault in filter(None, faults):
            raise fault[1]
        totals = _group_fsums(ent.input, terms, starts[-1])
    return state, [max(totals[lo:hi], default=0.0) for lo, hi in zip(starts, starts[1:])]


def _joined(states: list[tuple[Side1, int]], starts: list[int]) -> Side1:
    """One state of the kept ``states``, each with its graph's first edge."""
    sizes = list(accumulate((len(st.edge) for st, _ in states), initial=0))
    offsets = [st.offsets[:-1] + n for (st, _), n in zip(states, sizes)]
    cols = [np.concatenate([getattr(st, a) for st, _ in states])
            for a in ("flow", "w1", "core", "inner")]
    edge = np.concatenate([st.edge + base for st, base in states])
    return Side1(starts, np.concatenate([*offsets, sizes[-1:]]), edge, *cols)


def side1_state(
    whole: FlowEntries, ys: np.ndarray, starts: list[int]
) -> tuple[Side1, list[Fault | None], FlowEntries, np.ndarray]:
    """The entries ``whole``, zero flows kept, priced as :func:`_price`
    prices parts: their state, each part's first fault, and the entries
    without zero flows with their terms."""
    live = whole.flow != 0.0
    cut = (whole.input[live], whole.edge[live], whole.flow[live])
    ent = FlowEntries(*cut, whole.edges, whole.zs[live], whole.missing)
    terms, faults, inner = _price(ent, ys, starts)
    cols = [np.full(len(live), math.nan) for _ in range(3)]
    for col, value in zip(cols, (ent.w1, ent.core, 1.0 if inner is None else inner)):
        col[live] = value
    offsets = np.searchsorted(whole.input, np.arange(starts[-1] + 1))
    return Side1(starts, offsets, whole.edge, whole.flow, *cols), faults, ent, terms


def c1_max(g: LearningGraph, f: BooleanFunction) -> float:
    return side1_of([(g, f)])[1][0]


def _cost_entry(
    name: str,
    c0: float,
    c1: float,
    per0: dict[int, float],
    per1: dict[int, float],
    n_bits: int,
) -> dict[str, Any]:
    return {
        "name": name,
        "c0_max": c0,
        "c1_max": c1,
        "c": math.sqrt(c0 * c1),
        "per_input": {
            "c0": {bitstring(z, n_bits): v for z, v in sorted(per0.items())},
            "c1": {bitstring(z, n_bits): v for z, v in sorted(per1.items())},
        },
    }


@dataclass(frozen=True)
class StageCost:
    name: str
    c0: float
    c1: float
    per_input_c0: Mapping[int, float] = field(default_factory=dict)
    per_input_c1: Mapping[int, float] = field(default_factory=dict)
    # totals with any recorded rebalance factors divided back out
    raw_c0: float | None = None
    raw_c1: float | None = None


@dataclass(frozen=True)
class ComplexityReport:
    c0: float
    c1: float
    n_bits: int
    per_input_c0: Mapping[int, float] = field(default_factory=dict)
    per_input_c1: Mapping[int, float] = field(default_factory=dict)
    stages: tuple[StageCost, ...] = ()

    @property
    def value(self) -> float:
        return math.sqrt(self.c0 * self.c1)

    def to_json(self) -> dict[str, Any]:
        stages = []
        for s in self.stages:
            entry = _cost_entry(
                s.name, s.c0, s.c1, s.per_input_c0, s.per_input_c1, self.n_bits
            )
            if s.raw_c0 is not None:
                entry["raw"] = {"c0_max": s.raw_c0, "c1_max": s.raw_c1}
            stages.append(entry)
        return {
            "stages": stages,
            "total": _cost_entry(
                "total",
                self.c0,
                self.c1,
                self.per_input_c0,
                self.per_input_c1,
                self.n_bits,
            ),
        }


def complexity(g: LearningGraph, f: BooleanFunction) -> ComplexityReport:
    """Evaluate both costs of ``g`` against ``f`` over its whole domain, with
    a breakdown per stage of ``g.stages``: a frozen report, which ``g``
    keeps and returns again for the same object ``f``, not an equal one."""
    if g.__dict__.get("_report", (None,))[0] is f:
        return g.__dict__["_report"][1]
    xs = f.negatives()
    ys = f.positives()
    rows0 = side0_rows(g, input_array(xs, g.n_bits))
    ent, terms, totals = side1_totals(g, ys)
    per0 = MappingProxyType(dict(zip(xs, column_fsums(rows0))))
    per1 = MappingProxyType(dict(zip(ys, totals)))
    stages = []
    for st in g.stages or ():
        factors = dict(st.rebalance or {})
        rows = rows0[list(st.edges)]
        on = np.isin(ent.edge, st.edges)
        keys, parts1 = ent.input[on], terms[on]
        stage_per0 = dict(zip(xs, column_fsums(rows)))
        stage_per1 = dict(zip(ys, _group_fsums(keys, parts1, len(ys))))
        raw0 = raw1 = None
        if factors:
            # side-0 contributions were multiplied by the factor, side-1
            # contributions divided by it
            divisors = np.array([factors.get(i) or 1.0 for i in st.edges])
            raw0 = max([0.0, *column_fsums(rows / divisors[:, None])])
            scale = np.array([factors.get(i) or 1.0 for i in range(len(g.edges))])
            with np.errstate(over="ignore", invalid="ignore"):
                raw_parts = parts1 * scale[ent.edge[on]]
            raw1 = max([0.0, *_group_fsums(keys, raw_parts, len(ys))])
        stages.append(
            StageCost(
                st.name,
                max(stage_per0.values(), default=0.0),
                max(stage_per1.values(), default=0.0),
                MappingProxyType(stage_per0),
                MappingProxyType(stage_per1),
                raw0,
                raw1,
            )
        )
    report = ComplexityReport(
        c0=max(per0.values(), default=0.0),
        c1=max(per1.values(), default=0.0),
        n_bits=g.n_bits,
        per_input_c0=per0,
        per_input_c1=per1,
        stages=tuple(stages),
    )
    g.__dict__["_report"] = (f, report)  # g is frozen: kept as cached_property keeps
    return report
