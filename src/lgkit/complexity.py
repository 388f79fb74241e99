"""Cost evaluation.

The negative cost of a graph at an input sums the side-0 weights of all edges.
The positive cost at an input sums flow squared over side-1 weight along the
committed flow, with the convention that zero flow contributes zero.  A super
edge contributes its host weight times the inner negative cost on side 0, and
flow squared times the inner positive cost over the host weight on side 1.

``complexity`` aggregates both over a function's domain and reports per-stage
breakdowns when the graph carries stage metadata.

``side0_rows`` and ``side1_terms`` are the one place costs are evaluated.
They price a whole set of inputs column-wise, evaluating each rule object
once per call, as a lookup in the rule's table (see :mod:`lgkit.rules`).
Everything that prices a graph goes through them: ``complexity``,
``c0_max``/``c1_max`` (and so rebalancing and the composition lambdas) and
``graph_c0``/``graph_c1``.
Per-input totals are ``math.fsum`` over the per-edge values, so they do not
depend on the order of the edges.  The input-by-input reference they are
tested against, one scalar ``rule_at`` per (edge, input), lives in
``tests/loop_reference.py``.

``flow_entries`` is the one place flows are read: it lists the (input, edge,
flow) entries of a set of flows, with each edge's ``w1`` at them evaluated
on first use.
``side1_terms``, ``validate``, ``build_witness`` and ``linking_mutants`` take
their entries from it, each with its own filter and missing-flow rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterator, Sequence

import numpy as np

from .indexing import bitstring, input_array
from .model import BooleanFunction, LearningGraph
from .rules import Rule


class ComplexityError(ValueError):
    pass


class MissingFlowError(ComplexityError):
    pass


def column_fsums(rows: np.ndarray) -> list[float]:
    """Exactly rounded sum of each column, independent of the row order."""
    # one column at a time keeps few Python floats alive at once
    return [math.fsum(col.tolist()) for col in rows.T]


def eval_each(rules: Sequence[Rule], zs: np.ndarray) -> Iterator[np.ndarray]:
    """Yield each rule's weights over ``zs`` in turn.  A rule object met
    again is evaluated once and its weights kept only until its last use;
    likewise ``zs`` is packed once per support."""
    last = {id(r): k for k, r in enumerate(rules)}
    last_pack = {r.support: k for k, r in enumerate(rules)}
    kept: dict[int, np.ndarray] = {}
    packs: dict[tuple[int, ...], np.ndarray] = {}
    for k, r in enumerate(rules):
        w = kept.pop(id(r), None)
        if w is None:
            w = r.eval(zs, packs)
        if last_pack[r.support] == k:
            packs.pop(r.support, None)
        if last[id(r)] > k:
            kept[id(r)] = w
        yield w


@dataclass
class FlowEntries:
    """The (input, edge, flow) entries of a list of flows: one per nonzero
    flow and one per flow on an unknown edge, in input order and, within an
    input, in flow order.  A missing flow (``None``) gives no entries."""

    input: np.ndarray  # int64: the number of the entry's flow in the list
    edge: list[int]
    flow: np.ndarray  # float64
    at: dict[int, list[int]]  # edge -> its entries, in input order
    graph: LearningGraph
    zs: np.ndarray  # the input of every entry

    @cached_property
    def w1(self) -> np.ndarray:
        """The edge's w1 at every entry; 0 on unknown and empty edges.  Each
        ``w1`` object is evaluated once, on first access, on the entries of
        every known, non-empty edge that carries it."""
        edges = self.graph.edges
        by_rule: dict[int, tuple[Rule, list[int]]] = {}  # id(w1) -> w1, entries
        for i, grp in self.at.items():
            if 0 <= i < len(edges) and edges[i].kind != "empty":
                by_rule.setdefault(id(edges[i].w1), (edges[i].w1, []))[1].extend(grp)
        w1s = np.zeros(len(self.flow))
        for w1, grp in by_rule.values():
            w1s[grp] = w1.eval(self.zs[grp])
        return w1s


def flow_entries(
    g: LearningGraph, flows: Sequence[dict[int, float] | None], zs: np.ndarray
) -> FlowEntries:
    """The entries of ``flows``, where ``flows[k]`` is the flow at input
    ``zs[k]``."""
    n_edges = len(g.edges)
    ks: list[int] = []
    es: list[int] = []
    ps: list[float] = []
    at: dict[int, list[int]] = {}
    for k, flow in enumerate(flows):
        for i, p in (flow or {}).items():
            if p != 0.0 or not 0 <= i < n_edges:
                at.setdefault(i, []).append(len(ks))
                ks.append(k)
                es.append(i)
                ps.append(p)
    return FlowEntries(
        np.array(ks, dtype=np.int64), es, np.array(ps, dtype=np.float64), at, g, zs[ks]
    )


def side0_rows(g: LearningGraph, zs: np.ndarray) -> np.ndarray:
    """The side-0 weight of every edge at every input of ``zs`` (see
    :func:`lgkit.indexing.input_array`), one row per edge.

    An empty edge's row is 0.  A super edge's row is its host weight times
    the inner graph's total, and 0 where the host weight is 0.
    """
    rows = np.zeros((len(g.edges), len(zs)))
    live = [i for i, e in enumerate(g.edges) if e.kind != "empty"]
    totals: dict[int, np.ndarray] = {}  # id(inner graph) -> its column sums
    for i, host in zip(live, eval_each([g.edges[i].w0 for i in live], zs)):
        gadget = g.edges[i].gadget
        if gadget is None:
            rows[i] = host
            continue
        inner = totals.get(id(gadget.inner))
        if inner is None:
            inner = totals[id(gadget.inner)] = np.array(
                column_fsums(side0_rows(gadget.inner, zs))
            )
        rows[i] = np.where(host == 0.0, 0.0, host * inner)
    return rows


def side1_terms(
    g: LearningGraph, ys: Sequence[int], ent: FlowEntries | None = None
) -> list[dict[int, float]]:
    """The side-1 contribution of every edge with nonzero flow, per input of
    ``ys``: one ``{edge index: contribution}`` map per input.

    An edge's contribution is flow squared over its ``w1``, times the inner
    positive cost for a super edge.  ``w1`` is evaluated only where flow is.
    A caller that has already gathered the entries of the flows at ``ys``
    (every one recorded) with :func:`flow_entries` passes them as ``ent``.

    Raises :class:`ComplexityError` for the first faulty input of ``ys`` and,
    in that input, for the first faulty edge in flow order.  The checks, in
    order: a missing flow, an edge outside ``0..len(edges)-1`` (whatever its
    flow), a negative flow, flow on an empty edge, flow on zero side-1
    weight, and a fault of a super edge's inner graph at that input.
    """
    terms, fault = _side1(g, ys, ent)
    if fault is not None:
        raise fault[1]
    return terms


def _side1(
    g: LearningGraph, ys: Sequence[int], ent: FlowEntries | None = None
) -> tuple[list[dict[int, float]], tuple[int, ComplexityError] | None]:
    """``side1_terms``, or the number in ``ys`` of the first faulty input and
    the error it raises."""
    n_edges = len(g.edges)
    missing: tuple[int, ComplexityError] | None = None  # the first input without a flow
    if ent is None:
        flows: list[dict[int, float]] = []
        for k, y in enumerate(ys):
            flow = g.flow_for(y)
            if flow is None:
                missing = (k, MissingFlowError(f"no flow recorded for input {y}"))
                break
            flows.append(flow)
        ent = flow_entries(g, flows, input_array(ys[: len(flows)], g.n_bits))
    ks, es, pp, ww, at = ent.input.tolist(), ent.edge, ent.flow, ent.w1, ent.at
    if not ks:
        return [{} for _ in ys], missing
    live = [i for i in at if 0 <= i < n_edges and g.edges[i].kind != "empty"]
    inner = np.ones(len(es))  # p * p * 1.0 is exactly p * p
    inner_faults: dict[int, ComplexityError] = {}  # entry -> error
    for i in live:
        grp = at[i]
        gadget = g.edges[i].gadget
        if gadget is not None:
            sub, fault = _side1(gadget.inner, [ys[ks[n]] for n in grp])
            if fault is None:
                inner[grp] = [math.fsum(t.values()) for t in sub]
            else:
                inner_faults[grp[fault[0]]] = fault[1]
    # entries are in input order, and each input's in flow order, so the
    # first faulty entry is the one the scalar checks would meet first
    bad = np.flatnonzero((pp < 0.0) | (ww == 0.0)).tolist() + list(inner_faults)
    if bad:
        n = min(bad)
        y = ys[ks[n]]
        p = g.flow_for(y)[es[n]]
        error = _flow_error(g, es[n], p, y, ww[n]) or inner_faults[n]
        return [], (ks[n], error)
    if missing is not None:
        return [], missing
    # overflow to inf and inf times 0, silent as in the scalar call
    with np.errstate(over="ignore", invalid="ignore"):
        values = pp * pp * inner / ww
    terms: list[dict[int, float]] = [{} for _ in ys]
    for k, i, v in zip(ks, es, values.tolist()):
        terms[k][i] = v
    return terms, None


def _flow_error(
    g: LearningGraph, i: int, p: float, y: int, w: float
) -> ComplexityError | None:
    """The first plain check that flow ``p`` on edge ``i`` at input ``y``
    fails, where ``w`` is the edge's side-1 weight there (0 if unknown)."""
    if not 0 <= i < len(g.edges):
        return ComplexityError(f"flow {p} on unknown edge {i} at input {y}")
    e = g.edges[i]
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
    g: LearningGraph, ys: Sequence[int], ent: FlowEntries | None = None
) -> list[float]:
    """The positive cost at every input of ``ys`` (``ent`` as in
    :func:`side1_terms`)."""
    return [math.fsum(t.values()) for t in side1_terms(g, ys, ent)]


def graph_c0(g: LearningGraph, z: int) -> float:
    """The negative cost at one input."""
    return column_fsums(side0_rows(g, input_array([z], g.n_bits)))[0]


def graph_c1(g: LearningGraph, y: int) -> float:
    """The positive cost at one input."""
    return side1_totals(g, [y])[0]


def c0_max(g: LearningGraph, f: BooleanFunction) -> float:
    xs = input_array(f.negatives(), g.n_bits)
    return max(column_fsums(side0_rows(g, xs)), default=0.0)


def c1_max(g: LearningGraph, f: BooleanFunction) -> float:
    return max(side1_totals(g, f.positives()), default=0.0)


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


@dataclass
class StageCost:
    name: str
    c0: float
    c1: float
    per_input_c0: dict[int, float] = field(default_factory=dict)
    per_input_c1: dict[int, float] = field(default_factory=dict)
    # totals with any recorded rebalance factors divided back out
    raw_c0: float | None = None
    raw_c1: float | None = None


@dataclass
class ComplexityReport:
    c0: float
    c1: float
    n_bits: int
    per_input_c0: dict[int, float] = field(default_factory=dict)
    per_input_c1: dict[int, float] = field(default_factory=dict)
    stages: list[StageCost] = field(default_factory=list)

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
    a breakdown per stage of ``g.stages``."""
    xs = f.negatives()
    ys = f.positives()
    rows0 = side0_rows(g, input_array(xs, g.n_bits))
    terms1 = side1_terms(g, ys)
    per0 = dict(zip(xs, column_fsums(rows0)))
    per1 = {y: math.fsum(t.values()) for y, t in zip(ys, terms1)}
    report = ComplexityReport(
        c0=max(per0.values(), default=0.0),
        c1=max(per1.values(), default=0.0),
        n_bits=g.n_bits,
        per_input_c0=per0,
        per_input_c1=per1,
    )
    for st in g.stages or ():
        edge_ids = set(st.edges)
        factors = dict(st.rebalance or {})
        rows = rows0[list(st.edges)]
        parts1 = [{i: v for i, v in t.items() if i in edge_ids} for t in terms1]
        stage_per0 = dict(zip(xs, column_fsums(rows)))
        stage_per1 = {y: math.fsum(t.values()) for y, t in zip(ys, parts1)}
        raw0 = raw1 = None
        if factors:
            # side-0 contributions were multiplied by the factor, side-1
            # contributions divided by it
            divisors = np.array([factors.get(i) or 1.0 for i in st.edges])
            raw0 = max([0.0, *column_fsums(rows / divisors[:, None])])
            sums1 = [
                math.fsum(v * (factors.get(i) or 1.0) for i, v in t.items())
                for t in parts1
            ]
            raw1 = max([0.0, *sums1])
        report.stages.append(
            StageCost(
                st.name,
                max(stage_per0.values(), default=0.0),
                max(stage_per1.values(), default=0.0),
                stage_per0,
                stage_per1,
                raw0,
                raw1,
            )
        )
    return report
