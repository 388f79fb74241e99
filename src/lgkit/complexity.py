"""Cost evaluation.

The negative cost of a graph at an input sums the side-0 weights of all edges.
The positive cost at an input sums flow squared over side-1 weight along the
committed flow, with the convention that zero flow contributes zero.  A super
edge contributes its host weight times the inner negative cost on side 0, and
flow squared times the inner positive cost over the host weight on side 1.

``complexity`` aggregates both over a function's domain and reports per-stage
breakdowns when the graph carries stage metadata.

``side0_rows`` and ``side1_totals`` are the one place costs are evaluated.
They price a whole set of inputs column-wise, one rule evaluation per
edge, a lookup in the rule's table (see :mod:`lgkit.rules`).
``side1_totals`` is the one positive-side call: it gathers the flow
entries itself, prices one term per entry and raises the first flow
fault.  Everything that prices a graph goes through the two:
``complexity`` (and so rebalancing), ``c1_max`` (the composition lambdas)
and the witness.
Per-input totals are ``math.fsum`` over the per-edge values, so they do not
depend on the order of the edges.  The input-by-input reference they are
tested against, one scalar ``rule_at`` per (edge, input), lives in
``tests/loop_reference.py``.

``flow_entries`` is the one place flows are read.  It reads the flows a
graph records at a list of inputs into ``FlowEntries``: arrays of the
input, edge and flow of every entry, in input order and, within an input,
in flow order, and the list of the inputs that have no flow.  Their one
grouping by edge (``by_edge``) serves the ``w1`` values, evaluated edge by
edge on first use, the super-edge recursion of the positive side, the
witness and the mutant search.  The positive side prices one term per
entry, and a total is the fsum of a group of entries: per input, and per
input within a stage.  ``validate`` checks flows from the same arrays.
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
    inputs: one per nonzero flow, in input order and, within an input, in
    flow order.  An input with no flow gives no entries, and its number is
    in ``missing``."""

    input: np.ndarray  # int64: the number of the entry's input in the list
    edge: np.ndarray  # int64
    flow: np.ndarray  # float64
    graph: LearningGraph
    zs: np.ndarray  # the input of every entry
    missing: list[int]  # the numbers of the inputs with no flow, in order

    @cached_property
    def by_edge(self) -> dict[int, np.ndarray]:
        """Every edge with entries, in edge order, to its entries in entry
        order: the one grouping of the entries by edge."""
        order = np.argsort(self.edge, kind="stable")
        ids, starts = np.unique(self.edge[order], return_index=True)
        return dict(zip(ids.tolist(), np.split(order, starts[1:])))

    @cached_property
    def w1(self) -> np.ndarray:
        """The edge's w1 at every entry; 0 on empty edges.  On first
        access, each non-empty edge evaluates its ``w1`` on its own
        entries."""
        edges = self.graph.edges
        w1s = np.zeros(len(self.flow))
        for i, grp in self.by_edge.items():
            if edges[i].kind != "empty":
                w1s[grp] = edges[i].w1.eval(self.zs[grp])
        return w1s


def flow_entries(g: LearningGraph, ys: Sequence[int]) -> FlowEntries:
    """The entries of the flows ``g`` records at the inputs ``ys``."""
    missing: list[int] = []
    ks: list[int] = []
    es: list[int] = []
    ps: list[float] = []
    for k, y in enumerate(ys):
        flow = g.flow_for(y)
        if flow is None:
            missing.append(k)
        for i, p in (flow or {}).items():
            if p != 0.0:
                ks.append(k)
                es.append(i)
                ps.append(p)
    edge = np.array(es, dtype=np.int64)
    inputs = np.array(ks, dtype=np.int64)
    zs = input_array(ys, g.n_bits)[inputs]
    return FlowEntries(inputs, edge, np.array(ps, dtype=np.float64), g, zs, missing)


def _group_fsums(keys: np.ndarray, values: np.ndarray, n: int) -> list[float]:
    """The ``math.fsum`` of the ``values`` of each key ``0..n-1``, where
    ``keys`` is sorted (as the inputs of flow entries are)."""
    bounds = np.searchsorted(keys, np.arange(n + 1)).tolist()
    vals = values.tolist()
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


def _side1(
    g: LearningGraph, ys: Sequence[int]
) -> tuple[FlowEntries, np.ndarray, tuple[int, ComplexityError] | None]:
    """The entries of the flows at ``ys`` and the side-1 term of each, or the
    number in ``ys`` of the first faulty input and the error it raises.

    An entry's term is flow squared over its edge's ``w1``, times the inner
    positive cost for a super edge.  ``w1`` is evaluated only where flow is.

    The first faulty input is the first of ``ys`` and, in that input, the
    first faulty edge in flow order.  The checks, in order: a missing flow,
    a negative flow, flow on an empty edge, flow on zero side-1 weight, and
    a fault of a super edge's inner graph at that input.
    """
    ent = flow_entries(g, ys)
    missing: tuple[int, ComplexityError] | None = None  # the first input without a flow
    if ent.missing:
        k = ent.missing[0]
        missing = (k, MissingFlowError(f"no flow recorded for input {ys[k]}"))
    if not len(ent.flow):  # as for most composition lambdas: no grouping to do
        return ent, ent.flow, missing
    pp, ww = ent.flow, ent.w1
    inner = np.ones(len(pp))  # p * p * 1.0 is exactly p * p
    inner_faults: dict[int, ComplexityError] = {}  # entry -> error
    for i, grp in ent.by_edge.items():
        gadget = g.edges[i].gadget
        if gadget is not None:
            sub_ys = [ys[k] for k in ent.input[grp].tolist()]
            sub, terms, fault = _side1(gadget.inner, sub_ys)
            if fault is None:
                inner[grp] = _group_fsums(sub.input, terms, len(grp))
            else:
                inner_faults[int(grp[fault[0]])] = fault[1]
    # entries are in input order, and each input's in flow order, so the
    # first faulty entry is the one the scalar checks would meet first
    bad = np.flatnonzero((pp < 0.0) | (ww == 0.0)).tolist() + list(inner_faults)
    if bad and (missing is None or ent.input[min(bad)] < missing[0]):
        n = min(bad)
        k = int(ent.input[n])
        error = _flow_error(g, int(ent.edge[n]), ys[k], float(pp[n]), ww[n])
        return ent, pp[:0], (k, error or inner_faults[n])
    if missing is not None:
        return ent, pp[:0], missing
    # overflow to inf and inf times 0, silent as in the scalar call
    with np.errstate(over="ignore", invalid="ignore"):
        return ent, pp * pp * inner / ww, None


def _flow_error(
    g: LearningGraph, i: int, y: int, p: float, w: float
) -> ComplexityError | None:
    """The first plain check that the flow ``p`` on edge ``i`` at input ``y``
    fails, where ``w`` is the edge's side-1 weight there."""
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
    g: LearningGraph, ys: Sequence[int]
) -> tuple[FlowEntries, np.ndarray, list[float]]:
    """The positive side at the inputs ``ys``: the entries of their flows,
    the side-1 term of each entry and the positive cost at every input, the
    ``math.fsum`` of its entries' terms.  Raises the first fault, as found
    by :func:`_side1`."""
    ent, terms, fault = _side1(g, ys)
    if fault is not None:
        raise fault[1]
    return ent, terms, _group_fsums(ent.input, terms, len(ys))


def c1_max(g: LearningGraph, f: BooleanFunction) -> float:
    return max(side1_totals(g, f.positives())[2], default=0.0)


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
    ent, terms, totals = side1_totals(g, ys)
    per0 = dict(zip(xs, column_fsums(rows0)))
    per1 = dict(zip(ys, totals))
    report = ComplexityReport(
        c0=max(per0.values(), default=0.0),
        c1=max(per1.values(), default=0.0),
        n_bits=g.n_bits,
        per_input_c0=per0,
        per_input_c1=per1,
    )
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
