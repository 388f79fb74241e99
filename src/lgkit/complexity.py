"""Cost evaluation.

The negative cost of a graph at an input sums the side-0 weights of all edges.
The positive cost at an input sums flow squared over side-1 weight along the
committed flow, with the convention that zero flow contributes zero.  A super
edge contributes its host weight times the inner negative cost on side 0, and
flow squared times the inner positive cost over the host weight on side 1.

``complexity`` aggregates both over a function's domain and reports per-stage
breakdowns when the graph carries stage metadata.

``edge_c0``/``graph_c0`` and ``edge_c1``/``graph_c1`` price one input at a
time and are the reference.  ``side0_rows`` and ``side1_terms`` price a whole
set of inputs column-wise, evaluating each rule object once per call, and are
what ``complexity``, ``c0_max``/``c1_max``, validation and the witness use.
Per-input totals are ``math.fsum`` over the same values, so both routes give
the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, NoReturn, Sequence

import numpy as np

from .indexing import bitstring, input_array
from .model import BooleanFunction, Edge, LearningGraph, StageInfo
from .rules import Rule


class ComplexityError(ValueError):
    pass


class MissingFlowError(ComplexityError):
    pass


def edge_c0(g: LearningGraph, e: Edge, z: int) -> float:
    if e.kind == "empty":
        return 0.0
    if e.gadget is None:
        return e.w0(z)
    host = e.w0(z)
    if host == 0.0:
        return 0.0
    return host * graph_c0(e.gadget.inner, z)


def graph_c0(g: LearningGraph, z: int) -> float:
    # fsum keeps repeated equal prices exact (a dense path must cost K^2)
    return math.fsum(edge_c0(g, e, z) for e in g.edges)


def edge_c1(g: LearningGraph, e: Edge, p: float, y: int) -> float:
    if p == 0.0:
        return 0.0
    if p < 0.0:
        raise ComplexityError(f"negative flow {p} on edge {e.src}->{e.dst}")
    if e.kind == "empty":
        raise ComplexityError(
            f"flow {p} on empty transition {e.src}->{e.dst} at input {y}"
        )
    w = e.w1(y)
    if w == 0.0:
        raise ComplexityError(
            f"flow {p} on zero side-1 weight {e.src}->{e.dst} at input {y}"
        )
    if e.gadget is None:
        return p * p / w
    return p * p * graph_c1(e.gadget.inner, y) / w


def graph_c1(g: LearningGraph, y: int, flow: dict[int, float] | None = None) -> float:
    if flow is None:
        flow = g.flow_for(y)
    if flow is None:
        raise MissingFlowError(f"no flow recorded for input {y}")
    return math.fsum(edge_c1(g, g.edges[i], p, y) for i, p in flow.items())


def column_fsums(rows: np.ndarray) -> list[float]:
    """Exactly rounded sum of each column, independent of the row order."""
    # one column at a time keeps few Python floats alive at once
    return [math.fsum(col.tolist()) for col in rows.T]


def eval_each(rules: Sequence[Rule], zs: np.ndarray) -> Iterator[np.ndarray]:
    """Yield each rule's weights over ``zs`` in turn.  A rule object met
    again is evaluated once and its weights kept only until its last use."""
    last = {id(r): k for k, r in enumerate(rules)}
    kept: dict[int, np.ndarray] = {}
    for k, r in enumerate(rules):
        w = kept.pop(id(r), None)
        if w is None:
            w = r.eval(zs)
        if last[id(r)] > k:
            kept[id(r)] = w
        yield w


def eval_at(rules: Sequence[Rule], zs: Sequence[np.ndarray]) -> list[np.ndarray]:
    """``rules[k].eval(zs[k])`` for every k, one call per distinct rule object
    on the concatenation of its inputs."""
    groups: dict[int, list[int]] = {}
    for k, r in enumerate(rules):
        groups.setdefault(id(r), []).append(k)
    out: list[np.ndarray] = [np.empty(0)] * len(rules)
    for ks in groups.values():
        if len(ks) == 1:
            out[ks[0]] = rules[ks[0]].eval(zs[ks[0]])
            continue
        values = rules[ks[0]].eval(np.concatenate([zs[k] for k in ks]))
        cuts = np.cumsum([len(zs[k]) for k in ks[:-1]])
        for k, v in zip(ks, np.split(values, cuts)):
            out[k] = v
    return out


def side0_rows(g: LearningGraph, zs: np.ndarray) -> np.ndarray:
    """``edge_c0`` of every edge at every input of ``zs`` (see
    :func:`lgkit.indexing.input_array`), one row per edge.

    A super edge's row is its host weight times the inner graph's total, and
    0 where the host weight is 0.
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


def side1_terms(g: LearningGraph, ys: Sequence[int]) -> list[dict[int, float]]:
    """``edge_c1`` of every edge with nonzero flow, per input of ``ys``: one
    ``{edge index: contribution}`` map per input.

    ``w1`` is evaluated only where flow is.  Raises what ``graph_c1`` raises,
    for the same input.
    """
    at: dict[int, tuple[list[int], list[float]]] = {}  # edge -> (input numbers, flows)
    for k, y in enumerate(ys):
        flow = g.flow_for(y)
        if flow is None:
            _raise_first_error(g, ys)
        for i, p in flow.items():
            if p != 0.0:
                ks, ps = at.setdefault(i, ([], []))
                ks.append(k)
                ps.append(p)
    for i, (_, ps) in at.items():
        if (
            not -len(g.edges) <= i < len(g.edges)  # g.edges[i] as in graph_c1
            or g.edges[i].kind == "empty"
            or any(p < 0.0 for p in ps)
        ):
            _raise_first_error(g, ys)
    yarr = input_array(ys, g.n_bits)
    edges = list(at)
    weights = eval_at(
        [g.edges[i].w1 for i in edges], [yarr[at[i][0]] for i in edges]
    )
    terms: list[dict[int, float]] = [{} for _ in ys]
    for i, w in zip(edges, weights):
        ks, ps = at[i]
        if (w == 0.0).any():
            _raise_first_error(g, ys)
        p = np.array(ps)
        gadget = g.edges[i].gadget
        if gadget is None:
            values = p * p / w
        else:
            try:
                inner = side1_totals(gadget.inner, [ys[k] for k in ks])
            except ComplexityError:
                _raise_first_error(g, ys)
            values = p * p * np.array(inner) / w
        for k, v in zip(ks, values.tolist()):
            terms[k][i] = v
    return terms


def _raise_first_error(g: LearningGraph, ys: Sequence[int]) -> NoReturn:
    # the scalar reference names the same input and edge as it always has
    for y in ys:
        graph_c1(g, y)
    raise ComplexityError("column-wise and scalar side-1 checks disagree")


def side1_totals(g: LearningGraph, ys: Sequence[int]) -> list[float]:
    """``graph_c1`` at every input of ``ys``."""
    return [math.fsum(t.values()) for t in side1_terms(g, ys)]


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


def complexity(
    g: LearningGraph,
    f: BooleanFunction,
    stages: Iterable[StageInfo] | None = None,
) -> ComplexityReport:
    """Evaluate both costs of ``g`` against ``f`` over its whole domain."""
    if stages is None:
        stages = g.stages or ()
    stage_list = list(stages)
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
    for st in stage_list:
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
