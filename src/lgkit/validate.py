"""Structural and semantic checks for learning graphs.

Structure: rooted DAG, empty root label, labels grow by exactly the loaded
positions along each edge, weight rules read only loaded positions, empty
transitions weigh zero.  Semantics (given a function): every positive input
has a recorded unit flow that conserves at interior vertices, avoids empty and
zero-weight edges, and ends only at sinks whose loaded positions force the
function to 1; and the linking condition ties side-0 and side-1 weights across
each edge's loaded bit.

Nothing raises on a finding; everything lands in the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .complexity import eval_at, eval_each
from .expand import expand
from .indexing import agreement_blocks, bit_column, bitstring, input_array, mask_of
from .model import BooleanFunction, LearningGraph, ModelError, topological_order
from .rules import ConstRule, ProductRule, Rule, ScaleRule, SparseLoadRule

SEMANTIC = "semantic"
STRUCTURAL = "structural"


@dataclass(frozen=True)
class Violation:
    kind: str
    where: str
    message: str

    def to_json(self) -> dict[str, str]:
        return {"kind": self.kind, "where": self.where, "message": self.message}


@dataclass
class ValidationReport:
    entries: list[Violation] = field(default_factory=list)
    checked: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.entries

    def add(self, kind: str, where: str, message: str) -> None:
        self.entries.append(Violation(kind, where, message))

    def count(self, what: str, n: int = 1) -> None:
        self.checked[what] = self.checked.get(what, 0) + n

    def to_json(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "violations": [v.to_json() for v in self.entries],
            "checked": dict(sorted(self.checked.items())),
        }


def rules_linked(w0: Rule, w1: Rule) -> bool:
    """Side-independence check that implies the linking condition.

    Holds when the two rules are equal, are matched sparse-path steps, or are
    equal wrappers around linked inners.
    """
    if w0 == w1:
        return True
    if isinstance(w0, SparseLoadRule) and isinstance(w1, SparseLoadRule):
        return (
            w0.path == w1.path
            and w0.pos == w1.pos
            and (w0.side, w1.side) == (0, 1)
        )
    if isinstance(w0, ScaleRule) and isinstance(w1, ScaleRule):
        return w0.factor == w1.factor and rules_linked(w0.inner, w1.inner)
    if isinstance(w0, ProductRule) and isinstance(w1, ProductRule):
        return w0.left == w1.left and rules_linked(w0.right, w1.right)
    return False


def _structure(g: LearningGraph, report: ValidationReport, ctx: str = "") -> None:
    if g.root not in g.vertices:
        report.add("root", ctx + g.root, "root vertex missing")
        return
    if g.label(g.root) != ():
        report.add("root", ctx + g.root, f"root label {g.label(g.root)} not empty")
    try:
        topological_order(g)
    except ModelError:
        report.add("cycle", ctx + "graph", "graph contains a cycle")
        return
    seen = {g.root}
    frontier = [g.root]
    while frontier:
        v = frontier.pop()
        for ei in g.out_edges(v):
            w = g.edges[ei].dst
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    for vid in g.vertices:
        if vid not in seen:
            report.add("unreachable", ctx + vid, "not reachable from the root")
    for i, e in enumerate(g.edges):
        where = f"{ctx}edge[{i}] {e.src}->{e.dst}"
        report.count("edges")
        src = set(g.label(e.src))
        dst = set(g.label(e.dst))
        new = e.loads
        if set(new) & src:
            report.add("label-step", where, f"reloads positions {set(new) & src}")
        if dst != src | set(new):
            report.add(
                "label-step",
                where,
                f"head label {sorted(dst)} is not tail plus {sorted(new)}",
            )
        if e.kind == "empty":
            for side, w in ((0, e.w0), (1, e.w1)):
                if not (isinstance(w, ConstRule) and w.value == 0.0):
                    report.add(
                        "empty-weight", where, f"side-{side} weight not zero"
                    )
            continue
        for side, w in ((0, e.w0), (1, e.w1)):
            extra = set(w.support) - dst
            if extra:
                report.add(
                    "support",
                    where,
                    f"side-{side} rule reads unloaded positions {sorted(extra)}",
                )
        if e.gadget is not None:
            _structure(e.gadget.inner, report, ctx=f"{ctx}edge[{i}].")


def _structural_linking(g: LearningGraph, report: ValidationReport, ctx: str = "") -> None:
    for i, e in enumerate(g.edges):
        if e.kind == "empty":
            continue
        report.count("linking-edges")
        if not rules_linked(e.w0, e.w1):
            report.add(
                "linking",
                f"{ctx}edge[{i}] {e.src}->{e.dst}",
                "weight rules are not structurally linked",
            )
        if e.gadget is not None:
            _structural_linking(e.gadget.inner, report, ctx=f"{ctx}edge[{i}].")


def _semantic_linking(
    g: LearningGraph,
    f: BooleanFunction,
    report: ValidationReport,
    rtol: float,
) -> None:
    """Per ordinary edge loading bit j, and per block of inputs that agree on
    the tail label: w0 on the negatives with bit j = c and w1 on the
    positives with bit j != c must all be equal (within ``rtol``).

    Blocks are found by a stable sort on (tail assignment, c); each block's
    min, max and sizes come from ``reduceat``.
    """
    xs = f.negatives()
    ys = f.positives()
    if not xs or not ys:
        return
    # negatives first, so a block's first member is its first negative
    zs = input_array(xs + ys, g.n_bits)
    positive = np.repeat(np.array([0, 1], dtype=np.int64), [len(xs), len(ys)])
    ordinary = [(i, e) for i, e in enumerate(g.edges) if e.kind == "ordinary"]
    # w0 on the negatives, w1 on the positives
    w0s = eval_each([e.w0 for _, e in ordinary], zs[: len(xs)])
    w1s = eval_each([e.w1 for _, e in ordinary], zs[len(xs) :])
    for (i, e), w0, w1 in zip(ordinary, w0s, w1s):
        j = e.load
        alpha = zs & mask_of(g.label(e.src))
        side = bit_column(zs, j) ^ positive  # the c of the block an input joins
        order, bounds = agreement_blocks(alpha, side)
        starts = bounds[:-1]
        n_pos = np.add.reduceat(positive[order], starts)
        n_neg = np.diff(bounds) - n_pos
        checked = (n_neg > 0) & (n_pos > 0)
        if not checked.any():
            continue
        report.count("linking-pairs", int((n_neg * n_pos).sum()))
        vals = np.concatenate((w0, w1))[order]
        lo = np.minimum.reduceat(vals, starts)
        hi = np.maximum.reduceat(vals, starts)
        # negated so that a NaN counts as a violation
        bad = checked & ~(hi - lo <= rtol * np.maximum(1.0, np.abs(hi)))
        head = order[starts]  # first member of each block
        found = []
        for b in np.flatnonzero(bad).tolist():
            # blocks go in order of their assignment's first input, then c
            first = int(np.argmax(alpha == alpha[head[b]]))
            found.append((first, int(side[head[b]]), b))
        for _, c, b in sorted(found):
            w0_first = float(vals[starts[b]])
            w1_first = float(vals[starts[b] + n_neg[b]])
            report.add(
                "linking",
                f"edge[{i}] {e.src}->{e.dst}",
                f"w0={w0_first:.12g} vs w1={w1_first:.12g} on the block "
                f"{bitstring(int(alpha[head[b]]), g.n_bits)} (bit {j + 1}={c})",
            )


def _flows(
    g: LearningGraph,
    f: BooleanFunction,
    report: ValidationReport,
    atol: float,
) -> None:
    xs = f.negatives()
    ys = f.positives()
    flows = [g.flow_for(y) for y in ys]
    # w1 at every (positive, edge) pair with flow above atol
    at: dict[int, list[int]] = {}
    for k, flow in enumerate(flows):
        for ei, p in (flow or {}).items():
            if 0 <= ei < len(g.edges) and p > atol and g.edges[ei].kind != "empty":
                at.setdefault(ei, []).append(k)
    yarr = input_array(ys, g.n_bits)
    weights = eval_at(
        [g.edges[ei].w1 for ei in at], [yarr[ks] for ks in at.values()]
    )
    zero_w1 = {
        (k, ei)
        for (ei, ks), w in zip(at.items(), weights)
        for k in np.asarray(ks)[w == 0.0].tolist()
    }
    vertex_order = {vid: k for k, vid in enumerate(g.vertices)}
    first_negative: dict[str, dict[int, int]] = {}  # sink -> {assignment: input}
    for k, (y, flow) in enumerate(zip(ys, flows)):
        ystr = bitstring(y, g.n_bits)
        if flow is None:
            report.add("missing-flow", ystr, "no flow recorded")
            continue
        report.count("flows")
        balance: dict[str, float] = {}
        for ei, p in flow.items():
            if not 0 <= ei < len(g.edges):
                report.add("flow-edge", ystr, f"flow names unknown edge {ei}")
                continue
            e = g.edges[ei]
            if not math.isfinite(p):
                report.add("non-finite", f"edge[{ei}] {ystr}", f"flow {p} not finite")
            if p < -atol:
                report.add(
                    "flow-negative", f"edge[{ei}] {ystr}", f"flow {p} negative"
                )
            if p > atol and e.kind == "empty":
                report.add(
                    "empty-flow",
                    f"edge[{ei}] {ystr}",
                    f"empty transition carries flow {p}",
                )
            if (k, ei) in zero_w1:
                report.add(
                    "flow-on-zero",
                    f"edge[{ei}] {ystr}",
                    "flow on an edge with zero side-1 weight",
                )
            balance[e.src] = balance.get(e.src, 0.0) - p
            balance[e.dst] = balance.get(e.dst, 0.0) + p
        root_balance = balance.get(g.root, 0.0)
        if abs(root_balance + 1.0) > atol:
            report.add(
                "flow-unit",
                ystr,
                f"root sends {-root_balance:.15g}, expected 1",
            )
        for vid in sorted(balance, key=vertex_order.__getitem__):
            b = balance[vid]
            if vid == g.root:
                continue
            if g.out_edges(vid):
                if abs(b) > atol:
                    report.add(
                        "flow-conservation",
                        f"{vid} {ystr}",
                        f"imbalance {b:.3e}",
                    )
            else:
                if b < -atol:
                    report.add(
                        "flow-conservation",
                        f"{vid} {ystr}",
                        f"sink emits {-b:.3e}",
                    )
                if b > atol:
                    mask = mask_of(g.label(vid))
                    firsts = first_negative.get(vid)
                    if firsts is None:
                        firsts = first_negative[vid] = {}
                        for x in xs:
                            firsts.setdefault(x & mask, x)
                    z = firsts.get(y & mask)
                    if z is not None:
                        report.add(
                            "uncertified-sink",
                            f"{vid} {ystr}",
                            f"sink also matches negative input "
                            f"{bitstring(z, g.n_bits)}",
                        )
                    report.count("certified-sinks")


def validate(
    g: LearningGraph,
    f: BooleanFunction | None = None,
    *,
    linking: str = SEMANTIC,
    flow_atol: float = 1e-12,
    link_rtol: float = 1e-12,
    domain_cap: int = 1 << 20,
) -> ValidationReport:
    """Check a graph, optionally against a function.

    Without ``f`` only structure (and structural linking) is checked.  With
    ``f``, super edges are expanded first and flows, sink certification and
    the linking condition are checked over the function's domain.
    """
    if linking not in (SEMANTIC, STRUCTURAL):
        raise ValueError(f"unknown linking mode {linking!r}")
    report = ValidationReport()
    _structure(g, report)
    if any(v.kind in ("cycle", "root") for v in report.entries):
        return report
    if f is None or linking == STRUCTURAL:
        _structural_linking(g, report)
    if f is None:
        return report
    if len(f.values) > domain_cap:
        raise ValueError(f"domain of size {len(f.values)} exceeds cap {domain_cap}")
    ge = expand(g)
    _flows(ge, f, report, flow_atol)
    if linking == SEMANTIC:
        _semantic_linking(ge, f, report, link_rtol)
    return report
