"""Structural and semantic checks for learning graphs.

Structure: a DAG whose vertices are all reachable from the root, labels
grow by exactly the loaded positions along each edge, weight rules read
only loaded positions, empty transitions weigh zero.  The references a
graph holds (its root, edge ends, flow keys and stage edges) are checked
when it is made (see :class:`lgkit.model.LearningGraph`), so none is a
finding here.  Semantics (given a function): every positive input
has a recorded unit flow that conserves at interior vertices, avoids empty
and zero-weight edges, and ends only at sinks whose loaded positions force
the function to 1; and the linking condition ties side-0 and side-1
weights across each edge's loaded bit.

Nothing raises on a finding; everything lands in the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Any

import numpy as np

from .complexity import eval_each, flow_entries
from .expand import expand
from .indexing import agreement_layout, bitstring, input_array, mask_of
from .model import BooleanFunction, LearningGraph, ModelError, topological_order
from .rules import ConstRule, DispatchRule, ProductRule, Rule, ScaleRule
from .rules import SparseLoadRule

FLOW_ATOL = 1e-12
LINK_RTOL = 1e-12
DOMAIN_CAP = 1 << 20


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


def rules_linked(w0: Rule, w1: Rule, loads: tuple[int, ...]) -> bool:
    """Side-independence check that implies the linking condition on an edge
    that loads the positions ``loads``.

    Holds when the two rules are equal and read no loaded position, are
    matched sparse-path steps whose cheap bit is the one loaded position,
    scale linked rules by one factor, are products of linked rules, or are
    dispatches on unloaded positions with the same cases, each case and the
    default linked.
    """
    if w0 == w1:
        return not set(w0.support) & set(loads)
    if isinstance(w0, SparseLoadRule) and isinstance(w1, SparseLoadRule):
        cheap = w0.path[w0.pos - 1]
        return (
            (w0.path, w0.pos, w0.side, w1.side) == (w1.path, w1.pos, 0, 1)
            and loads == (cheap,)
            and cheap not in w0.path[: w0.pos - 1]
        )
    if isinstance(w0, ScaleRule) and isinstance(w1, ScaleRule):
        return w0.factor == w1.factor and rules_linked(w0.inner, w1.inner, loads)
    if isinstance(w0, ProductRule) and isinstance(w1, ProductRule):
        return rules_linked(w0.left, w1.left, loads) and rules_linked(
            w0.right, w1.right, loads
        )
    if isinstance(w0, DispatchRule) and isinstance(w1, DispatchRule):
        return (
            w0.indices == w1.indices
            and not set(w0.indices) & set(loads)
            and w0.cases.keys() == w1.cases.keys()
            and rules_linked(w0.default, w1.default, loads)
            and all(rules_linked(r, w1.cases[k], loads) for k, r in w0.cases.items())
        )
    return False


def _structure(g: LearningGraph, report: ValidationReport, ctx: str = "") -> bool:
    """Report the structural findings of ``g``, and return whether
    :func:`lgkit.expand.expand` can place every edge: not when a super
    edge's head label is not its tail label plus its gadget's loads, here
    or in a gadget."""
    try:
        topological_order(g)
    except ModelError:
        report.add("cycle", ctx + "graph", "graph contains a cycle")
        return False
    expandable = True
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
            expandable &= e.gadget is None
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
            expandable &= _structure(e.gadget.inner, report, ctx=f"{ctx}edge[{i}].")
    return expandable


def _structural_linking(g: LearningGraph, report: ValidationReport, ctx: str = "") -> None:
    for i, e in enumerate(g.edges):
        if e.kind == "empty":
            continue
        report.count("linking-edges")
        if not rules_linked(e.w0, e.w1, e.loads):
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
) -> None:
    """Per ordinary edge loading bit j, and per block of inputs that agree on
    the tail label: w0 on the negatives with bit j = c and w1 on the
    positives with bit j != c must all be equal (within ``LINK_RTOL``).

    The edges that load j from one tail label share their blocks, which
    :func:`lgkit.indexing.agreement_layout` lays out per position.  Each
    edge's row, w0 on the negatives then w1 on the positives, is reduced
    over them by ``reduceat``, one matrix per label.  Reported by edge.
    """
    xs, ys = f.negatives(), f.positives()
    if not xs or not ys:
        return
    # negatives first, so a block's first member is its first negative
    zs = input_array(xs + ys, g.n_bits)
    by_load = g.by_load()
    ordinary = [i for grp in by_load.values() for ids in grp.values() for i in ids]
    # w0 on the negatives, w1 on the positives
    weights = zip(
        eval_each([g.edges[i].w0 for i in ordinary], zs[: len(xs)]),
        eval_each([g.edges[i].w1 for i in ordinary], zs[len(xs) :]),
    )
    packed: dict = {}
    pairs = 0
    found = []
    for j, by_tail in by_load.items():
        layout = agreement_layout(zs, len(xs), j, list(by_tail), packed)
        for (tail, ids), order, bounds in zip(by_tail.items(), *layout):
            starts = bounds[:-1]
            n_neg = np.add.reduceat(order < len(xs), starts)
            n_pos = bounds[1:] - starts - n_neg
            pairs += len(ids) * int(n_neg @ n_pos)
            vals = np.stack([np.concatenate(ws)[order] for ws in islice(weights, len(ids))])
            lo = np.minimum.reduceat(vals, starts, axis=1)
            hi = np.maximum.reduceat(vals, starts, axis=1)
            if not (hi - lo).any():
                continue  # no block spreads, so none is reported (inf - inf is NaN)
            # negated so that a NaN counts as a violation
            bad = (n_neg > 0) & (n_pos > 0)
            bad = bad & ~(hi - lo <= LINK_RTOL * np.maximum(1.0, np.abs(hi)))
            for r, b in zip(*np.nonzero(bad)):
                z = order[starts[b]]  # the block's first negative
                c = int((zs[z] >> j) & 1)
                alpha = zs & mask_of(tail)
                w0, w1 = vals[r, starts[b]], vals[r, starts[b] + n_neg[b]]
                message = (
                    f"w0={w0:.12g} vs w1={w1:.12g} on the block "
                    f"{bitstring(int(alpha[z]), g.n_bits)} (bit {j + 1}={c})"
                )
                # by edge, then the first input of the block's assignment, then c
                found.append((ids[r], int(np.argmax(alpha == alpha[z])), c, message))
    if pairs:
        report.count("linking-pairs", pairs)
    for i, _, _, message in sorted(found):
        e = g.edges[i]
        report.add("linking", f"edge[{i}] {e.src}->{e.dst}", message)


def _flows(g: LearningGraph, f: BooleanFunction, report: ValidationReport) -> None:
    """The flow checks, from the flow entries: the per-entry checks as
    masks, the vertex balances as one ``bincount``, and each sink certified
    once per assignment of its label.

    A positive's findings come in order: a missing flow, the entry checks
    in flow order, the unit check at the root, then the touched vertices in
    vertex order.  A balance adds src −p, then dst +p, per entry in entry
    order, so it has the bits of a walk over the flow.  A zero flow has no
    entry: it would fail no check, and adding ±0 leaves every balance as it
    is, as none is ever −0.0.
    """
    ys = f.positives()
    ent = flow_entries(g, ys)
    vids = list(g.vertices)
    vertex = {vid: v for v, vid in enumerate(vids)}
    # (input, phase, place in the phase, kind, vertex or edge, message)
    found: list[tuple[int, int, int, str, str, str]] = []

    def add(k: int, phase: int, at: int, kind: str, where: str, message: str) -> None:
        y = bitstring(ys[k], g.n_bits)
        found.append((k, phase, at, kind, f"{where} {y}" if where else y, message))

    for k in ent.missing:
        add(k, 0, 0, "missing-flow", "", "no flow recorded")
    if len(ys) > len(ent.missing):
        report.count("flows", len(ys) - len(ent.missing))

    empty = np.array([e.kind == "empty" for e in g.edges], dtype=bool)[ent.edge]
    p = ent.flow
    live = p > FLOW_ATOL
    # w1 is 0 on empty edges too, which the empty-flow check reports
    zero_w1 = live & ~empty & (ent.w1 == 0.0)
    checks = (
        ("non-finite", ~np.isfinite(p), "flow {p} not finite"),
        ("flow-negative", p < -FLOW_ATOL, "flow {p} negative"),
        ("empty-flow", live & empty, "empty transition carries flow {p}"),
        ("flow-on-zero", zero_w1, "flow on an edge with zero side-1 weight"),
    )
    for c, (kind, mask, text) in enumerate(checks):
        for n in np.flatnonzero(mask).tolist():
            k, where = int(ent.input[n]), f"edge[{int(ent.edge[n])}]"
            add(k, 1, n * len(checks) + c, kind, where, text.format(p=float(p[n])))

    # the balance of every touched (input, vertex), keyed input * V + vertex
    n_v = len(vids)
    src = np.array([vertex[e.src] for e in g.edges], dtype=np.int64)
    dst = np.array([vertex[e.dst] for e in g.edges], dtype=np.int64)
    ks, es = ent.input, ent.edge
    keys = np.stack((ks * n_v + src[es], ks * n_v + dst[es]), axis=1).ravel()
    touched, slot = np.unique(keys, return_inverse=True)
    balance = np.bincount(slot, np.stack((-p, p), axis=1).ravel(), len(touched))
    t_input, t_vertex = np.divmod(touched, n_v)
    at_root = t_vertex == vertex[g.root]
    root_balance = np.zeros(len(ys))
    root_balance[t_input[at_root]] = balance[at_root]
    root_balance[ent.missing] = -1.0  # a missing flow is reported as such
    for k in np.flatnonzero(np.abs(root_balance + 1.0) > FLOW_ATOL).tolist():
        sent = -float(root_balance[k])
        add(k, 2, 0, "flow-unit", "", f"root sends {sent:.15g}, expected 1")
    has_out = [bool(g.out_edges(vid)) for vid in vids]
    masks = [mask_of(g.label(vid)) for vid in vids]
    negatives = f.dom & ~f.truth
    # (sink, assignment of its label) -> the smallest negative that matches it
    matches: dict[tuple[int, int], int | None] = {}
    reached = 0  # sinks with inflow, one per input
    for n in np.flatnonzero(~at_root & (np.abs(balance) > FLOW_ATOL)).tolist():
        k, v, b = int(t_input[n]), int(t_vertex[n]), float(balance[n])
        if has_out[v]:
            add(k, 3, v, "flow-conservation", vids[v], f"imbalance {b:.3e}")
        elif b < 0.0:
            add(k, 3, v, "flow-conservation", vids[v], f"sink emits {-b:.3e}")
        else:
            reached += 1
            key = (v, ys[k] & masks[v])
            if key not in matches:
                bad = negatives & f.universe.select(masks[v], key[1])
                matches[key] = f.universe.members(bad)[0] if bad else None
            z = matches[key]
            if z is not None:
                message = f"sink also matches negative input {bitstring(z, g.n_bits)}"
                add(k, 3, v, "uncertified-sink", vids[v], message)
    if reached:
        report.count("certified-sinks", reached)
    found.sort(key=lambda t: t[:3])
    for *_, kind, where, message in found:
        report.add(kind, where, message)


def validate(g: LearningGraph, f: BooleanFunction | None = None) -> ValidationReport:
    """Check a graph, optionally against a function.

    Without ``f`` only structure and structural linking are checked.  With
    ``f``, super edges are expanded first and flows, sink certification and
    the linking condition are checked over the function's domain; a graph
    that cannot be expanded (see :func:`_structure`) reports its structure
    alone.
    """
    report = ValidationReport()
    expandable = _structure(g, report)
    if any(v.kind == "cycle" for v in report.entries):
        return report
    if f is None:
        _structural_linking(g, report)
        return report
    if len(f.domain) > DOMAIN_CAP:
        raise ValueError(f"domain of size {len(f.domain)} exceeds cap {DOMAIN_CAP}")
    if not expandable:
        return report
    ge = expand(g)
    _flows(ge, f, report)
    _semantic_linking(ge, f, report)
    return report
