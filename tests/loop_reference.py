"""Input-by-input versions of the column-wise cost, validation and witness code.

These are the loops the column-wise code replaced, kept as the reference
that ``test_columnwise.py`` compares against.  They call each rule once per
(edge, input) through ``Rule.__call__``.  The witness reference keeps every
per-position matrix dense (m × m) and verifies it with a full eigenvalue
decomposition, as the factored witness did before it stored Ψ_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from lgkit.adversary import AdversaryError, WitnessReport
from lgkit.complexity import (
    ComplexityReport,
    MissingFlowError,
    StageCost,
    edge_c0,
    edge_c1,
    graph_c0,
    graph_c1,
)
from lgkit.expand import expand
from lgkit.indexing import bitstring, mask_of
from lgkit.validate import ValidationReport, _structure


def complexity_loop(g, f):
    per0 = {x: graph_c0(g, x) for x in f.negatives()}
    per1 = {y: graph_c1(g, y) for y in f.positives()}
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
        stage_per0 = {}
        stage_per1 = {}
        raw0 = 0.0 if factors else None
        raw1 = 0.0 if factors else None
        for x in f.negatives():
            parts = [(i, edge_c0(g, g.edges[i], x)) for i in st.edges]
            stage_per0[x] = math.fsum(v for _, v in parts)
            if factors:
                raw0 = max(
                    raw0,
                    math.fsum(
                        v / factors[i] if factors.get(i) else v for i, v in parts
                    ),
                )
        for y in f.positives():
            flow = g.flow_for(y)
            if flow is None:
                raise MissingFlowError(f"no flow recorded for input {y}")
            parts = [
                (i, edge_c1(g, g.edges[i], p, y))
                for i, p in flow.items()
                if i in edge_ids
            ]
            stage_per1[y] = math.fsum(v for _, v in parts)
            if factors:
                raw1 = max(
                    raw1,
                    math.fsum(
                        v * factors[i] if factors.get(i) else v for i, v in parts
                    ),
                )
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


def _linking_loop(g, f, report, rtol):
    xs = f.negatives()
    ys = f.positives()
    for i, e in enumerate(g.edges):
        if e.kind != "ordinary":
            continue
        j = e.load
        src_mask = mask_of(g.label(e.src))
        groups = {}
        for x in xs:
            groups.setdefault(x & src_mask, ([], []))[0].append(x)
        for y in ys:
            groups.setdefault(y & src_mask, ([], []))[1].append(y)
        for alpha, (gx, gy) in groups.items():
            for c in (0, 1):
                vals0 = [e.w0(x) for x in gx if (x >> j) & 1 == c]
                vals1 = [e.w1(y) for y in gy if (y >> j) & 1 != c]
                if not vals0 or not vals1:
                    continue
                report.count("linking-pairs", len(vals0) * len(vals1))
                lo = min(min(vals0), min(vals1))
                hi = max(max(vals0), max(vals1))
                if hi - lo > rtol * max(1.0, abs(hi)):
                    report.add(
                        "linking",
                        f"edge[{i}] {e.src}->{e.dst}",
                        f"w0={vals0[0]:.12g} vs w1={vals1[0]:.12g} on the "
                        f"block {bitstring(alpha, g.n_bits)} (bit {j + 1}={c})",
                    )


def _flows_loop(g, f, report, atol):
    domain = f.domain
    for y in f.positives():
        ystr = bitstring(y, g.n_bits)
        flow = g.flow_for(y)
        if flow is None:
            report.add("missing-flow", ystr, "no flow recorded")
            continue
        report.count("flows")
        balance = {v: 0.0 for v in g.vertices}
        for ei, p in flow.items():
            if not 0 <= ei < len(g.edges):
                report.add("flow-edge", ystr, f"flow names unknown edge {ei}")
                continue
            e = g.edges[ei]
            if p < -atol:
                report.add("flow-negative", f"edge[{ei}] {ystr}", f"flow {p} negative")
            if p > atol and e.kind == "empty":
                report.add(
                    "empty-flow",
                    f"edge[{ei}] {ystr}",
                    f"empty transition carries flow {p}",
                )
            if p > atol and e.kind != "empty" and e.w1(y) == 0.0:
                report.add(
                    "flow-on-zero",
                    f"edge[{ei}] {ystr}",
                    "flow on an edge with zero side-1 weight",
                )
            balance[e.src] -= p
            balance[e.dst] += p
        if abs(balance[g.root] + 1.0) > atol:
            sent = -balance[g.root]
            report.add("flow-unit", ystr, f"root sends {sent:.15g}, expected 1")
        for vid, b in balance.items():
            if vid == g.root:
                continue
            if g.out_edges(vid):
                if abs(b) > atol:
                    where = f"{vid} {ystr}"
                    report.add("flow-conservation", where, f"imbalance {b:.3e}")
            else:
                if b < -atol:
                    where = f"{vid} {ystr}"
                    report.add("flow-conservation", where, f"sink emits {-b:.3e}")
                if b > atol:
                    mask = mask_of(g.label(vid))
                    key = y & mask
                    for z in domain:
                        if z & mask == key and not f(z):
                            report.add(
                                "uncertified-sink",
                                f"{vid} {ystr}",
                                f"sink also matches negative input "
                                f"{bitstring(z, g.n_bits)}",
                            )
                            break
                    report.count("certified-sinks")


def validate_loop(g, f, flow_atol=1e-12, link_rtol=1e-12):
    """``validate(g, f)`` with semantic linking, for finite flows."""
    report = ValidationReport()
    _structure(g, report)
    if any(v.kind in ("cycle", "root") for v in report.entries):
        return report
    ge = expand(g)
    _flows_loop(ge, f, report, flow_atol)
    _linking_loop(ge, f, report, link_rtol)
    return report


@dataclass
class LoopWitness:
    n_bits: int
    domain: tuple
    row: dict
    matrices: dict  # position -> dense m × m matrix
    target: float
    blocks: int


def build_witness_loop(g, f):
    domain = f.domain
    ge = expand(g)
    row = {z: i for i, z in enumerate(domain)}
    m = len(domain)
    mats = {}
    values = f.values
    flows = {y: ge.flow_for(y) for y in f.positives()}
    for y, fl in flows.items():
        if fl is None:
            raise AdversaryError(f"no flow recorded for positive input {y}")
    blocks = 0
    for ei, e in enumerate(ge.edges):
        if e.kind != "ordinary":
            continue
        j = e.load
        src_mask = mask_of(ge.label(e.src))
        groups = {}
        for z in domain:
            groups.setdefault(z & src_mask, []).append(z)
        mat = mats.get(j)
        if mat is None:
            mat = mats[j] = np.zeros((m, m))
        for members in groups.values():
            psi0_idx, psi0_val, psi1_idx, psi1_val = [], [], [], []
            for z in members:
                zj = (z >> j) & 1
                if values[z]:
                    p = flows[z].get(ei, 0.0)
                    if p == 0.0:
                        continue
                    w = e.w1(z)
                    if w <= 0.0:
                        raise AdversaryError(
                            f"flow on zero side-1 weight, edge {ei} input {z}"
                        )
                    (psi0_idx if zj == 1 else psi1_idx).append(row[z])
                    (psi0_val if zj == 1 else psi1_val).append(p / math.sqrt(w))
                else:
                    w = e.w0(z)
                    if w == 0.0:
                        continue
                    (psi0_idx if zj == 0 else psi1_idx).append(row[z])
                    (psi0_val if zj == 0 else psi1_val).append(math.sqrt(w))
            for idx, val in ((psi0_idx, psi0_val), (psi1_idx, psi1_val)):
                if not idx:
                    continue
                blocks += 1
                v = np.asarray(val)
                mat[np.ix_(idx, idx)] += np.outer(v, v)
    c0 = max((graph_c0(g, x) for x in f.negatives()), default=0.0)
    c1 = max((graph_c1(g, y) for y in f.positives()), default=0.0)
    return LoopWitness(
        n_bits=g.n_bits,
        domain=domain,
        row=row,
        matrices=mats,
        target=math.sqrt(c0 * c1),
        blocks=blocks,
    )


def verify_witness_loop(w, f, tol=1e-9):
    """``verify_witness`` on the dense matrices of a :class:`LoopWitness`."""
    m = len(w.domain)
    mats = list(w.matrices.items())
    eigs = [np.linalg.eigvalsh(mat) for _, mat in mats]
    min_eig = min((float(e[0]) for e in eigs), default=0.0)

    # crossing sums: for x negative, y positive, sum the entries of the
    # matrices at positions where the two inputs disagree
    cross = np.zeros((m, m))
    for j, mat in mats:
        bit = np.array([(z >> j) & 1 for z in w.domain])
        differs = bit[:, None] != bit[None, :]
        cross += np.where(differs, mat, 0.0)
    neg_rows = [w.row[x] for x in f.negatives()]
    pos_rows = [w.row[y] for y in f.positives()]
    if neg_rows and pos_rows:
        sums = cross[np.ix_(neg_rows, pos_rows)]
        lo = float(sums.min())
        hi = float(sums.max())
    else:
        lo = hi = 1.0
    diag = np.zeros(m)
    for _, mat in mats:
        diag += np.diag(mat)
    objective = float(diag.max()) if m else 0.0
    rel = tol * max(1.0, abs(w.target))
    return WitnessReport(
        min_eigenvalue=min_eig,
        crossing_lo=lo,
        crossing_hi=hi,
        objective=objective,
        target=w.target,
        psd_ok=min_eig >= -tol,
        crossing_ok=abs(lo - 1.0) <= tol and abs(hi - 1.0) <= tol,
        objective_ok=abs(objective - w.target) <= rel,
        checked_pairs=len(neg_rows) * len(pos_rows),
    )
