"""Spectral certificates extracted from a learning graph.

For each input position the witness accumulates, per expanded ordinary edge
loading that position and per agreement block (inputs equal on the edge's
tail label), two outer products: the vector holding flow over root side-1
weight on positives and root side-0 weight on negatives, split by the loaded
bit's value.  These matrices are positive semidefinite by construction, their
diagonal sums reproduce the two graph costs, and for inputs of opposite value
the entries on disagreeing positions sum to the flow crossing the agreement
cut, which is exactly 1.  Verification checks the three properties
numerically.

Fault injection (``linking_mutants``) multiplies one side-0 weight on one
reachable assignment by a constant, which bumps a crossing sum by the flow on
the mutated edge; tests use it to show the checks have teeth.
"""

from __future__ import annotations

import math
import os
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .complexity import c0_max, c1_max, eval_at, eval_each
from .expand import expand
from .indexing import agreement_blocks, bit_column, input_array, mask_of
from .model import BooleanFunction, LearningGraph
from .rules import PatchRule


class AdversaryError(ValueError):
    pass


def worker_count() -> int:
    raw = os.environ.get("LG_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def rebalance_to_equal(g: LearningGraph, f: BooleanFunction) -> LearningGraph:
    """Scale weights so both costs equal the graph complexity."""
    c0 = c0_max(g, f)
    c1 = c1_max(g, f)
    if c0 <= 0.0 or c1 <= 0.0:
        raise AdversaryError(f"cannot equalize costs c0={c0}, c1={c1}")
    return g.rescaled(math.sqrt(c1 / c0))


@dataclass
class Witness:
    n_bits: int
    domain: tuple[int, ...]
    row: dict[int, int]
    matrices: dict[int, np.ndarray]
    target: float  # complexity of the source graph
    blocks: int

    def matrix(self, j: int) -> np.ndarray:
        return self.matrices.get(
            j, np.zeros((len(self.domain), len(self.domain)))
        )


def build_witness(
    g: LearningGraph, f: BooleanFunction, *, cap: int = 4096
) -> Witness:
    """Assemble the per-position matrices for ``g`` against ``f``.

    Super edges are flattened first; the graph should already have equal
    costs (see :func:`rebalance_to_equal`) if the objective is to match the
    graph complexity exactly.
    """
    domain = f.domain
    if len(domain) > cap:
        raise AdversaryError(f"domain size {len(domain)} exceeds cap {cap}")
    ge = expand(g)
    if ge.has_super():
        raise AdversaryError("expansion left a super edge behind")
    row = {z: i for i, z in enumerate(domain)}
    m = len(domain)
    zs = input_array(domain, ge.n_bits)
    xs = input_array(f.negatives(), ge.n_bits)
    x_rows = np.array([row[x] for x in f.negatives()], dtype=np.int64)
    flows = {y: ge.flow_for(y) for y in f.positives()}
    for y, fl in flows.items():
        if fl is None:
            raise AdversaryError(f"no flow recorded for positive input {y}")
    # positive side: flow over root side-1 weight, where the flow is nonzero
    at: dict[int, tuple[list[int], list[float]]] = {}  # edge -> (rows, flows)
    for y, fl in flows.items():
        for ei, p in fl.items():
            if p != 0.0 and 0 <= ei < len(ge.edges) and ge.edges[ei].kind == "ordinary":
                rows, ps = at.setdefault(ei, ([], []))
                rows.append(row[y])
                ps.append(p)
    pos_edges = sorted(at)
    pos_rows = [np.array(at[ei][0], dtype=np.int64) for ei in pos_edges]
    w1s = eval_at([ge.edges[ei].w1 for ei in pos_edges], [zs[r] for r in pos_rows])
    positive: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for ei, rows, w in zip(pos_edges, pos_rows, w1s):
        if (w <= 0.0).any():
            # name the first offender in block order: by the first domain
            # input of its tail assignment, then by its own place
            alpha = zs & mask_of(ge.label(ge.edges[ei].src))
            r = min(
                rows[w <= 0.0].tolist(),
                key=lambda r: (int(np.argmax(alpha == alpha[r])), r),
            )
            raise AdversaryError(
                f"flow on zero side-1 weight, edge {ei} input {domain[r]}"
            )
        positive[ei] = (rows, np.array(at[ei][1]) / np.sqrt(w))
    target = math.sqrt(c0_max(g, f) * c1_max(g, f))

    mats: dict[int, np.ndarray] = {}
    blocks = 0
    no_rows = np.zeros(0, dtype=np.int64)
    ordinary = [(ei, e) for ei, e in enumerate(ge.edges) if e.kind == "ordinary"]
    for (ei, e), w0 in zip(ordinary, eval_each([e.w0 for _, e in ordinary], xs)):
        j = e.load
        mat = mats.get(j)
        if mat is None:
            mat = mats[j] = np.zeros((m, m))
        keep = w0 != 0.0
        prow, pval = positive.get(ei, (no_rows, np.zeros(0)))
        rows = np.concatenate((x_rows[keep], prow))
        if not len(rows):
            continue
        vals = np.concatenate((np.sqrt(w0[keep]), pval))
        z = zs[rows]
        # negatives go to side 0 on loaded bit 0, positives on loaded bit 1
        is_pos = np.repeat(
            np.array([0, 1], dtype=np.int64), [len(rows) - len(prow), len(prow)]
        )
        order, bounds = agreement_blocks(
            z & mask_of(ge.label(e.src)), bit_column(z, j) ^ is_pos
        )
        rows = rows[order]
        vals = vals[order]
        # each entry of mat gets at most one term per edge, so the block
        # order within an edge does not change the sums
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            idx = rows[lo:hi]
            v = vals[lo:hi]
            mat[np.ix_(idx, idx)] += np.outer(v, v)
        blocks += len(bounds) - 1
    return Witness(
        n_bits=g.n_bits,
        domain=domain,
        row=row,
        matrices=mats,
        target=target,
        blocks=blocks,
    )


@dataclass
class WitnessReport:
    min_eigenvalue: float
    crossing_lo: float
    crossing_hi: float
    objective: float
    target: float
    psd_ok: bool
    crossing_ok: bool
    objective_ok: bool
    checked_pairs: int

    @property
    def ok(self) -> bool:
        return self.psd_ok and self.crossing_ok and self.objective_ok

    def to_json(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "min_eigenvalue": self.min_eigenvalue,
            "crossing": [self.crossing_lo, self.crossing_hi],
            "objective": self.objective,
            "target": self.target,
            "checks": {
                "psd": self.psd_ok,
                "crossing": self.crossing_ok,
                "objective": self.objective_ok,
            },
            "pairs": self.checked_pairs,
        }


def verify_witness(
    w: Witness, f: BooleanFunction, *, tol: float = 1e-9
) -> WitnessReport:
    m = len(w.domain)
    mats = list(w.matrices.items())
    threads = worker_count()
    if threads > 1 and len(mats) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            eigs = list(pool.map(lambda kv: np.linalg.eigvalsh(kv[1]), mats))
    else:
        eigs = [np.linalg.eigvalsh(mat) for _, mat in mats]
    min_eig = min((float(e[0]) for e in eigs), default=0.0)

    # crossing sums: for x negative, y positive, sum the entries of the
    # matrices at positions where the two inputs disagree
    cross = np.zeros((m, m))
    zarr = np.asarray(w.domain, dtype=np.int64)
    for j, mat in mats:
        bit = (zarr >> j) & 1
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
    report = WitnessReport(
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
    return report


@dataclass
class Mutant:
    graph: LearningGraph
    edge: int
    assignment: str
    factor: float
    flow: float  # flow of the paired positive input on the mutated edge


def linking_mutants(
    g: LearningGraph,
    f: BooleanFunction,
    count: int = 50,
    *,
    seed: int = 0,
    min_flow: float = 5e-3,
    factor: float = 4.0,
) -> list[Mutant]:
    """Graphs with the linking condition broken on one edge and assignment.

    Each mutant scales the side-0 weight by ``factor`` on one full head-label
    assignment that is shared by a flow-carrying positive input (flow at least
    ``min_flow``) and a reachable negative input disagreeing on the loaded
    bit.  The crossing sum for that input pair moves off 1 by at least
    ``flow * (sqrt(factor) - 1)``.
    """
    ge = expand(g)
    candidates: dict[tuple[int, tuple[int, ...], tuple[int, ...]], float] = {}
    negs = f.negatives()
    for ei, e in enumerate(ge.edges):
        if e.kind != "ordinary":
            continue
        j = e.load
        src_mask = mask_of(ge.label(e.src))
        dst_label = ge.label(e.dst)
        for y in f.positives():
            fl = ge.flow_for(y)
            if fl is None:
                continue
            p = fl.get(ei, 0.0)
            if p < min_flow:
                continue
            ablock = y & src_mask
            yj = (y >> j) & 1
            for x in negs:
                if x & src_mask != ablock or (x >> j) & 1 == yj:
                    continue
                if e.w0(x) <= 0.0:
                    continue
                bits = tuple((x >> i) & 1 for i in dst_label)
                key = (ei, dst_label, bits)
                candidates[key] = max(candidates.get(key, 0.0), p)
                break
    if len(candidates) < count:
        raise AdversaryError(
            f"only {len(candidates)} mutation sites available, need {count}"
        )
    order = sorted(candidates)
    random.Random(seed).shuffle(order)
    out: list[Mutant] = []
    for key in order[:count]:
        ei, dst_label, bits = key
        e = ge.edges[ei]
        patched = PatchRule(dst_label, bits, factor, e.w0)
        edges = list(ge.edges)
        edges[ei] = type(e)(e.src, e.dst, e.load, patched, e.w1)
        mg = LearningGraph(
            n_bits=ge.n_bits,
            root=ge.root,
            vertices=dict(ge.vertices),
            edges=edges,
            flows=ge.flows,
            const_flow=ge.const_flow,
            stages=ge.stages,
        )
        out.append(
            Mutant(
                graph=mg,
                edge=ei,
                assignment=",".join(
                    f"{i + 1}:{b}" for i, b in zip(dst_label, bits)
                ),
                factor=factor,
                flow=candidates[key],
            )
        )
    return out
