"""Spectral certificates extracted from a learning graph.

For each input position j the witness is a matrix M_j over the domain, built
as a sum of rank-1 outer products: one per expanded ordinary edge loading j
and per agreement block (inputs equal on the edge's tail label, split by the
loaded bit's value).  Each product is v vᵀ for the vector v holding flow over
root side-1 weight on positives and root side-0 weight on negatives.  Their
diagonal sums reproduce the two graph costs, and for inputs of opposite value
the entries on disagreeing positions sum to the flow crossing the agreement
cut, which is exactly 1.

The witness stores each M_j as its factor Ψ_j, with one column per block
(:class:`Factor`), so M_j = Ψ_j Ψ_jᵀ and is positive semidefinite by
construction.  Its memory is Σ_j nnz(Ψ_j), not positions × m² floats for a
domain of m inputs.  Verification works from the factors:

* crossing sums: per position, the (negatives × k_j) by (k_j × positives)
  product of Ψ_j's rows, kept where the two inputs disagree on j;
* objective: the largest diagonal entry of Σ_j M_j, the row sums of squares
  of every Ψ_j added in edge → block order, so it has the bits the dense
  matrices would give;
* PSD: ``min_eigenvalue`` is the smallest eigenvalue over all M_j, taken
  from the smaller of Ψ_jᵀΨ_j (k_j × k_j) and Ψ_jΨ_jᵀ.  When k_j < m, M_j
  has a null space and its smallest eigenvalue is 0, so the Gram value is
  capped at 0.0; a position with no block reports 0.0.

``Witness.matrices`` still gives the dense M_j, built from the factor on
access.

Fault injection (``linking_mutants``) multiplies one side-0 weight on one
reachable assignment by a constant, which bumps a crossing sum by the flow on
the mutated edge; tests use it to show the checks have teeth.
"""

from __future__ import annotations

import math
import random
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from .complexity import c0_max, c1_max, column_fsums, eval_at, eval_each
from .expand import expand
from .indexing import agreement_blocks, bit_column, input_array, mask_of
from .model import BooleanFunction, LearningGraph
from .rules import PatchRule


class AdversaryError(ValueError):
    pass


def rebalance_to_equal(g: LearningGraph, f: BooleanFunction) -> LearningGraph:
    """Scale weights so both costs equal the graph complexity."""
    c0 = c0_max(g, f)
    c1 = c1_max(g, f)
    if c0 <= 0.0 or c1 <= 0.0:
        raise AdversaryError(f"cannot equalize costs c0={c0}, c1={c1}")
    return g.rescaled(math.sqrt(c1 / c0))


@dataclass(frozen=True, eq=False)
class Factor:
    """Ψ_j for one position, column by column: column c holds
    ``vals[starts[c]:starts[c + 1]]`` at the domain rows
    ``rows[starts[c]:starts[c + 1]]``.  Columns are blocks in edge → block
    order."""

    rows: np.ndarray  # int64
    vals: np.ndarray  # float64
    starts: np.ndarray  # int64, one more entry than there are columns

    @property
    def columns(self) -> int:
        return len(self.starts) - 1

    def dense(self, m: int) -> np.ndarray:
        """Ψ_j as an m × columns array."""
        psi = np.zeros((m, self.columns))
        psi[self.rows, np.repeat(np.arange(self.columns), np.diff(self.starts))] = (
            self.vals
        )
        return psi

    def outer(self, m: int) -> np.ndarray:
        """M_j = Ψ_j Ψ_jᵀ as an m × m array, summed column by column."""
        mat = np.zeros((m, m))
        for lo, hi in zip(self.starts[:-1].tolist(), self.starts[1:].tolist()):
            idx = self.rows[lo:hi]
            v = self.vals[lo:hi]
            mat[np.ix_(idx, idx)] += np.outer(v, v)
        return mat


def _join(parts: list[tuple[np.ndarray, np.ndarray, list[int]]]) -> Factor:
    """One factor from per-edge (rows, vals, block bounds), in edge order."""
    starts = [0]
    for _, _, bounds in parts:
        base = starts[-1]
        starts += [base + b for b in bounds[1:]]
    return Factor(
        rows=np.concatenate([r for r, _, _ in parts] or [np.zeros(0, np.int64)]),
        vals=np.concatenate([v for _, v, _ in parts] or [np.zeros(0)]),
        starts=np.array(starts, dtype=np.int64),
    )


class _Matrices(Mapping):
    """Read-only view of the dense M_j, each built when it is looked up."""

    def __init__(self, factors: dict[int, Factor], m: int) -> None:
        self._factors = factors
        self._m = m

    def __getitem__(self, j: int) -> np.ndarray:
        return self._factors[j].outer(self._m)

    def __iter__(self) -> Iterator[int]:
        return iter(self._factors)

    def __len__(self) -> int:
        return len(self._factors)


@dataclass
class Witness:
    n_bits: int
    domain: tuple[int, ...]
    row: dict[int, int]
    # every position some ordinary edge loads, in order of first load
    factors: dict[int, Factor]
    target: float  # complexity of the source graph
    blocks: int

    @property
    def matrices(self) -> Mapping[int, np.ndarray]:
        return _Matrices(self.factors, len(self.domain))

    def matrix(self, j: int) -> np.ndarray:
        m = len(self.domain)
        fac = self.factors.get(j)
        return np.zeros((m, m)) if fac is None else fac.outer(m)


def build_witness(
    g: LearningGraph, f: BooleanFunction, *, cap: int = 4096
) -> Witness:
    """Assemble the per-position factors for ``g`` against ``f``.

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
    c1 = c1_max(g, f)

    parts: dict[int, list[tuple[np.ndarray, np.ndarray, list[int]]]] = {}
    blocks = 0
    no_rows = np.zeros(0, dtype=np.int64)
    ordinary = [(ei, e) for ei, e in enumerate(ge.edges) if e.kind == "ordinary"]
    # without super edges ge is g, and these are the rows c0_max sums, less
    # the zero rows of empty edges, which do not change an fsum
    w0_rows = None if g.has_super() else np.zeros((len(ordinary), len(xs)))
    for k, ((ei, e), w0) in enumerate(
        zip(ordinary, eval_each([e.w0 for _, e in ordinary], xs))
    ):
        if w0_rows is not None:
            w0_rows[k] = w0
        edge_parts = parts.setdefault(e.load, [])
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
            z & mask_of(ge.label(e.src)), bit_column(z, e.load) ^ is_pos
        )
        edge_parts.append((rows[order], vals[order], bounds))
        blocks += len(bounds) - 1
    if w0_rows is None:
        c0 = c0_max(g, f)
    else:
        c0 = max(column_fsums(w0_rows), default=0.0)
    return Witness(
        n_bits=g.n_bits,
        domain=domain,
        row=row,
        factors={j: _join(ps) for j, ps in parts.items()},
        target=math.sqrt(c0 * c1),
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


def _min_eigenvalue(psi: np.ndarray) -> float:
    """Smallest eigenvalue of ψ ψᵀ, from the smaller of its two Gram forms."""
    m, k = psi.shape
    if k == 0:
        return 0.0
    if k < m:
        # ψ ψᵀ has rank at most k < m, so 0 is one of its eigenvalues
        return min(float(np.linalg.eigvalsh(psi.T @ psi)[0]), 0.0)
    return float(np.linalg.eigvalsh(psi @ psi.T)[0])


def verify_witness(
    w: Witness, f: BooleanFunction, *, tol: float = 1e-9
) -> WitnessReport:
    m = len(w.domain)
    zs = input_array(w.domain, w.n_bits)
    neg_rows = np.array([w.row[x] for x in f.negatives()], dtype=np.int64)
    pos_rows = np.array([w.row[y] for y in f.positives()], dtype=np.int64)
    eigs = []
    # crossing sums: for x negative, y positive, the sum over positions where
    # the two inputs disagree of M_j[x, y] = <Ψ_j[x], Ψ_j[y]>
    cross = np.zeros((len(neg_rows), len(pos_rows)))
    diag = np.zeros(m)
    for j, fac in w.factors.items():
        psi = fac.dense(m)
        eigs.append(_min_eigenvalue(psi))
        bit = bit_column(zs, j)
        differs = bit[neg_rows][:, None] != bit[pos_rows][None, :]
        cross += np.where(differs, psi[neg_rows] @ psi[pos_rows].T, 0.0)
        # bincount adds in edge → block order, as the dense diagonal was added
        diag += np.bincount(fac.rows, weights=fac.vals * fac.vals, minlength=m)
    min_eig = min(eigs, default=0.0)
    if cross.size:
        lo = float(cross.min())
        hi = float(cross.max())
    else:
        lo = hi = 1.0
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
