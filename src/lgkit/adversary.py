"""Spectral certificates extracted from a learning graph.

For each input position j the witness is a matrix M_j over the domain, built
as a sum of rank-1 outer products: one per expanded ordinary edge loading j
and per agreement block (inputs equal on the edge's tail label, split by the
loaded bit's value).  Each product is v vᵀ for the vector v holding flow over
root side-1 weight on positives and root side-0 weight on negatives.  Their
diagonal sums reproduce the two graph costs, and for inputs of opposite value
the entries on disagreeing positions sum to the flow crossing the agreement
cut, which is exactly 1.

The blocks of position j come from one stable sort over the entries of all
the edges that load j (:func:`lgkit.indexing.agreement_sort`), as do the
sites of ``linking_mutants``.  The witness stores each M_j as its factor
Ψ_j, with one column per block (:class:`Factor`), so M_j = Ψ_j Ψ_jᵀ and is
positive semidefinite by construction.  Its memory is Σ_j nnz(Ψ_j), not
positions × m² floats for a domain of m inputs.  Verification works from
the factors:

* crossing sums: per position, the (negatives × k_j) by (k_j × positives)
  product of Ψ_j's rows, kept where the two inputs disagree on j;
* objective: the largest diagonal entry of Σ_j M_j, the row sums of squares
  of every Ψ_j added in edge → block order, so it has the bits the dense
  matrices would give.

No eigenvalue is checked: M_j = Ψ_jΨ_jᵀ is positive semidefinite for any
real Ψ_j.  A NaN or infinite entry of some Ψ_j reaches its row of the
diagonal, so the objective check fails on it.

The objective is checked against the target √(C0·C1), the complexity of
the expanded graph the factors come from: C1 from the positive side's flow
entries, C0 from the side-0 rows of the ordinary edges.  Expansion keeps
both costs, up to rounding in the last place.

``Witness.matrices`` still gives the dense M_j, built from the factor on
access.

Fault injection (``linking_mutants``) multiplies one side-0 weight on one
reachable assignment by a constant, which bumps a crossing sum by the flow on
the mutated edge; tests use it to show the checks have teeth.

The bounds are fixed: ``WITNESS_CAP`` on the domain size of a witness,
``TOL`` on every check of ``verify_witness``, and, for mutants, ``MIN_FLOW``
on the flow a mutation site carries and ``MUTANT_FACTOR`` for the scaling.
"""

from __future__ import annotations

import math
import random
from collections.abc import Mapping
from dataclasses import dataclass, replace
from itertools import islice
from typing import Any, Iterator

import numpy as np

from .complexity import FlowEntries, c0_max, c1_max, column_fsums, eval_each
from .complexity import flow_entries, side1_totals
from .expand import expand
from .indexing import agreement_sort, bit_column, input_array, mask_of
from .model import BooleanFunction, LearningGraph
from .rules import PatchRule

WITNESS_CAP = 4096
TOL = 1e-9
MIN_FLOW = 5e-3
MUTANT_FACTOR = 4.0


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
    target: float  # complexity of the expanded graph
    blocks: int

    @property
    def matrices(self) -> Mapping[int, np.ndarray]:
        return _Matrices(self.factors, len(self.domain))


def _ordinary_entries(
    ge: LearningGraph, ent: FlowEntries
) -> tuple[np.ndarray, np.ndarray]:
    """The entries of ``ent`` on ordinary edges, in entry order, and their
    edges."""
    edge = [ei if 0 <= ei < len(ge.edges) else -1 for ei in ent.edge]
    ordinary = [ei for ei, e in enumerate(ge.edges) if e.kind == "ordinary"]
    sel = np.flatnonzero(np.isin(edge, ordinary))
    return sel, np.array(edge, dtype=np.int64)[sel]


def build_witness(g: LearningGraph, f: BooleanFunction) -> Witness:
    """Assemble the per-position factors for ``g`` against ``f``.

    Super edges are flattened first, and the target is the complexity of
    the expansion; the graph should already have equal costs (see
    :func:`rebalance_to_equal`) if the objective is to match it.
    """
    domain = f.domain
    if len(domain) > WITNESS_CAP:
        raise AdversaryError(f"domain size {len(domain)} exceeds cap {WITNESS_CAP}")
    ge = expand(g)
    row = {z: i for i, z in enumerate(domain)}
    zs = input_array(domain, ge.n_bits)
    xs = input_array(f.negatives(), ge.n_bits)
    x_rows = np.array([row[x] for x in f.negatives()], dtype=np.int64)
    ys = f.positives()
    flows = [ge.flow_for(y) for y in ys]
    for y, fl in zip(ys, flows):
        if fl is None:
            raise AdversaryError(f"no flow recorded for positive input {y}")
    # positive side: flow over root side-1 weight, where the flow is nonzero
    ent = flow_entries(ge, flows, input_array(ys, ge.n_bits))
    y_rows = np.array([row[y] for y in ys], dtype=np.int64)
    sel, p_edge = _ordinary_entries(ge, ent)
    w = ent.w1[sel]
    if (w <= 0.0).any():
        # name the first offender on the lowest edge in block order: by the
        # first domain input of its tail assignment, then by its own place
        ei = int(p_edge[w <= 0.0].min())
        grp = ent.at[ei]
        rows = y_rows[ent.input[grp]]
        alpha = zs & mask_of(ge.label(ge.edges[ei].src))
        r = min(
            rows[ent.w1[grp] <= 0.0].tolist(),
            key=lambda r: (int(np.argmax(alpha == alpha[r])), r),
        )
        raise AdversaryError(
            f"flow on zero side-1 weight, edge {ei} input {domain[r]}"
        )
    p_rows = y_rows[ent.input[sel]]
    p_vals = ent.flow[sel] / np.sqrt(w)
    c1 = max(side1_totals(ge, ys, ent), default=0.0)

    by_load = ge.by_load()
    ordinary = [ei for ids in by_load.values() for ei in ids]
    w0s = eval_each([ge.edges[ei].w0 for ei in ordinary], xs)
    # the side-0 rows c0_max would sum, less the zero rows of empty edges,
    # which do not change an fsum
    w0_rows = np.zeros((len(ordinary), len(xs)))
    factors: dict[int, Factor] = {}
    blocks = done = 0
    for j, ids in by_load.items():
        w0 = np.array(list(islice(w0s, len(ids))))
        w0_rows[done : done + len(ids)] = w0
        done += len(ids)
        # negatives by edge, then the positives; negatives go to side 0 on
        # loaded bit 0, positives on loaded bit 1
        keep = w0 != 0.0
        n_edge, n_x = np.nonzero(keep)
        mine = np.isin(p_edge, ids)
        rows = np.concatenate((x_rows[n_x], p_rows[mine]))
        vals = np.concatenate((np.sqrt(w0[keep]), p_vals[mine]))
        is_pos = np.repeat(np.array([0, 1], np.int64), [len(n_x), mine.sum()])
        order, starts = agreement_sort(
            zs,
            {ei: ge.label(ge.edges[ei].src) for ei in ids},
            np.concatenate((np.array(ids)[n_edge], p_edge[mine])),
            rows,
            bit_column(zs, j)[rows] ^ is_pos,
        )
        factors[j] = Factor(rows=rows[order], vals=vals[order], starts=starts)
        blocks += len(starts) - 1
    c0 = max(column_fsums(w0_rows), default=0.0)
    return Witness(
        n_bits=g.n_bits,
        domain=domain,
        row=row,
        factors=factors,
        target=math.sqrt(c0 * c1),
        blocks=blocks,
    )


@dataclass
class WitnessReport:
    crossing_lo: float
    crossing_hi: float
    objective: float
    target: float
    crossing_ok: bool
    objective_ok: bool
    checked_pairs: int

    @property
    def ok(self) -> bool:
        return self.crossing_ok and self.objective_ok

    def to_json(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "crossing": [self.crossing_lo, self.crossing_hi],
            "objective": self.objective,
            "target": self.target,
            "checks": {
                "crossing": self.crossing_ok,
                "objective": self.objective_ok,
            },
            "pairs": self.checked_pairs,
        }


def verify_witness(w: Witness, f: BooleanFunction) -> WitnessReport:
    m = len(w.domain)
    zs = input_array(w.domain, w.n_bits)
    neg_rows = np.array([w.row[x] for x in f.negatives()], dtype=np.int64)
    pos_rows = np.array([w.row[y] for y in f.positives()], dtype=np.int64)
    # crossing sums: for x negative, y positive, the sum over positions where
    # the two inputs disagree of M_j[x, y] = <Ψ_j[x], Ψ_j[y]>
    cross = np.zeros((len(neg_rows), len(pos_rows)))
    diag = np.zeros(m)
    for j, fac in w.factors.items():
        psi = fac.dense(m)
        bit = bit_column(zs, j)
        differs = bit[neg_rows][:, None] != bit[pos_rows][None, :]
        cross += np.where(differs, psi[neg_rows] @ psi[pos_rows].T, 0.0)
        # bincount adds in edge → block order, as the dense diagonal was added
        diag += np.bincount(fac.rows, weights=fac.vals * fac.vals, minlength=m)
    if cross.size:
        lo = float(cross.min())
        hi = float(cross.max())
    else:
        lo = hi = 1.0
    objective = float(diag.max()) if m else 0.0
    rel = TOL * max(1.0, abs(w.target))
    return WitnessReport(
        crossing_lo=lo,
        crossing_hi=hi,
        objective=objective,
        target=w.target,
        crossing_ok=abs(lo - 1.0) <= TOL and abs(hi - 1.0) <= TOL,
        objective_ok=abs(objective - w.target) <= rel,
        checked_pairs=len(neg_rows) * len(pos_rows),
    )


@dataclass
class Mutant:
    graph: LearningGraph
    edge: int
    assignment: str
    factor: float
    flow: float  # flow of the paired positive input on the mutated edge


def linking_mutants(
    g: LearningGraph, f: BooleanFunction, count: int = 50, *, seed: int = 0
) -> list[Mutant]:
    """Graphs with the linking condition broken on one edge and assignment.

    Each mutant scales the side-0 weight by ``MUTANT_FACTOR`` on one full
    head-label assignment that is shared by a flow-carrying positive input
    (flow at least ``MIN_FLOW``) and a reachable negative input disagreeing
    on the loaded bit.  The crossing sum for that input pair moves off 1 by
    at least ``flow * (sqrt(MUTANT_FACTOR) - 1)``.
    """
    if count < 0:
        raise AdversaryError(f"mutant count {count} is negative")
    ge = expand(g)
    ys = f.positives()
    xs = f.negatives()
    yz = input_array(ys, ge.n_bits)
    xz = input_array(xs, ge.n_bits)
    flows = [ge.flow_for(y) for y in ys]  # a missing flow offers no site
    ent = flow_entries(ge, flows, yz)
    # a site is a flow of at least MIN_FLOW on an ordinary edge; negated so
    # that a NaN flow is one, as in the scalar scan
    sel, s_edge = _ordinary_entries(ge, ent)
    site = ~(ent.flow[sel] < MIN_FLOW)
    sel, s_edge = sel[site], s_edge[site]
    by_load: dict[int, list[int]] = {}  # the edges with a site
    for ei in sorted(set(s_edge.tolist())):
        by_load.setdefault(ge.edges[ei].load, []).append(ei)
    zs = np.concatenate((xz, yz))
    w0s = eval_each([ge.edges[ei].w0 for ids in by_load.values() for ei in ids], xz)
    hits = [np.zeros((2, 0), dtype=np.int64)]  # (site entry, negative) pairs
    for j, ids in by_load.items():
        w0 = np.array(list(islice(w0s, len(ids))))
        n_edge, n_x = np.nonzero(~(w0 <= 0.0))  # a NaN w0 is kept, as in the scan
        mine = np.isin(s_edge, ids)
        grp = sel[mine]
        # a negative joins the block of its loaded bit, a site's input the
        # block opposite its own; a block's first member is its first negative
        inp = np.concatenate((n_x, len(xz) + ent.input[grp]))
        is_pos = np.repeat(np.array([0, 1], dtype=np.int64), [len(n_x), len(grp)])
        order, starts = agreement_sort(
            zs,
            {ei: ge.label(ge.edges[ei].src) for ei in ids},
            np.concatenate((np.array(ids)[n_edge], s_edge[mine])),
            inp,
            bit_column(zs, j)[inp] ^ is_pos,
        )
        head = order[np.repeat(starts[:-1], np.diff(starts))]
        hit = (order >= len(n_x)) & (head < len(n_x))
        hits.append(np.stack((grp[order[hit] - len(n_x)], n_x[head[hit]])))
    pairs = np.concatenate(hits, axis=1)
    flow = ent.flow.tolist()
    candidates: dict[tuple[int, tuple[int, ...], tuple[int, ...]], float] = {}
    # in entry order, as the scalar scan meets them
    for n, x in zip(*pairs[:, np.argsort(pairs[0])].tolist()):
        ei = ent.edge[n]
        dst_label = ge.label(ge.edges[ei].dst)
        key = (ei, dst_label, tuple((xs[x] >> i) & 1 for i in dst_label))
        candidates[key] = max(candidates.get(key, 0.0), flow[n])
    if len(candidates) < count:
        raise AdversaryError(
            f"only {len(candidates)} mutation sites available, need {count}"
        )
    order = sorted(candidates)
    random.Random(seed).shuffle(order)
    out: list[Mutant] = []
    for key in order[:count]:
        ei, dst_label, bits = key
        edges = list(ge.edges)
        patched = PatchRule(dst_label, bits, MUTANT_FACTOR, edges[ei].w0)
        edges[ei] = replace(edges[ei], w0=patched)
        mg = replace(ge, vertices=dict(ge.vertices), edges=edges, _out=None, _in=None)
        assignment = ",".join(f"{i + 1}:{b}" for i, b in zip(dst_label, bits))
        out.append(Mutant(mg, ei, assignment, MUTANT_FACTOR, candidates[key]))
    return out
