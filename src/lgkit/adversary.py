"""Spectral certificates extracted from a learning graph.

For each input position j the witness is a matrix M_j over the domain, built
as a sum of rank-1 outer products: one per expanded ordinary edge loading j
and per agreement block (inputs equal on the edge's tail label, split by the
loaded bit's value).  Each product is v vᵀ for the vector v holding flow over
root side-1 weight on positives and root side-0 weight on negatives.  Their
diagonal sums reproduce the two graph costs, and for inputs of opposite value
the entries on disagreeing positions sum to the flow crossing the agreement
cut, which is exactly 1.

The edges that load j from one tail label share their blocks, which one
:func:`lgkit.indexing.agreement_layout` call lays out for every label of
position j; each edge's column in a block holds its nonzero entries
there, and no block outlives its factor.  The witness stores each M_j as
its factor Ψ_j, one column per block (:class:`Factor`), so M_j = Ψ_j Ψ_jᵀ
is positive semidefinite by construction.  Its memory is Σ_j nnz(Ψ_j),
not positions × m² floats for a domain of m inputs.  Verification works
from the factors:

* crossing sums: half b of a column of Ψ_j holds its negatives with
  bit j = b and its positives with bit j = 1 − b, so it joins exactly the
  pairs that disagree on j.  The live halves, those holding a negative and
  a positive, form N (negatives × k) and P (k × positives), and the sums
  are the entries of N P.  Rows of other inputs take no part;
* objective: the largest diagonal entry of Σ_j M_j, the row sums of squares
  of every Ψ_j added in edge → block order, so it has the bits the dense
  matrices would give.

No eigenvalue is checked: M_j = Ψ_jΨ_jᵀ is positive semidefinite for any
real Ψ_j.  A NaN or infinite entry of some Ψ_j fails the crossing check,
and it reaches its row of the diagonal, so the objective check too.

The objective is checked against the target √(C0·C1), the complexity of
the expanded graph the factors come from, as :mod:`lgkit.complexity`
prices it: C1 and the flow entries the factors are formed from come from
one ``side1_totals`` call, made first, so every flow fault (a missing
flow, flow on zero side-1 weight, ...) raises its error there, and C0
from ``side0_rows``, one row per edge, which the factors are formed from
too.  Expansion keeps both costs, up to rounding in the last place.
``Witness.matrices`` gives the dense M_j, built from the factor on access.

Fault injection (``linking_mutants``) multiplies one side-0 weight on one
reachable assignment by a constant, which bumps a crossing sum by the flow on
the mutated edge; tests use it to show the checks have teeth.  A search
prices its parent expansion by making its witness parts, so it refuses
what ``build_witness`` refuses, and reads its sites' flows, negatives and
``w0`` rows from them; each site's negative is found by a sorted search
per edge (:func:`lgkit.indexing.lookup`).  A mutant shares its parent
expansion's vertex dict, flows and every edge but the patched one, and
records the parent's witness parts, which hold the function they were
made against, and the patched edge (a private lineage, never serialized).

``build_witness`` on a mutant, which is flat, expands nothing and packs no
label: it lays out and rebuilds only Ψ_j of the position j the patched
edge loads, over the parent's label packs, and sums again only the side-0
totals of the negatives whose ``w0`` changed.  The rest comes from the
parent's parts, which die with its mutants.  Parts are reused when the
search set the lineage and the function is the object the parts were
made against; otherwise every factor is built anew.  A graph is frozen
and ``dataclasses.replace`` drops the lineage, so a graph that carries
one is the mutant the search made; an in-place edit of a dict or an edge
that a parent shares with its mutants, made within one search, is not
detected.  ``verify_witness`` trusts none of this.

The bounds are fixed: ``WITNESS_CAP`` on the domain size of a witness,
``TOL`` on every check of ``verify_witness``, and, for mutants, ``MIN_FLOW``
on the flow a mutation site carries and ``MUTANT_FACTOR`` for the scaling.
"""

from __future__ import annotations

import math
import random
from collections.abc import Mapping
from dataclasses import dataclass, replace
from typing import Any, Iterator

import numpy as np

from .complexity import FlowEntries, column_fsums, complexity, side0_rows, side1_totals
from .expand import expand
from .indexing import agreement_layout, bitstring, input_array, lookup, mask_of
from .indexing import pack_bits
from .model import BooleanFunction, LearningGraph
from .rules import PatchRule

WITNESS_CAP = 4096
TOL = 1e-9
MIN_FLOW = 5e-3
MUTANT_FACTOR = 4.0


class AdversaryError(ValueError):
    pass


def rebalance_to_equal(g: LearningGraph, f: BooleanFunction) -> LearningGraph:
    """Scale weights so both costs of :func:`complexity`, which ``g`` keeps
    for ``f``, equal the graph complexity; a graph with a non-finite cost,
    which no factor equalizes, is returned unscaled."""
    rep = complexity(g, f)
    c0, c1 = rep.c0, rep.c1
    if c0 <= 0.0 or c1 <= 0.0:
        raise AdversaryError(f"cannot equalize costs c0={c0}, c1={c1}")
    factor = math.sqrt(c1 / c0)
    return g.rescaled(factor) if 0.0 < factor < math.inf else g


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


class _Matrices(Mapping):
    """Read-only view of the dense M_j = Ψ_j Ψ_jᵀ, each built when it is
    looked up, summed column by column."""

    def __init__(self, factors: dict[int, Factor], m: int) -> None:
        self._factors = factors
        self._m = m

    def __getitem__(self, j: int) -> np.ndarray:
        fac, mat = self._factors[j], np.zeros((self._m, self._m))
        for lo, hi in zip(fac.starts[:-1].tolist(), fac.starts[1:].tolist()):
            idx, v = fac.rows[lo:hi], fac.vals[lo:hi]
            mat[np.ix_(idx, idx)] += np.outer(v, v)
        return mat

    def __iter__(self) -> Iterator[int]:
        return iter(self._factors)

    def __len__(self) -> int:
        return len(self._factors)


@dataclass
class Witness:
    n_bits: int
    domain: tuple[int, ...]  # ascending
    # every position some ordinary edge loads, in order of first load
    factors: dict[int, Factor]
    target: float  # complexity of the expanded graph
    blocks: int

    @property
    def matrices(self) -> Mapping[int, np.ndarray]:
        return _Matrices(self.factors, len(self.domain))


@dataclass(eq=False)
class _Parts:
    """What :func:`build_witness` computes for an expanded graph against a
    function, with the function it was made against."""

    f: BooleanFunction
    by_load: dict[int, dict[tuple[int, ...], list[int]]]  # see LearningGraph
    zs: np.ndarray  # the negatives, then the positives
    n_neg: int
    rows: np.ndarray  # the domain rows of zs
    ent: FlowEntries  # the positive entries, each on an ordinary edge
    c1: float
    w0_rows: np.ndarray  # the side-0 rows at the negatives, one per edge
    c0s: list[float]  # the column fsums of w0_rows
    packed: dict  # each tail label packed once, over all positions
    factors: dict[int, Factor]


def _parts(ge: LearningGraph, f: BooleanFunction) -> _Parts:
    """Every part of the witness of the expanded graph ``ge``; a domain
    over ``WITNESS_CAP`` and every flow fault raise here."""
    if len(f.domain) > WITNESS_CAP:
        raise AdversaryError(f"domain size {len(f.domain)} exceeds cap {WITNESS_CAP}")
    xs, ys = f.negatives(), f.positives()
    # priced first, so every flow fault raises here; then every entry is on
    # an ordinary edge with nonzero w1
    ent, _, c1s = side1_totals(ge, ys)
    zs = input_array(xs + ys, ge.n_bits)
    w0_rows = side0_rows(ge, zs[: len(xs)])
    parts = _Parts(
        f=f,
        by_load=ge.by_load(),
        zs=zs,
        n_neg=len(xs),
        rows=np.searchsorted(input_array(f.domain, ge.n_bits), zs),
        ent=ent,
        c1=max(c1s, default=0.0),
        w0_rows=w0_rows,
        c0s=column_fsums(w0_rows),
        packed={},
        factors={},
    )
    for j in parts.by_load:
        parts.factors[j] = _factor(parts, j, w0_rows, parts.packed)
    return parts


def _factor(parts: _Parts, j: int, w0_rows: np.ndarray, packed: dict) -> Factor:
    """Ψ_j from ``w0_rows``, the side-0 rows of every edge, and the positive
    entries of ``parts``, over the blocks of :func:`agreement_layout`.  Its
    arrays are read-only, as mutants share the factors they do not change."""
    by_tail, n_x = parts.by_load[j], parts.n_neg
    order, bounds = agreement_layout(parts.zs, n_x, j, list(by_tail), packed)
    # the edges in edge order, and the label group of each
    group = dict(sorted((i, g) for g, ids in enumerate(by_tail.values()) for i in ids))
    ids, group = np.array(list(group)), np.array(list(group.values()))
    k, m = len(ids), len(parts.zs)
    # each edge's entries at the inputs, negatives then positives; those of
    # negatives with w0 = 0 and of positives with no flow are dropped
    vals = np.zeros((k, m))
    vals[:, :n_x] = w0_rows[ids]
    keep = vals != 0.0
    np.sqrt(vals, out=vals)
    ent = parts.ent
    mine = np.isin(ent.edge, ids)
    at = np.searchsorted(ids, ent.edge[mine]) * m + n_x + ent.input[mine]
    # flow over root side-1 weight
    vals.flat[at] = ent.flow[mine] / np.sqrt(ent.w1[mine])
    keep.flat[at] = True
    # each edge's entries in its group's block order, at edge * m + place:
    # a column is the run of one block in one edge's row
    block = np.stack([np.arange(len(b) - 1).repeat(b[1:] - b[:-1]) for b in bounds])
    at = (order[group] + np.arange(k)[:, None] * m).ravel()
    kept = keep.ravel()[at]
    at = at[kept]
    column = at - at % m + block[group].ravel()[kept]
    new = np.concatenate(([column.size > 0], column[1:] != column[:-1]))
    fac = Factor(
        rows=parts.rows[at % m],
        vals=vals.ravel()[at],
        starts=np.append(np.flatnonzero(new), column.size),
    )
    for a in (fac.rows, fac.vals, fac.starts):
        a.flags.writeable = False
    return fac


def _inherited(g: LearningGraph, f: BooleanFunction) -> _Parts | None:
    """The parts of a mutant (see :func:`linking_mutants`) from those of
    its parent expansion.

    None unless the search set the lineage, and the parts were made
    against the function object ``f``.  Then only Ψ_j of the position j
    the edge loads is rebuilt, over the parent's label packs, and only the
    side-0 totals of the negatives whose ``w0`` changed are summed again.
    """
    if g._lineage is None:
        return None
    base, ei = g._lineage
    if base.f is not f:
        return None
    w0_rows = base.w0_rows.copy()
    w0_rows[ei] = g.edges[ei].w0.eval(base.zs[: base.n_neg])
    # every bit is compared, so a NaN or a -0.0 counts as a change
    new, old = w0_rows[ei].view(np.int64), base.w0_rows[ei].view(np.int64)
    changed = np.flatnonzero(new != old)
    c0s = list(base.c0s)
    for k, total in zip(changed.tolist(), column_fsums(w0_rows[:, changed])):
        c0s[k] = total
    j = g.edges[ei].load
    factors = {**base.factors, j: _factor(base, j, w0_rows, base.packed)}
    return replace(base, w0_rows=w0_rows, c0s=c0s, factors=factors)


def build_witness(g: LearningGraph, f: BooleanFunction) -> Witness:
    """Assemble the per-position factors for ``g`` against ``f``.

    Super edges are flattened first, and the target is the complexity of
    the expansion; the graph should already have equal costs (see
    :func:`rebalance_to_equal`) if the objective is to match it.  A mutant
    from :func:`linking_mutants`, flat by construction, reuses its parent's
    parts where it can.
    """
    parts = _inherited(g, f) or _parts(expand(g), f)
    return Witness(
        n_bits=g.n_bits,
        domain=f.domain,
        factors=parts.factors,
        target=math.sqrt(max(parts.c0s, default=0.0) * parts.c1),
        blocks=sum(fac.columns for fac in parts.factors.values()),
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


def _live_halves(w: Witness, f: BooleanFunction) -> tuple[np.ndarray, np.ndarray]:
    """N (negatives × k) and P (k × positives) of ``f``: the k live halves
    of the columns of every Ψ_j.  ``f`` must be on the witness's inputs."""
    if f.n_bits != w.n_bits:
        raise AdversaryError(f"{f.n_bits}-bit function, {w.n_bits}-bit witness")
    zs = input_array(w.domain, w.n_bits)
    xs, ys = f.negatives(), f.positives()
    # the row of each input of f, or -1 for an input the witness lacks
    rows = lookup((zs, np.append(np.arange(len(zs)), -1)), input_array(xs + ys, f.n_bits))
    if (rows < 0).any():
        z = bitstring((xs + ys)[int(np.argmax(rows < 0))], f.n_bits)
        raise AdversaryError(f"input {z} of the function is not in the witness domain")
    neg_rows, pos_rows = rows[: len(xs)], rows[len(xs) :]
    bits = (zs[:, None] >> np.array(list(w.factors), dtype=np.int64)) & 1
    # a column of Ψ_j has three halves of two slots, 2 * half + side: half
    # b for a negative with bit j = b (side 0) or a positive with bit j =
    # 1 - b (side 1), and half 2, which is never live, for any other row
    slot = np.full(bits.shape, 4, dtype=np.int64)
    slot[neg_rows] = 2 * bits[neg_rows]
    slot[pos_rows] = 3 - 2 * bits[pos_rows]
    place = np.zeros(len(zs), dtype=np.int64)
    place[rows] = np.arange(len(rows))
    # place, live half and value per entry; empty first, for a witness with no position
    entries = [(np.zeros(0, dtype=np.int64),) * 2 + (np.zeros(0),)]
    k = 0
    for t, fac in enumerate(w.factors.values()):
        # array methods, not numpy functions: this runs per position and call
        key = np.arange(0, 6 * fac.columns, 6).repeat(fac.starts[1:] - fac.starts[:-1])
        key += slot[fac.rows, t]
        seen = np.zeros(6 * fac.columns, dtype=bool)
        seen[key] = True
        live = seen[0::2] & seen[1::2]
        keep = live[key >> 1]
        ids = live.cumsum() + (k - 1)
        entries.append((place[fac.rows[keep]], ids[key[keep] >> 1], fac.vals[keep]))
        k += int(np.count_nonzero(live))
    at, half, vals = map(np.concatenate, zip(*entries))
    # two arrays: a single one holding both stayed resident in the heap once
    # freed, which raised the peak RSS of whole chains
    neg = at < len(neg_rows)
    n_mat, p_mat = np.zeros((len(neg_rows), k)), np.zeros((len(pos_rows), k))
    n_mat[at[neg], half[neg]] = vals[neg]
    p_mat[at[~neg] - len(neg_rows), half[~neg]] = vals[~neg]
    return n_mat, p_mat.T


def verify_witness(w: Witness, f: BooleanFunction) -> WitnessReport:
    m = len(w.domain)
    # crossing sums: for x negative, y positive, the sum over positions j
    # where the two inputs disagree of M_j[x, y] = <Ψ_j[x], Ψ_j[y]>
    cross = np.matmul(*_live_halves(w, f))
    diag = np.zeros(m)
    for fac in w.factors.values():
        # bincount adds in edge → block order, as the dense diagonal was added
        diag += np.bincount(fac.rows, weights=fac.vals * fac.vals, minlength=m)
    lo, hi = (float(cross.min()), float(cross.max())) if cross.size else (1.0, 1.0)
    if not all(np.isfinite(fac.vals).all() for fac in w.factors.values()):
        lo = hi = math.nan  # a non-finite entry fails, in a live half or not
    objective = float(diag.max()) if m else 0.0
    return WitnessReport(
        crossing_lo=lo,
        crossing_hi=hi,
        objective=objective,
        target=w.target,
        crossing_ok=abs(lo - 1.0) <= TOL and abs(hi - 1.0) <= TOL,
        objective_ok=abs(objective - w.target) <= TOL * max(1.0, abs(w.target)),
        checked_pairs=cross.size,
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
    parts = _parts(ge, f)
    xz, ent = parts.zs[: parts.n_neg], parts.ent
    candidates: dict[tuple[int, tuple[int, ...], tuple[int, ...]], float] = {}
    # priced, so every entry is on an ordinary edge
    for ei, grp in ent.by_edge.items():
        # a site is a flow of at least MIN_FLOW; negated so that a NaN flow
        # is one, as in the scalar scan
        grp = grp[~(ent.flow[grp] < MIN_FLOW)]
        # a site's partner is the first negative x with a positive w0 (or a
        # NaN one, as in the scalar scan) that agrees with its positive y on
        # the tail label and not on the loaded bit j: x & m == (y ^ 1 << j) & m
        e = ge.edges[ei]
        j, tail = e.load, mask_of(ge.label(e.src))
        if tail >> j & 1:
            continue  # a negative agreeing on the tail agrees on bit j too
        m = tail | 1 << j
        live = xz[~(parts.w0_rows[ei] <= 0.0)]
        keys = live & m
        by_key = np.argsort(keys, kind="stable")
        partner = lookup(
            (keys[by_key], np.append(live[by_key], -1)),
            (ent.zs[grp] ^ 1 << j) & m,
        )
        hit = partner >= 0
        dst_label = ge.label(e.dst)
        alpha = (partner[hit] & mask_of(dst_label)).tolist()
        # the largest flow per head assignment of the partners; the 0.0
        # default keeps out a NaN flow, so the order of the sites is free
        top: dict[int, float] = {}
        for a, p in zip(alpha, ent.flow[grp[hit]].tolist()):
            top[a] = max(top.get(a, 0.0), p)
        for a, p in top.items():
            candidates[(ei, dst_label, pack_bits(a, dst_label))] = p
    if len(candidates) < count:
        raise AdversaryError(
            f"only {len(candidates)} mutation sites available, need {count}"
        )
    order = sorted(candidates)
    random.Random(seed).shuffle(order)
    out: list[Mutant] = []
    for key in order[:count]:
        ei, dst_label, bits = key
        patched = PatchRule(dst_label, bits, MUTANT_FACTOR, ge.edges[ei].w0)
        edge = replace(ge.edges[ei], w0=patched)
        mg = ge._with_edges(ge.edges[:ei] + (edge,) + ge.edges[ei + 1 :])
        object.__setattr__(mg, "_lineage", (parts, ei))
        assignment = ",".join(f"{i + 1}:{b}" for i, b in zip(dst_label, bits))
        out.append(Mutant(mg, ei, assignment, MUTANT_FACTOR, candidates[key]))
    return out
