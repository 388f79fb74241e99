"""Input-by-input versions of the rule, cost, validation and witness code.

These are the loops the column-wise code replaced, kept as the reference
that ``test_columnwise.py`` compares against.  ``rule_at`` evaluates a rule
at one input with the scalar body of its class, and shares no code with
``Rule.eval``.  The loops call it once per (edge, input) and price a graph
with their own scalar cost functions (``graph_c0_loop``, ``graph_c1_loop``),
so they share no pricing code with ``lgkit.complexity``.  The witness
reference keeps every per-position matrix dense (m × m) and reports the
smallest eigenvalue of any of them from a full decomposition, which the
factored witness does not compute: M_j = Ψ_jΨ_jᵀ is PSD by construction.
``or_compose_loop`` computes the disjunction's values and routing input by
input, as ``or_compose`` did before functions were stored as bitsets;
``test_combinators.py`` compares against it.  ``flow_entries_loop`` reads
flows input by input from ``{edge: flow}`` maps, in each map's own order, as
``flow_entries`` did before flows were one table.  ``linking_mutants_loop`` finds
mutation sites by scanning (edge, positive, negative) triples, calling each
``w0`` at one negative at a time.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from lgkit import adversary
from lgkit.adversary import (
    MIN_FLOW,
    MUTANT_FACTOR,
    AdversaryError,
    Mutant,
    WitnessReport,
)
from lgkit.combinators import Composed, CompositionError
from lgkit.complexity import (
    ComplexityError,
    ComplexityReport,
    MissingFlowError,
    StageCost,
)
from lgkit.expand import expand
from lgkit.indexing import bitstring, mask_of, pack_bits
from lgkit.model import BooleanFunction, GraphBuilder, LearningGraph
from lgkit.rules import (
    CandidatePairRule,
    ConstRule,
    DenseLoadRule,
    DispatchRule,
    PatchRule,
    ProductRule,
    ScaleRule,
    SparseLoadRule,
    TableRule,
)
from lgkit.validate import ValidationReport, _structure


def rule_at(rule, z):
    """The weight of ``rule`` at the one input ``z`` (an int), by the scalar
    body of the rule's class.  ``Rule.eval`` must give the same bits."""
    if isinstance(rule, ConstRule):
        return rule.value
    if isinstance(rule, TableRule):
        return rule.table.get(pack_bits(z, rule.indices), rule.default)
    if isinstance(rule, DenseLoadRule):
        return float(rule.size)
    if isinstance(rule, SparseLoadRule):
        n = len(rule.path)
        scale = 3.0 * math.log(n + 1)
        if (z >> rule.path[rule.pos - 1]) & 1 == rule.side:
            ones = sum((z >> i) & 1 for i in rule.path[: rule.pos - 1])
            return (ones + 1) * scale
        return n * scale
    if isinstance(rule, ScaleRule):
        return rule.factor * rule_at(rule.inner, z)
    if isinstance(rule, ProductRule):
        return rule_at(rule.left, z) * rule_at(rule.right, z)
    if isinstance(rule, CandidatePairRule):
        for i in rule.required:
            if not (z >> i) & 1:
                return 0.0
        for a, b in rule.blocked:
            if (z >> a) & 1 and (z >> b) & 1:
                return 0.0
        return 1.0
    if isinstance(rule, PatchRule):
        w = rule_at(rule.inner, z)
        if pack_bits(z, rule.indices) == rule.bits:
            return rule.factor * w
        return w
    if isinstance(rule, DispatchRule):
        case = rule.cases.get(pack_bits(z, rule.indices), rule.default)
        return rule_at(case, z)
    raise TypeError(f"no scalar body for {type(rule).__name__}")


def edge_c0_loop(g, e, z):
    if e.kind == "empty":
        return 0.0
    if e.gadget is None:
        return rule_at(e.w0, z)
    host = rule_at(e.w0, z)
    if host == 0.0:
        return 0.0
    return host * graph_c0_loop(e.gadget.inner, z)


def graph_c0_loop(g, z):
    # fsum keeps repeated equal prices exact (a dense path must cost K^2)
    return math.fsum(edge_c0_loop(g, e, z) for e in g.edges)


def edge_c1_loop(g, e, p, y):
    if p == 0.0:
        return 0.0
    if p < 0.0:
        raise ComplexityError(f"negative flow {p} on edge {e.src}->{e.dst}")
    if e.kind == "empty":
        raise ComplexityError(
            f"flow {p} on empty transition {e.src}->{e.dst} at input {y}"
        )
    w = rule_at(e.w1, y)
    if w == 0.0:
        raise ComplexityError(
            f"flow {p} on zero side-1 weight {e.src}->{e.dst} at input {y}"
        )
    if e.gadget is None:
        return p * p / w
    return p * p * graph_c1_loop(e.gadget.inner, y) / w


def graph_c1_loop(g, y):
    flow = g.flow_for(y)
    if flow is None:
        raise MissingFlowError(f"no flow recorded for input {y}")
    return math.fsum(_flow_c1_loop(g, i, p, y) for i, p in flow.items())


def _flow_c1_loop(g, i, p, y):
    if not 0 <= i < len(g.edges):  # whatever its flow
        raise ComplexityError(f"flow {p} on unknown edge {i} at input {y}")
    return edge_c1_loop(g, g.edges[i], p, y)


def flow_entries_loop(flows, ys):
    """The (input, edge, flow) entries of the ``{edge: flow}`` map that
    ``flows(y)`` gives at each input of ``ys`` (None for no flow), in input
    order and, within an input, in map order, zero flows left out; and the
    numbers of the inputs with no flow."""
    ks, es, ps, missing = [], [], [], []
    for k, y in enumerate(ys):
        flow = flows(y)
        if flow is None:
            missing.append(k)
            continue
        for i, p in flow.items():
            if p != 0.0:
                ks.append(k)
                es.append(i)
                ps.append(p)
    return ks, es, ps, missing


def edge_c1_cap_loop(e):
    """Largest positive-side cost one unit of flow can incur on an edge
    without a recorded bound, scanning every input of its support one at a
    time: the reference for ``loads.load_c1_max``."""
    if e.gadget is not None:
        inner = e.gadget.inner
        sup = sorted({i for ie in inner.edges for i in ie.w1.support})
        best = 0.0
        for bits in itertools.product((0, 1), repeat=len(sup)):
            z = sum(1 << p for p, bit in zip(sup, bits) if bit)
            best = max(best, graph_c1_loop(inner, z))
        return best
    vals = []
    for bits in itertools.product((0, 1), repeat=len(e.w1.support)):
        z = sum(1 << p for p, bit in zip(e.w1.support, bits) if bit)
        w = rule_at(e.w1, z)
        if w > 0:
            vals.append(1.0 / w)
    if not vals:
        return 0.0
    return max(vals)


def complexity_loop(g, f):
    per0 = {x: graph_c0_loop(g, x) for x in f.negatives()}
    per1 = {y: graph_c1_loop(g, y) for y in f.positives()}
    stages = []
    for st in g.stages or ():
        edge_ids = set(st.edges)
        factors = dict(st.rebalance or {})
        stage_per0 = {}
        stage_per1 = {}
        raw0 = 0.0 if factors else None
        raw1 = 0.0 if factors else None
        for x in f.negatives():
            parts = [(i, edge_c0_loop(g, g.edges[i], x)) for i in st.edges]
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
                (i, edge_c1_loop(g, g.edges[i], p, y))
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
        stages.append(
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
    return ComplexityReport(
        c0=max(per0.values(), default=0.0),
        c1=max(per1.values(), default=0.0),
        n_bits=g.n_bits,
        per_input_c0=per0,
        per_input_c1=per1,
        stages=tuple(stages),
    )


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
                vals0 = [rule_at(e.w0, x) for x in gx if (x >> j) & 1 == c]
                vals1 = [rule_at(e.w1, y) for y in gy if (y >> j) & 1 != c]
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
            if not math.isfinite(p):
                report.add("non-finite", f"edge[{ei}] {ystr}", f"flow {p} not finite")
            if p < -atol:
                report.add("flow-negative", f"edge[{ei}] {ystr}", f"flow {p} negative")
            if p > atol and e.kind == "empty":
                report.add(
                    "empty-flow",
                    f"edge[{ei}] {ystr}",
                    f"empty transition carries flow {p}",
                )
            if p > atol and e.kind != "empty" and rule_at(e.w1, y) == 0.0:
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
    """``validate(g, f)`` with semantic linking."""
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
    # priced first, so a flow fault raises the scalar positive side's error
    c1 = max((graph_c1_loop(ge, y) for y in f.positives()), default=0.0)
    flows = {y: ge.flow_for(y) for y in f.positives()}
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
                    w = rule_at(e.w1, z)
                    (psi0_idx if zj == 1 else psi1_idx).append(row[z])
                    (psi0_val if zj == 1 else psi1_val).append(p / math.sqrt(w))
                else:
                    w = rule_at(e.w0, z)
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
    c0 = max((graph_c0_loop(ge, x) for x in f.negatives()), default=0.0)
    return LoopWitness(
        n_bits=g.n_bits,
        domain=domain,
        row=row,
        matrices=mats,
        target=math.sqrt(c0 * c1),
        blocks=blocks,
    )


@dataclass
class LoopWitnessReport(WitnessReport):
    min_eigenvalue: float = 0.0  # over every M_j; 0.0 with no position


def verify_witness_loop(w, f, tol=1e-9):
    """``verify_witness`` on the dense matrices of a :class:`LoopWitness`,
    and the smallest eigenvalue of any of them, NaN if one of them is not
    finite (``eigvalsh`` does not converge on it)."""
    m = len(w.domain)
    mats = list(w.matrices.items())
    eigs = [
        np.linalg.eigvalsh(mat)[0] if np.isfinite(mat).all() else math.nan
        for _, mat in mats
    ]
    min_eig = float(np.min(eigs)) if eigs else 0.0

    # crossing sums: for x negative, y positive, sum the entries of the
    # matrices at positions where the two inputs disagree
    cross = np.zeros((m, m))
    for j, mat in mats:
        bit = np.array([(z >> j) & 1 for z in w.domain])
        differs = bit[:, None] != bit[None, :]
        cross += np.where(differs, mat, 0.0)
    row = {z: i for i, z in enumerate(w.domain)}
    neg_rows = [row[x] for x in f.negatives()]
    pos_rows = [row[y] for y in f.positives()]
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
    return LoopWitnessReport(
        crossing_lo=lo,
        crossing_hi=hi,
        objective=objective,
        target=w.target,
        crossing_ok=abs(lo - 1.0) <= tol and abs(hi - 1.0) <= tol,
        objective_ok=abs(objective - w.target) <= rel,
        checked_pairs=len(neg_rows) * len(pos_rows),
        min_eigenvalue=min_eig,
    )


def linking_mutants_loop(g, f, count=50, *, seed=0):
    """``linking_mutants``, one (edge, positive, negative) triple at a time.
    It refuses what the witness refuses: a domain over ``WITNESS_CAP``, then,
    as the expansion is priced first, every flow fault."""
    if count < 0:
        raise AdversaryError(f"mutant count {count} is negative")
    ge = expand(g)
    if len(f.domain) > adversary.WITNESS_CAP:
        raise AdversaryError(
            f"domain size {len(f.domain)} exceeds cap {adversary.WITNESS_CAP}"
        )
    for y in f.positives():
        graph_c1_loop(ge, y)
    candidates = {}
    negs = f.negatives()
    for ei, e in enumerate(ge.edges):
        if e.kind != "ordinary":
            continue
        j = e.load
        src_mask = mask_of(ge.label(e.src))
        dst_label = ge.label(e.dst)
        for y in f.positives():
            p = ge.flow_for(y).get(ei, 0.0)
            if p < MIN_FLOW:
                continue
            ablock = y & src_mask
            yj = (y >> j) & 1
            for x in negs:
                if x & src_mask != ablock or (x >> j) & 1 == yj:
                    continue
                if rule_at(e.w0, x) <= 0.0:
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
    out = []
    for key in order[:count]:
        ei, dst_label, bits = key
        e = ge.edges[ei]
        edges = list(ge.edges)
        patched = PatchRule(dst_label, bits, MUTANT_FACTOR, e.w0)
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
        assignment = ",".join(f"{i + 1}:{b}" for i, b in zip(dst_label, bits))
        out.append(Mutant(mg, ei, assignment, MUTANT_FACTOR, candidates[key]))
    return out


def or_compose_loop(children, k, *, prefix="c"):
    if k < 1:
        raise CompositionError(f"fan-in k={k} must be at least 1")
    if len(children) < k:
        raise CompositionError(f"need at least k={k} children, got {len(children)}")
    n_bits = children[0][0].n_bits
    inputs = children[0][1].universe.inputs
    domain = children[0][1].domain
    for g, f in children:
        if g.n_bits != n_bits or f.n_bits != n_bits:
            raise CompositionError("children disagree on input arity")
        if f.universe.inputs != inputs:
            raise CompositionError("children disagree on the input universe")
        if f.domain != domain:
            raise CompositionError("children disagree on the promised domain")
        if g.label(g.root) != ():
            raise CompositionError("child root labels must be empty")
    lambdas = []
    for g, f in children:
        pos = f.positives()
        if not pos:
            lambdas.append(0.0)
            continue
        lambdas.append(max(graph_c1_loop(g, y) for y in pos) / k)
    b = GraphBuilder(n_bits, root="r")
    emaps = []
    for i, (g, _) in enumerate(children):
        host = ConstRule(lambdas[i])
        _, emap = b.merge(
            g,
            prefix=f"{prefix}{i}.",
            vmap={g.root: b.root},
            hosts=(host, host),
        )
        emaps.append(emap)
    values = {z: max(f(z) for _, f in children) for z in domain}
    fn = BooleanFunction(n_bits, values)
    flows = {}
    for y in fn.positives():
        live = [i for i, (_, f) in enumerate(children) if f(y)]
        chosen = live[:k]
        if len(chosen) < k:
            raise CompositionError(
                f"input {y} has {len(live)} positive children, needs {k}"
            )
        fy = {}
        for i in chosen:
            child_flow = children[i][0].flow_for(y)
            if child_flow is None:
                raise CompositionError(f"child {i} lacks a flow for input {y}")
            for ei, p in child_flow.items():
                fy[emaps[i][ei]] = p / k
        flows[y] = fy
    return Composed(b.graph(flows=flows), fn)
