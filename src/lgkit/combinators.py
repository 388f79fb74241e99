"""Composition of learning graphs.

Two operations:

* ``or_compose`` merges child graphs at a shared root, scaling each child's
  weights by its positive cost over the fan-in, and routes each positive
  input's flow through its first positive children.  The children's
  functions must range over the same inputs: the disjunction's truth table
  is the OR of their ``truth`` bitsets, and the first positive children of
  every input are found by walking the children over bitsets of the inputs
  still short of the fan-in.
* ``johnson_compose`` builds a set-walk: paths load the positions attached to
  a start set, walk edges extend the set one element at a time (each of the
  r + 1 stages with its own load kind), and leaf subgraphs supplied by a
  factory are spliced onto the full sets, scaled per context so the final
  stage's positive cost is at most 1.  The contexts of a full set are the
  assignments its positions take on the function's domain, found by
  splitting the domain bitset on each position.  Positions must grow along
  every step; each step edge is checked.  Each certificate's walks are
  traced once, and the leaves where they end carry the flow of each
  positive with that certificate.

Every operation keeps exact flow bookkeeping: flows are built from unit
fractions and recorded per positive input on the result, as one flow
table (:class:`lgkit.model.Flows`).  The children's rows are spliced in
by array: :meth:`lgkit.model.GraphBuilder.merge` appends a child's edges
in order, so child edge ``e`` is edge ``base + e`` of the merged graph,
and one gather takes the rows of the inputs that route through it.  A
set walk's entries are the same for every positive with one certificate,
so each certificate's walk is traced once.  The children a composition
scales are priced in one positive-side pass
(:func:`lgkit.complexity.side1_of`): all children of an OR, and the leaf
contexts of each full set of a walk.  The pass reads the side-1 state
(:class:`lgkit.complexity.Side1`) a child kept from its composer; rows
are spliced from the children's states, and the composed graph keeps the
state they take under its hosted rules, its walk's edges priced afresh.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .complexity import FlowEntries, keep_side1, side1_of, side1_state
from .indexing import input_array, mask_of, pack_bits
from .loads import load_c1_max, load_gadget, single_load_rules
from .model import (
    NO_FLOWS,
    BooleanFunction,
    Flows,
    GraphBuilder,
    LearningGraph,
    StageInfo,
    gather_rows,
    groups_of,
)
from .rules import ConstRule, DispatchRule, TableRule, ZERO


class CompositionError(ValueError):
    pass


# ---------------------------------------------------------------------------
# OR


class Composed(NamedTuple):
    """A composed graph and the function it computes."""

    graph: LearningGraph
    function: BooleanFunction


def or_compose(
    children: Sequence[tuple[LearningGraph, BooleanFunction]],
    k: int,
    *,
    prefix: str = "c",
) -> Composed:
    """Compose child graphs disjunctively, merging their roots.

    Every positive input of the disjunction must have at least ``k`` positive
    children; its flow splits equally over the first ``k`` of them.  Children
    with no positive input are dead and get weight zero.  The children's
    functions must range over the same inputs and share a domain; the
    result's function lives on the first child's universe.
    """
    if k < 1:
        raise CompositionError(f"fan-in k={k} must be at least 1")
    if len(children) < k:
        raise CompositionError(f"need at least k={k} children, got {len(children)}")
    n_bits = children[0][0].n_bits
    fs = [f for _, f in children]
    universe, dom = fs[0].universe, fs[0].dom
    for g, f in children:
        if g.n_bits != n_bits or f.n_bits != n_bits:
            raise CompositionError("children disagree on input arity")
        if f.universe is not universe and f.universe.inputs != universe.inputs:
            raise CompositionError("children disagree on the input universe")
        if f.dom != dom:
            raise CompositionError("children disagree on the promised domain")
        if g.label(g.root) != ():
            raise CompositionError("child root labels must be empty")
    state, c1s = side1_of(children)
    # child after child, so the state's edge numbers are the merged graph's
    b = GraphBuilder(n_bits, root="r")
    for i, ((g, _), c1) in enumerate(zip(children, c1s)):
        host = ConstRule(c1 / k)
        b.merge(g, prefix=f"{prefix}{i}.", vmap={g.root: b.root}, hosts=(host, host))
    truth = 0
    for f in fs:
        truth |= f.truth
    fn = BooleanFunction.from_bits(universe, dom, truth)
    # the first k children positive on each positive: their places among
    # the positives and rows in the children's state.  short[j] holds the
    # positives with j children found so far; each child moves its
    # positives up one level, so the walk stops once every positive has k.
    positives = universe.array(truth)
    places, rows = [], []
    short = [truth] + [0] * (k - 1)
    for i, f in enumerate(fs):
        if not any(short):
            break
        for j in range(k - 1, -1, -1):
            hit = short[j] & f.truth
            if hit:
                short[j] ^= hit
                if j + 1 < k:
                    short[j + 1] |= hit
                places.append(universe.ranks(hit, truth))
                rows.append(universe.ranks(hit, f.truth) + state.starts[i])
    if not places:
        return Composed(b.graph(), fn)
    if any(short):  # disjoint bitsets: their sum is their union
        y = universe.members(sum(short))[0]
        live = sum(f(y) for f in fs)
        raise CompositionError(f"input {y} has {live} positive children, needs {k}")
    # each child's rows at its positives onto its new edges, with their
    # side-1 values under the new rules.  Rows come child after child:
    # sorted by positive, each one's flow is its children's in child order
    owner, at = gather_rows(state.offsets, np.concatenate(rows))
    sources = tuple(itertools.chain.from_iterable(g.edges for g, _ in children))
    side1 = state.hosted(at, lambda e: (sources[e].w1, b.edges[e].w1))
    cols = [np.concatenate(places)[owner], state.edge[at], state.flow[at] / k]
    cols += [] if side1 is None else [*side1, state.inner[at]]
    return _composed(b, positives, cols, fn)


def _composed(
    b: GraphBuilder, ys: np.ndarray, cols: list, f: BooleanFunction, stages=None
) -> Composed:
    """The builder's graph with the flows of the positives ``ys`` from the
    columns key (the positive's number), edge and flow, keeping its side-1
    state from the columns ``w1``, core and inner cost if given.  The
    columns are stably sorted by key: each positive's entries keep their
    order."""
    key = cols[0]
    if (key[1:] < key[:-1]).any():
        order = np.argsort(key, kind="stable")
        cols = [col[order] for col in cols]
    offsets = np.searchsorted(cols[0], np.arange(len(ys) + 1))
    g = b.graph(flows=Flows(ys, offsets, cols[1], cols[2]), stages=stages)
    keep_side1(g, f, cols[3:])
    return Composed(g, f)


# ---------------------------------------------------------------------------
# Set walk


Factory = Callable[
    [tuple[int, ...], int],
    "tuple[LearningGraph, BooleanFunction] | None",
]


def _subset_id(prefix: str, A: Sequence[int]) -> str:
    return prefix + ":" + ",".join(str(a) for a in A)


def johnson_compose(
    *,
    n_bits: int,
    ground: Sequence[int],
    k: int,
    r: int,
    positions: Callable[[frozenset], Iterable[int]],
    function: BooleanFunction,
    cert: Callable[[int], Sequence[int]],
    load_kinds: Sequence[str],
    factory: Factory | None = None,
    prefix: str = "A",
) -> Composed:
    """Build a set walk.

    ``ground`` lists the walk elements; ``positions`` maps a subset of ground
    elements to the input positions it owns, which must grow along every step
    (each step edge is checked); ``cert`` maps a positive input to the ``r``
    elements whose presence in the final set lets the leaf finish.
    ``load_kinds`` gives the load kind of each of the ``r + 1`` stages.
    ``factory`` builds the leaf subgraph for a full set and a context (the
    input restricted to the set's positions); ``None`` uses a bare leaf and
    additionally enables the strict certificate check (the certificate's own
    positions must force the function to 1).
    """
    ground = tuple(sorted(ground))
    n_g = len(ground)
    if not 0 <= r <= k <= n_g:
        raise CompositionError(f"need r <= k <= |ground|, got {r},{k},{n_g}")
    if len(load_kinds) != r + 1:
        raise CompositionError(f"need {r + 1} load kinds, got {len(load_kinds)}")

    pos_cache: dict[frozenset, tuple[int, ...]] = {}

    def I(A: Iterable[int]) -> tuple[int, ...]:
        key = frozenset(A)
        if key not in pos_cache:
            pos_cache[key] = tuple(sorted(positions(key)))
        return pos_cache[key]

    start = k - r
    if start == 0 and I(()) != ():
        raise CompositionError("the empty set must own no positions")

    # A start set is usable for an input when it avoids the certificate and
    # owns at least one position (otherwise its path would be an empty
    # transition, which cannot carry flow).
    def usable_starts(T: Sequence[int]) -> list[tuple[int, ...]]:
        if start == 0:
            return [()]
        avoid = set(T)
        return [
            A
            for A in itertools.combinations(ground, start)
            if not (set(A) & avoid) and I(A)
        ]

    positives = function.positives()
    n_used: int | None = None
    # holders[T]: the numbers of the positives whose certificate is T
    holders: dict[tuple[int, ...], list[int]] = {}
    starts: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    checked: dict[tuple[int, ...], tuple[int, ...]] = {}  # cert(y) -> T
    for n, y in enumerate(positives):
        given = tuple(cert(y))
        T = checked.get(given)
        if T is None:
            T = tuple(sorted(given))
            if len(T) != r or len(set(T)) != r or not set(T) <= set(ground):
                raise CompositionError(f"bad certificate {T} for input {y}")
            checked[given] = T
            if T not in starts:
                starts[T] = usable_starts(T)
            count = len(starts[T])
            if n_used is None:
                n_used = count
            elif n_used != count:
                raise CompositionError(
                    f"usable start count differs across inputs: {n_used} vs {count}"
                )
        holders.setdefault(T, []).append(n)
    if n_used == 0:
        raise CompositionError("no usable start sets: every start owns no positions")
    if n_used is None:
        n_used = max(1, len(usable_starts(())))

    b = GraphBuilder(n_bits, root="r")
    vid: dict[tuple[int, ...], str] = {}
    for size in range(start, k + 1):
        for A in itertools.combinations(ground, size):
            if size == 0:
                vid[A] = b.root
            else:
                vid[A] = b.add_vertex(_subset_id(prefix, A), I(A))

    stage_edges: list[list[int]] = [[] for _ in range(r + 1)]
    step_edge: dict[tuple[tuple[int, ...], int], int] = {}
    start_edge: dict[tuple[int, ...], int] = {}

    # factors[ei]: load edge ei's cost cap over the usable start count,
    # which hosts both of its weights
    factors: dict[int, float] = {}
    hosts: dict[float, ConstRule] = {}

    def add_load(src: str, dst: str, loads: tuple[int, ...], kind: str) -> int:
        if not loads:
            return b.add_empty(src, dst)
        if len(loads) == 1:
            w0, w1 = single_load_rules(kind, loads[0])
            ei = b.add_ordinary(src, dst, loads[0], w0, w1)
        else:
            ei = b.add_super(src, dst, load_gadget(kind, n_bits, loads))
        lam = factors[ei] = load_c1_max(kind, len(loads)) / n_used
        host = hosts.setdefault(lam, ConstRule(lam))
        b.edges[ei] = b.edges[ei].hosted(host, host, b._products)
        return ei

    if start >= 1:
        for A in itertools.combinations(ground, start):
            ei = add_load(b.root, vid[A], I(A), load_kinds[0])
            start_edge[A] = ei
            stage_edges[0].append(ei)
    for step in range(1, r + 1):
        for A in itertools.combinations(ground, start + step - 1):
            have = set(A)
            owned = set(I(A))
            for j in ground:
                if j in have:
                    continue
                bigger = tuple(sorted(have | {j}))
                now = set(I(bigger))
                if not owned <= now:
                    raise CompositionError(
                        f"positions not monotone along {A} + {j}: "
                        f"lost {owned - now}"
                    )
                inc = tuple(sorted(now - owned))
                ei = add_load(vid[A], vid[bigger], inc, load_kinds[step])
                step_edge[(A, j)] = ei
                stage_edges[step].append(ei)

    # The walk of a certificate T, the same for each of its positives:
    # from each usable start, its load edge and a step per element of T,
    # each with flow ``unit``, to the full set where it ends.  reached[A]:
    # the numbers of the positives whose walk ends at full set A, in order.
    unit = 1.0 / n_used
    ks, es, ps = [], [], []
    reached_by: dict[tuple[int, ...], list[np.ndarray]] = {}
    crossed = []  # (first positive, set, element): each walk's first empty step
    for T, ns in holders.items():
        holding = np.array(ns, dtype=np.int64)
        walk: list[int] = []
        empty = []
        for A in starts[T]:
            if start >= 1:
                walk.append(start_edge[A])
            cur = A
            for j in T:
                ei = step_edge[(cur, j)]
                if b.edges[ei].kind == "empty":
                    empty.append((ns[0], cur, j))
                walk.append(ei)
                cur = tuple(sorted(set(cur) | {j}))
            reached_by.setdefault(cur, []).append(holding)
        crossed += empty[:1]
        ks.append(np.repeat(holding, len(walk)))
        cycle = np.arange(len(walk) * len(ns)) % max(len(walk), 1)
        es.append(np.array(walk, dtype=np.int64)[cycle])
        ps.append(np.full(len(cycle), unit))
    if crossed:
        n, cur, j = min(crossed)
        raise CompositionError(
            f"flow walk for input {positives[n]} crosses the empty step {cur} + {j}"
        )
    reached = {A: np.sort(np.concatenate(parts)) for A, parts in reached_by.items()}
    ys = input_array(positives, n_bits)
    # w1, core and inner cost per entry (the walk's priced afresh), None on a fault
    ws: list[np.ndarray] | None = None
    if ks:
        key, edge, flow = map(np.concatenate, (ks, es, ps))
        walk = FlowEntries(key, edge, flow, b.edges, ys[key], [])
        st, (fault,), *_ = side1_state(walk, ys, [0, len(ys)])
        ws = None if fault else [np.stack([st.w1, st.core, st.inner])]

    # Leaf stage: each full set's leaves, their rows at the positives
    # reaching it spliced on, with their side-1 values under the new rules
    leaf_edges: list[int] = []
    if factory is not None:
        for A in itertools.combinations(ground, k):
            ipos = I(A)
            mask = mask_of(ipos)
            contexts = sorted(function.universe.split(function.dom, ipos))
            built: dict[int, tuple[LearningGraph, BooleanFunction]] = {}
            for kappa in contexts:
                child = factory(A, kappa)
                if child is not None:
                    built[kappa] = child
            if not built:
                continue
            ref = next(iter(built.values()))[0]
            leaves = list(built.items())
            shape = _shape(ref)
            differ = next(
                (m for m, (_, (cg, _)) in enumerate(leaves) if _shape(cg) != shape),
                len(leaves),
            )
            # the contexts before the first that differs, priced in one pass
            priced = [leaf for leaf in leaves[:differ] if leaf[1][1].truth]
            state, lams = side1_of([child for _, child in priced])
            if differ < len(leaves):
                raise CompositionError(f"leaf structures differ across contexts at {A}")
            lamrow = {
                pack_bits(kappa, ipos): lam / n_used
                for (kappa, _), lam in zip(priced, lams)
            }
            host = TableRule(ipos, lamrow) if ipos else ConstRule(lamrow.get((), 0.0))
            merged = _merge_leaf_rules(built, ref, ipos)
            # the state numbers the contexts' edges one context after
            # another, and they have the same edges: its edge e is edge
            # base + e % width of the merged leaf
            base = b.merge(
                ref._with_edges(merged),
                prefix=_subset_id(prefix, A) + "/",
                vmap={ref.root: vid[A]},
                hosts=(host, host),
                label_shift=ipos,
            )
            width = len(merged)
            leaf_edges.extend(range(base, base + width))
            ns = reached.get(A)
            if ns is None:
                continue
            # the reaching positives' faults by context, in check order as
            # (place in ns, check, message); the others' rows and host values
            faults: list[tuple[int, int, str]] = []
            part = {kappa: q for q, (kappa, _) in enumerate(priced)}
            keys, rows, hosts = [], [], []
            for kappa, places in groups_of(ys[ns] & mask).items():
                if kappa not in built:
                    text = "no leaf for context of input {y} at {A}"
                    faults.append((int(places[0]), 0, text))
                    continue
                zs, cf = ys[ns[places]], built[kappa][1]
                held = cf.universe.array(cf.truth)
                negative = places[~_members(zs, held)]
                if len(negative):
                    text = "walk reaches {A} on input {y} but the leaf is negative"
                    faults.append((int(negative[0]), 1, text))
                    continue
                keys.append(ns[places])
                rows.append(held.searchsorted(zs) + state.starts[part[kappa]])
                hosts.append(np.full(len(zs), lamrow[pack_bits(kappa, ipos)]))
            if faults:
                place, _, text = min(faults)
                raise CompositionError(text.format(y=positives[ns[place]], A=A))
            owner, at = gather_rows(state.offsets, np.concatenate(rows))
            ks.append(np.concatenate(keys)[owner])
            es.append(base + state.edge[at] % width)
            ps.append(state.flow[at] * unit)
            if ws is not None:
                rules = lambda e: (merged[e % width].w1, b.edges[base + e % width].w1)
                side1 = state.hosted(at, rules, np.concatenate(hosts)[owner])
                ws = None if side1 is None else ws + [np.stack([*side1, state.inner[at]])]
    else:
        cert_of = {n: T for T, ns in holders.items() for n in ns}
        for n, y in enumerate(positives):
            T = cert_of[n]
            tpos = I(T)
            tmask = mask_of(tpos)
            bad = function.universe.select(tmask, y & tmask)
            bad &= function.dom & ~function.truth
            if bad:
                z = function.universe.members(bad)[0]
                raise CompositionError(
                    f"certificate {T} of input {y} does not force the "
                    f"function (input {z} is negative)"
                )

    stages = [
        StageInfo(
            f"load{step}" if step == 0 else f"walk{step}",
            tuple(stage_edges[step]),
            rebalance={
                ei: factors[ei] for ei in stage_edges[step] if ei in factors
            },
        )
        for step in range(r + 1)
        if stage_edges[step]
    ]
    if leaf_edges:
        stages.append(StageInfo("leaf", tuple(leaf_edges)))
    if not ks:
        return Composed(b.graph(flows=NO_FLOWS, stages=stages), function)
    # walk entries come by positive; the stable sort puts each positive's
    # leaf entries after them, in full set order
    cols = [np.concatenate(c) for c in (ks, es, ps)]
    cols += [] if ws is None else list(np.concatenate(ws, axis=1))
    return _composed(b, ys, cols, function, stages)


def _shape(g: LearningGraph) -> tuple[list[str], list[tuple[str, str, int | None]]]:
    return list(g.vertices), [(e.src, e.dst, e.load) for e in g.edges]


def _members(zs: np.ndarray, sorted_zs: np.ndarray) -> np.ndarray:
    """Whether each input of ``zs`` is one of ``sorted_zs``."""
    if not len(sorted_zs):
        return np.zeros(len(zs), dtype=bool)
    at = np.minimum(sorted_zs.searchsorted(zs), len(sorted_zs) - 1)
    return sorted_zs[at] == zs


def _merge_leaf_rules(
    built: dict[int, tuple[LearningGraph, BooleanFunction]],
    ref: LearningGraph,
    ipos: tuple[int, ...],
) -> list:
    """Combine per-context leaf weights into one edge list.

    Where contexts agree the shared rule is kept; where they differ the rule
    dispatches on the context positions.
    """
    out = []
    for i, e in enumerate(ref.edges):
        if e.kind == "empty":
            out.append(replace(e))
            continue
        w = []
        for side in (0, 1):
            variants = {
                pack_bits(kappa, ipos): (cg.edges[i].w1 if side else cg.edges[i].w0)
                for kappa, (cg, _) in built.items()
            }
            distinct = set(map(id, variants.values()))
            first = next(iter(variants.values()))
            if len(distinct) == 1 or all(v == first for v in variants.values()):
                w.append(first)
            else:
                w.append(DispatchRule(ipos, variants, ZERO))
        out.append(replace(e, w0=w[0], w1=w[1]))
    return out
