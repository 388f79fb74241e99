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
  every step; each step edge is checked.  Each input's walks are traced
  once, and the leaves where they end carry its flow.

Every operation keeps exact flow bookkeeping: flows are built from unit
fractions and recorded per positive input on the result.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Callable, Iterable, NamedTuple, Sequence

from .complexity import c1_max
from .indexing import mask_of, pack_bits
from .loads import load_c1_max, load_gadget, single_load_rules
from .model import (
    BooleanFunction,
    GraphBuilder,
    LearningGraph,
    StageInfo,
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
    lambdas = [c1_max(g, f) / k for g, f in children]
    b = GraphBuilder(n_bits, root="r")
    emaps: list[dict[int, int]] = []
    for i, ((g, _), lam) in enumerate(zip(children, lambdas)):
        host = ConstRule(lam)
        _, emap = b.merge(
            g, prefix=f"{prefix}{i}.", vmap={g.root: b.root}, hosts=(host, host)
        )
        emaps.append(emap)
    truth = 0
    for f in fs:
        truth |= f.truth
    fn = BooleanFunction.from_bits(universe, dom, truth)
    # first[y]: the first k children positive on y.  short[j] holds the
    # positives with j children found so far; each child moves its positives
    # up one level, so the walk stops once every positive has k.
    first: dict[int, list[int]] = {y: [] for y in fn.positives()}
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
                for y in universe.members(hit):
                    first[y].append(i)
    flows: dict[int, dict[int, float]] = {}
    for y, chosen in first.items():
        if len(chosen) < k:
            live = sum(f(y) for f in fs)
            raise CompositionError(
                f"input {y} has {live} positive children, needs {k}"
            )
        fy: dict[int, float] = {}
        for i in chosen:
            child_flow = children[i][0].flow_for(y)
            if child_flow is None:
                raise CompositionError(f"child {i} lacks a flow for input {y}")
            for ei, p in child_flow.items():
                fy[emaps[i][ei]] = p / k
        flows[y] = fy
    return Composed(b.graph(flows=flows), fn)


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
    certs: dict[int, tuple[int, ...]] = {}
    starts: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for y in positives:
        T = tuple(sorted(cert(y)))
        if len(T) != r or len(set(T)) != r or not set(T) <= set(ground):
            raise CompositionError(f"bad certificate {T} for input {y}")
        certs[y] = T
        if T not in starts:
            starts[T] = usable_starts(T)
        count = len(starts[T])
        if n_used is None:
            n_used = count
        elif n_used != count:
            raise CompositionError(
                f"usable start count differs across inputs: {n_used} vs {count}"
            )
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

    # reached[A]: the inputs, in positive order, whose walk ends at full set A
    flows: dict[int, dict[int, float]] = {}
    reached: dict[tuple[int, ...], list[int]] = {}
    unit = 1.0 / n_used
    for y in positives:
        T = certs[y]
        fy: dict[int, float] = {}
        for A in starts[T]:
            if start >= 1:
                fy[start_edge[A]] = fy.get(start_edge[A], 0.0) + unit
            cur = A
            for j in T:
                ei = step_edge[(cur, j)]
                if b.edges[ei].kind == "empty":
                    raise CompositionError(
                        f"flow walk for input {y} crosses the empty step "
                        f"{cur} + {j}"
                    )
                fy[ei] = fy.get(ei, 0.0) + unit
                cur = tuple(sorted(set(cur) | {j}))
            reached.setdefault(cur, []).append(y)
        flows[y] = fy

    # Leaf stage.
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
            ref_shape = [(e.src, e.dst, e.load) for e in ref.edges]
            lamrow: dict[tuple[int, ...], float] = {}
            for kappa, (cg, cf) in built.items():
                if (
                    list(cg.vertices) != list(ref.vertices)
                    or [(e.src, e.dst, e.load) for e in cg.edges] != ref_shape
                ):
                    raise CompositionError(
                        f"leaf structures differ across contexts at {A}"
                    )
                if cf.positives():
                    lamrow[pack_bits(kappa, ipos)] = c1_max(cg, cf) / n_used
            host = TableRule(ipos, lamrow) if ipos else ConstRule(lamrow.get((), 0.0))
            _, emap = b.merge(
                ref._with_edges(_merge_leaf_rules(built, ref, ipos)),
                prefix=_subset_id(prefix, A) + "/",
                vmap={ref.root: vid[A]},
                hosts=(host, host),
                label_shift=ipos,
            )
            leaf_edges.extend(emap.values())
            for y in reached.get(A, ()):
                kappa = y & mask
                if kappa not in built:
                    raise CompositionError(
                        f"no leaf for context of input {y} at {A}"
                    )
                cg, cf = built[kappa]
                if not cf(y):
                    raise CompositionError(
                        f"walk reaches {A} on input {y} but the leaf is negative"
                    )
                cflow = cg.flow_for(y)
                if cflow is None:
                    raise CompositionError(f"leaf at {A} lacks a flow for {y}")
                fy = flows[y]
                for ci, p in cflow.items():
                    fy[emap[ci]] = fy.get(emap[ci], 0.0) + p * unit
    else:
        for y in positives:
            T = certs[y]
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
    return Composed(b.graph(flows=flows, stages=stages), function)


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
