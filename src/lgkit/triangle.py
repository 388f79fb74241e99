"""Triangle detection on small graphs.

Inputs encode an undirected n-vertex graph: one bit per vertex pair, pairs
ordered lexicographically.  Three graph families detect a triangle:

* dense: an OR over excluded sets X of (a direct search for triangles meeting
  X) or (a two-level set walk searching for a triangle avoiding X);
* sparse: the same skeleton with sparse loading paths, plus a neighborhood
  based direct search;
* the anchored variant (sparsenew): the walk variants' anchored search with
  no excluded set (X = ∅), ORed over anchor vertices w with fan-in 3; each
  search is a single set walk that loads adjacencies to w and probes pairs of
  its neighbors.

Every truth table is built from the domain's position columns (see
``model.Universe``): a pair or triangle is an AND of its edges' columns, and a
positive input is certified by the first pair or triangle, in enumeration
order, whose bitset holds it.

The module also carries the anchored pair sets (``delta_sets``) and the exact
counting oracles the composition analysis leans on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Sequence, TypeVar

from .combinators import (
    Composed,
    CompositionError,
    johnson_compose,
    or_compose,
)
from .indexing import mask_of, num_pairs, pair_position, position_pair
from .loads import DENSE, SPARSE, dense_load, sparse_load
from .model import BooleanFunction, Flows, GraphBuilder, LearningGraph, Universe
from .rules import CandidatePairRule, DenseLoadRule, ProductRule, TableRule
from .serialize import FormatError, _integer

BUILD_CAP = 5
# a unit of flow on edge 0 at every input, shared by the one-edge graphs
_UNIT = Flows.of(None, {0: 1.0})
ORACLE_CAP = 10

T = TypeVar("T")


# ---------------------------------------------------------------------------
# Instances


@dataclass(frozen=True)
class GraphInstance:
    """An n-vertex undirected graph as an edge bit mask."""

    n: int
    z: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"vertex count n={self.n} must not be negative")
        if self.z >> num_pairs(self.n):
            raise ValueError(f"edge mask has bits beyond {num_pairs(self.n)} pairs")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "GraphInstance":
        z = 0
        for u, v in edges:
            z |= 1 << pair_position(u, v, n)
        return cls(n, z)

    @property
    def m(self) -> int:
        return self.z.bit_count()

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            position_pair(p, self.n)
            for p in range(num_pairs(self.n))
            if (self.z >> p) & 1
        )

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        return bool((self.z >> pair_position(u, v, self.n)) & 1)

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(u for u in range(self.n) if self.has_edge(u, v))

    def common_neighbors(self, u: int, v: int) -> frozenset[int]:
        if u == v:
            return self.neighbors(u)
        return self.neighbors(u) & self.neighbors(v)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(self.neighbors(v)) for v in range(self.n))

    @property
    def d2(self) -> float:
        degs = self.degrees
        return math.sqrt(sum(d * d for d in degs) / self.n)

    def to_json(self) -> dict[str, Any]:
        return {
            "n": self.n,
            "edges": [[u + 1, v + 1] for u, v in self.edges],
        }

    @classmethod
    def from_json(cls, obj: dict[str, Any]) -> "GraphInstance":
        """The instance of ``obj``.  An ``n`` or edge end that is not a JSON
        integer, or an edge without exactly two ends, raises a FormatError
        at its JSON path."""
        n = _integer(obj["n"], "$.n")
        edges = []
        for k, edge in enumerate(obj["edges"]):
            where = f"$.edges[{k}]"
            if not isinstance(edge, list) or len(edge) != 2:
                raise FormatError(f"{where}: expected two vertices")
            edges.append([_integer(u, f"{where}[{i}]") - 1 for i, u in enumerate(edge)])
        return cls.from_edges(n, edges)


def triangle_function(n: int) -> BooleanFunction:
    """Truth table of triangle containment over all pair masks.

    Positive inputs carry the three pair positions of their lexicographically
    first triangle as certificate.
    """
    if n < 3:
        raise ValueError("need at least 3 vertices for a triangle")
    if n > BUILD_CAP:
        raise ValueError(f"explicit domain capped at n <= {BUILD_CAP}")
    nbits = num_pairs(n)
    univ = Universe(nbits, range(1 << nbits))
    # the pairs of a sorted triple come in ascending position order
    truth, first = _first_hits(
        univ,
        (
            (
                tuple(pair_position(a, b, n) for a, b in itertools.combinations(t, 2)),
                _with_triangle(univ, n, t),
            )
            for t in itertools.combinations(range(n), 3)
        ),
    )
    certs = {z: first[z] for z in univ.members(truth)}
    return BooleanFunction.from_bits(univ, univ.full, truth, certs)


def _first_hits(
    univ: Universe, candidates: Iterable[tuple[T, int]]
) -> tuple[int, dict[int, T]]:
    """The union of the candidates' input bitsets, and each of its inputs
    mapped to the first candidate whose bitset holds it."""
    hit = 0
    first: dict[int, T] = {}
    for cand, bits in candidates:
        new = bits & ~hit
        if new:
            hit |= new
            first.update(dict.fromkeys(univ.members(new), cand))
    return hit, first


def _common_neighbour(
    univ: Universe, n: int, a: int, b: int, vertices: Iterable[int]
) -> int:
    """The inputs in which some vertex of ``vertices`` is adjacent to both
    ``a`` and ``b``."""
    column = univ.column
    bits = 0
    for t in vertices:
        bits |= column(pair_position(t, a, n)) & column(pair_position(t, b, n))
    return bits


def _with_triangle(univ: Universe, n: int, t: tuple[int, int, int]) -> int:
    """The inputs that contain the triangle ``t``."""
    a, b, c = t
    return univ.column(pair_position(a, b, n)) & _common_neighbour(univ, n, a, b, (c,))


# ---------------------------------------------------------------------------
# Pair sets


def delta_sets(
    g: GraphInstance, X: Iterable[int], B: Iterable[int], w: int
) -> frozenset[tuple[int, int]]:
    """The anchored pairs: ordered pairs (u, v) of B, diagonal included,
    both adjacent to the anchor ``w``, with no common neighbor in X.  The
    diagonal entry (u, u) uses the plain neighborhood of u."""
    xs, bs, nw = frozenset(X), frozenset(B), g.neighbors(w)
    return frozenset(
        (u, v)
        for u in bs & nw
        for v in bs & nw
        if not (g.common_neighbors(u, v) & xs)
    )


# ---------------------------------------------------------------------------
# Exact counting oracles


def _check_subset(name: str, items: Iterable[int], n: int) -> tuple[int, ...]:
    out = tuple(sorted(set(items)))
    if out and not (0 <= out[0] and out[-1] < n):
        raise ValueError(f"{name} not within range({n})")
    return out


def oracle_delta_exact(g: GraphInstance, B: Iterable[int], x: int) -> Fraction:
    """Average anchored-pair count over all excluded sets and anchors."""
    if g.n > ORACLE_CAP:
        raise ValueError(f"exhaustive oracle capped at n <= {ORACLE_CAP}")
    bs = _check_subset("B", B, g.n)
    if not 1 <= x <= g.n:
        raise ValueError(f"x={x} out of range")
    total = 0
    count = 0
    for X in itertools.combinations(range(g.n), x):
        for w in range(g.n):
            total += len(delta_sets(g, X, bs, w))
            count += 1
    return Fraction(total, count)


def delta_mean_pairs(g: GraphInstance, B: Iterable[int], x: int) -> Fraction:
    """Same expectation through the per-pair decomposition.

    For an ordered pair, the anchor must be a common neighbor and the
    excluded set must miss all of them; the two events are independent.
    """
    bs = _check_subset("B", B, g.n)
    total = 0
    for u in bs:
        for v in bs:
            t = len(g.common_neighbors(u, v))
            total += t * math.comb(g.n - t, x)
    return Fraction(total, g.n * math.comb(g.n, x))


def ninter_exact(V1: Sequence[int], N: Iterable[int], x: int) -> Fraction:
    return _ninter_moment(V1, N, x, 1)


def ninter_sq_exact(V1: Sequence[int], N: Iterable[int], x: int) -> Fraction:
    return _ninter_moment(V1, N, x, 2)


def _ninter_moment(V1: Sequence[int], N: Iterable[int], x: int, power: int) -> Fraction:
    """Mean of |N ∩ X| ** power over the x-subsets X of V1."""
    ground = tuple(sorted(set(V1)))
    if len(ground) > 12:
        raise ValueError("ground set capped at 12 elements")
    ns = set(N)
    if not ns <= set(ground):
        raise ValueError("N must sit inside V1")
    if not 1 <= x <= len(ground):
        raise ValueError(f"x={x} out of range")
    total = sum(len(ns & set(X)) ** power for X in itertools.combinations(ground, x))
    return Fraction(total, math.comb(len(ground), x))


def edge_exp_exact(g: GraphInstance, x: int, y: int) -> Fraction:
    """Average directed incidence count between random vertex subsets.

    Counts pairs (edge endpoint in X, other endpoint in Y), so an edge with
    both endpoints in both sets counts twice.
    """
    n = g.n
    if n > 8:
        raise ValueError("exhaustive oracle capped at n <= 8")
    if not (1 <= x <= n and 1 <= y <= n):
        raise ValueError("subset sizes out of range")
    total = 0
    for X in itertools.combinations(range(n), x):
        xs = set(X)
        for Y in itertools.combinations(range(n), y):
            total += sum(len(g.neighbors(v) & xs) for v in Y)
    return Fraction(total, math.comb(n, x) * math.comb(n, y))


# ---------------------------------------------------------------------------
# Build parameters


@dataclass(frozen=True)
class TriangleParams:
    x: int
    a: int
    b: int
    variant: str = "dense"

    def __post_init__(self) -> None:
        if self.variant not in ("dense", "sparse", "sparsenew"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if not 1 <= self.b <= self.a:
            raise ValueError("need 1 <= b <= a")
        if self.x < 1:
            raise ValueError("need x >= 1")


@dataclass
class BuildResult:
    graph: LearningGraph
    function: BooleanFunction
    variant: str
    params: dict[str, int]


def _check_build(n: int, x: int, a: int, b: int) -> None:
    """Refuse a search over x-subsets X, a-subsets A and walks over
    b-subsets of A that cannot be built; sparsenew has x = 0 and a = n."""
    if n > BUILD_CAP:
        raise ValueError(f"materialization capped at n <= {BUILD_CAP}")
    if n < 3:
        raise ValueError("need at least 3 vertices")
    if a > n or x > n:
        raise ValueError("subset sizes exceed the vertex count")
    if b < 2 or a < 2:
        raise ValueError("both set walks need at least 2 elements")
    if b >= 3 and max(0, a - x) <= 3 <= min(a, n - x):
        # the walk anchored at one of 3 vertices of A outside X has two
        # candidates, and the certificate pair takes both
        raise ValueError(
            f"no usable start sets: with b={b} >= 3, an a-subset with 3 vertices"
            f" outside X leaves no start set of size {b - 2} that owns a position"
        )


# ---------------------------------------------------------------------------
# Direct searches for triangles meeting X


def _h_dense(n: int, X: tuple[int, ...], univ: Universe, dom: int) -> Composed:
    nbits = num_pairs(n)
    children = []
    for v in X:
        others = [u for u in range(n) if u != v]
        for u in others:
            for w in others:
                if w == u:
                    continue
                pos = sorted(
                    {
                        pair_position(v, u, n),
                        pair_position(v, w, n),
                        pair_position(u, w, n),
                    }
                )
                b = GraphBuilder(nbits)
                b.add_vertex("t", pos)
                b.add_super("r", "t", dense_load(nbits, pos))
                mask = mask_of(pos)
                f = BooleanFunction.from_bits(univ, dom, dom & univ.select(mask, mask))
                children.append((b.graph(flows=_UNIT), f))
    return or_compose(children, 1, prefix="h")


def _h_sparse(n: int, X: tuple[int, ...], univ: Universe, dom: int) -> Composed:
    nbits = num_pairs(n)
    children = []
    for v in X:
        others = [u for u in range(n) if u != v]
        spokes = sorted(pair_position(v, u, n) for u in others)
        b = GraphBuilder(nbits)
        b.add_vertex("m", spokes)
        sl_edge = b.add_super("r", "m", sparse_load(nbits, spokes))
        branch: dict[tuple[int, ...], int] = {}
        for size in range(2, n):
            for D in itertools.combinations(others, size):
                prs = sorted(
                    pair_position(p, q, n) for p, q in itertools.combinations(D, 2)
                )
                sid = b.add_vertex(
                    "d" + ",".join(map(str, D)), sorted(set(spokes) | set(prs))
                )
                row = tuple(int(u in D) for u in others)
                ind = TableRule(tuple(spokes), {row: 1.0}, 0.0)
                if len(prs) == 1:
                    rule = ProductRule(ind, DenseLoadRule(1))
                    ei = b.add_ordinary("m", sid, prs[0], rule, rule)
                else:
                    ei = b.add_super(
                        "m", sid, dense_load(nbits, prs), w0=ind, w1=ind
                    )
                branch[D] = ei
        truth = 0
        for p, q in itertools.combinations(others, 2):
            truth |= univ.column(pair_position(p, q, n)) & _common_neighbour(
                univ, n, p, q, (v,)
            )
        f = BooleanFunction.from_bits(univ, dom, dom & truth)
        flows = {}
        for z in f.positives():
            nv = tuple(u for u in others if (z >> pair_position(v, u, n)) & 1)
            flows[z] = {sl_edge: 1.0, branch[nv]: 1.0}
        children.append((b.graph(flows=flows), f))
    return or_compose(children, 1, prefix="h")


# ---------------------------------------------------------------------------
# Walk searches for triangles avoiding X


def _walk_positions(n: int, X: tuple[int, ...]):
    xs = set(X)

    def positions(A: frozenset) -> set[int]:
        return {
            pair_position(t, u, n) for t in xs for u in A if t != u
        }

    return positions


def _pair_probe(
    nbits: int,
    pos_uv: int,
    required: tuple[int, int],
    blocked: tuple[tuple[int, int], ...],
    univ: Universe,
    dom: int,
) -> tuple[LearningGraph, BooleanFunction]:
    b = GraphBuilder(nbits)
    b.add_vertex("q", (pos_uv,))
    rule = CandidatePairRule(required, blocked)
    b.add_ordinary("r", "q", pos_uv, rule, rule)
    truth = dom & univ.column(pos_uv)
    for i in required:
        truth &= univ.column(i)
    for i, j in blocked:
        truth &= ~(univ.column(i) & univ.column(j))
    return b.graph(flows=_UNIT), BooleanFunction.from_bits(univ, dom, truth)


def _pair_walk(
    univ: Universe,
    dom: int,
    pairs: Iterable[tuple[int, int]],
    eligible: Callable[[int, int], int],
    kinds: Sequence[str],
    **walk: Any,
) -> Composed:
    """The two-step set walk, with the load ``kinds`` of its three stages
    and the rest of :func:`johnson_compose`'s parameters in ``walk``, that
    certifies each positive input by its first pair, in the order of
    ``pairs``, whose ``eligible`` bitset holds it."""
    truth, first = _first_hits(univ, ((pair, eligible(*pair)) for pair in pairs))
    return johnson_compose(
        n_bits=univ.n_bits,
        r=2,
        function=BooleanFunction.from_bits(univ, dom, truth),
        cert=first.__getitem__,
        load_kinds=kinds,
        **walk,
    )


def _anchor_search(
    n: int,
    X: tuple[int, ...],
    A: tuple[int, ...],
    w: int,
    ctx: frozenset[int],
    univ: Universe,
    dom: int,
    b_size: int,
    kinds: Sequence[str],
) -> Composed:
    """Walk over b-subsets of A, loading adjacencies to the anchor w, then
    probe pairs of loaded vertices for a triangle with w avoiding X."""
    nbits = num_pairs(n)
    xs = set(X)

    def positions(B: frozenset) -> set[int]:
        return {
            pair_position(w, j, n) for j in B if j != w
        } - ctx

    def eligible(u: int, v: int) -> int:
        """Inputs with the triangle (u, v, w) whose pair (u, v) has no common
        neighbour in X."""
        return (
            dom
            & univ.column(pair_position(u, v, n))
            & _common_neighbour(univ, n, u, v, (w,))
            & ~_common_neighbour(univ, n, u, v, X)
        )

    def factory(B: tuple[int, ...], kappa: int):
        sub = dom & univ.select(mask_of(positions(frozenset(B))), kappa)
        cand = sorted(set(B) - xs - {w})
        children = []
        for u, v in itertools.combinations(cand, 2):
            children.append(
                _pair_probe(
                    nbits,
                    pair_position(u, v, n),
                    (pair_position(w, u, n), pair_position(w, v, n)),
                    tuple(
                        (pair_position(t, u, n), pair_position(t, v, n))
                        for t in sorted(xs)
                    ),
                    univ,
                    sub,
                )
            )
        if not children:
            return None
        return or_compose(children, 1, prefix="p")

    pairs = [] if w in xs else itertools.combinations(sorted(set(A) - xs - {w}), 2)
    return _pair_walk(
        univ, dom, pairs, eligible, kinds,
        ground=A, k=b_size, positions=positions, factory=factory, prefix="B",
    )


def _anchor_or(
    n: int,
    X: tuple[int, ...],
    A: tuple[int, ...],
    ctx: frozenset[int],
    univ: Universe,
    dom: int,
    b_size: int,
    kinds: Sequence[str],
    k: int,
) -> Composed:
    """The OR, with fan-in k, of the anchored searches over every anchor w."""
    return or_compose(
        [
            _anchor_search(n, X, A, w, ctx, univ, dom, b_size, kinds)
            for w in range(n)
        ],
        k,
        prefix="w",
    )


def _fx(
    n: int,
    X: tuple[int, ...],
    params: TriangleParams,
    univ: Universe,
    dom: int,
    kinds: Sequence[str],
) -> Composed:
    xs = set(X)

    def eligible(u: int, v: int) -> int:
        """Inputs with a triangle (u, v, w) outside X whose pair (u, v) has no
        common neighbour in X."""
        thirds = [w for w in range(n) if w not in xs and w not in (u, v)]
        return (
            dom
            & univ.column(pair_position(u, v, n))
            & ~_common_neighbour(univ, n, u, v, X)
            & _common_neighbour(univ, n, u, v, thirds)
        )

    walk_pos = _walk_positions(n, X)

    def factory(A: tuple[int, ...], kappa: int):
        ctx = frozenset(walk_pos(frozenset(A)))
        sub = dom & univ.select(mask_of(ctx), kappa)
        return _anchor_or(n, X, A, ctx, univ, sub, params.b, kinds, 1)

    pairs = [
        (u, v)
        for u, v in itertools.combinations(range(n), 2)
        if u not in xs and v not in xs
    ]
    return _pair_walk(
        univ, dom, pairs, eligible, kinds,
        ground=tuple(range(n)), k=params.a, positions=walk_pos, factory=factory,
        prefix="A",
    )


def _build_excluded(n: int, params: TriangleParams, kind: str) -> BuildResult:
    if params.variant != kind:
        raise ValueError(f"a {kind} build got {params.variant!r} parameters")
    _check_build(n, params.x, params.a, params.b)
    f_top = triangle_function(n)
    univ, dom = f_top.universe, f_top.dom
    children = []
    for X in itertools.combinations(range(n), params.x):
        h = (_h_dense if kind == DENSE else _h_sparse)(n, X, univ, dom)
        fx = _fx(n, X, params, univ, dom, [kind] * 3)
        children.append(or_compose([h, fx], 1, prefix="s"))
    top = or_compose(children, math.comb(n, params.x), prefix="X")
    if top.function.truth != f_top.truth:
        raise CompositionError("composed function disagrees with the target")
    return BuildResult(
        graph=top.graph,
        function=f_top,
        variant=kind,
        params={"n": n, "x": params.x, "a": params.a, "b": params.b},
    )


def build_dense_lg(n: int, params: TriangleParams) -> BuildResult:
    return _build_excluded(n, params, DENSE)


def build_sparse_lg(n: int, params: TriangleParams) -> BuildResult:
    return _build_excluded(n, params, SPARSE)


def build_sparsenew_lg(n: int, b: int) -> BuildResult:
    if not 2 <= b <= n:
        raise ValueError("need 2 <= b <= n")
    _check_build(n, 0, n, b)
    f_top = triangle_function(n)
    top = _anchor_or(
        n, (), tuple(range(n)), frozenset(), f_top.universe, f_top.dom, b,
        (SPARSE, DENSE, DENSE), 3,
    )
    if top.function.truth != f_top.truth:
        raise CompositionError("composed function disagrees with the target")
    return BuildResult(
        graph=top.graph,
        function=f_top,
        variant="sparsenew",
        params={"n": n, "b": b},
    )
