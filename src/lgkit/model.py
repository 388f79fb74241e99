"""Graph and function model.

A learning graph here is a rooted DAG whose vertices carry sorted tuples of
loaded input positions.  Edges come in three kinds:

* ordinary: loads exactly one new position, carries a weight rule per side;
* empty: loads nothing, weight identically zero, never carries flow;
* super: stands for a whole embedded loading gadget (an inner graph with a
  unique sink), with host-side scale rules multiplying the inner weights.

Flows are stored per positive input as ``{edge index: value}`` maps; gadgets
whose flow does not depend on the input use a single shared map instead.

A graph is a value: a frozen dataclass whose fields are its whole data,
with its edges in a tuple; edit one through ``dataclasses.replace``.  Its
constructor, which ``replace`` runs again, checks its references: the
root is a vertex with the empty label, every edge joins two vertices, and
every flow key, stage edge and stage rebalance key is an edge (a
rebalance key one of its stage's own); a copy with new edges on the same
ends, as ``rescaled`` makes, is not checked again.  Its dicts and edges
are not frozen, and an in-place edit of one is not checked.  Each
vertex's out-edges and the last complexity report are caches, made on
first use, that ``replace`` does not copy and ``==`` does not compare.

A partial boolean function is two bitsets (Python ints) over a
:class:`Universe`, the sorted inputs it may be defined on: ``dom`` marks the
promised inputs and ``truth`` the positive ones.  Functions over the same
inputs restrict and combine by bit operations, and nothing moves a function
to a universe with other inputs; the input-keyed ``values`` dict is built
only when asked for.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import compress
from typing import Any, Callable, Collection, Iterable, Iterator, Mapping, Sequence

from .rules import ConstRule, Rule, ZERO, ONE, host_product


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class Vertex:
    id: str
    label: tuple[int, ...]

    def __post_init__(self) -> None:
        if tuple(sorted(self.label)) != self.label or len(set(self.label)) != len(
            self.label
        ):
            raise ModelError(f"vertex {self.id!r} label must be a sorted set")


@dataclass
class SuperEdge:
    """An embedded loading gadget with a unique sink.

    ``inner`` is a standalone graph whose labels are relative to the host tail
    (its root label is empty).  ``c1_max`` optionally records a closed-form
    bound on the inner positive-side cost.  It is serialized with the graph
    and read by nothing else: the set walk takes its stage caps from
    :func:`lgkit.loads.load_c1_max`.
    """

    inner: "LearningGraph"
    c1_max: float | None = None

    def __post_init__(self) -> None:
        sinks = self.inner.sinks()
        if len(sinks) != 1:
            raise ModelError(f"super edge inner graph has sinks {sinks}, need one")
        self._sink = sinks[0]

    @property
    def sink(self) -> str:
        return self._sink

    @property
    def loads(self) -> tuple[int, ...]:
        return self.inner.vertices[self._sink].label


@dataclass
class Edge:
    src: str
    dst: str
    load: int | None
    w0: Rule
    w1: Rule
    gadget: SuperEdge | None = None

    @property
    def kind(self) -> str:
        if self.gadget is not None:
            return "super"
        return "empty" if self.load is None else "ordinary"

    @property
    def loads(self) -> tuple[int, ...]:
        if self.gadget is not None:
            return self.gadget.loads
        return () if self.load is None else (self.load,)

    def hosted(self, h0: Rule, h1: Rule, products: dict) -> "Edge":
        """This edge with its side-0 weight multiplied by the host rule
        ``h0`` and its side-1 weight by ``h1``; an empty edge is unchanged.
        ``products`` is the memo of :func:`lgkit.rules.host_product`."""
        if self.kind == "empty":
            return self
        w0 = host_product(h0, self.w0, products)
        w1 = host_product(h1, self.w1, products)
        return Edge(self.src, self.dst, self.load, w0, w1, self.gadget)


@dataclass(frozen=True)
class StageInfo:
    """Named slice of the edge list, with optional rebalance factors."""

    name: str
    edges: tuple[int, ...]
    rebalance: dict[int, float] | None = None
    note: str = ""


@dataclass(frozen=True)
class LearningGraph:
    n_bits: int
    root: str
    vertices: dict[str, Vertex]
    edges: tuple[Edge, ...]
    flows: dict[int, dict[int, float]] | None = None
    const_flow: dict[int, float] | None = None
    stages: tuple[StageInfo, ...] | None = None
    # Set by adversary.linking_mutants on the mutant it has just made, and
    # read only there.  Never serialized or compared, and dataclasses.replace
    # makes a graph without it.
    _lineage: Any = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.edges, tuple):
            object.__setattr__(self, "edges", tuple(self.edges))
        root = self.vertices.get(self.root)
        if root is None or root.label != ():
            raise ModelError(f"root {self.root!r} is no vertex with the empty label")
        vertices = self.vertices
        for e in self.edges:
            if e.src not in vertices or e.dst not in vertices:
                end = e.dst if e.src in vertices else e.src
                raise ModelError(f"edge endpoint {end!r} not a known vertex")
        keys = set().union(*(self.flows or {}).values(), self.const_flow or ())
        self._check_edges(keys, "flow")  # one set: cheaper than a min, max per flow
        for k, s in enumerate(self.stages or ()):
            self._check_edges(s.edges, "stages[{}] {}", k, s.name)
            if s.rebalance and not s.rebalance.keys() <= set(s.edges):
                extra = min(s.rebalance.keys() - set(s.edges))
                raise ModelError(f"stages[{k}] {s.name} rebalances edge {extra} outside it")

    def _check_edges(self, indices: Collection[int], what: str, *args: Any) -> None:
        """Refuse an index that is no edge's, named after ``what.format(*args)``."""
        n = len(self.edges)
        if indices and (min(indices) < 0 or max(indices) >= n):
            bad = min(i for i in indices if not 0 <= i < n)
            what = what.format(*args)
            raise ModelError(f"{what} names unknown edge {bad}, the graph has {n} edges")

    def _with_edges(self, edges: Sequence[Edge]) -> "LearningGraph":
        """This graph with ``edges``, each joining the ends of the one it
        replaces, so the copy holds the references checked here."""
        pairs = zip(edges, self.edges, strict=True)
        if any(e.src != old.src or e.dst != old.dst for e, old in pairs):
            raise ModelError("new edges must join the ends of those they replace")
        g = object.__new__(LearningGraph)
        g.__dict__.update({f.name: getattr(self, f.name) for f in fields(self)})
        g.__dict__.update(edges=tuple(edges), _lineage=None)
        return g

    @cached_property
    def _adjacency(self) -> dict[str, tuple[int, ...]]:
        """Each vertex's out-edges: a cache, not a field."""
        out: dict[str, list[int]] = {v: [] for v in self.vertices}
        for i, e in enumerate(self.edges):
            out[e.src].append(i)
        return {v: tuple(ix) for v, ix in out.items()}

    def out_edges(self, vid: str) -> tuple[int, ...]:
        return self._adjacency[vid]

    def label(self, vid: str) -> tuple[int, ...]:
        return self.vertices[vid].label

    def flow_for(self, y: int) -> dict[int, float] | None:
        if self.const_flow is not None:
            return self.const_flow
        if self.flows is None:
            return None
        return self.flows.get(y)

    def has_super(self) -> bool:
        return any(e.gadget is not None for e in self.edges)

    def by_load(self) -> dict[int, dict[tuple[int, ...], list[int]]]:
        """The ordinary edges by the position they load, then by their tail
        label: positions and labels in order of first load, edges in edge
        order.  The edges of one group share their agreement blocks."""
        out: dict[int, dict[tuple[int, ...], list[int]]] = {}
        for i, e in enumerate(self.edges):
            if e.kind == "ordinary":
                out.setdefault(e.load, {}).setdefault(self.label(e.src), []).append(i)
        return out

    def sinks(self) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if not self.out_edges(v))

    def rescaled(self, factor: float) -> "LearningGraph":
        """Multiply every weight (both sides) by ``factor``; flows unchanged."""
        if factor <= 0:
            raise ModelError(f"rescale factor must be positive, got {factor}")
        host = ConstRule(factor)
        products: dict = {}
        return self._with_edges([e.hosted(host, host, products) for e in self.edges])


# format(bits, "b") reversed, as bytes: bit k of a bitset becomes byte k, 0 or 1
_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _flags(bits: int, size: int = 0) -> bytes:
    return format(bits, f"0{size}b").encode()[::-1].translate(_FLAGS)


class Universe:
    """Sorted, distinct ``n_bits``-bit inputs that bitsets range over.

    A bitset is a Python int whose bit ``k`` stands for ``inputs[k]``.
    ``column(i)`` is the bitset of the inputs whose bit ``i`` is set,
    computed once, on first use; truth tables and sub-domains are AND, OR
    and AND-NOT of columns.
    """

    __slots__ = ("n_bits", "inputs", "index", "full", "_columns")

    def __init__(self, n_bits: int, inputs: Iterable[int]) -> None:
        self.n_bits = n_bits
        self.inputs = tuple(inputs)
        self.index = {z: k for k, z in enumerate(self.inputs)}
        self.full = (1 << len(self.inputs)) - 1
        self._columns: dict[int, int] = {}

    def column(self, i: int) -> int:
        col = self._columns.get(i)
        if col is None:
            col = self._columns[i] = self.bitset(z for z in self.inputs if z >> i & 1)
        return col

    def select(self, mask: int, kappa: int) -> int:
        """The inputs ``z`` with ``z & mask == kappa``."""
        if kappa & ~mask:
            return 0
        bits = self.full
        while mask:
            low = mask & -mask
            col = self.column(low.bit_length() - 1)
            bits &= col if kappa & low else ~col
            mask ^= low
        return bits

    def split(self, bits: int, positions: Iterable[int]) -> dict[int, int]:
        """The inputs of ``bits`` grouped by their values at ``positions``:
        ``{kappa: bitset}``, one entry per assignment that occurs."""
        parts = {0: bits} if bits else {}
        for i in positions:
            col = self.column(i)
            nxt = {}
            for kappa, part in parts.items():
                if part & ~col:
                    nxt[kappa] = part & ~col
                if part & col:
                    nxt[kappa | 1 << i] = part & col
            parts = nxt
        return parts

    def bitset(self, zs: Iterable[int]) -> int:
        """The bitset of ``zs``, which must all be inputs of this universe."""
        flags = bytearray(b"0" * len(self.inputs))
        for z in zs:
            flags[self.index[z]] = 0x31  # "1"
        flags.reverse()
        return int(flags or b"0", 2)

    def members(self, bits: int) -> tuple[int, ...]:
        """The inputs of ``bits``, ascending."""
        return tuple(compress(self.inputs, _flags(bits)))


class BooleanFunction:
    """Partial boolean function on n-bit inputs, with optional certificates.

    ``BooleanFunction(n_bits, values, certs)`` takes ``values`` mapping each
    promised input to 0 or 1.  ``certs`` may map positive inputs to a tuple of
    positions whose values force the function to 1 on the whole domain.

    The function is stored as two bitsets over a :class:`Universe`: ``dom``
    marks the promised inputs and ``truth`` the positive ones.  Functions
    built with :meth:`from_bits` share one universe, so restricting to a
    sub-domain or combining functions is a bit operation.  ``values`` and
    the ``domain``/``positives()``/``negatives()`` tuples are built once, on
    first use.
    """

    __slots__ = (
        "universe", "dom", "truth", "certs",
        "_values", "_domain", "_positives", "_negatives",
    )  # fmt: skip
    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        n_bits: int,
        values: Mapping[int, int],
        certs: dict[int, tuple[int, ...]] | None = None,
    ) -> None:
        for z, v in values.items():
            if v not in (0, 1):
                raise ModelError(f"function value {v} at {z} not boolean")
            if z >> n_bits:
                raise ModelError(f"input {z} exceeds {n_bits} bits")
        u = Universe(n_bits, sorted(values))
        self._init(u, u.full, u.bitset(z for z, v in values.items() if v), certs)

    def _init(
        self,
        universe: Universe,
        dom: int,
        truth: int,
        certs: dict[int, tuple[int, ...]] | None,
    ) -> None:
        self.universe = universe
        self.dom = dom
        self.truth = truth
        self.certs = certs
        self._values: dict[int, int] | None = None
        self._domain: tuple[int, ...] | None = None
        self._positives: tuple[int, ...] | None = None
        self._negatives: tuple[int, ...] | None = None

    @classmethod
    def from_bits(
        cls,
        universe: Universe,
        dom: int,
        truth: int,
        certs: dict[int, tuple[int, ...]] | None = None,
    ) -> "BooleanFunction":
        """The function over ``universe`` defined on ``dom``, positive on
        ``truth`` (a subset of ``dom``)."""
        if dom & ~universe.full or truth & ~dom:
            raise ModelError("function bitsets exceed their domain")
        f = cls.__new__(cls)
        f._init(universe, dom, truth, certs)
        return f

    @property
    def n_bits(self) -> int:
        return self.universe.n_bits

    @property
    def values(self) -> dict[int, int]:
        if self._values is None:
            size = len(self.universe.inputs)
            keep = _flags(self.dom, size)
            self._values = dict(
                zip(self.domain, compress(_flags(self.truth, size), keep))
            )
        return self._values

    def __call__(self, z: int) -> int:
        k = self.universe.index.get(z)
        if k is None or not self.dom >> k & 1:
            raise KeyError(z)
        return self.truth >> k & 1

    @property
    def domain(self) -> tuple[int, ...]:
        if self._domain is None:
            self._domain = self.universe.members(self.dom)
        return self._domain

    def positives(self) -> tuple[int, ...]:
        if self._positives is None:
            self._positives = self.universe.members(self.truth)
        return self._positives

    def negatives(self) -> tuple[int, ...]:
        if self._negatives is None:
            self._negatives = self.universe.members(self.dom & ~self.truth)
        return self._negatives

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BooleanFunction):
            return NotImplemented
        if self.n_bits != other.n_bits or self.certs != other.certs:
            return False
        if self.universe is other.universe:
            return self.dom == other.dom and self.truth == other.truth
        return self.values == other.values

    def __repr__(self) -> str:
        return (
            f"BooleanFunction(n_bits={self.n_bits!r}, values={self.values!r}, "
            f"certs={self.certs!r})"
        )

    @classmethod
    def from_predicate(cls, n_bits: int, pred: Callable[[int], bool]) -> "BooleanFunction":
        """The function on every ``n_bits``-bit input, 1 where ``pred`` holds."""
        return cls(n_bits, {z: int(bool(pred(z))) for z in range(1 << n_bits)})


class GraphBuilder:
    """Mutable construction helper; produces a frozen graph."""

    def __init__(self, n_bits: int, root: str = "r") -> None:
        self.n_bits = n_bits
        self.root = root
        self.vertices: dict[str, Vertex] = {root: Vertex(root, ())}
        self.edges: list[Edge] = []
        self._products: dict = {}  # host_product's memo, for every merge

    def add_vertex(self, vid: str, label: Sequence[int]) -> str:
        lab = tuple(sorted(label))
        if vid in self.vertices:
            if self.vertices[vid].label != lab:
                raise ModelError(f"vertex {vid!r} redefined with a new label")
            return vid
        for i in lab:
            if not 0 <= i < self.n_bits:
                raise ModelError(f"label position {i} out of range at {vid!r}")
        self.vertices[vid] = Vertex(vid, lab)
        return vid

    def add_ordinary(self, src: str, dst: str, load: int, w0: Rule, w1: Rule) -> int:
        self.edges.append(Edge(src, dst, load, w0, w1))
        return len(self.edges) - 1

    def add_empty(self, src: str, dst: str) -> int:
        self.edges.append(Edge(src, dst, None, ZERO, ZERO))
        return len(self.edges) - 1

    def add_super(
        self,
        src: str,
        dst: str,
        gadget: SuperEdge,
        w0: Rule = ONE,
        w1: Rule = ONE,
    ) -> int:
        width = gadget.inner.n_bits
        if width != self.n_bits:
            raise ModelError(f"a {width}-bit gadget in a {self.n_bits}-bit graph")
        self.edges.append(Edge(src, dst, None, w0, w1, gadget=gadget))
        return len(self.edges) - 1

    def merge(
        self,
        child: LearningGraph,
        prefix: str,
        vmap: Mapping[str, str] | None = None,
        hosts: tuple[Rule, Rule] = (ONE, ONE),
        label_shift: Sequence[int] = (),
    ) -> tuple[dict[str, str], dict[int, int]]:
        """Copy ``child`` into this builder.

        ``vmap`` identifies child vertices with existing ones (typically the
        child root with a host vertex).  Remaining vertices get ``prefix``
        prepended to their ids and ``label_shift`` unioned into their labels.
        ``hosts`` are the (side-0, side-1) host rules that multiply the
        weights of every non-empty edge (see :meth:`Edge.hosted`), with one
        product per (host, rule) pair over all the builder's merges.  Returns
        the vertex and edge index mappings.
        """
        if child.n_bits != self.n_bits:
            raise ModelError("child graph input arity mismatch")
        vmap = dict(vmap or {})
        vout: dict[str, str] = {}
        shift = tuple(label_shift)
        for vid, v in child.vertices.items():
            if vid in vmap:
                tgt = vmap[vid]
                want = tuple(sorted(set(v.label) | set(shift)))
                if self.vertices[tgt].label != want:
                    raise ModelError(
                        f"merge target {tgt!r} label {self.vertices[tgt].label} "
                        f"differs from shifted child label {want}"
                    )
                vout[vid] = tgt
            else:
                lab = tuple(sorted(set(v.label) | set(shift)))
                vout[vid] = self.add_vertex(prefix + vid, lab)
        emap: dict[int, int] = {}
        for i, e in enumerate(child.edges):
            if e.kind == "empty":
                emap[i] = self.add_empty(vout[e.src], vout[e.dst])
                continue
            w = e.hosted(*hosts, self._products)
            self.edges.append(
                Edge(vout[e.src], vout[e.dst], e.load, w.w0, w.w1, gadget=e.gadget)
            )
            emap[i] = len(self.edges) - 1
        return vout, emap

    def graph(
        self,
        flows: dict[int, dict[int, float]] | None = None,
        const_flow: dict[int, float] | None = None,
        stages: Sequence[StageInfo] | None = None,
    ) -> LearningGraph:
        return LearningGraph(
            n_bits=self.n_bits,
            root=self.root,
            vertices=dict(self.vertices),
            edges=tuple(self.edges),
            flows=flows,
            const_flow=const_flow,
            stages=tuple(stages) if stages is not None else None,
        )


def topological_order(g: LearningGraph) -> list[str]:
    """Vertices in a topological order; raises on cycles."""
    indeg = dict.fromkeys(g.vertices, 0)
    for e in g.edges:
        indeg[e.dst] += 1
    ready = [v for v, d in indeg.items() if d == 0]
    out: list[str] = []
    while ready:
        v = ready.pop()
        out.append(v)
        for ei in g.out_edges(v):
            w = g.edges[ei].dst
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    if len(out) != len(g.vertices):
        raise ModelError("graph contains a cycle")
    return out
