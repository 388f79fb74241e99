"""Graph and function model.

A learning graph here is a rooted DAG whose vertices carry sorted tuples of
loaded input positions.  Edges come in three kinds:

* ordinary: loads exactly one new position, carries a weight rule per side;
* empty: loads nothing, weight identically zero, never carries flow;
* super: stands for a whole embedded loading gadget (an inner graph with a
  unique sink), with host-side scale rules multiplying the inner weights.

A graph's flows are one read-only CSR table (:class:`Flows`): one row of
(edge index, value) entries per positive input, in flow order; a gadget
whose flow does not depend on the input has one row that serves every
input instead.  The constructor takes the rows as ``{input: {edge index:
value}}`` and ``{edge index: value}`` maps, or as a table, and the
composers splice tables without making maps.

A graph is a value: a frozen dataclass whose fields are its whole data,
with its edges in a tuple; edit one through ``dataclasses.replace``.  Its
constructor, which ``replace`` runs again, checks its references: the
root is a vertex with the empty label, every edge joins two vertices, and
every flow edge, stage edge and stage rebalance key is an edge (a
rebalance key one of its stage's own); a copy with new edges on the same
ends, as ``rescaled`` makes, is not checked again.  Its flows cannot be
written in place; its vertex dict, stage rebalance maps and edges can,
and such an edit is not checked.  Each vertex's out-edges and the last
complexity report are caches, made on first use, that ``replace`` does
not copy and ``==`` does not compare.

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
from itertools import accumulate, chain, compress
from types import MappingProxyType
from typing import Any, Callable, Collection, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .indexing import input_array
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


CONST = -1  # the input of a flow table's input-independent row


def gather_rows(offsets: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entries of the ``rows`` of a CSR table whose rows start at
    ``offsets``, row after row: the number in ``rows`` of each entry's row,
    and the entry's place in the table.  A row of -1 has no entries."""
    lo = offsets[rows]
    n = offsets[rows + 1] - lo
    n[rows < 0] = 0
    ends = np.cumsum(n)
    owner = np.repeat(np.arange(len(rows)), n)
    at = np.arange(ends[-1] if len(ends) else 0) + np.repeat(lo - ends + n, n)
    return owner, at


def groups_of(keys: np.ndarray) -> dict[int, np.ndarray]:
    """The places of each value of ``keys``: values in ascending order,
    each value's places in order."""
    if len(keys) and (keys == keys[0]).all():
        return {int(keys[0]): np.arange(len(keys))}
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    cuts = [0, *(np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist(), len(keys)]
    return {int(keys[lo]): order[lo:hi] for lo, hi in zip(cuts, cuts[1:]) if hi}


def _input_keys(inputs: Any) -> np.ndarray:
    """Inputs as int64, or as Python ints (dtype object) past int64."""
    try:
        return np.asarray(inputs, dtype=np.int64)
    except OverflowError:
        return np.array(list(inputs), dtype=object)


def _table_of(rows: Mapping[int, Mapping[int, float]]) -> tuple[Any, ...]:
    """The CSR arrays of ``{input: {edge: flow}}`` maps, in map order."""
    maps = list(rows.values())
    offsets = list(accumulate(map(len, maps), initial=0))
    edge = np.array(list(chain.from_iterable(maps)), dtype=np.int64)
    flow = np.array(list(chain.from_iterable(m.values() for m in maps)), dtype=np.float64)
    return list(rows), offsets, edge, flow


class Flows(Mapping[int, Mapping[int, float]]):
    """The flows of a graph: one read-only CSR table.

    Row ``r`` is the flow at the input ``inputs[r]``: the entries
    ``offsets[r]:offsets[r + 1]`` of ``edge`` (edge indices, int64) and
    ``flow`` (float64), in flow order.  Zero flows are kept.  A flow that
    does not depend on the input is the first row, whose input is
    :data:`CONST`, and it serves every input.  The arrays are read-only and
    the table takes no new attribute.

    As a mapping, the table maps each input with a row of its own to a
    read-only ``{edge: flow}`` view of that row; ``const`` views the
    input-independent row, and is None without one.  ``end`` is one past
    the largest edge index, where a negative index counts as past every
    edge: a graph with at least ``end`` edges has every edge the table
    names.
    """

    __slots__ = ("inputs", "offsets", "edge", "flow", "const", "end", "_sorted")

    def __init__(self, inputs: Any, offsets: Any, edge: Any, flow: Any) -> None:
        inputs = _input_keys(inputs)
        offsets = np.asarray(offsets, dtype=np.int64)
        edge = np.asarray(edge, dtype=np.int64)
        flow = np.asarray(flow, dtype=np.float64)
        n = len(edge)
        if len(offsets) != len(inputs) + 1 or len(flow) != n or (
            offsets[0] != 0 or offsets[-1] != n
        ):
            raise ModelError("flow table offsets do not match its entries")
        init = object.__setattr__
        for name, a in zip(("inputs", "offsets", "edge", "flow"), (inputs, offsets, edge, flow)):
            a.flags.writeable = False
            init(self, name, a)
        init(self, "const", self._row(0) if len(inputs) and inputs[0] == CONST else None)
        init(self, "end", int(edge.view(np.uint64).max()) + 1 if n else 0)
        init(self, "_sorted", None)

    @classmethod
    def of(
        cls,
        flows: "Flows | Mapping[int, Mapping[int, float]] | None",
        const: Mapping[int, float] | None,
    ) -> "Flows":
        """The table of the rows of ``flows``, maps or a table, with the
        input-independent flow ``const``; a given ``const`` takes the place
        of a table's own input-independent row."""
        if not isinstance(flows, Flows):
            if const is None:
                return cls(*_table_of(flows)) if flows else NO_FLOWS
            return cls(*_table_of({CONST: const, **(flows or {})}))
        if const is None or const is flows.const:
            return flows
        return cls(*_table_of({CONST: const, **flows}))

    def _row(self, r: int) -> Mapping[int, float]:
        lo, hi = self.offsets[r : r + 2].tolist()
        return MappingProxyType(
            dict(zip(self.edge[lo:hi].tolist(), self.flow[lo:hi].tolist()))
        )

    def own_rows(self, zs: np.ndarray) -> np.ndarray:
        """The row of each input of ``zs`` that has a row of its own, -1 for
        the others."""
        if self._sorted is None:
            order = np.argsort(self.inputs, kind="stable")
            object.__setattr__(self, "_sorted", (self.inputs[order], order))
        keys, order = self._sorted
        if not len(keys):
            return np.full(len(zs), -1, dtype=np.int64)
        at = np.minimum(keys.searchsorted(zs), len(keys) - 1)
        return np.where(keys[at] == zs, order[at], -1)

    def gather(self, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The entries of the rows that serve the inputs ``zs`` (the
        input-independent row when there is one, else each input's own
        row), input after input: the number in ``zs`` of each entry's input
        and the entry's place in the table; and the numbers of the inputs
        that no row serves."""
        if self.const is None:
            rows = self.own_rows(zs)
            return (*gather_rows(self.offsets, rows), np.flatnonzero(rows < 0))
        width = int(self.offsets[1])
        owner = np.repeat(np.arange(len(zs)), width)
        return owner, np.arange(len(owner)) % max(width, 1), owner[:0]

    def __getitem__(self, y: int) -> Mapping[int, float]:
        (r,) = self.own_rows(_input_keys([y])).tolist()
        if r < int(self.const is not None):
            raise KeyError(y)
        return self._row(r)

    def __iter__(self) -> Iterator[int]:
        return iter(self.inputs[int(self.const is not None) :].tolist())

    def __len__(self) -> int:
        return len(self.inputs) - int(self.const is not None)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Flows):
            return super().__eq__(other)
        names = ("inputs", "offsets", "edge", "flow")
        if all(np.array_equal(getattr(self, a), getattr(other, a)) for a in names):
            return True
        return self.const == other.const and dict(self.items()) == dict(other.items())

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("a flow table is read-only")

    __delattr__ = __setattr__  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Flows({dict(self.items())!r}, const={self.const!r})"


NO_FLOWS = Flows([], [0], [], [])


@dataclass(frozen=True)
class LearningGraph:
    n_bits: int
    root: str
    vertices: dict[str, Vertex]
    edges: tuple[Edge, ...]
    # given as maps or a table; held as the graph's one table, and
    # const_flow as the view of its input-independent row
    flows: Flows | Mapping[int, Mapping[int, float]] | None = None
    const_flow: Mapping[int, float] | None = None
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
        try:
            flows = Flows.of(self.flows, self.const_flow)
        except OverflowError:  # a key past int64, which names no edge
            maps = [*(self.flows or {}).values(), self.const_flow or {}]
            self._check_edges(set().union(*maps), "flow")
            raise
        object.__setattr__(self, "flows", flows)
        object.__setattr__(self, "const_flow", flows.const)
        if flows.end > len(self.edges):
            self._check_edges(flows.edge.tolist(), "flow")
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

    def flow_for(self, y: int) -> Mapping[int, float] | None:
        """The flow at the input ``y``, a read-only ``{edge: flow}`` view,
        or None when the graph records none."""
        if self.const_flow is not None:
            return self.const_flow
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

    __slots__ = ("n_bits", "inputs", "index", "full", "_columns", "_array")

    def __init__(self, n_bits: int, inputs: Iterable[int]) -> None:
        self.n_bits = n_bits
        self.inputs = tuple(inputs)
        self.index = {z: k for k, z in enumerate(self.inputs)}
        self.full = (1 << len(self.inputs)) - 1
        self._columns: dict[int, int] = {}
        self._array: np.ndarray | None = None

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

    def array(self, bits: int) -> np.ndarray:
        """The inputs of ``bits``, ascending, as an input array (see
        :func:`lgkit.indexing.input_array`)."""
        if self._array is None:
            self._array = input_array(self.inputs, self.n_bits)
        size = len(self.inputs)
        return self._array[np.frombuffer(_flags(bits, size), dtype=np.bool_)]

    def ranks(self, bits: int, among: int) -> np.ndarray:
        """The place of each input of ``bits`` among the inputs of
        ``among``, which holds them all, in order."""
        if bits == among:
            return np.arange(among.bit_count())
        size = len(self.inputs)
        mine = np.frombuffer(_flags(bits, size), dtype=np.bool_)
        return np.flatnonzero(mine[np.frombuffer(_flags(among, size), dtype=np.bool_)])

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
        flows: Flows | Mapping[int, Mapping[int, float]] | None = None,
        const_flow: Mapping[int, float] | None = None,
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
