"""Flattening of super edges into ordinary structure.

Each super edge is replaced by a copy of its inner gadget: the gadget root is
identified with the edge tail, the gadget sink with the edge head, interior
labels are shifted by the tail label, and both host scale rules multiply the
corresponding inner weights.  Flow through the edge becomes the edge flow
times the inner flow.  Negative and positive costs are unchanged, which the
acceptance suite checks numerically.

Every flow key, stage edge and rebalance key names an edge of the graph, as
the graph checks when it is made, so each moves to the edges its edge
became.
"""

from __future__ import annotations

import numpy as np

from .model import (
    CONST,
    Edge,
    Flows,
    GraphBuilder,
    LearningGraph,
    StageInfo,
    gather_rows,
    groups_of,
)


def expand(g: LearningGraph) -> LearningGraph:
    """Return an equivalent graph without super edges.

    Edge ``k`` becomes the edges ``starts[k]:starts[k + 1]`` of the result,
    one edge after another: itself, or its gadget's edges in inner order.
    Inner gadgets containing super edges themselves are flattened
    recursively.  A gadget's interior vertices are named ``e{k}.{id}``,
    with more ``e``s prepended where that names a vertex already.
    """
    if not g.has_super():
        return g
    b = GraphBuilder(g.n_bits, root=g.root)
    for vid, v in g.vertices.items():
        b.add_vertex(vid, v.label)
    starts = [0]
    inners: dict[int, LearningGraph] = {}
    for i, e in enumerate(g.edges):
        if e.gadget is None:
            if e.kind == "empty":
                b.add_empty(e.src, e.dst)
            else:
                b.edges.append(Edge(e.src, e.dst, e.load, e.w0, e.w1))
        else:
            inner = inners[i] = expand(e.gadget.inner)  # keeps its root and sink
            ends = {inner.root: e.src, e.gadget.sink: e.dst}
            interior = [vid for vid in inner.vertices if vid not in ends]
            prefix = f"e{i}."
            while any(prefix + vid in b.vertices for vid in interior):
                prefix = "e" + prefix
            b.merge(inner, prefix, ends, (e.w0, e.w1), g.label(e.src))
        starts.append(len(b.edges))
    span = lambda k: range(starts[k], starts[k + 1])
    stages = None if g.stages is None else tuple(
        StageInfo(
            s.name,
            tuple(new for k in s.edges for new in span(k)),
            None if s.rebalance is None else {
                new: factor for k, factor in s.rebalance.items() for new in span(k)
            },
            s.note,
        )
        for s in g.stages
    )
    return b.graph(flows=_translate(g.flows, np.array(starts), inners), stages=stages)


def _translate(flows: Flows, starts: np.ndarray, inners: dict[int, LearningGraph]) -> Flows:
    """``flows`` on the expanded edges, where edge ``k`` became the edges
    ``starts[k]:starts[k + 1]`` and the super edges the graphs ``inners``.
    An entry on an edge that stayed moves to it; an entry ``p`` on a super
    edge becomes one entry per inner edge, in inner edge order: ``p`` times
    the inner flow at the same input (0 where the inner flow has no entry),
    or 0 where ``p`` is 0."""
    # each new entry's old entry, and its edge: the runs lie in edge order
    owner, at = gather_rows(starts, flows.edge)
    flow = flows.flow[owner]
    first = np.searchsorted(owner, np.arange(len(flows.edge)))  # each entry's run
    row_of = np.repeat(np.arange(len(flows.inputs)), np.diff(flows.offsets))
    lost: list[tuple[int, int]] = []  # (entry, super edge) without an inner flow
    for old, ents in groups_of(flows.edge).items():
        inner = inners.get(old)
        if inner is None:
            continue
        p = flows.flow[ents]
        inputs = flows.inputs[row_of[ents]]
        table, width = inner.flows, len(inner.edges)
        if table.const is not None:
            rows = np.zeros(len(ents), dtype=np.int64)
        else:  # the input-independent row reads only the inner one
            rows = np.where(inputs == CONST, -1, table.own_rows(inputs))
        lost += [(int(n), old) for n in ents[(rows < 0) & (p != 0.0)][:1]]
        dense = np.zeros((len(ents), width))
        k, inner_at = gather_rows(table.offsets, rows)
        dense[k, table.edge[inner_at]] = table.flow[inner_at]
        with np.errstate(over="ignore", invalid="ignore"):  # as Python floats
            block = np.where((p == 0.0)[:, None], 0.0, p[:, None] * dense)
        flow[first[ents][:, None] + np.arange(width)] = block
    if lost:
        n, old = min(lost)
        y = flows.inputs[row_of[n]]
        raise ValueError(
            f"no inner flow for input {None if y == CONST else y} on super edge {old}"
        )
    ends = np.append(first, len(at))[flows.offsets]
    return Flows(flows.inputs, ends, at, flow)
