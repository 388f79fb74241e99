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

from dataclasses import dataclass

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


@dataclass
class _Part:
    """Where one original edge ended up: new indices plus inner bookkeeping."""

    new_edges: list[tuple[int, int | None]]  # (new index, inner edge index)
    inner: LearningGraph | None = None


def expand(g: LearningGraph) -> LearningGraph:
    """Return an equivalent graph without super edges.

    Inner gadgets containing super edges themselves are flattened recursively.
    """
    if not g.has_super():
        return g
    b = GraphBuilder(g.n_bits, root=g.root)
    for vid, v in g.vertices.items():
        b.add_vertex(vid, v.label)
    parts: dict[int, _Part] = {}
    for i, e in enumerate(g.edges):
        if e.gadget is None:
            if e.kind == "empty":
                parts[i] = _Part([(b.add_empty(e.src, e.dst), None)])
            else:
                b.edges.append(Edge(e.src, e.dst, e.load, e.w0, e.w1))
                parts[i] = _Part([(len(b.edges) - 1, None)])
            continue
        inner = expand(e.gadget.inner)  # keeps the gadget's root and sink
        _, inner_map = b.merge(
            inner,
            prefix=f"e{i}.",
            vmap={inner.root: e.src, e.gadget.sink: e.dst},
            hosts=(e.w0, e.w1),
            label_shift=g.label(e.src),
        )
        parts[i] = _Part(
            [(new, old) for old, new in sorted(inner_map.items())], inner=inner
        )
    stages = None
    if g.stages is not None:
        stages = tuple(
            StageInfo(
                s.name,
                tuple(new for ei in s.edges for new, _ in parts[ei].new_edges),
                rebalance=(
                    None
                    if s.rebalance is None
                    else {
                        new: factor
                        for ei, factor in s.rebalance.items()
                        for new, _ in parts[ei].new_edges
                    }
                ),
                note=s.note,
            )
            for s in g.stages
        )
    return b.graph(flows=_translate(g.flows, parts), stages=stages)


def _translate(flows: Flows, parts: dict[int, _Part]) -> Flows:
    """``flows`` on the expanded edges.  An entry on an edge that stayed
    moves to it; an entry ``p`` on a super edge becomes one entry per inner
    edge, in inner edge order: ``p`` times the inner flow at the same input
    (0 where the inner flow has no entry), or 0 where ``p`` is 0."""
    # the new edges of every old edge, one old edge after another; the
    # place of a super edge's new edge in its run is its inner edge index
    runs = [[i for i, _ in parts[k].new_edges] for k in range(len(parts))]
    starts = np.zeros(len(runs) + 1, dtype=np.int64)
    np.cumsum([len(run) for run in runs], out=starts[1:])
    owner, at = gather_rows(starts, flows.edge)
    flow = flows.flow[owner]
    first = np.searchsorted(owner, np.arange(len(flows.edge)))  # each entry's run
    row_of = np.repeat(np.arange(len(flows.inputs)), np.diff(flows.offsets))
    lost: list[tuple[int, int]] = []  # (entry, super edge) without an inner flow
    for old, ents in groups_of(flows.edge).items():
        part = parts[old]
        if part.inner is None:
            continue
        p = flows.flow[ents]
        inputs = flows.inputs[row_of[ents]]
        inner = part.inner.flows
        if inner.const is not None:
            rows = np.zeros(len(ents), dtype=np.int64)
        else:  # the input-independent row reads only the inner one
            rows = np.where(inputs == CONST, -1, inner.own_rows(inputs))
        lost += [(int(n), old) for n in ents[(rows < 0) & (p != 0.0)][:1]]
        dense = np.zeros((len(ents), len(runs[old])))
        k, inner_at = gather_rows(inner.offsets, rows)
        dense[k, inner.edge[inner_at]] = inner.flow[inner_at]
        with np.errstate(over="ignore", invalid="ignore"):  # as Python floats
            block = np.where((p == 0.0)[:, None], 0.0, p[:, None] * dense)
        flow[first[ents][:, None] + np.arange(len(runs[old]))] = block
    if lost:
        n, old = min(lost)
        y = flows.inputs[row_of[n]]
        raise ValueError(
            f"no inner flow for input {None if y == CONST else y} on super edge {old}"
        )
    new = np.array([i for run in runs for i in run], dtype=np.int64)
    ends = np.append(first, len(at))[flows.offsets]
    return Flows(flows.inputs, ends, new[at], flow)
