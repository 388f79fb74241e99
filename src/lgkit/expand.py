"""Flattening of super edges into ordinary structure.

Each super edge is replaced by a copy of its inner gadget: the gadget root is
identified with the edge tail, the gadget sink with the edge head, interior
labels are shifted by the tail label, and both host scale rules multiply the
corresponding inner weights.  Flow through the edge becomes the edge flow
times the inner flow.  Negative and positive costs are unchanged, which the
acceptance suite checks numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Edge, GraphBuilder, LearningGraph, StageInfo


@dataclass
class _Part:
    """Where one original edge ended up: new indices plus inner bookkeeping."""

    new_edges: list[tuple[int, int | None]]  # (new index, inner edge index)
    inner: LearningGraph | None = None


def expand(g: LearningGraph) -> LearningGraph:
    """Return an equivalent graph without super edges.

    Inner gadgets containing super edges themselves are flattened recursively.
    A stage that names an edge the graph does not have raises ``ModelError``.
    """
    if not g.has_super():
        return g
    g.check_stages()  # every stage edge is translated below
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
    grown = len(b.edges) - len(g.edges)
    flows = None
    const_flow = None
    if g.const_flow is not None:
        const_flow = _translate(g.const_flow, parts, grown, y=None)
    if g.flows is not None:
        flows = {y: _translate(p, parts, grown, y=y) for y, p in g.flows.items()}
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
                        if ei in parts
                        for new, _ in parts[ei].new_edges
                    }
                ),
                note=s.note,
            )
            for s in g.stages
        )
    return b.graph(flows=flows, const_flow=const_flow, stages=stages)


def _translate(
    flow: dict[int, float], parts: dict[int, _Part], grown: int, y: int | None
) -> dict[int, float]:
    """``flow`` on the expanded edges, where expansion added ``grown`` edges.
    Flow on an unknown edge stays on an unknown one: a negative index is
    kept, and one past the end is shifted by ``grown``."""
    out: dict[int, float] = {}
    for old, p in flow.items():
        part = parts.get(old)
        if part is None:
            out[old if old < 0 else old + grown] = p
            continue
        if part.inner is None:
            out[part.new_edges[0][0]] = p
            continue
        if p == 0.0:
            for new, _ in part.new_edges:
                out[new] = 0.0
            continue
        inner_flow = (
            part.inner.const_flow if y is None else part.inner.flow_for(y)
        )
        if inner_flow is None:
            raise ValueError(f"no inner flow for input {y} on super edge {old}")
        for new, inner_idx in part.new_edges:
            out[new] = p * inner_flow.get(inner_idx, 0.0)
    return out
