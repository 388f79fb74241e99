"""Loading gadgets: fixed paths that read a set of positions.

Two flavors.  The dense path weights every step by the path length on both
sides, giving negative cost ``K^2`` and positive cost exactly 1.  The sparse
path makes a step cheap when the loaded bit matches the side, with the cheap
weight growing as ones accumulate; its negative cost scales with the number of
ones actually present instead of with ``K^2``.

Both satisfy the linking condition by construction: the dense weight ignores
the input entirely, and the sparse weights are mirror images of each other
(side 0 at bit value 0 costs what side 1 costs at bit value 1).
"""

from __future__ import annotations

import math
from typing import Sequence

from .model import GraphBuilder, SuperEdge
from .rules import DenseLoadRule, Rule, SparseLoadRule

DENSE = "dense"
SPARSE = "sparse"


def _path(n_bits: int, positions: tuple[int, ...], rules) -> SuperEdge:
    b = GraphBuilder(n_bits, root="g0")
    prev = b.root
    for k, pos in enumerate(positions, start=1):
        cur = b.add_vertex(f"g{k}", positions[:k])
        w0, w1 = rules(k)
        b.add_ordinary(prev, cur, pos, w0, w1)
        prev = cur
    flow = {i: 1.0 for i in range(len(positions))}
    return b.graph(const_flow=flow)


def _positions(positions: Sequence[int]) -> tuple[int, ...]:
    out = tuple(sorted(set(positions)))
    if len(out) != len(tuple(positions)):
        raise ValueError("loaded positions must be distinct")
    if len(out) < 2:
        raise ValueError("a loading gadget needs at least two positions")
    return out


def dense_load(n_bits: int, positions: Sequence[int]) -> SuperEdge:
    pos = _positions(positions)
    k = len(pos)
    rule = DenseLoadRule(k)
    gadget = _path(n_bits, pos, lambda _: (rule, rule))
    return SuperEdge(gadget, c1_max=load_c1_max(DENSE, k))


def sparse_load(n_bits: int, positions: Sequence[int]) -> SuperEdge:
    pos = _positions(positions)
    gadget = _path(
        n_bits,
        pos,
        lambda k: (SparseLoadRule(pos, k, 0), SparseLoadRule(pos, k, 1)),
    )
    return SuperEdge(gadget, c1_max=load_c1_max(SPARSE, len(pos)))


def load_gadget(kind: str, n_bits: int, positions: Sequence[int]) -> SuperEdge:
    if kind == DENSE:
        return dense_load(n_bits, positions)
    if kind == SPARSE:
        return sparse_load(n_bits, positions)
    raise ValueError(f"unknown load kind {kind!r}")


def load_c1_max(kind: str, k: int) -> float:
    """Largest positive-side cost of a ``k``-position load of this kind: the
    gadget for k >= 2, the ``single_load_rules`` edge for k = 1."""
    if kind == DENSE:
        return 1.0
    if kind == SPARSE:
        return sparse_c1_max(k)
    raise ValueError(f"unknown load kind {kind!r}")


def single_load_rules(kind: str, position: int) -> tuple[Rule, Rule]:
    """Weight rules for loading one position as an ordinary edge."""
    if kind == DENSE:
        rule = DenseLoadRule(1)
        return rule, rule
    if kind == SPARSE:
        path = (position,)
        return SparseLoadRule(path, 1, 0), SparseLoadRule(path, 1, 1)
    raise ValueError(f"unknown load kind {kind!r}")


# Closed forms behind the caps of load_c1_max.

def harmonic(n: int) -> float:
    return sum(1.0 / j for j in range(1, n + 1))


def sparse_c1_max(k: int) -> float:
    return harmonic(k) / (3.0 * math.log(k + 1))
