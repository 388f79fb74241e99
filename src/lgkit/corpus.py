"""Reproducible corpus of graph instances and composed graphs.

``corpus_generate`` writes a directory with three parts:

* ``instances/``: every undirected graph on up to 4 vertices, plus seeded
  G(n, p) samples for larger n, each with edge count and degree statistics;
* ``functions/``: triangle truth tables for the exhaustive sizes;
* ``graphs/``: composed learning graphs (load gadgets, disjunctions, set
  walks, triangle builds) next to their boolean functions, for the
  round-trip, expansion and complexity sweeps.

All randomness comes from one ``random.Random`` seed (the stdlib Mersenne
Twister); reruns with the same arguments are byte-identical, which
``tree_digest`` checks in one string.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Iterable, Sequence

from random import Random

from .combinators import johnson_compose, or_compose
from .indexing import num_pairs
from .loads import DENSE, SPARSE, load_gadget
from .model import BooleanFunction, GraphBuilder, LearningGraph
from .serialize import dump_function, dump_graph, write_json
from .triangle import GraphInstance, TriangleParams, build_dense_lg, build_sparse_lg, build_sparsenew_lg, triangle_function

GENERATOR_NAME = "python-random-mersenne-twister"


def _instance_record(g: GraphInstance) -> dict:
    return {**g.to_json(), "m": g.m, "d2": g.d2}


def all_instances(n: int) -> list[GraphInstance]:
    return [GraphInstance(n, z) for z in range(1 << num_pairs(n))]


def sample_instances(
    n: int, count: int, p: float, rng: Random
) -> list[GraphInstance]:
    out = []
    for _ in range(count):
        z = 0
        for pos in range(num_pairs(n)):
            if rng.random() < p:
                z |= 1 << pos
        out.append(GraphInstance(n, z))
    return out


def _load_gadget_pair(kind: str, n_bits: int, positions: Sequence[int]):
    b = GraphBuilder(n_bits)
    pos = sorted(positions)
    b.add_vertex("s", pos)
    b.add_super("r", "s", load_gadget(kind, n_bits, pos))
    mask = sum(1 << p for p in pos)
    f = BooleanFunction.from_predicate(n_bits, lambda z: z & mask == mask)
    return b.graph(const_flow={0: 1.0}), f


def _or_of_loads():
    n_bits = 10
    blocks = [(0, 1, 2), (3, 4), (5, 6, 7), (8, 9)]
    kinds = [DENSE, SPARSE, SPARSE, DENSE]
    children = [
        _load_gadget_pair(kind, n_bits, block)
        for kind, block in zip(kinds, blocks)
    ]
    return or_compose(children, 1, prefix="c")


def _pairs_walk():
    """Set walk over 4 elements, each owning two input bits."""
    n_bits = 8

    def positions(A: frozenset) -> set[int]:
        return {2 * j for j in A} | {2 * j + 1 for j in A}

    def full(z: int, j: int) -> bool:
        return (z >> (2 * j)) & 1 == 1 and (z >> (2 * j + 1)) & 1 == 1

    fn = BooleanFunction.from_predicate(
        n_bits, lambda z: sum(full(z, j) for j in range(4)) >= 2
    )

    def cert(y: int) -> tuple[int, int]:
        done = [j for j in range(4) if full(y, j)]
        return (done[0], done[1])

    return johnson_compose(
        n_bits=n_bits,
        ground=(0, 1, 2, 3),
        k=2,
        r=2,
        positions=positions,
        function=fn,
        cert=cert,
        load_kinds=(DENSE,) * 3,
    )


def corpus_generate(
    out: "str | Path",
    seed: int = 0,
    sizes: Iterable[int] = range(5, 11),
    samples: int = 50,
    p: float = 0.3,
) -> dict:
    """Write the corpus under ``out`` and return its manifest; bad arguments
    raise ``ValueError`` before anything is written."""
    sizes = sorted(set(sizes))
    if sizes and sizes[0] < 5:
        raise ValueError(f"sampled size {sizes[0]} is below 5 (2 to 4 are exhaustive)")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability p={p} is outside [0, 1]")
    if samples < 0:
        raise ValueError(f"samples={samples} is negative")
    root = Path(out)
    rng = Random(seed)
    manifest: dict = {
        "seed": seed,
        "generator": GENERATOR_NAME,
        "sizes": sizes,
        "samples": samples,
        "p": p,
        "instances": {},
        "functions": {},
        "graphs": [],
    }

    inst_dir = root / "instances"
    inst_dir.mkdir(parents=True, exist_ok=True)
    for n in (2, 3, 4):
        rel = f"instances/n{n}-all.json"
        write_json(
            root / rel,
            {"n": n, "instances": [_instance_record(g) for g in all_instances(n)]},
        )
        manifest["instances"][str(n)] = rel
    for n in manifest["sizes"]:
        rel = f"instances/n{n}-samples.json"
        write_json(
            root / rel,
            {
                "n": n,
                "p": p,
                "instances": [
                    _instance_record(g) for g in sample_instances(n, samples, p, rng)
                ],
            },
        )
        manifest["instances"][str(n)] = rel

    fn_dir = root / "functions"
    fn_dir.mkdir(parents=True, exist_ok=True)
    for n in (3, 4):
        rel = f"functions/triangle-n{n}.json"
        write_json(root / rel, dump_function(triangle_function(n)))
        manifest["functions"][f"triangle-n{n}"] = rel

    graph_dir = root / "graphs"
    graph_dir.mkdir(parents=True, exist_ok=True)

    def emit(name: str, graph: LearningGraph, fn: BooleanFunction) -> None:
        grel = f"graphs/{name}.json"
        frel = f"graphs/{name}.fn.json"
        write_json(root / grel, dump_graph(graph))
        write_json(root / frel, dump_function(fn))
        manifest["graphs"].append({"name": name, "graph": grel, "function": frel})

    emit("dense-load-4", *_load_gadget_pair(DENSE, 4, (0, 1, 2, 3)))
    emit("sparse-load-4", *_load_gadget_pair(SPARSE, 4, (0, 1, 2, 3)))
    emit("or-of-loads", *_or_of_loads())
    emit("pairs-walk", *_pairs_walk())

    tri3 = triangle_function(3)
    d3 = build_dense_lg(3, TriangleParams(1, 2, 2, "dense"))
    emit("triangle-dense-n3", d3.graph, tri3)
    s3 = build_sparse_lg(3, TriangleParams(1, 2, 2, "sparse"))
    emit("triangle-sparse-n3", s3.graph, tri3)
    a4 = build_sparsenew_lg(4, 2)
    emit("triangle-sparsenew-n4", a4.graph, a4.function)
    d4 = build_dense_lg(4, TriangleParams(1, 2, 2, "dense"))
    emit("triangle-dense-n4", d4.graph, d4.function)

    write_json(root / "meta.json", manifest)
    return manifest


def tree_digest(root: "str | Path") -> str:
    """sha256 over the relative path and bytes of every file under ``root``,
    in sorted order: two corpus runs with the same arguments agree on it."""
    root = Path(root)
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()

