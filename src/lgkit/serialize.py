"""On-disk formats.

Graphs and truth tables are stored as JSON with 1-based indices and input bit
strings whose first character is bit 1.  Serialization is canonical: object
keys are sorted, floats use the shortest round-tripping decimal (Python's
default), and list order is structural (vertex and edge order is meaningful
and preserved).  ``dumps(load(s)) == dumps(obj)`` byte for byte.

Layout:

* graph: ``{"n", "root", "vertices": [{"id", "label"}], "edges": [...],
  "flows": {...}, "stages": [...]}`` where an edge is ``{"from", "to",
  "loads", "w0", "w1"}``; ``loads`` is a list of positions for ordinary and
  empty edges, or ``{"super": {"graph": ..., "c1_max": ...}}``.
* flows: keyed by input bit string, or ``"*"`` for an input-independent flow;
  inner keys are edge indices (as strings, JSON objects oblige).
* truth table: ``{"n", "values": {bits: 0|1}, "certs": {bits: [positions]}}``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Any, Iterator

from .indexing import bitstring, parse_bitstring
from .model import (
    BooleanFunction,
    GraphBuilder,
    LearningGraph,
    StageInfo,
    SuperEdge,
)
from .rules import Rule


def dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def dump_flow(flow: dict[int, float]) -> dict[str, float]:
    return {str(i): p for i, p in sorted(flow.items())}


def _edge_index(value: Any, edges: int, path: str) -> int:
    i = int(value)
    if not 0 <= i < edges:
        raise FormatError(f"{path}: unknown edge {i}, the graph has {edges} edges")
    return i


def _parse_flow(obj: dict[str, float], edges: int, path: str) -> dict[int, float]:
    return {_edge_index(i, edges, f"{path}[{i!r}]"): float(p) for i, p in obj.items()}


def dump_graph(g: LearningGraph) -> dict[str, Any]:
    edges = []
    for e in g.edges:
        rec: dict[str, Any] = {"from": e.src, "to": e.dst}
        if e.gadget is not None:
            sup: dict[str, Any] = {"graph": dump_graph(e.gadget.inner)}
            if e.gadget.c1_max is not None:
                sup["c1_max"] = e.gadget.c1_max
            rec["loads"] = {"super": sup}
        elif e.load is None:
            rec["loads"] = []
        else:
            rec["loads"] = [e.load + 1]
        rec["w0"] = e.w0.to_json()
        rec["w1"] = e.w1.to_json()
        edges.append(rec)
    out: dict[str, Any] = {
        "n": g.n_bits,
        "root": g.root,
        "vertices": [
            {"id": v.id, "label": [i + 1 for i in v.label]}
            for v in g.vertices.values()
        ],
        "edges": edges,
    }
    flows: dict[str, Any] = {}
    if g.const_flow is not None:
        flows["*"] = dump_flow(g.const_flow)
    if g.flows is not None:
        for y, fl in g.flows.items():
            flows[bitstring(y, g.n_bits)] = dump_flow(fl)
    if flows:
        out["flows"] = flows
    if g.stages is not None:
        out["stages"] = [
            {
                "name": s.name,
                "edges": list(s.edges),
                **(
                    {"rebalance": {str(i): v for i, v in sorted(s.rebalance.items())}}
                    if s.rebalance
                    else {}
                ),
                **({"note": s.note} if s.note else {}),
            }
            for s in g.stages
        ]
    return out


class FormatError(ValueError):
    """A JSON object lacks a key or holds a value of the wrong type."""


@contextmanager
def _at(path: str) -> Iterator[None]:
    """Report a missing key or a mistyped value as a FormatError at ``path``."""
    try:
        yield
    except KeyError as exc:
        raise FormatError(f"{path}: missing key {exc.args[0]!r}") from None
    except (TypeError, AttributeError, OverflowError) as exc:
        raise FormatError(f"{path}: {exc}") from None


def _text(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise FormatError(f"{path}: expected a string, got {type(value).__name__}")
    return value


def _position(value: Any, n: int, path: str) -> int:
    """A 1-based position of an ``n``-bit input, as a 0-based index."""
    i = int(value) - 1
    if not 0 <= i < n:
        raise FormatError(f"{path}: position {i + 1} outside 1..{n}")
    return i


def _rule(rec: dict[str, Any], key: str, path: str, n: int) -> Rule:
    spec = rec[key]
    with _at(f"{path}.{key}"):
        rule = Rule.from_json(spec)
    for i in rule.support:
        _position(i + 1, n, f"{path}.{key}")
    return rule


def build_graph(obj: dict[str, Any], _path: str = "$") -> LearningGraph:
    """Materialize a graph from its JSON object form.

    Raises a ValueError, naming the JSON path, on a missing key, a mistyped
    value, a load or rule position outside the input and a stage or flow
    naming an edge the graph does not have; and on dangling vertex
    references and negative or non-finite weights.  Everything else is left
    to :func:`lgkit.validate.validate`.
    """
    with _at(_path):
        n = int(obj["n"])
        b = GraphBuilder(n, root=_text(obj["root"], f"{_path}.root"))
        for k, v in enumerate(obj["vertices"]):
            where = f"{_path}.vertices[{k}]"
            with _at(where):
                vid = _text(v["id"], f"{where}.id")
                b.add_vertex(vid, tuple(int(i) - 1 for i in v["label"]))
        for k, rec in enumerate(obj["edges"]):
            where = f"{_path}.edges[{k}]"
            with _at(where):
                loads = rec["loads"]
                w0 = _rule(rec, "w0", where, n)
                w1 = _rule(rec, "w1", where, n)
                if isinstance(loads, dict):
                    sup = loads["super"]
                    inner = build_graph(sup["graph"], f"{where}.loads.super.graph")
                    gadget = SuperEdge(inner, c1_max=sup.get("c1_max"))
                    b.add_super(rec["from"], rec["to"], gadget, w0, w1)
                elif loads:
                    (pos,) = loads
                    load = _position(pos, n, f"{where}.loads[0]")
                    b.add_ordinary(rec["from"], rec["to"], load, w0, w1)
                else:
                    b.add_empty(rec["from"], rec["to"])
        const_flow = None
        flows: dict[int, dict[int, float]] | None = None
        for key, fl in obj.get("flows", {}).items():
            where = f"{_path}.flows[{key!r}]"
            with _at(where):
                flow = _parse_flow(fl, len(b.edges), where)
                if key == "*":
                    const_flow = flow
                else:
                    if flows is None:
                        flows = {}
                    flows[parse_bitstring(key)] = flow
        stages = None
        if "stages" in obj:
            stages = []
            for k, st in enumerate(obj["stages"]):
                where = f"{_path}.stages[{k}]"
                with _at(where):
                    stages.append(
                        StageInfo(
                            st["name"],
                            tuple(
                                _edge_index(i, len(b.edges), f"{where}.edges[{pos}]")
                                for pos, i in enumerate(st["edges"])
                            ),
                            rebalance=(
                                {int(i): float(v) for i, v in st["rebalance"].items()}
                                if "rebalance" in st
                                else None
                            ),
                            note=st.get("note", ""),
                        )
                    )
        return b.graph(flows=flows, const_flow=const_flow, stages=stages)


def dump_function(f: BooleanFunction) -> dict[str, Any]:
    out: dict[str, Any] = {
        "n": f.n_bits,
        "values": {bitstring(z, f.n_bits): v for z, v in sorted(f.values.items())},
    }
    if f.certs is not None:
        out["certs"] = {
            bitstring(z, f.n_bits): [i + 1 for i in c]
            for z, c in sorted(f.certs.items())
        }
    return out


def build_function(obj: dict[str, Any]) -> BooleanFunction:
    with _at("$"):
        n = int(obj["n"])
        values = {parse_bitstring(k): int(v) for k, v in obj["values"].items()}
        certs = None
        if "certs" in obj:
            certs = {
                parse_bitstring(k): tuple(sorted(int(i) - 1 for i in c))
                for k, c in obj["certs"].items()
            }
        return BooleanFunction(n, values, certs)


def write_json(path: str, obj: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


def read_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
