"""On-disk formats.

Graphs and truth tables are stored as JSON with 1-based indices and input bit
strings of exactly ``n`` characters, whose first character is bit 1.
Serialization is canonical: object keys are sorted, floats use the shortest
round-tripping decimal (Python's default), and list order is structural
(vertex and edge order is meaningful and preserved).
``dumps(load(s)) == dumps(obj)`` byte for byte.

Layout:

* graph: ``{"n", "root", "vertices": [{"id", "label"}], "edges": [...],
  "flows": {...}, "stages": [...]}`` where an edge is ``{"from", "to",
  "loads", "w0", "w1"}``; ``loads`` is a list of positions for ordinary and
  empty edges, or ``{"super": {"graph": ..., "c1_max": ...}}``.
* flows: keyed by input bit string, or ``"*"`` for an input-independent flow;
  inner keys are edge indices in decimal (as strings, JSON objects oblige),
  one spelling per edge, as are stage rebalance keys.
* truth table: ``{"n", "values": {bits: 0|1}, "certs": {bits: [positions]}}``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import replace
from typing import Any, Callable, Iterator

from .indexing import bitstring, parse_bitstring
from .model import (
    CONST,
    BooleanFunction,
    Flows,
    GraphBuilder,
    LearningGraph,
    ModelError,
    StageInfo,
    SuperEdge,
)
from .rules import NumberError, Rule, json_integer, json_number


def dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def dump_flows(flows: Flows, n: int) -> dict[str, dict[str, float]]:
    """Each row of a flow table, zero flows too, keyed by the bit string
    of its input or by ``"*"``, with its flows keyed by edge index."""
    keys = [str(i) for i in flows.edge.tolist()]
    values = flows.flow.tolist()
    bounds = flows.offsets.tolist()
    return {
        "*" if y == CONST else bitstring(y, n): dict(zip(keys[lo:hi], values[lo:hi]))
        for y, lo, hi in zip(flows.inputs.tolist(), bounds, bounds[1:])
    }


def _edge_index(i: int, edges: int, path: str) -> int:
    if not 0 <= i < edges:
        raise FormatError(f"{path}: unknown edge {i}, the graph has {edges} edges")
    return i


def _edge_key(key: str, edges: int, path: str) -> int:
    """The edge a flow or rebalance key names.  The key must be the index
    in decimal, as :func:`dump_flows` writes it, so an edge has one
    spelling."""
    try:
        i = int(key)
    except ValueError:
        i = None
    if i is None or str(i) != key:
        raise FormatError(f"{path}: expected an edge index in decimal")
    return _edge_index(i, edges, path)


def _stage_factor(
    key: str, value: Any, stage: set[int], edges: int, where: str
) -> tuple[int, float]:
    """A rebalance entry of the stage at ``where``: one of its own edges and
    its factor."""
    path = f"{where}.rebalance[{key!r}]"
    i = _edge_key(key, edges, path)
    if i not in stage:
        raise FormatError(f"{path}: edge {i} is not in the stage")
    return i, _number(value, path)


def _input(key: Any, n: int, where: str) -> int:
    """The input that ``where[key]`` names: ``n`` characters, each 0 or 1."""
    if not isinstance(key, str) or len(key) != n or not set(key) <= {"0", "1"}:
        raise FormatError(f"{where}[{key!r}]: expected {n} bits of 0 and 1")
    return parse_bitstring(key)


def _parse_flow(obj: dict[str, float], edges: int, path: str) -> dict[int, float]:
    flow = {}
    for i, p in obj.items():
        where = f"{path}[{i!r}]"
        flow[_edge_key(i, edges, where)] = _number(p, where)
    return flow


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
    if len(g.flows.inputs):
        out["flows"] = dump_flows(g.flows, g.n_bits)
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


def _integer(value: Any, path: str) -> int:
    """:func:`lgkit.rules.json_integer`, with a refused value reported at
    ``path``."""
    try:
        return json_integer(value)
    except NumberError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _number(value: Any, path: str) -> float:
    """:func:`lgkit.rules.json_number`, with a refused value reported at
    ``path``."""
    try:
        return json_number(value)
    except NumberError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _text(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise FormatError(f"{path}: expected a string, got {type(value).__name__}")
    return value


def _position(value: Any, n: int, path: str) -> int:
    """A 1-based position of an ``n``-bit input, as a 0-based index."""
    i = _integer(value, path) - 1
    if not 0 <= i < n:
        raise FormatError(f"{path}: position {i + 1} outside 1..{n}")
    return i


def _positions(values: Any, n: int, path: Callable[[], str]) -> tuple[int, ...]:
    """The list ``values`` of 1-based positions of an ``n``-bit input, as
    0-based indices.  ``path()`` names the list; it is called only to report
    a refused value."""
    values = list(values)
    if not all(type(v) is int and 0 < v <= n for v in values):
        where = path()
        for k, v in enumerate(values):
            _position(v, n, f"{where}[{k}]")
    return tuple(v - 1 for v in values)


def _rule(rec: dict[str, Any], key: str, path: str, n: int, rules: dict) -> Rule:
    """The rule of ``rec[key]``, parsed once per spec ``repr`` in
    ``rules``.  A rule the rules refuse is reported at ``path.key``, as a
    mistyped value is."""
    spec = rec[key]
    with _at(f"{path}.{key}"):
        text = repr(spec)
        if text not in rules:
            try:
                rules[text] = Rule.from_json(spec)
            except ValueError as exc:
                raise FormatError(f"{path}.{key}: {exc}") from None
        rule = rules[text]
    for i in rule.support:
        _position(i + 1, n, f"{path}.{key}")
    return rule


def build_graph(obj: dict[str, Any]) -> LearningGraph:
    """Materialize a graph from its JSON object form.

    Equal rule specs give one rule object, shared by the edges of the
    graph and of its gadgets, so each table is built once.  Specs are
    equal when their ``repr`` is: the same JSON values with their keys in
    the same order, as the canonical files :func:`dumps` writes have.
    The memo lives for one call: two graphs share no parsed rule.

    Raises a ValueError, naming the JSON path, on a missing key, a mistyped
    value, a rule the rules refuse (a negative or non-finite weight, an
    assignment key not written as :func:`lgkit.indexing.assignment_key`
    writes it, a bit other than 0 or 1), a label, load or rule position
    outside the input, a gadget whose ``n`` is not its host's, a stage or
    flow naming an edge the graph does not have, a flow or rebalance key
    that is not an edge index in decimal, a flow key that is not ``n`` bits
    and a stage rebalance factor for an edge outside its stage; and on
    dangling vertex references.
    Everything else is left to :func:`lgkit.validate.validate`.
    """
    return _graph(obj, "$", {})


def _graph(obj: dict[str, Any], _path: str, rules: dict) -> LearningGraph:
    with _at(_path):
        n = _integer(obj["n"], f"{_path}.n")
        b = GraphBuilder(n, root=_text(obj["root"], f"{_path}.root"))
        for k, v in enumerate(obj["vertices"]):
            where = f"{_path}.vertices[{k}]"
            with _at(where):
                vid = _text(v["id"], f"{where}.id")
                b.add_vertex(vid, _positions(v["label"], n, lambda: f"{where}.label"))
        for k, rec in enumerate(obj["edges"]):
            where = f"{_path}.edges[{k}]"
            with _at(where):
                loads = rec["loads"]
                w0 = _rule(rec, "w0", where, n, rules)
                w1 = _rule(rec, "w1", where, n, rules)
                if isinstance(loads, dict):
                    sup = loads["super"]
                    sub = f"{where}.loads.super.graph"
                    inner = _graph(sup["graph"], sub, rules)
                    c1_max = None
                    if "c1_max" in sup:
                        c1_max = _number(sup["c1_max"], f"{where}.loads.super.c1_max")
                    gadget = SuperEdge(inner, c1_max=c1_max)
                    try:
                        b.add_super(rec["from"], rec["to"], gadget, w0, w1)
                    except ModelError as exc:
                        if inner.n_bits == n:
                            raise
                        raise FormatError(f"{sub}.n: {exc}") from None
                elif loads:
                    (pos,) = loads
                    load = _position(pos, n, f"{where}.loads[0]")
                    b.add_ordinary(rec["from"], rec["to"], load, w0, w1)
                else:  # with its weights as written, which validate checks
                    b.add_empty(rec["from"], rec["to"])
                    b.edges[-1] = replace(b.edges[-1], w0=w0, w1=w1)
        const_flow = None
        inputs: list[int] = []
        offsets, edge, flow = [0], [], []
        for key, fl in obj.get("flows", {}).items():
            where = f"{_path}.flows[{key!r}]"
            with _at(where):
                row = _parse_flow(fl, len(b.edges), where)
                if key == "*":
                    const_flow = row
                else:
                    inputs.append(_input(key, n, f"{_path}.flows"))
                    edge += row
                    flow += row.values()
                    offsets.append(len(edge))
        flows = Flows(inputs, offsets, edge, flow)
        stages = None
        if "stages" in obj:
            stages = []
            for k, st in enumerate(obj["stages"]):
                where = f"{_path}.stages[{k}]"
                with _at(where):
                    name = st["name"]
                    edges = []
                    for pos, i in enumerate(st["edges"]):
                        at = f"{where}.edges[{pos}]"
                        edges.append(_edge_index(_integer(i, at), len(b.edges), at))
                    rebalance = None
                    if "rebalance" in st:
                        own = set(edges)
                        rebalance = dict(
                            _stage_factor(i, v, own, len(b.edges), where)
                            for i, v in st["rebalance"].items()
                        )
                    stages.append(
                        StageInfo(
                            name,
                            tuple(edges),
                            rebalance=rebalance,
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


def _bit(value: Any, key: str) -> int:
    """The function value at input ``key``: the JSON integer 0 or 1."""
    where = f"$.values[{key!r}]"
    v = _integer(value, where)
    if v not in (0, 1):
        raise FormatError(f"{where}: function value {v} is not 0 or 1")
    return v


def build_function(obj: dict[str, Any]) -> BooleanFunction:
    with _at("$"):
        n = _integer(obj["n"], "$.n")
        values = {_input(k, n, "$.values"): _bit(v, k) for k, v in obj["values"].items()}
        certs = None
        if "certs" in obj:
            certs = {
                _input(k, n, "$.certs"): tuple(
                    sorted(_positions(c, n, lambda: f"$.certs[{k!r}]"))
                )
                for k, c in obj["certs"].items()
            }
        return BooleanFunction(n, values, certs)


def write_json(path: str, obj: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


def read_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
