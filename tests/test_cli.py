"""Command line driver, exercised through main() with captured stdout."""

import contextlib
import io
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgkit import cli
from lgkit.adversary import linking_mutants
from lgkit.cli import main
from lgkit.expand import expand
from lgkit.rules import ONE, ZERO, ProductRule, ScaleRule
from lgkit.serialize import (
    build_function,
    build_graph,
    dump_graph,
    read_json,
    dump_function,
    write_json,
)
from lgkit.triangle import GraphInstance, build_sparsenew_lg
from lgkit.validate import validate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject(token):
    raise ValueError(f"{token} is not RFC 8259 JSON")


def _parse(out):
    return json.loads(out, parse_constant=_reject)


@pytest.fixture
def built(tmp_path, capsys):
    g = tmp_path / "g.json"
    f = tmp_path / "f.json"
    code, out, _ = run(
        capsys,
        "build",
        "triangle-dense",
        "--n",
        "4",
        "--x",
        "1",
        "--a",
        "2",
        "--b",
        "2",
        "-o",
        str(g),
        "--function-out",
        str(f),
    )
    assert code == 0
    return g, f, _parse(out)


def test_build_summary(built):
    g, f, summary = built
    assert summary["variant"] == "dense"
    assert summary["complexity"] > 0
    assert summary["c1_max"] <= 1.0 + 1e-12
    assert g.exists() and f.exists()


def test_validate_complexity_adversary_chain(built, capsys):
    g, f, _ = built
    code, out, _err = run(capsys, "validate", str(g), "--function", str(f))
    assert code == 0
    assert _parse(out)["ok"] is True

    code, out, _err = run(capsys, "complexity", str(g), "--function", str(f))
    assert code == 0
    rep = _parse(out)
    assert rep["total"]["c1_max"] <= 1.0 + 1e-12

    code, out, _err = run(capsys, "adversary", str(g), "--function", str(f))
    assert code == 0
    rep = _parse(out)
    assert rep["ok"] is True
    assert rep["crossing"][0] == pytest.approx(1.0, abs=1e-9)


def test_adversary_mutants_flag(built, capsys):
    g, f, _ = built
    code, out, _err = run(
        capsys,
        "adversary",
        str(g),
        "--function",
        str(f),
        "--mutants",
        "5",
        "--seed",
        "1",
    )
    assert code == 0
    rep = _parse(out)
    assert rep["mutants"] == rep["mutants_caught"] == 5
    assert rep["mutant_min_deviation"] > 1e-3


def test_adversary_fails_when_a_mutant_escapes(built, capsys, monkeypatch):
    """A verifier that certifies every witness lets the mutants escape."""
    g, f, _ = built
    certify = cli.verify_witness
    calls = []

    def lenient(w, fn):
        rep = certify(w, fn)
        calls.append(rep.crossing_ok)
        if len(calls) == 3:  # the second mutant
            rep.crossing_ok = True
        return rep

    monkeypatch.setattr(cli, "verify_witness", lenient)
    argv = ["adversary", str(g), "--function", str(f), "--mutants", "4"]
    code, out, _err = run(capsys, *argv)
    assert code == 1
    rep = _parse(out)
    assert rep["ok"] is True
    assert (rep["mutants"], rep["mutants_caught"]) == (4, 3)
    assert calls == [True, False, False, False, False]


def test_adversary_nan_weight_fails_checks(tmp_path, capsys):
    """Edge 1's w0 overflows to inf and meets a zero, so it is NaN at every
    input.  The graph is well formed, so the witness is built: its crossing
    and objective checks fail, and the command prints the report, with the
    NaN values as null, and exits 1, with or without mutants.  ``lg
    complexity`` prints the NaN costs as null too."""
    res = build_sparsenew_lg(4, 2)
    g = expand(res.graph)
    edges = list(g.edges)
    nan = ProductRule(ScaleRule(1e300, ScaleRule(1e300, ONE)), ZERO)
    edges[1] = replace(edges[1], w0=nan)
    g = replace(g, edges=edges, _out=None, _in=None)
    gp, fp = tmp_path / "g.json", tmp_path / "f.json"
    write_json(gp, dump_graph(g))
    write_json(fp, dump_function(res.function))
    for extra in ([], ["--mutants", "3"]):
        argv = ["adversary", str(gp), "--function", str(fp), "--raw", *extra]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (1, ""), argv
        rep = _parse(out)
        assert rep["ok"] is False
        assert rep["checks"] == {"crossing": False, "objective": False}, argv
        assert rep["target"] is None and rep["crossing"] == [None, None], argv
    code, out, err = run(capsys, "complexity", str(gp), "--function", str(fp))
    assert (code, err) == (0, "")
    total = _parse(out)["total"]
    assert total["c0_max"] is None and total["c"] is None
    assert total["c1_max"] == 1.0


def test_adversary_rejects_negative_mutant_count(built, capsys):
    g, f, _ = built
    code, out, err = run(
        capsys, "adversary", str(g), "--function", str(f), "--mutants", "-1"
    )
    assert code == 2
    assert out == ""
    assert "negative" in json.loads(err)["error"]["message"]


def test_verdict_has_no_options(built, tmp_path, capsys):
    """A loosened tolerance once certified this mutant, whose crossing sum
    is 1.25; the verdict takes no tolerance or linking mode now."""
    g, f, _ = built
    mutant = linking_mutants(build_graph(read_json(g)), build_function(read_json(f)), 1)
    target = tmp_path / "mutant.json"
    write_json(target, dump_graph(mutant[0].graph))
    code, out, _err = run(capsys, "adversary", str(target), "--function", str(f))
    assert code == 1
    assert _parse(out)["crossing"][1] == pytest.approx(1.25, abs=1e-9)
    for argv in (
        ["adversary", str(target), "--function", str(f), "--tol", "0.5"],
        ["validate", str(g), "--linking", "structural"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_validate_without_function_checks_linking(tmp_path, capsys):
    """Structural linking: equal rules that read the loaded bit are not
    linked; the sparse build's dispatch and sparse-step rules are."""
    table = {"rule": "table", "rows": {"1:0": 1.0, "1:1": 2.0}, "default": 0.0}
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "n": 1,
                "root": "r",
                "vertices": [{"id": "r", "label": []}, {"id": "s", "label": [1]}],
                "edges": [
                    {"from": "r", "to": "s", "loads": [1], "w0": table, "w1": table}
                ],
                "flows": {"1": {"0": 1.0}},
            }
        )
    )
    code, out, _err = run(capsys, "validate", str(bad))
    assert code == 1
    assert [v["kind"] for v in _parse(out)["violations"]] == ["linking"]
    gs = tmp_path / "gs.json"
    build = ["build", "triangle-sparse", "--n", "4", "--x", "1", "--a", "2", "--b", "2"]
    code, _out, _err = run(capsys, *build, "-o", str(gs))
    assert code == 0
    code, out, _err = run(capsys, "validate", str(gs))
    assert code == 0, out


def test_validate_detects_broken_file(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"n": 4')
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert out == ""
    msg = json.loads(err)
    assert "broken.json" in msg["error"]["message"]


def test_oracle_delta(tmp_path, capsys):
    inst = tmp_path / "k3.json"
    inst.write_text('{"n": 3, "edges": [[1, 2], [1, 3], [2, 3]]}')
    code, out, _err = run(
        capsys, "oracle", "delta", "--graph", str(inst), "--b", "3", "--x", "1"
    )
    assert code == 0
    rep = _parse(out)
    assert rep["value"] == 2.0
    assert rep["exact"] == "2"
    assert rep["bound"] == 9.0


def test_oracle_ninter_frozen(capsys):
    code, out, _err = run(
        capsys, "oracle", "ninter", "--v1", "6", "--nset", "1,2,3", "--x", "2"
    )
    assert code == 0
    rep = _parse(out)
    assert rep["value"] == 1.0
    code, out, _err = run(
        capsys, "oracle", "ninter-sq", "--v1", "6", "--nset", "1,2,3", "--x", "2"
    )
    assert code == 0
    rep = _parse(out)
    assert rep["precondition_met"] is True
    assert rep["bound"] == 2.0


def test_oracle_edge_exp(tmp_path, capsys):
    inst = tmp_path / "p3.json"
    inst.write_text('{"n": 3, "edges": [[1, 2], [2, 3]]}')
    code, out, _err = run(
        capsys, "oracle", "edge-exp", "--graph", str(inst), "--x", "1", "--y", "1"
    )
    assert code == 0
    rep = _parse(out)
    assert rep["value"] == pytest.approx(4 / 9)


def test_costmodel_single_point(capsys):
    code, out, _err = run(
        capsys,
        "costmodel",
        "--variant",
        "sparsenew",
        "--n",
        "1024",
        "--m",
        "32768",
    )
    assert code == 0
    rep = _parse(out)
    assert rep["cost"] > 0
    assert rep["params"]["b"] >= 2


def test_costmodel_fit(capsys):
    code, out, _err = run(
        capsys,
        "costmodel",
        "--variant",
        "dense",
        "--fit",
        "--n-lo",
        str(2**10),
        "--n-hi",
        str(2**16),
        "--points",
        "4",
    )
    assert code == 0
    rep = _parse(out)
    assert 1.0 < rep["exponent"] < 1.5


@pytest.mark.parametrize(
    "law, paper",
    [
        ("n^1.5", {"dense": 5 / 4, "sparse": 7 / 6, "sparsenew": 13 / 12}),
        ("n^1.3", {"dense": 5 / 4, "sparse": 11 / 12 + 1.3 / 6, "sparsenew": 5 / 6 + 1.3 / 6}),
    ],
    ids=["m-n1.5", "m-n1.3"],
)
def test_costmodel_fit_reports_paper_exponent(capsys, law, paper):
    # slopes of the parent's fit on 6 points from 2^10 to 2^24; the m law
    # does not move the dense one
    slopes = {
        "n^1.5": {"dense": 1.2495, "sparse": 1.1634, "sparsenew": 1.0833},
        "n^1.3": {"dense": 1.2495, "sparse": 1.1305, "sparsenew": 1.0500},
    }[law]
    for variant, want in paper.items():
        code, out, _err = run(
            capsys, "costmodel", "--variant", variant, "--fit", "--points", "6", "--m-law", law
        )
        assert code == 0
        rep = _parse(out)
        assert round(rep["exponent"], 4) == slopes[variant]
        assert rep["paper_exponent"] == pytest.approx(want, abs=1e-12)
        assert rep["drift"] == rep["exponent"] - rep["paper_exponent"]
        assert abs(rep["drift"]) < 0.005


def test_report_certifies_every_variant(capsys):
    code, out, _err = run(capsys, "report", "--n", "4")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["variant"] for r in rows] == ["dense", "sparse", "sparsenew"]
    assert [r["edges"] for r in rows] == [496, 492, 76]
    assert [r["c0_max"] for r in rows] == [198.0, 179.953298500158, 52.0]
    assert [r["c1_max"] for r in rows] == [1.0, 1.0, 1.0]
    assert all(r["valid"] and r["certified"] for r in rows)
    assert rows[2]["params"] == {"b": 2, "n": 4}


def test_report_exits_one_on_a_failed_variant(capsys, monkeypatch):
    def failing(g, f=None):
        rep = validate(g, f)
        rep.add("forced", "$", "a violation the test injects")
        return rep

    monkeypatch.setattr(cli, "validate", failing)
    code, out, _err = run(capsys, "report", "--n", "3")
    assert code == 1
    assert not any(json.loads(line)["valid"] for line in out.splitlines())


# sha256 of the corpus tree for seed 0, sizes 5 and 2 samples
CORPUS_DIGEST = "ff7e1313f20c32eb68a924c65af8de6d3149f5d7ee0d2bec3f0d3a7b517e5a1d"


def test_corpus_prints_pinned_digest(tmp_path, capsys):
    for name in ("a", "b"):
        code, out, _err = run(
            capsys, "corpus", "--out", str(tmp_path / name), "--sizes", "5", "--samples", "2"
        )
        assert code == 0
        assert _parse(out)["digest"] == CORPUS_DIGEST


def test_corpus_round_trip(corpus_dir, capsys):
    meta = json.loads((corpus_dir / "meta.json").read_text())
    assert meta["seed"] == 0
    records = json.loads((corpus_dir / "instances" / "n4-all.json").read_text())
    small = [GraphInstance.from_json(rec) for rec in records["instances"]]
    assert len(small) == 64
    code, out, _err = run(
        capsys,
        "validate",
        str(corpus_dir / "graphs" / "triangle-dense-n4.json"),
        "--function",
        str(corpus_dir / "graphs" / "triangle-dense-n4.fn.json"),
    )
    assert code == 0


@pytest.mark.parametrize(
    "args, words",
    [
        (("--sizes", "3,5"), "exhaustive"),
        (("--sizes", "1"), "exhaustive"),
        (("--p", "2"), "outside [0, 1]"),
        (("--samples", "-1"), "negative"),
    ],
    ids=["exhaustive-size", "size-below-two", "p-above-one", "negative-samples"],
)
def test_corpus_rejects_bad_arguments(tmp_path, capsys, args, words):
    out_dir = tmp_path / "corpus"
    code, out, err = run(capsys, "corpus", "--out", str(out_dir), *args)
    assert code == 2
    assert out == ""
    assert words in json.loads(err)["error"]["message"]
    assert not out_dir.exists()


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_validate_empty_object_exits_two(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    code, out, err = run(capsys, "validate", str(empty))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["message"] == "$: missing key 'n'"


# keys a graph file may leave out; every other key of a record is required
OPTIONAL_KEYS = {"flows", "stages", "rebalance", "note", "c1_max"}


def _key_paths(obj, path=()):
    """Paths to the keys of the records in a graph object; lists are
    entered at their first and last item, data maps not at all."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield path + (key,)
            if key not in ("flows", "rebalance"):
                yield from _key_paths(value, path + (key,))
    elif isinstance(obj, list) and obj:
        for k in sorted({0, len(obj) - 1}):
            yield from _key_paths(obj[k], path + (k,))


def test_validate_missing_keys_exit_two(corpus_dir, tmp_path, capsys):
    graph = json.loads((corpus_dir / "graphs" / "pairs-walk.json").read_text())
    function = str(corpus_dir / "graphs" / "pairs-walk.fn.json")
    paths = list(_key_paths(graph))
    assert len(paths) > 40
    required = 0
    for path in paths:
        broken = json.loads(json.dumps(graph))
        record = broken
        for step in path[:-1]:
            record = record[step]
        del record[path[-1]]
        target = tmp_path / "broken.json"
        target.write_text(json.dumps(broken))
        code, out, err = run(capsys, "validate", str(target), "--function", function)
        if code == 2:
            message = json.loads(err)["error"]["message"]
        if path[-1] in OPTIONAL_KEYS:
            assert code in (0, 1, 2), path
            continue
        required += 1
        assert code == 2, path
        assert out == ""
        assert "missing key" in message, path
    assert required > 30


@pytest.mark.parametrize("edge", [99, -1, 16])
@pytest.mark.parametrize("where", ["stage", "flow"])
@pytest.mark.parametrize("command", ["validate", "complexity"])
def test_unknown_edge_index_exits_two(
    corpus_dir, tmp_path, capsys, command, where, edge
):
    graph = json.loads((corpus_dir / "graphs" / "pairs-walk.json").read_text())
    assert len(graph["edges"]) == 16
    if where == "stage":
        graph["stages"][1]["edges"].append(edge)
        path = f"$.stages[1].edges[{len(graph['stages'][1]['edges']) - 1}]"
    else:
        key = sorted(graph["flows"])[0]
        graph["flows"][key][str(edge)] = 0.5
        path = f"$.flows[{key!r}][{str(edge)!r}]"
    target = tmp_path / "unknown-edge.json"
    target.write_text(json.dumps(graph))
    function = str(corpus_dir / "graphs" / "pairs-walk.fn.json")
    code, out, err = run(capsys, command, str(target), "--function", function)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["message"] == (
        f"{path}: unknown edge {edge}, the graph has 16 edges"
    )


@pytest.mark.parametrize(
    "edge,reason",
    [
        (99, "unknown edge 99, the graph has 16 edges"),
        (-1, "unknown edge -1, the graph has 16 edges"),
        (4, "edge 4 is not in the stage"),
    ],
)
@pytest.mark.parametrize("command", ["validate", "complexity"])
def test_bad_rebalance_key_exits_two(
    corpus_dir, tmp_path, capsys, command, edge, reason
):
    graph = json.loads((corpus_dir / "graphs" / "pairs-walk.json").read_text())
    stage = graph["stages"][0]
    assert stage["name"] == "walk1" and stage["edges"] == [0, 1, 2, 3]
    stage["rebalance"][str(edge)] = 2.0
    target = tmp_path / "bad-rebalance.json"
    target.write_text(json.dumps(graph))
    function = str(corpus_dir / "graphs" / "pairs-walk.fn.json")
    code, out, err = run(capsys, command, str(target), "--function", function)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["message"] == (
        f"$.stages[0].rebalance[{str(edge)!r}]: {reason}"
    )


FUZZ_GRAPHS = ("pairs-walk", "dense-load-4", "sparse-load-4", "or-of-loads")


def _value_paths(obj, path=()):
    yield path
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _value_paths(value, path + (key,))
    elif isinstance(obj, list):
        for k, value in enumerate(obj):
            yield from _value_paths(value, path + (k,))


json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-3, 40),
        st.integers(),
        st.floats(),
        st.text(max_size=4),
    ),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_mutated_corpus_files_keep_exit_contract(corpus_dir, tmp_path_factory, data):
    """Replace or delete up to three values anywhere in a corpus graph: every
    command still exits 0, 1 or 2 and never with a traceback."""
    name = data.draw(st.sampled_from(FUZZ_GRAPHS))
    graph = json.loads((corpus_dir / "graphs" / f"{name}.json").read_text())
    paths = list(_value_paths(graph))[1:]
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(paths))
        record = graph
        try:
            for step in path[:-1]:
                record = record[step]
            if data.draw(st.booleans()):
                del record[path[-1]]
            else:
                record[path[-1]] = data.draw(json_values)
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation removed or replaced this path
    target = tmp_path_factory.mktemp("fuzz") / "graph.json"
    target.write_text(json.dumps(graph))
    function = str(corpus_dir / "graphs" / f"{name}.fn.json")
    commands = ("validate", "complexity", "adversary")
    for argv in (
        ["validate", str(target)],
        *([c, str(target), "--function", function] for c in commands),
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err.getvalue()


def _inner_edge(graph):
    return graph["edges"][0]["loads"]["super"]["graph"]["edges"][1]


INNER = "$.edges[0].loads.super.graph.edges[1]"


@pytest.mark.parametrize(
    "mutate, message",
    [
        (
            lambda g: _inner_edge(g).update(loads=[10**30]),
            f"{INNER}.loads[0]: position {10**30} outside 1..4",
        ),
        (
            lambda g: _inner_edge(g).update(loads=[0]),
            f"{INNER}.loads[0]: position 0 outside 1..4",
        ),
        (
            lambda g: _inner_edge(g)["w1"].update(path=[1, 70, 3, 4]),
            f"{INNER}.w1: position 70 outside 1..4",
        ),
        (
            lambda g: _inner_edge(g).update(loads=[float("inf")]),
            f"{INNER}: cannot convert float infinity to integer",
        ),
        (lambda g: g.update(root=1.5), "$.root: expected a string, got float"),
        (
            lambda g: g["vertices"][0].update(id=None),
            "$.vertices[0].id: expected a string, got NoneType",
        ),
    ],
)
def test_malformed_positions_and_ids_exit_two(
    corpus_dir, tmp_path, capsys, mutate, message
):
    graph = json.loads((corpus_dir / "graphs" / "sparse-load-4.json").read_text())
    mutate(graph)
    target = tmp_path / "malformed.json"
    target.write_text(json.dumps(graph))
    function = str(corpus_dir / "graphs" / "sparse-load-4.fn.json")
    for command in ("validate", "complexity", "adversary"):
        code, out, err = run(capsys, command, str(target), "--function", function)
        assert (code, out) == (2, ""), command
        assert json.loads(err)["error"]["message"] == message
