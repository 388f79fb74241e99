"""Command line driver, exercised through main() with captured stdout."""

import contextlib
import io
import json
import math
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
    """Edge 1's w0 overflows to inf at every input, and meeting a zero it
    is NaN.  Either graph is well formed, so the witness is built: its
    crossing and objective checks fail, and the command prints the report,
    with the non-finite values as null, and exits 1, with or without
    mutants.  No factor equalizes a non-finite cost, so without ``--raw``
    the graph is left unscaled and the report is the same.  ``lg
    complexity`` prints the non-finite costs as null too, and exits 1."""
    res = build_sparsenew_lg(4, 2)
    g = expand(res.graph)
    fp = tmp_path / "f.json"
    write_json(fp, dump_function(res.function))
    inf = ScaleRule(1e300, ScaleRule(1e300, ONE))
    for name, w0 in (("nan", ProductRule(inf, ZERO)), ("inf", inf)):
        edges = list(g.edges)
        edges[1] = replace(edges[1], w0=w0)
        gp = tmp_path / f"g{name}.json"
        write_json(gp, dump_graph(replace(g, edges=edges)))
        for extra in ([], ["--mutants", "3"]):
            outs = []
            for raw in (["--raw"], []):
                argv = ["adversary", str(gp), "--function", str(fp), *raw, *extra]
                code, out, err = run(capsys, *argv)
                assert (code, err) == (1, ""), argv
                rep = _parse(out)
                assert rep["ok"] is False
                assert rep["checks"] == {"crossing": False, "objective": False}, argv
                assert rep["target"] is None and rep["crossing"] == [None, None], argv
                outs.append(out)
            assert outs[0] == outs[1], (name, extra)
        code, out, err = run(capsys, "complexity", str(gp), "--function", str(fp))
        assert (code, err) == (1, "")
        total = _parse(out)["total"]
        assert total["c0_max"] is None and total["c"] is None
        assert total["c1_max"] == 1.0


def test_mutant_min_deviation_skips_a_nan_crossing(tmp_path, capsys, monkeypatch):
    """Both weights of one site edge scaled by 1e308: its mutant's w0
    overflows to inf and its crossing is NaN, while every other mutant
    deviates by 1/3.  The least deviation is taken over the finite ones,
    whether the verifier meets the NaN mutant first or last."""
    res = build_sparsenew_lg(4, 2)
    g, f = expand(res.graph), res.function
    ei = linking_mutants(g, f, 6)[0].edge
    edges = list(g.edges)
    edges[ei] = replace(
        edges[ei], w0=ScaleRule(1e308, edges[ei].w0), w1=ScaleRule(1e308, edges[ei].w1)
    )
    gp, fp = tmp_path / "g.json", tmp_path / "f.json"
    write_json(gp, dump_graph(replace(g, edges=edges)))
    write_json(fp, dump_function(f))
    mutants, certify = cli.linking_mutants, cli.verify_witness
    crossings = []

    def verify(w, fn):
        rep = certify(w, fn)
        crossings.append(rep.crossing_lo)
        return rep

    monkeypatch.setattr(cli, "verify_witness", verify)
    outs = []
    for nan_last in (False, True):

        def ordered(*args, **kwargs):
            out = mutants(*args, **kwargs)
            return sorted(out, key=lambda m: (m.edge == ei) == nan_last)

        monkeypatch.setattr(cli, "linking_mutants", ordered)
        crossings.clear()
        argv = ["adversary", str(gp), "--function", str(fp), "--raw", "--mutants", "6"]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (1, "")
        # the parent's witness, then the mutants'
        nans = [math.isnan(c) for c in crossings[1:]]
        assert nans == ([False] * 5 + [True] if nan_last else [True] + [False] * 5)
        assert _parse(out)["mutant_min_deviation"] == pytest.approx(1 / 3)
        outs.append(out)
    assert outs[0] == outs[1]


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (("costmodel", "--variant", "sparsenew", "--n", "1"), "at least 2"),
        (("costmodel", "--variant", "sparse", "--n", "1"), "at least 2"),
        (
            ("costmodel", "--variant", "sparsenew", "--fit")
            + ("--n-lo", "1", "--n-hi", "4", "--points", "3"),
            "at least 2",
        ),
        (("oracle", "ninter", "--v1", "0", "--nset", "1", "--x", "1"), "--v1"),
    ],
)
def test_degenerate_sizes_are_bad_input(capsys, argv, message):
    """A log n factor at n = 1 and an empty ground set are rejected as bad
    input, not reported as a cost of 0 or left to raise a traceback."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in json.loads(err)["error"]["message"]


def test_oracle_edge_exp(tmp_path, capsys):
    inst = tmp_path / "p3.json"
    inst.write_text('{"n": 3, "edges": [[1, 2], [2, 3]]}')
    code, out, _err = run(
        capsys, "oracle", "edge-exp", "--graph", str(inst), "--x", "1", "--y", "1"
    )
    assert code == 0
    rep = _parse(out)
    assert rep["value"] == pytest.approx(4 / 9)


@pytest.mark.parametrize(
    "text, message",
    [
        ("{}", "$: missing key 'n'"),
        ('{"n": 4, "edges": 5}', "$: 'int' object is not iterable"),
        ("[1, 2]", "$: list indices must be integers or slices, not str"),
        ('{"n": 4, "edges": [[1, null]]}', "$: int() argument must be"),
        ('{"n": 1e400, "edges": []}', "$: cannot convert float infinity to integer"),
        ('{"n": 10000000000, "edges": [[2, 3]]}', "$.n: 10000000000 exceeds"),
        ('{"n": 4, "edges": ["12", "23", "13"]}', "$.edges[0]: expected two vertices"),
        ('{"n": 4, "edges": [[1, 2, 3]]}', "$.edges[0]: expected two vertices"),
        ('{"n": 4, "edges": [[1.9, 3]]}', "$.edges[0][0]: expected an integer, got float"),
        ('{"n": 4, "edges": [[1, true]]}', "$.edges[0][1]: expected an integer, got bool"),
        ('{"n": 4, "edges": [["1", "2"]]}', "$.edges[0][0]: expected an integer, got str"),
        ('{"n": 4.7, "edges": []}', "$.n: expected an integer, got float"),
        ('{"n": "4", "edges": []}', "$.n: expected an integer, got str"),
    ],
)
@pytest.mark.parametrize(
    "oracle", [("delta", "--b", "2", "--x", "1"), ("edge-exp", "--x", "1", "--y", "1")]
)
def test_malformed_instance_exits_two(tmp_path, capsys, text, message, oracle):
    """A missing key or a mistyped value in an instance file is bad input,
    reported at its JSON path, as in a graph file; so is a vertex count
    past the oracles' cap, whose edge mask would be too large to build.
    The vertex count and the edge ends are JSON integers, two per edge: a
    string, a float or a bool is refused, not read through int() (which
    would read the string "12" as the edge (1, 2) and 1.9 as 1)."""
    inst = tmp_path / "inst.json"
    inst.write_text(text)
    which, *rest = oracle
    code, out, err = run(capsys, "oracle", which, "--graph", str(inst), *rest)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["message"].startswith(message)


@pytest.mark.parametrize(
    "value, message",
    [
        (0.9, "expected an integer, got float"),
        (1.0, "expected an integer, got float"),
        (True, "expected an integer, got bool"),
        ("1", "expected an integer, got str"),
        (2, "function value 2 is not 0 or 1"),
    ],
)
@pytest.mark.parametrize("command", ["validate", "complexity", "adversary"])
def test_mistyped_function_values_exit_two(
    corpus_dir, tmp_path, capsys, command, value, message
):
    """A function value is the JSON integer 0 or 1; anything else is bad
    input at its JSON path (0.9 was read as 0, so validate reported
    uncertified sinks and exited 1)."""
    graph = str(corpus_dir / "graphs" / "pairs-walk.json")
    function = json.loads((corpus_dir / "graphs" / "pairs-walk.fn.json").read_text())
    key = max(function["values"])
    function["values"][key] = value
    fp = tmp_path / "f.json"
    fp.write_text(json.dumps(function))
    code, out, err = run(capsys, command, graph, "--function", str(fp))
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["message"] == f"$.values[{key!r}]: {message}"


@pytest.mark.parametrize(
    "value, message",
    [
        (1.5, "expected an integer, got float"),
        (4.0, "expected an integer, got float"),
        (True, "expected an integer, got bool"),
        ("4", "expected an integer, got str"),
        (0, "position 0 outside 1..6"),
        (7, "position 7 outside 1..6"),
    ],
)
@pytest.mark.parametrize("command", ["validate", "complexity", "adversary"])
def test_mistyped_certificate_positions_exit_two(
    corpus_dir, tmp_path, capsys, command, value, message
):
    """A certificate position is a JSON integer in 1..n; anything else is
    bad input at its JSON path (1.5 was read as position 1, and 7 was kept,
    and validate passed)."""
    graph = str(corpus_dir / "graphs" / "triangle-sparsenew-n4.json")
    fn = corpus_dir / "graphs" / "triangle-sparsenew-n4.fn.json"
    function = json.loads(fn.read_text())
    key = min(function["certs"])
    function["certs"][key][0] = value
    fp = tmp_path / "f.json"
    fp.write_text(json.dumps(function))
    code, out, err = run(capsys, command, graph, "--function", str(fp))
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["message"] == f"$.certs[{key!r}][0]: {message}"


def _dense4_files(dense4, tmp_path, mutate):
    """The dense n=4 graph and function as files, the first super edge's
    inner graph changed by ``mutate``; and the index of that edge."""
    obj = dump_graph(dense4.graph)
    k = next(k for k, e in enumerate(obj["edges"]) if isinstance(e["loads"], dict))
    mutate(obj["edges"][k]["loads"]["super"]["graph"])
    gp, fp = tmp_path / "g.json", tmp_path / "f.json"
    write_json(str(gp), obj)
    write_json(str(fp), dump_function(dense4.function))
    return str(gp), str(fp), k


def test_gadget_of_another_width_exits_two(dense4, tmp_path, capsys):
    """An inner graph whose n is not its host's is bad input for every
    command, at the path of the inner n (validate without a function
    reported ok, and complexity priced the graph)."""
    graph, function, k = _dense4_files(dense4, tmp_path, lambda g: g.update(n=7))
    message = f"$.edges[{k}].loads.super.graph.n: a 7-bit gadget in a 6-bit graph"
    for argv in (
        ("validate", graph),
        ("validate", graph, "--function", function),
        ("complexity", graph, "--function", function),
        ("adversary", graph, "--function", function),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert json.loads(err)["error"]["message"] == message, argv


def test_super_edge_label_step_exits_one(dense4, tmp_path, capsys):
    """A gadget sink label that does not make its host edge's head label is
    a label step on the super edge: validate reports it, with or without a
    function, and expands nothing (expand's merge refused the edge, so
    validate --function exited 2).  Complexity still prices the graph."""

    def relabel(inner):
        ends = {e["from"] for e in inner["edges"]}
        (sink,) = [v for v in inner["vertices"] if v["id"] not in ends]
        assert sink["label"] == [1, 2, 4]
        sink["label"] = [1, 3, 4]

    graph, function, k = _dense4_files(dense4, tmp_path, relabel)
    reports = []
    for argv in (("validate", graph), ("validate", graph, "--function", function)):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (1, ""), argv
        reports.append(_parse(out)["violations"])
    assert reports[0] == reports[1]
    step = [v for v in reports[0] if v["where"].startswith(f"edge[{k}] ")]
    assert [v["kind"] for v in step] == ["label-step"]
    code, out, err = run(capsys, "complexity", graph, "--function", function)
    assert (code, err) == (0, "")


def _nested(rule, kind, depth):
    """``rule`` under ``depth`` scale or product rules that multiply by 1."""
    for _ in range(depth):
        if kind == "scale":
            rule = {"rule": "scale", "factor": 1.0, "inner": rule}
        else:
            one = {"rule": "const", "value": 1.0}
            rule = {"rule": "product", "left": one, "right": rule}
    return rule


def test_deeply_nested_json_exits_two(corpus_dir, tmp_path, capsys):
    """A file of 100,000 nested arrays is too deep for the JSON decoder:
    every command that reads it, in any role, reports it as bad input
    named by its file."""
    deep = str(tmp_path / "deep.json")
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    graph = str(corpus_dir / "graphs" / "pairs-walk.json")
    function = str(corpus_dir / "graphs" / "pairs-walk.fn.json")
    for argv in (
        ["validate", deep],
        ["validate", graph, "--function", deep],
        ["complexity", deep, "--function", function],
        ["adversary", graph, "--function", deep],
        ["oracle", "delta", "--graph", deep, "--b", "2", "--x", "1"],
        ["oracle", "edge-exp", "--graph", deep, "--x", "1", "--y", "1"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert json.loads(err)["error"]["message"] == f"{deep}: nested too deeply to read"


@pytest.mark.parametrize("kind", ["scale", "product"])
def test_deeply_nested_rules_exit_two(corpus_dir, tmp_path, capsys, kind):
    """A w0 that nests 600 scale or product rules is too deep to parse: bad
    input named by its file, not a traceback."""
    graph = json.loads((corpus_dir / "graphs" / "pairs-walk.json").read_text())
    graph["edges"][0]["w0"] = _nested(graph["edges"][0]["w0"], kind, 600)
    gp = tmp_path / "g.json"
    gp.write_text(json.dumps(graph))
    function = str(corpus_dir / "graphs" / "pairs-walk.fn.json")
    for argv in (
        ["validate", str(gp)],
        ["validate", str(gp), "--function", function],
        ["complexity", str(gp), "--function", function],
        ["adversary", str(gp), "--function", function],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert json.loads(err)["error"]["message"] == f"{gp}: nested too deeply to read"


def test_a_450_deep_scale_chain_is_priced(corpus_dir, tmp_path, capsys):
    """Refusing what is too deep leaves a 450-deep chain of scale rules
    readable: it prices like the rule it wraps."""
    path = corpus_dir / "graphs" / "pairs-walk.json"
    function = str(corpus_dir / "graphs" / "pairs-walk.fn.json")
    graph = json.loads(path.read_text())
    graph["edges"][0]["w0"] = _nested(graph["edges"][0]["w0"], "scale", 450)
    gp = tmp_path / "g.json"
    gp.write_text(json.dumps(graph))
    code, want, _ = run(capsys, "complexity", str(path), "--function", function)
    assert code == 0
    assert run(capsys, "complexity", str(gp), "--function", function) == (0, want, "")
    assert run(capsys, "validate", str(gp), "--function", function)[0] == 0


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


def _spelled_twice(graph, function, case):
    """Give one input a second key of the wrong length: input 101010's
    flow, halved, under 10101 (before or after 101010), f(0) flipped under
    00000000, or a certificate repeated under its key and 00."""
    if case.startswith("flows"):
        flows = graph["flows"]
        half = {i: p / 2 for i, p in flows["101010"].items()}
        pairs = [("10101", half), ("101010", flows.pop("101010"))]
        if case == "flows, short key last":
            pairs.reverse()
        flows.update(pairs)
        return "$.flows['10101']: expected 6 bits of 0 and 1"
    if case == "values":
        function["values"]["00000000"] = 1 - function["values"]["000000"]
        key = "00000000"
    else:
        cert = next(iter(function["certs"]))
        key = cert + "00"
        function["certs"][key] = function["certs"][cert]
    return f"$.{case}[{key!r}]: expected 6 bits of 0 and 1"


@pytest.mark.parametrize(
    "case", ["flows, short key first", "flows, short key last", "values", "certs"]
)
@pytest.mark.parametrize("command", ["validate", "complexity"])
def test_wrong_length_input_key_exits_two(anchored4, tmp_path, capsys, command, case):
    """An input key must have exactly n characters: otherwise one input has
    two spellings, and the last key would silently win."""
    graph = dump_graph(anchored4.graph)
    function = dump_function(anchored4.function)
    message = _spelled_twice(graph, function, case)
    gp, fp = tmp_path / "g.json", tmp_path / "f.json"
    gp.write_text(json.dumps(graph))  # in insertion order, not sorted
    fp.write_text(json.dumps(function))
    code, out, err = run(capsys, command, str(gp), "--function", str(fp))
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["message"] == message


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


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_mutated_instance_files_keep_exit_contract(corpus_dir, tmp_path_factory, data):
    """Replace or delete up to three values of a corpus instance file, or of
    one instance record in it: both oracles that read an instance still
    exit 0, 1 or 2 and never with a traceback."""
    path = data.draw(st.sampled_from(sorted((corpus_dir / "instances").iterdir())))
    inst = json.loads(path.read_text())
    if data.draw(st.booleans()):
        inst = data.draw(st.sampled_from(inst["instances"]))
    paths = list(_value_paths(inst))[1:]
    for _ in range(data.draw(st.integers(0, 3))):
        at = data.draw(st.sampled_from(paths))
        record = inst
        try:
            for step in at[:-1]:
                record = record[step]
            if data.draw(st.booleans()):
                del record[at[-1]]
            else:
                record[at[-1]] = data.draw(json_values)
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation removed or replaced this path
    target = tmp_path_factory.mktemp("fuzz") / "instance.json"
    target.write_text(json.dumps(inst))
    for argv in (
        ["oracle", "delta", "--graph", str(target), "--b", "2", "--x", "1"],
        ["oracle", "edge-exp", "--graph", str(target), "--x", "1", "--y", "1"],
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
        (lambda g: g.update(n=4.0), "$.n: expected an integer, got float"),
        (
            lambda g: g["vertices"][1].update(label=[1, 2.0, 3, 4]),
            "$.vertices[1].label[1]: expected an integer, got float",
        ),
        (
            lambda g: g["vertices"][1].update(label="1234"),
            "$.vertices[1].label[0]: expected an integer, got str",
        ),
        (
            lambda g: g["vertices"][1].update(label=[1, 2, 3, 5]),
            "$.vertices[1].label[3]: position 5 outside 1..4",
        ),
        (
            lambda g: _inner_edge(g).update(loads=[2.0]),
            f"{INNER}.loads[0]: expected an integer, got float",
        ),
        (
            lambda g: g["edges"][0]["loads"]["super"]["graph"].update(n=5),
            "$.edges[0].loads.super.graph.n: a 5-bit gadget in a 4-bit graph",
        ),
        # numbers: a rule's at the rule's path, the others at their own
        (
            lambda g: g["edges"][0].update(w0={"rule": "dense-load", "size": 2.5}),
            "$.edges[0].w0: expected an integer, got float",
        ),
        (
            lambda g: g["edges"][0]["w0"].update(value="5"),
            "$.edges[0].w0: expected a number, got str",
        ),
        (
            lambda g: g["edges"][0]["w1"].update(value=True),
            "$.edges[0].w1: expected a number, got bool",
        ),
        (
            lambda g: g["edges"][0].update(
                w0={"rule": "scale", "factor": "2", "inner": g["edges"][0]["w0"]}
            ),
            "$.edges[0].w0: expected a number, got str",
        ),
        (
            lambda g: _inner_edge(g)["w1"].update(pos=1.9),
            f"{INNER}.w1: expected an integer, got float",
        ),
        (
            lambda g: g["edges"][0].update(
                w0={"rule": "candidate-pair", "required": [1.5, 2]}
            ),
            "$.edges[0].w0: expected an integer, got float",
        ),
        (
            lambda g: g["flows"]["*"].update({"0": "1.0"}),
            "$.flows['*']['0']: expected a number, got str",
        ),
        (
            lambda g: g["edges"][0]["loads"]["super"].update(c1_max="one"),
            "$.edges[0].loads.super.c1_max: expected a number, got str",
        ),
        (
            lambda g: g.update(
                stages=[{"name": "s", "edges": [0], "rebalance": {"0": "2"}}]
            ),
            "$.stages[0].rebalance['0']: expected a number, got str",
        ),
        (
            lambda g: g.update(stages=[{"name": "s", "edges": [0.0]}]),
            "$.stages[0].edges[0]: expected an integer, got float",
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
