"""Command line driver, exercised through main() with captured stdout."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgkit.cli import main
from lgkit.corpus import load_instances


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _parse(out):
    return json.loads(out)


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
    assert rep["mutants"] == 5
    assert rep["mutant_min_deviation"] > 1e-3


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


def test_corpus_round_trip(corpus_dir, capsys):
    meta = json.loads((corpus_dir / "meta.json").read_text())
    assert meta["seed"] == 0
    small = load_instances(corpus_dir / "instances" / "n4-all.json")
    assert len(small) == 64
    code, out, _err = run(
        capsys,
        "validate",
        str(corpus_dir / "graphs" / "triangle-dense-n4.json"),
        "--function",
        str(corpus_dir / "graphs" / "triangle-dense-n4.fn.json"),
    )
    assert code == 0


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
    for command in ("validate", "complexity", "adversary"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(target), "--function", function])
        assert code in (0, 1, 2), (command, code)
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
