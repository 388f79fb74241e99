"""Triangle promise problem: oracles, instances, and the three builders."""

import hashlib
import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lgkit.complexity import complexity
from lgkit.indexing import num_pairs, pair_position, position_pair
from lgkit.serialize import dump_graph, dumps
from lgkit.triangle import (
    GraphInstance,
    TriangleParams,
    build_dense_lg,
    build_sparse_lg,
    build_sparsenew_lg,
    delta_mean_pairs,
    delta_sets,
    edge_exp_exact,
    ninter_exact,
    ninter_sq_exact,
    oracle_delta_exact,
    triangle_function,
)
from lgkit.validate import validate


def triangles(n, z):
    """The vertex triples of every triangle in the graph of mask ``z``, in
    lexicographic order."""
    for t in itertools.combinations(range(n), 3):
        u, v, w = t
        if (
            (z >> pair_position(u, v, n)) & 1
            and (z >> pair_position(u, w, n)) & 1
            and (z >> pair_position(v, w, n)) & 1
        ):
            yield t


def has_triangle(n, z):
    return next(triangles(n, z), None) is not None


K3 = GraphInstance.from_edges(3, [(0, 1), (0, 2), (1, 2)])
P3 = GraphInstance.from_edges(3, [(0, 1), (1, 2)])


def graph_instances(max_n=6):
    return st.integers(3, max_n).flatmap(
        lambda n: st.builds(
            GraphInstance, st.just(n), st.integers(0, (1 << num_pairs(n)) - 1)
        )
    )


# ---------------------------------------------------------------------------
# Instances and enumeration


def test_instance_geometry():
    assert K3.m == 3
    assert P3.m == 2
    assert P3.neighbors(1) == {0, 2}
    assert P3.common_neighbors(0, 2) == {1}
    assert P3.common_neighbors(0, 0) == {1}
    assert P3.degrees == (1, 2, 1)
    assert P3.d2 == pytest.approx(math.sqrt(6 / 3))


def test_instance_json_round_trip():
    obj = P3.to_json()
    assert obj["edges"] == [[1, 2], [2, 3]]
    again = GraphInstance.from_json(json.loads(json.dumps(obj)))
    assert again == P3


def test_instance_rejects_negative_vertex_count():
    # a negative n used to make .edges loop forever in position_pair
    with pytest.raises(ValueError, match="must not be negative"):
        GraphInstance(-3, 1)
    with pytest.raises(ValueError, match="must not be negative"):
        GraphInstance(-1, 0)
    assert GraphInstance(0, 0).edges == ()


def test_triangle_enumeration():
    assert list(triangles(3, K3.z)) == [(0, 1, 2)]
    assert list(triangles(3, P3.z)) == []
    assert has_triangle(3, K3.z) and not has_triangle(3, P3.z)


def test_triangle_function_n3():
    f = triangle_function(3)
    assert f.positives() == (7,)
    assert f.certs[7] == (0, 1, 2)
    assert len(f.domain) == 8


def test_triangle_function_n4_counts():
    f = triangle_function(4)
    assert len(f.positives()) == 23
    assert len(f.negatives()) == 41
    full = (1 << 6) - 1
    assert f.certs[full] == (
        pair_position(0, 1, 4),
        pair_position(0, 2, 4),
        pair_position(1, 2, 4),
    )


@given(graph_instances(5))
@settings(max_examples=60, deadline=None)
def test_certificate_bits_force_a_triangle(g):
    f = triangle_function(g.n)
    if not has_triangle(g.n, g.z):
        return
    cert = f.certs[g.z]
    assert all((g.z >> p) & 1 for p in cert)
    forced = sum(1 << p for p in cert)
    assert has_triangle(g.n, forced)


# ---------------------------------------------------------------------------
# Pair families


def test_delta_sets_path_by_hand():
    assert delta_sets(P3, (1,), B=(0, 1), w=0) == {(1, 1)}


@given(graph_instances(5), st.data())
@settings(max_examples=60, deadline=None)
def test_adding_edges_shrinks_anchored_pairs(g, data):
    """With B = V and an anchor off the added edge, the anchor keeps its
    neighbors and every pair gains common neighbors: the set can only
    shrink."""
    missing = [
        p for p in range(num_pairs(g.n)) if not (g.z >> p) & 1
    ]
    if not missing:
        return
    p = data.draw(st.sampled_from(missing))
    w = data.draw(st.sampled_from(sorted(set(range(g.n)) - set(position_pair(p, g.n)))))
    x = data.draw(st.integers(1, g.n - 1))
    X = tuple(range(x))
    V = range(g.n)
    denser = GraphInstance(g.n, g.z | (1 << p))
    assert delta_sets(denser, X, V, w) <= delta_sets(g, X, V, w)


def test_delta_oracle_frozen():
    assert oracle_delta_exact(K3, (0, 1, 2), 1) == 2
    empty = GraphInstance(3, 0)
    assert oracle_delta_exact(empty, (0, 1, 2), 1) == 0


@given(graph_instances(6), st.data())
@settings(max_examples=40, deadline=None)
def test_delta_dual_routes_agree(g, data):
    b = data.draw(st.integers(1, g.n))
    x = data.draw(st.integers(1, g.n))
    B = tuple(range(b))
    assert oracle_delta_exact(g, B, x) == delta_mean_pairs(g, B, x)


# ---------------------------------------------------------------------------
# Subset intersection moments


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_intersection_mean_is_exact(data):
    n1 = data.draw(st.integers(1, 10))
    V1 = tuple(range(n1))
    N = tuple(data.draw(st.sets(st.sampled_from(V1))) if n1 else ())
    x = data.draw(st.integers(1, n1))
    assert ninter_exact(V1, N, x) == Fraction(x * len(N), n1)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_intersection_second_moment_bound(data):
    n1 = data.draw(st.integers(2, 10))
    V1 = tuple(range(n1))
    N = tuple(data.draw(st.sets(st.sampled_from(V1), min_size=1)))
    x = data.draw(st.integers(1, n1))
    mean = Fraction(x * len(N), n1)
    if mean < 1:
        return
    assert ninter_sq_exact(V1, N, x) <= 2 * mean * mean


def test_edge_incidence_frozen():
    assert edge_exp_exact(P3, 1, 1) == Fraction(4, 9)
    assert edge_exp_exact(K3, 1, 1) == Fraction(2, 3)


@given(graph_instances(6), st.data())
@settings(max_examples=60, deadline=None)
def test_edge_incidence_closed_form(g, data):
    x = data.draw(st.integers(1, g.n))
    y = data.draw(st.integers(1, g.n))
    assert edge_exp_exact(g, x, y) == Fraction(2 * x * y * g.m, g.n * g.n)


# ---------------------------------------------------------------------------
# Builders


def test_param_validation():
    with pytest.raises(ValueError, match="variant"):
        TriangleParams(1, 2, 2, "fast")
    with pytest.raises(ValueError):
        TriangleParams(1, 2, 3)
    with pytest.raises(ValueError):
        TriangleParams(0, 2, 2)
    from lgkit.triangle import build_dense_lg

    with pytest.raises(ValueError, match="capped"):
        build_dense_lg(6, TriangleParams(1, 2, 2))
    with pytest.raises(ValueError, match="2 <= b"):
        build_sparsenew_lg(4, 1)


def test_dense_builder_smallest_case():
    from lgkit.triangle import build_dense_lg

    res = build_dense_lg(3, TriangleParams(1, 2, 2))
    assert res.function.values == triangle_function(3).values
    assert validate(res.graph, res.function).ok
    rep = complexity(res.graph, res.function)
    assert rep.c1 <= 1.0


def test_builders_match_fixture_functions(tri4, dense4, sparse4, anchored4):
    for res in (dense4, sparse4, anchored4):
        assert res.function.values == tri4.values


def test_build_result_params_recorded(dense4):
    assert dense4.variant == "dense"
    assert dense4.params["x"] == 1
    assert dense4.params["n"] == 4


def test_builders_label_what_they_build():
    """A builder names its own variant, and refuses parameters made out for
    another builder instead of building its graph under their label."""
    assert build_sparse_lg(3, TriangleParams(1, 2, 2, "sparse")).variant == "sparse"
    assert build_sparsenew_lg(3, 2).variant == "sparsenew"
    with pytest.raises(ValueError, match="'sparse' parameters"):
        build_dense_lg(4, TriangleParams(1, 2, 2, "sparse"))
    for variant in ("dense", "sparsenew"):
        with pytest.raises(ValueError, match=f"'{variant}' parameters"):
            build_sparse_lg(3, TriangleParams(1, 2, 2, variant))


def test_sets_without_usable_starts_are_refused_before_building(monkeypatch):
    """With b >= 3, a search where some a-subset has exactly three vertices
    outside X has no usable start set: it is refused with that reason
    before any composition runs, and its neighbours still build."""
    from lgkit import triangle

    calls = []
    compose = triangle.johnson_compose

    def spy(*args, **kwargs):
        calls.append(args)
        return compose(*args, **kwargs)

    monkeypatch.setattr(triangle, "johnson_compose", spy)
    for x, a, b in ((1, 3, 3), (1, 4, 3), (1, 4, 4)):
        for variant, build in (("dense", build_dense_lg), ("sparse", build_sparse_lg)):
            with pytest.raises(ValueError, match="^no usable start sets: with b="):
                build(4, TriangleParams(x, a, b, variant))
    with pytest.raises(ValueError, match="^no usable start sets: with b=3"):
        build_sparsenew_lg(3, 3)
    assert calls == []
    build_dense_lg(4, TriangleParams(2, 3, 3))
    build_sparsenew_lg(4, 3)
    assert calls


# sha256 of the serialized graphs, computed before the builders moved to
# domain bitsets (the first five) and before sparsenew was built through
# the walk variants' anchored search (the rest); the serialized graphs must
# stay byte-identical
GRAPH_SHA256 = {
    "dense-n4": "db3e6e86c428a1389c07a02471d688dab4a10ee3b0fde25879bb65b9b02ef937",
    "sparse-n4": "8debbb73759d3c6f08e6c1bd80164d8eb2e50ad327b019b1abee6f2221ef5784",
    "sparsenew-n4": "3eb8d6e01047c5c513fe3a63feade90181f52eb68ab04361dd85adeb7504341b",
    "dense-n5": "e3bc6afbf1d7bc7f17e086d89e5e86f45565d5c12a0df2142bd15df570493fbc",
    "sparse-n5": "8eea5966db30b55d124554e77f5245c1529b9dba0393c26fae167b2b01c68f05",
    "sparsenew-n5": "fbbd1ef9a469764ca00f0b65137c871f6bf34156a732d8bae2a7afc83ea6f315",
    "sparsenew-n4-b3": "c03e1623f7749deda6c58f85b2d84d04e2c1341a600401e2417199ece991f5ec",
    "sparsenew-n4-b4": "ac653fc8476b3ca97e471d8c771e62755503f41e0dace5d452884ff913042843",
    "sparsenew-n5-b2": "1b62a88b90b4615c82512ae82272839926e79f9200d5b911126ad49325687b2b",
    "dense-n4-x2a3b2": "e0662ff7005bf6deb090e4c82ee2f9c02e96352977cdfcb3af90c2dabe611c74",
    "sparse-n4-x2a3b2": "b468477e1b19e471413a80a5a856f7af7fbcd8b8ab534ea578d2c55699af18ce",
    "dense-n4-x1a3b2": "88d93d578b5045ff7f3e8cd3634d37152e7a6227543f4aed8665dbb0126189ec",
}


def _sha256(res):
    return hashlib.sha256(dumps(dump_graph(res.graph)).encode()).hexdigest()


def test_n4_graphs_are_byte_identical(dense4, sparse4, anchored4):
    assert _sha256(dense4) == GRAPH_SHA256["dense-n4"]
    assert _sha256(sparse4) == GRAPH_SHA256["sparse-n4"]
    assert _sha256(anchored4) == GRAPH_SHA256["sparsenew-n4"]
    for b in (3, 4):
        assert _sha256(build_sparsenew_lg(4, b)) == GRAPH_SHA256[f"sparsenew-n4-b{b}"]
    for x, a, b in ((2, 3, 2), (1, 3, 2)):
        dense = build_dense_lg(4, TriangleParams(x, a, b))
        assert _sha256(dense) == GRAPH_SHA256[f"dense-n4-x{x}a{a}b{b}"]
    sparse = build_sparse_lg(4, TriangleParams(2, 3, 2, "sparse"))
    assert _sha256(sparse) == GRAPH_SHA256["sparse-n4-x2a3b2"]


def test_a_build_after_other_builds_keeps_its_pin(dense4, sparse4, anchored4):
    """Each composed graph keeps its own side-1 state, so no build reads
    another's: builds made again, after every variant has been built in
    this process, keep their pins."""
    again = {
        "dense-n4": build_dense_lg(4, TriangleParams(1, 2, 2)),
        "sparsenew-n4": build_sparsenew_lg(4, 2),
        "sparse-n4": build_sparse_lg(4, TriangleParams(1, 2, 2, "sparse")),
    }
    for name, res in again.items():
        assert _sha256(res) == GRAPH_SHA256[name]


def test_n5_graphs_are_byte_identical():
    dense = build_dense_lg(5, TriangleParams(1, 2, 2))
    assert _sha256(dense) == GRAPH_SHA256["dense-n5"]
    assert dense.function == triangle_function(5)
    assert _sha256(build_sparsenew_lg(5, 3)) == GRAPH_SHA256["sparsenew-n5"]
    assert _sha256(build_sparsenew_lg(5, 2)) == GRAPH_SHA256["sparsenew-n5-b2"]


def test_sparse_n5_graph_is_byte_identical():
    """The sparse n=5 build, whose spoke gadgets are sparse loads."""
    sparse = build_sparse_lg(5, TriangleParams(1, 2, 2, "sparse"))
    assert len(sparse.graph.edges) == 1275
    assert _sha256(sparse) == GRAPH_SHA256["sparse-n5"]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_triangle_function_matches_brute_force(n):
    f = triangle_function(n)
    certs = {}
    for z in range(1 << num_pairs(n)):
        first = next(triangles(n, z), None)
        assert f(z) == int(first is not None)
        if first is not None:
            u, v, w = first
            certs[z] = tuple(
                sorted(pair_position(a, b, n) for a, b in ((u, v), (u, w), (v, w)))
            )
    assert f.certs == certs
    assert list(f.certs) == sorted(certs)
