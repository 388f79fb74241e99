"""Closed-form cost estimates and exponent fits."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from lgkit.costmodel import (
    analytic_params,
    default_grid,
    eval_cost,
    fit_exponent,
    optimize_params,
    parse_m_law,
)


def test_dense_bracket_by_hand():
    # x*n^2 + (a*x)^2 + (n/a)^2 * (a*x^2 + n*(b^2 + (a/b)^2*(b + b^2/x)))
    # = 1024 + 1024 + 4 * (128 + 16*48) = 5632 at (n,x,a,b) = (16,4,8,4)
    assert eval_cost("dense", 16, x=4, a=8, b=4) == math.sqrt(5632)


def test_unknown_variant_rejected():
    with pytest.raises(ValueError, match="variant"):
        eval_cost("cubic", 16, x=4, a=8, b=4)


@pytest.mark.parametrize(
    "variant,kwargs,message",
    [
        ("dense", dict(n=0.0, x=4, a=8, b=4), "n must be positive"),
        ("dense", dict(n=16, x=4, a=8), "b must be positive"),
        ("dense", dict(n=16, x=-1.0, a=8, b=4), "x must be positive"),
        ("sparse", dict(n=16, m=0.0, x=4, a=8, b=4), "m must be positive"),
        ("sparse", dict(n=1.5, m=64.0, x=4, a=8, b=4), "at least 2"),
        ("sparsenew", dict(n=16, m=64.0, d2=-1.0, b=4), "nonnegative"),
    ],
)
def test_eval_cost_refuses_bad_arguments(variant, kwargs, message):
    with pytest.raises(ValueError, match=message):
        eval_cost(variant, **kwargs)


@pytest.mark.parametrize("n,x,a,b", [(16, 4, 8, 4), (64, 8, 22, 8), (256, 16, 64, 10)])
def test_full_density_matches_dense_up_to_log(n, x, a, b):
    dense = eval_cost("dense", n, x=x, a=a, b=b)
    sparse = eval_cost("sparse", n, m=float(n * n), x=x, a=a, b=b)
    ratio = sparse**2 / (dense**2 * math.log(n))
    assert 1.0 <= ratio <= 2.0
    assert sparse**2 == pytest.approx(math.log(n) * (dense**2 + x * n), rel=1e-12)


def test_sparsenew_default_degree_spread():
    n, m, b = 256.0, 4096.0, 32.0
    assert eval_cost("sparsenew", n, m, b=b) == eval_cost(
        "sparsenew", n, m, d2=2 * m / n, b=b
    )


@given(
    st.floats(16, 4096),
    st.floats(1.3, 2.0),
    st.floats(1.1, 2.5),
)
@settings(max_examples=40, deadline=None)
def test_cost_grows_with_edge_count(n, exp1, factor):
    m1 = n**exp1
    m2 = m1 * factor
    p = analytic_params("sparse", n, m1)
    c1 = eval_cost("sparse", n, m1, **p)
    c2 = eval_cost("sparse", n, m2, **p)
    assert c2 >= c1
    b = analytic_params("sparsenew", n, m1)["b"]
    assert eval_cost("sparsenew", n, m2, b=b) >= eval_cost("sparsenew", n, m1, b=b)


def test_cost_grows_with_degree_spread():
    lo = eval_cost("sparsenew", 1024.0, 32768.0, d2=8.0, b=64.0)
    hi = eval_cost("sparsenew", 1024.0, 32768.0, d2=80.0, b=64.0)
    assert hi > lo


@pytest.mark.parametrize("variant", ["dense", "sparse", "sparsenew"])
@pytest.mark.parametrize("n", [2**10, 2**14, 2**18])
def test_optimizer_never_beats_seed_backwards(variant, n):
    m = float(n) ** 1.5
    d2 = 2 * m / n if variant == "sparsenew" else None
    opt = optimize_params(variant, float(n), m, d2)
    assert opt.cost <= opt.seed_cost * (1 + 1e-12)
    assert opt.cost > 0


def test_integer_rounding_is_feasible():
    opt = optimize_params("dense", 8.0)
    ints = opt.ints()
    assert 1 <= ints["x"] <= 8
    assert 2 <= ints["b"] <= ints["a"] <= 8
    anchored = optimize_params("sparsenew", 8.0, 24.0, 6.0).ints()
    assert 2 <= anchored["b"] <= 8


def test_parse_m_law_forms():
    assert parse_m_law("n^1.5")(4.0) == 8.0
    assert parse_m_law("n")(7.0) == 7.0
    with pytest.raises(ValueError, match="n\\^1.5"):
        parse_m_law("m*log(n)")


def test_default_grid_shape():
    grid = default_grid()
    assert grid[0] == 2**10 and grid[-1] == 2**24
    assert list(grid) == sorted(set(grid))


def test_fit_needs_enough_points():
    with pytest.raises(ValueError, match="grid points"):
        fit_exponent("dense", n_range=(2**10, 2**12))


def test_fit_smoke_dense():
    res = fit_exponent("dense", n_range=default_grid(2**10, 2**18, 5))
    assert 1.1 < res.exponent < 1.4
    assert res.log_divided is None
    obj = res.to_json()
    assert obj["n_lo"] == 2**10 and obj["n_hi"] == 2**18
    assert len(obj["points"]) == 5


def test_fit_sparse_filters_thin_graphs():
    grid = default_grid(2**10, 2**18, 6)
    res = fit_exponent("sparse", m_law="n^1.3", n_range=grid)
    assert res.n_lo >= grid[0]
    assert res.log_divided == "sqrt(log n)"


def test_fit_sparsenew_reports_dominant_term():
    res = fit_exponent("sparsenew", n_range=default_grid(2**10, 2**18, 5))
    assert res.dominant in ("power", "degree")
    assert res.total_exponent is not None


def test_fit_paper_exponent_follows_the_degree_term():
    # at m = n^1.9 the d2 sqrt(n) term, d2 = 2m/n, outgrows n^(5/6) m^(1/6)
    res = fit_exponent("sparsenew", m_law="n^1.9", n_range=default_grid(2**10, 2**24, 6))
    assert res.dominant == "degree"
    assert res.paper_exponent == pytest.approx(1.9 - 0.5, abs=1e-12)
    assert abs(res.drift) < 1e-12
