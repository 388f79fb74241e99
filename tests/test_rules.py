"""Weight rules: evaluation, supports, serialization."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lgkit.rules import (
    CandidatePairRule,
    ConstRule,
    DenseLoadRule,
    DispatchRule,
    ONE,
    PatchRule,
    ProductRule,
    Rule,
    RuleError,
    ScaleRule,
    SparseLoadRule,
    TableRule,
    ZERO,
    scaled,
)


def test_const_rule_ignores_input():
    r = ConstRule(2.5)
    assert r(0) == 2.5
    assert r(0b1011) == 2.5
    assert r.support == ()


def test_const_rule_rejects_negative():
    with pytest.raises(RuleError):
        ConstRule(-1.0)


def test_table_rule_reads_named_positions():
    r = TableRule((0, 2), {(1, 0): 3.0, (1, 1): 5.0}, default=0.5)
    assert r(0b001) == 3.0
    assert r(0b101) == 5.0
    assert r(0b000) == 0.5
    assert r.support == (0, 2)


def test_dense_load_rule_is_constant_size():
    r = DenseLoadRule(4)
    assert r(0) == 4.0
    assert r(123) == 4.0


def test_sparse_load_rule_cheap_and_expensive_sides():
    path = (2, 5, 7)
    unit = 3.0 * math.log(4)
    # position 5 is the second step; one path bit (2) sits before it
    cheap = SparseLoadRule(path, pos=2, side=1)
    assert cheap(0b10100100) == pytest.approx(2 * unit)  # bits 2, 5, 7 set
    assert cheap(0b00000000) == pytest.approx(3 * unit)  # mismatch: full price
    assert cheap.support == (2, 5)  # own position plus the loaded prefix


def test_sparse_side0_measures_zeros():
    path = (0, 1)
    unit = 3.0 * math.log(3)
    r = SparseLoadRule(path, pos=2, side=0)
    assert r(0b00) == pytest.approx(1 * unit)  # bit 1 matches side 0, no ones yet
    assert r(0b01) == pytest.approx(2 * unit)  # one earlier path bit set
    assert r(0b10) == pytest.approx(2 * unit)  # mismatch: full price N=2


def test_scale_and_product():
    inner = DenseLoadRule(2)
    assert ScaleRule(0.5, inner)(0) == 1.0
    left = TableRule((1,), {(1,): 3.0}, 0.0)
    assert ProductRule(left, inner)(0b10) == 6.0
    assert ProductRule(left, inner)(0b00) == 0.0
    assert set(ProductRule(left, inner).support) == {1}


def test_scaled_folds_constants():
    assert scaled(2.0, ConstRule(3.0)) == ConstRule(6.0)
    assert scaled(1.0, ONE) is ONE
    nested = scaled(2.0, ScaleRule(3.0, DenseLoadRule(1)))
    assert isinstance(nested, ScaleRule)
    assert nested.factor == 6.0


def test_candidate_pair_gate():
    r = CandidatePairRule(required=(0, 1), blocked=((2, 3),))
    assert r(0b0011) == 1.0
    assert r(0b0001) == 0.0  # missing required bit
    assert r(0b1111) == 0.0  # blocked pair fully present
    assert r(0b0111) == 1.0  # half a blocked pair does not block


def test_patch_rule_rescales_one_assignment():
    base = ConstRule(1.0)
    r = PatchRule((0, 1), (1, 0), 4.0, base)
    assert r(0b01) == 4.0
    assert r(0b11) == 1.0


def test_dispatch_rule_routes_by_context():
    r = DispatchRule(
        (0,),
        {(0,): ConstRule(2.0), (1,): DenseLoadRule(3)},
        ZERO,
    )
    assert r(0b0) == 2.0
    assert r(0b1) == 3.0


@given(st.integers(min_value=0, max_value=255))
def test_table_rule_default_everywhere_off_table(z):
    r = TableRule((0, 1), {(1, 1): 9.0}, default=0.25)
    expected = 9.0 if z & 3 == 3 else 0.25
    assert r(z) == expected


@pytest.mark.parametrize(
    "rule",
    [
        ConstRule(1.5),
        TableRule((1, 3), {(0, 1): 2.0, (1, 1): 4.0}, 0.0),
        DenseLoadRule(7),
        SparseLoadRule((0, 4, 6), 2, 1),
        ScaleRule(0.25, DenseLoadRule(2)),
        ProductRule(TableRule((0,), {(1,): 1.0}, 0.0), DenseLoadRule(1)),
        CandidatePairRule((2, 3), ((0, 1), (4, 5))),
        PatchRule((0,), (1,), 4.0, ConstRule(2.0)),
        DispatchRule((2,), {(0,): ConstRule(1.0), (1,): ConstRule(3.0)}, ZERO),
    ],
)
def test_json_round_trip(rule):
    again = Rule.from_json(rule.to_json())
    assert again == rule
    for z in range(64):
        assert again(z) == rule(z)


def test_unknown_rule_kind_rejected():
    with pytest.raises(RuleError):
        Rule.from_json({"rule": "no-such-rule"})


@pytest.mark.parametrize(
    "make",
    [
        lambda v: ConstRule(v),
        lambda v: TableRule((0,), {(1,): v}, 0.0),
        lambda v: TableRule((0,), {(1,): 1.0}, v),
        lambda v: ScaleRule(v, ONE),
        lambda v: PatchRule((0,), (1,), v, ONE),
    ],
    ids=["const", "table-row", "table-default", "scale", "patch"],
)
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_weights_rejected(make, value):
    with pytest.raises(RuleError, match="non-finite"):
        make(value)


@pytest.mark.parametrize(
    "obj",
    [
        {"rule": "const", "value": math.inf},
        {"rule": "table", "rows": {"1:1": math.nan}, "default": 0.0},
        {"rule": "table", "rows": {}, "default": math.inf},
        {"rule": "scale", "factor": math.nan, "inner": ONE.to_json()},
        {"rule": "patch", "at": "1:1", "factor": math.inf, "inner": ONE.to_json()},
    ],
    ids=["const", "table-row", "table-default", "scale", "patch"],
)
def test_non_finite_weights_rejected_when_parsed(obj):
    with pytest.raises(RuleError, match="non-finite"):
        Rule.from_json(obj)
