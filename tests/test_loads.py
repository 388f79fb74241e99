"""Loading gadgets and their closed-form costs.

The expected numbers are derived by hand from the step prices and frozen
here; the gadget graphs must then reproduce them through the generic cost
machinery.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pricing import c0_at, c1_at

from lgkit.loads import dense_load, harmonic, sparse_c1_max, sparse_load
from lgkit.indexing import parse_bitstring

# Closed forms of the two load paths, checked against the gadget graphs.


def dense_c0(k):
    return float(k * k)


def dense_c1(k):
    return 1.0


def sparse_c0(positions, z):
    """Negative-side cost of the sparse path at input ``z``.

    Equals ``3 (s*K + sum_i i*m_i) log(K+1)`` where ``s`` counts ones among
    the loaded positions and ``m_i`` counts the zeros between the (i-1)-th and
    i-th ones in path order (``m_{s+1}`` trails the last one).
    """
    pos = tuple(sorted(positions))
    k = len(pos)
    ones = 0
    acc = 0
    for p in pos:
        if (z >> p) & 1:
            acc += k
            ones += 1
        else:
            acc += ones + 1
    return 3.0 * acc * math.log(k + 1)


def sparse_c0_bound(k, ones):
    return 6.0 * k * (ones + 1) * math.log(k + 1)


def sparse_c1(k, ones):
    """Positive-side cost of the sparse path for an input with ``ones`` ones."""
    return ((k - ones) / k + harmonic(ones)) / (3.0 * math.log(k + 1))


def _sparse_c0_by_hand(positions, z):
    """Walk the loading path and add each step's price."""
    k = len(positions)
    unit = 3.0 * math.log(k + 1)
    ones = 0
    total = 0.0
    for p in positions:
        if (z >> p) & 1:
            total += k * unit
            ones += 1
        else:
            total += (ones + 1) * unit
    return total


# Hand-derived values for a 4-position path (unit 3 ln 5):
# all-zero input pays the cheap side at every step, all-one pays full price.
FROZEN_ZERO = 12 * math.log(5)
FROZEN_ONES = 48 * math.log(5)
FROZEN_C1_ZERO = 1 / (3 * math.log(5))


def test_sparse_frozen_values():
    pos = (0, 1, 2, 3)
    assert sparse_c0(pos, 0b0000) == pytest.approx(FROZEN_ZERO, rel=1e-12)
    assert sparse_c0(pos, 0b1111) == pytest.approx(FROZEN_ONES, rel=1e-12)
    assert sparse_c1(4, 0) == pytest.approx(FROZEN_C1_ZERO, rel=1e-12)
    assert sparse_c1_max(4) == pytest.approx(
        harmonic(4) / (3 * math.log(5)), rel=1e-12
    )


def test_dense_cost_is_square():
    for k in range(2, 13):
        assert dense_c0(k) == float(k * k)
        assert dense_c1(k) == 1.0


@given(st.integers(min_value=2, max_value=12), st.data())
@settings(max_examples=60)
def test_sparse_closed_form_matches_hand_walk(k, data):
    bits = data.draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
    positions = tuple(range(k))
    z = parse_bitstring("".join(map(str, bits)))
    assert sparse_c0(positions, z) == pytest.approx(
        _sparse_c0_by_hand(positions, z), rel=1e-12
    )


@given(st.integers(min_value=2, max_value=12), st.data())
@settings(max_examples=60)
def test_sparse_c0_bound(k, data):
    bits = data.draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
    positions = tuple(range(k))
    z = parse_bitstring("".join(map(str, bits)))
    ones = sum(bits)
    assert sparse_c0(positions, z) <= sparse_c0_bound(k, ones) + 1e-9
    assert sparse_c0_bound(k, ones) <= 6 * k * (ones + 1) * math.log(k + 1) + 1e-9


def test_sparse_c1_at_most_one():
    for k in range(2, 13):
        for ones in range(k + 1):
            assert sparse_c1(k, ones) <= 1.0 + 1e-12
        assert sparse_c1_max(k) == max(sparse_c1(k, o) for o in range(k + 1))


def test_gadget_graphs_reproduce_closed_forms():
    rng = random.Random(7)
    for k in (2, 3, 5, 8):
        positions = tuple(sorted(rng.sample(range(16), k)))
        dense = dense_load(16, positions).inner
        sparse = sparse_load(16, positions).inner
        for _ in range(20):
            z = rng.getrandbits(16)
            assert c0_at(dense, z) == pytest.approx(dense_c0(k), rel=1e-12)
            assert c0_at(sparse, z) == pytest.approx(
                sparse_c0(positions, z), rel=1e-12
            )
            ones = sum((z >> p) & 1 for p in positions)
            assert c1_at(sparse, z) == pytest.approx(
                sparse_c1(k, ones), rel=1e-12
            )
            assert c1_at(dense, z) == pytest.approx(1.0, rel=1e-12)


def test_gadget_c1_max_annotation():
    g = sparse_load(8, (1, 3, 5))
    assert g.c1_max == pytest.approx(sparse_c1_max(3), rel=1e-12)
    assert dense_load(8, (0, 2)).c1_max == 1.0


def test_load_needs_two_positions():
    with pytest.raises(ValueError):
        dense_load(4, (1,))
