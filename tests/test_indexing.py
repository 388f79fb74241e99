"""Bit conventions and the pair-position encoding."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from lgkit.indexing import (
    agreement_layout,
    all_assignments,
    assignment_key,
    bitstring,
    input_array,
    mask_of,
    num_pairs,
    pack_bits,
    pack_index,
    pair_position,
    parse_assignment_key,
    parse_bitstring,
    position_pair,
)


def test_pair_position_lexicographic():
    # (0,1) (0,2) (0,3) (1,2) (1,3) (2,3) for n=4
    order = [pair_position(u, v, 4) for u in range(4) for v in range(u + 1, 4)]
    assert order == list(range(6))


def test_pair_position_symmetric_args():
    assert pair_position(3, 1, 5) == pair_position(1, 3, 5)


@given(st.integers(min_value=2, max_value=40))
def test_pair_position_bijection(n):
    seen = set()
    for u in range(n):
        for v in range(u + 1, n):
            p = pair_position(u, v, n)
            assert position_pair(p, n) == (u, v)
            seen.add(p)
    assert seen == set(range(num_pairs(n)))


@given(st.integers(min_value=0, max_value=(1 << 16) - 1))
def test_bitstring_round_trip(z):
    assert parse_bitstring(bitstring(z, 16)) == z


def test_bitstring_first_char_is_lowest_bit():
    assert bitstring(0b01, 2) == "10"


@given(
    st.integers(min_value=0, max_value=255),
    st.lists(st.integers(min_value=0, max_value=7), unique=True, min_size=1),
)
def test_pack_unpack(z, positions):
    positions = tuple(sorted(positions))
    bits = pack_bits(z, positions)
    k = sum(b << j for j, b in enumerate(bits))
    assert all_assignments(positions)[k] == z & mask_of(positions)


def test_all_assignments_inverts_pack():
    for positions in ((), (3,), (0, 2, 5), (1, 62), (4, 70)):
        zs = all_assignments(positions)
        assert len(zs) == 1 << len(positions)
        assert zs.dtype == (object if positions[-1:] == (70,) else np.int64)
        assert pack_index(zs, positions).tolist() == list(range(len(zs)))
        assert all(z & ~mask_of(positions) == 0 for z in zs.tolist())
        assert not zs.flags.writeable


def test_assignment_key_round_trip():
    key = assignment_key((1, 4), (0, 1))
    assert key == "2:0,5:1"
    assert parse_assignment_key(key) == ((1, 4), (0, 1))


def _sorted_blocks(zs, label, j, positive):
    """Inputs sorted by (tail assignment, bit j xor positive, place), and
    where each new key starts, one input at a time."""
    def key(n):
        return (zs[n] & mask_of(label), (zs[n] >> j & 1) ^ positive[n])

    order = sorted(range(len(zs)), key=lambda n: (key(n), n))
    starts = [b for b, n in enumerate(order) if not b or key(n) != key(order[b - 1])]
    return order, starts + [len(order)]


def _layout_matches_sorted(zs, n_neg, j, labels, packed):
    positive = [0] * n_neg + [1] * (len(zs) - n_neg)
    order, bounds = agreement_layout(input_array(zs, 70), n_neg, j, labels, packed)
    assert order.shape == (len(labels), len(zs))
    for g, label in enumerate(labels):
        want = _sorted_blocks(zs, label, j, positive)
        assert (order[g].tolist(), bounds[g].tolist()) == want, label


@given(st.data())
def test_agreement_layout_matches_sorted(data):
    """Every group of one position, on 70-bit inputs, with labels of under
    15, 15 to 62 and over 62 positions, so that keys of a small type, of
    int64 and of Python ints meet in one call; a label map shared by two
    positions gives what fresh ones give."""
    # uniform bits, so the high positions of a label are set as often as the low
    rnd = data.draw(st.randoms(use_true_random=False))
    zs = [rnd.getrandbits(70) for _ in range(data.draw(st.integers(0, 40)))]
    j = data.draw(st.integers(0, 69))
    others = [i for i in range(70) if i != j]
    # sizes at either side of each key type's limit
    sizes = st.sampled_from([0, 1, 6, 7, 14, 15, 30, 31, 62, 63, 69])
    labels = [
        tuple(sorted(data.draw(st.permutations(others))[:k]))
        for k in data.draw(st.lists(sizes, min_size=1, max_size=4))
    ]
    labels = list(dict.fromkeys(labels))
    n_neg = data.draw(st.integers(0, len(zs)))
    packed = {}
    _layout_matches_sorted(zs, n_neg, j, labels, packed)
    j2 = data.draw(st.sampled_from(others))
    if rest := [t for t in labels if j2 not in t]:
        _layout_matches_sorted(zs, n_neg, j2, rest, packed)


def test_agreement_layout_edge_cases():
    """An empty domain, and a position with a single group."""
    order, bounds = agreement_layout(input_array([], 70), 0, 3, [(0, 1), (2,)], {})
    assert order.shape == (2, 0) and [b.tolist() for b in bounds] == [[0], [0]]
    _layout_matches_sorted([5, 1, 7, 3, 2, 6], 3, 2, [(0, 1)], {})
    _layout_matches_sorted([5, 1, 7], 3, 0, [()], {})
