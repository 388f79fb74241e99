"""Bit conventions and the pair-position encoding."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from lgkit.indexing import (
    agreement_blocks,
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


@given(st.data())
def test_agreement_blocks_match_sorted(data):
    """On int64 inputs, with keys of 16 bits or more, on 70-bit inputs, and
    on labels of more than 62 positions (packed into Python ints)."""
    n_bits = data.draw(st.sampled_from([6, 40, 70, 130]))
    # uniform bits, so the high positions of a label are set as often as the low
    rnd = data.draw(st.randoms(use_true_random=False))
    zs = [rnd.getrandbits(n_bits) for _ in range(data.draw(st.integers(0, 40)))]
    size = {6: (0, 5), 40: (15, 20), 70: (0, 5), 130: (63, 80)}[n_bits]
    k = data.draw(st.integers(*size))
    label = tuple(sorted(data.draw(st.permutations(range(n_bits)))[:k]))
    j = data.draw(st.integers(0, n_bits - 1))
    n_x = data.draw(st.integers(0, len(zs)))
    positive = [0] * n_x + [1] * (len(zs) - n_x)
    order, bounds = agreement_blocks(
        input_array(zs, n_bits), label, j, np.array(positive, dtype=np.int64)
    )
    assert (order.tolist(), bounds.tolist()) == _sorted_blocks(zs, label, j, positive)
