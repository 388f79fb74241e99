"""Bit conventions and the pair-position encoding."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from lgkit.indexing import (
    agreement_sort,
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


def _sorted_blocks(zs, tails, edge, inp, side):
    """Entries sorted by (edge, tail assignment, side, place), and where each
    new key starts, one entry at a time."""
    def key(n):
        return (edge[n], zs[inp[n]] & mask_of(tails[edge[n]]), side[n])

    order = sorted(range(len(edge)), key=lambda n: (key(n), n))
    starts = [b for b, n in enumerate(order) if not b or key(n) != key(order[b - 1])]
    return order, starts + [len(order)]


@given(st.data())
def test_agreement_sort_matches_sorted(data):
    """On int64 inputs with one packed key, on 70-bit inputs, and on tails
    of more than 62 positions (the lexsort fallback)."""
    n_bits = data.draw(st.sampled_from([6, 70, 130]))
    zs = data.draw(st.lists(st.integers(0, (1 << n_bits) - 1), min_size=1, max_size=8))
    ids = data.draw(st.lists(st.integers(0, 3000), min_size=1, max_size=4))
    size = (63, 80) if n_bits > 70 else (0, 5)
    label = st.sets(st.integers(0, n_bits - 1), min_size=size[0], max_size=size[1])
    tails = {i: tuple(sorted(data.draw(label))) for i in ids}
    entries = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(ids),
                st.integers(0, len(zs) - 1),
                st.integers(0, 1),
            ),
            max_size=30,
        )
    )
    edge, inp, side = (
        np.array([e[k] for e in entries], dtype=np.int64) for k in range(3)
    )
    order, starts = agreement_sort(input_array(zs, n_bits), tails, edge, inp, side)
    want = _sorted_blocks(zs, tails, edge.tolist(), inp.tolist(), side.tolist())
    assert (order.tolist(), starts.tolist()) == want
