"""Bit-level helpers shared across the package.

Inputs are length-``n`` bit strings stored as Python ints: bit ``i`` (0-based)
of input ``z`` is ``(z >> i) & 1``.  Serialized formats use 1-based indices and
plain bit strings whose first character is bit 1; the converters here are the
single place where that shift happens.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, Sequence

import numpy as np


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def bits_of(mask: int) -> tuple[int, ...]:
    """Sorted tuple of the set bit positions of ``mask``."""
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def popcount(x: int) -> int:
    return x.bit_count()


def get_bit(z: int, i: int) -> int:
    return (z >> i) & 1


def set_bit(z: int, i: int, b: int) -> int:
    return (z | (1 << i)) if b else (z & ~(1 << i))


def restrict(z: int, mask: int) -> int:
    """Assignment of ``z`` on the positions in ``mask`` (bits kept in place)."""
    return z & mask


def pack_bits(z: int, indices: Sequence[int]) -> tuple[int, ...]:
    """Project ``z`` onto ``indices`` as an ordered bit tuple."""
    return tuple((z >> i) & 1 for i in indices)


def unpack_bits(bits: Sequence[int], indices: Sequence[int]) -> int:
    z = 0
    for b, i in zip(bits, indices):
        if b:
            z |= 1 << i
    return z


def input_array(zs: Iterable[int], n_bits: int) -> np.ndarray:
    """``n_bits``-bit inputs for :meth:`Rule.eval`: int64 when inputs and
    position masks fit in it, else Python ints (dtype object)."""
    zs = list(zs)
    if n_bits < 64:
        try:
            return np.array(zs, dtype=np.int64)
        except OverflowError:
            pass
    return np.array(zs, dtype=object)


def bit_column(zs: np.ndarray, i: int) -> np.ndarray:
    """Bit ``i`` of every input, as int64."""
    return ((zs >> i) & 1).astype(np.int64, copy=False)


def agreement_blocks(
    keys: np.ndarray, side: np.ndarray
) -> tuple[np.ndarray, list[int]]:
    """Group inputs by (key, side) with a stable sort.

    Returns the sorting order and the block bounds in it: block ``b`` is
    ``order[bounds[b]:bounds[b + 1]]``, its members in their original order.
    ``keys`` must not be empty.
    """
    order = np.lexsort((side, keys))
    k = keys[order]
    s = side[order]
    changes = (k[1:] != k[:-1]) | (s[1:] != s[:-1])
    return order, [0, *(np.flatnonzero(changes) + 1).tolist(), len(keys)]


def bitstring(z: int, n: int) -> str:
    """Serialize: first character is bit 1 (index 0)."""
    return "".join("1" if (z >> i) & 1 else "0" for i in range(n))


def parse_bitstring(s: str) -> int:
    z = 0
    for i, ch in enumerate(s):
        if ch == "1":
            z |= 1 << i
        elif ch != "0":
            raise ValueError(f"bad bit character {ch!r} in {s!r}")
    return z


def assignment_key(indices: Sequence[int], bits: Sequence[int]) -> str:
    """Canonical partial-assignment key, 1-based, e.g. ``"2:0,5:1"``."""
    pairs = sorted(zip(indices, bits))
    return ",".join(f"{i + 1}:{b}" for i, b in pairs)


def parse_assignment_key(key: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Inverse of :func:`assignment_key`; returns 0-based (indices, bits)."""
    if not key:
        return (), ()
    idx, bits = [], []
    for part in key.split(","):
        i, _, b = part.partition(":")
        idx.append(int(i) - 1)
        bits.append(int(b))
    order = sorted(range(len(idx)), key=idx.__getitem__)
    return tuple(idx[k] for k in order), tuple(bits[k] for k in order)


def subsets(items: Sequence[int], size: int) -> Iterator[tuple[int, ...]]:
    return combinations(sorted(items), size)


def all_inputs(n: int) -> range:
    if n > 24:
        raise ValueError(f"refusing to enumerate 2^{n} inputs")
    return range(1 << n)


# Pair positions for graph-input encodings: the n-vertex graph instance uses
# n(n-1)/2 lexicographic positions, pair (u,v) with u < v listed in order
# (0,1), (0,2), ..., (0,n-1), (1,2), ...

def pair_position(u: int, v: int, n: int) -> int:
    if u > v:
        u, v = v, u
    if u == v or not (0 <= u < v < n):
        raise ValueError(f"bad vertex pair ({u},{v}) for n={n}")
    return u * n - u * (u + 1) // 2 + (v - u - 1)


def position_pair(p: int, n: int) -> tuple[int, int]:
    u = 0
    row = n - 1
    while p >= row:
        p -= row
        u += 1
        row -= 1
    return u, u + 1 + p


def num_pairs(n: int) -> int:
    return n * (n - 1) // 2
