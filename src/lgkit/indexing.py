"""Bit-level helpers shared across the package.

Inputs are length-``n`` bit strings stored as Python ints: bit ``i`` (0-based)
of input ``z`` is ``(z >> i) & 1``.  Serialized formats use 1-based indices and
plain bit strings whose first character is bit 1; the converters here are the
single place where that shift happens.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def pack_bits(z: int, indices: Sequence[int]) -> tuple[int, ...]:
    """Project ``z`` onto ``indices`` as an ordered bit tuple."""
    return tuple((z >> i) & 1 for i in indices)


def input_array(zs: Iterable[int], n_bits: int) -> np.ndarray:
    """``n_bits``-bit inputs for :meth:`Rule.eval`: int64 when inputs and
    position masks fit in it, else Python ints (dtype object).  An array
    of that dtype is returned as it is."""
    if isinstance(zs, np.ndarray) and zs.dtype == (np.int64 if n_bits < 64 else object):
        return zs
    zs = list(zs)
    if n_bits < 64:
        try:
            return np.array(zs, dtype=np.int64)
        except OverflowError:
            pass
    return np.array(zs, dtype=object)


@lru_cache(maxsize=1024)
def all_assignments(indices: tuple[int, ...]) -> np.ndarray:
    """Every assignment of the positions ``indices`` as an input array, all
    other bits 0: entry ``k`` sets bit ``indices[j]`` to bit ``j`` of ``k``.
    Cached per tuple and read-only; int64 or Python ints as in
    :func:`input_array`."""
    ks = np.arange(1 << len(indices), dtype=np.int64)
    zs = input_array([0] * len(ks), max(indices, default=-1) + 1)
    for j, i in enumerate(indices):
        zs |= ((ks >> j) & 1).astype(zs.dtype) << i
    zs.flags.writeable = False
    return zs


def bit_column(zs: np.ndarray, i: int) -> np.ndarray:
    """Bit ``i`` of every input, as int64."""
    return ((zs >> i) & 1).astype(np.int64, copy=False)


@lru_cache(maxsize=1024)
def _runs(indices: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """``(shift, mask)`` per run of consecutive positions in ``indices``:
    the run's bits of the packed index are ``(z >> shift) & mask``, with a
    negative shift meaning a left shift."""
    runs = []
    start = 0
    for k in range(1, len(indices) + 1):
        if k == len(indices) or indices[k] != indices[k - 1] + 1:
            runs.append((indices[start] - start, ((1 << (k - start)) - 1) << start))
            start = k
    return tuple(runs)


def pack_index(zs: np.ndarray, indices: Sequence[int]) -> np.ndarray:
    """Bits ``indices`` of every input, packed into an index: bit ``k`` of
    the index is bit ``indices[k]`` of the input.  The inverse of
    :func:`all_assignments`.  The index is int64, or Python ints (dtype
    object) for more than 62 positions."""
    wide = len(indices) > 62
    if wide:
        zs = zs.astype(object, copy=False)
    idx = np.zeros(len(zs), dtype=zs.dtype)
    for shift, mask in _runs(tuple(indices)):
        idx |= (zs >> shift if shift >= 0 else zs << -shift) & mask
    return idx if wide else idx.astype(np.int64, copy=False)


def lookup(sorted_rows: tuple[np.ndarray, np.ndarray], idx: np.ndarray) -> np.ndarray:
    """The value of each key of ``idx`` in ``sorted_rows``: sorted keys and
    their values followed by a default, which is the value of a key not
    found.  Of equal keys, the first is found."""
    keys, values = sorted_rows
    # a key is found where it has a run: its first place differs from its end
    at = keys.searchsorted(idx)
    return values[np.where(keys.searchsorted(idx, "right") > at, at, len(keys))]


def agreement_layout(
    zs: np.ndarray, n_neg: int, j: int, labels: list, packed: dict
) -> tuple[np.ndarray, list[np.ndarray]]:
    """The agreement blocks of position ``j``, one group per tail label:
    row ``g`` of the order holds ``zs`` (``n_neg`` negatives, then the
    positives) stably sorted by (assignment of ``labels[g]``, bit ``j`` xor
    positive), and block ``b`` is ``order[g, bounds[g][b]:bounds[g][b + 1]]``,
    negatives first.  One ``argsort`` sorts all rows, on keys in the
    narrowest type that holds the widest label (radix under 15 positions).
    ``packed`` maps labels to their packed assignments and gains the rest.
    """
    # the narrowest signed type that holds k bits is that of -2^k
    width = max(map(len, labels)) + 1
    keys = np.empty((len(labels), len(zs)), np.min_scalar_type(-(1 << width)))
    for row, label in zip(keys, labels):
        if label not in packed:  # any position's key type holds the label
            packed[label] = pack_index(zs, label).astype(keys.dtype)
        row[:] = packed[label]
    keys <<= 1
    keys |= ((zs >> j & 1) ^ (np.arange(len(zs)) >= n_neg)).astype(keys.dtype)
    order = np.argsort(keys, axis=1, kind="stable")
    keys = keys.ravel()[order + np.arange(len(labels))[:, None] * len(zs)]
    # a block starts where the key changes; the last column marks the end
    new = np.ones((len(labels), len(zs) + 1), dtype=bool)
    np.not_equal(keys[:, 1:], keys[:, :-1], out=new[:, 1:-1])
    return order, [np.flatnonzero(row) for row in new]


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
    """Inverse of :func:`assignment_key`; returns 0-based (indices, bits).
    A key :func:`assignment_key` would not write raises a ValueError, so an
    assignment has one spelling."""
    pairs = [part.partition(":")[::2] for part in key.split(",")] if key else []
    try:
        idx = tuple(int(i) - 1 for i, _ in pairs)
        bits = tuple(int(b) for _, b in pairs)
    except ValueError:
        idx = bits = None
    if idx is None or len(set(idx)) < len(idx) or assignment_key(idx, bits) != key:
        raise ValueError(f"{key!r} is not an assignment key such as '2:0,5:1'")
    return idx, bits


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
