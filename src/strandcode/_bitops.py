"""Vectorized window machinery shared by the scanners.

Everything here is exact.  The close-pair search uses the pigeonhole split:
two windows differing in at most ``rho`` positions must agree exactly on one
of ``rho + 1`` parts, so grouping windows by each part in turn finds every
close pair without comparing all pairs.

It imports nothing from the package at run time, so
:mod:`strandcode.bitseq` can build its predicates on it.
"""

from __future__ import annotations

import numpy as np


def packed_windows(bits: np.ndarray, L: int) -> np.ndarray:
    """All length-L windows of a 0/1 array, packed little-endian into uint64 words.

    Returns a (n-L+1, ceil(L/64)) uint64 array; row i is the window at i.
    The windows are a strided view, as ``sliding_window_view`` would give,
    without its argument checks, which cost more than packing a short input.
    """
    m = max(bits.size - L + 1, 0)
    view = np.lib.stride_tricks.as_strided(bits, (m, L), bits.strides * 2, writeable=False)
    return pack_rows(view)


def pack_rows(rows: np.ndarray) -> np.ndarray:
    """Pack a (m, L) 0/1 array into (m, ceil(L/64)) uint64 words."""
    m, L = rows.shape
    out = np.zeros((m, 8 * ((L + 63) // 64)), dtype=np.uint8)
    packed = np.packbits(rows.astype(np.uint8, copy=False), axis=1, bitorder="little")
    out[:, : packed.shape[1]] = packed
    return out.view(np.uint64)


def bit_field(rows: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Bits lo..hi - 1 of each packed row as one uint64, bit lo lowest.

    ``rows`` is a (m, words) array as :func:`pack_rows` gives, and the
    field is at most 64 bits wide; an empty field (hi == lo) reads 0.
    """
    if not 0 <= hi - lo <= 64:
        raise ValueError("a field spans 0 to 64 bits")
    word, shift = divmod(lo, 64)
    if hi == lo:
        return np.zeros(len(rows), dtype=np.uint64)
    field = rows[:, word] >> np.uint64(shift)
    if shift + hi - lo > 64:
        field |= rows[:, word + 1] << np.uint64(64 - shift)
    if hi - lo < 64:
        field &= np.uint64((1 << (hi - lo)) - 1)
    return field


def row_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamming distances between packed rows, broadcast over leading axes.

    ``a`` and ``b`` are uint64 arrays of shape (..., words); the result has
    the broadcast of their leading shapes.  Adds one word at a time, so no
    (..., words) XOR array is held, in uint8 while a row has at most 3
    words (192 bits) and in int32 above, where 256 would wrap.
    """
    acc = np.uint8 if a.shape[-1] <= 3 else np.int32
    dist = np.bitwise_count(a[..., 0] ^ b[..., 0]).astype(acc, copy=False)
    for k in range(1, a.shape[-1]):
        dist += np.bitwise_count(a[..., k] ^ b[..., k])
    return dist


def _part_slices(L: int, parts: int) -> list[tuple[int, int]]:
    cuts = [round(t * L / parts) for t in range(parts + 1)]
    return [(cuts[t], cuts[t + 1]) for t in range(parts)]


def close_pairs(bits: np.ndarray, L: int, rho: int) -> list[tuple[int, int, int]]:
    """All pairs (i, j, dist) of window start positions with i < j and
    Hamming distance at most ``rho`` between the length-L windows.

    Complete by the pigeonhole argument: a pair within distance rho agrees
    exactly on at least one of rho+1 parts of the window, so it is found
    when grouping by that part; when rho >= L, empty parts group all
    windows together and every pair is returned.  Within each sort by a
    part, rows ``s`` apart with equal keys are paired for s = 1, 2, ...
    until no equal keys remain, so the cost is the number of candidate
    pairs, all vectorized.
    """
    n = bits.size
    m = n - L + 1
    if m < 2:
        return []
    wins = packed_windows(bits, L)
    view = np.lib.stride_tricks.sliding_window_view(bits, L)
    found = []
    for lo, hi in _part_slices(L, rho + 1):
        part = pack_rows(np.ascontiguousarray(view[:, lo:hi]))
        # when rho >= L some parts are empty: every pair agrees on them
        order = np.lexsort(part.T[::-1]) if hi > lo else np.arange(m)
        sorted_part = part[order]
        # rows t whose key still equals the key s rows further on
        live = np.arange(m - 1)
        s = 1
        while live.size:
            live = live[np.all(sorted_part[live] == sorted_part[live + s], axis=1)]
            a, b = order[live], order[live + s]
            # filtered per shift, so memory stays O(m) however many pairs
            dist = np.bitwise_count(wins[a] ^ wins[b]).sum(axis=1, dtype=np.int64)
            close = dist <= rho
            a, b = a[close], b[close]
            found.append(np.stack([np.maximum(a, b), np.minimum(a, b), dist[close]], axis=1))
            s += 1
            live = live[live + s < m]
    # a pair found through several parts is kept once, ordered by (j, i)
    rows = np.unique(np.concatenate(found), axis=0)
    return [(i, j, dist) for j, i, dist in rows.tolist()]


def window_weights(bits: np.ndarray, L: int) -> np.ndarray:
    """Weight of every length-L window (length n-L+1 vector)."""
    c = np.concatenate([[0], np.cumsum(bits, dtype=np.int64)])
    return c[L:] - c[:-L]


def marker_mismatches(bits: np.ndarray, marker: np.ndarray) -> np.ndarray:
    """Running mismatch counts of the marker laid at every start of ``bits``.

    Returns an (ml + 1, n - ml + 1) int16 table T, ml = len(marker): T[t, a]
    counts the j < t with bits[a + j] != marker[j].  So row ml holds the
    Hamming distance between the marker and the window at every start a,
    T[t, a] that of the marker's first t bits from the t bits at a, and
    T[ml, a] - T[t, a] that of its last ml - t bits from the bits at a + t.
    A window cut by a block boundary, with the marker's head at the block's
    end and its tail at the block's start, is the sum of one head and one
    tail term.  Cost: ml vector additions of length n.
    """
    ml = marker.size
    if ml >= 1 << 15:
        raise ValueError("marker too long for 16-bit counts")
    starts = bits.size - ml + 1
    table = np.zeros((ml + 1, starts), dtype=np.int16)
    for j in range(ml):
        np.add(table[j], bits[j : j + starts] != marker[j], out=table[j + 1])
    return table
