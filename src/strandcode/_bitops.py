"""Vectorized window machinery shared by the scanners.

Everything here is exact.  Every near-match search of the package (the
close-pair, index-book and scaffold searches and ``locate_index``) goes
through one :class:`PartIndex`, the only place that cuts pigeonhole
parts: rows within ``rho`` flips of each other agree exactly on one of
``rho + 1`` parts, so rows equal on some part are the only candidates,
and each candidate is then checked at full width by :func:`row_distances`.

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


class PartIndex:
    """Exact near-match index over the first ``size`` of some packed rows.

    Pigeonhole invariant: rows of width L within ``rho`` flips of each
    other agree exactly on at least one of any rho + 1 disjoint parts, as
    each flip lands in one part.  The width is cut into
    max(rho + 1, ceil(L / 64)) parts, so every part key fits one uint64;
    more parts than rho + 1 keep the search complete.  A part with no
    bits (rho >= L) keys every row 0, so it matches every row.  Per part
    the index keeps the keys in ascending order and the row each came
    from.  Rows equal on some part are the candidates, and each candidate
    pair is checked at full width by :func:`row_distances`, so every
    answer is exact.

    ``rows`` is referred to, not copied: rows past ``size`` may be written
    freely, and :meth:`grow` takes more of them in.
    """

    def __init__(self, rows: np.ndarray, L: int, rho: int, size: int | None = None):
        self.rows = rows
        self.rho = rho
        self.parts = _part_slices(L, max(rho + 1, -(-L // 64)))
        # row p of each: part p's keys in ascending order, and their rows
        self._keys = self.part_keys(rows[:size])
        self._at = np.argsort(self._keys, axis=1)
        self._keys.sort(axis=1)
        self.size = self._keys.shape[1]

    def part_keys(self, rows: np.ndarray) -> np.ndarray:
        """The part keys of packed rows: row p of the (parts, len(rows))
        result holds part p of each row, cut by :func:`bit_field`."""
        keys = np.empty((len(self.parts), len(rows)), dtype=np.uint64)
        for p, (lo, hi) in enumerate(self.parts):
            keys[p] = bit_field(rows, lo, hi)
        return keys

    def grow(self, size: int) -> None:
        """Index rows ``self.size`` to ``size - 1`` as well, merging their
        sorted keys into each part's: O(parts * size) per call."""
        old = self.size
        keys = self.part_keys(self.rows[old:size])
        order = np.argsort(keys, axis=1)
        keys.sort(axis=1)
        merged_keys, merged_at = [], []
        for k, at, new, o in zip(self._keys, self._at, keys, order):
            # each new key goes after the old keys equal to it
            where = k.searchsorted(new, side="right")
            merged_keys.append(np.insert(k, where, new))
            merged_at.append(np.insert(at, where, o + old))
        self._keys, self._at, self.size = np.array(merged_keys), np.array(merged_at), size

    def near(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Pairs (q, t) with ``queries[q]`` within rho of indexed row t,
        each once, ascending by q and then t.

        One ``searchsorted`` pair per part finds each query's run of equal
        keys.  Cost: O(parts * queries * log(size)) plus one word XOR per
        64 bits of width for each candidate.
        """
        n = len(queries)
        none = np.empty(0, dtype=np.int64)
        if not self.size or not n:
            return none, none
        keys = self.part_keys(queries)
        start = np.array([k.searchsorted(q) for k, q in zip(self._keys, keys)])
        hits = np.array([k.searchsorted(q, side="right") for k, q in zip(self._keys, keys)])
        hits -= start
        # every (part, query) run laid end to end, read from ``_at`` flat
        hits = hits.ravel()
        each = np.repeat(np.arange(hits.size), hits)
        start += np.arange(0, self._at.size, self.size)[:, None]
        run = np.arange(len(each)) + (start.ravel() - np.cumsum(hits) + hits)[each]
        q, t = each % n, self._at.ravel()[run]
        close = row_distances(queries[q], self.rows[t]) <= self.rho
        if not close.any():
            return none, none
        # a row found through several parts is kept once
        pair = np.sort(q[close] * self.size + t[close])
        first = np.ones(len(pair), dtype=bool)
        first[1:] = pair[1:] != pair[:-1]
        return np.divmod(pair[first], self.size)

    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pairs (i, j, dist) of indexed rows with i < j and distance
        ``dist`` at most rho, each once, ascending by j and then i.

        Within each part's sorted keys, entries ``s`` apart with equal
        keys are paired for s = 1, 2, ... until no equal keys remain, so
        the cost is the number of candidate pairs, all vectorized, and
        memory per shift stays O(size) however many pairs there are.
        """
        m = self.size
        found = [np.empty(0, dtype=np.int64)]
        dists = [np.empty(0, dtype=np.int64)]
        for keys, at in zip(self._keys, self._at):
            # entries t whose key still equals the key s entries further on;
            # the keys are sorted, so they are among those of shift s - 1
            live, s = np.flatnonzero(keys[:-1] == keys[1:]), 1
            while live.size:
                a, b = at[live], at[live + s]
                dist = row_distances(self.rows[a], self.rows[b])
                close = dist <= self.rho
                a, b = a[close], b[close]
                found.append(np.maximum(a, b) * m + np.minimum(a, b))
                dists.append(dist[close])
                s += 1
                live = live[live + s < m]
                live = live[keys[live] == keys[live + s]]
        # a pair found through several parts is kept once
        key, first = np.unique(np.concatenate(found), return_index=True)
        j, i = np.divmod(key, max(m, 1))
        return i, j, np.concatenate(dists)[first]


def close_pairs(bits: np.ndarray, L: int, rho: int) -> list[tuple[int, int, int]]:
    """All pairs (i, j, dist) of window start positions with i < j and
    Hamming distance at most ``rho`` between the length-L windows,
    ascending by j and then i.

    The packed windows' :class:`PartIndex` paired with itself: complete
    by its pigeonhole invariant, and exact by its full-width check.  When
    rho >= L, empty parts group all windows together and every pair is
    returned.
    """
    if bits.size - L + 1 < 2:
        return []
    i, j, dist = PartIndex(packed_windows(bits, L), L, rho).pairs()
    return list(zip(i.tolist(), j.tolist(), dist.tolist()))


def window_weights(bits: np.ndarray, L: int) -> np.ndarray:
    """Weight of every length-L window (length n-L+1 vector), as int32."""
    c = np.zeros(bits.size + 1, dtype=np.int32)
    np.cumsum(bits, dtype=np.int32, out=c[1:])
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
    tail term.  Cost: ml vector additions of length n.  A stack of
    strands, bits of shape (..., n), gives a table per strand, of shape
    (..., ml + 1, n - ml + 1).
    """
    ml = marker.size
    if ml >= 1 << 15:
        raise ValueError("marker too long for 16-bit counts")
    starts = bits.shape[-1] - ml + 1
    table = np.zeros(bits.shape[:-1] + (ml + 1, starts), dtype=np.int16)
    for j in range(ml):
        np.add(table[..., j, :], bits[..., j : j + starts] != marker[j], out=table[..., j + 1, :])
    return table
