"""Vectorized window machinery shared by the scanners.

Everything here is exact.  Every near-match search of the package (the
close-pair, index-book and scaffold searches, ``locate_index`` and the SD
rewrite loop's :class:`PrimalScan`) goes through :class:`PartIndex`, the
only place that cuts pigeonhole parts: rows within ``rho`` flips of each
other agree exactly on one of ``rho + 1`` parts, so rows equal on some
part are the only candidates, and each candidate is then checked at full
width by :func:`row_distances`.  Windows are cut from a long array in
O(n) word steps (:func:`packed_windows`).

It imports nothing from the package at run time, so
:mod:`strandcode.bitseq` can build its predicates on it.
"""

from __future__ import annotations

import numpy as np

# packed_windows cuts at least this many windows of at most 64 bits from
# words, and fewer row by row, which is cheaper there (measured)
_WORD_WINDOWS = 1024


def packed_windows(bits: np.ndarray, L: int) -> np.ndarray:
    """All length-L windows of a 0/1 array, packed little-endian into uint64 words.

    Returns a (n-L+1, ceil(L/64)) uint64 array; row i is the window at i.
    From ``_WORD_WINDOWS`` windows of at most 64 bits on, the 8 packed
    bytes from byte k, as one word shifted right by s, start the window at
    8k + s, and byte k + 8 gives its top s bits: O(n) word steps.  Else a
    strided view is packed row by row, O(n * L) byte steps but cheaper.
    """
    m = max(bits.size - L + 1, 0)
    if L > 64 or m < _WORD_WINDOWS:
        view = np.lib.stride_tricks.as_strided(bits, (m, L), bits.strides * 2, writeable=False)
        return pack_rows(view)
    k = -(-m // 8)
    packed = np.zeros(k + 8, dtype=np.uint8)
    packed[: -(-bits.size // 8)] = np.packbits(bits, bitorder="little")
    # the little-endian word at every byte offset, copied to aligned memory
    word = np.ndarray((k,), dtype="<u8", buffer=packed, strides=(1,)).copy()
    top, mask = packed[8:].astype(np.uint64) << np.uint64(1), np.uint64((1 << L) - 1)
    out = np.empty((k, 8), dtype=np.uint64)
    for s in range(8):  # byte k + 8 shifted left by 64 - s, none of it for s = 0
        out[:, s] = (word >> np.uint64(s) | top << np.uint64(63 - s)) & mask
    return out.reshape(-1, 1)[:m]


def pack_rows(rows: np.ndarray) -> np.ndarray:
    """Pack a (m, L) 0/1 array into (m, ceil(L/64)) uint64 words."""
    m, L = rows.shape
    out = np.zeros((m, 8 * ((L + 63) // 64)), dtype=np.uint8)
    packed = np.packbits(rows.astype(np.uint8, copy=False), axis=1, bitorder="little")
    out[:, : packed.shape[1]] = packed
    return out.view(np.uint64)


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


def _runs(start: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions start[r] .. start[r] + count[r] - 1 of every run r, laid
    end to end, and the run each position belongs to."""
    run = np.repeat(np.arange(len(count)), count)
    return run, np.arange(len(run)) + (start - np.cumsum(count) + count)[run]


# odd multiplier of the hash that narrows a wide part (Knuth's golden ratio)
_HASH = np.uint64(0x9E3779B97F4A7C15)


class PartIndex:
    """Exact near-match index over the first ``size`` of some packed rows.

    Pigeonhole invariant: rows of width L within ``rho`` flips of each
    other agree exactly on at least one of any rho + 1 disjoint parts, as
    each flip lands in one part.  The width is cut into
    max(rho + 1, ceil(L / 64)) parts, so every part fits one uint64; more
    parts than rho + 1 keep the search complete.  A part with no bits
    (rho >= L) keys every row 0, so it matches every row.  A row's key for
    part p is the part's bits, hashed where they and p would not fit 32
    bits, with p above them: one sort of key << 32 | row orders the keys
    of every part end to end with their rows, ascending among equal keys,
    and one ``searchsorted`` pair finds a query's runs in every part.
    Rows with an equal key (a hash adds a few) are the candidates, each
    checked at full width by :func:`row_distances`, so answers are exact.

    ``rows`` is referred to, not copied: rows past ``size`` may be written
    freely, and :meth:`grow` takes more of them in.
    """

    def __init__(self, rows: np.ndarray, L: int, rho: int, size: int | None = None):
        self.rows = rows
        self.rho = rho
        self.parts = _part_slices(L, max(rho + 1, -(-L // 64)))
        width = 32 - (len(self.parts) - 1).bit_length()
        self._hash = max(hi - lo for lo, hi in self.parts) > width
        self._drop = np.uint64(64 - width)  # the hash keeps the top width bits
        column = lambda values: np.array(values, dtype=np.uint64)[:, None]
        # the word each part starts in (an empty last part: the last word),
        # the next one, and the part's first bit in the first
        words = -(-L // 64)
        self._word = np.minimum(np.array([lo for lo, _ in self.parts]) // 64, words - 1)
        self._next = np.minimum(self._word + 1, words - 1)
        self._lo = column([lo for lo, _ in self.parts]) - column(64 * self._word)
        self._mask = column([(1 << (hi - lo)) - 1 for lo, hi in self.parts])
        self._tag = column([p << width for p in range(len(self.parts))])
        self._keys, self._at = self._sorted(self.part_keys(rows[:size]))
        self.size = len(self._keys) // len(self.parts)

    def part_keys(self, rows: np.ndarray) -> np.ndarray:
        """The part keys of packed rows: row p of the (parts, len(rows))
        result holds part p of each row, with p above it.  A part is cut
        from the word it starts in and the top of the next, all at once."""
        keys = rows.T[self._word] >> self._lo
        if rows.shape[1] > 1:  # the next word's bits, or the word's own past the part
            keys |= rows.T[self._next] << np.uint64(1) << (np.uint64(63) - self._lo)
        keys &= self._mask
        if self._hash:
            keys *= _HASH
            keys >>= self._drop
        keys |= self._tag
        return keys

    def _sorted(self, keys: np.ndarray, base: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Each part's keys of rows base, base + 1, ... sorted, end to end,
        and their rows, from one sort of key << 32 | row per part; sorts
        ``keys`` in place."""
        keys <<= np.uint64(32)
        keys |= np.arange(keys.shape[1], dtype=np.uint64)
        keys.sort(axis=1)
        at = (keys & np.uint64(0xFFFFFFFF)).view(np.int64)
        keys >>= np.uint64(32)
        if base:
            at += base
        return keys.ravel(), at.ravel()

    def grow(self, size: int) -> None:
        """Index rows ``self.size`` to ``size - 1`` as well, merging their
        sorted keys into the index's: O(parts * size) per call."""
        keys, at = self._sorted(self.part_keys(self.rows[self.size : size]), self.size)
        # each new key goes after the old keys equal to it, whose rows are lower
        where = self._keys.searchsorted(keys, side="right")
        self._keys, self._at = np.insert(self._keys, where, keys), np.insert(self._at, where, at)
        self.size = size

    def runs(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Where each part key's run of equal indexed keys starts, and its length."""
        start = self._keys.searchsorted(keys)
        return start, self._keys.searchsorted(keys, side="right") - start

    def near(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Pairs (q, t) with ``queries[q]`` within rho of indexed row t,
        each once, ascending by q and then t.

        One ``searchsorted`` pair finds each query's run of equal keys in
        every part.  Cost: O(parts * queries * log(size)) plus one word
        XOR per 64 bits of width for each candidate.
        """
        n = len(queries)
        none = np.empty(0, dtype=np.int64)
        if not self.size or not n:
            return none, none
        each, run = _runs(*self.runs(self.part_keys(queries).ravel()))
        q, t = each % n, self._at[run]
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

        Entries ``s`` apart with equal keys are paired for s = 1, 2, ...
        until no equal keys remain, so the cost is the number of candidate
        pairs, all vectorized, and memory per shift stays O(size) however
        many pairs there are.
        """
        m = self.size
        keys, at = self._keys, self._at
        found = [np.empty(0, dtype=np.int64)]
        dists = [np.empty(0, dtype=np.int64)]
        # entries t whose key still equals the key s entries further on; the
        # keys are sorted, so they are among those of shift s - 1, and the
        # later entry has the higher row
        live, s = np.flatnonzero(keys[:-1] == keys[1:]), 1
        while live.size:
            i, j = at[live], at[live + s]
            dist = row_distances(self.rows[i], self.rows[j])
            close = dist <= self.rho
            found.append(j[close] * m + i[close])
            dists.append(dist[close])
            s += 1
            live = live[live + s < keys.size]
            live = live[keys[live] == keys[live + s]]
        # a pair found through several parts is kept once
        key, first = np.unique(np.concatenate(found), return_index=True)
        j, i = np.divmod(key, max(m, 1))
        return i, j, np.concatenate(dists)[first]


# PrimalScan's candidate pairs per chunk, unless its first row has more, and
# the scanned rows it sorts with each chunk before merging them into its index
_SCAN_BUDGET, _SCAN_TAIL = 1 << 16, 1024


class PrimalScan:
    """The primal close pair of a word's length-L windows, kept across edits.

    :meth:`first` gives the pair (i, j) within ``rho`` with the smallest
    j, then the smallest i, or None.  It scans window starts in chunks,
    each sorted with the last ``_SCAN_TAIL`` or so scanned windows and
    checked against a :class:`PartIndex` of those before.  Candidates are
    counted from the runs of equal keys before any is expanded, and a
    chunk is cut where they reach ``_SCAN_BUDGET``: a random word is one
    chunk, a repetitive one many short ones.  :meth:`edit` keeps the
    index of the windows a rewrite leaves as they were and shifts those
    after it: r rewrites, each under L windows left of the last, cost
    O(n + r * (L + _SCAN_TAIL)) windows.
    """

    def __init__(self, bits: np.ndarray, L: int, rho: int):
        self.L, self.rho = L, rho
        self.rows = packed_windows(bits, L)
        self.index = PartIndex(self.rows, L, rho, size=0)
        self.start = 0  # no pair (i, j) with j < start is within rho
        self._chunk = len(self.rows)

    def first(self) -> tuple[int, int] | None:
        m, index = len(self.rows), self.index
        while self.start < m:
            a = self.start
            if a - self.L + 1 - index.size >= _SCAN_TAIL:
                index.grow(a - self.L + 1)
            s = index.size
            top = min(m, a + self._chunk)
            chunk = PartIndex(self.rows[s:top], self.L, self.rho)
            keys, at = chunk._keys, chunk._at + s if s else chunk._at
            # entries with an equal key before them in the chunk, and where
            # their run of equal keys starts; rows ascend in a run
            inner = np.flatnonzero(keys[1:] == keys[:-1]) + 1
            head = inner - 1
            head[1:][inner[1:] == inner[:-1] + 1] = 0
            mine = at[inner] >= a
            head, inner = np.maximum.accumulate(head)[mine], inner[mine]
            outer = np.flatnonzero(at >= a) if index.size else inner[:0]
            lo, hits = index.runs(keys[outer])
            # each row's candidates: its earlier partners, then its index runs
            q = np.concatenate([at[inner], at[outer]])
            count = np.concatenate([inner - head, hits])
            b = top
            if count.sum() > _SCAN_BUDGET:
                cost = np.cumsum(np.bincount(q - a, count, top - a))
                b = a + max(1, int(cost.searchsorted(_SCAN_BUDGET, side="right")))
            cut = q < b
            run, pos = _runs(np.concatenate([head, lo])[cut], count[cut])
            j = q[cut][run]
            # positions of the first runs are in the chunk, the rest in the index
            k = np.searchsorted(run, np.count_nonzero(cut[: len(inner)]))
            i = np.concatenate([at[pos[:k]], index._at[pos[k:]]])
            close = row_distances(self.rows[i], self.rows[j]) <= self.rho
            if close.any():
                i, j = i[close], j[close]
                self.start = int(j.min())
                self._chunk = max(2 * (self.start + 1 - a), self.L)
                return int(i[j == self.start].min()), self.start
            self.start, self._chunk = b, max(2 * (b - a), self.L)
        return None

    def edit(self, lo: int, bits: np.ndarray, shift: int) -> None:
        """Take in a rewrite: ``bits`` (at least L) are the new word from
        ``lo`` to the end of the last window with a rewritten bit; windows
        before lo are unchanged, and later ones are the old ones ``shift`` on."""
        hi = lo + bits.size - self.L + 1
        self.rows = np.concatenate([self.rows[:lo], packed_windows(bits, self.L), self.rows[hi + shift :]])
        if self.index.size > lo:
            self.index = PartIndex(self.rows, self.L, self.rho, size=lo)
        self.index.rows = self.rows
        self.start = min(self.start, lo)


def close_pairs(bits: np.ndarray, L: int, rho: int) -> list[tuple[int, int, int]]:
    """All pairs (i, j, dist) of window start positions with i < j and
    Hamming distance at most ``rho`` between the length-L windows,
    ascending by j and then i.

    The packed windows' :class:`PartIndex` paired with itself: complete
    by its pigeonhole invariant, and exact by its full-width check.  When
    rho >= L, empty parts group all windows together and every pair is
    returned.  It lists every pair, so it costs their number, which grows
    as m^2 on a repetitive word; :class:`PrimalScan` finds the first pair
    alone without listing the rest.
    """
    if bits.size - L + 1 < 2:
        return []
    i, j, dist = PartIndex(packed_windows(bits, L), L, rho).pairs()
    return list(zip(i.tolist(), j.tolist(), dist.tolist()))


def window_weights(bits: np.ndarray, L: int) -> np.ndarray:
    """Weight of every length-L window along the last axis, as int32: a row
    of n bits gives n - L + 1 weights (none when n < L), a stack of rows a
    stack of them, from one prefix sum."""
    c = np.zeros(bits.shape[:-1] + (bits.shape[-1] + 1,), dtype=np.int32)
    np.cumsum(bits, axis=-1, dtype=np.int32, out=c[..., 1:])
    return c[..., L:] - c[..., :-L]


def splices_wwl(cand: np.ndarray, prev: np.ndarray, K: int, d: int) -> np.ndarray:
    """Per row of two stacked (m, Ls) 0/1 arrays, whether every splice
    cand[:j] + prev[j:], 0 < j < Ls, is (K, d)-weight limited, as
    ``bitseq.is_wwl`` would find each of them.

    With prefix sums cc and cp of the two rows, the length-K window at a of
    splice j weighs g[c] + cp[a + K] - cc[a], g = cc - cp, c = clip(j, a,
    a + K), and c takes every value in [max(a, 1), min(a + K, Ls - 1)] as j
    runs.  So the lightest window at a over all splices is a sliding minimum
    of g over K + 1 points, with g's two ends, where no splice cuts, raised.
    """
    m, Ls = cand.shape
    if Ls < max(K, 2):
        return np.ones(m, dtype=bool)
    cc, cp = (np.pad(np.cumsum(x, axis=1, dtype=np.int32), ((0, 0), (1, 0))) for x in (cand, prev))
    g = cc - cp
    g[:, [0, Ls]] = Ls  # g[c] <= c < Ls at every cut
    lightest = np.lib.stride_tricks.sliding_window_view(g, K + 1, axis=1).min(axis=2)
    return (lightest + cp[:, K:] - cc[:, : Ls - K + 1]).min(axis=1) >= d


def marker_mismatches(bits: np.ndarray, marker: np.ndarray) -> np.ndarray:
    """Running mismatch counts of the marker laid at every start of ``bits``.

    Returns an (ml + 1, n - ml + 1) table T, ml = len(marker): T[t, a]
    counts the j < t with bits[a + j] != marker[j].  So row ml holds the
    Hamming distance between the marker and the window at every start a,
    T[t, a] that of the marker's first t bits from the t bits at a, and
    T[ml, a] - T[t, a] that of its last ml - t bits from the bits at a + t.
    A window cut by a block boundary, with the marker's head at the block's
    end and its tail at the block's start, is the sum of one head and one
    tail term.  No count exceeds ml, so T is int8 for markers under 128
    bits, which halves the memory a scan walks, and int16 for longer ones.
    Cost: ml vector additions of length n.  A stack of strands, bits of
    shape (..., n), gives a table per strand, of shape (..., ml + 1, n -
    ml + 1).
    """
    ml = marker.size
    if ml >= 1 << 15:
        raise ValueError("marker too long for 16-bit counts")
    starts = bits.shape[-1] - ml + 1
    dtype = np.int8 if ml < 1 << 7 else np.int16
    table = np.zeros(bits.shape[:-1] + (ml + 1, starts), dtype=dtype)
    for j in range(ml):
        np.add(table[..., j, :], bits[..., j : j + starts] != marker[j], out=table[..., j + 1, :])
    return table
