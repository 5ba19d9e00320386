"""Immutable packed binary sequences and the basic window predicates.

The :class:`BitSeq` type stores a binary string of length ``n`` packed into a
single Python integer, so Hamming distances and window extraction are cheap
(``int`` XOR plus ``bit_count``).  Position 0 is the first symbol of the
sequence; the text form writes position 0 first.

The module-level predicates defined here are the fast paths used throughout
the package.  Each has an independently written counterpart in
:mod:`strandcode.oracle` used for differential testing.  The two constraint
checks every encoder runs are vectorized over packed windows with
:mod:`strandcode._bitops`: :func:`is_wwl` takes one prefix-sum pass
(``window_weights``), and :func:`is_sd` picks by input size between an
all-pairs popcount, cheapest on small inputs, and ``close_pairs``, the
complete pigeonhole search, on large ones.  Each evaluates the definition
on every window or pair, so the answer never depends on the route.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from . import _bitops

__all__ = [
    "BitSeq",
    "hamming",
    "is_wwl",
    "is_sd",
    "majority_merge",
    "unpack_rows",
]


class BitSeq:
    """A fixed-length immutable bit string.

    Internally the bits live in one arbitrary-precision integer, with bit
    ``i`` of the integer holding position ``i`` of the sequence.  All
    operations return new objects.

    Example:
        >>> x = BitSeq.from_text("10110")
        >>> x[0], x[4]
        (1, 0)
        >>> (x + x).to_text()
        '1011010110'
        >>> x.window(1, 3).to_text()
        '011'
    """

    __slots__ = ("_val", "_len")

    def __init__(self, value: int, length: int):
        if length < 0:
            raise ValueError("length must be non-negative")
        if value < 0 or value >> length:
            raise ValueError("value does not fit in the given length")
        self._val = value
        self._len = length

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def from_text(cls, text: str) -> "BitSeq":
        """Parse an ASCII string of '0'/'1' characters, position 0 first."""
        val = 0
        for i, ch in enumerate(text):
            if ch == "1":
                val |= 1 << i
            elif ch != "0":
                raise ValueError(f"invalid bit character {ch!r}")
        return cls(val, len(text))

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitSeq":
        val = 0
        n = 0
        for i, b in enumerate(bits):
            if b:
                val |= 1 << i
            n += 1
        return cls(val, n)

    @classmethod
    def from_int(cls, value: int, length: int) -> "BitSeq":
        """Bits of ``value``, position 0 = least significant bit."""
        return cls(value, length)

    @classmethod
    def zeros(cls, n: int) -> "BitSeq":
        return cls(0, n)

    @classmethod
    def ones(cls, n: int) -> "BitSeq":
        return cls((1 << n) - 1, n)

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "BitSeq":
        """Uniformly random sequence drawn from ``rng``."""
        nbytes = (n + 7) // 8
        raw = int.from_bytes(rng.bytes(nbytes), "little")
        return cls(raw & ((1 << n) - 1), n)

    @classmethod
    def from_numpy(cls, arr: np.ndarray) -> "BitSeq":
        """Build from a 0/1 uint8 array (position 0 = arr[0])."""
        packed = np.packbits(arr.astype(np.uint8), bitorder="little")
        return cls(int.from_bytes(packed.tobytes(), "little") & ((1 << arr.size) - 1), arr.size)

    # ------------------------------------------------------------------
    # accessors

    @property
    def value(self) -> int:
        return self._val

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            start, stop, step = idx.indices(self._len)
            if step != 1:
                raise ValueError("only contiguous slices are supported")
            return self.window(start, max(0, stop - start))
        if idx < 0:
            idx += self._len
        if not 0 <= idx < self._len:
            raise IndexError("bit index out of range")
        return (self._val >> idx) & 1

    def __iter__(self) -> Iterator[int]:
        v = self._val
        for _ in range(self._len):
            yield v & 1
            v >>= 1

    def window(self, i: int, length: int) -> "BitSeq":
        """The substring of ``length`` symbols starting at position ``i``."""
        if i < 0 or length < 0 or i + length > self._len:
            raise IndexError(f"window [{i}, {i + length}) outside sequence of length {self._len}")
        return BitSeq((self._val >> i) & ((1 << length) - 1), length)

    def window_int(self, i: int, length: int) -> int:
        """Integer value of the window at ``i`` (position ``i`` = bit 0)."""
        if i < 0 or length < 0 or i + length > self._len:
            raise IndexError(f"window [{i}, {i + length}) outside sequence of length {self._len}")
        return (self._val >> i) & ((1 << length) - 1)

    def weight(self) -> int:
        """Number of ones."""
        return self._val.bit_count()

    # ------------------------------------------------------------------
    # construction from pieces

    def __add__(self, other: "BitSeq") -> "BitSeq":
        if not isinstance(other, BitSeq):
            return NotImplemented
        return BitSeq(self._val | (other._val << self._len), self._len + other._len)

    def with_bit(self, i: int, bit: int) -> "BitSeq":
        """Copy of this sequence with position ``i`` set to ``bit``."""
        if not 0 <= i < self._len:
            raise IndexError("bit index out of range")
        if bit:
            return BitSeq(self._val | (1 << i), self._len)
        return BitSeq(self._val & ~(1 << i), self._len)

    def splice(self, i: int, length: int, replacement: "BitSeq") -> "BitSeq":
        """Replace the window ``[i, i+length)`` with ``replacement``.

        The replacement may have a different length; the overall length
        changes accordingly.
        """
        if i < 0 or length < 0 or i + length > self._len:
            raise IndexError("splice window out of range")
        head = self._val & ((1 << i) - 1)
        tail = self._val >> (i + length)
        val = head | (replacement._val << i) | (tail << (i + len(replacement)))
        return BitSeq(val, self._len - length + len(replacement))

    def xor(self, other: "BitSeq") -> "BitSeq":
        if len(other) != self._len:
            raise ValueError("length mismatch")
        return BitSeq(self._val ^ other._val, self._len)

    # ------------------------------------------------------------------
    # conversions

    def to_text(self) -> str:
        v = self._val
        out = []
        for _ in range(self._len):
            out.append("1" if v & 1 else "0")
            v >>= 1
        return "".join(out)

    def to_numpy(self) -> np.ndarray:
        """0/1 uint8 array with arr[i] = position i."""
        if self._len == 0:
            return np.zeros(0, dtype=np.uint8)
        raw = self._val.to_bytes((self._len + 7) // 8, "little")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
        return bits[: self._len]

    def to_hex(self) -> str:
        """Hex form of the bits, position 0 first, zero-padded to a byte."""
        if self._len == 0:
            return ""
        return self._val.to_bytes((self._len + 7) // 8, "little").hex()

    @classmethod
    def from_hex(cls, text: str, length: int) -> "BitSeq":
        val = int.from_bytes(bytes.fromhex(text), "little")
        return cls(val & ((1 << length) - 1), length)

    # ------------------------------------------------------------------
    # dunder plumbing

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitSeq)
            and self._len == other._len
            and self._val == other._val
        )

    def __hash__(self) -> int:
        return hash((self._val, self._len))

    def __repr__(self) -> str:
        if self._len <= 64:
            return f"BitSeq('{self.to_text()}')"
        return f"BitSeq(len={self._len}, '{self.window(0, 32).to_text()}...')"


def unpack_rows(seqs: Sequence[BitSeq], width: int) -> np.ndarray:
    """A (len(seqs), width) 0/1 uint8 array holding ``seqs[r]`` in row r and
    zeros after it, unpacked in one call from the bytes of every value."""
    nbytes = (width + 7) // 8
    raw = np.frombuffer(b"".join(s.value.to_bytes(nbytes, "little") for s in seqs), np.uint8)
    return np.unpackbits(raw.reshape(len(seqs), nbytes), axis=1, bitorder="little")[:, :width]


def hamming(x: BitSeq, y: BitSeq) -> int:
    """Hamming distance between two equal-length sequences."""
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    return (x.value ^ y.value).bit_count()


# is_sd compares all pairs of its m windows while m^2 * L stays within this
# budget, where that beats close_pairs (measured, see is_sd); both are exact
_SD_ALL_PAIRS_BITS = 6_000_000


def is_wwl(x: BitSeq, L: int, d: int) -> bool:
    """True when every length-``L`` window of ``x`` has weight at least ``d``.

    Windows longer than the sequence are not considered, so any sequence
    shorter than ``L`` passes vacuously.

    Takes the minimum of :func:`_bitops.window_weights`, which computes the
    weight of every window exactly from one prefix sum: O(n), about 15 µs
    of numpy overhead on short inputs.  The encoders' checks of short
    words return before it (``n < L``), and the piece families (the
    scaffold and the index book) check their splices in one array of their
    own (:func:`_bitops.splices_wwl`).
    """
    if L <= 0:
        raise ValueError("window length must be positive")
    if d < 0:
        raise ValueError("weight floor must be non-negative")
    if len(x) < L or d == 0:
        return True
    return int(_bitops.window_weights(x.to_numpy(), L).min()) >= d


def is_sd(x: BitSeq, L: int, d: int) -> bool:
    """True when every pair of distinct length-``L`` windows differs in
    at least ``d`` positions.

    Pairs are pairs of start positions, so a repeated window fails any
    ``d >= 1``, and any two windows differ in at most ``L`` positions, so
    ``d > L`` fails whenever there are two windows.  Otherwise, with m
    windows and m^2 * L up to ``_SD_ALL_PAIRS_BITS``, every pair of packed
    windows is XORed and popcounted, in row blocks of at most 2^16 pairs
    so memory stays bounded: O(m^2 * L / 64) word operations, about
    0.11 ms for a 282-bit trace payload at L=34.  Larger inputs ask
    :func:`_bitops.close_pairs` for the pairs within ``d - 1``; that
    search is complete by the pigeonhole argument and costs about the
    number of candidate pairs: the ``certify`` checks of ``encode_sd`` at
    n = 131073 (L = 63 and 176) take about 0.01 and 0.02 s, where all
    pairs would take about 30 and 90 s.
    On random passing inputs at d=3 the two routes cost the same at
    m = 460 for L=34, 290 for L=62, 200 for L=175 and 150 for L=300,
    which m^2 * L = 6e6 fits within 10 %.

    Both routes cut windows with :func:`_bitops.packed_windows`, which
    packs the all-pairs route's few windows row by row and cuts the many
    of a long input from words; the oracle's blocked scan above 3000 bits
    cuts its own with ``np.packbits``.
    The differential tests compare with the oracle's character loop, which
    shares no code with either route.
    """
    if L <= 0:
        raise ValueError("window length must be positive")
    m = len(x) - L + 1
    if m < 2 or d <= 0:
        return True
    if d > L:
        return False
    if m * m * L > _SD_ALL_PAIRS_BITS:
        return not _bitops.close_pairs(x.to_numpy(), L, d - 1)
    wins = _bitops.packed_windows(x.to_numpy(), L)
    step = max(1, (1 << 16) // m)
    for i0 in range(0, m - 1, step):
        # rows i0.. against columns i0..: every cell off the diagonal is a
        # pair of distinct starts, and every diagonal cell is 0 < d
        dist = _bitops.row_distances(wins[i0 : i0 + step, None], wins[None, i0:])
        if np.count_nonzero(dist < d) > len(dist):
            return False
    return True


def majority_merge(votes: Sequence[tuple[int, int]] | np.ndarray) -> tuple[BitSeq, BitSeq]:
    """Resolve per-position vote tallies into a sequence plus a tie mask.

    ``votes[i]`` is a ``(zero_count, one_count)`` pair for position ``i``.
    Ties resolve to 0 and are flagged in the returned tie mask.  A position
    with no votes at all is an error: the caller is expected to have checked
    coverage first.
    """
    arr = np.asarray(votes, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("votes must be a sequence of (zeros, ones) pairs")
    totals = arr.sum(axis=1)
    if np.any(totals == 0):
        missing = int(np.argmax(totals == 0))
        raise ValueError(f"position {missing} has no votes")
    ones = arr[:, 1] > arr[:, 0]
    ties = arr[:, 1] == arr[:, 0]
    return BitSeq.from_numpy(ones.astype(np.uint8)), BitSeq.from_numpy(ties.astype(np.uint8))
