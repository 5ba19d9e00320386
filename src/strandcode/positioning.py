"""Index book construction and window locating.

An index book is a family of 2^I codewords of length I + r_I whose plain
concatenation is an (I + r_I, d)-substring-distant sequence, together with
the marker p = 0^K followed by the auto-cyclic sequence for d.  Blocks of
the trace codes carry the marker, an index codeword split into segments,
and payload; the book is what lets a decoder place a corrupted window.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _bitops
from .bitseq import BitSeq
from .constrained import auto_cyclic
from .errors import DecodeFailure, LayoutError, SearchExhausted
from .oracle import check_p123

__all__ = [
    "IndexBook",
    "default_r_I",
    "build_index_book",
    "find_marker",
    "locate_index",
    "book_to_json",
    "book_from_json",
]


@dataclass(frozen=True)
class IndexBook:
    I: int
    r_I: int
    d: int
    K_marker: int
    codewords: tuple[BitSeq, ...]
    marker: BitSeq

    def __post_init__(self):
        if len(self.codewords) != 1 << self.I:
            raise ValueError(f"need {1 << self.I} codewords, got {len(self.codewords)}")
        width = self.I + self.r_I
        if any(len(c) != width for c in self.codewords):
            raise ValueError(f"every codeword must have length {width}")

    @property
    def codeword_len(self) -> int:
        return self.I + self.r_I

    @property
    def e(self) -> int:
        """Error tolerance implied by the distance parameter d = 2e + 1."""
        return (self.d - 1) // 2

    @property
    def F(self) -> int:
        """Number of segments each codeword is split into."""
        return max(1, math.ceil(self.codeword_len / self.K_marker))

    @property
    def segment_widths(self) -> tuple[int, ...]:
        width, F = self.codeword_len, self.F
        base, extra = divmod(width, F)
        return tuple(base + 1 if h < extra else base for h in range(F))

    def segments(self, i: int) -> list[BitSeq]:
        c = self.codewords[i]
        out, pos = [], 0
        for w in self.segment_widths:
            out.append(c.window(pos, w))
            pos += w
        return out

    @cached_property
    def concat(self) -> BitSeq:
        out = BitSeq.zeros(0)
        for c in self.codewords:
            out = out + c
        return out

    @cached_property
    def _pigeonhole(self) -> list[tuple[int, int, np.ndarray, np.ndarray]]:
        """Multi-index table over all aligned-and-straddle windows of the
        concatenation.

        The codeword width is cut into max(e + 1, ceil(width / 64)) parts,
        so each part fits one uint64 key.  Per part: its bit range
        (lo, hi), the part values of every window in ascending order, and
        the start offset of the window each value came from.
        """
        width = self.codeword_len
        view = np.lib.stride_tricks.sliding_window_view(self.concat.to_numpy(), width)
        table = []
        for lo, hi in _bitops._part_slices(width, max(self.e + 1, -(-width // 64))):
            if hi > lo:
                keys = _bitops.pack_rows(np.ascontiguousarray(view[:, lo:hi]))[:, 0]
            else:  # width <= e leaves empty parts, which match every window
                keys = np.zeros(len(view), dtype=np.uint64)
            offsets = np.argsort(keys, kind="stable")
            table.append((lo, hi, keys[offsets], offsets))
        return table

    @cached_property
    def _marker_np(self) -> np.ndarray:
        return self.marker.to_numpy()


def default_r_I(I: int, d: int) -> int:
    """Redundancy from the construction recipe, (3d + 8) * log I, padded to
    a small floor for tiny I where the formula degenerates."""
    if I >= 2:
        return math.ceil((3 * d + 8) * math.log2(I))
    return 2 * d + 2


def build_index_book(
    I: int,
    d: int,
    K_marker: int,
    r_I: int | None = None,
    seed: int = 0,
    max_tries: int = 400,
    max_restarts: int = 60,
) -> IndexBook:
    """Randomized greedy search for an index book, certified before return.

    Draws codewords one at a time; a draw is kept when every window of the
    concatenation built so far stays at distance >= d from all others.  When
    a position exhausts its tries the previous codeword is discarded too and
    the search resumes there, so hard corners get re-rolled.  Deterministic
    for a given seed.  Raises when the budget runs out, which at fixed I
    means r_I is too small.
    """
    if I < 0 or d < 1 or K_marker < 0:
        raise ValueError("I and K_marker must be non-negative and d positive")
    if r_I is None:
        r_I = default_r_I(I, d)
    width = I + r_I
    count = 1 << I
    marker = BitSeq.zeros(K_marker) + auto_cyclic(d)

    rng = np.random.default_rng(np.random.SeedSequence((seed, I, d, K_marker, r_I)))
    codewords: list[BitSeq] = []
    # windows of the concatenation built so far, as packed ints: the first
    # codeword adds one window and every later one adds ``width``
    windows = np.empty(1 + (count - 1) * width, dtype=np.uint64 if width <= 64 else object)
    fill = 0
    restarts = 0
    while len(codewords) < count:
        placed = False
        for _ in range(max_tries):
            cand = BitSeq.random(width, rng)
            new_wins = _new_windows(codewords, cand, width)
            if _all_far(new_wins, windows[:fill], d, width):
                codewords.append(cand)
                windows[fill : fill + len(new_wins)] = new_wins
                fill += len(new_wins)
                placed = True
                break
        if not placed:
            restarts += 1
            if restarts > max_restarts or not codewords:
                raise SearchExhausted(
                    f"no index book found at I={I}, d={d}, r_I={r_I}; "
                    "increase r_I and retry"
                )
            fill -= width if len(codewords) > 1 else 1
            codewords.pop()
    book = IndexBook(I, r_I, d, K_marker, tuple(codewords), marker)
    _certify(book)
    return book


def _new_windows(codewords: list[BitSeq], cand: BitSeq, width: int) -> list[int]:
    """Windows added to the concatenation by appending ``cand``: its own
    content plus every straddle with the current last codeword."""
    wins = [cand.value]
    if codewords:
        joint = codewords[-1] + cand
        for mu in range(1, width):
            wins.append(joint.window_int(mu, width))
    return wins


def _all_far(new_wins: list[int], old_wins: np.ndarray, d: int, width: int) -> bool:
    if width <= 64:
        a = np.array(new_wins, dtype=np.uint64)
        pair = np.bitwise_count(a[:, None] ^ a[None, :])
        pair[np.diag_indices(len(a))] = 64
        if pair.min() < d:
            return False
        if old_wins.size and np.bitwise_count(a[:, None] ^ old_wins[None, :]).min() < d:
            return False
        return True
    old_wins = old_wins.tolist()
    for i, a in enumerate(new_wins):
        for b in new_wins[i + 1 :]:
            if (a ^ b).bit_count() < d:
                return False
        for b in old_wins:
            if (a ^ b).bit_count() < d:
                return False
    return True


_CERTIFY_FULL_LIMIT = 6


def certify_book(book: IndexBook) -> None:
    """Re-run the distance invariants on an already built or parsed book.

    Raises SearchExhausted naming the violated invariant; returns None
    when all hold.  Books straight out of :func:`build_index_book` always
    pass; this guards books that traveled through files.
    """
    _certify(book)


def _certify(book: IndexBook) -> None:
    """Check the book invariants exactly, at every I.

    Every codeword must pass its window weight check and the concatenation
    must be (I + r_I, d)-substring distant, checked by the exact pigeonhole
    close-pair search; the oracle's independent scans stay free to check
    this code.  The piece-family conditions (P1-P3) are checked only for
    I <= 6.
    """
    width = book.codeword_len
    wwl_window = 3 * math.ceil(1.5 * math.log2(width)) + len(book.marker) - book.K_marker
    from .bitseq import is_wwl

    for c in book.codewords:
        if not is_wwl(c, wwl_window, book.d):
            raise SearchExhausted("book codeword fails its window weight invariant")
    if _bitops.close_pairs(book.concat.to_numpy(), width, book.d - 1):
        raise SearchExhausted("book concatenation fails the SD check")
    if book.I <= _CERTIFY_FULL_LIMIT and not check_p123(book.codewords, wwl_window, book.d):
        raise SearchExhausted("book family fails the piece-family conditions")


def find_marker(y: BitSeq, book: IndexBook, e: int) -> int:
    """Cyclic offset of the marker inside one block-period window.

    ``y`` must be exactly one block long; the blocks of a codeword all carry
    the marker at the same in-block position, so scanning ``y`` cyclically
    finds the marker even when the window cuts it in two.  Exactly one
    offset may match within ``e`` errors; zero or several mean ``y`` is not
    a window of a legal codeword.
    """
    p = book._marker_np
    m = len(p)
    period = len(y)
    if period < m:
        raise ValueError("window shorter than the marker")
    bits = y.to_numpy()
    doubled = np.concatenate([bits, bits[: m - 1]])
    wins = np.lib.stride_tricks.sliding_window_view(doubled, m)[:period]
    dists = (wins != p).sum(axis=1)
    hits = np.flatnonzero(dists <= e)
    if len(hits) != 1:
        raise LayoutError(
            f"{len(hits)} marker positions within {e} errors; expected exactly 1"
        )
    return int(hits[0])


def locate_index(y: BitSeq, book: IndexBook) -> int:
    """Index of the codeword (or straddle pair) best matching ``y``.

    ``y`` is an (I + r_I)-bit window: either a codeword c_i or a suffix of
    c_i followed by the matching prefix of c_{i+1}, with at most
    ``book.e`` substitutions.  Finds every window of the concatenation
    within ``e`` of ``y``; the substring-distant property makes the
    sub-``e`` alignment unique.

    Pigeonhole invariant: ``y`` and a window within ``e`` flips of it agree
    exactly on at least one of the e + 1 (or more) parts of
    ``book._pigeonhole``, so the exact part matches, found by binary
    search, hold every such window.  Each candidate is then checked over
    the full width.  Cost: O(e + 1) lookups plus the candidates checked.
    """
    width = book.codeword_len
    if len(y) != width:
        raise ValueError(f"window must have {width} bits")
    e = book.e
    v = y.value
    candidates: set[int] = set()
    for lo, hi, keys, offsets in book._pigeonhole:
        key = np.uint64((v >> lo) & ((1 << (hi - lo)) - 1))
        a = keys.searchsorted(key)
        b = keys.searchsorted(key, side="right")
        candidates.update(offsets[a:b].tolist())
    concat = book.concat.value
    mask = (1 << width) - 1
    hits = [t for t in sorted(candidates) if (((concat >> t) & mask) ^ v).bit_count() <= e]
    if not hits:
        raise DecodeFailure(f"no index alignment within {e} errors")
    if len(hits) > 1:
        raise DecodeFailure(f"ambiguous index alignment at offsets {hits}")
    return hits[0] // width


def book_to_json(book: IndexBook) -> str:
    return json.dumps(
        {
            "I": book.I,
            "r_I": book.r_I,
            "d": book.d,
            "K_marker": book.K_marker,
            "codewords": [c.to_text() for c in book.codewords],
            "marker": book.marker.to_text(),
        }
    )


def book_from_json(text: str) -> IndexBook:
    obj = json.loads(text)
    return IndexBook(
        I=obj["I"],
        r_I=obj["r_I"],
        d=obj["d"],
        K_marker=obj["K_marker"],
        codewords=tuple(BitSeq.from_text(c) for c in obj["codewords"]),
        marker=BitSeq.from_text(obj["marker"]),
    )
