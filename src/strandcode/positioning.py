"""Index book construction and window locating.

An index book is a family of 2^I codewords of length I + r_I whose plain
concatenation is an (I + r_I, d)-substring-distant sequence, together with
the marker p = 0^K followed by the auto-cyclic sequence for d.  Blocks of
the trace codes carry the marker, an index codeword split into segments,
and payload; the book is what lets a decoder place a corrupted window.
:func:`find_marker` and :func:`locate_index` take a whole batch of windows
at once, so a decoder places every read of a trace in a few calls.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _bitops
from .bitseq import BitSeq, unpack_rows
from .constrained import auto_cyclic
from .errors import SearchExhausted, json_int

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

    @cached_property
    def rows(self) -> np.ndarray:
        """Codeword i as row i of a read-only (2^I, I + r_I) 0/1 uint8 array."""
        rows = unpack_rows(self.codewords, self.codeword_len)
        rows.flags.writeable = False
        return rows

    @cached_property
    def concat(self) -> BitSeq:
        return BitSeq.from_numpy(self.rows.ravel())

    @cached_property
    def _windows(self) -> np.ndarray:
        """Every window of the concatenation, packed; row t starts at t."""
        return _bitops.packed_windows(self.rows.ravel(), self.codeword_len)

    @cached_property
    def _index(self) -> _bitops.PartIndex:
        """Near-match index over ``_windows`` at radius e."""
        return _bitops.PartIndex(self._windows, self.codeword_len, self.e)

    @cached_property
    def marker_bits(self) -> np.ndarray:
        return self.marker.to_numpy()


def default_r_I(I: int, d: int) -> int:
    """Redundancy from the construction recipe, (3d + 8) * log I, padded to
    a small floor for tiny I where the formula degenerates."""
    if I >= 2:
        return math.ceil((3 * d + 8) * math.log2(I))
    return 2 * d + 2


# the newest accepted windows, which the book search compares with a draw's
# in full before it indexes them
_TAIL = 320


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
    concatenation built so far stays at distance >= d from all others.  The
    check is exact.  The ``width`` windows a draw adds (one for the first
    codeword) are compared by one :func:`_bitops.row_distances` call with
    each other and with the newest accepted windows, at most ``_TAIL`` of
    them.  The older accepted windows sit in a :class:`_bitops.PartIndex`
    at radius d - 1; by its pigeonhole invariant it returns every one
    within d - 1 of a new window, checked at full width.  The index takes
    the tail in bulk when the tail is full, and is rebuilt when a
    discarded codeword's windows were in it.  So a try costs
    O(width * (width + _TAIL)) word XORs per 64 bits of width plus the
    index's part lookups and candidates, instead of one XOR per accepted
    window; a book of at most ``_TAIL`` windows (I=4 at r_I=16 has 301)
    never builds the index.
    When a position exhausts its tries the previous codeword is discarded
    too and the search resumes there, so hard corners get re-rolled.
    Deterministic for a given seed.  Raises when the budget runs out, which
    at fixed I means r_I is too small.  The book is then certified by
    :func:`certify_book`, whose splice check is the scaffold search's
    kernel, :func:`_bitops.splices_wwl`.
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
    # packed windows of the concatenation built so far: the first codeword
    # adds one window and every later one the ``width`` that end in it; the
    # first ``index.size`` are indexed and the rest, up to ``fill``, are the tail
    windows = np.empty((1 + (count - 1) * width, -(-width // 64)), dtype=np.uint64)
    index = _bitops.PartIndex(windows, width, d - 1, size=0)
    fill = 0
    restarts = 0
    while len(codewords) < count:
        placed = False
        for _ in range(max_tries):
            cand = BitSeq.random(width, rng)
            joint = codewords[-1] + cand if codewords else cand
            new = _bitops.packed_windows(joint.to_numpy(), width)[-width:]
            # the draw's windows go after the tail, to be kept only if it is
            windows[fill : fill + len(new)] = new
            tail = windows[index.size : fill + len(new)]
            dist = _bitops.row_distances(new[:, None], tail[None])
            # each new window against itself
            dist[np.arange(len(new)), np.arange(fill - index.size, len(tail))] = d
            if dist.min() >= d and not index.near(new)[0].size:
                codewords.append(cand)
                fill += len(new)
                if fill - index.size > _TAIL:
                    index.grow(fill)
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
            if fill < index.size:
                index = _bitops.PartIndex(windows, width, d - 1, size=fill)
    book = IndexBook(I, r_I, d, K_marker, tuple(codewords), marker)
    certify_book(book)
    return book


def certify_book(book: IndexBook) -> None:
    """Check the book invariants exactly, at every I.

    The marker must be 0^K_marker then ``auto_cyclic(d)``, each codeword
    (W, d)-weight limited (P1) for the framing's window W, by one
    :func:`_bitops.window_weights` of all the book's rows, the
    concatenation (I + r_I, d)-substring distant by the exact pigeonhole
    close-pair search, and every splice of codeword i + 1's prefix onto
    codeword i's suffix (W, d)-weight limited (P2), by the scaffold
    search's :func:`_bitops.splices_wwl`.  P3, far apart same-phase
    windows, follows from the substring distance.  Every check is a
    package kernel; the oracle's scans stay free to check them.

    Raises SearchExhausted naming the violated invariant; returns None
    when all hold.  Books straight out of :func:`build_index_book` always
    pass; this guards books that traveled through files.
    """
    if book.marker != BitSeq.zeros(book.K_marker) + auto_cyclic(book.d):
        raise SearchExhausted("book marker is not 0^K_marker then the auto-cyclic sequence")
    width = book.codeword_len
    wwl_window = 3 * math.ceil(1.5 * math.log2(width)) + len(book.marker) - book.K_marker
    if _bitops.window_weights(book.rows, wwl_window).min(initial=book.d) < book.d:
        raise SearchExhausted("book codeword fails its window weight invariant")
    if _bitops.close_pairs(book.rows.ravel(), width, book.d - 1):
        raise SearchExhausted("book concatenation fails the SD check")
    if not _bitops.splices_wwl(book.rows[1:], book.rows[:-1], wwl_window, book.d).all():
        raise SearchExhausted("book family fails the piece-family splice condition")


# locate_index results for a key with no alignment within e, or several
NOT_FOUND, AMBIGUOUS = -1, -2


def find_marker(windows: np.ndarray, book: IndexBook, e: int) -> np.ndarray:
    """Cyclic offset of the marker inside each block-period window of a batch.

    ``windows`` is a (rows, period) 0/1 uint8 array whose rows are each
    exactly one block long; the blocks of a codeword all carry the marker
    at the same in-block position, so scanning a row cyclically finds the
    marker even when the window cuts it in two.  Exactly one offset may
    match within ``e`` errors; zero or several mean the row is not a window
    of a legal codeword, reported as -1 for that row.

    Exact: the marker is compared at its full width with every cyclic
    offset of every row.  Cost: one vector pass over the (rows, period)
    distance table per marker bit, O(rows * period * len(marker)).
    """
    p = book.marker_bits
    m = len(p)
    rows, period = windows.shape
    if period < m:
        raise ValueError("window shorter than the marker")
    doubled = np.concatenate([windows, windows[:, : m - 1]], axis=1)
    dist = np.zeros((rows, period), dtype=np.int16)
    for j in range(m):
        dist += doubled[:, j : j + period] ^ p[j]
    hits = dist <= e
    return np.where(hits.sum(axis=1) == 1, hits.argmax(axis=1), -1)


def locate_index(keys: np.ndarray, book: IndexBook) -> np.ndarray:
    """Index of the codeword (or straddle pair) best matching each key.

    ``keys`` holds (I + r_I)-bit windows packed as by
    :func:`_bitops.pack_rows`, one per row: each either a codeword c_i or
    a suffix of c_i followed by the matching prefix of c_{i+1}, with at
    most ``book.e`` substitutions.  Every window of the concatenation
    within ``e`` of a key is found; the substring-distant property makes
    the sub-``e`` alignment unique.  Returns i per row, or ``NOT_FOUND``
    when no window is within ``e`` and ``AMBIGUOUS`` when several are.

    The windows sit in ``book._index``, a :class:`_bitops.PartIndex` at
    radius ``e``: by its pigeonhole invariant a key and a window within
    ``e`` flips of it agree exactly on one of its parts, so one
    ``searchsorted`` pair per part over the whole batch finds every such
    window, and each candidate is checked at full width, so the answer is
    exact.  Cost: O(parts * rows * log(windows)) plus the candidates
    checked, one word XOR per 64 bits of width each.
    """
    width = book.codeword_len
    rows = len(keys)
    if keys.shape[1:] != (-(-width // 64),):
        raise ValueError(f"keys must be packed {width}-bit windows")
    # rows ascend, and each row's windows by offset
    row, t = book._index.near(keys)
    hits = np.bincount(row, minlength=rows)
    found = np.full(rows, NOT_FOUND, dtype=np.int64)
    found[row] = t // width
    found[hits > 1] = AMBIGUOUS
    return found


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
    """The book of :func:`book_to_json`; its sizes must be JSON integers."""
    obj = json.loads(text)
    return IndexBook(
        **{name: json_int(obj, name, "index book") for name in ("I", "r_I", "d", "K_marker")},
        codewords=tuple(BitSeq.from_text(c) for c in obj["codewords"]),
        marker=BitSeq.from_text(obj["marker"]),
    )
