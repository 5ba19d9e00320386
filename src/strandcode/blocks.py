"""Block pieces shared by the block-structured codes, and the indexed core.

A codeword is a chain of ``L_min``-bit blocks, each carrying the marker,
an index codeword from an :class:`IndexBook` and payload bits at fixed
in-block positions (the :class:`Layout`).  An encoder holds a codeword as
one (blocks, ``L_min``) array whose columns the layout names and writes
each part in one scatter: the marker, one book row (:attr:`IndexBook.rows`)
and one payload slice per block; a decoder reads them back with one gather.

Shared by the trace code and the indexed families: the layout builder,
the split of an aligned window's index bits at its block boundary, the
marker uniqueness scan every encoder runs, the read location batch, the
parameter checks and the one decode pass, :func:`decode_reads`.  That
pass checks the book and the trace, loads the reads once, merges the
placed reads by majority and builds the :class:`DecodeRecord` and the
:class:`ReconReport` every decoder returns.  A family gives it two
stages: ``place`` locates the reads (the trace code by overlap matching,
the indexed core from each read's own window) and ``payloads`` inverts
the payload code of the merged string.

The indexed core below serves both γ=0 families.  Every length-``L_min``
period of a strand carries the marker, the absolute index of its block and
``m'`` constrained payload bits, so a read names its (strand, offset) from
one window alone and no overlap between reads is needed.  Block j of
strand i carries index ``i * strand_blocks + j``.  The single-strand and
the multi-strand family differ only in what their params say: ``k``,
``strand_blocks``, ``message_blocks`` (later blocks carry an all-zero
message) and ``marker_phase``, the marker's offset in a period (0 when the
marker opens it, m' when the payload does).  A strand longer than its
blocks ends in a weight-constrained tail; a shorter one cuts its last block.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import _bitops
from .bitseq import BitSeq, majority_merge, unpack_rows
from .channel import Trace
from .constrained import auto_cyclic, codec
from .errors import DecodeFailure, LayoutError, SearchExhausted, require_feasible
from .positioning import IndexBook, build_index_book, default_r_I, find_marker, locate_index

# in-block position kinds: marker, group flag, payload, index codeword
MARK, FLAG, V, C = 0, 1, 2, 3
_SCAN_CELLS = 1 << 19  # marker-scan table cells per slice of strands, 1 or 2 bytes each
# the one way an indexed read's window fails, as a DecodeRecord failure code
_LOCATE_FAILURES = (None, (DecodeFailure, "read {} cannot be located"))


def checked_book(params, book: IndexBook | None, d: int) -> IndexBook:
    """The book an entry point runs on, once ``params`` are feasible: the
    seed-0 book they name at index distance ``d`` when ``book`` is None,
    else ``book`` once it matches them."""
    require_feasible(params)
    if book is None:
        return build_index_book(params.I, d, params.K, r_I=params.r_I)
    if (book.I, book.r_I, book.d, book.K_marker) != (params.I, params.r_I, d, params.K):
        raise ValueError("index book does not match the parameters")
    return book


def check_trace(tr: Trace, params, k: int, n: int) -> None:
    """Reject a trace whose header does not match k strands of length n
    under ``params`` or that holds a read shorter than one block."""
    if tr.k != k:
        raise LayoutError(f"trace header says k={tr.k}, expected {k}")
    if tr.n != n or tr.L_min != params.L_min or tr.L_over != params.L_over:
        raise LayoutError("trace geometry does not match the code parameters")
    if tr.e > params.e:
        raise LayoutError("trace error budget exceeds the code tolerance")
    if any(len(frag.bits) < params.L_min for frag in tr.fragments):
        raise LayoutError("a read is shorter than the block length")


class BlockGeometry:
    """Properties shared by the params of every block-structured code."""

    @property
    def marker_len(self) -> int:
        return self.K + self.ell

    @property
    def feasible(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------------
# Block layout


@dataclass(frozen=True, eq=False)  # hashed by identity, as a cache key
class Layout:
    kind: np.ndarray
    csub: np.ndarray
    v_offsets: np.ndarray
    c_offsets: np.ndarray


def build_layout(L_min: int, segments: list[tuple[int, int]]) -> Layout:
    kind = np.full(L_min, -1, dtype=np.int8)
    csub = np.full(L_min, -1, dtype=np.int32)
    pos = nc = 0
    for k, width in segments:
        kind[pos : pos + width] = k
        if k == C:
            csub[pos : pos + width] = np.arange(nc, nc + width)
            nc += width
        pos += width
    assert pos == L_min
    return Layout(
        kind=kind,
        csub=csub,
        v_offsets=np.flatnonzero(kind == V),
        c_offsets=np.flatnonzero(kind == C),
    )


@lru_cache(maxsize=None)
def index_orders(lay: Layout, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where an aligned window keeps its index bits, for every boundary phase.

    Positions before a window's block boundary belong to the previous
    block and carry a suffix S of its index codeword; positions after carry
    a prefix P of the next one.  Row q is for a window whose boundary is at
    q: ``mu[q]`` = len(P), ``sp[q]`` the window positions of S then P and
    ``ps[q]`` those of P then S, each part in codeword order, so one
    gather cuts either key from a batch of windows.
    """
    L_min = len(lay.kind)
    # the window position of every codeword bit, in codeword order, from
    # each phase q: past the boundary (in P) unless it wraps
    at = lay.c_offsets[np.argsort(lay.csub[lay.c_offsets])] + np.arange(L_min)[:, None]
    in_p = at < L_min
    mu = in_p.sum(axis=1)
    first = np.arange(width) < mu[:, None]
    assert np.array_equal(in_p & first, first), "P is not the codeword's first mu bits"
    assert np.array_equal(in_p | first, first), "S is not the codeword's last bits"
    ps = at % L_min
    sp = np.take_along_axis(ps, (np.arange(width) + mu[:, None]) % width, axis=1)
    return mu, sp, ps


def marker_offenders(
    w: np.ndarray,
    L_min: int,
    dmin: int,
    marker: np.ndarray,
    blocks_total: int,
    phase0: int = 0,
) -> set[int] | list[set[int]]:
    """Block indices whose windows break the cyclic marker uniqueness rule,
    for one strand ``w`` of n bits, or one set per strand for a (k, n)
    stack of strands, scanned a slice of strands at a time.

    Every aligned window must match the marker exactly at its true phase and
    differ in at least dmin places at every other phase; anything less would
    let a noisy window report a second marker position.  ``phase0`` shifts
    the grid for layouts whose markers sit at positions congruent to it
    rather than to zero.

    The length-``L_min`` window at s, read cyclically from phase p, meets
    the marker at w[s + p:] when p <= L_min - ml.  That is the plain
    distance at a = s + p, the same for every (s, p) with that sum, and the
    phase is true iff a = phase0 mod L_min.  So one distance per absolute
    position and a range-any over the L_min - ml + 1 phases of each s decide
    these phases.  Only the ml - 1 wrapping phases p = L_min - t, 0 < t <
    ml, split the marker: its first t bits meet w[s + L_min - t:] and its
    last ml - t bits meet w[s:], one head and one tail term of
    :func:`_bitops.marker_mismatches`, read for all (t, s) at once as
    skewed views of each strand's table.  Each window has at most one true
    wrapping phase, t = s - phase0 mod L_min.  The offenders and the
    assertion are those a per-phase compare of every window gives, at
    O(n * ml) cost instead of O(n * L_min * ml) per strand.
    """
    stack = np.atleast_2d(w)
    n, ml = stack.shape[1], marker.size
    rows = n - L_min + 1
    if rows < 1 or not 1 < ml <= L_min:
        raise ValueError("strand shorter than a block, or marker not 2 to L_min bits")
    true_at = phase0 % L_min
    true_a = np.arange(n - ml + 1) % L_min == true_at
    # the windows s whose true phase wraps, at t = s - phase0 mod L_min < ml
    s = np.flatnonzero((np.arange(rows) - true_at - 1) % L_min < ml - 1)
    t = (s - true_at) % L_min
    # column c of a table is the start c - pad; the pad bits only ever
    # enter both terms of a difference or lie past a counted prefix
    pad = ml - 1
    cols = n + pad
    padded = np.zeros((len(stack), n + 2 * pad), dtype=stack.dtype)
    padded[:, pad : pad + n] = stack
    found: list[set[int]] = [set() for _ in stack]
    step = max(1, _SCAN_CELLS // (ml * cols))  # keeps every table near _SCAN_CELLS cells
    for lo in range(0, len(stack), step):
        table = _bitops.marker_mismatches(padded[lo : lo + step], marker)
        dist = table[:, ml, pad : pad + n - ml + 1]
        assert not np.any(dist[:, true_a]), "marker bits were not written"
        close = np.zeros((len(table), n - ml + 2), dtype=np.int64)
        np.cumsum(~true_a & (dist < dmin), axis=1, out=close[:, 1:])
        bad = close[:, L_min - ml + 1 :][:, :rows] > close[:, :rows]
        # T[t, c + j - t] sits at flat index t * (cols - 1) + c + j of its
        # strand, so reshaping a strand's flat table to rows of cols - 1
        # shifts row t by -t; [:, t - 1, s] reads row t, column s + j - t
        flat = table.reshape(len(table), -1)
        tail, head = (
            flat[:, j : j + ml * (cols - 1)].reshape(-1, ml, cols - 1)[:, 1:, :rows]
            for j in (pad, L_min + pad)
        )
        wrap = np.lib.stride_tricks.sliding_window_view(table[:, ml, : rows + pad - 1], rows, 1)
        wrap = wrap[:, ::-1] - tail  # tails: T[ml, a] - T[t, a] at start a = s - t
        wrap += head  # heads: T[t, a] at start a = s + L_min - t
        assert not np.any(wrap[:, t - 1, s]), "marker bits were not written"
        wrap[:, t - 1, s] = dmin
        bad |= wrap.min(axis=1) < dmin
        strand, starts = np.nonzero(bad)
        ends = np.minimum(blocks_total - 1, (starts + L_min - 1) // L_min)
        for i, b in zip(np.tile(strand, 2), np.concatenate([starts // L_min, ends]).tolist()):
            found[lo + i].add(b)
    return found if w.ndim == 2 else found[0]


# ---------------------------------------------------------------------------
# Reads as one batch


@dataclass(frozen=True)
class Reads:
    """Every read of a trace, loaded once.

    ``rows`` is a (reads, longest) 0/1 uint8 array holding read r in
    ``rows[r, :lens[r]]`` and zeros after it; ``values`` keeps each read's
    :attr:`BitSeq.value` for the overlap checks on Python ints.
    """

    rows: np.ndarray
    lens: np.ndarray
    values: list[int]

    def windows(self, which: np.ndarray, s: np.ndarray, L: int) -> np.ndarray:
        """The length-L window at s of read ``which[i]`` in row i."""
        return self.rows[which[:, None], s[:, None] + np.arange(L)]


def load_reads(bits: Sequence[BitSeq]) -> Reads:
    """Unpack every read in one call, as :func:`unpack_rows` does."""
    lens = np.array([len(b) for b in bits], dtype=np.int64)
    return Reads(unpack_rows(bits, int(lens.max(initial=0))), lens, [b.value for b in bits])


def anchor_reads(reads: Reads, L_min: int, attempt) -> tuple[np.ndarray, np.ndarray, list]:
    """Try every read's leading window in one batch, then the windows s =
    1, 2, ... of every read that failed there in a second.

    ``attempt(which, s)`` returns a failure code per window, 0 where it
    succeeded, then arrays of per-window results.  Returns the leading
    windows' codes, the reads that succeed at a later window (ascending)
    and the results of every read: at its leading window, or at the least
    later s that succeeds.  Every later window is tried, so the second
    batch holds sum(len - L_min) windows.
    """
    every = np.arange(len(reads.lens))
    lead, *results = attempt(every, np.zeros_like(every))
    failed = np.flatnonzero(lead)
    if not failed.size:
        return lead, failed, results
    later = reads.lens[failed] - L_min
    which = np.repeat(failed, later)
    s = np.arange(len(which)) - np.repeat(np.cumsum(later) - later - 1, later)
    code, *retried = attempt(which, s)
    hit = np.flatnonzero(code == 0)
    # windows run read by read in ascending s, so a read's first hit is its least s
    saved, first = np.unique(which[hit], return_index=True)
    for result, at_later in zip(results, retried):
        result[saved] = at_later[hit[first]]
    return lead, saved, results


# ---------------------------------------------------------------------------
# The decode pass: record, majority merge and report

@dataclass(frozen=True, eq=False)
class DecodeRecord:
    """What one decode pass dropped or rejected; strict decoding is
    :meth:`verdict` over it.  ``lead`` is each read's leading-window
    failure code (0 where it worked), which ``failures`` words, and
    ``retried`` the reads a later window located; ``dropped`` lists
    (read, why) as placement dropped them and ``pending`` the reads it
    left; ``rejected`` maps a group or strand to the first error of its
    payload, which ``payload_error`` words where it is fatal; ``stray``
    lists the strands whose message-free bits are not the encoder's."""

    failures: tuple
    lead: np.ndarray
    retried: np.ndarray
    dropped: tuple[tuple[int, str], ...] = ()
    pending: tuple[int, ...] = ()
    uncovered: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    rejected: dict[int, ValueError] = field(default_factory=dict)
    stray: tuple[int, ...] = ()
    payload_error: str | None = None

    @property
    def intact(self) -> bool:
        """Every read placed, position covered and payload decoded, and
        every message-free bit the encoder's."""
        lost = np.count_nonzero(self.lead) - self.retried.size
        return not (
            lost or self.dropped or self.pending or self.uncovered.size
            or self.rejected or self.stray
        )

    def verdict(self) -> None:
        """Raise what strict decoding raises, for the earliest stage: the
        first read whose leading window failed, the first read dropped,
        reads left pending, uncovered positions, a fatal rejected payload."""
        failed = np.flatnonzero(self.lead)
        if failed.size:
            kind, text = self.failures[self.lead[failed[0]]]
            raise kind(text.format(failed[0]))
        if self.dropped:
            raise DecodeFailure(self.dropped[0][1])
        if self.pending:
            raise DecodeFailure(
                "some reads could not be anchored by overlap matching; "
                "the trace does not cover the string contiguously"
            )
        if self.uncovered.size:
            raise DecodeFailure(
                f"{self.uncovered.size} positions are uncovered; the trace is incomplete"
            )
        if self.rejected and self.payload_error is not None:
            first = min(self.rejected)
            error = self.rejected[first]
            raise DecodeFailure(self.payload_error.format(first, error)) from error


@dataclass(frozen=True)
class ReconReport:
    """Outcome of one reconstruction: placements, merged string, message.

    ``reliable`` certifies that every read was placed within e of the
    merged string, every position covered by a vote without a tie and
    every payload decoded.  For the γ=0 families it also certifies that
    the merged string is a codeword, so the message is exact: its marker,
    index and tail bits and any block past the message blocks are the
    encoder's, and every payload decodes with a zero pad.  The trace
    family does not check its merged string yet.
    """

    message: BitSeq
    located: tuple[tuple[int | None, int | None], ...]
    tie_positions: tuple[int, ...]
    reliable: bool

    def to_json(self) -> str:
        return json.dumps(
            {
                "located": [
                    {"offset": off, "errors_corrected": err}
                    for off, err in self.located
                ],
                "tie_positions": list(self.tie_positions),
                "reliable": self.reliable,
                "message_hex": self.message.to_hex(),
            }
        )


def decode_reads(
    tr: Trace, params, book: IndexBook | None, d: int, k: int, place, payloads
) -> tuple[Sequence[BitSeq], ReconReport, DecodeRecord]:
    """The one decode pass of the block families; returns the payload
    blocks, the report and the record.

    Checks the book at index distance ``d`` and the trace of ``k`` strands,
    loads the reads once and calls the family's ``place(reads, book)``:
    read -> offset (as ``strand * n + offset``) and the
    :class:`DecodeRecord` fields placement decides.  The merge is the
    positionwise majority of one ``bincount`` of 2 * position + bit over
    every placed bit, ties toward zero and uncovered positions zero filled.
    ``payloads(merged, book)`` returns the payload blocks, whose
    concatenation is the message, the rejected blocks and the stray
    strands.  The report gives each read its (offset, disagreement with the
    merged string), or (None, None) when unplaced; reliable means an intact
    record (:attr:`DecodeRecord.intact`), no tie and no disagreement over e.
    """
    book = checked_book(params, book, d)
    check_trace(tr, params, k, params.n)
    reads = load_reads([f.bits for f in tr.fragments])
    placed, fields = place(reads, book)
    which = np.fromiter(placed, dtype=np.int64, count=len(placed))
    offs = np.fromiter(placed.values(), dtype=np.int64, count=len(placed))
    cols = np.arange(reads.rows.shape[1])
    inside = cols < reads.lens[which, None]
    pos, bits = (offs[:, None] + cols)[inside], reads.rows[which][inside]
    votes = np.bincount(2 * pos + bits, minlength=2 * k * params.n).reshape(-1, 2)
    uncovered = np.flatnonzero(votes.sum(axis=1) == 0)
    votes[uncovered, 0] = 1
    merged, ties = (seq.to_numpy() for seq in majority_merge(votes))
    blocks, rejected, stray = payloads(merged, book)
    record = DecodeRecord(**fields, uncovered=uncovered, rejected=rejected, stray=stray)
    located: list[tuple[int | None, int | None]] = [(None, None)] * len(reads.lens)
    starts = np.cumsum(reads.lens[which]) - reads.lens[which]
    errs = np.add.reduceat(bits != merged[pos], starts, dtype=np.int64).tolist()
    for (idx, off), err in zip(placed.items(), errs):
        located[idx] = (off, err)
    tie_pos = tuple(np.flatnonzero(ties).tolist())
    reliable = record.intact and not tie_pos and max(errs, default=0) <= params.e
    report = ReconReport(sum(blocks, BitSeq.zeros(0)), tuple(located), tie_pos, reliable)
    return blocks, report, record


# ---------------------------------------------------------------------------
# Indexed core of the γ=0 families


def indexed_geometry(L_min: int, e: int, I: int, K: int, r_I: int | None) -> dict:
    """The params fields fixed by one block geometry: d, ell, r_I, m',
    the payload weight window and floor, and the violated inequalities."""
    d = 2 * e + 1
    ell = len(auto_cyclic(d))
    if r_I is None:
        r_I = default_r_I(I, d)
    m_prime = L_min - (I + r_I + K + ell)

    violations: list[str] = []
    if m_prime < d + 1:
        violations.append("payload-space")
    if K // 4 >= d:
        w_window, w_floor = K // 4, d
    elif K >= d:
        w_window, w_floor = K, d
    else:
        violations.append("weight-window")
        w_window, w_floor = max(K, 1), 1
    if m_prime >= d + 1:
        cap = codec(w_window, w_floor, m_prime).msg_len
        if cap < m_prime - d:
            violations.append("payload-capacity")
    return dict(
        d=d, ell=ell, r_I=r_I, m_prime=m_prime, w_window=w_window, w_floor=w_floor,
        violations=tuple(violations),
    )


def indexed_message_len(params) -> int:
    """Message bits of one strand; refuses infeasible params."""
    return require_feasible(params).message_blocks * (params.m_prime - params.d)


def indexed_book(params) -> IndexBook:
    """The seed-0 index book of feasible ``params``."""
    return checked_book(params, None, params.d)


@lru_cache(maxsize=None)
def _layout(params) -> Layout:
    """Layout of one block read from its marker on."""
    segs = [(MARK, params.marker_len), (C, params.I + params.r_I), (V, params.m_prime)]
    return build_layout(params.L_min, segs)


@lru_cache(maxsize=None)
def _period_offsets(params) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions of the marker, index and payload bits in a strand period."""
    lay = _layout(params)
    marker = np.arange(params.marker_len)
    return tuple(
        (offs + params.marker_phase) % params.L_min
        for offs in (marker, lay.c_offsets, lay.v_offsets)
    )


@lru_cache(maxsize=None)
def _tail(params) -> BitSeq:
    # never decoded; it only has to respect the weight constraint so that
    # no window over the strand tail can fake a marker
    size = params.n - params.strand_blocks * params.L_min
    if size <= 0:
        return BitSeq.zeros(0)
    tail_codec = codec(params.w_window, params.w_floor, size)
    return tail_codec.encode(BitSeq.zeros(tail_codec.msg_len))


def _frame(params, book: IndexBook, payloads: np.ndarray) -> np.ndarray:
    """The strands as one (k, n) array: the marker, the index codeword and
    the row of ``payloads`` of every block, each written in one scatter,
    then the tail, cut to n."""
    mark_at, c_at, v_at = _period_offsets(params)
    blocks = params.k * params.strand_blocks
    rows = np.zeros((blocks, params.L_min), dtype=np.uint8)
    rows[:, mark_at] = book.marker_bits
    rows[:, c_at] = book.rows[:blocks]
    rows[:, v_at] = payloads
    tail = _tail(params).to_numpy()
    tails = np.broadcast_to(tail, (params.k, tail.size))
    return np.concatenate([rows.reshape(params.k, -1), tails], axis=1)[:, : params.n]


def indexed_encode(
    messages: Sequence[BitSeq], params, book: IndexBook | None
) -> tuple[BitSeq, ...]:
    """One strand per message; no two blocks anywhere in the set look alike.

    Every payload block of the set is unranked in one batch, as block j
    of strand i carries message bits ``[j * body, (j + 1) * body)`` then
    zeros (a block past the message blocks carries only zeros), and the
    whole (k, n) frame is checked in one stacked marker scan.
    """
    want = indexed_message_len(params)
    book = checked_book(params, book, params.d)
    if len(messages) != params.k:
        raise ValueError(f"need {params.k} strand messages, got {len(messages)}")
    body = params.m_prime - params.d
    for i, m_i in enumerate(messages):
        if len(m_i) != want:
            raise ValueError(f"strand {i} message must have {want} bits, got {len(m_i)}")
    payload_codec = codec(params.w_window, params.w_floor, params.m_prime)
    blocks = params.strand_blocks
    plain = np.zeros((params.k, blocks, payload_codec.msg_len), dtype=np.uint8)
    plain[:, : params.message_blocks, :body] = unpack_rows(messages, want).reshape(
        params.k, params.message_blocks, body
    )
    frame = _frame(params, book, payload_codec.encode(plain.reshape(-1, payload_codec.msg_len)))
    found = marker_offenders(
        frame, params.L_min, params.d, book.marker_bits, blocks, phase0=params.marker_phase
    )
    first = next((i for i, hit in enumerate(found) if hit), None)
    if first is not None:
        raise SearchExhausted(f"payload bits of strand {first} collided with the marker pattern")
    return tuple(map(BitSeq.from_numpy, frame))


def indexed_locate(
    reads: Reads, which: np.ndarray, s: np.ndarray, params, book: IndexBook
) -> np.ndarray:
    """Placement of read ``which[i]`` from its window at ``s[i]`` alone, for
    a batch: the flattened offset ``strand * n + offset``, or -1 where the
    window names no marker, no index or a block the read cannot fit."""
    width = params.I + params.r_I
    win = reads.windows(which, s, params.L_min)
    q = find_marker(win, book, params.e)
    at = np.flatnonzero(q >= 0)
    q = q[at]
    mu, sp, _ = index_orders(_layout(params), width)
    index = locate_index(_bitops.pack_rows(np.take_along_axis(win[at], sp[q], axis=1)), book)
    # a key of S then P names the block before the boundary
    index += (index >= 0) & (mu[q] < width)
    strand, j = np.divmod(index, params.strand_blocks)
    off = params.marker_phase + j * params.L_min - (s[at] + q)
    fits = (
        (index >= 0) & (index < params.k * params.strand_blocks)
        & (off >= 0) & (off + reads.lens[which[at]] <= params.n)
    )
    out = np.full(len(which), -1, dtype=np.int64)
    out[at[fits]] = (strand * params.n + off)[fits]
    return out


def _stray_strands(merged: np.ndarray, params, book: IndexBook, payload_codec) -> set[int]:
    """The strands whose merged bits differ from the encoder's wherever
    these do not depend on the message: the marker and index bits, the
    tail, and a block past the message blocks, which carries zeros."""
    zero = payload_codec.encode(BitSeq.zeros(payload_codec.msg_len)).to_numpy()
    blocks, L_min = params.k * params.strand_blocks, params.L_min
    want = _frame(params, book, np.broadcast_to(zero, (blocks, zero.size)))
    fixed = np.ones(max(params.n, params.strand_blocks * L_min), dtype=bool)
    fixed[np.arange(params.message_blocks)[:, None] * L_min + _period_offsets(params)[2]] = False
    differ = (merged.reshape(params.k, params.n) != want) & fixed[: params.n]
    return set(np.flatnonzero(differ.any(axis=1)).tolist())


def indexed_reconstruct(
    tr: Trace, params, book: IndexBook | None
) -> tuple[tuple[BitSeq, ...], ReconReport, DecodeRecord]:
    """The γ=0 stages of :func:`decode_reads`: place every read from its
    own window, then decode every message block.

    Reads are located by :func:`anchor_reads`; one that no window locates
    is dropped.  A payload block that does not decode reads as zeros and
    rejects its strand with the error of its first such block.  Returns
    the per-strand messages, the report and the :class:`DecodeRecord`.
    """

    def place(reads: Reads, book: IndexBook) -> tuple[dict[int, int], dict]:
        def attempt(which: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            off = indexed_locate(reads, which, s, params, book)
            return (off < 0).astype(np.int64), off

        lead, retried, (at,) = anchor_reads(reads, params.L_min, attempt)
        placed = {idx: off for idx, off in enumerate(at.tolist()) if off >= 0}
        return placed, dict(failures=_LOCATE_FAILURES, lead=lead, retried=retried)

    def payloads(merged: np.ndarray, book: IndexBook) -> tuple[tuple[BitSeq, ...], dict, tuple]:
        payload_codec = codec(params.w_window, params.w_floor, params.m_prime)
        starts = np.arange(params.k)[:, None] * params.n
        starts = starts + np.arange(params.message_blocks) * params.L_min
        plains = payload_codec.decode(merged[starts.reshape(-1, 1) + _period_offsets(params)[2]])
        rejected: dict[int, ValueError] = {}
        for t, plain in enumerate(plains):
            if isinstance(plain, ValueError):
                # a corrupted or missing span leaves the constrained code;
                # the block's location is still known, so report zeros and
                # let the outer layer or the reliability audit deal with it
                rejected.setdefault(t // params.message_blocks, plain)
                plains[t] = BitSeq.zeros(payload_codec.msg_len)
        rows = unpack_rows(plains, payload_codec.msg_len)
        body = params.m_prime - params.d
        # the encoder pads every block with zeros
        padded = np.flatnonzero(rows[:, body:].any(axis=1)) // params.message_blocks
        stray = _stray_strands(merged, params, book, payload_codec) | set(padded.tolist())
        messages = tuple(map(BitSeq.from_numpy, rows[:, :body].reshape(params.k, -1)))
        return messages, rejected, tuple(sorted(stray))

    return decode_reads(tr, params, book, params.d, params.k, place, payloads)
