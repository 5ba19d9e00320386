"""Block pieces shared by the block-structured codes, and the indexed core.

A codeword is a chain of ``L_min``-bit blocks, each carrying the marker,
an index codeword from an :class:`IndexBook` and payload bits at fixed
in-block positions (the :class:`Layout`).  Shared by the trace code and
the indexed families: the layout builder, the split of an aligned window's
index bits at its block boundary, the marker uniqueness scan every encoder
runs, the majority merge of placed reads, the :class:`ReconReport` every
decoder returns, and the codec cache and parameter checks.

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
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .bitseq import BitSeq, majority_merge
from .channel import Trace
from .constrained import ConstrainedCodec, auto_cyclic
from .errors import DecodeFailure, InfeasibleParameters, LayoutError, SearchExhausted
from .positioning import IndexBook, build_index_book, default_r_I, find_marker, locate_index

# in-block position kinds: marker, group flag, payload, index codeword
MARK, FLAG, V, C = 0, 1, 2, 3


@lru_cache(maxsize=None)
def codec(window: int, floor: int, n_out: int, chunk: int) -> ConstrainedCodec:
    return ConstrainedCodec(window, floor, n_out, chunk=chunk)


def check_book(params, book: IndexBook, d: int) -> None:
    if (book.I, book.r_I, book.d, book.K_marker) != (params.I, params.r_I, d, params.K):
        raise ValueError("index book does not match the parameters")


def check_trace(tr: Trace, params, k: int) -> None:
    """Reject a trace whose header does not match k strands of ``params``
    or that holds a read shorter than one block."""
    if tr.k != k:
        raise LayoutError(f"trace header says k={tr.k}, expected {k}")
    if tr.n != params.n or tr.L_min != params.L_min or tr.L_over != params.L_over:
        raise LayoutError("trace geometry does not match the code parameters")
    if tr.e > params.e:
        raise LayoutError("trace error budget exceeds the code tolerance")
    if any(len(frag.bits) < params.L_min for frag in tr.fragments):
        raise LayoutError("a read is shorter than the block length")


def require_feasible(params, what: str = "cannot encode with violated geometry") -> None:
    if not params.feasible:
        raise InfeasibleParameters(f"{what}: " + ", ".join(params.violations))


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


def split_index_window(win: BitSeq, q: int, lay: Layout, width: int) -> tuple[BitSeq, BitSeq, int]:
    """Index bits of an aligned window split at the block boundary.

    Positions before the boundary belong to the previous block and carry a
    suffix of its index codeword (S); positions after carry a prefix of the
    next one (P).  Returns (S, P, len(P)).
    """
    s_pos, p_pos = _index_positions(lay, q, width)
    arr = win.to_numpy()
    return BitSeq.from_numpy(arr[s_pos]), BitSeq.from_numpy(arr[p_pos]), len(p_pos)


@lru_cache(maxsize=None)
def _index_positions(lay: Layout, q: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Window positions of S and of P, each in codeword order, for a
    window whose block boundary is at q."""
    L_min = len(lay.kind)
    offs = (np.arange(L_min) - q) % L_min
    sel = lay.kind[offs] == C
    tpos = np.flatnonzero(sel)
    subs = lay.csub[offs[sel]]
    at = tpos >= q
    mu = int(at.sum())
    assert np.array_equal(np.sort(subs[at]), np.arange(mu))
    assert np.array_equal(np.sort(subs[~at]), np.arange(mu, width))
    return tpos[~at][np.argsort(subs[~at])], tpos[at][np.argsort(subs[at])]


def marker_offenders(
    w: np.ndarray,
    L_min: int,
    dmin: int,
    marker: np.ndarray,
    blocks_total: int,
    phase0: int = 0,
) -> set[int]:
    """Block indices whose windows break the cyclic marker uniqueness rule.

    Every aligned window must match the marker exactly at its true phase and
    differ in at least dmin places at every other phase; anything less would
    let a noisy window report a second marker position.  ``phase0`` shifts
    the grid for layouts whose markers sit at positions congruent to it
    rather than to zero.
    """
    ml = len(marker)
    wins = np.lib.stride_tricks.sliding_window_view(w, L_min)
    rows = wins.shape[0]
    starts = np.arange(rows)
    bad_rows: set[int] = set()
    for phase in range(L_min):
        cols = (phase + np.arange(ml)) % L_min
        dist = (wins[:, cols] != marker).sum(axis=1)
        true_phase = (starts + phase) % L_min == phase0 % L_min
        assert not np.any(true_phase & (dist != 0)), "marker bits were not written"
        for s in np.flatnonzero(~true_phase & (dist < dmin)):
            bad_rows.add(int(s))
    out: set[int] = set()
    for s in bad_rows:
        out.add(s // L_min)
        out.add(min(blocks_total - 1, (s + L_min - 1) // L_min))
    return out


# ---------------------------------------------------------------------------
# Majority merge and report


@dataclass(frozen=True)
class ReconReport:
    """Outcome of one reconstruction: placements, merged string, message."""

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


def merge_placed(
    arrs: dict[int, np.ndarray], placed: dict[int, int], n: int, lenient: bool
) -> tuple[np.ndarray, tuple[int, ...], bool]:
    """Positionwise majority over ``n`` positions of the reads ``arrs``
    placed at the offsets ``placed``.

    Returns the merged bits, the tie positions (resolved toward zero) and
    whether any position is uncovered; uncovered positions are an error
    unless ``lenient``, which fills them with zeros.
    """
    votes = np.zeros((n, 2), dtype=np.int64)
    for idx, off in placed.items():
        arr = arrs[idx]
        votes[off : off + len(arr), 1] += arr
        votes[off : off + len(arr), 0] += 1 - arr
    covered = votes.sum(axis=1) > 0
    gaps = bool(np.any(~covered))
    if gaps:
        if not lenient:
            missing = int((~covered).sum())
            raise DecodeFailure(
                f"{missing} positions are uncovered; the trace is incomplete"
            )
        votes[~covered, 0] = 1
    merged, ties = majority_merge(votes)
    tie_pos = tuple(int(i) for i in np.flatnonzero(ties.to_numpy()))
    if tie_pos:
        warnings.warn(
            f"{len(tie_pos)} majority ties resolved toward zero", stacklevel=3
        )
    return merged.to_numpy(), tie_pos, gaps


def make_report(
    message: BitSeq, reads: int, arrs: dict[int, np.ndarray], placed: dict[int, int],
    merged: np.ndarray, tie_pos: tuple[int, ...], intact: bool, e: int,
) -> ReconReport:
    """Report each read's (offset, disagreement with the merged string), or
    (None, None) when unplaced.  Reliable is a consistency audit: the decode
    was ``intact`` (every read placed, no gap, every payload decoded), no
    majority tie, and every disagreement within e."""
    located: list[tuple[int | None, int | None]] = []
    max_err = 0
    for idx in range(reads):
        if idx in placed:
            off = placed[idx]
            arr = arrs[idx]
            err = int((arr != merged[off : off + len(arr)]).sum())
            max_err = max(max_err, err)
            located.append((off, err))
        else:
            located.append((None, None))
    reliable = intact and not tie_pos and max_err <= e
    return ReconReport(
        message=message, located=tuple(located), tie_positions=tie_pos, reliable=reliable
    )


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
        cap = codec(w_window, w_floor, m_prime, 512).msg_len
        if cap < m_prime - d:
            violations.append("payload-capacity")
    return dict(
        d=d, ell=ell, r_I=r_I, m_prime=m_prime, w_window=w_window, w_floor=w_floor,
        violations=tuple(violations),
    )


def indexed_book(params, seed: int = 0) -> IndexBook:
    return build_index_book(params.I, params.d, params.K, r_I=params.r_I, seed=seed)


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
    tail_codec = codec(params.w_window, params.w_floor, size, 512)
    return tail_codec.encode(BitSeq.zeros(tail_codec.msg_len))


def indexed_encode(
    messages: Sequence[BitSeq], params, book: IndexBook | None
) -> tuple[BitSeq, ...]:
    """One strand per message; no two blocks anywhere in the set look alike."""
    require_feasible(params)
    book = book if book is not None else indexed_book(params)
    check_book(params, book, params.d)
    if len(messages) != params.k:
        raise ValueError(f"need {params.k} strand messages, got {len(messages)}")
    body = params.m_prime - params.d
    want = params.message_blocks * body
    for i, m_i in enumerate(messages):
        if len(m_i) != want:
            raise ValueError(f"strand {i} message must have {want} bits, got {len(m_i)}")
    payload_codec = codec(params.w_window, params.w_floor, params.m_prime, 512)
    pad = BitSeq.zeros(payload_codec.msg_len - body)
    mark_at, c_at, v_at = _period_offsets(params)
    marker = book.marker.to_numpy()
    tail = _tail(params).to_numpy()
    L_min, blocks = params.L_min, params.strand_blocks
    strands = []
    for i, m_i in enumerate(messages):
        arr = np.zeros(max(params.n, blocks * L_min), dtype=np.uint8)
        for j in range(blocks):
            m_ij = m_i.window(j * body, body) if j < params.message_blocks else BitSeq.zeros(body)
            base = j * L_min
            arr[base + v_at] = payload_codec.encode(m_ij + pad).to_numpy()
            arr[base + mark_at] = marker
            arr[base + c_at] = book.codewords[i * blocks + j].to_numpy()
        arr[blocks * L_min : params.n] = tail
        w = arr[: params.n]
        if marker_offenders(w, L_min, params.d, marker, blocks, phase0=params.marker_phase):
            raise SearchExhausted(f"payload bits of strand {i} collided with the marker pattern")
        strands.append(BitSeq.from_numpy(w))
    return tuple(strands)


def indexed_locate(y: BitSeq, s: int, params, book: IndexBook) -> tuple[int, int]:
    """(strand, in-strand offset) of a read, from its window at s alone."""
    width = params.I + params.r_I
    win = y.window(s, params.L_min)
    q = find_marker(win, book, params.e)
    S, P, mu = split_index_window(win, q, _layout(params), width)
    if mu == width:
        index = locate_index(P, book)
    else:
        index = locate_index(S + P, book) + 1
    if index >= params.k * params.strand_blocks:
        raise DecodeFailure("block index runs past the last block")
    strand, j = divmod(index, params.strand_blocks)
    off = params.marker_phase + j * params.L_min - (s + q)
    if off < 0 or off + len(y) > params.n:
        raise DecodeFailure("located read does not fit inside its strand")
    return strand, off


def indexed_reconstruct(
    tr: Trace, params, book: IndexBook | None, lenient: bool
) -> tuple[tuple[BitSeq, ...], ReconReport, set[int]]:
    """Place every read independently, merge by majority, decode the blocks.

    Strict decoding raises on a read it cannot place and on an uncovered
    position; lenient decoding tries every window of a read, drops reads it
    cannot place and zero fills uncovered positions.  Returns the
    per-strand messages, the report (offsets flattened as ``strand * n +
    offset``) and the strands holding an undecodable payload block.
    """
    book = book if book is not None else indexed_book(params)
    check_trace(tr, params, params.k)
    check_book(params, book, params.d)
    placed: dict[int, int] = {}
    skipped: set[int] = set()
    for idx, frag in enumerate(tr.fragments):
        y = frag.bits
        last: Exception | None = None
        for s in range(len(y) - params.L_min + 1) if lenient else range(1):
            try:
                strand, off = indexed_locate(y, s, params, book)
            except (LayoutError, DecodeFailure) as exc:
                last = exc
                continue
            placed[idx] = strand * params.n + off
            break
        else:
            if not lenient:
                raise DecodeFailure(f"read {idx} cannot be located") from last
            skipped.add(idx)

    arrs = {idx: tr.fragments[idx].bits.to_numpy() for idx in placed}
    merged, tie_pos, gaps = merge_placed(arrs, placed, params.k * params.n, lenient)

    payload_codec = codec(params.w_window, params.w_floor, params.m_prime, 512)
    body = params.m_prime - params.d
    v_at = _period_offsets(params)[2]
    messages: list[BitSeq] = []
    damaged: set[int] = set()
    for i in range(params.k):
        m_i = BitSeq.zeros(0)
        for j in range(params.message_blocks):
            w_ij = BitSeq.from_numpy(merged[i * params.n + j * params.L_min + v_at])
            try:
                plain = payload_codec.decode(w_ij)
            except ValueError:
                # a corrupted or missing span leaves the constrained code;
                # the block's location is still known, so report zeros and
                # let the outer layer or the reliability audit deal with it
                damaged.add(i)
                plain = BitSeq.zeros(payload_codec.msg_len)
            m_i = m_i + plain.window(0, body)
        messages.append(m_i)

    report = make_report(
        sum(messages, BitSeq.zeros(0)), len(tr.fragments), arrs, placed, merged,
        tie_pos, not skipped and not gaps and not damaged, params.e,
    )
    return tuple(messages), report, damaged
