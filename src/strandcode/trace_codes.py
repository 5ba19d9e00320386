"""Codes whose strings survive being read as overlapping noisy fragments.

A codeword is a chain of ``L_min``-bit blocks.  Every block opens with the
marker ``p = 0^K . u`` (``u`` auto-cyclic), then a short group flag, then
interleaved slices of an index codeword ``c_i`` and of a long constrained
payload string ``v_i``.  A fragment of length at least ``L_min`` is located
by finding the marker phase in its leading window, decoding the index bits
that straddle the block boundary, and, when several blocks of the same group
remain possible, matching payload overlaps against already placed fragments;
the payload strings are substring distant, so a wrong alignment disagrees on
many positions while the right one disagrees on few.  The positionwise
majority over the placed fragments is then inverted back to the message.

Also here: the outer Reed-Solomon hardening that survives whole-group
corruption, whose lanes across the group payloads, refusal and decode
policy are :func:`strandcode.outer.lanes`, and the params
and entry points of the non-overlapping family whose blocks carry absolute
indices.  That family runs on the indexed core of
:mod:`strandcode.blocks`, shared with the interleaved multi-strand family;
the layout, index split, marker scan and the one decode pass
(:func:`~strandcode.blocks.decode_reads`) come from there too.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _bitops
from .bitseq import BitSeq, is_sd
from .blocks import (
    FLAG,
    MARK,
    C,
    V,
    BlockGeometry,
    DecodeRecord,
    Layout,
    ReconReport,
    Reads,
    anchor_reads,
    build_layout,
    checked_book,
    decode_reads,
    index_orders,
    indexed_book,
    indexed_encode,
    indexed_geometry,
    indexed_message_len,
    indexed_reconstruct,
    marker_offenders,
)
from .channel import Trace
from .constrained import ConstrainedCodec, auto_cyclic, codec
from .errors import DecodeFailure, LayoutError, SearchExhausted, require_feasible
from .outer import Lanes, lanes
from .positioning import (
    AMBIGUOUS,
    NOT_FOUND,
    IndexBook,
    default_r_I,
    find_marker,
    locate_index,
)

__all__ = [
    "TraceParams",
    "Gamma0Params",
    "ReconReport",
    "derive_trace_params",
    "trace_message_len",
    "trace_book",
    "encode_trace",
    "reconstruct_trace",
    "trace_rs_message_len",
    "encode_trace_rs",
    "reconstruct_trace_rs",
    "derive_gamma0_params",
    "gamma0_message_len",
    "gamma0_book",
    "encode_gamma0",
    "reconstruct_gamma0",
]

SALT_BITS = 8
_SALT_TRIES = 1 << SALT_BITS
# constrained.codec, the one codec cache; perfbench checks its misses here
_codec = codec

# ---------------------------------------------------------------------------
# Parameters


@dataclass(frozen=True)
class TraceParams(BlockGeometry):
    """Geometry of the block layout for one (n, e, L_min, L_over) choice."""

    n: int
    e: int
    L_min: int
    L_over: int
    d1: int
    d2: int
    ell: int
    I: int
    r_I: int
    K: int
    F: int
    L: int
    v_window: int
    v_floor: int
    a: float
    gamma: float
    violations: tuple[str, ...] = ()

    @property
    def r(self) -> int:
        return self.I + self.r_I + self.K + self.ell + self.d1

    @property
    def group_count(self) -> int:
        return 1 << self.I

    @property
    def v_per_block(self) -> int:
        return self.L_min - self.r

    @property
    def n_L(self) -> int:
        return self.n // self.L_min

    @property
    def divisible(self) -> bool:
        return self.n % self.L_min == 0

    def cnt(self, i: int) -> int:
        """Blocks carried by group i; earlier groups take the remainder."""
        base, extra = divmod(self.n_L, self.group_count)
        return base + 1 if i < extra else base

    def N(self, i: int) -> int:
        return self.cnt(i) * self.v_per_block

    def cum_blocks(self, i: int) -> int:
        """First block index of group i."""
        base, extra = divmod(self.n_L, self.group_count)
        return i * base + min(i, extra)


def derive_trace_params(
    n: int,
    e: int,
    a: float | None = None,
    gamma: float | None = None,
    eps: float = 0.1,
    *,
    L_min: int | None = None,
    L_over: int | None = None,
    I: int | None = None,
    r_I: int | None = None,
    K: int | None = None,
) -> TraceParams:
    """Resolve the block geometry and check every inequality decoding uses.

    The regime constants ``a`` and ``gamma`` size ``L_min`` and ``L_over``;
    at small ``n`` the literal formulas are often infeasible, so any of the
    geometry knobs can be pinned explicitly and only the structural checks
    remain.  ``F`` and ``L`` are derived: the fewest index segments of at most
    ``K`` bits, and the payload window that every ``L_over`` overlap holds.

    Malformed arguments raise ``ValueError``; failed inequalities are only
    recorded in ``violations``, for :func:`require_feasible` to refuse.
    """
    if n < 1 or e < 0:
        raise ValueError("need n >= 1 and e >= 0")
    if a is not None and gamma is not None:
        if not a > 1:
            raise ValueError("regime requires a > 1")
        if not 0 <= a * gamma <= 1:
            raise ValueError("regime requires 0 <= a * gamma <= 1")
    logn = math.log2(n)
    if L_min is None:
        if a is None:
            raise ValueError("either a or L_min must be given")
        L_min = math.ceil(a * logn)
    if L_over is None:
        if gamma is None:
            raise ValueError("either gamma or L_over must be given")
        L_over = math.ceil(gamma * L_min)
    if not 0 <= L_over < L_min:
        raise ValueError("need 0 <= L_over < L_min")
    if n < L_min:
        raise ValueError("string shorter than one block")

    d1 = 2 * e + 1
    d2 = 4 * e + 1
    ell = len(auto_cyclic(d1))
    a_eff = a if a is not None else L_min / logn
    g_eff = gamma if gamma is not None else L_over / L_min

    violations: list[str] = []
    if I is None:
        if not 0 < eps < 0.5:
            raise ValueError("the index width needs 0 < eps < 0.5")
        lead = (1 - g_eff * a_eff) / (1 - g_eff) if g_eff < 1 else 0.0
        raw = lead * logn + logn ** (0.5 + eps)
        I = math.ceil(raw)
        if I < 1:
            violations.append("index-bits")
            I = 1
    if r_I is None:
        r_I = default_r_I(I, d1)
    if K is None:
        K = math.ceil(math.sqrt(logn))
    F = max(1, math.ceil((I + r_I) / K))

    r = I + r_I + K + ell + d1
    v_per_block = L_min - r
    if v_per_block < 1:
        violations.append("payload-space")
    if K + ell + d1 > L_over:
        violations.append("marker-window")
    inner = L_over - K - ell - d1 - 2 * math.ceil((I + r_I) / F)
    if v_per_block >= 1 and inner >= 1:
        L = math.ceil(inner * v_per_block / (v_per_block + I + r_I))
    else:
        L = 0
    if not 1 <= L <= L_over:
        violations.append("matching-window")

    n_L = n // L_min
    if n_L < (1 << I):
        violations.append("group-coverage")

    if K // 4 >= d2:
        v_window, v_floor = K // 4, d2
    elif K >= d1:
        v_window, v_floor = K, d1
    else:
        violations.append("weight-window")
        v_window, v_floor = max(K, 1), 1

    if v_per_block >= 1 and n_L >= (1 << I):
        n_min = (n_L // (1 << I)) * v_per_block
        if n_min < L:
            violations.append("sd-window")
        # windows of L < d2 bits differ in at most L places, so a payload
        # holding two of them is never substring distant
        if 1 <= L < d2 and n_min > L:
            violations.append("sd-distance")
        cap = codec(v_window, v_floor, n_min, v_per_block).msg_len
        if cap <= SALT_BITS:
            violations.append("block-capacity")

    return TraceParams(
        n=n, e=e, L_min=L_min, L_over=L_over, d1=d1, d2=d2, ell=ell,
        I=I, r_I=r_I, K=K, F=F, L=L, v_window=v_window, v_floor=v_floor,
        a=a_eff, gamma=g_eff, violations=tuple(violations),
    )


def _group_codec(params: TraceParams, i: int, ext: bool = False) -> ConstrainedCodec:
    n_out = params.N(i) + (params.v_per_block if ext else 0)
    return codec(params.v_window, params.v_floor, n_out, params.v_per_block)


def _group_payload_len(params: TraceParams, i: int) -> int:
    """Message bits of group i; refuses infeasible params."""
    return _group_codec(require_feasible(params), i).msg_len - SALT_BITS


def trace_message_len(params: TraceParams) -> int:
    """Total message bits carried by one codeword."""
    return sum(_group_payload_len(params, i) for i in range(params.group_count))


def trace_book(params: TraceParams) -> IndexBook:
    """The seed-0 index book of feasible ``params``."""
    return checked_book(params, None, params.d1)


# ---------------------------------------------------------------------------
# Block layout


def _split_widths(total: int, parts: int) -> list[int]:
    base, extra = divmod(total, parts)
    return [base + 1 if h < extra else base for h in range(parts)]


@lru_cache(maxsize=None)
def _trace_layout(params: TraceParams) -> Layout:
    """The block layout; the one place that cuts the index codeword into F segments."""
    width = params.I + params.r_I
    vw = _split_widths(params.v_per_block, params.F)
    cw = _split_widths(width, params.F)
    segs = [(MARK, params.marker_len), (FLAG, params.d1)]
    for h in range(params.F):
        segs.append((V, vw[h]))
        segs.append((C, cw[h]))
    return build_layout(params.L_min, segs)


@dataclass(frozen=True, eq=False)
class _Blocks:
    total: int
    group: np.ndarray  # group of each block, non-decreasing
    is_start: np.ndarray
    first: np.ndarray  # first block of each group
    end: np.ndarray  # the block after each group's last


@lru_cache(maxsize=None)
def _block_table(params: TraceParams) -> _Blocks:
    total = params.n_L + (0 if params.divisible else 1)
    group = np.empty(total, dtype=np.int64)
    is_start = np.zeros(total, dtype=bool)
    for g in range(params.group_count):
        lo = params.cum_blocks(g)
        group[lo : lo + params.cnt(g)] = g
        is_start[lo] = True
    if not params.divisible:
        group[params.n_L] = params.group_count - 1
    groups = np.arange(params.group_count)
    return _Blocks(
        total=total, group=group, is_start=is_start,
        first=group.searchsorted(groups), end=group.searchsorted(groups, side="right"),
    )


# ---------------------------------------------------------------------------
# Payload scrambling.  Each group's message is masked by a salted hash
# stream and the salt stored in band, so a colliding payload can be re-drawn
# while keeping the map invertible.


def _mask_bits(params, group: int, t: int, nbits: int) -> BitSeq:
    seed = f"strandcode.v:{params.n}:{params.e}:{params.I}:{params.K}:{group}:{t}"
    out = bytearray()
    counter = 0
    while 8 * len(out) < nbits:
        out += hashlib.sha256(seed.encode() + counter.to_bytes(4, "big")).digest()
        counter += 1
    bits = np.unpackbits(np.frombuffer(bytes(out), dtype=np.uint8))[:nbits]
    return BitSeq.from_numpy(bits)


def _encode_group(
    m_i: BitSeq, group: int, params: TraceParams, start_t: int, ext: bool
) -> tuple[BitSeq, int]:
    codec = _group_codec(params, group, ext=ext)
    # the zero padding behind the message is masked too: a constant tail
    # would encode to a periodic constrained string that no salt can make
    # substring distant
    body = m_i + BitSeq.zeros(codec.msg_len - SALT_BITS - len(m_i))
    for t in range(start_t, _SALT_TRIES):
        masked = body.xor(_mask_bits(params, group, t, len(body)))
        v = codec.encode(BitSeq.from_int(t, SALT_BITS) + masked)
        if is_sd(v, params.L, params.d2):
            return v, t
    raise SearchExhausted(
        f"the marker repair used up the {_SALT_TRIES} salts of group {group}"
        if start_t
        else f"no salt yields a substring-distant payload for group {group}"
    )


def _unmask_group(plain: BitSeq, group: int, params: TraceParams) -> BitSeq:
    t = plain.window_int(0, SALT_BITS)
    body = plain.window(SALT_BITS, len(plain) - SALT_BITS)
    return body.xor(_mask_bits(params, group, t, len(body)))


# ---------------------------------------------------------------------------
# Encoding


def _assemble(params: TraceParams, book: IndexBook, vs: list[np.ndarray]) -> np.ndarray:
    lay = _trace_layout(params)
    blocks = _block_table(params)
    out = np.zeros((blocks.total, params.L_min), dtype=np.uint8)
    out[:, : params.marker_len] = book.marker_bits
    out[~blocks.is_start, params.marker_len : params.marker_len + params.d1] = 1
    out[:, lay.c_offsets] = book.rows[blocks.group]
    out[:, lay.v_offsets] = np.concatenate(vs).reshape(blocks.total, -1)
    return out.reshape(-1)[: params.n]


def encode_trace(m: BitSeq, params: TraceParams, book: IndexBook | None = None) -> BitSeq:
    """Encode a message into one block-structured string of length n.

    When the block length does not divide n, the last group's payload is
    extended by one redundant block worth of constrained symbols, a full
    extra block is appended, and the result is cut back to n bits; every
    message bit stays inside the surviving whole blocks, so the decoder
    never needs the cut tail.

    The word is one row per block, and the marker, the flags, the group
    codewords and the payloads are each written in one scatter.

    Each group's payload is scrambled with the first salt whose encoding is
    substring distant.  The assembled word is then scanned for near-markers
    away from the block starts, and every group holding one is re-encoded
    from its next salt; the scan repeats until it comes back clean.  The
    loop has no round cap: each round moves at least one group to a higher
    salt, so a word takes at most 2^I * 2^SALT_BITS rounds, and the encoder
    raises ``SearchExhausted`` only when some group runs out of its
    2^SALT_BITS salts.
    """
    want = trace_message_len(params)
    book = checked_book(params, book, params.d1)
    if len(m) != want:
        raise ValueError(f"message must have {want} bits, got {len(m)}")

    G = params.group_count
    pieces: list[BitSeq] = []
    pos = 0
    for g in range(G):
        pl = _group_payload_len(params, g)
        pieces.append(m.window(pos, pl))
        pos += pl

    blocks = _block_table(params)
    salts = [0] * G

    def build(g: int, start: int) -> np.ndarray:
        ext = g == G - 1 and not params.divisible
        v, salts[g] = _encode_group(pieces[g], g, params, start, ext)
        return v.to_numpy()

    vs = [build(g, 0) for g in range(G)]
    while True:
        w = _assemble(params, book, vs)
        offenders = marker_offenders(w, params.L_min, params.d1, book.marker_bits, blocks.total)
        groups = {int(blocks.group[b]) for b in offenders}
        if not groups:
            assert w.size == params.n
            return BitSeq.from_numpy(w)
        for g in sorted(groups):
            vs[g] = build(g, salts[g] + 1)


# ---------------------------------------------------------------------------
# Read analysis, on every read of a trace at once

# why a window fails to anchor, by failure code; 0 means it anchored
_FAILURES = (
    None,
    (LayoutError, "read {}: no unique marker position within the error budget"),
    (DecodeFailure, "read {}: no index alignment within the error budget"),
    (DecodeFailure, "read {}: ambiguous index alignment"),
    (DecodeFailure, "read {}: group index runs past the last group"),
    (DecodeFailure, "read {}: group chain runs past the last group"),
    (DecodeFailure, "read {}: group chain runs below the first group"),
)


def _flags(reads: Reads, which: np.ndarray, b: np.ndarray, params: TraceParams) -> np.ndarray:
    """Majority of the flag bits behind the boundaries ``b[i, :]`` of read
    ``which[i]``: 1, 0, or -1 where the flag runs past the read's end."""
    start = b + params.marker_len
    cols = np.minimum(start[..., None] + np.arange(params.d1), reads.rows.shape[1] - 1)
    ones = reads.rows[which[:, None, None], cols].sum(axis=2, dtype=np.int64)
    return np.where(start + params.d1 <= reads.lens[which, None], 2 * ones > params.d1, -1)


def _analyze(
    reads: Reads, which: np.ndarray, s: np.ndarray, params: TraceParams, book: IndexBook
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Anchor the window at ``s[i]`` of each read ``which[i]``.

    Returns a failure code into ``_FAILURES``, set also when the group
    chain (:func:`_chains`) leaves the groups, the boundary position the
    marker names, the group found there and whether that group is the one
    of the block at the boundary (otherwise it is the one of the block
    before it).  The index bits are a suffix S of the codeword before the
    boundary and a prefix P of the one after; when the flag says the
    boundary opens a group, S then P is a straddle of two codewords and
    names the group before, otherwise P then S is one codeword.
    """
    width = params.I + params.r_I
    win = reads.windows(which, s, params.L_min)
    q = find_marker(win, book, params.e)
    code = np.where(q < 0, 1, 0)
    q = np.maximum(q, 0)
    pos = s + q
    flag = _flags(reads, which, pos[:, None], params)[:, 0]
    mu, sp, ps = index_orders(_trace_layout(params), width)
    mu = mu[q]
    at = np.flatnonzero(code == 0)
    order = np.where((flag[at] == 0)[:, None], sp[q[at]], ps[q[at]])
    found = locate_index(_bitops.pack_rows(np.take_along_axis(win[at], order, axis=1)), book)
    group = np.zeros(len(which), dtype=np.int64)
    group[at] = found + ((flag[at] == 0) & (mu[at] < width))
    code[at] = np.select(
        [found == NOT_FOUND, found == AMBIGUOUS, group[at] >= params.group_count], [2, 3, 4]
    )
    # with no index bit past the boundary and no flag, the group found is
    # only that of the block before it
    know_at = (mu > 0) | (flag >= 0)
    ok = np.flatnonzero(code == 0)
    code[ok] = _chains(reads, which[ok], pos[ok], group[ok], know_at[ok], params)[-1]
    return code, pos, group, know_at


def _chains(
    reads: Reads, which: np.ndarray, pos: np.ndarray, group: np.ndarray,
    know_at: np.ndarray, params: TraceParams,
) -> tuple[np.ndarray, ...]:
    """Every block boundary of each anchored read, its flag and its group.

    Boundary t of read i sits at ``b0[i] + t * L_min`` for t < ``nb[i]``.
    Groups are chained from the anchor through the flags, one group up at
    every group start, as far as the flags are known; -1 marks a boundary
    whose group is not known.  Also returns a failure code per read, set
    when a chain runs past the last group or below the first.
    """
    L_min = params.L_min
    b0 = pos % L_min
    nb = -(-(reads.lens[which] - b0) // L_min)
    t = np.arange(int(nb.max(initial=1)))  # every read has a boundary
    flags = _flags(reads, which, b0[:, None] + L_min * t, params)
    anchor = np.where(know_at, pos, pos - L_min)
    ai = ((anchor - b0) // L_min)[:, None]
    # known flags form a prefix, each known when the read covers it, and it
    # holds the anchor's: the anchor's flag lies before the index bits past
    # the boundary, or is known, or sits a block earlier
    known = (flags >= 0).sum(axis=1)[:, None]
    starts = np.cumsum(flags == 0, axis=1)
    groups = group[:, None] + starts - np.take_along_axis(starts, np.maximum(ai, 0), axis=1)
    chained = (anchor >= 0)[:, None] & (t < known)
    code = np.select(
        [(chained & (t > ai) & (groups >= params.group_count)).any(axis=1),
         (chained & (t < ai) & (groups < 0)).any(axis=1)],
        [5, 6],
    )
    return b0, nb, flags, np.where(chained, groups, -1), code


def _analyze_reads(
    reads: Reads, params: TraceParams, book: IndexBook
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """Anchor every read from its leading window or, failing that, from its
    least later window that anchors (:func:`anchor_reads`); that salvages
    reads whose head covers corrupted material.  Returns the leading
    windows' failure codes, the reads a later window anchored, and the
    anchored reads in ascending order with their anchors.
    """
    lead, retried, (pos, group, know_at) = anchor_reads(
        reads, params.L_min, lambda which, s: _analyze(reads, which, s, params, book)
    )
    anchored = lead == 0
    anchored[retried] = True
    which = np.flatnonzero(anchored)
    return lead, retried, (which, pos[which], group[which], know_at[which])


def _candidate_offsets(
    reads: Reads, which: np.ndarray, pos: np.ndarray, group: np.ndarray,
    know_at: np.ndarray, params: TraceParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Offsets at which each anchored read's boundaries, flags and known
    groups all agree with the block table, as (read, offset) pairs in
    ascending order.  Only the blocks of one group are tried per read, so
    the cost does not grow with the number of groups: one (reads, blocks
    per group, boundaries per read) comparison.

    Only the flags are compared: an offset puts the reference boundary on
    a block of its group ``g_ref``, other groups are known exactly where
    the flags up to them are, chained one up at every flagged start, and
    in a feasible block table (no empty group) the group steps up by one
    exactly at each ``is_start``.  So agreeing flags imply the groups.
    """
    blocks = _block_table(params)
    L_min = params.L_min
    b0, nb, flags, groups, _ = _chains(reads, which, pos, group, know_at, params)
    known = groups >= 0
    ref = known.argmax(axis=1)[:, None]
    has = known.any(axis=1)
    # the first boundary whose group is known, or else the end of the block
    # that the anchor names
    g_ref = np.where(has, np.take_along_axis(groups, ref, axis=1)[:, 0], group)
    shift = np.where(has, -(b0 + L_min * ref[:, 0]), L_min - pos)
    first, count = blocks.first[g_ref], blocks.end[g_ref] - blocks.first[g_ref]
    c = np.arange(int(count.max(initial=0)))
    off = (first[:, None] + c) * L_min + shift[:, None]
    ok = (c < count[:, None]) & (off >= 0) & (off + reads.lens[which, None] <= params.n)
    t = np.arange(flags.shape[1])
    B = (off[:, :, None] + (b0[:, None] + L_min * t)[:, None, :]) // L_min
    Bc = np.clip(B, 0, blocks.total - 1)
    flags = flags[:, None, :]
    agree = (B < blocks.total) & ((flags < 0) | ((flags == 0) == blocks.is_start[Bc]))
    ok &= (agree | (t >= nb[:, None])[:, None, :]).all(axis=2)
    r, c = np.nonzero(ok)
    return which[r], off[r, c]


# ---------------------------------------------------------------------------
# Placement by overlap matching

# why placement drops a read, worded as strict decoding raises it
_NO_CANDIDATE = (
    "a read admits no placement consistent with the others; the trace violates its error budget"
)
_AMBIGUOUS = "read placement is ambiguous; distinct positions matched within the error budget"


@lru_cache(maxsize=None)
def _payload_masks(params: TraceParams) -> tuple[int, ...]:
    """Entry ph has bit i set when position ph + i of the codeword carries a
    payload bit, for i < n: the payload mask from every in-block phase."""
    period = BitSeq.from_numpy(np.resize(_trace_layout(params).kind == V, params.n + params.L_min))
    return tuple(period.window_int(ph, params.n) for ph in range(params.L_min))


def _place_all(
    reads: Reads, which: np.ndarray, cand_read: np.ndarray, cand_off: np.ndarray,
    params: TraceParams,
) -> tuple[dict[int, int], tuple[tuple[int, str], ...], tuple[int, ...]]:
    """Place the anchored reads ``which`` by overlap matching, starting from
    the self-evident ones.  Returns read -> offset, the reads dropped in
    the order they were, each with why, and the reads left pending.

    A read whose candidate offsets are already decided (one candidate, or
    one confirmed by overlap) is placed; every placed read then checks the
    pending candidates it overlaps by at least L_over positions,
    confirming those whose payload positions in the overlap disagree in at
    most 2e places and discarding the rest, until no placement changes.
    A wrong alignment differs from the truth on a full substring-distant
    window and cannot pass.  A read left with no candidate, or with
    several confirmed ones, is dropped.

    The candidates are slots sorted by offset, each live or dead, and each
    read keeps a count of its live ones.  A read placed at ``[z_lo,
    z_hi)`` bisects to the slots starting in ``[z_lo - longest + L_over,
    z_hi - L_over]``, the only starts that can overlap it by L_over, steps
    over dead slots by next pointers under path compression, and checks
    each live one exactly: the bits of the two reads over the overlap are
    XORed as Python ints and masked to the payload positions.  A failed
    check kills its slot.  The touched reads are then settled by ascending
    read from their counts, and a settled read's slots die with it.  A
    confirmation never outlives its step (a read with a confirmed slot
    settles in it), so the result is that of checking hits by ascending
    read, then offset.  The cost is O(candidates + overlap checks + placed
    reads * log candidates), plus the dead-slot skips, each amortised
    O(1).
    """
    L_min = params.L_min
    # an overlap shorter than L_over carries no information; an empty one none
    L_over = max(params.L_over, 1)
    budget = 2 * params.e
    masks = _payload_masks(params)
    lens, values = reads.lens.tolist(), reads.values
    # read r's candidates are the input pairs first[r] to first[r + 1] - 1
    first = np.searchsorted(cand_read, np.arange(len(lens) + 1))
    live = np.diff(first)
    one, none = which[live[which] == 1], which[live[which] == 0]
    by_start = np.argsort(cand_off, kind="stable")
    starts, owners = cand_off[by_start], cand_read[by_start]
    ends = (starts + reads.lens[owners]).tolist()
    starts, owners = starts.tolist(), owners.tolist()
    slot_of = np.empty_like(by_start)
    slot_of[by_start] = np.arange(len(by_start))
    # slot k is live when nxt[k] == k; a dead one points past itself
    nxt = np.arange(len(by_start) + 1)
    nxt[slot_of[first[one]]] += 1
    live[one] = 0
    placed = dict(zip(one.tolist(), cand_off[first[one]].tolist()))
    dropped = [(idx, _NO_CANDIDATE) for idx in none.tolist()]
    first, slot_of, nxt, live = first.tolist(), slot_of.tolist(), nxt.tolist(), live.tolist()
    reach = int(reads.lens[which].max(initial=0)) - L_over
    queue = one.tolist()

    def live_from(k: int) -> int:
        root = k
        while nxt[root] != root:
            root = nxt[root]
        while k != root:
            nxt[k], k = root, nxt[k]
        return root

    while queue:
        z = queue.pop()
        z_lo, z_val = placed[z], values[z]
        z_hi = z_lo + lens[z]
        touched: dict[int, list[int]] = {}  # read -> its offsets confirmed in this step
        k, stop = live_from(bisect_left(starts, z_lo - reach)), bisect_right(starts, z_hi - L_over)
        while k < stop:
            idx, off, end = owners[k], starts[k], ends[k]
            lo, hi = (off if off > z_lo else z_lo), (end if end < z_hi else z_hi)
            if hi - lo >= L_over:
                got = touched.setdefault(idx, [])
                differ = (values[idx] >> (lo - off)) ^ (z_val >> (lo - z_lo))
                if (differ & masks[lo % L_min] & ((1 << (hi - lo)) - 1)).bit_count() <= budget:
                    got.append(off)
                else:
                    nxt[k] = k + 1
                    live[idx] -= 1
            k += 1
            if nxt[k] != k:
                k = live_from(k)
        for idx in sorted(touched):
            got, left = touched[idx], live[idx]
            if left == 1 or len(got) == 1:
                placed[idx] = got[0] if got else next(
                    starts[k] for k in slot_of[first[idx] : first[idx + 1]] if nxt[k] == k
                )
                queue.append(idx)
            elif left == 0 or got:
                dropped.append((idx, _AMBIGUOUS if got else _NO_CANDIDATE))
            else:
                continue  # several candidates, none confirmed yet
            live[idx] = 0
            for k in slot_of[first[idx] : first[idx + 1]]:
                nxt[k] = k + 1

    return placed, tuple(dropped), tuple(idx for idx in which.tolist() if live[idx])


# ---------------------------------------------------------------------------
# The trace stages of the decode pass


def _reconstruct(
    tr: Trace, params: TraceParams, book: IndexBook | None
) -> tuple[list[BitSeq], ReconReport, DecodeRecord]:
    """The trace stages of :func:`decode_reads`: anchor every read and place
    it by overlap matching, then decode every group's payload, reading
    zeros and rejecting the group where one does not decode.  Returns the
    group payloads, the report and the :class:`DecodeRecord`."""

    def place(reads: Reads, book: IndexBook) -> tuple[dict[int, int], dict]:
        lead, retried, anchored = _analyze_reads(reads, params, book)
        placed, dropped, pending = _place_all(
            reads, anchored[0], *_candidate_offsets(reads, *anchored, params), params
        )
        return placed, dict(
            failures=_FAILURES, lead=lead, retried=retried, dropped=dropped, pending=pending,
            payload_error="group {} payload is not a valid constrained string: {}",
        )

    def payloads(merged: np.ndarray, book: IndexBook) -> tuple[list[BitSeq], dict, tuple]:
        lay = _trace_layout(params)
        groups = np.arange(params.group_count)
        cnt = np.array([params.cnt(g) for g in groups])
        plains: dict[int, BitSeq | ValueError] = {}
        # groups of one size share a codec and are ranked in one batch
        for c in np.unique(cnt).tolist():
            same = groups[cnt == c]
            blocks = np.array([params.cum_blocks(g) for g in same])[:, None] + np.arange(c)
            at = (blocks * params.L_min)[:, :, None] + lay.v_offsets
            rows = merged[at.reshape(len(same), -1)]
            plains.update(zip(same.tolist(), _group_codec(params, int(same[0])).decode(rows)))
        rejected = {g: plains[g] for g in sorted(plains) if isinstance(plains[g], ValueError)}
        decoded = [
            BitSeq.zeros(_group_payload_len(params, g)) if g in rejected
            else _unmask_group(plains[g], g, params)
            for g in groups.tolist()
        ]
        return decoded, rejected, ()

    return decode_reads(tr, params, book, params.d1, 1, place, payloads)


def reconstruct_trace(
    tr: Trace, params: TraceParams, book: IndexBook | None = None
) -> ReconReport:
    """Locate every read, merge by majority, and invert the encoding.

    The report lists each read's offset and its disagreement with the merged
    string.  Besides a trace that does not fit the parameters, strict
    decoding raises for the earliest of: a read whose leading window does
    not anchor (``LayoutError`` when it finds no marker), a read placement
    drops, reads it leaves pending, uncovered positions, a group payload
    outside the constrained code.  When the
    input trace is reliable the merged string is the codeword and the
    returned message is exact; :class:`ReconReport` says what the reliable
    flag certifies.
    """
    _, report, record = _reconstruct(tr, params, book)
    record.verdict()
    return report


# ---------------------------------------------------------------------------
# Outer MDS hardening.  The 2^I group payloads are the blocks of the outer
# lanes (see outer.py), so tau wholly corrupted groups are recoverable.


def _outer(params: TraceParams, tau: int) -> Lanes:
    """The lanes across the group payloads.  Refuses params with inner
    violations, then with ``outer-uniform-groups`` (groups of unequal block
    counts) or those of :func:`~strandcode.outer.lanes`."""
    uneven = ("outer-uniform-groups",) * bool(params.n_L % params.group_count)
    return lanes(params, params.group_count, tau, _group_payload_len(params, 0), uneven)


def trace_rs_message_len(params: TraceParams, tau: int) -> int:
    return _outer(params, tau).message_len


def encode_trace_rs(
    m: BitSeq, params: TraceParams, tau: int, book: IndexBook | None = None
) -> BitSeq:
    """Encode with 2 * tau parity groups protecting against block corruption."""
    blocks = _outer(params, tau).encode(m)
    return encode_trace(sum(blocks, BitSeq.zeros(0)), params, book)


def reconstruct_trace_rs(
    tr: Trace, params: TraceParams, tau: int, book: IndexBook | None = None
) -> ReconReport:
    """Reconstruct and correct up to tau corrupted payload groups.

    No read or payload outcome that makes :func:`reconstruct_trace` raise
    is an error here: unplaced reads are dropped and gaps zero filled, so
    gaps and undecodable groups surface as block errors for the outer
    code, the undecodable ones as known bad.  More than tau bad groups
    raise ``DecodeFailure``, by lane decode failure or by the known and
    corrected groups outnumbering tau.  Any outer correction makes the
    result unreliable.  Bad params and a bad tau are refused before the
    trace is read.
    """
    code = _outer(params, tau)
    return code.decode(*_reconstruct(tr, params, book))


# ---------------------------------------------------------------------------
# Non-overlapping family: every block carries its own absolute index, so a
# read is located from its leading window alone and no overlap matching is
# needed.  It is the one-strand case of the indexed core in blocks.py,
# with the marker opening each block.


@dataclass(frozen=True)
class Gamma0Params(BlockGeometry):
    """Geometry for the non-overlapping (L_over = 0) block family."""

    n: int
    e: int
    L_min: int
    d: int
    ell: int
    I: int
    r_I: int
    K: int
    m_prime: int
    w_window: int
    w_floor: int
    a: float
    violations: tuple[str, ...] = ()

    @property
    def L_over(self) -> int:
        return 0

    @property
    def n_L(self) -> int:
        return math.ceil(self.n / self.L_min)

    @property
    def divisible(self) -> bool:
        return self.n % self.L_min == 0

    @property
    def message_blocks(self) -> int:
        return self.n_L if self.divisible else self.n_L - 1

    @property
    def k(self) -> int:
        return 1

    @property
    def strand_blocks(self) -> int:
        return self.n_L

    @property
    def marker_phase(self) -> int:
        return 0

    @property
    def rate(self) -> float:
        return (self.m_prime - self.d) / self.L_min


def derive_gamma0_params(
    n: int,
    e: int,
    *,
    a: float | None = None,
    L_min: int | None = None,
    K: int | None = None,
    r_I: int | None = None,
) -> Gamma0Params:
    """Block geometry for one strand of length n against e errors per read;
    malformed arguments raise ``ValueError``, failed inequalities are only
    recorded in ``violations``, for :func:`require_feasible` to refuse."""
    if n < 1 or e < 0:
        raise ValueError("need n >= 1 and e >= 0")
    logn = math.log2(n)
    if L_min is None:
        if a is None:
            raise ValueError("either a or L_min must be given")
        L_min = math.ceil(a * logn)
    if n < 2 * L_min:
        raise ValueError("need at least two blocks")
    I = max(1, math.ceil(math.log2(math.ceil(n / L_min))))
    if K is None:
        K = math.ceil(math.sqrt(logn))
    return Gamma0Params(
        n=n, e=e, L_min=L_min, I=I, K=K,
        a=a if a is not None else L_min / logn,
        **indexed_geometry(L_min, e, I, K, r_I),
    )


gamma0_message_len = indexed_message_len
gamma0_book = indexed_book


def encode_gamma0(m: BitSeq, params: Gamma0Params, book: IndexBook | None = None) -> BitSeq:
    """Block encoder with absolute per-block indices; rate (m' - d) / L_min.

    For lengths not divisible by the block size the final block carries a
    fixed all-zero message and is truncated.
    """
    return indexed_encode((m,), params, book)[0]


def reconstruct_gamma0(
    tr: Trace, params: Gamma0Params, book: IndexBook | None = None
) -> ReconReport:
    """Place every read independently, merge, and decode the block payloads.

    Strict decoding raises ``DecodeFailure`` on the first read whose
    leading window names no block it fits, then on uncovered positions; an
    undecodable payload block reads as zeros and only makes the report
    unreliable.
    """
    _, report, record = indexed_reconstruct(tr, params, book)
    record.verdict()
    return report
