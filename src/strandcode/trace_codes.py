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

Also here: the outer Reed-Solomon hardening across groups that survives
whole-group corruption (lanes in :mod:`strandcode.outer`), and the params
and entry points of the non-overlapping family whose blocks carry absolute
indices.  That family runs on the indexed core of
:mod:`strandcode.blocks`, shared with the interleaved multi-strand family;
the layout, index split, marker scan, majority merge and
:class:`ReconReport` come from there too.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from operator import itemgetter

import numpy as np

from .bitseq import BitSeq, is_sd
from .blocks import (
    FLAG,
    MARK,
    C,
    V,
    BlockGeometry,
    Layout,
    ReconReport,
    build_layout,
    check_book,
    check_trace,
    codec,
    indexed_book,
    indexed_encode,
    indexed_geometry,
    indexed_reconstruct,
    make_report,
    marker_offenders,
    merge_placed,
    require_feasible,
    split_index_window,
)
from .channel import Trace
from .constrained import ConstrainedCodec, auto_cyclic
from .errors import DecodeFailure, InfeasibleParameters, LayoutError, SearchExhausted
from .outer import lane_decode, lane_encode, lane_message_len
from .positioning import IndexBook, build_index_book, default_r_I, find_marker, locate_index

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
# the shared codec table; perfbench checks its misses under this name
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
    F: int | None = None,
    L: int | None = None,
    strict: bool = True,
) -> TraceParams:
    """Resolve the block geometry and check every inequality decoding uses.

    The regime constants ``a`` and ``gamma`` size ``L_min`` and ``L_over``;
    at small ``n`` the literal formulas are often infeasible, so any of the
    geometry knobs can be pinned explicitly and only the structural checks
    remain.  With ``strict`` a violated inequality raises; otherwise the
    violations are recorded on the returned params.
    """
    if n < 1 or e < 0:
        raise ValueError("need n >= 1 and e >= 0")
    if a is not None and gamma is not None:
        if not a > 1:
            raise ValueError("regime requires a > 1")
        if not 0 <= a * gamma <= 1:
            raise ValueError("regime requires 0 <= a * gamma <= 1")
        if not 0 < eps < 0.5:
            raise ValueError("regime requires 0 < eps < 0.5")
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
    if F is None:
        F = max(1, math.ceil((I + r_I) / K))

    r = I + r_I + K + ell + d1
    v_per_block = L_min - r
    if v_per_block < 1:
        violations.append("payload-space")
    if K + ell + d1 > L_over:
        violations.append("marker-window")
    if L is None:
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
        cap = ConstrainedCodec(v_window, v_floor, n_min, chunk=v_per_block).msg_len
        if cap <= SALT_BITS:
            violations.append("block-capacity")

    params = TraceParams(
        n=n, e=e, L_min=L_min, L_over=L_over, d1=d1, d2=d2, ell=ell,
        I=I, r_I=r_I, K=K, F=F, L=L, v_window=v_window, v_floor=v_floor,
        a=a_eff, gamma=g_eff, violations=tuple(violations),
    )
    if strict:
        require_feasible(params, "infeasible block geometry")
    return params


def _group_codec(params: TraceParams, i: int, ext: bool = False) -> ConstrainedCodec:
    n_out = params.N(i) + (params.v_per_block if ext else 0)
    return codec(params.v_window, params.v_floor, n_out, params.v_per_block)


def _group_payload_len(params: TraceParams, i: int) -> int:
    return _group_codec(params, i).msg_len - SALT_BITS


def trace_message_len(params: TraceParams) -> int:
    """Total message bits carried by one codeword."""
    return sum(_group_payload_len(params, i) for i in range(params.group_count))


def trace_book(params: TraceParams, seed: int = 0) -> IndexBook:
    return build_index_book(params.I, params.d1, params.K, r_I=params.r_I, seed=seed)


# ---------------------------------------------------------------------------
# Block layout


def _split_widths(total: int, parts: int) -> list[int]:
    base, extra = divmod(total, parts)
    return [base + 1 if h < extra else base for h in range(parts)]


@lru_cache(maxsize=None)
def _trace_layout(params: TraceParams) -> Layout:
    width = params.I + params.r_I
    vw = _split_widths(params.v_per_block, params.F)
    cw = _split_widths(width, params.F)
    segs = [(MARK, params.marker_len), (FLAG, params.d1)]
    for h in range(params.F):
        segs.append((V, vw[h]))
        segs.append((C, cw[h]))
    return build_layout(params.L_min, segs)


@dataclass(frozen=True)
class _Blocks:
    total: int
    group: list[int]  # non-decreasing: each group is a run of blocks
    is_start: list[bool]

    def span(self, g: int) -> tuple[int, int]:
        """First block of group g and the block after its last."""
        return bisect_left(self.group, g), bisect_right(self.group, g)


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
    return _Blocks(total=total, group=group.tolist(), is_start=is_start.tolist())


@lru_cache(maxsize=None)
def _payload_mask(params: TraceParams) -> np.ndarray:
    """Whether each position of the codeword carries a payload bit."""
    return np.resize(_trace_layout(params).kind == V, params.n)


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


def _decode_group(vbits: BitSeq, group: int, params: TraceParams) -> BitSeq:
    plain = _group_codec(params, group).decode(vbits)
    t = plain.window_int(0, SALT_BITS)
    body = plain.window(SALT_BITS, len(plain) - SALT_BITS)
    return body.xor(_mask_bits(params, group, t, len(body)))


# ---------------------------------------------------------------------------
# Encoding


def _assemble(params: TraceParams, book: IndexBook, vs: dict[int, np.ndarray]) -> np.ndarray:
    lay = _trace_layout(params)
    blocks = _block_table(params)
    L_min = params.L_min
    out = np.zeros(blocks.total * L_min, dtype=np.uint8)
    marker = book.marker.to_numpy()
    for B in range(blocks.total):
        g = int(blocks.group[B])
        j = B - params.cum_blocks(g)
        base = B * L_min
        out[base : base + params.marker_len] = marker
        if j != 0:
            out[base + params.marker_len : base + params.marker_len + params.d1] = 1
        piece = vs[g][j * params.v_per_block : (j + 1) * params.v_per_block]
        out[base + lay.v_offsets] = piece
        out[base + lay.c_offsets] = book.codewords[g].to_numpy()
    return out[: params.n]


def encode_trace(m: BitSeq, params: TraceParams, book: IndexBook | None = None) -> BitSeq:
    """Encode a message into one block-structured string of length n.

    When the block length does not divide n, the last group's payload is
    extended by one redundant block worth of constrained symbols, a full
    extra block is appended, and the result is cut back to n bits; every
    message bit stays inside the surviving whole blocks, so the decoder
    never needs the cut tail.

    Each group's payload is scrambled with the first salt whose encoding is
    substring distant.  The assembled word is then scanned for near-markers
    away from the block starts, and every group holding one is re-encoded
    from its next salt; the scan repeats until it comes back clean.  The
    loop has no round cap: each round moves at least one group to a higher
    salt, so a word takes at most 2^I * 2^SALT_BITS rounds, and the encoder
    raises ``SearchExhausted`` only when some group runs out of its
    2^SALT_BITS salts.
    """
    require_feasible(params)
    book = book if book is not None else trace_book(params)
    check_book(params, book, params.d1)
    if tuple(book.segment_widths) != tuple(
        _split_widths(params.I + params.r_I, params.F)
    ):
        raise ValueError("book segmentation does not match F")
    want = trace_message_len(params)
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
    vs: dict[int, np.ndarray] = {}

    def build(g: int, start: int) -> None:
        ext = g == G - 1 and not params.divisible
        v, t = _encode_group(pieces[g], g, params, start, ext)
        vs[g] = v.to_numpy()
        salts[g] = t

    for g in range(G):
        build(g, 0)
    while True:
        w = _assemble(params, book, vs)
        offenders = marker_offenders(
            w, params.L_min, params.d1, book.marker.to_numpy(), blocks.total
        )
        groups = {int(blocks.group[b]) for b in offenders}
        if not groups:
            assert w.size == params.n
            return BitSeq.from_numpy(w)
        for g in sorted(groups):
            build(g, salts[g] + 1)


# ---------------------------------------------------------------------------
# Fragment analysis


@dataclass
class _FragInfo:
    idx: int
    arr: np.ndarray
    boundaries: list[int]
    flags: list[int | None]
    groups: list[int | None]
    anchor_pos: int
    anchor_group: int
    anchor_at: bool


def _read_flag(y: BitSeq, b: int, params: TraceParams) -> int | None:
    start = b + params.marker_len
    if start + params.d1 > len(y):
        return None
    ones = y.window(start, params.d1).weight()
    return 1 if 2 * ones > params.d1 else 0


def _anchor_trace(
    y: BitSeq, s: int, q: int, params: TraceParams, book: IndexBook, lay: Layout
) -> tuple[int, bool, int, int | None]:
    """Identify the group at (or just before) the boundary seen at s + q."""
    width = params.I + params.r_I
    win = y.window(s, params.L_min)
    S, P, mu = split_index_window(win, q, lay, width)
    pos = s + q
    flag = _read_flag(y, pos, params)
    if mu == width:
        return pos, True, locate_index(P, book), flag
    if mu == 0:
        gp = locate_index(S, book)
        if flag is None:
            return pos, False, gp, None
        g = gp + (1 if flag == 0 else 0)
        if g >= params.group_count:
            raise DecodeFailure("group index runs past the last group")
        return pos, True, g, flag
    assert flag is not None
    if flag == 1:
        return pos, True, locate_index(P + S, book), flag
    g = locate_index(S + P, book) + 1
    if g >= params.group_count:
        raise DecodeFailure("group index runs past the last group")
    return pos, True, g, flag


def _analyze_read(
    idx: int,
    y: BitSeq,
    params: TraceParams,
    book: IndexBook,
    lay: Layout,
    lenient: bool,
) -> _FragInfo | None:
    """Locate block boundaries, flags, and the anchor group inside one read.

    In the lenient mode a failing leading window is retried at every later
    offset, which salvages reads whose head covers corrupted material.
    """
    L_min = params.L_min
    offsets = range(len(y) - L_min + 1) if lenient else range(1)
    last: Exception | None = None
    for s in offsets:
        try:
            q = find_marker(y.window(s, L_min), book, params.e)
            pos, know_at, group, _aflag = _anchor_trace(y, s, q, params, book, lay)
        except (LayoutError, DecodeFailure) as exc:
            last = exc
            continue
        b0 = pos % L_min
        boundaries = list(range(b0, len(y), L_min))
        flags = [_read_flag(y, b, params) for b in boundaries]
        groups: list[int | None] = [None] * len(boundaries)
        anchor_block = pos if know_at else pos - L_min
        if anchor_block >= 0:
            ai = boundaries.index(anchor_block)
            groups[ai] = group
            for t in range(ai + 1, len(boundaries)):
                f = flags[t]
                if f is None or groups[t - 1] is None:
                    break
                groups[t] = groups[t - 1] + (1 if f == 0 else 0)
                if groups[t] >= params.group_count:
                    raise DecodeFailure("group chain runs past the last group")
            for t in range(ai - 1, -1, -1):
                f = flags[t + 1]
                if f is None or groups[t + 1] is None:
                    break
                groups[t] = groups[t + 1] - (1 if f == 0 else 0)
                if groups[t] < 0:
                    raise DecodeFailure("group chain runs below the first group")
        return _FragInfo(
            idx=idx,
            arr=y.to_numpy(),
            boundaries=boundaries,
            flags=flags,
            groups=groups,
            anchor_pos=pos,
            anchor_group=group,
            anchor_at=know_at,
        )
    if lenient:
        return None
    assert last is not None
    raise last


def _candidate_offsets(info: _FragInfo, params: TraceParams) -> list[int]:
    """Ascending offsets at which the read's boundaries, flags and known
    groups all agree with the block table.  Only the blocks of one group
    are tried, so the cost does not grow with the number of groups."""
    blocks = _block_table(params)
    L_min = params.L_min
    ln = len(info.arr)
    known = [
        (b, g) for b, g in zip(info.boundaries, info.groups) if g is not None
    ]
    if known:
        b_ref, g_ref = known[0]
        first, end = blocks.span(g_ref)
        shift = -b_ref
    else:
        # only the block ending at the anchor is identified
        first, end = blocks.span(info.anchor_group)
        shift = L_min - info.anchor_pos
    out = []
    for off in range(first * L_min + shift, end * L_min + shift, L_min):
        if off < 0 or off + ln > params.n:
            continue
        ok = True
        for b, f, g in zip(info.boundaries, info.flags, info.groups):
            B = (off + b) // L_min
            if B >= blocks.total:
                ok = False
                break
            if f is not None and (f == 0) != blocks.is_start[B]:
                ok = False
                break
            if g is not None and blocks.group[B] != g:
                ok = False
                break
        if ok:
            out.append(off)
    return out


# ---------------------------------------------------------------------------
# Placement by overlap matching


def _overlap_matches(
    a_arr: np.ndarray, a_off: int, b_arr: np.ndarray, b_off: int, params
) -> bool:
    """Compare two placements that overlap by at least L_over positions.

    Returns whether their disagreement on the payload positions they share
    stays within the 2e error budget.  A wrong alignment differs from the
    truth on a full substring-distant window and cannot pass.
    """
    lo = max(a_off, b_off)
    hi = min(a_off + len(a_arr), b_off + len(b_arr))
    differ = a_arr[lo - a_off : hi - a_off] != b_arr[lo - b_off : hi - b_off]
    return np.count_nonzero(differ & _payload_mask(params)[lo:hi]) <= 2 * params.e


def _place_all(
    infos: list[_FragInfo], params: TraceParams, lenient: bool
) -> tuple[dict[int, int], set[int]]:
    """Place reads by overlap matching, starting from the self-evident ones.

    A read whose candidate offsets are already decided (one candidate, or one
    confirmed by overlap) is placed; every placed read then checks the
    pending candidates it overlaps, confirming or discarding them, until no
    placement changes.

    The sweep indexes each pending candidate ``(idx, off)`` under every
    L_min block its span ``[off, off + len)`` covers, so a placed read visits
    only the candidates in its own blocks instead of every pending read, and
    checks those it overlaps by at least L_over positions.  Entries of
    discarded candidates and settled reads are dropped lazily when their
    block is next visited.  Outputs match a scan over all pending reads
    exactly: a placed read's hits are handled by ascending read index
    (``infos`` arrive in that order), then by ascending offset, and each
    read is settled after all of its hits.  The cost is
    O(reads * candidates * blocks per read).
    """
    L_min, L_over = params.L_min, params.L_over
    placed: dict[int, int] = {}
    skipped: set[int] = set()
    arrs = {info.idx: info.arr for info in infos}

    # candidate state: per pending read a dict offset -> anchored flag
    pending: dict[int, dict[int, bool]] = {}
    # block -> (idx, off, end, first block) of each candidate span over it
    by_block: dict[int, list[tuple[int, int, int, int]]] = {}
    queue: list[int] = []

    def settle(idx: int) -> None:
        cands = pending[idx]
        if not cands:
            if lenient:
                skipped.add(idx)
                del pending[idx]
                return
            raise DecodeFailure(
                "a read admits no placement consistent with the others; "
                "the trace violates its error budget"
            )
        anchored = [off for off, a in cands.items() if a]
        chosen: int | None = None
        if len(cands) == 1:
            chosen = next(iter(cands))
        elif len(anchored) == 1:
            chosen = anchored[0]
        elif len(anchored) > 1:
            if lenient:
                skipped.add(idx)
                del pending[idx]
                return
            raise DecodeFailure(
                "read placement is ambiguous; distinct positions matched "
                "within the error budget"
            )
        if chosen is not None:
            placed[idx] = chosen
            del pending[idx]
            queue.append(idx)

    for info in infos:
        cands = _candidate_offsets(info, params)
        pending[info.idx] = {off: False for off in cands}
        for off in cands:
            end = off + len(info.arr)
            first = off // L_min
            for b in range(first, (end - 1) // L_min + 1):
                by_block.setdefault(b, []).append((info.idx, off, end, first))
    for idx in list(pending):
        if idx in pending:
            settle(idx)

    while queue:
        z = queue.pop()
        z_arr, z_lo = arrs[z], placed[z]
        z_hi = z_lo + len(z_arr)
        b_lo = z_lo // L_min
        hits: list[tuple[int, int]] = []
        for b in range(b_lo, (z_hi - 1) // L_min + 1):
            entries = by_block.get(b)
            if not entries:
                continue
            live = [e for e in entries if e[1] in pending.get(e[0], ())]
            by_block[b] = live
            for idx, off, end, first in live:
                # a candidate over several of z's blocks is taken at the first
                if first != b and b != b_lo:
                    continue
                # an overlap shorter than L_over carries no information
                if (end if end < z_hi else z_hi) - (off if off > z_lo else z_lo) >= L_over:
                    hits.append((idx, off))
        hits.sort()
        for idx, group in groupby(hits, key=itemgetter(0)):
            cands = pending[idx]
            for _, off in group:
                if _overlap_matches(arrs[idx], off, z_arr, z_lo, params):
                    cands[off] = True
                else:
                    del cands[off]
            settle(idx)

    if pending:
        if not lenient:
            raise DecodeFailure(
                "some reads could not be anchored by overlap matching; "
                "the trace does not cover the string contiguously"
            )
        skipped.update(pending)
    return placed, skipped


# ---------------------------------------------------------------------------
# Payload extraction and report


def _extract_group_payloads(
    merged: np.ndarray, params: TraceParams, lenient: bool
) -> tuple[list[BitSeq], set[int]]:
    lay = _trace_layout(params)
    payloads: list[BitSeq] = []
    corrupted: set[int] = set()
    for g in range(params.group_count):
        base_block = params.cum_blocks(g)
        rows = []
        for j in range(params.cnt(g)):
            base = (base_block + j) * params.L_min
            rows.append(merged[base + lay.v_offsets])
        vbits = BitSeq.from_numpy(np.concatenate(rows))
        try:
            payloads.append(_decode_group(vbits, g, params))
        except ValueError as exc:
            if not lenient:
                raise DecodeFailure(
                    f"group {g} payload is not a valid constrained string: {exc}"
                ) from exc
            corrupted.add(g)
            payloads.append(BitSeq.zeros(_group_payload_len(params, g)))
    return payloads, corrupted


def _reconstruct(
    tr: Trace, params: TraceParams, book: IndexBook | None, lenient: bool
) -> tuple[list[BitSeq], ReconReport, set[int]]:
    """Place, merge and decode; return the group payloads, the report and
    the groups whose payload did not decode (lenient decoding only)."""
    book = book if book is not None else trace_book(params)
    check_trace(tr, params, 1)
    check_book(params, book, params.d1)
    lay = _trace_layout(params)
    infos: list[_FragInfo] = []
    unlocated: set[int] = set()
    for idx, frag in enumerate(tr.fragments):
        info = _analyze_read(idx, frag.bits, params, book, lay, lenient)
        if info is None:
            unlocated.add(idx)
        else:
            infos.append(info)
    placed, skipped = _place_all(infos, params, lenient)
    skipped |= unlocated
    arrs = {info.idx: info.arr for info in infos}

    merged, tie_pos, gaps = merge_placed(arrs, placed, params.n, lenient)
    payloads, corrupted = _extract_group_payloads(merged, params, lenient)
    report = make_report(
        sum(payloads, BitSeq.zeros(0)), len(tr.fragments), arrs, placed, merged,
        tie_pos, not skipped and not gaps and not corrupted, params.e,
    )
    return payloads, report, corrupted


def reconstruct_trace(
    tr: Trace, params: TraceParams, book: IndexBook | None = None
) -> ReconReport:
    """Locate every read, merge by majority, and invert the encoding.

    The report lists each read's offset and its disagreement with the merged
    string.  The reliable flag is a consistency audit: every read placed, no
    coverage gaps, no majority ties, and every disagreement within e.  When
    the input trace is reliable the merged string is the codeword and the
    returned message is exact.
    """
    return _reconstruct(tr, params, book, lenient=False)[1]


# ---------------------------------------------------------------------------
# Outer MDS hardening.  The 2^I group payloads are the blocks of the outer
# lanes (see outer.py), so tau wholly corrupted groups are recoverable.


def _outer_payload_bits(params: TraceParams) -> int:
    if params.n_L % params.group_count:
        raise InfeasibleParameters(
            "outer code needs uniform groups: 2^I must divide the block count"
        )
    return _group_payload_len(params, 0)


def trace_rs_message_len(params: TraceParams, tau: int) -> int:
    return lane_message_len(params.group_count, tau, _outer_payload_bits(params))


def encode_trace_rs(
    m: BitSeq, params: TraceParams, tau: int, book: IndexBook | None = None
) -> BitSeq:
    """Encode with 2 * tau parity groups protecting against block corruption."""
    blocks = lane_encode(m, params.group_count, tau, _outer_payload_bits(params))
    return encode_trace(sum(blocks, BitSeq.zeros(0)), params, book)


def reconstruct_trace_rs(
    tr: Trace, params: TraceParams, tau: int, book: IndexBook | None = None
) -> ReconReport:
    """Reconstruct and correct up to tau corrupted payload groups.

    Reads that cannot be located or matched are dropped rather than trusted;
    coverage gaps and undecodable groups then surface as block errors for
    the outer code.  More than tau bad groups is reported as a failure, by
    lane decode failure or by the corrected positions outnumbering tau.
    Any outer correction makes the result unreliable.
    """
    trace_rs_message_len(params, tau)  # checks the outer geometry first
    payloads, report, corrupted = _reconstruct(tr, params, book, lenient=True)
    message, corrected = lane_decode(payloads, tau, corrupted)
    return dataclasses.replace(
        report, message=message, reliable=report.reliable and not corrected
    )


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
    strict: bool = True,
) -> Gamma0Params:
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
    params = Gamma0Params(
        n=n, e=e, L_min=L_min, I=I, K=K,
        a=a if a is not None else L_min / logn,
        **indexed_geometry(L_min, e, I, K, r_I),
    )
    if strict:
        require_feasible(params, "infeasible block geometry")
    return params


def gamma0_message_len(params: Gamma0Params) -> int:
    return params.message_blocks * (params.m_prime - params.d)


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
    """Place every read independently, merge, and decode the block payloads."""
    return indexed_reconstruct(tr, params, book, lenient=False)[1]
