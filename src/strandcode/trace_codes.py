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

Also here: the length-truncating variant for block counts that do not divide
the string length, an outer MDS layer that survives whole-block corruption,
and the non-overlapping family whose blocks carry absolute indices.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from operator import itemgetter

import numpy as np

from .bitseq import BitSeq, is_sd, majority_merge
from .channel import Trace
from .constrained import ConstrainedCodec, auto_cyclic
from .errors import DecodeFailure, InfeasibleParameters, LayoutError, SearchExhausted
from .positioning import IndexBook, build_index_book, default_r_I, find_marker, locate_index

__all__ = [
    "TraceParams",
    "Gamma0Params",
    "ReconReport",
    "derive_trace_params",
    "trace_message_len",
    "trace_book",
    "encode_trace",
    "encode_trace_nondiv",
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
_CERT_ROUNDS = 8

# in-block position kinds
_MARK, _FLAG, _V, _C = 0, 1, 2, 3


# ---------------------------------------------------------------------------
# GF(256) arithmetic and a small Reed-Solomon lane codec.  Lanes run across
# the per-group payload blocks: byte s of every block forms one codeword, so
# corrupting a whole block corrupts at most one symbol per lane.

_GF_EXP = [0] * 512
_GF_LOG = [0] * 256


def _gf_init() -> None:
    x = 1
    for i in range(255):
        _GF_EXP[i] = x
        _GF_LOG[x] = i
        x <<= 1
        if x & 0x100:
            x ^= 0x11D
    for i in range(255, 512):
        _GF_EXP[i] = _GF_EXP[i - 255]


_gf_init()


def _gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return _GF_EXP[_GF_LOG[a] + _GF_LOG[b]]


def _gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("no inverse of zero")
    return _GF_EXP[255 - _GF_LOG[a]]


def _poly_eval(coeffs: list[int], x: int) -> int:
    """Evaluate sum(coeffs[i] * x^i)."""
    acc = 0
    xp = 1
    for c in coeffs:
        acc ^= _gf_mul(c, xp)
        xp = _gf_mul(xp, x)
    return acc


def _rs_encode(data: list[int], nsym: int) -> list[int]:
    """Systematic encoding: return data followed by nsym parity symbols."""
    if nsym == 0:
        return list(data)
    gen = [1]
    for i in range(nsym):
        nxt = [0] * (len(gen) + 1)
        for j, g in enumerate(gen):
            nxt[j] ^= _gf_mul(g, _GF_EXP[i])
            nxt[j + 1] ^= g
        gen = nxt
    # synthetic division of data * x^nsym by the (monic) generator
    rem = [0] * nsym
    for d in data:
        factor = d ^ rem[-1]
        rem = [0] + rem[:-1]
        if factor:
            for j in range(nsym):
                rem[j] ^= _gf_mul(gen[j], factor)
    return list(data) + rem[::-1]


def _rs_syndromes(word: list[int], nsym: int) -> list[int]:
    n = len(word)
    # word[j] is the coefficient of x^(n-1-j)
    return [_poly_eval(word[::-1], _GF_EXP[i]) for i in range(nsym)]


def _rs_decode(word: list[int], nsym: int) -> tuple[list[int], list[int]]:
    """Correct up to nsym // 2 symbol errors; return (fixed, error positions).

    Locator from Berlekamp-Massey, roots by scanning the field, magnitudes by
    solving the syndrome equations directly and checking every equation.
    """
    n = len(word)
    synd = _rs_syndromes(word, nsym)
    if not any(synd):
        return list(word), []
    # Berlekamp-Massey for the error locator (lowest degree first)
    lam = [1]
    prev = [1]
    l_count = 0
    m = 1
    b = 1
    for i in range(nsym):
        delta = synd[i]
        for j in range(1, l_count + 1):
            if j < len(lam):
                delta ^= _gf_mul(lam[j], synd[i - j])
        if delta == 0:
            m += 1
        elif 2 * l_count <= i:
            old = list(lam)
            scale = _gf_mul(delta, _gf_inv(b))
            shifted = [0] * m + prev
            lam = [a ^ _gf_mul(scale, c) for a, c in _zip_pad(lam, shifted)]
            l_count = i + 1 - l_count
            prev = old
            b = delta
            m = 1
        else:
            scale = _gf_mul(delta, _gf_inv(b))
            shifted = [0] * m + prev
            lam = [a ^ _gf_mul(scale, c) for a, c in _zip_pad(lam, shifted)]
            m += 1
    if l_count * 2 > nsym:
        raise DecodeFailure("too many symbol errors for the outer code")
    # roots of the locator give the error location values X = alpha^(n-1-pos)
    positions = []
    for log_x in range(255):
        x = _GF_EXP[log_x]
        if _poly_eval(lam, _gf_inv(x)) == 0:
            pos = n - 1 - log_x
            if not 0 <= pos < n:
                raise DecodeFailure("outer code error location out of range")
            positions.append(pos)
    if len(positions) != l_count:
        raise DecodeFailure("outer code locator roots do not match its degree")
    # solve for magnitudes: synd[i] = sum_k e_k X_k^i
    xs = [_GF_EXP[(n - 1 - p) % 255] for p in positions]
    mags = _solve_vandermonde(xs, synd[: len(xs)])
    for i in range(nsym):
        check = 0
        for xk, ek in zip(xs, mags):
            check ^= _gf_mul(ek, _gf_pow(xk, i))
        if check != synd[i]:
            raise DecodeFailure("outer code syndrome equations are inconsistent")
    fixed = list(word)
    for p, ek in zip(positions, mags):
        fixed[p] ^= ek
    return fixed, sorted(positions)


def _zip_pad(a: list[int], b: list[int]):
    la, lb = len(a), len(b)
    if la < lb:
        a = a + [0] * (lb - la)
    elif lb < la:
        b = b + [0] * (la - lb)
    return zip(a, b)


def _gf_pow(a: int, p: int) -> int:
    if a == 0:
        return 0 if p else 1
    return _GF_EXP[(_GF_LOG[a] * p) % 255]


def _solve_vandermonde(xs: list[int], rhs: list[int]) -> list[int]:
    """Gaussian elimination for sum_k e_k xs[k]^i = rhs[i]."""
    t = len(xs)
    mat = [[_gf_pow(x, i) for x in xs] + [rhs[i]] for i in range(t)]
    for col in range(t):
        pivot = next((r for r in range(col, t) if mat[r][col]), None)
        if pivot is None:
            raise DecodeFailure("outer code magnitude system is singular")
        mat[col], mat[pivot] = mat[pivot], mat[col]
        inv = _gf_inv(mat[col][col])
        mat[col] = [_gf_mul(v, inv) for v in mat[col]]
        for r in range(t):
            if r != col and mat[r][col]:
                f = mat[r][col]
                mat[r] = [v ^ _gf_mul(f, w) for v, w in zip(mat[r], mat[col])]
    return [mat[r][t] for r in range(t)]


# ---------------------------------------------------------------------------
# Parameters


@dataclass(frozen=True)
class TraceParams:
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
    def marker_len(self) -> int:
        return self.K + self.ell

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

    @property
    def feasible(self) -> bool:
        return not self.violations

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
    if strict and violations:
        raise InfeasibleParameters(
            "infeasible block geometry: " + ", ".join(violations)
        )
    return params


@lru_cache(maxsize=None)
def _codec(window: int, floor: int, n_out: int, chunk: int) -> ConstrainedCodec:
    return ConstrainedCodec(window, floor, n_out, chunk=chunk)


def _group_codec(params: TraceParams, i: int, ext: bool = False) -> ConstrainedCodec:
    n_out = params.N(i) + (params.v_per_block if ext else 0)
    return _codec(params.v_window, params.v_floor, n_out, params.v_per_block)


def _group_payload_len(params: TraceParams, i: int) -> int:
    return _group_codec(params, i).msg_len - SALT_BITS


def trace_message_len(params: TraceParams) -> int:
    """Total message bits carried by one codeword."""
    return sum(_group_payload_len(params, i) for i in range(params.group_count))


def trace_book(params: TraceParams, seed: int = 0) -> IndexBook:
    return build_index_book(params.I, params.d1, params.K, r_I=params.r_I, seed=seed)


def _check_book(params, book: IndexBook, d: int) -> None:
    if (book.I, book.r_I, book.d, book.K_marker) != (params.I, params.r_I, d, params.K):
        raise ValueError("index book does not match the parameters")


def _check_trace_meta(tr: Trace, params) -> None:
    if tr.k != 1:
        raise LayoutError("expected a single-strand trace")
    if tr.n != params.n or tr.L_min != params.L_min or tr.L_over != params.L_over:
        raise LayoutError("trace geometry does not match the code parameters")
    if tr.e > params.e:
        raise LayoutError("trace error budget exceeds the code tolerance")


# ---------------------------------------------------------------------------
# Block layout


@dataclass(frozen=True, eq=False)  # hashed by identity, as a cache key
class _Layout:
    kind: np.ndarray
    csub: np.ndarray
    vsub: np.ndarray
    v_offsets: np.ndarray
    c_offsets: np.ndarray


def _split_widths(total: int, parts: int) -> list[int]:
    base, extra = divmod(total, parts)
    return [base + 1 if h < extra else base for h in range(parts)]


def _build_layout(L_min: int, segments: list[tuple[int, int]]) -> _Layout:
    kind = np.full(L_min, -1, dtype=np.int8)
    csub = np.full(L_min, -1, dtype=np.int32)
    vsub = np.full(L_min, -1, dtype=np.int32)
    pos = 0
    nc = nv = 0
    for k, width in segments:
        kind[pos : pos + width] = k
        if k == _C:
            csub[pos : pos + width] = np.arange(nc, nc + width)
            nc += width
        elif k == _V:
            vsub[pos : pos + width] = np.arange(nv, nv + width)
            nv += width
        pos += width
    assert pos == L_min
    return _Layout(
        kind=kind,
        csub=csub,
        vsub=vsub,
        v_offsets=np.flatnonzero(kind == _V),
        c_offsets=np.flatnonzero(kind == _C),
    )


@lru_cache(maxsize=None)
def _trace_layout(params: TraceParams) -> _Layout:
    width = params.I + params.r_I
    vw = _split_widths(params.v_per_block, params.F)
    cw = _split_widths(width, params.F)
    segs = [(_MARK, params.marker_len), (_FLAG, params.d1)]
    for h in range(params.F):
        segs.append((_V, vw[h]))
        segs.append((_C, cw[h]))
    return _build_layout(params.L_min, segs)


@lru_cache(maxsize=None)
def _gamma0_layout(params: "Gamma0Params") -> _Layout:
    width = params.I + params.r_I
    segs = [(_MARK, params.marker_len), (_C, width), (_V, params.m_prime)]
    return _build_layout(params.L_min, segs)


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
    return np.resize(_trace_layout(params).kind == _V, params.n)


def _layover_v_counts(params, layout: _Layout) -> int:
    """Smallest number of payload positions seen by any L_over window."""
    vmask = np.resize(layout.kind == _V, params.n)
    if params.L_over <= 0 or params.n < params.L_over:
        return 0
    csum = np.concatenate([[0], np.cumsum(vmask)])
    counts = csum[params.L_over :] - csum[: params.n - params.L_over + 1]
    return int(counts.min())


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
        f"no salt yields a substring-distant payload for group {group}"
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


def _marker_offenders(
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


def _encode(m: BitSeq, params: TraceParams, book: IndexBook, extend: bool) -> BitSeq:
    if not params.feasible:
        raise InfeasibleParameters(
            "cannot encode with violated geometry: " + ", ".join(params.violations)
        )
    _check_book(params, book, params.d1)
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
        ext = extend and g == G - 1
        v, t = _encode_group(pieces[g], g, params, start, ext)
        vs[g] = v.to_numpy()
        salts[g] = t

    for g in range(G):
        build(g, 0)
    for _ in range(_CERT_ROUNDS):
        w = _assemble(params, book, vs)
        offenders = _marker_offenders(
            w, params.L_min, params.d1, book.marker.to_numpy(), blocks.total
        )
        groups = {int(blocks.group[b]) for b in offenders}
        if not groups:
            return BitSeq.from_numpy(w)
        for g in sorted(groups):
            build(g, salts[g] + 1)
    raise SearchExhausted("marker uniqueness not reached after re-salting")


def encode_trace(m: BitSeq, params: TraceParams, book: IndexBook | None = None) -> BitSeq:
    """Encode a message into one block-structured string of length n.

    Requires the block length to divide n; see encode_trace_nondiv for the
    truncating variant.
    """
    if not params.feasible:
        raise InfeasibleParameters(
            "cannot encode with violated geometry: " + ", ".join(params.violations)
        )
    if params.n % params.L_min:
        raise ValueError("block length does not divide n; use the truncating encoder")
    book = book if book is not None else trace_book(params)
    w = _encode(m, params, book, extend=False)
    assert len(w) == params.n
    return w


def encode_trace_nondiv(m: BitSeq, params: TraceParams, book: IndexBook | None = None) -> BitSeq:
    """Truncating encoder for block lengths that do not divide n.

    The last group's payload is extended by one redundant block worth of
    constrained symbols, a full extra block is appended, and the result is
    cut back to n bits; every message bit stays inside the surviving whole
    blocks, so the decoder never needs the cut tail.
    """
    if params.n % params.L_min == 0:
        raise ValueError("block length divides n; use the plain encoder")
    book = book if book is not None else trace_book(params)
    w = _encode(m, params, book, extend=True)
    assert len(w) == params.n
    return w


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


def _split_index_window(win: BitSeq, q: int, lay: _Layout, width: int) -> tuple[BitSeq, BitSeq, int]:
    """Index bits of an aligned window split at the block boundary.

    Positions before the boundary belong to the previous block and carry a
    suffix of its index codeword (S); positions after carry a prefix of the
    next one (P).  Returns (S, P, len(P)).
    """
    s_pos, p_pos = _index_positions(lay, q, width)
    arr = win.to_numpy()
    return BitSeq.from_numpy(arr[s_pos]), BitSeq.from_numpy(arr[p_pos]), len(p_pos)


@lru_cache(maxsize=None)
def _index_positions(lay: _Layout, q: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Window positions of S and of P, each in codeword order, for a
    window whose block boundary is at q."""
    L_min = len(lay.kind)
    offs = (np.arange(L_min) - q) % L_min
    sel = lay.kind[offs] == _C
    tpos = np.flatnonzero(sel)
    subs = lay.csub[offs[sel]]
    at = tpos >= q
    mu = int(at.sum())
    assert np.array_equal(np.sort(subs[at]), np.arange(mu))
    assert np.array_equal(np.sort(subs[~at]), np.arange(mu, width))
    return tpos[~at][np.argsort(subs[~at])], tpos[at][np.argsort(subs[at])]


def _read_flag(y: BitSeq, b: int, params: TraceParams) -> int | None:
    start = b + params.marker_len
    if start + params.d1 > len(y):
        return None
    ones = y.window(start, params.d1).weight()
    return 1 if 2 * ones > params.d1 else 0


def _anchor_trace(
    y: BitSeq, s: int, q: int, params: TraceParams, book: IndexBook, lay: _Layout
) -> tuple[int, bool, int, int | None]:
    """Identify the group at (or just before) the boundary seen at s + q."""
    width = params.I + params.r_I
    win = y.window(s, params.L_min)
    S, P, mu = _split_index_window(win, q, lay, width)
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
    lay: _Layout,
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


def _merge_placed(
    tr: Trace, placed: dict[int, int], n: int, lenient: bool
) -> tuple[np.ndarray, tuple[int, ...], bool]:
    votes = np.zeros((n, 2), dtype=np.int64)
    for idx, off in placed.items():
        arr = tr.fragments[idx].bits.to_numpy()
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


@dataclass
class _ReconState:
    merged: np.ndarray
    located: tuple[tuple[int | None, int | None], ...]
    tie_positions: tuple[int, ...]
    payloads: list[BitSeq]
    corrupted_groups: set[int]
    skipped: set[int]
    gaps: bool
    max_err: int


def _reconstruct(tr: Trace, params: TraceParams, book: IndexBook, lenient: bool) -> _ReconState:
    lay = _trace_layout(params)
    infos: list[_FragInfo] = []
    unlocated: set[int] = set()
    for idx, frag in enumerate(tr.fragments):
        if len(frag.bits) < params.L_min:
            raise LayoutError("a read is shorter than the block length")
        info = _analyze_read(idx, frag.bits, params, book, lay, lenient)
        if info is None:
            unlocated.add(idx)
        else:
            infos.append(info)
    placed, skipped = _place_all(infos, params, lenient)
    skipped |= unlocated
    arrs = {info.idx: info.arr for info in infos}

    merged, tie_pos, gaps = _merge_placed(tr, placed, params.n, lenient)
    payloads, corrupted = _extract_group_payloads(merged, params, lenient)

    located = []
    max_err = 0
    for idx in range(len(tr.fragments)):
        if idx in placed:
            off = placed[idx]
            arr = arrs[idx]
            err = int((arr != merged[off : off + len(arr)]).sum())
            max_err = max(max_err, err)
            located.append((off, err))
        else:
            located.append((None, None))
    return _ReconState(
        merged=merged,
        located=tuple(located),
        tie_positions=tie_pos,
        payloads=payloads,
        corrupted_groups=corrupted,
        skipped=skipped,
        gaps=gaps,
        max_err=max_err,
    )


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
    book = book if book is not None else trace_book(params)
    _check_trace_meta(tr, params)
    _check_book(params, book, params.d1)
    st = _reconstruct(tr, params, book, lenient=False)
    message = BitSeq.zeros(0)
    for p in st.payloads:
        message = message + p
    reliable = (
        not st.skipped
        and not st.gaps
        and not st.tie_positions
        and st.max_err <= params.e
    )
    return ReconReport(
        message=message,
        located=st.located,
        tie_positions=st.tie_positions,
        reliable=reliable,
    )


# ---------------------------------------------------------------------------
# Outer MDS hardening.  The per-group payloads are rounded down to whole
# bytes; byte s across the groups forms one Reed-Solomon lane of length 2^I
# with 2 * tau parity symbols, so tau whole-group corruptions cost each lane
# at most tau symbols, and the union of corrected positions over the lanes
# recovers which groups were bad.


def _rs_geometry(params: TraceParams, tau: int) -> tuple[int, int, int]:
    G = params.group_count
    if tau < 0 or 2 * tau >= G:
        raise ValueError("need 0 <= 2 * tau < 2^I")
    if G > 255:
        raise InfeasibleParameters("outer code length 2^I exceeds the field size")
    if params.n_L % G:
        raise InfeasibleParameters(
            "outer code needs uniform groups: 2^I must divide the block count"
        )
    payload = _group_payload_len(params, 0)
    lane_bytes = payload // 8
    if lane_bytes < 1:
        raise InfeasibleParameters("group payload too small for one outer symbol")
    return G, lane_bytes, lane_bytes * 8


def trace_rs_message_len(params: TraceParams, tau: int) -> int:
    G, _, block_bits = _rs_geometry(params, tau)
    return (G - 2 * tau) * block_bits


def _block_bytes(block: BitSeq, lane_bytes: int) -> list[int]:
    return [block.window_int(8 * s, 8) for s in range(lane_bytes)]


def encode_trace_rs(
    m: BitSeq, params: TraceParams, tau: int, book: IndexBook | None = None
) -> BitSeq:
    """Encode with 2 * tau parity groups protecting against block corruption."""
    G, lane_bytes, block_bits = _rs_geometry(params, tau)
    want = trace_rs_message_len(params, tau)
    if len(m) != want:
        raise ValueError(f"message must have {want} bits, got {len(m)}")
    data = [m.window(i * block_bits, block_bits) for i in range(G - 2 * tau)]
    lanes = [_block_bytes(b, lane_bytes) for b in data]
    parity_bytes = [[0] * lane_bytes for _ in range(2 * tau)]
    for s in range(lane_bytes):
        word = _rs_encode([lanes[i][s] for i in range(len(data))], 2 * tau)
        for j in range(2 * tau):
            parity_bytes[j][s] = word[len(data) + j]
    blocks = list(data)
    for j in range(2 * tau):
        bits = BitSeq.zeros(0)
        for s in range(lane_bytes):
            bits = bits + BitSeq.from_int(parity_bytes[j][s], 8)
        blocks.append(bits)
    pad = _group_payload_len(params, 0) - block_bits
    full = BitSeq.zeros(0)
    for b in blocks:
        full = full + b + BitSeq.zeros(pad)
    book = book if book is not None else trace_book(params)
    if params.divisible:
        return encode_trace(full, params, book)
    return encode_trace_nondiv(full, params, book)


def reconstruct_trace_rs(
    tr: Trace, params: TraceParams, tau: int, book: IndexBook | None = None
) -> ReconReport:
    """Reconstruct and correct up to tau corrupted payload groups.

    Reads that cannot be located or matched are dropped rather than trusted;
    coverage gaps and undecodable groups then surface as block errors for
    the outer code.  More than tau bad groups is reported as a failure, by
    lane decode failure or by the corrected positions outnumbering tau.
    """
    G, lane_bytes, block_bits = _rs_geometry(params, tau)
    book = book if book is not None else trace_book(params)
    _check_trace_meta(tr, params)
    _check_book(params, book, params.d1)
    st = _reconstruct(tr, params, book, lenient=True)

    words = [_block_bytes(p.window(0, block_bits), lane_bytes) for p in st.payloads]
    bad: set[int] = set(st.corrupted_groups)
    fixed = [list(w) for w in words]
    for s in range(lane_bytes):
        word = [words[i][s] for i in range(G)]
        out, positions = _rs_decode(word, 2 * tau)
        bad.update(positions)
        for i in range(G):
            fixed[i][s] = out[i]
    if len(bad) > tau:
        raise DecodeFailure(
            f"{len(bad)} corrupted payload groups exceed the outer budget {tau}"
        )
    message = BitSeq.zeros(0)
    for i in range(G - 2 * tau):
        for s in range(lane_bytes):
            message = message + BitSeq.from_int(fixed[i][s], 8)
    reliable = (
        not st.skipped
        and not st.gaps
        and not st.tie_positions
        and not st.corrupted_groups
        and not bad
        and st.max_err <= params.e
    )
    return ReconReport(
        message=message,
        located=st.located,
        tie_positions=st.tie_positions,
        reliable=reliable,
    )


# ---------------------------------------------------------------------------
# Non-overlapping family: every block carries its own absolute index, so a
# read is located from its leading window alone and no overlap matching is
# needed.


@dataclass(frozen=True)
class Gamma0Params:
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
    def marker_len(self) -> int:
        return self.K + self.ell

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
    def feasible(self) -> bool:
        return not self.violations

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
    d = 2 * e + 1
    ell = len(auto_cyclic(d))
    n_L = math.ceil(n / L_min)
    I = max(1, math.ceil(math.log2(n_L)))
    if K is None:
        K = math.ceil(math.sqrt(logn))
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
        cap = _codec(w_window, w_floor, m_prime, 512).msg_len
        if cap < m_prime - d:
            violations.append("payload-capacity")

    params = Gamma0Params(
        n=n, e=e, L_min=L_min, d=d, ell=ell, I=I, r_I=r_I, K=K,
        m_prime=m_prime, w_window=w_window, w_floor=w_floor,
        a=a if a is not None else L_min / logn,
        violations=tuple(violations),
    )
    if strict and violations:
        raise InfeasibleParameters(
            "infeasible block geometry: " + ", ".join(violations)
        )
    return params


def gamma0_message_len(params: Gamma0Params) -> int:
    return params.message_blocks * (params.m_prime - params.d)


def gamma0_book(params: Gamma0Params, seed: int = 0) -> IndexBook:
    return build_index_book(params.I, params.d, params.K, r_I=params.r_I, seed=seed)


def _gamma0_codec(params: Gamma0Params) -> ConstrainedCodec:
    return _codec(params.w_window, params.w_floor, params.m_prime, 512)


def encode_gamma0(m: BitSeq, params: Gamma0Params, book: IndexBook | None = None) -> BitSeq:
    """Block encoder with absolute per-block indices; rate (m' - d) / L_min.

    For lengths not divisible by the block size the final block carries a
    fixed all-zero message and is truncated.
    """
    if not params.feasible:
        raise InfeasibleParameters(
            "cannot encode with violated geometry: " + ", ".join(params.violations)
        )
    book = book if book is not None else gamma0_book(params)
    _check_book(params, book, params.d)
    want = gamma0_message_len(params)
    if len(m) != want:
        raise ValueError(f"message must have {want} bits, got {len(m)}")
    codec = _gamma0_codec(params)
    body = params.m_prime - params.d
    pad = BitSeq.zeros(codec.msg_len - body)
    lay = _gamma0_layout(params)
    out = np.zeros(params.n_L * params.L_min, dtype=np.uint8)
    marker = book.marker.to_numpy()
    for i in range(params.n_L):
        if i < params.message_blocks:
            m_i = m.window(i * body, body)
        else:
            m_i = BitSeq.zeros(body)
        w_i = codec.encode(m_i + pad)
        base = i * params.L_min
        out[base : base + params.marker_len] = marker
        out[base + lay.c_offsets] = book.codewords[i].to_numpy()
        out[base + lay.v_offsets] = w_i.to_numpy()
    w = out[: params.n]
    offenders = _marker_offenders(w, params.L_min, params.d, marker, params.n_L)
    if offenders:
        raise SearchExhausted(
            "weight-limited payload still collided with the marker pattern"
        )
    return BitSeq.from_numpy(w)


def _locate_read_gamma0(
    y: BitSeq, params: Gamma0Params, book: IndexBook, lay: _Layout
) -> int:
    """Absolute offset of one read, from its leading window alone."""
    width = params.I + params.r_I
    q = find_marker(y.window(0, params.L_min), book, params.e)
    S, P, mu = _split_index_window(y.window(0, params.L_min), q, lay, width)
    if mu == width:
        i_at = locate_index(P, book)
    else:
        i_at = locate_index(S + P, book) + 1
    if i_at >= params.n_L:
        raise DecodeFailure("block index runs past the last block")
    off = i_at * params.L_min - q
    if off < 0 or off + len(y) > params.n:
        raise DecodeFailure("located read does not fit inside the string")
    return off


def reconstruct_gamma0(
    tr: Trace, params: Gamma0Params, book: IndexBook | None = None
) -> ReconReport:
    """Place every read independently, merge, and decode the block payloads."""
    book = book if book is not None else gamma0_book(params)
    _check_trace_meta(tr, params)
    _check_book(params, book, params.d)
    lay = _gamma0_layout(params)
    placed: dict[int, int] = {}
    for idx, frag in enumerate(tr.fragments):
        if len(frag.bits) < params.L_min:
            raise LayoutError("a read is shorter than the block length")
        placed[idx] = _locate_read_gamma0(frag.bits, params, book, lay)
    merged, tie_pos, _gaps = _merge_placed(tr, placed, params.n, lenient=False)

    codec = _gamma0_codec(params)
    body = params.m_prime - params.d
    message = BitSeq.zeros(0)
    damaged = False
    for i in range(params.message_blocks):
        base = i * params.L_min
        w_i = BitSeq.from_numpy(merged[base + lay.v_offsets])
        try:
            plain = codec.decode(w_i)
        except ValueError:
            # corrupted payload bits can leave the constrained code; the
            # block's location is still known, so report zeros and let the
            # reliability audit fail rather than abort
            damaged = True
            plain = BitSeq.zeros(codec.msg_len)
        message = message + plain.window(0, body)

    located = []
    max_err = 0
    for idx in range(len(tr.fragments)):
        off = placed[idx]
        arr = tr.fragments[idx].bits.to_numpy()
        err = int((arr != merged[off : off + len(arr)]).sum())
        max_err = max(max_err, err)
        located.append((off, err))
    reliable = not tie_pos and not damaged and max_err <= params.e
    return ReconReport(
        message=message,
        located=tuple(located),
        tie_positions=tie_pos,
        reliable=reliable,
    )
