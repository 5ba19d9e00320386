"""Pipeline encoder for sequences that are simultaneously window weight
limited and substring distant.

The encoder is a three-stage chain.  Stage one maps arbitrary message bits
into a weight-limited sequence with an enumerative codec.  Stage two
repeatedly rewrites the sequence until no two length-``L1`` windows are
within Hamming distance ``d - 1`` of each other, recording enough
information in each rewrite to undo it.  Stage three pads the result out to
the target length ``n`` with a self-locating scaffold so that the combined
string is substring distant at window ``L`` while staying weight limited.

Every length that the rewrite step relies on is checked explicitly when
parameters are derived; small ``n`` can legitimately be rejected.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import _bitops
from .bitseq import BitSeq, is_sd, is_wwl
from .constrained import (
    ConstrainedCodec,
    apply_dist,
    auto_cyclic,
    ceil_log2,
    enc_dist,
    index_wwl,
    index_wwl_decode,
    index_wwl_len,
)
from .errors import DecodeFailure, InfeasibleParameters, SearchExhausted, StrandcodeError

__all__ = [
    "SdParams",
    "derive_sd_params",
    "sd_message_len",
    "eliminate_close_pairs",
    "restore_close_pairs",
    "Scaffold",
    "build_scaffold",
    "scaffold_for",
    "expand_to_length",
    "contract_from_length",
    "encode_sd",
    "decode_sd",
]


# ----------------------------------------------------------------------
# parameter derivation


@dataclass(frozen=True)
class SdParams:
    """Derived lengths for the pipeline at a given (n, d).

    ``L1``/``K1`` govern the rewrite stage, ``L2``/``K2`` the scaffold,
    ``ell`` is the auto-cyclic marker length, and ``L`` is the window at
    which the final length-``n`` output is substring distant.  ``n_prime``
    is the exact number of message bits the pipeline carries.
    """

    n: int
    d: int
    L1: int
    K1: int
    L2: int
    K2: int
    K_max: int
    ell: int
    L: int
    n_prime: int
    violations: tuple = ()

    @property
    def feasible(self) -> bool:
        return not self.violations

    # -- layout of the rewrite stage --------------------------------

    @property
    def log_n(self) -> int:
        return ceil_log2(self.n)

    @property
    def llog(self) -> int:
        """ceil(log ceil(log n)), the base unit of all marker lengths."""
        return ceil_log2(ceil_log2(self.n))

    @property
    def zero_len(self) -> int:
        """Length of the all-zero stretch inside a rewrite marker."""
        return self.d * self.llog

    @property
    def pos_len(self) -> int:
        """Width of the weight-limited field recording a window index."""
        return self.log_n + self.d

    @property
    def diff_len(self) -> int:
        """Width of the fixed-size record of up to d-1 differing positions."""
        return (self.d - 1) * ceil_log2(self.L1 + 1)

    @property
    def tail_len(self) -> int:
        """Width of the field distinguishing the two rewrite branches."""
        return ceil_log2(self.d + 1)

    @property
    def insert_len(self) -> int:
        """Total length of one rewrite record; always < L1."""
        return 4 * self.d + self.zero_len + self.pos_len + self.diff_len + self.tail_len

    @property
    def inner_len(self) -> int:
        """Length of the stage-one output, sized so that the delimiter
        0^(K2+K_max) appended by stage three always fits inside n bits."""
        return self.n - self.K2 - self.K_max

    # -- layout of the scaffold -------------------------------------

    @property
    def piece_len(self) -> int:
        return self.L2 - self.K2 - self.ell

    @property
    def period(self) -> int:
        """Length of one scaffold segment 0^K_max | u | piece."""
        return self.L2 - self.K2 + self.K_max

    @property
    def n_pieces(self) -> int:
        return -(-self.n // self.period) + 1


@functools.lru_cache(maxsize=128)
def derive_sd_params(n: int, d: int, strict: bool = True) -> SdParams:
    """Compute all pipeline lengths for (n, d), verifying feasibility.

    The formulas are asymptotic and desk-scale n can fail them
    legitimately, so every inequality the pipeline relies on is evaluated
    outright.  In strict mode a violation raises
    :class:`InfeasibleParameters` naming the failed checks; otherwise the
    derived values are returned with the names in ``violations``.
    """
    if n < 4 or d < 1:
        raise ValueError("require n >= 4 and d >= 1")
    log_n = ceil_log2(n)
    llog = ceil_log2(log_n)
    L1 = log_n + (2 * d - 1) * llog + 6 * d + ceil_log2(d + 1)
    K1 = d * llog + d
    L2 = log_n + (3 * d + 7) * llog
    # K2 = 3 * ceil(1.5 * log2(L2)), computed exactly in integer arithmetic
    K2 = 3 * ((ceil_log2(L2**3) + 1) // 2)
    ell = d * ceil_log2(d) + 2 * d
    K_max = max(K1, K2)
    L = max(L1 + K2 + K_max + ell, L2 + 2 * K1 + K_max + ell)

    bad: list[str] = []

    def check(ok: bool, name: str, detail: str) -> None:
        if not ok:
            bad.append(f"{name}: {detail}")

    diff_len = (d - 1) * ceil_log2(L1 + 1)
    tail_len = ceil_log2(d + 1)
    insert_len = 4 * d + d * llog + (log_n + d) + diff_len + tail_len
    check(
        insert_len <= L1 - 1,
        "replacement-shrink",
        f"rewrite record is {insert_len} bits but must fit in L1-1={L1 - 1}",
    )
    check(
        diff_len + tail_len <= d * llog - 1,
        "marker-uniqueness",
        f"difference and branch fields span {diff_len + tail_len} bits, "
        f"enough to fake the {d * llog}-zero marker",
    )
    try:
        index_wwl_len(n, d)
    except ValueError as exc:
        bad.append(f"position-encoding capacity: {exc}")
    check(
        ell < K2 and K2 + ell < L2,
        "scaffold-geometry",
        f"need ell < K2 and K2+ell < L2, got ell={ell} K2={K2} L2={L2}",
    )
    inner = n - K2 - K_max
    check(inner >= 1, "interior-length", f"n={n} leaves no room after K2+K_max={K2 + K_max}")
    n_pieces = -(-n // (L2 - K2 + K_max)) + 1
    check(
        n_pieces * (L2 - K2 + K_max) >= n,
        "scaffold-length",
        "scaffold shorter than n",
    )
    if inner >= 1:
        n_prime = ConstrainedCodec(d * llog, d, inner).msg_len
    else:
        n_prime = 0
    check(n_prime >= 1, "message-capacity", "no message bits survive the constraints")
    if strict and bad:
        raise InfeasibleParameters("; ".join(bad))
    params = SdParams(n, d, L1, K1, L2, K2, K_max, ell, L, n_prime, tuple(bad))
    assert len(auto_cyclic(d)) == params.ell
    return params


def sd_message_len(n: int, d: int) -> int:
    """Number of message bits carried by one length-n encoded sequence."""
    return derive_sd_params(n, d).n_prime


@functools.lru_cache(maxsize=128)
def _inner_codec(n: int, d: int) -> ConstrainedCodec:
    p = derive_sd_params(n, d)
    return ConstrainedCodec(d * p.llog, d, p.inner_len)


# ----------------------------------------------------------------------
# stage two: close-pair elimination


def _rightmost_marker(x: BitSeq, d: int, zero_len: int) -> int | None:
    """Start of the rightmost run 1^d 0^zero_len, or None."""
    total = d + zero_len
    if len(x) < total:
        return None
    bits = x.to_numpy()
    zero_starts = _bitops.window_weights(bits, zero_len) == 0
    one_starts = _bitops.window_weights(bits, d) == d
    m = len(x) - total + 1
    hits = np.nonzero(one_starts[:m] & zero_starts[d : d + m])[0]
    if hits.size == 0:
        return None
    return int(hits.max())


def _has_zero_run(x: BitSeq, zero_len: int) -> bool:
    if len(x) < zero_len:
        return False
    return bool(np.any(_bitops.window_weights(x.to_numpy(), zero_len) == 0))


def _close_pairs_naive(bits: np.ndarray, L: int, rho: int) -> list[tuple[int, int, int]]:
    """Textbook all-pairs scan, kept as an oracle for the pigeonhole search."""
    m = bits.size - L + 1
    if m < 2:
        return []
    wins = _bitops.packed_windows(bits, L)
    out = []
    for j in range(1, m):
        dist = np.bitwise_count(wins[:j] ^ wins[j]).sum(axis=1)
        for i in np.nonzero(dist <= rho)[0]:
            out.append((int(i), j, int(dist[i])))
    out.sort(key=lambda p: (p[1], p[0]))
    return out


def eliminate_close_pairs(
    w: BitSeq,
    params: SdParams,
    *,
    trace: list | None = None,
    certify: bool = False,
) -> BitSeq:
    """Rewrite w until no two L1-windows are within distance d-1.

    Each iteration picks the primal close pair (smallest j, then smallest
    i) and replaces the window at j with a fixed-width record of (i, the
    window difference, a branch tag), framed by all-one runs and a unique
    all-zero marker.  The record is strictly shorter than the window it
    replaces, so the loop terminates; the primal rule keeps the newest
    record's marker rightmost, which is what the inverse exploits.

    ``trace``, if given, collects one dict per replacement with keys i, j,
    branch, len_after and marker_at, serialisable as JSON.
    """
    p = params
    d = p.d
    if p.violations:
        raise InfeasibleParameters("; ".join(p.violations))
    if len(w) != p.inner_len:
        raise ValueError(f"expected input of length {p.inner_len}, got {len(w)}")
    if not is_wwl(w, p.zero_len, d):
        raise ValueError("input is not weight limited at the required window")
    wbar = w
    j_p = 0
    count = 0
    max_repl = len(w) - p.L1 + 1
    while True:
        pairs = _bitops.close_pairs(wbar.to_numpy(), p.L1, d - 1)
        if not pairs:
            break
        i, j, _ = pairs[0]
        assert j > j_p - p.L1, "primal rule violated: stale pair survived a rewrite"
        x_i = wbar.window(i, p.L1)
        x_j = wbar.window(j, p.L1)
        branch = 1 if j > j_p - p.L1 + d else 2
        if branch == 2:
            # v in [1, d]; j_p + d is at or beyond the removed window, and
            # flipping it breaks the marker left over from the previous pass
            wbar = wbar.with_bit(j_p + d, 1)
            tail = BitSeq.from_int(j - j_p + p.L1, p.tail_len)
        else:
            tail = BitSeq.zeros(p.tail_len)
        record = (
            BitSeq.ones(d)
            + BitSeq.zeros(p.zero_len)
            + BitSeq.ones(d)
            + index_wwl(i, p.n, d)
            + BitSeq.ones(d)
            + enc_dist(x_i, x_j, p.L1, d - 1)
            + tail
            + BitSeq.ones(d)
        )
        assert len(record) == p.insert_len
        before = len(wbar)
        wbar = wbar.splice(j, p.L1, record)
        assert len(wbar) < before, "rewrite did not shrink the sequence"
        count += 1
        assert count <= max_repl, "more rewrites than windows"
        if trace is not None:
            trace.append(
                {
                    "i": i,
                    "j": j,
                    "branch": branch,
                    "len_after": len(wbar),
                    "marker_at": _rightmost_marker(wbar, d, p.zero_len),
                }
            )
        j_p = j
    if certify:
        if not is_sd(wbar, p.L1, d):
            raise StrandcodeError("certify: output not substring distant at L1")
        if not is_wwl(wbar, p.K1, d):
            raise StrandcodeError("certify: output not weight limited at K1")
    return wbar


def _parse_record(cur: BitSeq, j: int, p: SdParams):
    """Split the rewrite record starting at j into (i, diff-mask, branch tag)."""
    d = p.d
    if j + p.insert_len > len(cur):
        raise DecodeFailure("rewrite record truncated")
    off = j
    for ones_at in (off, off + d + p.zero_len, off + 2 * d + p.zero_len + p.pos_len):
        if cur.window_int(ones_at, d) != (1 << d) - 1:
            raise DecodeFailure("rewrite record framing damaged")
    if cur.window_int(j + p.insert_len - d, d) != (1 << d) - 1:
        raise DecodeFailure("rewrite record framing damaged")
    off = j + 2 * d + p.zero_len
    try:
        i = index_wwl_decode(cur.window(off, p.pos_len), p.n, d)
    except ValueError as exc:
        raise DecodeFailure(f"window index field invalid: {exc}") from None
    off += p.pos_len + d
    diff = cur.window(off, p.diff_len)
    off += p.diff_len
    v = cur.window_int(off, p.tail_len)
    return i, diff, v


def restore_close_pairs(wbar: BitSeq, params: SdParams) -> BitSeq:
    """Invert :func:`eliminate_close_pairs`.

    Repeatedly locates the rightmost marker, reconstructs the window the
    corresponding rewrite removed (directly from the window at i when
    disjoint, else by the shift recurrence across the overlap), splices it
    back, and clears the branch-2 repair bit when the tag is nonzero.
    """
    p = params
    d = p.d
    field = ceil_log2(p.L1 + 1)
    cur = wbar
    while True:
        j = _rightmost_marker(cur, d, p.zero_len)
        if j is None:
            if _has_zero_run(cur, p.zero_len):
                raise DecodeFailure("stray zero run without a marker")
            break
        i, diff, v = _parse_record(cur, j, p)
        if not 0 <= i < j:
            raise DecodeFailure(f"recorded window index {i} not left of {j}")
        mask = 0
        for k in range(d - 1):
            pos = diff.window_int(k * field, field)
            if pos == 0:
                break
            if pos > p.L1:
                raise DecodeFailure("difference position outside the window")
            mask |= 1 << (pos - 1)
        if i + p.L1 <= j:
            x_j = apply_dist(cur.window(i, p.L1), diff, p.L1, d - 1)
        else:
            # overlapping pair: the two windows shared their overlap, so the
            # removed window satisfies x_j[s] = x_j[s - (j - i)] ^ e[s] once
            # the first j - i bits are seeded from the untouched prefix
            shift = j - i
            known = cur.window_int(i, shift)
            val = 0
            for s in range(p.L1):
                if s < shift:
                    b = (known >> s) & 1
                else:
                    b = (val >> (s - shift)) & 1
                val |= (b ^ ((mask >> s) & 1)) << s
            x_j = BitSeq(val, p.L1)
        cur = cur.splice(j, p.insert_len, x_j)
        if len(cur) > p.inner_len:
            raise DecodeFailure("restored sequence exceeds the stage-one length")
        if v != 0:
            if v > d:
                raise DecodeFailure(f"branch tag {v} out of range")
            j_prev = j + p.L1 - v
            if j_prev + d >= len(cur):
                raise DecodeFailure("branch repair position out of range")
            cur = cur.with_bit(j_prev + d, 0)
    return cur


# ----------------------------------------------------------------------
# stage three: scaffold and length expansion


@dataclass(frozen=True)
class Scaffold:
    """Padding material for one (n, d, seed): pieces and their framed concat."""

    n: int
    d: int
    seed: int
    pieces: tuple
    sbar: BitSeq


def _piece_windows(concat_val: int, t: int, piece_len: int) -> list[tuple[int, int]]:
    """(start, packed window) pairs newly created by appending piece t."""
    lo = (t - 1) * piece_len + 1 if t > 0 else 0
    hi = t * piece_len
    mask = (1 << piece_len) - 1
    return [(q, (concat_val >> q) & mask) for q in range(lo, hi + 1)]


def _splices_wwl(cand: BitSeq, prev: BitSeq, K: int, d: int) -> bool:
    """Whether every splice cand[:j] + prev[j:], 0 < j < Ls, is (K, d)-weight
    limited, as :func:`is_wwl` would find each of them.

    The length-K window at a of splice j holds cand's bits over [a, c) and
    prev's over [c, a + K), c = clip(j, a, a + K), so the prefix sums of the
    two pieces give the weight of every window of every splice at once: one
    (Ls - 1, Ls - K + 1) array instead of Ls - 1 window scans.
    """
    Ls = len(cand)
    if Ls < max(K, 2):
        return True
    cc = np.concatenate([[0], np.cumsum(cand.to_numpy(), dtype=np.int64)])
    cp = np.concatenate([[0], np.cumsum(prev.to_numpy(), dtype=np.int64)])
    a = np.arange(Ls - K + 1)
    cut = np.clip(np.arange(1, Ls)[:, None], a, a + K)
    return int((cc[cut] - cc[a] + cp[a + K] - cp[cut]).min()) >= d


def build_scaffold(params: SdParams, seed: int = 0, max_tries: int = 200) -> Scaffold:
    """Draw the scaffold piece family for params and frame it.

    Pieces are drawn from the weight-limited codec at window K2 and kept
    only if every splice with the previous piece stays weight limited and
    every same-phase window of the running concatenation stays at distance
    >= d from the new ones.  Those checks are exactly the family conditions
    the framed concatenation needs in order to be substring distant.
    """
    p = params
    if p.violations:
        raise InfeasibleParameters("; ".join(p.violations))
    rng = np.random.default_rng(np.random.SeedSequence((seed, p.n, p.d)))
    codec = ConstrainedCodec(p.K2, p.d, p.piece_len)
    cap = codec.count(p.piece_len)
    Ls = p.piece_len
    use_np = Ls <= 64
    # same-phase window store; one growing buffer per phase
    cap_per_phase = p.n_pieces + 2
    if use_np:
        store = [np.empty(cap_per_phase, dtype=np.uint64) for _ in range(Ls)]
    else:
        store = [[] for _ in range(Ls)]
    counts = [0] * Ls
    pieces: list[BitSeq] = []
    concat_val = 0
    concat_len = 0
    attempts = 0
    while len(pieces) < p.n_pieces:
        attempts += 1
        if attempts > max_tries * p.n_pieces:
            raise SearchExhausted(
                f"no scaffold family of {p.n_pieces} pieces found in {attempts} draws"
            )
        idx = int.from_bytes(rng.bytes(16), "little") % cap
        cand = codec.unrank_from_start(idx, Ls)
        if pieces and not _splices_wwl(cand, pieces[-1], p.K2, p.d):
            continue
        t = len(pieces)
        trial_val = concat_val | (cand.value << concat_len)
        new_wins = _piece_windows(trial_val, t, Ls)
        ok = True
        for q, wv in new_wins:
            phase = q % Ls
            m = counts[phase]
            if m:
                if use_np:
                    old = store[phase][:m]
                    if int(np.bitwise_count(old ^ np.uint64(wv)).min()) < p.d:
                        ok = False
                        break
                else:
                    if min((o ^ wv).bit_count() for o in store[phase]) < p.d:
                        ok = False
                        break
        if not ok:
            continue
        for q, wv in new_wins:
            phase = q % Ls
            if use_np:
                store[phase][counts[phase]] = wv
            else:
                store[phase].append(wv)
            counts[phase] += 1
        pieces.append(cand)
        concat_val = trial_val
        concat_len += Ls
    u = auto_cyclic(p.d)
    sbar = BitSeq.zeros(0)
    for piece in pieces:
        sbar = sbar + BitSeq.zeros(p.K_max) + u + piece
    assert len(sbar) >= p.n
    return Scaffold(p.n, p.d, seed, tuple(pieces), sbar)


@functools.lru_cache(maxsize=16)
def scaffold_for(n: int, d: int, seed: int = 0) -> Scaffold:
    return build_scaffold(derive_sd_params(n, d), seed)


def expand_to_length(
    wbar: BitSeq, params: SdParams, scaffold: Scaffold, *, certify: bool = False
) -> BitSeq:
    """Append the K2 delimiter zeros and the scaffold, truncated to n bits."""
    p = params
    if len(wbar) > p.inner_len:
        raise ValueError(f"stage-two output longer than {p.inner_len}")
    if (scaffold.n, scaffold.d) != (p.n, p.d):
        raise ValueError("scaffold was built for different parameters")
    ext = wbar + BitSeq.zeros(p.K2) + scaffold.sbar
    if len(ext) < p.n:
        raise InfeasibleParameters(f"scaffold-length: padded length {len(ext)} < n={p.n}")
    out = ext.window(0, p.n)
    if certify:
        if not is_sd(out, p.L, p.d):
            raise StrandcodeError("certify: output not substring distant at L")
        if not is_wwl(out, 2 * (p.K1 + p.K2), p.d):
            raise StrandcodeError("certify: output not weight limited at 2(K1+K2)")
    return out


def contract_from_length(what: BitSeq, params: SdParams) -> BitSeq:
    """Strip the padding: the rightmost all-zero run of length K2+K_max
    starts exactly where the stage-two output ends."""
    p = params
    if len(what) != p.n:
        raise ValueError(f"expected length {p.n}, got {len(what)}")
    run = p.K2 + p.K_max
    zero_starts = _bitops.window_weights(what.to_numpy(), run) == 0
    hits = np.nonzero(zero_starts)[0]
    if hits.size == 0:
        raise DecodeFailure("delimiter run not found")
    return what.window(0, int(hits.max()))


# ----------------------------------------------------------------------
# full pipeline


def encode_sd(m: BitSeq, n: int, d: int, *, seed: int = 0, certify: bool = False) -> BitSeq:
    """Encode n_prime message bits into a length-n sequence that is
    (2(K1+K2), d)-weight-limited and (L, d)-substring-distant."""
    p = derive_sd_params(n, d)
    if len(m) != p.n_prime:
        raise ValueError(f"message must have {p.n_prime} bits, got {len(m)}")
    w = _inner_codec(n, d).encode(m)
    wbar = eliminate_close_pairs(w, p, certify=certify)
    return expand_to_length(wbar, p, scaffold_for(n, d, seed), certify=certify)


def decode_sd(what: BitSeq, n: int, d: int) -> BitSeq:
    """Invert :func:`encode_sd`; the scaffold seed is not needed."""
    p = derive_sd_params(n, d)
    wbar = contract_from_length(what, p)
    w = restore_close_pairs(wbar, p)
    return _inner_codec(n, d).decode(w)
