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
from dataclasses import dataclass, replace

import numpy as np

from . import _bitops
from .bitseq import BitSeq, is_sd, is_wwl
from .constrained import (
    apply_dist,
    auto_cyclic,
    ceil_log2,
    codec,
    enc_dist,
    index_wwl,
    index_wwl_decode,
    index_wwl_len,
)
from .errors import DecodeFailure, SearchExhausted, StrandcodeError, require_feasible

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
def derive_sd_params(n: int, d: int) -> SdParams:
    """Compute all pipeline lengths for (n, d) and check their feasibility.

    The formulas are asymptotic and desk-scale n can fail them
    legitimately, so every inequality the pipeline relies on is evaluated
    outright.  Malformed arguments raise ``ValueError``; failed checks are
    only recorded in ``violations``, for :func:`require_feasible` to refuse.
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
    p = SdParams(n, d, L1, K1, L2, K2, K_max, ell, L, n_prime=0)

    bad: list[str] = []

    def check(ok: bool, name: str, detail: str) -> None:
        if not ok:
            bad.append(f"{name}: {detail}")

    check(
        p.insert_len <= L1 - 1,
        "replacement-shrink",
        f"rewrite record is {p.insert_len} bits but must fit in L1-1={L1 - 1}",
    )
    check(
        p.diff_len + p.tail_len <= p.zero_len - 1,
        "marker-uniqueness",
        f"difference and branch fields span {p.diff_len + p.tail_len} bits, "
        f"enough to fake the {p.zero_len}-zero marker",
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
    check(
        p.inner_len >= 1, "interior-length", f"n={n} leaves no room after K2+K_max={K2 + K_max}"
    )
    n_prime = codec(p.zero_len, d, p.inner_len).msg_len if p.inner_len >= 1 else 0
    check(n_prime >= 1, "message-capacity", "no message bits survive the constraints")
    assert len(auto_cyclic(d)) == ell
    return replace(p, n_prime=n_prime, violations=tuple(bad))


def sd_message_len(n: int, d: int) -> int:
    """Number of message bits carried by one length-n encoded sequence."""
    return require_feasible(derive_sd_params(n, d)).n_prime


# ----------------------------------------------------------------------
# stage two: close-pair elimination


def _run_starts(v: int, k: int) -> int:
    """Bit t set where bits t .. t + k - 1 of v are all set (k >= 1)."""
    width = 1
    while width < k:
        step = min(width, k - width)
        v &= v >> step
        width += step
    return v


def _rightmost_marker(x: BitSeq, d: int, zero_len: int) -> tuple[int | None, bool]:
    """Start of the rightmost run 1^d 0^zero_len, or None, and whether x
    holds a run 0^zero_len at all.  Found with shifts and ANDs of the
    word's integer, O(n log(zero_len) / 64) word steps and no array: a
    marker is a zero run whose d bits before it are all ones."""
    zeros = _run_starts(x.value ^ ((1 << len(x)) - 1), zero_len)
    marked = zeros & (_run_starts(x.value, d) << d)
    return (marked.bit_length() - 1 - d if marked else None), bool(zeros)


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

    One :class:`_bitops.PrimalScan` finds every primal pair.  A rewrite
    leaves the windows before j - L1 + 1 as they were, so the scan keeps
    their index and resumes there: r rewrites cost O(n + r * L1) windows
    and the scan's chunk sorts, a few seconds for the 2,969 of the
    all-zero message at n=65537, d=3.

    ``trace``, if given, collects one dict per replacement with keys i, j,
    branch, len_after and marker_at, serialisable as JSON.
    """
    p = require_feasible(params)
    d = p.d
    if len(w) != p.inner_len:
        raise ValueError(f"expected input of length {p.inner_len}, got {len(w)}")
    if not is_wwl(w, p.zero_len, d):
        raise ValueError("input is not weight limited at the required window")
    wbar = w
    j_p = 0
    count = 0
    max_repl = len(w) - p.L1 + 1
    shift = p.L1 - p.insert_len
    scan = _bitops.PrimalScan(w.to_numpy(), p.L1, d - 1)
    while (pair := scan.first()) is not None:
        i, j = pair
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
        # windows before j - L1 + 1 are kept; after the record and branch 2's bit, shifted
        lo = max(j - p.L1 + 1, 0)
        end = j + p.insert_len if branch == 1 else j_p + d - shift + 1
        end = min(end + p.L1 - 1, len(wbar))
        scan.edit(lo, wbar.window(lo, end - lo).to_numpy(), shift)
        if trace is not None:
            trace.append(
                {
                    "i": i,
                    "j": j,
                    "branch": branch,
                    "len_after": len(wbar),
                    "marker_at": _rightmost_marker(wbar, d, p.zero_len)[0],
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


def _unroll_overlap(seed: int, mask: int, shift: int, L1: int) -> int:
    """The L1 bits x with x[s] = seed[s] ^ mask[s] for s < shift and
    x[s - shift] ^ mask[s] after: (seed ^ mask) times 1 + z^shift +
    z^(2 shift) + ... over GF(2), the sum built by doubling."""
    x = seed ^ mask
    while shift < L1:
        x ^= x << shift
        shift *= 2
    return x & ((1 << L1) - 1)


def restore_close_pairs(wbar: BitSeq, params: SdParams) -> BitSeq:
    """Invert :func:`eliminate_close_pairs`.

    Repeatedly locates the rightmost marker, reconstructs the window the
    corresponding rewrite removed (directly from the window at i when
    disjoint, else by the shift recurrence across the overlap), splices it
    back, and clears the branch-2 repair bit when the tag is nonzero.  A
    word that does not come back at the stage-one length is a decode failure.
    """
    p = params
    d = p.d
    cur = wbar
    while len(cur) <= p.inner_len:
        j, zero_run = _rightmost_marker(cur, d, p.zero_len)
        if j is None:
            if zero_run:
                raise DecodeFailure("stray zero run without a marker")
            break
        i, diff, v = _parse_record(cur, j, p)
        if not 0 <= i < j:
            raise DecodeFailure(f"recorded window index {i} not left of {j}")
        try:
            mask = apply_dist(BitSeq.zeros(p.L1), diff, p.L1, d - 1).value
        except ValueError:
            raise DecodeFailure("difference position outside the window") from None
        if i + p.L1 <= j:
            x_j = BitSeq(cur.window_int(i, p.L1) ^ mask, p.L1)
        else:
            # overlapping pair: the two windows shared their overlap, so the
            # removed window satisfies x_j[s] = x_j[s - (j - i)] ^ e[s] once
            # the first j - i bits are seeded from the untouched prefix
            x_j = BitSeq(_unroll_overlap(cur.window_int(i, j - i), mask, j - i, p.L1), p.L1)
        cur = cur.splice(j, p.insert_len, x_j)
        if v != 0:
            if v > d:
                raise DecodeFailure(f"branch tag {v} out of range")
            j_prev = j + p.L1 - v
            if j_prev + d >= len(cur):
                raise DecodeFailure("branch repair position out of range")
            cur = cur.with_bit(j_prev + d, 0)
    if len(cur) != p.inner_len:
        raise DecodeFailure(f"restored sequence has length {len(cur)}, not {p.inner_len}")
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


def build_scaffold(params: SdParams, seed: int = 0, max_tries: int = 200) -> Scaffold:
    """Draw the scaffold piece family for params and frame it.

    Pieces are drawn from the weight-limited codec at window K2 and kept
    only if every splice with the previous piece stays weight limited and
    every same-phase window of the running concatenation stays at distance
    >= d from the new ones.  Those checks are exactly the family conditions
    the framed concatenation needs in order to be substring distant.

    Draws are unranked and checked in speculative batches, each as if
    every draw before it were kept: as many as pieces are missing, within
    ``max_tries`` draws per piece in all.  The draws before the first that
    fails are kept and those after it start the next batch, so the family
    is the one a draw-by-draw search finds.  The splice check is
    :func:`_bitops.splices_wwl`, which also certifies index books
    (:func:`positioning.certify_book`).  The distance check is exact:
    :func:`_bitops.close_pairs` of the kept and drawn pieces' chain pairs
    all its windows within d - 1 of each other.
    """
    p = require_feasible(params)
    rng = np.random.default_rng(np.random.SeedSequence((seed, p.n, p.d)))
    pieces_codec = codec(p.K2, p.d, p.piece_len)
    cap = pieces_codec.count(p.piece_len)
    Ls, budget = p.piece_len, max_tries * p.n_pieces
    pieces = np.empty((p.n_pieces, Ls), dtype=np.uint8)
    drawn: list[np.ndarray] = []
    t = taken = 0
    while t < p.n_pieces:
        k = min(p.n_pieces - t - len(drawn), budget - taken)
        if k > 0:  # one call draws the bytes of k calls of 16 bytes each
            raw, taken = rng.bytes(16 * k), taken + k
            idx = [int.from_bytes(raw[i : i + 16], "little") % cap for i in range(0, 16 * k, 16)]
            drawn += list(pieces_codec.unrank_from_start(idx, Ls))
        if not drawn:
            raise SearchExhausted(f"no scaffold family of {p.n_pieces} pieces found in {budget} draws")
        batch = np.array(drawn)
        k = len(batch)
        # each draw's predecessor; piece 0 has none, so its splice passes
        prev = np.concatenate([pieces[t - 1 : t] if t else batch[:1], batch[:-1]])
        spliced = _bitops.splices_wwl(batch, prev, p.K2, p.d)
        spliced[0] |= t == 0
        kept = k if spliced.all() else int(np.argmin(spliced))
        # window q of the pieces' chain ends in piece (q + Ls - 1) // Ls; two
        # kept pieces are never close, so every close pair ends in the batch
        chain = np.concatenate([pieces[:t].ravel(), batch.ravel()])
        j = [j for i, j, _ in _bitops.close_pairs(chain, Ls, p.d - 1) if (j - i) % Ls == 0]
        if j:
            kept = min(kept, (min(j) + Ls - 1) // Ls - t)
        pieces[t : t + kept] = batch[:kept]
        t, drawn = t + kept, drawn[kept + 1 :]
    frame = np.concatenate([np.zeros(p.K_max, dtype=np.uint8), auto_cyclic(p.d).to_numpy()])
    sbar = BitSeq.from_numpy(np.hstack([np.tile(frame, (p.n_pieces, 1)), pieces]).ravel())
    assert len(sbar) >= p.n
    return Scaffold(p.n, p.d, seed, tuple(map(BitSeq.from_numpy, pieces)), sbar)


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
        raise ValueError(f"scaffold too short: padded length {len(ext)} < n={p.n}")
    out = ext.window(0, p.n)
    if certify:
        if not is_sd(out, p.L, p.d):
            raise StrandcodeError("certify: output not substring distant at L")
        if not is_wwl(out, 2 * (p.K1 + p.K2), p.d):
            raise StrandcodeError("certify: output not weight limited at 2(K1+K2)")
    return out


def contract_from_length(what: BitSeq, params: SdParams) -> BitSeq:
    """Strip the padding: the rightmost all-zero run of length K2+K_max
    starts exactly where the stage-two output ends.  Found as a marker's
    zero run is, in shifts and ANDs of the word's integer."""
    p = params
    if len(what) != p.n:
        raise ValueError(f"expected length {p.n}, got {len(what)}")
    zeros = _run_starts(what.value ^ ((1 << p.n) - 1), p.K2 + p.K_max)
    if not zeros:
        raise DecodeFailure("delimiter run not found")
    return what.window(0, zeros.bit_length() - 1)


# ----------------------------------------------------------------------
# full pipeline


def encode_sd(m: BitSeq, n: int, d: int, *, seed: int = 0, certify: bool = False) -> BitSeq:
    """Encode n_prime message bits into a length-n sequence that is
    (2(K1+K2), d)-weight-limited and (L, d)-substring-distant."""
    p = require_feasible(derive_sd_params(n, d))
    if len(m) != p.n_prime:
        raise ValueError(f"message must have {p.n_prime} bits, got {len(m)}")
    w = codec(p.zero_len, d, p.inner_len).encode(m)
    wbar = eliminate_close_pairs(w, p, certify=certify)
    return expand_to_length(wbar, p, scaffold_for(n, d, seed), certify=certify)


def decode_sd(what: BitSeq, n: int, d: int) -> BitSeq:
    """Invert :func:`encode_sd`; the scaffold seed is not needed."""
    p = require_feasible(derive_sd_params(n, d))
    wbar = contract_from_length(what, p)
    w = restore_close_pairs(wbar, p)
    (plain,) = codec(p.zero_len, d, p.inner_len).decode(w.to_numpy()[None])
    if isinstance(plain, ValueError):
        raise DecodeFailure(f"inner code rejects the word: {plain}") from plain
    return plain
