"""Codes that spread one message over a set of fixed-length strands.

Two constructions.  The wrapped family encodes once at the superstring
length ``k * (n - L_over) + L_over`` with the single-strand overlapping
code and slices the result into ``k`` length-``n`` windows at stride
``n - L_over``; consecutive strands then repeat each other's seam verbatim,
so the union of the per-strand read sets is itself a legal trace of the
superstring and decodes with the ordinary machinery.  The interleaved
family keeps the strands disjoint and instead gives every block of every
strand an absolute index from one shared book, so a single read names its
(strand, offset) pair outright; an outer MDS layer across strands then
buys back wholly corrupted or missing strands.  This module holds the strand
sets, the wrapped family and the interleaved family's params and entry
points; the interleaved family runs on the indexed core of
:mod:`strandcode.blocks`, shared with the single-strand γ=0 code; its
outer layer's lanes across the strand messages, refusal and decode policy
are :func:`strandcode.outer.lanes`.

Strand sets are multisets: order never matters, duplicates are counted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bitseq import BitSeq
from .blocks import (
    BlockGeometry,
    ReconReport,
    check_trace,
    checked_book,
    indexed_book,
    indexed_encode,
    indexed_geometry,
    indexed_locate,
    indexed_message_len,
    indexed_reconstruct,
    load_reads,
)
from .channel import ChannelConfig, Fragment, Trace, fragment
from .errors import DecodeFailure, LayoutError, json_int, require_feasible
from .outer import Lanes, lanes
from .positioning import IndexBook
from .trace_codes import TraceParams, encode_trace, reconstruct_trace

__all__ = [
    "StrandSet",
    "strandset_to_json",
    "strandset_from_json",
    "fragment_strands",
    "wrap_length",
    "wrap_remainder",
    "wrap_attribute",
    "wrap_encode",
    "wrap_reconstruct",
    "wrap_decode",
    "MultiGamma0Params",
    "derive_multi_gamma0_params",
    "multi_gamma0_message_len",
    "multi_gamma0_book",
    "multi_gamma0_encode",
    "multi_gamma0_locate",
    "multi_gamma0_decode",
    "multi_gamma0_rs_message_len",
    "encode_multi_gamma0_rs",
    "reconstruct_multi_gamma0_rs",
]


# ---------------------------------------------------------------------------
# Strand sets


@dataclass(frozen=True, eq=False)
class StrandSet:
    """A multiset of equal-length strands.

    Equality is order free: two sets are equal when they hold the same
    strands with the same multiplicities.  Serialization sorts the strands
    lexicographically so equal sets print identically.
    """

    n: int
    strands: tuple[BitSeq, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "strands", tuple(self.strands))
        if not self.strands:
            raise ValueError("a strand set needs at least one strand")
        for i, s in enumerate(self.strands):
            if len(s) != self.n:
                raise LayoutError(f"strand {i} has {len(s)} bits, expected n={self.n}")

    @property
    def k(self) -> int:
        return len(self.strands)

    def canonical(self) -> "StrandSet":
        """The same multiset with strands in lexicographic order."""
        return StrandSet(self.n, tuple(sorted(self.strands, key=lambda s: s.to_text())))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StrandSet):
            return NotImplemented
        return self.n == other.n and sorted(s.to_text() for s in self.strands) == sorted(
            s.to_text() for s in other.strands
        )

    def __hash__(self) -> int:
        return hash((self.n, tuple(sorted(s.to_text() for s in self.strands))))


def strandset_to_json(ss: StrandSet) -> str:
    """Serialize in canonical order: ``{"n": ..., "k": ..., "strands": [...]}``."""
    return json.dumps(
        {"n": ss.n, "k": ss.k, "strands": sorted(s.to_text() for s in ss.strands)}
    )


def strandset_from_json(text: str) -> StrandSet:
    """The set of :func:`strandset_to_json`; n and k must be JSON integers."""
    obj = json.loads(text)
    n, k = (json_int(obj, name, "strand set") for name in ("n", "k"))
    ss = StrandSet(n, tuple(BitSeq.from_text(t) for t in obj["strands"]))
    if ss.k != k:
        raise LayoutError(f"header says k={k} but {ss.k} strands follow")
    return ss


def fragment_strands(ss: StrandSet, cfg: ChannelConfig, *, N: int | None = None) -> Trace:
    """Fragment every strand and pool the reads into one shuffled union.

    Strand identities stay attached as truth annotations, which decoders
    ignore and audits may use; ``strip_truth`` removes them.  ``N`` records
    the superstring length when the set came from the wrapped encoder.
    """
    per = [fragment(s, cfg, strand=i) for i, s in enumerate(ss.strands)]
    frags = [f for tr in per for f in tr.fragments]
    order = np.random.default_rng([cfg.seed, ss.k, 0x6D78]).permutation(len(frags))
    return Trace(
        ss.n,
        cfg.L_min,
        cfg.L_over,
        cfg.e,
        tuple(frags[int(j)] for j in order),
        k=ss.k,
        N=N,
    )


# ---------------------------------------------------------------------------
# Wrapped family: slices of one long overlapping codeword


def wrap_length(n: int, k: int, L_over: int) -> int:
    """Superstring length covered by k length-n windows at stride n - L_over."""
    if k < 1:
        raise ValueError("need at least one strand")
    if not 0 <= L_over < n:
        raise ValueError("need 0 <= L_over < n")
    return k * (n - L_over) + L_over


def wrap_remainder(n: int, L_min: int, L_over: int) -> int:
    """Length left over after packing overlapping blocks into n.

    The first block spends ``L_min`` symbols and every further one
    ``L_min - L_over`` fresh ones, so the leftover is ``(n - L_over) mod
    (L_min - L_over)``; without overlap that is just ``n mod L_min``.
    """
    if not 0 <= L_over < L_min <= n:
        raise ValueError("need 0 <= L_over < L_min <= n")
    return (n - L_over) % (L_min - L_over)


def wrap_attribute(offset: int, length: int, n: int, k: int, L_over: int) -> tuple[int, int]:
    """Map a superstring offset back to its (strand, in-strand offset) pair.

    A read longer than the seam fits exactly one strand window.  A read
    short enough to sit wholly inside a seam would fit two; by convention
    it is charged to the earlier strand.
    """
    stride = n - L_over
    if stride < 1 or length < 1:
        raise ValueError("need L_over < n and a nonempty read")
    strand = max(0, -((n - offset - length) // stride))
    t = offset - strand * stride
    if strand >= k or t < 0 or t + length > n:
        raise DecodeFailure(
            f"read at superstring offset {offset} does not fit any of the {k} strand windows"
        )
    return strand, t


def _check_wrap_geometry(n: int, k: int, params: TraceParams) -> None:
    require_feasible(params)
    N = wrap_length(n, k, params.L_over)
    if params.n != N:
        raise LayoutError(
            f"parameters are for length {params.n}, but k={k} strands of "
            f"length {n} wrap a superstring of length {N}"
        )
    if n < params.L_min:
        raise ValueError("strands must be at least one block long")


def _slice_strands(w: BitSeq, n: int, k: int, L_over: int) -> StrandSet:
    stride = n - L_over
    return StrandSet(n, tuple(w.window(i * stride, n) for i in range(k)))


def wrap_encode(
    m: BitSeq, n: int, k: int, params: TraceParams, book: IndexBook | None = None
) -> StrandSet:
    """Encode one message into k strands that overlap pairwise by L_over.

    ``params`` must be derived at the superstring length ``wrap_length(n,
    k, L_over)``; the codeword is computed once at that length and sliced,
    so consecutive strands agree on their seams by construction.
    """
    _check_wrap_geometry(n, k, params)
    return _slice_strands(encode_trace(m, params, book), n, k, params.L_over)


def wrap_reconstruct(
    mt: Trace, n: int, k: int, params: TraceParams, book: IndexBook | None = None
) -> ReconReport:
    """Decode a pooled read set as one trace of the unsliced superstring.

    Which strand a read came from is irrelevant for decoding: a read at
    in-strand offset t of strand i is the superstring read at offset
    ``i * (n - L_over) + t``, and the union of legal per-strand traces is a
    legal trace of the superstring.  Reported offsets are superstring
    positions; :func:`wrap_attribute` converts them back.
    """
    _check_wrap_geometry(n, k, params)
    check_trace(mt, params, k, n)
    if mt.N is not None and mt.N != params.n:
        raise LayoutError(f"trace header says N={mt.N}, expected {params.n}")
    frags = tuple(Fragment(f.bits, None, None, None) for f in mt.fragments)
    tr = Trace(params.n, params.L_min, params.L_over, mt.e, frags)
    return reconstruct_trace(tr, params, book)


def wrap_decode(
    mt: Trace, n: int, k: int, params: TraceParams, book: IndexBook | None = None
) -> tuple[StrandSet, ReconReport]:
    """Recover the strand multiset and the reconstruction report, whose
    message and reliability flag are those of the pooled read set."""
    book = checked_book(params, book, params.d1)
    rep = wrap_reconstruct(mt, n, k, params, book)
    w = encode_trace(rep.message, params, book)
    return _slice_strands(w, n, k, params.L_over), rep


# ---------------------------------------------------------------------------
# Interleaved family: disjoint strands, globally indexed blocks.  Strand i
# reads v . p . c_{i*n_bar} . v . p . c_{i*n_bar+1} . ... . tail: each
# L_min-period carries a payload slice first and its marker and absolute
# index at the end, so every length-L_min window covers one whole
# marker-index pair, cut cyclically at worst.  Encoding, location and
# decoding are the indexed core's (blocks.py) with marker phase m'.


@dataclass(frozen=True)
class MultiGamma0Params(BlockGeometry):
    """Geometry for k disjoint strands with globally indexed blocks."""

    n: int
    k: int
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
    violations: tuple[str, ...] = ()

    @property
    def L_over(self) -> int:
        return 0

    @property
    def L_star(self) -> int:
        """Per-strand leftover after the whole blocks: n mod L_min."""
        return wrap_remainder(self.n, self.L_min, 0)

    @property
    def n_bar(self) -> int:
        return (self.n - self.L_star) // self.L_min

    @property
    def index_count(self) -> int:
        return self.k * self.n_bar

    @property
    def strand_blocks(self) -> int:
        return self.n_bar

    @property
    def message_blocks(self) -> int:
        return self.n_bar

    @property
    def marker_phase(self) -> int:
        return self.m_prime

    @property
    def rate(self) -> float:
        return self.n_bar * (self.m_prime - self.d) / self.n


def derive_multi_gamma0_params(
    n: int,
    k: int,
    e: int,
    *,
    a: float | None = None,
    L_min: int | None = None,
    K: int | None = None,
    r_I: int | None = None,
) -> MultiGamma0Params:
    """Block geometry for k strands of length n against e errors per read.

    The shared index space must name all ``k * floor(n / L_min)`` blocks,
    so the index width grows with ``log2(n k)`` rather than ``log2(n)``.
    The per-strand leftover ``n mod L_min`` stays at the strand tail and
    must not exceed the payload width ``m'``: any more and the last
    length-``L_min`` window of a strand would no longer cover a whole
    marker-index pair.

    Malformed arguments raise ``ValueError``; failed inequalities are only
    recorded in ``violations``, for :func:`require_feasible` to refuse.
    """
    if n < 1 or k < 1 or e < 0:
        raise ValueError("need n >= 1, k >= 1 and e >= 0")
    lognk = math.log2(n * k)
    if L_min is None:
        if a is None:
            raise ValueError("either a or L_min must be given")
        L_min = math.ceil(a * lognk)
    if n < L_min:
        raise ValueError("strands must hold at least one block")
    L_star = wrap_remainder(n, L_min, 0)
    n_bar = (n - L_star) // L_min
    I = max(1, math.ceil(math.log2(n_bar * k))) if n_bar * k > 1 else 1
    if K is None:
        K = math.ceil(math.sqrt(lognk))
    geometry = indexed_geometry(L_min, e, I, K, r_I)
    if L_star > max(geometry["m_prime"], 0):
        geometry["violations"] += ("tail-window",)

    return MultiGamma0Params(n=n, k=k, e=e, L_min=L_min, I=I, K=K, **geometry)


def multi_gamma0_message_len(params: MultiGamma0Params) -> int:
    """Total message bits over all k strands."""
    return params.k * indexed_message_len(params)


multi_gamma0_book = indexed_book


def multi_gamma0_encode(
    messages: Sequence[BitSeq], params: MultiGamma0Params, book: IndexBook | None = None
) -> StrandSet:
    """Encode one message block per strand under a shared index space.

    Block j of strand i carries the absolute index ``i * n_bar + j``, so the
    decoder needs no overlap between reads, and no two blocks anywhere in
    the set look alike.
    """
    return StrandSet(params.n, indexed_encode(messages, params, book))


def multi_gamma0_locate(
    y: BitSeq, params: MultiGamma0Params, book: IndexBook | None = None
) -> tuple[int, int]:
    """Name the (strand, offset) of a single read from its leading window."""
    book = checked_book(params, book, params.d)
    if len(y) < params.L_min:
        raise LayoutError("a read is shorter than the block length")
    start = np.zeros(1, dtype=np.int64)
    (at,) = indexed_locate(load_reads([y]), start, start, params, book).tolist()
    if at < 0:
        raise DecodeFailure("the read's leading window names no block it fits")
    return divmod(at, params.n)


def multi_gamma0_decode(
    mt: Trace, params: MultiGamma0Params, book: IndexBook | None = None
) -> tuple[tuple[BitSeq, ...], ReconReport]:
    """Per-strand messages plus a placement report for the pooled reads.

    Every read is placed independently from its own marker and index, so
    the union may arrive in any order.  Reported offsets are flattened as
    ``strand * n + offset``.  Strict decoding raises ``DecodeFailure`` on
    the first read whose leading window names no block it fits, then on
    uncovered positions; an undecodable payload block reads as zeros and
    only makes the report unreliable.
    """
    messages, report, record = indexed_reconstruct(mt, params, book)
    record.verdict()
    return messages, report


# ---------------------------------------------------------------------------
# Outer MDS layer across strands: the k strand payloads are the blocks of
# the outer lanes (see outer.py), so any tau bad strands are recoverable.


def _outer(params: MultiGamma0Params, tau: int) -> Lanes:
    """The lanes across the strand messages.  Refuses params with inner
    violations, then with those of :func:`~strandcode.outer.lanes`."""
    return lanes(params, params.k, tau, indexed_message_len(params))


def multi_gamma0_rs_message_len(params: MultiGamma0Params, tau: int) -> int:
    return _outer(params, tau).message_len


def encode_multi_gamma0_rs(
    m: BitSeq, params: MultiGamma0Params, tau: int, book: IndexBook | None = None
) -> StrandSet:
    """Spread a message over k - 2 tau data strands plus 2 tau parity strands.

    Byte s of every strand's payload forms one outer codeword, so a wholly
    corrupted strand costs one symbol per lane and any tau strands are
    recoverable.
    """
    messages = _outer(params, tau).encode(m)
    return multi_gamma0_encode(messages, params, book)


def reconstruct_multi_gamma0_rs(
    mt: Trace, params: MultiGamma0Params, tau: int, book: IndexBook | None = None
) -> ReconReport:
    """Decode the union and correct up to tau bad strands.

    Reads that no window locates are dropped and missing spans zero
    filled, so a corrupted or lost strand surfaces as one bad outer symbol
    per lane rather than aborting the decode; a strand with an undecodable
    payload block is known bad, one whose marker, index or tail bits are
    off is not.  More than tau bad strands raise ``DecodeFailure``, by
    lane decode failure or by the known and corrected strands outnumbering
    tau.  Any outer correction makes the result unreliable.  Bad params
    and a bad tau are refused before the trace is read.
    """
    code = _outer(params, tau)
    return code.decode(*indexed_reconstruct(mt, params, book))
