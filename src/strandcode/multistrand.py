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
:mod:`strandcode.blocks`, shared with the single-strand γ=0 code, and its
outer layer on the lanes of :mod:`strandcode.outer`.

Strand sets are multisets: order never matters, duplicates are counted.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bitseq import BitSeq
from .blocks import (
    BlockGeometry,
    ReconReport,
    indexed_book,
    indexed_encode,
    indexed_geometry,
    indexed_locate,
    indexed_reconstruct,
    require_feasible,
)
from .channel import ChannelConfig, Fragment, Trace, fragment
from .errors import DecodeFailure, LayoutError
from .outer import lane_decode, lane_encode, lane_message_len
from .positioning import IndexBook
from .trace_codes import TraceParams, encode_trace, encode_trace_nondiv, reconstruct_trace

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
    obj = json.loads(text)
    ss = StrandSet(int(obj["n"]), tuple(BitSeq.from_text(t) for t in obj["strands"]))
    if ss.k != int(obj["k"]):
        raise LayoutError(f"header says k={obj['k']} but {ss.k} strands follow")
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
    if params.divisible:
        w = encode_trace(m, params, book)
    else:
        w = encode_trace_nondiv(m, params, book)
    return _slice_strands(w, n, k, params.L_over)


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
    if mt.k != k:
        raise LayoutError(f"trace header says k={mt.k}, expected {k}")
    if mt.n != n or mt.L_min != params.L_min or mt.L_over != params.L_over:
        raise LayoutError("trace geometry does not match the code parameters")
    if mt.N is not None and mt.N != params.n:
        raise LayoutError(f"trace header says N={mt.N}, expected {params.n}")
    if mt.e > params.e:
        raise LayoutError("trace error budget exceeds the code tolerance")
    frags = tuple(Fragment(f.bits, None, None, None) for f in mt.fragments)
    tr = Trace(params.n, params.L_min, params.L_over, mt.e, frags)
    return reconstruct_trace(tr, params, book)


def wrap_decode(
    mt: Trace, n: int, k: int, params: TraceParams, book: IndexBook | None = None
) -> tuple[StrandSet, BitSeq]:
    """Recover the strand multiset and the message from a pooled read set."""
    rep = wrap_reconstruct(mt, n, k, params, book)
    if params.divisible:
        w = encode_trace(rep.message, params, book)
    else:
        w = encode_trace_nondiv(rep.message, params, book)
    return _slice_strands(w, n, k, params.L_over), rep.message


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
    strict: bool = True,
) -> MultiGamma0Params:
    """Block geometry for k strands of length n against e errors per read.

    The shared index space must name all ``k * floor(n / L_min)`` blocks,
    so the index width grows with ``log2(n k)`` rather than ``log2(n)``.
    The per-strand leftover ``n mod L_min`` stays at the strand tail and
    must not exceed the payload width ``m'``: any more and the last
    length-``L_min`` window of a strand would no longer cover a whole
    marker-index pair.
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

    params = MultiGamma0Params(n=n, k=k, e=e, L_min=L_min, I=I, K=K, **geometry)
    if strict:
        require_feasible(params, "infeasible block geometry")
    return params


def multi_gamma0_message_len(params: MultiGamma0Params) -> int:
    """Total message bits over all k strands."""
    return params.index_count * (params.m_prime - params.d)


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
    if len(y) < params.L_min:
        raise LayoutError("a read is shorter than the block length")
    book = book if book is not None else multi_gamma0_book(params)
    return indexed_locate(y, 0, params, book)


def multi_gamma0_decode(
    mt: Trace, params: MultiGamma0Params, book: IndexBook | None = None
) -> tuple[tuple[BitSeq, ...], ReconReport]:
    """Per-strand messages plus a placement report for the pooled reads.

    Every read is placed independently from its own marker and index, so
    the union may arrive in any order.  Reported offsets are flattened as
    ``strand * n + offset``.
    """
    messages, report, _ = indexed_reconstruct(mt, params, book, lenient=False)
    return messages, report


# ---------------------------------------------------------------------------
# Outer MDS layer across strands: the k strand payloads are the blocks of
# the outer lanes (see outer.py), so any tau bad strands are recoverable.


def _strand_payload_bits(params: MultiGamma0Params) -> int:
    return params.n_bar * (params.m_prime - params.d)


def multi_gamma0_rs_message_len(params: MultiGamma0Params, tau: int) -> int:
    return lane_message_len(params.k, tau, _strand_payload_bits(params))


def encode_multi_gamma0_rs(
    m: BitSeq, params: MultiGamma0Params, tau: int, book: IndexBook | None = None
) -> StrandSet:
    """Spread a message over k - 2 tau data strands plus 2 tau parity strands.

    Byte s of every strand's payload forms one outer codeword, so a wholly
    corrupted strand costs one symbol per lane and any tau strands are
    recoverable.
    """
    messages = lane_encode(m, params.k, tau, _strand_payload_bits(params))
    return multi_gamma0_encode(messages, params, book)


def reconstruct_multi_gamma0_rs(
    mt: Trace, params: MultiGamma0Params, tau: int, book: IndexBook | None = None
) -> ReconReport:
    """Decode the union leniently and correct up to tau bad strands.

    Reads that cannot be located are dropped and missing spans zero
    filled, so a corrupted or lost strand surfaces as one bad outer symbol
    per lane rather than aborting the decode.  More than tau bad strands
    is reported as a failure, by lane decode failure or by the corrected
    positions outnumbering tau.  Any outer correction makes the result
    unreliable.
    """
    multi_gamma0_rs_message_len(params, tau)  # checks the outer geometry first
    raw, report, damaged = indexed_reconstruct(mt, params, book, lenient=True)
    message, corrected = lane_decode(raw, tau, damaged)
    return dataclasses.replace(
        report, message=message, reliable=report.reliable and not corrected
    )
