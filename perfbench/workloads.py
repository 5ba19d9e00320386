"""The benchmark's workloads: one class per code family and channel.

A workload builds its code tables once per size (``setup``) and then runs
round trips: draw a message, ``encode`` it, pass the codeword through the
package's channel simulator (``channel``), and ``decode`` the reads.  The
harness times only ``encode`` and ``decode``; the channel is input
generation.  Every input comes from the generator the harness passes in,
which it seeds from the workload seed, the size and the round.

Each class names the layers its round trips must reach (``layers``), so
the traced run fails loudly when a refactor moves a call away from the
attribute the tracer wraps.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

import strandcode as sc
from strandcode import sd_encoder

# The trace-code test geometry: 16 groups (I=4), one error per read.
TRACE_E = 1
TRACE_GEOMETRY = dict(L_min=90, L_over=85, I=4, r_I=16, K=8)
TRACE_MAX_LEN = TRACE_GEOMETRY["L_min"] + 30

# Layers every decode-by-reads workload reaches.
_READ_LAYERS = (
    "positioning.build_index_book",
    "positioning.find_marker",
    "positioning.locate_index",
    "bitseq.majority_merge",
    "bitseq.BitSeq.to_numpy",
    "bitseq.BitSeq.from_numpy",
    "constrained.ConstrainedCodec.encode",
    "constrained.ConstrainedCodec.decode",
    "channel.fragment",
)


@dataclass(frozen=True)
class Case:
    """One size of a workload after set-up."""

    size: int
    params: object
    book: object
    bits: int  # message bits carried by one round trip


def _channel_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def _trace_case(n: int, bits_of) -> Case:
    p = sc.derive_trace_params(n, TRACE_E, **TRACE_GEOMETRY)
    book = sc.trace_book(p)
    return Case(n, p, book, bits_of(p))


class TraceScale:
    """Trace code at n, 2n, 4n with I fixed, under a channel that keeps the
    trace reliable.  Groups lengthen with n, so overlap placement in
    ``reconstruct_trace`` grows faster than n."""

    name = "trace-scale"
    layers = _READ_LAYERS + (
        "bitseq.is_sd",
        "trace_codes.encode_trace",
        "trace_codes.reconstruct_trace",
        "channel.corrupt",
    )
    # seconds one round takes on a 2-core x86-64 machine; sets the round count
    round_s = 1.0

    def __init__(self, sizes: tuple[int, ...] = (2160, 4320, 8640)):
        self.sizes = sizes

    def setup(self, n: int) -> Case:
        return _trace_case(n, sc.trace_message_len)

    def message(self, case: Case, rng: np.random.Generator):
        return sc.BitSeq.random(case.bits, rng)

    def encode(self, case: Case, m):
        return sc.encode_trace(m, case.params, case.book)

    def channel(self, case: Case, word, rng: np.random.Generator):
        cfg = sc.ChannelConfig(
            L_min=case.params.L_min, L_over=case.params.L_over, e=TRACE_E,
            error_mode="reliable-preserving", seed=_channel_seed(rng),
            max_len=TRACE_MAX_LEN,
        )
        return sc.corrupt(sc.fragment(word, cfg), cfg).strip_truth()

    def decode(self, case: Case, reads):
        report = sc.reconstruct_trace(reads, case.params, case.book)
        return report.message, report


class MultiIndex:
    """Interleaved multi-strand gamma=0 code at k, 2k, 4k strands.  Reads
    need no overlap placement, so the index-book scan in ``locate_index``
    dominates decode and ``build_index_book`` dominates set-up."""

    name = "multi-index"
    layers = _READ_LAYERS + (
        "multistrand.multi_gamma0_encode",
        "multistrand.multi_gamma0_decode",
    )
    round_s = 1.0
    STRAND_LEN = 1100
    GEOMETRY = dict(L_min=110, K=32, r_I=18)

    def __init__(self, sizes: tuple[int, ...] = (8, 16, 32)):
        self.sizes = sizes

    def setup(self, k: int) -> Case:
        p = sc.derive_multi_gamma0_params(self.STRAND_LEN, k, 1, **self.GEOMETRY)
        book = sc.multi_gamma0_book(p)
        return Case(k, p, book, sc.multi_gamma0_message_len(p))

    def message(self, case: Case, rng: np.random.Generator):
        per = case.bits // case.params.k
        return tuple(sc.BitSeq.random(per, rng) for _ in range(case.params.k))

    def encode(self, case: Case, m):
        return sc.multi_gamma0_encode(m, case.params, case.book)

    def channel(self, case: Case, word, rng: np.random.Generator):
        # the gamma=0 family guarantees placement, not payload majority,
        # under read errors, so its reads stay error free
        cfg = sc.ChannelConfig(L_min=case.params.L_min, L_over=0, seed=_channel_seed(rng))
        return sc.fragment_strands(word, cfg).strip_truth()

    def decode(self, case: Case, reads):
        messages, report = sc.multi_gamma0_decode(reads, case.params, case.book)
        return messages, report


class TraceDamaged:
    """Trace code with the outer RS layer, fed a trace damaged past e.
    Lenient read analysis retries ``find_marker`` at every offset, placement
    leaves a gap, and the outer RS decode repairs whole groups."""

    name = "trace-damaged"
    layers = _READ_LAYERS + (
        "bitseq.is_sd",
        "trace_codes.encode_trace",
        "trace_codes.encode_trace_rs",
        "trace_codes.reconstruct_trace_rs",
        "channel.corrupt",
    )
    round_s = 0.85
    # The dropped group can spoil the group beside its gap and the flips
    # can spoil a third one; at tau = 2 about 1 trial in 13 exceeded the
    # outer budget, at tau = 3 none of 90 did.
    TAU = 3
    JUNK_SHARE = 0.05

    def __init__(self, sizes: tuple[int, ...] = (4320, 8640)):
        self.sizes = sizes

    def setup(self, n: int) -> Case:
        return _trace_case(n, lambda p: sc.trace_rs_message_len(p, self.TAU))

    def message(self, case: Case, rng: np.random.Generator):
        return sc.BitSeq.random(case.bits, rng)

    def encode(self, case: Case, m):
        return sc.encode_trace_rs(m, case.params, self.TAU, case.book)

    def channel(self, case: Case, word, rng: np.random.Generator):
        p = case.params
        cfg = sc.ChannelConfig(
            L_min=p.L_min, L_over=p.L_over, e=TRACE_E, error_mode="pre-sequencing",
            tau=1, seed=_channel_seed(rng), max_len=TRACE_MAX_LEN,
        )
        # one strand flip copied into every read over it, then up to e
        # random flips per read on top
        reads = sc.corrupt(sc.fragment(word, cfg), cfg)
        reads = sc.corrupt(reads, dataclasses.replace(cfg, error_mode="random"))
        # lose every read that starts inside one group
        g = int(rng.integers(p.group_count))
        lo = p.cum_blocks(g) * p.L_min
        hi = lo + p.cnt(g) * p.L_min
        kept = [f for f in reads.fragments if not lo <= f.start < hi]
        junk = [
            sc.Fragment(sc.BitSeq.random(int(rng.integers(p.L_min, TRACE_MAX_LEN + 1)), rng))
            for _ in range(round(self.JUNK_SHARE * len(kept)))
        ]
        pool = kept + junk
        order = rng.permutation(len(pool))
        mixed = tuple(pool[int(i)] for i in order)
        return dataclasses.replace(reads, fragments=mixed).strip_truth()

    def decode(self, case: Case, reads):
        report = sc.reconstruct_trace_rs(reads, case.params, self.TAU, case.book)
        return report.message, report


class SdLong:
    """Substring-distant encoder round trip on long sequences: the only
    workload that reaches ``close_pairs``, ``is_wwl`` and the scaffold."""

    name = "sd-long"
    layers = (
        "sd_encoder.encode_sd",
        "sd_encoder.decode_sd",
        "sd_encoder.scaffold_for",
        "bitops.close_pairs",
        "bitseq.is_wwl",
        "bitseq.BitSeq.to_numpy",
        "constrained.ConstrainedCodec.encode",
        "constrained.ConstrainedCodec.decode",
    )
    round_s = 1.25
    D = 3

    def __init__(self, sizes: tuple[int, ...] = (65537, 131073)):
        self.sizes = sizes

    def setup(self, n: int) -> Case:
        p = sc.derive_sd_params(n, self.D)
        # encode_sd(m, n, d) asks for scaffold_for(n, d, 0); the cache key
        # must match, or the scaffold build lands in the first timed encode
        sd_encoder.scaffold_for(n, self.D, 0)
        return Case(n, p, None, p.n_prime)

    def message(self, case: Case, rng: np.random.Generator):
        return sc.BitSeq.random(case.bits, rng)

    def encode(self, case: Case, m):
        return sc.encode_sd(m, case.size, self.D)

    def channel(self, case: Case, word, rng: np.random.Generator):
        return word

    def decode(self, case: Case, word):
        # decode_sd reports no reliability flag; its answer is a claim
        return sc.decode_sd(word, case.size, self.D), None


WORKLOADS = {w.name: w for w in (TraceScale(), MultiIndex(), TraceDamaged(), SdLong())}
