"""Decoder contract corpus: every decode entry point on out-of-model reads.

Whatever the reads, a decoder keeps two rules: it raises only
``StrandcodeError`` subclasses, and it never returns ``reliable=True``
with a wrong message.  Each family decodes a legal trace of a seeded
codeword, reliable for the overlapping families and error free for the
γ=0 ones, after one of seven changes to its read set (``KINDS``).  The SD
decoder, which takes a whole word, reads codewords with 1 to 3 flipped
bits instead.  A flip copied into every read of a position (a word flip)
is out of this corpus: the trace code does not certify its merged word.
"""

from collections import Counter

import numpy as np
import pytest

from strandcode.bitseq import BitSeq
from strandcode.channel import ChannelConfig, Fragment, Trace, corrupt, fragment
from strandcode.errors import StrandcodeError
from strandcode.multistrand import (
    derive_multi_gamma0_params,
    encode_multi_gamma0_rs,
    fragment_strands,
    multi_gamma0_book,
    multi_gamma0_decode,
    multi_gamma0_encode,
    multi_gamma0_message_len,
    multi_gamma0_rs_message_len,
    reconstruct_multi_gamma0_rs,
    wrap_decode,
    wrap_encode,
    wrap_length,
)
from strandcode.sd_encoder import decode_sd, encode_sd, sd_message_len
from strandcode.trace_codes import (
    derive_gamma0_params,
    derive_trace_params,
    encode_gamma0,
    encode_trace,
    encode_trace_rs,
    gamma0_book,
    gamma0_message_len,
    reconstruct_gamma0,
    reconstruct_trace,
    reconstruct_trace_rs,
    trace_book,
    trace_message_len,
    trace_rs_message_len,
)

KINDS = (
    "duplicate-with-flip",  # a copy of one read with one fresh flip
    "drop",  # one read left out
    "truncate",  # one read cut to a length in [L_min, its length)
    "random",  # one read of random bits
    "overrun",  # a read that ends a strand runs on by 1 to 10 random bits
    "reverse",  # the reads in reverse order
    "excess-flips",  # e + 1 flips in one read
)
SEEDS = range(8)
TRACE_GEOMETRY = dict(L_min=90, L_over=85, I=4, r_I=16, K=8)
WRAP_N, WRAP_K = 1165, 4


def _flipped(bits: BitSeq, count: int, rng: np.random.Generator) -> BitSeq:
    for i in rng.choice(len(bits), size=count, replace=False).tolist():
        bits = bits.with_bit(i, 1 - bits[i])
    return bits


def mutate(tr: Trace, kind: str, rng: np.random.Generator) -> Trace:
    """``tr``, which carries truth, changed by ``kind`` and stripped of truth."""
    reads = [f.bits for f in tr.fragments]
    i = int(rng.integers(len(reads)))
    if kind == "duplicate-with-flip":
        reads.insert(int(rng.integers(len(reads) + 1)), _flipped(reads[i], 1, rng))
    elif kind == "drop":
        del reads[i]
    elif kind == "truncate":
        while len(reads[i]) == tr.L_min:
            i = int(rng.integers(len(reads)))
        reads[i] = reads[i].window(0, int(rng.integers(tr.L_min, len(reads[i]))))
    elif kind == "random":
        reads.insert(i, BitSeq.random(int(rng.integers(tr.L_min, 2 * tr.L_min + 1)), rng))
    elif kind == "overrun":
        i = next(j for j, f in enumerate(tr.fragments) if f.end == tr.n)
        reads[i] = reads[i] + BitSeq.random(int(rng.integers(1, 11)), rng)
    elif kind == "reverse":
        reads.reverse()
    else:
        reads[i] = _flipped(reads[i], tr.e + 1, rng)
    return Trace(tr.n, tr.L_min, tr.L_over, tr.e, tuple(map(Fragment, reads)), k=tr.k, N=tr.N)


def _reliable_cfg(p, seed: int) -> ChannelConfig:
    return ChannelConfig(
        L_min=p.L_min, L_over=p.L_over, e=p.e, seed=seed,
        error_mode="reliable-preserving", max_len=p.L_min + 30,
    )


def _clean_cfg(p, seed: int) -> ChannelConfig:
    return ChannelConfig(L_min=p.L_min, L_over=0, e=p.e, seed=seed)


@pytest.fixture(scope="module")
def trace_code():
    p = derive_trace_params(4320, 1, **TRACE_GEOMETRY)
    return p, trace_book(p)


@pytest.fixture(scope="module")
def gamma0_code():
    p = derive_gamma0_params(1980, 1, L_min=110, K=32, r_I=18)
    return p, gamma0_book(p)


@pytest.fixture(scope="module")
def multi_code():
    p = derive_multi_gamma0_params(1030, 2, 1, L_min=100, K=32, r_I=12)
    return p, multi_gamma0_book(p)


@pytest.fixture(scope="module")
def multi_rs_code():
    p = derive_multi_gamma0_params(1030, 4, 1, L_min=100, K=32, r_I=12)
    return p, multi_gamma0_book(p)


@pytest.fixture(scope="module")
def wrap_code():
    p = derive_trace_params(wrap_length(WRAP_N, WRAP_K, 85), 1, **TRACE_GEOMETRY)
    return p, trace_book(p)


def _report(report):
    return report.message, report.reliable


def _trace_case(code, seed):
    p, book = code
    m = BitSeq.random(trace_message_len(p), np.random.default_rng(seed))
    cfg = _reliable_cfg(p, seed)
    tr = corrupt(fragment(encode_trace(m, p, book), cfg), cfg)
    return tr, m, lambda t: _report(reconstruct_trace(t, p, book))


def _trace_rs_case(code, seed):
    p, book = code
    m = BitSeq.random(trace_rs_message_len(p, 1), np.random.default_rng(seed))
    cfg = _reliable_cfg(p, seed)
    tr = corrupt(fragment(encode_trace_rs(m, p, 1, book), cfg), cfg)
    return tr, m, lambda t: _report(reconstruct_trace_rs(t, p, 1, book))


def _gamma0_case(code, seed):
    p, book = code
    m = BitSeq.random(gamma0_message_len(p), np.random.default_rng(seed))
    tr = fragment(encode_gamma0(m, p, book), _clean_cfg(p, seed))
    return tr, m, lambda t: _report(reconstruct_gamma0(t, p, book))


def _multi_case(code, seed):
    p, book = code
    rng = np.random.default_rng(seed)
    ms = tuple(BitSeq.random(multi_gamma0_message_len(p) // p.k, rng) for _ in range(p.k))
    tr = fragment_strands(multi_gamma0_encode(ms, p, book), _clean_cfg(p, seed))

    def decode(t):
        messages, report = multi_gamma0_decode(t, p, book)
        return messages, report.reliable

    return tr, ms, decode


def _multi_rs_case(code, seed):
    p, book = code
    m = BitSeq.random(multi_gamma0_rs_message_len(p, 1), np.random.default_rng(seed))
    tr = fragment_strands(encode_multi_gamma0_rs(m, p, 1, book), _clean_cfg(p, seed))
    return tr, m, lambda t: _report(reconstruct_multi_gamma0_rs(t, p, 1, book))


def _wrap_case(code, seed):
    p, book = code
    m = BitSeq.random(trace_message_len(p), np.random.default_rng(seed))
    cfg = _reliable_cfg(p, seed)
    tr = corrupt(fragment_strands(wrap_encode(m, WRAP_N, WRAP_K, p, book), cfg, N=p.n), cfg)
    return tr, m, lambda t: _report(wrap_decode(t, WRAP_N, WRAP_K, p, book)[1])


def outcome(decode, t, want) -> str:
    """``raised``, ``unreliable`` or ``exact``; a leaked exception escapes and
    a reliable wrong message fails."""
    try:
        got, reliable = decode(t)
    except StrandcodeError:
        return "raised"
    if not reliable:
        return "unreliable"
    assert got == want, "reliable=True with a wrong message"
    return "exact"


def corpus(case, code) -> dict[str, Counter]:
    """Outcome counts per read kind over the seeded codewords."""
    counts = {kind: Counter() for kind in KINDS}
    for seed in SEEDS:
        tr, want, decode = case(code, seed)
        assert outcome(decode, tr.strip_truth(), want) == "exact"
        rng = np.random.default_rng([seed, 0xC0])
        for kind in KINDS:
            counts[kind][outcome(decode, mutate(tr, kind, rng), want)] += 1
    return counts


ENTRIES = {
    "trace": (_trace_case, "trace_code"),
    "trace-rs": (_trace_rs_case, "trace_code"),
    "gamma0": (_gamma0_case, "gamma0_code"),
    "multi-gamma0": (_multi_case, "multi_code"),
    "multi-gamma0-rs": (_multi_rs_case, "multi_rs_code"),
    "wrap": (_wrap_case, "wrap_code"),
}


@pytest.mark.parametrize("entry", ENTRIES)
def test_decoders_keep_the_contract_on_out_of_model_reads(entry, request):
    case, code = ENTRIES[entry]
    counts = corpus(case, request.getfixturevalue(code))
    assert sum(sum(c.values()) for c in counts.values()) == len(KINDS) * len(SEEDS)


def sd_corpus(n: int = 2048, d: int = 1, words: int = 8) -> Counter:
    """Outcomes of decode_sd on codewords of random and all-zero messages
    with 1, 2 and 3 flipped bits."""
    counts = Counter()
    for seed in range(words):
        rng = np.random.default_rng([seed, n, d])
        m = BitSeq.random(sd_message_len(n, d), rng) if seed else BitSeq.zeros(sd_message_len(n, d))
        word = encode_sd(m, n, d)
        for flips in (1, 2, 3):
            try:
                decode_sd(_flipped(word, flips, rng), n, d)
            except StrandcodeError:
                counts[f"{flips}-raised"] += 1
            else:
                counts[f"{flips}-returned"] += 1
    return counts


def test_decode_sd_keeps_the_contract_on_flipped_codewords():
    assert sum(sd_corpus().values()) == 24
