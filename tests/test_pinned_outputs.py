"""Pinned codewords and decode reports of the indexed and RS-hardened codes.

Each case encodes (or decodes) fixed-seed inputs and hashes the result, so
any change to a codeword bit, a decoded message or a placement shows up as
a digest mismatch.
"""

import functools
import hashlib

import numpy as np
import pytest

from strandcode.bitseq import BitSeq
from strandcode.channel import ChannelConfig, Trace, corrupt, fragment
from strandcode.multistrand import (
    derive_multi_gamma0_params,
    encode_multi_gamma0_rs,
    fragment_strands,
    multi_gamma0_book,
    multi_gamma0_encode,
    multi_gamma0_message_len,
    multi_gamma0_rs_message_len,
    reconstruct_multi_gamma0_rs,
)
from strandcode.trace_codes import (
    derive_gamma0_params,
    derive_trace_params,
    encode_gamma0,
    encode_trace_rs,
    gamma0_book,
    gamma0_message_len,
    reconstruct_gamma0,
    trace_book,
    trace_rs_message_len,
)


@functools.cache
def _gamma0_word(n, seed):
    p = derive_gamma0_params(n, 1, L_min=154, K=64, r_I=12)
    m = BitSeq.random(gamma0_message_len(p), np.random.default_rng(seed))
    return p, encode_gamma0(m, p, gamma0_book(p))


def _multi_word(n, k, seed, **geometry):
    p = derive_multi_gamma0_params(n, k, 1, **geometry)
    rng = np.random.default_rng(seed)
    per = multi_gamma0_message_len(p) // p.k
    msgs = tuple(BitSeq.random(per, rng) for _ in range(p.k))
    return multi_gamma0_encode(msgs, p, multi_gamma0_book(p))


def _gp4():
    return derive_multi_gamma0_params(1030, 4, 1, L_min=100, K=32, r_I=12)


@functools.cache
def _gp4_book():
    return multi_gamma0_book(_gp4())


def gamma0_9856():
    return _gamma0_word(9856, 17)[1].to_text()


def gamma0_9800():
    return _gamma0_word(9800, 23)[1].to_text()


def multi_k2():
    ss = _multi_word(1030, 2, 23, L_min=100, K=32, r_I=12)
    return "".join(s.to_text() for s in ss.strands)


def multi_k8():
    # the multi-index benchmark geometry at its smallest size
    ss = _multi_word(1100, 8, 5, L_min=110, K=32, r_I=18)
    return "".join(s.to_text() for s in ss.strands)


def trace_rs_p1():
    p = derive_trace_params(4320, 1, L_min=90, L_over=85, I=4, r_I=16, K=8)
    m = BitSeq.random(trace_rs_message_len(p, 1), np.random.default_rng(19))
    return encode_trace_rs(m, p, 1, trace_book(p)).to_text()


def multi_rs_gp4():
    p = _gp4()
    m = BitSeq.random(multi_gamma0_rs_message_len(p, 1), np.random.default_rng(43))
    ss = encode_multi_gamma0_rs(m, p, 1, _gp4_book())
    return "".join(s.to_text() for s in ss.strands)


def gamma0_report():
    p, w = _gamma0_word(9856, 17)
    cfg = ChannelConfig(L_min=p.L_min, L_over=0, e=p.e, seed=3)
    tr = corrupt(fragment(w, cfg), cfg).strip_truth()
    return repr(reconstruct_gamma0(tr, p, gamma0_book(p)))


def multi_rs_missing_strand_report():
    p = _gp4()
    book = _gp4_book()
    m = BitSeq.random(multi_gamma0_rs_message_len(p, 1), np.random.default_rng(43))
    ss = encode_multi_gamma0_rs(m, p, 1, book)
    mt = fragment_strands(ss, ChannelConfig(L_min=p.L_min, L_over=0, seed=14))
    kept = tuple(f for f in mt.fragments if f.strand != 1)
    short = Trace(mt.n, mt.L_min, 0, 0, kept, k=mt.k)
    return repr(reconstruct_multi_gamma0_rs(short, p, 1, book))


PINNED = {
    gamma0_9856: "703c9e1e76877c34eea7e86d3f1a51cf4d540f04490ff37ddcdf277ce90567cd",
    gamma0_9800: "b0bfc7faefca41e7d37257c0fc5444e58cda3c8f727e879a5c382cdbb7e60a08",
    multi_k2: "8d557a15a86275aace91f1d1398aa8a6f7aa245c4fdd7c2bfb4f2aa9dfcd00dc",
    multi_k8: "19f33b91d57e954e61e0982c79335d8261a7a74aaf887329eb93a81dd8b1b0df",
    trace_rs_p1: "08bbb59ad40b2176e8459c6b1c1a7b66355c6b068a371a5544fa2495d7ea036f",
    multi_rs_gp4: "bf4934955560098b29e0454e43ceb0223e9ababa80d0e05475c394cc25b69e09",
    gamma0_report: "eb2ffd7fe11d3c5591ffc3a3ce4f00d4c8716aee8790295ca9a719ec9a5d2046",
    multi_rs_missing_strand_report: "a30780c4e4e2ae671762eb1d798aefb209df553a5f144918a8dfaa4ad33af0f5",
}


@pytest.mark.filterwarnings("ignore:.*majority ties")
@pytest.mark.parametrize("case", list(PINNED), ids=lambda f: f.__name__)
def test_output_is_pinned(case):
    assert hashlib.sha256(case().encode()).hexdigest() == PINNED[case]
