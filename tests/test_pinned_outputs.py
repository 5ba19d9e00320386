"""Pinned codewords and decode reports of the indexed, RS-hardened, trace
and SD codes.

Each case encodes (or decodes) fixed-seed inputs and hashes the result, so
any change to a codeword bit, a decoded message or a placement shows up as
a digest mismatch.  The trace cases also pin every marker scan of the
re-salting loop, so a change to which blocks a scan reports or to the
number of scans a word needs shows up too.
"""

import functools
import hashlib

import numpy as np
import pytest

from strandcode import trace_codes
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
    wrap_encode,
    wrap_length,
)
from strandcode.sd_encoder import encode_sd, scaffold_for, sd_message_len
from strandcode.trace_codes import (
    derive_gamma0_params,
    derive_trace_params,
    encode_gamma0,
    encode_trace,
    encode_trace_rs,
    gamma0_book,
    gamma0_message_len,
    reconstruct_gamma0,
    trace_book,
    trace_message_len,
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


@functools.cache
def _trace_4365():
    # 4365 = 48.5 blocks of 90: the last block is written whole and cut
    p = derive_trace_params(4365, 1, L_min=90, L_over=85, I=4, r_I=16, K=8)
    return p, trace_book(p)


def trace_4365():
    p, book = _trace_4365()
    m = BitSeq.random(trace_message_len(p), np.random.default_rng(29))
    return encode_trace(m, p, book).to_text()


def trace_rs_4365():
    p, book = _trace_4365()
    m = BitSeq.random(trace_rs_message_len(p, 1), np.random.default_rng(31))
    return encode_trace_rs(m, p, 1, book).to_text()


def wrap_1165_k4():
    p = derive_trace_params(
        wrap_length(1165, 4, 85), 1, L_min=90, L_over=85, I=4, r_I=16, K=8
    )
    m = BitSeq.random(trace_message_len(p), np.random.default_rng(41))
    ss = wrap_encode(m, 1165, 4, p, trace_book(p))
    return "".join(s.to_text() for s in ss.strands)


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


def sd_65537():
    m = BitSeq.random(sd_message_len(65537, 3), np.random.default_rng(7))
    return encode_sd(m, 65537, 3).to_text()


def sd_2048_zeros():
    # 94 close-pair rewrites, so the window index field is written
    return encode_sd(BitSeq.zeros(sd_message_len(2048, 1)), 2048, 1).to_text()


def scaffold_65537():
    return scaffold_for(65537, 3).sbar.to_text()


PINNED = {
    gamma0_9856: "703c9e1e76877c34eea7e86d3f1a51cf4d540f04490ff37ddcdf277ce90567cd",
    gamma0_9800: "b0bfc7faefca41e7d37257c0fc5444e58cda3c8f727e879a5c382cdbb7e60a08",
    multi_k2: "8d557a15a86275aace91f1d1398aa8a6f7aa245c4fdd7c2bfb4f2aa9dfcd00dc",
    multi_k8: "19f33b91d57e954e61e0982c79335d8261a7a74aaf887329eb93a81dd8b1b0df",
    trace_rs_p1: "08bbb59ad40b2176e8459c6b1c1a7b66355c6b068a371a5544fa2495d7ea036f",
    trace_4365: "db3ddfa67de0fc999200b5b2bfa8ec2ebe608978fb2f5f8bbfa513cc09c59ca9",
    trace_rs_4365: "3a113b579b643f0e374805cd72d99dbed5c3f8d091fbabe335302d916630a541",
    wrap_1165_k4: "76ed15ee43bba2fa415f248bd6f07adeadb6e7d2353746f28894a838ccacb8ca",
    multi_rs_gp4: "bf4934955560098b29e0454e43ceb0223e9ababa80d0e05475c394cc25b69e09",
    gamma0_report: "eb2ffd7fe11d3c5591ffc3a3ce4f00d4c8716aee8790295ca9a719ec9a5d2046",
    multi_rs_missing_strand_report: "a30780c4e4e2ae671762eb1d798aefb209df553a5f144918a8dfaa4ad33af0f5",
    sd_65537: "4910c994e6d10b651fe6cce111067fa34e9683f5db533a28b720692749fce7e0",
    sd_2048_zeros: "6c510a0dff3980888eafcb90ea2aeaeb4a61590d066f199f8e039f976c88f46d",
    scaffold_65537: "5206f2a8b6e47055fa97301c15b94dd3f139239808e4be11c2e394ab209abb41",
}


@pytest.mark.filterwarnings("ignore:.*majority ties")
@pytest.mark.parametrize("case", list(PINNED), ids=lambda f: f.__name__)
def test_output_is_pinned(case):
    assert hashlib.sha256(case().encode()).hexdigest() == PINNED[case]


@functools.cache
def _trace_8640():
    # the trace-scale benchmark geometry at its largest size
    p = derive_trace_params(8640, 1, L_min=90, L_over=85, I=4, r_I=16, K=8)
    return p, trace_book(p)


# seed -> (marker scans, digest of the sorted offender blocks of every scan,
# codeword digest)
TRACE_SCANS = {
    1: (
        6,
        "2d6080405a6e1f7a16a50c82a89defe30551c13e61cb73d4491a924093c7aa33",
        "5cc5eb52f08f524017ee301e3b3cf882e5860810646b5108c485b3aff0bb607c",
    ),
    39: (
        8,
        "64960909355ef8beb2607c523901e0d1edd5a6204f5f718579302f6dbe64aab8",
        "867c07f631ec93b672a99f6e56f8f02591d9dea7d63ea95b9b6c2d69df89bd55",
    ),
    40: (
        9,
        "363234835673469e3f34f71fbfde8cabb35a1a66d354ff0aae0f1e67cfaa0ba5",
        "1564c4fd444577b1bc9f58749b34aae1d128a5488752d1a5d7896728333ce8ed",
    ),
    60: (
        9,
        "7548f9b998042bae0fe060af0be2e2316a8804f8722f5f7664a942a8ee193db9",
        "7be9259113453ee6ddfd87e90aad3fe8f0b00cbedc2ccfbce6fa94ce3d5ce766",
    ),
    65: (
        10,
        "2f6cc3bc38b90b133f68fe103eb04d76f27e38b11123044ed2788aef15ecc110",
        "3695167f4ad59f4b7bf94d2fc203c53fe49a3bac07cb2edc6d1104eb1ce33a53",
    ),
}

# seed -> digest of its first 8 scans, for the words that need more: each
# scan depends only on the ones before it, so these stay as they were when
# the encoder stopped after 8 scans
FIRST_8_SCANS = {
    40: "56f94c5f995b958b80da5c6156f52114d47865a348b00e865c0750ca548fb773",
    60: "52f96bafc66dc25250f1ddaae319349b4ac7f7e45c8412cf70fdf7d3bd1b8c3e",
    65: "6fe42adef32bea011c03dea0f07d1e0429833e50b2c10f14a8b52b0713d5b273",
}


def _scans_digest(scans):
    return hashlib.sha256(repr(scans).encode()).hexdigest()


@pytest.mark.parametrize("seed", list(TRACE_SCANS))
def test_trace_encode_is_pinned(seed, monkeypatch):
    p, book = _trace_8640()
    scans = []
    scan = trace_codes.marker_offenders

    def recording(*args, **kwargs):
        out = scan(*args, **kwargs)
        scans.append(sorted(out))
        return out

    monkeypatch.setattr(trace_codes, "marker_offenders", recording)
    m = BitSeq.random(trace_message_len(p), np.random.default_rng(seed))
    n_scans, scans_digest, word_digest = TRACE_SCANS[seed]
    w = encode_trace(m, p, book)
    assert hashlib.sha256(w.to_text().encode()).hexdigest() == word_digest
    assert len(scans) == n_scans
    assert _scans_digest(scans) == scans_digest
    if seed in FIRST_8_SCANS:
        assert _scans_digest(scans[:8]) == FIRST_8_SCANS[seed]
