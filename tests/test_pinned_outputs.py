"""Pinned codewords, decode reports and decode records of the indexed,
RS-hardened, trace and SD codes.

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
from test_trace_codes import _damaged_trace

from strandcode import outer, trace_codes
from strandcode.bitseq import BitSeq
from strandcode.blocks import _period_offsets, indexed_reconstruct
from strandcode.channel import ChannelConfig, Trace, corrupt, fragment
from strandcode.constrained import codec
from strandcode.errors import DecodeFailure
from strandcode.multistrand import (
    StrandSet,
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
from strandcode.sd_encoder import derive_sd_params, encode_sd, scaffold_for, sd_message_len
from strandcode.trace_codes import (
    derive_gamma0_params,
    derive_trace_params,
    encode_gamma0,
    encode_trace,
    encode_trace_rs,
    gamma0_book,
    gamma0_message_len,
    reconstruct_gamma0,
    reconstruct_trace_rs,
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


def _multi_rs_strand_set():
    p = _gp4()
    m = BitSeq.random(multi_gamma0_rs_message_len(p, 1), np.random.default_rng(43))
    return encode_multi_gamma0_rs(m, p, 1, _gp4_book())


def _missing_strand_trace():
    ss = _multi_rs_strand_set()
    mt = fragment_strands(ss, ChannelConfig(L_min=_gp4().L_min, L_over=0, seed=14))
    kept = tuple(f for f in mt.fragments if f.strand != 1)
    return Trace(mt.n, mt.L_min, 0, 0, kept, k=mt.k)


def _flipped_strand_trace():
    # every bit of strand 1 complemented: its reads find no index, so the
    # outer code repairs a whole strand
    ss = _multi_rs_strand_set()
    flipped = ss.strands[1].xor(BitSeq.ones(len(ss.strands[1])))
    broken = StrandSet(ss.n, ss.strands[:1] + (flipped,) + ss.strands[2:])
    return fragment_strands(broken, ChannelConfig(L_min=_gp4().L_min, L_over=0, seed=14))


def multi_rs_missing_strand_report():
    return repr(reconstruct_multi_gamma0_rs(_missing_strand_trace(), _gp4(), 1, _gp4_book()))


def multi_rs_flipped_strand_report():
    return repr(reconstruct_multi_gamma0_rs(_flipped_strand_trace(), _gp4(), 1, _gp4_book()))


@functools.cache
def _trace_rs_geometry(n):
    # the trace-damaged benchmark geometry
    p = derive_trace_params(n, 1, L_min=90, L_over=85, I=4, r_I=16, K=8)
    return p, trace_book(p)


def _damaged_rs_trace(n, trial, seed=0, tau=3):
    """The trace-damaged benchmark trial ``default_rng([seed, n, trial])``,
    replayed in its draw order: message, encode, channel."""
    p, book = _trace_rs_geometry(n)
    rng = np.random.default_rng([seed, n, trial])
    m = BitSeq.random(trace_rs_message_len(p, tau), rng)
    w = encode_trace_rs(m, p, tau, book)
    return p, book, _damaged_trace(p, w, int(rng.integers(2**31)), rng).strip_truth()


def _damaged_rs_decode(n, trial, seed=0, tau=3):
    p, book, tr = _damaged_rs_trace(n, trial, seed, tau)
    return reconstruct_trace_rs(tr, p, tau, book)


DAMAGED_TRIALS = [(n, trial) for n in (4320, 8640) for trial in range(3)]


def trace_rs_damaged_reports():
    return "".join(repr(_damaged_rs_decode(n, trial)) for n, trial in DAMAGED_TRIALS)


def _record_text(record):
    """Every field a decode pass fills in a DecodeRecord, as text."""
    return repr((
        record.lead.tolist(),
        record.retried.tolist(),
        [(int(idx), why) for idx, why in record.dropped],
        [int(idx) for idx in record.pending],
        record.uncovered.tolist(),
        [(int(at), str(error)) for at, error in sorted(record.rejected.items())],
        [int(at) for at in record.stray],
    ))


def trace_rs_damaged_records():
    return "".join(
        _record_text(trace_codes._reconstruct(tr, p, book)[2])
        for p, book, tr in (_damaged_rs_trace(n, trial) for n, trial in DAMAGED_TRIALS)
    )


def trace_clean_record():
    # one trace-scale round trip at n=8640 under the benchmark's channel
    p, book = _trace_8640()
    m = BitSeq.random(trace_message_len(p), np.random.default_rng(53))
    cfg = ChannelConfig(
        L_min=p.L_min, L_over=p.L_over, e=p.e, error_mode="reliable-preserving",
        seed=59, max_len=p.L_min + 30,
    )
    tr = corrupt(fragment(encode_trace(m, p, book), cfg), cfg).strip_truth()
    return _record_text(trace_codes._reconstruct(tr, p, book)[2])


def multi_rs_missing_strand_record():
    return _record_text(indexed_reconstruct(_missing_strand_trace(), _gp4(), _gp4_book())[2])


def multi_rs_flipped_strand_record():
    return _record_text(indexed_reconstruct(_flipped_strand_trace(), _gp4(), _gp4_book())[2])


def _rejected_and_stray_trace():
    """A gp4 set whose strand 1 has two undecodable payload blocks, each
    failing at its own symbol, and whose strand 3 has one tail bit off."""
    p = _gp4()
    ss = _multi_word(p.n, p.k, 47, L_min=100, K=32, r_I=12)
    v_at = _period_offsets(p)[2]
    strands = [s.to_numpy().copy() for s in ss.strands]
    strands[1][2 * p.L_min + v_at[20:]] = 0
    strands[1][5 * p.L_min + v_at] = 0
    strands[3][p.n - 10] ^= 1
    broken = StrandSet(p.n, tuple(BitSeq.from_numpy(a) for a in strands))
    return fragment_strands(broken, ChannelConfig(L_min=p.L_min, L_over=0, seed=16))


def multi_rejected_and_stray_record():
    record = indexed_reconstruct(_rejected_and_stray_trace(), _gp4(), _gp4_book())[2]
    # a strand keeps the error of its first undecodable block
    assert list(record.rejected) == [1] and record.stray == (3,)
    return _record_text(record)


def sd_65537():
    m = BitSeq.random(sd_message_len(65537, 3), np.random.default_rng(7))
    return encode_sd(m, 65537, 3).to_text()


def sd_131073_inner():
    # the SD inner word alone: 256 chained chunks of 512 symbols
    p = derive_sd_params(131073, 3)
    m = BitSeq.random(p.n_prime, np.random.default_rng(7))
    return codec(p.zero_len, 3, p.inner_len).encode(m).to_text()


def unrank_past_span():
    # scalar unranks longer than the codec's longest chunk read a longer
    # table: an exact (15, 3) codec and the (10, 1) fallback of a (30, 3) one
    words = []
    for c, length in ((codec(15, 3, 300, 64), 200), (codec(30, 3, 600), 700)):
        count = c.count(length)
        for i in (0, 1, count // 3, count // 2, count - 1):
            words.append(c.unrank_from_start(i, length).to_text())
    return ",".join(words)


def sd_2048_zeros():
    # 94 close-pair rewrites, so the window index field is written
    return encode_sd(BitSeq.zeros(sd_message_len(2048, 1)), 2048, 1).to_text()


def scaffold_65537():
    return scaffold_for(65537, 3).sbar.to_text()


def scaffold_65537_d2():
    return scaffold_for(65537, 2).sbar.to_text()


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
    multi_rs_flipped_strand_report: "1ccff6f00560de1cd9116fbca6f56b788dfee5af8d8b7aa7ceac418e75515ba4",
    trace_rs_damaged_reports: "939938b3e636ed61876199e7b7167e2559341cc07ac07f9de2479d53d162ce99",
    trace_rs_damaged_records: "ce20171e91739a5e98f2e37e9bc27c3e42f41a8ef7cb5e5719681a8f77234be2",
    trace_clean_record: "db37db8a8687678776b834d2e90e771948a463670162d38eb75436f9d34e03b9",
    multi_rs_missing_strand_record: "c986a3f678507177463ba57c04d6fb9fdb14026b61b3b0fdde739483bfcefab3",
    multi_rs_flipped_strand_record: "4b0c0c8eec57a39d31c559506b96a2ca8172658f289bb83fe73501d2869bd139",
    multi_rejected_and_stray_record: "af15f7b0a26924de66aea08c52694fb33219f5eea167e5ae260fca6621275109",
    sd_65537: "4910c994e6d10b651fe6cce111067fa34e9683f5db533a28b720692749fce7e0",
    sd_131073_inner: "b8ed7a0b0f069f6d600093fec077bb9b88b3252ce82b33948683667bfbd12649",
    unrank_past_span: "88b6fbf6e554ca98abc6d142f1071fbfcbb012a6898309fe5806e0d88a11b899",
    sd_2048_zeros: "6c510a0dff3980888eafcb90ea2aeaeb4a61590d066f199f8e039f976c88f46d",
    scaffold_65537: "5206f2a8b6e47055fa97301c15b94dd3f139239808e4be11c2e394ab209abb41",
    scaffold_65537_d2: "afa8a1b474dd782a951946eec40e320a3a09b98a5316b910165d34c52dbf4e29",
}


@pytest.mark.parametrize("case", list(PINNED), ids=lambda f: f.__name__)
def test_output_is_pinned(case):
    assert hashlib.sha256(case().encode()).hexdigest() == PINNED[case]


def test_the_damaged_rs_pins_correct_symbols(monkeypatch):
    # every pinned damaged-trace decode repairs blocks through the lanes
    sent, received = [], []
    encode, decode = outer.Lanes.encode, outer.Lanes.decode

    def encode_spy(self, m):
        sent.append(encode(self, m))
        return sent[-1]

    def decode_spy(self, payloads, report, record):
        received.append(list(payloads))
        return decode(self, payloads, report, record)

    monkeypatch.setattr(outer.Lanes, "encode", encode_spy)
    monkeypatch.setattr(outer.Lanes, "decode", decode_spy)
    trace_rs_damaged_reports()
    assert len(sent) == len(received) == len(DAMAGED_TRIALS)
    assert all(a != b for a, b in zip(sent, received))


def test_the_four_bad_group_failure_is_pinned():
    # groups 0, 4, 5 and 12 are wrong: one past tau = 3 in every lane
    with pytest.raises(DecodeFailure) as exc:
        _damaged_rs_decode(8640, 12, seed=10)
    assert str(exc.value) == "outer code locator roots do not match its degree"


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
