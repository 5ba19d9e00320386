import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from strandcode.bitseq import BitSeq, hamming, is_wwl
from strandcode.constrained import (
    ConstrainedCodec,
    _automaton,
    _count_table,
    _pick_constraint,
    apply_dist,
    auto_cyclic,
    enc_dist,
    index_wwl,
    index_wwl_decode,
    index_wwl_len,
    wwl_capacity,
    wwl_decode,
    wwl_encode,
)


# ----------------------------------------------------------------- markers


def test_auto_cyclic_small_cases():
    assert auto_cyclic(1).to_text() == "11"
    assert auto_cyclic(3).to_text() == "111101110111"


@pytest.mark.parametrize("d", range(1, 17))
def test_auto_cyclic_shift_distance(d):
    """Zero-padded shifts by 1..d bits all land far away in Hamming distance."""
    u = auto_cyclic(d)
    top = 0 if d == 1 else (d - 1).bit_length()
    assert len(u) == d * top + 2 * d
    for i in range(1, d + 1):
        shifted = BitSeq.zeros(i) + u.window(0, len(u) - i)
        assert hamming(u, shifted) >= d


def test_auto_cyclic_starts_with_ones():
    for d in (1, 2, 5, 9):
        u = auto_cyclic(d)
        assert u.window(0, d) == BitSeq.ones(d)


# --------------------------------------------------- window difference codec


def test_enc_dist_fixed_example():
    # differences at 1-based positions 3 and 7, field width ceil(log 11) = 4
    x = BitSeq.from_text("0000000000")
    y = BitSeq.from_text("0010001000")
    blob = enc_dist(x, y, 10, 3)
    assert blob.to_text() == "1100" + "1110" + "0000"
    assert apply_dist(x, blob, 10, 3) == y


def test_enc_dist_identical_windows():
    x = BitSeq.from_text("1011")
    blob = enc_dist(x, x, 4, 2)
    assert blob == BitSeq.zeros(2 * 3)
    assert apply_dist(x, blob, 4, 2) == x


def test_enc_dist_rejects_excess_distance():
    x = BitSeq.from_text("0000")
    y = BitSeq.from_text("1110")
    with pytest.raises(ValueError):
        enc_dist(x, y, 4, 2)


@settings(max_examples=200)
@given(st.data())
def test_enc_dist_roundtrip(data):
    L = data.draw(st.integers(1, 64))
    rho = data.draw(st.integers(0, 8))
    bits = data.draw(st.integers(0, 2**L - 1))
    x = BitSeq(bits, L)
    flips = data.draw(st.sets(st.integers(0, L - 1), max_size=rho))
    y = x
    for p in flips:
        y = y.with_bit(p, not y[p])
    blob = enc_dist(x, y, L, rho)
    assert len(blob) == rho * math.ceil(math.log2(L + 1))
    assert apply_dist(x, blob, L, rho) == y


# ------------------------------------------------------- enumerative codec


@pytest.mark.parametrize("K,d", [(4, 1), (15, 3), (10, 2), (64, 3), (21, 1)])
@pytest.mark.parametrize("n_out", [37, 200, 515])
def test_wwl_roundtrip_and_constraint(K, d, n_out):
    cap = wwl_capacity(n_out, K, d)
    rng = np.random.default_rng(K * 1000 + d * 10 + n_out)
    for _ in range(10):
        msg = BitSeq.random(cap, rng)
        x = wwl_encode(msg, K, d, n_out)
        assert len(x) == n_out
        assert is_wwl(x, K, d)
        assert wwl_decode(x, K, d) == msg


@pytest.mark.parametrize("K,d", [(4, 1), (15, 3)])
def test_wwl_all_zero_message(K, d):
    """The worst-case message still produces a legal constrained string."""
    cap = wwl_capacity(300, K, d)
    x = wwl_encode(BitSeq.zeros(cap), K, d, 300)
    assert is_wwl(x, K, d)
    assert wwl_decode(x, K, d) == BitSeq.zeros(cap)


def test_wwl_redundancy_is_modest():
    # run-length fallback on a wide window costs only a few bits
    assert 1000 - wwl_capacity(1000, 64, 3) <= 8


def test_codec_rejects_bad_lengths():
    codec = ConstrainedCodec(15, 3, 100)
    with pytest.raises(ValueError):
        codec.encode(BitSeq.zeros(codec.msg_len + 1))
    with pytest.raises(ValueError):
        codec.decode(BitSeq.ones(99))


def test_codec_decode_rejects_constraint_violation():
    codec = ConstrainedCodec(4, 1, 40)
    with pytest.raises(ValueError):
        codec.decode(BitSeq.zeros(40))


def test_codec_injective_dense():
    codec = ConstrainedCodec(5, 1, 20)
    seen = set()
    for v in range(1 << codec.msg_len):
        out = codec.encode(BitSeq.from_int(v, codec.msg_len))
        assert is_wwl(out, 5, 1)
        seen.add(out.value)
    assert len(seen) == 1 << codec.msg_len


def test_codec_count_matches_enumeration():
    codec = ConstrainedCodec(5, 2, 12)
    want = sum(
        1
        for v in range(1 << 12)
        if is_wwl(BitSeq(v, 12), 5, 2)
    )
    assert codec.count(12) == want


def _count_table_by_rows(window, floor, length):
    """The count table built one state at a time, as a reference."""
    auto = _automaton(window, floor)
    counts = [[1] * auto.n_states]
    for _ in range(length):
        prev = counts[-1]
        row = []
        for s in range(auto.n_states):
            total = 0
            if auto.t0[s] >= 0:
                total += prev[auto.t0[s]]
            if auto.t1[s] >= 0:
                total += prev[auto.t1[s]]
            row.append(total)
        counts.append(row)
    return [[counts[r][s] for r in range(length + 1)] for s in range(auto.n_states)]


@pytest.mark.parametrize(
    "window, floor, length",
    [
        (15, 3, 512),
        (10, 1, 56),
        (8, 3, 47),
        (*_pick_constraint(30, 3), 60),
        (5, 5, 20),
        (15, 3, 0),
        (15, 3, 1),
    ],
)
def test_count_table_matches_the_row_by_row_reference(window, floor, length):
    assert _count_table(window, floor, length) == _count_table_by_rows(window, floor, length)


def test_run_length_fallback_and_full_floor_tables():
    # the cases above reach both corners of the automaton
    assert _pick_constraint(30, 3) == (10, 1)
    assert _count_table(5, 5, 20)[_automaton(5, 5).init_id] == [1] * 21


def test_shorter_table_is_a_prefix_of_the_longer():
    long = _count_table(15, 3, 512)
    assert _count_table(15, 3, 453) == [row[:454] for row in long]


def test_codec_builds_one_table_at_its_longest_chunk():
    codec = ConstrainedCodec(15, 3, 2 * 512 + 453)
    assert codec.chunk_lengths == [512, 512, 453]
    msg = BitSeq.random(codec.msg_len, np.random.default_rng(0))
    _count_table.cache_clear()
    assert codec.decode(codec.encode(msg)) == msg
    assert _count_table.cache_info().currsize == 1
    assert codec.count(453) == _count_table(15, 3, 512)[_automaton(15, 3).init_id][453]


# ------------------------------------------------------------ index fields


@pytest.mark.parametrize("n,d", [(1024, 1), (4096, 1), (65537, 3), (2**20, 5)])
def test_index_roundtrip(n, d):
    L = index_wwl_len(n, d)
    assert L == math.ceil(math.log2(n)) + d
    llog = math.ceil(math.log2(math.ceil(math.log2(n))))
    rng = np.random.default_rng(n + d)
    picks = {0, 1, n - 1, n // 2} | {int(v) for v in rng.integers(0, n, 40)}
    for i in picks:
        f = index_wwl(i, n, d)
        assert len(f) == L
        assert is_wwl(f, d * llog, d)
        assert index_wwl_decode(f, n, d) == i


def test_index_injective_dense():
    n = 600
    fields = {index_wwl(i, n, 1).value for i in range(n)}
    assert len(fields) == n


def test_index_rejects_out_of_range():
    with pytest.raises(ValueError):
        index_wwl(1024, 1024, 1)
    with pytest.raises(ValueError):
        index_wwl(-1, 1024, 1)
