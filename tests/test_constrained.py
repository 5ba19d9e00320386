import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from strandcode import constrained
from strandcode.bitseq import BitSeq, hamming, is_wwl
from strandcode.constrained import (
    ConstrainedCodec,
    _automaton,
    _counts,
    _pick_constraint,
    apply_dist,
    auto_cyclic,
    enc_dist,
    index_wwl,
    index_wwl_decode,
    index_wwl_len,
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
    cap = ConstrainedCodec(K, d, n_out).msg_len
    rng = np.random.default_rng(K * 1000 + d * 10 + n_out)
    for _ in range(10):
        msg = BitSeq.random(cap, rng)
        x = ConstrainedCodec(K, d, n_out).encode(msg)
        assert len(x) == n_out
        assert is_wwl(x, K, d)
        assert ConstrainedCodec(K, d, len(x)).decode(x) == msg


@pytest.mark.parametrize("K,d", [(4, 1), (15, 3)])
def test_wwl_all_zero_message(K, d):
    """The worst-case message still produces a legal constrained string."""
    cap = ConstrainedCodec(K, d, 300).msg_len
    x = ConstrainedCodec(K, d, 300).encode(BitSeq.zeros(cap))
    assert is_wwl(x, K, d)
    assert ConstrainedCodec(K, d, len(x)).decode(x) == BitSeq.zeros(cap)


def test_wwl_redundancy_is_modest():
    # run-length fallback on a wide window costs only a few bits
    assert 1000 - ConstrainedCodec(64, 3, 1000).msg_len <= 8


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
    table = _counts(window, floor, length)
    assert table.array[:, :-1].T.tolist() == _count_table_by_rows(window, floor, length)
    # a dead step reads the zero column, and every view holds the same counts
    assert not table.array[:, -1].any()
    assert np.array_equal(table.words, table.array)
    auto = _automaton(window, floor)
    assert table.zero_rows == [table.array[:, t].tolist() for t in auto.step0]


def test_run_length_fallback_and_full_floor_tables():
    # the cases above reach both corners of the automaton
    assert _pick_constraint(30, 3) == (10, 1)
    assert _counts(5, 5, 20).array[:, _automaton(5, 5).init_id].tolist() == [1] * 21


def test_shorter_table_is_a_prefix_of_the_longer():
    long = _counts(15, 3, 512)
    short = _counts(15, 3, 453)
    assert np.array_equal(short.array, long.array[:454])
    assert short.zero_rows == [row[:454] for row in long.zero_rows]


def test_codec_builds_one_table_at_its_longest_chunk():
    codec = ConstrainedCodec(15, 3, 2 * 512 + 453)
    assert codec.chunk_lengths == [512, 512, 453]
    msg = BitSeq.random(codec.msg_len, np.random.default_rng(0))
    _counts.cache_clear()
    assert codec.decode(codec.encode(msg)) == msg
    # the walk's rows, the rank's array and the capacities are one table
    assert _counts.cache_info().currsize == 1
    table = _counts(15, 3, 512)
    assert codec.count(453) == table.array[453, _automaton(15, 3).init_id]
    # the walk's rows hold the array's own integers
    assert table.zero_rows[0][453] is table.array[453, _automaton(15, 3).step0[0]]


def _rank_by_symbols(codec, piece, state):
    """The rank one symbol at a time, as a reference: the chunk index of
    ``piece`` read from ``state`` and the state after it.  Raises at the
    first symbol whose step leaves the automaton."""
    auto = _automaton(codec._cw, codec._cf)
    length = len(piece)
    table = _counts(codec._cw, codec._cf, max(length, min(codec.chunk, codec.n_out))).array
    index = 0
    bits = piece.value
    for t in range(length):
        rest = length - t - 1
        s0 = auto.t0[state]
        if (bits >> t) & 1:
            if s0 >= 0:
                index += table[rest, s0]
            state = auto.t1[state]
        else:
            state = s0
        if state < 0:
            raise ValueError(f"window weight constraint violated at symbol {t}")
    return index, state


def _decode_by_symbols(codec, x):
    """``ConstrainedCodec.decode`` of one word through the reference rank."""
    state = _automaton(codec._cw, codec._cf).init_id
    out, pos = BitSeq.zeros(0), 0
    for B, cap in zip(codec.chunk_lengths, codec._caps):
        index, state = _rank_by_symbols(codec, x.window(pos, B), state)
        if index >> cap:
            raise ValueError("constrained string outside the message range")
        pos += B
        out = out + BitSeq.from_int(index, cap)
    return out


# One codec per automaton shape: the exact (15, 3) constraint, a chunk
# shorter than a tenth of the word, the run-length fallback (10, 1) of a
# (30, 3) demand, and floor = window, whose only valid word is all ones.
_FAULT_CODECS = {
    "15-3": ConstrainedCodec(15, 3, 1100),
    "8-3-chunk47": ConstrainedCodec(8, 3, 160, chunk=47),
    "30-3-fallback": ConstrainedCodec(30, 3, 600),
    "5-5-chunk16": ConstrainedCodec(5, 5, 40, chunk=16),
}


def _valid_word(codec, seed=0):
    msg = BitSeq.random(codec.msg_len, np.random.default_rng(seed))
    return codec.encode(msg).to_numpy().copy()


def _starve(arr, t, window, floor):
    """Leave the window ending at ``t`` one 1 short and every earlier window
    full: ``floor`` ones just before it, then zeros through ``t``."""
    arr[t - window : t - window + floor] = 1
    arr[t - window + floor : t + 1] = 0


def _faulty_word(codec, where):
    """A word whose only fault is ``where``, with the decoder's message."""
    w, d = codec._cw, codec._cf
    arr = _valid_word(codec)
    n = codec.n_out
    if where == "last window":
        t = n - 1
        _starve(arr, t, w, d)
    elif where == "chunk boundary":
        t = codec.chunk + 1
        _starve(arr, t, w, d)
        assert t - w < codec.chunk <= t
    elif where == "head":
        # the earliest window the initial state's leading ones cannot fill;
        # it is symbol 0 when floor = window
        t = w - d
        arr[: t + 1] = 0
    else:
        # the last chunk holds its starting state's largest index
        B = codec.chunk_lengths[-1]
        head = BitSeq.from_numpy(arr[: n - B])
        state = _automaton(w, d).init_id
        for pos in range(0, n - B, codec.chunk):
            _, state = _rank_by_symbols(codec, head.window(pos, codec.chunk), state)
        top = codec._counts_at(B).array[B, state] - 1
        assert top >> codec._caps[-1]
        arr[n - B :] = codec._unrank([(top, B)], state)[0].to_numpy()
        return arr, "constrained string outside the message range"
    return arr, f"window weight constraint violated at symbol {t % codec.chunk}"


@pytest.mark.parametrize(
    "name, where",
    [
        (name, where)
        for name in _FAULT_CODECS
        for where in ("last window", "chunk boundary", "head", "capacity")
        # floor = window leaves one word per chunk, so no index overflows
        if not (where == "capacity" and name == "5-5-chunk16")
    ],
)
def test_decode_rejects_a_word_with_one_fault(name, where):
    codec = _FAULT_CODECS[name]
    arr, text = _faulty_word(codec, where)
    x = BitSeq.from_numpy(arr)
    with pytest.raises(ValueError) as ref:
        _decode_by_symbols(codec, x)
    assert str(ref.value) == text
    with pytest.raises(ValueError) as got:
        codec.decode(x)
    assert str(got.value) == text


# The codecs above, a (4, 1) run-length codec whose one chunk is the whole
# word, the SD inner codec's (15, 3) at a short chunk, and a (10, 2) codec.
_RANK_CODECS = list(_FAULT_CODECS.values()) + [
    ConstrainedCodec(4, 1, 37),
    ConstrainedCodec(15, 3, 300, chunk=64),
    ConstrainedCodec(10, 2, 200, chunk=90),
]


def _outcome(codec, x):
    try:
        return _decode_by_symbols(codec, x)
    except ValueError as exc:
        return str(exc)


def _damaged_words(codec, rows, seed):
    """Codewords of random messages with 0-3 random flips each: a mix of
    codewords, words that leave the code and words past a chunk's capacity."""
    rng = np.random.default_rng(seed)
    arr = np.stack([_valid_word(codec, seed * 1000 + i) for i in range(rows)])
    for row in arr:
        row[rng.choice(codec.n_out, int(rng.integers(0, 4)), replace=False)] ^= 1
    return arr


def _codec_id(c):
    return f"{c.window}-{c.floor}-{c.n_out}-{c.chunk}"


@pytest.mark.parametrize("codec", _RANK_CODECS, ids=_codec_id)
def test_batch_decode_matches_the_symbol_reference(codec):
    valid = np.stack([_valid_word(codec, seed) for seed in range(20)])
    mixed = _damaged_words(codec, 60, 1)
    noise = (np.random.default_rng(2).random((60, codec.n_out)) < 0.8).astype(np.uint8)
    seen = set()
    for arr in (valid, mixed, noise, mixed[:1], noise[7:8]):
        got = codec.decode(arr)
        assert len(got) == len(arr)
        for row, out in zip(arr, got):
            want = _outcome(codec, BitSeq.from_numpy(row))
            assert (str(out) if isinstance(out, ValueError) else out) == want
            seen.add(type(want))
    assert seen == {BitSeq, str}


@pytest.mark.parametrize("codec", _RANK_CODECS[:3], ids=lambda c: f"{c.window}-{c.floor}")
def test_slices_of_a_few_ones_rank_alike(codec, monkeypatch):
    # slices that end inside rows, chunks and the d ones before a row
    arr = np.concatenate([_damaged_words(codec, 12, 4), np.ones((2, codec.n_out), np.uint8)])
    want = [str(out) if isinstance(out, ValueError) else out for out in codec.decode(arr)]
    for size in (1, 2, 7):
        monkeypatch.setattr(constrained, "_SLICE", size)
        got = [str(out) if isinstance(out, ValueError) else out for out in codec.decode(arr)]
        assert got == want, size


def test_mixed_batches_reach_every_outcome():
    codec = ConstrainedCodec(15, 3, 300, chunk=64)
    outcomes = [_outcome(codec, BitSeq.from_numpy(row)) for row in _damaged_words(codec, 60, 1)]
    kinds = {o if isinstance(o, str) else "decoded" for o in outcomes}
    assert "decoded" in kinds
    assert "constrained string outside the message range" in kinds
    assert any(k.startswith("window weight constraint violated") for k in kinds)


@pytest.mark.parametrize("codec", _RANK_CODECS, ids=_codec_id)
def test_rank_from_start_matches_the_symbol_reference(codec):
    init = _automaton(codec._cw, codec._cf).init_id
    rng = np.random.default_rng(3)
    for length in (0, 1, codec._cw, 25):
        for _ in range(30):
            piece = BitSeq.from_numpy((rng.random(length) < 0.85).astype(np.uint8))
            try:
                want = _rank_by_symbols(codec, piece, init)[0]
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{exc}$"):
                    codec.rank_from_start(piece)
            else:
                assert codec.rank_from_start(piece) == want
    for i in {0, codec.count(25) // 2, codec.count(25) - 1}:
        assert codec.rank_from_start(codec.unrank_from_start(i, 25)) == i


# The γ=0 payload codec beside them: every walk shape, in int64 and on the
# object table whose counts pass 2^63.
_WALK_CODECS = _RANK_CODECS + [ConstrainedCodec(8, 3, 39)]


def _walk_table(codec):
    return codec._counts_at(0).words.dtype


def test_the_walk_codecs_take_both_tables():
    assert {_walk_table(c) for c in _WALK_CODECS} == {np.dtype(np.int64), np.dtype(object)}
    assert _walk_table(_FAULT_CODECS["15-3"]) == object  # chunks of 512 symbols
    assert _walk_table(_WALK_CODECS[-1]) == np.int64
    # and rows of many chunks, each after the first from the state the
    # one before left
    assert max(len(c.chunk_lengths) for c in _WALK_CODECS) >= 5
    # and words of three or more chunks whose later indices start inside a
    # byte of the message, which the one-word encode cuts from byte slices
    unaligned = [
        c for c in _WALK_CODECS
        if len(c._caps) >= 3 and all(sum(c._caps[:k]) % 8 for k in range(1, len(c._caps)))
    ]
    assert ConstrainedCodec(15, 3, 1100) in unaligned and len(unaligned) >= 2


@pytest.mark.parametrize("codec", _WALK_CODECS, ids=_codec_id)
def test_batch_encode_matches_the_symbol_walk(codec):
    rng = np.random.default_rng(5)
    msgs = np.concatenate([
        (rng.random((12, codec.msg_len)) < 0.5).astype(np.uint8),
        np.zeros((1, codec.msg_len), np.uint8),
        np.ones((1, codec.msg_len), np.uint8),
    ])
    for batch in (msgs, msgs[:1], msgs[:0]):
        words = codec.encode(batch)
        assert words.shape == (len(batch), codec.n_out) and words.dtype == np.uint8
        for row, word in zip(batch, words):
            assert np.array_equal(word, codec.encode(BitSeq.from_numpy(row)).to_numpy())
    with pytest.raises(ValueError, match=f"expected rows of {codec.msg_len} bits"):
        codec.encode(np.zeros((2, codec.msg_len + 1), np.uint8))
    with pytest.raises(ValueError, match=f"expected rows of {codec.msg_len} bits"):
        codec.encode(np.zeros(codec.msg_len, np.uint8))


@pytest.mark.parametrize("codec", _WALK_CODECS, ids=_codec_id)
def test_batch_unrank_from_start_matches_the_symbol_walk(codec):
    for length in (0, 1, codec._cw, 25, 70):
        count = codec.count(length)
        picks = sorted({0, 1 % count, count // 3, count // 2, count - 1})
        got = codec.unrank_from_start(picks, length)
        assert got.shape == (len(picks), length)
        for i, row in zip(picks, got):
            assert np.array_equal(row, codec.unrank_from_start(i, length).to_numpy())
        assert codec.unrank_from_start([], length).shape == (0, length)
        for over in (count, -1):
            with pytest.raises(ValueError, match="^message index exceeds the constrained count$"):
                codec.unrank_from_start(over, length)
            with pytest.raises(ValueError, match="^message index exceeds the constrained count$"):
                codec.unrank_from_start([0, over], length)


# The exact (15, 3) constraint at the SD inner codec's 512-symbol chunk and
# at a short one, and the (10, 1) run-length fallback of a (30, 3) demand.
_KERNEL_CODECS = [
    ConstrainedCodec(15, 3, 1100),
    ConstrainedCodec(15, 3, 300, chunk=64),
    ConstrainedCodec(30, 3, 600, chunk=90),
]


def _walk_row(codec, index, state, length):
    """The batch walk of one index from one state: its word and end state."""
    out = np.empty((1, length), dtype=np.uint8)
    dtype = codec._counts_at(length).words.dtype
    (end,) = codec._walk(np.array([index], dtype=dtype), np.array([state]), out)
    return out[0], int(end)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_the_word_walk_matches_the_batch_walk_from_any_state(data):
    codec = data.draw(st.sampled_from(_KERNEL_CODECS), label="codec")
    auto = _automaton(codec._cw, codec._cf)
    start = state = data.draw(st.integers(0, auto.n_states - 1), label="state")
    lengths = data.draw(
        st.lists(st.integers(0, 2 * codec.chunk), min_size=1, max_size=2), label="lengths"
    )
    pieces, rows = [], []
    for length in lengths:
        table = codec._counts_at(length).array
        index = data.draw(st.integers(0, table[length, state] - 1), label="index")
        row, state = _walk_row(codec, index, state, length)
        pieces.append((index, length))
        rows.append(row)
    word, end = codec._unrank(pieces, start)
    assert np.array_equal(word.to_numpy(), np.concatenate(rows))
    assert end == state
    # an index at its state's count leaves the code, in any piece
    at = data.draw(st.integers(0, len(pieces) - 1), label="over")
    piece_start = start if at == 0 else codec._unrank(pieces[:at], start)[1]
    length = pieces[at][1]
    over = codec._counts_at(length).array[length, piece_start]
    bad = pieces[:at] + [(over, length)] + pieces[at + 1 :]
    with pytest.raises(ValueError, match="^message index exceeds the constrained count$"):
        codec._unrank(bad, start)


@pytest.mark.parametrize("window, floor", [(15, 3), (8, 3), (10, 1), (5, 5), (10, 2), (4, 1)])
def test_every_age_set_is_a_state(window, floor):
    # the rank keys a state by its ages; no key may miss a state
    auto = _automaton(window, floor)
    assert auto.n_states == math.comb(window, floor)
    binom, after0 = auto.binom, auto.after0
    assert len(after0) == auto.n_states
    for s, sid in auto.states.items():
        key = sum(int(binom[i, a]) for i, a in enumerate(s))
        assert after0[key] == (auto.t0[sid] if auto.t0[sid] >= 0 else auto.n_states)
    # the batch walk steps on a 1 without a dead column
    assert min(auto.t1) >= 0


def test_decode_rejects_rows_of_the_wrong_length():
    codec = ConstrainedCodec(15, 3, 100)
    with pytest.raises(ValueError, match="expected rows of 100 symbols"):
        codec.decode(np.ones((2, 99), dtype=np.uint8))
    assert codec.decode(np.ones((0, 100), dtype=np.uint8)) == []
    assert ConstrainedCodec(15, 3, 0).decode(BitSeq.zeros(0)) == BitSeq.zeros(0)


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
