import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from strandcode.bitseq import (
    BitSeq,
    hamming,
    is_sd,
    is_wwl,
    majority_merge,
)

bitstrings = st.text(alphabet="01", min_size=0, max_size=200)


@given(bitstrings)
def test_text_roundtrip(s):
    assert BitSeq.from_text(s).to_text() == s


@given(bitstrings)
def test_bits_roundtrip(s):
    x = BitSeq.from_text(s)
    assert BitSeq.from_bits(list(x)).to_text() == s


@given(bitstrings)
def test_numpy_roundtrip(s):
    x = BitSeq.from_text(s)
    arr = x.to_numpy()
    assert arr.dtype == np.uint8
    assert BitSeq.from_numpy(arr) == x


@given(bitstrings)
def test_hex_roundtrip(s):
    x = BitSeq.from_text(s)
    assert BitSeq.from_hex(x.to_hex(), len(x)) == x


@given(st.integers(0, 2**70), st.integers(71, 90))
def test_int_roundtrip(v, width):
    x = BitSeq.from_int(v, width)
    assert len(x) == width
    assert x.value == v


@given(bitstrings, bitstrings)
def test_concat(a, b):
    x = BitSeq.from_text(a) + BitSeq.from_text(b)
    assert x.to_text() == a + b


@given(bitstrings, st.data())
def test_window_matches_slicing(s, data):
    x = BitSeq.from_text(s)
    i = data.draw(st.integers(0, len(s)))
    ln = data.draw(st.integers(0, len(s) - i))
    assert x.window(i, ln).to_text() == s[i : i + ln]
    assert x.window_int(i, ln) == BitSeq.from_text(s[i : i + ln]).value


def test_getitem_and_slice():
    x = BitSeq.from_text("0110100")
    assert x[0] == 0 and x[1] == 1 and x[-1] == 0
    assert x[2:5].to_text() == "101"
    with pytest.raises(IndexError):
        x[7]


@given(bitstrings, st.data())
def test_splice_replaces_range(s, data):
    x = BitSeq.from_text(s)
    i = data.draw(st.integers(0, len(s)))
    ln = data.draw(st.integers(0, len(s) - i))
    rep = data.draw(bitstrings)
    out = x.splice(i, ln, BitSeq.from_text(rep))
    assert out.to_text() == s[:i] + rep + s[i + ln :]


@given(bitstrings)
def test_weight_and_hamming(s):
    x = BitSeq.from_text(s)
    assert x.weight() == s.count("1")
    assert hamming(x, x) == 0
    y = x.xor(BitSeq.ones(len(x)))
    assert hamming(x, y) == len(x)


def test_hamming_rejects_length_mismatch():
    with pytest.raises(ValueError):
        hamming(BitSeq.from_text("01"), BitSeq.from_text("011"))


@given(bitstrings, st.integers(1, 12), st.integers(1, 4))
def test_is_wwl_matches_definition(s, L, d):
    """Every length-L window has weight >= d, windows shorter strings pass."""
    x = BitSeq.from_text(s)
    naive = all(s[i : i + L].count("1") >= d for i in range(len(s) - L + 1))
    assert is_wwl(x, L, d) == naive


@given(bitstrings, st.integers(1, 10), st.integers(1, 4))
def test_is_sd_matches_definition(s, L, d):
    x = BitSeq.from_text(s)
    wins = [s[i : i + L] for i in range(len(s) - L + 1)]
    naive = all(
        sum(a != b for a, b in zip(wins[i], wins[j])) >= d
        for i in range(len(wins))
        for j in range(i + 1, len(wins))
    )
    assert is_sd(x, L, d) == naive


def test_majority_merge_votes():
    votes = [(0, 3), (2, 1), (1, 1), (3, 0)]
    merged, ties = majority_merge(votes)
    assert merged.to_text() == "1000"
    assert ties.to_text() == "0010"


def test_majority_merge_requires_coverage():
    with pytest.raises(ValueError):
        majority_merge([(1, 2), (0, 0)])


@settings(max_examples=25)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=30))
def test_majority_merge_is_positionwise(votes):
    if any(z == 0 and o == 0 for z, o in votes):
        return
    merged, ties = majority_merge(votes)
    for k, (z, o) in enumerate(votes):
        assert merged[k] == (1 if o > z else 0)
        assert ties[k] == (1 if o == z else 0)


def test_random_is_seed_deterministic():
    a = BitSeq.random(97, np.random.default_rng(11))
    b = BitSeq.random(97, np.random.default_rng(11))
    assert a == b and len(a) == 97
