import contextlib
import hashlib
import io
import json

import numpy as np
import pytest

from strandcode.bitseq import BitSeq
from strandcode.cli import main
from strandcode.errors import DecodeFailure, LayoutError, SearchExhausted
from strandcode.oracle import check_p123, check_sd_exhaustive
from strandcode.positioning import (
    IndexBook,
    book_from_json,
    book_to_json,
    build_index_book,
    certify_book,
    find_marker,
    locate_index,
)


@pytest.fixture(scope="module")
def book():
    return build_index_book(I=4, d=3, K_marker=8, r_I=16, seed=1)


def test_book_shape(book):
    assert len(book.codewords) == 16
    assert book.codeword_len == 20
    assert book.e == 1
    assert sum(book.segment_widths) == 20
    assert all(w <= book.K_marker + 1 for w in book.segment_widths)
    assert len(book.marker) == book.K_marker + 12


def test_book_is_substring_distant(book):
    assert check_sd_exhaustive(book.concat, book.codeword_len, book.d)


def test_book_piece_family(book):
    assert check_p123(book.codewords, 18, book.d)


def test_trivial_book():
    b = build_index_book(I=0, d=1, K_marker=4, r_I=6, seed=0)
    assert len(b.codewords) == 1
    assert locate_index(b.codewords[0], b) == 0


def test_locate_exact(book):
    for i in range(16):
        assert locate_index(book.codewords[i], book) == i


def test_locate_straddles(book):
    """Suffix of one codeword glued to the prefix of the next still reports
    the earlier index, at every split point."""
    W = book.codeword_len
    for i in range(15):
        for mu in range(1, W):
            y = book.codewords[i].window(mu, W - mu) + book.codewords[i + 1].window(0, mu)
            assert locate_index(y, book) == i


def test_locate_with_errors(book):
    rng = np.random.default_rng(4)
    W = book.codeword_len
    for _ in range(300):
        i = int(rng.integers(0, 16))
        y = book.codewords[i]
        p = int(rng.integers(0, W))
        y = y.with_bit(p, not y[p])
        assert locate_index(y, book) == i


def test_locate_rejects_garbage(book):
    rng = np.random.default_rng(5)
    fails = 0
    for _ in range(300):
        try:
            locate_index(BitSeq.random(book.codeword_len, rng), book)
        except DecodeFailure:
            fails += 1
    assert fails > 270


def test_find_marker_cyclic(book):
    rng = np.random.default_rng(6)
    blk = book.marker + BitSeq.random(70, rng)
    x = blk + blk + blk
    for off in range(90):
        y = x.window(off, 90)
        assert find_marker(y, book, 1) == (90 - off) % 90


def test_find_marker_tolerates_flip(book):
    rng = np.random.default_rng(7)
    blk = book.marker + BitSeq.random(70, rng)
    x = blk + blk + blk
    y = x.window(5, 90)
    y = y.with_bit(85 + 3, not y[85 + 3])
    assert find_marker(y, book, 1) == 85


def test_find_marker_rejects_markerless():
    b = build_index_book(I=0, d=1, K_marker=6, r_I=6, seed=0)
    with pytest.raises(LayoutError):
        find_marker(BitSeq.ones(40), b, 0)


def test_search_reports_infeasible():
    with pytest.raises(SearchExhausted):
        build_index_book(I=4, d=3, K_marker=8, r_I=6, seed=0, max_tries=40, max_restarts=5)


def test_json_roundtrip(book):
    assert book_from_json(book_to_json(book)) == book


def test_build_is_deterministic():
    a = build_index_book(I=3, d=3, K_marker=8, r_I=16, seed=42)
    b = build_index_book(I=3, d=3, K_marker=8, r_I=16, seed=42)
    assert a.codewords == b.codewords


# the greedy search's random draws, and so the books, are part of the
# format: a book is rebuilt from its parameters and seed
@pytest.mark.parametrize(
    "I, seed, K, r_I, digest",
    [
        (4, 0, 8, 16, "664232cbdec787c9ba1968a122519b4bb26ccea5fefc8f6bd3006594a07f21d9"),
        (4, 1, 8, 16, "4506a0518ca9e24b2762f077f892a37c14af4e53e414cc03d44837d2ac51c2ae"),
        (3, 42, 8, 16, "8616a4c6ce6d93afb20c9aa6725a295468d515d5800e94b245ab6f1cd6b75c64"),
        (7, 0, 32, 18, "8f3a150f2de295cb98b61a888ff029c1db8022ff6e82a6602e1983771110ef4a"),
        (9, 0, 32, 18, "7f9ff9e5cdcbe2e5a3e22f2ed87b57c4b83e11175775c3394687500b9aea0fa8"),
    ],
)
def test_build_draws_are_pinned(I, seed, K, r_I, digest):
    b = build_index_book(I=I, d=3, K_marker=K, r_I=r_I, seed=seed)
    text = "".join(c.to_text() for c in b.codewords)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.fixture(scope="module")
def book7():
    return build_index_book(I=7, d=3, K_marker=32, r_I=18, seed=0)


def _planted(b):
    """``b`` with codeword 5 moved to distance 1 from codeword 9."""
    cw = list(b.codewords)
    cw[5] = cw[9].with_bit(0, not cw[9][0])
    return IndexBook(b.I, b.r_I, b.d, b.K_marker, tuple(cw), b.marker)


@pytest.fixture(scope="module")
def planted7(book7):
    return _planted(book7)


def test_certify_rejects_close_pair_above_exhaustive_limit(planted7, book):
    # a sampled pair check can miss the one close pair; the exact search
    # must find it at every I, above and below the piece-family limit
    for planted in (_planted(book), planted7):
        with pytest.raises(SearchExhausted):
            certify_book(planted)


def test_verify_book_cli_rejects_close_pair(planted7, tmp_path):
    path = tmp_path / "planted.json"
    path.write_text(book_to_json(planted7))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["verify", "book", "--in", str(path)])
    row = json.loads(buf.getvalue().splitlines()[-1])
    assert code == 1 and row["ok"] is False


def _locate_by_scan(y, book):
    """Reference: compare ``y`` with every window of the concatenation."""
    width = book.codeword_len
    wins = np.lib.stride_tricks.sliding_window_view(book.concat.to_numpy(), width)
    hits = np.flatnonzero((wins != y.to_numpy()).sum(axis=1) <= book.e)
    if len(hits) == 0:
        raise DecodeFailure(f"no index alignment within {book.e} errors")
    if len(hits) > 1:
        raise DecodeFailure(f"ambiguous index alignment at offsets {hits.tolist()}")
    return int(hits[0]) // width


def _outcome(fn, y, book):
    try:
        return fn(y, book)
    except DecodeFailure as exc:
        return str(exc)


@pytest.mark.parametrize("which", ["I0", "I0-narrow", "I4", "I7", "planted"])
def test_locate_matches_plain_scan(which, book, book7, planted7):
    b = {
        "I0": build_index_book(I=0, d=3, K_marker=8, r_I=10, seed=0),
        # 2-bit codewords at e = 4: some pigeonhole parts are empty
        "I0-narrow": build_index_book(I=0, d=9, K_marker=4, r_I=2, seed=0),
        "I4": book,
        "I7": book7,
        "planted": planted7,
    }[which]
    W = b.codeword_len
    concat = b.concat
    rng = np.random.default_rng(8)
    windows = list(b.codewords)
    for trial in range(600):
        if trial % 6 == 5:
            y = BitSeq.random(W, rng)
        else:
            y = concat.window(int(rng.integers(0, len(concat) - W + 1)), W)
            for p in rng.choice(W, size=min(W, trial % (b.e + 2)), replace=False):
                y = y.with_bit(int(p), not y[int(p)])
        windows.append(y)
    outcomes = [_outcome(locate_index, y, b) for y in windows]
    assert outcomes == [_outcome(_locate_by_scan, y, b) for y in windows]
    assert any(isinstance(o, int) for o in outcomes)
    assert any(str(o).startswith("no index") for o in outcomes) or which == "I0-narrow"
    if which == "planted":
        assert outcomes[5] == outcomes[9] == (
            f"ambiguous index alignment at offsets {[5 * W, 9 * W]}"
        )
