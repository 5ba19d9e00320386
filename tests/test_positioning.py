import contextlib
import hashlib
import io
import json
import math

import numpy as np
import pytest

from strandcode import _bitops, positioning
from strandcode.bitseq import BitSeq, is_wwl
from strandcode.blocks import C
from strandcode.cli import main
from strandcode.errors import DecodeFailure, SearchExhausted
from strandcode.oracle import check_p123, check_sd_exhaustive
from strandcode.positioning import (
    AMBIGUOUS,
    NOT_FOUND,
    IndexBook,
    book_from_json,
    book_to_json,
    build_index_book,
    certify_book,
    find_marker,
    locate_index,
)
from strandcode.trace_codes import _trace_layout, derive_trace_params


@pytest.fixture(scope="module")
def book():
    return build_index_book(I=4, d=3, K_marker=8, r_I=16, seed=1)


def _rows(ys):
    """Equal-length BitSeqs as the rows of one 0/1 batch."""
    return np.array([y.to_numpy() for y in ys], dtype=np.uint8).reshape(len(ys), -1)


def _locate(ys, book):
    return locate_index(_bitops.pack_rows(_rows(ys)), book).tolist()


def test_book_shape(book):
    assert len(book.codewords) == 16
    assert book.codeword_len == 20
    assert book.e == 1
    # a trace block carries the codeword in F segments, cut by its layout
    p = derive_trace_params(4320, 1, L_min=90, L_over=85, I=4, r_I=16, K=book.K_marker)
    edges = np.diff(np.r_[0, _trace_layout(p).kind == C, 0].astype(int))
    widths = np.flatnonzero(edges == -1) - np.flatnonzero(edges == 1)
    assert len(widths) == p.F
    assert sum(widths) == 20
    assert all(w <= book.K_marker + 1 for w in widths)
    assert len(book.marker) == book.K_marker + 12


def test_book_is_substring_distant(book):
    assert check_sd_exhaustive(book.concat, book.codeword_len, book.d)


def test_book_piece_family(book):
    assert check_p123(book.codewords, 18, book.d)


def test_trivial_book():
    b = build_index_book(I=0, d=1, K_marker=4, r_I=6, seed=0)
    assert len(b.codewords) == 1
    assert _locate(b.codewords, b) == [0]


def test_locate_exact(book):
    assert _locate(book.codewords, book) == list(range(16))


def test_locate_straddles(book):
    """Suffix of one codeword glued to the prefix of the next still reports
    the earlier index, at every split point."""
    W = book.codeword_len
    for i in range(15):
        ys = [
            book.codewords[i].window(mu, W - mu) + book.codewords[i + 1].window(0, mu)
            for mu in range(1, W)
        ]
        assert _locate(ys, book) == [i] * (W - 1)


def test_locate_with_errors(book):
    rng = np.random.default_rng(4)
    W = book.codeword_len
    want, ys = [], []
    for _ in range(300):
        i = int(rng.integers(0, 16))
        y = book.codewords[i]
        p = int(rng.integers(0, W))
        want.append(i)
        ys.append(y.with_bit(p, not y[p]))
    assert _locate(ys, book) == want


def test_locate_rejects_garbage(book):
    rng = np.random.default_rng(5)
    found = _locate([BitSeq.random(book.codeword_len, rng) for _ in range(300)], book)
    assert found.count(NOT_FOUND) > 270


def test_find_marker_cyclic(book):
    rng = np.random.default_rng(6)
    blk = book.marker + BitSeq.random(70, rng)
    x = blk + blk + blk
    q = find_marker(_rows([x.window(off, 90) for off in range(90)]), book, 1)
    assert q.tolist() == [(90 - off) % 90 for off in range(90)]


def test_find_marker_tolerates_flip(book):
    rng = np.random.default_rng(7)
    blk = book.marker + BitSeq.random(70, rng)
    x = blk + blk + blk
    y = x.window(5, 90)
    y = y.with_bit(85 + 3, not y[85 + 3])
    assert find_marker(_rows([y]), book, 1).tolist() == [85]


def test_find_marker_rejects_markerless():
    b = build_index_book(I=0, d=1, K_marker=6, r_I=6, seed=0)
    assert find_marker(_rows([BitSeq.ones(40)]), b, 0).tolist() == [-1]
    with pytest.raises(ValueError):
        find_marker(_rows([BitSeq.ones(4)]), b, 0)


def _marker_by_scan(y, book, e):
    """Reference: the marker against the window read cyclically at every
    offset; the offset, or the number of offsets when not exactly one."""
    p = book.marker.to_text()
    doubled = y.to_text() * 2
    hits = [
        q for q in range(len(y))
        if sum(a != b for a, b in zip(doubled[q : q + len(p)], p)) <= e
    ]
    return hits[0] if len(hits) == 1 else f"{len(hits)} offsets"


def test_find_marker_matches_plain_scan(book):
    rng = np.random.default_rng(9)
    period = 90
    blk = book.marker + BitSeq.random(period - len(book.marker), rng)
    x = blk + blk
    ys = []
    for trial in range(400):
        if trial % 4 == 3:
            y = BitSeq.random(period, rng)
        else:
            y = x.window(int(rng.integers(0, period)), period)
        for p in rng.choice(period, size=trial % 3, replace=False):
            y = y.with_bit(int(p), not y[int(p)])
        ys.append(y)
    # a window holding the marker twice, at two offsets
    ys.append(book.marker + book.marker + BitSeq.zeros(period - 2 * len(book.marker)))
    for e in (0, 1, 2):
        got = find_marker(_rows(ys), book, e).tolist()
        want = [_marker_by_scan(y, book, e) for y in ys]
        assert got == [w if isinstance(w, int) else -1 for w in want]
        assert any(isinstance(w, int) for w in want)
        assert any(w == "0 offsets" for w in want)
    assert _marker_by_scan(ys[-1], book, 0) == "2 offsets"


def test_search_reports_infeasible():
    with pytest.raises(SearchExhausted):
        build_index_book(I=4, d=3, K_marker=8, r_I=6, seed=0, max_tries=40, max_restarts=5)


def _book_by_all_windows(I, d, K, r_I, seed, max_tries, max_restarts):
    """Reference: the greedy search comparing every try's windows with
    every accepted window, bit by bit.  Returns the codewords and the
    number of restarts, or raises as the search does."""
    width = I + r_I
    rng = np.random.default_rng(np.random.SeedSequence((seed, I, d, K, r_I)))
    codewords, restarts = [], 0
    windows = np.empty((0, width), dtype=np.uint8)
    while len(codewords) < 1 << I:
        for _ in range(max_tries):
            cand = BitSeq.random(width, rng)
            joint = (codewords[-1] + cand if codewords else cand).to_numpy()
            new = np.lib.stride_tricks.sliding_window_view(joint, width)[-width:]
            dist = (new[:, None] != np.concatenate([windows, new])[None]).sum(axis=2)
            dist[np.arange(len(new)), len(windows) + np.arange(len(new))] = d
            if dist.min() >= d:
                codewords.append(cand)
                windows = np.concatenate([windows, new])
                break
        else:
            restarts += 1
            if restarts > max_restarts or not codewords:
                raise SearchExhausted("budget spent")
            windows = windows[: -width if len(codewords) > 1 else -1]
            codewords.pop()
    return codewords, restarts


# (I, d, r_I, seed, restarts of the reference search, or None when it
# spends its budget); books of more than _TAIL windows (I=5 and up, or
# e=2) are searched through the index
_SEARCH_GRID = [
    (3, 3, 10, 0, 8),
    (4, 3, 11, 0, 25),
    (4, 3, 16, 1, 0),
    (5, 3, 12, 0, 21),
    (5, 3, 12, 2, 6),
    (6, 3, 14, 0, 0),
    (4, 5, 46, 0, 0),
    (4, 3, 6, 0, None),
]


# a tail of 8 windows sends almost every check through the part index,
# and each restart past the indexed windows rebuilds it
@pytest.mark.parametrize("tail", [None, 8])
@pytest.mark.parametrize("I, d, r_I, seed, restarts", _SEARCH_GRID)
def test_search_builds_the_reference_book(I, d, r_I, seed, restarts, tail, monkeypatch):
    if tail is not None:
        monkeypatch.setattr(positioning, "_TAIL", tail)
    budget = dict(max_tries=40, max_restarts=30)
    if restarts is None:
        with pytest.raises(SearchExhausted):
            _book_by_all_windows(I, d, 8, r_I, seed, **budget)
        with pytest.raises(SearchExhausted):
            build_index_book(I, d, 8, r_I=r_I, seed=seed, **budget)
        return
    want, made = _book_by_all_windows(I, d, 8, r_I, seed, **budget)
    assert made == restarts
    b = build_index_book(I, d, 8, r_I=r_I, seed=seed, **budget)
    assert list(b.codewords) == want


def test_search_compares_few_window_pairs(monkeypatch):
    # comparing every try with every accepted window passes 133.6 M window
    # pairs to row_distances at I=9; the part index leaves the tail's
    # pairs, the candidates' and the certification's close-pair search
    pairs = []
    real = _bitops.row_distances

    def counting(a, b):
        pairs.append(math.prod(np.broadcast_shapes(a.shape[:-1], b.shape[:-1])))
        return real(a, b)

    monkeypatch.setattr(_bitops, "row_distances", counting)
    build_index_book(9, 3, 32, r_I=18)
    assert sum(pairs) < 5_000_000


def test_json_roundtrip(book):
    assert book_from_json(book_to_json(book)) == book


def test_build_is_deterministic():
    a = build_index_book(I=3, d=3, K_marker=8, r_I=16, seed=42)
    b = build_index_book(I=3, d=3, K_marker=8, r_I=16, seed=42)
    assert a.codewords == b.codewords


# the greedy search's random draws, and so the books, are part of the
# format: a book is rebuilt from its parameters and seed
_BOOK_PINS = [
    (4, 3, 0, 8, 16, "664232cbdec787c9ba1968a122519b4bb26ccea5fefc8f6bd3006594a07f21d9"),
    (4, 3, 1, 8, 16, "4506a0518ca9e24b2762f077f892a37c14af4e53e414cc03d44837d2ac51c2ae"),
    (3, 3, 42, 8, 16, "8616a4c6ce6d93afb20c9aa6725a295468d515d5800e94b245ab6f1cd6b75c64"),
    (7, 3, 0, 32, 18, "8f3a150f2de295cb98b61a888ff029c1db8022ff6e82a6602e1983771110ef4a"),
    (9, 3, 0, 32, 18, "7f9ff9e5cdcbe2e5a3e22f2ed87b57c4b83e11175775c3394687500b9aea0fa8"),
    # the k=16 multi-index book
    (8, 3, 0, 32, 18, "d39d9962ed68baa0b82439f7a302a4ad87cc329b08b5c835a0d1cc1149b481f9"),
    # e=2 at the default r_I: codewords of 66, 72 and 77 bits, wider than a word
    (6, 5, 0, 8, None, "5889d421af8866042770385b0bdec9be187f22c0c569278463ce95acd407474b"),
    (7, 5, 0, 8, None, "4963d9715d3223220f63eec970c0a2055fcc9a00cfcfc1e44506e670faa2d7ba"),
    (8, 5, 0, 8, None, "f57884cf921feebbc040567715e4031d66b2e2fd51ceafffe85def2b7d67117f"),
]


# test ids name d only when it is not 3, the distance of the first rows
@pytest.mark.parametrize(
    "I, d, seed, K, r_I, digest",
    _BOOK_PINS,
    ids=[
        "-".join(map(str, (I, *([] if d == 3 else [f"d{d}"]), seed, K, r_I, h)))
        for I, d, seed, K, r_I, h in _BOOK_PINS
    ],
)
def test_build_draws_are_pinned(I, d, seed, K, r_I, digest):
    b = build_index_book(I=I, d=d, K_marker=K, r_I=r_I, seed=seed)
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
    # must find it at every I, here at I=4 and I=7
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


@pytest.fixture(scope="module")
def light_splice_book():
    """The I=7, e=2 book with its first two codewords thinned so that each
    stays weight limited and the book substring distant, while a splice of
    codeword 1's prefix onto codeword 0's suffix holds a light window: the
    book breaks the piece-family splice condition (P2) and no other."""
    b = build_index_book(I=7, d=5, K_marker=8, seed=0)
    rows = b.rows.copy()
    rows[1, 8:36] = 0
    rows[0, 36:63] = 0
    cw = tuple(BitSeq.from_numpy(r) for r in rows)
    return IndexBook(b.I, b.r_I, b.d, b.K_marker, cw, b.marker)


def test_certify_rejects_a_light_splice_above_i_6(light_splice_book):
    b = light_splice_book
    width = b.codeword_len
    window = 3 * math.ceil(1.5 * math.log2(width)) + len(b.marker) - b.K_marker
    assert (width, window) == (72, 55)
    assert all(is_wwl(c, window, b.d) for c in b.codewords)
    assert check_sd_exhaustive(b.concat, width, b.d)
    assert not check_p123(b.codewords, window, b.d)
    with pytest.raises(SearchExhausted, match="piece-family"):
        certify_book(b)


def test_verify_book_cli_rejects_a_light_splice(light_splice_book, tmp_path):
    path = tmp_path / "light_splice.json"
    path.write_text(book_to_json(light_splice_book))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["verify", "book", "--in", str(path)])
    row = json.loads(buf.getvalue().splitlines()[-1])
    assert code == 1 and row["ok"] is False and "piece-family" in row["why"]


@pytest.mark.parametrize("source", ["built", "json"])
def test_rows_and_concat_match_the_codewords(book, source):
    b = book if source == "built" else book_from_json(book_to_json(book))
    assert b.rows.shape == (16, 20) and b.rows.dtype == np.uint8
    assert not b.rows.flags.writeable
    assert np.array_equal(b.rows, np.array([c.to_numpy() for c in b.codewords]))
    assert b.concat == BitSeq.from_text("".join(c.to_text() for c in b.codewords))
    assert np.array_equal(b.marker_bits, b.marker.to_numpy())


def _with_marker(b, text):
    """``b`` as JSON with its marker replaced by ``text``."""
    obj = json.loads(book_to_json(b))
    obj["marker"] = text
    return json.dumps(obj)


@pytest.mark.parametrize("which", ["last-bit-flipped", "all-zero"])
def test_certify_and_verify_reject_a_wrong_marker(book, which, tmp_path):
    # a book read from JSON carries its marker unchecked; only 0^K_marker
    # then auto_cyclic(d) has the shape the marker scans are built for
    text = book.marker.to_text()
    text = text[:-1] + "10"[int(text[-1])] if which == "last-bit-flipped" else "0" * 8
    tampered = _with_marker(book, text)
    with pytest.raises(SearchExhausted):
        certify_book(book_from_json(tampered))
    path = tmp_path / "tampered.json"
    path.write_text(tampered)
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


def _outcome(y, book):
    try:
        return _locate_by_scan(y, book)
    except DecodeFailure as exc:
        return str(exc)


@pytest.mark.parametrize("which", ["I0", "I0-narrow", "I4", "I7", "planted", "I6-e2"])
def test_locate_matches_plain_scan(which, book, book7, planted7):
    b = {
        "I0": build_index_book(I=0, d=3, K_marker=8, r_I=10, seed=0),
        # 2-bit codewords at e = 4: some pigeonhole parts are empty
        "I0-narrow": build_index_book(I=0, d=9, K_marker=4, r_I=2, seed=0),
        "I4": book,
        "I7": book7,
        "planted": planted7,
        # 66-bit codewords at e = 2: the keys span two words
        "I6-e2": build_index_book(I=6, d=5, K_marker=8, seed=0),
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
    outcomes = [_outcome(y, b) for y in windows]
    names = {NOT_FOUND: "no index", AMBIGUOUS: "ambiguous"}
    assert [names.get(i, i) for i in _locate(windows, b)] == [
        o if isinstance(o, int) else "no index" if o.startswith("no index") else "ambiguous"
        for o in outcomes
    ]
    assert any(isinstance(o, int) for o in outcomes)
    assert any(str(o).startswith("no index") for o in outcomes) or which == "I0-narrow"
    if which == "planted":
        assert outcomes[5] == outcomes[9] == (
            f"ambiguous index alignment at offsets {[5 * W, 9 * W]}"
        )
