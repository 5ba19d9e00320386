"""The encoders' constraint checks against independent references.

``marker_offenders`` is compared with the per-phase scan it replaced, kept
here as the reference: every phase of every aligned window is compared
with the marker bit by bit, for one strand and, row by row, for a stack.  ``is_sd`` is compared with the character loop of
:func:`strandcode.oracle.check_sd_exhaustive` on both sides of its size
cutoff, ``is_wwl`` with :func:`~strandcode.oracle.check_wwl_exhaustive`,
and the scaffold's splice check with one ``is_wwl`` per splice.
``_bitops.packed_windows`` is compared with windows cut as Python ints, and
``_bitops.row_distances``, the distance check of ``is_sd`` and of the
index-book and scaffold searches, with popcounts of Python ints.
"""

import math

import numpy as np
import pytest

from strandcode import _bitops, bitseq, blocks, oracle, trace_codes
from strandcode.bitseq import BitSeq, is_sd, is_wwl
from strandcode.blocks import marker_offenders
from strandcode.errors import SearchExhausted
from strandcode.multistrand import (
    derive_multi_gamma0_params,
    multi_gamma0_book,
    multi_gamma0_encode,
    multi_gamma0_message_len,
)
from strandcode.oracle import check_sd_exhaustive, check_wwl_exhaustive, sd_min_pair_distance
from strandcode.trace_codes import (
    derive_gamma0_params,
    derive_trace_params,
    encode_gamma0,
    encode_trace,
    gamma0_book,
    gamma0_message_len,
    trace_book,
    trace_message_len,
)


def reference_offenders(w, L_min, dmin, marker, blocks_total, phase0=0):
    """Per-phase scan: a (rows x ml) compare for each of the L_min phases."""
    ml = len(marker)
    wins = np.lib.stride_tricks.sliding_window_view(w, L_min)
    rows = wins.shape[0]
    starts = np.arange(rows)
    bad_rows: set[int] = set()
    for phase in range(L_min):
        cols = (phase + np.arange(ml)) % L_min
        dist = (wins[:, cols] != marker).sum(axis=1)
        true_phase = (starts + phase) % L_min == phase0 % L_min
        assert not np.any(true_phase & (dist != 0)), "marker bits were not written"
        for s in np.flatnonzero(~true_phase & (dist < dmin)):
            bad_rows.add(int(s))
    out: set[int] = set()
    for s in bad_rows:
        out.add(s // L_min)
        out.add(min(blocks_total - 1, (s + L_min - 1) // L_min))
    return out


def both(w, L_min, dmin, marker, blocks_total, phase0=0):
    got = marker_offenders(w, L_min, dmin, marker, blocks_total, phase0=phase0)
    assert got == reference_offenders(w, L_min, dmin, marker, blocks_total, phase0)
    return got


def marker_positions(n, L_min, ml, phase0):
    """Positions of every true marker bit, cut markers at both ends included."""
    pos = []
    for a in range(phase0 % L_min - L_min, n, L_min):
        pos.extend(p for p in range(a, a + ml) if 0 <= p < n)
    return np.array(pos)


def with_markers(bits, L_min, marker, phase0):
    w = bits.copy()
    ml = marker.size
    for a in range(phase0 % L_min - L_min, w.size, L_min):
        for j in range(ml):
            if 0 <= a + j < w.size:
                w[a + j] = marker[j]
    return w


def plant(w, phase, marker, flips, L_min, phase0, rng, near=0):
    """Copy the marker into a window read cyclically from ``phase``, with
    ``flips`` of its bits inverted: the first window from ``near`` on, in
    cyclic order, where it touches no true marker bit.  Returns the new
    strand and the window start."""
    true_pos = set(marker_positions(w.size, L_min, marker.size, phase0).tolist())
    rows = w.size - L_min + 1
    for s in (np.arange(rows) + near) % rows:
        pos = s + (phase + np.arange(marker.size)) % L_min
        if true_pos.isdisjoint(pos.tolist()):
            out = w.copy()
            out[pos] = marker
            flip = rng.choice(marker.size, size=flips, replace=False)
            out[pos[flip]] ^= 1
            return out, int(s)
    raise AssertionError("no window clear of the true markers")


def plant_everywhere(w, L_min, dmin, marker, blocks_total, phase0, rng, max_flips=None):
    """Plant near-markers at every false phase and every distance
    0..dmin, one at a time; returns how many were planted."""
    planted = 0
    for phase in range(L_min):
        if (phase - phase0) % L_min == 0:
            continue
        for flips in range(min(dmin, max_flips or dmin) + 1):
            near = int(rng.integers(w.size - L_min + 1))
            out, s = plant(w, phase, marker, flips, L_min, phase0, rng, near)
            got = both(out, L_min, dmin, marker, blocks_total, phase0)
            if flips < dmin:
                assert s // L_min in got
            planted += 1
    return planted


class TestMarkerOffenders:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("phase0", [0, 29, 36])
    def test_random_strands(self, seed, phase0):
        rng = np.random.default_rng(seed)
        L_min, ml = 40, 8
        n = int(rng.integers(L_min, 6 * L_min))
        marker = rng.integers(0, 2, ml).astype(np.uint8)
        w = with_markers(rng.integers(0, 2, n).astype(np.uint8), L_min, marker, phase0)
        blocks_total = -(-n // L_min)
        for dmin in range(0, 5):
            both(w, L_min, dmin, marker, blocks_total, phase0)

    @pytest.mark.parametrize("phase0", [0, 17, 36])
    def test_planted_near_markers_at_every_phase(self, phase0):
        rng = np.random.default_rng(phase0)
        L_min, dmin = 40, 3
        n = 8 * L_min + 13
        marker = np.array([1, 1, 1, 0, 0, 0, 0, 1], dtype=np.uint8)
        w = with_markers(rng.integers(0, 2, n).astype(np.uint8), L_min, marker, phase0)
        planted = plant_everywhere(w, L_min, dmin, marker, -(-n // L_min), phase0, rng)
        # every non-true phase, wrapping ones included, at every distance
        assert planted == (L_min - 1) * (dmin + 1)

    @pytest.mark.parametrize("phase0", [0, 17])
    def test_near_marker_at_every_free_position(self, phase0):
        # a near-marker is seen by every window holding it whole; which of
        # them starts or ends a block depends on its position in the period
        # on a zero background this marker has no offender, so each plant's
        # blocks are the whole answer
        L_min, dmin = 40, 3
        n = 6 * L_min + 5
        marker = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 1], dtype=np.uint8)
        ml = marker.size
        w = with_markers(np.zeros(n, dtype=np.uint8), L_min, marker, phase0)
        assert both(w, L_min, dmin, marker, -(-n // L_min), phase0) == set()
        true_pos = set(marker_positions(n, L_min, ml, phase0).tolist())
        residues = 0
        for a in range(2 * L_min, 3 * L_min):
            pos = np.arange(a, a + ml)
            if not true_pos.isdisjoint(pos.tolist()):
                continue
            # flipping the head keeps the windows that wrap round the
            # plant's head far, so the plant's first window is alone in
            # its block whenever it ends a block
            for flips in (0, dmin - 1):
                out = w.copy()
                out[pos] = marker
                out[pos[:flips]] ^= 1
                assert both(out, L_min, dmin, marker, -(-n // L_min), phase0)
            residues += 1
        assert residues == L_min - 2 * ml + 1

    def test_phase0_is_m_prime_on_real_strands(self):
        p = derive_multi_gamma0_params(1100, 8, 1, L_min=110, K=32, r_I=18)
        assert p.marker_phase == p.m_prime > 0
        book = multi_gamma0_book(p)
        rng = np.random.default_rng(5)
        per = multi_gamma0_message_len(p) // p.k
        strands = multi_gamma0_encode(
            tuple(BitSeq.random(per, rng) for _ in range(p.k)), p, book
        ).strands
        marker = book.marker.to_numpy()
        for strand in strands:
            assert both(strand.to_numpy(), p.L_min, p.d, marker, p.strand_blocks, p.marker_phase) == set()
        w = strands[0].to_numpy()
        assert plant_everywhere(w, p.L_min, p.d, marker, p.strand_blocks, p.marker_phase, rng, 1)

    def test_76_bit_marker(self):
        p = derive_gamma0_params(9800, 1, L_min=154, K=64, r_I=12)
        assert p.marker_len == 76 and p.n < p.strand_blocks * p.L_min
        book = gamma0_book(p)
        m = BitSeq.random(gamma0_message_len(p), np.random.default_rng(23))
        w = encode_gamma0(m, p, book).to_numpy()
        marker = book.marker.to_numpy()
        assert both(w, p.L_min, p.d, marker, p.strand_blocks) == set()
        rng = np.random.default_rng(0)
        for phase in (1, 77, 78, 100, 153):
            out, _ = plant(w, phase, marker, 1, p.L_min, 0, rng, near=3 * p.L_min)
            assert both(out, p.L_min, p.d, marker, p.strand_blocks) != set()
        # a 76-bit marker on random bits, phases wrapping at every split
        L_min, ml = 160, 76
        marker = rng.integers(0, 2, ml).astype(np.uint8)
        w = with_markers(rng.integers(0, 2, 5 * L_min + 31).astype(np.uint8), L_min, marker, 100)
        for phase in range(L_min - ml + 1, L_min):
            out, _ = plant(w, phase, marker, 2, L_min, 100, rng, near=130)
            assert both(out, L_min, 3, marker, 6, 100) != set()

    def test_strand_ending_in_a_constrained_tail(self):
        p = derive_multi_gamma0_params(1030, 2, 1, L_min=100, K=32, r_I=12)
        assert p.n > p.strand_blocks * p.L_min
        book = multi_gamma0_book(p)
        rng = np.random.default_rng(23)
        per = multi_gamma0_message_len(p) // p.k
        strands = multi_gamma0_encode(
            tuple(BitSeq.random(per, rng) for _ in range(p.k)), p, book
        ).strands
        marker = book.marker.to_numpy()
        w = strands[1].to_numpy()
        assert both(w, p.L_min, p.d, marker, p.strand_blocks, p.marker_phase) == set()
        # near-markers reaching into the tail, and running off its end
        for phase in range(0, p.L_min, 7):
            out, _ = plant(w, phase, marker, 1, p.L_min, p.marker_phase, rng, near=p.n - p.L_min)
            both(out, p.L_min, p.d, marker, p.strand_blocks, p.marker_phase)

    def test_truncated_trace_word(self):
        p = derive_trace_params(4365, 1, L_min=90, L_over=85, I=4, r_I=16, K=8)
        assert p.n % p.L_min
        book = trace_book(p)
        m = BitSeq.random(trace_message_len(p), np.random.default_rng(9))
        w = encode_trace(m, p, book).to_numpy()
        total = trace_codes._block_table(p).total
        marker = book.marker.to_numpy()
        for dmin in (p.d1 - 1, p.d1, p.d1 + 4):
            both(w, p.L_min, dmin, marker, total)
        rng = np.random.default_rng(1)
        for phase in (5, 60, 85, 89):
            out, _ = plant(w, phase, marker, 0, p.L_min, 0, rng, near=p.n - p.L_min - 3)
            assert both(out, p.L_min, p.d1, marker, total)

    @pytest.mark.parametrize("slice_cells", [None, 1, 8100])
    @pytest.mark.parametrize("k", [1, 2, 8])
    @pytest.mark.parametrize("phase0", [0, 29])
    def test_stack_matches_the_reference_row_by_row(self, phase0, k, slice_cells, monkeypatch):
        if slice_cells:  # slices of one strand, and of three (of 12 * 224 cells each)
            monkeypatch.setattr(blocks, "_SCAN_CELLS", slice_cells)
        rng = np.random.default_rng([phase0, k])
        L_min, dmin = 40, 3
        n = 5 * L_min + 13
        marker = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 1], dtype=np.uint8)
        ml, blocks_total = marker.size, -(-n // L_min)
        stack = []
        for i in range(k):
            # odd strands random, even ones zero, where only a plant offends;
            # a near-marker at a plain and at a wrapping phase on all but
            # every third strand
            w = (rng.random(n) < 0.5 * (i % 2)).astype(np.uint8)
            w = with_markers(w, L_min, marker, phase0)
            plants = ((int(rng.integers(L_min - ml + 1)), i % (dmin + 1)),
                      (int(rng.integers(L_min - ml + 1, L_min)), (i + 1) % dmin))
            for phase, flips in plants if i % 3 != 2 else ():
                near = int(rng.integers(n - L_min + 1))
                w, _ = plant(w, phase, marker, flips, L_min, phase0, rng, near)
            stack.append(w)
        stack = np.array(stack)
        got = marker_offenders(stack, L_min, dmin, marker, blocks_total, phase0)
        want = [reference_offenders(w, L_min, dmin, marker, blocks_total, phase0) for w in stack]
        assert got == want
        assert got[0] and (k < 3 or not got[2])

    def test_the_lowest_offending_strand_is_named(self, monkeypatch):
        p = derive_multi_gamma0_params(1100, 8, 1, L_min=110, K=32, r_I=18)
        book = multi_gamma0_book(p)
        rng = np.random.default_rng(7)
        per = multi_gamma0_message_len(p) // p.k
        messages = tuple(BitSeq.random(per, rng) for _ in range(p.k))
        multi_gamma0_encode(messages, p, book)
        frame = blocks._frame

        def planted(*args):
            out = frame(*args)
            for i in (7, 5):
                out[i], _ = plant(out[i], 40, book.marker_bits, 1, p.L_min, p.marker_phase, rng, 330)
            return out

        monkeypatch.setattr(blocks, "_frame", planted)
        with pytest.raises(SearchExhausted, match="^payload bits of strand 5 collided"):
            multi_gamma0_encode(messages, p, book)

    @pytest.mark.parametrize("ml", [127, 128])
    def test_markers_at_the_int8_table_boundary(self, ml):
        # a 127-bit marker keeps int8 counts and a 128-bit one int16; the
        # marker's complement, whole and cut by the period, gives the
        # largest count and the largest head plus tail sum, ml
        complement = 1 - np.random.default_rng(ml).integers(0, 2, ml).astype(np.uint8)
        table = _bitops.marker_mismatches(complement, 1 - complement)
        assert table.dtype == (np.int8 if ml < 128 else np.int16)
        assert table[ml, 0] == ml
        rng = np.random.default_rng(ml)
        marker = 1 - complement
        L_min, dmin, phase0 = 320, 5, 41
        n = 6 * L_min + 17
        w = with_markers(rng.integers(0, 2, n).astype(np.uint8), L_min, marker, phase0)
        near_starts = []
        plants = ((marker, 1, L_min - ml // 2), (marker, dmin - 1, L_min - 3),
                  (complement, 0, 100), (complement, 0, L_min - 60), (complement, 0, L_min - 1))
        for i, (bits, flips, phase) in enumerate(plants):
            w, s = plant(w, phase, bits, flips, L_min, phase0, rng, near=i * (L_min + 20))
            near_starts += [s] if bits is marker else []
        got = both(w, L_min, dmin, marker, -(-n // L_min), phase0)
        assert all(s // L_min in got for s in near_starts)

    @pytest.mark.parametrize("phase0", [0, 29])
    def test_unwritten_marker_raises(self, phase0):
        rng = np.random.default_rng(2)
        L_min, ml = 40, 12
        n = 5 * L_min + 7
        marker = rng.integers(0, 2, ml).astype(np.uint8)
        w = with_markers(rng.integers(0, 2, n).astype(np.uint8), L_min, marker, phase0)
        def stacked(bad, *args):  # behind a clean strand
            return marker_offenders(np.stack([w, bad]), *args)

        # a whole marker, one cut by the period, and one cut by the strand end
        for at in marker_positions(n, L_min, ml, phase0)[[ml + 3, ml - 1, -1]]:
            bad = w.copy()
            bad[at] ^= 1
            for scan in (marker_offenders, reference_offenders, stacked):
                with pytest.raises(AssertionError, match="marker bits were not written"):
                    scan(bad, L_min, 3, marker, -(-n // L_min), phase0)


def _no_packing(*args, **kwargs):
    raise AssertionError("the reference packed windows")


def reference_sd(x, L, d):
    """``check_sd_exhaustive`` held to its character loop: its packed
    all-pairs scan raises."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "sd_min_pair_distance", _no_packing)
        return check_sd_exhaustive(x, L, d)


def all_pairs_limit(L):
    """The most windows of length L that ``is_sd`` compares all pairs of."""
    return math.isqrt(bitseq._SD_ALL_PAIRS_BITS // L)


def _sd_cases(rng, windows, L):
    """Random inputs with ``windows`` windows of length L, one with a
    planted repeat at distance 1 and one periodic."""
    n = windows + L - 1
    bits = rng.integers(0, 2, n).astype(np.uint8)
    close = bits.copy()
    close[n - L :] = bits[:L]
    close[n - L // 2] ^= 1
    periodic = np.resize(rng.integers(0, 2, 7).astype(np.uint8), n)
    return [BitSeq.from_numpy(b) for b in (bits, close, periodic)]


class TestIsSd:
    @pytest.mark.parametrize("side", ["small", "cutoff", "above"])
    @pytest.mark.parametrize("L", [5, 34, 70])
    def test_matches_oracle_across_cutoff(self, side, L):
        windows = {"small": 61, "cutoff": all_pairs_limit(L), "above": all_pairs_limit(L) + 1}[side]
        rng = np.random.default_rng(windows * 100 + L)
        answers = set()
        for x in _sd_cases(rng, windows, L):
            for d in (1, 3, 6):
                want = reference_sd(x, L, d)
                assert is_sd(x, L, d) == want
                answers.add(want)
        assert answers == {True, False} or L == 5

    def test_two_windows(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = BitSeq.random(9, rng)
            for d in range(0, 10):
                assert is_sd(x, 8, d) == reference_sd(x, 8, d)

    @pytest.mark.parametrize("windows", [10, 2000])
    def test_d_above_window_length(self, windows):
        x = BitSeq.random(windows + 3, np.random.default_rng(0))
        assert is_sd(x, 4, 5) is False
        assert is_sd(x, 4, 5) == reference_sd(x, 4, 5)
        assert is_sd(x.window(0, 4), 4, 5) is True

    def test_d_above_window_length_lists_no_pairs(self, monkeypatch):
        # close_pairs would list all m(m-1)/2 pairs of a long input
        def listing(*args, **kwargs):
            raise AssertionError("is_sd listed close pairs")

        monkeypatch.setattr(_bitops, "close_pairs", listing)
        x = BitSeq.random(100_000, np.random.default_rng(1))
        assert is_sd(x, 30, 31) is False

    def test_windows_wider_than_a_byte_of_distance(self):
        # distances above 255 do not fit the narrow accumulator
        rng = np.random.default_rng(8)
        for x in _sd_cases(rng, 30, 300):
            for d in (3, 140, 280):
                assert is_sd(x, 300, d) == reference_sd(x, 300, d)

        # adjacent windows of an alternating string differ everywhere
        x = BitSeq.from_text("01" * 150 + "0")
        assert is_sd(x, 300, 280) and reference_sd(x, 300, 280)

    def test_edges(self):
        x = BitSeq.from_text("0000")
        assert is_sd(x, 5, 3) and reference_sd(x, 5, 3)
        for d in (0, -2):
            assert is_sd(x, 2, d) and reference_sd(x, 2, d)
        for L in (0, -1):
            with pytest.raises(ValueError):
                is_sd(x, L, 1)

    def test_does_not_use_the_oracle_scan(self, monkeypatch):
        def oracle_scan(*args, **kwargs):
            raise AssertionError("is_sd called the oracle's scan")

        monkeypatch.setattr(oracle, "sd_min_pair_distance", oracle_scan)
        rng = np.random.default_rng(4)
        for windows in (100, all_pairs_limit(40) + 100):
            clean, close, _ = _sd_cases(rng, windows, 40)
            assert is_sd(clean, 40, 3)
            assert not is_sd(close, 40, 3)

    def test_reference_does_not_pack(self):
        x = BitSeq.random(100, np.random.default_rng(5))
        assert reference_sd(x, 20, 2) == check_sd_exhaustive(x, 20, 2)
        with pytest.raises(AssertionError, match="packed"):
            reference_sd(BitSeq.random(3001, np.random.default_rng(5)), 20, 2)


def _close_pairs_naive(bits, L, rho):
    """Every pair of windows within ``rho``, ascending by j and then i, as
    the all-pairs scan over windows read as Python ints."""
    text = "".join(map(str, bits.tolist()))
    wins = [int(text[i : i + L], 2) for i in range(len(text) - L + 1)]
    return [
        (i, j, dist)
        for j in range(len(wins))
        for i in range(j)
        if (dist := (wins[i] ^ wins[j]).bit_count()) <= rho
    ]


@pytest.mark.parametrize("L, rho", [(5, 5), (5, 9), (1, 1), (4, 3)])
def test_close_pairs_at_radius_of_the_window_length(L, rho):
    # rho >= L leaves some pigeonhole parts empty; every pair is close
    rng = np.random.default_rng(L * 10 + rho)
    bits = rng.integers(0, 2, 40).astype(np.uint8)
    got = _bitops.close_pairs(bits, L, rho)
    assert got == _close_pairs_naive(bits, L, rho)
    if rho >= L:
        assert len(got) == (41 - L) * (40 - L) // 2


@pytest.mark.parametrize("zeros", [False, True], ids=["random", "zeros"])
@pytest.mark.parametrize("L, rho", [(70, 0), (140, 1), (129, 1)])
def test_close_pairs_with_more_parts_than_the_radius_needs(L, rho, zeros):
    # L > 64 * (rho + 1): the windows are cut into ceil(L / 64) parts so
    # that every part key fits one word, more than the rho + 1 the
    # pigeonhole argument needs
    rng = np.random.default_rng(L * 10 + rho)
    bits = np.zeros(400, dtype=np.uint8)
    if not zeros:
        bits = rng.integers(0, 2, 400).astype(np.uint8)
        bits[250 : 250 + L] = bits[10 : 10 + L]
        bits[250 + rng.choice(L, size=rho, replace=False)] ^= 1
    got = _bitops.close_pairs(bits, L, rho)
    assert got == _close_pairs_naive(bits, L, rho)
    assert (10, 250, 0 if zeros else rho) in got


def _words(values, width):
    """Python ints as little-endian uint64 word rows, packed by shifts."""
    nwords = -(-width // 64)
    mask = (1 << 64) - 1
    return np.array([[(v >> 64 * k) & mask for k in range(nwords)] for v in values], np.uint64)


@pytest.mark.parametrize("L", [1, 27, 63, 64, 65, 129, 200])
def test_packed_windows_match_int_windows(L):
    rng = np.random.default_rng(L)
    every_other = rng.integers(0, 2, 2 * (L + 40)).astype(np.uint8)[::2]
    for bits in (every_other, np.ascontiguousarray(every_other), every_other[: L - 1]):
        starts = range(bits.size - L + 1)
        want = [sum(int(b) << j for j, b in enumerate(bits[i : i + L])) for i in starts]
        got = _bitops.packed_windows(bits, L)
        assert got.shape == (len(want), -(-L // 64))
        assert np.array_equal(got, _words(want, L).reshape(got.shape))


class TestRowDistances:
    @pytest.mark.parametrize("width", [1, 63, 64, 65, 128, 192, 193, 255, 256])
    def test_matches_int_popcount(self, width):
        rng = np.random.default_rng(width)
        ones = (1 << width) - 1
        xs = [int.from_bytes(rng.bytes(32), "little") & ones for _ in range(12)]
        xs += [0, ones, ones ^ 1]
        got = _bitops.row_distances(_words(xs, width)[:, None], _words(xs, width)[None, :])
        want = [[(x ^ y).bit_count() for y in xs] for x in xs]
        assert got.tolist() == want
        # all-ones against zero reaches the width itself, 255 and 256 included
        assert got[len(xs) - 3, len(xs) - 2] == width

    @pytest.mark.parametrize("width", [27, 130, 256])
    def test_broadcast_shapes_of_its_callers(self, width):
        rng = np.random.default_rng(width + 1)
        ones = (1 << width) - 1
        xs = [int.from_bytes(rng.bytes(32), "little") & ones for _ in range(24)]
        rows = _words(xs, width)

        def want(a, b):
            return [(xs[i] ^ xs[j]).bit_count() for i, j in zip(a, b)]

        # a book try: new windows against every stored window
        got = _bitops.row_distances(rows[:5, None], rows[None, 5:])
        assert got.shape == (5, 19)
        assert got.ravel().tolist() == want(np.repeat(range(5), 19), np.tile(range(5, 24), 5))
        # a scaffold try: one new window per phase against that phase's store
        store = rows[6:].reshape(6, 3, -1)
        got = _bitops.row_distances(rows[:6, None], store)
        assert got.shape == (6, 3)
        assert got.ravel().tolist() == want(np.repeat(range(6), 3), range(6, 24))
        # an is_sd block: a block of rows against a later slice of them
        got = _bitops.row_distances(rows[3:7, None], rows[None, 3:])
        assert got.shape == (4, 21)
        assert got.ravel().tolist() == want(np.repeat(range(3, 7), 21), np.tile(range(3, 24), 4))

    def test_oracle_does_not_use_it(self, monkeypatch):
        def fast_path(*args, **kwargs):
            raise AssertionError("the oracle called a fast-path kernel")

        for kernel in ("row_distances", "packed_windows"):
            monkeypatch.setattr(_bitops, kernel, fast_path)
        x = BitSeq.random(3100, np.random.default_rng(6))
        assert sd_min_pair_distance(x, 70)[0] >= 1
        assert check_sd_exhaustive(x, 70, 3) == (sd_min_pair_distance(x, 70)[0] >= 3)


class TestIsWwl:
    @pytest.mark.parametrize("windows", [1, 40, 200, 3000])
    @pytest.mark.parametrize("L", [1, 9, 30, 80])
    def test_matches_oracle(self, windows, L):
        rng = np.random.default_rng(windows * 100 + L)
        n = windows + L - 1
        answers = set()
        for density in (0.2, 0.5, 0.9):
            bits = (rng.random(n) < density).astype(np.uint8)
            x = BitSeq.from_numpy(bits)
            for d in (0, 1, L // 3, L // 2, L):
                want = check_wwl_exhaustive(x, L, d)
                assert is_wwl(x, L, d) == want
                answers.add(want)
        assert answers == {True, False}

    @pytest.mark.parametrize("windows", [1, 30, 500])
    def test_light_window_at_either_end(self, windows):
        L = 20
        n = windows + L - 1
        for light in (range(0, L), range(n - L, n)):
            bits = np.ones(n, dtype=np.uint8)
            bits[list(light)[:-2]] = 0
            x = BitSeq.from_numpy(bits)
            assert not is_wwl(x, L, 3) and not check_wwl_exhaustive(x, L, 3)
            assert is_wwl(x, L, 2) and check_wwl_exhaustive(x, L, 2)

    def test_edges(self):
        x = BitSeq.from_text("0100")
        assert is_wwl(x, 5, 3) and check_wwl_exhaustive(x, 5, 3)
        assert is_wwl(x, 2, 0) and check_wwl_exhaustive(x, 2, 0)
        for L in (0, -1):
            with pytest.raises(ValueError):
                is_wwl(x, L, 1)
        with pytest.raises(ValueError):
            is_wwl(x, 2, -1)


@pytest.mark.parametrize("Ls, K, d", [(56, 30, 3), (20, 5, 1), (12, 30, 3), (2, 2, 1), (1, 1, 1)])
def test_splice_check_matches_one_is_wwl_per_splice(Ls, K, d):
    rng = np.random.default_rng(Ls * K)
    answers, rows = [], []
    for _ in range(60):
        density = rng.choice([0.05, 0.15, 0.3, 0.6])
        cand, prev = ((rng.random(Ls) < density).astype(np.uint8) for _ in "ab")
        spliced = [BitSeq.from_numpy(np.concatenate([cand[:j], prev[j:]])) for j in range(1, Ls)]
        want = all(is_wwl(x, K, d) and check_wwl_exhaustive(x, K, d) for x in spliced)
        assert _bitops.splices_wwl(cand[None], prev[None], K, d).tolist() == [want]
        answers.append(want)
        rows.append((cand, prev))
    assert set(answers) == {True, False} or Ls < max(K, 2)
    cand, prev = (np.array(r) for r in zip(*rows))
    assert _bitops.splices_wwl(cand, prev, K, d).tolist() == answers
