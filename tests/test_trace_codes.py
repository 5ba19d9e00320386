"""Block-structured trace codes: geometry checks, round trips, hardening."""

import dataclasses
import hashlib
import json
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strandcode import trace_codes
from strandcode.bitseq import BitSeq, is_sd, is_wwl
from strandcode.channel import ChannelConfig, Fragment, Trace, corrupt, fragment, is_reliable
from strandcode.errors import DecodeFailure, InfeasibleParameters, LayoutError, SearchExhausted
from strandcode.trace_codes import (
    Gamma0Params,
    ReconReport,
    TraceParams,
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
from strandcode.trace_codes import (
    _analyze_read,
    _block_table,
    _candidate_offsets,
    _overlap_matches,
    _place_all,
    _trace_layout,
)
from strandcode.outer import _rs_decode, _rs_encode


@pytest.fixture(scope="module")
def p1():
    return derive_trace_params(4320, 1, L_min=90, L_over=85, I=4, r_I=16, K=8)


@pytest.fixture(scope="module")
def book1(p1):
    return trace_book(p1)


@pytest.fixture(scope="module")
def coded1(p1, book1):
    m = BitSeq.random(trace_message_len(p1), np.random.default_rng(7))
    return m, encode_trace(m, p1, book1)


@pytest.fixture(scope="module")
def p2():
    return derive_trace_params(6720, 2, L_min=140, L_over=122, I=4, r_I=22, K=8)


def reliable_cfg(p, seed, max_len=None):
    return ChannelConfig(
        L_min=p.L_min,
        L_over=p.L_over,
        e=p.e,
        seed=seed,
        error_mode="reliable-preserving",
        max_len=max_len if max_len is not None else p.L_min + 30,
    )


class TestDeriveParams:
    @given(
        I=st.integers(1, 60),
        r_I=st.integers(0, 200),
        K=st.integers(1, 64),
    )
    def test_straddle_segments_fit_below_marker_span(self, I, r_I, K):
        F = max(1, math.ceil((I + r_I) / K))
        assert math.ceil((I + r_I) / F) <= K + 1

    def test_group_sizes_partition_the_blocks(self, p1, p2):
        for p in (p1, p2):
            total = sum(p.N(i) for i in range(p.group_count))
            assert total == p.n_L * (p.L_min - p.r)
            assert sum(p.cnt(i) for i in range(p.group_count)) == p.n_L

    def test_preset_geometries_are_feasible(self, p1, p2):
        assert p1.feasible and p1.violations == ()
        assert (p1.F, p1.L, p1.v_per_block) == (3, 34, 47)
        assert p2.feasible and p2.violations == ()
        assert (p2.F, p2.L, p2.v_per_block) == (4, 53, 76)

    def test_formula_sizing_is_infeasible_at_desk_scale(self):
        # the literal asymptotic sizing collapses at small n: the index and
        # marker overhead exceeds the block, and the matching window hits 0
        p = derive_trace_params(2**15, 1, a=3.0, gamma=1 / 3, I=6, K=24, strict=False)
        assert p.violations == ("payload-space", "marker-window", "matching-window")
        with pytest.raises(InfeasibleParameters):
            derive_trace_params(2**15, 1, a=3.0, gamma=1 / 3, I=6, K=24)

    def test_regime_preconditions(self):
        with pytest.raises(ValueError):
            derive_trace_params(4096, 1, a=0.9, gamma=0.5)
        with pytest.raises(ValueError):
            derive_trace_params(4096, 1, a=3.0, gamma=0.5)  # a*gamma > 1
        with pytest.raises(ValueError):
            derive_trace_params(4096, 1, a=2.0, gamma=0.25, eps=0.7)

    def test_infeasible_params_refuse_to_encode(self):
        p = derive_trace_params(2**15, 1, a=3.0, gamma=1 / 3, I=6, K=24, strict=False)
        with pytest.raises(InfeasibleParameters):
            encode_trace(BitSeq.zeros(16), p)

    def test_distance_parameters(self, p1, p2):
        assert (p1.d1, p1.d2) == (3, 5)
        assert (p2.d1, p2.d2) == (5, 9)


class TestEncode:
    def test_codeword_length(self, p1, coded1):
        _, w = coded1
        assert len(w) == p1.n == p1.n_L * p1.L_min

    def test_message_length_requirement(self, p1, book1):
        with pytest.raises(ValueError):
            encode_trace(BitSeq.zeros(trace_message_len(p1) - 1), p1, book1)

    def test_group_start_pattern_unique(self, p1, book1, coded1):
        # marker followed by the all-zero flag marks a group start and
        # appears nowhere else, at any alignment
        _, w = coded1
        probe = np.concatenate(
            [book1.marker.to_numpy(), np.zeros(p1.d1, dtype=np.uint8)]
        )
        wins = np.lib.stride_tricks.sliding_window_view(w.to_numpy(), len(probe))
        hits = np.flatnonzero((wins == probe).all(axis=1))
        starts = [p1.cum_blocks(g) * p1.L_min for g in range(p1.group_count)]
        assert hits.tolist() == starts

    def test_every_window_sees_enough_payload(self, p1, p2):
        for p in (p1, p2):
            lay = _trace_layout(p)
            vmask = np.resize(lay.kind == 2, p.n)
            csum = np.concatenate([[0], np.cumsum(vmask)])
            counts = csum[p.L_over :] - csum[: p.n - p.L_over + 1]
            assert counts.min() >= p.L

    def test_payloads_satisfy_their_constraints(self, p1, coded1):
        _, w = coded1
        arr = w.to_numpy()
        lay = _trace_layout(p1)
        for g in range(p1.group_count):
            rows = [
                arr[(p1.cum_blocks(g) + j) * p1.L_min + lay.v_offsets]
                for j in range(p1.cnt(g))
            ]
            v = BitSeq.from_numpy(np.concatenate(rows))
            assert is_wwl(v, p1.v_window, p1.v_floor)
            assert is_sd(v, p1.L, p1.d2)

    def test_rate_reported(self, p1, capsys):
        rate = trace_message_len(p1) / p1.n
        target = (1 - 1 / p1.a) / (1 - p1.gamma)
        print(f"measured rate {rate:.4f} vs asymptotic form {target:.4f}")
        assert 0 < rate < 1

    def test_encode_is_deterministic(self, p1, book1, coded1):
        m, w = coded1
        assert encode_trace(m, p1, book1) == w


class TestReconstruct:
    def test_single_fragment_exact(self, p1, book1, coded1):
        m, w = coded1
        tr = Trace(n=p1.n, L_min=p1.L_min, L_over=p1.L_over, e=0,
                   fragments=(Fragment(w),))
        rep = reconstruct_trace(tr, p1, book1)
        assert rep.message == m
        assert rep.reliable
        assert rep.located == ((0, 0),)

    def test_random_reliable_traces_recover_exactly(self, p1, book1, coded1):
        m, w = coded1
        for seed in range(500):
            cfg = reliable_cfg(p1, seed)
            tr = corrupt(fragment(w, cfg), cfg)
            rep = reconstruct_trace(tr.strip_truth(), p1, book1)
            assert rep.message == m, f"seed {seed}: wrong message"
            assert rep.reliable, f"seed {seed}: audit failed"
            assert [o for o, _ in rep.located] == [f.start for f in tr.fragments]

    def test_wider_error_budget_roundtrip(self, p2):
        book = trace_book(p2)
        m = BitSeq.random(trace_message_len(p2), np.random.default_rng(1))
        w = encode_trace(m, p2, book)
        for seed in range(10):
            cfg = reliable_cfg(p2, seed)
            tr = corrupt(fragment(w, cfg), cfg)
            rep = reconstruct_trace(tr.strip_truth(), p2, book)
            assert rep.message == m and rep.reliable

    def test_adversarial_fragmentation_with_overlap_flips(self, p1, book1, coded1):
        # minimum-length reads, minimum overlaps, all flips spent inside
        # multiply covered positions; locations must always come back right,
        # and every trial that preserves the majority recovers exactly
        m, w = coded1
        exact = 0
        for seed in range(30):
            cfg = ChannelConfig(
                L_min=p1.L_min, L_over=p1.L_over, e=p1.e, seed=seed,
                strategy="adversarial-min", error_mode="overlap-concentrated",
            )
            tr = corrupt(fragment(w, cfg), cfg)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                rep = reconstruct_trace(tr.strip_truth(), p1, book1)
            assert [o for o, _ in rep.located] == [f.start for f in tr.fragments]
            if is_reliable(tr, w):
                assert rep.message == m and rep.reliable
                exact += 1
        assert exact >= 10

    def test_order_oblivious(self, p1, book1, coded1):
        m, w = coded1
        cfg = reliable_cfg(p1, 41)
        tr = corrupt(fragment(w, cfg), cfg)
        perm = np.random.default_rng(0).permutation(len(tr.fragments))
        shuffled = Trace(
            n=tr.n, L_min=tr.L_min, L_over=tr.L_over, e=tr.e,
            fragments=tuple(tr.fragments[i] for i in perm),
        )
        rep = reconstruct_trace(shuffled.strip_truth(), p1, book1)
        assert rep.message == m
        assert [o for o, _ in rep.located] == [shuffled.fragments[i].start
                                               for i in range(len(perm))]

    def test_majority_tie_warns_and_is_recorded(self, p1, book1, coded1):
        m, w = coded1
        lay = _trace_layout(p1)
        arr = w.to_numpy()
        # flip a payload bit whose true value is zero in one of two
        # identical full-length reads: the 1-1 vote ties, resolves to the
        # true zero, and must be flagged
        t = int(np.flatnonzero((np.resize(lay.kind == 2, p1.n)) & (arr == 0))[100])
        tr = Trace(n=p1.n, L_min=p1.L_min, L_over=p1.L_over, e=1,
                   fragments=(Fragment(w), Fragment(w.with_bit(t, 1))))
        with pytest.warns(UserWarning, match="tie"):
            rep = reconstruct_trace(tr, p1, book1)
        assert rep.tie_positions == (t,)
        assert not rep.reliable
        assert rep.message == m

    def test_unlocatable_read_raises(self, p1, book1, coded1):
        _, w = coded1
        bad = BitSeq.from_numpy(1 - w.window(0, p1.L_min).to_numpy())
        tr = Trace(n=p1.n, L_min=p1.L_min, L_over=p1.L_over, e=1,
                   fragments=(Fragment(w), Fragment(bad)))
        with pytest.raises((DecodeFailure, LayoutError)):
            reconstruct_trace(tr, p1, book1)

    def test_missing_coverage_raises(self, p1, book1, coded1):
        _, w = coded1
        tr = Trace(n=p1.n, L_min=p1.L_min, L_over=p1.L_over, e=0,
                   fragments=(Fragment(w.window(0, 2000)),
                              Fragment(w.window(2500, p1.n - 2500))))
        with pytest.raises(DecodeFailure, match="uncovered|incomplete"):
            reconstruct_trace(tr, p1, book1)

    def test_geometry_mismatch_rejected(self, p1, book1, coded1):
        _, w = coded1
        tr = Trace(n=p1.n, L_min=p1.L_min + 1, L_over=p1.L_over, e=0,
                   fragments=(Fragment(w),))
        with pytest.raises(LayoutError):
            reconstruct_trace(tr, p1, book1)

    def test_report_json_shape(self, p1, book1, coded1):
        m, w = coded1
        tr = Trace(n=p1.n, L_min=p1.L_min, L_over=p1.L_over, e=0,
                   fragments=(Fragment(w),))
        rep = reconstruct_trace(tr, p1, book1)
        obj = json.loads(rep.to_json())
        assert set(obj) == {"located", "tie_positions", "reliable", "message_hex"}
        assert obj["located"] == [{"offset": 0, "errors_corrected": 0}]
        assert obj["reliable"] is True
        assert obj["message_hex"] == m.to_hex()


@pytest.fixture(scope="module")
def pn():
    return derive_trace_params(4365, 1, L_min=90, L_over=85, I=4, r_I=16, K=8)


class TestNondivisible:
    def test_output_length_is_n(self, pn, book1):
        m = BitSeq.random(trace_message_len(pn), np.random.default_rng(9))
        w = encode_trace(m, pn, book1)
        assert len(w) == pn.n == 4365
        assert pn.n % pn.L_min != 0

    def test_roundtrip_through_reconstruct(self, pn, book1):
        m = BitSeq.random(trace_message_len(pn), np.random.default_rng(10))
        w = encode_trace(m, pn, book1)
        for seed in range(5):
            cfg = reliable_cfg(pn, seed)
            tr = corrupt(fragment(w, cfg), cfg)
            rep = reconstruct_trace(tr.strip_truth(), pn, book1)
            assert rep.message == m and rep.reliable

    def test_rate_reported(self, pn, capsys):
        rate = trace_message_len(pn) / pn.n
        target = (1 - 1 / pn.a) / (1 - pn.gamma)
        print(f"truncated-length rate {rate:.4f} vs asymptotic form {target:.4f}")
        assert 0 < rate < 1


@pytest.fixture(scope="module")
def p17():
    return derive_trace_params(17280, 1, L_min=90, L_over=85, I=4, r_I=16, K=8)


class TestResaltLoop:
    # each of these messages needs more than 8 marker scans before every
    # near-marker is salted away
    @pytest.mark.parametrize("seed", [2, 4, 5])
    def test_long_words_encode_and_decode(self, p17, seed):
        book = trace_book(p17)
        m = BitSeq.random(trace_message_len(p17), np.random.default_rng(seed))
        start = time.perf_counter()
        w = encode_trace(m, p17, book)
        assert time.perf_counter() - start < 1.0
        cfg = reliable_cfg(p17, seed)
        tr = corrupt(fragment(w, cfg), cfg)
        rep = reconstruct_trace(tr.strip_truth(), p17, book)
        assert rep.message == m and rep.reliable

    def test_repair_stops_when_a_group_runs_out_of_salts(self, p1, book1, monkeypatch):
        # a scan that always flags block 0 moves group 0 to its next salt
        # every round, until none is left
        monkeypatch.setattr(trace_codes, "marker_offenders", lambda *args: [0])
        m = BitSeq.random(trace_message_len(p1), np.random.default_rng(7))
        with pytest.raises(SearchExhausted, match="marker repair used up the 256 salts"):
            encode_trace(m, p1, book1)


def _flip_group_payload(arr, p, g, rng, density=0.5):
    lay = _trace_layout(p)
    mask = np.zeros(p.n, dtype=bool)
    for j in range(p.cnt(g)):
        base = (p.cum_blocks(g) + j) * p.L_min
        mask[base + lay.v_offsets] = True
    flips = mask & (rng.random(p.n) < density)
    arr[flips] ^= 1


class TestOuterCode:
    def test_lane_codec_corrects_to_capacity(self):
        rng = np.random.default_rng(5)
        data = [int(x) for x in rng.integers(0, 256, size=12)]
        for nsym in (0, 2, 4, 6):
            word = _rs_encode(data, nsym)
            assert word[:12] == data
            bad = list(word)
            pos = rng.choice(len(word), size=nsym // 2, replace=False)
            for q in pos:
                bad[q] ^= int(rng.integers(1, 256))
            fixed, found = _rs_decode(bad, nsym)
            assert fixed == word
            assert found == sorted(int(q) for q in pos)

    def test_lane_codec_rejects_overload(self):
        data = list(range(10))
        word = _rs_encode(data, 4)
        bad = list(word)
        for q in (0, 3, 7):
            bad[q] ^= 0x55
        with pytest.raises(DecodeFailure):
            _rs_decode(bad, 4)

    def test_tau_zero_reduces_to_plain_encoding(self, p1, book1):
        m = BitSeq.random(trace_rs_message_len(p1, 0), np.random.default_rng(3))
        w = encode_trace_rs(m, p1, 0, book1)
        block = trace_rs_message_len(p1, 0) // p1.group_count
        pad = trace_message_len(p1) // p1.group_count - block
        full = BitSeq.zeros(0)
        for i in range(p1.group_count):
            full = full + m.window(i * block, block) + BitSeq.zeros(pad)
        assert w == encode_trace(full, p1, book1)

    def test_whole_group_corruption_recovers(self, p1, book1):
        tau = 1
        m = BitSeq.random(trace_rs_message_len(p1, tau), np.random.default_rng(13))
        w = encode_trace_rs(m, p1, tau, book1)
        for trial in range(200):
            rng = np.random.default_rng(1000 + trial)
            arr = w.to_numpy().copy()
            _flip_group_payload(arr, p1, int(rng.integers(p1.group_count)), rng)
            cfg = reliable_cfg(p1, trial)
            tr = corrupt(fragment(BitSeq.from_numpy(arr), cfg), cfg)
            rep = reconstruct_trace_rs(tr.strip_truth(), p1, tau, book1)
            assert rep.message == m, f"trial {trial}"

    def test_budget_overflow_is_detected(self, p1, book1):
        tau = 1
        m = BitSeq.random(trace_rs_message_len(p1, tau), np.random.default_rng(14))
        w = encode_trace_rs(m, p1, tau, book1)
        for trial in range(10):
            rng = np.random.default_rng(2000 + trial)
            arr = w.to_numpy().copy()
            g1, g2 = rng.choice(p1.group_count, size=tau + 1, replace=False)
            _flip_group_payload(arr, p1, int(g1), rng)
            _flip_group_payload(arr, p1, int(g2), rng)
            cfg = reliable_cfg(p1, trial)
            tr = corrupt(fragment(BitSeq.from_numpy(arr), cfg), cfg)
            with pytest.raises(DecodeFailure):
                reconstruct_trace_rs(tr.strip_truth(), p1, tau, book1)

    def test_message_length_formula(self, p1):
        assert trace_rs_message_len(p1, 0) == 16 * 112
        assert trace_rs_message_len(p1, 1) == 14 * 112
        assert trace_rs_message_len(p1, 3) == 10 * 112
        with pytest.raises(ValueError):
            trace_rs_message_len(p1, 8)


@pytest.fixture(scope="module")
def p8():
    return derive_trace_params(8640, 1, L_min=90, L_over=85, I=4, r_I=16, K=8)


@pytest.fixture(scope="module")
def coded8(p8):
    book = trace_book(p8)
    m = BitSeq.random(trace_message_len(p8), np.random.default_rng(8))
    return book, m, encode_trace(m, p8, book)


def _damaged_trace(p, w, seed):
    """One strand flip, up to e random flips per read, every read starting
    in one random group dropped, and 5 % random junk reads mixed in."""
    rng = np.random.default_rng(seed)
    cfg = ChannelConfig(
        L_min=p.L_min, L_over=p.L_over, e=p.e, error_mode="pre-sequencing",
        tau=1, seed=seed, max_len=p.L_min + 30,
    )
    reads = corrupt(fragment(w, cfg), cfg)
    reads = corrupt(reads, dataclasses.replace(cfg, error_mode="random"))
    g = int(rng.integers(p.group_count))
    lo = p.cum_blocks(g) * p.L_min
    hi = lo + p.cnt(g) * p.L_min
    kept = [f for f in reads.fragments if not lo <= f.start < hi]
    junk = [
        Fragment(BitSeq.random(int(rng.integers(p.L_min, p.L_min + 31)), rng))
        for _ in range(round(0.05 * len(kept)))
    ]
    pool = kept + junk
    order = rng.permutation(len(pool))
    return dataclasses.replace(reads, fragments=tuple(pool[int(i)] for i in order))


class TestPlacementRegression:
    """Placement outputs pinned so that a faster placement must reproduce
    them exactly: offsets, skip decisions and per-read error counts."""

    def test_lenient_damaged_trace_is_pinned(self, p1, book1):
        tau = 3
        m = BitSeq.random(trace_rs_message_len(p1, tau), np.random.default_rng(17))
        w = encode_trace_rs(m, p1, tau, book1)
        tr = _damaged_trace(p1, w, seed=7)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            rep = reconstruct_trace_rs(tr.strip_truth(), p1, tau, book1)
        skipped = [i for i, (off, _) in enumerate(rep.located) if off is None]
        junk = {i for i, f in enumerate(tr.fragments) if f.start is None}
        # 19 junk reads plus read 161, a true read that placement skips
        assert skipped == [100, 115, 116, 131, 143, 153, 156, 158, 161, 170,
                           200, 202, 204, 268, 282, 286, 287, 350, 360, 398]
        assert set(skipped) - junk == {161}
        assert all(off == tr.fragments[i].start
                   for i, (off, _) in enumerate(rep.located) if off is not None)
        assert sum(err for _, err in rep.located if err is not None) == 185
        digest = hashlib.sha256(repr(rep.located).encode()).hexdigest()
        assert digest == "7b9ea62861b595b92f2fdb7eeb5c57f82812282c4821aa48be9fa161713a5261"
        assert rep.tie_positions == (19,)
        assert rep.reliable is False
        assert rep.message == m

    def test_reliable_traces_place_exactly_at_8640(self, p8, coded8):
        book, m, w = coded8
        for seed in range(3):
            cfg = reliable_cfg(p8, seed)
            tr = corrupt(fragment(w, cfg), cfg)
            rep = reconstruct_trace(tr.strip_truth(), p8, book)
            assert rep.message == m and rep.reliable, f"seed {seed}"
            assert [o for o, _ in rep.located] == [f.start for f in tr.fragments]

    def test_sweep_matches_plain_scan(self, p8, coded8):
        # at n=8640 groups span six blocks, so many reads keep several
        # candidate offsets until overlap matching decides them
        book, _, w = coded8
        lay = _trace_layout(p8)
        vmask = np.resize(lay.kind == 2, p8.n)
        cfg = ChannelConfig(
            L_min=p8.L_min, L_over=p8.L_over, e=p8.e, seed=0,
            strategy="adversarial-min", error_mode="overlap-concentrated",
        )
        adversarial = corrupt(fragment(w, cfg), cfg)
        # some reads get four extra payload flips, past the overlap budget:
        # lenient placement skips reads, strict placement fails
        cfg = reliable_cfg(p8, 0)
        reliable = corrupt(fragment(w, cfg), cfg)
        rng = np.random.default_rng(100)
        frags = []
        for f in reliable.fragments:
            if rng.random() < 0.04:
                arr = f.bits.to_numpy().copy()
                where = np.flatnonzero(vmask[f.start : f.start + len(arr)])
                arr[rng.choice(where[where >= 30], size=4, replace=False)] ^= 1
                f = dataclasses.replace(f, bits=BitSeq.from_numpy(arr))
            frags.append(f)
        flipped = dataclasses.replace(reliable, fragments=tuple(frags))
        cases = [
            (adversarial, (True,)),
            (_damaged_trace(p8, w, 0), (True,)),
            (flipped, (True, False)),
        ]
        for t, (tr, modes) in enumerate(cases):
            infos = [
                info
                for idx, f in enumerate(tr.strip_truth().fragments)
                if (info := _analyze_read(idx, f.bits, p8, book, lay, True)) is not None
            ]
            for lenient in modes:
                outcomes = []
                for place in (_place_all, _place_all_by_scan):
                    try:
                        placed, skipped = place(infos, p8, lenient)
                        outcomes.append((list(placed.items()), skipped))
                    except DecodeFailure as exc:
                        outcomes.append(str(exc))
                assert outcomes[0] == outcomes[1], f"case {t}, lenient={lenient}"


    def test_candidate_offsets_match_block_scan(self, p8, coded8):
        book, _, w = coded8
        lay = _trace_layout(p8)
        cfg = ChannelConfig(
            L_min=p8.L_min, L_over=p8.L_over, e=p8.e, seed=1,
            strategy="adversarial-min", error_mode="overlap-concentrated",
        )
        checked = 0
        for tr in (corrupt(fragment(w, cfg), cfg), _damaged_trace(p8, w, 3)):
            for idx, f in enumerate(tr.strip_truth().fragments):
                info = _analyze_read(idx, f.bits, p8, book, lay, True)
                if info is not None:
                    assert _candidate_offsets(info, p8) == _candidate_offsets_by_scan(info, p8)
                    checked += 1
        assert checked > 1000


def _candidate_offsets_by_scan(info, params):
    """Reference: try every block of the whole table that belongs to the
    read's reference group."""
    blocks = _block_table(params)
    group = np.array(blocks.group)
    L_min = params.L_min
    known = [(b, g) for b, g in zip(info.boundaries, info.groups) if g is not None]
    if known:
        b_ref, g_ref = known[0]
        raw = {int(B) * L_min - b_ref for B in np.flatnonzero(group == g_ref)}
    else:
        raw = {(int(B) + 1) * L_min - info.anchor_pos
               for B in np.flatnonzero(group == info.anchor_group)}
    out = []
    for off in sorted(raw):
        if off < 0 or off + len(info.arr) > params.n:
            continue
        Bs = [(off + b) // L_min for b in info.boundaries]
        if all(
            B < blocks.total
            and (f is None or (f == 0) == blocks.is_start[B])
            and (g is None or blocks.group[B] == g)
            for B, f, g in zip(Bs, info.flags, info.groups)
        ):
            out.append(off)
    return out


def _place_all_by_scan(infos, params, lenient):
    """Reference placement: every placed read rescans every pending read and
    every one of its candidate offsets."""
    placed, skipped, queue = {}, set(), []
    arrs = {info.idx: info.arr for info in infos}
    pending = {
        info.idx: {off: False for off in _candidate_offsets(info, params)}
        for info in infos
    }

    def settle(idx):
        cands = pending[idx]
        if not cands:
            if lenient:
                skipped.add(idx)
                del pending[idx]
                return
            raise DecodeFailure(
                "a read admits no placement consistent with the others; "
                "the trace violates its error budget"
            )
        anchored = [off for off, a in cands.items() if a]
        chosen = None
        if len(cands) == 1:
            chosen = next(iter(cands))
        elif len(anchored) == 1:
            chosen = anchored[0]
        elif len(anchored) > 1:
            if lenient:
                skipped.add(idx)
                del pending[idx]
                return
            raise DecodeFailure(
                "read placement is ambiguous; distinct positions matched "
                "within the error budget"
            )
        if chosen is not None:
            placed[idx] = chosen
            del pending[idx]
            queue.append(idx)

    for idx in list(pending):
        settle(idx)
    while queue:
        z = queue.pop()
        z_arr, z_off = arrs[z], placed[z]
        for idx in list(pending):
            cands = pending[idx]
            changed = False
            for off in list(cands):
                lo = max(off, z_off)
                hi = min(off + len(arrs[idx]), z_off + len(z_arr))
                if hi - lo < params.L_over:
                    continue
                if _overlap_matches(arrs[idx], off, z_arr, z_off, params):
                    cands[off] = True
                else:
                    del cands[off]
                changed = True
            if changed:
                settle(idx)
    if pending:
        if not lenient:
            raise DecodeFailure(
                "some reads could not be anchored by overlap matching; "
                "the trace does not cover the string contiguously"
            )
        skipped.update(pending)
    return placed, skipped


@pytest.fixture(scope="module")
def gp():
    return derive_gamma0_params(9856, 1, L_min=154, K=64, r_I=12)


@pytest.fixture(scope="module")
def gbook(gp):
    return gamma0_book(gp)


@pytest.fixture(scope="module")
def gcoded(gp, gbook):
    m = BitSeq.random(gamma0_message_len(gp), np.random.default_rng(17))
    return m, encode_gamma0(m, gp, gbook)


class TestGamma0:
    def test_rate_is_exactly_the_block_ratio(self, gp):
        assert gp.rate == (gp.m_prime - gp.d) / gp.L_min
        target = 1 - 1 / gp.a
        print(f"non-overlapping rate {gp.rate:.4f} vs asymptotic form {target:.4f}")

    def test_codeword_length(self, gp, gcoded):
        _, w = gcoded
        assert len(w) == gp.n

    def test_clean_roundtrip(self, gp, gbook, gcoded):
        m, w = gcoded
        cuts = tuple((i * gp.L_min, gp.L_min) for i in range(gp.n // gp.L_min))
        cfg = ChannelConfig(L_min=gp.L_min, L_over=0, e=0, seed=5,
                            strategy="fixed-cuts", cuts=cuts)
        rep = reconstruct_gamma0(fragment(w, cfg).strip_truth(), gp, gbook)
        assert rep.message == m and rep.reliable

    def test_blockwise_flips_still_locate_every_read(self, gp, gbook, gcoded):
        # with single coverage the payload bits cannot be audited, so the
        # guarantee under e flips per read is the placement itself
        _, w = gcoded
        cuts = tuple((i * gp.L_min, gp.L_min) for i in range(gp.n // gp.L_min))
        for seed in range(20):
            cfg = ChannelConfig(L_min=gp.L_min, L_over=0, e=gp.e, seed=seed,
                                strategy="fixed-cuts", cuts=cuts)
            tr = corrupt(fragment(w, cfg), cfg)
            rep = reconstruct_gamma0(tr.strip_truth(), gp, gbook)
            assert [o for o, _ in rep.located] == [f.start for f in tr.fragments]

    def test_random_legal_cuts_roundtrip(self, gp, gbook, gcoded):
        m, w = gcoded
        for seed in range(5):
            cfg = ChannelConfig(L_min=gp.L_min, L_over=0, e=0, seed=seed)
            rep = reconstruct_gamma0(fragment(w, cfg).strip_truth(), gp, gbook)
            assert rep.message == m and rep.reliable

    def test_truncated_length_roundtrip(self):
        gp = derive_gamma0_params(9800, 1, L_min=154, K=64, r_I=12)
        assert gp.n % gp.L_min != 0 and gp.message_blocks == gp.n_L - 1
        book = gamma0_book(gp)
        m = BitSeq.random(gamma0_message_len(gp), np.random.default_rng(23))
        w = encode_gamma0(m, gp, book)
        assert len(w) == gp.n
        cfg = ChannelConfig(L_min=gp.L_min, L_over=0, e=0, seed=9)
        rep = reconstruct_gamma0(fragment(w, cfg).strip_truth(), gp, book)
        assert rep.message == m and rep.reliable

    def test_message_length_requirement(self, gp, gbook):
        with pytest.raises(ValueError):
            encode_gamma0(BitSeq.zeros(3), gp, gbook)

    def test_block_count_drives_index_width(self):
        p = derive_gamma0_params(9856, 1, L_min=154, K=64, r_I=12)
        assert p.I == 6 and p.n_L == 64
