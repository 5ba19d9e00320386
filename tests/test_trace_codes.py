"""Block-structured trace codes: geometry checks, round trips, hardening."""

import dataclasses
import hashlib
import json
import math
import time
import warnings
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import groupby
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strandcode import blocks, outer, trace_codes
from strandcode.bitseq import BitSeq, is_sd, is_wwl
from strandcode.channel import ChannelConfig, Fragment, Trace, corrupt, fragment, is_reliable
from strandcode.errors import (
    DecodeFailure, InfeasibleParameters, LayoutError, SearchExhausted, require_feasible,
)
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
from strandcode.blocks import (
    C,
    V,
    DecodeRecord,
    _layout,
    indexed_locate,
    indexed_reconstruct,
    load_reads,
)
from strandcode.multistrand import (
    derive_multi_gamma0_params,
    fragment_strands,
    multi_gamma0_book,
    multi_gamma0_decode,
    multi_gamma0_encode,
    multi_gamma0_message_len,
)
from strandcode.trace_codes import (
    _AMBIGUOUS,
    _NO_CANDIDATE,
    _analyze_reads,
    _block_table,
    _candidate_offsets,
    _chains,
    _payload_masks,
    _place_all,
    _trace_layout,
)
from strandcode.positioning import build_index_book
from strandcode.outer import _MUL, _lane_decode, _lane_encode


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
        p = derive_trace_params(2**15, 1, a=3.0, gamma=1 / 3, I=6, K=24)
        assert p.violations == ("payload-space", "marker-window", "matching-window")
        with pytest.raises(InfeasibleParameters):
            require_feasible(p)

    def test_a_matching_window_shorter_than_d2_is_refused(self):
        # two 2-bit windows differ in at most 2 < d2 = 5 places, so no salt
        # made a group payload substring distant and every message raised
        # SearchExhausted
        p = derive_trace_params(2601, 1, L_min=61, L_over=40, I=2, K=8)
        assert (p.L, p.d2) == (2, 5)
        assert p.violations == ("sd-distance",)
        with pytest.raises(InfeasibleParameters, match="TraceParams: sd-distance$"):
            encode_trace(BitSeq.zeros(8), p)

    def test_regime_preconditions(self):
        with pytest.raises(ValueError):
            derive_trace_params(4096, 1, a=0.9, gamma=0.5)
        with pytest.raises(ValueError):
            derive_trace_params(4096, 1, a=3.0, gamma=0.5)  # a*gamma > 1
        with pytest.raises(ValueError):
            derive_trace_params(4096, 1, a=2.0, gamma=0.25, eps=0.7)

    @pytest.mark.parametrize("eps", [5.0, 0.5, 0.0, -0.1])
    def test_a_derived_index_width_needs_eps_below_one_half(self, eps):
        # without a and gamma the slack exponent went unchecked, and
        # eps=5.0 derived I=891455
        with pytest.raises(ValueError, match="eps"):
            derive_trace_params(4320, 1, L_min=90, L_over=85, K=8, eps=eps)
        p = derive_trace_params(4320, 1, L_min=90, L_over=85, I=4, K=8, eps=eps)
        assert p.I == 4

    def test_infeasible_params_refuse_to_encode(self):
        p = derive_trace_params(2**15, 1, a=3.0, gamma=1 / 3, I=6, K=24)
        with pytest.raises(InfeasibleParameters):
            encode_trace(BitSeq.zeros(16), p)

    def test_distance_parameters(self, p1, p2):
        assert (p1.d1, p1.d2) == (3, 5)
        assert (p2.d1, p2.d2) == (5, 9)


@pytest.fixture(scope="module")
def infeasible_trace():
    """Formula-sized trace params whose every block inequality fails, and a
    trace cut to their geometry."""
    p = derive_trace_params(4096, 1, a=3, gamma=0.1)
    cfg = ChannelConfig(L_min=p.L_min, L_over=p.L_over, e=1, seed=0)
    return p, fragment(BitSeq.random(p.n, np.random.default_rng(0)), cfg)


@pytest.fixture(scope="module")
def infeasible_gamma0():
    p = derive_gamma0_params(400, 1, L_min=30)
    cfg = ChannelConfig(L_min=p.L_min, L_over=0, e=1, seed=0)
    return p, fragment(BitSeq.random(p.n, np.random.default_rng(0)), cfg)


@pytest.fixture(scope="module")
def uneven_trace():
    """Trace-scale geometry at 49 blocks: feasible inside, but 16 groups
    cannot carry equal block counts, so the outer lanes do not fit."""
    p = derive_trace_params(4410, 1, L_min=90, L_over=85, I=4, r_I=16, K=8)
    cfg = ChannelConfig(L_min=p.L_min, L_over=p.L_over, e=1, seed=0)
    return p, fragment(BitSeq.random(p.n, np.random.default_rng(0)), cfg)


@pytest.fixture(scope="module")
def wide_trace():
    """256 groups of one block: one more lane symbol than GF(256) locates."""
    p = derive_trace_params(23040, 1, L_min=90, L_over=85, I=8, r_I=16, K=8)
    cfg = ChannelConfig(L_min=p.L_min, L_over=p.L_over, e=1, seed=0)
    return p, fragment(BitSeq.random(p.n, np.random.default_rng(0)), cfg)


@pytest.fixture(scope="module")
def feasible_trace(p1):
    cfg = ChannelConfig(L_min=p1.L_min, L_over=p1.L_over, e=1, seed=0)
    return p1, fragment(BitSeq.random(p1.n, np.random.default_rng(0)), cfg)


@pytest.fixture(scope="module")
def feasible_gamma0():
    p = derive_gamma0_params(1980, 1, L_min=110, K=32, r_I=18)
    cfg = ChannelConfig(L_min=p.L_min, L_over=0, e=1, seed=0)
    return p, fragment(BitSeq.random(p.n, np.random.default_rng(0)), cfg)


# every entry point of a family that takes its params, called on (params,
# trace) and, where it takes one, a book; an RS encoder gets a message of
# its length when given a book, so the book is what it checks first
_TRACE_ENTRIES = {
    "trace_message_len": lambda p, tr, book=None: trace_message_len(p),
    "trace_book": lambda p, tr, book=None: trace_book(p),
    "trace_rs_message_len": lambda p, tr, book=None: trace_rs_message_len(p, 1),
    "encode_trace": lambda p, tr, book=None: encode_trace(BitSeq.zeros(8), p, book),
    "encode_trace_rs": lambda p, tr, book=None: encode_trace_rs(
        BitSeq.zeros(trace_rs_message_len(p, 1) if book else 8), p, 1, book
    ),
    "reconstruct_trace": lambda p, tr, book=None: reconstruct_trace(tr, p, book),
    "reconstruct_trace_rs": lambda p, tr, book=None: reconstruct_trace_rs(tr, p, 1, book),
}
_GAMMA0_ENTRIES = {
    "gamma0_message_len": lambda p, tr, book=None: gamma0_message_len(p),
    "gamma0_book": lambda p, tr, book=None: gamma0_book(p),
    "encode_gamma0": lambda p, tr, book=None: encode_gamma0(BitSeq.zeros(8), p, book),
    "reconstruct_gamma0": lambda p, tr, book=None: reconstruct_gamma0(tr, p, book),
}
_TRACE_RS_ENTRIES = sorted(name for name in _TRACE_ENTRIES if "_rs" in name)
_BOOK_TAKERS = [name for name in _TRACE_ENTRIES if not name.endswith(("message_len", "_book"))]
_GAMMA0_BOOK_TAKERS = [
    name for name in _GAMMA0_ENTRIES if not name.endswith(("message_len", "_book"))
]


class TestInfeasibleParams:
    """Derived params carry their violations as data; every entry point
    refuses them with an ``InfeasibleParameters`` that names them."""

    def test_derive_records_every_violation(self, infeasible_trace, infeasible_gamma0):
        assert infeasible_trace[0].violations == (
            "payload-space", "marker-window", "matching-window", "group-coverage"
        )
        assert infeasible_gamma0[0].violations == ("payload-space",)

    @pytest.mark.parametrize("entry", sorted(_TRACE_ENTRIES))
    def test_trace_entry_points_refuse(self, infeasible_trace, entry):
        with pytest.raises(InfeasibleParameters, match="payload-space.*group-coverage"):
            _TRACE_ENTRIES[entry](*infeasible_trace)

    @pytest.mark.parametrize("entry", sorted(_GAMMA0_ENTRIES))
    def test_gamma0_entry_points_refuse(self, infeasible_gamma0, entry):
        with pytest.raises(InfeasibleParameters, match="payload-space"):
            _GAMMA0_ENTRIES[entry](*infeasible_gamma0)

    @pytest.mark.parametrize("entry", _TRACE_RS_ENTRIES)
    @pytest.mark.parametrize(
        "geometry, violation",
        [("uneven_trace", "outer-uniform-groups"), ("wide_trace", "outer-field-size")],
    )
    def test_rs_entry_points_refuse_the_outer_geometry(self, request, geometry, violation, entry):
        p, tr = request.getfixturevalue(geometry)
        assert p.violations == ()
        with pytest.raises(InfeasibleParameters, match=f"TraceParams: {violation}$"):
            _TRACE_ENTRIES[entry](p, tr)

    @pytest.mark.parametrize("tau", [-1, 8])
    def test_rs_decode_refuses_a_bad_tau_before_the_trace(self, feasible_trace, tau, monkeypatch):
        # 16 groups leave no room for 2 * tau >= 16 parity groups
        p, tr = feasible_trace

        def unread(*args):
            raise AssertionError("the trace was decoded")

        monkeypatch.setattr(trace_codes, "_reconstruct", unread)
        with pytest.raises(ValueError, match=r"need 0 <= 2 \* tau < 16,"):
            reconstruct_trace_rs(tr, p, tau)

    @pytest.mark.parametrize("entry", _BOOK_TAKERS)
    def test_trace_entry_points_refuse_a_mismatched_book(self, feasible_trace, entry):
        with pytest.raises(ValueError, match="index book does not match"):
            _TRACE_ENTRIES[entry](*feasible_trace, build_index_book(1, 3, 8))

    @pytest.mark.parametrize("entry", _GAMMA0_BOOK_TAKERS)
    def test_gamma0_entry_points_refuse_a_mismatched_book(self, feasible_gamma0, entry):
        with pytest.raises(ValueError, match="index book does not match"):
            _GAMMA0_ENTRIES[entry](*feasible_gamma0, build_index_book(1, 3, 8))


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

    def test_majority_tie_is_recorded_without_a_warning(self, p1, book1, coded1):
        m, w = coded1
        lay = _trace_layout(p1)
        arr = w.to_numpy()
        # flip a payload bit whose true value is zero in one of two
        # identical full-length reads: the 1-1 vote ties, resolves to the
        # true zero, and must be flagged on the report, not by a warning
        t = int(np.flatnonzero((np.resize(lay.kind == 2, p1.n)) & (arr == 0))[100])
        tr = Trace(n=p1.n, L_min=p1.L_min, L_over=p1.L_over, e=1,
                   fragments=(Fragment(w), Fragment(w.with_bit(t, 1))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
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

    def test_trace_with_no_anchored_read_raises_decode_failure(self, p1, book1):
        rng = np.random.default_rng(2)
        junk = tuple(Fragment(BitSeq.random(100, rng)) for _ in range(5))
        for frags in ((), junk):
            tr = Trace(n=p1.n, L_min=p1.L_min, L_over=p1.L_over, e=1, fragments=frags)
            with pytest.raises(DecodeFailure):
                reconstruct_trace_rs(tr, p1, 1, book1)
        with pytest.raises(DecodeFailure):
            reconstruct_trace(Trace(p1.n, p1.L_min, p1.L_over, 1, ()), p1, book1)

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


def _gf_reference_tables():
    """Antilogs and logs of GF(256) over 0x11D, built by shifting alpha = x
    and reducing, apart from the tables of the code under test."""
    exp, log = [0] * 510, [0] * 256
    x = 1
    for i in range(255):
        exp[i] = exp[i + 255] = x
        log[x] = i
        x <<= 1
        if x & 0x100:
            x ^= 0x11D
    return exp, log


_GF_EXP, _GF_LOG = _gf_reference_tables()


def _gf_mul(a, b):
    if a == 0 or b == 0:
        return 0
    return _GF_EXP[_GF_LOG[a] + _GF_LOG[b]]


def _gf_inv(a):
    if a == 0:
        raise ZeroDivisionError("no inverse of zero")
    return _GF_EXP[255 - _GF_LOG[a]]


def _poly_eval(coeffs, x):
    """sum(coeffs[i] * x^i)."""
    acc, xp = 0, 1
    for c in coeffs:
        acc ^= _gf_mul(c, xp)
        xp = _gf_mul(xp, x)
    return acc


def test_the_reference_field_is_gf256_over_0x11d():
    assert _GF_EXP[8] == 0x1D
    assert _gf_mul(_GF_EXP[254], 2) == 1
    assert sorted(_GF_EXP[:255]) == list(range(1, 256))


def test_the_product_table_matches_the_reference_field():
    want = [[_gf_mul(a, b) for b in range(256)] for a in range(256)]
    assert _MUL.tolist() == want


def _one_lane_encode(data, nsym):
    return _lane_encode(np.array(data, dtype=np.uint8)[:, None], nsym)[:, 0].tolist()


def _one_lane_decode(word, nsym):
    """The lane codec on a one-lane set: (fixed word, corrected positions)."""
    fixed, located = _lane_decode(np.array(word, dtype=np.uint8)[:, None], nsym)
    return fixed[:, 0].tolist(), np.flatnonzero(located[:, 0]).tolist()


def _failure_text(words, nsym):
    try:
        _lane_decode(words, nsym)
    except DecodeFailure as exc:
        return str(exc)
    return None


def _rs_encode_by_rebuild(data, nsym):
    """Reference systematic encoder: builds the generator on every call and
    divides lowest degree first."""
    if nsym == 0:
        return list(data)
    gen = [1]
    for i in range(nsym):
        nxt = [0] * (len(gen) + 1)
        for j, g in enumerate(gen):
            nxt[j] ^= _gf_mul(g, _GF_EXP[i])
            nxt[j + 1] ^= g
        gen = nxt
    rem = [0] * nsym
    for d in data:
        factor = d ^ rem[-1]
        rem = [0] + rem[:-1]
        if factor:
            for j in range(nsym):
                rem[j] ^= _gf_mul(gen[j], factor)
    return list(data) + rem[::-1]


def _rs_decode_by_solve(word, nsym):
    """Reference decoder: Berlekamp-Massey locator, roots by scanning all
    255 field elements, magnitudes by Gaussian elimination on the syndrome
    equations, and every equation checked."""
    n = len(word)
    synd = [_poly_eval(word[::-1], _GF_EXP[i]) for i in range(nsym)]
    if not any(synd):
        return list(word), []
    lam = [1]
    prev = [1]
    l_count = 0
    m = 1
    b = 1
    for i in range(nsym):
        delta = synd[i]
        for j in range(1, l_count + 1):
            if j < len(lam):
                delta ^= _gf_mul(lam[j], synd[i - j])
        if delta == 0:
            m += 1
        elif 2 * l_count <= i:
            old = list(lam)
            scale = _gf_mul(delta, _gf_inv(b))
            shifted = [0] * m + prev
            lam = [a ^ _gf_mul(scale, c) for a, c in _zip_pad(lam, shifted)]
            l_count = i + 1 - l_count
            prev = old
            b = delta
            m = 1
        else:
            scale = _gf_mul(delta, _gf_inv(b))
            shifted = [0] * m + prev
            lam = [a ^ _gf_mul(scale, c) for a, c in _zip_pad(lam, shifted)]
            m += 1
    if l_count * 2 > nsym:
        raise DecodeFailure("too many symbol errors for the outer code")
    positions = []
    for log_x in range(255):
        x = _GF_EXP[log_x]
        if _poly_eval(lam, _gf_inv(x)) == 0:
            pos = n - 1 - log_x
            if not 0 <= pos < n:
                raise DecodeFailure("outer code error location out of range")
            positions.append(pos)
    if len(positions) != l_count:
        raise DecodeFailure("outer code locator roots do not match its degree")
    xs = [_GF_EXP[(n - 1 - p) % 255] for p in positions]
    mags = _solve_vandermonde(xs, synd[: len(xs)])
    for i in range(nsym):
        check = 0
        for xk, ek in zip(xs, mags):
            check ^= _gf_mul(ek, _gf_pow(xk, i))
        if check != synd[i]:
            raise DecodeFailure("outer code syndrome equations are inconsistent")
    fixed = list(word)
    for p, ek in zip(positions, mags):
        fixed[p] ^= ek
    return fixed, sorted(positions)


def _zip_pad(a, b):
    la, lb = len(a), len(b)
    if la < lb:
        a = a + [0] * (lb - la)
    elif lb < la:
        b = b + [0] * (la - lb)
    return zip(a, b)


def _gf_pow(a, p):
    if a == 0:
        return 0 if p else 1
    return _GF_EXP[(_GF_LOG[a] * p) % 255]


def _solve_vandermonde(xs, rhs):
    """Gaussian elimination for sum_k e_k xs[k]^i = rhs[i]."""
    t = len(xs)
    mat = [[_gf_pow(x, i) for x in xs] + [rhs[i]] for i in range(t)]
    for col in range(t):
        pivot = next((r for r in range(col, t) if mat[r][col]), None)
        if pivot is None:
            raise DecodeFailure("outer code magnitude system is singular")
        mat[col], mat[pivot] = mat[pivot], mat[col]
        inv = _gf_inv(mat[col][col])
        mat[col] = [_gf_mul(v, inv) for v in mat[col]]
        for r in range(t):
            if r != col and mat[r][col]:
                f = mat[r][col]
                mat[r] = [v ^ _gf_mul(f, w) for v, w in zip(mat[r], mat[col])]
    return [mat[r][t] for r in range(t)]


def test_lenient_decode_names_exactly_the_corrupted_groups(p1, book1, coded1):
    # the payloads of groups 3 and 9 leave the constrained code; every other
    # group must decode as sent
    m, w = coded1
    lay = _trace_layout(p1)
    arr = w.to_numpy().copy()
    for g in (3, 9):
        for j in range(p1.cnt(g)):
            arr[(p1.cum_blocks(g) + j) * p1.L_min + lay.v_offsets] = 0
    cfg = reliable_cfg(p1, 5)
    tr = corrupt(fragment(BitSeq.from_numpy(arr), cfg), cfg).strip_truth()
    payloads, report, record = trace_codes._reconstruct(tr, p1, book1)
    assert set(record.rejected) == {3, 9}
    assert not report.reliable
    sizes = [trace_codes._group_payload_len(p1, g) for g in range(p1.group_count)]
    starts = np.cumsum([0] + sizes)
    for g, got in enumerate(payloads):
        sent = BitSeq.zeros(sizes[g]) if g in (3, 9) else m.window(int(starts[g]), sizes[g])
        assert got == sent, g
    with pytest.raises(DecodeFailure, match="^group 3 payload is not a valid constrained string"):
        record.verdict()


class TestOuterCode:
    def test_lane_codec_corrects_to_capacity(self):
        rng = np.random.default_rng(5)
        data = [int(x) for x in rng.integers(0, 256, size=12)]
        for nsym in (0, 2, 4, 6):
            word = _one_lane_encode(data, nsym)
            assert word[:12] == data
            bad = list(word)
            pos = rng.choice(len(word), size=nsym // 2, replace=False)
            for q in pos:
                bad[q] ^= int(rng.integers(1, 256))
            fixed, found = _one_lane_decode(bad, nsym)
            assert fixed == word
            assert found == sorted(int(q) for q in pos)

    def test_lane_codec_rejects_overload(self):
        data = list(range(10))
        word = _one_lane_encode(data, 4)
        bad = list(word)
        for q in (0, 3, 7):
            bad[q] ^= 0x55
        with pytest.raises(DecodeFailure):
            _one_lane_decode(bad, 4)

    def test_zero_parity_leaves_the_word_alone(self):
        data = [7, 0, 255, 1]
        assert _one_lane_encode(data, 0) == data
        assert _one_lane_decode(data, 0) == (data, [])
        lanes = np.random.default_rng(4).integers(0, 256, (5, 7), dtype=np.uint8)
        assert (_lane_encode(lanes, 0) == lanes).all()
        fixed, located = _lane_decode(lanes, 0)
        assert (fixed == lanes).all() and not located.any()

    def test_lane_codec_matches_the_solving_decoder(self):
        # random words with up to 2 * tau + 3 symbol errors, past what the
        # parity can locate, so both sides also fail on the same words
        rng = np.random.default_rng(23)
        outcomes = {"decoded": 0, "failed": 0}
        for _ in range(3000):
            n = int(rng.choice([4, 8, 16, 32, 64, 128, 255]))
            nsym = 2 * int(rng.integers(0, min(6, (n - 1) // 2) + 1))
            data = [int(x) for x in rng.integers(0, 256, size=n - nsym)]
            word = _one_lane_encode(data, nsym)
            assert word == _rs_encode_by_rebuild(data, nsym)
            bad = list(word)
            errors = int(rng.integers(0, min(n, nsym + 3) + 1))
            for q in rng.choice(n, size=errors, replace=False):
                bad[q] ^= int(rng.integers(1, 256))
            want = _outcome(_rs_decode_by_solve, bad, nsym)
            assert _outcome(_one_lane_decode, bad, nsym) == want, (n, nsym, bad)
            outcomes["failed" if want is DecodeFailure else "decoded"] += 1
        assert min(outcomes.values()) > 1000

    def test_lane_sets_match_the_solving_decoder(self):
        # every lane of a random lane set decodes alone as the reference
        # does; the set decodes to those lanes, or raises the text of its
        # lowest failing lane
        rng = np.random.default_rng(29)
        outcomes = Counter()
        for _ in range(150):
            n = int(rng.integers(3, 256))
            nsym = 2 * int(rng.integers(0, min(6, (n - 1) // 2) + 1))
            width = int(rng.integers(1, 41))
            data = rng.integers(0, 256, (n - nsym, width), dtype=np.uint8)
            words = _lane_encode(data, nsym)
            assert words.T.tolist() == [_rs_encode_by_rebuild(lane, nsym) for lane in data.T.tolist()]
            for s in range(width):
                errors = int(rng.integers(0, min(n, nsym + 3) + 1))
                rows = rng.choice(n, size=errors, replace=False)
                words[rows, s] ^= rng.integers(1, 256, errors, dtype=np.uint8)
            alone = []
            for s in range(width):
                want = _outcome(_rs_decode_by_solve, words[:, s].tolist(), nsym)
                assert _outcome(_one_lane_decode, words[:, s].tolist(), nsym) == want, (n, nsym, s)
                alone.append(want)
            failing = [s for s, got in enumerate(alone) if got is DecodeFailure]
            if failing:
                texts = {_failure_text(words[:, [s]], nsym) for s in failing}
                outcomes["mixed texts" if len(texts) > 1 else "one text"] += 1
                assert _failure_text(words, nsym) == _failure_text(words[:, [failing[0]]], nsym)
            else:
                fixed, located = _lane_decode(words, nsym)
                assert [(fixed[:, s].tolist(), np.flatnonzero(located[:, s]).tolist()) for s in range(width)] == alone
                outcomes["decoded"] += 1
        assert min(outcomes["decoded"], outcomes["one text"]) > 20 and outcomes["mixed texts"]

    def test_the_lowest_failing_lane_names_the_failure(self):
        # tau = 1: equal magnitudes at two positions leave S0 = 0, so the
        # locator outgrows the parity; unequal ones leave a degree-1 locator
        # with no root at a position
        word = _one_lane_encode(list(range(1, 9)), 2)
        same, other = list(word), list(word)
        for q, (a, b) in zip((2, 6), ((0x35, 0x35), (0x35, 0x01))):
            same[q] ^= a
            other[q] ^= b
        texts = {"too many symbol errors for the outer code": same,
                 "outer code locator roots do not match its degree": other}
        for text, lane in texts.items():
            assert _outcome(_rs_decode_by_solve, lane, 2) is DecodeFailure
            assert _failure_text(np.array([lane], dtype=np.uint8).T, 2) == text
        for first, second in (list(texts.items()), list(texts.items())[::-1]):
            words = np.array([word, first[1], word, second[1]], dtype=np.uint8).T
            assert _failure_text(words, 2) == first[0]

    def test_255_blocks_at_tau_127(self):
        # one data block: every lane holds up to 127 symbol errors
        rng = np.random.default_rng(8)
        data = rng.integers(0, 256, (1, 3), dtype=np.uint8)
        words = _lane_encode(data, 254)
        assert words.shape == (255, 3)
        assert [_one_lane_encode(data[:, s].tolist(), 254) for s in range(3)] == words.T.tolist()
        bad, sets = words.copy(), []
        for s, errors in enumerate((127, 64, 0)):
            rows = np.sort(rng.choice(255, size=errors, replace=False))
            bad[rows, s] ^= rng.integers(1, 256, errors, dtype=np.uint8)
            sets.append(rows.tolist())
        fixed, located = _lane_decode(bad, 254)
        assert (fixed == words).all()
        assert [np.flatnonzero(located[:, s]).tolist() for s in range(3)] == sets
        bad[0, 2] ^= 1
        bad[rng.choice(np.flatnonzero(bad[:, 0] == words[:, 0])), 0] ^= 1
        with pytest.raises(DecodeFailure):
            _lane_decode(bad, 254)

    def test_bits_past_the_last_whole_byte_stay_zero(self):
        # 21-bit blocks carry two lanes; the decoder ignores the top 5 bits
        lanes = outer.Lanes(6, 1, 21)
        m = BitSeq.random(lanes.message_len, np.random.default_rng(2))
        sent = lanes.encode(m)
        assert [len(b) for b in sent] == [21] * 6
        assert all(b.value >> 16 == 0 for b in sent)
        received = [b.xor(BitSeq(0b10110 << 16, 21)) for b in sent]
        report = ReconReport(BitSeq.zeros(0), (), (), True)
        record = DecodeRecord((), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        got = lanes.decode(received, report, record)
        assert got.message == m and got.reliable

    def test_four_bad_groups_past_tau_three_fail(self, p8, coded8, monkeypatch):
        # the trace-damaged benchmark trial seeded [10, 8640, 12], replayed in
        # its draw order: message, encode, channel.  The dropped group 4
        # spoils group 5 beside its gap, and flips spoil groups 0 and 12;
        # only 4 and 5 are flagged.  Four bad groups exceed tau = 3, so
        # error-only lane decoding must fail; with the flagged groups as
        # erasures (2 * 2 + 2 <= 2 * tau) errors-and-erasures decoding
        # would recover the message.
        book, tau = coded8[0], 3
        seen = {}
        encode, decode = outer.Lanes.encode, outer.Lanes.decode

        def encode_spy(self, m):
            seen["sent"] = encode(self, m)
            return seen["sent"]

        def decode_spy(self, payloads, report, record):
            seen["received"], seen["damaged"] = list(payloads), set(record.rejected)
            return decode(self, payloads, report, record)

        monkeypatch.setattr(outer.Lanes, "encode", encode_spy)
        rng = np.random.default_rng([10, 8640, 12])
        m = BitSeq.random(trace_rs_message_len(p8, tau), rng)
        w = encode_trace_rs(m, p8, tau, book)
        tr = _damaged_trace(p8, w, int(rng.integers(2**31)), rng)
        monkeypatch.setattr(outer.Lanes, "decode", decode_spy)
        with pytest.raises(DecodeFailure):
            reconstruct_trace_rs(tr.strip_truth(), p8, tau, book)
        wrong = [g for g, (a, b) in enumerate(zip(seen["received"], seen["sent"])) if a != b]
        assert wrong == [0, 4, 5, 12]
        assert seen["damaged"] == {4, 5}

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


def _damaged_trace(p, w, seed, rng=None):
    """One strand flip, up to e random flips per read, every read starting
    in one random group dropped, and 5 % random junk reads mixed in.  The
    channel is seeded by ``seed``, the dropped group and the junk come from
    ``rng`` (by default one seeded by ``seed``)."""
    if rng is None:
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

    def test_chain_failure_skips_the_read_in_lenient_mode(self, p1, book1):
        # a copy of the read at 46 * L_min - 5 whose second flag reads as
        # a group start: the group chain runs past the last group
        tau = 3
        m = BitSeq.random(trace_rs_message_len(p1, tau), np.random.default_rng(19))
        w = encode_trace_rs(m, p1, tau, book1)
        cfg = reliable_cfg(p1, 3)
        tr = corrupt(fragment(w, cfg), cfg)
        at = 95 + p1.marker_len
        bad = w.window(46 * p1.L_min - 5, 120).with_bit(at, 0).with_bit(at + 1, 0)
        tr = dataclasses.replace(tr, fragments=tr.fragments + (Fragment(bad),)).strip_truth()
        rep = reconstruct_trace_rs(tr, p1, tau, book1)
        assert rep.message == m
        assert rep.located[-1] == (None, None)
        assert all(off is not None for off, _ in rep.located[:-1])
        assert not rep.reliable
        with pytest.raises(DecodeFailure, match="group chain runs past the last group"):
            reconstruct_trace(tr, p1, book1)

    def test_sweep_matches_plain_scan(self, p8, coded8):
        # at n=8640 groups span six blocks, so many reads keep several
        # candidate offsets until overlap matching decides them
        book, _, w = coded8
        checked = 0
        for t, (tr, modes) in enumerate(_reference_cases(p8, w)):
            frags = tr.strip_truth().fragments
            reads = load_reads([f.bits for f in frags])
            for lenient in modes:
                batch = _outcome(_batch_pipeline, reads, p8, book, lenient)
                ref = _outcome(_reference_pipeline, frags, p8, book, lenient)
                assert batch == ref, f"case {t}, lenient={lenient}"
                checked += len(frags)
        assert checked > 5000

    def test_candidate_offsets_match_block_scan(self, p8, coded8):
        book, _, w = coded8
        cfg = ChannelConfig(
            L_min=p8.L_min, L_over=p8.L_over, e=p8.e, seed=1,
            strategy="adversarial-min", error_mode="overlap-concentrated",
        )
        checked = 0
        for tr in (corrupt(fragment(w, cfg), cfg), _damaged_trace(p8, w, 3)):
            frags = tr.strip_truth().fragments
            reads = load_reads([f.bits for f in frags])
            anchored = _analyze_reads(reads, p8, book)[2]
            cand_read, cand_off = _candidate_offsets(reads, *anchored, p8)
            infos = _reference_infos(frags, p8, book, True)
            assert anchored[0].tolist() == [info.idx for info in infos]
            for info in infos:
                got = cand_off[cand_read == info.idx].tolist()
                assert got == _candidate_offsets_by_scan(info, p8)
                checked += 1
        assert checked > 1000

    def test_placement_matches_the_dict_engine(self, p1, book1, p8, coded8):
        # placed, dropped and pending must match in order, and every settle
        # branch must occur
        seen, singles, empties = Counter(), 0, 0
        for args in _placement_inputs(p1, book1, p8, coded8):
            placed, dropped, pending = _place_all(*args)
            want = _place_all_by_dicts(*args, seen)
            assert (list(placed.items()), dropped, pending) == (list(want[0].items()), *want[1:])
            count = np.bincount(args[2], minlength=len(args[0].lens))[args[1]]
            singles += int(np.sum(count == 1))
            empties += int(np.sum(count == 0))
        assert seen["placed alone"] > singles  # one live candidate left, none confirmed
        assert seen["placed confirmed"] > 0
        assert seen[_AMBIGUOUS] > 0
        assert seen[_NO_CANDIDATE] > empties  # every candidate failed its check
        assert empties > 0
        # a read with a confirmed candidate settles in the step that
        # confirmed it, so no confirmed candidate is ever checked again
        assert seen["confirmed then failed"] == 0


def _placement_inputs(p1, book1, p8, coded8):
    """``_place_all`` arguments: trace-scale geometry at n = 2160, 4320 and
    8640 under reliable reads, five seeds each, the damaged channel at 4320
    and 8640, every reference trace, and one made-up set of reads.

    No drop occurs in the traces, so the made-up reads, all zeros or all
    ones, with candidates chosen by hand, reach the rest at n=4320: read 0
    is placed alone at 1000; read 1 passes twice (ambiguous), read 2 fails
    twice (no candidate), read 3 passes once (confirmed), read 4 fails
    once and keeps 2000 (placed alone), read 5 has no candidate and read 6
    none near a placed read (pending)."""
    p2160 = derive_trace_params(2160, 1, L_min=90, L_over=85, I=4, r_I=16, K=8)
    sizes = [(p2160, trace_book(p2160)), (p1, book1), (p8, coded8[0])]
    traces = []
    for p, book in sizes:
        for seed in range(5):
            m = BitSeq.random(trace_message_len(p), np.random.default_rng([p.n, seed]))
            cfg = reliable_cfg(p, seed)
            traces.append((p, book, corrupt(fragment(encode_trace(m, p, book), cfg), cfg)))
    for p, book in sizes[1:]:
        w = encode_trace(BitSeq.random(trace_message_len(p), np.random.default_rng(p.n)), p, book)
        traces += [(p, book, _damaged_trace(p, w, seed)) for seed in range(3)]
    traces += [(p8, coded8[0], tr) for tr, _ in _reference_cases(p8, coded8[2])]
    for p, book, tr in traces:
        reads = load_reads([f.bits for f in tr.strip_truth().fragments])
        anchored = _analyze_reads(reads, p, book)[2]
        yield (reads, anchored[0], *_candidate_offsets(reads, *anchored, p), p)
    zeros, ones = BitSeq.zeros(120), BitSeq.from_numpy(np.ones(120, dtype=np.uint8))
    cands = [(0, 1000), (1, 1005), (1, 1010), (2, 1003), (2, 1008), (3, 1002), (3, 3000),
             (4, 1004), (4, 2000), (6, 2500), (6, 2600)]
    cand_read, cand_off = np.array(cands).T
    reads = load_reads([zeros, zeros, ones, zeros, ones, zeros, zeros])
    yield reads, np.arange(7), cand_read, cand_off, p1


def _place_all_by_dicts(reads, which, cand_read, cand_off, params, seen):
    """The dict-of-dicts placement engine that the slot engine replaced,
    kept as it was but for ``seen``, which counts each settle branch and
    each confirmed candidate that later fails a check."""
    L_min = params.L_min
    # an overlap shorter than L_over carries no information; an empty one none
    L_over = max(params.L_over, 1)
    budget = 2 * params.e
    masks = _payload_masks(params)
    lens, values = reads.lens.tolist(), reads.values
    placed: dict[int, int] = {}
    dropped: list[tuple[int, str]] = []
    # candidate state: per pending read a dict offset -> confirmed flag
    pending: dict[int, dict[int, bool]] = {idx: {} for idx in which.tolist()}
    for idx, off in zip(cand_read.tolist(), cand_off.tolist()):
        pending[idx][off] = False
    by_start = np.argsort(cand_off, kind="stable")
    starts, owners = cand_off[by_start].tolist(), cand_read[by_start].tolist()
    reach = int(reads.lens[which].max(initial=0)) - L_over
    queue: list[int] = []

    def settle(idx: int) -> None:
        cands = pending[idx]
        anchored = [off for off, a in cands.items() if a]
        if len(cands) == 1 or len(anchored) == 1:
            placed[idx] = anchored[0] if anchored else next(iter(cands))
            queue.append(idx)
            seen["placed confirmed" if anchored else "placed alone"] += 1
        elif not cands or anchored:
            dropped.append((idx, _AMBIGUOUS if anchored else _NO_CANDIDATE))
            seen[dropped[-1][1]] += 1
        else:
            return  # several candidates, none confirmed yet
        del pending[idx]

    for idx in list(pending):
        settle(idx)

    while queue:
        z = queue.pop()
        z_lo, z_val = placed[z], values[z]
        z_hi = z_lo + lens[z]
        hits: list[tuple[int, int]] = []
        for k in range(bisect_left(starts, z_lo - reach), bisect_right(starts, z_hi - L_over)):
            idx, off = owners[k], starts[k]
            if off in pending.get(idx, ()):
                end = off + lens[idx]
                if (end if end < z_hi else z_hi) - (off if off > z_lo else z_lo) >= L_over:
                    hits.append((idx, off))
        hits.sort()
        for idx, group in groupby(hits, key=itemgetter(0)):
            cands, val = pending[idx], values[idx]
            for _, off in group:
                lo, end = (off if off > z_lo else z_lo), off + lens[idx]
                hi = end if end < z_hi else z_hi
                differ = (val >> (lo - off)) ^ (z_val >> (lo - z_lo))
                if (differ & masks[lo % L_min] & ((1 << (hi - lo)) - 1)).bit_count() <= budget:
                    cands[off] = True
                else:
                    seen["confirmed then failed"] += cands[off]
                    del cands[off]
            settle(idx)

    return placed, tuple(dropped), tuple(pending)


def _reference_cases(p, w):
    """Traces at n=8640 and the modes to decode them in: adversarial cuts,
    reliable reads, reads with extra payload flips past the overlap budget,
    damaged traces with junk reads, and reliable reads laden with junk."""
    vmask = np.resize(_trace_layout(p).kind == 2, p.n)
    cfg = ChannelConfig(
        L_min=p.L_min, L_over=p.L_over, e=p.e, seed=0,
        strategy="adversarial-min", error_mode="overlap-concentrated",
    )
    adversarial = corrupt(fragment(w, cfg), cfg)
    cfg = reliable_cfg(p, 0)
    reliable = corrupt(fragment(w, cfg), cfg)
    # some reads get four extra payload flips, past the overlap budget:
    # lenient placement skips reads, strict placement fails
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
    junk = [
        Fragment(BitSeq.random(int(rng.integers(p.L_min, p.L_min + 31)), rng))
        for _ in range(40)
    ]
    laden = dataclasses.replace(reliable, fragments=reliable.fragments + tuple(junk))
    return [
        (adversarial, (True, False)),
        (reliable, (True, False)),
        (flipped, (True, False)),
        (_damaged_trace(p, w, 0), (True, False)),
        (_damaged_trace(p, w, 5), (True, False)),
        (laden, (True, False)),
    ]


def _outcome(fn, *args):
    """The result of ``fn``, or the class of the decode error it raised."""
    try:
        return fn(*args)
    except (DecodeFailure, LayoutError) as exc:
        return type(exc)


def _batch_pipeline(reads, params, book, lenient):
    """The batch stages; strict decoding is the record's verdict after the
    analysis and after placement."""
    lead, retried, (which, pos, group, know_at) = _analyze_reads(reads, params, book)
    if not lenient:
        DecodeRecord(trace_codes._FAILURES, lead, retried).verdict()
    _, _, flags, groups, _ = _chains(reads, which, pos, group, know_at, params)
    analysis = [
        (idx, a, g, k, f[f >= 0].tolist(), gr.tolist())
        for idx, a, g, k, f, gr in zip(
            which.tolist(), pos.tolist(), group.tolist(), know_at.tolist(), flags, groups
        )
    ]
    cands = _candidate_offsets(reads, which, pos, group, know_at, params)
    placed, dropped, pending = _place_all(reads, which, *cands, params)
    record = DecodeRecord(trace_codes._FAILURES, lead, retried, dropped, pending)
    failed = None if lenient else _outcome(record.verdict)
    return analysis, failed or list(placed.items())


def _reference_pipeline(frags, params, book, lenient):
    infos = _reference_infos(frags, params, book, lenient)
    # the batch pads every read's boundaries to the most any read has, and
    # reports flags past a read's end as unknown and unknown groups as -1
    width = max((len(info.groups) for info in infos), default=0)
    analysis = []
    for info in infos:
        flags = [f for f in info.flags if f is not None]
        groups = [-1 if g is None else g for g in info.groups]
        groups += [-1] * (width - len(groups))
        analysis.append(
            (info.idx, info.anchor_pos, info.anchor_group, info.anchor_at, flags, groups)
        )
    placed = _outcome(_place_all_by_scan, infos, params, lenient)
    return analysis, placed if isinstance(placed, type) else list(placed[0].items())


# ---------------------------------------------------------------------------
# Per-read reference of the read analysis and placement.  It shares no code
# with the batch: the marker, the index split and the index lookup are
# scans of their own.


@dataclasses.dataclass
class _FragInfo:
    idx: int
    arr: np.ndarray
    boundaries: list
    flags: list
    groups: list
    anchor_pos: int
    anchor_group: int
    anchor_at: bool


def _find_marker_by_scan(y, book, e):
    """Reference: the marker against the window read cyclically at every offset."""
    p = book.marker.to_numpy()
    bits = y.to_numpy()
    doubled = np.concatenate([bits, bits])
    wins = np.lib.stride_tricks.sliding_window_view(doubled, len(p))[: len(bits)]
    hits = np.flatnonzero((wins != p).sum(axis=1) <= e).tolist()
    if len(hits) != 1:
        raise LayoutError(f"{len(hits)} marker positions within {e} errors")
    return hits[0]


def _locate_by_scan(y, book):
    """Reference: ``y`` against every window of the book's concatenation."""
    width = book.codeword_len
    wins = np.lib.stride_tricks.sliding_window_view(book.concat.to_numpy(), width)
    hits = np.flatnonzero((wins != y.to_numpy()).sum(axis=1) <= book.e)
    if len(hits) != 1:
        raise DecodeFailure(f"{len(hits)} index alignments within {book.e} errors")
    return int(hits[0]) // width


def _split_by_scan(win, q, lay, width):
    """Reference: the index bits before the boundary at q (S, a codeword
    suffix) and after it (P, a prefix), each in codeword order."""
    L_min = len(lay.kind)
    before, after = {}, {}
    for t in range(L_min):
        b = (t - q) % L_min
        if lay.kind[b] == C:
            (after if t >= q else before)[int(lay.csub[b])] = win[t]
    S = BitSeq.from_bits(before[i] for i in sorted(before))
    P = BitSeq.from_bits(after[i] for i in sorted(after))
    return S, P, len(P)


def _read_flag(y, b, params):
    start = b + params.marker_len
    if start + params.d1 > len(y):
        return None
    ones = y.window(start, params.d1).weight()
    return 1 if 2 * ones > params.d1 else 0


def _anchor_trace(y, s, q, params, book, lay):
    """Identify the group at (or just before) the boundary seen at s + q."""
    width = params.I + params.r_I
    S, P, mu = _split_by_scan(y.window(s, params.L_min), q, lay, width)
    pos = s + q
    flag = _read_flag(y, pos, params)
    if mu == width:
        return pos, True, _locate_by_scan(P, book)
    if mu == 0:
        gp = _locate_by_scan(S, book)
        if flag is None:
            return pos, False, gp
        g = gp + (1 if flag == 0 else 0)
        if g >= params.group_count:
            raise DecodeFailure("group index runs past the last group")
        return pos, True, g
    assert flag is not None
    if flag == 1:
        return pos, True, _locate_by_scan(P + S, book)
    g = _locate_by_scan(S + P, book) + 1
    if g >= params.group_count:
        raise DecodeFailure("group index runs past the last group")
    return pos, True, g


def _analyze_read(idx, y, params, book, lenient):
    """Locate block boundaries, flags, and the anchor group inside one read;
    lenient decoding retries a failing leading window at every later
    offset, and a group chain that leaves the groups is such a failure."""
    L_min = params.L_min
    lay = _trace_layout(params)
    last = None
    for s in range(len(y) - L_min + 1) if lenient else range(1):
        try:
            q = _find_marker_by_scan(y.window(s, L_min), book, params.e)
            pos, know_at, group = _anchor_trace(y, s, q, params, book, lay)
            boundaries = list(range(pos % L_min, len(y), L_min))
            flags = [_read_flag(y, b, params) for b in boundaries]
            groups = [None] * len(boundaries)
            anchor_block = pos if know_at else pos - L_min
            if anchor_block >= 0:
                ai = boundaries.index(anchor_block)
                groups[ai] = group
                for t in range(ai + 1, len(boundaries)):
                    if flags[t] is None:
                        break
                    groups[t] = groups[t - 1] + (1 if flags[t] == 0 else 0)
                    if groups[t] >= params.group_count:
                        raise DecodeFailure("group chain runs past the last group")
                for t in range(ai - 1, -1, -1):
                    if flags[t + 1] is None:
                        break
                    groups[t] = groups[t + 1] - (1 if flags[t + 1] == 0 else 0)
                    if groups[t] < 0:
                        raise DecodeFailure("group chain runs below the first group")
        except (LayoutError, DecodeFailure) as exc:
            last = exc
            continue
        return _FragInfo(idx, y.to_numpy(), boundaries, flags, groups, pos, group, know_at)
    if lenient:
        return None
    raise last


def _reference_infos(frags, params, book, lenient):
    infos = (_analyze_read(idx, f.bits, params, book, lenient) for idx, f in enumerate(frags))
    return [info for info in infos if info is not None]


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


def _overlap_matches(a_arr, a_off, b_arr, b_off, params):
    """Reference: whether two placements disagree in at most 2e of the
    payload positions they share."""
    payload = np.resize(_trace_layout(params).kind == 2, params.n)
    lo = max(a_off, b_off)
    hi = min(a_off + len(a_arr), b_off + len(b_arr))
    differ = a_arr[lo - a_off : hi - a_off] != b_arr[lo - b_off : hi - b_off]
    return np.count_nonzero(differ & payload[lo:hi]) <= 2 * params.e


def _place_all_by_scan(infos, params, lenient):
    """Reference placement: every placed read rescans every pending read and
    every one of its candidate offsets."""
    placed, skipped, queue = {}, set(), []
    arrs = {info.idx: info.arr for info in infos}
    pending = {
        info.idx: {off: False for off in _candidate_offsets_by_scan(info, params)}
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


def _indexed_locate_by_scan(y, s, params, book):
    """Reference: the flattened placement of a read from its window at s,
    through the scans of the per-read reference above."""
    width = params.I + params.r_I
    win = y.window(s, params.L_min)
    q = _find_marker_by_scan(win, book, params.e)
    S, P, mu = _split_by_scan(win, q, _layout(params), width)
    index = _locate_by_scan(P, book) if mu == width else _locate_by_scan(S + P, book) + 1
    if index >= params.k * params.strand_blocks:
        raise DecodeFailure("block index runs past the last block")
    strand, j = divmod(index, params.strand_blocks)
    off = params.marker_phase + j * params.L_min - (s + q)
    if off < 0 or off + len(y) > params.n:
        raise DecodeFailure("located read does not fit inside its strand")
    return strand * params.n + off


def _indexed_cases():
    """(params, book, reads) of the gamma=0 code and of the multi-strand
    code at k=32, with flipped reads and junk reads mixed in."""
    rng = np.random.default_rng(31)
    cases = []
    gp = derive_gamma0_params(9856, 1, L_min=154, K=64, r_I=12)
    mp = derive_multi_gamma0_params(1100, 32, 1, L_min=110, K=32, r_I=18)
    for p, book in ((gp, gamma0_book(gp)), (mp, multi_gamma0_book(mp))):
        if p.k == 1:
            m = BitSeq.random(gamma0_message_len(p), rng)
            cfg = ChannelConfig(L_min=p.L_min, L_over=0, e=1, seed=4, error_mode="random")
            tr = corrupt(fragment(encode_gamma0(m, p, book), cfg), cfg)
        else:
            per = multi_gamma0_message_len(p) // p.k
            ss = multi_gamma0_encode(tuple(BitSeq.random(per, rng) for _ in range(p.k)), p, book)
            cfg = ChannelConfig(L_min=p.L_min, L_over=0, e=1, seed=4, error_mode="random")
            tr = corrupt(fragment_strands(ss, cfg), cfg)
        bits = [f.bits for f in tr.fragments]
        # every 10th read with three more flips in its leading window, and junk
        for i in range(0, len(bits), 10):
            for t in rng.choice(p.L_min, size=3, replace=False):
                bits[i] = bits[i].with_bit(int(t), not bits[i][int(t)])
        bits += [BitSeq.random(int(rng.integers(p.L_min, 2 * p.L_min)), rng) for _ in range(20)]
        cases.append((p, book, tr, bits))
    return cases


class TestIndexedReference:
    def test_batch_locate_matches_per_read_reference(self):
        checked = 0
        for p, book, _, bits in _indexed_cases():
            reads = load_reads(bits)
            which = np.repeat(np.arange(len(bits)), reads.lens - p.L_min + 1)
            s = np.concatenate([np.arange(len(b) - p.L_min + 1) for b in bits])
            # every window of the junk reads, the leading one of the others
            lead = (s == 0) | (which >= len(bits) - 20)
            which, s = which[lead], s[lead]
            got = indexed_locate(reads, which, s, p, book).tolist()
            want = [
                _outcome(_indexed_locate_by_scan, bits[i], t, p, book)
                for i, t in zip(which.tolist(), s.tolist())
            ]
            assert got == [w if isinstance(w, int) else -1 for w in want]
            assert sum(w == LayoutError for w in want) > 10
            assert sum(isinstance(w, int) for w in want) > 50
            checked += len(want)
        assert checked > 1000

    def test_decode_matches_per_read_reference(self):
        for p, book, tr, bits in _indexed_cases():
            mixed = dataclasses.replace(tr, fragments=tuple(Fragment(b) for b in bits))
            got = indexed_reconstruct(mixed, p, book)
            for lenient in (True, False):
                want = []
                for b in bits:
                    want.append(None)
                    for t in range(len(b) - p.L_min + 1) if lenient else range(1):
                        if isinstance(o := _outcome(_indexed_locate_by_scan, b, t, p, book), int):
                            want[-1] = o
                            break
                if not lenient:
                    assert _outcome(got[2].verdict) == DecodeFailure and None in want
                    continue
                assert [off for off, _ in got[1].located] == want


def _strict_outcome(fn, *args):
    """The (error class, message) a strict decode raises, or (None, the
    report's reliable flag) when it returns."""
    try:
        out = fn(*args)
    except (DecodeFailure, LayoutError) as exc:
        return type(exc), str(exc)
    return None, (out[1] if isinstance(out, tuple) else out).reliable


def _mixed_failure_traces(p, book):
    """Reliable traces at n=4320 that fail in two ways at once:
    - a junk read first, and every read starting in group 5 dropped;
    - a read whose last 100 bits run past the string's end, and the
      same gap;
    - the same gap, and group 3's payload out of the constrained code;
    - one read with four payload flips, and group 3's payload out."""
    rng = np.random.default_rng(61)
    lay = _trace_layout(p)
    w = encode_trace(BitSeq.random(trace_message_len(p), rng), p, book)
    arr = w.to_numpy().copy()
    for j in range(p.cnt(3)):
        arr[(p.cum_blocks(3) + j) * p.L_min + lay.v_offsets] = 0
    cfg = reliable_cfg(p, 6)
    tr, tr3 = (corrupt(fragment(x, cfg), cfg) for x in (w, BitSeq.from_numpy(arr)))
    lo, hi = p.cum_blocks(5) * p.L_min, p.cum_blocks(6) * p.L_min
    gap, gap3 = (tuple(f for f in t.fragments if not lo <= f.start < hi) for t in (tr, tr3))
    junk = Fragment(BitSeq.random(p.L_min + 12, rng))
    past_end = Fragment(w.window(p.n - 100, 100) + w.window(p.L_min, 100))
    over = list(tr3.fragments)
    f = over[len(over) // 2]
    bits = f.bits.to_numpy().copy()
    where = np.flatnonzero(np.resize(lay.kind == V, p.n)[f.start : f.start + len(bits)])
    bits[rng.choice(where[where >= 30], size=4, replace=False)] ^= 1
    over[len(over) // 2] = Fragment(BitSeq.from_numpy(bits))
    return [
        dataclasses.replace(tr, fragments=frags).strip_truth()
        for frags in ((junk,) + gap, gap[:1] + (past_end,) + gap[1:], gap3, tuple(over))
    ]


_NO_MARKER = "no unique marker position within the error budget"
_NO_PLACEMENT = (
    "a read admits no placement consistent with the others; the trace violates its error budget"
)
_GROUP_3 = (
    "group 3 payload is not a valid constrained string: "
    "window weight constraint violated at symbol 5"
)
# one per _reference_cases trace
PINNED_REFERENCE_OUTCOMES = [
    (None, True),
    (None, True),
    (DecodeFailure, "some reads could not be anchored by overlap matching; "
                    "the trace does not cover the string contiguously"),
    (LayoutError, f"read 0: {_NO_MARKER}"),
    (LayoutError, f"read 2: {_NO_MARKER}"),
    (LayoutError, f"read 807: {_NO_MARKER}"),
]
# per _indexed_cases set: its trace, then the trace with flipped and junk reads
PINNED_INDEXED_OUTCOMES = [
    (None, False),
    (DecodeFailure, "read 0 cannot be located"),
    (None, False),
    (DecodeFailure, "read 0 cannot be located"),
]
# one per _mixed_failure_traces trace
PINNED_MIXED_OUTCOMES = [
    (LayoutError, f"read 0: {_NO_MARKER}"),
    (DecodeFailure, _NO_PLACEMENT),
    (DecodeFailure, "172 positions are uncovered; the trace is incomplete"),
    (DecodeFailure, _GROUP_3),
]


class TestStrictPrecedence:
    """What strict decoding raises, class and message, when a trace fails
    in one or several ways: the first read whose leading window does not
    anchor, then a read placement drops, then reads left pending, then
    uncovered positions, then a group payload that does not decode."""

    def test_reference_traces_raise_as_pinned(self, p8, coded8):
        book, _, w = coded8
        got = [
            _strict_outcome(reconstruct_trace, tr.strip_truth(), p8, book)
            for tr, _ in _reference_cases(p8, w)
        ]
        assert got == PINNED_REFERENCE_OUTCOMES

    def test_indexed_sets_raise_as_pinned(self):
        got = []
        for p, book, tr, bits in _indexed_cases():
            mixed = dataclasses.replace(tr, fragments=tuple(Fragment(b) for b in bits))
            decode = reconstruct_gamma0 if p.k == 1 else multi_gamma0_decode
            got += [_strict_outcome(decode, t.strip_truth(), p, book) for t in (tr, mixed)]
        assert got == PINNED_INDEXED_OUTCOMES

    def test_mixed_failures_raise_the_earlier_kind(self, p1, book1):
        got = [_strict_outcome(reconstruct_trace, tr, p1, book1)
               for tr in _mixed_failure_traces(p1, book1)]
        assert got == PINNED_MIXED_OUTCOMES


def _assemble_by_blocks(params, book, vs):
    """Reference: the trace word written block by block, one codeword
    converted per block."""
    lay = _trace_layout(params)
    blocks = _block_table(params)
    L_min = params.L_min
    out = np.zeros(blocks.total * L_min, dtype=np.uint8)
    marker = book.marker.to_numpy()
    for B in range(blocks.total):
        g = int(blocks.group[B])
        j = B - params.cum_blocks(g)
        base = B * L_min
        out[base : base + params.marker_len] = marker
        if j != 0:
            out[base + params.marker_len : base + params.marker_len + params.d1] = 1
        piece = vs[g][j * params.v_per_block : (j + 1) * params.v_per_block]
        out[base + lay.v_offsets] = piece
        out[base + lay.c_offsets] = book.codewords[g].to_numpy()
    return out[: params.n]


def _indexed_encode_by_blocks(messages, params, book):
    """Reference: the strands of the indexed core written block by block,
    one codeword and one payload converted per block."""
    body = params.m_prime - params.d
    payload_codec = blocks.codec(params.w_window, params.w_floor, params.m_prime, 512)
    pad = BitSeq.zeros(payload_codec.msg_len - body)
    mark_at, c_at, v_at = blocks._period_offsets(params)
    marker = book.marker.to_numpy()
    tail = blocks._tail(params).to_numpy()
    L_min, nb = params.L_min, params.strand_blocks
    strands = []
    for i, m_i in enumerate(messages):
        arr = np.zeros(max(params.n, nb * L_min), dtype=np.uint8)
        for j in range(nb):
            m_ij = m_i.window(j * body, body) if j < params.message_blocks else BitSeq.zeros(body)
            base = j * L_min
            arr[base + v_at] = payload_codec.encode(m_ij + pad).to_numpy()
            arr[base + mark_at] = marker
            arr[base + c_at] = book.codewords[i * nb + j].to_numpy()
        arr[nb * L_min : params.n] = tail
        w = arr[: params.n]
        if blocks.marker_offenders(w, L_min, params.d, marker, nb, phase0=params.marker_phase):
            raise SearchExhausted(f"payload bits of strand {i} collided with the marker pattern")
        strands.append(BitSeq.from_numpy(w))
    return tuple(strands)


class TestBlockScatter:
    """The one-scatter encoders against the per-block loops they replaced."""

    @pytest.mark.parametrize("n", [4320, 4365])  # L_min = 90 divides 4320, not 4365
    def test_trace_assemble_matches_the_block_loop(self, n, monkeypatch):
        p = derive_trace_params(n, 1, L_min=90, L_over=85, I=4, r_I=16, K=8)
        book = trace_book(p)
        rng = np.random.default_rng(n)
        # the last group's payload spans the cut block too
        sizes = [p.N(g) for g in range(p.group_count)]
        sizes[-1] += (_block_table(p).total - p.n_L) * p.v_per_block
        for _ in range(5):
            # any bits will do: the scatter does not look at what it writes
            vs = [rng.integers(0, 2, size).astype(np.uint8) for size in sizes]
            assert np.array_equal(trace_codes._assemble(p, book, vs), _assemble_by_blocks(p, book, vs))
        messages = [BitSeq.random(trace_message_len(p), rng) for _ in range(3)]
        words = [encode_trace(m, p, book) for m in messages]
        monkeypatch.setattr(trace_codes, "_assemble", _assemble_by_blocks)
        assert [encode_trace(m, p, book) for m in messages] == words

    @pytest.mark.parametrize(
        "family, n, k, geometry",
        [
            ("gamma0", 9856, 1, dict(L_min=154, K=64, r_I=12)),
            ("gamma0", 9800, 1, dict(L_min=154, K=64, r_I=12)),  # last block cut
            ("multi", 1030, 2, dict(L_min=100, K=32, r_I=12)),  # 30-bit tail
            ("multi", 1100, 8, dict(L_min=110, K=32, r_I=18)),
        ],
    )
    def test_indexed_encode_matches_the_block_loop(self, family, n, k, geometry):
        if family == "gamma0":
            p = derive_gamma0_params(n, 1, **geometry)
            book, per = gamma0_book(p), gamma0_message_len(p)
        else:
            p = derive_multi_gamma0_params(n, k, 1, **geometry)
            book, per = multi_gamma0_book(p), multi_gamma0_message_len(p) // k
        tail = {9856: 0, 9800: -56, 1030: 30, 1100: 0}[n]
        assert p.k == k and n - p.strand_blocks * p.L_min == tail
        rng = np.random.default_rng(n + k)
        for _ in range(3):
            messages = tuple(BitSeq.random(per, rng) for _ in range(k))
            assert blocks.indexed_encode(messages, p, book) == _indexed_encode_by_blocks(
                messages, p, book
            )
