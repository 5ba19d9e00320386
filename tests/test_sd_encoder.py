"""Pipeline encoder tests: parameter derivation, the rewrite loop, the
scaffold, and end-to-end round trips."""

import dataclasses
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strandcode import _bitops
from strandcode.bitseq import BitSeq, is_sd, is_wwl
from strandcode.constrained import ConstrainedCodec, auto_cyclic, codec
from strandcode.errors import (
    DecodeFailure, InfeasibleParameters, SearchExhausted, StrandcodeError, require_feasible,
)
from strandcode.oracle import check_p123, check_sd_exhaustive, sd_min_pair_distance
from strandcode.sd_encoder import (
    Scaffold,
    _rightmost_marker,
    _unroll_overlap,
    build_scaffold,
    contract_from_length,
    decode_sd,
    derive_sd_params,
    eliminate_close_pairs,
    encode_sd,
    expand_to_length,
    restore_close_pairs,
    scaffold_for,
    sd_message_len,
)


class TestDeriveParams:
    def test_frozen_small(self):
        p = derive_sd_params(1024, 1)
        assert (p.L1, p.K1, p.L2, p.K2, p.ell, p.K_max, p.L) == (21, 5, 50, 27, 2, 27, 89)
        assert p.feasible

    def test_frozen_large(self):
        """The d=5 point fails desk-scale checks but the values must match."""
        p = derive_sd_params(2**20, 5)
        assert (p.L1, p.K1, p.L2, p.K2, p.K_max, p.ell, p.L) == (98, 30, 130, 33, 33, 25, 248)
        assert any(v.startswith("replacement-shrink") for v in p.violations)
        with pytest.raises(InfeasibleParameters, match="replacement-shrink"):
            require_feasible(derive_sd_params(2**20, 5))

    def test_frozen_d3(self):
        p = derive_sd_params(65537, 3)
        assert (p.L1, p.K1, p.L2, p.K2, p.K_max, p.ell, p.L) == (62, 18, 97, 30, 30, 12, 175)
        assert p.insert_len == 61 and p.feasible

    def test_d3_feasibility_boundary(self):
        with pytest.raises(InfeasibleParameters):
            require_feasible(derive_sd_params(65536, 3))
        assert derive_sd_params(65537, 3).feasible

    def test_infeasible_names_check(self):
        with pytest.raises(InfeasibleParameters, match="replacement-shrink"):
            require_feasible(derive_sd_params(4096, 3))

    @pytest.mark.parametrize("d", range(1, 17))
    def test_marker_length_matches(self, d):
        p = derive_sd_params(1 << 20, d)
        assert p.ell == len(auto_cyclic(d))

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            derive_sd_params(2, 1)
        with pytest.raises(ValueError):
            derive_sd_params(1024, 0)

    def test_rate_increases_with_n(self):
        rates = [sd_message_len(n, 1) / n for n in (1024, 2048, 4096)]
        assert rates == sorted(rates)
        assert rates[0] < rates[-1]


def _random_inner(n, d, rng):
    p = derive_sd_params(n, d)
    inner = codec(p.zero_len, d, p.inner_len)
    idx = int.from_bytes(rng.bytes(32), "little") % inner.count(p.inner_len)
    return inner.unrank_from_start(idx, p.inner_len)


def _planted_branch2(seed=24):
    """A 128-bit-scale input that forces two rewrites, the second in the
    overlapping branch.

    Window T is planted twice so the first rewrite lands at j=56; the
    window at 40 is built to match position 0 only after the rewrite's
    leading one appears at position 56, so the second primal pair is
    (0, 40) with 40 = 56 - L1 + 1.
    """
    n, d = 128, 1
    p = derive_sd_params(n, d)
    rng = np.random.default_rng(seed)
    inner = codec(p.zero_len, d, p.inner_len)
    idx = int.from_bytes(rng.bytes(16), "little") % inner.count(p.inner_len)
    base = inner.unrank_from_start(idx, p.inner_len)
    T = BitSeq.random(p.L1, rng).with_bit(0, 0)
    w = base.splice(20, p.L1, T).splice(56, p.L1, T)
    V = w.window(40, 16) + BitSeq.from_text("1")
    w = w.splice(0, p.L1, V)
    assert is_wwl(w, p.zero_len, d)
    pairs = _bitops.close_pairs(w.to_numpy(), p.L1, d - 1)
    assert [(i, j) for i, j, _ in pairs] == [(20, 56)]
    return w, p


class TestRewriteLoop:
    def test_no_close_pairs_is_identity(self):
        n, d = 256, 1
        p = derive_sd_params(n, d)
        rng = np.random.default_rng(3)
        seen_clean = 0
        while seen_clean < 5:
            w = _random_inner(n, d, rng)
            if _bitops.close_pairs(w.to_numpy(), p.L1, d - 1):
                continue
            trace = []
            assert eliminate_close_pairs(w, p, trace=trace) == w
            assert trace == []
            seen_clean += 1

    def test_planted_duplicate(self):
        n, d = 128, 1
        p = derive_sd_params(n, d)
        rng = np.random.default_rng(11)
        w = None
        while w is None:
            cand = _random_inner(n, d, rng)
            cand = cand.splice(40, p.L1, cand.window(5, p.L1))
            if not is_wwl(cand, p.zero_len, d):
                continue
            if [(i, j) for i, j, _ in _bitops.close_pairs(cand.to_numpy(), p.L1, 0)] == [(5, 40)]:
                w = cand
        trace = []
        wbar = eliminate_close_pairs(w, p, trace=trace)
        assert len(wbar) < len(w)
        assert is_sd(wbar, p.L1, d) and is_wwl(wbar, p.K1, d)
        assert [e["branch"] for e in trace] == [1]
        assert trace[0]["marker_at"] == trace[0]["j"] == 40
        assert restore_close_pairs(wbar, p) == w

    def test_branch2_cascade(self):
        w, p = _planted_branch2()
        trace = []
        wbar = eliminate_close_pairs(w, p, trace=trace)
        assert [e["branch"] for e in trace] == [1, 2]
        assert [e["j"] for e in trace] == [56, 40]
        assert all(e["marker_at"] == e["j"] for e in trace)
        assert restore_close_pairs(wbar, p) == w

    def test_trace_is_json_ready(self):
        w, p = _planted_branch2()
        trace = []
        eliminate_close_pairs(w, p, trace=trace)
        rebuilt = json.loads(json.dumps(trace))
        assert rebuilt == trace

    @pytest.mark.parametrize("n", [128, 256])
    def test_all_ones_cascade(self, n):
        """A degenerate input whose every window collides; the loop must
        still shrink monotonically, stay within the rewrite budget, and
        round-trip."""
        p = derive_sd_params(n, 1)
        w = BitSeq.ones(p.inner_len)
        trace = []
        wbar = eliminate_close_pairs(w, p, trace=trace)
        assert is_sd(wbar, p.L1, 1) and is_wwl(wbar, p.K1, 1)
        lens = [e["len_after"] for e in trace]
        assert lens == sorted(lens, reverse=True) and len(set(lens)) == len(lens)
        assert len(trace) <= p.inner_len - p.L1 + 1
        assert all(e["marker_at"] == e["j"] for e in trace)
        assert restore_close_pairs(wbar, p) == w

    def test_search_modes_agree(self, monkeypatch):
        cases = [_planted_branch2()[0]]
        p = derive_sd_params(128, 1)
        cases.append(BitSeq.ones(p.inner_len))
        rng = np.random.default_rng(5)
        cases += [_random_inner(128, 1, rng) for _ in range(10)]
        for w in cases:
            ta, tb = [], []
            wa = eliminate_close_pairs(w, p, trace=ta)
            with monkeypatch.context() as mp:
                mp.setattr(_bitops, "PrimalScan", _NaivePrimalScan)
                wb = eliminate_close_pairs(w, p, trace=tb)
            assert wa == wb and ta == tb

    def test_rejects_non_wwl_input(self):
        p = derive_sd_params(128, 1)
        with pytest.raises(ValueError, match="weight limited"):
            eliminate_close_pairs(BitSeq.zeros(p.inner_len), p)
        with pytest.raises(ValueError, match="length"):
            eliminate_close_pairs(BitSeq.ones(10), p)

    def test_random_outputs_meet_both_constraints(self):
        n, d = 128, 1
        p = derive_sd_params(n, d)
        rng = np.random.default_rng(9)
        rewrites = 0
        for _ in range(200):
            w = _random_inner(n, d, rng)
            trace = []
            wbar = eliminate_close_pairs(w, p, trace=trace)
            rewrites += len(trace)
            assert is_sd(wbar, p.L1, d)
            assert is_wwl(wbar, p.K1, d)
            assert restore_close_pairs(wbar, p) == w
        assert rewrites > 0  # the sample must actually exercise the loop

    def test_overlap_unroll_matches_the_per_bit_recurrence(self):
        rng = np.random.default_rng(41)
        for _ in range(20000):
            L1 = int(rng.integers(1, 81))
            shift = int(rng.integers(1, L1 + 1))
            seed, mask = BitSeq.random(shift, rng).value, BitSeq.random(L1, rng).value
            want = _unroll_overlap_by_bits(seed, mask, shift, L1)
            assert _unroll_overlap(seed, mask, shift, L1) == want

    def test_restore_rejects_corrupt_record(self):
        w, p = _planted_branch2()
        wbar = eliminate_close_pairs(w, p)
        # the rightmost marker sits at 40; damage the framing one after it
        bad = wbar.with_bit(40 + 1 + p.zero_len, 0)
        with pytest.raises(DecodeFailure):
            restore_close_pairs(bad, p)

    def test_restore_rejects_truncated_record(self):
        p = derive_sd_params(128, 1)
        # a marker too close to the end cannot hold a full record
        fake = BitSeq.ones(40) + BitSeq.ones(1) + BitSeq.zeros(p.zero_len) + BitSeq.ones(2)
        with pytest.raises(DecodeFailure):
            restore_close_pairs(fake, p)

    def test_decode_rejects_a_stray_zero_run(self):
        # an all-zero word holds zero runs but no 1^d before any of them
        with pytest.raises(DecodeFailure, match="stray zero run without a marker"):
            decode_sd(BitSeq.zeros(128), 128, 1)

    @pytest.mark.parametrize("d, zero_len", [(1, 5), (3, 4), (2, 1)])
    def test_marker_scan_matches_a_text_search(self, d, zero_len):
        rng = np.random.default_rng(d * 10 + zero_len)
        marker = "1" * d + "0" * zero_len
        seen = set()
        for _ in range(300):
            # sparse and dense words, so runs of both kinds turn up
            n = int(rng.integers(0, 40))
            x = BitSeq.from_numpy((rng.random(n) < rng.choice([0.2, 0.5, 0.8])).astype(np.uint8))
            text = x.to_text()
            j = text.rfind(marker)
            want = (None if j < 0 else j), "0" * zero_len in text
            assert _rightmost_marker(x, d, zero_len) == want
            seen.add((want[0] is None, want[1]))
        assert seen == {(True, False), (True, True), (False, True)}


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


def _primal_naive(bits, L, rho):
    """The primal close pair (i, j) of the all-pairs scan, or None."""
    pairs = _close_pairs_naive(bits, L, rho)[:1]
    return pairs[0][:2] if pairs else None


class _NaivePrimalScan:
    """:class:`_bitops.PrimalScan` answered by the all-pairs scan of the
    whole word, which it rebuilds from each edit."""

    def __init__(self, bits, L, rho):
        self.bits, self.L, self.rho = bits, L, rho

    def first(self):
        return _primal_naive(self.bits, self.L, self.rho)

    def edit(self, lo, bits, shift):
        rest = lo + bits.size + shift
        self.bits = np.concatenate([self.bits[:lo], bits, self.bits[rest:]])


def _splices_wwl_by_cuts(cand: BitSeq, prev: BitSeq, K: int, d: int) -> bool:
    """Whether every splice cand[:j] + prev[j:] is (K, d)-weight limited,
    one window weight per (splice, window start)."""
    Ls = len(cand)
    if Ls < max(K, 2):
        return True
    cc = np.concatenate([[0], np.cumsum(cand.to_numpy(), dtype=np.int64)])
    cp = np.concatenate([[0], np.cumsum(prev.to_numpy(), dtype=np.int64)])
    a = np.arange(Ls - K + 1)
    cut = np.clip(np.arange(1, Ls)[:, None], a, a + K)
    return int((cc[cut] - cc[a] + cp[a + K] - cp[cut]).min()) >= d


def _scaffold_by_single_draws(p, seed, max_tries=200):
    """The scaffold search one draw at a time, as a reference: each draw
    is spliced onto the last kept piece and its windows compared with
    every stored window of their phase.  Returns the pieces and, for each
    rejected draw, the check it failed."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, p.n, p.d)))
    codec = ConstrainedCodec(p.K2, p.d, p.piece_len)
    cap = codec.count(p.piece_len)
    Ls = p.piece_len
    store = np.empty((Ls, p.n_pieces, -(-Ls // 64)), dtype=np.uint64)
    pieces, rejected = [], []
    attempts = 0
    while len(pieces) < p.n_pieces:
        attempts += 1
        if attempts > max_tries * p.n_pieces:
            raise SearchExhausted("budget spent")
        idx = int.from_bytes(rng.bytes(16), "little") % cap
        cand = codec.unrank_from_start(idx, Ls)
        t = len(pieces)
        if t == 0:
            store[0, 0] = _bitops.packed_windows(cand.to_numpy(), Ls)[0]
        else:
            if not _splices_wwl_by_cuts(cand, pieces[-1], p.K2, p.d):
                rejected.append("splice")
                continue
            joint = (pieces[-1] + cand).to_numpy()
            new = np.roll(_bitops.packed_windows(joint, Ls)[1:], 1, axis=0)
            dist = _bitops.row_distances(new[:, None], store[:, :t])
            dist[1:, 0] = p.d  # piece 0 has only its phase-0 window
            if dist.min() < p.d:
                rejected.append("distance")
                continue
            store[:, t] = new
        pieces.append(cand)
    return tuple(pieces), rejected


def _unroll_overlap_by_bits(seed, mask, shift, L1):
    """The overlapping-pair recurrence of the SD decoder bit by bit: the
    first ``shift`` bits are seeded, each later one repeats the bit
    ``shift`` before it, and every bit is flipped by ``mask``."""
    val = 0
    for s in range(L1):
        if s < shift:
            b = (seed >> s) & 1
        else:
            b = (val >> (s - shift)) & 1
        val |= (b ^ ((mask >> s) & 1)) << s
    return val


class TestScaffold:
    def test_family_conditions(self):
        sc = scaffold_for(256, 1)
        p = derive_sd_params(256, 1)
        assert len(sc.pieces) == p.n_pieces
        assert all(len(piece) == p.piece_len for piece in sc.pieces)
        assert check_p123(sc.pieces, p.K2, p.d)
        assert len(sc.sbar) >= 256

    def test_deterministic_and_cached(self):
        p = derive_sd_params(128, 1)
        a = build_scaffold(p, seed=5)
        b = build_scaffold(p, seed=5)
        assert a.pieces == b.pieces and a.sbar == b.sbar
        assert build_scaffold(p, seed=6).pieces != a.pieces
        assert scaffold_for(128, 1) is scaffold_for(128, 1)

    @pytest.mark.parametrize(
        "n, d, seed, rejects",
        [
            (65537, 3, 0, False),
            (65537, 2, 0, False),
            (2048, 1, 0, False),
            (128, 1, 8, True),
            (128, 1, 11, True),
            (128, 1, 17, True),
            (256, 1, 2, True),
        ],
    )
    def test_batches_draw_the_reference_pieces(self, n, d, seed, rejects):
        p = derive_sd_params(n, d)
        want, rejected = _scaffold_by_single_draws(p, seed)
        assert bool(rejected) == rejects
        got = build_scaffold(p, seed)
        assert got.pieces == want
        sbar = BitSeq.zeros(0)
        for piece in want:
            sbar = sbar + BitSeq.zeros(p.K_max) + auto_cyclic(d) + piece
        assert got.sbar == sbar

    def test_batches_keep_the_draw_budget(self):
        p = derive_sd_params(128, 1)
        with pytest.raises(SearchExhausted):
            _scaffold_by_single_draws(p, 8, max_tries=1)
        with pytest.raises(SearchExhausted):
            build_scaffold(p, 8, max_tries=1)
        _, rejected = _scaffold_by_single_draws(p, 8)
        tries = -(-(p.n_pieces + len(rejected)) // p.n_pieces)
        assert build_scaffold(p, 8, max_tries=tries).pieces == build_scaffold(p, 8).pieces

    @pytest.mark.parametrize("d, K2, L2, ell", [(2, 5, 20, 6), (2, 4, 18, 6), (3, 9, 30, 12)])
    def test_batches_draw_the_reference_pieces_where_splices_fail(self, d, K2, L2, ell):
        # no feasible (n, d) has been seen to reject a splice, so the
        # scaffold window is narrowed by hand until splices fail
        p = dataclasses.replace(derive_sd_params(128, 1), d=d, K2=K2, L2=L2, ell=ell, K_max=K2)
        reasons = set()
        for seed in range(6):
            try:
                want, rejected = _scaffold_by_single_draws(p, seed)
            except SearchExhausted:
                with pytest.raises(SearchExhausted):
                    build_scaffold(p, seed)
                continue
            assert build_scaffold(p, seed).pieces == want
            reasons.update(rejected)
        assert reasons == {"splice", "distance"}

    def test_expand_length_and_certify(self):
        n, d = 256, 1
        p = derive_sd_params(n, d)
        rng = np.random.default_rng(2)
        w = _random_inner(n, d, rng)
        wbar = eliminate_close_pairs(w, p)
        out = expand_to_length(wbar, p, scaffold_for(n, d), certify=True)
        assert len(out) == n
        assert check_sd_exhaustive(out, p.L, d)
        assert contract_from_length(out, p) == wbar

    def test_expand_refuses_a_short_hand_built_scaffold(self):
        # a scaffold of the right (n, d) whose sbar cannot fill the word is
        # a malformed argument, as one built for other parameters is
        n, d = 256, 1
        p = derive_sd_params(n, d)
        short = Scaffold(n, d, 0, (), BitSeq.zeros(n - p.inner_len - p.K2 - 1))
        with pytest.raises(ValueError, match="scaffold too short"):
            expand_to_length(BitSeq.zeros(p.inner_len), p, short)

    def test_contract_requires_delimiter(self):
        p = derive_sd_params(128, 1)
        with pytest.raises(DecodeFailure):
            contract_from_length(BitSeq.ones(128), p)

    @pytest.mark.parametrize("n, d", [(128, 1), (2048, 1), (65537, 3)])
    def test_contract_matches_the_whole_word_search(self, n, d):
        p = derive_sd_params(n, d)
        run = p.K2 + p.K_max
        first = n - 4 * run  # where the first suffix searched starts
        rng = np.random.default_rng(n)
        plants = [(), (n - run,), (first,), (first - 1,), (first - run + 1,), (n // 2,),
                  (0,), (0, n // 3), (n // 3, n - 2 * run)]
        for runs in plants:
            for long in (0, run):
                # ones at 70 %: no zero run of this length arises by chance
                arr = (rng.random(n) < 0.7).astype(np.uint8)
                for at in runs:
                    arr[max(0, at - long) : at + run] = 0
                word = BitSeq.from_numpy(arr)
                want = _outcome(_contract_by_whole_word, word, p)
                assert _outcome(contract_from_length, word, p) == want, (runs, long)
                assert (want == "delimiter run not found") == (not runs)


class TestFullPipeline:
    @pytest.mark.parametrize("n,d", [(128, 1), (256, 1)])
    def test_round_trip_random(self, n, d):
        k = sd_message_len(n, d)
        p = derive_sd_params(n, d)
        rng = np.random.default_rng(n)
        for _ in range(50):
            m = BitSeq.random(k, rng)
            y = encode_sd(m, n, d)
            assert len(y) == n
            assert check_sd_exhaustive(y, p.L, d)
            assert is_wwl(y, 2 * (p.K1 + p.K2), d)
            assert decode_sd(y, n, d) == m

    @pytest.mark.parametrize("fill", ["zeros", "ones"])
    def test_extreme_messages(self, fill):
        n, d = 256, 1
        k = sd_message_len(n, d)
        p = derive_sd_params(n, d)
        m = BitSeq.zeros(k) if fill == "zeros" else BitSeq.ones(k)
        y = encode_sd(m, n, d, certify=True)
        assert check_sd_exhaustive(y, p.L, d)
        assert decode_sd(y, n, d) == m

    def test_message_length_enforced(self):
        with pytest.raises(ValueError, match="message"):
            encode_sd(BitSeq.zeros(3), 128, 1)
        with pytest.raises(ValueError, match="length"):
            decode_sd(BitSeq.zeros(64), 128, 1)

    def test_infeasible_params_propagate(self):
        with pytest.raises(InfeasibleParameters):
            encode_sd(BitSeq.zeros(10), 4096, 3)
        with pytest.raises(InfeasibleParameters, match="replacement-shrink"):
            decode_sd(BitSeq.zeros(4096), 4096, 3)
        with pytest.raises(InfeasibleParameters, match="replacement-shrink"):
            sd_message_len(4096, 3)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=(1 << 70) - 1))
    def test_round_trip_property(self, value):
        n, d = 128, 1
        k = sd_message_len(n, d)
        m = BitSeq(value % (1 << k), k)
        assert decode_sd(encode_sd(m, n, d), n, d) == m

    def test_damaged_words_raise_only_package_errors(self):
        # 1-39 flips in each of 300 copies of one codeword; a flip that
        # leaves the inner code used to escape as a bare ValueError
        n, d = 2048, 1
        m = BitSeq.random(sd_message_len(n, d), np.random.default_rng(0))
        y = encode_sd(m, n, d).to_numpy()
        rng = np.random.default_rng(1)
        outcomes = {"decoded": 0, "rejected": 0}
        for _ in range(300):
            arr = y.copy()
            arr[rng.choice(n, int(rng.integers(1, 40)), replace=False)] ^= 1
            try:
                decode_sd(BitSeq.from_numpy(arr), n, d)
            except StrandcodeError:
                outcomes["rejected"] += 1
            else:
                outcomes["decoded"] += 1
        assert min(outcomes.values()) > 10

    def test_a_restored_word_of_the_wrong_length_is_a_decode_failure(self):
        # flipping bit 124 of the all-zero message's codeword leaves the
        # close-pair restore two bits short of the inner length, which the
        # inner codec refused with a bare ValueError
        n, d = 2048, 1
        y = encode_sd(BitSeq.zeros(sd_message_len(n, d)), n, d)
        with pytest.raises(DecodeFailure, match="length"):
            decode_sd(y.with_bit(124, 1 - y[124]), n, d)

    @pytest.mark.parametrize("n,d", [(65537, 3), (4096, 1)])
    def test_all_zero_message_round_trips_quickly(self, n, d):
        # every window of the all-zero message's inner word has many close
        # partners, so a search that lists all close pairs on each rewrite
        # grows as m^2 per rewrite: about 50 s at n=4096, d=1, while
        # n=65537, d=3 did not finish
        m = BitSeq.zeros(sd_message_len(n, d))
        start = time.perf_counter()
        y = encode_sd(m, n, d)
        assert decode_sd(y, n, d) == m
        assert time.perf_counter() - start < 30

    def test_decode_is_seed_free(self):
        """Only the rewrite shrinkage exposes scaffold content, so outputs
        under different seeds may coincide; decoding must work either way
        without knowing the seed."""
        n, d = 128, 1
        m = BitSeq.random(sd_message_len(n, d), np.random.default_rng(0))
        for seed in (0, 1, 7):
            assert decode_sd(encode_sd(m, n, d, seed=seed), n, d) == m


def _contract_by_whole_word(what, p):
    """``contract_from_length`` over every window of the word, as a reference."""
    run = p.K2 + p.K_max
    weights = np.convolve(what.to_numpy().astype(np.int64), np.ones(run, dtype=np.int64), "valid")
    hits = np.flatnonzero(weights == 0)
    if not hits.size:
        raise DecodeFailure("delimiter run not found")
    return what.window(0, int(hits[-1]))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DecodeFailure as exc:
        return str(exc)


def _planted_close_pair(n=4000, L=64, seed=3):
    """A random string and a copy with window 100 repeated at 3000 up to one
    flipped bit; random windows of length 64 are otherwise far apart."""
    bits = np.random.default_rng(seed).integers(0, 2, n).astype(np.uint8)
    planted = bits.copy()
    planted[3000 : 3000 + L] = bits[100 : 100 + L]
    planted[3000 + L // 2] ^= 1
    return BitSeq.from_numpy(bits), BitSeq.from_numpy(planted), L


class TestSDOracle:
    def test_long_input_check_does_not_use_close_pairs(self, monkeypatch):
        clean, planted, L = _planted_close_pair()

        def fast_path(*args, **kwargs):
            raise AssertionError("the oracle called the search it checks")

        monkeypatch.setattr(_bitops, "close_pairs", fast_path)
        assert check_sd_exhaustive(clean, L, 3)
        assert not check_sd_exhaustive(planted, L, 3)

    def test_min_pair_distance_finds_the_planted_pair(self):
        clean, planted, L = _planted_close_pair()
        dist, (i, j) = sd_min_pair_distance(planted, L)
        assert dist == 1 and j - i == 2900
        assert sd_min_pair_distance(clean, L)[0] >= 3


class TestClosePairs:
    """The pigeonhole search against the textbook all-pairs scan."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_inputs(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            n = int(rng.integers(2, 300))
            L = int(rng.integers(3, 40))
            rho = int(rng.integers(0, 3))
            bits = rng.integers(0, 2, n).astype(np.uint8)
            assert _bitops.close_pairs(bits, L, rho) == _close_pairs_naive(bits, L, rho)

    def test_planted_pairs(self):
        rng = np.random.default_rng(9)
        for L, rho in [(24, 2), (40, 1), (30, 0)]:
            bits = rng.integers(0, 2, 500).astype(np.uint8)
            for src, dst, flips in [(10, 200, rho), (50, 420, 0), (300, 330, rho)]:
                bits[dst : dst + L] = bits[src : src + L]
                bits[dst + rng.choice(L, size=flips, replace=False)] ^= 1
            got = _bitops.close_pairs(bits, L, rho)
            assert got == _close_pairs_naive(bits, L, rho)
            assert len(got) >= 3

    def test_duplicate_windows_at_rho_zero(self):
        # periodic and sparse strings repeat windows many times over, so the
        # equal-key runs are long
        periodic = np.tile(np.array([1, 0, 0, 1, 1], dtype=np.uint8), 40)
        sparse = (np.random.default_rng(2).random(300) < 0.03).astype(np.uint8)
        for bits in (periodic, sparse):
            got = _bitops.close_pairs(bits, 12, 0)
            assert got == _close_pairs_naive(bits, 12, 0)
            assert len(got) > 100

    def test_windows_spanning_several_words(self):
        rng = np.random.default_rng(4)
        bits = rng.integers(0, 2, 700).astype(np.uint8)
        bits[500:630] = bits[20:150]
        bits[[510, 600]] ^= 1
        for L, rho in [(65, 2), (130, 2), (150, 3)]:
            got = _bitops.close_pairs(bits, L, rho)
            assert got == _close_pairs_naive(bits, L, rho)
        assert (20, 500, 2) in _bitops.close_pairs(bits, 130, 2)


def _primal_inputs(rng):
    """(bits, L, rho) of each kind: random, low-weight, periodic with a
    few flips, planted near-copies, windows over 64 bits, and rho >= L."""
    for _ in range(12):
        n, L = int(rng.integers(2, 300)), int(rng.integers(3, 40))
        rho = int(rng.integers(0, 4))
        yield rng.integers(0, 2, n).astype(np.uint8), L, rho
        yield (rng.random(n) < 0.05).astype(np.uint8), L, rho
        period = rng.integers(0, 2, int(rng.integers(1, 25))).astype(np.uint8)
        bits = np.resize(period, n)
        bits[rng.choice(n, min(n, 3), replace=False)] ^= 1
        yield bits, L, rho
        bits = rng.integers(0, 2, n + 2 * L).astype(np.uint8)
        src, dst = sorted(rng.choice(len(bits) - L + 1, 2, replace=False))
        bits[dst : dst + L] = bits[src : src + L]
        bits[dst + rng.choice(L, min(L, rho + 1), replace=False)] ^= 1
        yield bits, L, rho
        L = int(rng.integers(65, 140))
        yield rng.integers(0, 2, L + int(rng.integers(1, 200))).astype(np.uint8), L, rho
        L = int(rng.integers(1, 6))
        yield rng.integers(0, 2, int(rng.integers(2, 40))).astype(np.uint8), L, L + int(rng.integers(0, 3))


# the scan's default chunk sizes, and ones small enough that short inputs
# are cut into many chunks and grow the index
_SCAN_SETTINGS = [(1 << 16, 1024), (4, 3)]


class TestPrimalScan:
    """The primal-pair query against the all-pairs scan's first pair."""

    @pytest.mark.parametrize("budget, tail", _SCAN_SETTINGS)
    @pytest.mark.parametrize("seed", range(3))
    def test_first_pair_matches_the_reference(self, monkeypatch, seed, budget, tail):
        monkeypatch.setattr(_bitops, "_SCAN_BUDGET", budget)
        monkeypatch.setattr(_bitops, "_SCAN_TAIL", tail)
        found = 0
        for bits, L, rho in _primal_inputs(np.random.default_rng(seed)):
            want = _primal_naive(bits, L, rho)
            assert _bitops.PrimalScan(bits, L, rho).first() == want
            found += want is not None
        assert 20 < found < 72

    @pytest.mark.parametrize("budget, tail", _SCAN_SETTINGS)
    def test_a_query_resumed_after_an_edit_is_a_fresh_query(self, monkeypatch, budget, tail):
        monkeypatch.setattr(_bitops, "_SCAN_BUDGET", budget)
        monkeypatch.setattr(_bitops, "_SCAN_TAIL", tail)
        rng = np.random.default_rng(7)
        for bits, L, rho in _primal_inputs(rng):
            if bits.size < L + 2:
                continue
            scan = _bitops.PrimalScan(bits, L, rho)
            scan.first()
            # replace k0 bits by k1 random ones from lo + L - 1 on, so the
            # windows before lo keep their bits; half of the edits start
            # among the indexed windows
            lo = int(rng.integers(0, bits.size - L))
            if rng.random() < 0.5:
                lo = min(lo, int(rng.integers(0, scan.index.size + 1)))
            k0 = int(rng.integers(0, bits.size - lo - L + 2))
            k1 = int(rng.integers(1, 2 * L))
            cut = lo + L - 1
            new = np.concatenate([bits[:cut], rng.integers(0, 2, k1).astype(np.uint8), bits[cut + k0 :]])
            if rng.random() < 0.5:  # a periodic word, so the new windows repeat
                new[cut : cut + k1] = np.resize(new[:cut + 1][-3:], k1)
            scan.edit(lo, new[lo : cut + k1 + L - 1], k0 - k1)
            assert scan.first() == _primal_naive(new, L, rho)

    def test_successive_edits_follow_the_word(self):
        # each edit overwrites the later window of the primal pair with a
        # shorter copy of the window before it, as the rewrite loop does
        rng = np.random.default_rng(8)
        L, rho = 12, 1
        bits = np.resize(np.array([0, 0, 1, 0, 1, 1, 1], dtype=np.uint8), 400)
        scan = _bitops.PrimalScan(bits, L, rho)
        edits = 0
        while (pair := scan.first()) is not None:
            assert pair == _primal_naive(bits, L, rho)
            i, j = pair
            record = rng.integers(0, 2, L - 1).astype(np.uint8)
            bits = np.concatenate([bits[:j], record, bits[j + L :]])
            lo = max(j - L + 1, 0)
            scan.edit(lo, bits[lo : j + 2 * L - 2], 1)
            edits += 1
        assert _primal_naive(bits, L, rho) is None and edits > 20
