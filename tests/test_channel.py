"""Tests for the fragmentation channel."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strandcode.bitseq import BitSeq, hamming, majority_merge
from strandcode.channel import (
    ChannelConfig,
    Fragment,
    Trace,
    check_trace_legal,
    corrupt,
    fragment,
    is_reliable,
    trace_from_text,
    trace_to_text,
    trace_votes,
)
from strandcode.errors import LayoutError


def _strand(n, seed=0):
    return BitSeq.random(n, np.random.default_rng(seed))


def _truth_cuts(tr):
    return sorted((f.start, len(f)) for f in tr.fragments)


class TestConfig:
    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            ChannelConfig(L_min=5, L_over=5)
        with pytest.raises(ValueError):
            ChannelConfig(L_min=5, L_over=-1)
        with pytest.raises(ValueError):
            ChannelConfig(L_min=5, L_over=2, e=-1)
        with pytest.raises(ValueError):
            ChannelConfig(L_min=5, L_over=2, strategy="greedy")
        with pytest.raises(ValueError):
            ChannelConfig(L_min=5, L_over=2, error_mode="burst")
        with pytest.raises(ValueError):
            ChannelConfig(L_min=5, L_over=2, max_len=4)

    def test_default_length_cap(self):
        assert ChannelConfig(L_min=9, L_over=4).length_cap == 18
        assert ChannelConfig(L_min=9, L_over=4, max_len=11).length_cap == 11


class TestFragment:
    def test_adversarial_forced_two_reads(self):
        # n = L_min + (L_min - L_over) forces exactly two minimum-length
        # reads overlapping in exactly L_over positions.
        cfg = ChannelConfig(L_min=10, L_over=6, strategy="adversarial-min")
        x = _strand(14)
        tr = fragment(x, cfg)
        assert _truth_cuts(tr) == [(0, 10), (4, 10)]
        a, b = sorted(tr.fragments, key=lambda f: f.start)
        assert a.end - b.start == 6

    def test_adversarial_tail_pullback(self):
        cfg = ChannelConfig(L_min=6, L_over=2, strategy="adversarial-min")
        tr = fragment(_strand(15), cfg)
        check_trace_legal(tr)
        assert all(len(f) == 6 for f in tr.fragments)
        assert max(f.end for f in tr.fragments) == 15

    def test_random_draws_stay_legal(self):
        # fragment() audits its own output; survival of 10^4 seeds means
        # every draw satisfied the read-set rules.
        x = _strand(48)
        sizes = set()
        for seed in range(10_000):
            tr = fragment(x, ChannelConfig(L_min=8, L_over=5, seed=seed))
            sizes.add(len(tr.fragments))
        assert min(sizes) >= 2

    def test_random_respects_length_cap(self):
        x = _strand(200)
        for seed in range(50):
            tr = fragment(x, ChannelConfig(L_min=8, L_over=5, seed=seed))
            assert all(len(f) <= 16 for f in tr.fragments)
        tr = fragment(x, ChannelConfig(L_min=8, L_over=5, max_len=30, seed=1))
        assert max(len(f) for f in tr.fragments) > 16

    def test_random_is_deterministic_per_seed(self):
        cfg = ChannelConfig(L_min=8, L_over=5, seed=7)
        x = _strand(64)
        t1, t2 = fragment(x, cfg), fragment(x, cfg)
        assert t1 == t2
        others = {_truth_cuts(fragment(x, dataclasses.replace(cfg, seed=s))) != _truth_cuts(t1)
                  for s in range(8, 13)}
        assert True in others

    def test_shuffled_emission(self):
        # Across seeds the emission order must not always be sorted.
        x = _strand(120)
        unsorted_seen = False
        for seed in range(20):
            tr = fragment(x, ChannelConfig(L_min=8, L_over=5, seed=seed))
            starts = [f.start for f in tr.fragments]
            if starts != sorted(starts):
                unsorted_seen = True
        assert unsorted_seen

    def test_fixed_cuts(self):
        cfg = ChannelConfig(L_min=6, L_over=3, strategy="fixed-cuts",
                            cuts=((0, 8), (5, 7)))
        x = _strand(12)
        tr = fragment(x, cfg)
        assert _truth_cuts(tr) == [(0, 8), (5, 7)]
        for f in tr.fragments:
            assert f.bits == x.window(f.start, len(f))
            assert f.errors == 0

    def test_fixed_cuts_rejects_gap(self):
        cfg = ChannelConfig(L_min=4, L_over=2, strategy="fixed-cuts",
                            cuts=((0, 4), (4, 8)))
        with pytest.raises(LayoutError):
            fragment(_strand(12), cfg)

    def test_fixed_cuts_rejects_out_of_range(self):
        cfg = ChannelConfig(L_min=4, L_over=2, strategy="fixed-cuts",
                            cuts=((0, 4), (2, 11)))
        with pytest.raises(LayoutError):
            fragment(_strand(12), cfg)

    def test_short_strand_rejected(self):
        with pytest.raises(ValueError):
            fragment(_strand(7), ChannelConfig(L_min=8, L_over=5))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(12, 80), st.integers(5, 10), st.data())
    def test_random_invariants_property(self, n, L_min, data):
        L_over = data.draw(st.integers(0, L_min - 1))
        seed = data.draw(st.integers(0, 2**32 - 1))
        x = _strand(n, seed=1)
        tr = fragment(x, ChannelConfig(L_min=L_min, L_over=L_over, seed=seed))
        check_trace_legal(tr)
        # Legality implies gap-free coverage of every position.
        assert trace_votes(tr, n).sum(axis=1).min() >= 1


class TestLegalityChecker:
    def _mk(self, n, L_min, L_over, cuts, x=None):
        x = x or _strand(n, seed=3)
        frags = tuple(Fragment(x.window(i, L), 0, i, 0) for i, L in cuts)
        return Trace(n, L_min, L_over, 0, frags)

    def test_accepts_containment(self):
        # A read may end at n before the final read does.
        check_trace_legal(self._mk(12, 6, 3, [(0, 12), (1, 11)]))

    def test_rejects_late_first_read(self):
        with pytest.raises(LayoutError, match="first read"):
            check_trace_legal(self._mk(12, 6, 3, [(1, 11)]))

    def test_rejects_short_read(self):
        with pytest.raises(LayoutError, match="below L_min"):
            check_trace_legal(self._mk(12, 6, 3, [(0, 5), (4, 8)]))

    def test_rejects_thin_overlap(self):
        with pytest.raises(LayoutError, match="overlap"):
            check_trace_legal(self._mk(14, 6, 3, [(0, 6), (4, 10)]))

    def test_rejects_unfinished_trace(self):
        with pytest.raises(LayoutError, match="last read"):
            check_trace_legal(self._mk(14, 6, 3, [(0, 6), (2, 10)], x=_strand(14)))

    def test_rejects_duplicate_start(self):
        x = _strand(12, seed=3)
        frags = (Fragment(x.window(0, 12), 0, 0, 0), Fragment(x.window(0, 12), 0, 0, 0))
        with pytest.raises(LayoutError, match="duplicate"):
            check_trace_legal(Trace(12, 6, 3, 0, frags))

    def test_rejects_missing_truth(self):
        tr = self._mk(12, 6, 3, [(0, 12)]).strip_truth()
        with pytest.raises(LayoutError, match="truth"):
            check_trace_legal(tr)


class TestCorrupt:
    def _clean(self, n=60, seed=5, L_min=8, L_over=5):
        x = _strand(n, seed=seed)
        cfg = ChannelConfig(L_min=L_min, L_over=L_over, e=2, seed=seed)
        return x, cfg, fragment(x, cfg)

    def test_zero_budget_is_identity(self):
        x, cfg, tr = self._clean()
        assert corrupt(tr, dataclasses.replace(cfg, e=0)) == tr

    def test_random_mode_budget_and_bookkeeping(self):
        for seed in range(25):
            x, cfg, tr = self._clean(seed=seed)
            out = corrupt(tr, cfg)
            assert [len(f) for f in out.fragments] == [len(f) for f in tr.fragments]
            assert [f.start for f in out.fragments] == [f.start for f in tr.fragments]
            for f in out.fragments:
                actual = hamming(f.bits, x.window(f.start, len(f)))
                assert actual == f.errors <= cfg.e

    def test_random_mode_deterministic(self):
        x, cfg, tr = self._clean()
        assert corrupt(tr, cfg) == corrupt(tr, cfg)

    def test_random_mode_works_without_truth(self):
        x, cfg, tr = self._clean()
        bare = tr.strip_truth()
        out = corrupt(bare, cfg)
        assert [len(f) for f in out.fragments] == [len(f) for f in bare.fragments]

    def test_overlap_concentrated_hits_shared_positions_only(self):
        x = _strand(12, seed=2)
        cfg = ChannelConfig(L_min=8, L_over=4, e=2, strategy="fixed-cuts",
                            error_mode="overlap-concentrated", cuts=((0, 8), (4, 8)))
        out = corrupt(fragment(x, cfg), cfg)
        for f in out.fragments:
            diff = f.bits.xor(x.window(f.start, len(f))).to_numpy()
            flipped = {f.start + int(p) for p in np.flatnonzero(diff)}
            assert len(flipped) == 2
            assert flipped <= set(range(4, 8))

    def test_modes_needing_truth_reject_bare_traces(self):
        x, cfg, tr = self._clean()
        for mode in ("overlap-concentrated", "reliable-preserving", "pre-sequencing"):
            bad = dataclasses.replace(cfg, error_mode=mode, tau=1)
            with pytest.raises(LayoutError, match="truth"):
                corrupt(tr.strip_truth(), bad)

    def test_reliable_preserving_passes_audit(self):
        x = _strand(12, seed=4)
        cfg = ChannelConfig(
            L_min=8, L_over=5, e=1, strategy="fixed-cuts",
            error_mode="reliable-preserving",
            cuts=((0, 8), (1, 8), (2, 8), (3, 9), (4, 8)))
        out = corrupt(fragment(x, cfg), cfg)
        assert is_reliable(out, x)
        total = sum(f.errors for f in out.fragments)
        assert total == len(out.fragments)

    def test_reliable_preserving_impossible_single_coverage(self):
        x = _strand(12, seed=4)
        cfg = ChannelConfig(L_min=8, L_over=5, e=1, strategy="fixed-cuts",
                            error_mode="reliable-preserving", cuts=((0, 12),))
        with pytest.raises(LayoutError, match="coverage"):
            corrupt(fragment(x, cfg), cfg)

    def test_reliable_preserving_impossible_double_coverage(self):
        # Minimum-overlap geometry never stacks three reads, so even one
        # forced flip per read cannot keep a strict majority.
        x = _strand(14, seed=4)
        cfg = ChannelConfig(L_min=6, L_over=2, e=1, strategy="adversarial-min",
                            error_mode="reliable-preserving")
        with pytest.raises(LayoutError, match="coverage"):
            corrupt(fragment(x, cfg), cfg)

    def test_reliable_preserving_rejects_corrupted_input(self):
        x = _strand(12, seed=4)
        cfg = ChannelConfig(
            L_min=8, L_over=5, e=1, strategy="fixed-cuts",
            error_mode="reliable-preserving",
            cuts=((0, 8), (1, 8), (2, 8), (3, 9), (4, 8)))
        noisy = corrupt(fragment(x, cfg), dataclasses.replace(cfg, error_mode="random", e=2, seed=11))
        if any(f.errors for f in noisy.fragments):
            with pytest.raises(LayoutError, match="corrupt"):
                corrupt(noisy, cfg)

    def test_presequencing_flips_consistently(self):
        x = _strand(60, seed=6)
        cfg = ChannelConfig(L_min=8, L_over=5, e=0, seed=6,
                            error_mode="pre-sequencing", tau=3)
        out = corrupt(fragment(x, cfg), cfg)
        flipped = set()
        for f in out.fragments:
            diff = f.bits.xor(x.window(f.start, len(f))).to_numpy()
            flipped |= {f.start + int(p) for p in np.flatnonzero(diff)}
        assert len(flipped) == 3
        # Every read covering a flipped position shows the same wrong bit,
        # so the vote there is unanimously wrong.
        for p in flipped:
            for f in out.fragments:
                if f.start <= p < f.end:
                    assert f.bits[p - f.start] == 1 - x[p]
        assert not is_reliable(out, x)
        shifted = x
        for p in flipped:
            shifted = shifted.with_bit(p, 1 - x[p])
        assert is_reliable(out, shifted)

    def test_presequencing_zero_tau_identity(self):
        x, _, tr = self._clean()
        cfg = ChannelConfig(L_min=8, L_over=5, error_mode="pre-sequencing", tau=0)
        assert corrupt(tr, cfg) == tr


class TestReliability:
    def _stacked(self, x):
        cfg = ChannelConfig(L_min=8, L_over=4, strategy="fixed-cuts",
                            cuts=((0, 8), (1, 8), (4, 8)))
        return fragment(x, cfg)

    def test_uncorrupted_is_reliable(self):
        x = _strand(12, seed=8)
        assert is_reliable(self._stacked(x), x)

    def test_triple_coverage_survives_one_flip(self):
        x = _strand(12, seed=8)
        tr = self._stacked(x)
        frags = list(tr.fragments)
        idx = next(i for i, f in enumerate(frags) if f.start == 1)
        f = frags[idx]
        local = 5 - f.start  # position 5 is covered by all three reads
        frags[idx] = dataclasses.replace(f, bits=f.bits.with_bit(local, 1 - f.bits[local]))
        assert is_reliable(dataclasses.replace(tr, fragments=tuple(frags)), x)

    def test_single_coverage_flip_breaks_reliability(self):
        x = _strand(12, seed=8)
        tr = self._stacked(x)
        frags = list(tr.fragments)
        idx = next(i for i, f in enumerate(frags) if f.start == 0)
        f = frags[idx]
        frags[idx] = dataclasses.replace(f, bits=f.bits.with_bit(0, 1 - f.bits[0]))
        assert not is_reliable(dataclasses.replace(tr, fragments=tuple(frags)), x)

    def test_double_coverage_flip_ties_and_fails(self):
        x = _strand(12, seed=8)
        tr = self._stacked(x)
        frags = list(tr.fragments)
        idx = next(i for i, f in enumerate(frags) if f.start == 4)
        f = frags[idx]
        local = 10 - f.start  # position 10 is covered by two reads
        frags[idx] = dataclasses.replace(f, bits=f.bits.with_bit(local, 1 - f.bits[local]))
        assert not is_reliable(dataclasses.replace(tr, fragments=tuple(frags)), x)

    def test_requires_truth(self):
        x = _strand(12, seed=8)
        with pytest.raises(LayoutError, match="truth"):
            is_reliable(self._stacked(x).strip_truth(), x)

    def test_majority_merge_recovers_reliable_trace(self):
        # Cross-module property: the positionwise majority of a reliable
        # trace is the strand itself, with no ties anywhere.
        for seed in range(10):
            x = _strand(70, seed=seed)
            cfg = ChannelConfig(L_min=9, L_over=6, e=0, seed=seed)
            tr = fragment(x, cfg)
            assert is_reliable(tr, x)
            merged, ties = majority_merge(trace_votes(tr, len(x)))
            assert merged == x
            assert ties.weight() == 0


class TestTraceFormat:
    def test_round_trip_with_truth(self):
        x, cfg, tr = _strand(40, seed=1), ChannelConfig(L_min=8, L_over=5, e=1, seed=1), None
        tr = fragment(x, cfg)
        back = trace_from_text(trace_to_text(tr))
        assert (back.n, back.L_min, back.L_over, back.e, back.k) == (40, 8, 5, 1, 1)
        assert [(f.bits, f.strand, f.start) for f in back.fragments] == \
            [(f.bits, f.strand, f.start) for f in tr.fragments]
        assert all(f.errors is None for f in back.fragments)

    def test_round_trip_without_truth(self):
        tr = fragment(_strand(40, seed=1), ChannelConfig(L_min=8, L_over=5, seed=1))
        text = trace_to_text(tr, include_truth=False)
        assert "@" not in text
        back = trace_from_text(text)
        assert not back.has_truth
        assert [f.bits for f in back.fragments] == [f.bits for f in tr.fragments]

    def test_header_carries_multi_fields(self):
        tr = fragment(_strand(40, seed=1), ChannelConfig(L_min=8, L_over=5, seed=1))
        multi = dataclasses.replace(tr, k=1, N=40)
        text = trace_to_text(multi)
        assert text.splitlines()[0] == "#trace n=40 Lmin=8 Lover=5 e=0 k=1 N=40"
        assert trace_from_text(text).N == 40

    def test_comment_lines_ignored(self):
        text = "#trace n=12 Lmin=6 Lover=3 e=0\n# cut log\n110100101011 @0:0\n"
        tr = trace_from_text(text)
        assert len(tr.fragments) == 1
        assert tr.fragments[0].start == 0

    def test_bad_header_rejected(self):
        with pytest.raises(LayoutError):
            trace_from_text("110100\n")
        with pytest.raises(LayoutError):
            trace_from_text("#trace n=12 Lmin=6\n110100\n")


class TestTraceHelpers:
    def test_for_strand_filters(self):
        a = fragment(_strand(20, seed=1), ChannelConfig(L_min=8, L_over=5, seed=1), strand=0)
        b = fragment(_strand(20, seed=2), ChannelConfig(L_min=8, L_over=5, seed=2), strand=1)
        both = dataclasses.replace(a, fragments=a.fragments + b.fragments, k=2)
        only = both.for_strand(1)
        assert {f.strand for f in only.fragments} == {1}
        assert len(only.fragments) == len(b.fragments)

    def test_mixed_strand_audit_rejected(self):
        a = fragment(_strand(20, seed=1), ChannelConfig(L_min=8, L_over=5, seed=1), strand=0)
        b = fragment(_strand(20, seed=2), ChannelConfig(L_min=8, L_over=5, seed=2), strand=1)
        both = dataclasses.replace(a, fragments=a.fragments + b.fragments, k=2)
        with pytest.raises(LayoutError, match="strand"):
            is_reliable(both, _strand(20, seed=1))
