"""Multi-strand codes: wrapped slicing, indexed strands, outer protection."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from strandcode import blocks, multistrand, outer, trace_codes
from strandcode.bitseq import BitSeq
from strandcode.blocks import _period_offsets, indexed_reconstruct
from strandcode.channel import (
    ChannelConfig,
    Fragment,
    Trace,
    corrupt,
    fragment,
    trace_from_text,
    trace_to_text,
)
from strandcode.errors import DecodeFailure, InfeasibleParameters, LayoutError, require_feasible
from strandcode.positioning import build_index_book
from strandcode.multistrand import (
    StrandSet,
    derive_multi_gamma0_params,
    encode_multi_gamma0_rs,
    fragment_strands,
    multi_gamma0_book,
    multi_gamma0_decode,
    multi_gamma0_encode,
    multi_gamma0_locate,
    multi_gamma0_message_len,
    multi_gamma0_rs_message_len,
    reconstruct_multi_gamma0_rs,
    strandset_from_json,
    strandset_to_json,
    wrap_attribute,
    wrap_decode,
    wrap_encode,
    wrap_length,
    wrap_reconstruct,
    wrap_remainder,
)
from strandcode.trace_codes import (
    derive_trace_params,
    encode_trace,
    trace_book,
    trace_message_len,
)

WRAP_N, WRAP_OVER = 1165, 85


@pytest.fixture(scope="module")
def wp4():
    N = wrap_length(WRAP_N, 4, WRAP_OVER)
    return derive_trace_params(N, 1, L_min=90, L_over=WRAP_OVER, I=4, r_I=16, K=8)


@pytest.fixture(scope="module")
def wbook4(wp4):
    return trace_book(wp4)


@pytest.fixture(scope="module")
def wcoded4(wp4, wbook4):
    m = BitSeq.random(trace_message_len(wp4), np.random.default_rng(41))
    return m, wrap_encode(m, WRAP_N, 4, wp4, wbook4)


@pytest.fixture(scope="module")
def wp2():
    N = wrap_length(WRAP_N, 2, WRAP_OVER)
    return derive_trace_params(N, 1, L_min=90, L_over=WRAP_OVER, I=4, r_I=16, K=8)


@pytest.fixture(scope="module")
def wbook2(wp2):
    return trace_book(wp2)


def _random_strands(n, k, L_min, L_over):
    """A strand set of k random length-n strands and its pooled trace."""
    ss = StrandSet(n, tuple(BitSeq.random(n, np.random.default_rng(i)) for i in range(k)))
    return ss, fragment_strands(ss, ChannelConfig(L_min=L_min, L_over=L_over, e=1, seed=0))


@pytest.fixture(scope="module")
def infeasible_multi():
    """The tail-window geometry: its leftover n mod L_min = 95 exceeds m'."""
    p = derive_multi_gamma0_params(1095, 2, 1, L_min=100, K=32, r_I=12)
    return (p, *_random_strands(p.n, p.k, p.L_min, 0))


@pytest.fixture(scope="module")
def infeasible_wrap():
    """Formula-sized trace params at a superstring of two 2050-bit strands."""
    p = derive_trace_params(wrap_length(2050, 2, 4), 1, a=3, gamma=0.1)
    return (p, *_random_strands(2050, 2, p.L_min, p.L_over))


@pytest.fixture(scope="module")
def wide_multi():
    """300 strands: more lane symbols than GF(256) locates.  The refusal
    comes before any read, so two strands stand in for the trace."""
    p = derive_multi_gamma0_params(1100, 300, 1, L_min=110, K=32, r_I=18)
    return (p, *_random_strands(p.n, 2, p.L_min, 0))


@pytest.fixture(scope="module")
def feasible_multi():
    p = derive_multi_gamma0_params(1030, 2, 1, L_min=100, K=32, r_I=12)
    return (p, *_random_strands(p.n, p.k, p.L_min, 0))


@pytest.fixture(scope="module")
def feasible_wrap():
    p = derive_trace_params(wrap_length(2050, 2, 85), 1, L_min=90, L_over=85, I=4, r_I=16, K=8)
    return (p, *_random_strands(2050, 2, p.L_min, p.L_over))


# every entry point of a family that takes its params, on (params, strands,
# trace) and, where it takes one, a book; an RS encoder gets a message of
# its length when given a book, so the book is what it checks first
_MULTI_ENTRIES = {
    "multi_gamma0_message_len": lambda p, ss, tr, book=None: multi_gamma0_message_len(p),
    "multi_gamma0_book": lambda p, ss, tr, book=None: multi_gamma0_book(p),
    "multi_gamma0_rs_message_len": lambda p, ss, tr, book=None: multi_gamma0_rs_message_len(p, 0),
    "multi_gamma0_encode": lambda p, ss, tr, book=None: multi_gamma0_encode(
        [BitSeq.zeros(8)] * 2, p, book
    ),
    "encode_multi_gamma0_rs": lambda p, ss, tr, book=None: encode_multi_gamma0_rs(
        BitSeq.zeros(multi_gamma0_rs_message_len(p, 0) if book else 8), p, 0, book
    ),
    "multi_gamma0_locate": lambda p, ss, tr, book=None: multi_gamma0_locate(
        ss.strands[0], p, book
    ),
    "multi_gamma0_decode": lambda p, ss, tr, book=None: multi_gamma0_decode(tr, p, book),
    "reconstruct_multi_gamma0_rs": lambda p, ss, tr, book=None: reconstruct_multi_gamma0_rs(
        tr, p, 0, book
    ),
}
_WRAP_ENTRIES = {
    "wrap_encode": lambda p, ss, tr, book=None: wrap_encode(BitSeq.zeros(8), 2050, 2, p, book),
    "wrap_reconstruct": lambda p, ss, tr, book=None: wrap_reconstruct(tr, 2050, 2, p, book),
    "wrap_decode": lambda p, ss, tr, book=None: wrap_decode(tr, 2050, 2, p, book),
}
_MULTI_BOOK_TAKERS = [
    name for name in _MULTI_ENTRIES if not name.endswith(("message_len", "_book"))
]


@pytest.mark.parametrize("entry", sorted(_MULTI_ENTRIES))
def test_infeasible_multi_gamma0_params_are_refused(infeasible_multi, entry):
    assert infeasible_multi[0].violations == ("tail-window",)
    with pytest.raises(InfeasibleParameters, match="tail-window"):
        _MULTI_ENTRIES[entry](*infeasible_multi)


@pytest.mark.parametrize("entry", sorted(_WRAP_ENTRIES))
def test_infeasible_wrap_params_are_refused(infeasible_wrap, entry):
    with pytest.raises(InfeasibleParameters, match="payload-space.*group-coverage"):
        _WRAP_ENTRIES[entry](*infeasible_wrap)


@pytest.mark.parametrize("entry", sorted(name for name in _MULTI_ENTRIES if "_rs" in name))
def test_multi_gamma0_rs_entry_points_refuse_the_outer_field_size(wide_multi, entry):
    assert wide_multi[0].violations == ()
    with pytest.raises(InfeasibleParameters, match="MultiGamma0Params: outer-field-size$"):
        _MULTI_ENTRIES[entry](*wide_multi)


@pytest.mark.parametrize("tau", [-1, 1])
def test_multi_gamma0_rs_decode_refuses_a_bad_tau_before_the_trace(feasible_multi, tau, monkeypatch):
    # two strands leave no room for 2 * tau >= 2 parity strands
    p, _, tr = feasible_multi

    def unread(*args):
        raise AssertionError("the trace was decoded")

    monkeypatch.setattr(multistrand, "indexed_reconstruct", unread)
    with pytest.raises(ValueError, match=r"need 0 <= 2 \* tau < 2,"):
        reconstruct_multi_gamma0_rs(tr, p, tau)


@pytest.mark.parametrize("entry", _MULTI_BOOK_TAKERS)
def test_multi_gamma0_entry_points_refuse_a_mismatched_book(feasible_multi, entry):
    with pytest.raises(ValueError, match="index book does not match"):
        _MULTI_ENTRIES[entry](*feasible_multi, build_index_book(1, 3, 8))


@pytest.mark.parametrize("entry", sorted(_WRAP_ENTRIES))
def test_wrap_entry_points_refuse_a_mismatched_book(feasible_wrap, entry):
    with pytest.raises(ValueError, match="index book does not match"):
        _WRAP_ENTRIES[entry](*feasible_wrap, build_index_book(1, 3, 8))


@pytest.fixture(scope="module")
def gp2():
    return derive_multi_gamma0_params(1030, 2, 1, L_min=100, K=32, r_I=12)


@pytest.fixture(scope="module")
def gbook2(gp2):
    return multi_gamma0_book(gp2)


@pytest.fixture(scope="module")
def gcoded2(gp2, gbook2):
    rng = np.random.default_rng(23)
    per = multi_gamma0_message_len(gp2) // gp2.k
    msgs = tuple(BitSeq.random(per, rng) for _ in range(gp2.k))
    return msgs, multi_gamma0_encode(msgs, gp2, gbook2)


@pytest.fixture(scope="module")
def gp4():
    return derive_multi_gamma0_params(1030, 4, 1, L_min=100, K=32, r_I=12)


@pytest.fixture(scope="module")
def gbook4(gp4):
    return multi_gamma0_book(gp4)


def gamma_cfg(p, seed, e=0, **kw):
    return ChannelConfig(L_min=p.L_min, L_over=0, e=e, seed=seed, **kw)


class TestStrandSet:
    def test_multiset_equality_ignores_order(self):
        a = BitSeq.from_text("0101")
        b = BitSeq.from_text("1100")
        assert StrandSet(4, (a, b)) == StrandSet(4, (b, a))
        assert hash(StrandSet(4, (a, b))) == hash(StrandSet(4, (b, a)))

    def test_multiset_equality_counts_duplicates(self):
        a = BitSeq.from_text("0101")
        b = BitSeq.from_text("1100")
        assert StrandSet(4, (a, a, b)) != StrandSet(4, (a, b, b))
        assert StrandSet(4, (a, a)) != StrandSet(4, (a,))

    def test_canonical_is_lexicographic(self):
        strands = [BitSeq.from_text(t) for t in ("110", "001", "010")]
        ss = StrandSet(3, tuple(strands)).canonical()
        assert [s.to_text() for s in ss.strands] == ["001", "010", "110"]

    def test_length_mismatch_rejected(self):
        with pytest.raises(LayoutError):
            StrandSet(4, (BitSeq.from_text("010"),))
        with pytest.raises(ValueError):
            StrandSet(4, ())

    def test_json_round_trip_is_canonical(self):
        ss = StrandSet(3, tuple(BitSeq.from_text(t) for t in ("110", "001")))
        blob = strandset_to_json(ss)
        obj = json.loads(blob)
        assert obj["n"] == 3 and obj["k"] == 2
        assert obj["strands"] == ["001", "110"]
        assert strandset_from_json(blob) == ss

    def test_json_header_must_match(self):
        blob = json.dumps({"n": 3, "k": 5, "strands": ["001", "110"]})
        with pytest.raises(LayoutError):
            strandset_from_json(blob)

    def test_union_trace_file_format_keeps_k_and_n(self, gcoded2, gp2):
        _, ss = gcoded2
        mt = fragment_strands(ss, gamma_cfg(gp2, 0), N=777)
        back = trace_from_text(trace_to_text(mt))
        assert (back.k, back.N, back.n) == (ss.k, 777, ss.n)
        assert len(back.fragments) == len(mt.fragments)


class TestWrapGeometry:
    def test_wrap_length_examples(self):
        assert wrap_length(100, 1, 20) == 100
        assert wrap_length(100, 3, 20) == 260
        with pytest.raises(ValueError):
            wrap_length(100, 0, 20)
        with pytest.raises(ValueError):
            wrap_length(100, 2, 100)

    @given(
        L_min=st.integers(2, 200),
        over=st.integers(0, 199),
        blocks=st.integers(1, 50),
        extra=st.integers(0, 198),
    )
    def test_remainder_is_what_block_packing_leaves(self, L_min, over, blocks, extra):
        if over >= L_min:
            over %= L_min
        step = L_min - over
        extra %= step
        n = L_min + (blocks - 1) * step + extra
        assert wrap_remainder(n, L_min, over) == extra

    def test_remainder_specializes_without_overlap(self):
        assert wrap_remainder(994, 70, 0) == 994 % 70
        assert wrap_remainder(1000, 100, 0) == 0

    def test_attribute_charges_seam_reads_to_the_earlier_strand(self):
        n, k, over = 100, 3, 20
        stride = n - over
        # a short read wholly inside the first seam fits windows 0 and 1
        assert wrap_attribute(stride + 5, 10, n, k, over) == (0, stride + 5)
        # one symbol past the seam forces the later window
        assert wrap_attribute(stride + 5, over - 4, n, k, over) == (1, 5)
        with pytest.raises(DecodeFailure):
            wrap_attribute(2 * stride + 50, 60, n, k, over)

    @given(
        strand=st.integers(0, 3),
        start=st.integers(0, 1000),
        length=st.integers(1, 1200),
    )
    def test_attribute_inverts_placement_of_long_reads(self, strand, start, length):
        n, k, over = 1165, 4, 85
        start %= n - length if length < n else 1
        if start + length > n:
            length = n - start
        if length <= over:
            length = over + 1
            if start + length > n:
                start = n - length
        off = strand * (n - over) + start
        assert wrap_attribute(off, length, n, k, over) == (strand, start)


class TestWrap:
    def test_single_strand_set_is_the_codeword(self):
        p = derive_trace_params(4320, 1, L_min=90, L_over=85, I=4, r_I=16, K=8)
        b = trace_book(p)
        m = BitSeq.random(trace_message_len(p), np.random.default_rng(3))
        assert wrap_encode(m, 4320, 1, p, b) == StrandSet(4320, (encode_trace(m, p, b),))

    def test_adjacent_strands_agree_on_their_seam(self, wcoded4):
        _, ss = wcoded4
        for i in range(ss.k - 1):
            tail = ss.strands[i].window(WRAP_N - WRAP_OVER, WRAP_OVER)
            assert tail == ss.strands[i + 1].window(0, WRAP_OVER)

    def test_strands_are_slices_of_the_superstring(self, wp4, wbook4, wcoded4):
        m, ss = wcoded4
        w = encode_trace(m, wp4, wbook4)
        stride = WRAP_N - WRAP_OVER
        for i, s in enumerate(ss.strands):
            assert s == w.window(i * stride, WRAP_N)

    def test_reliable_union_recovers_message_and_multiset(self, wp4, wbook4, wcoded4):
        m, ss = wcoded4
        cfg = ChannelConfig(
            L_min=90, L_over=WRAP_OVER, e=1, seed=2,
            error_mode="reliable-preserving", max_len=120,
        )
        mt = corrupt(fragment_strands(ss, cfg, N=wp4.n), cfg)
        got_ss, rep = wrap_decode(mt.strip_truth(), WRAP_N, 4, wp4, wbook4)
        assert rep.message == m and rep.reliable
        assert rep == wrap_reconstruct(mt.strip_truth(), WRAP_N, 4, wp4, wbook4)
        assert got_ss == ss

    def test_decode_ignores_read_order(self, wp4, wbook4, wcoded4):
        m, ss = wcoded4
        cfg = ChannelConfig(L_min=90, L_over=WRAP_OVER, e=0, seed=6)
        mt = fragment_strands(ss, cfg, N=wp4.n)
        perm = np.random.default_rng(0).permutation(len(mt.fragments))
        shuffled = Trace(
            mt.n, mt.L_min, mt.L_over, mt.e,
            tuple(mt.fragments[int(i)] for i in perm), k=mt.k, N=mt.N,
        )
        _, rep = wrap_decode(shuffled, WRAP_N, 4, wp4, wbook4)
        assert rep.message == m

    def test_decode_without_a_book_builds_it_once(self, wp4, wcoded4, monkeypatch):
        m, ss = wcoded4
        mt = fragment_strands(ss, ChannelConfig(L_min=90, L_over=WRAP_OVER, seed=6), N=wp4.n)
        builds = []
        build = blocks.build_index_book

        def counting(*args, **kwargs):
            builds.append(args)
            return build(*args, **kwargs)

        # the book guard builds the seed-0 book a call without one runs on
        monkeypatch.setattr(blocks, "build_index_book", counting)
        got_ss, rep = wrap_decode(mt.strip_truth(), WRAP_N, 4, wp4)
        assert (got_ss, rep.message) == (ss, m)
        assert len(builds) == 1

    def test_duplicate_strand_reads_do_not_disturb_decoding(self, wp4, wbook4, wcoded4):
        m, ss = wcoded4
        cfg = ChannelConfig(L_min=90, L_over=WRAP_OVER, e=0, seed=8)
        mt = fragment_strands(ss, cfg, N=wp4.n)
        extra = tuple(f for f in mt.fragments if f.strand == 1)
        doubled = Trace(
            mt.n, mt.L_min, mt.L_over, mt.e, mt.fragments + extra, k=mt.k, N=mt.N
        )
        _, rep = wrap_decode(doubled, WRAP_N, 4, wp4, wbook4)
        assert rep.message == m

    def test_attribution_matches_hidden_truth(self, wp2, wbook2):
        m = BitSeq.random(trace_message_len(wp2), np.random.default_rng(17))
        ss = wrap_encode(m, WRAP_N, 2, wp2, wbook2)
        reads = bad = 0
        for seed in range(200):
            cfg = ChannelConfig(L_min=90, L_over=WRAP_OVER, e=0, seed=seed)
            mt = fragment_strands(ss, cfg, N=wp2.n)
            rep = wrap_reconstruct(mt, WRAP_N, 2, wp2, wbook2)
            for f, (off, _err) in zip(mt.fragments, rep.located):
                reads += 1
                if wrap_attribute(off, len(f.bits), WRAP_N, 2, WRAP_OVER) != (
                    f.strand,
                    f.start,
                ):
                    bad += 1
        assert bad == 0
        print(f"\nwrap attribution: {reads} reads over 200 trials, all correct")

    def test_parameters_must_fit_the_superstring(self, wp4, wbook4, wcoded4):
        m, ss = wcoded4
        cfg = ChannelConfig(L_min=90, L_over=WRAP_OVER, e=0, seed=1)
        mt = fragment_strands(ss, cfg, N=wp4.n)
        with pytest.raises(LayoutError):
            wrap_decode(mt, WRAP_N, 3, wp4, wbook4)
        with pytest.raises(LayoutError):
            wrap_reconstruct(mt, WRAP_N, 5, wp4, wbook4)

    def test_trace_header_mismatches_are_rejected(self, wp4, wbook4, wcoded4):
        _, ss = wcoded4
        cfg = ChannelConfig(L_min=90, L_over=WRAP_OVER, e=0, seed=1)
        mt = fragment_strands(ss, cfg, N=wp4.n)
        wrong_k = Trace(mt.n, mt.L_min, mt.L_over, mt.e, mt.fragments, k=3, N=mt.N)
        with pytest.raises(LayoutError):
            wrap_reconstruct(wrong_k, WRAP_N, 4, wp4, wbook4)
        wrong_N = Trace(mt.n, mt.L_min, mt.L_over, mt.e, mt.fragments, k=4, N=999)
        with pytest.raises(LayoutError):
            wrap_reconstruct(wrong_N, WRAP_N, 4, wp4, wbook4)


class TestMultiGamma0:
    def test_derived_geometry(self, gp2, gp4):
        assert (gp2.I, gp2.m_prime, gp2.L_star, gp2.n_bar) == (5, 39, 30, 10)
        assert (gp2.w_window, gp2.w_floor) == (8, 3)
        assert gp2.violations == ()
        assert multi_gamma0_message_len(gp2) == 720
        assert (gp4.I, gp4.m_prime) == (6, 38)
        assert multi_gamma0_message_len(gp4) == 1400
        print(f"\nmulti gamma0 rate at n=1030, k=2: {gp2.rate:.3f}")

    def test_index_space_covers_exactly_the_blocks(self, gp2):
        assert gp2.index_count == gp2.k * gp2.n_bar == 20
        assert gp2.index_count <= 2**gp2.I

    def test_oversized_tail_is_a_violation(self):
        p = derive_multi_gamma0_params(1095, 2, 1, L_min=100, K=32, r_I=12)
        assert "tail-window" in p.violations
        with pytest.raises(InfeasibleParameters):
            require_feasible(p)
        with pytest.raises(InfeasibleParameters):
            multi_gamma0_encode([BitSeq.zeros(8)] * 2, p)

    def test_every_window_locates_its_strand_and_offset(self, gp2, gbook2, gcoded2):
        _, ss = gcoded2
        for i, s in enumerate(ss.strands):
            for t in range(gp2.n - gp2.L_min + 1):
                assert multi_gamma0_locate(s.window(t, gp2.L_min), gp2, gbook2) == (i, t)

    def test_clean_union_round_trip(self, gp2, gbook2, gcoded2):
        msgs, ss = gcoded2
        mt = fragment_strands(ss, gamma_cfg(gp2, 4))
        got, rep = multi_gamma0_decode(mt.strip_truth(), gp2, gbook2)
        assert got == msgs
        assert rep.reliable
        assert rep.message == msgs[0] + msgs[1]

    def test_flipped_reads_still_locate(self, gp2, gbook2, gcoded2):
        msgs, ss = gcoded2
        for seed in range(10):
            cfg = gamma_cfg(gp2, seed, e=1, error_mode="random")
            mt = corrupt(fragment_strands(ss, cfg), cfg)
            got, rep = multi_gamma0_decode(mt, gp2, gbook2)
            truth = tuple(f.strand * gp2.n + f.start for f in mt.fragments)
            assert tuple(off for off, _ in rep.located) == truth

    def test_decode_ignores_read_order_and_duplicates(self, gp2, gbook2, gcoded2):
        msgs, ss = gcoded2
        mt = fragment_strands(ss, gamma_cfg(gp2, 12))
        perm = np.random.default_rng(1).permutation(len(mt.fragments))
        shuffled = Trace(
            mt.n, mt.L_min, 0, 0,
            tuple(mt.fragments[int(i)] for i in perm) + mt.fragments[:3],
            k=mt.k,
        )
        got, _ = multi_gamma0_decode(shuffled, gp2, gbook2)
        assert got == msgs

    def test_empty_tail_layout_round_trips(self):
        p = derive_multi_gamma0_params(1000, 2, 1, L_min=100, K=32, r_I=12)
        assert p.L_star == 0 and p.I == 5
        book = multi_gamma0_book(p)
        rng = np.random.default_rng(2)
        per = multi_gamma0_message_len(p) // 2
        msgs = tuple(BitSeq.random(per, rng) for _ in range(2))
        ss = multi_gamma0_encode(msgs, p, book)
        assert all(len(s) == 1000 for s in ss.strands)
        mt = fragment_strands(ss, gamma_cfg(p, 5))
        got, rep = multi_gamma0_decode(mt, p, book)
        assert got == msgs and rep.reliable

    def test_wrong_shapes_are_rejected(self, gp2, gbook2, gcoded2):
        msgs, ss = gcoded2
        with pytest.raises(ValueError):
            multi_gamma0_encode(msgs[:1], gp2, gbook2)
        with pytest.raises(ValueError):
            multi_gamma0_encode((msgs[0], msgs[1].window(0, 10)), gp2, gbook2)
        mt = fragment_strands(ss, gamma_cfg(gp2, 4))
        wrong_k = Trace(mt.n, mt.L_min, 0, 0, mt.fragments, k=3)
        with pytest.raises(LayoutError):
            multi_gamma0_decode(wrong_k, gp2, gbook2)

    def test_k16_decode_report_is_pinned(self):
        # I = 8: reads are placed through the index-book lookup alone
        p = derive_multi_gamma0_params(1100, 16, 1, L_min=110, K=32, r_I=18)
        book = multi_gamma0_book(p)
        rng = np.random.default_rng(5)
        per = multi_gamma0_message_len(p) // p.k
        msgs = tuple(BitSeq.random(per, rng) for _ in range(p.k))
        ss = multi_gamma0_encode(msgs, p, book)
        mt = fragment_strands(ss, gamma_cfg(p, 11)).strip_truth()
        got, rep = multi_gamma0_decode(mt, p, book)
        assert p.I == 8 and len(mt.fragments) == 242
        assert got == msgs
        digest = hashlib.sha256(repr(rep).encode()).hexdigest()
        assert digest == "e2e5d10ff2b70ad6a66c99f7be2a8c8be45e55ac488bd3b581050bd652d6a423"

    def test_unplaceable_read_fails_strict_decoding(self, gp2, gbook2, gcoded2):
        _, ss = gcoded2
        mt = fragment_strands(ss, gamma_cfg(gp2, 4))
        # an all-zeros read misses every marker by at least the pattern
        # weight, so there is no window it can be charged to
        broken = Trace(
            mt.n, mt.L_min, 0, 0,
            (Fragment(BitSeq.zeros(gp2.L_min)),) + mt.fragments[1:],
            k=mt.k,
        )
        with pytest.raises(DecodeFailure):
            multi_gamma0_decode(broken, gp2, gbook2)


    def test_lenient_decode_names_exactly_the_damaged_strands(self, gp4, gbook4):
        # blocks 0 of strand 1 and 2 of strand 3 leave the constrained code;
        # every other block, and every other strand, must decode as sent
        rng = np.random.default_rng(29)
        per = multi_gamma0_message_len(gp4) // gp4.k
        msgs = tuple(BitSeq.random(per, rng) for _ in range(gp4.k))
        ss = multi_gamma0_encode(msgs, gp4, gbook4)
        v_at = _period_offsets(gp4)[2]
        strands = [s.to_numpy().copy() for s in ss.strands]
        for i, j in ((1, 0), (3, 2)):
            strands[i][j * gp4.L_min + v_at] = 0
        broken = StrandSet(gp4.n, tuple(BitSeq.from_numpy(a) for a in strands))
        mt = fragment_strands(broken, gamma_cfg(gp4, 16))
        messages, report, record = indexed_reconstruct(mt, gp4, gbook4)
        assert set(record.rejected) == {1, 3}
        record.verdict()  # a rejected block is no error at γ=0
        assert not report.reliable
        assert [messages[i] for i in (0, 2)] == [msgs[i] for i in (0, 2)]
        body = gp4.m_prime - gp4.d
        for i, j in ((1, 0), (3, 2)):
            assert messages[i].window(j * body, body) == BitSeq.zeros(body)
            kept = [b for b in range(gp4.message_blocks) if b != j]
            assert [messages[i].window(b * body, body) for b in kept] == [
                msgs[i].window(b * body, body) for b in kept
            ]


def _flipped_strand_set(p, book, seed, flips):
    """A seed's strand messages and their set with the ``flips`` (strand,
    bit) pairs flipped in the strands themselves, so that every read over
    a flipped bit copies it."""
    rng = np.random.default_rng(seed)
    per = multi_gamma0_message_len(p) // p.k
    msgs = tuple(BitSeq.random(per, rng) for _ in range(p.k))
    strands = list(multi_gamma0_encode(msgs, p, book).strands)
    for i, bit in flips:
        strands[i] = strands[i].with_bit(bit, not strands[i][bit])
    return msgs, StrandSet(p.n, tuple(strands))


class TestCodewordCheck:
    """A merged word whose marker, index or tail bits differ from the ones
    the encoder writes is no codeword: the report is unreliable, and the
    message is still decoded."""

    def test_flipped_strand_is_not_reported_reliable(self):
        # bit 586 of strand 5 is a payload bit of its block 5 and bit 614
        # a marker bit of that block; the payload still decodes, to a
        # wrong message
        p = derive_multi_gamma0_params(1100, 8, 1, L_min=110, K=32, r_I=18)
        book = multi_gamma0_book(p)
        msgs, ss = _flipped_strand_set(p, book, [12, 0], [(5, 586), (5, 614)])
        mt = fragment_strands(ss, ChannelConfig(L_min=110, L_over=0, e=1, seed=0))
        got, rep = multi_gamma0_decode(mt.strip_truth(), p, book)
        assert got[5] != msgs[5]
        assert [got[i] for i in range(8) if i != 5] == [msgs[i] for i in range(8) if i != 5]
        assert not rep.reliable

    def test_flipped_tail_is_not_reported_reliable(self):
        p = derive_multi_gamma0_params(1030, 2, 1, L_min=100, K=32, r_I=12)
        book = multi_gamma0_book(p)
        assert p.n - p.strand_blocks * p.L_min == 30
        for flips, reliable in (((), True), (((1, 1020),), False)):
            msgs, ss = _flipped_strand_set(p, book, 3, flips)
            got, rep = multi_gamma0_decode(fragment_strands(ss, gamma_cfg(p, 2)), p, book)
            assert got == msgs and rep.reliable is reliable, flips

    @pytest.mark.parametrize("n, part", [(9856, "index"), (9856, "pad"), (9800, "cut block")])
    def test_gamma0_word_off_the_code_is_not_reported_reliable(self, n, part):
        p = trace_codes.derive_gamma0_params(n, 1, L_min=154, K=64, r_I=12)
        book = trace_codes.gamma0_book(p)
        m = BitSeq.random(trace_codes.gamma0_message_len(p), np.random.default_rng(4))
        w = trace_codes.encode_gamma0(m, p, book)
        arr = w.to_numpy().copy()
        _, c_at, v_at = _period_offsets(p)
        if part == "index":  # the last index bit of block 7
            arr[7 * p.L_min + c_at[-1]] ^= 1
        elif part == "pad":  # block 7's payload, still in the code, with a pad bit set
            payload_codec = blocks.codec(p.w_window, p.w_floor, p.m_prime, 512)
            at = 7 * p.L_min + v_at
            plain = payload_codec.decode(BitSeq.from_numpy(arr[at]))
            arr[at] = payload_codec.encode(plain.with_bit(len(plain) - 1, 1)).to_numpy()
        else:  # a payload bit of the cut last block, which carries zeros
            arr[p.message_blocks * p.L_min + v_at[0]] ^= 1
        cfg = ChannelConfig(L_min=p.L_min, L_over=0, seed=3)
        for word, reliable in ((w, True), (BitSeq.from_numpy(arr), False)):
            rep = trace_codes.reconstruct_gamma0(fragment(word, cfg).strip_truth(), p, book)
            assert rep.message == m and rep.reliable is reliable

    def test_a_stray_strand_is_no_outer_erasure(self, gp4, gbook4, monkeypatch):
        # a flipped marker bit leaves every payload decodable: the outer
        # layer sees no damaged strand and the message survives, unreliable
        rng = np.random.default_rng(41)
        m = BitSeq.random(multi_gamma0_rs_message_len(gp4, 1), rng)
        ss = encode_multi_gamma0_rs(m, gp4, 1, gbook4)
        at = 2 * gp4.L_min + int(_period_offsets(gp4)[0][3])
        broken = list(ss.strands)
        broken[1] = broken[1].with_bit(at, not broken[1][at])
        seen = []
        decode = outer.Lanes.decode
        monkeypatch.setattr(
            outer.Lanes, "decode",
            lambda self, raw, report, record: seen.append(set(record.rejected))
            or decode(self, raw, report, record),
        )
        for strands, reliable in ((ss.strands, True), (broken, False)):
            mt = fragment_strands(StrandSet(gp4.n, tuple(strands)), gamma_cfg(gp4, 8))
            rep = reconstruct_multi_gamma0_rs(mt, gp4, 1, gbook4)
            assert rep.message == m and rep.reliable is reliable
        assert seen == [set(), set()]


class TestMultiGamma0Outer:
    def test_message_length_and_budget_bounds(self, gp4):
        per = multi_gamma0_message_len(gp4) // gp4.k
        block_bits = 8 * (per // 8)
        assert multi_gamma0_rs_message_len(gp4, 0) == 4 * block_bits
        assert multi_gamma0_rs_message_len(gp4, 1) == 2 * block_bits
        with pytest.raises(ValueError):
            multi_gamma0_rs_message_len(gp4, 2)

    def test_zero_budget_reduces_to_plain_encoding(self, gp4, gbook4):
        rng = np.random.default_rng(31)
        m = BitSeq.random(multi_gamma0_rs_message_len(gp4, 0), rng)
        per = multi_gamma0_message_len(gp4) // gp4.k
        bb = len(m) // gp4.k
        msgs = tuple(
            m.window(i * bb, bb) + BitSeq.zeros(per - bb) for i in range(gp4.k)
        )
        assert encode_multi_gamma0_rs(m, gp4, 0, gbook4) == multi_gamma0_encode(
            msgs, gp4, gbook4
        )

    def test_one_corrupted_strand_is_recovered(self, gp4, gbook4):
        rng = np.random.default_rng(37)
        m = BitSeq.random(multi_gamma0_rs_message_len(gp4, 1), rng)
        ss = encode_multi_gamma0_rs(m, gp4, 1, gbook4)
        # scramble the payload of one strand, keeping markers and indices
        # intact so its reads still place and surface as payload damage
        arr = ss.strands[2].to_numpy().copy()
        for j in range(gp4.n_bar):
            base = j * gp4.L_min
            arr[base : base + gp4.m_prime] ^= rng.integers(
                0, 2, gp4.m_prime
            ).astype(np.uint8)
        broken = StrandSet(
            gp4.n,
            ss.strands[:2] + (BitSeq.from_numpy(arr),) + ss.strands[3:],
        )
        cfg = gamma_cfg(gp4, 13)
        rep = reconstruct_multi_gamma0_rs(fragment_strands(broken, cfg), gp4, 1, gbook4)
        assert rep.message == m
        assert not rep.reliable

    def test_one_missing_strand_is_recovered(self, gp4, gbook4):
        rng = np.random.default_rng(43)
        m = BitSeq.random(multi_gamma0_rs_message_len(gp4, 1), rng)
        ss = encode_multi_gamma0_rs(m, gp4, 1, gbook4)
        mt = fragment_strands(ss, gamma_cfg(gp4, 14))
        kept = tuple(f for f in mt.fragments if f.strand != 1)
        short = Trace(mt.n, mt.L_min, 0, 0, kept, k=mt.k)
        rep = reconstruct_multi_gamma0_rs(short, gp4, 1, gbook4)
        assert rep.message == m
        assert not rep.reliable

    def test_outer_correction_is_never_reliable(self, gp4, gbook4):
        # m2 differs from m by 1 in every byte of data strand 0 and by 3 in
        # every byte of data strand 1, a difference whose parity leaves
        # strand 3 unchanged; strands 0-1 of m2 with strands 2-3 of m then
        # sit one outer symbol per lane from m2's codeword
        rng = np.random.default_rng(53)
        m = BitSeq.random(multi_gamma0_rs_message_len(gp4, 1), rng)
        nb = len(m) // 16
        delta = BitSeq.from_int(int.from_bytes(bytes([1] * nb + [3] * nb), "little"), len(m))
        m2 = m.xor(delta)
        ss = encode_multi_gamma0_rs(m, gp4, 1, gbook4)
        ss2 = encode_multi_gamma0_rs(m2, gp4, 1, gbook4)
        assert ss2.strands[3] == ss.strands[3]
        mixed = StrandSet(gp4.n, ss2.strands[:2] + ss.strands[2:])
        for seed in range(3):
            mt = fragment_strands(mixed, gamma_cfg(gp4, seed))
            rep = reconstruct_multi_gamma0_rs(mt, gp4, 1, gbook4)
            assert rep.message == m2
            assert not rep.reliable

    def test_budget_overflow_is_detected(self, gp4, gbook4):
        rng = np.random.default_rng(47)
        m = BitSeq.random(multi_gamma0_rs_message_len(gp4, 1), rng)
        ss = encode_multi_gamma0_rs(m, gp4, 1, gbook4)
        broken = list(ss.strands)
        for t in (0, 3):
            arr = broken[t].to_numpy().copy()
            for j in range(gp4.n_bar):
                base = j * gp4.L_min
                arr[base : base + gp4.m_prime] ^= rng.integers(
                    0, 2, gp4.m_prime
                ).astype(np.uint8)
            broken[t] = BitSeq.from_numpy(arr)
        cfg = gamma_cfg(gp4, 15)
        mt = fragment_strands(StrandSet(gp4.n, tuple(broken)), cfg)
        with pytest.raises(DecodeFailure):
            reconstruct_multi_gamma0_rs(mt, gp4, 1, gbook4)
