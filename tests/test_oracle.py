"""The rate-bound calculator and the modular window check, against values
worked by hand from the formulas in their docstrings."""

from fractions import Fraction as F

import pytest

from strandcode.bitseq import BitSeq
from strandcode.oracle import (
    bound_multi,
    bound_multi_gamma0,
    bound_single,
    check_modular_rps,
    sd_min_pair_distance,
)

# bound_multi: head = (1 - a*gamma*kappa)/(1 - kappa) * (1 - 1/a)/(1 - gamma)
# and tail = (1/a - gamma)/((1 - gamma)(1 - kappa)) * L*/n.
#   a=3, gamma=1/5, kappa=1/4, L*/n=1/10: base 5/6, head 17/20 * 4/3 * 5/6 =
#   17/18, tail 2/15 * 5/3 * 1/10 = 1/45, upper 29/30.
#   a=2, gamma=1/4, kappa=1/2, L*/n=1/5: base 2/3, head 3/4 * 2 * 2/3 = 1,
#   tail 1/4 * 8/3 * 1/5 = 2/15, upper 17/15.
MULTI_POINTS = [
    ((3, F(1, 5), F(1, 4), F(1, 10)), F(17, 18), F(29, 30)),
    ((2, F(1, 4), F(1, 2), F(1, 5)), F(1), F(17, 15)),
]

# bound_multi_gamma0: (1 - 1/a)/(1 - kappa) + L*/n / (a*(1 - kappa)).
#   a=3, kappa=1/4, L*/n=1/10: 8/9 + 2/45 = 14/15.
#   a=4, kappa=0, L*/n=1/2: 3/4 + 1/8 = 7/8.
GAMMA0_POINTS = [
    ((3, F(1, 4), F(1, 10)), F(14, 15)),
    ((4, 0, F(1, 2)), F(7, 8)),
]


@pytest.mark.parametrize("args, lower, upper", MULTI_POINTS)
def test_bound_multi_at_hand_computed_points(args, lower, upper):
    for given in (args, tuple(float(v) for v in args)):
        rep = bound_multi(*given)
        assert rep["regime"] == "exponential strand count"
        assert (rep.lower, rep.upper) == (lower, upper)
        assert type(rep.lower) is type(rep.upper) is F


@pytest.mark.parametrize("args, rate", GAMMA0_POINTS)
def test_bound_multi_gamma0_at_hand_computed_points(args, rate):
    for given in (args, tuple(float(v) for v in args)):
        rep = bound_multi_gamma0(*given)
        assert rep["regime"] == "zero overlap"
        assert rep.lower == rep.upper == rate
        assert type(rep.lower) is F


@pytest.mark.parametrize("a, gamma", [(2, F(1, 2)), (3, F(1, 5)), (F(5, 4), 0), (7, F(1, 7))])
def test_kappa_zero_is_the_single_strand_bound(a, gamma):
    single = bound_single(a, gamma)
    for lstar in (0, F(1, 3)):
        rep = bound_multi(a, gamma, 0, lstar)
        assert rep["regime"] == "sub-exponential strand count"
        assert rep.lower == rep.upper == single
    assert bound_single(2, F(1, 2)) == 1 and bound_single(3, F(1, 5)) == F(5, 6)


def test_the_leftover_raises_only_the_upper_bound():
    for (a, gamma, kappa, lstar), lower, upper in MULTI_POINTS:
        bare = bound_multi(a, gamma, kappa)
        assert bare.lower == bare.upper == lower
        rep = bound_multi(a, gamma, kappa, lstar)
        assert rep.lower == lower and rep.upper == upper > lower
    # at gamma = 1/a the leftover carries no rate
    rep = bound_multi(4, F(1, 4), F(1, 2), F(1, 2))
    assert rep.lower == rep.upper


@pytest.mark.parametrize("a", [1, F(9, 10), F(1, 2)])
def test_fragments_no_longer_than_log_nk_vanish(a):
    # the a <= 1 branch precedes the overlap check, so any gamma reaches it
    reports = (
        bound_multi(a, F(1, 2), F(1, 2)),
        bound_multi(a, 0, 0, F(1, 3)),
        bound_multi_gamma0(a, F(1, 4)),
    )
    for rep in reports:
        assert rep["regime"] == "vanishing"
        assert rep.lower == rep.upper == 0
    with pytest.raises(ValueError, match="fragment length factor a must exceed 1"):
        bound_single(a, 0)


@pytest.mark.parametrize("kappa", [-F(1, 10), 1, F(3, 2)])
def test_kappa_outside_its_domain_is_refused(kappa):
    with pytest.raises(ValueError, match=r"kappa must lie in \[0, 1\)"):
        bound_multi(3, 0, kappa)
    with pytest.raises(ValueError, match=r"kappa must lie in \[0, 1\)"):
        bound_multi_gamma0(3, kappa)


@pytest.mark.parametrize("lstar", [-F(1, 10), 1, 2])
def test_a_leftover_outside_its_domain_is_refused(lstar):
    with pytest.raises(ValueError, match=r"lstar_frac must lie in \[0, 1\)"):
        bound_multi(3, 0, F(1, 4), lstar)
    with pytest.raises(ValueError, match=r"lstar_frac must lie in \[0, 1\)"):
        bound_multi_gamma0(3, F(1, 4), lstar)


@pytest.mark.parametrize("a, gamma", [(2, F(3, 5)), (3, -F(1, 10)), (F(3, 2), 1)])
def test_an_overlap_outside_its_domain_is_refused(a, gamma):
    with pytest.raises(ValueError, match=r"overlap fraction gamma must lie in \[0, 1/a\]"):
        bound_multi(a, gamma, F(1, 4))
    with pytest.raises(ValueError, match=r"overlap fraction gamma must lie in \[0, 1/a\]"):
        bound_single(a, gamma)


def test_a_close_same_phase_pair_fails_the_modular_check():
    # period 4, d = 2: the phase-0 windows at 0 and 8 differ in one symbol;
    # every other same-phase pair, adjacent ones included, differs in 3 or 4
    w = BitSeq.from_text("0110" "1001" "0111")
    assert [w.window(i, 4).to_text() for i in (0, 4, 8)] == ["0110", "1001", "0111"]
    assert not check_modular_rps(w, 4, 2)
    assert check_modular_rps(w, 4, 1)
    assert not check_modular_rps(BitSeq.from_text("0110" "0111"), 4, 2)


def test_close_pairs_at_different_phases_pass_the_modular_check():
    # windows 0 and 1 differ in one symbol, but the only same-phase pair,
    # 0 and 4, differs in all four
    w = BitSeq.from_text("0000" "1111")
    distance, (i, j) = sd_min_pair_distance(w, 4)
    assert distance < 2 and (j - i) % 4
    assert check_modular_rps(w, 4, 2)
    assert check_modular_rps(w, 4, 4) and not check_modular_rps(w, 4, 5)
