"""Independent brute-force verifiers and the rate-bound calculator.

Everything in this module trades speed for trustworthiness: the checkers
re-implement definitions literally (or by an exhaustive all-pairs scan) and
never share code with the fast paths they are used to validate, and the
bound formulas are evaluated in exact rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from .bitseq import BitSeq

__all__ = [
    "check_wwl_exhaustive",
    "check_sd_exhaustive",
    "check_modular_rps",
    "check_p123",
    "BoundReport",
    "bound_single",
    "bound_multi",
    "bound_multi_gamma0",
]


# ----------------------------------------------------------------------
# literal constraint checkers


def check_wwl_exhaustive(x: BitSeq, L: int, d: int) -> bool:
    """Every length-L window has weight at least d, checked window by window
    on the text form."""
    s = x.to_text()
    return all(s[i : i + L].count("1") >= d for i in range(len(s) - L + 1))


_SD_NAIVE_LIMIT = 3000


def check_sd_exhaustive(x: BitSeq, L: int, d: int) -> bool:
    """All pairs of distinct length-L windows are at Hamming distance >= d.

    Short inputs get the literal character-by-character double loop.  Longer
    inputs get the blocked all-pairs distance scan, which compares every
    pair of windows rather than relying on the pigeonhole close-pair search
    the encoders use.  Both routes examine the property exhaustively.
    """
    n = len(x)
    if n - L + 1 <= 1:
        return True
    if n <= _SD_NAIVE_LIMIT:
        s = x.to_text()
        wins = [s[i : i + L] for i in range(n - L + 1)]
        for i in range(len(wins)):
            for j in range(i + 1, len(wins)):
                dist = sum(a != b for a, b in zip(wins[i], wins[j]))
                if dist < d:
                    return False
        return True
    return sd_min_pair_distance(x, L)[0] >= d


def sd_min_pair_distance(x: BitSeq, L: int) -> tuple[int, tuple[int, int]]:
    """Exact minimum distance over all pairs of length-L windows, with a
    witnessing pair of start offsets i < j, or (large, (-1, -1)) when fewer
    than two windows exist.

    Every pair is compared, in blocks of rows to bound memory, on windows
    cut here with ``np.packbits`` rather than by the encoders' kernels.
    """
    m = len(x) - L + 1
    best, best_pair = 1 << 30, (-1, -1)
    if m < 2:
        return best, best_pair
    wins = np.packbits(np.lib.stride_tricks.sliding_window_view(x.to_numpy(), L), axis=1)
    block = 1024
    for i0 in range(0, m, block):
        ai = wins[i0 : i0 + block, None, :]
        for j0 in range(i0, m, block):
            d = np.bitwise_count(ai ^ wins[None, j0 : j0 + block, :]).sum(axis=2, dtype=np.int64)
            if j0 == i0:
                d[np.tril_indices_from(d)] = 1 << 30
            di, dj = divmod(int(np.argmin(d)), d.shape[1])
            if d[di, dj] < best:
                best = int(d[di, dj])
                best_pair = (i0 + di, j0 + dj)
    return best, best_pair


def check_modular_rps(w: BitSeq, period: int, d: int) -> bool:
    """Windows of length ``period`` starting at offsets congruent modulo
    ``period`` are pairwise at distance >= d."""
    from .bitseq import hamming

    n = len(w)
    starts_by_phase: dict[int, list[int]] = {}
    for i in range(n - period + 1):
        starts_by_phase.setdefault(i % period, []).append(i)
    for starts in starts_by_phase.values():
        wins = [w.window(i, period) for i in starts]
        for a in range(len(wins)):
            for b in range(a + 1, len(wins)):
                if hamming(wins[a], wins[b]) < d:
                    return False
    return True


def check_p123(pieces: Sequence[BitSeq], K: int, d: int) -> bool:
    """Literal validation of the scaffold piece family.

    Pieces must all share one length ``Ls`` and satisfy: each piece is
    (K, d)-weight-limited; every boundary splice taking a prefix of piece
    i+1 and the matching suffix of piece i is (K, d)-weight-limited; and
    the plain concatenation of all pieces has same-phase windows of length
    ``Ls`` pairwise at distance >= d.  An empty family passes vacuously.
    """
    pieces = list(pieces)
    if not pieces:
        return True
    Ls = len(pieces[0])
    if any(len(p) != Ls for p in pieces):
        return False
    for p in pieces:
        if not check_wwl_exhaustive(p, K, d):
            return False
    for i in range(len(pieces) - 1):
        nxt, cur = pieces[i + 1], pieces[i]
        for j in range(1, Ls):
            spliced = nxt.window(0, j) + cur.window(j, Ls - j)
            if not check_wwl_exhaustive(spliced, K, d):
                return False
    concat = BitSeq.zeros(0)
    for p in pieces:
        concat = concat + p
    return check_modular_rps(concat, Ls, d)


# ----------------------------------------------------------------------
# rate bounds in exact arithmetic


def _frac(v) -> Fraction:
    if isinstance(v, float):
        return Fraction(str(v))
    return Fraction(v)


class BoundReport(dict):
    """Bound evaluation: ``lower`` and ``upper`` leading terms as exact
    fractions, a ``regime`` label, and a ``note`` describing the dropped
    residue terms or the vanishing-rate trigger."""

    @property
    def lower(self) -> Fraction | None:
        return self["lower"]

    @property
    def upper(self) -> Fraction | None:
        return self["upper"]


def bound_single(a, gamma) -> Fraction:
    """Leading-term rate for a single strand cut into fragments of minimum
    length a*log(n) overlapping in a gamma fraction: (1 - 1/a)/(1 - gamma)."""
    a, gamma = _frac(a), _frac(gamma)
    if a <= 1:
        raise ValueError("fragment length factor a must exceed 1")
    if not 0 <= gamma <= 1 / a:
        raise ValueError("overlap fraction gamma must lie in [0, 1/a]")
    return (1 - 1 / a) / (1 - gamma)


def bound_multi(a, gamma, kappa, lstar_frac=0) -> BoundReport:
    """Leading-term rate bounds for k strands with log k = kappa * n.

    ``lstar_frac`` is the leftover fraction L*/n, where L* is the residue
    (n - L_over) mod (L_min - L_over); it contributes to the upper bound
    only.  ``kappa = 0`` covers the sub-exponential strand-count regime and
    reduces to the single-strand bound.
    """
    a, gamma, kappa, lf = _frac(a), _frac(gamma), _frac(kappa), _frac(lstar_frac)
    if not 0 <= kappa < 1:
        raise ValueError("kappa must lie in [0, 1)")
    if not 0 <= lf < 1:
        raise ValueError("lstar_frac must lie in [0, 1)")
    if a <= 1:
        return BoundReport(
            regime="vanishing",
            lower=Fraction(0),
            upper=Fraction(0),
            note=(
                "minimum fragment length at most log(nk): fragments are too "
                "short to be attributed, so the rate tends to 0"
            ),
        )
    if not 0 <= a * gamma <= 1:
        raise ValueError("overlap fraction gamma must lie in [0, 1/a]")
    base = (1 - 1 / a) / (1 - gamma)
    if kappa == 0:
        return BoundReport(
            regime="sub-exponential strand count",
            lower=base,
            upper=base,
            note="log k = o(n): leftover term vanishes, residue O(loglog/log)",
        )
    head = (1 - a * gamma * kappa) / (1 - kappa) * base
    tail = (1 / a - gamma) / ((1 - gamma) * (1 - kappa)) * lf
    return BoundReport(
        regime="exponential strand count",
        lower=head,
        upper=head + tail,
        note="log k = kappa*n: leftover fraction L*/n adds to the upper bound",
    )


def bound_multi_gamma0(a, kappa, lstar_frac=0) -> BoundReport:
    """Zero-overlap multi-strand rate: (1 - 1/a)/(1 - kappa) plus the
    leftover contribution L*/(a*(1 - kappa)*n), attained in both
    directions."""
    a, kappa, lf = _frac(a), _frac(kappa), _frac(lstar_frac)
    if not 0 <= kappa < 1:
        raise ValueError("kappa must lie in [0, 1)")
    if not 0 <= lf < 1:
        raise ValueError("lstar_frac must lie in [0, 1)")
    if a <= 1:
        return BoundReport(
            regime="vanishing",
            lower=Fraction(0),
            upper=Fraction(0),
            note=(
                "minimum fragment length at most log(nk): fragments are too "
                "short to be attributed, so the rate tends to 0"
            ),
        )
    rate = (1 - 1 / a) / (1 - kappa) + lf / (a * (1 - kappa))
    return BoundReport(
        regime="zero overlap",
        lower=rate,
        upper=rate,
        note="matching leading terms; residue o(1)",
    )

