"""Independent brute-force verifiers and the rate-bound calculator.

Everything in this module trades speed for trustworthiness: the checkers
re-implement definitions literally (or by a provably complete search) and
never share code with the fast paths they are used to validate, and the
bound formulas are evaluated in exact rational arithmetic.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from typing import Iterable, Sequence

from .bitseq import BitSeq

__all__ = [
    "check_wwl_exhaustive",
    "check_sd_exhaustive",
    "check_modular_rps",
    "check_p123",
    "brute_reconstruct",
    "BoundReport",
    "bound_single",
    "bound_multi",
    "bound_multi_gamma0",
    "log_xnk_exact",
    "log_xnk_approx",
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
    witnessing pair of start offsets."""
    from ._bitops import min_pair_distance, packed_windows

    return min_pair_distance(packed_windows(x.to_numpy(), L))


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
# exhaustive trace reconstruction

_DEFAULT_WORK_BUDGET = 2_000_000


class WorkBudgetExceeded(RuntimeError):
    pass


def brute_reconstruct(
    fragments: Iterable[BitSeq],
    n: int,
    L_min: int,
    L_over: int,
    e: int = 0,
    work_budget: int | None = None,
) -> list[BitSeq]:
    """Every reconstruction obtainable by legally placing all fragments.

    Tries all assignments of fragments to offsets such that the first starts
    at 0, starts strictly increase, consecutive fragments overlap in at
    least ``L_over`` positions, and the last ends at ``n``.  An assignment is
    kept when some string of length ``n`` is within ``e`` errors of every
    placed fragment; its reconstruction is the positionwise majority over
    the placed fragments with ties resolved to 0.  Returns the distinct
    reconstructions sorted by value.

    A unique result means the trace pins down both the fragment placement
    and the merged string; ambiguous placements of repetitive content show
    up as extra candidates.
    """
    frs = [f for f in fragments]
    if not frs:
        raise ValueError("empty trace")
    for f in frs:
        if not L_min <= len(f) <= n:
            raise ValueError(f"fragment length {len(f)} outside [{L_min}, {n}]")
    budget = work_budget
    if budget is None:
        budget = int(os.environ.get("RECON_WORK_BUDGET", _DEFAULT_WORK_BUDGET))
    t = len(frs)
    full = (1 << t) - 1
    nodes = 0
    found: dict[tuple[int, int], tuple] = {}

    def overlap_conflicts(placed: list[tuple[int, int]], idx: int, off: int) -> bool:
        f = frs[idx]
        for pidx, poff in placed:
            g = frs[pidx]
            lo = max(off, poff)
            hi = min(off + len(f), poff + len(g))
            if hi <= lo:
                continue
            length = hi - lo
            a = f.window_int(lo - off, length)
            b = g.window_int(lo - poff, length)
            if (a ^ b).bit_count() > 2 * e:
                return True
        return False

    def place(used: int, placed: list[tuple[int, int]]):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise WorkBudgetExceeded(
                f"assignment search exceeded {budget} nodes; "
                "raise RECON_WORK_BUDGET to continue"
            )
        if used == full:
            last_idx, last_off = placed[-1]
            if last_off + len(frs[last_idx]) == n and _exists_center(placed, frs, n, e):
                merged = _majority_of(placed, frs, n)
                found.setdefault((merged.value, n), tuple(placed))
            return
        if placed:
            last_idx, last_off = placed[-1]
            lo = last_off + 1
            hi = last_off + len(frs[last_idx]) - L_over
        else:
            lo = hi = 0
        tried: set[tuple[int, int]] = set()
        for idx in range(t):
            if used >> idx & 1:
                continue
            f = frs[idx]
            for off in range(lo, hi + 1):
                if off + len(f) > n:
                    continue
                key = (f.value, off)
                if key in tried:
                    continue
                tried.add(key)
                if overlap_conflicts(placed, idx, off):
                    continue
                placed.append((idx, off))
                place(used | 1 << idx, placed)
                placed.pop()

    place(0, [])
    return sorted((BitSeq(v, n) for v, n in found), key=lambda b: b.value)


def _majority_of(placed, frs, n) -> BitSeq:
    zeros = [0] * n
    ones = [0] * n
    for idx, off in placed:
        f = frs[idx]
        for k in range(len(f)):
            if f[k]:
                ones[off + k] += 1
            else:
                zeros[off + k] += 1
    val = 0
    for p in range(n):
        if ones[p] > zeros[p]:
            val |= 1 << p
    return BitSeq(val, n)


def _exists_center(placed, frs, n, e) -> bool:
    """Is some length-n string within e errors of every placed fragment?

    Positions where all covering fragments agree can take the agreed value
    at zero cost, so only disagreement positions need branching.
    """
    votes: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for slot, (idx, off) in enumerate(placed):
        f = frs[idx]
        for k in range(len(f)):
            votes[off + k].append((slot, f[k]))
    costs = [0] * len(placed)
    disagree = []
    for p in range(n):
        vs = votes[p]
        if not vs:
            return False
        bits = {b for _, b in vs}
        if len(bits) > 1:
            disagree.append(vs)
    if e == 0:
        return not disagree

    def feasible(k: int) -> bool:
        if k == len(disagree):
            return True
        vs = disagree[k]
        for choice in (0, 1):
            bumped = []
            ok = True
            for slot, b in vs:
                if b != choice:
                    costs[slot] += 1
                    bumped.append(slot)
                    if costs[slot] > e:
                        ok = False
            if ok and feasible(k + 1):
                for slot in bumped:
                    costs[slot] -= 1
                return True
            for slot in bumped:
                costs[slot] -= 1
        return False

    return feasible(0)


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


# ----------------------------------------------------------------------
# strand-multiset counting

_XNK_BIT_BUDGET = 5_000_000


def log_xnk_exact(n: int, k: int) -> float:
    """log2 of the number of multisets of k strands of length n, evaluated
    from the exact binomial coefficient C(k + 2^n - 1, k)."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    est_bits = k * max(1, n - max(0, k.bit_length() - 1) + 2)
    if n > 64 or est_bits > _XNK_BIT_BUDGET:
        raise ValueError(
            f"exact multiset count needs about {est_bits} bits, over the budget; "
            "use log_xnk_approx"
        )
    return math.log2(math.comb(k + (1 << n) - 1, k))


def log_xnk_approx(n: int, k: int) -> float:
    """Leading-term approximation k*(n - log2(k/e))."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    return k * (n - math.log2(k) + math.log2(math.e))
