"""Outer Reed-Solomon layer over GF(256) for whole-block damage.

A message is cut into equal payload blocks: the groups of one trace
codeword, or the strands of a multi-strand set.  Byte s of every block forms
one Reed-Solomon lane with 2 * tau parity symbols, so a wholly corrupted
block costs each lane at most one symbol, any tau bad blocks are
recoverable, and the union of corrected positions over the lanes names the
bad blocks.
"""

from __future__ import annotations

from functools import cache
from typing import Sequence

from .bitseq import BitSeq
from .errors import DecodeFailure

__all__ = ["lane_violations", "lane_message_len", "lane_encode", "lane_decode"]


# ---------------------------------------------------------------------------
# GF(256) arithmetic and the Reed-Solomon lane codec

_GF_EXP = [0] * 512
_GF_LOG = [0] * 256


def _gf_init() -> None:
    x = 1
    for i in range(255):
        _GF_EXP[i] = x
        _GF_LOG[x] = i
        x <<= 1
        if x & 0x100:
            x ^= 0x11D
    for i in range(255, 512):
        _GF_EXP[i] = _GF_EXP[i - 255]


_gf_init()


def _gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return _GF_EXP[_GF_LOG[a] + _GF_LOG[b]]


def _gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("no inverse of zero")
    return _GF_EXP[255 - _GF_LOG[a]]


def _poly_eval(coeffs: list[int], x: int) -> int:
    """Evaluate sum(coeffs[i] * x^i)."""
    acc = 0
    xp = 1
    for c in coeffs:
        acc ^= _gf_mul(c, xp)
        xp = _gf_mul(xp, x)
    return acc


@cache
def _rs_generator(nsym: int) -> tuple[int, ...]:
    """Coefficients, highest degree first, of prod (x - alpha^i), i < nsym."""
    gen = [1]
    for i in range(nsym):
        nxt = gen + [0]
        for j, g in enumerate(gen):
            nxt[j + 1] ^= _gf_mul(g, _GF_EXP[i])
        gen = nxt
    return tuple(gen)


def _rs_encode(data: list[int], nsym: int) -> list[int]:
    """Systematic encoding: return data followed by nsym parity symbols."""
    gen = _rs_generator(nsym)
    # long division of data * x^nsym by the monic generator leaves the parity
    word = list(data) + [0] * nsym
    for i in range(len(data)):
        factor = word[i]
        if factor:
            for j in range(1, nsym + 1):
                word[i + j] ^= _gf_mul(gen[j], factor)
    return list(data) + word[len(data) :]


def _rs_syndromes(word: list[int], nsym: int) -> list[int]:
    # word[j] is the coefficient of x^(n-1-j)
    return [_poly_eval(word[::-1], _GF_EXP[i]) for i in range(nsym)]


def _rs_decode(word: list[int], nsym: int) -> tuple[list[int], list[int]]:
    """Correct up to nsym // 2 symbol errors; return (fixed, error positions).

    Locator from Berlekamp-Massey, roots tried at the word's own positions,
    magnitudes by Forney, and the corrected word must have zero syndromes.
    """
    n = len(word)
    synd = _rs_syndromes(word, nsym)
    if not any(synd):
        return list(word), []
    # Berlekamp-Massey for the error locator (lowest degree first)
    lam, prev, l_count, m, b = [1], [1], 0, 1, 1
    for i in range(nsym):
        delta = synd[i]
        for j, c in enumerate(lam[1 : l_count + 1], 1):
            delta ^= _gf_mul(c, synd[i - j])
        if delta:
            scale = _gf_mul(delta, _gf_inv(b))
            nxt = lam + [0] * (m + len(prev) - len(lam))
            for j, c in enumerate(prev):
                nxt[m + j] ^= _gf_mul(scale, c)
            if 2 * l_count <= i:
                l_count, prev, b, m = i + 1 - l_count, lam, delta, 0
            lam = nxt
        m += 1
    if l_count * 2 > nsym:
        raise DecodeFailure("too many symbol errors for the outer code")
    # position p has location X = alpha^(n-1-p); its error makes X^-1 a root
    inv_x = [_GF_EXP[255 - (n - 1 - p)] for p in range(n)]
    positions = [p for p in range(n) if _poly_eval(lam, inv_x[p]) == 0]
    if len(positions) != l_count:
        raise DecodeFailure("outer code locator roots do not match its degree")
    # Forney: Omega = S * Lambda mod x^nsym, e = X * Omega(X^-1) / Lambda'(X^-1).
    # In characteristic 2, Lambda' is the odd terms of Lambda lowered one
    # degree; the roots are simple, so it does not vanish there.
    omega = [0] * nsym
    for i, s in enumerate(synd):
        for j, c in enumerate(lam[: nsym - i]):
            omega[i + j] ^= _gf_mul(s, c)
    dlam = [c if j % 2 else 0 for j, c in enumerate(lam)][1:]
    fixed = list(word)
    for p in positions:
        num = _gf_mul(_GF_EXP[n - 1 - p], _poly_eval(omega, inv_x[p]))
        fixed[p] ^= _gf_mul(num, _gf_inv(_poly_eval(dlam, inv_x[p])))
    if any(_rs_syndromes(fixed, nsym)):
        raise DecodeFailure("outer code correction leaves a nonzero syndrome")
    return fixed, positions


# ---------------------------------------------------------------------------
# Lanes across payload blocks


def lane_violations(blocks: int, payload_bits: int) -> tuple[str, ...]:
    """The outer geometry's failed inequalities, which the families refuse as
    params ``violations``: ``outer-field-size`` when a lane outnumbers the
    nonzero locators of GF(256), ``outer-symbol-size`` when a block holds no byte."""
    return ("outer-field-size",) * (blocks > 255) + ("outer-symbol-size",) * (payload_bits < 8)


def _lane_bytes(blocks: int, tau: int, payload_bits: int) -> int:
    """Outer symbols per block for ``blocks`` payload blocks of
    ``payload_bits`` bits, 2 * tau of them parity; checks tau."""
    if tau < 0 or 2 * tau >= blocks:
        raise ValueError(f"need 0 <= 2 * tau < {blocks}, the outer code length")
    return payload_bits // 8


def lane_message_len(blocks: int, tau: int, payload_bits: int) -> int:
    """Message bits carried by the blocks - 2 * tau data blocks."""
    return (blocks - 2 * tau) * 8 * _lane_bytes(blocks, tau, payload_bits)


def lane_encode(m: BitSeq, blocks: int, tau: int, payload_bits: int) -> list[BitSeq]:
    """The data blocks of ``m`` followed by 2 * tau parity blocks, each zero
    padded to ``payload_bits``.  Byte s of a block is its bits 8s..8s+7."""
    nb = _lane_bytes(blocks, tau, payload_bits)
    want = lane_message_len(blocks, tau, payload_bits)
    if len(m) != want:
        raise ValueError(f"message must have {want} bits, got {len(m)}")
    data = range(blocks - 2 * tau)
    rows = [m.window_int(8 * nb * i, 8 * nb).to_bytes(nb, "little") for i in data]
    lanes = [_rs_encode([row[s] for row in rows], 2 * tau) for s in range(nb)]
    return [
        BitSeq(int.from_bytes(bytes(lane[i] for lane in lanes), "little"), payload_bits)
        for i in range(blocks)
    ]


def lane_decode(
    payloads: Sequence[BitSeq], tau: int, damaged: set[int]
) -> tuple[BitSeq, set[int]]:
    """Correct every lane; return the data bits and the corrected blocks.

    ``damaged`` holds blocks already known to be bad.  More than tau bad
    blocks in all, known or corrected, raise DecodeFailure, as does a lane
    with more errors than its parity can locate.
    """
    blocks = len(payloads)
    nb = _lane_bytes(blocks, tau, len(payloads[0]))
    rows = [p.window_int(0, 8 * nb).to_bytes(nb, "little") for p in payloads]
    data = [bytearray(nb) for _ in range(blocks - 2 * tau)]
    corrected: set[int] = set()
    for s in range(nb):
        word, positions = _rs_decode([row[s] for row in rows], 2 * tau)
        corrected.update(positions)
        for i, row in enumerate(data):
            row[s] = word[i]
    bad = damaged | corrected
    if len(bad) > tau:
        raise DecodeFailure(f"{len(bad)} corrupted blocks exceed the outer budget {tau}")
    joined = b"".join(data)
    return BitSeq(int.from_bytes(joined, "little"), 8 * len(joined)), corrected
