"""Outer Reed-Solomon layer over GF(256) for whole-block damage.

A message is cut into equal payload blocks: the groups of one trace
codeword, or the strands of a multi-strand set.  Byte s of every block forms
one Reed-Solomon lane with 2 * tau parity symbols, so a wholly corrupted
block costs each lane at most one symbol, any tau bad blocks are
recoverable, and the union of corrected positions over the lanes names the
bad blocks.  Both families reach the lanes through :func:`lanes`, which
holds the outer geometry's refusal and the outer decode's policy.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cache
from typing import Sequence

from .bitseq import BitSeq
from .blocks import DecodeRecord, ReconReport
from .errors import DecodeFailure, require_feasible

__all__ = ["Lanes", "lanes"]


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


def lanes(params, blocks: int, tau: int, payload_bits: int, extra: tuple[str, ...] = ()) -> Lanes:
    """The outer code of ``blocks`` payload blocks of ``payload_bits`` bits,
    2 * tau of them parity, over feasible inner ``params``.

    The outer geometry is refused as ``params`` violations: the family's
    ``extra`` ones, then ``outer-field-size`` when a lane outnumbers the
    nonzero locators of GF(256) and ``outer-symbol-size`` when a block holds
    no byte.  A tau outside ``0 <= 2 * tau < blocks`` raises ``ValueError``.
    A decode that builds its lanes first refuses both before reading a trace.
    """
    lane = ("outer-field-size",) * (blocks > 255) + ("outer-symbol-size",) * (payload_bits < 8)
    require_feasible(dataclasses.replace(params, violations=tuple(extra) + lane))
    if tau < 0 or 2 * tau >= blocks:
        raise ValueError(f"need 0 <= 2 * tau < {blocks}, the outer code length")
    return Lanes(blocks, tau, payload_bits)


@dataclass(frozen=True)
class Lanes:
    """Byte s of every block, bits 8s..8s+7, is one lane's symbol; bits past
    the last whole byte are zero."""

    blocks: int
    tau: int
    payload_bits: int

    @property
    def message_len(self) -> int:
        """Message bits carried by the blocks - 2 * tau data blocks."""
        return (self.blocks - 2 * self.tau) * 8 * (self.payload_bits // 8)

    def encode(self, m: BitSeq) -> list[BitSeq]:
        """The data blocks of ``m`` followed by 2 * tau parity blocks."""
        if len(m) != self.message_len:
            raise ValueError(f"message must have {self.message_len} bits, got {len(m)}")
        nb = self.payload_bits // 8
        data = range(self.blocks - 2 * self.tau)
        rows = [m.window_int(8 * nb * i, 8 * nb).to_bytes(nb, "little") for i in data]
        words = [_rs_encode([row[s] for row in rows], 2 * self.tau) for s in range(nb)]
        return [
            BitSeq(int.from_bytes(bytes(word[i] for word in words), "little"), self.payload_bits)
            for i in range(self.blocks)
        ]

    def decode(
        self, payloads: Sequence[BitSeq], report: ReconReport, record: DecodeRecord
    ) -> ReconReport:
        """``report`` with the corrected data bits as its message.

        The blocks ``record`` rejected are known bad.  More than tau bad
        blocks in all, known or corrected, raise DecodeFailure, as does a
        lane with more errors than its parity can locate.  Any correction
        makes the result unreliable.
        """
        nb = self.payload_bits // 8
        rows = [p.window_int(0, 8 * nb).to_bytes(nb, "little") for p in payloads]
        data = [bytearray(nb) for _ in range(self.blocks - 2 * self.tau)]
        corrected: set[int] = set()
        for s in range(nb):
            word, positions = _rs_decode([row[s] for row in rows], 2 * self.tau)
            corrected.update(positions)
            for i, row in enumerate(data):
                row[s] = word[i]
        bad = set(record.rejected) | corrected
        if len(bad) > self.tau:
            raise DecodeFailure(f"{len(bad)} corrupted blocks exceed the outer budget {self.tau}")
        joined = b"".join(data)
        message = BitSeq(int.from_bytes(joined, "little"), 8 * len(joined))
        return dataclasses.replace(report, message=message, reliable=report.reliable and not corrected)
