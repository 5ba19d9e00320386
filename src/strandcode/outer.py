"""Outer Reed-Solomon layer over GF(256) for whole-block damage.

A message is cut into equal payload blocks: the groups of one trace
codeword, or the strands of a multi-strand set.  Byte s of every block forms
one Reed-Solomon lane with 2 * tau parity symbols, so a wholly corrupted
block costs each lane at most one symbol, any tau bad blocks are
recoverable, and the union of corrected positions over the lanes names the
bad blocks.  Both families reach the lanes through :func:`lanes`, which
holds the outer geometry's refusal and the outer decode's policy.

The lanes are the columns of one uint8 array, one row per block, coded all
at once over GF(256) tables built at import (antilogs, logs, products and
inverses): one systematic division over the data rows encodes them, and a
decode takes every syndrome as sums of logs, then Berlekamp-Massey, the
roots at the word's positions, Forney and the syndrome recheck on the lanes
whose syndrome is nonzero.  No temporary outgrows 2^14 symbols or one per
lane and block, so 255 blocks at tau = 127 stay small.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cache
from typing import Sequence

import numpy as np

from .bitseq import BitSeq
from .blocks import DecodeRecord, ReconReport
from .errors import DecodeFailure, require_feasible

__all__ = ["Lanes", "lanes"]


# ---------------------------------------------------------------------------
# GF(256) tables and the lane-set Reed-Solomon codec


def _gf_tables() -> tuple[np.ndarray, ...]:
    """GF(256) over the primitive polynomial 0x11D: antilogs (alpha^i at i
    mod 255 below 510, zero from 510 on), logs (zero's is 510), products
    and inverses (zero's reads zero)."""
    exp = np.zeros(1024, dtype=np.uint8)
    x = 1
    for i in range(255):
        exp[i] = x
        x = (x << 1) ^ (0x11D if x & 0x80 else 0)
    exp[255:510] = exp[:255]
    log = np.full(256, 510, dtype=np.intp)
    log[exp[:255]] = np.arange(255)
    inv = exp[255 - log] * (log < 510)
    # row by row: one 512 KB index array would raise the process's mmap threshold
    return exp, log, np.stack([exp[log[a] + log] for a in range(256)]), inv


_EXP, _LOG, _MUL, _INV = _gf_tables()


def _evaluate(coeffs: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """``out[p, s]``: the polynomial in column s of ``coeffs``, highest
    degree first, at the nonzero ``xs[p]``.

    Sums of logs, a block of rows at a time, so a temporary holds at most
    2^14 symbols or one row of them per point."""
    deg, width = len(coeffs) - 1, coeffs.shape[1]
    out = np.zeros((len(xs), width), dtype=np.uint8)
    logs = _LOG[coeffs][:, None, :]
    powers = ((deg - np.arange(deg + 1))[:, None] * _LOG[xs] % 255)[:, :, None]
    step = max(1, 2**14 // max(1, len(xs) * width))
    for lo in range(0, deg + 1, step):
        out ^= np.bitwise_xor.reduce(_EXP[logs[lo : lo + step] + powers[lo : lo + step]], axis=0)
    return out


@cache
def _rs_generator(nsym: int) -> tuple[int, ...]:
    """Coefficients, highest degree first, of prod (x - alpha^i), i < nsym."""
    gen = [1]
    for i in range(nsym):
        gen = [a ^ int(_MUL[b, _EXP[i]]) for a, b in zip(gen + [0], [0] + gen)]
    return tuple(gen)


def _lane_encode(data: np.ndarray, nsym: int) -> np.ndarray:
    """Systematic encoding of every lane: column s of ``data`` (one row per
    data block) followed by its nsym parity symbols."""
    word = np.concatenate([data, np.zeros((nsym, data.shape[1]), dtype=np.uint8)])
    # long division of data * x^nsym by the monic generator leaves the parity
    gen = np.array(_rs_generator(nsym)[1:], dtype=np.uint8)[:, None]
    for i in range(len(data) if nsym else 0):
        word[i + 1 : i + 1 + nsym] ^= _MUL[gen, word[i]]
    word[: len(data)] = data
    return word


_FAILURES = (
    "too many symbol errors for the outer code",
    "outer code locator roots do not match its degree",
    "outer code correction leaves a nonzero syndrome",
)


def _lane_decode(words: np.ndarray, nsym: int) -> tuple[np.ndarray, np.ndarray]:
    """Correct up to nsym // 2 symbol errors in every lane, column s of
    ``words``; return the fixed words and the mask of corrected symbols.

    Only lanes with a nonzero syndrome are decoded: Berlekamp-Massey for the
    locator, roots tried at the word's own positions, magnitudes by Forney,
    and the corrected word must have zero syndromes.  The lowest lane that
    fails raises its DecodeFailure.
    """
    n = len(words)
    fixed, located = words.copy(), np.zeros(words.shape, dtype=bool)
    synd = _evaluate(words, _EXP[:nsym])
    dirty = np.flatnonzero(synd.any(axis=0))
    if not len(dirty):
        return fixed, located
    synd, width = synd[:, dirty], len(dirty)
    # Berlekamp-Massey for every lane's locator, lowest degree first, with
    # step = x^m * prev / b; degrees stay within l_count <= nsym, so nsym + 1
    # rows hold both
    top = np.zeros((1, width), dtype=np.uint8)
    lam = np.concatenate([top + 1, np.zeros((nsym, width), dtype=np.uint8)])
    step = np.concatenate([top, lam[:-1]])
    l_count = np.zeros(width, dtype=int)
    for i in range(nsym):
        delta = np.bitwise_xor.reduce(_MUL[lam[: i + 1], synd[i::-1]], axis=0)
        grow = (delta > 0) & (l_count <= i // 2)
        lam, step = lam ^ _MUL[delta, step], np.where(grow, _MUL[lam, _INV[delta]], step)
        l_count = np.where(grow, i + 1 - l_count, l_count)
        step = np.concatenate([top, step[:-1]])
    # position p has location X = alpha^(n-1-p); its error makes X^-1 a root.
    # Forney: Omega = S * Lambda mod x^nsym, e = X * Omega(X^-1) / Lambda'(X^-1);
    # in characteristic 2, x * Lambda'(x) is the odd part of Lambda, so
    # e = Omega(X^-1) / odd(X^-1).  The roots are simple, so it does not vanish.
    omega = np.zeros((nsym + 1, width), dtype=np.uint8)
    for j in range(nsym):
        omega[j:nsym] ^= _MUL[lam[j], synd[: nsym - j]]
    odd_rows = (np.arange(nsym + 1) % 2 == 1)[:, None]
    parts = np.concatenate([lam * ~odd_rows, lam * odd_rows, omega], axis=1)
    even, odd, at = np.split(_evaluate(parts[::-1], _EXP[255 - (n - 1 - np.arange(n))]), 3, axis=1)
    roots = even == odd
    lane_fixed = words[:, dirty] ^ np.where(roots, _MUL[at, _INV[odd]], 0)
    fails = np.stack([
        2 * l_count > nsym,
        roots.sum(axis=0) != l_count,
        _evaluate(lane_fixed, _EXP[:nsym]).any(axis=0),
    ])
    failed = fails.any(axis=0)
    if failed.any():
        first = int(np.argmax(failed))
        raise DecodeFailure(_FAILURES[int(np.argmax(fails[:, first]))])
    fixed[:, dirty], located[:, dirty] = lane_fixed, roots
    return fixed, located


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
        data = np.frombuffer(m.value.to_bytes(len(m) // 8, "little"), dtype=np.uint8)
        words = _lane_encode(data.reshape(self.blocks - 2 * self.tau, -1), 2 * self.tau)
        return [BitSeq(int.from_bytes(row.tobytes(), "little"), self.payload_bits) for row in words]

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
        rows = b"".join(p.window_int(0, 8 * nb).to_bytes(nb, "little") for p in payloads)
        words = np.frombuffer(rows, dtype=np.uint8).reshape(len(payloads), nb)
        fixed, located = _lane_decode(words, 2 * self.tau)
        corrected = set(np.flatnonzero(located.any(axis=1)).tolist())
        bad = set(record.rejected) | corrected
        if len(bad) > self.tau:
            raise DecodeFailure(f"{len(bad)} corrupted blocks exceed the outer budget {self.tau}")
        joined = fixed[: self.blocks - 2 * self.tau].tobytes()
        message = BitSeq(int.from_bytes(joined, "little"), 8 * len(joined))
        return dataclasses.replace(report, message=message, reliable=report.reliable and not corrected)
