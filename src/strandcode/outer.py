"""Outer Reed-Solomon layer over GF(256) for whole-block damage.

A message is cut into equal payload blocks: the groups of one trace
codeword, or the strands of a multi-strand set.  Byte s of every block forms
one Reed-Solomon lane with 2 * tau parity symbols, so a wholly corrupted
block costs each lane at most one symbol, any tau bad blocks are
recoverable, and the union of corrected positions over the lanes names the
bad blocks.
"""

from __future__ import annotations

from typing import Sequence

from .bitseq import BitSeq
from .errors import DecodeFailure, InfeasibleParameters

__all__ = ["lane_message_len", "lane_encode", "lane_decode"]


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


def _rs_encode(data: list[int], nsym: int) -> list[int]:
    """Systematic encoding: return data followed by nsym parity symbols."""
    if nsym == 0:
        return list(data)
    gen = [1]
    for i in range(nsym):
        nxt = [0] * (len(gen) + 1)
        for j, g in enumerate(gen):
            nxt[j] ^= _gf_mul(g, _GF_EXP[i])
            nxt[j + 1] ^= g
        gen = nxt
    # synthetic division of data * x^nsym by the (monic) generator
    rem = [0] * nsym
    for d in data:
        factor = d ^ rem[-1]
        rem = [0] + rem[:-1]
        if factor:
            for j in range(nsym):
                rem[j] ^= _gf_mul(gen[j], factor)
    return list(data) + rem[::-1]


def _rs_syndromes(word: list[int], nsym: int) -> list[int]:
    n = len(word)
    # word[j] is the coefficient of x^(n-1-j)
    return [_poly_eval(word[::-1], _GF_EXP[i]) for i in range(nsym)]


def _rs_decode(word: list[int], nsym: int) -> tuple[list[int], list[int]]:
    """Correct up to nsym // 2 symbol errors; return (fixed, error positions).

    Locator from Berlekamp-Massey, roots by scanning the field, magnitudes by
    solving the syndrome equations directly and checking every equation.
    """
    n = len(word)
    synd = _rs_syndromes(word, nsym)
    if not any(synd):
        return list(word), []
    # Berlekamp-Massey for the error locator (lowest degree first)
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
    # roots of the locator give the error location values X = alpha^(n-1-pos)
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
    # solve for magnitudes: synd[i] = sum_k e_k X_k^i
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


def _zip_pad(a: list[int], b: list[int]):
    la, lb = len(a), len(b)
    if la < lb:
        a = a + [0] * (lb - la)
    elif lb < la:
        b = b + [0] * (la - lb)
    return zip(a, b)


def _gf_pow(a: int, p: int) -> int:
    if a == 0:
        return 0 if p else 1
    return _GF_EXP[(_GF_LOG[a] * p) % 255]


def _solve_vandermonde(xs: list[int], rhs: list[int]) -> list[int]:
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


# ---------------------------------------------------------------------------
# Lanes across payload blocks


def _lane_bytes(blocks: int, tau: int, payload_bits: int) -> int:
    """Outer symbols per block for ``blocks`` payload blocks of
    ``payload_bits`` bits, 2 * tau of them parity; checks the geometry."""
    if tau < 0 or 2 * tau >= blocks:
        raise ValueError(f"need 0 <= 2 * tau < {blocks}, the outer code length")
    if blocks > 255:
        raise InfeasibleParameters(f"outer code length {blocks} exceeds the field size")
    if payload_bits < 8:
        raise InfeasibleParameters("block payload too small for one outer symbol")
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
