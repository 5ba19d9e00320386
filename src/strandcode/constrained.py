"""Constrained binary codecs: shift-detecting markers, window-difference
encoding, and invertible encoders into weight-limited sequences.

The weight-limited encoders are enumerative: the set of strings whose every
length-``w`` window carries at least ``d`` ones is a regular language, so we
count it with an automaton over "ages of the most recent ones" and map
message integers to constrained strings by unranking.  This gives exact,
deterministic, worst-case-invertible encoders for any window size.  Wide
windows fall back to an equivalent automaton over a stronger run-length
constraint (no ``floor(w/d)`` consecutive zeros) to keep the state space
small; the output then still satisfies the requested window constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .bitseq import BitSeq

__all__ = [
    "auto_cyclic",
    "ceil_log2",
    "enc_dist",
    "apply_dist",
    "ConstrainedCodec",
    "wwl_encode",
    "wwl_decode",
    "wwl_capacity",
    "index_wwl",
    "index_wwl_decode",
    "index_wwl_len",
]


# ----------------------------------------------------------------------
# shift-detecting marker


def auto_cyclic(d: int) -> BitSeq:
    """Marker sequence that cannot be mistaken for a zero-shifted copy of
    itself.

    For every shift ``1 <= i <= d``, prepending ``i`` zeros and truncating
    yields a string at Hamming distance at least ``d`` from the original.
    The sequence is ``1^d`` followed by ceil(log d) + 1 pieces, where piece
    ``i`` is the first ``d`` symbols of the periodic pattern
    ``1^(2^i) 0^(2^i)`` repeated.  Total length is ``d*ceil(log d) + 2d``.
    """
    if d < 1:
        raise ValueError("d must be positive")
    pieces = [BitSeq.ones(d)]
    top = ceil_log2(d)
    for i in range(top + 1):
        half = 1 << i
        pattern = (([1] * half) + ([0] * half)) * d
        pieces.append(BitSeq.from_bits(pattern[:d]))
    out = pieces[0]
    for p in pieces[1:]:
        out = out + p
    return out


def ceil_log2(x: int) -> int:
    if x < 1:
        raise ValueError("log of non-positive value")
    return (x - 1).bit_length()


# ----------------------------------------------------------------------
# window-difference codec


def enc_dist(x: BitSeq, y: BitSeq, L: int, rho: int) -> BitSeq:
    """Fixed-width encoding of where two length-L windows differ.

    Differing positions are recorded 1-based, each in ``ceil(log(L+1))``
    bits, least significant bit first, followed by all-zero filler blocks up
    to ``rho`` blocks total.  Zero is not a valid position, so the filler is
    unambiguous.  Requires ``d_H(x, y) <= rho``.
    """
    if len(x) != L or len(y) != L:
        raise ValueError("both windows must have length L")
    field = ceil_log2(L + 1)
    diff = x.value ^ y.value
    positions = []
    while diff:
        low = diff & -diff
        positions.append(low.bit_length())  # 1-based position
        diff ^= low
    if len(positions) > rho:
        raise ValueError(f"windows differ in {len(positions)} > rho={rho} positions")
    out = BitSeq.zeros(0)
    for p in positions:
        out = out + BitSeq.from_int(p, field)
    out = out + BitSeq.zeros((rho - len(positions)) * field)
    return out


def apply_dist(x: BitSeq, diff: BitSeq, L: int, rho: int) -> BitSeq:
    """Invert :func:`enc_dist`: recover the second window from the first."""
    if len(x) != L:
        raise ValueError("window must have length L")
    field = ceil_log2(L + 1)
    if len(diff) != rho * field:
        raise ValueError(f"difference record must have length {rho * field}")
    val = x.value
    for k in range(rho):
        p = diff.window_int(k * field, field)
        if p == 0:
            break
        if p > L:
            raise ValueError(f"difference position {p} outside window of length {L}")
        val ^= 1 << (p - 1)
    return BitSeq(val, L)


# ----------------------------------------------------------------------
# enumerative weight-limited codec


class _WwlAutomaton:
    """Automaton accepting strings whose every length-``w`` window has
    weight at least ``d``.

    State is the tuple of ages of the ``d`` most recent ones (strictly
    increasing, capped at ``w`` meaning expired).  The initial state
    pretends the string is preceded by ones, which never helps a real
    window, so the accepted language is exactly the window constraint.
    """

    def __init__(self, window: int, floor: int):
        if floor < 1 or window < floor:
            raise ValueError(f"no binary string satisfies window {window} weight {floor}")
        self.window = window
        self.floor = floor
        init = tuple(range(floor))
        states: dict[tuple, int] = {init: 0}
        todo = [init]
        while todo:
            s = todo.pop()
            for b in (0, 1):
                t = self._step(s, b)
                if t is not None and t not in states:
                    states[t] = len(states)
                    todo.append(t)
        self.n_states = len(states)
        self.init_id = states[init]
        self.t0 = [-1] * self.n_states
        self.t1 = [-1] * self.n_states
        for s, sid in states.items():
            for b, table in ((0, self.t0), (1, self.t1)):
                t = self._step(s, b)
                table[sid] = -1 if t is None else states[t]

    def _step(self, s: tuple, b: int):
        w, d = self.window, self.floor
        aged = [min(a + 1, w) for a in s]
        if b:
            aged = [0] + aged[: d - 1]
        if aged[-1] >= w:
            return None
        return tuple(aged)


@lru_cache(maxsize=64)
def _automaton(window: int, floor: int) -> _WwlAutomaton:
    return _WwlAutomaton(window, floor)


@lru_cache(maxsize=128)
def _count_table(window: int, floor: int, length: int) -> list[list[int]]:
    """counts[s][r] = number of valid length-r continuations from state s."""
    auto = _automaton(window, floor)
    counts = [[1] * auto.n_states]
    for _ in range(length):
        prev = counts[-1]
        row = []
        for s in range(auto.n_states):
            total = 0
            if auto.t0[s] >= 0:
                total += prev[auto.t0[s]]
            if auto.t1[s] >= 0:
                total += prev[auto.t1[s]]
            row.append(total)
        counts.append(row)
    # counts[r][s]; re-index to [s][r] for locality
    return [[counts[r][s] for r in range(length + 1)] for s in range(auto.n_states)]


_STATE_BUDGET = 4000


def _pick_constraint(window: int, floor: int) -> tuple[int, int]:
    """Choose the automaton constraint implementing a (window, floor) demand.

    Returns the (window, floor) actually enforced: the exact constraint when
    its automaton is small, otherwise the stronger run-length constraint
    (floor(window/floor), 1), which implies the requested one.
    """
    if comb(window + 1, floor) <= _STATE_BUDGET:
        return window, floor
    m = window // floor
    if m < 2:
        raise ValueError(
            f"window {window} with floor {floor} too dense for the run-length fallback"
        )
    return m, 1


@dataclass(frozen=True)
class ConstrainedCodec:
    """Invertible map from message bit strings into weight-limited strings.

    ``n_out`` output symbols in chunks of at most ``chunk`` symbols; each
    chunk carries an integer unranked against the constraint automaton,
    threading the automaton state across chunk boundaries.  ``msg_len`` is
    the exact number of message bits; the redundancy ``n_out - msg_len`` is
    a deterministic function of the parameters.
    """

    window: int
    floor: int
    n_out: int
    chunk: int = 512

    def __post_init__(self):
        cw, cf = _pick_constraint(self.window, self.floor)
        object.__setattr__(self, "_cw", cw)
        object.__setattr__(self, "_cf", cf)

    @property
    def chunk_lengths(self) -> list[int]:
        full, rem = divmod(self.n_out, self.chunk)
        out = [self.chunk] * full
        if rem:
            out.append(rem)
        return out

    def _caps(self) -> list[int]:
        caps = []
        auto = _automaton(self._cw, self._cf)
        worst: dict[int, int] = {}
        for k, B in enumerate(self.chunk_lengths):
            table = _count_table(self._cw, self._cf, B)
            if k == 0:
                c = table[auto.init_id][B]
            else:
                if B not in worst:
                    worst[B] = min(table[s][B] for s in range(auto.n_states))
                c = worst[B]
            caps.append(max(0, c.bit_length() - 1))
        return caps

    @property
    def msg_len(self) -> int:
        return sum(self._caps())

    def count(self, length: int) -> int:
        """Number of valid strings of ``length`` symbols under the enforced
        constraint (the run-length weakening when the window is wide)."""
        auto = _automaton(self._cw, self._cf)
        return _count_table(self._cw, self._cf, length)[auto.init_id][length]

    def capacity_from_start(self, length: int) -> int:
        """log2 of the number of valid strings of ``length`` symbols."""
        return self.count(length).bit_length() - 1

    def unrank_from_start(self, index: int, length: int) -> BitSeq:
        """Map an integer below ``count(length)`` to a valid string."""
        auto = _automaton(self._cw, self._cf)
        piece, _ = self._unrank(index, length, auto.init_id)
        return piece

    def rank_from_start(self, piece: BitSeq) -> int:
        auto = _automaton(self._cw, self._cf)
        index, _ = self._rank(piece, auto.init_id)
        return index

    def encode(self, msg: BitSeq) -> BitSeq:
        if len(msg) != self.msg_len:
            raise ValueError(f"message must have {self.msg_len} bits, got {len(msg)}")
        auto = _automaton(self._cw, self._cf)
        caps = self._caps()
        state = auto.init_id
        out = BitSeq.zeros(0)
        pos = 0
        for B, cap in zip(self.chunk_lengths, caps):
            index = msg.window_int(pos, cap)
            pos += cap
            piece, state = self._unrank(index, B, state)
            out = out + piece
        return out

    def decode(self, x: BitSeq) -> BitSeq:
        if len(x) != self.n_out:
            raise ValueError(f"expected {self.n_out} symbols, got {len(x)}")
        auto = _automaton(self._cw, self._cf)
        caps = self._caps()
        state = auto.init_id
        out = BitSeq.zeros(0)
        pos = 0
        for B, cap in zip(self.chunk_lengths, caps):
            index, state = self._rank(x.window(pos, B), state)
            if index >> cap:
                raise ValueError("constrained string outside the message range")
            pos += B
            out = out + BitSeq.from_int(index, cap)
        return out

    def decode_prefix(self, x: BitSeq, nbits: int) -> BitSeq:
        """Decode only the message bits carried by the first ``nbits``
        whole chunks' worth of output symbols."""
        auto = _automaton(self._cw, self._cf)
        caps = self._caps()
        state = auto.init_id
        out = BitSeq.zeros(0)
        pos = 0
        for B, cap in zip(self.chunk_lengths, caps):
            if pos + B > nbits:
                break
            index, state = self._rank(x.window(pos, B), state)
            pos += B
            out = out + BitSeq.from_int(index, cap)
        return out

    def _unrank(self, index: int, length: int, state: int) -> tuple[BitSeq, int]:
        auto = _automaton(self._cw, self._cf)
        table = _count_table(self._cw, self._cf, length)
        val = 0
        for t in range(length):
            rest = length - t - 1
            s0 = auto.t0[state]
            zero_count = table[s0][rest] if s0 >= 0 else 0
            if index < zero_count:
                state = s0
            else:
                index -= zero_count
                val |= 1 << t
                state = auto.t1[state]
        if index:
            raise ValueError("message index exceeds the constrained count")
        return BitSeq(val, length), state

    def _rank(self, piece: BitSeq, state: int) -> tuple[int, int]:
        auto = _automaton(self._cw, self._cf)
        length = len(piece)
        table = _count_table(self._cw, self._cf, length)
        index = 0
        for t in range(length):
            rest = length - t - 1
            s0 = auto.t0[state]
            if piece[t]:
                if s0 >= 0:
                    index += table[s0][rest]
                state = auto.t1[state]
            else:
                state = s0
            if state < 0:
                raise ValueError(f"window weight constraint violated at symbol {t}")
        return index, state


def wwl_capacity(n_out: int, K: int, d: int, chunk: int = 512) -> int:
    """Message bits carried by :func:`wwl_encode` at these parameters."""
    return ConstrainedCodec(K, d, n_out, chunk).msg_len


def wwl_encode(msg: BitSeq, K: int, d: int, n_out: int, chunk: int = 512) -> BitSeq:
    """Encode ``msg`` into a length-``n_out`` string whose every length-``K``
    window has weight at least ``d``.

    ``msg`` must have exactly ``wwl_capacity(n_out, K, d)`` bits.  The map is
    a bijection onto an initial segment of the constrained strings, so it is
    invertible for every input including all-zeros.
    """
    return ConstrainedCodec(K, d, n_out, chunk).encode(msg)


def wwl_decode(x: BitSeq, K: int, d: int, chunk: int = 512) -> BitSeq:
    return ConstrainedCodec(K, d, len(x), chunk).decode(x)


# ----------------------------------------------------------------------
# weight-limited index fields


@lru_cache(maxsize=64)
def _index_codec(n: int, d: int) -> tuple[int, ConstrainedCodec]:
    """Field length and codec carrying ``n`` distinct weight-limited indices."""
    c = ceil_log2(n)
    llog = ceil_log2(c)
    window = d * llog
    length = c + d
    codec = ConstrainedCodec(window, d, length)
    count = codec.count(length)
    if count < n:
        raise ValueError(
            f"cannot embed {n} indices in weight-limited fields of {length} bits "
            f"(only {count} satisfy the ({window}, {d}) window constraint)"
        )
    return length, codec


def index_wwl_len(n: int, d: int) -> int:
    """Length of the index field: ceil(log n) + d."""
    return _index_codec(n, d)[0]


def index_wwl(i: int, n: int, d: int) -> BitSeq:
    """Injective map of ``i < n`` into a field of ``ceil(log n) + d`` bits
    whose every length-``d*ceil(log ceil(log n))`` window has weight >= d.

    The field never contains a zero run long enough to be confused with the
    marker patterns used by the duplicate-removal encoder.
    """
    if not 0 <= i < n:
        raise ValueError(f"index {i} outside [0, {n})")
    length, codec = _index_codec(n, d)
    return codec.unrank_from_start(i, length)


def index_wwl_decode(field: BitSeq, n: int, d: int) -> int:
    length, codec = _index_codec(n, d)
    if len(field) != length:
        raise ValueError(f"index field must have {length} bits")
    index = codec.rank_from_start(field)
    if index >= n:
        raise ValueError(f"decoded index {index} outside [0, {n})")
    return index
