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

Every reader works on one count table per (window, floor, length), built
once by :func:`_counts`: the number of valid continuations of each length
from each state, held as an object array, with the batch walk's int64
copy where the counts fit and the one-word walk's per-state rows of the
array's own integers beside it.  Unranking walks the automaton one symbol
at a time on it.  Ranking is a gather:
the state before a symbol is the tuple of ages of the ``d`` most recent
ones, so with ``d`` ones standing before each word for the initial state,
the state before every 1 follows from the positions of the ``d`` ones
before it.  A lookup table turns those ages into the state a 0 would have
led to, and a chunk's index is the sum, over its 1s, of that state's count
of continuations, read in one object-array gather from the count table.
The state dies exactly where some window ends with fewer than ``d`` ones,
which the gaps between every ``d``-th one show.  A batch of equal-length
words is ranked in one pass.

:func:`codec`, one cache, is the only constructor of a codec: the trace and
γ=0 payloads and tails, the SD inner word, its index fields and the
scaffold pieces all come from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb

import numpy as np

from .bitseq import BitSeq

__all__ = [
    "auto_cyclic",
    "ceil_log2",
    "enc_dist",
    "apply_dist",
    "ConstrainedCodec",
    "codec",
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
        self.states = states
        self.n_states = len(states)
        self.init_id = states[init]
        self.t0 = [-1] * self.n_states
        self.t1 = [-1] * self.n_states
        for s, sid in states.items():
            for b, table in ((0, self.t0), (1, self.t1)):
                t = self._step(s, b)
                table[sid] = -1 if t is None else states[t]
        # The steps as arrays: a dead step goes to ``n_states``, the zero
        # column of every count table.  A 1 never kills a state.
        self.step0 = np.array([self.n_states if t < 0 else t for t in self.t0])
        self.step1 = np.array(self.t1)
        # The rank keys.  The ages ``a_0 < ... < a_(d-1)`` of a state are a
        # ``d``-subset of ``range(w)``, so ``sum(binom[i, a_i])`` with
        # ``binom[i, a] = C(a, i + 1)`` numbers it densely below ``C(w, d)``
        # (the combinatorial number system), and ``after0[key]`` is the
        # step on a 0 from the state with that key.  Every such subset is a
        # reachable state.
        self.binom = np.array(
            [[comb(a, i + 1) for a in range(window)] for i in range(floor)], dtype=np.int32
        )
        self.after0 = np.full(comb(window, floor), self.n_states, dtype=np.int32)
        self.after0[[sum(comb(a, i + 1) for i, a in enumerate(s)) for s in states]] = self.step0

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


@dataclass(frozen=True)
class _Counts:
    """One automaton's counts of valid continuations up to one length, in
    the three views their readers take.

    ``array[r, s]`` is the number of valid length-r continuations from
    state s: a read-only object array, with a zero column ``n_states`` for
    a dead step, that the rank gathers from and the capacities read.
    ``words`` is that array in int64 when every count fits, else the array
    itself: the table of the batch walk.  ``zero_rows[s]`` is the array's
    column of the state a 0 leads s to, as a list holding the array's own
    integers: the table the one-word walk reads, one list lookup per
    symbol: 131,072 random lookups took 20 ms from the lists against
    36–60 ms from the array.
    """

    array: np.ndarray
    words: np.ndarray
    zero_rows: list[list[int]]


@lru_cache(maxsize=128)
def _counts(window: int, floor: int, length: int) -> _Counts:
    """The count table of the (window, floor) automaton up to ``length``.

    Each row is one object-array step, row[step0] + row[step1].  No row
    depends on ``length``, so a shorter table is a prefix of a longer one.
    A 1 never kills a state, so no count falls as the length grows and the
    last row holds the largest.
    """
    auto = _automaton(window, floor)
    t0, t1 = auto.step0, auto.step1
    array = np.zeros((length + 1, auto.n_states + 1), dtype=object)
    array[0, :-1] = 1
    for r in range(length):
        array[r + 1, :-1] = array[r][t0] + array[r][t1]
    words = array if max(array[-1]) >> 63 else array.astype(np.int64)
    array.flags.writeable = words.flags.writeable = False
    columns = array.T.tolist()
    return _Counts(array, words, [columns[t] for t in t0.tolist()])


_STATE_BUDGET = 4000
# ones ranked per numpy pass: 8192 positions make 64 KB temporaries
_SLICE = 8192


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
    a deterministic function of the parameters.  Every chunk reads a prefix
    of one count table, a :class:`_Counts` built at the longest chunk, and
    each reader takes the view it needs.

    Encoding unranks a batch of messages in one numpy step per symbol, each
    row from its own state, on the table's ``words``, in int64 when its
    counts fit (as for the γ=0 payloads and the scaffold pieces).  One
    :class:`BitSeq`, as the SD inner codec's 256 chained chunks or a trace
    group, is walked symbol by symbol in Python (:meth:`_unrank`), which is
    faster for one row: every chunk into one bytearray, one count lookup
    per symbol in the table's ``zero_rows``, and one :class:`BitSeq` at the
    end.  On a 2-core x86-64 host (Python 3.11) that is about 210 ns a
    symbol on the (15, 3) 512-symbol table and 125 ns on an n=8640 trace
    group, against 320 and 225 ns for a walk that built and joined one
    :class:`BitSeq` per chunk.
    Decoding ranks a whole batch of words at once: the state before each 1
    is read off the positions of the ``d`` ones before it, and a chunk's
    index is the sum of its 1s' counts, gathered from the table's
    ``array`` in one object-array step.
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

    def _counts_at(self, length: int) -> _Counts:
        # the codec's one table, at its longest chunk, covers shorter lengths
        return _counts(self._cw, self._cf, max(length, min(self.chunk, self.n_out)))

    @cached_property
    def _caps(self) -> tuple[int, ...]:
        # the first chunk starts in the initial state, a later one in any
        array, lengths = self._counts_at(0).array, self.chunk_lengths
        worst = {B: array[B, :-1].min() for B in set(lengths[1:])}
        init = _automaton(self._cw, self._cf).init_id
        counts = [array[B, init] if k == 0 else worst[B] for k, B in enumerate(lengths)]
        return tuple(max(0, c.bit_length() - 1) for c in counts)

    @property
    def msg_len(self) -> int:
        return sum(self._caps)

    def count(self, length: int) -> int:
        """Number of valid strings of ``length`` symbols under the enforced
        constraint (the run-length weakening when the window is wide)."""
        auto = _automaton(self._cw, self._cf)
        return self._counts_at(length).array[length, auto.init_id]

    def unrank_from_start(self, index, length: int) -> BitSeq | np.ndarray:
        """Map an integer below ``count(length)`` to a valid string, or a
        sequence of m such integers to the rows of an (m, length) array."""
        init = _automaton(self._cw, self._cf).init_id
        scalar = np.ndim(index) == 0
        count = self.count(length)
        if not all(0 <= i < count for i in ([index] if scalar else index)):
            raise ValueError("message index exceeds the constrained count")
        if scalar:
            return self._unrank([(index, length)], init)[0]
        out = np.empty((len(index), length), dtype=np.uint8)
        dtype = self._counts_at(length).words.dtype
        self._walk(np.array(index, dtype=dtype), np.full(len(index), init), out)
        return out

    def rank_from_start(self, piece: BitSeq) -> int:
        """Invert :meth:`unrank_from_start`: ``piece`` is ranked as one chunk."""
        length = len(piece)
        index, dead = self._ranks(piece.to_numpy()[None], max(length, 1))
        if dead[0] < length:
            raise ValueError(f"window weight constraint violated at symbol {dead[0]}")
        return sum(index[0])  # one chunk, or none for the empty piece

    def encode(self, msg: BitSeq | np.ndarray) -> BitSeq | np.ndarray:
        """Unrank messages into words.

        ``msg`` is one message, a :class:`BitSeq`, which returns its word,
        or a batch of messages, an ``(m, msg_len)`` 0/1 array, which returns
        the ``(m, n_out)`` uint8 array of their words.  Each chunk carries
        the next ``cap`` message bits, the first one lowest.
        """
        init = _automaton(self._cw, self._cf).init_id
        chunks = zip(self.chunk_lengths, self._caps)
        if isinstance(msg, BitSeq):
            if len(msg) != self.msg_len:
                raise ValueError(f"message must have {self.msg_len} bits, got {len(msg)}")
            # every index from its own byte slice of one copy of the message,
            # so cutting them all is linear in the message length
            raw, pieces, pos = msg.value.to_bytes(-(-len(msg) // 8), "little"), [], 0
            for B, cap in chunks:
                window = int.from_bytes(raw[pos >> 3 : (pos + cap + 7) >> 3], "little")
                pieces.append(((window >> (pos & 7)) & ((1 << cap) - 1), B))
                pos += cap
            return self._unrank(pieces, init)[0]
        if msg.ndim != 2 or msg.shape[1] != self.msg_len:
            raise ValueError(f"expected rows of {self.msg_len} bits, got shape {msg.shape}")
        words = np.empty((len(msg), self.n_out), dtype=np.uint8)
        state, pos, at = np.full(len(msg), init), 0, 0
        dtype = self._counts_at(0).words.dtype
        for B, cap in chunks:  # 2^cap is at most a count, so fits the table's dtype
            weights = np.array([1 << j for j in range(cap)], dtype=dtype)
            index = msg[:, pos : pos + cap].astype(dtype) @ weights
            state = self._walk(index, state, words[:, at : at + B])
            pos, at = pos + cap, at + B
        return words

    def decode(self, x: BitSeq | np.ndarray) -> BitSeq | list[BitSeq | ValueError]:
        """Rank words back to their messages.

        ``x`` is one word, a :class:`BitSeq`, or a batch of words, an
        ``(m, n_out)`` 0/1 array.  A batch gives one entry per row: its
        message, or the ``ValueError`` naming the first chunk where the row
        leaves the code, by symbol within that chunk or by an index at or
        above the chunk's capacity.  One word returns its message or
        raises that error.
        """
        if isinstance(x, BitSeq):
            if len(x) != self.n_out:
                raise ValueError(f"expected {self.n_out} symbols, got {len(x)}")
            (out,) = self.decode(x.to_numpy()[None])
            if isinstance(out, ValueError):
                raise out
            return out
        if x.ndim != 2 or x.shape[1] != self.n_out:
            raise ValueError(f"expected rows of {self.n_out} symbols, got shape {x.shape}")
        if not len(x):
            return []
        index, dead = self._ranks(x, self.chunk)
        caps = self._caps
        # a chunk's index is exact only before the chunk its row dies in
        first_dead = np.where(dead < self.n_out, dead // self.chunk, len(caps))
        over = (index >> np.array(caps, dtype=object)).astype(bool)
        over &= np.arange(len(caps)) < first_dead[:, None]
        offsets, msg_len = np.cumsum((0,) + caps[:-1]).tolist(), sum(caps)
        out: list[BitSeq | ValueError] = []
        for row, t, bad in zip(index.tolist(), dead.tolist(), over.any(axis=1).tolist()):
            if bad:
                out.append(ValueError("constrained string outside the message range"))
            elif t < self.n_out:
                out.append(
                    ValueError(f"window weight constraint violated at symbol {t % self.chunk}")
                )
            else:
                val = 0
                for chunk_index, at in zip(row, offsets):
                    val |= chunk_index << at
                out.append(BitSeq(val, msg_len))
        return out

    def _ranks(self, rows: np.ndarray, chunk: int) -> tuple[np.ndarray, np.ndarray]:
        """Rank every row of ``rows`` in chunks of ``chunk`` symbols.

        Returns ``index``, an (m, chunks) object array of chunk indices, and
        ``dead``, the first symbol of each row whose step leaves the
        automaton (the row length where none does).  Each chunk is ranked
        from the state the earlier ones leave, so ``index`` is exact up to
        the chunk holding ``dead``.
        """
        w, d = self._cw, self._cf
        m, n = rows.shape
        n_chunks = -(-n // chunk)
        counts = self._counts_at(min(chunk, n)).array
        auto = _automaton(w, d)
        binom, after0 = auto.binom, auto.after0
        # The rows laid end to end, each behind d ones that stand for the
        # initial state, and one more 1 behind the last: the d ones before
        # any symbol lie in its own row, so the rows never mix.
        width = d + n
        ext = np.ones(m * width + 1, dtype=np.uint8)
        ext[:-1].reshape(m, width)[:, d:] = rows
        at = np.flatnonzero(ext)
        index = np.zeros(m * n_chunks, dtype=object)
        dead = np.full(m, n)
        # slices of ones keep every temporary small
        for lo in range(d, len(at), _SLICE):
            cur = at[lo : lo + _SLICE]
            prev = [at[lo - i : lo - i + len(cur)] for i in range(1, d + 1)]
            row, t = np.divmod(cur, width)
            t -= d
            # between the d-th most recent one and the next, the state dies
            # w symbols after the former, if that comes first
            dies = np.maximum(prev[0], prev[-1] + w)
            hit = dies < cur
            if hit.any():
                died_row, died_at = np.divmod(dies[hit], width)
                died_at -= d
                # a death among the leading ones follows one earlier in its row
                np.minimum.at(dead, died_row[died_at >= 0], died_at[died_at >= 0])
            # the state before each real 1, keyed by the ages of the d ones
            # before it; a dead state's ages are capped into range, and its
            # term falls in a chunk the caller does not trust
            key = 0
            for i in range(d):
                age = cur - 1 - prev[i]
                key = key + binom[i][np.minimum(age, w - d + i, out=age)]
            c = t // chunk
            rest = np.minimum((c + 1) * chunk, n) - 1 - t
            real = t >= 0
            terms = counts.ravel().take((rest * counts.shape[1] + after0[key])[real])
            group = (row * n_chunks + c)[real]
            if len(group):
                edge = np.ones(len(group), dtype=bool)
                np.not_equal(group[1:], group[:-1], out=edge[1:])
                starts = np.flatnonzero(edge)
                index[group[starts]] += np.add.reduceat(terms, starts)
        return index.reshape(m, n_chunks), dead

    def _walk(self, index: np.ndarray, state: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Unrank ``index[i]`` from ``state[i]`` into row i of ``out``, every
        row in one numpy step per symbol, and return the states after.
        Each index must be below its state's count of ``out``'s width."""
        auto = _automaton(self._cw, self._cf)
        t0, t1 = auto.step0, auto.step1
        length = out.shape[1]
        counts = self._counts_at(length).words
        for t in range(length):
            s0 = t0[state]
            zero = counts[length - 1 - t].take(s0)  # a dead step has no continuations
            one = index >= zero
            index = index - np.where(one, zero, 0)
            state = np.where(one, t1[state], s0)
            out[:, t] = one
        return state

    def _unrank(self, pieces: list[tuple[int, int]], state: int) -> tuple[BitSeq, int]:
        """Unrank each ``(index, length)`` of ``pieces`` from the state the
        piece before left (the first from ``state``) into one word, and
        return the word and the state after it.

        A symbol is one lookup in the table's ``zero_rows``, the count of
        continuations after a 0, and one comparison; a 1 also subtracts
        that count.  ``rest`` counts a piece's symbols left down.  The 1s
        go into one bytearray holding the word's text last symbol first,
        where ``after`` is the number of the word's symbols after the
        piece, so the word's integer is one ``int(buf, 2)``.
        """
        auto = _automaton(self._cw, self._cf)
        t0, t1 = auto.t0, auto.t1
        lengths = [length for _, length in pieces]
        n = sum(lengths)
        rows = self._counts_at(max(lengths, default=0)).zero_rows
        buf = bytearray(b"0") * n
        after = n
        for index, length in pieces:
            after -= length
            for rest in range(length - 1, -1, -1):
                zero = rows[state][rest]
                if index < zero:
                    state = t0[state]
                else:
                    index -= zero
                    buf[after + rest] = 49  # ord("1")
                    state = t1[state]
            if index:
                raise ValueError("message index exceeds the constrained count")
        return BitSeq(int(buf, 2) if n else 0, n), state


@lru_cache(maxsize=None)
def codec(window: int, floor: int, n_out: int, chunk: int = 512) -> ConstrainedCodec:
    """The package's one :class:`ConstrainedCodec` at these parameters,
    built once and shared by every code that asks for it."""
    return ConstrainedCodec(window, floor, n_out, chunk)


# ----------------------------------------------------------------------
# weight-limited index fields


def _index_codec(n: int, d: int) -> tuple[int, ConstrainedCodec]:
    """Field length and codec carrying ``n`` distinct weight-limited indices."""
    c = ceil_log2(n)
    window, length = d * ceil_log2(c), c + d
    field = codec(window, d, length)
    count = field.count(length)
    if count < n:
        raise ValueError(
            f"cannot embed {n} indices in weight-limited fields of {length} bits "
            f"(only {count} satisfy the ({window}, {d}) window constraint)"
        )
    return length, field


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
    length, coder = _index_codec(n, d)
    return coder.unrank_from_start(i, length)


def index_wwl_decode(field: BitSeq, n: int, d: int) -> int:
    length, coder = _index_codec(n, d)
    if len(field) != length:
        raise ValueError(f"index field must have {length} bits")
    index = coder.rank_from_start(field)
    if index >= n:
        raise ValueError(f"decoded index {index} outside [0, {n})")
    return index
