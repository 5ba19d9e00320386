"""Simulated trace channel: fragmentation, substitution noise, reliability.

A trace of a strand x is a multiset of substrings (reads) whose hidden
start positions begin at 0, end exactly at the last position of x, are
each at least ``L_min`` long, and overlap their successor in at least
``L_over`` positions.  The channel here cuts such traces under one of three
strategies (random read lengths and starts, minimum-length reads at maximum
stride, or caller-given cuts), injects at most ``e`` substitution errors per
read under several error models, and audits whether every position of x
still holds a strict majority of correct votes across the reads that cover
it.

Reads are emitted in shuffled order.  Each carries truth annotations
(source strand, start offset, injected-flip count) that decoders must not
rely on; ``Trace.strip_truth`` removes them.  All randomness flows from
``ChannelConfig.seed`` through streams keyed by (strand, fragment, role),
so a trial is reproducible bit for bit regardless of evaluation order.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bitseq import BitSeq
from .errors import LayoutError, SearchExhausted

__all__ = [
    "ChannelConfig",
    "Fragment",
    "Trace",
    "fragment",
    "corrupt",
    "is_reliable",
    "trace_votes",
    "check_trace_legal",
    "trace_to_text",
    "trace_from_text",
]

FRAGMENT_STRATEGIES = ("random", "adversarial-min", "fixed-cuts")
ERROR_MODES = ("random", "overlap-concentrated", "reliable-preserving", "pre-sequencing")

# Role components of the derived-stream keys.
_ROLE_CUTS = 0
_ROLE_SHUFFLE = 1
_ROLE_FLIPS = 2
_ROLE_PRE = 3

_RELIABLE_TRIES = 500  # draws before the reliable-preserving mode gives up


@dataclass(frozen=True)
class ChannelConfig:
    """Channel parameters: read geometry, error budget, strategy, seed.

    ``strategy`` is ``random`` (read lengths drawn up to ``max_len``, starts
    drawn within the overlap), ``adversarial-min`` (``L_min`` reads at
    stride ``L_min - L_over``) or ``fixed-cuts``.  ``max_len`` caps random
    read lengths (default ``2 * L_min``).  ``tau`` is the global flip budget
    of the pre-sequencing error mode.  ``cuts`` supplies explicit
    ``(start, length)`` pairs for the fixed-cuts strategy and is ignored
    otherwise.
    """

    L_min: int
    L_over: int
    e: int = 0
    strategy: str = "random"
    error_mode: str = "random"
    seed: int = 0
    max_len: int | None = None
    tau: int = 0
    cuts: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.L_over < 0 or self.L_min <= self.L_over:
            raise ValueError(
                f"need 0 <= L_over < L_min, got L_min={self.L_min} L_over={self.L_over}"
            )
        if self.e < 0:
            raise ValueError("error budget e must be nonnegative")
        if self.tau < 0:
            raise ValueError("pre-sequencing budget tau must be nonnegative")
        if self.strategy not in FRAGMENT_STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.error_mode not in ERROR_MODES:
            raise ValueError(f"unknown error mode {self.error_mode!r}")
        if self.max_len is not None and self.max_len < self.L_min:
            raise ValueError("max_len must be at least L_min")

    @property
    def length_cap(self) -> int:
        return 2 * self.L_min if self.max_len is None else self.max_len


@dataclass(frozen=True)
class Fragment:
    """One read.  ``strand``/``start``/``errors`` are truth annotations.

    ``errors`` counts injected flips and is ``None`` when unknown (for
    instance after parsing a trace file, which does not record it).
    """

    bits: BitSeq
    strand: int | None = None
    start: int | None = None
    errors: int | None = None

    def __len__(self) -> int:
        return len(self.bits)

    @property
    def has_truth(self) -> bool:
        return self.strand is not None and self.start is not None

    @property
    def end(self) -> int:
        if self.start is None:
            raise LayoutError("fragment has no truth annotations")
        return self.start + len(self.bits)


@dataclass(frozen=True)
class Trace:
    """A set of reads plus the channel metadata they were drawn under.

    ``n`` is the per-strand length, ``k`` the number of strands, and ``N``
    the length of an underlying superstring when the strands were sliced
    from one (``None`` otherwise).  ``e`` is the channel's error bound,
    not the realized error count.
    """

    n: int
    L_min: int
    L_over: int
    e: int
    fragments: tuple[Fragment, ...]
    k: int = 1
    N: int | None = None

    @property
    def has_truth(self) -> bool:
        return all(f.has_truth for f in self.fragments)

    def strip_truth(self) -> "Trace":
        bare = tuple(Fragment(f.bits) for f in self.fragments)
        return dataclasses.replace(self, fragments=bare)

    def for_strand(self, strand: int) -> "Trace":
        """Restrict to one strand's reads (truth required)."""
        if not self.has_truth:
            raise LayoutError("truth annotations required to split by strand")
        kept = tuple(f for f in self.fragments if f.strand == strand)
        return dataclasses.replace(self, fragments=kept, k=1)


def _stream(seed: int, strand: int, frag: int, role: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(strand, frag, role)))


# ---------------------------------------------------------------------------
# fragmentation


def _random_cuts(n: int, cfg: ChannelConfig, rng: np.random.Generator) -> list[tuple[int, int]]:
    # Walk left to right.  The next start is capped at n - L_min so the
    # remaining tail can always host a full-length read; the walk stops
    # the first time a read ends exactly at n, which is guaranteed to
    # happen because the length range collapses to {n - i} as i nears n.
    cuts: list[tuple[int, int]] = []
    i = 0
    while True:
        L = int(rng.integers(cfg.L_min, min(cfg.length_cap, n - i) + 1))
        cuts.append((i, L))
        if i + L == n:
            return cuts
        hi = min(i + L - cfg.L_over, n - cfg.L_min)
        i = int(rng.integers(i + 1, hi + 1))


def _adversarial_cuts(n: int, cfg: ChannelConfig) -> list[tuple[int, int]]:
    # Minimum-length reads at maximum stride; the final start is pulled
    # back so the last read ends exactly at n (its overlap then exceeds
    # L_over, which is still legal).
    stride = cfg.L_min - cfg.L_over
    starts = [0]
    while starts[-1] + cfg.L_min < n:
        starts.append(min(starts[-1] + stride, n - cfg.L_min))
    return [(i, cfg.L_min) for i in starts]


def fragment(x: BitSeq, cfg: ChannelConfig, *, strand: int = 0) -> Trace:
    """Cut ``x`` into an overlapping read set under ``cfg.strategy``.

    The reads are returned in shuffled order with truth annotations
    attached and zero injected errors; feed the result to :func:`corrupt`
    for noise.
    """
    n = len(x)
    if n < cfg.L_min:
        raise ValueError(f"strand length {n} is below L_min={cfg.L_min}")

    if cfg.strategy == "random":
        cuts = _random_cuts(n, cfg, _stream(cfg.seed, strand, 0, _ROLE_CUTS))
    elif cfg.strategy == "adversarial-min":
        cuts = _adversarial_cuts(n, cfg)
    elif cfg.strategy == "fixed-cuts":
        cuts = [(int(i), int(L)) for i, L in cfg.cuts]
        for i, L in cuts:
            if i < 0 or L < 1 or i + L > n:
                raise LayoutError(f"cut ({i}, {L}) out of range for strand length {n}")
    else:  # pragma: no cover - rejected by ChannelConfig
        raise ValueError(cfg.strategy)

    frags = tuple(Fragment(x.window(i, L), strand, i, 0) for i, L in cuts)
    order = _stream(cfg.seed, strand, 0, _ROLE_SHUFFLE).permutation(len(frags))
    tr = Trace(n, cfg.L_min, cfg.L_over, cfg.e, tuple(frags[int(j)] for j in order))
    check_trace_legal(tr)
    return tr


# ---------------------------------------------------------------------------
# corruption


def _flip_local(f: Fragment, positions: Sequence[int]) -> Fragment:
    bits = f.bits
    for p in positions:
        bits = bits.with_bit(p, 1 - bits[p])
    injected = None if f.errors is None else f.errors + len(positions)
    return dataclasses.replace(f, bits=bits, errors=injected)


def _strand_ids(tr: Trace) -> list[int]:
    return sorted({f.strand for f in tr.fragments})


def _tallies(tr: Trace) -> dict[int, np.ndarray]:
    """Each strand's :func:`trace_votes`; a row sum is a position's coverage."""
    return {s: trace_votes(tr.for_strand(s), tr.n) for s in _strand_ids(tr)}


def _reassemble(votes: np.ndarray) -> BitSeq:
    """Rebuild a source strand from the tally of its error-free reads."""
    if np.any(votes.min(axis=1) > 0):
        raise LayoutError("reads disagree; input trace is already corrupted")
    if np.any(votes.max(axis=1) == 0):
        raise LayoutError("reads do not cover the strand")
    return BitSeq.from_numpy((votes[:, 1] > 0).astype(np.uint8))


def _corrupt_random(tr: Trace, cfg: ChannelConfig) -> tuple[Fragment, ...]:
    out = []
    for idx, f in enumerate(tr.fragments):
        rng = _stream(cfg.seed, f.strand or 0, idx, _ROLE_FLIPS)
        t = int(rng.integers(0, cfg.e + 1))
        pos = rng.choice(len(f), size=min(t, len(f)), replace=False)
        out.append(_flip_local(f, [int(p) for p in pos]))
    return tuple(out)


def _corrupt_overlap(tr: Trace, cfg: ChannelConfig) -> tuple[Fragment, ...]:
    # Spend the whole budget inside multiply-covered positions, the worst
    # place for a majority vote.  Reads with no such positions stay clean.
    cov = {s: votes.sum(axis=1) for s, votes in _tallies(tr).items()}
    out = []
    for idx, f in enumerate(tr.fragments):
        zone = np.flatnonzero(cov[f.strand][f.start : f.end] >= 2)
        t = min(cfg.e, zone.size)
        if t == 0:
            out.append(f)
            continue
        rng = _stream(cfg.seed, f.strand or 0, idx, _ROLE_FLIPS)
        pos = rng.choice(zone, size=t, replace=False)
        out.append(_flip_local(f, [int(p) for p in pos]))
    return tuple(out)


def _corrupt_reliable(tr: Trace, cfg: ChannelConfig) -> tuple[Fragment, ...]:
    # Every read takes between 1 and e flips, redrawn until the strict
    # per-position majority survives.  A flip is survivable only at a
    # position covered at least three times (once the flipper is wrong,
    # two correct votes must remain), so a read all of whose positions
    # have coverage below three makes the mode impossible.
    tallies = _tallies(tr)
    truth = {s: _reassemble(votes) for s, votes in tallies.items()}
    for idx, f in enumerate(tr.fragments):
        if not np.any(tallies[f.strand][f.start : f.end].sum(axis=1) >= 3):
            raise LayoutError(
                "reliable-preserving corruption impossible: fragment at offset "
                f"{f.start} has no position with coverage >= 3"
            )
    rngs = [_stream(cfg.seed, f.strand or 0, idx, _ROLE_FLIPS) for idx, f in enumerate(tr.fragments)]
    for _ in range(_RELIABLE_TRIES):
        cand = []
        for f, rng in zip(tr.fragments, rngs):
            t = int(rng.integers(1, cfg.e + 1))
            pos = rng.choice(len(f), size=min(t, len(f)), replace=False)
            cand.append(_flip_local(f, [int(p) for p in pos]))
        candidate = dataclasses.replace(tr, fragments=tuple(cand))
        if all(is_reliable(candidate.for_strand(s), truth[s]) for s in truth):
            return tuple(cand)
    raise SearchExhausted(f"no reliable corruption found in {_RELIABLE_TRIES} draws")


def _corrupt_presequencing(tr: Trace, cfg: ChannelConfig) -> tuple[Fragment, ...]:
    # Flip tau positions of the strand itself, then propagate each flip
    # into every read covering it, as if the noise had struck before the
    # reads were sampled.  All copies of a flipped position agree on the
    # wrong value, so this mode deliberately defeats majority voting.
    flips: dict[int, set[int]] = {}
    for s in _strand_ids(tr):
        rng = _stream(cfg.seed, s, 0, _ROLE_PRE)
        t = min(cfg.tau, tr.n)
        flips[s] = {int(p) for p in rng.choice(tr.n, size=t, replace=False)}
    out = []
    for f in tr.fragments:
        local = sorted(p - f.start for p in flips[f.strand] if f.start <= p < f.end)
        out.append(_flip_local(f, local) if local else f)
    return tuple(out)


def corrupt(tr: Trace, cfg: ChannelConfig) -> Trace:
    """Inject substitution errors into a trace under ``cfg.error_mode``.

    Fragment order and lengths are preserved; only symbols change.  All
    modes except ``random`` need truth annotations to see the coverage
    geometry, and ``reliable-preserving`` additionally needs the input
    reads to be error free so the source strand can be rebuilt.
    """
    if cfg.error_mode == "pre-sequencing":
        if cfg.tau == 0:
            return tr
    elif cfg.e == 0:
        return tr
    if cfg.error_mode != "random" and not tr.has_truth:
        raise LayoutError(f"error mode {cfg.error_mode!r} requires truth annotations")

    if cfg.error_mode == "random":
        frags = _corrupt_random(tr, cfg)
    elif cfg.error_mode == "overlap-concentrated":
        frags = _corrupt_overlap(tr, cfg)
    elif cfg.error_mode == "reliable-preserving":
        frags = _corrupt_reliable(tr, cfg)
    else:
        frags = _corrupt_presequencing(tr, cfg)
    return dataclasses.replace(tr, fragments=frags, e=cfg.e)


# ---------------------------------------------------------------------------
# auditing


def trace_votes(tr: Trace, x_len: int) -> np.ndarray:
    """Per-position ``(zero_count, one_count)`` tallies over all reads."""
    if not tr.has_truth:
        raise LayoutError("truth annotations required to tally votes")
    votes = np.zeros((x_len, 2), dtype=np.int64)
    for f in tr.fragments:
        if f.end > x_len:
            raise LayoutError(f"fragment at offset {f.start} overruns length {x_len}")
        arr = f.bits.to_numpy().astype(np.int64)
        seg = votes[f.start : f.end]
        seg[:, 1] += arr
        seg[:, 0] += 1 - arr
    return votes


def is_reliable(tr: Trace, x: BitSeq) -> bool:
    """True iff every position of ``x`` has a strict correct majority.

    Positions nobody covers count as unreliable.  The trace must be
    single strand; split multi-strand traces with ``Trace.for_strand``.
    """
    if not tr.has_truth:
        raise LayoutError("truth annotations required for reliability audit")
    if len(_strand_ids(tr)) > 1:
        raise LayoutError("audit one strand at a time")
    votes = trace_votes(tr, len(x))
    truth = x.to_numpy().astype(np.int64)
    correct = np.where(truth == 1, votes[:, 1], votes[:, 0])
    total = votes.sum(axis=1)
    return bool(np.all(2 * correct > total))


def check_trace_legal(tr: Trace) -> None:
    """Raise LayoutError unless the trace satisfies the read-set rules.

    Checked per strand against the truth annotations: the first read
    starts at 0, starts strictly increase, every read is at least
    ``L_min`` long and ends within the strand, consecutive reads overlap
    in at least ``L_over`` positions, and the final read ends exactly at
    ``n``.  Written directly from those rules, independent of how any
    generator happens to build its cut lists.
    """
    if not tr.has_truth:
        raise LayoutError("truth annotations required for legality check")
    if tr.n < tr.L_min:
        raise LayoutError(f"strand length {tr.n} is below L_min={tr.L_min}")
    strands = _strand_ids(tr)
    if len(strands) != tr.k:
        raise LayoutError(f"expected {tr.k} distinct strand ids, found {strands}")
    for s in strands:
        reads = sorted((f for f in tr.fragments if f.strand == s), key=lambda f: f.start)
        if reads[0].start != 0:
            raise LayoutError(f"strand {s}: first read starts at {reads[0].start}, not 0")
        for f in reads:
            if len(f) < tr.L_min:
                raise LayoutError(f"strand {s}: read of length {len(f)} below L_min={tr.L_min}")
            if f.end > tr.n:
                raise LayoutError(f"strand {s}: read at {f.start} overruns n={tr.n}")
        for a, b in zip(reads, reads[1:]):
            if b.start <= a.start:
                raise LayoutError(f"strand {s}: duplicate read start {b.start}")
            if b.start > a.end - tr.L_over:
                raise LayoutError(
                    f"strand {s}: reads at {a.start} and {b.start} overlap in "
                    f"{max(0, a.end - b.start)} < {tr.L_over} positions"
                )
        if reads[-1].end != tr.n:
            raise LayoutError(f"strand {s}: last read ends at {reads[-1].end}, not n={tr.n}")


# ---------------------------------------------------------------------------
# file format


def trace_to_text(tr: Trace, *, include_truth: bool = True) -> str:
    """Serialize a trace: a header line, then one read per line.

    Truth annotations become ``@strand:offset`` suffixes that parsers on
    the decoding side are free to ignore.
    """
    head = f"#trace n={tr.n} Lmin={tr.L_min} Lover={tr.L_over} e={tr.e}"
    if tr.k != 1 or tr.N is not None:
        head += f" k={tr.k}"
        if tr.N is not None:
            head += f" N={tr.N}"
    lines = [head]
    for f in tr.fragments:
        line = f.bits.to_text()
        if include_truth and f.has_truth:
            line += f" @{f.strand}:{f.start}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def trace_from_text(text: str) -> Trace:
    """Parse the trace file format produced by :func:`trace_to_text`."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or not lines[0].startswith("#trace"):
        raise LayoutError("missing #trace header line")
    fields: dict[str, int] = {}
    for token in lines[0].split()[1:]:
        key, _, val = token.partition("=")
        if not val:
            raise LayoutError(f"malformed header token {token!r}")
        fields[key] = int(val)
    try:
        n, L_min, L_over, e = fields["n"], fields["Lmin"], fields["Lover"], fields["e"]
    except KeyError as missing:
        raise LayoutError(f"header missing {missing} field") from None
    frags = []
    for ln in lines[1:]:
        if ln.startswith("#"):
            continue
        body, _, suffix = ln.partition("@")
        bits = BitSeq.from_text(body.strip())
        strand = start = None
        if suffix:
            s_txt, _, o_txt = suffix.partition(":")
            strand, start = int(s_txt), int(o_txt)
        frags.append(Fragment(bits, strand, start))
    return Trace(n, L_min, L_over, e, tuple(frags), k=fields.get("k", 1), N=fields.get("N"))
