"""Measurement loop, correctness checks and metrics of one workload run.

A run sets the workload up ``SETUP_REPS`` times from cold caches and keeps
the median as ``setup_s``.  It then makes one pass of ``rounds`` rounds, a
round being one round trip at every size from inputs drawn from (seed,
size, round), and repeats the pass, inputs and all, while another pass
fits in ``seconds``.  The round count is ``seconds`` over the workload's
nominal round time, so a pass lasts about ``seconds`` on the machine that
set it, every commit measures the same inputs for a seed, and the failure
share repeats exactly.  Only the program's encode and decode calls are
timed.
"""

from __future__ import annotations

import contextlib
import math
import resource
import statistics
import sys
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

import strandcode as sc
from strandcode import sd_encoder, trace_codes

from layers import LAYER_NAMES, Span, Tracer

SETUP_REPS = 3

# Caches that set-up must fill with the keys the timed calls look up.  A
# miss inside the timed loop means set-up work leaked into the timings.
SETUP_CACHES = {
    "sd_encoder.scaffold_for": sd_encoder.scaffold_for,
    "trace_codes._codec": trace_codes._codec,
}

# The machine may change speed for seconds at a time: other tenants share
# the host.  So every timed call is bracketed by a fixed reference loop that
# runs no strandcode code, and its wall time is scaled by REF_S over the
# loop's mean time around it.  Reported seconds are those of a machine that
# runs the loop in REF_S, about a quiet 2-core x86-64 host.
REF_S = 0.015
_REF_BITS = np.random.default_rng(0).integers(0, 2, 4096).astype(np.uint8)


def _reference_loop() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += (i * i) % 7
    for i in range(1500):
        acc += int((_REF_BITS[i : i + 64] != _REF_BITS[i + 1 : i + 65]).sum())
    return time.perf_counter() - start


class Stopwatch:
    """Times calls in reference seconds.

    The loop run after one call also opens the bracket of the next; the
    untimed work between two calls (a channel draw) lasts well under the
    seconds a speed change lasts.
    """

    def __init__(self) -> None:
        self.scales: list[float] = []
        self._ref = _reference_loop()

    def time(self, fn, *args, catch: type[BaseException] | tuple = ()):
        """Call fn; return (result, error caught, scaled seconds)."""
        before = self._ref
        start = time.perf_counter()
        try:
            result, error = fn(*args), None
        except catch as exc:
            result, error = None, exc
        wall = time.perf_counter() - start
        self._ref = _reference_loop()
        scale = 2 * REF_S / (before + self._ref)
        self.scales.append(scale)
        return result, error, wall * scale


# Every lru cache in the package, found before any tracer wraps a function.
_PACKAGE_CACHES = tuple(
    {
        id(obj): obj
        for name, mod in sorted(sys.modules.items())
        if name == "strandcode" or name.startswith("strandcode.")
        for obj in vars(mod).values()
        if callable(getattr(obj, "cache_clear", None))
    }.values()
)


class BenchmarkError(RuntimeError):
    """The harness or the program broke a rule the benchmark checks."""


@dataclass
class SizeTally:
    encode_s: list[float] = field(default_factory=list)
    decode_s: list[float] = field(default_factory=list)


@dataclass
class Tally:
    sizes: dict[int, SizeTally]
    attempted: int = 0
    failed: int = 0
    wrong_reliable: int = 0
    bits_ok: int = 0
    busy_s: float = 0.0  # encode + decode seconds, failures included
    channel_s: float = 0.0
    tie_positions: int = 0
    tied_decodes: int = 0
    warnings_captured: int = 0


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    notes: list[str]

    def to_json(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        }


def _setup(workload, watch: Stopwatch) -> tuple[list, list[float]]:
    def build():
        return [workload.setup(size) for size in workload.sizes]

    times = []
    for _ in range(SETUP_REPS):
        for cache in _PACKAGE_CACHES:
            cache.cache_clear()
        cases, _, seconds = watch.time(build)
        times.append(seconds)
    return cases, times


def _trial(workload, case, seed: int, r: int, tally: Tally, watch: Stopwatch) -> None:
    rng = np.random.default_rng([seed, case.size, r])
    msg = workload.message(case, rng)
    per = tally.sizes[case.size]
    tally.attempted += 1
    word, error, enc = watch.time(workload.encode, case, msg, catch=sc.SearchExhausted)
    tally.busy_s += enc
    if error is not None:
        tally.failed += 1
        per.encode_s.append(math.inf)
        per.decode_s.append(math.inf)
        return
    per.encode_s.append(enc)
    start = time.perf_counter()
    reads = workload.channel(case, word, rng)
    tally.channel_s += time.perf_counter() - start
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out, _, dec = watch.time(workload.decode, case, reads, catch=sc.StrandcodeError)
    tally.busy_s += dec
    tally.warnings_captured += len(caught)
    got, report = out if out is not None else (None, None)
    if report is not None and report.tie_positions:
        tally.tied_decodes += 1
        tally.tie_positions += len(report.tie_positions)
    if got is not None and got == msg:
        tally.bits_ok += case.bits
        per.decode_s.append(dec)
        return
    tally.failed += 1
    per.decode_s.append(math.inf)
    # a decoder without a reliability flag claims every answer it returns
    if got is not None and (report is None or report.reliable):
        tally.wrong_reliable += 1


def _p50(samples: list[float], what: str) -> float:
    value = statistics.median(samples)
    if math.isinf(value):
        raise BenchmarkError(f"{what}: more than half of the round trips failed")
    return value


def _tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    for q in (0.999, 0.99, 0.9):
        if len(samples) * (1 - q) >= 10:
            value = float(np.quantile(np.array(samples), q, method="higher"))
            return f"p{q * 100:g} {value:.4f} s"
    return "none with 10 samples beyond it"


def _layer_metrics(setup: dict[str, Span], timed: dict[str, Span], passes: int, scale: float) -> dict:
    """Per-layer sums for one set-up plus one pass over the rounds, with
    self time scaled to the reference speed by the run's median factor."""
    out = {}
    per: dict[str, Span] = {}
    for name in LAYER_NAMES:
        span = per[name] = Span()
        for key in Span.__slots__:
            setattr(span, key, getattr(setup[name], key) / SETUP_REPS + getattr(timed[name], key) / passes)
        out[f"{name}.calls"] = (span.calls, "count")
        out[f"{name}.self_s"] = (span.self_s * scale, "s")
    marker, sd = per["positioning.find_marker"], per["bitseq.is_sd"]
    out["positioning.find_marker.fail_share"] = (marker.raised / marker.calls if marker.calls else 0.0, "ratio")
    out["bitseq.is_sd.accept_ratio"] = (sd.returned_true / sd.calls if sd.calls else 0.0, "ratio")
    return out


def run(workload, seed: int, seconds: float, trace: bool) -> Result:
    """Set up, measure and check one workload; raise BenchmarkError on a
    broken rule and let any non-StrandcodeError from the program escape."""
    with Tracer() if trace else contextlib.nullcontext() as tracer:
        watch = Stopwatch()
        cases, setup_times = _setup(workload, watch)
        setup_spans = tracer.take() if tracer else None
        misses = {name: c.cache_info().misses for name, c in SETUP_CACHES.items()}
        rounds = max(1, math.ceil(seconds / workload.round_s))
        tally = Tally(sizes={case.size: SizeTally() for case in cases})
        passes = 0
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            for r in range(rounds):
                for case in cases:
                    _trial(workload, case, seed, r, tally, watch)
            passes += 1
            now = time.perf_counter()
            if now - start + (now - pass_start) > seconds:
                break
        timed_spans = tracer.take() if tracer else None

    for name, cache in SETUP_CACHES.items():
        leaked = cache.cache_info().misses - misses[name]
        if leaked:
            raise BenchmarkError(
                f"{name} missed {leaked} times in the timed loop; set-up must "
                "warm it with the key the timed call uses"
            )
    if tracer is not None:
        idle = [n for n in workload.layers if timed_spans[n].calls + setup_spans[n].calls == 0]
        if idle:
            raise BenchmarkError(f"traced layers never called on {workload.name}: {idle}")

    first, last = tally.sizes[cases[0].size], tally.sizes[cases[-1].size]
    enc50 = _p50(last.encode_s, "encode at the largest size")
    dec50 = _p50(last.decode_s, "decode at the largest size")
    bits_per_s = tally.bits_ok / tally.busy_s
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "msg_bits_per_s": (bits_per_s, "bit/s"),
            "encode_s.p50": (enc50, "s"),
            "decode_s.p50": (dec50, "s"),
            "decode_growth": (dec50 / _p50(first.decode_s, "decode at the smallest size"), "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = _layer_metrics(setup_spans, timed_spans, passes, statistics.median(watch.scales))
        metrics["traced.msg_bits_per_s"] = (bits_per_s, "bit/s")

    # Encode time on the trace codes depends on the message (salt retries),
    # so this ratio of two medians spreads too widely across seeds to gate.
    encode_growth = enc50 / _p50(first.encode_s, "encode at the smallest size")
    notes = [
        f"{workload.name}: seed {seed}, {'traced' if trace else 'untraced'}, "
        f"{rounds} rounds x {passes} pass(es) over sizes {list(workload.sizes)}",
        "set-up seconds: " + ", ".join(f"{t:.4f}" for t in setup_times),
    ]
    for case in cases:
        t = tally.sizes[case.size]
        notes.append(
            f"size {case.size}: encode p50 {statistics.median(t.encode_s):.4f} s, "
            f"decode p50 {statistics.median(t.decode_s):.4f} s, "
            f"{len(t.encode_s)} samples; highest percentile: encode "
            f"{_tail(t.encode_s)}, decode {_tail(t.decode_s)}"
        )
    notes += [
        f"encode_growth {encode_growth:.4f} (not gated)",
        f"failure_share {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.4f}",
        f"wrong_reliable {tally.wrong_reliable}",
        f"majority ties: {tally.tie_positions} positions in {tally.tied_decodes} decodes; "
        f"{tally.warnings_captured} warnings captured",
        f"input generation (channel, untimed): {tally.channel_s:.3f} s wall",
        "scale to reference speed: median "
        f"{statistics.median(watch.scales):.3f}, range {min(watch.scales):.3f}-{max(watch.scales):.3f}",
    ]
    return Result(
        correct=tally.wrong_reliable == 0,
        attempted=tally.attempted,
        failed=tally.failed,
        metrics=metrics,
        notes=notes,
    )
