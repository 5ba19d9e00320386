"""Command line front end: derive parameters, encode, decode, simulate,
verify, and benchmark from files.

Every command reads and writes plain files, emits one JSON report line on
standard output for machine diffing, and keeps human-readable summaries on
standard error.  Exit status is 0 exactly when every check the command ran
passed.  Messages and codewords travel as ASCII '0'/'1' text, read pools
as the trace file format, strand sets and index books as JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from collections.abc import Callable

import numpy as np

from .bitseq import BitSeq
from .channel import (
    ChannelConfig,
    check_trace_legal,
    corrupt,
    fragment,
    trace_from_text,
    trace_to_text,
)
from .errors import SearchExhausted, StrandcodeError
from .multistrand import (
    MultiGamma0Params,
    derive_multi_gamma0_params,
    fragment_strands,
    multi_gamma0_book,
    multi_gamma0_decode,
    multi_gamma0_encode,
    multi_gamma0_message_len,
    strandset_from_json,
    strandset_to_json,
    wrap_decode,
    wrap_encode,
)
from .oracle import (
    bound_multi,
    bound_multi_gamma0,
    bound_single,
    check_sd_exhaustive,
    check_wwl_exhaustive,
)
from .positioning import book_from_json, certify_book
from .sd_encoder import SdParams, decode_sd, derive_sd_params, encode_sd
from .trace_codes import (
    Gamma0Params,
    TraceParams,
    derive_gamma0_params,
    derive_trace_params,
    encode_gamma0,
    encode_trace,
    encode_trace_rs,
    gamma0_book,
    gamma0_message_len,
    reconstruct_gamma0,
    reconstruct_trace,
    reconstruct_trace_rs,
    trace_book,
    trace_message_len,
)

# ---------------------------------------------------------------------------
# small file and report helpers


def _read_text(path: str) -> str:
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def _read_bits(path: str) -> BitSeq:
    return BitSeq.from_text("".join(_read_text(path).split()))


def _write_bits(path: str, bits: BitSeq) -> None:
    _write_text(path, bits.to_text() + "\n")


def _emit(row: dict) -> None:
    print(json.dumps(row), flush=True)


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _sd_trial(p, book, bits: int, rng, cfg_seed: int, e: int) -> bool:
    m = BitSeq.random(bits, rng)
    return decode_sd(encode_sd(m, p.n, p.d), p.n, p.d) == m


def _strand_trial(encode, decode):
    """Trial of a single-strand read code: reads of at most L_min + 30
    symbols, with up to ``e`` reliability-preserving flips each."""

    def trial(p, book, bits: int, rng, cfg_seed: int, e: int) -> bool:
        m = BitSeq.random(bits, rng)
        cfg = ChannelConfig(
            L_min=p.L_min, L_over=p.L_over, e=e,
            error_mode="reliable-preserving" if e else "random",
            seed=cfg_seed, max_len=p.L_min + 30,
        )
        tr = corrupt(fragment(encode(m, p, book), cfg), cfg)
        return decode(tr.strip_truth(), p, book).message == m

    return trial


def _multi_gamma0_trial(p, book, bits: int, rng, cfg_seed: int, e: int) -> bool:
    per = bits // p.k
    msgs = tuple(BitSeq.random(per, rng) for _ in range(p.k))
    ss = multi_gamma0_encode(msgs, p, book)
    cfg = ChannelConfig(L_min=p.L_min, L_over=0, seed=cfg_seed)
    got, _rep = multi_gamma0_decode(fragment_strands(ss, cfg).strip_truth(), p, book)
    return got == msgs


def _derive_multi_gamma0(args, d: int, e: int, **kwargs):
    if args.k is None:
        raise ValueError("family 'multi-gamma0' needs --k")
    return derive_multi_gamma0_params(args.n, args.k, e, **kwargs)


@dataclasses.dataclass(frozen=True)
class Family:
    """One params family, as ``params derive`` writes it and every command
    that reads a params file or benchmarks a preset uses it."""

    params: type
    overrides: frozenset[str]  # ``params derive`` geometry flags it accepts
    derive: Callable  # (args, d, e, strict=..., **overrides) -> params
    message_len: Callable  # params -> message bits
    preset: Callable  # () -> the ``bench roundtrip`` params
    trial: Callable  # (params, book, message bits, rng, channel seed, e) -> ok
    book: Callable = lambda p: None
    symbols: Callable = lambda p: p.n  # output symbols over all strands
    no_errors: str = ""  # why ``bench roundtrip`` refuses --e, if it does


_OVERRIDES = ("a", "gamma", "eps", "L_min", "L_over", "I", "r_I", "K", "F", "L")
_INDEXED_OVERRIDES = frozenset({"a", "L_min", "K", "r_I"})
_NO_OVERLAP_ERRORS = (
    "no-overlap families guarantee read placement under errors, not "
    "payload majority; bench their message round trip with --e 0"
)

FAMILIES = {
    "sd": Family(
        params=SdParams,
        overrides=frozenset(),
        derive=lambda args, d, e, **kw: derive_sd_params(args.n, d, **kw),
        message_len=lambda p: p.n_prime,
        preset=lambda: derive_sd_params(2048, 1),
        trial=_sd_trial,
        no_errors="the sd benchmark round-trips the codec itself; --e does not apply",
    ),
    "trace": Family(
        params=TraceParams,
        overrides=frozenset(_OVERRIDES),
        derive=lambda args, d, e, **kw: derive_trace_params(args.n, e, **kw),
        message_len=trace_message_len,
        preset=lambda: derive_trace_params(4320, 1, L_min=90, L_over=85, I=4, r_I=16, K=8),
        trial=_strand_trial(encode_trace, reconstruct_trace),
        book=trace_book,
    ),
    "gamma0": Family(
        params=Gamma0Params,
        overrides=_INDEXED_OVERRIDES,
        derive=lambda args, d, e, **kw: derive_gamma0_params(args.n, e, **kw),
        message_len=gamma0_message_len,
        preset=lambda: derive_gamma0_params(9856, 1, L_min=154, K=64, r_I=12),
        trial=_strand_trial(encode_gamma0, reconstruct_gamma0),
        book=gamma0_book,
        no_errors=_NO_OVERLAP_ERRORS,
    ),
    "multi-gamma0": Family(
        params=MultiGamma0Params,
        overrides=_INDEXED_OVERRIDES,
        derive=_derive_multi_gamma0,
        message_len=multi_gamma0_message_len,
        preset=lambda: derive_multi_gamma0_params(1030, 2, 1, L_min=100, K=32, r_I=12),
        trial=_multi_gamma0_trial,
        book=multi_gamma0_book,
        symbols=lambda p: p.k * p.n,
        no_errors=_NO_OVERLAP_ERRORS,
    ),
}


def _params_row(family: str, p) -> dict:
    row: dict = {"family": family}
    row.update(dataclasses.asdict(p))
    row["violations"] = list(p.violations)
    row["feasible"] = p.feasible
    if p.feasible:
        msg = FAMILIES[family].message_len(p)
        sym = FAMILIES[family].symbols(p)
        row["message_len"] = msg
        row["output_len"] = sym
        row["rate"] = msg / sym
    return row


def _load_params(path: str, want: str | None = None):
    """Parse a ``params derive`` output file back into its dataclass,
    checking that it is of family ``want`` when one is given."""
    obj = json.loads(_read_text(path))
    family = obj.get("family")
    if family not in FAMILIES:
        raise ValueError(f"params file has unknown family {family!r}")
    if want is not None and family != want:
        raise ValueError(f"params file is for family {family!r}, this command needs {want!r}")
    cls = FAMILIES[family].params
    kwargs = {}
    for field in dataclasses.fields(cls):
        if field.name in obj:
            val = obj[field.name]
            kwargs[field.name] = tuple(val) if field.name == "violations" else val
    return family, cls(**kwargs)


def _resolve_d_e(args) -> tuple[int, int]:
    if args.d is None and args.e is None:
        raise ValueError("give --d or --e (they are tied by d = 2e + 1)")
    if args.d is None:
        return 2 * args.e + 1, args.e
    if args.e is not None and args.d != 2 * args.e + 1:
        raise ValueError(f"--d {args.d} and --e {args.e} disagree with d = 2e + 1")
    return args.d, (args.d - 1) // 2


def _summary(row: dict) -> str:
    return f"{row['command']}: " + ", ".join(
        f"{key}={val}" for key, val in row.items() if key != "command"
    )


# ---------------------------------------------------------------------------
# params


def _cmd_params_derive(args) -> int:
    family = args.family
    d, e = _resolve_d_e(args)
    given = {name for name in _OVERRIDES if getattr(args, name) is not None}
    bad = given - FAMILIES[family].overrides
    if bad:
        flags = ", ".join("--" + name.replace("_", "-") for name in sorted(bad))
        raise ValueError(f"{flags} do not apply to family {family!r}")
    kwargs = {name: getattr(args, name) for name in given}
    p = FAMILIES[family].derive(args, d, e, strict=not args.lenient, **kwargs)
    row = _params_row(family, p)
    _emit(row)
    if p.feasible:
        _note(
            f"{family}: {row['message_len']} message bits in {row['output_len']} "
            f"symbols, rate {row['rate']:.4f}"
        )
        return 0
    _note(f"{family}: infeasible ({', '.join(p.violations)})")
    return 1


# ---------------------------------------------------------------------------
# sd codec


def _cmd_sd_encode(args) -> int:
    m = _read_bits(args.infile)
    x = encode_sd(m, args.n, args.d, seed=args.seed, certify=args.certify)
    _write_bits(args.out, x)
    _emit({"command": "sd encode", "n": args.n, "d": args.d, "message_len": len(m)})
    _note(f"encoded {len(m)} bits into a length-{args.n} ({args.d})-distant string")
    return 0


def _cmd_sd_decode(args) -> int:
    x = _read_bits(args.infile)
    m = decode_sd(x, args.n, args.d)
    _write_bits(args.out, m)
    _emit({"command": "sd decode", "n": args.n, "d": args.d, "message_len": len(m)})
    _note(f"recovered {len(m)} message bits")
    return 0


# ---------------------------------------------------------------------------
# codecs that read a params file


def _reported(rep, **extra) -> tuple[BitSeq, dict]:
    """The message and decode-row fields of a reconstruction report."""
    return rep.message, {
        "reliable": rep.reliable,
        "reads": len(rep.located),
        "placed": sum(1 for off, _ in rep.located if off is not None),
        "tie_positions": len(rep.tie_positions),
        "message_len": len(rep.message),
        **extra,
    }


def _wrap_decode(reads, p, args) -> tuple[BitSeq, dict]:
    ss, m = wrap_decode(reads, args.n, args.k, p)
    if args.strands_out:
        _write_text(args.strands_out, strandset_to_json(ss) + "\n")
    return m, {"n": args.n, "k": args.k, "reads": len(reads.fragments), "message_len": len(m)}


def _multi_gamma0_encode(m, p, args):
    per = multi_gamma0_message_len(p) // p.k
    if len(m) != per * p.k:
        raise ValueError(f"message must have {per * p.k} bits, got {len(m)}")
    msgs = tuple(m.window(i * per, per) for i in range(p.k))
    return multi_gamma0_encode(msgs, p), {"n": p.n, "k": p.k}


def _wrap_flags(sp, kind: str) -> None:
    sp.add_argument("--n", type=int, required=True, help="per-strand length")
    sp.add_argument("--k", type=int, required=True, help="strand count")
    if kind == "decode":
        sp.add_argument(
            "--strands-out", default=None, metavar="FILE",
            help="also write the recovered strand set",
        )


@dataclasses.dataclass(frozen=True)
class CodecCommand:
    """An encode/decode subcommand pair over one params family."""

    family: str
    # (message, params, args) -> (codeword bits or strand set, JSON fields
    # between "command" and "message_len")
    encode: Callable
    # (reads, params, args) -> (message, JSON fields after "command")
    decode: Callable
    strands: bool = False  # encode writes strand-set JSON, not bit text
    flags: Callable = lambda sp, kind: None  # (subparser, "encode" or "decode")


# (group, subcommand prefix) -> command pair
CODEC_COMMANDS = {
    ("trace", ""): CodecCommand(
        "trace",
        encode=lambda m, p, args: (encode_trace(m, p), {"n": p.n}),
        decode=lambda reads, p, args: _reported(reconstruct_trace(reads, p)),
    ),
    ("trace-rs", ""): CodecCommand(
        "trace",
        encode=lambda m, p, args: (
            encode_trace_rs(m, p, args.tau), {"n": p.n, "tau": args.tau}
        ),
        decode=lambda reads, p, args: _reported(
            reconstruct_trace_rs(reads, p, args.tau), tau=args.tau
        ),
        flags=lambda sp, kind: sp.add_argument(
            "--tau", type=int, required=True, help="corrupted group budget"
        ),
    ),
    ("gamma0", ""): CodecCommand(
        "gamma0",
        encode=lambda m, p, args: (encode_gamma0(m, p), {"n": p.n}),
        decode=lambda reads, p, args: _reported(reconstruct_gamma0(reads, p)),
    ),
    ("multi", "wrap-"): CodecCommand(
        "trace",
        encode=lambda m, p, args: (
            wrap_encode(m, args.n, args.k, p),
            {"n": args.n, "k": args.k, "superstring_len": p.n},
        ),
        decode=_wrap_decode,
        strands=True,
        flags=_wrap_flags,
    ),
    ("multi", "gamma0-"): CodecCommand(
        "multi-gamma0",
        encode=_multi_gamma0_encode,
        decode=lambda reads, p, args: _reported(multi_gamma0_decode(reads, p)[1], k=p.k),
        strands=True,
    ),
}

_CODEC_GROUPS = {
    "trace": "single strand reconstructible from reads",
    "trace-rs": "trace code with outer symbol protection",
    "gamma0": "indexed blocks, no overlap requirement",
    "multi": "multi-strand codes",
}


def _cmd_encode(args) -> int:
    _, p = _load_params(args.params, args.codec.family)
    m = _read_bits(args.infile)
    out, fields = args.codec.encode(m, p, args)
    text = strandset_to_json(out) if args.codec.strands else out.to_text()
    _write_text(args.out, text + "\n")
    row = {"command": f"{args.group} {args.command}", **fields, "message_len": len(m)}
    _emit(row)
    _note(_summary(row))
    return 0


def _cmd_decode(args) -> int:
    _, p = _load_params(args.params, args.codec.family)
    reads = trace_from_text(_read_text(args.infile))
    m, fields = args.codec.decode(reads, p, args)
    _write_bits(args.out, m)
    row = {"command": f"{args.group} {args.command}", **fields}
    _emit(row)
    _note(_summary(row))
    return 0


# ---------------------------------------------------------------------------
# channel simulation


def _channel_cfg(args, L_min: int, L_over: int) -> ChannelConfig:
    return ChannelConfig(
        L_min=L_min,
        L_over=L_over,
        e=args.e,
        strategy=getattr(args, "strategy", "random"),
        error_mode=args.error_mode,
        seed=args.seed,
        max_len=getattr(args, "max_len", None),
        tau=args.tau,
    )


def _cmd_channel_fragment(args) -> int:
    text = _read_text(args.infile)
    cfg = _channel_cfg(args, args.L_min, args.L_over)
    if text.lstrip().startswith("{"):
        ss = strandset_from_json(text)
        tr = fragment_strands(ss, cfg, N=args.N)
        what = f"{ss.k} strands of {ss.n} symbols"
    else:
        tr = fragment(BitSeq.from_text(text.strip()), cfg)
        what = f"a string of {tr.n} symbols"
    if args.no_truth:
        tr = tr.strip_truth()
    _write_text(args.out, trace_to_text(tr))
    _emit(
        {
            "command": "channel fragment",
            "reads": len(tr.fragments),
            "L_min": cfg.L_min,
            "L_over": cfg.L_over,
            "strategy": cfg.strategy,
            "seed": cfg.seed,
        }
    )
    _note(f"cut {what} into {len(tr.fragments)} reads")
    return 0


def _cmd_channel_corrupt(args) -> int:
    tr = trace_from_text(_read_text(args.infile))
    cfg = _channel_cfg(args, tr.L_min, tr.L_over)
    out = corrupt(tr, cfg)
    if args.no_truth:
        out = out.strip_truth()
    _write_text(args.out, trace_to_text(out))
    _emit(
        {
            "command": "channel corrupt",
            "reads": len(out.fragments),
            "e": cfg.e,
            "error_mode": cfg.error_mode,
            "seed": cfg.seed,
        }
    )
    _note(f"injected {cfg.error_mode!r} errors into {len(out.fragments)} reads")
    return 0


# ---------------------------------------------------------------------------
# verification oracles


def _verify_report(check: str, ok: bool, why: str = "", **extra) -> int:
    row = {"check": check, "ok": ok, **extra}
    if why:
        row["why"] = why
    _emit(row)
    _note(f"{check}: {'pass' if ok else 'FAIL'}" + (f" ({why})" if why else ""))
    return 0 if ok else 1


def _cmd_verify_sd(args) -> int:
    p = derive_sd_params(args.n, args.d)
    x = _read_bits(args.infile)
    if len(x) != args.n:
        return _verify_report(
            "sd", False, f"file holds {len(x)} symbols, expected {args.n}"
        )
    ok = check_sd_exhaustive(x, p.L, args.d)
    return _verify_report("sd", ok, window=p.L, d=args.d)


def _cmd_verify_wwl(args) -> int:
    x = _read_bits(args.infile)
    ok = check_wwl_exhaustive(x, args.window, args.floor)
    return _verify_report("wwl", ok, window=args.window, floor=args.floor)


def _cmd_verify_book(args) -> int:
    book = book_from_json(_read_text(args.infile))
    try:
        certify_book(book)
    except SearchExhausted as exc:
        return _verify_report("book", False, str(exc))
    return _verify_report("book", True, codewords=len(book.codewords), d=book.d)


def _cmd_verify_trace_legal(args) -> int:
    tr = trace_from_text(_read_text(args.infile))
    try:
        check_trace_legal(tr)
    except StrandcodeError as exc:
        return _verify_report("trace-legal", False, str(exc))
    return _verify_report("trace-legal", True, reads=len(tr.fragments))


# ---------------------------------------------------------------------------
# benchmarking


def _cmd_bench_roundtrip(args) -> int:
    if args.params:
        family, p = _load_params(args.params)
    else:
        family, p = args.family, FAMILIES[args.family].preset()
    fam = FAMILIES[family]
    if args.e and fam.no_errors:
        raise ValueError(fam.no_errors)
    if args.e and args.e > p.e:
        raise ValueError(f"--e {args.e} exceeds the code tolerance {p.e}")
    book = fam.book(p)
    msg = fam.message_len(p)
    sym = fam.symbols(p)
    start = time.perf_counter()
    successes = sum(
        fam.trial(
            p, book, msg, np.random.default_rng([args.seed, t]), args.seed * 1_000_003 + t,
            args.e,
        )
        for t in range(args.trials)
    )
    wall = time.perf_counter() - start
    report = {
        "family": family,
        "trials": args.trials,
        "successes": int(successes),
        "rate_measured": msg / sym,
        "redundancy": sym - msg,
        "wall_time": round(wall, 3),
    }
    _emit(report)
    _note(
        f"{family}: {successes}/{args.trials} round trips in {wall:.2f}s "
        f"(rate {msg / sym:.4f})"
    )
    return 0 if successes == args.trials else 1


# ---------------------------------------------------------------------------
# rate bound tables


def _cmd_bounds(args) -> int:
    if args.regime == "single":
        r = bound_single(args.a, args.gamma)
        regime, lower, upper = "single strand", r, r
        source = "overlap-fraction rate, matching directions"
        note = "leading term; vanishing residue dropped"
    else:
        if args.regime == "multi":
            rep = bound_multi(args.a, args.gamma, args.kappa, args.lstar_frac)
            source = "wrapped multi-strand rate bounds"
        else:
            rep = bound_multi_gamma0(args.a, args.kappa, args.lstar_frac)
            source = "zero-overlap multi-strand rate, matching directions"
        regime, lower, upper, note = rep["regime"], rep.lower, rep.upper, rep["note"]
    _emit(
        {
            "regime": regime,
            "lower": str(lower),
            "upper": str(upper),
            "lower_float": float(lower),
            "upper_float": float(upper),
            "source": source,
            "note": note,
        }
    )
    _note(f"{regime}: rate in [{float(lower):.6g}, {float(upper):.6g}]")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def _add_channel_flags(sp, *, geometry: bool) -> None:
    if geometry:
        sp.add_argument("--L-min", type=int, required=True, help="minimum read length")
        sp.add_argument("--L-over", type=int, default=0, help="minimum adjacent overlap")
        sp.add_argument("--strategy", choices=("random", "fixed-cuts"), default="random")
        sp.add_argument("--max-len", type=int, default=None, help="cap on read lengths")
        sp.add_argument("--N", type=int, default=None, help="superstring length to record")
    sp.add_argument("--e", type=int, default=0, help="per-read substitution budget")
    sp.add_argument(
        "--error-mode",
        choices=("random", "overlap-concentrated", "reliable-preserving", "pre-sequencing"),
        default="random",
    )
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tau", type=int, default=0, help="pre-sequencing flip budget")
    sp.add_argument("--no-truth", action="store_true", help="drop truth annotations")


def _io_flags(sp, out_help: str) -> None:
    sp.add_argument("--in", dest="infile", required=True, metavar="FILE")
    sp.add_argument("--out", required=True, metavar="FILE", help=out_help)


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="strandcode",
        description="Encode, decode, simulate, and audit substring-reconstructible codes.",
    )
    groups = top.add_subparsers(dest="group", required=True)

    # params ---------------------------------------------------------
    g = groups.add_parser("params", help="derive and report code geometry")
    sub = g.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("derive", help="resolve geometry and feasibility to JSON")
    sp.add_argument("--family", choices=tuple(FAMILIES), default="trace")
    sp.add_argument("--n", type=int, required=True, help="output length per strand")
    sp.add_argument("--d", type=int, default=None, help="distance parameter (2e + 1)")
    sp.add_argument("--e", type=int, default=None, help="per-read error tolerance")
    sp.add_argument("--k", type=int, default=None, help="strand count (multi-gamma0)")
    sp.add_argument("--a", type=float, default=None, help="block length factor")
    sp.add_argument("--gamma", type=float, default=None, help="overlap fraction")
    sp.add_argument("--eps", type=float, default=None, help="slack exponent")
    sp.add_argument("--L-min", type=int, default=None, help="override block length")
    sp.add_argument("--L-over", type=int, default=None, help="override overlap length")
    sp.add_argument("--I", type=int, default=None, help="override index width")
    sp.add_argument("--r-I", type=int, default=None, help="override index redundancy")
    sp.add_argument("--K", type=int, default=None, help="override marker zero run")
    sp.add_argument("--F", type=int, default=None, help="override index segment count")
    sp.add_argument("--L", type=int, default=None, help="override matching window")
    sp.add_argument(
        "--lenient", action="store_true", help="report violations instead of raising"
    )
    sp.set_defaults(func=_cmd_params_derive)

    # sd -------------------------------------------------------------
    g = groups.add_parser("sd", help="substring-distant single strings")
    sub = g.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("encode")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0, help="salt for the repair search")
    sp.add_argument("--certify", action="store_true", help="verify the output exhaustively")
    _io_flags(sp, "codeword text file")
    sp.set_defaults(func=_cmd_sd_encode)
    sp = sub.add_parser("decode")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    _io_flags(sp, "message text file")
    sp.set_defaults(func=_cmd_sd_decode)

    # codecs that read a params file ---------------------------------
    codec_subs = {}
    for (group, prefix), cmd in CODEC_COMMANDS.items():
        if group not in codec_subs:
            g = groups.add_parser(group, help=_CODEC_GROUPS[group])
            codec_subs[group] = g.add_subparsers(dest="command", required=True)
        for kind, handler in (("encode", _cmd_encode), ("decode", _cmd_decode)):
            sp = codec_subs[group].add_parser(prefix + kind)
            sp.add_argument(
                "--params", required=True, metavar="FILE", help="output of 'params derive'"
            )
            cmd.flags(sp, kind)
            if kind == "decode":
                out_help = "message text file"
            else:
                out_help = "strand set JSON file" if cmd.strands else "codeword text file"
            _io_flags(sp, out_help)
            sp.set_defaults(func=handler, codec=cmd)

    # channel --------------------------------------------------------
    g = groups.add_parser("channel", help="read-set simulation")
    sub = g.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("fragment", help="cut a codeword or strand set into reads")
    _io_flags(sp, "trace file")
    _add_channel_flags(sp, geometry=True)
    sp.set_defaults(func=_cmd_channel_fragment)
    sp = sub.add_parser("corrupt", help="inject substitution errors into a trace")
    _io_flags(sp, "trace file")
    _add_channel_flags(sp, geometry=False)
    sp.set_defaults(func=_cmd_channel_corrupt)

    # verify ---------------------------------------------------------
    g = groups.add_parser("verify", help="exhaustive oracle checks")
    sub = g.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("sd", help="every window pair far apart")
    sp.add_argument("--in", dest="infile", required=True, metavar="FILE")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.set_defaults(func=_cmd_verify_sd)
    sp = sub.add_parser("wwl", help="every window heavy enough")
    sp.add_argument("--in", dest="infile", required=True, metavar="FILE")
    sp.add_argument("--window", type=int, required=True)
    sp.add_argument("--floor", type=int, required=True)
    sp.set_defaults(func=_cmd_verify_wwl)
    sp = sub.add_parser("book", help="index book distance invariants")
    sp.add_argument("--in", dest="infile", required=True, metavar="FILE")
    sp.set_defaults(func=_cmd_verify_book)
    sp = sub.add_parser("trace-legal", help="read-set rules against truth annotations")
    sp.add_argument("--in", dest="infile", required=True, metavar="FILE")
    sp.set_defaults(func=_cmd_verify_trace_legal)

    # bench ----------------------------------------------------------
    g = groups.add_parser("bench", help="round-trip campaigns")
    sub = g.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("roundtrip")
    sp.add_argument("--trials", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--family", choices=tuple(FAMILIES), default="trace")
    sp.add_argument("--params", default=None, metavar="FILE", help="override the preset")
    sp.add_argument("--e", type=int, default=0, help="per-read error budget to inject")
    sp.set_defaults(func=_cmd_bench_roundtrip)

    # bounds ---------------------------------------------------------
    sp = groups.add_parser("bounds", help="leading-term rate bound tables")
    sp.add_argument("--regime", choices=("single", "multi", "multi-gamma0"), required=True)
    sp.add_argument("--a", type=float, required=True, help="block length factor")
    sp.add_argument("--gamma", type=float, default=0.0, help="overlap fraction")
    sp.add_argument("--kappa", type=float, default=0.0, help="log k over n")
    sp.add_argument("--lstar-frac", type=float, default=0.0, help="leftover fraction")
    sp.set_defaults(func=_cmd_bounds)

    return top


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (StrandcodeError, ValueError, KeyError, OSError) as exc:
        _note(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
