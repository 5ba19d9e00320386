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
    trace_rs_message_len,
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


_FAMILIES = {
    "sd": SdParams,
    "trace": TraceParams,
    "gamma0": Gamma0Params,
    "multi-gamma0": MultiGamma0Params,
}

_OVERRIDES = ("a", "gamma", "eps", "L_min", "L_over", "I", "r_I", "K", "F", "L")
_ALLOWED_OVERRIDES = {
    "sd": frozenset(),
    "trace": frozenset(_OVERRIDES),
    "gamma0": frozenset({"a", "L_min", "K", "r_I"}),
    "multi-gamma0": frozenset({"a", "L_min", "K", "r_I"}),
}


def _family_message_len(family: str, p) -> int:
    if family == "sd":
        return p.n_prime
    if family == "trace":
        return trace_message_len(p)
    if family == "gamma0":
        return gamma0_message_len(p)
    return multi_gamma0_message_len(p)


def _family_symbols(family: str, p) -> int:
    return p.k * p.n if family == "multi-gamma0" else p.n


def _params_row(family: str, p) -> dict:
    row: dict = {"family": family}
    row.update(dataclasses.asdict(p))
    row["violations"] = list(p.violations)
    row["feasible"] = p.feasible
    if p.feasible:
        msg = _family_message_len(family, p)
        sym = _family_symbols(family, p)
        row["message_len"] = msg
        row["output_len"] = sym
        row["rate"] = msg / sym
    return row


def _load_params(path: str):
    """Parse a ``params derive`` output file back into its dataclass."""
    obj = json.loads(_read_text(path))
    family = obj.get("family")
    cls = _FAMILIES.get(family)
    if cls is None:
        raise ValueError(f"params file has unknown family {family!r}")
    kwargs = {}
    for field in dataclasses.fields(cls):
        if field.name in obj:
            val = obj[field.name]
            kwargs[field.name] = tuple(val) if field.name == "violations" else val
    return family, cls(**kwargs)


def _expect_family(got: str, want: str) -> None:
    if got != want:
        raise ValueError(f"params file is for family {got!r}, this command needs {want!r}")


def _resolve_d_e(args) -> tuple[int, int]:
    if args.d is None and args.e is None:
        raise ValueError("give --d or --e (they are tied by d = 2e + 1)")
    if args.d is None:
        return 2 * args.e + 1, args.e
    if args.e is not None and args.d != 2 * args.e + 1:
        raise ValueError(f"--d {args.d} and --e {args.e} disagree with d = 2e + 1")
    return args.d, (args.d - 1) // 2


# ---------------------------------------------------------------------------
# params


def _cmd_params_derive(args) -> int:
    family = args.family
    d, e = _resolve_d_e(args)
    given = {name for name in _OVERRIDES if getattr(args, name) is not None}
    bad = given - _ALLOWED_OVERRIDES[family]
    if bad:
        flags = ", ".join("--" + name.replace("_", "-") for name in sorted(bad))
        raise ValueError(f"{flags} do not apply to family {family!r}")
    kwargs = {name: getattr(args, name) for name in given}
    strict = not args.lenient
    if family == "sd":
        p = derive_sd_params(args.n, d, strict=strict)
    elif family == "trace":
        p = derive_trace_params(args.n, e, strict=strict, **kwargs)
    elif family == "gamma0":
        p = derive_gamma0_params(args.n, e, strict=strict, **kwargs)
    else:
        if args.k is None:
            raise ValueError("family 'multi-gamma0' needs --k")
        p = derive_multi_gamma0_params(args.n, args.k, e, strict=strict, **kwargs)
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
# single strand codecs


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


def _decode_report(command: str, rep) -> dict:
    placed = sum(1 for off, _ in rep.located if off is not None)
    return {
        "command": command,
        "reliable": rep.reliable,
        "reads": len(rep.located),
        "placed": placed,
        "tie_positions": len(rep.tie_positions),
        "message_len": len(rep.message),
    }


def _cmd_trace_encode(args) -> int:
    family, p = _load_params(args.params)
    _expect_family(family, "trace")
    m = _read_bits(args.infile)
    w = encode_trace(m, p)
    _write_bits(args.out, w)
    _emit({"command": "trace encode", "n": p.n, "message_len": len(m)})
    _note(f"encoded {len(m)} bits into {p.n} symbols ({p.n_L} blocks)")
    return 0


def _cmd_trace_decode(args) -> int:
    family, p = _load_params(args.params)
    _expect_family(family, "trace")
    tr = trace_from_text(_read_text(args.infile))
    rep = reconstruct_trace(tr, p)
    _write_bits(args.out, rep.message)
    row = _decode_report("trace decode", rep)
    _emit(row)
    _note(f"placed {row['placed']}/{row['reads']} reads, reliable={rep.reliable}")
    return 0


def _cmd_trace_rs_encode(args) -> int:
    family, p = _load_params(args.params)
    _expect_family(family, "trace")
    m = _read_bits(args.infile)
    w = encode_trace_rs(m, p, args.tau)
    _write_bits(args.out, w)
    _emit({"command": "trace-rs encode", "n": p.n, "tau": args.tau, "message_len": len(m)})
    _note(f"encoded {len(m)} bits with budget for {args.tau} corrupted groups")
    return 0


def _cmd_trace_rs_decode(args) -> int:
    family, p = _load_params(args.params)
    _expect_family(family, "trace")
    tr = trace_from_text(_read_text(args.infile))
    rep = reconstruct_trace_rs(tr, p, args.tau)
    _write_bits(args.out, rep.message)
    row = _decode_report("trace-rs decode", rep)
    row["tau"] = args.tau
    _emit(row)
    _note(f"placed {row['placed']}/{row['reads']} reads, reliable={rep.reliable}")
    return 0


def _cmd_gamma0_encode(args) -> int:
    family, p = _load_params(args.params)
    _expect_family(family, "gamma0")
    m = _read_bits(args.infile)
    w = encode_gamma0(m, p)
    _write_bits(args.out, w)
    _emit({"command": "gamma0 encode", "n": p.n, "message_len": len(m)})
    _note(f"encoded {len(m)} bits into {p.n} symbols (no overlap needed)")
    return 0


def _cmd_gamma0_decode(args) -> int:
    family, p = _load_params(args.params)
    _expect_family(family, "gamma0")
    tr = trace_from_text(_read_text(args.infile))
    rep = reconstruct_gamma0(tr, p)
    _write_bits(args.out, rep.message)
    row = _decode_report("gamma0 decode", rep)
    _emit(row)
    _note(f"placed {row['placed']}/{row['reads']} reads, reliable={rep.reliable}")
    return 0


# ---------------------------------------------------------------------------
# multi strand codecs


def _cmd_multi_wrap_encode(args) -> int:
    family, p = _load_params(args.params)
    _expect_family(family, "trace")
    m = _read_bits(args.infile)
    ss = wrap_encode(m, args.n, args.k, p)
    _write_text(args.out, strandset_to_json(ss) + "\n")
    _emit(
        {
            "command": "multi wrap-encode",
            "n": args.n,
            "k": args.k,
            "superstring_len": p.n,
            "message_len": len(m),
        }
    )
    _note(f"wrapped {len(m)} bits into {args.k} strands of {args.n} symbols")
    return 0


def _cmd_multi_wrap_decode(args) -> int:
    family, p = _load_params(args.params)
    _expect_family(family, "trace")
    mt = trace_from_text(_read_text(args.infile))
    ss, m = wrap_decode(mt, args.n, args.k, p)
    _write_bits(args.out, m)
    if args.strands_out:
        _write_text(args.strands_out, strandset_to_json(ss) + "\n")
    _emit(
        {
            "command": "multi wrap-decode",
            "n": args.n,
            "k": args.k,
            "reads": len(mt.fragments),
            "message_len": len(m),
        }
    )
    _note(f"recovered {len(m)} bits and the {args.k}-strand multiset")
    return 0


def _cmd_multi_gamma0_encode(args) -> int:
    family, p = _load_params(args.params)
    _expect_family(family, "multi-gamma0")
    m = _read_bits(args.infile)
    per = multi_gamma0_message_len(p) // p.k
    if len(m) != per * p.k:
        raise ValueError(f"message must have {per * p.k} bits, got {len(m)}")
    msgs = tuple(m.window(i * per, per) for i in range(p.k))
    ss = multi_gamma0_encode(msgs, p)
    _write_text(args.out, strandset_to_json(ss) + "\n")
    _emit(
        {
            "command": "multi gamma0-encode",
            "n": p.n,
            "k": p.k,
            "message_len": len(m),
        }
    )
    _note(f"encoded {len(m)} bits into {p.k} indexed strands of {p.n} symbols")
    return 0


def _cmd_multi_gamma0_decode(args) -> int:
    family, p = _load_params(args.params)
    _expect_family(family, "multi-gamma0")
    mt = trace_from_text(_read_text(args.infile))
    msgs, rep = multi_gamma0_decode(mt, p)
    _write_bits(args.out, rep.message)
    row = _decode_report("multi gamma0-decode", rep)
    row["k"] = p.k
    _emit(row)
    _note(f"placed {row['placed']}/{row['reads']} reads, reliable={rep.reliable}")
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


_BENCH_PRESETS = {
    "sd": lambda: ("sd", derive_sd_params(2048, 1)),
    "trace": lambda: (
        "trace",
        derive_trace_params(4320, 1, L_min=90, L_over=85, I=4, r_I=16, K=8),
    ),
    "gamma0": lambda: (
        "gamma0",
        derive_gamma0_params(9856, 1, L_min=154, K=64, r_I=12),
    ),
    "multi-gamma0": lambda: (
        "multi-gamma0",
        derive_multi_gamma0_params(1030, 2, 1, L_min=100, K=32, r_I=12),
    ),
}


def _bench_trial(family, p, book, args, trial: int) -> bool:
    rng = np.random.default_rng([args.seed, trial])
    cfg_seed = args.seed * 1_000_003 + trial
    if family == "sd":
        m = BitSeq.random(p.n_prime, rng)
        return decode_sd(encode_sd(m, p.n, p.d), p.n, p.d) == m
    mode = "reliable-preserving" if args.e else "random"
    if family == "multi-gamma0":
        per = multi_gamma0_message_len(p) // p.k
        msgs = tuple(BitSeq.random(per, rng) for _ in range(p.k))
        ss = multi_gamma0_encode(msgs, p, book)
        cfg = ChannelConfig(L_min=p.L_min, L_over=0, seed=cfg_seed)
        got, _rep = multi_gamma0_decode(fragment_strands(ss, cfg).strip_truth(), p, book)
        return got == msgs
    m = BitSeq.random(_family_message_len(family, p), rng)
    if family == "trace":
        w = encode_trace(m, p, book)
        decode = reconstruct_trace
    else:
        w = encode_gamma0(m, p, book)
        decode = reconstruct_gamma0
    cfg = ChannelConfig(
        L_min=p.L_min, L_over=p.L_over, e=args.e, error_mode=mode,
        seed=cfg_seed, max_len=p.L_min + 30,
    )
    tr = corrupt(fragment(w, cfg), cfg)
    return decode(tr.strip_truth(), p, book).message == m


def _cmd_bench_roundtrip(args) -> int:
    if args.params:
        family, p = _load_params(args.params)
    else:
        family, p = _BENCH_PRESETS[args.family]()
    if family == "sd":
        if args.e:
            raise ValueError("the sd benchmark round-trips the codec itself; --e does not apply")
    elif args.e and family in ("gamma0", "multi-gamma0"):
        raise ValueError(
            "no-overlap families guarantee read placement under errors, not "
            "payload majority; bench their message round trip with --e 0"
        )
    elif args.e > p.e:
        raise ValueError(f"--e {args.e} exceeds the code tolerance {p.e}")
    book = None
    if family == "trace":
        book = trace_book(p)
    elif family == "gamma0":
        book = gamma0_book(p)
    elif family == "multi-gamma0":
        book = multi_gamma0_book(p)
    start = time.perf_counter()
    successes = sum(
        _bench_trial(family, p, book, args, t) for t in range(args.trials)
    )
    wall = time.perf_counter() - start
    msg = _family_message_len(family, p)
    sym = _family_symbols(family, p)
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
        row = {
            "regime": "single strand",
            "lower": str(r),
            "upper": str(r),
            "lower_float": float(r),
            "upper_float": float(r),
            "source": "overlap-fraction rate, matching directions",
            "note": "leading term; vanishing residue dropped",
        }
    elif args.regime == "multi":
        rep = bound_multi(args.a, args.gamma, args.kappa, args.lstar_frac)
        row = {
            "regime": rep["regime"],
            "lower": str(rep.lower),
            "upper": str(rep.upper),
            "lower_float": float(rep.lower),
            "upper_float": float(rep.upper),
            "source": "wrapped multi-strand rate bounds",
            "note": rep["note"],
        }
    else:
        rep = bound_multi_gamma0(args.a, args.kappa, args.lstar_frac)
        row = {
            "regime": rep["regime"],
            "lower": str(rep.lower),
            "upper": str(rep.upper),
            "lower_float": float(rep.lower),
            "upper_float": float(rep.upper),
            "source": "zero-overlap multi-strand rate, matching directions",
            "note": rep["note"],
        }
    _emit(row)
    _note(
        f"{row['regime']}: rate in [{row['lower_float']:.6g}, {row['upper_float']:.6g}]"
    )
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


def _params_flag(sp) -> None:
    sp.add_argument(
        "--params", required=True, metavar="FILE", help="output of 'params derive'"
    )


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
    sp.add_argument("--family", choices=tuple(_FAMILIES), default="trace")
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

    # trace ----------------------------------------------------------
    g = groups.add_parser("trace", help="single strand reconstructible from reads")
    sub = g.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("encode")
    _params_flag(sp)
    _io_flags(sp, "codeword text file")
    sp.set_defaults(func=_cmd_trace_encode)
    sp = sub.add_parser("decode")
    _params_flag(sp)
    _io_flags(sp, "message text file")
    sp.set_defaults(func=_cmd_trace_decode)

    g = groups.add_parser("trace-rs", help="trace code with outer symbol protection")
    sub = g.add_subparsers(dest="command", required=True)
    for name, handler in (("encode", _cmd_trace_rs_encode), ("decode", _cmd_trace_rs_decode)):
        sp = sub.add_parser(name)
        _params_flag(sp)
        sp.add_argument("--tau", type=int, required=True, help="corrupted group budget")
        _io_flags(sp, "codeword or message text file")
        sp.set_defaults(func=handler)

    # gamma0 ---------------------------------------------------------
    g = groups.add_parser("gamma0", help="indexed blocks, no overlap requirement")
    sub = g.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("encode")
    _params_flag(sp)
    _io_flags(sp, "codeword text file")
    sp.set_defaults(func=_cmd_gamma0_encode)
    sp = sub.add_parser("decode")
    _params_flag(sp)
    _io_flags(sp, "message text file")
    sp.set_defaults(func=_cmd_gamma0_decode)

    # multi ----------------------------------------------------------
    g = groups.add_parser("multi", help="multi-strand codes")
    sub = g.add_subparsers(dest="command", required=True)
    for name, handler in (
        ("wrap-encode", _cmd_multi_wrap_encode),
        ("wrap-decode", _cmd_multi_wrap_decode),
    ):
        sp = sub.add_parser(name)
        _params_flag(sp)
        sp.add_argument("--n", type=int, required=True, help="per-strand length")
        sp.add_argument("--k", type=int, required=True, help="strand count")
        _io_flags(sp, "strand set JSON or message text file")
        if name == "wrap-decode":
            sp.add_argument(
                "--strands-out", default=None, metavar="FILE",
                help="also write the recovered strand set",
            )
        sp.set_defaults(func=handler)
    for name, handler in (
        ("gamma0-encode", _cmd_multi_gamma0_encode),
        ("gamma0-decode", _cmd_multi_gamma0_decode),
    ):
        sp = sub.add_parser(name)
        _params_flag(sp)
        _io_flags(sp, "strand set JSON or message text file")
        sp.set_defaults(func=handler)

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
    sp.add_argument("--family", choices=tuple(_BENCH_PRESETS), default="trace")
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
    except StrandcodeError as exc:
        _note(f"error: {exc}")
        return 1
    except (ValueError, KeyError, OSError) as exc:
        _note(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
