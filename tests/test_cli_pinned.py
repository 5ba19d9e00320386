"""Pinned command line outputs.

A fixed sequence of invocations runs in one directory; later steps read the
files earlier steps wrote.  For each step the exit code is pinned, and so is
a digest of its stdout JSON rows (keys in emitted order) together with the
contents of every file it wrote, so any change to a command's JSON, its
files or its exit status shows up here.
"""

import contextlib
import hashlib
import io
import json

import numpy as np
import pytest

from strandcode.bitseq import BitSeq
from strandcode.cli import main

TRACE_GEOMETRY = ("--e", 1, "--L-min", 90, "--L-over", 85, "--I", 4, "--r-I", 16, "--K", 8)

# name -> (argv, files the step writes, file its last JSON row is saved to)
STEPS = {
    "params-sd": (
        ("params", "derive", "--family", "sd", "--n", 2048, "--d", 1),
        (),
        "sd_params.json",
    ),
    "params-trace": (
        ("params", "derive", "--family", "trace", "--n", 4320, *TRACE_GEOMETRY),
        (),
        "trace_params.json",
    ),
    "params-wrap": (
        ("params", "derive", "--family", "trace", "--n", 4405, *TRACE_GEOMETRY),
        (),
        "wrap_params.json",
    ),
    "params-gamma0": (
        (
            "params", "derive", "--family", "gamma0", "--n", 9856, "--e", 1,
            "--L-min", 154, "--K", 64, "--r-I", 12,
        ),
        (),
        "g0_params.json",
    ),
    "params-multi-gamma0": (
        (
            "params", "derive", "--family", "multi-gamma0", "--n", 1030, "--k", 2,
            "--e", 1, "--L-min", 100, "--K", 32, "--r-I", 12,
        ),
        (),
        "mg0_params.json",
    ),
    "params-rejected-override": (
        (
            "params", "derive", "--family", "gamma0", "--n", 512, "--e", 1,
            "--L-min", 64, "--L-over", 9,
        ),
        (),
        None,
    ),
    "params-lenient-infeasible": (
        (
            "params", "derive", "--family", "trace", "--n", 300, "--e", 5,
            "--a", 3, "--gamma", 0.1, "--lenient",
        ),
        (),
        None,
    ),
    "params-multi-gamma0-needs-k": (
        ("params", "derive", "--family", "multi-gamma0", "--n", 1030, "--e", 1),
        (),
        None,
    ),
    "sd-encode": (
        ("sd", "encode", "--n", 2048, "--d", 1, "--in", "sd_msg.txt", "--out", "sd_code.txt"),
        ("sd_code.txt",),
        None,
    ),
    "sd-decode": (
        ("sd", "decode", "--n", 2048, "--d", 1, "--in", "sd_code.txt", "--out", "sd_back.txt"),
        ("sd_back.txt",),
        None,
    ),
    "trace-encode": (
        (
            "trace", "encode", "--params", "trace_params.json", "--in", "trace_msg.txt",
            "--out", "trace_code.txt",
        ),
        ("trace_code.txt",),
        None,
    ),
    "trace-fragment": (
        (
            "channel", "fragment", "--in", "trace_code.txt", "--out", "trace_reads.txt",
            "--L-min", 90, "--L-over", 85, "--seed", 3, "--no-truth",
        ),
        ("trace_reads.txt",),
        None,
    ),
    "trace-corrupt": (
        (
            "channel", "corrupt", "--in", "trace_reads.txt", "--out", "trace_noisy.txt",
            "--e", 1, "--seed", 7,
        ),
        ("trace_noisy.txt",),
        None,
    ),
    "trace-decode": (
        (
            "trace", "decode", "--params", "trace_params.json", "--in", "trace_reads.txt",
            "--out", "trace_back.txt",
        ),
        ("trace_back.txt",),
        None,
    ),
    "trace-rs-encode": (
        (
            "trace-rs", "encode", "--params", "trace_params.json", "--tau", 1,
            "--in", "rs_msg.txt", "--out", "rs_code.txt",
        ),
        ("rs_code.txt",),
        None,
    ),
    "trace-rs-fragment": (
        (
            "channel", "fragment", "--in", "rs_code.txt", "--out", "rs_reads.txt",
            "--L-min", 90, "--L-over", 85, "--seed", 13, "--no-truth",
        ),
        ("rs_reads.txt",),
        None,
    ),
    "trace-rs-decode": (
        (
            "trace-rs", "decode", "--params", "trace_params.json", "--tau", 1,
            "--in", "rs_reads.txt", "--out", "rs_back.txt",
        ),
        ("rs_back.txt",),
        None,
    ),
    "gamma0-encode": (
        (
            "gamma0", "encode", "--params", "g0_params.json", "--in", "g0_msg.txt",
            "--out", "g0_code.txt",
        ),
        ("g0_code.txt",),
        None,
    ),
    "gamma0-fragment": (
        (
            "channel", "fragment", "--in", "g0_code.txt", "--out", "g0_reads.txt",
            "--L-min", 154, "--L-over", 0, "--seed", 17, "--no-truth",
        ),
        ("g0_reads.txt",),
        None,
    ),
    "gamma0-decode": (
        (
            "gamma0", "decode", "--params", "g0_params.json", "--in", "g0_reads.txt",
            "--out", "g0_back.txt",
        ),
        ("g0_back.txt",),
        None,
    ),
    "multi-wrap-encode": (
        (
            "multi", "wrap-encode", "--params", "wrap_params.json", "--n", 1165, "--k", 4,
            "--in", "wrap_msg.txt", "--out", "wrap_strands.json",
        ),
        ("wrap_strands.json",),
        None,
    ),
    "multi-wrap-fragment": (
        (
            "channel", "fragment", "--in", "wrap_strands.json", "--out", "wrap_reads.txt",
            "--L-min", 90, "--L-over", 85, "--seed", 21, "--N", 4405, "--no-truth",
        ),
        ("wrap_reads.txt",),
        None,
    ),
    "multi-wrap-decode": (
        (
            "multi", "wrap-decode", "--params", "wrap_params.json", "--n", 1165, "--k", 4,
            "--in", "wrap_reads.txt", "--out", "wrap_back.txt",
            "--strands-out", "wrap_strands_back.json",
        ),
        ("wrap_back.txt", "wrap_strands_back.json"),
        None,
    ),
    "multi-gamma0-encode": (
        (
            "multi", "gamma0-encode", "--params", "mg0_params.json", "--in", "mg0_msg.txt",
            "--out", "mg0_strands.json",
        ),
        ("mg0_strands.json",),
        None,
    ),
    "multi-gamma0-fragment": (
        (
            "channel", "fragment", "--in", "mg0_strands.json", "--out", "mg0_reads.txt",
            "--L-min", 100, "--L-over", 0, "--seed", 25, "--no-truth",
        ),
        ("mg0_reads.txt",),
        None,
    ),
    "multi-gamma0-decode": (
        (
            "multi", "gamma0-decode", "--params", "mg0_params.json", "--in", "mg0_reads.txt",
            "--out", "mg0_back.txt",
        ),
        ("mg0_back.txt",),
        None,
    ),
    "wrong-family": (
        (
            "trace", "decode", "--params", "sd_params.json", "--in", "trace_reads.txt",
            "--out", "never.txt",
        ),
        (),
        None,
    ),
    "bounds-single": (("bounds", "--regime", "single", "--a", 2, "--gamma", 0.5), (), None),
    "bounds-multi": (
        (
            "bounds", "--regime", "multi", "--a", 3, "--gamma", 0.2, "--kappa", 0.25,
            "--lstar-frac", 0.1,
        ),
        (),
        None,
    ),
    "bounds-multi-gamma0": (
        ("bounds", "--regime", "multi-gamma0", "--a", 3, "--kappa", 0.25, "--lstar-frac", 0.1),
        (),
        None,
    ),
}

# message file -> (length, seed of BitSeq.random)
MESSAGES = {
    "sd_msg.txt": (1882, 3),
    "trace_msg.txt": (1888, 11),
    "rs_msg.txt": (1568, 9),
    "g0_msg.txt": (3648, 15),
    "wrap_msg.txt": (1888, 19),
    "mg0_msg.txt": (720, 23),
}

PINNED = {
    "params-sd": (
        0,
        "c2dc822274b875c886a2fefb7d459aea09c6916880ef973f029007426e7a20ab",
    ),
    "params-trace": (
        0,
        "402ebf302c954bb8227786ab22eddb147fcf0cbec42d1da86224139c08985837",
    ),
    "params-wrap": (
        0,
        "1888895a2e2f95c391529826725afefbc1d23f31ced25be4cf41be35d48896ef",
    ),
    "params-gamma0": (
        0,
        "9f3395d3082a77530f07a95e476aac20e4a89b53af6d513d798de79e905386e0",
    ),
    "params-multi-gamma0": (
        0,
        "295f40ee3c615e676fbe3ed3bdef7bca085a3b54b440288a591878cda673e2d0",
    ),
    "params-rejected-override": (
        1,
        "9019b067ea5dfe25b7d5b3655548ada230ebc5204bbe4b111e5103757bfafc43",
    ),
    "params-lenient-infeasible": (
        1,
        "1c910708872caf01adc6565ac62aa9e0b660a3e2ee45a6dc8c7b915b3eb1c302",
    ),
    "params-multi-gamma0-needs-k": (
        1,
        "9019b067ea5dfe25b7d5b3655548ada230ebc5204bbe4b111e5103757bfafc43",
    ),
    "sd-encode": (
        0,
        "24f74db59cfe330f716750b62fde414d87817b03086ff5a534e4f80e3d3feb63",
    ),
    "sd-decode": (
        0,
        "c8df15a2dc4eec1931cdc81abbc46dbc120a1ad7769ebd7ce3f5f48edff07f19",
    ),
    "trace-encode": (
        0,
        "d0a73e6dce087e8420904aa269300fd5fababc29bec73ccf9f46c63e1249d7ef",
    ),
    # the channel fragment steps were re-pinned when the row dropped its
    # "strategy" field, which could only read "random"; the reads they
    # write are unchanged
    "trace-fragment": (
        0,
        "45cdcdd8fc82ab00826aa018131768bc7b9c0a2edbd5b6570124b038c4767b04",
    ),
    "trace-corrupt": (
        0,
        "f26b7e79da644f822a220843aa39c4ae410eb53e4cddb7c8d9b08c3b7e31a085",
    ),
    "trace-decode": (
        0,
        "b0cddc3902bfb780db0af8c8ddb0c85145420e4f9d21e95dfd88b6a3d8a50995",
    ),
    "trace-rs-encode": (
        0,
        "f898d874d637e7362081adf838c4c73000acdb55ebb29a2f5c4660de492d2089",
    ),
    "trace-rs-fragment": (
        0,
        "b131a18c475b8e5411043ea61f9d519fc3a7ab6826bc76b922650528d2074da3",
    ),
    "trace-rs-decode": (
        0,
        "9ab9779ff84faef65074667fef6ddd2bdfb73a3c24208f6ce512c4e727b052f3",
    ),
    "gamma0-encode": (
        0,
        "ace63cd11c6bcb8bdda89bbef37fa72cfd7bd0293704dff9e2ccd1466cc51393",
    ),
    "gamma0-fragment": (
        0,
        "5f27924063c8bc898887fec9e66edbcaffe7e97b04351107d7225faedcd1689c",
    ),
    "gamma0-decode": (
        0,
        "0e538c9bfb48d98b0d5feaf32c9ee7b8fb7251a474e102ba481446cc52753f5f",
    ),
    "multi-wrap-encode": (
        0,
        "22c9734a6f50b5382b2b32880d3d49345dbe8f4cc6830880a7711689b947ecd4",
    ),
    "multi-wrap-fragment": (
        0,
        "21f82e42e43f4fe7e4f9f509500b11f93c4d2ac2080064d9ce3b25791569c043",
    ),
    # re-pinned when wrap_decode began returning its report: the row now
    # carries the reliable flag and the placement counts of the decode
    "multi-wrap-decode": (
        0,
        "0cc4a7b2ae1fcf5f8d56699d33c7657bd1ab5df1d240a5176497e201a5d0b6df",
    ),
    "multi-gamma0-encode": (
        0,
        "08fa940439316bde90d509e537df1f9b1521a35731c1c7be5598e3dcf02b32bf",
    ),
    "multi-gamma0-fragment": (
        0,
        "819de2f40c0e2cf0f79bc30b235958afbfdb91def84fb4b7a8a120b997b0181a",
    ),
    "multi-gamma0-decode": (
        0,
        "eda66bbdf572f7797cdc6f3489b84f04fdb1daf154c0cd54d2222c906c5688b3",
    ),
    "wrong-family": (
        1,
        "9019b067ea5dfe25b7d5b3655548ada230ebc5204bbe4b111e5103757bfafc43",
    ),
    "bounds-single": (
        0,
        "bb8a23601f311f004fd113e30ac61a36ece1e8543edba17fa7a3ad034ce5411c",
    ),
    "bounds-multi": (
        0,
        "ba13c75063ee19ac0cbbe43f0549a7434086014605bfc4f551e7e6057e8891b2",
    ),
    "bounds-multi-gamma0": (
        0,
        "5224174d3c72a0918cd84fc234c78035b7ae3660f43ba4eee6983c37138824e8",
    ),
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_steps(work):
    """Run every step in ``work``; return step -> (exit code, digest)."""
    for name, (length, seed) in MESSAGES.items():
        (work / name).write_text(BitSeq.random(length, np.random.default_rng(seed)).to_text())
    out = {}
    for step, (argv, written, save_as) in STEPS.items():
        argv = [str(work / a) if str(a).endswith((".txt", ".json")) else str(a) for a in argv]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        rows = [json.loads(ln) for ln in buf.getvalue().splitlines() if ln.strip()]
        if save_as is not None and rows:
            (work / save_as).write_text(json.dumps(rows[-1]))
        files = {f: _digest((work / f).read_text()) for f in written}
        out[step] = (code, _digest(json.dumps({"rows": rows, "files": files})))
    return out


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    return run_steps(tmp_path_factory.mktemp("cli_pinned"))


def test_every_step_is_pinned():
    assert list(PINNED) == list(STEPS)


@pytest.mark.parametrize("step", list(STEPS))
def test_step_output_is_pinned(step, outcomes):
    assert outcomes[step] == PINNED[step]
