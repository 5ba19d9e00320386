"""End-to-end checks of the command line surface through real files."""

import contextlib
import io
import json
from fractions import Fraction

import numpy as np
import pytest

from strandcode.bitseq import BitSeq
from strandcode.cli import main


def run(*argv):
    """Invoke the CLI in process; return (exit code, last JSON row)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([str(a) for a in argv])
    lines = [ln for ln in buf.getvalue().splitlines() if ln.strip()]
    return code, json.loads(lines[-1]) if lines else None


def read_bits(path):
    return BitSeq.from_text("".join(path.read_text().split()))


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def trace_env(work):
    code, row = run(
        "params", "derive", "--family", "trace", "--n", 4320, "--e", 1,
        "--L-min", 90, "--L-over", 85, "--I", 4, "--r-I", 16, "--K", 8,
    )
    assert code == 0
    params = work / "trace_params.json"
    params.write_text(json.dumps(row))
    m = BitSeq.random(row["message_len"], np.random.default_rng(11))
    msg = work / "trace_msg.txt"
    msg.write_text(m.to_text())
    codeword = work / "trace_code.txt"
    assert run("trace", "encode", "--params", params, "--in", msg, "--out", codeword)[0] == 0
    return {"params": params, "msg": msg, "m": m, "codeword": codeword, "row": row}


class TestParamsDerive:
    def test_trace_toy_geometry(self, trace_env):
        row = trace_env["row"]
        assert row["feasible"] and row["violations"] == []
        assert (row["F"], row["L"], row["message_len"]) == (3, 34, 1888)
        assert row["rate"] == pytest.approx(1888 / 4320)

    def test_sd_row_carries_its_own_payload_length(self):
        code, row = run("params", "derive", "--family", "sd", "--n", 2048, "--d", 1)
        assert code == 0
        assert row["n_prime"] == row["message_len"] == 1882

    def test_multi_gamma0_row(self):
        code, row = run(
            "params", "derive", "--family", "multi-gamma0", "--n", 1030,
            "--k", 2, "--e", 1, "--L-min", 100, "--K", 32, "--r-I", 12,
        )
        assert code == 0
        assert (row["I"], row["m_prime"], row["message_len"]) == (5, 39, 720)
        assert row["output_len"] == 2060

    def test_d_and_e_must_agree(self):
        assert run("params", "derive", "--n", 100, "--d", 3, "--e", 3)[0] == 1
        assert run("params", "derive", "--n", 100)[0] == 1

    def test_override_must_fit_the_family(self):
        code, _ = run(
            "params", "derive", "--family", "gamma0", "--n", 512, "--e", 1,
            "--L-min", 64, "--L-over", 9,
        )
        assert code == 1

    def test_infeasible_geometry_strict_and_lenient(self):
        argv = (
            "params", "derive", "--family", "trace", "--n", 300, "--e", 5,
            "--a", 3, "--gamma", 0.1,
        )
        code, row = run(*argv)
        assert code == 1 and row is None
        code, row = run(*argv, "--lenient")
        assert code == 1
        assert not row["feasible"] and "payload-space" in row["violations"]

    def test_decode_refuses_a_lenient_infeasible_params_file(self, work, capsys):
        code, row = run(
            "params", "derive", "--family", "trace", "--n", 4096, "--e", 1,
            "--a", 3, "--gamma", 0.1, "--lenient",
        )
        assert code == 1 and not row["feasible"]
        params = work / "infeasible_params.json"
        params.write_text(json.dumps(row))
        word = work / "infeasible_word.txt"
        word.write_text(BitSeq.random(4096, np.random.default_rng(5)).to_text())
        reads, back = work / "infeasible_reads.txt", work / "infeasible_back.txt"
        assert run(
            "channel", "fragment", "--in", word, "--out", reads,
            "--L-min", row["L_min"], "--L-over", row["L_over"],
        )[0] == 0
        capsys.readouterr()
        code, _ = run("trace", "decode", "--params", params, "--in", reads, "--out", back)
        err = capsys.readouterr().err
        assert code == 1 and not back.exists()
        assert "error: " in err
        for name in ("payload-space", "marker-window", "matching-window", "group-coverage"):
            assert name in err

    def test_encode_refuses_a_file_whose_violations_were_edited_away(self, work, capsys):
        # an emptied violations list made trace encode run the infeasible
        # geometry and crash inside the payload codec
        code, row = run(
            "params", "derive", "--family", "trace", "--n", 4096, "--e", 1,
            "--a", 3, "--gamma", 0.1, "--lenient",
        )
        assert code == 1 and row["violations"]
        row["violations"] = []
        params = work / "edited_violations.json"
        params.write_text(json.dumps(row))
        msg, out = work / "edited_msg.txt", work / "edited_code.txt"
        msg.write_text(BitSeq.zeros(8).to_text())
        capsys.readouterr()
        code, _ = run("trace", "encode", "--params", params, "--in", msg, "--out", out)
        assert code == 1 and not out.exists()
        assert "field 'violations'" in capsys.readouterr().err

    @pytest.mark.parametrize("field, delta", [("L", 1), ("F", 1), ("d2", 2), ("v_floor", 1)])
    def test_codecs_refuse_a_file_whose_derived_field_was_edited(
        self, work, trace_env, capsys, field, delta
    ):
        row = dict(trace_env["row"], **{field: trace_env["row"][field] + delta})
        params = work / f"edited_{field}.json"
        params.write_text(json.dumps(row))
        out = work / f"edited_{field}_code.txt"
        capsys.readouterr()
        code, _ = run(
            "trace", "encode", "--params", params, "--in", trace_env["msg"], "--out", out
        )
        assert code == 1 and not out.exists()
        assert f"field {field!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value", [("e", "1"), ("e", True), ("n", 4320.0), ("K", "8"), ("r_I", None)]
    )
    def test_codecs_refuse_a_file_field_of_the_wrong_json_type(
        self, work, trace_env, capsys, field, value
    ):
        # "e": "1" ended trace encode in a TypeError traceback, and true
        # passed as the integer 1
        row = dict(trace_env["row"], **{field: value})
        params = work / f"typed_{field}.json"
        params.write_text(json.dumps(row))
        out = work / f"typed_{field}_code.txt"
        capsys.readouterr()
        code, _ = run(
            "trace", "encode", "--params", params, "--in", trace_env["msg"], "--out", out
        )
        assert code == 1 and not out.exists()
        assert f"error: params file field {field!r}" in capsys.readouterr().err

    def test_codecs_refuse_a_params_file_that_is_not_an_object(self, work, trace_env, capsys):
        params = work / "list_params.json"
        params.write_text(json.dumps([trace_env["row"]]))
        capsys.readouterr()
        code, _ = run(
            "trace", "encode", "--params", params, "--in", trace_env["msg"],
            "--out", work / "list_code.txt",
        )
        assert code == 1
        assert "error: params file has unknown family None" in capsys.readouterr().err

    def test_the_regime_constants_are_not_read_back(self, work, trace_env):
        # a and gamma only record how L_min and L_over were sized
        row = dict(trace_env["row"], a=9.5, gamma=0.01)
        params = work / "edited_regime.json"
        params.write_text(json.dumps(row))
        out = work / "edited_regime_code.txt"
        assert run(
            "trace", "encode", "--params", params, "--in", trace_env["msg"], "--out", out
        )[0] == 0
        assert out.read_text() == trace_env["codeword"].read_text()

    def test_the_index_segment_count_is_not_an_override(self):
        with pytest.raises(SystemExit) as exc:
            run(
                "params", "derive", "--family", "trace", "--n", 4320, "--e", 1,
                "--L-min", 90, "--L-over", 85, "--I", 4, "--r-I", 16, "--K", 8, "--F", 4,
            )
        assert exc.value.code == 2

    def test_the_matching_window_is_not_an_override(self):
        # L is the payload window every L_over overlap holds; a larger one
        # passed the derive and broke the decoder's argument
        with pytest.raises(SystemExit) as exc:
            run(
                "params", "derive", "--family", "trace", "--n", 4320, "--e", 1,
                "--L-min", 90, "--L-over", 85, "--I", 4, "--r-I", 16, "--K", 8, "--L", 40,
            )
        assert exc.value.code == 2


class TestSdCli:
    def test_round_trip_and_verify(self, work):
        m = BitSeq.random(1882, np.random.default_rng(3))
        msg = work / "sd_msg.txt"
        msg.write_text(m.to_text())
        codef = work / "sd_code.txt"
        back = work / "sd_back.txt"
        assert run(
            "sd", "encode", "--n", 2048, "--d", 1, "--certify",
            "--in", msg, "--out", codef,
        )[0] == 0
        assert run("sd", "decode", "--n", 2048, "--d", 1, "--in", codef, "--out", back)[0] == 0
        assert read_bits(back) == m
        code, row = run("verify", "sd", "--in", codef, "--n", 2048, "--d", 1)
        assert code == 0 and row["ok"]

    def test_verify_rejects_wrong_length(self, work):
        short = work / "sd_short.txt"
        short.write_text("0101")
        code, row = run("verify", "sd", "--in", short, "--n", 2048, "--d", 1)
        assert code == 1 and not row["ok"]

    def test_verify_refuses_infeasible_parameters(self, work, capsys):
        word = work / "sd_infeasible.txt"
        word.write_text("0" * 4096)
        capsys.readouterr()
        code, row = run("verify", "sd", "--in", word, "--n", 4096, "--d", 3)
        assert code == 1 and row is None
        assert "replacement-shrink" in capsys.readouterr().err


class TestTraceCli:
    def test_blind_round_trip(self, work, trace_env):
        tracef = work / "trace_reads.txt"
        back = work / "trace_back.txt"
        assert run(
            "channel", "fragment", "--in", trace_env["codeword"], "--out", tracef,
            "--L-min", 90, "--L-over", 85, "--seed", 3, "--no-truth",
        )[0] == 0
        code, row = run(
            "trace", "decode", "--params", trace_env["params"], "--in", tracef,
            "--out", back,
        )
        assert code == 0 and row["reliable"]
        assert read_bits(back) == trace_env["m"]

    def test_survives_reliable_preserving_errors(self, work, trace_env):
        clean = work / "trace_clean.txt"
        noisy = work / "trace_noisy.txt"
        back = work / "trace_noisy_back.txt"
        assert run(
            "channel", "fragment", "--in", trace_env["codeword"], "--out", clean,
            "--L-min", 90, "--L-over", 85, "--seed", 5, "--max-len", 120,
        )[0] == 0
        assert run(
            "channel", "corrupt", "--in", clean, "--out", noisy,
            "--e", 1, "--error-mode", "reliable-preserving", "--seed", 7, "--no-truth",
        )[0] == 0
        code, row = run(
            "trace", "decode", "--params", trace_env["params"], "--in", noisy,
            "--out", back,
        )
        assert code == 0 and row["reliable"]
        assert read_bits(back) == trace_env["m"]

    def test_params_family_is_enforced(self, work, trace_env):
        _, row = run("params", "derive", "--family", "sd", "--n", 2048, "--d", 1)
        wrong = work / "sd_params.json"
        wrong.write_text(json.dumps(row))
        code, _ = run(
            "trace", "decode", "--params", wrong, "--in", trace_env["codeword"],
            "--out", work / "never.txt",
        )
        assert code == 1


class TestTraceRsCli:
    def test_round_trip(self, work, trace_env):
        msg = work / "rs_msg.txt"
        codef = work / "rs_code.txt"
        tracef = work / "rs_reads.txt"
        back = work / "rs_back.txt"
        m = BitSeq.random(1568, np.random.default_rng(9))
        msg.write_text(m.to_text())
        assert run(
            "trace-rs", "encode", "--params", trace_env["params"], "--tau", 1,
            "--in", msg, "--out", codef,
        )[0] == 0
        assert run(
            "channel", "fragment", "--in", codef, "--out", tracef,
            "--L-min", 90, "--L-over", 85, "--seed", 13, "--no-truth",
        )[0] == 0
        assert run(
            "trace-rs", "decode", "--params", trace_env["params"], "--tau", 1,
            "--in", tracef, "--out", back,
        )[0] == 0
        assert read_bits(back) == m

    def test_encode_refuses_groups_of_unequal_block_counts(self, work, capsys):
        # 49 blocks over 16 groups: the derive finds no violation, and the
        # outer lanes need every group to carry the same blocks
        code, row = run(
            "params", "derive", "--family", "trace", "--n", 4410, "--e", 1,
            "--L-min", 90, "--L-over", 85, "--I", 4, "--r-I", 16, "--K", 8,
        )
        assert code == 0 and row["violations"] == []
        params = work / "uneven_params.json"
        params.write_text(json.dumps(row))
        msg, codef = work / "uneven_msg.txt", work / "uneven_code.txt"
        msg.write_text(BitSeq.zeros(8).to_text())
        capsys.readouterr()
        code, _ = run(
            "trace-rs", "encode", "--params", params, "--tau", 1, "--in", msg, "--out", codef
        )
        assert code == 1 and not codef.exists()
        assert "outer-uniform-groups" in capsys.readouterr().err


class TestGamma0Cli:
    def test_round_trip(self, work):
        code, row = run(
            "params", "derive", "--family", "gamma0", "--n", 9856, "--e", 1,
            "--L-min", 154, "--K", 64, "--r-I", 12,
        )
        assert code == 0 and row["message_len"] == 3648
        params = work / "g0_params.json"
        params.write_text(json.dumps(row))
        m = BitSeq.random(3648, np.random.default_rng(15))
        msg, codef = work / "g0_msg.txt", work / "g0_code.txt"
        tracef, back = work / "g0_reads.txt", work / "g0_back.txt"
        msg.write_text(m.to_text())
        assert run("gamma0", "encode", "--params", params, "--in", msg, "--out", codef)[0] == 0
        assert run(
            "channel", "fragment", "--in", codef, "--out", tracef,
            "--L-min", 154, "--L-over", 0, "--seed", 17, "--no-truth",
        )[0] == 0
        code, row = run("gamma0", "decode", "--params", params, "--in", tracef, "--out", back)
        assert code == 0 and row["reliable"]
        assert read_bits(back) == m


class TestMultiCli:
    def test_wrap_round_trip(self, work):
        code, row = run(
            "params", "derive", "--family", "trace", "--n", 4405, "--e", 1,
            "--L-min", 90, "--L-over", 85, "--I", 4, "--r-I", 16, "--K", 8,
        )
        assert code == 0
        params = work / "wrap_params.json"
        params.write_text(json.dumps(row))
        m = BitSeq.random(row["message_len"], np.random.default_rng(19))
        msg, strands = work / "wrap_msg.txt", work / "wrap_strands.json"
        tracef, back = work / "wrap_reads.txt", work / "wrap_back.txt"
        strands_back = work / "wrap_strands_back.json"
        msg.write_text(m.to_text())
        assert run(
            "multi", "wrap-encode", "--params", params, "--n", 1165, "--k", 4,
            "--in", msg, "--out", strands,
        )[0] == 0
        assert run(
            "channel", "fragment", "--in", strands, "--out", tracef,
            "--L-min", 90, "--L-over", 85, "--seed", 21, "--N", 4405, "--no-truth",
        )[0] == 0
        assert run(
            "multi", "wrap-decode", "--params", params, "--n", 1165, "--k", 4,
            "--in", tracef, "--out", back, "--strands-out", strands_back,
        )[0] == 0
        assert read_bits(back) == m
        assert json.loads(strands.read_text()) == json.loads(strands_back.read_text())

    def test_indexed_round_trip(self, work):
        _, row = run(
            "params", "derive", "--family", "multi-gamma0", "--n", 1030,
            "--k", 2, "--e", 1, "--L-min", 100, "--K", 32, "--r-I", 12,
        )
        params = work / "mg0_params.json"
        params.write_text(json.dumps(row))
        m = BitSeq.random(720, np.random.default_rng(23))
        msg, strands = work / "mg0_msg.txt", work / "mg0_strands.json"
        tracef, back = work / "mg0_reads.txt", work / "mg0_back.txt"
        msg.write_text(m.to_text())
        assert run(
            "multi", "gamma0-encode", "--params", params, "--in", msg, "--out", strands,
        )[0] == 0
        assert run(
            "channel", "fragment", "--in", strands, "--out", tracef,
            "--L-min", 100, "--L-over", 0, "--seed", 25, "--no-truth",
        )[0] == 0
        code, row = run(
            "multi", "gamma0-decode", "--params", params, "--in", tracef, "--out", back,
        )
        assert code == 0 and row["reliable"]
        assert read_bits(back) == m


class TestChannelCli:
    def test_fragment_takes_no_strategy(self, work, trace_env):
        # no flag carries fixed cuts, so random is the one strategy that runs
        with pytest.raises(SystemExit) as exc:
            run(
                "channel", "fragment", "--in", trace_env["codeword"], "--out",
                work / "ch_strategy.txt", "--L-min", 90, "--strategy", "fixed-cuts",
            )
        assert exc.value.code == 2

    def test_truth_annotations_power_the_legality_check(self, work, trace_env):
        withtruth = work / "ch_truth.txt"
        assert run(
            "channel", "fragment", "--in", trace_env["codeword"], "--out", withtruth,
            "--L-min", 90, "--L-over", 85, "--seed", 27,
        )[0] == 0
        code, row = run("verify", "trace-legal", "--in", withtruth)
        assert code == 0 and row["ok"]
        blind = work / "ch_blind.txt"
        assert run(
            "channel", "fragment", "--in", trace_env["codeword"], "--out", blind,
            "--L-min", 90, "--L-over", 85, "--seed", 27, "--no-truth",
        )[0] == 0
        code, row = run("verify", "trace-legal", "--in", blind)
        assert code == 1 and not row["ok"]

    @pytest.mark.parametrize("field, value", [("n", 4320.5), ("n", "4320"), ("k", True)])
    def test_fragment_refuses_a_strand_set_field_of_the_wrong_json_type(
        self, work, trace_env, capsys, field, value
    ):
        # "n": 4320.5 was read as 4320 and "k": true as 1, and both cut reads
        strand = read_bits(trace_env["codeword"]).to_text()
        obj = dict({"n": 4320, "k": 1, "strands": [strand]}, **{field: value})
        strands = work / f"ch_typed_{field}.json"
        strands.write_text(json.dumps(obj))
        out = work / f"ch_typed_{field}_reads.txt"
        capsys.readouterr()
        code, _ = run("channel", "fragment", "--in", strands, "--out", out, "--L-min", 90)
        assert code == 1 and not out.exists()
        assert f"error: strand set field {field!r}" in capsys.readouterr().err

    def test_corrupt_without_truth_is_rejected_for_geometry_modes(self, work, trace_env):
        blind = work / "ch_blind2.txt"
        assert run(
            "channel", "fragment", "--in", trace_env["codeword"], "--out", blind,
            "--L-min", 90, "--L-over", 85, "--seed", 29, "--no-truth",
        )[0] == 0
        code, _ = run(
            "channel", "corrupt", "--in", blind, "--out", work / "never2.txt",
            "--e", 1, "--error-mode", "reliable-preserving",
        )
        assert code == 1


class TestVerifyCli:
    def test_wwl(self, work):
        good, bad = work / "wwl_good.txt", work / "wwl_bad.txt"
        good.write_text(BitSeq.ones(64).to_text())
        bad.write_text(BitSeq.zeros(64).to_text())
        assert run("verify", "wwl", "--in", good, "--window", 8, "--floor", 3)[0] == 0
        assert run("verify", "wwl", "--in", bad, "--window", 8, "--floor", 3)[0] == 1

    def test_book(self, work):
        from strandcode.positioning import book_to_json, build_index_book

        book = build_index_book(4, 3, 8, r_I=16)
        goodf = work / "book_good.json"
        goodf.write_text(book_to_json(book))
        code, row = run("verify", "book", "--in", goodf)
        assert code == 0 and row["ok"] and row["codewords"] == 16
        # duplicating a codeword kills the pairwise distance promise
        obj = json.loads(book_to_json(book))
        obj["codewords"][1] = obj["codewords"][0]
        badf = work / "book_bad.json"
        badf.write_text(json.dumps(obj))
        code, row = run("verify", "book", "--in", badf)
        assert code == 1 and not row["ok"]

    @pytest.mark.parametrize(
        "field, value", [("I", 4.0), ("d", "3"), ("d", True), ("r_I", None), ("K_marker", 8.0)]
    )
    def test_book_refuses_a_field_of_the_wrong_json_type(self, work, capsys, field, value):
        # each of these ended verify book in a TypeError traceback or was
        # read as the integer it looks like
        from strandcode.positioning import book_to_json, build_index_book

        obj = dict(json.loads(book_to_json(build_index_book(4, 3, 8, r_I=16))), **{field: value})
        bookf = work / f"book_typed_{field}.json"
        bookf.write_text(json.dumps(obj))
        capsys.readouterr()
        code, _ = run("verify", "book", "--in", bookf)
        assert code == 1
        assert f"error: index book field {field!r}" in capsys.readouterr().err

    def test_book_refuses_a_file_that_is_not_an_object(self, work, capsys):
        # a JSON list ended verify book in a TypeError traceback
        bookf = work / "book_list.json"
        bookf.write_text(json.dumps([4, 16, 3, 8]))
        capsys.readouterr()
        code, _ = run("verify", "book", "--in", bookf)
        assert code == 1
        assert "error: index book is not a JSON object" in capsys.readouterr().err


class TestBoundsCli:
    def test_single_strand_equalizes_at_half_overlap(self):
        code, row = run("bounds", "--regime", "single", "--a", 2, "--gamma", 0.5)
        assert code == 0
        assert row["lower"] == row["upper"] == "1"
        assert row["lower_float"] == 1.0

    def test_multi_strand_leftover_widens_the_gap(self):
        code, row = run(
            "bounds", "--regime", "multi", "--a", 3, "--gamma", 0.2,
            "--kappa", 0.25, "--lstar-frac", 0.1,
        )
        assert code == 0
        assert (row["lower"], row["upper"]) == ("17/18", "29/30")

    def test_zero_overlap_directions_match(self):
        code, row = run(
            "bounds", "--regime", "multi-gamma0", "--a", 3, "--kappa", 0.25,
            "--lstar-frac", 0.1,
        )
        assert code == 0
        assert row["lower"] == row["upper"] == "14/15"

    @pytest.mark.parametrize(
        "argv, lower, upper",
        [
            (
                ("multi", "--a", 2, "--gamma", 0.25, "--kappa", 0.5, "--lstar-frac", 0.2),
                "1", "17/15",
            ),
            (("multi", "--a", 3, "--gamma", 0.2, "--kappa", 0.25), "17/18", "17/18"),
            (("multi-gamma0", "--a", 4, "--lstar-frac", 0.5), "7/8", "7/8"),
            (("multi-gamma0", "--a", 3, "--kappa", 0.25), "8/9", "8/9"),
        ],
    )
    def test_rows_print_the_exact_bound_fractions(self, argv, lower, upper):
        # the hand-computed points of tests/test_oracle.py
        code, row = run("bounds", "--regime", *argv)
        assert code == 0
        assert (row["lower"], row["upper"]) == (lower, upper)
        assert row["lower_float"] == float(Fraction(lower))
        assert row["upper_float"] == float(Fraction(upper))

    def test_short_fragments_drive_the_rate_to_zero(self):
        code, row = run("bounds", "--regime", "multi", "--a", 0.9, "--kappa", 0.5)
        assert code == 0
        assert row["regime"] == "vanishing" and row["upper_float"] == 0.0
