"""Smoke test of the benchmark harness at toy sizes.

Runs every workload once, untraced and traced, with the correctness checks
on, and checks the rules the harness enforces.  Run from the repository
root with ``python3 -m pytest perfbench/tests``.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import harness  # noqa: E402
import workloads  # noqa: E402
from strandcode import positioning, sd_encoder, trace_codes  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
TOY = [
    workloads.TraceScale((2160,)),
    workloads.MultiIndex((2,)),
    workloads.TraceDamaged((4320,)),
    workloads.SdLong((65537,)),
]


@pytest.mark.parametrize("workload", TOY, ids=lambda w: w.name)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = harness.run(workload, seed=0, seconds=0, trace=False)
    assert result.correct
    assert (result.attempted, result.failed) == (1, 0)
    assert set(result.metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value, _ in result.metrics.values())


@pytest.mark.parametrize("workload", TOY, ids=lambda w: w.name)
def test_traced_run_reaches_its_layers_and_restores_them(workload):
    result = harness.run(workload, seed=0, seconds=0, trace=True)
    assert result.correct
    assert set(result.metrics) == {m["name"] for m in SPEC["per_layer"]}
    for name in workload.layers:
        assert result.metrics[f"{name}.calls"][0] > 0, name
    assert trace_codes.locate_index is positioning.locate_index
    assert positioning.locate_index.__name__ == "locate_index"


def test_workload_names_match_the_spec():
    assert list(workloads.WORKLOADS) == [w["name"] for w in SPEC["workloads"]]


def test_layer_that_is_never_called_fails_the_traced_run():
    class Idle(workloads.SdLong):
        layers = ("positioning.locate_index",)

    with pytest.raises(harness.BenchmarkError, match="never called"):
        harness.run(Idle((65537,)), seed=0, seconds=0, trace=True)


def test_setup_that_warms_the_wrong_cache_key_is_refused():
    class ColdScaffold(workloads.SdLong):
        def setup(self, n):
            p = workloads.sc.derive_sd_params(n, self.D)
            sd_encoder.scaffold_for(n, self.D)  # encode_sd looks up (n, d, 0)
            return workloads.Case(n, p, None, p.n_prime)

    with pytest.raises(harness.BenchmarkError, match="scaffold_for"):
        harness.run(ColdScaffold((65537,)), seed=0, seconds=0, trace=False)


def test_non_strandcode_error_from_a_decoder_escapes():
    class Broken(workloads.TraceScale):
        def decode(self, case, reads):
            raise KeyError("decoder bug")

    with pytest.raises(KeyError):
        harness.run(Broken((2160,)), seed=0, seconds=0, trace=False)
