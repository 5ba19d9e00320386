"""Run the strandcode benchmark.

One workload, as the benchmark contract calls it:

    python3 perfbench/run.py --workload trace-scale --seed 0 --seconds 15 --trace 0

prints notes and every metric by name with its unit, then one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones.

Every workload, untraced and traced, each in its own process:

    python3 perfbench/run.py --all --seed 0 --seconds 15

adds the tracing overhead per workload.  Run from any directory; the
package is imported from the ``src`` directory beside this one.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_package() -> None:
    if not (SRC / "strandcode" / "__init__.py").is_file():
        sys.exit(f"run.py: no strandcode sources under {SRC}")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import strandcode

    if Path(strandcode.__file__).resolve().parent != SRC / "strandcode":
        sys.exit(f"run.py: imported strandcode from {strandcode.__file__}, not {SRC}")


def _print_result(result) -> None:
    for note in result.notes:
        print(f"# {note}")
    for name, (value, unit) in result.metrics.items():
        print(f"{name:44s} {value:14.6g} {unit}")
    print(json.dumps(result.to_json()), flush=True)


def _run_all(names, seed: int, seconds: float) -> int:
    status = 0
    for name in names:
        rates = {}
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(f"# {name} --trace {trace}: exit code {proc.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                status = 1
            key = "traced.msg_bits_per_s" if trace else "msg_bits_per_s"
            rates[trace] = result["metrics"][key]["value"]
        if len(rates) == 2:
            print(
                f"# {name}: tracing overhead: msg_bits_per_s {rates[0]:.6g} untraced, "
                f"{rates[1]:.6g} traced ({rates[0] / rates[1] - 1:+.1%} time)\n",
                flush=True,
            )
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload")
    what.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    import harness
    from workloads import WORKLOADS

    if args.all:
        return _run_all(list(WORKLOADS), args.seed, args.seconds)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    result = harness.run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    _print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
