"""Benchmark entry point.

    python3 perfbench/run.py --workload ackley53 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

Run from the repository root. One workload runs in one process; ``all`` runs
every workload in a fresh child process, one after another. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: end-to-end metrics with ``--trace 0``, per-layer
metrics from a separately traced run with ``--trace 1``. The exit code is 0
only when every correctness check passed.

The package is imported from ``src/`` beside this directory, never from an
installed copy, so the numbers always belong to the checkout being measured.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def load_package() -> None:
    """Put the checkout's ``src/`` first on the path and import mvrsm from it."""
    if not (SRC / "mvrsm" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'mvrsm'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import mvrsm

    if Path(mvrsm.__file__).resolve().parent != SRC / "mvrsm":
        sys.exit(f"perfbench: mvrsm imported from {mvrsm.__file__}, not from {SRC}")


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def report(name: str, result: dict) -> None:
    """Human-readable lines for one workload; the JSON line follows separately."""
    print(f"env {json.dumps(result['env'])}")
    metrics, notes = result["metrics"], result["notes"]
    if "step_p50_ms" not in metrics:
        metrics = print_layer_table(name, metrics)
    for metric, entry in metrics.items():
        note = f"  ({notes[metric]})" if metric in notes else ""
        print(f"{name:20s} {metric:24s} {entry['value']:>14.6g} {entry['unit']}{note}")
    if "step_p50_ms" in metrics:
        rate = result["failed"] / result["attempted"]
        print(
            f"{name:20s} {'error_rate':24s} {rate:>14.6g} ratio"
            f"  ({result['failed']} of {result['attempted']} evaluations failed)"
        )
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(f"checks {'passed' if result['correct'] else 'FAILED'}")


def print_layer_table(name: str, metrics: dict) -> dict:
    """Print each layer's row, with its share of the traced run beside the
    share measured at the baseline commit; return the metrics not in a row."""
    import spans

    baseline = json.loads((HERE / "baseline_shares.json").read_text())
    base = baseline["shares"].get(name, {})
    print(f"{'layer':34s} {'calls':>9s} {'self_s':>9s} {'p50_us':>11s} {'share':>7s} "
          f"{'share@' + baseline['commit']:>14s}")
    rest = dict(metrics)
    for layer in spans.LAYERS:
        calls, self_s, p50_us, share = (
            rest.pop(f"{layer}.{field}")["value"] for field in ("calls", "self_s", "p50_us", "share")
        )
        base_share = f"{base[layer]:14.3f}" if layer in base else f"{'-':>14s}"
        print(f"{layer:34s} {calls:9d} {self_s:9.3f} {p50_us:11.1f} {share:7.3f} {base_share}")
    return rest


def contract_line(result: dict) -> str:
    return json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")})


def run_all(args) -> int:
    """Each workload in its own fresh process; one combined JSON line at the end."""
    from harness import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if child.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {child.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    if status:
        return status
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    # one BLAS thread, pinned before numpy loads: the optimizer loop is
    # single-threaded and must not use more threads than cores; one keeps
    # timings steady
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    load_package()
    from harness import WORKLOADS, measure

    args = parse_args(argv, WORKLOADS)
    if args.workload == "all":
        return run_all(args)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    report(args.workload, result)
    print(contract_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
