"""Seeded runs must reproduce their recorded traces bit for bit.

``tests/data/golden_traces.json`` holds, for three benchmark runs, every
evaluated value and running best (as ``float.hex``), a sha256 of the evaluated
points' bytes and a sha256 of the final coefficients. A change that leaves
the arithmetic alone (a reuse of computed products, a refactor) must keep
every run byte-equal. A change meant to alter the arithmetic regenerates the
file and says so:

    PYTHONPATH=src python3 tests/test_golden_traces.py

Floating-point results depend on the numpy build, its BLAS and the BLAS
thread count. Both the test and the regeneration compute the runs in a child
with one BLAS thread, the setting the benchmark measures; the file records
the build and the thread count, and the test skips, naming the difference,
when the build differs.
"""

import hashlib
import json
import os
import pathlib

import numpy as np
import pytest

import one_blas_thread

from mvrsm.driver import MvrsmOptimizer, OptimizerConfig
from mvrsm.objectives import make_benchmark

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_traces.json"

# (benchmark, seed, budget, init_samples). rosenbrock10 at budget 260 passes
# n = M = 221 observations, so it covers the fit before and after its fold.
RUNS = (
    ("ackley53", 0, 224, 24),
    ("rosenbrock10", 0, 260, 24),
    ("rosenbrock238", 0, 8, 4),
)


def run_id(benchmark, seed, budget, init_samples):
    return f"{benchmark}-seed{seed}-budget{budget}-init{init_samples}"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def trace_record(benchmark, seed, budget, init_samples) -> dict:
    """One ask/tell session, reduced to exact values and hashes."""
    space, objective = make_benchmark(benchmark, rng=np.random.default_rng([seed, 1]))
    config = OptimizerConfig(budget=budget, init_samples=init_samples, rng_seed=seed)
    optimizer = MvrsmOptimizer(space, config)
    for _ in range(budget):
        point = optimizer.ask()
        optimizer.tell(point, objective(point))
    records = optimizer.trace.records
    points = np.array([r.point.flatten() for r in records])
    return {
        "y": [float(r.y).hex() for r in records],
        "best_y": [float(r.best_y).hex() for r in records],
        "points_sha256": hashlib.sha256(points.tobytes()).hexdigest(),
        "coeffs_sha256": hashlib.sha256(optimizer.model.coeffs.tobytes()).hexdigest(),
    }


def record() -> dict:
    """The environment and every run's record; call it through ``one_blas_thread``."""
    payload = environment()
    payload["runs"] = {run_id(*run): trace_record(*run) for run in RUNS}
    return payload


@pytest.fixture(scope="module")
def runs():
    """(recorded, computed now) runs, keyed by run id."""
    recorded = json.loads(GOLDEN.read_text())
    now = one_blas_thread.call("test_golden_traces", "record")
    for key in ("numpy", "blas"):
        if recorded[key] != now[key]:
            pytest.skip(f"traces recorded with {key} {recorded[key]}, running {now[key]}")
    assert now["blas_threads"] == recorded["blas_threads"] == 1
    return recorded["runs"], now["runs"]


@pytest.mark.parametrize("run", RUNS, ids=[run_id(*run) for run in RUNS])
def test_seeded_run_matches_golden_trace(runs, run):
    recorded, now = runs
    expected, got = recorded[run_id(*run)], now[run_id(*run)]
    # values first, so a divergence names the first evaluation that moved
    for i, (e, g) in enumerate(zip(expected["y"], got["y"])):
        assert g == e, f"evaluation {i + 1}: y {float.fromhex(g)!r} != {float.fromhex(e)!r}"
    assert got == expected


if __name__ == "__main__":
    payload = one_blas_thread.call("test_golden_traces", "record")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
