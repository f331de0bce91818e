"""Seeded runs must reproduce their recorded traces bit for bit.

``tests/data/golden_traces.json`` holds, for three benchmark runs, every
evaluated value and running best (as ``float.hex``), a sha256 of the evaluated
points' bytes and a sha256 of the final coefficients. A change that leaves
the arithmetic alone (a reuse of computed products, a refactor) must keep
every run byte-equal. A change meant to alter the arithmetic regenerates the
file and says so:

    PYTHONPATH=src python3 tests/test_golden_traces.py

Floating-point results depend on the numpy build and its BLAS, so the file
records both and the test skips, naming the difference, when they differ.
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

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


@pytest.fixture(scope="module")
def golden():
    recorded = json.loads(GOLDEN.read_text())
    here = environment()
    for key in ("numpy", "blas"):
        if recorded[key] != here[key]:
            pytest.skip(f"traces recorded with {key} {recorded[key]}, running {here[key]}")
    return recorded["runs"]


@pytest.mark.parametrize("run", RUNS, ids=[run_id(*run) for run in RUNS])
def test_seeded_run_matches_golden_trace(golden, run):
    expected = golden[run_id(*run)]
    got = trace_record(*run)
    # values first, so a divergence names the first evaluation that moved
    for i, (e, g) in enumerate(zip(expected["y"], got["y"])):
        assert g == e, f"evaluation {i + 1}: y {float.fromhex(g)!r} != {float.fromhex(e)!r}"
    assert got == expected


if __name__ == "__main__":
    payload = environment()
    payload["runs"] = {run_id(*run): trace_record(*run) for run in RUNS}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
