"""Tests of the benchmark itself; run with ``python3 -m pytest -q perfbench``.

They use tiny budgets, so they check names, units and the correctness checks,
never timings.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

run.load_package()

import harness  # noqa: E402  (needs the package path set up above)
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = harness.Workload("ackley53", budget=40, init_samples=6, quality_seeds=(0,), run_s=1.0)


@pytest.mark.parametrize("trace, declared", [(False, "end_to_end"), (True, "per_layer")])
def test_smoke_run_emits_every_declared_metric_with_its_unit(trace, declared):
    result = harness.measure(TINY, seed=0, seconds=0, trace=trace)
    assert result["correct"], result["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[declared]}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert got == expected
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))


def test_declared_workloads_are_the_harness_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for layer in spans.LAYERS:
        assert {f"{layer}.calls", f"{layer}.self_s", f"{layer}.p50_us"} <= per_layer


@pytest.fixture(scope="module")
def clean():
    return harness.run_session(TINY, seed=3)


def corrupted(session, **arrays):
    return dataclasses.replace(session, **{k: v.copy() for k, v in arrays.items()})


def test_clean_trace_passes_every_check(clean):
    assert harness.check_session(clean) == []
    assert harness.check_same(clean, harness.run_session(TINY, seed=3), "reruns") == []


def test_best_y_that_is_not_the_running_minimum_fails(clean):
    bad = corrupted(clean, best_y=clean.best_y)
    bad.best_y[-1] -= 1.0
    assert any("running minimum" in p for p in harness.check_session(bad))


def test_point_outside_the_box_fails(clean):
    bad = corrupted(clean, points=clean.points)
    bad.points[5, 0] = 2.0  # continuous coordinates of ackley53 live in [-1, 1]
    assert any("outside the box" in p for p in harness.check_session(bad))


def test_non_integral_integer_block_fails(clean):
    bad = corrupted(clean, points=clean.points)
    bad.points[5, -1] = 0.5
    assert any("non-integral" in p for p in harness.check_session(bad))


def test_one_ulp_difference_between_same_seed_runs_fails(clean):
    bad = corrupted(clean, y=clean.y)
    bad.y[7] = np.nextafter(bad.y[7], np.inf)
    assert harness.check_same(clean, bad, "reruns") == ["seed 3: reruns differ in y"]


def test_traced_run_reproduces_the_untraced_run_bit_for_bit(clean):
    traced = harness.run_session(TINY, seed=3, tracer=spans.Tracer())
    assert harness.check_same(clean, traced, "traced and untraced runs") == []


def test_without_the_package_the_command_fails_without_a_result(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    child = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "ackley53", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode != 0
    assert '"metrics"' not in child.stdout
