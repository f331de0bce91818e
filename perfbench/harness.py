"""Workloads, the measured ask -> objective -> tell loop, correctness checks
and the reduction of runs to metrics.

All timing happens here, around calls into the package's public functions;
the package itself is not instrumented. One call of :func:`measure` is one
benchmark run of one workload.
"""

from __future__ import annotations

import contextlib
import os
import platform
import resource
import time
from dataclasses import dataclass

import numpy as np

from mvrsm import MvrsmOptimizer, OptimizerConfig, SearchSpace, make_benchmark
from mvrsm.errors import NonFiniteError

import spans

SETUP_SAMPLES = 5  # optimizer constructions behind the setup_s median, at least


@dataclass(frozen=True)
class Workload:
    benchmark: str  # registry name in mvrsm.objectives
    budget: int
    init_samples: int
    # Fixed sessions run on every --seed. best_y is the mean final best over
    # them, so it moves only when the trajectories do. They are also most of
    # the timed sessions: per-seed session cost varies by about 25% on the
    # two small workloads, and a mostly fixed mix keeps the timings steady.
    quality_seeds: tuple[int, ...]
    # wall seconds of one seeded session on the reference machine (2 cores,
    # one BLAS thread); sizes the seed-derived part of a run to --seconds
    run_s: float


WORKLOADS = {
    "ackley53": Workload("ackley53", 224, 24, (0, 1, 2, 3), 2.9),
    "rosenbrock10_n500": Workload("rosenbrock10", 500, 24, (0, 1, 2, 3), 3.0),
    "rosenbrock238_short": Workload("rosenbrock238", 8, 4, (0,), 7.3),
}


@dataclass(eq=False)
class Session:
    """What one seeded session produced and how long it took."""

    seed: int
    space: SearchSpace
    setup_s: float  # MvrsmOptimizer construction
    loop_s: float  # whole ask -> objective -> tell loop
    steps: np.ndarray  # ask + tell seconds per evaluation, objective excluded
    points: np.ndarray  # evaluated points, flattened [xc; xd], one row each
    y: np.ndarray
    best_y: np.ndarray
    failed: int  # evaluations lost to a run aborted by a non-finite value


def derived_seeds(seed: int, count: int) -> list[int]:
    """Seeds of the --seed-dependent runs; disjoint for distinct --seed values."""
    return [10_000 + 100 * seed + j for j in range(count)]


def session_inputs(workload: Workload, seed: int):
    """Space, noisy objective and optimizer config of one seeded session."""
    space, objective = make_benchmark(workload.benchmark, rng=np.random.default_rng([seed, 1]))
    config = OptimizerConfig(
        budget=workload.budget, init_samples=workload.init_samples, rng_seed=seed
    )
    return space, objective, config


def run_session(workload: Workload, seed: int, tracer: spans.Tracer | None = None) -> Session:
    """One session of ``workload.budget`` evaluations, timed from outside."""
    space, objective, config = session_inputs(workload, seed)
    with tracer.session() if tracer else contextlib.nullcontext():
        tic = time.perf_counter()
        optimizer = MvrsmOptimizer(space, config)
        setup_s = time.perf_counter() - tic
        ask, tell, evaluate = optimizer.ask, optimizer.tell, objective
        if tracer:
            ask, tell, evaluate = tracer.attach(optimizer, objective)

        steps = []
        failed = 0
        start = time.perf_counter()
        for i in range(workload.budget):
            t0 = time.perf_counter()
            point = ask()
            t1 = time.perf_counter()
            y = float(evaluate(point))
            if not np.isfinite(y):
                failed = workload.budget - i
                break
            t2 = time.perf_counter()
            try:
                tell(point, y)
            except NonFiniteError:
                failed = workload.budget - i
                break
            steps.append(t1 - t0 + time.perf_counter() - t2)
        loop_s = time.perf_counter() - start

    records = optimizer.trace.records
    return Session(
        seed=seed,
        space=space,
        setup_s=setup_s,
        loop_s=loop_s,
        steps=np.array(steps),
        points=np.array([r.point.flatten() for r in records]).reshape(len(records), space.dim),
        y=np.array([r.y for r in records]),
        best_y=np.array([r.best_y for r in records]),
        failed=failed,
    )


def time_setup(workload: Workload, seed: int) -> float:
    """Seconds to construct one optimizer, without running it."""
    space, _, config = session_inputs(workload, seed)
    tic = time.perf_counter()
    MvrsmOptimizer(space, config)
    return time.perf_counter() - tic


# -- correctness -------------------------------------------------------------


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def check_session(run: Session) -> list[str]:
    """Problems with one run's trace: points outside the box or off the
    integer grid, and best_y records that are not the running minimum of y."""
    problems = []
    for i, row in enumerate(run.points):
        point = run.space.unflatten(row)
        if not run.space.contains(point):
            problems.append(f"seed {run.seed}: evaluation {i + 1} lies outside the box")
        if not run.space.is_integral(point):
            problems.append(f"seed {run.seed}: evaluation {i + 1} has a non-integral integer block")
    if not same_bits(np.minimum.accumulate(run.y), run.best_y):
        problems.append(f"seed {run.seed}: best_y is not the running minimum of y")
    return problems


def check_same(first: Session, second: Session, what: str) -> list[str]:
    """Problems if two runs of one seed differ in any bit of points, y or best_y."""
    differing = [
        field for field in ("points", "y", "best_y")
        if not same_bits(getattr(first, field), getattr(second, field))
    ]
    if not differing:
        return []
    return [f"seed {first.seed}: {what} differ in {', '.join(differing)}"]


# -- reduction ---------------------------------------------------------------


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least ten samples beyond it."""
    return max(50, int(100 * (count - 10) / count)) if count else 50


def environment(seeds: list[int]) -> dict:
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "seeds": seeds,
    }


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: end-to-end metrics, or per-layer metrics when ``trace``.

    Returns the contract fields (``correct``, ``attempted``, ``failed``,
    ``metrics``, each metric a value and unit) plus ``problems``, ``env``
    and ``notes`` for the human-readable report.
    """
    if trace:
        return _measure_layers(workload, seed, seconds)
    quality = list(workload.quality_seeds)
    fitting = int(seconds // (2 * workload.run_s))
    seeds = quality + derived_seeds(seed, max(1, fitting - len(quality)))
    # two passes over the seeds: load from other guests on a shared host comes
    # in bursts of seconds, and rarely slows both runs of a seed
    first = [run_session(workload, s) for s in seeds]
    second = [run_session(workload, s) for s in seeds]
    runs = first + second

    problems = [p for run in runs for p in check_session(run)]
    for a, b in zip(first, second):
        problems += check_same(a, b, "two same-seed runs")

    setups = [run.setup_s for run in runs]
    while len(setups) < SETUP_SAMPLES:
        setups.append(time_setup(workload, quality[len(setups) % len(quality)]))
    # both runs of a seed do identical work step for step (checked above), so
    # the faster of the two is the step's cost with the least interference
    fastest = np.concatenate([
        np.minimum(a.steps[: len(b.steps)], b.steps[: len(a.steps)]) for a, b in zip(first, second)
    ])
    steps = np.concatenate([run.steps for run in runs])
    tail = tail_percentile(len(steps))
    evaluations = sum(len(run.y) for run in first)
    failed = sum(run.failed for run in runs)
    attempted = sum(len(run.y) for run in runs) + failed
    metrics = {
        "evals_per_s": (
            evaluations / sum(min(a.loop_s, b.loop_s) for a, b in zip(first, second)),
            "evaluations/s",
        ),
        "step_p50_ms": (float(np.median(fastest)) * 1e3, "ms"),
        "step_tail_ms": (float(np.percentile(steps, tail)) * 1e3, "ms"),
        "setup_s": (float(np.median(setups)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "best_y": (float(np.mean([run.best_y[-1] for run in first[: len(quality)]])), "objective"),
    }
    return _result(
        metrics,
        attempted=attempted,
        failed=failed,
        problems=problems,
        env=environment(seeds),
        notes={
            "evals_per_s": "faster of each seed's two runs",
            "step_p50_ms": f"median over {len(fastest)} steps, each the faster of its two runs",
            "step_tail_ms": f"p{tail} of all {len(steps)} steps",
            "setup_s": f"median of {len(setups)} constructions",
            "best_y": f"mean over quality seeds {quality}",
        },
    )


def _measure_layers(workload: Workload, seed: int, seconds: float) -> dict:
    """Untraced then traced run of each seed; spans come from the traced ones only."""
    pairs = max(1, int(seconds // (2 * workload.run_s)))
    seeds = list(workload.quality_seeds[: pairs - 1]) + derived_seeds(seed, 1)
    tracer = spans.Tracer()
    plain, traced = [], []
    for s in seeds:
        plain.append(run_session(workload, s))
        traced.append(run_session(workload, s, tracer))

    problems = [p for run in plain + traced for p in check_session(run)]
    for a, b in zip(plain, traced):
        problems += check_same(a, b, "traced and untraced runs")

    metrics = {
        name: (value, _layer_unit(name))
        for name, value in spans.layer_metrics(
            tracer, sum(run.setup_s + run.loop_s for run in traced)
        ).items()
    }
    # flat per-step cost: mean step time of the last decile of descent steps
    # over the first decile, pooled over the untraced runs
    descent = [run.steps[workload.init_samples :] for run in plain]
    decile = max(1, min(len(d) for d in descent) // 10)
    early = np.mean(np.concatenate([d[:decile] for d in descent]))
    late = np.mean(np.concatenate([d[-decile:] for d in descent]))
    metrics["driver.step_flat_ratio"] = (float(late / early), "ratio")
    plain_s = sum(run.loop_s for run in plain)
    metrics["trace.overhead"] = (sum(run.loop_s for run in traced) / plain_s - 1.0, "ratio")

    runs = plain + traced
    failed = sum(run.failed for run in runs)
    return _result(
        metrics,
        attempted=sum(len(run.y) for run in runs) + failed,
        failed=failed,
        problems=problems,
        env=environment(seeds),
        notes={"trace.overhead": "traced / untraced loop wall time - 1"},
    )


def _layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    return {"calls": "count", "iterations": "count", "self_s": "s", "p50_us": "us"}.get(
        suffix, "ratio"
    )


def _result(metrics, attempted, failed, problems, env, notes) -> dict:
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "problems": problems,
        "env": env,
        "notes": notes,
    }
