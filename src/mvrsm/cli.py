"""Experiment harness and command line interface.

Subcommands:

``run <config.json>``
    Run every (algorithm, seed) pair from the config, write one trace CSV
    per run plus a summary CSV. The MVRSM_OUTPUT_DIR environment variable
    overrides the config's output_dir.
``summarize <dir>``
    Recompute the summary from the trace files already in a directory.

The config is a JSON object; see ``ExperimentConfig`` for the fields.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .boxmin import MAX_ITERS
from .driver import (
    OptimizerConfig,
    read_trace_csv,
    run_mvrsm,
    run_random_search,
)
from .errors import (
    ConfigError,
    InvalidSettingError,
    MalformedTraceError,
    MvrsmError,
    ObjectiveFailureError,
    VariableError,
)
from .objectives import DEFAULT_NOISE_HIGH, benchmark_problem, make_objective
from .space import SearchSpace, VariableSpec

__all__ = ["ExperimentConfig", "load_config", "run_experiment", "summarize_directory", "main"]

OUTPUT_DIR_ENV = "MVRSM_OUTPUT_DIR"
NOISE_STREAM_TAG = 0x5EED  # separates the objective's noise stream from the driver's
ALGORITHMS = {"mvrsm": run_mvrsm, "rs": run_random_search}

SUMMARY_COLUMNS = [
    "iter",
    "algo",
    "mean_best",
    "std_best",
    "min_best",
    "max_best",
    "mean_step_seconds",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment: the runs' settings, one per seed in config order,
    and the problem, which every run evaluates as
    ``make_objective(space, objective, scale, <run's noise stream>, noise_high)``.

    A config names a registered benchmark, or gives a ``space`` (list of
    {kind, lower, upper} records) plus an ``objective`` ({name, scale?});
    both forms load to the same fields.
    """

    algorithms: tuple[str, ...]
    runs: tuple[OptimizerConfig, ...]
    space: SearchSpace
    objective: str  # a name in OBJECTIVES
    scale: float
    noise_high: float
    output_dir: str


def load_config(path) -> ExperimentConfig:
    """Parse and validate a JSON config file; errors carry file positions."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # too many digits, or nested too deep
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return _validate_config(raw, str(path))


def _fail(where: str, message: str):
    raise ConfigError(f"{where}: {message}")


# the JSON key of each library setting that the config spells differently
_JSON_KEYS = {"max_iters": "boxmin_max_iters", "rng_seed": "seeds", "noise_high": "noise"}
_JSON_KEYS.update(name="objective.name", scale="objective.scale", variables="space")


def _build(where: str, make, *args, **kwargs):
    """Build a library object; a value it rejects is reported under its JSON key."""
    try:
        return make(*args, **kwargs)
    except VariableError as exc:
        _fail(where, f"invalid space[{exc.index}]: {exc.reason}")
    except InvalidSettingError as exc:
        _fail(where, f"{_JSON_KEYS.get(exc.field, exc.field)!r} {exc.reason}")


def _validate_config(raw: dict, where: str) -> ExperimentConfig:
    """Check the JSON shape; the library objects built from it check each value."""
    known = {
        "benchmark",
        "space",
        "objective",
        "algorithms",
        "budget",
        "init_samples",
        "seeds",
        "output_dir",
        "noise",
        "boxmin_max_iters",
    }
    for key in raw:
        if key not in known:
            _fail(where, f"unknown key {key!r}")

    algorithms = raw.get("algorithms", ["mvrsm", "rs"])
    if not isinstance(algorithms, list) or not algorithms:
        _fail(where, "'algorithms' must be a non-empty list")
    for algo in algorithms:
        if not isinstance(algo, str) or algo not in ALGORITHMS:
            _fail(where, f"unknown algorithm {algo!r}; available: {sorted(ALGORITHMS)}")
    if len(set(algorithms)) != len(algorithms):
        _fail(where, "'algorithms' must not repeat")

    output_dir = raw.get("output_dir")
    if not isinstance(output_dir, str) or not output_dir:
        _fail(where, "'output_dir' must be a non-empty string")

    noise = raw.get("noise", DEFAULT_NOISE_HIGH)
    benchmark = raw.get("benchmark")
    if benchmark is not None:
        if "space" in raw or "objective" in raw:
            _fail(where, "give either 'benchmark' or 'space'+'objective', not both")
        space, name, scale = _build(where, benchmark_problem, benchmark)
    else:
        if "space" not in raw or "objective" not in raw:
            _fail(where, "need 'benchmark', or 'space' together with 'objective'")
        entries = raw["space"]
        if not isinstance(entries, list) or not entries:
            _fail(where, "'space' must be a non-empty list of {kind, lower, upper} records")
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict) or set(entry) != {"kind", "lower", "upper"}:
                _fail(where, f"space[{i}]: need exactly the keys kind, lower, upper")
        space = _build(where, SearchSpace, tuple(VariableSpec(**entry) for entry in entries))
        entry = raw["objective"]
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            _fail(where, "'objective' must be an object with a string 'name'")
        extra = set(entry) - {"name", "scale"}
        if extra:
            _fail(where, f"'objective' has unknown keys {sorted(extra)}")
        name, scale = entry["name"], entry.get("scale", 1.0)
    noisy = _build(where, make_objective, space, name, scale, None, noise)

    # each seed is checked, by the run config it seeds, before seeds are hashed
    seeds = raw.get("seeds")
    if not isinstance(seeds, list) or not seeds:
        _fail(where, "'seeds' must be a non-empty list of integers >= 0")
    budget, init_samples = raw.get("budget"), raw.get("init_samples", 24)
    max_iters = raw.get("boxmin_max_iters", MAX_ITERS)
    runs = tuple(
        _build(where, OptimizerConfig, budget, init_samples, seed, max_iters) for seed in seeds
    )
    if len(set(seeds)) != len(seeds):
        _fail(where, "'seeds' must not repeat")

    return ExperimentConfig(
        algorithms=tuple(algorithms),
        runs=runs,
        space=space,
        objective=name,
        scale=float(scale),
        noise_high=noisy.noise_high,
        output_dir=output_dir,
    )


# -- running -------------------------------------------------------------------


def _atomic_write(path: Path, write_fn) -> None:
    """Write via a temp file in the same directory, then rename into place."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    os.close(fd)
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def run_experiment(config: ExperimentConfig, out=None) -> dict:
    """Execute all (algorithm, seed) runs, write traces and a summary.

    A run whose objective fails is recorded and skipped; the other runs
    still execute. The evaluations it made before failing, if any, are
    written to ``<algo>_seed<seed>.csv.failed``, which each failure entry
    names under ``trace`` (None when nothing was evaluated). Returns
    {'traces': paths, 'summary': path, 'failures': [...]}.
    """
    out = sys.stdout if out is None else out
    out_dir = Path(os.environ.get(OUTPUT_DIR_ENV) or config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    trace_paths: list[Path] = []
    failures: list[dict] = []
    for algo in config.algorithms:
        for run in config.runs:
            seed = run.rng_seed
            # the noise stream is seeded from the run seed, so reruns of the
            # same config are reproducible
            noise_rng = np.random.default_rng([seed, NOISE_STREAM_TAG])
            objective = make_objective(
                config.space, config.objective, config.scale, noise_rng, config.noise_high
            )
            path = out_dir / f"{algo}_seed{seed}.csv"
            try:
                trace = ALGORITHMS[algo](objective, config.space, run)
            except ObjectiveFailureError as exc:
                # keep the evaluations made before the failure; the name ends
                # in .failed so the *_seed*.csv summarize glob skips it
                partial = None
                if exc.trace is not None and exc.trace.records:
                    partial = out_dir / f"{algo}_seed{seed}.csv.failed"
                    _atomic_write(partial, exc.trace.write_csv)
                failures.append({"algo": algo, "seed": seed, "error": str(exc), "trace": partial})
                kept = f" (partial trace in {partial})" if partial else ""
                print(f"FAILED {algo} seed {seed}: {exc}{kept}", file=out)
                continue
            _atomic_write(path, trace.write_csv)
            trace_paths.append(path)
            print(f"wrote {path} (final best {trace.records[-1].best_y:.6g})", file=out)

    summary_path = out_dir / "summary.csv"
    # header-only summary when every run failed; the failures are the result
    rows = _summary_rows(trace_paths) if trace_paths else []
    _atomic_write(summary_path, lambda tmp: _write_summary(tmp, rows))
    print(f"wrote {summary_path}", file=out)
    return {"traces": trace_paths, "summary": summary_path, "failures": failures}


def _summary_rows(trace_paths) -> list[dict]:
    """Per-iteration best-so-far statistics per algorithm, plus mean step time."""
    by_algo: dict[str, list[dict]] = {}
    for path in trace_paths:
        by_algo.setdefault(Path(path).name.split("_seed")[0], []).append(read_trace_csv(path))
    if not by_algo:
        raise MalformedTraceError("no trace files to summarize")

    rows: list[dict] = []
    for algo in sorted(by_algo):
        traces = by_algo[algo]
        lengths = {len(t["best_y"]) for t in traces}
        if len(lengths) != 1:
            raise MalformedTraceError(f"{algo}: unequal trace lengths {sorted(lengths)}")
        best = np.stack([t["best_y"] for t in traces])  # runs x iters
        steps = np.stack([t["step_seconds"] for t in traces])
        n = best.shape[0]
        # sample standard deviation (n-1); a single run has no spread
        std = np.std(best, axis=0, ddof=1) if n > 1 else np.zeros(best.shape[1])
        for i in range(best.shape[1]):
            rows.append(
                {
                    "iter": i + 1,
                    "algo": algo,
                    "mean_best": float(np.mean(best[:, i])),
                    "std_best": float(std[i]),
                    "min_best": float(np.min(best[:, i])),
                    "max_best": float(np.max(best[:, i])),
                    "mean_step_seconds": float(np.mean(steps[:, i])),
                }
            )
    return rows


def _write_summary(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def summarize_directory(directory, out=None) -> Path:
    """Rebuild summary.csv from the trace CSVs found in ``directory``."""
    out = sys.stdout if out is None else out
    directory = Path(directory)
    traces = sorted(p for p in directory.glob("*_seed*.csv"))
    rows = _summary_rows(traces)
    summary_path = directory / "summary.csv"
    _atomic_write(summary_path, lambda tmp: _write_summary(tmp, rows))
    print(f"wrote {summary_path}", file=out)
    return summary_path


# -- entry point ---------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mvrsm", description="mixed-variable surrogate optimization experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="run the experiment described by a config file")
    run_parser.add_argument("config", help="path to a JSON config")
    sum_parser = sub.add_parser("summarize", help="recompute summary.csv for a directory")
    sum_parser.add_argument("directory", help="directory holding *_seed*.csv traces")
    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            result = run_experiment(load_config(args.config))
            return 2 if result["failures"] else 0
        summarize_directory(args.directory)
        return 0
    except MvrsmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
