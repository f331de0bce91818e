"""Tests for the config loader, experiment harness, and command line."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from mvrsm import cli
from mvrsm.cli import (
    OUTPUT_DIR_ENV,
    SUMMARY_COLUMNS,
    ExperimentConfig,
    load_config,
    main,
    run_experiment,
    summarize_directory,
)
from mvrsm.driver import OptimizerConfig, read_trace_csv, run_mvrsm, run_random_search
from mvrsm.errors import ConfigError, MalformedTraceError, MvrsmError, NonFiniteError
from mvrsm.rls import RecursiveLeastSquares
from mvrsm.objectives import BENCHMARKS, NoisyObjective, make_benchmark, make_objective
from mvrsm.space import SearchSpace, VariableSpec


def write_config(tmp_path, raw):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def base_config(tmp_path, **overrides):
    raw = {
        "benchmark": "rosenbrock10",
        "budget": 26,
        "seeds": [0, 1],
        "output_dir": str(tmp_path / "out"),
    }
    raw.update(overrides)
    return raw


# -- config parsing --------------------------------------------------------


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{\n  "budget": ,\n}')
    with pytest.raises(ConfigError, match=r"config\.json:2:13"):
        load_config(path)


def test_missing_file_reports_path(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "nope.json")


def test_run_reports_an_integer_beyond_the_digit_limit(tmp_path, capsys):
    # json.loads raises a plain ValueError, not a JSONDecodeError, for this
    path = tmp_path / "config.json"
    path.write_text('{"budget": 1' + "0" * 5000 + "}")
    with pytest.raises(ConfigError, match=r"config\.json"):
        load_config(path)
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_run_reports_json_nested_beyond_the_recursion_limit(tmp_path, capsys):
    # json.loads raises RecursionError, which is not a ValueError, for this
    path = tmp_path / "config.json"
    path.write_text("[" * 100_000)
    with pytest.raises(ConfigError, match=r"config\.json"):
        load_config(path)
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_top_level_must_be_object(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="top level"):
        load_config(path)


@pytest.mark.parametrize(
    "mutation, fragment",
    [
        ({"surprise": 1}, "unknown key 'surprise'"),
        ({"benchmark": "sphere"}, "unknown benchmark"),
        ({"space": []}, "not both"),
        ({"benchmark": None}, "need 'benchmark'"),
        ({"algorithms": []}, "non-empty list"),
        ({"algorithms": ["gradient"]}, "unknown algorithm"),
        ({"budget": None}, "'budget' must be a positive integer"),
        ({"budget": 0}, "'budget' must be a positive integer"),
        ({"budget": 10}, "smaller than init_samples"),
        ({"init_samples": 0}, "'init_samples' must be a positive integer"),
        ({"seeds": None}, "'seeds'"),
        ({"seeds": []}, "'seeds'"),
        ({"seeds": [0, "one"]}, "'seeds'"),
        ({"seeds": [3, 3]}, "must not repeat"),
        ({"output_dir": ""}, "'output_dir'"),
        ({"noise": -1e-9}, "'noise'"),
        ({"boxmin_max_iters": 0}, "'boxmin_max_iters'"),
        # JSON true/false load as bool, a subclass of int; json.loads accepts NaN
        ({"budget": True}, "'budget' must be a positive integer"),
        ({"init_samples": True}, "'init_samples' must be a positive integer"),
        ({"seeds": [False, True]}, "'seeds'"),
        ({"noise": False}, "'noise'"),
        ({"noise": float("nan")}, "'noise'"),
        ({"boxmin_max_iters": True}, "'boxmin_max_iters'"),
        # np.random.default_rng rejects a negative seed
        ({"seeds": [-1]}, "'seeds'"),
        ({"algorithms": ["rs", "rs"]}, "'algorithms' must not repeat"),
        # a list where a name belongs is not hashable, so it must not reach a lookup
        ({"algorithms": [["mvrsm"]]}, "unknown algorithm"),
        ({"benchmark": ["rosenbrock10"]}, "unknown benchmark"),
        ({"seeds": [[0]]}, "'seeds'"),
    ],
)
def test_invalid_configs_rejected(tmp_path, mutation, fragment):
    raw = base_config(tmp_path)
    raw.update(mutation)
    raw = {k: v for k, v in raw.items() if v is not None}
    with pytest.raises(ConfigError, match=fragment):
        load_config(write_config(tmp_path, raw))


def test_benchmark_config_defaults(tmp_path):
    config = load_config(write_config(tmp_path, base_config(tmp_path)))
    assert isinstance(config, ExperimentConfig)
    assert config.algorithms == ("mvrsm", "rs")
    assert config.runs == (OptimizerConfig(26, 24, 0, 20), OptimizerConfig(26, 24, 1, 20))
    assert config.noise_high == 1e-6
    # the benchmark loads to the same problem fields as a custom config
    assert config.space.n_integer == 3 and config.space.n_continuous == 7
    assert np.all(config.space.integer_lower == -2) and np.all(config.space.upper == 2)
    assert config.objective == "rosenbrock"
    assert config.scale == 1.0 / 300.0


def test_custom_space_and_objective_parse(tmp_path):
    raw = {
        "space": [
            {"kind": "integer", "lower": 0, "upper": 4},
            {"kind": "continuous", "lower": -1.0, "upper": 1.0},
        ],
        "objective": {"name": "rosenbrock", "scale": 0.5},
        "budget": 30,
        "init_samples": 24,
        "seeds": [5],
        "output_dir": str(tmp_path / "out"),
        "noise": 0,
        "algorithms": ["rs"],
    }
    config = load_config(write_config(tmp_path, raw))
    assert config.algorithms == ("rs",)
    assert config.runs == (OptimizerConfig(30, 24, 5, 20),)
    assert config.space.n_integer == 1 and config.space.n_continuous == 1
    assert config.objective == "rosenbrock" and config.scale == 0.5
    assert config.noise_high == 0.0


@pytest.mark.parametrize(
    "space, fragment",
    [
        ("not-a-list", "'space' must be"),
        ([{"kind": "integer", "lower": 0}], r"space\[0\]"),
        ([{"kind": "integer", "lower": 0, "upper": 4, "step": 2}], r"space\[0\]"),
        ([{"kind": "integer", "lower": 5, "upper": 0}], "invalid space"),
        ([{"kind": "integer", "lower": False, "upper": True}], r"space\[0\].*finite numbers"),
        ([{"kind": "integer", "lower": "0", "upper": 4}], r"space\[0\].*finite numbers"),
        ([{"kind": "continuous", "lower": 0.0, "upper": float("inf")}], "finite numbers"),
        ([{"kind": "binary", "lower": 0, "upper": 1}], "invalid space"),
    ],
)
def test_bad_space_entries(tmp_path, space, fragment):
    raw = {
        "space": space,
        "objective": {"name": "ackley"},
        "budget": 30,
        "seeds": [0],
        "output_dir": "out",
    }
    with pytest.raises(ConfigError, match=fragment):
        load_config(write_config(tmp_path, raw))


def test_all_continuous_space_is_reported_under_space(tmp_path):
    raw = {
        "space": [{"kind": "continuous", "lower": 0.0, "upper": 1.0}],
        "objective": {"name": "ackley"},
        "budget": 30,
        "seeds": [0],
        "output_dir": "out",
    }
    with pytest.raises(ConfigError, match="'space' .*integer variable"):
        load_config(write_config(tmp_path, raw))


@pytest.mark.parametrize(
    "objective, fragment",
    [
        ({}, "'objective' must be"),
        ({"name": "sphere"}, "unknown objective"),
        ({"name": "ackley", "shift": 1}, "unknown keys"),
        ({"name": "rosenbrock", "scale": 0}, "positive number"),
        ({"name": "rosenbrock", "scale": True}, "positive number"),
        ({"name": "rosenbrock", "scale": float("inf")}, "positive number"),
        ({"name": ["ackley"]}, "string 'name'"),
    ],
)
def test_bad_objective_entries(tmp_path, objective, fragment):
    raw = {
        "space": [{"kind": "integer", "lower": 0, "upper": 4}],
        "objective": objective,
        "budget": 30,
        "seeds": [0],
        "output_dir": "out",
    }
    with pytest.raises(ConfigError, match=fragment):
        load_config(write_config(tmp_path, raw))


def test_run_rejects_a_space_too_small_for_the_objective(tmp_path, capsys):
    raw = {
        "space": [{"kind": "integer", "lower": 0, "upper": 4}],
        "objective": {"name": "rosenbrock"},
        "budget": 30,
        "seeds": [0],
        "output_dir": str(tmp_path / "out"),
    }
    path = write_config(tmp_path, raw)
    with pytest.raises(ConfigError, match="'objective.name' rosenbrock needs >= 2"):
        load_config(path)
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "out").exists()


README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize(
    "block", re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
)
def test_readme_configs_load(tmp_path, block):
    path = tmp_path / "config.json"
    path.write_text(block)
    assert isinstance(load_config(path), ExperimentConfig)


def custom_config(key=None, value=None):
    """A valid custom-problem config, with ``value`` put under ``key`` if given."""
    raw = {
        "space": [{"kind": "integer", "lower": 0, "upper": 4}],
        "objective": {"name": "ackley"},
        "budget": 30,
        "seeds": [0],
        "output_dir": "out",
    }
    if key == "seeds":
        raw["seeds"] = [value]
    elif key == "objective.scale":
        raw["objective"]["scale"] = value
    elif key == "space[0]":  # its upper bound
        raw["space"][0]["upper"] = value
    elif key is not None:
        raw[key] = value
    return raw


@pytest.mark.parametrize("key", ["noise", "objective.scale"])
def test_run_reports_a_number_beyond_the_float_range(tmp_path, capsys, key):
    # float() of a 401-digit JSON integer raises OverflowError, not ConfigError
    raw = custom_config(key, 10**400)
    raw["output_dir"] = str(tmp_path / "out")
    path = write_config(tmp_path, raw)
    with pytest.raises(ConfigError, match=f"'{key}'"):
        load_config(path)
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "out").exists()


def test_run_rejects_an_integer_bound_beyond_2_53(tmp_path, capsys):
    raw = custom_config("space[0]", 1e20)
    raw["output_dir"] = str(tmp_path / "out")
    path = write_config(tmp_path, raw)
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "invalid space[0]: " in err and "beyond 2**53" in err
    assert not (tmp_path / "out").exists()


# JSON key -> the library constructor that owns its value
OWNERS = {
    "budget": lambda v: OptimizerConfig(budget=v),
    "init_samples": lambda v: OptimizerConfig(budget=30, init_samples=v),
    "boxmin_max_iters": lambda v: OptimizerConfig(budget=30, max_iters=v),
    "seeds": lambda v: OptimizerConfig(budget=30, rng_seed=v),
    "noise": lambda v: NoisyObjective(lambda p: 0.0, noise_high=v),
    "objective.scale": lambda v: make_objective(
        SearchSpace((VariableSpec("integer", 0, 4),)), "ackley", v, None, 0.0
    ),
    "space[0]": lambda v: SearchSpace((VariableSpec("integer", 0, v),)),
}
CORPUS = [1, 0, -1, 2.5, 30.0, True, False, None, "3", float("nan"), float("inf"), 10**400]


@pytest.mark.parametrize("key", sorted(OWNERS))
def test_config_accepts_exactly_what_the_library_accepts(tmp_path, key):
    for value in CORPUS:
        try:
            OWNERS[key](value)
            library_accepts = True
        except (MvrsmError, ValueError):
            library_accepts = False
        try:
            load_config(write_config(tmp_path, custom_config(key, value)))
            cli_accepts = True
        except ConfigError as exc:
            cli_accepts = False
            assert key in str(exc), (value, str(exc))
        assert cli_accepts == library_accepts, (key, value)


# -- running ----------------------------------------------------------------


def test_run_experiment_end_to_end(tmp_path, capsys):
    path = write_config(tmp_path, base_config(tmp_path))
    code = main(["run", str(path)])
    assert code == 0
    out_dir = tmp_path / "out"
    traces = sorted(p.name for p in out_dir.glob("*_seed*.csv"))
    assert traces == [
        "mvrsm_seed0.csv",
        "mvrsm_seed1.csv",
        "rs_seed0.csv",
        "rs_seed1.csv",
    ]
    assert not list(out_dir.glob("*.tmp"))
    summary = (out_dir / "summary.csv").read_text().splitlines()
    assert summary[0] == ",".join(SUMMARY_COLUMNS)
    assert len(summary) == 1 + 26 * 2  # one row per iteration per algorithm
    printed = capsys.readouterr().out
    assert "summary.csv" in printed


def test_reruns_reproduce_everything_but_timing(tmp_path):
    config_a = base_config(tmp_path, output_dir=str(tmp_path / "a"))
    config_b = base_config(tmp_path, output_dir=str(tmp_path / "b"))
    assert main(["run", str(write_config(tmp_path, config_a))]) == 0
    path_b = tmp_path / "config_b.json"
    path_b.write_text(json.dumps(config_b))
    assert main(["run", str(path_b)]) == 0
    for name in ("mvrsm_seed0.csv", "mvrsm_seed1.csv", "rs_seed0.csv"):
        a = read_trace_csv(tmp_path / "a" / name)
        b = read_trace_csv(tmp_path / "b" / name)
        np.testing.assert_array_equal(a["y"], b["y"])
        np.testing.assert_array_equal(a["best_y"], b["best_y"])
        np.testing.assert_array_equal(a["coords"], b["coords"])


def test_boxmin_max_iters_is_the_runs_descent_cap(tmp_path):
    raw = base_config(tmp_path, algorithms=["mvrsm"], seeds=[0], boxmin_max_iters=1)
    (path,) = run_experiment(load_config(write_config(tmp_path, raw)))["traces"]
    written = read_trace_csv(path)

    def library_run(**config):
        space, objective = make_benchmark(
            "rosenbrock10", rng=np.random.default_rng([0, cli.NOISE_STREAM_TAG])
        )
        trace = run_mvrsm(objective, space, OptimizerConfig(budget=26, **config))
        return trace.y_values(), np.array([r.point.flatten() for r in trace.records])

    y, points = library_run(max_iters=1)
    np.testing.assert_array_equal(written["y"], y)
    np.testing.assert_array_equal(written["coords"], points)
    # the cap changes this run, so a config that lost it would not match
    assert not np.array_equal(library_run()[0], y)


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_every_benchmark_runs_the_same_through_the_cli_as_the_library(tmp_path, name):
    raw = base_config(
        tmp_path, benchmark=name, algorithms=["rs"], budget=3, init_samples=1, seeds=[0]
    )
    (path,) = run_experiment(load_config(write_config(tmp_path, raw)))["traces"]
    written = read_trace_csv(path)
    space, objective = make_benchmark(name, rng=np.random.default_rng([0, cli.NOISE_STREAM_TAG]))
    trace = run_random_search(objective, space, OptimizerConfig(3, 1, 0))
    np.testing.assert_array_equal(written["y"], trace.y_values())
    np.testing.assert_array_equal(
        written["coords"], np.array([r.point.flatten() for r in trace.records])
    )


@pytest.mark.parametrize("name", ["ackley", "rosenbrock"])
def test_custom_objective_scale_multiplies_every_value(tmp_path, name):
    ys = {}
    for scale in (1, 2):
        raw = {
            "space": [
                {"kind": "integer", "lower": 0, "upper": 4},
                {"kind": "continuous", "lower": -1.0, "upper": 1.0},
            ],
            "objective": {"name": name, "scale": scale},
            "algorithms": ["rs"],
            "budget": 30,
            "seeds": [0],
            "output_dir": str(tmp_path / f"scale{scale}"),
            "noise": 0,
        }
        (path,) = run_experiment(load_config(write_config(tmp_path, raw)))["traces"]
        ys[scale] = read_trace_csv(path)["y"]
    assert np.all(ys[1] > 0.0)
    np.testing.assert_array_equal(ys[2], 2.0 * ys[1])


def test_output_dir_environment_override(tmp_path, monkeypatch):
    override = tmp_path / "elsewhere"
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(override))
    raw = base_config(tmp_path, seeds=[0], algorithms=["rs"])
    result = run_experiment(load_config(write_config(tmp_path, raw)))
    assert result["traces"] == [override / "rs_seed0.csv"]
    assert not (tmp_path / "out").exists()


def evaluating(session_class, wrap):
    """``session_class``, but each run evaluates ``wrap(objective)`` instead of the objective."""

    class Wrapped(session_class):
        def run(self, objective):
            return super().run(wrap(objective))

    return Wrapped


def failing_on(evaluation, error):
    """Wraps an objective so that its ``evaluation``-th call raises ``error``."""

    def wrap(objective):
        calls = []

        def flaky(point):
            calls.append(point)
            if len(calls) == evaluation:
                raise error
            return objective(point)

        return flaky

    return wrap


def test_failed_runs_are_skipped_and_exit_two(tmp_path, monkeypatch, capsys):
    failing = evaluating(cli.ALGORITHMS["mvrsm"], failing_on(1, RuntimeError("synthetic failure")))
    monkeypatch.setitem(cli.ALGORITHMS, "mvrsm", failing)
    path = write_config(tmp_path, base_config(tmp_path, seeds=[0]))
    code = main(["run", str(path)])
    assert code == 2
    printed = capsys.readouterr().out
    assert "FAILED mvrsm seed 0" in printed
    # the healthy algorithm still ran
    assert (tmp_path / "out" / "rs_seed0.csv").exists()
    # an empty partial trace leaves no file behind
    assert not list((tmp_path / "out").glob("*.failed"))


def test_failed_run_keeps_its_partial_trace_out_of_the_summary(tmp_path, monkeypatch, capsys):
    failing = evaluating(cli.ALGORITHMS["mvrsm"], failing_on(6, RuntimeError("sensor offline")))
    monkeypatch.setitem(cli.ALGORITHMS, "mvrsm", failing)
    result = run_experiment(load_config(write_config(tmp_path, base_config(tmp_path, seeds=[0]))))
    out_dir = tmp_path / "out"
    partial = out_dir / "mvrsm_seed0.csv.failed"
    [failure] = result["failures"]
    assert failure["trace"] == partial
    assert f"partial trace in {partial}" in capsys.readouterr().out
    kept = read_trace_csv(partial)
    assert kept["best_y"].shape == (5,)
    assert result["traces"] == [out_dir / "rs_seed0.csv"]
    # summarize sees only the completed run
    original = (out_dir / "summary.csv").read_text()
    summarize_directory(out_dir)
    assert (out_dir / "summary.csv").read_text() == original
    assert {row.split(",")[1] for row in original.splitlines()[1:]} == {"rs"}


def test_all_runs_failed_leaves_header_only_summary(tmp_path, monkeypatch):
    for algo in ("mvrsm", "rs"):
        failing = evaluating(cli.ALGORITHMS[algo], failing_on(1, RuntimeError("synthetic failure")))
        monkeypatch.setitem(cli.ALGORITHMS, algo, failing)
    path = write_config(tmp_path, base_config(tmp_path, seeds=[0]))
    assert main(["run", str(path)]) == 2
    summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert summary == [",".join(SUMMARY_COLUMNS)]


@pytest.mark.parametrize("algo", ["mvrsm", "rs"])
def test_an_interrupted_run_keeps_its_partial_trace(tmp_path, monkeypatch, capsys, algo):
    raw = base_config(tmp_path, algorithms=[algo], seeds=[0])
    clean = {**raw, "output_dir": str(tmp_path / "clean")}
    clean = run_experiment(load_config(write_config(tmp_path, clean)))
    # with init_samples 24, MVRSM proposed the 26th point by a descent
    interrupted = evaluating(cli.ALGORITHMS[algo], failing_on(26, KeyboardInterrupt()))
    monkeypatch.setitem(cli.ALGORITHMS, algo, interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_experiment(load_config(write_config(tmp_path, raw)))
    partial = tmp_path / "out" / f"{algo}_seed0.csv.failed"
    assert f"FAILED {algo} seed 0: KeyboardInterrupt (partial trace in {partial})" in (
        capsys.readouterr().out
    )
    kept, reference = read_trace_csv(partial), read_trace_csv(clean["traces"][0])
    np.testing.assert_array_equal(kept["iter"], np.arange(1, 26))
    for column in ("y", "best_y", "coords"):
        np.testing.assert_array_equal(kept[column], reference[column][:25])
    assert not (tmp_path / "out" / "summary.csv").exists()


def test_a_fit_failure_keeps_the_partial_trace_and_exits_one(tmp_path, monkeypatch, capsys):
    update = RecursiveLeastSquares.update
    calls = []

    def fails_on_thirtieth(self, phi, y):
        calls.append(y)
        if len(calls) == 30:
            raise NonFiniteError("synthetic fit failure")
        return update(self, phi, y)

    monkeypatch.setattr(RecursiveLeastSquares, "update", fails_on_thirtieth)
    path = write_config(tmp_path, base_config(tmp_path, algorithms=["mvrsm"], budget=40, seeds=[0]))
    assert main(["run", str(path)]) == 1
    assert "error: synthetic fit failure" in capsys.readouterr().err
    kept = read_trace_csv(tmp_path / "out" / "mvrsm_seed0.csv.failed")
    assert kept["y"].shape == (29,)
    assert not (tmp_path / "out" / "mvrsm_seed0.csv").exists()


# -- summarizing -------------------------------------------------------------


def seed_traces(directory, algo, curves):
    directory.mkdir(parents=True, exist_ok=True)
    for seed, best in enumerate(curves):
        lines = ["iter,y,best_y,step_seconds"]
        for i, value in enumerate(best):
            lines.append(f"{i + 1},{value},{value},0.0")
        (directory / f"{algo}_seed{seed}.csv").write_text("\n".join(lines) + "\n")


def test_summarize_rebuilds_summary(tmp_path, capsys):
    raw = base_config(tmp_path, seeds=[0], budget=25)
    run_experiment(load_config(write_config(tmp_path, raw)))
    out_dir = tmp_path / "out"
    original = (out_dir / "summary.csv").read_text()
    (out_dir / "summary.csv").unlink()
    assert main(["summarize", str(out_dir)]) == 0
    assert (out_dir / "summary.csv").read_text() == original


def test_summary_sample_std(tmp_path):
    # two one-iteration runs with bests 1 and 3: mean 2, spread sqrt(2)
    seed_traces(tmp_path / "runs", "mvrsm", [[1.0], [3.0]])
    summarize_directory(tmp_path / "runs")
    rows = (tmp_path / "runs" / "summary.csv").read_text().splitlines()
    assert len(rows) == 2
    fields = dict(zip(SUMMARY_COLUMNS, rows[1].split(",")))
    assert float(fields["mean_best"]) == 2.0
    assert float(fields["std_best"]) == pytest.approx(np.sqrt(2.0), rel=1e-12)
    assert float(fields["min_best"]) == 1.0
    assert float(fields["max_best"]) == 3.0


def test_single_run_has_zero_spread(tmp_path):
    seed_traces(tmp_path / "runs", "rs", [[5.0, 4.0, 4.0]])
    summarize_directory(tmp_path / "runs")
    rows = (tmp_path / "runs" / "summary.csv").read_text().splitlines()
    assert [r.split(",")[3] for r in rows[1:]] == ["0.0", "0.0", "0.0"]


def test_unequal_trace_lengths_rejected(tmp_path):
    seed_traces(tmp_path / "runs", "rs", [[1.0, 1.0], [2.0]])
    with pytest.raises(MalformedTraceError, match="unequal trace lengths"):
        summarize_directory(tmp_path / "runs")


def test_empty_directory_rejected(tmp_path):
    (tmp_path / "runs").mkdir()
    with pytest.raises(MalformedTraceError, match="no trace files"):
        summarize_directory(tmp_path / "runs")


# -- entry point -------------------------------------------------------------


def test_main_reports_config_errors(tmp_path, capsys):
    path = write_config(tmp_path, {"budget": 10})
    assert main(["run", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_run_reports_a_config_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b"\xff\xfe{")
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "config.json" in err


def test_summarize_reports_an_unreadable_trace(tmp_path, capsys):
    # bytes that do not decode, and a field longer than the csv module reads
    header = "iter,y,best_y,step_seconds\n"
    cases = {"bytes": b"\xff", "field": (header + "1," + "1" * 200_000 + ",1,0\n").encode()}
    for case, data in cases.items():
        (tmp_path / case).mkdir()
        (tmp_path / case / "mvrsm_seed0.csv").write_bytes(data)
        assert main(["summarize", str(tmp_path / case)]) == 1, case
        err = capsys.readouterr().err
        assert err.startswith("error:") and "mvrsm_seed0.csv" in err, (case, err)


def test_main_reports_summarize_errors(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    assert main(["summarize", str(tmp_path / "empty")]) == 1
    assert "error:" in capsys.readouterr().err
    # an empty trace file, a header-only one, and one with a non-numeric cell
    header = "iter,y,best_y,step_seconds,xc0\n"
    cases = {"blank": "", "header": header, "text": header + "1,2.0,abc,0.1,0.5\n"}
    for case, text in cases.items():
        (tmp_path / case).mkdir()
        (tmp_path / case / "rs_seed0.csv").write_text(text)
        assert main(["summarize", str(tmp_path / case)]) == 1, case
        err = capsys.readouterr().err
        assert err.startswith("error:") and "rs_seed0.csv" in err, (case, err)
