"""Acceptance suite: end-to-end checks of the model's structural guarantees,
the fitting and exploration statistics, and desk-scale benchmark behavior.

Each test prints one summary line with its measured numbers; run with
``pytest -s`` to see them. Runtime ceilings are asserted, so a pass also
certifies the cost envelope.
"""

import time

import numpy as np
import pytest

from mvrsm.driver import MvrsmOptimizer, OptimizerConfig, RandomSearch
from mvrsm.explore import perturb_continuous, perturb_integer
from mvrsm.objectives import make_benchmark
from mvrsm.rls import RecursiveLeastSquares
from mvrsm.space import SearchSpace, VariableSpec
from mvrsm.surrogate import _draw_mixed_units, build_surrogate, corner_points, sample_directions
from handbuilt import dense_weights, trace_array
from vertices import enumerate_vertices


def random_mixed_space(rng, d_c, d_d, int_width=(1, 2), cont_width=(0.5, 2.0)):
    specs = []
    for _ in range(d_c):
        lo = rng.uniform(-2.0, 0.0)
        specs.append(VariableSpec("continuous", lo, lo + rng.uniform(*cont_width)))
    for _ in range(d_d):
        lo = int(rng.integers(-2, 1))
        specs.append(VariableSpec("integer", lo, lo + int(rng.integers(*int_width))))
    return SearchSpace(tuple(specs))


def benchmark_curves(name, budget, seeds):
    """Best-so-far curves (runs x budget) for the surrogate loop and the
    random-search baseline, with matched per-seed noise streams."""
    surrogate_runs, baseline_runs = [], []
    for seed in seeds:
        config = OptimizerConfig(budget=budget, init_samples=24, rng_seed=seed)
        space, objective = make_benchmark(name, rng=np.random.default_rng([seed, 1]))
        surrogate_runs.append(trace_array(MvrsmOptimizer(space, config).run(objective), "best_y"))
        space, objective = make_benchmark(name, rng=np.random.default_rng([seed, 1]))
        baseline_runs.append(trace_array(RandomSearch(space, config).run(objective), "best_y"))
    return np.stack(surrogate_runs), np.stack(baseline_runs)


def test_01_every_surrogate_vertex_has_integer_discrete_coordinates():
    tic = time.perf_counter()
    checked = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        space = random_mixed_space(
            rng, d_c=int(rng.integers(1, 3)), d_d=int(rng.integers(1, 3))
        )
        model = build_surrogate(space, rng)
        model.coeffs[:] = rng.uniform(-1.0, 1.0, model.n_units)
        for vertex in enumerate_vertices(model, space):
            assert np.all(np.abs(vertex.point.xd - np.round(vertex.point.xd)) <= 1e-9)
            checked += 1
    elapsed = time.perf_counter() - tic
    assert elapsed < 60.0
    print(f"acceptance 1 vertex integrality: PASS ({checked} vertices, {elapsed:.1f}s)")


def test_02_mixed_unit_kink_planes_cross_their_box():
    tic = time.perf_counter()
    rng = np.random.default_rng(2)
    checked = 0
    for _ in range(20):
        space = random_mixed_space(
            rng,
            d_c=int(rng.integers(1, 4)),
            d_d=int(rng.integers(1, 4)),
            int_width=(1, 4),
            cont_width=(0.5, 4.0),
        )
        directions = sample_directions(space, rng)
        picks, biases = _draw_mixed_units(space, directions, 50, rng)
        for weights, bias in zip(directions[picks], biases):
            q1, q2 = corner_points(space, weights)
            assert weights @ q1 + bias <= 1e-12
            assert weights @ q2 + bias >= -1e-12
            checked += 1
    elapsed = time.perf_counter() - tic
    assert checked == 1000
    assert elapsed < 1.0
    print(f"acceptance 2 kink planes cross the box: PASS ({checked} units, {elapsed:.2f}s)")


def test_03_online_fit_matches_dense_ridge_solution():
    tic = time.perf_counter()
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(1, 21))
        n = int(rng.integers(1, 51))
        phi = rng.normal(size=(n, m))
        y = rng.normal(size=n)
        c0 = rng.normal(size=m)
        lam = 1e-8
        fit = RecursiveLeastSquares(c0.copy(), lam=lam)
        for row, value in zip(phi, y):
            fit.update(row, value)
        oracle = c0 + np.linalg.solve(
            phi.T @ phi + lam * np.eye(m), phi.T @ (y - phi @ c0)
        )
        rel = np.linalg.norm(fit.coeffs - oracle) / np.linalg.norm(oracle)
        worst = max(worst, rel)
        assert rel <= 1e-6
    elapsed = time.perf_counter() - tic
    assert elapsed < 5.0
    print(f"acceptance 3 fit matches ridge: PASS (worst rel {worst:.2e}, {elapsed:.2f}s)")


def test_04_gradient_matches_finite_differences_off_the_kinks():
    tic = time.perf_counter()
    rng = np.random.default_rng(4)
    space = SearchSpace(
        (
            VariableSpec("continuous", -1.5, 1.7),
            VariableSpec("continuous", -0.8, 1.2),
            VariableSpec("integer", -2, 2),
            VariableSpec("integer", 0, 3),
        )
    )
    model = build_surrogate(space, rng)
    model.coeffs[:] = rng.uniform(-1.0, 1.0, model.n_units)
    weights = dense_weights(model)
    h = 1e-7
    checked = 0
    worst = 0.0
    while checked < 1000:
        x = rng.uniform(space.lower, space.upper)
        z = weights @ x + model.biases
        if np.min(np.abs(z)) <= 1e-6:
            continue  # too close to a kink for a clean two-sided difference
        grad = model.gradient(x)
        fd = np.empty_like(x)
        for i in range(x.size):
            step = np.zeros_like(x)
            step[i] = h
            fd[i] = (model.value(x + step) - model.value(x - step)) / (2.0 * h)
        rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-9)
        worst = max(worst, rel)
        assert rel < 1e-5
        checked += 1
    elapsed = time.perf_counter() - tic
    assert elapsed < 5.0
    print(f"acceptance 4 gradient check: PASS (worst rel {worst:.2e}, {elapsed:.2f}s)")


def test_05_exploration_statistics_match_their_design():
    tic = time.perf_counter()
    space = SearchSpace(
        (
            VariableSpec("continuous", -1e6, 1e6),
            VariableSpec("continuous", -1e6, 1e6),
            VariableSpec("integer", -50, 50),
            VariableSpec("integer", -50, 50),
            VariableSpec("integer", -50, 50),
        )
    )
    p = 1.0 / space.dim
    trials = 100_000

    rng = np.random.default_rng(5)
    start = np.zeros(3)
    changes = np.zeros(3)
    for _ in range(trials):
        changes += perturb_integer(space, start, rng) != start
    se = np.sqrt(p * (1.0 - p) / trials)
    rates = changes / trials
    assert np.all(np.abs(rates - p) < 3.0 * se)

    sigma = 0.1 * 2e6 / np.sqrt(space.dim)
    draws = np.array(
        [perturb_continuous(space, np.zeros(2), rng)[0] for _ in range(trials)]
    )
    assert np.all(np.abs(draws) < 1e6)  # the box is wide enough not to clip
    sample_sigma = draws.std(ddof=1)
    assert abs(sample_sigma - sigma) / sigma < 0.02
    elapsed = time.perf_counter() - tic
    assert elapsed < 10.0
    print(
        "acceptance 5 exploration statistics: PASS "
        f"(rates {np.round(rates, 4)} vs p {p:.3f}, "
        f"sigma {sample_sigma:.0f} vs {sigma:.0f}, {elapsed:.1f}s)"
    )


def test_06_beats_random_search_on_rosenbrock10():
    tic = time.perf_counter()
    surrogate, baseline = benchmark_curves("rosenbrock10", budget=124, seeds=range(30))
    mean_s = surrogate.mean(axis=0)
    mean_b = baseline.mean(axis=0)
    dominance = float(np.mean(mean_s[24:] < mean_b[24:]))
    elapsed = time.perf_counter() - tic
    assert mean_s[-1] < mean_b[-1]
    assert dominance >= 0.80
    assert elapsed < 120.0
    print(
        "acceptance 6 rosenbrock10 margin: PASS "
        f"(final {mean_s[-1]:.3f} vs {mean_b[-1]:.3f}, "
        f"dominance {dominance:.0%}, {elapsed:.1f}s)"
    )


def test_07_halves_random_search_on_ackley53():
    tic = time.perf_counter()
    surrogate, baseline = benchmark_curves("ackley53", budget=224, seeds=range(7))
    final_s = float(surrogate[:, -1].mean())
    final_b = float(baseline[:, -1].mean())
    elapsed = time.perf_counter() - tic
    assert final_s <= 0.5 * final_b
    assert elapsed < 600.0
    print(
        "acceptance 7 ackley53 margin: PASS "
        f"(final {final_s:.3f} vs {final_b:.3f}, ratio {final_s / final_b:.3f}, "
        f"{elapsed:.1f}s)"
    )


def test_08_per_iteration_cost_stays_flat():
    # Other work on a shared host mostly adds time, so each step is timed as
    # the faster of two identical runs; the runs must be bit-equal for that to
    # compare the same work.
    config = OptimizerConfig(budget=500, init_samples=24, rng_seed=0)
    runs, elapsed = [], []
    for _ in range(2):
        tic = time.perf_counter()
        space, objective = make_benchmark("rosenbrock10", rng=np.random.default_rng([0, 1]))
        runs.append(MvrsmOptimizer(space, config).run(objective))
        elapsed.append(time.perf_counter() - tic)
    a, b = runs
    np.testing.assert_array_equal(trace_array(a, "y"), trace_array(b, "y"))
    np.testing.assert_array_equal(
        [r.point.flatten() for r in a.records], [r.point.flatten() for r in b.records]
    )
    steps = np.minimum(trace_array(a, "step_seconds"), trace_array(b, "step_seconds"))
    decile = len(steps) // 10
    first = float(steps[:decile].mean())
    last = float(steps[-decile:].mean())
    assert last <= 1.5 * first
    assert max(elapsed) < 300.0
    print(
        "acceptance 8 flat step cost: PASS "
        f"(first {first * 1e3:.2f}ms, last {last * 1e3:.2f}ms, "
        f"ratio {last / first:.2f}, {elapsed[0]:.1f}s + {elapsed[1]:.1f}s)"
    )


def test_09_runs_are_bit_exact_under_a_fixed_seed():
    tic = time.perf_counter()
    traces = []
    for _ in range(2):
        config = OptimizerConfig(budget=60, init_samples=24, rng_seed=3)
        space, objective = make_benchmark(
            "rosenbrock10", rng=np.random.default_rng([3, 1])
        )
        traces.append(MvrsmOptimizer(space, config).run(objective))
    a, b = traces
    assert np.array_equal(trace_array(a, "y"), trace_array(b, "y"))
    assert np.array_equal(trace_array(a, "best_y"), trace_array(b, "best_y"))
    for ra, rb in zip(a.records, b.records):
        assert np.array_equal(ra.point.flatten(), rb.point.flatten())
        assert np.array_equal(ra.best_point.flatten(), rb.best_point.flatten())
    elapsed = time.perf_counter() - tic
    print(f"acceptance 9 seeded determinism: PASS ({elapsed:.1f}s)")


def test_10_ask_tell_session_reproduces_the_run_loop():
    tic = time.perf_counter()
    config = OptimizerConfig(budget=50, init_samples=24, rng_seed=0)
    space, objective = make_benchmark("rosenbrock10", rng=np.random.default_rng([0, 1]))
    reference = MvrsmOptimizer(space, config).run(objective)

    space, objective = make_benchmark("rosenbrock10", rng=np.random.default_rng([0, 1]))
    session = MvrsmOptimizer(space, config)
    for _ in range(config.budget):
        point = session.ask()
        session.tell(point, objective(point))

    assert np.array_equal(trace_array(session.trace, "y"), trace_array(reference, "y"))
    assert np.array_equal(trace_array(session.trace, "best_y"), trace_array(reference, "best_y"))
    for ra, rb in zip(session.trace.records, reference.records):
        assert np.array_equal(ra.point.flatten(), rb.point.flatten())
    elapsed = time.perf_counter() - tic
    print(f"acceptance 10 ask/tell equivalence: PASS ({elapsed:.1f}s)")


def test_11_beats_random_search_on_rosenbrock238():
    # the paper's headline size: 119 continuous and 119 integer variables,
    # M = 6629 basis units. Per-seed ratios over seeds 0-7 read 0.411-0.532,
    # so the bound leaves a margin of 0.07 over the worst of them.
    tic = time.perf_counter()
    finals = []
    for seed in (0, 1):
        config = OptimizerConfig(budget=100, init_samples=24, rng_seed=seed)
        runs = []
        for session in (MvrsmOptimizer, RandomSearch):
            space, objective = make_benchmark(
                "rosenbrock238", rng=np.random.default_rng([seed, 1])
            )
            runs.append(session(space, config).run(objective).records[-1].best_y)
        finals.append(runs)
    final_s, final_b = np.mean(finals, axis=0)
    elapsed = time.perf_counter() - tic
    assert final_s <= 0.6 * final_b
    assert elapsed < 60.0
    print(
        "acceptance 11 rosenbrock238 margin: PASS "
        f"(final {final_s:.3f} vs {final_b:.3f}, ratio {final_s / final_b:.3f}, "
        f"{elapsed:.1f}s)"
    )
