"""Optimization driver: run loops, ask/tell session, and run traces.

One iteration of the surrogate loop is: evaluate the objective at the
current point, fold the observation into the least squares fit, descend the
surrogate from the best point seen so far, round the integer block, and
perturb the result to get the next point.
The first ``init_samples`` evaluations are uniform draws that only feed the
fit; the loop then starts from the best of them.

Per-iteration ``step_seconds`` measures the algorithm's own work and never
includes objective evaluation time.
"""

from __future__ import annotations

import csv
import numbers
import re
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .boxmin import MAX_ITERS, minimize
from .errors import (
    InvalidSettingError,
    MalformedTraceError,
    ObjectiveFailureError,
    ProtocolViolationError,
)
from .explore import perturb_continuous, perturb_integer
from .space import MixedPoint, SearchSpace
from .surrogate import build_surrogate

__all__ = [
    "OptimizerConfig",
    "TraceRecord",
    "RunTrace",
    "MvrsmOptimizer",
    "run_mvrsm",
    "run_random_search",
    "read_trace_csv",
]

Objective = Callable[[MixedPoint], float]

# the trace CSV's leading columns, before the coordinates
_SCALAR_COLUMNS = ("iter", "y", "best_y", "step_seconds")


@dataclass(frozen=True)
class OptimizerConfig:
    """The four settings of a run, each an integer: a ``numbers.Integral``
    other than a bool, so numpy integers pass and every float, 30.0 included,
    fails. ``budget``, ``init_samples`` and ``max_iters`` must be >= 1,
    ``rng_seed`` >= 0 and ``budget`` >= ``init_samples``. A bad value raises
    ``InvalidSettingError``, a ``ValueError`` whose ``field`` names it."""

    budget: int
    init_samples: int = 24
    rng_seed: int = 0
    max_iters: int = MAX_ITERS  # iteration cap of each box descent

    def __post_init__(self):
        for name, least in (("budget", 1), ("init_samples", 1), ("rng_seed", 0), ("max_iters", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
                wanted = "a positive integer" if least else "an integer >= 0"
                raise InvalidSettingError(name, f"must be {wanted}, got {value!r}")
        if self.budget < self.init_samples:
            raise InvalidSettingError(
                "budget", f"{self.budget} is smaller than init_samples {self.init_samples}"
            )


@dataclass(frozen=True, eq=False)
class TraceRecord:
    index: int  # 1-based evaluation number
    point: MixedPoint
    y: float
    best_y: float
    best_point: MixedPoint
    step_seconds: float


@dataclass
class RunTrace:
    records: list[TraceRecord] = field(default_factory=list)
    aborted: bool = False

    def __len__(self) -> int:
        return len(self.records)

    def best_y_curve(self) -> np.ndarray:
        return np.array([r.best_y for r in self.records])

    def y_values(self) -> np.ndarray:
        return np.array([r.y for r in self.records])

    def step_seconds(self) -> np.ndarray:
        return np.array([r.step_seconds for r in self.records])

    # -- export ------------------------------------------------------------

    def write_csv(self, path) -> None:
        """Columns: iter, y, best_y, step_seconds, then the flattened
        coordinates (continuous block xc*, then integer block xd*)."""
        if not self.records:
            raise ValueError("refusing to write an empty trace")
        first = self.records[0].point
        header = (
            list(_SCALAR_COLUMNS)
            + [f"xc{i}" for i in range(len(first.xc))]
            + [f"xd{i}" for i in range(len(first.xd))]
        )
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for r in self.records:
                writer.writerow(
                    [r.index, repr(r.y), repr(r.best_y), repr(r.step_seconds)]
                    + [repr(float(v)) for v in r.point.flatten()]
                )


def read_trace_csv(path) -> dict[str, np.ndarray]:
    """Load a trace CSV into arrays: iter, y, best_y, step_seconds, coords.

    Columns are found by header name, so their order does not matter and
    other columns are ignored. ``coords`` holds the xc* columns, then the
    xd* columns, each block in index order. Raises MalformedTraceError for a
    file that is not UTF-8 text or that the csv module rejects, and for one
    without data rows, with ragged rows, a missing column or a non-numeric
    cell.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise MalformedTraceError(f"malformed trace file {path}: {exc}") from exc
    if len(rows) < 2 or any(len(row) != len(rows[0]) for row in rows[1:]):
        raise MalformedTraceError(f"malformed trace file {path}")
    header, body = rows[0], rows[1:]
    column = {name: j for j, name in enumerate(header)}
    missing = [name for name in _SCALAR_COLUMNS if name not in column]
    if missing:
        raise MalformedTraceError(f"trace file {path} has no {', '.join(missing)} column")
    coordinates = sorted(
        (match[1] == "xd", int(match[2]), j)
        for j, match in enumerate(re.fullmatch(r"(xc|xd)(\d+)", name) for name in header)
        if match
    )
    picked = [column[name] for name in _SCALAR_COLUMNS] + [j for *_, j in coordinates]
    try:
        data = np.array([[float(row[j]) for j in picked] for row in body])
    except ValueError as exc:
        raise MalformedTraceError(f"malformed trace file {path}: {exc}") from exc
    return {
        "iter": data[:, 0].astype(int),
        "y": data[:, 1],
        "best_y": data[:, 2],
        "step_seconds": data[:, 3],
        "coords": data[:, len(_SCALAR_COLUMNS) :],
    }


class MvrsmOptimizer:
    """Ask/tell interface to the surrogate loop.

    ``ask`` proposes the next point to evaluate; ``tell`` feeds the observed
    value back and advances the model. Strict alternation is enforced, and
    ``tell`` accepts only the pending ``ask``'s point (equal coordinates; a
    copy will do): a rejected ``tell`` changes nothing and leaves the ask
    pending. A plain loop over ask/evaluate/tell reproduces ``run_mvrsm``
    exactly for the same seed, because ``run_mvrsm`` is that loop.
    """

    def __init__(self, space: SearchSpace, config: OptimizerConfig):
        self.space = space
        self.config = config
        self._rng = np.random.default_rng(config.rng_seed)
        self.model = build_surrogate(space, self._rng)
        self.trace = RunTrace()
        self._pending: MixedPoint | None = None
        self._told = 0
        self._ask_seconds = 0.0
        self._current: MixedPoint | None = None
        self._best_y = np.inf
        self._best_point: MixedPoint | None = None

    def ask(self) -> MixedPoint:
        if self._pending is not None:
            raise ProtocolViolationError("ask() called again before tell()")
        tic = time.perf_counter()
        if self._told < self.config.init_samples:
            point = self.space.uniform_sample(self._rng)
        else:
            point = self._current
        self._ask_seconds = time.perf_counter() - tic
        self._pending = point
        return point

    def tell(self, point: MixedPoint, y: float) -> None:
        if self._pending is None:
            raise ProtocolViolationError("tell() called without a pending ask()")
        pending = self._pending
        if not (
            np.array_equal(getattr(point, "xc", None), pending.xc)
            and np.array_equal(getattr(point, "xd", None), pending.xd)
        ):
            raise ProtocolViolationError("tell() given a point other than the pending ask()'s")
        y = float(y)
        tic = time.perf_counter()

        self.model.rls.update(self.model.features(point.flatten()), y)
        if y < self._best_y:
            self._best_y = y
            self._best_point = point

        index = self._told + 1
        if index == self.config.init_samples:
            self._current = self._best_point
        elif index > self.config.init_samples:
            result = minimize(self.model, self.space, self._best_point, self.config.max_iters)
            proposal = self.space.project(result.point)
            self._current = MixedPoint(
                perturb_continuous(self.space, proposal.xc, self._rng),
                perturb_integer(self.space, proposal.xd, self._rng),
            )

        step = time.perf_counter() - tic + self._ask_seconds
        self.trace.records.append(
            TraceRecord(index, point, y, self._best_y, self._best_point, step)
        )
        self._told = index
        self._pending = None
        self._ask_seconds = 0.0


def run_mvrsm(objective: Objective, space: SearchSpace, config: OptimizerConfig) -> RunTrace:
    """Run the surrogate loop for ``config.budget`` evaluations."""
    optimizer = MvrsmOptimizer(space, config)
    _drive(optimizer.ask, optimizer.tell, optimizer.trace, objective, config.budget)
    return optimizer.trace


def run_random_search(
    objective: Objective, space: SearchSpace, config: OptimizerConfig
) -> RunTrace:
    """Baseline: ``config.budget`` independent uniform draws."""
    rng = np.random.default_rng(config.rng_seed)
    trace = RunTrace()
    best_y = np.inf
    best_point = None
    for index in range(1, config.budget + 1):
        tic = time.perf_counter()
        point = space.uniform_sample(rng)
        step = time.perf_counter() - tic
        y = _evaluate(objective, point, trace)
        tic = time.perf_counter()
        if y < best_y:
            best_y, best_point = y, point
        trace.records.append(
            TraceRecord(index, point, y, best_y, best_point, step + time.perf_counter() - tic)
        )
    return trace


def _drive(ask, tell, trace, objective, budget: int) -> None:
    for _ in range(budget):
        point = ask()
        y = _evaluate(objective, point, trace)
        tell(point, y)


def _evaluate(objective: Objective, point: MixedPoint, trace: RunTrace) -> float:
    try:
        y = float(objective(point))
    except Exception as exc:
        trace.aborted = True
        raise ObjectiveFailureError(f"objective raised: {exc}", trace=trace) from exc
    if not np.isfinite(y):
        trace.aborted = True
        raise ObjectiveFailureError(f"objective returned non-finite value {y!r}", trace=trace)
    return y
