"""Optimization driver: the ask/tell sessions of both algorithms, their one
run loop, and run traces. ``MvrsmOptimizer`` is the ``RandomSearch`` session
with its own proposals and its own use of each told value.

One iteration of the surrogate loop is: ``ask`` descends the surrogate from
the best point seen so far, rounds the integer block and perturbs the result;
the caller evaluates the objective there; ``tell`` folds the value into the
least squares fit. The first ``init_samples`` evaluations are uniform draws
that only feed the fit; the loop then starts from the best of them.

Record k's ``step_seconds`` is the algorithm's own work on point k: proposing
it and folding its value. It never includes objective evaluation time.
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
    NonFiniteError,
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
    "RandomSearch",
    "MvrsmOptimizer",
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

    def __len__(self) -> int:
        return len(self.records)

    # -- export ------------------------------------------------------------

    def write_csv(self, path) -> None:
        """Columns: iter, y, best_y, step_seconds, then the flattened
        coordinates (continuous block xc*, then integer block xd*)."""
        if not self.records:
            raise MalformedTraceError("refusing to write an empty trace")
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
    without data rows, with ragged rows or a missing column, or whose read
    columns hold a non-numeric or non-finite cell, or an iter that is not a
    whole number in the int64 range.
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
    iters = data[:, 0]
    whole = (iters == np.round(iters)) & (abs(iters) < 2.0**63)
    if not (np.all(np.isfinite(data)) and np.all(whole)):
        raise MalformedTraceError(f"trace file {path} has a non-finite cell or a non-int64 iter")
    return {
        "iter": iters.astype(int),
        "y": data[:, 1],
        "best_y": data[:, 2],
        "step_seconds": data[:, 3],
        "coords": data[:, len(_SCALAR_COLUMNS) :],
    }


class RandomSearch:
    """Ask/tell session of the random-search baseline, whose every point is a
    uniform draw, and the bookkeeping a subclass's ``_propose`` and ``_learn`` share.

    ``ask`` proposes the next point; ``tell`` feeds back its value. They must
    alternate, ``ask`` refuses once ``config.budget`` values are told, and
    ``tell`` accepts only the pending ``ask``'s point (a copy will do) and a
    finite value: a rejected ``tell`` changes nothing. ``run`` is a plain
    ask/evaluate/tell loop, so a hand-driven session reproduces it.
    """

    def __init__(self, space: SearchSpace, config: OptimizerConfig):
        self.space = space
        self.config = config
        self._rng = np.random.default_rng(config.rng_seed)
        self.trace = RunTrace()
        self._pending: MixedPoint | None = None
        self._ask_seconds = 0.0
        self._best_y = np.inf
        self._best_point: MixedPoint | None = None

    def ask(self) -> MixedPoint:
        """The next point. A proposal that raises (``MvrsmOptimizer``'s descent may
        raise ``NonFiniteError``) leaves no ask pending and the fit and trace as they were."""
        if self._pending is not None:
            raise ProtocolViolationError("ask() called again before tell()")
        if len(self.trace) == self.config.budget:
            raise ProtocolViolationError("ask() called after the budget's last tell()")
        tic = time.perf_counter()
        point = self._propose()
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
        if not np.isfinite(y):
            raise NonFiniteError(f"tell() given non-finite value {y!r}")
        tic = time.perf_counter()

        self._learn(point, y)
        if y < self._best_y:
            self._best_y, self._best_point = y, point

        step = time.perf_counter() - tic + self._ask_seconds
        self.trace.records.append(
            TraceRecord(len(self.trace) + 1, point, y, self._best_y, self._best_point, step)
        )
        self._pending = None

    def run(self, objective: Objective) -> RunTrace:
        """Ask, evaluate and tell until ``config.budget`` values are told; an objective
        that raises or returns a non-finite value raises ``ObjectiveFailureError``. Any
        error ends the run, and the trace keeps every value told before it."""
        while len(self.trace) < self.config.budget:
            point = self.ask()
            try:
                y = float(objective(point))
            except Exception as exc:
                raise ObjectiveFailureError(f"objective raised: {exc}") from exc
            if not np.isfinite(y):
                raise ObjectiveFailureError(f"objective returned non-finite value {y!r}")
            self.tell(point, y)
        return self.trace

    def _propose(self) -> MixedPoint:
        return self.space.uniform_sample(self._rng)

    def _learn(self, point: MixedPoint, y: float) -> None:
        """Take in a told value before it becomes the best; raising leaves the best as it was."""


class MvrsmOptimizer(RandomSearch):
    """Ask/tell session of the surrogate loop: random search's first ``init_samples``
    draws, then the best of them, then perturbed descents from the best point, each
    made by ``ask``. A told value only updates the fit."""

    def __init__(self, space: SearchSpace, config: OptimizerConfig):
        super().__init__(space, config)
        self.model = build_surrogate(space, self._rng)

    def _propose(self) -> MixedPoint:
        told = len(self.trace)
        if told < self.config.init_samples:
            return super()._propose()
        if told == self.config.init_samples:
            return self._best_point
        result = minimize(self.model, self.space, self._best_point, self.config.max_iters)
        proposal = self.space.project(result.point)
        return MixedPoint(
            perturb_continuous(self.space, proposal.xc, self._rng),
            perturb_integer(self.space, proposal.xd, self._rng),
        )

    def _learn(self, point: MixedPoint, y: float) -> None:
        model = self.model
        model.rls.update(model.features(model.preactivations(point.flatten())), y)
