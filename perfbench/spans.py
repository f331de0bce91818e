"""In-memory span tracer, installed from outside the package.

Wrappers go around the module attributes that ``mvrsm.driver`` calls
(``build_surrogate``, ``minimize``, ``perturb_*``), the model instance's
methods, ``model.rls.update``, the space's ``project``/``uniform_sample`` and
the benchmark loop's own calls to ``ask``, ``tell`` and the objective. They
pass arguments and results through untouched, so a traced run reproduces
the untraced run bit for bit; the harness checks that on every traced run.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

from mvrsm import driver

LAYERS = (
    "surrogate.build_surrogate",
    "surrogate.features",
    "surrogate.value",
    "surrogate.gradient",
    "surrogate.directional_derivative",
    "surrogate.axis_derivatives",
    "rls.update",
    "boxmin.minimize",
    "explore.perturb_integer",
    "explore.perturb_continuous",
    "space.project",
    "space.uniform_sample",
    "driver.ask",
    "driver.tell",
    "objectives.call",
)

# driver module attribute -> layer name
_DRIVER_IMPORTS = {
    "build_surrogate": "surrogate.build_surrogate",
    "minimize": "boxmin.minimize",
    "perturb_integer": "explore.perturb_integer",
    "perturb_continuous": "explore.perturb_continuous",
}

_MODEL_METHODS = ("features", "value", "gradient", "directional_derivative", "axis_derivatives")


class Tracer:
    """Collects spans ``[name, start, end, parent index, run id]`` in a list.

    Nothing is written while a run executes; callers reduce ``spans`` once at
    the end with :func:`layer_metrics`.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.run_id = -1
        self.boxmin_iterations = 0  # sum of BoxMinResult.iterations
        self._open = [-1]

    def wrap(self, name, fn):
        spans, open_spans = self.spans, self._open

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, open_spans[-1], self.run_id]
            spans.append(span)
            open_spans.append(index)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_spans.pop()

        return traced

    @contextlib.contextmanager
    def session(self):
        """Give the next session a new run id and wrap what ``mvrsm.driver`` imports, for it."""
        self.run_id += 1
        saved = {attr: getattr(driver, attr) for attr in _DRIVER_IMPORTS}
        try:
            for attr, name in _DRIVER_IMPORTS.items():
                fn = saved[attr]
                if attr == "minimize":
                    fn = self._counting_iterations(fn)
                setattr(driver, attr, self.wrap(name, fn))
            yield
        finally:
            for attr, fn in saved.items():
                setattr(driver, attr, fn)

    def attach(self, optimizer, objective):
        """Wrap one session's model, fit and space; return traced ask, tell and objective."""
        model = optimizer.model
        for method in _MODEL_METHODS:
            setattr(model, method, self.wrap(f"surrogate.{method}", getattr(model, method)))
        model.rls.update = self.wrap("rls.update", model.rls.update)
        for method in ("project", "uniform_sample"):
            # SearchSpace is a frozen dataclass; the instance attribute shadows the method
            object.__setattr__(
                optimizer.space, method, self.wrap(f"space.{method}", getattr(optimizer.space, method))
            )
        return (
            self.wrap("driver.ask", optimizer.ask),
            self.wrap("driver.tell", optimizer.tell),
            self.wrap("objectives.call", objective),
        )

    def _counting_iterations(self, minimize):
        def counted(*args, **kwargs):
            result = minimize(*args, **kwargs)
            self.boxmin_iterations += result.iterations
            return result

        return counted


def layer_metrics(tracer: Tracer, traced_s: float) -> dict[str, float]:
    """Per-layer calls, self time, median span time and share of ``traced_s``.

    Self time is a span's duration minus the durations of its direct
    children. ``boxmin.accept_ratio`` counts, inside each ``minimize`` span,
    accepted steps (one ``gradient`` call per accepted step, after the one at
    the start point) over line-search trials (one ``value`` call per trial,
    after the one at the start point).
    """
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    grad_children = [0] * len(spans)
    value_children = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
            if name == "surrogate.gradient":
                grad_children[parent] += 1
            elif name == "surrogate.value":
                value_children[parent] += 1

    durations: dict[str, list[float]] = {name: [] for name in LAYERS}
    self_s = dict.fromkeys(LAYERS, 0.0)
    accepted = trials = 0
    for index, (name, start, end, _, _) in enumerate(spans):
        durations[name].append(end - start)
        self_s[name] += end - start - child_s[index]
        if name == "boxmin.minimize":
            accepted += grad_children[index] - 1
            trials += value_children[index] - 1

    metrics = {}
    for name in LAYERS:
        metrics[f"{name}.calls"] = len(durations[name])
        metrics[f"{name}.self_s"] = self_s[name]
        metrics[f"{name}.p50_us"] = float(np.median(durations[name])) * 1e6 if durations[name] else 0.0
        metrics[f"{name}.share"] = self_s[name] / traced_s
    metrics["boxmin.iterations"] = tracer.boxmin_iterations
    metrics["boxmin.accept_ratio"] = accepted / trials if trials else 0.0
    return metrics
