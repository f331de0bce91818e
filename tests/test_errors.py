"""Each kind of bad input at a public entry point raises its one error class."""

import numpy as np
import pytest

from mvrsm.cli import summarize_directory
from mvrsm.driver import RunTrace
from mvrsm.errors import (
    DimensionMismatchError,
    InvalidSettingError,
    MalformedTraceError,
    MvrsmError,
    VariableError,
)
from mvrsm.explore import perturb_integer
from mvrsm.objectives import make_benchmark, rosenbrock
from mvrsm.rls import RecursiveLeastSquares
from mvrsm.space import SearchSpace, VariableSpec

INTEGER = VariableSpec("integer", 0, 4)


def summarize_empty(tmp_path):
    (tmp_path / "runs").mkdir()
    summarize_directory(tmp_path / "runs")


# bad input -> (class, attribute, value); the attribute is None for classes that carry none
CASES = {
    "empty-space": (
        lambda tmp: SearchSpace(()),
        InvalidSettingError, "field", "variables",
    ),
    "all-continuous-space": (
        lambda tmp: SearchSpace((VariableSpec("continuous", 0.0, 1.0),)),
        InvalidSettingError, "field", "variables",
    ),
    "nan-bound": (
        lambda tmp: SearchSpace((INTEGER, VariableSpec("continuous", 0.0, np.nan))),
        VariableError, "index", 1,
    ),
    "zero-lam": (
        lambda tmp: RecursiveLeastSquares(np.zeros(3), lam=0),
        InvalidSettingError, "field", "lam",
    ),
    "unknown-benchmark": (
        lambda tmp: make_benchmark("sphere"),
        InvalidSettingError, "field", "benchmark",
    ),
    "benchmark-name-not-a-string": (
        lambda tmp: make_benchmark(["ackley53"]),
        InvalidSettingError, "field", "benchmark",
    ),
    "rosenbrock-one-coordinate": (
        lambda tmp: rosenbrock([1.0]),
        DimensionMismatchError, None, None,
    ),
    "non-integral-integer-block": (
        lambda tmp: perturb_integer(SearchSpace((INTEGER,)), [1.5], np.random.default_rng(0)),
        InvalidSettingError, "field", "xd",
    ),
    "write-empty-trace": (
        lambda tmp: RunTrace().write_csv(tmp / "trace.csv"),
        MalformedTraceError, None, None,
    ),
    "summarize-empty-directory": (summarize_empty, MalformedTraceError, None, None),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bad_input_raises_its_folded_class(tmp_path, case):
    call, error, attribute, value = CASES[case]
    with pytest.raises(Exception) as err:
        call(tmp_path)
    assert type(err.value) is error
    assert isinstance(err.value, MvrsmError) and isinstance(err.value, ValueError)
    if attribute is not None:
        assert getattr(err.value, attribute) == value
