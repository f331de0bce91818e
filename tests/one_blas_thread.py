"""Run a test helper in a child interpreter whose BLAS uses one thread.

Seeded arithmetic depends on the BLAS thread count: a threaded matrix-vector
product over the M = 6629 unit rows of rosenbrock238 splits the rows across
threads, and the split moves the rounding of the rows beside it. The benchmark
(``perfbench/run.py``) pins ``OPENBLAS_NUM_THREADS=1``, so the tests that check
exact bits compute them under the same setting. OpenBLAS reads the variable
once, when numpy loads, hence a child process.
"""

import json
import os
import pathlib
import subprocess
import sys

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def call(module: str, function: str, *args):
    """``module.function(*args)`` in a one-thread child; arguments and result travel as JSON."""
    code = (
        "import json, sys\n"
        f"from {module} import {function}\n"
        f"json.dump({function}(*json.loads(sys.argv[1])), sys.stdout)\n"
    )
    path = os.pathsep.join(filter(None, (str(SRC), str(TESTS), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    child = subprocess.run(
        [sys.executable, "-c", code, json.dumps(args)], env=env, capture_output=True, text=True
    )
    if child.returncode != 0:
        raise RuntimeError(f"{module}.{function} failed in the one-thread child:\n{child.stderr}")
    return json.loads(child.stdout)
