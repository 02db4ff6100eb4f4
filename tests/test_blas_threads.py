"""``import uppkit`` loads numpy with one OpenBLAS thread, unless the caller
chose a thread count or imported numpy first.

Each case runs a fresh interpreter, since OpenBLAS fixes its thread count
when numpy loads it. Counts are compared with ``import numpy`` alone under
the same environment, never with a literal: OpenBLAS caps its threads at the
core count, so a 1-core host has one thread either way.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import uppkit

pytestmark = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                reason="needs /proc/self/task to count threads")

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
REPORT = ("import os\nimport numpy as np\n"
          "a = np.ones((500, 500))\na @ a\n"
          "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))\n")


def threads_after(imports: str, **set_vars: str) -> tuple[int, str]:
    """Thread count and ``OPENBLAS_NUM_THREADS`` after ``imports`` and a 500x500
    matmul, in a fresh interpreter whose only thread variables are ``set_vars``."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    src = str(Path(uppkit.__file__).resolve().parents[1])
    env.update(set_vars, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", imports + "\n" + REPORT], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    count, var = out.stdout.split()
    return int(count), var


@pytest.mark.parametrize("imports", ["import uppkit", "from uppkit.cli import main",
                                     "from uppkit import guppi"])
def test_uppkit_loads_numpy_with_one_blas_thread(imports):
    assert threads_after(imports) == (1, "None")


@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_caller_thread_variable_wins(var):
    numpy_alone = threads_after("import numpy", **{var: "2"})
    assert threads_after("import uppkit", **{var: "2"}) == numpy_alone


def test_numpy_imported_first_is_left_alone():
    assert threads_after("import numpy\nimport uppkit") == threads_after("import numpy")
