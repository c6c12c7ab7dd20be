"""Importing walshgl loads numpy's OpenBLAS without its worker threads:
walshgl calls no BLAS routine.  Each case runs a fresh interpreter and reads
its thread count from /proc/self/status, importing the walshgl that this
session imports."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(importlib.util.find_spec("walshgl").origin).parent.parent
VARIABLE = "OPENBLAS_NUM_THREADS"

pytestmark = pytest.mark.skipif(not Path("/proc/self/status").exists(),
                                reason="reads the thread count from /proc/self/status")


def child(imports: str, value: str | None = None) -> dict:
    """Threads and OPENBLAS_NUM_THREADS after ``imports`` in a fresh interpreter."""
    env = {key: v for key, v in os.environ.items() if key != VARIABLE}
    env["PYTHONPATH"] = str(SRC)
    if value is not None:
        env[VARIABLE] = value
    script = (f"import json, os; {imports}; status = open('/proc/self/status').read();"
              " threads = int(status.split('Threads:')[1].split()[0]);"
              f" print(json.dumps({{'threads': threads, 'value': os.environ.get({VARIABLE!r})}}))")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    return json.loads(proc.stdout)


def cores() -> int:
    """Cores this process may run on, which bound OpenBLAS's thread count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@pytest.mark.parametrize("imports", ["import walshgl", "import walshgl.cli"])
def test_unset_variable_caps_the_pool_and_is_removed(imports):
    assert child(imports) == {"threads": 1, "value": None}


@pytest.mark.skipif(cores() < 2, reason="OpenBLAS starts no more threads than cores")
def test_explicit_variable_wins():
    assert child("import walshgl", "2") == {"threads": 2, "value": "2"}


def test_numpy_imported_first_keeps_its_pool():
    plain = child("import numpy")
    assert child("import numpy, walshgl") == plain
    assert plain["value"] is None
