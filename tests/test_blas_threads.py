"""`import pairstats` starts no idle OpenBLAS worker and leaves the environment as it found it.

Each case runs in a fresh interpreter, since numpy reads
OPENBLAS_NUM_THREADS once, when it is first imported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
# OpenBLAS takes its thread count from the first of these that is set
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# records every write to the variable, then reports the writes, the value
# after the import and, where the platform lists them, the process's threads
_PROBE = """
import json, os, sys
writes = []
environ_type = type(os.environ)
real_set, real_del = environ_type.__setitem__, environ_type.__delitem__
def spy_set(self, key, value):
    if key == "OPENBLAS_NUM_THREADS":
        writes.append(("set", value))
    real_set(self, key, value)
def spy_del(self, key):
    if key == "OPENBLAS_NUM_THREADS":
        writes.append(("del",))
    real_del(self, key)
environ_type.__setitem__, environ_type.__delitem__ = spy_set, spy_del
if sys.argv[1] == "numpy-first":
    import numpy
import pairstats
tasks = "/proc/self/task"
print(json.dumps({
    "writes": writes,
    "after": os.environ.get("OPENBLAS_NUM_THREADS"),
    "threads": len(os.listdir(tasks)) if os.path.isdir(tasks) else None,
}))
"""


def probe(order: str, **settings: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env["PYTHONPATH"] = SRC
    env.update(settings)
    done = subprocess.run([sys.executable, "-c", _PROBE, order], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def test_unset_variable_gives_one_thread_and_is_unset_after():
    got = probe("pairstats-first")
    assert got["writes"] == [["set", "1"], ["del"]]
    assert got["after"] is None
    if got["threads"] is not None:
        assert got["threads"] == 1


@pytest.mark.parametrize("order", ["pairstats-first", "numpy-first"])
def test_a_value_the_user_set_is_kept(order):
    got = probe(order, OPENBLAS_NUM_THREADS="2")
    assert got["writes"] == []
    assert got["after"] == "2"


@pytest.mark.parametrize("variable", ["GOTO_NUM_THREADS", "OMP_NUM_THREADS"])
def test_a_count_chosen_through_another_variable_is_kept(variable):
    # OpenBLAS would read OPENBLAS_NUM_THREADS=1 before the user's count
    got = probe("pairstats-first", **{variable: "2"})
    assert got["writes"] == []
    assert got["after"] is None


def test_numpy_imported_first_leaves_the_environment_untouched():
    got = probe("numpy-first")
    assert got["writes"] == []
    assert got["after"] is None
