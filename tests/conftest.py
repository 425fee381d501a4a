import copy
import os
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest

from mcmsat import native
from mcmsat.pb import GE, SAT, PbFormula
from mcmsat.refsolver import RefSolver

# Child processes that a test starts, such as a fake external solver,
# import this package from the same tree as the tests do.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


# For a test that calls the core itself, or compares it with Python.
# test_compiled_core_loads_where_a_compiler_exists fails where a compiler
# is found and the core still does not load, so a skip is never silent.
needs_core = pytest.mark.skipif(native.load() is None,
                                reason="no compiled core: no C compiler, or MCMSAT_NO_NATIVE is set")


def enumerate_models(formula: PbFormula, limit=None):
    """Every satisfying assignment, in deterministic order.

    Each model found is excluded from the next search by one blocking
    row on a copy of the formula.
    """
    work = copy.deepcopy(formula)
    nv = formula.var_count
    out = []
    while limit is None or len(out) < limit:
        status, model = RefSolver(work).solve()
        if status != SAT:
            break
        out.append(model)
        if nv == 0:
            break
        ones = sum(model.values)
        work.add(tuple((-1 if model[v] else 1, v) for v in range(1, nv + 1)), GE, 1 - ones)
    return out


@contextmanager
def python_path():
    """Run the block on the Python paths: every caller's `native.load()`
    finds no compiled core."""
    with mock.patch.object(native, "load", lambda: None):
        yield


@pytest.fixture
def python_only():
    """Run the test on the Python paths."""
    with python_path():
        yield


def child_pids() -> set[int]:
    """Processes whose parent is this one, zombies included.

    Read from the parent-pid field of every /proc/<pid>/stat: the comm
    field before it is parenthesized and may hold spaces, so the fields
    are split after its closing parenthesis.
    """
    me = os.getpid()
    children = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rpartition(")")[2].split()
        except OSError:
            continue  # exited while listing
        if int(fields[1]) == me:
            children.add(int(entry))
    return children


@pytest.fixture(autouse=True)
def no_leftover_child_processes():
    """Fail a test that leaves a child process running or unreaped."""
    if not os.path.isdir("/proc"):
        yield
        return
    before = child_pids()
    yield
    left = child_pids() - before
    assert not left, f"child processes left behind: {sorted(left)}"
