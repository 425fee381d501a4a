import os
from pathlib import Path

import pytest

# Child processes that a test starts, such as a fake external solver,
# import this package from the same tree as the tests do.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


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
