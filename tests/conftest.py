"""Test-session setup.

BLAS threading is pinned to one thread per process before numpy loads:
the forked workers of the sweep and of a split CSV load or write then never
oversubscribe the machine, and every floating-point reduction order is
fixed for the whole session.  Every test must leave no child process of the
session running.
"""

import os
import signal
import sys
from pathlib import Path

import pytest

if "numpy" not in sys.modules:
    for _var in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ.setdefault(_var, "1")


def kill_children() -> list[int]:
    """Kill and reap every child process of this one; the ids of those found.

    Children are listed from /proc, so a forked worker is seen however it was
    started, and so is one that exited without being reaped.  Skips where
    there is no /proc to list them.
    """
    proc_root = Path("/proc")
    if not proc_root.is_dir():
        pytest.skip("no /proc to list processes")
    children = []
    for entry in proc_root.iterdir():
        try:
            stat = (entry / "stat").read_text() if entry.name.isdigit() else ""
        except OSError:  # gone meanwhile
            continue
        # the parent id is the second field after the parenthesized command name
        if stat and int(stat.rpartition(")")[2].split()[1]) == os.getpid():
            children.append(int(entry.name))
    for pid in children:
        os.kill(pid, signal.SIGKILL)
    for pid in children:
        os.waitpid(pid, 0)
    return children


@pytest.fixture(autouse=True)
def no_stray_processes():
    """Fail a test that leaves a child process running or unreaped, and stop it."""
    yield
    if Path("/proc").is_dir():
        stray = kill_children()
        assert not stray, f"the test left processes running: {stray}"


@pytest.fixture
def split_blocks(monkeypatch):
    """Split every CSV load and write; returns the children each call forked."""
    from ksparse import dataio

    monkeypatch.setattr(dataio, "_SPLIT_BLOCK_BYTES", 1)
    forked = []
    original = dataio._forked

    def spy(work, blocks):
        forked.append(len(blocks) - 1)  # block 0 runs in this process
        return original(work, blocks)

    monkeypatch.setattr(dataio, "_forked", spy)
    return forked
