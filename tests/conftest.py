"""Test-session setup.

BLAS threading is pinned to one thread per process before numpy loads:
the forked workers of the sweep and of a split CSV load or write then never
oversubscribe the machine, and every floating-point reduction order is
fixed for the whole session.  Every test must leave no child process of the
session running.
"""

import multiprocessing
import os
import sys

import pytest

if "numpy" not in sys.modules:
    for _var in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ.setdefault(_var, "1")


@pytest.fixture(autouse=True)
def no_stray_processes():
    """Fail a test that leaves a worker process running, and stop the worker."""
    yield
    stray = multiprocessing.active_children()
    for proc in stray:
        proc.kill()
        proc.join()
    assert not stray, f"the test left processes running: {stray}"


@pytest.fixture
def split_blocks(monkeypatch):
    """Split every CSV load and write; returns the children each call forked."""
    from ksparse import dataio

    monkeypatch.setattr(dataio, "_SPLIT_BLOCK_BYTES", 1)
    forked = []
    original = dataio._forked

    def spy(ctx, work, blocks):
        forked.append(len(blocks))
        return original(ctx, work, blocks)

    monkeypatch.setattr(dataio, "_forked", spy)
    return forked
