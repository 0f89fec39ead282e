import contextlib
import os
import signal
import time

import numpy as np
import pytest

from ksparse import core
from ksparse.core import (
    centroids,
    check_data_matrix,
    check_labels,
    gradient,
    objective,
    spectral_norm,
)
from ksparse.dataio import SyntheticSpec, generate_synthetic

from conftest import kill_children


def _random_instance(rng, m=5, d=3, dbar=2, k=2):
    X = rng.standard_normal((m, d))
    W = rng.standard_normal((d, dbar))
    labels = rng.integers(0, k, m)
    labels[:k] = np.arange(k)  # no empty clusters
    mu = rng.standard_normal((k, dbar))
    return X, W, labels, mu


class TestObjective:
    def test_exact_fit_is_zero(self):
        # every projected row equals its centroid: X1 @ W1 rows are all 1
        X1 = np.eye(3)
        W1 = np.ones((3, 1))
        lab = np.zeros(3, dtype=int)
        mu1 = np.array([[1.0]])
        assert objective(X1, W1, lab, mu1) == 0.0

    def test_scalar_arithmetic(self):
        assert objective(np.array([[2.0]]), np.array([[1.0]]), [0], np.array([[0.0]])) == 2.0

    def test_matches_elementwise_sum(self):
        rng = np.random.default_rng(1)
        X, W, labels, mu = _random_instance(rng, m=5, d=3, dbar=2, k=2)
        got = objective(X, W, labels, mu)
        acc = 0.0
        XW = X @ W
        for i in range(5):
            for j in range(2):
                acc += (mu[labels[i], j] - XW[i, j]) ** 2
        assert got == pytest.approx(0.5 * acc, rel=1e-12)

    def test_cluster_permutation_invariance(self):
        rng = np.random.default_rng(2)
        X, W, labels, mu = _random_instance(rng, m=8, d=4, dbar=3, k=3)
        perm = np.array([2, 0, 1])
        inv = np.argsort(perm)
        assert objective(X, W, labels, mu) == pytest.approx(
            objective(X, W, perm[labels], mu[inv]), rel=1e-12
        )

    def test_dimension_mismatch_messages(self):
        X = np.ones((4, 3))
        W = np.ones((2, 2))
        with pytest.raises(ValueError, match="feature axis"):
            objective(X, W, [0, 0, 0, 0], np.ones((1, 2)))
        with pytest.raises(ValueError, match="sample axis"):
            objective(X, np.ones((3, 2)), [0, 0], np.ones((1, 2)))
        with pytest.raises(ValueError, match="projected axis"):
            objective(X, np.ones((3, 2)), [0] * 4, np.ones((1, 3)))


class TestGradient:
    def test_zero_at_stationary_residual(self):
        X1 = np.eye(3)
        W1 = np.ones((3, 1))
        mu1 = np.array([[1.0]])
        np.testing.assert_array_equal(
            gradient(X1, W1, np.zeros(3, int), mu1), np.zeros((3, 1))
        )

    def test_scalar_case(self):
        g = gradient(np.array([[2.0]]), np.array([[1.0]]), [0], np.array([[0.0]]))
        np.testing.assert_allclose(g, [[4.0]])

    def test_finite_differences(self):
        rng = np.random.default_rng(3)
        X, W, labels, mu = _random_instance(rng, m=6, d=4, dbar=3, k=2)
        X, W, mu = X / 2, W / 2, mu / 2  # entries in [-1, 1]-ish
        g = gradient(X, W, labels, mu)
        h = 1e-6
        fd = np.zeros_like(g)
        for i in range(W.shape[0]):
            for j in range(W.shape[1]):
                Wp, Wm = W.copy(), W.copy()
                Wp[i, j] += h
                Wm[i, j] -= h
                fd[i, j] = (objective(X, Wp, labels, mu) - objective(X, Wm, labels, mu)) / (2 * h)
        assert np.linalg.norm(fd - g) / np.linalg.norm(g) < 1e-6


class TestCentroids:
    def test_single_cluster(self):
        np.testing.assert_allclose(
            centroids(np.zeros(2, int), np.array([[1.0, 2.0], [3.0, 4.0]])), [[2.0, 3.0]]
        )

    def test_two_clusters(self):
        mu = centroids(np.array([0, 0, 1]), np.array([[0.0, 0], [2, 2], [5, 5]]))
        np.testing.assert_allclose(mu, [[1.0, 1.0], [5.0, 5.0]])

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(4)
        Z = rng.standard_normal((20, 4))
        labels = rng.integers(0, 3, 20)
        labels[:3] = [0, 1, 2]
        mu = centroids(labels, Z, 3)
        for j in range(3):
            hand = Z[labels == j].sum(axis=0) / np.sum(labels == j)
            np.testing.assert_allclose(mu[j], hand, rtol=1e-12)

    def test_minimizes_scatter(self):
        rng = np.random.default_rng(5)
        Z = rng.standard_normal((12, 3))
        labels = rng.integers(0, 2, 12)
        labels[:2] = [0, 1]
        mu = centroids(labels, Z, 2)
        base = np.sum((Z - mu[labels]) ** 2)
        for _ in range(20):
            bump = np.zeros_like(mu)
            bump[rng.integers(0, 2)] = rng.standard_normal(3) * 0.1
            assert np.sum((Z - (mu + bump)[labels]) ** 2) > base

    def test_empty_cluster_raises(self):
        with pytest.raises(ValueError, match="empty"):
            centroids(np.array([0, 0, 2]), np.zeros((3, 2)), 3)
        with pytest.raises(ValueError, match="empty"):
            centroids(np.array([0, 0]), np.zeros((2, 2)), k=2)


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, rel=1e-10)

    def test_against_svd(self):
        rng = np.random.default_rng(6)
        # the synthetic matrix without planted structure has a small gap
        # between its two largest singular values
        low_gap = generate_synthetic(SyntheticSpec(n_informative=0)).matrix
        for X in (rng.standard_normal((8, 5)), low_gap):
            sigma = spectral_norm(X)
            assert sigma == pytest.approx(np.linalg.svd(X, compute_uv=False)[0], rel=1e-12)
            # normalizing by it must make the unit step admissible
            assert np.linalg.svd(X / sigma, compute_uv=False)[0] <= 1 + 1e-12

    def test_normalized_matrix_has_unit_norm(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((10, 6))
        Xn = X / spectral_norm(X)
        assert spectral_norm(Xn) == pytest.approx(1.0, rel=1e-6)

    def test_zero_matrix_raises(self):
        with pytest.raises(ValueError):
            spectral_norm(np.zeros((3, 3)))

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((9, 4))
        assert spectral_norm(X) == spectral_norm(X)


class TestValidators:
    def test_data_matrix_rules(self):
        with pytest.raises(ValueError):
            check_data_matrix(np.ones((1, 3)))
        with pytest.raises(ValueError):
            check_data_matrix(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            check_data_matrix(np.array([[1.0, np.inf], [0, 0]]))

    def test_labels_rules(self):
        check_labels(np.array([0, 1, 0]), m=3, k=2)
        with pytest.raises(ValueError):
            check_labels(np.array([0, 2]), k=2)
        with pytest.raises(ValueError):
            check_labels(np.array([0, 0]), k=2)  # cluster 1 empty
        with pytest.raises(ValueError):
            check_labels(np.array([0, -1]))
        with pytest.raises(ValueError):
            check_labels(np.array([0.5, 1.0]))


@contextlib.contextmanager
def _deadline(seconds):
    """Fail the ``with`` block, rather than hang, if it runs past ``seconds``."""
    def hung(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def forks(monkeypatch):
    """The ids of the children that ``os.fork`` starts in this process."""
    pids, real = [], os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def _in_child(parent, work):
    """``work`` in a forked child, ``None`` in the process ``parent``."""
    def run(i):
        return None if os.getpid() == parent else work(i)
    return run


class TestForked:
    def test_results_in_block_order(self, forks):
        parent = os.getpid()
        with core._forked(lambda i: (i, os.getpid()), [(0,), (1,), (2,)]) as results:
            out = list(results)
        assert [i for i, _ in out] == [0, 1, 2]
        assert [pid for _, pid in out] == [parent, *forks]
        assert kill_children() == []

    def test_block_0_runs_after_the_children_start(self, forks):
        with core._forked(lambda i: len(forks), [(0,), (1,), (2,)]) as results:
            assert next(results) == 2

    def test_one_block_forks_nothing(self, forks):
        with core._forked(lambda i: i + 1, [(4,)]) as results:
            assert list(results) == [5]
        assert forks == []

    @pytest.mark.parametrize("n_jobs, limit, n", [
        (1, 5, 1), (2, 0, 1), (2, 1, 1), (2, 5, 2), (4, 3, 3),
    ])
    def test_split_count(self, n_jobs, limit, n):
        assert core._split(n_jobs, limit) == n

    def test_no_fork_no_split(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert core._split(4, 4) == 1

    def test_error_in_a_child_reaches_the_caller(self):
        def work(i):
            if i:
                raise KeyError(f"block {i}")
            return i

        with pytest.raises(KeyError) as info:
            with core._forked(work, [(0,), (1,)]) as results:
                list(results)
        assert info.value.args == ("block 1",)

    def test_killed_child_names_its_signal(self):
        work = _in_child(os.getpid(), lambda i: os.kill(os.getpid(), signal.SIGKILL))
        with _deadline(30), pytest.raises(ChildProcessError,
                                          match=r"exited with code -9$"):
            with core._forked(work, [(0,), (1,)]) as results:
                list(results)
        assert kill_children() == []

    def test_unpicklable_result_is_an_error(self):
        work = _in_child(os.getpid(), lambda i: lambda: i)  # a local function
        with _deadline(30), pytest.raises(ChildProcessError,
                                          match=r"exited with code 1$"):
            with core._forked(work, [(0,), (1,)]) as results:
                list(results)
        assert kill_children() == []

    def test_error_in_block_0_kills_the_children(self, forks):
        parent = os.getpid()

        def work(i):
            if os.getpid() != parent:
                time.sleep(60)
            raise ValueError("block 0 failed")

        start = time.monotonic()
        with _deadline(30), pytest.raises(ValueError, match="^block 0 failed$"):
            with core._forked(work, [(0,), (1,), (2,)]) as results:
                list(results)
        assert time.monotonic() - start < 10
        assert len(forks) == 2
        assert kill_children() == []

    def test_result_larger_than_a_pipe_buffer_arrives_whole(self):
        rng = np.random.default_rng(3)
        big = [None, rng.standard_normal(1 << 17), rng.bytes(1 << 20)]  # 1 MiB each
        with core._forked(lambda i: big[i], [(0,), (1,), (2,)]) as results:
            out = list(results)
        assert out[1].tobytes() == big[1].tobytes()
        assert out[2] == big[2]

    def test_a_child_never_returns_into_its_caller(self, forks, tmp_path):
        # a child that unwound into this frame would leave a mark and stop here
        if not hasattr(os, "waitid"):
            pytest.skip("no os.waitid to wait for a child without reaping it")
        test, mark = os.getpid(), tmp_path / "unwound"
        try:
            with _deadline(30), core._forked(lambda i: i, [(0,), (1,)]) as results:
                assert list(results) == [0, 1]
                # let the child end on its own before the with block kills it
                os.waitid(os.P_PID, forks[0], os.WEXITED | os.WNOWAIT)
        finally:
            if os.getpid() != test:
                mark.touch()
                os._exit(0)
        assert not mark.exists()
