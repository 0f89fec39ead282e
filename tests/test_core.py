import numpy as np
import pytest

from ksparse.core import (
    centroids,
    check_data_matrix,
    check_labels,
    gradient,
    objective,
    spectral_norm,
)
from ksparse.dataio import SyntheticSpec, generate_synthetic


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
