import numpy as np
import pytest

from ksparse.kmeans import (
    best_of_replicates,
    kmeanspp_seed,
    lloyd,
    repair_empty_clusters,
)
from ksparse.metrics import ari

from oracles import best_two_cluster_wcss

FOUR_POINTS = np.array([[0.0], [0.1], [10.0], [10.1]])


class TestSeeding:
    def test_exhaustion_when_k_equals_m(self):
        Z = np.array([[0.0], [1.0], [2.0], [3.0]])
        centers = kmeanspp_seed(Z, 4, rng_seed=0)
        np.testing.assert_array_equal(np.sort(centers, axis=0), Z)

    def test_single_seed_is_a_row(self):
        Z = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        c = kmeanspp_seed(Z, 1, rng_seed=7)
        assert any(np.array_equal(c[0], row) for row in Z)

    def test_spread_mass_separates_groups(self):
        hits = 0
        for seed in range(1000):
            centers = kmeanspp_seed(FOUR_POINTS, 2, rng_seed=seed)
            sides = centers[:, 0] > 5.0
            hits += sides[0] != sides[1]
        assert hits >= 990

    def test_needs_distinct_rows(self):
        Z = np.array([[1.0], [1.0], [2.0]])
        with pytest.raises(ValueError, match="distinct"):
            kmeanspp_seed(Z, 3, rng_seed=0)
        Z = np.array([[0.0], [0.0], [1.0], [1.0], [2.0], [2.0]])
        with pytest.raises(ValueError, match="found 3"):
            kmeanspp_seed(Z, 4, rng_seed=0)

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        Z = rng.standard_normal((30, 3))
        np.testing.assert_array_equal(
            kmeanspp_seed(Z, 4, rng_seed=42), kmeanspp_seed(Z, 4, rng_seed=42)
        )


class TestRepair:
    def test_noop_when_full(self):
        labels = np.array([0, 1, 0])
        Z = np.array([[0.0], [5.0], [1.0]])
        centers = np.array([[0.5], [5.0]])
        np.testing.assert_array_equal(repair_empty_clusters(labels, Z, centers), labels)

    def test_forced_move(self):
        labels = np.zeros(4, dtype=int)
        Z = FOUR_POINTS
        centers = np.array([[0.0], [99.0]])
        fixed = repair_empty_clusters(labels, Z, centers)
        assert np.bincount(fixed, minlength=2).min() >= 1
        assert fixed[3] == 1  # farthest from center 0 moves

    def test_two_empties_yield_bijection(self):
        labels = np.zeros(3, dtype=int)
        Z = np.array([[0.0], [1.0], [4.0]])
        centers = np.array([[0.0], [10.0], [20.0]])
        fixed = repair_empty_clusters(labels, Z, centers)
        # hand trace: farthest (z=4) fills cluster 1, then z=1 fills cluster 2
        np.testing.assert_array_equal(fixed, [0, 2, 1])

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            repair_empty_clusters(np.array([0]), np.array([[1.0]]), np.zeros((2, 1)))


class TestLloyd:
    def test_separated_groups(self):
        out = lloyd(FOUR_POINTS, np.array([[1.0], [9.0]]))
        np.testing.assert_array_equal(out.labels, [0, 0, 1, 1])
        np.testing.assert_allclose(np.sort(out.centers[:, 0]), [0.05, 10.05])

    def test_single_cluster_is_column_means(self):
        rng = np.random.default_rng(1)
        Z = rng.standard_normal((10, 3))
        out = lloyd(Z, Z[:1].copy())
        np.testing.assert_array_equal(out.labels, np.zeros(10, dtype=int))
        np.testing.assert_allclose(out.centers[0], Z.mean(axis=0), rtol=1e-12)

    def test_wcss_consistent_with_state(self):
        rng = np.random.default_rng(2)
        Z = rng.standard_normal((25, 2))
        out = lloyd(Z, kmeanspp_seed(Z, 3, 0))
        recomputed = 0.5 * np.sum((Z - out.centers[out.labels]) ** 2)
        assert out.wcss == pytest.approx(recomputed, rel=1e-9)
        assert np.bincount(out.labels, minlength=3).min() >= 1

    def test_wcss_non_increasing_per_iteration(self):
        rng = np.random.default_rng(3)
        Z = rng.standard_normal((40, 2))
        init = kmeanspp_seed(Z, 4, 1)
        values = [lloyd(Z, init, max_iter=t).wcss for t in range(1, 12)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_assignment_tie_breaks_low(self):
        Z = np.array([[-1.0], [1.0], [0.0]])
        out = lloyd(Z, np.array([[-1.0], [1.0]]), max_iter=1)
        assert out.labels[2] == 0  # 0 is equidistant, goes to the lower index

    def test_init_relabeling_permutes_partition(self):
        rng = np.random.default_rng(4)
        Z = rng.standard_normal((30, 2))
        init = kmeanspp_seed(Z, 3, 2)
        a = lloyd(Z, init)
        b = lloyd(Z, init[[2, 0, 1]])
        assert ari(a.labels, b.labels) == pytest.approx(1.0)


class TestReplicates:
    def test_single_replicate_identity(self):
        rng = np.random.default_rng(5)
        Z = rng.standard_normal((20, 2))
        one = best_of_replicates(Z, 3, 1, seed=9)
        direct = lloyd(Z, kmeanspp_seed(Z, 3, 9))
        np.testing.assert_array_equal(one.labels, direct.labels)
        assert one.wcss == direct.wcss

    def test_best_is_minimum(self):
        rng = np.random.default_rng(6)
        Z = rng.standard_normal((30, 2))
        best = best_of_replicates(Z, 3, 15, seed=0)
        for r in range(15):
            assert best.wcss <= lloyd(Z, kmeanspp_seed(Z, 3, r)).wcss

    def test_matches_exhaustive_two_cluster_optimum(self):
        rng = np.random.default_rng(7)
        Z = rng.standard_normal((6, 2))
        best = best_of_replicates(Z, 2, 40, seed=0)
        assert best.wcss == pytest.approx(best_two_cluster_wcss(Z), rel=1e-9)

    def test_replicates_validation(self):
        with pytest.raises(ValueError):
            best_of_replicates(np.zeros((4, 1)), 2, 0, seed=0)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        Z = rng.standard_normal((25, 3))
        a = best_of_replicates(Z, 4, 10, seed=3)
        b = best_of_replicates(Z, 4, 10, seed=3)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.wcss == b.wcss


def _layouts(Z):
    """C-ordered, Fortran-ordered and strided copies of Z."""
    strided = np.zeros((2 * Z.shape[0], 3 * Z.shape[1]))[::2, ::3]
    strided[...] = Z
    return [np.ascontiguousarray(Z), np.asfortranarray(Z), strided]


class TestLayout:
    """Outcomes do not depend on the memory layout of Z."""

    @pytest.mark.parametrize("seed", range(8))
    def test_bitwise_equal_across_layouts(self, seed):
        rng = np.random.default_rng(seed)
        k = 4
        Z = rng.standard_normal((200, 6)) + 3.0 * rng.integers(0, k, 200)[:, None]
        Z[:10] = Z[10:20]  # duplicate rows give exact distance ties
        layouts = _layouts(Z)
        assert not layouts[2].flags.c_contiguous and not layouts[2].flags.f_contiguous
        seeds = [kmeanspp_seed(Zl, k, seed) for Zl in layouts]
        runs = [lloyd(Zl, seeds[0]) for Zl in layouts]
        bests = [best_of_replicates(Zl, k, 5, seed) for Zl in layouts]
        for s, run, best in zip(seeds[1:], runs[1:], bests[1:]):
            np.testing.assert_array_equal(s, seeds[0])
            for a, b in ((run, runs[0]), (best, bests[0])):
                np.testing.assert_array_equal(a.labels, b.labels)
                np.testing.assert_array_equal(a.centers, b.centers)
                assert a.wcss == b.wcss
                assert a.iterations == b.iterations
