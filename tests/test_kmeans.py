import dataclasses

import numpy as np
import pytest

from ksparse import kmeans
from ksparse.kmeans import (
    _assign,
    _exact_distances,
    _samples,
    _squared_distances,
    _tolerance,
    best_of_replicates,
    kmeanspp_seed,
    lloyd,
    repair_empty_clusters,
)
from ksparse.metrics import ari

from oracles import (
    best_of_replicates_reference,
    best_two_cluster_wcss,
    lloyd_reference,
)

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

    def test_centers_computed_once_per_iteration(self, monkeypatch):
        rng = np.random.default_rng(5)
        Z = rng.standard_normal((60, 2))
        init = kmeanspp_seed(Z, 4, 3)
        real = kmeans.centroids
        calls = []

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(kmeans, "centroids", spy)
        converged = lloyd(Z, init)
        assert 2 <= converged.iterations < 100
        assert len(calls) == converged.iterations

        # one iteration short of convergence: the last labels moved, so the
        # centers are recomputed once more, and still match the labels
        calls.clear()
        stopped = lloyd(Z, init, max_iter=converged.iterations - 1)
        assert stopped.iterations == converged.iterations - 1
        assert len(calls) == stopped.iterations + 1
        np.testing.assert_array_equal(stopped.centers, real(stopped.labels, Z, 4))


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


class TestSharedReplicates:
    """Replicates shared out over processes give the one-process outcome and errors."""

    @pytest.mark.parametrize("replicates", [1, 2, 5])
    def test_same_outcome_for_any_process_count(self, replicates):
        Z = np.random.default_rng(11).standard_normal((60, 3))
        serial = best_of_replicates(Z, 4, replicates, seed=2)
        for n_jobs in (2, 3):
            shared = best_of_replicates(Z, 4, replicates, 2, n_jobs)
            _assert_same_outcome(shared, dataclasses.astuple(serial))

    def test_tie_across_shares_keeps_the_lowest_replicate(self):
        # replicates 1 and 2 reach the lowest wcss in 1 and 2 Lloyd iterations;
        # over two processes, 2 is this process's best and 1 the child's
        Z = np.random.default_rng(1).standard_normal((12, 2))
        runs = [lloyd(Z, kmeanspp_seed(Z, 3, 17 + r)) for r in range(3)]
        assert runs[0].wcss > runs[1].wcss == runs[2].wcss
        assert (runs[1].iterations, runs[2].iterations) == (1, 2)
        for n_jobs in (1, 2, 3):
            shared = best_of_replicates(Z, 3, 3, 17, n_jobs)
            _assert_same_outcome(shared, dataclasses.astuple(runs[1]))

    def test_too_few_distinct_rows_same_error(self):
        Z = np.repeat(np.eye(2), 5, axis=0)
        messages = []
        for n_jobs in (1, 2):
            with pytest.raises(ValueError) as info:
                best_of_replicates(Z, 3, 4, 0, n_jobs)
            messages.append(str(info.value))
        assert messages == ["need at least 3 distinct rows to seed, found 2"] * 2

    def test_first_failing_replicate_sets_the_error(self, monkeypatch):
        # replicates 1 and 2 fail, 1 in the child and 2 in this process; the
        # one-process loop stops at 1
        real = kmeans.kmeanspp_seed

        def seed_fails_from(Z, k, rng_seed):
            if rng_seed >= 1:
                raise ValueError(f"no seed {rng_seed}")
            return real(Z, k, rng_seed)

        monkeypatch.setattr(kmeans, "kmeanspp_seed", seed_fails_from)
        Z = np.random.default_rng(3).standard_normal((20, 2))
        for n_jobs in (1, 2, 3):
            with pytest.raises(ValueError, match="^no seed 1$"):
                best_of_replicates(Z, 2, 4, 0, n_jobs)


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

    @pytest.mark.parametrize("seed", range(4))
    def test_wcss_bitwise_equal_to_plain_expression(self, seed):
        # magnitudes over 16 decades, so another summation order changes the bits
        rng = np.random.default_rng(seed)
        k, dbar = 5, 7
        for m in (1, 2, 300):
            Z = rng.standard_normal((m, dbar)) * 10.0 ** rng.uniform(-8, 8, (m, dbar))
            labels = rng.integers(0, k, m)
            centers = rng.standard_normal((k, dbar))
            for Zl in _layouts(Z):
                R = Zl - centers[labels]
                want = 0.5 * float(np.vdot(R, R))
                S = _samples(Zl)
                assert kmeans._wcss(S, labels, centers) == want
                assert kmeans._wcss(S, labels, centers) == want  # and again, unchanged


_MAKEUPS = ["gaussian", "far", "ties", "underflow", "dbar1"]


def _argmin_assignment(Z, C):
    return np.argmin(_squared_distances(np.asfortranarray(Z), C), axis=1)


def _assignment_case(rng, kind):
    """A random Z and k centers of one make-up; see TestCertifiedAssignment."""
    m = int(rng.integers(2, 300))
    dbar = 1 if kind == "dbar1" else int(rng.integers(1, 16))
    k = int(rng.integers(2, 9))
    if kind == "far":
        Z = rng.standard_normal((m, dbar))
        C = Z[rng.integers(0, m, k)] + 0.5 * rng.standard_normal((k, dbar))
        return Z + 1e8, C + 1e8
    Z = rng.standard_normal((m, dbar)) + 3.0 * rng.integers(0, k, m)[:, None]
    C = Z[rng.integers(0, m, k)] + 0.5 * rng.standard_normal((k, dbar))
    if kind == "ties":
        # an integer grid: rows midway between centers, and a duplicated center
        Z, C = np.round(Z), np.round(C)
        C[-1] = C[0]
    elif kind == "underflow":
        # 1e-150 keeps squared distances normal, 1e-160 makes them subnormal
        scale = 1e-150 if rng.integers(2) else 1e-160
        Z, C = Z * scale, C * scale
    return Z, C


def _spy_exact_rows(monkeypatch):
    """Record the rows of every exact-path call."""
    seen = []
    original = kmeans._exact_distances

    def spy(Z, centers, rows):
        seen.append(rows.copy())
        return original(Z, centers, rows)

    monkeypatch.setattr(kmeans, "_exact_distances", spy)
    return seen


def _assert_same_outcome(outcome, reference):
    labels, centers, wcss, iterations = reference
    np.testing.assert_array_equal(outcome.labels, labels)
    np.testing.assert_array_equal(outcome.centers, centers)
    assert outcome.wcss == wcss
    assert outcome.iterations == iterations


def _layout_makeup(seed, k=4):
    # TestLayout's make-up: separated groups with duplicated rows
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((200, 6)) + 3.0 * rng.integers(0, k, 200)[:, None]
    Z[:10] = Z[10:20]
    return Z


class TestCertifiedAssignment:
    """The GEMM assignment gives the broadcast argmin's labels exactly."""

    @pytest.mark.parametrize("kind", _MAKEUPS)
    def test_equals_broadcast_argmin(self, kind, monkeypatch):
        seen = _spy_exact_rows(monkeypatch)
        rng = np.random.default_rng(_MAKEUPS.index(kind))
        for _ in range(60):
            Z, C = _assignment_case(rng, kind)
            seen.clear()
            labels = _assign(_samples(Z), C)
            np.testing.assert_array_equal(labels, _argmin_assignment(Z, C))
            if kind == "far":
                # rounding of the product form swamps every distance gap here
                assert [rows.size for rows in seen] == [Z.shape[0]]
            if kind == "ties":
                # rows nearest the duplicated center can never be certified
                assert seen

    def test_exact_path_matches_full_array_bitwise(self):
        rng = np.random.default_rng(11)
        for m, dbar, k in [(1, 5, 3), (2, 7, 4), (50, 1, 3), (120, 9, 6), (300, 16, 2)]:
            Zf = np.asfortranarray(rng.standard_normal((m, dbar)) * 10.0 ** rng.integers(-3, 4))
            C = rng.standard_normal((k, dbar))
            full = _squared_distances(Zf, C)
            subsets = [np.arange(m), np.array([m - 1]), np.array([0, m - 1])]
            subsets += [np.sort(rng.choice(m, int(rng.integers(1, m + 1)), replace=False))
                        for _ in range(20)]
            for rows in subsets:
                rows = np.unique(rows)
                np.testing.assert_array_equal(_exact_distances(Zf, C, rows), full[rows])

    def test_margin_is_twice_the_tolerance(self, monkeypatch):
        # one coordinate, centers 0 and 2 + delta: row z has the distance gap
        # g_1 - g_0 = (2 + delta) (2 + delta - 2 z) in the product form
        tol = float(_tolerance(np.array([1.0]), np.array([0.0, 4.0]), 1)[0])
        delta = 0.75 * tol
        C = np.array([[0.0], [2.0 + delta]])
        z_near = 1.0  # gap about 2 delta = 1.5 tol: inside the 2 tol margin
        z_clear = 1.0 - 0.375 * tol  # gap about 3 tol: certified
        Z = np.array([[z_near], [z_clear], [-5.0]])
        seen = _spy_exact_rows(monkeypatch)
        labels = _assign(_samples(Z), C)
        np.testing.assert_array_equal(labels, [0, 0, 0])
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], [0])

    @pytest.mark.parametrize("seed", range(8))
    def test_lloyd_and_replicates_match_frozen_reference(self, seed):
        Z = _layout_makeup(seed)
        init = kmeanspp_seed(Z, 4, seed)
        _assert_same_outcome(lloyd(Z, init), lloyd_reference(Z, init))
        _assert_same_outcome(
            best_of_replicates(Z, 4, 5, seed), best_of_replicates_reference(Z, 4, 5, seed)
        )

    @pytest.mark.parametrize("kind", ["ties", "far", "underflow"])
    def test_hard_makeups_match_frozen_reference(self, kind):
        rng = np.random.default_rng(21)
        for _ in range(4):
            Z, C = _assignment_case(rng, kind)
            _assert_same_outcome(lloyd(Z, C), lloyd_reference(Z, C))

    def test_nothing_certified_still_matches(self, monkeypatch):
        monkeypatch.setattr(
            kmeans, "_tolerance", lambda norms, centers_sq, dbar: np.full(norms.shape, np.inf)
        )
        seen = _spy_exact_rows(monkeypatch)
        for seed in range(3):
            Z = _layout_makeup(seed)
            _assert_same_outcome(
                best_of_replicates(Z, 4, 3, seed), best_of_replicates_reference(Z, 4, 3, seed)
            )
        assert seen and all(rows.size == 200 for rows in seen)


def _has_uncertified_row(Z, C):
    """Whether some row of ``Z`` has a second center within twice its
    tolerance of its nearest one (the module docstring's certificate)."""
    S = _samples(Z)
    centers_sq = np.einsum("ij,ij->i", C, C)
    g = np.hstack([-2.0 * C, centers_sq[:, None]]) @ S.ZT1
    near = g <= g.min(axis=0) + 2.0 * _tolerance(S.norms, centers_sq, C.shape[1])
    return bool((near.sum(axis=0) != 1).any())


class TestFallbackCalls:
    """The broadcast distances are formed once for an assignment with an
    uncertified row, and never for one without."""

    def test_separated_groups_never_fall_back(self, monkeypatch):
        seen = _spy_exact_rows(monkeypatch)
        rng = np.random.default_rng(3)
        k, dbar = 4, 6
        means = 50.0 * rng.standard_normal((k, dbar))
        truth = rng.integers(0, k, 400)
        Z = means[truth] + rng.standard_normal((400, dbar))
        labels = _assign(_samples(Z), means)
        np.testing.assert_array_equal(labels, truth)
        assert not _has_uncertified_row(Z, means)
        best = best_of_replicates(Z, k, 5, 0)
        assert ari(truth, best.labels) == 1.0
        assert seen == []

    def test_ties_fall_back_once_per_uncertified_assignment(self, monkeypatch):
        seen = _spy_exact_rows(monkeypatch)
        rng = np.random.default_rng(_MAKEUPS.index("ties"))
        uncertified = 0
        for _ in range(60):
            Z, C = _assignment_case(rng, "ties")
            seen.clear()
            _assign(_samples(Z), C)
            expected = int(_has_uncertified_row(Z, C))
            assert len(seen) == expected
            uncertified += expected
        assert uncertified > 0


class TestNonFinite:
    """The certificate's rounding bound needs finite inputs."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_lloyd(self, bad):
        Z = _layout_makeup(0)
        init = kmeanspp_seed(Z, 4, 0)
        Z_bad = Z.copy()
        Z_bad[7, 2] = bad
        with pytest.raises(ValueError, match="^Z contains"):
            lloyd(Z_bad, init)
        init[1, 0] = bad
        with pytest.raises(ValueError, match="^init_centers contains"):
            lloyd(Z, init)

    def test_kmeanspp_seed(self):
        Z = _layout_makeup(1)
        Z[3, 0] = np.nan
        with pytest.raises(ValueError, match="^Z contains"):
            kmeanspp_seed(Z, 4, 0)

    def test_best_of_replicates(self):
        Z = _layout_makeup(2)
        Z[-1, -1] = np.inf
        with pytest.raises(ValueError, match="^Z contains"):
            best_of_replicates(Z, 4, 3, 0)
