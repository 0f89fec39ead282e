import dataclasses
import multiprocessing
import os
import signal
import tracemalloc

import numpy as np
import pytest

from ksparse.dataio import SyntheticSpec, generate_synthetic
import ksparse.solver
from ksparse import driver, kmeans
from ksparse.core import spectral_norm
from ksparse.driver import SolverConfig, k_sparse, selected_features, sweep_eta
from ksparse.metrics import ari
from ksparse.projection import project_l1_ball
from ksparse.solver import default_weight_init, solve_weights_fista, solve_weights_ista

from conftest import kill_children
from oracles import k_sparse_reference

FAST = SolverConfig(replicates=8, inner_iters=120, outer_loops=5)


@pytest.fixture(scope="module")
def two_cluster_ds():
    # two well-separated Gaussian clusters carried by 2 of 50 features
    return generate_synthetic(
        SyntheticSpec(m=80, d=50, k=2, n_informative=2, shift=6.0, noise_sd=1.0, seed=3)
    )


class TestSelectedFeatures:
    def test_zero_matrix(self):
        assert selected_features(np.zeros((5, 2)), 0.0).size == 0

    def test_direct_rows(self):
        W = np.zeros((4, 2))
        W[1, 0] = 0.5
        W[3, 1] = -0.2
        np.testing.assert_array_equal(selected_features(W, 1e-12), [1, 3])

    def test_recount_after_projection(self):
        rng = np.random.default_rng(0)
        W = project_l1_ball(rng.standard_normal((30, 3)), 0.8)
        got = selected_features(W, 0.0)
        want = [j for j in range(30) if np.sqrt(np.sum(W[j] ** 2)) > 0.0]
        np.testing.assert_array_equal(got, want)

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            selected_features(np.zeros((2, 2)), -1.0)


class TestColumnVariances:
    """The start's column variances, formed over column blocks."""

    def test_bitwise_equal_to_numpy_var(self):
        X = generate_synthetic(SyntheticSpec(seed=1)).matrix
        assert X.shape == (600, 5000)
        for M in (X, X / spectral_norm(X)):
            np.testing.assert_array_equal(driver._column_variances(M), M.var(axis=0))

    def test_constant_columns(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((50, 600))
        X[:, [0, 255, 256, 599]] = [0.0, 3.7, -1e-300, 0.1]
        np.testing.assert_array_equal(driver._column_variances(X), X.var(axis=0))

    def test_no_matrix_sized_temporary(self):
        X = generate_synthetic(SyntheticSpec(seed=1)).matrix
        tracemalloc.start()
        try:
            driver._column_variances(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < X.nbytes / 8


class TestKSparse:
    def test_separated_clusters_recovered(self, two_cluster_ds):
        ds = two_cluster_ds
        res = k_sparse(ds.matrix, 2, 0.1, FAST, labels_true=ds.labels_true)
        assert res.metrics["accuracy"] == 1.0
        assert set(ds.informative_features.tolist()) <= set(res.selected_features.tolist())

    def test_trace_monotone_and_feasible(self, two_cluster_ds):
        ds = two_cluster_ds
        res = k_sparse(ds.matrix, 2, 0.5, FAST)
        assert np.all(np.diff(res.objective_trace) <= 1e-9)
        assert np.abs(res.weights).sum() <= 0.5 * (1 + 1e-12)
        assert res.objective_trace.shape == (FAST.outer_loops + 1,)

    def test_zero_loops_returns_initialization(self, two_cluster_ds):
        ds = two_cluster_ds
        cfg = SolverConfig(replicates=8, inner_iters=120, outer_loops=0)
        res = k_sparse(ds.matrix, 2, 0.5, cfg)
        np.testing.assert_array_equal(
            res.weights, default_weight_init(50, 6, 0.5)  # dbar defaults to k+4
        )
        assert res.objective_trace.shape == (1,)
        assert np.bincount(res.labels, minlength=2).min() >= 1

    def test_reproducible(self, two_cluster_ds):
        ds = two_cluster_ds
        a = k_sparse(ds.matrix, 2, 0.3, FAST)
        b = k_sparse(ds.matrix, 2, 0.3, FAST)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.objective_trace, b.objective_trace)

    def test_row_permutation_same_partition(self, two_cluster_ds):
        # index-based seeding cannot commute with the permutation exactly,
        # but on separated data the recovered partition is the same
        ds = two_cluster_ds
        rng = np.random.default_rng(1)
        perm = rng.permutation(ds.matrix.shape[0])
        base = k_sparse(ds.matrix, 2, 0.1, FAST)
        permuted = k_sparse(ds.matrix[perm], 2, 0.1, FAST)
        assert ari(base.labels[perm], permuted.labels) == pytest.approx(1.0)

    def test_metrics_require_truth(self, two_cluster_ds):
        res = k_sparse(two_cluster_ds.matrix, 2, 0.3, FAST)
        assert res.metrics is None

    def test_validation_before_compute(self, two_cluster_ds):
        X = two_cluster_ds.matrix
        with pytest.raises(ValueError, match="k must be >= 2"):
            k_sparse(X, 1, 1.0, FAST)
        with pytest.raises(ValueError, match="eta"):
            k_sparse(X, 2, 0.0, FAST)
        with pytest.raises(ValueError, match="replicates"):
            k_sparse(X, 2, 1.0, SolverConfig(replicates=0))
        with pytest.raises(ValueError, match="nonnegative"):
            k_sparse(X, 2, 1.0, SolverConfig(outer_loops=-1))
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError, match="eta must be positive and finite"):
                k_sparse(X, 2, value, FAST)

    def test_dbar_wider_than_d(self):
        ds = generate_synthetic(
            SyntheticSpec(m=40, d=4, k=2, n_informative=2, shift=5.0, noise_sd=1.0, seed=9)
        )
        cfg = SolverConfig(replicates=5, inner_iters=60, outer_loops=3)  # dbar = 6 > d = 4
        res = k_sparse(ds.matrix, 2, 0.5, cfg, labels_true=ds.labels_true)
        assert res.weights.shape == (4, 6)
        assert res.metrics["accuracy"] == 1.0

    @pytest.mark.parametrize("loops", [0, 1, 5])
    def test_one_replicate_set_per_run(self, two_cluster_ds, monkeypatch, loops):
        real = driver.best_of_replicates
        seeds = []

        def spy(Z, k, replicates, seed, n_jobs):
            seeds.append(seed)
            return real(Z, k, replicates, seed, n_jobs)

        monkeypatch.setattr(driver, "best_of_replicates", spy)
        cfg = dataclasses.replace(FAST, outer_loops=loops, seed=7)
        res = k_sparse(two_cluster_ds.matrix, 2, 0.3, cfg)
        assert res.objective_trace.shape == (loops + 1,)
        # the start's replicate set; every loop re-clusters from its labels
        assert seeds == [7]

    def test_loop_won_by_previous_labels(self, two_cluster_ds, monkeypatch):
        cfg = SolverConfig(replicates=4, inner_iters=60, outer_loops=6)
        real_lloyd = driver.lloyd
        warm_runs = []

        def lloyd(S, init):
            # the warm start, once per loop; it loses loop 3
            out = real_lloyd(S, init)
            warm_runs.append(out)
            return dataclasses.replace(out, wcss=np.inf) if len(warm_runs) == 4 else out

        solves = []
        real_solve = driver._solve_to_gap

        def solve(X, labels, *args, **kwargs):
            solves.append(np.array(labels))
            return real_solve(X, labels, *args, **kwargs)

        monkeypatch.setattr(driver, "lloyd", lloyd)
        monkeypatch.setattr(driver, "_solve_to_gap", solve)
        res = k_sparse(two_cluster_ds.matrix, 2, 0.3, cfg)
        assert len(warm_runs) == len(solves) == cfg.outer_loops
        np.testing.assert_array_equal(solves[4], solves[3])  # loop 3 kept its labels
        assert np.all(np.diff(res.objective_trace) <= 0)


class TestReferenceRun:
    """A whole run agrees with the plain alternating run of ``oracles``.

    Labels and selection are equal.  On these 24 runs the traces agreed to
    8.9e-13 relative and ``W`` to 4.0e-11 of its largest entry; the bounds
    leave at least 25 times that.
    """

    @pytest.mark.parametrize("normalize", [True, False], ids=["normalized", "raw"])
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize(
        "m, d", [(60, 400), (300, 40), (30, 900), (80, 200)],
        ids=["60x400", "300x40_tall", "30x900_sets_above_2m", "80x200"],
    )
    def test_matches_reference(self, m, d, seed, normalize):
        k = 3 + seed % 2
        ds = generate_synthetic(SyntheticSpec(m=m, d=d, k=k, n_informative=10, seed=seed))
        cfg = SolverConfig(inner_iters=150, outer_loops=5, replicates=4, normalize=normalize)
        res = k_sparse(ds.matrix, k, 2.0, cfg)
        labels, W, selected, trace = k_sparse_reference(
            ds.matrix, k, 2.0, cfg.inner_iters, cfg.outer_loops, cfg.replicates,
            normalize=normalize,
        )
        np.testing.assert_array_equal(res.labels, labels)
        np.testing.assert_array_equal(res.selected_features, selected)
        np.testing.assert_allclose(res.objective_trace, trace, rtol=1e-9, atol=0)
        np.testing.assert_allclose(res.weights, W, rtol=0, atol=1e-9 * np.abs(W).max())


class TestMetamorphic:
    """Whole runs on data changed in ways the problem does not see.

    Scaling ``X`` by a power of two is exact in floating point, and the run
    works on ``X / sigma_max``, so every result keeps its bits.  An all-zero
    column has a zero gradient row, so it never enters the weights.
    """

    CFG = SolverConfig(inner_iters=150, outer_loops=5, replicates=8)

    @pytest.fixture(scope="class", params=[1, 2, 3], ids=lambda seed: f"seed{seed}")
    def plain(self, request):
        X = generate_synthetic(SyntheticSpec(m=120, d=900, n_informative=30,
                                             seed=request.param)).matrix
        return X, k_sparse(X, 4, 2.0, self.CFG)

    @pytest.mark.parametrize("scale", [2.0**10, 2.0**-7], ids=["2^10", "2^-7"])
    def test_power_of_two_scale(self, plain, scale):
        X, base = plain
        res = k_sparse(X * scale, 4, 2.0, self.CFG)
        np.testing.assert_array_equal(res.labels, base.labels)
        np.testing.assert_array_equal(res.weights, base.weights)
        np.testing.assert_array_equal(res.objective_trace, base.objective_trace)

    def test_zero_columns(self, plain):
        X, base = plain
        res = k_sparse(np.hstack([X, np.zeros((len(X), 50))]), 4, 2.0, self.CFG)
        np.testing.assert_array_equal(res.labels, base.labels)
        np.testing.assert_array_equal(res.selected_features, base.selected_features)
        np.testing.assert_array_equal(res.weights[:X.shape[1]], base.weights)
        assert not res.weights[X.shape[1]:].any()
        np.testing.assert_allclose(res.objective_trace, base.objective_trace,
                                   rtol=1e-12, atol=0)


class TestStep:
    """k_sparse passes the gap-stopped solve sigma_max of the data it solves on."""

    @staticmethod
    def _spy(monkeypatch):
        """Record each solve's ``(X, eta, sigma_max)``."""
        real = driver._solve_to_gap
        calls = []

        def spy(X, labels, mu, W0, n_iters, eta, *, sigma_max=None):
            calls.append((X.X, eta, sigma_max))
            return real(X, labels, mu, W0, n_iters, eta, sigma_max=sigma_max)

        monkeypatch.setattr(driver, "_solve_to_gap", spy)
        return calls

    def test_unit_step_after_normalization(self, two_cluster_ds, monkeypatch):
        # the run on X / sigma solves on X itself, with eta / sigma and X's own sigma
        X = two_cluster_ds.matrix
        sigma = spectral_norm(X)
        calls = self._spy(monkeypatch)
        k_sparse(X, 2, 0.3, FAST)
        assert [(e, s) for _, e, s in calls] == [(0.3 / sigma, sigma)] * FAST.outer_loops
        assert all(np.shares_memory(Xs, X) for Xs, _, _ in calls)

    def test_raw_scale_step(self, two_cluster_ds, monkeypatch):
        X = two_cluster_ds.matrix
        sigma = spectral_norm(X)
        assert sigma > 1.5  # the unit step would break the bound on this data
        calls = self._spy(monkeypatch)
        cfg = SolverConfig(replicates=8, inner_iters=120, outer_loops=5, normalize=False)
        res = k_sparse(X, 2, 0.3, cfg, labels_true=two_cluster_ds.labels_true)
        assert [(e, s) for _, e, s in calls] == [(0.3, sigma)] * cfg.outer_loops
        assert np.all(np.diff(res.objective_trace) <= 0)
        assert res.metrics["accuracy"] == 1.0

    def test_step_is_measured_not_set(self, two_cluster_ds):
        with pytest.raises(TypeError):
            SolverConfig(gamma=1.0)
        with pytest.raises(TypeError):
            k_sparse(two_cluster_ds.matrix, 2, 1.0, FAST, sigma_max=1.0)
        X = two_cluster_ds.matrix / spectral_norm(two_cluster_ds.matrix)
        labels = np.arange(X.shape[0]) % 2
        mu = np.zeros((2, 3))
        W0 = default_weight_init(X.shape[1], 3, 1.0)
        for solve in (solve_weights_ista, solve_weights_fista, driver._solve_to_gap):
            with pytest.raises(TypeError):
                solve(X, labels, mu, W0, 5, 1.0, gamma=1.0)
            # the old (..., n_iters, gamma, eta) call must not read gamma as eta
            with pytest.raises(TypeError):
                solve(X, labels, mu, W0, 5, 1.0, 1.0)


class TestOneCopy:
    """With normalize, the run is that on X / sigma_max, and it holds X once."""

    # a wide and a tall make-up
    @pytest.mark.parametrize("m, d", [(60, 300), (400, 20)])
    def test_same_run_as_on_normalized_data(self, m, d):
        ds = generate_synthetic(
            SyntheticSpec(m=m, d=d, k=3, n_informative=6, shift=2.0, noise_sd=1.0, seed=5)
        )
        X = ds.matrix
        here = k_sparse(X, 3, 0.5, FAST)
        there = k_sparse(X / spectral_norm(X), 3, 0.5, dataclasses.replace(FAST, normalize=False))
        np.testing.assert_array_equal(here.labels, there.labels)
        np.testing.assert_array_equal(here.selected_features, there.selected_features)
        assert here.selected_features.size > 0
        W_err = np.abs(here.weights - there.weights).max()
        assert W_err <= 1e-10 * np.abs(there.weights).max()
        np.testing.assert_allclose(here.objective_trace, there.objective_trace, rtol=1e-10)

    def test_no_matrix_sized_temporary(self):
        X = generate_synthetic(
            SyntheticSpec(m=200, d=4000, k=3, n_informative=20, seed=2)
        ).matrix
        tracemalloc.start()
        try:
            k_sparse(X, 3, 1.0, FAST)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < X.nbytes


class TestSharedDesign:
    """k_sparse passes one design to every solve; on tall data it forms X.T @ X once per run."""

    @staticmethod
    def _spy(monkeypatch, fresh):
        """Record each solve's labels and the shape of every matrix whose Gram is formed.

        With ``fresh`` every solve gets the bare matrix, so it prepares a design of its own.
        """
        real = driver._solve_to_gap
        gram = ksparse.core._gram
        seen, grams = [], []

        def solve(X, labels, *args, **kwargs):
            seen.append(np.array(labels))
            return real(X.X if fresh else X, labels, *args, **kwargs)

        def spy_gram(A):
            grams.append(A.shape)
            return gram(A)

        monkeypatch.setattr(driver, "_solve_to_gap", solve)
        monkeypatch.setattr(ksparse.core, "_gram", spy_gram)
        return seen, grams

    def test_tall_forms_one_gram_per_run(self, monkeypatch):
        ds = generate_synthetic(
            SyntheticSpec(m=150, d=20, k=3, n_informative=4, shift=2.5, noise_sd=1.0, seed=0)
        )
        cfg = SolverConfig(replicates=4, inner_iters=60, outer_loops=8)
        seen, grams = self._spy(monkeypatch, fresh=False)
        k_sparse(ds.matrix, 3, 1.0, cfg)
        assert len(seen) == cfg.outer_loops
        changed = sum(not np.array_equal(a, b) for a, b in zip(seen, seen[1:]))
        assert 0 < changed < cfg.outer_loops - 1  # loops of both kinds ran
        # the spectral norm and every solve share one X.T @ X, whatever the labels
        assert grams == [(150, 20)]

    # 400 x 20 is tall, 20 x 60 wide, and 16 x 14 has m > d but d + dbar > m
    @pytest.mark.parametrize("m, d", [(400, 20), (20, 60), (16, 14)])
    def test_spectral_norm_from_the_design(self, monkeypatch, m, d):
        X = np.random.default_rng(3).standard_normal((m, d))
        sigma = spectral_norm(X)
        assert ksparse.solver._Design(X).spectral_norm() == sigma
        # k_sparse passes that very value to every solve, from one Gram
        _, grams = self._spy(monkeypatch, fresh=False)
        sigmas = []
        real = driver._solve_to_gap

        def spy(*args, sigma_max=None):
            sigmas.append(sigma_max)
            return real(*args, sigma_max=sigma_max)

        monkeypatch.setattr(driver, "_solve_to_gap", spy)
        k_sparse(X, 2, 0.5, FAST)
        assert sigmas == [sigma] * FAST.outer_loops
        assert grams == [(m, d)]

    # 40 x 60 is wide (d + dbar > m); 150 x 20 is tall
    @pytest.mark.parametrize("m, d", [(40, 60), (150, 20)])
    def test_bitwise_equal_to_a_fresh_design_per_solve(self, monkeypatch, m, d):
        ds = generate_synthetic(
            SyntheticSpec(m=m, d=d, k=3, n_informative=4, shift=2.5, noise_sd=1.0, seed=0)
        )
        cfg = SolverConfig(replicates=4, inner_iters=60, outer_loops=6)
        runs = []
        for fresh in (False, True):
            with monkeypatch.context() as patch:
                _, grams = self._spy(patch, fresh)
                runs.append((k_sparse(ds.matrix, 3, 0.5, cfg), grams))
        (shared, shared_grams), (each, each_grams) = runs
        np.testing.assert_array_equal(shared.labels, each.labels)
        np.testing.assert_array_equal(shared.weights, each.weights)
        np.testing.assert_array_equal(shared.objective_trace, each.objective_trace)
        # the spectral norm's Gram, and on tall data one more per fresh design
        assert shared_grams == [(m, d)]
        assert each_grams == [(m, d)] * (1 if m < d else 1 + cfg.outer_loops)


class TestSharedSamples:
    def test_one_sample_set_per_clustering_step(self, two_cluster_ds, monkeypatch):
        # the start and each outer loop prepare their k-means samples once,
        # shared by the start's replicates, and in a loop by the warm start
        # and the previous labels
        real = kmeans._samples
        built = []

        def spy(Z):
            if isinstance(Z, np.ndarray):
                built.append(Z.shape)
            return real(Z)

        monkeypatch.setattr(kmeans, "_samples", spy)
        cfg = SolverConfig(replicates=4, inner_iters=60, outer_loops=10)
        k_sparse(two_cluster_ds.matrix, 2, 1.0, cfg)
        assert len(built) == cfg.outer_loops + 1


class TestSharedReplicates:
    """The start's replicates are shared out over ``n_jobs`` processes, and a
    sweep's budgets and replicates together use no more than ``n_jobs``."""

    # 40 x 60 is wide; 150 x 20 is tall
    @pytest.mark.parametrize("m, d", [(40, 60), (150, 20)])
    def test_bitwise_equal_for_any_process_count(self, m, d):
        ds = generate_synthetic(
            SyntheticSpec(m=m, d=d, k=3, n_informative=4, shift=2.5, noise_sd=1.0, seed=0)
        )
        cfg = SolverConfig(replicates=5, inner_iters=60, outer_loops=4)
        one, two = (k_sparse(ds.matrix, 3, 0.5, cfg, labels_true=ds.labels_true, n_jobs=n)
                    for n in (1, 2))
        for field in dataclasses.fields(one):
            a, b = getattr(one, field.name), getattr(two, field.name)
            if isinstance(a, np.ndarray):
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
            else:
                assert a == b

    # (budgets, n_jobs, processes started): 3 budgets on 2 processes leave one
    # process per run; a single budget shares its replicates as cluster does;
    # 2 budgets on 4 processes give each run 2, one fork in each process
    @pytest.mark.parametrize("etas, n_jobs, started", [
        ([0.1, 0.2, 0.4], 2, 1),
        ([0.2], 2, 1),
        ([0.1, 0.2], 4, 3),
    ])
    def test_sweep_starts_no_more_than_n_jobs(self, two_cluster_ds, monkeypatch, tmp_path,
                                              etas, n_jobs, started):
        # one line per fork, here or in any child, which inherit the patch
        log = tmp_path / "forks"
        log.touch()
        real = os.fork

        def fork():
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return real()

        monkeypatch.setattr(os, "fork", fork)
        sweep_eta(two_cluster_ds.matrix, 2, etas, cfg=FAST, n_jobs=n_jobs)
        assert len(log.read_text().split()) == started


class TestSweep:
    def test_singleton_matches_direct_run(self, two_cluster_ds):
        ds = two_cluster_ds
        direct = k_sparse(ds.matrix, 2, 0.2, FAST, labels_true=ds.labels_true)
        for n_jobs in (1, 2):
            recs = sweep_eta(
                ds.matrix, 2, [0.2], labels_true=ds.labels_true, cfg=FAST, n_jobs=n_jobs
            )
            assert len(recs) == 1
            assert recs[0].selected_count == direct.selected_features.size
            assert recs[0].frobenius_objective == direct.objective_trace[-1]
            assert recs[0].accuracy == direct.metrics["accuracy"]

    def test_inactive_budget_keeps_nearly_all_features(self):
        ds = generate_synthetic(
            SyntheticSpec(m=30, d=12, k=2, n_informative=3, shift=4.0, noise_sd=1.0, seed=5)
        )
        cfg = SolverConfig(replicates=5, inner_iters=200, outer_loops=4)
        eta = 10.0 * 12 * 6
        recs = sweep_eta(ds.matrix, 2, [eta], cfg=cfg)
        assert recs[0].selected_count >= 10

    def test_metrics_only_with_truth(self, two_cluster_ds):
        recs = sweep_eta(two_cluster_ds.matrix, 2, [0.2], cfg=FAST)
        assert recs[0].accuracy is None and recs[0].ari is None and recs[0].nmi is None

    def test_parallel_equals_sequential(self, two_cluster_ds):
        ds = two_cluster_ds
        etas = [0.1, 0.3]
        seq = sweep_eta(ds.matrix, 2, etas, labels_true=ds.labels_true, cfg=FAST, n_jobs=1)
        par = sweep_eta(ds.matrix, 2, etas, labels_true=ds.labels_true, cfg=FAST, n_jobs=2)
        assert [(r.eta, r.selected_count, r.frobenius_objective) for r in seq] == [
            (r.eta, r.selected_count, r.frobenius_objective) for r in par
        ]

    def test_forks_in_a_daemonic_process(self, two_cluster_ds):
        # a pool worker is daemonic, which multiprocessing forbids to have
        # children; the sweep forks its own there, with the same records
        X, etas = two_cluster_ds.matrix, [0.1, 0.3]
        with multiprocessing.get_context("fork").Pool(1) as pool:
            inside = pool.apply(sweep_eta, (X, 2, etas), {"cfg": FAST, "n_jobs": 2})
        assert inside == sweep_eta(X, 2, etas, cfg=FAST)

    def test_uneven_shares_keep_eta_order(self, two_cluster_ds):
        # three budgets over two processes: 0.1 and 0.4 here, 0.2 in the child
        X, etas = two_cluster_ds.matrix, [0.1, 0.2, 0.4]
        par = sweep_eta(X, 2, etas, labels_true=two_cluster_ds.labels_true, cfg=FAST,
                        n_jobs=2)
        assert par == sweep_eta(X, 2, etas, labels_true=two_cluster_ds.labels_true, cfg=FAST)
        assert [r.eta for r in par] == etas

    def test_dead_child_is_an_error(self, two_cluster_ds, monkeypatch):
        parent, run = os.getpid(), driver.k_sparse

        def die_in_child(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(3)
            return run(*args, **kwargs)

        def hung(signum, frame):
            raise TimeoutError("the sweep still waits for a dead worker")

        monkeypatch.setattr(driver, "k_sparse", die_in_child)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(30)
        try:
            with pytest.raises(ChildProcessError, match="exited with code 3"):
                sweep_eta(two_cluster_ds.matrix, 2, [0.1, 0.3], cfg=FAST, n_jobs=2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert kill_children() == []

    def test_error_in_a_child_reaches_the_caller(self, two_cluster_ds, monkeypatch):
        parent, run = os.getpid(), driver.k_sparse

        def fail_in_child(X, k, eta, *args, **kwargs):
            if os.getpid() != parent:
                raise ValueError(f"no run at eta={eta}")
            return run(X, k, eta, *args, **kwargs)

        monkeypatch.setattr(driver, "k_sparse", fail_in_child)
        with pytest.raises(ValueError) as info:
            sweep_eta(two_cluster_ds.matrix, 2, [0.1, 0.3], cfg=FAST, n_jobs=2)
        assert type(info.value) is ValueError
        assert info.value.args == ("no run at eta=0.3",)
        assert kill_children() == []

    def test_validation(self, two_cluster_ds):
        with pytest.raises(ValueError):
            sweep_eta(two_cluster_ds.matrix, 2, [], cfg=FAST)
        with pytest.raises(ValueError):
            sweep_eta(two_cluster_ds.matrix, 2, [1.0, -2.0], cfg=FAST)
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError, match="all eta values must be positive and finite"):
                sweep_eta(two_cluster_ds.matrix, 2, [1.0, value], cfg=FAST)
