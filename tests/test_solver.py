import inspect
import tracemalloc

import numpy as np
import pytest

import ksparse.solver
from ksparse.core import centroids, objective, spectral_norm
from oracles import projected_gradient_reference
from ksparse.solver import (
    default_weight_init,
    momentum_schedule,
    solve_weights_fista,
    solve_weights_ista,
)


def _instance(seed, m=20, d=10, dbar=3, k=2, normalize=True):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, d))
    if normalize:
        X = X / spectral_norm(X)
    labels = rng.integers(0, k, m)
    labels[:k] = np.arange(k)
    mu = rng.standard_normal((k, dbar))
    return X, labels, mu


class TestWeightInit:
    def test_diagonal_on_budget(self):
        W0 = default_weight_init(5, 3, 1.5)
        assert W0.shape == (5, 3)
        assert np.abs(W0).sum() == pytest.approx(1.5)
        np.testing.assert_allclose(np.diag(W0[:3]), [0.5, 0.5, 0.5])

    def test_wide_case(self):
        W0 = default_weight_init(2, 6, 1.0)
        assert np.count_nonzero(W0) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            default_weight_init(0, 3, 1.0)
        with pytest.raises(ValueError):
            default_weight_init(3, 3, 0.0)
        for eta in (np.nan, np.inf):
            with pytest.raises(ValueError, match="eta must be positive and finite"):
                default_weight_init(3, 3, eta)


class TestMomentumSchedule:
    def test_first_steps(self):
        t_new, lam = momentum_schedule(0, 1.0)
        assert t_new == pytest.approx(1.25)
        assert lam == pytest.approx(1.0)
        t_new, lam = momentum_schedule(1, t_new)
        assert t_new == pytest.approx(1.5)
        assert lam == pytest.approx(1.1667, abs=5e-5)


class TestIsta:
    def test_scalar_clips_to_interval(self):
        X = np.array([[1.0]])
        mu = np.array([[3.0]])
        rep = solve_weights_ista(X, [0], mu, np.array([[0.0]]), 50, 1.0)
        np.testing.assert_allclose(rep.final_weights, [[1.0]], atol=1e-12)

    def test_fixed_point_trace_constant(self):
        X, labels, mu = _instance(2)
        W0 = default_weight_init(10, 3, 0.5)
        long = solve_weights_ista(X, labels, mu, W0, 5000, 0.5, sigma_max=1.0)
        again = solve_weights_ista(X, labels, mu, long.final_weights, 20, 0.5, sigma_max=1.0)
        assert np.ptp(again.objective_trace) <= 1e-10 * max(1.0, again.objective_trace[0])

    def test_inactive_budget_reaches_least_squares(self):
        X, labels, mu = _instance(3, m=20, d=10, dbar=3)
        target = mu[labels]
        W_ls, *_ = np.linalg.lstsq(X, target, rcond=None)
        eta = 2.0 * np.abs(W_ls).sum()
        best = 0.5 * np.sum((target - X @ W_ls) ** 2)
        rep = solve_weights_ista(
            X, labels, mu, default_weight_init(10, 3, eta), 4000, eta, sigma_max=1.0
        )
        assert rep.objective_trace[-1] == pytest.approx(best, abs=1e-8)

    def test_monotone_trace_at_unit_step(self):
        X, labels, mu = _instance(4, m=50, d=30, dbar=5, k=3)
        rep = solve_weights_ista(
            X, labels, mu, default_weight_init(30, 5, 1.0), 400, 1.0, sigma_max=1.0
        )
        assert np.all(np.diff(rep.objective_trace) <= 1e-12)

    def test_zero_iterations_projects_start(self):
        X, labels, mu = _instance(5)
        W0 = np.full((10, 3), 1.0)  # infeasible for eta=1
        rep = solve_weights_ista(X, labels, mu, W0, 0, 1.0, sigma_max=1.0)
        assert rep.iterations_run == 0
        assert np.abs(rep.final_weights).sum() <= 1.0 + 1e-9
        assert rep.objective_trace.shape == (1,)

    def test_budget_feasible_every_call(self):
        rng = np.random.default_rng(6)
        X, labels, mu = _instance(6)
        for eta in (0.05, 0.5, 5.0):
            rep = solve_weights_ista(
                X, labels, mu, rng.standard_normal((10, 3)), 30, eta, sigma_max=1.0
            )
            assert np.abs(rep.final_weights).sum() <= eta * (1 + 1e-12)

    def test_non_finite_eta_rejected(self):
        X, labels, mu = _instance(7)
        for eta in (np.nan, np.inf):
            with pytest.raises(ValueError, match="eta must be positive and finite"):
                solve_weights_ista(X, labels, mu, np.zeros((10, 3)), 5, eta, sigma_max=1.0)

    def test_deterministic(self):
        X, labels, mu = _instance(8)
        a = solve_weights_ista(X, labels, mu, default_weight_init(10, 3, 1.0), 50, 1.0, sigma_max=1.0)
        b = solve_weights_ista(X, labels, mu, default_weight_init(10, 3, 1.0), 50, 1.0, sigma_max=1.0)
        np.testing.assert_array_equal(a.objective_trace, b.objective_trace)
        np.testing.assert_array_equal(a.final_weights, b.final_weights)


class TestFista:
    def test_fixed_point_stays(self):
        X, labels, mu = _instance(10)
        W0 = default_weight_init(10, 3, 0.5)
        long = solve_weights_ista(X, labels, mu, W0, 8000, 0.5, sigma_max=1.0)
        rep = solve_weights_fista(X, labels, mu, long.final_weights, 50, 0.5, sigma_max=1.0)
        assert np.ptp(rep.objective_trace) <= 1e-9 * max(1.0, rep.objective_trace[0])

    def test_matches_long_ista(self):
        X, labels, mu = _instance(11, m=20, d=10, dbar=3)
        W0 = default_weight_init(10, 3, 0.8)
        ista = solve_weights_ista(X, labels, mu, W0, 2000, 0.8, sigma_max=1.0)
        fista = solve_weights_fista(X, labels, mu, W0, 200, 0.8, sigma_max=1.0)
        assert abs(fista.objective_trace[-1] - ista.objective_trace[-1]) <= 1e-6

    def test_returned_weights_feasible(self):
        X, labels, mu = _instance(13)
        rep = solve_weights_fista(
            X, labels, mu, default_weight_init(10, 3, 0.3), 120, 0.3, sigma_max=1.0
        )
        assert np.abs(rep.final_weights).sum() <= 0.3 * (1 + 1e-12)

    def test_rate_does_not_blow_up(self):
        X, labels, mu = _instance(14, m=50, d=30, dbar=5, k=3)
        W0 = default_weight_init(30, 5, 1.0)
        ista = solve_weights_ista(X, labels, mu, W0, 2000, 1.0, sigma_max=1.0)
        fista = solve_weights_fista(X, labels, mu, W0, 500, 1.0, sigma_max=1.0)
        star = min(ista.objective_trace.min(), fista.objective_trace.min())
        n = np.arange(10, 501)
        for trace, power in ((ista.objective_trace, 1), (fista.objective_trace, 2)):
            s = n**power * np.maximum(trace[10:501] - star, 0.0)
            early = s[: s.size // 2].max()
            late = s[s.size // 2 :].max()
            assert late <= max(2.0 * early, 1e-12)

    def test_shape_mismatch(self):
        X, labels, mu = _instance(15)
        with pytest.raises(ValueError, match="W0 shape"):
            solve_weights_fista(X, labels, mu, np.zeros((4, 3)), 5, 1.0, sigma_max=1.0)

    @pytest.mark.parametrize("bad", ["X", "mu", "W0"])
    @pytest.mark.parametrize("n_iters", [0, 5])
    def test_non_finite_input_rejected_at_entry(self, bad, n_iters):
        X, labels, mu = _instance(17)
        inputs = {"X": X, "mu": mu, "W0": default_weight_init(10, 3, 1.0)}
        inputs[bad][1, 2] = np.nan
        # sigma_max is given, so no spectral norm of X checks it first
        with pytest.raises(ValueError, match=f"^{bad} contains NaN or Inf entries$"):
            solve_weights_fista(
                inputs["X"], labels, inputs["mu"], inputs["W0"], n_iters, 1.0, sigma_max=1.0
            )


class TestStep:
    """Both solvers step at 1/sigma_max^2, from a given or measured sigma_max."""

    @pytest.mark.parametrize("solve", [solve_weights_ista, solve_weights_fista])
    def test_signature(self, solve):
        params = inspect.signature(solve).parameters.values()
        bare = inspect.Signature([p.replace(annotation=p.empty) for p in params])
        assert str(bare) == "(X, labels, mu, W0, n_iters, eta, *, sigma_max=None)"

    @pytest.mark.parametrize("accelerated", [False, True])
    # eta=0.1 opens a working set on the wide 30 x 40 instance; eta=3 runs the
    # tall 40 x 30 one on X.T X, where every step is full-width
    @pytest.mark.parametrize("eta", [0.1, 3.0])
    def test_raw_scale_matches_reference(self, accelerated, eta):
        m, d = (30, 40) if eta < 1.0 else (40, 30)
        X, labels, mu = _instance(30, m=m, d=d, dbar=4, k=3, normalize=False)
        X *= 10.0 / spectral_norm(X)
        X[:, 0] *= 1.5  # off a round number
        sigma = spectral_norm(X)
        W0 = default_weight_init(d, 4, eta)
        solve = solve_weights_fista if accelerated else solve_weights_ista
        ref_W, ref_trace = projected_gradient_reference(
            X, labels, mu, W0, 80, 1.0 / sigma**2, eta, accelerated
        )
        for sigma_max in (sigma, None):
            rep = solve(X, labels, mu, W0, 80, eta, sigma_max=sigma_max)
            assert (rep.full_gradients < 80) == (eta < 1.0)
            np.testing.assert_allclose(rep.final_weights, ref_W, rtol=1e-12)
            np.testing.assert_allclose(rep.objective_trace, ref_trace, rtol=1e-12)

    @pytest.mark.parametrize("solve", [solve_weights_ista, solve_weights_fista])
    @pytest.mark.parametrize("sigma_max", [0.0, -1.0, -0.5, np.nan, np.inf, -np.inf])
    def test_non_positive_or_non_finite_sigma_rejected(self, solve, sigma_max):
        X, labels, mu = _instance(31)
        with pytest.raises(ValueError, match="sigma_max must be positive and finite"):
            solve(X, labels, mu, default_weight_init(10, 3, 1.0), 5, 1.0, sigma_max=sigma_max)

    @pytest.mark.parametrize("solve", [solve_weights_ista, solve_weights_fista])
    # m=20 steps on X itself, m=60 on X.T X
    @pytest.mark.parametrize("m", [20, 60])
    def test_sigma_below_a_column_norm_rejected(self, solve, m):
        X, labels, mu = _instance(32, m=m)
        X = 10.0 * X
        W0 = default_weight_init(10, 3, 1.0)
        with pytest.raises(ValueError, match="sigma_max=1.0 is below the largest column norm"):
            solve(X, labels, mu, W0, 5, 1.0, sigma_max=1.0)
        # the bound is the largest column norm itself, less only rounding
        top = float(np.linalg.norm(X, axis=0).max())
        with pytest.raises(ValueError, match="below the largest column norm"):
            solve(X, labels, mu, W0, 5, 1.0, sigma_max=top * (1.0 - 1e-8))
        solve(X, labels, mu, W0, 5, 1.0, sigma_max=top)


class TestTextbookForm:
    """The solver's product layouts and residual recombination change rounding only."""

    @pytest.mark.parametrize("accelerated", [False, True])
    # eta=0.3 opens a working set on the wide 30 x 40 instance; eta=10 runs the
    # tall 40 x 30 one on X.T X, where every step is full-width
    @pytest.mark.parametrize("eta", [0.3, 10.0])
    def test_matches_reference_loop(self, monkeypatch, accelerated, eta):
        m, d = (30, 40) if eta < 1.0 else (40, 30)
        X, labels, mu = _instance(16, m=m, d=d, dbar=4, k=3)
        W0 = default_weight_init(d, 4, eta)
        solve = solve_weights_fista if accelerated else solve_weights_ista
        ref_W, ref_trace = projected_gradient_reference(
            X, labels, mu, W0, 60, 1.0, eta, accelerated
        )
        opened = []
        init = ksparse.solver._WorkingSet.__init__

        def spy(self, *args):
            init(self, *args)
            opened.append(self.rows.size)

        monkeypatch.setattr(ksparse.solver._WorkingSet, "__init__", spy)
        reports = [
            solve(Xo, labels, mu, W0, 60, eta, sigma_max=1.0)
            for Xo in (np.ascontiguousarray(X), np.asfortranarray(X))
        ]
        assert bool(opened) == (eta < 1.0)
        for rep in reports:
            assert (rep.full_gradients < 60) == (eta < 1.0)
            np.testing.assert_allclose(rep.final_weights, ref_W, rtol=1e-12)
            np.testing.assert_allclose(rep.objective_trace, ref_trace, rtol=1e-12)
        # a Fortran-ordered X is copied to C order, so both runs are one computation
        np.testing.assert_array_equal(reports[0].final_weights, reports[1].final_weights)


def _screening_instance(seed, m=30, d=400, dbar=3, k=3):
    """Planted clusters, by default in d >> m, with exact duplicate columns and four columns scaled 20x."""
    rng = np.random.default_rng(seed)
    labels = np.arange(m) % k
    X = rng.standard_normal((m, d))
    X[:, : d // 20] += 2.0 * labels[:, None]
    X[:, d // 2 : d // 2 + 3 * d // 20] = X[:, : 3 * d // 20]
    X[:, rng.choice(d, 4, replace=False)] *= 20.0
    X /= spectral_norm(X)
    mu = centroids(labels, 30.0 * X[:, rng.choice(d, dbar, replace=False)], k)
    return X, labels, mu


def _near_fit_instance(seed, m=30, d=400, k=3):
    """Wide data whose first three columns are Y mu up to noise of 1e-4, with
    an l1 budget of 0.999 times their least-squares fit: the solves end with
    a residual near 1e-3 of ``||Y mu||``."""
    rng = np.random.default_rng(seed)
    labels = np.arange(m) % k
    mu = 10.0 * rng.standard_normal((k, 3))
    X = rng.standard_normal((m, d))
    X[:, :3] = mu[labels] + 1e-4 * rng.standard_normal((m, 3))
    X /= spectral_norm(X)
    fit = np.linalg.lstsq(X[:, :3], mu[labels], rcond=None)[0]
    return X, labels, mu, 0.999 * np.abs(fit).sum()


def _assert_matches_reference(rep, X, labels, mu, W0, n_iters, eta, accelerated):
    ref_W, ref_trace = projected_gradient_reference(
        X, labels, mu, W0, n_iters, 1.0, eta, accelerated
    )
    np.testing.assert_array_equal(rep.final_weights != 0.0, ref_W != 0.0)
    # an entry just above the threshold is |v| - tau, whose rounding scales
    # with the largest entries; the full-width loop needs the same atol here
    np.testing.assert_allclose(
        rep.final_weights, ref_W, rtol=1e-12, atol=1e-12 * np.abs(ref_W).max()
    )
    np.testing.assert_allclose(rep.objective_trace, ref_trace, rtol=1e-12)


def _check_certified_steps(patch, X, labels, mu):
    """Check every certified step of the wide loop against its full step rebuilt on X.

    The residual at the extrapolated point is recomputed as ``X W - Y mu``.
    The set's drift bound must cover the part of ``D = R - R_ref`` off
    ``R_ref``, and the full ``V`` must be within the threshold outside the
    set.  Returns a list that gets one entry per checked step.
    """
    Ymu = mu[labels]
    shape = (X.shape[1], mu.shape[1])
    certifies = ksparse.solver._WorkingSet.certifies
    checked = []

    def spy(self, tau):
        ok = certifies(self, tau)
        if ok:
            W = self.extrapolated_point(shape)
            R = X @ W - Ymu
            beta, delta = self.drift()
            off = R - (1.0 + beta) * self.ref  # D - beta R_ref
            assert np.all(delta >= np.linalg.norm(off, axis=0))
            V = W - self.gamma * (X.T @ R)
            excluded = np.ones(shape[0], dtype=bool)
            excluded[self.rows] = False
            assert np.abs(V[excluded]).max() <= tau * (1.0 + ksparse.solver._CERTIFICATE_SLACK)
            checked.append(self.rows.size)
        return ok

    patch.setattr(ksparse.solver._WorkingSet, "certifies", spy)
    return checked


class TestWorkingSet:
    """Steps on a certified working set give the full-width loop's iterates."""

    @pytest.mark.parametrize("accelerated", [False, True])
    @pytest.mark.parametrize("eta", [0.2, 1.0])
    def test_certificate_stress(self, monkeypatch, accelerated, eta):
        solve = solve_weights_fista if accelerated else solve_weights_ista
        full, checked = [], 0
        for seed in range(60):
            X, labels, mu = _screening_instance(seed)
            W0 = default_weight_init(400, 3, eta)
            with monkeypatch.context() as patch:
                steps = _check_certified_steps(patch, X, labels, mu)
                rep = solve(X, labels, mu, W0, 60, eta, sigma_max=1.0)
            _assert_matches_reference(rep, X, labels, mu, W0, 60, eta, accelerated)
            assert len(steps) == 60 - rep.full_gradients
            full.append(rep.full_gradients)
            checked += len(steps)
        # the set both engages and fails its certificate across these seeds
        assert sum(full) < 60 * 60
        assert max(full) > 1
        assert checked > 1000

    @pytest.mark.parametrize("accelerated", [False, True])
    def test_certificate_near_fit(self, monkeypatch, accelerated):
        # the set's gradient H_C P - b_C cancels to under 1e-4 of ||b_C||, so
        # the drift's rounding margin must scale with H_C P and b_C, not G
        solve = solve_weights_fista if accelerated else solve_weights_ista
        product = ksparse.solver._WorkingSet._product
        ratios = []

        def spy(self, P):
            G, entry = product(self, P)
            ratios.append(np.linalg.norm(G) / np.linalg.norm(self.b))
            return G, entry

        checked = 0
        for seed in range(12):
            X, labels, mu, eta = _near_fit_instance(seed)
            W0 = default_weight_init(400, 3, eta)
            with monkeypatch.context() as patch:
                patch.setattr(ksparse.solver._WorkingSet, "_product", spy)
                steps = _check_certified_steps(patch, X, labels, mu)
                rep = solve(X, labels, mu, W0, 200, eta, sigma_max=1.0)
            assert len(steps) == 200 - rep.full_gradients
            Ymu = mu[labels]
            assert objective(X, rep.final_weights, labels, mu) < 1e-6 * np.vdot(Ymu, Ymu)
            checked += len(steps)
        assert checked > 2000
        assert min(ratios) < 1e-4

    @pytest.mark.parametrize("accelerated", [False, True])
    @pytest.mark.parametrize("eta", [0.2, 1.0])
    def test_certificate_stress_tall(self, monkeypatch, accelerated, eta):
        # m = 2d runs the loop on X.T X, where every step is full-width: no
        # set opens, though these solves keep few rows
        def fail(*args):
            raise AssertionError("a working set opened on tall data")

        monkeypatch.setattr(ksparse.solver._WorkingSet, "__init__", fail)
        solve = solve_weights_fista if accelerated else solve_weights_ista
        for seed in range(60):
            X, labels, mu = _screening_instance(seed, m=120, d=60)
            W0 = default_weight_init(60, 3, eta)
            rep = solve(X, labels, mu, W0, 60, eta, sigma_max=1.0)
            _assert_matches_reference(rep, X, labels, mu, W0, 60, eta, accelerated)
            assert rep.full_gradients == 60

    def test_engages_when_d_much_larger_than_m(self):
        X, labels, mu = _screening_instance(3)
        rep = solve_weights_fista(
            X, labels, mu, default_weight_init(400, 3, 1.0), 200, 1.0, sigma_max=1.0
        )
        assert rep.full_gradients < 200

    @pytest.mark.parametrize("accelerated", [False, True])
    def test_failing_certificate_takes_full_steps(self, monkeypatch, accelerated):
        monkeypatch.setattr(ksparse.solver._WorkingSet, "certifies", lambda self, tau: False)
        solve = solve_weights_fista if accelerated else solve_weights_ista
        X, labels, mu = _screening_instance(4)
        W0 = default_weight_init(400, 3, 1.0)
        rep = solve(X, labels, mu, W0, 60, 1.0, sigma_max=1.0)
        assert rep.full_gradients == 60
        _assert_matches_reference(rep, X, labels, mu, W0, 60, 1.0, accelerated)

    @staticmethod
    def _decaying_instance():
        """Decaying column scales: FISTA's extrapolation leaves weight on every
        row outside the candidates when the set reopens."""
        rng = np.random.default_rng(1)
        m, d, dbar, k = 70, 80, 6, 3  # wide, so the loop runs on X
        X = rng.standard_normal((m, d)) / np.arange(1, d + 1)
        X /= spectral_norm(X)
        labels = rng.integers(0, k, m)
        labels[:k] = np.arange(k)
        mu = centroids(labels, rng.standard_normal((m, dbar)), k)
        return X, labels, mu

    def test_every_excluded_row_carries_weight(self, monkeypatch):
        X, labels, mu = self._decaying_instance()
        d, dbar = X.shape[1], mu.shape[1]
        opened = []
        init = ksparse.solver._WorkingSet.__init__

        def spy(self, *args):
            init(self, *args)
            opened.append((self.rows.size, self.ghosts.size))

        monkeypatch.setattr(ksparse.solver._WorkingSet, "__init__", spy)
        steps = _check_certified_steps(monkeypatch, X, labels, mu)
        W0 = default_weight_init(d, dbar, 20.0)
        rep = solve_weights_fista(X, labels, mu, W0, 100, 20.0, sigma_max=1.0)
        assert (16, d - 16) in opened
        assert rep.full_gradients < 100
        assert len(steps) == 100 - rep.full_gradients
        _assert_matches_reference(rep, X, labels, mu, W0, 100, 20.0, True)

    def test_drift_along_the_reference_residual(self):
        # a set opened at W_ref whose weights then move the residual to exactly
        # 2 R_ref: every excluded entry of the full V is W - 2 gamma G_ref, and
        # the certificate must see the drift along R_ref at full size
        X, labels, mu = _screening_instance(0)
        m, d = X.shape
        Ymu = mu[labels]
        rows = np.arange(2 * m)  # X[:, rows] spans every residual
        W_ref = np.zeros((d, 3))
        W_ref[rows] = 0.01 * np.random.default_rng(0).standard_normal((2 * m, 3))
        W_ref[300:305] = 0.01  # ghosts
        R_ref = X @ W_ref - Ymu
        G_ref = X.T @ R_ref
        # lambda = 0 opens the set at W_ref itself, with c = 1
        design = ksparse.solver._Design(X)
        ws = ksparse.solver._WorkingSet(design, rows, W_ref, G_ref, R_ref, W_ref, Ymu, 1.0, 0.0)
        assert ws.ghosts.tolist() == list(range(300, 305))
        ws.W = ws.W + np.linalg.lstsq(X[:, rows], R_ref, rcond=None)[0]
        ws.G = 2.0 * ws.G
        beta, delta = ws.drift()
        np.testing.assert_allclose(beta, 1.0, rtol=1e-9)
        assert np.all(delta <= 1e-4 * np.linalg.norm(R_ref, axis=0))
        excluded = np.setdiff1d(np.arange(d), rows)
        top = np.abs(W_ref - 2.0 * G_ref)[excluded].max()
        # the bound without the drift along R_ref would pass a threshold below top
        assert np.abs(W_ref - G_ref)[excluded].max() < 0.9 * top
        assert not ws.certifies(0.99 * top)
        assert ws.certifies(1.01 * top)

    def test_floor_covers_the_reference_residual_rounding(self):
        # the loop carries R_ref by recombination, so R_ref misses X W_ref - Y mu
        # by rounding, which the Gram-form drift sees only as (c - 1) times
        # itself; with no drift on the set's rows and a residual near 1e-3 of
        # ||Y mu||, only the bound's floor covers the rest
        X, labels, mu, _ = _near_fit_instance(0)
        m, d = X.shape
        Ymu = mu[labels]
        rows = np.arange(2 * m)
        W_ref = np.zeros((d, 3))
        W_ref[:3] = 0.999 * np.linalg.lstsq(X[:, :3], Ymu, rcond=None)[0]
        err = np.random.default_rng(0).standard_normal((m, 3))
        err /= np.linalg.norm(err, axis=0)
        err *= (m + rows.size) * np.finfo(float).eps * np.linalg.norm(Ymu, axis=0)
        R_ref = X @ W_ref - Ymu + err
        G_ref = X.T @ R_ref
        design = ksparse.solver._Design(X)
        # lambda = 0.75 leaves the excluded rows c = 0.25 of their weights
        ws = ksparse.solver._WorkingSet(design, rows, W_ref, G_ref, R_ref, W_ref, Ymu, 1.0, 0.75)
        assert ws.ghosts.size == 0
        ws.W = ws.W_ref.copy()
        beta, delta = ws.drift()
        R = X @ ws.extrapolated_point((d, 3)) - Ymu
        assert np.linalg.norm(R_ref, axis=0).max() < 2e-3 * np.linalg.norm(Ymu, axis=0).min()
        assert np.all(delta >= np.linalg.norm(R - (1.0 + beta) * R_ref, axis=0))

    @pytest.mark.parametrize("accelerated", [False, True])
    def test_zero_reference_column(self, monkeypatch, accelerated):
        # a zero column of mu and of W0 keeps that column of every residual at
        # exactly zero, so the drift's share along R_ref is 0 there, with no
        # 0 / 0 (pytest turns its warning into an error)
        X, labels, mu = _screening_instance(4)
        mu[:, 2] = 0.0
        W0 = default_weight_init(400, 3, 1.0)
        W0[:, 2] = 0.0
        betas = []
        drift = ksparse.solver._WorkingSet.drift

        def spy(self):
            beta, delta = drift(self)
            assert np.all(self.ref[:, 2] == 0.0)
            betas.append(beta[2])
            return beta, delta

        monkeypatch.setattr(ksparse.solver._WorkingSet, "drift", spy)
        solve = solve_weights_fista if accelerated else solve_weights_ista
        rep = solve(X, labels, mu, W0, 60, 1.0, sigma_max=1.0)
        assert betas and all(beta == 0.0 for beta in betas)
        assert np.all(rep.final_weights[:, 2] == 0.0)
        _assert_matches_reference(rep, X, labels, mu, W0, 60, 1.0, accelerated)

    def test_zero_iterations(self):
        X, labels, mu = _screening_instance(5)
        rep = solve_weights_fista(
            X, labels, mu, default_weight_init(400, 3, 1.0), 0, 1.0, sigma_max=1.0
        )
        assert rep.iterations_run == 0
        assert rep.full_gradients == 0


class _Counted(np.ndarray):
    """A view of X that logs every product that it, or a slice of it, enters."""

    def __array_finalize__(self, obj):
        self.log = getattr(obj, "log", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            self.log.append(("matmul",) + tuple(a.shape for a in inputs))
        inputs = [a.view(np.ndarray) if isinstance(a, _Counted) else a for a in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


class TestSetProducts:
    """A set forms its Gram once per opening, and only with at most 2 m rows.

    A certified step then makes one product on that Gram, on the rows in the
    projected point's support when they are under half of them; a larger
    set takes the same product through ``X[:, rows]`` twice.
    """

    @pytest.mark.parametrize("accelerated", [False, True])
    def test_very_wide(self, monkeypatch, accelerated):
        # m = 40 and d = 2000 at eta = 0.5: both solvers take certified steps on
        # sets on both sides of 2 m
        X, labels, mu = _screening_instance(0, m=40, d=2000)
        m = X.shape[0]
        design = ksparse.solver._Design(X)
        log = []
        design.X = design.X.view(_Counted)
        design.X.log = log
        events = []
        init = ksparse.solver._WorkingSet.__init__
        step = ksparse.solver._WorkingSet.step

        def init_spy(self, *args):
            start = len(log)
            init(self, *args)
            events.append(("open", self.rows.size, log[start:]))
            if self.H is not None:
                self.H = self.H.view(_Counted)
                self.H.log = log

        def step_spy(self, *args):
            start = len(log)
            certified = step(self, *args)
            if certified:
                events.append(("step", self.rows.size, log[start:]))
            return certified

        monkeypatch.setattr(ksparse.solver._WorkingSet, "__init__", init_spy)
        monkeypatch.setattr(ksparse.solver._WorkingSet, "step", step_spy)
        W0 = default_weight_init(2000, 3, 0.5)
        solve = solve_weights_fista if accelerated else solve_weights_ista
        rep = solve(design, labels, mu, W0, 60, 0.5, sigma_max=1.0)
        _assert_matches_reference(rep, X, labels, mu, W0, 60, 0.5, accelerated)
        sizes = {n for kind, n, _ in events if kind == "step"}
        assert min(sizes) <= 2 * m < max(sizes)
        on_support = 0
        for kind, n, products in events:
            if kind == "open":
                grams = [p for p in products if p == ("matmul", (n, m), (m, n))]
                assert len(grams) == (n <= 2 * m)
            elif n <= 2 * m:
                # (P_S.T @ H_C[S]).T on the support S of P, or on all n rows
                [(kind, (dbar, s), (rows, cols))] = products
                assert kind == "matmul" and dbar == 3 and s == rows <= n == cols
                on_support += s < n
            else:
                assert len(products) == 2
                assert all(p[0] == "matmul" and (m, n) in p[1:] for p in products)
        assert on_support > 0


class TestThresholdGuess:
    """Each projection's scan starts from the last threshold, with the cold scan's bits."""

    @staticmethod
    def _solves():
        """Paper-like wide solves and a tall one, from the default start."""
        for seed in range(6):
            X, labels, mu = _screening_instance(seed)
            yield X, labels, mu, 1.0
        X, labels, mu = _instance(30, m=300, d=40, dbar=4, k=3)
        yield X, labels, mu, 0.4

    @pytest.mark.parametrize("accelerated", [False, True])
    def test_every_iterate_bitwise_cold(self, monkeypatch, accelerated):
        real = ksparse.solver._shrink
        guessed = []

        def spy(V, eta, lo=0.0):
            P, tau = real(V, eta, lo)
            cold_P, cold_tau = real(V, eta)
            assert tau == cold_tau
            np.testing.assert_array_equal(P, cold_P)
            guessed.append(0.0 < lo < tau)
            return P, tau

        monkeypatch.setattr(ksparse.solver, "_shrink", spy)
        solve = solve_weights_fista if accelerated else solve_weights_ista
        for X, labels, mu, eta in self._solves():
            W0 = default_weight_init(X.shape[1], mu.shape[1], eta)
            solve(X, labels, mu, W0, 80, eta, sigma_max=1.0)
        # most scans start from the guess
        assert sum(guessed) > 0.8 * len(guessed)

    @pytest.mark.parametrize("accelerated", [False, True])
    def test_solve_bitwise_cold(self, monkeypatch, accelerated):
        solve = solve_weights_fista if accelerated else solve_weights_ista
        for X, labels, mu, eta in self._solves():
            W0 = default_weight_init(X.shape[1], mu.shape[1], eta)
            guessed = solve(X, labels, mu, W0, 80, eta, sigma_max=1.0)
            with monkeypatch.context() as patch:
                patch.setattr(ksparse.solver, "_TAU_HINT", 0.0)  # every scan cold
                cold = solve(X, labels, mu, W0, 80, eta, sigma_max=1.0)
            np.testing.assert_array_equal(guessed.final_weights, cold.final_weights)
            np.testing.assert_array_equal(guessed.objective_trace, cold.objective_trace)
            assert guessed.full_gradients == cold.full_gradients


def _gram_spy(patch):
    """Record the shape of every matrix whose Gram is formed; returns the list."""
    shapes = []
    gram = ksparse.core._gram

    def spy(A):
        shapes.append(A.shape)
        return gram(A)

    patch.setattr(ksparse.core, "_gram", spy)
    return shapes


def _tall_run(monkeypatch, X, labels, mu, eta, accelerated, n_iters):
    """Solve from the default start against the reference loop; returns the Gram input shapes."""
    W0 = default_weight_init(X.shape[1], mu.shape[1], eta)
    solve = solve_weights_fista if accelerated else solve_weights_ista
    with monkeypatch.context() as patch:
        shapes = _gram_spy(patch)
        rep = solve(X, labels, mu, W0, n_iters, eta, sigma_max=1.0)
    ref_W, ref_trace = projected_gradient_reference(
        X, labels, mu, W0, n_iters, 1.0, eta, accelerated
    )
    np.testing.assert_allclose(rep.final_weights, ref_W, rtol=1e-12)
    np.testing.assert_allclose(rep.objective_trace, ref_trace, rtol=1e-12)
    return shapes


class TestTallReduction:
    """On tall X the loop runs on H = X.T X and gives the same iterates.

    The solve forms ``H`` once and no m x d temporary; ``b = X.T Y mu``
    comes from a k x m one-hot.  Every step is full-width.  The trace's
    first and last entries are computed on ``X`` itself.
    """

    @pytest.mark.parametrize("accelerated", [False, True])
    def test_rank_deficient_matches_reference(self, monkeypatch, accelerated):
        rng = np.random.default_rng(20)
        m, d, dbar, k = 60, 12, 4, 3
        X = rng.standard_normal((m, d))
        X[:, 5] = X[:, 2]  # duplicated column
        X[:, 7] = 0.0  # all-zero column
        X /= spectral_norm(X)
        labels = np.arange(m) % k
        mu = rng.standard_normal((k, dbar))
        assert _tall_run(monkeypatch, X, labels, mu, 1.5, accelerated, 80) == [(m, d)]

    @pytest.mark.parametrize("accelerated", [False, True])
    def test_large_rank_deficient_matches_reference(self, monkeypatch, accelerated):
        rng = np.random.default_rng(22)
        m, d, dbar, k = 20003, 30, 4, 3
        X = rng.standard_normal((m, d))
        X[:, 5] = X[:, 2]  # duplicated column
        X[:, 7] = 0.0  # all-zero column
        X /= spectral_norm(X)
        labels = np.arange(m) % k
        mu = rng.standard_normal((k, dbar))
        assert _tall_run(monkeypatch, X, labels, mu, 1.5, accelerated, 80) == [(m, d)]

    def test_gram_form_makes_no_design_sized_matrix(self):
        rng = np.random.default_rng(23)
        m, d, dbar, k = 20003, 30, 4, 3
        X = rng.standard_normal((m, d))
        labels = np.arange(m) % k
        mu = rng.standard_normal((k, dbar))
        design = ksparse.solver._Design(X)
        tracemalloc.start()
        try:
            design.gram
            ksparse.solver._gram_target(X, labels, mu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m * d * 8

    @pytest.mark.parametrize("accelerated", [False, True])
    @pytest.mark.parametrize("extra_rows, reduced", [(0, True), (-1, False)])
    def test_boundary(self, monkeypatch, accelerated, extra_rows, reduced):
        d, dbar = 10, 3
        X, labels, mu = _instance(21, m=d + dbar + extra_rows, d=d, dbar=dbar)
        shapes = _tall_run(monkeypatch, X, labels, mu, 0.8, accelerated, 60)
        assert shapes == ([(X.shape[0], d)] if reduced else [])

    @pytest.mark.parametrize("solve", [solve_weights_ista, solve_weights_fista])
    @pytest.mark.parametrize("case", ["full_rank", "rank_deficient", "dbar_below_k"])
    def test_every_step_full_width(self, monkeypatch, solve, case):
        def fail(*args):
            raise AssertionError("a working set opened on tall data")

        monkeypatch.setattr(ksparse.solver._WorkingSet, "__init__", fail)
        X, solves = TestDesignReuse._instance(case)
        d, dbar = X.shape[1], solves[0][1].shape[1]
        assert d + dbar <= X.shape[0]
        for labels, mu in solves:
            W0 = default_weight_init(d, dbar, 0.2)
            rep = solve(X, labels, mu, W0, 60, 0.2, sigma_max=1.0)
            assert rep.full_gradients == rep.iterations_run == 60

    def test_objective_on_original_x_near_interpolation(self):
        # Y mu lies within 1e-2 of X's range, so f is about 5e-7 of ||Y mu||^2;
        # a Gram-form objective misses the direct one by about 3e-9 relative
        # here, so the first and last entries are computed on X itself
        rng = np.random.default_rng(0)
        m, d, dbar, k = 300, 20, 3, 5
        labels = np.arange(m) % k
        mu = 10.0 * rng.standard_normal((k, dbar))
        Ymu = mu[labels]
        X = np.hstack(
            [Ymu + 1e-2 * rng.standard_normal((m, dbar)), rng.standard_normal((m, d - dbar))]
        )
        s = spectral_norm(X)
        X /= s
        eta = 4.0 * dbar * s  # inactive budget
        W0 = default_weight_init(d, dbar, eta)  # on the ball, so the start projects to itself
        rep = solve_weights_fista(X, labels, mu, W0, 2000, eta, sigma_max=1.0)
        f = objective(X, rep.final_weights, labels, mu)
        assert f < 1e-6 * np.vdot(Ymu, Ymu)
        assert rep.objective_trace[-1] == pytest.approx(f, rel=1e-12)
        assert rep.objective_trace[0] == pytest.approx(objective(X, W0, labels, mu), rel=1e-12)


class TestDesignReuse:
    """A design shared across solves forms X.T X once, whatever the labels."""

    @staticmethod
    def _instance(case):
        rng = np.random.default_rng(40)
        if case == "rank_deficient":
            m, d, dbar, k = 60, 12, 4, 3
            X = rng.standard_normal((m, d))
            X[:, 5] = X[:, 2]  # duplicated column
            X[:, 7] = 0.0  # all-zero column
        elif case == "dbar_below_k":
            # d + dbar <= m < d + k: tall, with fewer projected dimensions than clusters
            m, d, dbar, k = 13, 10, 2, 5
            X = rng.standard_normal((m, d))
        else:
            m, d, dbar, k = 50, 8, 3, 3
            X = rng.standard_normal((m, d))
        X /= spectral_norm(X)
        labels = rng.integers(0, k, m)
        labels[:k] = np.arange(k)
        changed = labels.copy()
        changed[k:] = rng.integers(0, k, m - k)
        assert not np.array_equal(changed, labels)
        mus = [rng.standard_normal((k, dbar)) for _ in range(2)]
        # first solve, the same labels with a new mu, then changed labels
        return X, [(labels, mus[0]), (labels, mus[1]), (changed, mus[1])]

    @pytest.mark.parametrize("accelerated", [False, True])
    @pytest.mark.parametrize("case", ["full_rank", "rank_deficient", "dbar_below_k"])
    def test_matches_fresh_calls(self, monkeypatch, accelerated, case):
        X, solves = self._instance(case)
        solve = solve_weights_fista if accelerated else solve_weights_ista
        d, dbar = X.shape[1], solves[0][1].shape[1]
        eta, n_iters = 1.2, 60
        W0 = default_weight_init(d, dbar, eta)
        design = ksparse.solver._Design(X)
        counts = []
        for labels, mu in solves:
            with monkeypatch.context() as patch:
                shapes = _gram_spy(patch)
                shared = solve(design, labels, mu, W0, n_iters, eta, sigma_max=1.0)
                counts.append(len(shapes))
            fresh = solve(X, labels, mu, W0, n_iters, eta, sigma_max=1.0)
            np.testing.assert_allclose(shared.final_weights, fresh.final_weights, rtol=1e-12)
            np.testing.assert_allclose(shared.objective_trace, fresh.objective_trace, rtol=1e-12)
            ref_W, ref_trace = projected_gradient_reference(
                X, labels, mu, W0, n_iters, 1.0, eta, accelerated
            )
            np.testing.assert_allclose(shared.final_weights, ref_W, rtol=1e-12)
            np.testing.assert_allclose(shared.objective_trace, ref_trace, rtol=1e-12)
            W0 = shared.final_weights
        # formed for the first solve, reused for a new mu and for new labels
        assert counts == [1, 0, 0]
