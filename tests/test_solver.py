import inspect
import tracemalloc

import numpy as np
import pytest

import ksparse.solver
import ksparse.driver
from ksparse.core import centroids, objective, spectral_norm
from ksparse.driver import SolverConfig, k_sparse
from ksparse.projection import project_l1_ball
from oracles import fw_gap, projected_gradient_reference
from ksparse.solver import (
    _solve_to_gap,
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
    # eta=0.1 runs the wide 30 x 40 instance through X; eta=3 runs the tall
    # 40 x 30 one on X.T X
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
    """The solver's product layouts and gradient recombination change rounding only."""

    @pytest.mark.parametrize("accelerated", [False, True])
    # eta=0.3 runs the wide 30 x 40 instance through X; eta=10 runs the tall
    # 40 x 30 one on X.T X
    @pytest.mark.parametrize("eta", [0.3, 10.0])
    def test_matches_reference_loop(self, accelerated, eta):
        m, d = (30, 40) if eta < 1.0 else (40, 30)
        X, labels, mu = _instance(16, m=m, d=d, dbar=4, k=3)
        W0 = default_weight_init(d, 4, eta)
        solve = solve_weights_fista if accelerated else solve_weights_ista
        ref_W, ref_trace = projected_gradient_reference(
            X, labels, mu, W0, 60, 1.0, eta, accelerated
        )
        reports = [
            solve(Xo, labels, mu, W0, 60, eta, sigma_max=1.0)
            for Xo in (np.ascontiguousarray(X), np.asfortranarray(X))
        ]
        for rep in reports:
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


class _Counted(np.ndarray):
    """A view of X or a Gram that logs every product that it, or a slice of it, enters."""

    def __array_finalize__(self, obj):
        self.log = getattr(obj, "log", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            self.log.append(("matmul",) + tuple(a.shape for a in inputs))
        inputs = [a.view(np.ndarray) if isinstance(a, _Counted) else a for a in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


def _gap_solves():
    """Wide screening instances and tall ones, at two budgets each."""
    for seed in range(4):
        for eta in (0.2, 1.0):
            yield _screening_instance(seed) + (eta,)
            yield _screening_instance(seed, m=120, d=60) + (eta,)


def _set_spy(patch):
    """Record the rows of every working set the gap-stopped solve takes; returns the list."""
    sets = []
    working_set = ksparse.solver._working_set

    def spy(W, G):
        sets.append(working_set(W, G))
        return sets[-1]

    patch.setattr(ksparse.solver, "_working_set", spy)
    return sets


class TestWorkingSet:
    """The gap-stopped solve: rounds on working sets chosen by the gradient."""

    @pytest.mark.parametrize("n_iters", [300, 5000])
    def test_stops_at_the_gap(self, n_iters):
        # the endpoint is within the gap of 1e-2 f, or the cap ended the solve;
        # with room to spare, every solve stops by its gap
        for X, labels, mu, eta in _gap_solves():
            W0 = default_weight_init(X.shape[1], 3, eta)
            rep = _solve_to_gap(X, labels, mu, W0, n_iters, eta)
            f = objective(X, rep.final_weights, labels, mu)
            gap = fw_gap(X, mu[labels], rep.final_weights, eta)
            assert rep.iterations_run <= n_iters
            assert gap <= 1e-2 * f * (1.0 + 1e-9) or rep.iterations_run == n_iters
            if n_iters == 5000:
                assert rep.iterations_run < n_iters
            assert np.abs(rep.final_weights).sum() <= eta * (1.0 + 1e-12)

    # a wide instance through X, and a tall one on X.T X
    @pytest.mark.parametrize("m, d", [(30, 40), (60, 12)])
    def test_frank_wolfe_bound(self, m, d):
        # the gap at the endpoint bounds its distance to the optimum, which a
        # long ISTA run approaches from above
        for seed in range(3):
            X, labels, mu = _instance(40 + seed, m=m, d=d, dbar=3, k=3)
            for eta in (0.3, 1.0):
                W0 = default_weight_init(d, 3, eta)
                rep = _solve_to_gap(X, labels, mu, W0, 300, eta)
                long = solve_weights_ista(X, labels, mu, W0, 20000, eta, sigma_max=1.0)
                f = objective(X, rep.final_weights, labels, mu)
                gap = fw_gap(X, mu[labels], rep.final_weights, eta)
                f_star = objective(X, long.final_weights, labels, mu)
                assert rep.objective_trace[-1] == pytest.approx(f, rel=1e-12)
                # less the rounding of two objectives that agree to about 1e-14
                assert f - f_star <= gap + 1e-12 * f
                assert gap <= 1e-2 * f * (1.0 + 1e-9)

    def test_rows_outside_the_last_set_are_zero(self, monkeypatch):
        for seed in range(4):
            X, labels, mu = _screening_instance(seed)
            d = X.shape[1]
            with monkeypatch.context() as patch:
                sets = _set_spy(patch)
                rep = _solve_to_gap(X, labels, mu, default_weight_init(d, 3, 1.0), 300, 1.0)
            assert sets and sets[-1].size < d
            outside = np.setdiff1d(np.arange(d), sets[-1])
            assert np.all(rep.final_weights[outside] == 0.0)
            # the start's gradient, and one per round on a set
            assert rep.full_gradients == len(sets) + 1

    def test_zero_iterations(self):
        # a cap of 0 returns the projected start: wide, then tall
        for m, d in ((30, 400), (120, 60)):
            X, labels, mu = _screening_instance(5, m=m, d=d)
            for W0 in (default_weight_init(d, 3, 1.0), np.full((d, 3), 0.01)):
                rep = _solve_to_gap(X, labels, mu, W0, 0, 1.0)
                assert rep.iterations_run == 0
                np.testing.assert_array_equal(rep.final_weights, project_l1_ball(W0, 1.0))
                assert rep.objective_trace.shape == (1,)
                f = objective(X, project_l1_ball(W0, 1.0), labels, mu)
                assert rep.objective_trace[0] == pytest.approx(f, rel=1e-12)

    def test_round_trace_never_rises(self):
        # a wide solve's trace holds the objective at the start and after each
        # kept round
        rounds = []
        for seed in range(4):
            for eta in (0.2, 1.0):
                X, labels, mu = _screening_instance(seed)
                rep = _solve_to_gap(X, labels, mu, default_weight_init(400, 3, eta), 300, eta)
                assert np.all(np.diff(rep.objective_trace) <= 0.0)
                rounds.append(rep.objective_trace.size)
        assert max(rounds) >= 3

    def test_tall_trace_is_one_run(self):
        # a tall solve is one FISTA run, which may rise: its trace has an entry
        # per step, every step forms the full gradient, and the first and last
        # entries are the objective at the projected start and at the endpoint
        for seed in range(4):
            for eta in (0.2, 1.0):
                X, labels, mu = _screening_instance(seed, m=120, d=60)
                W0 = default_weight_init(60, 3, eta)
                rep = _solve_to_gap(X, labels, mu, W0, 300, eta)
                assert rep.objective_trace.size == rep.iterations_run + 1
                assert rep.full_gradients == rep.iterations_run
                f0 = objective(X, project_l1_ball(W0, eta), labels, mu)
                f = objective(X, rep.final_weights, labels, mu)
                assert rep.objective_trace[0] == pytest.approx(f0, rel=1e-12)
                assert rep.objective_trace[-1] == pytest.approx(f, rel=1e-12)

    def test_engages_when_d_much_larger_than_m(self, monkeypatch):
        X, labels, mu = _screening_instance(3)
        sets = _set_spy(monkeypatch)
        rep = _solve_to_gap(X, labels, mu, default_weight_init(400, 3, 1.0), 300, 1.0)
        assert sets and max(rows.size for rows in sets) < 400
        assert rep.iterations_run > 0

    # 30 x 900: every set, at least 64 rows, is above 2 m; 60 x 400 at a small
    # budget keeps its sets within 2 m
    @pytest.mark.parametrize("m, d, eta", [(30, 900, 1.0), (60, 400, 0.2)])
    def test_set_products(self, monkeypatch, m, d, eta):
        # a set of at most 2 m rows steps on its own Gram, one product per step
        # and none on X_C; a larger one forms no Gram and steps through X_C
        # twice, which bounds its memory by that of X_C
        X, labels, mu = _screening_instance(1, m=m, d=d)
        design = ksparse.solver._Design(X)
        log = []
        design.X = design.X.view(_Counted)
        design.X.log = log
        fista = ksparse.solver._fista
        rounds = []

        def spy(product, W, *args):
            start = len(log)
            P, G, trace = fista(product, W, *args)
            rounds.append((W.shape[0], len(trace), log[start:]))
            return P, G, trace

        monkeypatch.setattr(ksparse.solver, "_fista", spy)
        _solve_to_gap(design, labels, mu, default_weight_init(d, 3, eta), 300, eta)
        assert rounds
        for n, points, products in rounds:
            if n <= 2 * m:
                assert products == []
            else:
                # the residual through X_C, then the gradient, at every point
                assert products == [
                    ("matmul", (3, n), (n, m)), ("matmul", (3, m), (m, n))
                ] * points
        sizes = [n for n, _, _ in rounds]
        assert (min(sizes) > 2 * m) == (m == 30)
        grams = [p for p in log if p[1:] == ((p[1][0], m), (m, p[1][0]))]
        assert all(p[1][0] <= 2 * m for p in grams)
        assert len(grams) == sum(n <= 2 * m for n in sizes)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_full_steps_take_a_fortran_ordered_V(self, monkeypatch, order):
        # a start inside the ball comes back from _shrink as a C-ordered copy;
        # every step's V, of the full-width loop and of the gap-stopped solve's
        # sets, is still in the Fortran order that _shrink reads fast
        shrink = ksparse.solver._shrink
        layouts = []

        def spy(V, eta, lo=0.0):
            layouts.append(V.flags.f_contiguous)
            return shrink(V, eta, lo)

        monkeypatch.setattr(ksparse.solver, "_shrink", spy)
        X, labels, mu = _screening_instance(0)
        W0 = np.asarray(default_weight_init(400, 3, 1.0), order=order)
        solve_weights_fista(X, labels, mu, W0, 60, 1.0, sigma_max=1.0)
        rep = _solve_to_gap(X, labels, mu, W0, 60, 1.0)
        # all but the two starts' projections
        assert len(layouts) == 60 + 1 + rep.iterations_run + 1
        assert all(layouts[1:61]) and all(layouts[62:])

    # an empty support, two small ones, and one within 64 rows of d
    @pytest.mark.parametrize("n_supp", [0, 5, 40, 150])
    def test_set_rule(self, n_supp):
        # the support plus the min(64, d - |supp|) other rows of largest
        # max_j |G_ij|, ascending, however small the support's own gradient
        rng = np.random.default_rng(n_supp)
        d = 200
        G = rng.standard_normal((d, 3))
        supp = rng.choice(d, n_supp, replace=False)
        W = np.zeros((d, 3), order="F")
        W[supp, rng.integers(0, 3, n_supp)] = rng.uniform(0.1, 1.0, n_supp)
        G[supp] *= 1e-6
        order = np.argsort(-np.abs(G).max(axis=1), kind="stable")
        others = order[~np.isin(order, supp)][: min(64, d - n_supp)]
        rows = ksparse.solver._working_set(W, G)
        np.testing.assert_array_equal(rows, np.sort(np.concatenate([supp, others])))
        assert rows.size == n_supp + min(64, d - n_supp)


def _through_spy(patch):
    """Record the arguments of every ``_through`` call of the solver; returns the list."""
    calls = []
    through = ksparse.solver._through

    def spy(A, B, Ymu, P):
        calls.append((A, B, Ymu, P))
        return through(A, B, Ymu, P)

    patch.setattr(ksparse.solver, "_through", spy)
    return calls


class TestSupportProducts:
    """Products with ``W`` read only the columns of ``X`` in its support, when that is small."""

    def test_match_dense_products(self, monkeypatch):
        # on a wide instance, the start's residual and gradient, and the
        # driver's Z = X @ W of every loop, equal the dense products to rounding
        X, labels, mu = _screening_instance(4)
        d = X.shape[1]
        rng = np.random.default_rng(0)
        W0 = np.zeros((d, 3))
        W0[rng.choice(d, 60, replace=False)] = rng.uniform(-0.01, 0.01, (60, 3))
        with monkeypatch.context() as patch:
            calls = _through_spy(patch)
            _solve_to_gap(X, labels, mu, W0, 0, 1.0)
        (A, B, Ymu, P), = calls
        assert A.shape == (30, 60) and B.shape == (30, d)
        G, f = ksparse.solver._through(A, B, Ymu, P)
        R = X @ W0 - Ymu
        G_dense = X.T @ R
        np.testing.assert_allclose(G, G_dense, rtol=0, atol=1e-12 * np.abs(G_dense).max())
        assert f == pytest.approx(0.5 * float(np.sum(R * R)), rel=1e-12)

        supports, products = [], []
        on_support, centroids = ksparse.driver._on_support, ksparse.driver.centroids

        def support_spy(X, W):
            X_S, W_S = on_support(X, W)
            supports.append((W, X_S.shape[1]))
            return X_S, W_S

        def centroids_spy(labels, Z, k):
            products.append(Z)
            return centroids(labels, Z, k)

        monkeypatch.setattr(ksparse.driver, "_on_support", support_spy)
        monkeypatch.setattr(ksparse.driver, "centroids", centroids_spy)
        k_sparse(X, 3, 1.0, SolverConfig(inner_iters=100, outer_loops=4, replicates=4))
        assert len(supports) == len(products) == 4
        for (W, n_columns), Z in zip(supports, products):
            assert n_columns == np.count_nonzero(W.any(axis=1)) < d // 2
            Z_dense = X @ W
            np.testing.assert_allclose(Z, Z_dense, rtol=0, atol=1e-12 * np.abs(Z_dense).max())

    # exactly half the rows, one more, and every row
    @pytest.mark.parametrize("n_supp", [200, 201, 400])
    def test_dense_from_half_the_rows(self, monkeypatch, n_supp):
        # a support of at least half the rows keeps the dense product: the
        # start's residual multiplies all of X, and so does the driver's Z
        X, labels, mu = _screening_instance(4)
        W0 = np.zeros((400, 3))
        W0[:n_supp] = 1e-3
        design = ksparse.solver._Design(X)
        calls = _through_spy(monkeypatch)
        _solve_to_gap(design, labels, mu, W0, 0, 1.0)
        assert calls[0][0] is design.X and calls[0][1] is design.X
        X_S, W_S = ksparse.driver._on_support(X, W0)
        assert X_S is X and W_S is W0


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
    comes from the m x dbar ``Y mu``.  Every step counts as full-width and
    makes one product on ``H`` and none on ``X``.  The trace's first and last
    entries are computed on ``X`` itself.
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
        W0 = default_weight_init(d, dbar, 1.5)
        # the reference solve and the gap-stopped one, one FISTA run on tall data
        for solve in (solve_weights_fista, _solve_to_gap):
            tracemalloc.start()
            try:
                rep = solve(design, labels, mu, W0, 20, 1.5)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rep.iterations_run > 0
            assert peak < m * d * 8

    @pytest.mark.parametrize("accelerated", [False, True])
    def test_one_product_per_step(self, monkeypatch, accelerated):
        # (P.T @ H).T on all of H, also at the steps whose support is under
        # half of the d rows; this budget keeps 3-7 of 12 rows
        X, labels, mu = _instance(21, m=100, d=12, dbar=3)
        m, d = X.shape
        design = ksparse.solver._Design(X)
        log, x_log = [], []
        design.gram = design.gram.view(_Counted)
        design.gram.log = log
        design.X = design.X.view(_Counted)
        design.X.log = x_log
        starts, supports = [], []
        shrink = ksparse.solver._shrink

        def spy(*args):
            starts.append((len(log), len(x_log)))
            P, tau = shrink(*args)
            supports.append(np.count_nonzero(P.any(axis=1)))
            return P, tau

        monkeypatch.setattr(ksparse.solver, "_shrink", spy)
        W0 = default_weight_init(d, 3, 8.0)
        solve = solve_weights_fista if accelerated else solve_weights_ista
        rep = solve(design, labels, mu, W0, 80, 8.0, sigma_max=1.0)
        _assert_matches_reference(rep, X, labels, mu, W0, 80, 8.0, accelerated)
        # the start's projection, then one per step; each is followed by one product
        assert len(starts) == 81
        ends = starts[1:] + [(len(log), len(x_log))]
        steps = [log[a:b] for (a, _), (b, _) in zip(starts, ends)]
        for products in steps:
            [(kind, (dbar, s), (rows, cols))] = products
            assert kind == "matmul" and dbar == 3 and s == rows == cols == d
        assert any(2 * n < d for n in supports)
        # on X, only the start's residual and b before the first step, and the
        # last trace entry after the last; no step makes a product on X
        x_steps = [x_log[a:b] for (_, a), (_, b) in zip(starts, ends)]
        residual = ("matmul", (3, d), (d, m))
        assert x_steps[0] == [residual, ("matmul", (3, m), (m, d))]
        assert x_steps[1:-1] == [[]] * 79
        assert x_steps[-1] == [residual]

    @pytest.mark.parametrize("accelerated", [False, True])
    @pytest.mark.parametrize("extra_rows, reduced", [(0, True), (-1, False)])
    def test_boundary(self, monkeypatch, accelerated, extra_rows, reduced):
        d, dbar = 10, 3
        X, labels, mu = _instance(21, m=d + dbar + extra_rows, d=d, dbar=dbar)
        shapes = _tall_run(monkeypatch, X, labels, mu, 0.8, accelerated, 60)
        assert shapes == ([(X.shape[0], d)] if reduced else [])

    @pytest.mark.parametrize("solve", [solve_weights_ista, solve_weights_fista])
    @pytest.mark.parametrize("case", ["full_rank", "rank_deficient", "dbar_below_k"])
    def test_every_step_full_width(self, solve, case):
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
