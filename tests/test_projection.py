import warnings

import numpy as np
import pytest

from ksparse.projection import _shrink, _tau_scan, project_l1_ball, project_simplex

from oracles import l1_projection_oracle


def _assert_shrink(w, eta):
    """``_shrink`` gives the public projection's bits and the threshold it applied."""
    P, tau = _shrink(w, eta)
    np.testing.assert_array_equal(P, project_l1_ball(w, eta))
    a = np.abs(w)
    if a.sum() <= eta:
        assert tau == 0.0
    kept = P != 0.0
    # kept entries are shrunk by tau, and every other entry is at most tau
    np.testing.assert_allclose(np.abs(P[kept]), a[kept] - tau, rtol=0, atol=1e-15 * a.max())
    assert np.all(a[~kept] <= tau)
    for bad in (np.nan, np.inf, -np.inf):
        v = w.copy()
        v.flat[v.size // 2] = bad
        with pytest.raises(ValueError, match="^input contains NaN or Inf entries$"):
            _shrink(v, eta)


class TestSimplex:
    def test_already_on_simplex(self):
        np.testing.assert_allclose(project_simplex(np.array([0.5, 0.5]), 1.0), [0.5, 0.5])

    def test_symmetric_pair(self):
        np.testing.assert_allclose(project_simplex(np.array([1.0, 1.0]), 1.0), [0.5, 0.5])

    def test_threshold_example(self):
        # breakpoint scan: support {3} gives tau=1, sum max(v-1,0)=2, valid
        np.testing.assert_allclose(project_simplex(np.array([3.0, 1.0]), 2.0), [2.0, 0.0])

    def test_negative_entries_allowed(self):
        w = project_simplex(np.array([-3.0, -5.0]), 2.0)
        np.testing.assert_allclose(w, [2.0, 0.0])

    def test_feasibility_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = rng.integers(1, 40)
            v = rng.uniform(-4, 4, n)
            eta = rng.uniform(0.01, 5.0)
            w = project_simplex(v, eta)
            assert np.all(w >= 0)
            assert abs(w.sum() - eta) <= 1e-12 * max(1.0, eta)

    def test_bad_eta(self):
        with pytest.raises(ValueError):
            project_simplex(np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            project_simplex(np.array([1.0]), -1.0)
        for eta, shown in ((np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf")):
            with pytest.raises(ValueError, match=f"^eta must be positive and finite, got {shown}$"):
                project_simplex(np.array([1.0, 2.0]), eta)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            project_simplex(np.array([np.nan, 1.0]), 1.0)

    def test_sum_overflow(self):
        # finite entries whose sum overflows; a warning would fail the test
        w = project_simplex(np.array([1e308, 1e308, 1.0]), 1.0)
        np.testing.assert_array_equal(w, [0.5, 0.5, 0.0])
        rng = np.random.default_rng(9)
        for _ in range(50):
            v = rng.uniform(-1.9, 1.9, rng.integers(20, 40))
            eta = rng.uniform(0.01, 1.5)
            # |v| sums above 4, which overflows at 2**1022; scaling by a power
            # of two is exact, so the projection scales with it
            assert np.abs(v).sum() > 4
            got = project_simplex(np.ldexp(v, 1022), np.ldexp(eta, 1022))
            assert np.all(np.isfinite(got))
            np.testing.assert_allclose(
                np.ldexp(got, -1022), project_simplex(v, eta), rtol=0, atol=1e-14 * eta
            )
            assert np.ldexp(got.sum(), -1022) == pytest.approx(eta, rel=1e-12)

    def test_sum_overflow_to_minus_inf(self):
        # the first pass's sum is -inf, which keeps every entry: no usable threshold
        v = np.array([-1e308, -1e308, 1.0])
        with np.errstate(over="ignore"):
            assert _tau_scan(v, 1.0) is None
        np.testing.assert_array_equal(project_simplex(v, 1.0), [0.0, 0.0, 1.0])

    def test_budget_below_rounding(self):
        # as in TestL1Ball::test_budget_below_rounding; a warning would fail the test
        out = project_simplex(np.array([1.0, 1.0]), 1e-20)
        assert np.all(np.isfinite(out))
        assert out.sum() == pytest.approx(1e-20, rel=1e-15)
        np.testing.assert_allclose(out, [5e-21, 5e-21], rtol=1e-15)


class TestL1Ball:
    def test_interior_unchanged(self):
        w = np.array([0.2, -0.3])
        np.testing.assert_array_equal(project_l1_ball(w, 1.0), w)
        _assert_shrink(w, 1.0)

    def test_sign_restoration(self):
        np.testing.assert_allclose(project_l1_ball(np.array([-3.0, 1.0]), 2.0), [-2.0, 0.0])

    def test_symmetry_and_signs(self):
        np.testing.assert_allclose(
            project_l1_ball(np.array([1.0, -1.0, 0.0]), 1.0), [0.5, -0.5, 0.0]
        )

    def test_zero_fixed_point(self):
        for eta in (1e-6, 1.0, 1e6):
            np.testing.assert_array_equal(project_l1_ball(np.zeros(4), eta), np.zeros(4))

    def test_idempotent_exactly(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            w = rng.uniform(-5, 5, rng.integers(1, 30))
            eta = rng.uniform(0.05, 3.0)
            once = project_l1_ball(w, eta)
            twice = project_l1_ball(once, eta)
            np.testing.assert_array_equal(once, twice)

    def test_matches_active_set_oracle(self):
        rng = np.random.default_rng(3)
        cases = [
            (rng.uniform(-5, 5, rng.integers(2, 21)), rng.uniform(0.01, 3.0))
            for _ in range(300)
        ]
        # working size (d x dbar at paper scale): random, exact ties in |w|,
        # and mostly exact zeros
        cases.append((rng.uniform(-5, 5, (5000, 8)), 3.0))
        cases.append((0.25 * rng.integers(-3, 4, (5000, 8)), 3.0))
        sparse = rng.uniform(-5, 5, (5000, 8)) * (rng.random((5000, 8)) < 0.05)
        cases.append((sparse, 0.5 * np.abs(sparse).sum()))
        # the same vectors and matrices inside the ball: eta above their l1 norm
        cases += [(w, 1.5 * np.abs(w).sum()) for w, _ in cases[:20] + cases[-3:]]
        for w, eta in cases:
            got = project_l1_ball(w, eta).ravel(order="F")
            want = l1_projection_oracle(w.ravel(order="F"), eta)
            assert np.linalg.norm(got - want) <= 1e-9
            _assert_shrink(w, eta)

    def test_no_better_feasible_point(self):
        # sampled competitors never come closer than the projection
        rng = np.random.default_rng(4)
        for dim in (2, 5, 20):
            w = rng.uniform(-5, 5, dim)
            eta = rng.uniform(0.1, 2.0)
            p = project_l1_ball(w, eta)
            # uniform in the l1 ball: simplex point, random signs, radius
            e = rng.exponential(size=(10_000, dim))
            z = e / e.sum(axis=1, keepdims=True)
            z *= np.where(rng.random((10_000, dim)) < 0.5, -1.0, 1.0)
            z *= eta * rng.random((10_000, 1)) ** (1.0 / dim)
            dists = np.linalg.norm(z - w, axis=1)
            assert np.linalg.norm(p - w) <= dists.min() + 1e-9

    def test_nonexpansive(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = rng.integers(1, 25)
            u = rng.uniform(-4, 4, n)
            v = rng.uniform(-4, 4, n)
            eta = rng.uniform(0.05, 3.0)
            pu = project_l1_ball(u, eta)
            pv = project_l1_ball(v, eta)
            assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-12

    def test_sparsity_monotone_in_eta(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            w = rng.uniform(-3, 3, 40)
            etas = np.sort(rng.uniform(0.01, np.abs(w).sum(), 8))[::-1]
            nnz = [np.count_nonzero(project_l1_ball(w, e)) for e in etas]
            assert all(a >= b for a, b in zip(nnz, nnz[1:]))

    def test_matrix_input_column_major(self):
        rng = np.random.default_rng(7)
        W = rng.uniform(-2, 2, (6, 4))
        eta = 1.5
        out = project_l1_ball(W, eta)
        assert out.shape == W.shape
        flat = project_l1_ball(W.ravel(order="F"), eta)
        np.testing.assert_array_equal(out, flat.reshape(W.shape, order="F"))
        assert np.abs(out).sum() <= eta * (1 + 1e-12)

    def test_budget_met_when_active(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            w = rng.uniform(-5, 5, 15)
            eta = 0.25 * np.abs(w).sum()
            out = project_l1_ball(w, eta)
            assert abs(np.abs(out).sum() - eta) <= 1e-12 * max(1.0, eta)

    def test_magnitude_sum_overflow(self):
        # finite entries whose l1 norm overflows; a warning would fail the test
        out = project_l1_ball(np.array([1e308, -1e308, 1.0]), 1.0)
        np.testing.assert_array_equal(out, [0.5, -0.5, 0.0])
        rng = np.random.default_rng(10)
        for shape in [(17,), (40,), (40, 3)]:
            w = rng.uniform(-1.9, 1.9, shape)
            eta = rng.uniform(0.05, 1.5)
            # as in TestSimplex::test_sum_overflow
            assert np.abs(w).sum() > 4
            got = project_l1_ball(np.ldexp(w, 1022), np.ldexp(eta, 1022))
            assert got.shape == w.shape and np.all(np.isfinite(got))
            np.testing.assert_allclose(
                np.ldexp(got, -1022), project_l1_ball(w, eta), rtol=0, atol=1e-14 * eta
            )
            assert np.ldexp(np.abs(got).sum(), -1022) == pytest.approx(eta, rel=1e-12)

    # eta below the rounding of the entries it is shared among: a pass of the
    # scan keeps no entry, and the gap scan gives the output; a warning would
    # fail the test
    @pytest.mark.parametrize("w, eta, want", [
        ([1e17, 0.0], 1.0, [1.0, 0.0]),
        ([1e16, 3.0], 1.0, [1.0, 0.0]),
        ([1e6, 1e6], 1e-11, [5e-12, 5e-12]),
        ([1e300, 1e300], 1.0, [0.5, 0.5]),
    ])
    def test_budget_below_rounding(self, w, eta, want):
        out = project_l1_ball(np.array(w), eta)
        shrunk, tau = _shrink(np.array(w), eta)
        assert np.all(np.isfinite(out))
        assert out.sum() == pytest.approx(eta, rel=1e-15)
        np.testing.assert_allclose(out, want, rtol=1e-15)
        np.testing.assert_array_equal(shrunk, out)
        assert 0.0 < tau < np.inf

    def test_bad_eta(self):
        with pytest.raises(ValueError):
            project_l1_ball(np.ones(3), 0.0)
        for eta, shown in ((np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf")):
            with pytest.raises(ValueError, match=f"^eta must be positive and finite, got {shown}$"):
                project_l1_ball(np.ones((3, 2)), eta)


def _scale_sweep():
    """Seeded vectors with max|v| from 2^-1000 to 2^1000 and eta / max|v| from 2^-60 to 2^10.

    Every other vector spreads its magnitudes over 30 binades below the largest.
    """
    rng = np.random.default_rng(14)
    for e in range(-1000, 1001, 50):
        for r in range(-60, 11, 5):
            for spread in (0, 30):
                n = rng.integers(2, 60)
                v = rng.uniform(-1, 1, n) * np.exp2(-rng.integers(0, spread + 1, n))
                v = np.ldexp(v, e)
                yield v, float(np.abs(v).max() * 2.0**r)


def _rounding(v):
    """The rounding of one entry at the scale of max|v|, or of the smallest subnormal."""
    return np.finfo(float).eps * np.abs(v).max() + np.finfo(float).smallest_subnormal


def _budget_rounding(v, eta):
    """The rounding of a sum of ``v.size`` outputs that meets ``eta``."""
    return v.size * (np.finfo(float).eps * eta + np.finfo(float).smallest_subnormal)


class TestScaleSweep:
    """The l1 projection at every float scale, to rounding at the scale of max|v|.

    Outside the ball a kept entry is ``|v| - tau``, whose rounding is that of
    ``|v|`` however small ``eta`` is.  The outputs still sum to ``eta`` to
    its own rounding, as do the simplex projection's.
    """

    def test_oracle_holds(self):
        # the optimality conditions, with the oracle's threshold read off its support
        for v, eta in _scale_sweep():
            x = l1_projection_oracle(v, eta)
            a = np.abs(v)
            if a.sum() <= eta:
                np.testing.assert_array_equal(x, v)
                continue
            unit = _rounding(v)
            kept = x != 0.0
            np.testing.assert_array_equal(np.sign(x[kept]), np.sign(v[kept]))
            # an eta below the rounding of max|v| may leave no entry kept
            tau = np.mean(a[kept] - np.abs(x[kept])) if kept.any() else a.max()
            np.testing.assert_allclose(np.abs(x[kept]), a[kept] - tau, rtol=0, atol=unit)
            assert np.all(a[~kept] <= tau + unit)
            assert abs(np.abs(x).sum() - eta) <= v.size * unit

    def test_matches_oracle(self):
        gap_scans = threshold_scans = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for v, eta in _scale_sweep():
                P, tau = _shrink(v, eta)
                np.testing.assert_array_equal(project_l1_ball(v, eta), P)
                assert np.all(np.isfinite(P))
                a = np.abs(v)
                if a.sum() <= eta:
                    np.testing.assert_array_equal(P, v)
                    continue
                unit = _rounding(v)
                np.testing.assert_allclose(P, l1_projection_oracle(v, eta), rtol=0, atol=2 * unit)
                assert abs(np.abs(P).sum() - eta) <= _budget_rounding(v, eta)
                kept = P != 0.0
                np.testing.assert_allclose(np.abs(P[kept]), a[kept] - tau, rtol=0, atol=unit)
                assert np.all(a[~kept] <= tau)
                assert abs(project_simplex(v, eta).sum() - eta) <= _budget_rounding(v, eta)
                scanned = _tau_scan(a, eta)
                gap_scans += scanned is None or scanned > eta
                threshold_scans += scanned is not None and scanned <= eta
        # both the threshold scan and the gap scan give outputs
        assert gap_scans > 0 and threshold_scans > 0


class TestThresholdGuess:
    """A scan started from a guess below tau gives the cold scan's bits."""

    @staticmethod
    def _cases():
        rng = np.random.default_rng(11)
        cases = [(rng.uniform(0, 5, rng.integers(2, 60)), rng.uniform(0.01, 3.0))
                 for _ in range(300)]
        for a in (np.abs(rng.standard_normal(40000)), 0.25 * rng.integers(0, 4, 40000),
                  np.abs(rng.uniform(-5, 5, 40000)) * (rng.random(40000) < 0.05)):
            cases += [(a, eta) for eta in (0.5, 3.0, 0.5 * a.sum())]
        return [(a, eta) for a, eta in cases if a.sum() > eta]

    def test_guess_below_tau(self):
        for a, eta in self._cases():
            tau = _tau_scan(a, eta)
            for f in (1e-6, 0.5, 0.9, 0.999, 1.0 - 1e-12):
                assert _tau_scan(a, eta, f * tau) == tau

    def test_guess_at_or_above_tau_falls_back(self):
        for a, eta in self._cases():
            tau = _tau_scan(a, eta)
            # at tau the excess is eta itself, inside the margin: the scan starts cold
            for lo in (tau, np.nextafter(tau, 0.0), 1.1 * tau, 2.0 * a.max()):
                assert _tau_scan(a, eta, lo) == tau

    def test_shrink_with_guess(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            W = rng.uniform(-5, 5, (rng.integers(1, 300), 8))
            eta = rng.uniform(0.05, 0.5) * np.abs(W).sum()
            P, tau = _shrink(W, eta)
            for lo in (0.9 * tau, 2.0 * tau):
                P_lo, tau_lo = _shrink(W, eta, lo)
                assert tau_lo == tau
                np.testing.assert_array_equal(P_lo, P)
