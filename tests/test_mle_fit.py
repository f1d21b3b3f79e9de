import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.optimize import linprog

from bayesmar import (
    Coefficients,
    ErrorFamily,
    SimStudyConfig,
    TimeSeries,
    build_ensemble,
    fit_l1,
    fit_ols,
    simulate_series,
)
from bayesmar import mle_fit
from bayesmar.core import LAPLACE_MODEL, DegenerateDataError, lag_design
from bayesmar.mle_fit import SCALE_FLOOR

AR2 = Coefficients.from_values([0.3, 0.75, -0.35])


def half_abs_objective(values, beta, order, start):
    X, targets = lag_design(values, order, start)
    return 0.5 * float(np.abs(targets - X @ beta).sum())


def primal_l1_oracle(X, targets):
    """Optimal beta of the primal L1 LP with split residuals (u, v >= 0, r = u - v)."""
    n, k = X.shape
    cost = np.concatenate([np.zeros(k), np.ones(2 * n)])
    a_eq = np.hstack([X, np.eye(n), -np.eye(n)])
    bounds = [(None, None)] * k + [(0.0, None)] * (2 * n)
    res = linprog(cost, A_eq=a_eq, b_eq=targets, bounds=bounds, method="highs")
    assert res.success, res.message
    return res.x[:k]


def noiseless_series(n=60):
    # zero noise from zero initial lags: the transient makes the design full rank
    return simulate_series(AR2, ErrorFamily.LAPLACE, n, burn=0, seed=0, scale=0.0)


def noiseless_floor():
    # the scale floor of noiseless_series at order 2: SCALE_FLOOR times the
    # window's largest |target|
    _, targets = lag_design(noiseless_series().values, 2, 3)
    return SCALE_FLOOR * float(np.abs(targets).max())


class TestScaleFloor:
    @pytest.mark.parametrize("k", [48, -50])
    @pytest.mark.parametrize("fit", [fit_l1, fit_ols], ids=["l1", "ols"])
    def test_follows_the_data_units(self, fit, k):
        # y -> 2^k y moves the floor, and so a noiseless fit's scale, by 2^k exactly
        y = noiseless_series()
        base = fit(y, 2, start=3)
        scaled = fit(TimeSeries(2.0**k * y.values), 2, start=3)
        assert scaled.scale == 2.0**k * base.scale == 2.0**k * noiseless_floor()

    def test_all_zero_series_is_floored_or_degenerate(self):
        # every column but the intercept is 0: the L1 fit warns and certifies
        # beta = 0 at the floor 1e-10 (S_med = 0 no longer divides the gap by
        # zero), and least squares finds the design rank-deficient
        y = TimeSeries(np.zeros(30))
        with pytest.warns(RuntimeWarning, match="rank-deficient design at order 2"):
            result = fit_l1(y, 2, start=3)
        assert result.objective == 0.0 and result.scale == SCALE_FLOOR
        with pytest.raises(DegenerateDataError, match="rank 1"):
            fit_ols(y, 2, start=3)


class TestFitL1:
    def test_recovers_noiseless_recursion(self):
        fit = fit_l1(noiseless_series(), 2, start=3)
        np.testing.assert_allclose(fit.coeff.beta, AR2.beta, atol=1e-6)
        assert fit.objective <= 1e-8
        assert fit.scale == noiseless_floor()

    def test_objective_matches_grid_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            y = rng.normal(size=20).cumsum() * 0.2
            fit = fit_l1(TimeSeries(y), 1, start=2)
            beta = fit.coeff.beta
            grid0 = beta[0] + np.linspace(-0.5, 0.5, 41)
            grid1 = beta[1] + np.linspace(-0.5, 0.5, 41)
            best = min(
                half_abs_objective(y, np.array([b0, b1]), 1, 2)
                for b0 in grid0
                for b1 in grid1
            )
            assert abs(fit.objective - best) <= 1e-8 * max(1.0, fit.objective)

    def test_tau_denominator_conventions(self):
        # tau divides the optimal objective by n + 1, not by n; rows t = 3..40 give n = 38
        y = TimeSeries(np.random.default_rng(3).normal(size=40))
        fit = fit_l1(y, 2, start=3)
        assert fit.scale == pytest.approx(fit.objective / (38 + 1), rel=1e-12)

    def test_first_order_optimality_certificate(self):
        rng = np.random.default_rng(23)
        for order in (1, 2):
            y = rng.normal(size=30)
            fit = fit_l1(TimeSeries(y), order, start=order + 1)
            s_opt = fit.objective
            for j in range(order + 1):
                for delta in (1e-4, -1e-4):
                    beta = fit.coeff.beta.copy()
                    beta[j] += delta
                    assert half_abs_objective(y, beta, order, order + 1) >= s_opt - 1e-9

    def test_median_balance_of_residual_signs(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            y = rng.normal(size=25)
            fit = fit_l1(TimeSeries(y), 1, start=2)
            X, targets = lag_design(y, 1, 2)
            resid = targets - X @ fit.coeff.beta
            tol = 1e-9 * max(1.0, float(np.abs(targets).max()))
            n = resid.size
            assert (resid > tol).sum() <= n / 2
            assert (resid < -tol).sum() <= n / 2

    def test_shift_equivariance(self):
        rng = np.random.default_rng(31)
        y = rng.normal(size=50)
        base = fit_l1(TimeSeries(y), 2, start=3)
        shifted = fit_l1(TimeSeries(y + 10.0), 2, start=3)
        np.testing.assert_allclose(shifted.coeff.beta[1:], base.coeff.beta[1:], atol=1e-7)
        expected_intercept = base.coeff.beta[0] + 10.0 * (1.0 - base.coeff.beta[1:].sum())
        assert shifted.coeff.beta[0] == pytest.approx(expected_intercept, abs=1e-6)

    def test_rank_deficient_design_warns(self):
        y = TimeSeries(np.full(20, 3.0))
        with pytest.warns(RuntimeWarning, match="rank-deficient design at order 1:"):
            fit = fit_l1(y, 1, start=2)
        assert fit.objective == pytest.approx(0.0, abs=1e-9)

    def test_window_too_small(self):
        with pytest.raises(ValueError):
            fit_l1(TimeSeries(np.array([1.0, 2.0, 0.5])), 1, start=3)


class TestPrimalOracle:
    # aligned windows of three (series length, max order): every ensemble is
    # one batched interior-point solve over all of its orders
    @pytest.mark.parametrize(
        "length, max_order",
        [(200, 20), (1000, 20), (100, 8)],
        ids=["T200-K20", "T1000-K20", "T100-K8"],
    )
    def test_study_windows_match_primal(self, monkeypatch, length, max_order):
        config = SimStudyConfig()
        solves = []
        solver = mle_fit._frisch_newton

        def counting_solver(X, targets, masks):
            solves.append(masks.shape)
            return solver(X, targets, masks)

        for i in range(3):
            series = simulate_series(
                config.true_beta, config.error, length, burn=0, seed=(config.seed, i),
            )
            solves.clear()
            with monkeypatch.context() as patch:
                patch.setattr(mle_fit, "_frisch_newton", counting_solver)
                ensemble = build_ensemble(series, max_order, ErrorFamily.LAPLACE)
            assert solves == [(max_order, max_order + 1)]
            oracle_bics = []
            for p in range(1, max_order + 1):
                X, targets = lag_design(series.values, p, max_order + 1)
                beta = primal_l1_oracle(X, targets)
                oracle_obj = float(LAPLACE_MODEL.objective(targets - X @ beta))
                for fit in (fit_l1(series, p, start=max_order + 1), ensemble.fits[p - 1]):
                    assert fit.objective == pytest.approx(oracle_obj, rel=1e-12)
                    np.testing.assert_allclose(fit.coeff.beta, beta, rtol=0, atol=1e-9)
                n = targets.size
                scale = max(LAPLACE_MODEL.point_scale(oracle_obj, n), SCALE_FLOOR)
                oracle_bics.append(LAPLACE_MODEL.bic(n, p, scale, oracle_obj))
            assert ensemble.map_order == int(np.argmin(oracle_bics)) + 1

    @pytest.mark.parametrize("order", [2, 3])
    def test_rank_deficient_objective_matches_primal(self, order):
        # alternating series: every lag column is +-the lag-1 column, so the
        # optimum (0.25) is attained on a set of betas; only S is compared
        y = np.r_[np.tile([1.0, -1.0], 15), 0.5]
        with pytest.warns(RuntimeWarning, match="rank-deficient"):
            fit = fit_l1(TimeSeries(y), order, start=order + 1)
        X, targets = lag_design(y, order, order + 1)
        oracle_obj = float(LAPLACE_MODEL.objective(targets - X @ primal_l1_oracle(X, targets)))
        assert oracle_obj == pytest.approx(0.25, rel=1e-12)
        assert fit.objective == pytest.approx(oracle_obj, rel=1e-12)


class TestCertificate:
    def test_tied_integer_fits_certify_and_match_primal(self):
        # rounded Laplace walks repeat design rows and residuals; the naive
        # subgradient check (basis multipliers within [-1, 1]) rejects many of
        # these optimal fits, the duality gap does not
        rng = np.random.default_rng(2024)
        naive_rejects = 0
        for _ in range(20):
            y = np.round(np.cumsum(rng.laplace(0.0, 2.0, 60)))
            for order in range(1, 5):
                fit = fit_l1(TimeSeries(y), order, start=order + 1)
                X, targets = lag_design(y, order, order + 1)
                oracle_obj = float(LAPLACE_MODEL.objective(targets - X @ primal_l1_oracle(X, targets)))
                assert fit.objective == pytest.approx(oracle_obj, rel=1e-12)
                resid = targets - X @ fit.coeff.beta
                basis = np.argsort(np.abs(resid), kind="stable")[: order + 1]
                rest = np.setdiff1d(np.arange(targets.size), basis)
                try:
                    d_basis = np.linalg.solve(X[basis].T, -X[rest].T @ np.sign(resid[rest]))
                    naive_rejects += np.abs(d_basis).max() > 1.0 + 1e-9
                except np.linalg.LinAlgError:
                    naive_rejects += 1
        assert naive_rejects > 0

    def test_perfect_fit_certifies(self):
        # the solver's own units: targets and lag columns less the median, over
        # the mean absolute deviation
        X, targets = lag_design(noiseless_series().values, 2, 3)
        median = float(np.median(targets))
        spread = float(np.mean(np.abs(targets - median)))
        X[:, 1:], targets = (X[:, 1:] - median) / spread, (targets - median) / spread
        masks = np.ones((1, 3), dtype=bool)
        (d,), (beta_ip,) = mle_fit._frisch_newton(X, targets, masks)
        beta, gap = mle_fit._certified_beta(X, targets, d, beta_ip)
        assert beta is not None and gap <= mle_fit.GAP_TOLERANCE
        assert float(LAPLACE_MODEL.objective(targets - X @ beta)) <= 1e-8

    @pytest.mark.parametrize("c", [1e6, 1e7, 1e8, 1e9])
    def test_offset_noiseless_fits_name_their_order_or_fit(self, c):
        # a noiseless window far from 0 leaves near-singular normal systems;
        # each solve retries with a ridge, so a fit either certifies or its
        # RuntimeError names the order, never a bare LinAlgError
        y = TimeSeries(noiseless_series().values + c)
        for order in range(1, 5):
            try:
                fit = fit_l1(y, order, start=order + 1)
            except RuntimeError as exc:
                assert f"orders [{order}]" in str(exc)
            else:
                assert np.isfinite(fit.coeff.beta).all() and fit.scale > 0


def test_package_and_cli_import_no_scipy():
    code = "import sys, bayesmar, bayesmar.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "values",
    [
        np.random.default_rng(1).laplace(size=101),
        np.random.default_rng(2).laplace(size=100),
        np.round(np.random.default_rng(3).laplace(size=60)),
        -np.abs(np.random.default_rng(4).standard_cauchy(size=7)),
        np.array([-3.0, -3.0, 5.0, 5.0]),
        np.array([2.5]),
        np.array([0.1, 0.2]),
    ],
    ids=["odd", "even", "tied", "negative-odd", "tied-even", "one", "two"],
)
def test_partition_median_equals_np_median(values):
    before = values.copy()
    assert mle_fit._median(values) == np.median(values)
    np.testing.assert_array_equal(values, before)


def test_fits_and_backtest_load_no_numpy_ma():
    # np.median's NaN check imports numpy.ma (about 2 MB); the L1 fits use a
    # partition median instead, and a backtest reads no quantile
    code = (
        "import sys, numpy as np\n"
        "from bayesmar import (BacktestSpec, ErrorFamily, McmcConfig, MethodSpec, TimeSeries,\n"
        "    build_ensemble, fit_l1, run_backtest)\n"
        "y = TimeSeries(100 + np.cumsum(np.random.default_rng(5).laplace(0.3, 1, 60)))\n"
        "build_ensemble(y, 4, ErrorFamily.LAPLACE); fit_l1(y, 2, start=3)\n"
        "run_backtest(BacktestSpec(series=y, t0=57, horizons=2, max_order=3,\n"
        "    methods=(MethodSpec(ErrorFamily.LAPLACE, 'bma'), MethodSpec(ErrorFamily.GAUSSIAN, 'map')),\n"
        "    mcmc=McmcConfig(n_total=300, n_burn=100)))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert out.stdout.strip() == "[]"


class TestFitOls:
    def test_recovers_noiseless_recursion(self):
        fit = fit_ols(noiseless_series(), 2, start=3)
        np.testing.assert_allclose(fit.coeff.beta, AR2.beta, atol=1e-5)
        assert fit.objective <= 1e-8
        assert fit.scale == noiseless_floor()

    def test_hand_computed_two_by_two_solve(self):
        # rows: (1,1)->2, (1,2)->2, (1,2)->4; normal equations give beta=(1,1),
        # predictions (2,3,3), residuals (0,-1,1), RSS=2, sigma^2 = 2/3
        y = TimeSeries(np.array([1.0, 2.0, 2.0, 4.0]))
        fit = fit_ols(y, 1, start=2)
        np.testing.assert_allclose(fit.coeff.beta, [1.0, 1.0], atol=1e-12)
        assert fit.objective == pytest.approx(2.0, abs=1e-12)
        assert fit.scale == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-12)

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(37)
        y = rng.normal(size=60)
        fit = fit_ols(TimeSeries(y), 2, start=3)
        X, targets = lag_design(y, 2, 3)
        resid = targets - X @ fit.coeff.beta
        scale = float(np.abs(X.T @ targets).max())
        assert np.all(np.abs(X.T @ resid) <= 1e-8 * max(1.0, scale))

    def test_shift_equivariance(self):
        rng = np.random.default_rng(41)
        y = rng.normal(size=50)
        base = fit_ols(TimeSeries(y), 2, start=3)
        shifted = fit_ols(TimeSeries(y - 4.0), 2, start=3)
        np.testing.assert_allclose(shifted.coeff.beta[1:], base.coeff.beta[1:], atol=1e-8)
        expected_intercept = base.coeff.beta[0] - 4.0 * (1.0 - base.coeff.beta[1:].sum())
        assert shifted.coeff.beta[0] == pytest.approx(expected_intercept, abs=1e-8)

    def test_singular_design_raises(self):
        y = TimeSeries(np.full(20, 3.0))
        with pytest.raises(np.linalg.LinAlgError):
            fit_ols(y, 1, start=2)

    def test_window_too_small(self):
        with pytest.raises(ValueError):
            fit_ols(TimeSeries(np.array([1.0, 2.0, 0.5])), 1, start=3)


class TestEstimatorAgreement:
    def test_l1_and_ols_agree_on_noiseless_data(self):
        series = noiseless_series()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            l1 = fit_l1(series, 2, start=3)
        ols = fit_ols(series, 2, start=3)
        np.testing.assert_allclose(l1.coeff.beta, ols.coeff.beta, atol=1e-5)
