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
from bayesmar.core import LAPLACE_MODEL, SCALE_FLOOR, DegenerateDataError, fit_window, lag_design

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
    # the scale floor of noiseless_series at order 2: SCALE_FLOOR on the fit's
    # window, mapped back by 2^e
    *_, e = fit_window(noiseless_series().values, 2, 3)
    return math.ldexp(SCALE_FLOOR, e)


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
        # beta = 0 at SCALE_FLOOR itself, as the window is all 0 (S_med = 0 no
        # longer divides the gap by zero), and least squares finds the design
        # rank-deficient
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
        # rounded Laplace walks, each order fitted alone, and small-integer-step
        # walks, each as one order-1-8 ensemble, repeat design rows and
        # residuals, so the optimum is often a face: every fit is still a
        # vertex of it (at least k zero residuals) with the primal objective.
        # The naive subgradient check (basis multipliers of the residuals'
        # signs within [-1, 1]) rejects many of these optimal fits
        rng = np.random.default_rng(2024)
        fits = [(y, order, order + 1, fit_l1(TimeSeries(y), order, start=order + 1))
                for y in (np.round(np.cumsum(rng.laplace(0.0, 2.0, 60))) for _ in range(20))
                for order in range(1, 5)]
        for y in (100.0 + np.cumsum(rng.integers(-2, 3, 80)) for _ in range(10)):
            ensemble, _ = mle_fit.point_fits(TimeSeries(y), range(1, 9), 9, ErrorFamily.LAPLACE)
            fits += [(y, order, 9, fit) for order, fit in enumerate(ensemble, 1)]
        naive_rejects = 0
        for y, order, start, fit in fits:
            X, targets = lag_design(y, order, start)
            oracle_obj = float(LAPLACE_MODEL.objective(targets - X @ primal_l1_oracle(X, targets)))
            assert fit.objective == pytest.approx(oracle_obj, rel=1e-13)
            resid = targets - X @ fit.coeff.beta
            assert (np.abs(resid) <= 1e-12 * np.abs(targets).max()).sum() >= order + 1
            basis = np.argsort(np.abs(resid), kind="stable")[: order + 1]
            rest = np.setdiff1d(np.arange(targets.size), basis)
            try:
                d_basis = np.linalg.solve(X[basis].T, -X[rest].T @ np.sign(resid[rest]))
                naive_rejects += np.abs(d_basis).max() > 1.0 + 1e-9
            except np.linalg.LinAlgError:
                naive_rejects += 1
        assert naive_rejects > 0

    def test_a_bad_start_is_repaired(self, monkeypatch):
        # beta = 0 and d = 0 from the interior point: the crossover pivots
        # from the k rows nearest 0 to the optimum of every order
        y = TimeSeries(100 + np.cumsum(np.random.default_rng(0).laplace(0.3, 1, 80)))
        fits, _ = mle_fit.point_fits(y, range(1, 5), 5, ErrorFamily.LAPLACE)
        monkeypatch.setattr(mle_fit, "_frisch_newton", lambda X, targets, masks: (
            np.zeros((len(masks), targets.size)), np.zeros(masks.shape)))
        repaired, _ = mle_fit.point_fits(y, range(1, 5), 5, ErrorFamily.LAPLACE)
        for fit, fit_r in zip(fits, repaired):
            assert fit_r.objective == pytest.approx(fit.objective, rel=1e-12)

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


class TestSolveNormal:
    def test_a_singular_matrix_ridges_only_itself(self):
        # a stack of one exactly singular and one regular matrix: the ridge
        # retry touches only the singular one, so the regular one keeps its
        # lone solution bit for bit
        singular = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        regular = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.25], [0.5, 0.25, 2.0]])
        rhs = np.array([[1.0, 2.0, 3.0], [0.3, -0.7, 0.11]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(singular, rhs[0])
        out = mle_fit._solve_normal(np.stack([singular, regular]), rhs)
        assert np.array_equal(out[1], np.linalg.solve(regular, rhs[1]))
        assert np.isfinite(out[0]).all()


class TestBatchIndependence:
    """An order fitted in its ensemble equals the same order fitted alone on
    the same window: the batch moves only the interior point's last bits."""

    @pytest.mark.parametrize("length, max_order", [(200, 20), (100, 8)], ids=["T200-K20", "T100-K8"])
    def test_study_ensembles_equal_lone_fits(self, length, max_order):
        config = SimStudyConfig()
        orders = range(1, max_order + 1)
        for seed in range(10):
            y = simulate_series(config.true_beta, config.error, length, burn=0, seed=seed)
            fits, bics = mle_fit.point_fits(y, orders, max_order + 1, ErrorFamily.LAPLACE)
            for p, fit, bic in zip(orders, fits, bics):
                (lone,), (lone_bic,) = mle_fit.point_fits(y, [p], max_order + 1, ErrorFamily.LAPLACE)
                assert np.array_equal(fit.coeff.beta, lone.coeff.beta), (seed, p)
                assert (fit.scale, fit.objective, bic) == (lone.scale, lone.objective, lone_bic), (seed, p)

    def test_an_order_that_once_failed_in_its_batch_certifies_there(self, monkeypatch):
        # the ill-conditioned last steps of this batch end order 18's interior
        # point on a neighbouring vertex; the crossover pivots from there to
        # the optimum, in the one ensemble solve, and equals the lone fit
        config = SimStudyConfig()
        y = simulate_series(config.true_beta, config.error, 200, burn=0, seed=(5039, 0))
        solves = []
        solver = mle_fit._frisch_newton

        def counting_solver(X, targets, masks):
            solves.append(masks.shape)
            return solver(X, targets, masks)

        with monkeypatch.context() as patch:
            patch.setattr(mle_fit, "_frisch_newton", counting_solver)
            fits, bics = mle_fit.point_fits(y, range(1, 21), 21, ErrorFamily.LAPLACE)
        assert solves == [(20, 21)]
        (lone,), (lone_bic,) = mle_fit.point_fits(y, [18], 21, ErrorFamily.LAPLACE)
        assert np.array_equal(fits[17].coeff.beta, lone.coeff.beta)
        assert (fits[17].scale, fits[17].objective, bics[17]) == (lone.scale, lone.objective, lone_bic)

    def test_an_order_that_fails_alone_too_names_itself(self, monkeypatch):
        monkeypatch.setattr(mle_fit, "_certified_beta", lambda X, targets, d, beta_ip: (None, 2e-6)
                            if X.shape[1] == 3 else (beta_ip, 0.0))
        y = simulate_series(SimStudyConfig().true_beta, ErrorFamily.LAPLACE, 100, burn=0, seed=1)
        with pytest.raises(RuntimeError, match=r"orders \[2\]: duality gap 2.0e-06"):
            mle_fit.point_fits(y, range(1, 5), 5, ErrorFamily.LAPLACE)

    def test_tied_integer_ensembles_match_lone_objectives(self):
        # the walks of TestCertificate: where ties leave the optimum non-unique
        # the certified beta may differ, but not its objective
        rng = np.random.default_rng(2024)
        for _ in range(20):
            y = TimeSeries(np.round(np.cumsum(rng.laplace(0.0, 2.0, 60))))
            fits, _ = mle_fit.point_fits(y, range(1, 5), 5, ErrorFamily.LAPLACE)
            for p, fit in zip(range(1, 5), fits):
                (lone,), _ = mle_fit.point_fits(y, [p], 5, ErrorFamily.LAPLACE)
                assert fit.objective == pytest.approx(lone.objective, rel=1e-12)

    def test_betas_are_zero_outside_their_masks(self):
        config = SimStudyConfig()
        y = simulate_series(config.true_beta, config.error, 100, burn=0, seed=0)
        X, targets, _ = fit_window(y.values, 8, 9)
        masks = np.arange(9) <= np.arange(1, 9)[:, None]
        _, betas = mle_fit._frisch_newton(X, targets, masks)
        assert not betas[~masks].any()


class TestMagnitude:
    """``_l1_fits`` fits each window at 2^(-e) y, e the binary exponent of its
    largest |value|, and maps the intercept and objective back exactly."""

    @pytest.mark.parametrize("k", [1010, 1015])
    def test_fits_near_the_float_maximum_follow_the_data_units(self, k):
        # at 2^1015 the window's median and spread overflowed in the data's
        # units; now the lags are bit-equal and the rest scales by 2^k exactly
        y = 100 + np.cumsum(np.random.default_rng(3).laplace(0.3, 1, 80))
        base = build_ensemble(TimeSeries(y), 4, ErrorFamily.LAPLACE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = build_ensemble(TimeSeries(np.ldexp(y, k)), 4, ErrorFamily.LAPLACE)
        assert scaled.map_order == base.map_order
        for fit, fit_k in zip(base.fits, scaled.fits):
            assert np.array_equal(fit_k.coeff.beta[1:], fit.coeff.beta[1:])
            assert fit_k.coeff.beta[0] == math.ldexp(fit.coeff.beta[0], k)
            assert fit_k.objective == math.ldexp(fit.objective, k)
            assert fit_k.scale == math.ldexp(fit.scale, k)

    def test_an_intercept_that_overflows_names_its_order(self):
        # a walk alternating about 3/4 of the largest float: its AR(1) lag is
        # near -1, so the intercept is near 1.5x the largest float
        t = np.arange(60)
        noise = np.random.default_rng(0).laplace(size=60)
        y = 0.75 * np.finfo(float).max * (1 + 0.1 * (-1.0) ** t + 0.01 * noise)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateDataError, match=r"orders \[1\]: the intercept or objective overflows"):
                mle_fit.point_fits(TimeSeries(y), (1, 2), 3, ErrorFamily.LAPLACE)


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
