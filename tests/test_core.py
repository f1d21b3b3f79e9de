import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from bayesmar import (
    GAUSSIAN_MODEL,
    LAPLACE_MODEL,
    BacktestReport,
    BacktestSpec,
    Coefficients,
    DegenerateDataError,
    ErrorFamily,
    McmcConfig,
    MleFit,
    MseStudyReport,
    OrderEnsemble,
    OrderStudyReport,
    PosteriorDraws,
    TimeSeries,
    build_ensemble,
    diff1,
    fit_l1,
    fit_ols,
    forecast_levels,
    lag_design,
    run_mh,
)
from bayesmar.core import least_squares, unscale
from bayesmar.forecast import SCALE_DIFFERENCED, ForecastResult
from bayesmar.mle_fit import point_fits

def make_series(values):
    return TimeSeries(np.asarray(values, dtype=float))


def residuals(values, beta, order, start):
    X, targets = lag_design(np.asarray(values, dtype=float), order, start)
    return targets - X @ np.asarray(beta, dtype=float)


def log_likelihood(model, resid, scale):
    """log L of the residuals, read off the model's BIC (BIC - penalty = -2 log L)
    at the family's objective, S = sum |r| / 2 (Laplace) or RSS = sum r^2 (Gaussian)."""
    resid = np.atleast_1d(np.asarray(resid, dtype=float))
    n = resid.size
    order = 1
    penalty = (order + 2) * math.log(n)
    if model is LAPLACE_MODEL:
        objective = 0.5 * float(np.abs(resid).sum())
    else:
        objective = float(resid @ resid)
    return -0.5 * (model.bic(n, order, scale, objective) - penalty)


def asymmetric_laplace_logpdf(x, mu, tau, theta):
    """Reference AL(mu, tau, theta) density: theta(1-theta)/tau exp(-(x-mu)(theta - 1[x<mu])/tau)."""
    indicator = 1.0 if x < mu else 0.0
    return math.log(theta * (1.0 - theta) / tau) - (x - mu) * (theta - indicator) / tau


class TestLaplaceLogpdf:
    """The Laplace kernel is the Laplace(0, 2 tau) density."""

    def test_zero_at_matched_scale(self):
        assert log_likelihood(LAPLACE_MODEL, 0.0, 0.25) == 0.0

    def test_direct_substitution(self):
        assert log_likelihood(LAPLACE_MODEL, 1.0, 0.5) == pytest.approx(
            -math.log(2.0) - 1.0, abs=1e-14
        )

    def test_symmetry(self):
        assert log_likelihood(LAPLACE_MODEL, -3.0, 1.0) == log_likelihood(LAPLACE_MODEL, 3.0, 1.0)

    @pytest.mark.parametrize("tau", [0.0, -1.0])
    def test_domain_error(self, tau):
        with pytest.raises(ValueError):
            LAPLACE_MODEL.bic(1, 1, tau, 0.5)

    @pytest.mark.parametrize("tau", [0.1, 1.0, 10.0])
    def test_integrates_to_one(self, tau):
        total, _ = quad(
            lambda x: math.exp(log_likelihood(LAPLACE_MODEL, x, tau)), -50 * tau, 50 * tau
        )
        assert total == pytest.approx(1.0, abs=1e-6)


class TestAsymmetricLaplaceLogpdf:
    """At theta = 1/2 the asymmetric Laplace of quantile regression is the MAR kernel."""

    def test_reduces_to_laplace_at_median(self):
        # AL(x; 0, tau, 1/2) has density theta(1-theta)/tau * exp(-|x|/(2 tau))
        # = (1/(4 tau)) exp(-|x|/(2 tau)), the Laplace density at the same tau
        assert asymmetric_laplace_logpdf(0.0, 0.0, 0.5, 0.5) == pytest.approx(
            log_likelihood(LAPLACE_MODEL, 0.0, 0.5), abs=1e-14
        )

    def test_reduction_identity_on_grid(self):
        for tau in (0.3, 1.0, 4.0):
            for x in np.linspace(-8, 8, 33):
                assert asymmetric_laplace_logpdf(x, 0.0, tau, 0.5) == pytest.approx(
                    log_likelihood(LAPLACE_MODEL, x, tau), abs=1e-12
                )

    def test_right_tail_substitution(self):
        # the reference density itself, checked by hand
        assert asymmetric_laplace_logpdf(2.0, 0.0, 1.0, 0.9) == pytest.approx(
            math.log(0.09) - 1.8, abs=1e-12
        )

    def test_left_tail_indicator_active(self):
        assert asymmetric_laplace_logpdf(-1.0, 0.0, 1.0, 0.1) == pytest.approx(
            math.log(0.09) - 0.9, abs=1e-12
        )


class TestGaussianLogpdf:
    """The Gaussian kernel is the N(0, sigma^2) density."""

    def test_standard_normal_at_zero(self):
        assert log_likelihood(GAUSSIAN_MODEL, 0.0, 1.0) == pytest.approx(
            -0.5 * math.log(2 * math.pi), abs=1e-14
        )

    def test_unit_quadratic_term(self):
        assert log_likelihood(GAUSSIAN_MODEL, 1.0, 1.0) == pytest.approx(
            -0.5 * math.log(2 * math.pi) - 0.5, abs=1e-14
        )

    def test_scale_family(self):
        assert log_likelihood(GAUSSIAN_MODEL, 2.0, 2.0) == pytest.approx(
            log_likelihood(GAUSSIAN_MODEL, 1.0, 1.0) - math.log(2.0), abs=1e-14
        )

    def test_domain_error(self):
        with pytest.raises(ValueError):
            GAUSSIAN_MODEL.bic(1, 1, 0.0, 0.5)


class TestErrorModelsAgainstScipy:
    """Each kernel against the scipy law of its family: laplace(scale=2 tau), norm(scale=sigma)."""

    @staticmethod
    def law(family, scale):
        if family is ErrorFamily.LAPLACE:
            return stats.laplace(scale=2.0 * scale)
        return stats.norm(scale=scale)

    def test_lookup_from_family(self):
        for family, model in ((ErrorFamily.LAPLACE, LAPLACE_MODEL), (ErrorFamily.GAUSSIAN, GAUSSIAN_MODEL)):
            assert family.model is model
            assert model.family is family

    @pytest.mark.parametrize("family", list(ErrorFamily))
    def test_bic_minus_penalty_is_scipy_likelihood_at_point_fit(self, family):
        rng = np.random.default_rng(51)
        y = rng.normal(size=60).cumsum() * 0.3
        (fit,), bics = point_fits(make_series(y), (2,), 5, family)
        resid = residuals(y, fit.coeff.beta, 2, 5)
        n = resid.size
        got = family.model.bic(n, 2, fit.scale, fit.objective) - 4 * math.log(n)
        want = -2.0 * float(self.law(family, fit.scale).logpdf(resid).sum())
        assert got == pytest.approx(want, rel=1e-12)
        assert bics.shape == (1,)
        assert bics[0] - 4 * math.log(n) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("family", list(ErrorFamily))
    def test_noise_matches_scipy_law(self, family):
        model = family.model
        scale = 0.7
        draws = model.noise(np.random.default_rng(52), 0.0, model.noise_per_scale * scale, 20_000)
        assert stats.kstest(draws, self.law(family, scale).cdf).pvalue > 0.01

    # Only the Laplace chain draws a conditional scale and scores residual
    # objectives; the Gaussian scale law is checked on run_mh's joint draws
    # (test_mcmc.TestExactGaussianDraws).
    @pytest.mark.parametrize("family", [ErrorFamily.LAPLACE])
    def test_scale_draws_match_inverse_gamma(self, family):
        # tau | beta ~ InvGamma(n, S)
        n, objective = 40, 13.0
        draws = family.model.draw_scale(np.random.default_rng(53), np.full(20_000, objective), n)
        law = stats.invgamma(a=n, scale=objective)
        assert stats.kstest(draws, law.cdf).pvalue > 0.01

    @pytest.mark.parametrize("family", [ErrorFamily.LAPLACE])
    def test_rows_of_a_matrix_match_vectors(self, family):
        model = family.model
        rows = np.random.default_rng(54).normal(size=(30, 57))
        got = model.objective(rows)
        assert got.shape == (30,)
        assert all(got[i] == model.objective(rows[i]) for i in range(30))

    def test_norm_rows_of_a_matrix_match_vectors(self):
        # the chain's one L1 kernel: a block's row sums, formed in reused
        # buffers or not, are each row's lone norm bit for bit
        rows = np.random.default_rng(54).normal(size=(30, 57))
        got = LAPLACE_MODEL.norm(rows)
        assert got.shape == (30,)
        assert all(got[i] == LAPLACE_MODEL.norm(rows[i]) for i in range(30))
        out, total = np.empty_like(rows), np.empty(30)
        assert LAPLACE_MODEL.norm(rows, out, total) is total
        assert total.tobytes() == got.tobytes()

    def test_objective_is_half_the_norm(self):
        rows = np.random.default_rng(55).laplace(size=(20, 103))
        assert LAPLACE_MODEL.objective(rows).tobytes() == (0.5 * LAPLACE_MODEL.norm(rows)).tobytes()

    def test_point_scales(self):
        assert LAPLACE_MODEL.point_scale(6.0, 5) == 1.0
        assert GAUSSIAN_MODEL.point_scale(20.0, 5) == 2.0


class TestSumAbsResiduals:
    """The Laplace objective S(beta) = sum |y_t - x_t' beta| / 2."""

    def test_zero_for_exact_recursion(self):
        beta = np.array([0.3, 0.75, -0.35])
        y = np.zeros(30)
        y[0], y[1] = 0.1, -0.2
        for t in range(2, 30):
            y[t] = beta[0] + beta[1] * y[t - 1] + beta[2] * y[t - 2]
        s = LAPLACE_MODEL.objective(residuals(y, beta, 2, 3))
        assert s == pytest.approx(0.0, abs=1e-12)

    def test_hand_computation(self):
        s = LAPLACE_MODEL.objective(residuals([1.0, 2.0, 3.0], [0.0, 1.0], 1, 2))
        assert s == pytest.approx(1.0, abs=1e-14)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(7)
        y = rng.normal(size=10)
        beta = rng.normal(size=3)
        got = LAPLACE_MODEL.objective(residuals(y, beta, 2, 3))
        want = 0.0
        for t in range(3, 11):  # 1-based t
            pred = beta[0] + beta[1] * y[t - 2] + beta[2] * y[t - 3]
            want += 0.5 * abs(y[t - 1] - pred)
        assert got == pytest.approx(want, abs=1e-12)

    def test_insufficient_history(self):
        with pytest.raises(ValueError):
            residuals([1.0, 2.0, 3.0], [0.0, 1.0], 1, 1)


class TestLogLikelihood:
    def test_single_term_equals_pointwise_density(self):
        resid = 2.3 - 1.0
        tau = 0.7
        assert log_likelihood(LAPLACE_MODEL, resid, tau) == pytest.approx(
            float(stats.laplace(scale=2 * tau).logpdf(resid)), abs=1e-14
        )

    def test_zero_residuals_at_matched_scale(self):
        assert log_likelihood(LAPLACE_MODEL, np.zeros(3), 0.25) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("family", [ErrorFamily.LAPLACE, ErrorFamily.GAUSSIAN])
    def test_matches_per_term_oracle(self, family):
        rng = np.random.default_rng(11)
        y = rng.normal(size=20)
        beta = rng.normal(size=3)
        scale = 0.9
        got = log_likelihood(family.model, residuals(y, beta, 2, 3), scale)
        want = 0.0
        for t in range(3, 21):
            resid = y[t - 1] - (beta[0] + beta[1] * y[t - 2] + beta[2] * y[t - 3])
            if family is ErrorFamily.LAPLACE:
                want += -math.log(4.0 * scale) - abs(resid) / (2.0 * scale)
            else:
                want += -0.5 * math.log(2.0 * math.pi * scale**2) - resid**2 / (2.0 * scale**2)
        assert got == pytest.approx(want, abs=1e-12)

    def test_strictly_decreases_as_a_residual_grows(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=12)
        beta = np.array([0.1, 0.4])
        base = log_likelihood(LAPLACE_MODEL, residuals(y, beta, 1, 2), 1.0)
        bumped = y.copy()
        pred = beta[0] + beta[1] * y[-2]
        bumped[-1] = pred + abs(y[-1] - pred) + 1.0  # push the last residual outward
        worse = log_likelihood(LAPLACE_MODEL, residuals(bumped, beta, 1, 2), 1.0)
        assert worse < base


class TestLeastSquares:
    def test_matches_normal_equations(self):
        X, targets = lag_design(np.random.default_rng(0).normal(size=40), 3, 4)
        beta_hat, R, rss = least_squares(X, targets)
        np.testing.assert_allclose(beta_hat, np.linalg.solve(X.T @ X, X.T @ targets), rtol=1e-12)
        np.testing.assert_allclose(R.T @ R, X.T @ X, rtol=1e-12, atol=1e-12)
        assert rss == pytest.approx(float(np.sum((targets - X @ beta_hat) ** 2)), rel=1e-12)

    @pytest.mark.parametrize("k", [-48, -10, 3, 13, 48])
    def test_follows_the_data_units(self, k):
        # y -> c y with c = 2^k: intercept and R's lag columns times c, RSS
        # times c^2, every other bit unchanged; at |k| = 48 the rank is judged
        # on unit-scaled columns, not on the raw design
        c = 2.0**k
        y = np.random.default_rng(abs(k + 10)).normal(size=40)
        beta_hat, R, rss = least_squares(*lag_design(y, 3, 4))
        beta_c, R_c, rss_c = least_squares(*lag_design(c * y, 3, 4))
        assert np.array_equal(beta_c, beta_hat * np.r_[c, 1.0, 1.0, 1.0])
        assert np.array_equal(R_c, R * np.r_[1.0, c, c, c])
        assert rss_c == c * c * rss

    def test_rank_deficient_design_is_degenerate(self):
        # a constant lag column repeats the intercept column, though the
        # targets admit no exact fit
        X, targets = lag_design(np.r_[np.full(29, 2.5), 3.0], 1, 2)
        with pytest.raises(DegenerateDataError) as excinfo:
            least_squares(X, targets)
        assert isinstance(excinfo.value, np.linalg.LinAlgError)


class TestUnscale:
    @pytest.mark.parametrize("e", [-1000, -60, 0, 60, 1000])
    def test_exact_power_of_two(self, e):
        v = np.random.default_rng(4).normal(size=(5, 3))
        out = unscale(v, e)
        assert np.array_equal(unscale(out, -e), v)
        if abs(e) <= 60:
            assert np.array_equal(out, v * 2.0**e)

    def test_what_names_only_the_rows_that_overflow(self):
        # at 2^1024, 1.0 overflows and 0.75 does not
        v = np.array([[0.5, 0.75], [1.0, 0.25], [0.5, 1.0]])
        with pytest.raises(DegenerateDataError, match=r"^fit of orders \[2, 3\]: x overflows$"):
            unscale(v, 1024, "fit of orders {}: x", [1, 2, 3])

    def test_overflow_without_what_reads_inf_and_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = unscale([1.0, 0.75], 1024)
        assert out[0] == math.inf and out[1] == math.ldexp(0.75, 1024)

    def test_inf_in_the_input_is_not_an_overflow(self):
        out = unscale([[math.inf, 0.5], [-math.inf, 0.25]], 3, "row {}", ["a", "b"])
        assert np.array_equal(out, [[math.inf, 4.0], [-math.inf, 2.0]])


class TestDifferencing:
    def test_constant_series(self):
        assert np.array_equal(diff1(make_series([1.0, 1.0, 1.0])).values, [0.0, 0.0])

    def test_hand_values(self):
        assert np.array_equal(diff1(make_series([1.0, 2.0, 4.0])).values, [1.0, 2.0])

    def test_labels_follow_the_later_period(self):
        ts = TimeSeries(np.array([1.0, 2.0]), labels=("a", "b"))
        assert diff1(ts).labels == ("b",)

    @staticmethod
    def undiff(deltas, last_level):
        # level rebuild of one change path, through the forecast pipeline's own inverse
        paths = np.tile(np.asarray(deltas, dtype=float), (2, 1))
        return forecast_levels(ForecastResult(paths, 0.9, SCALE_DIFFERENCED), last_level).paths[0]

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=25)
        d = diff1(make_series(y))
        rebuilt = self.undiff(d.values, y[0])
        np.testing.assert_allclose(rebuilt, y[1:], atol=1e-12)

    def test_undiff_hand_values(self):
        assert np.array_equal(self.undiff([0.0, 0.0], 5.0), [5.0, 5.0])
        assert np.array_equal(self.undiff([1.0, -1.0], 0.0), [1.0, 0.0])

    def test_too_short(self):
        with pytest.raises(ValueError):
            diff1(make_series([1.0]))


def noise_series(n):
    return TimeSeries(np.random.default_rng(n).normal(size=n))


P = 2
# each call needs an order-P window on a series of T values: build_ensemble
# fits orders 1..P on the aligned window, and BacktestSpec checks a first
# origin that holds T values after differencing
WINDOW_CALLS = {
    "fit_l1": lambda T: fit_l1(noise_series(T), P, start=P + 1),
    "fit_ols": lambda T: fit_ols(noise_series(T), P, start=P + 1),
    "run_mh": lambda T: run_mh(
        noise_series(T), P, ErrorFamily.LAPLACE, McmcConfig(n_total=200, n_burn=100)
    ),
    "build_ensemble": lambda T: build_ensemble(noise_series(T), P, ErrorFamily.LAPLACE),
    "BacktestSpec": lambda T: BacktestSpec(noise_series(T + 3), t0=T + 2, horizons=1, max_order=P),
}


class TestShortWindowRule:
    @pytest.mark.parametrize("call", WINDOW_CALLS.values(), ids=WINDOW_CALLS.keys())
    def test_order_p_needs_p_plus_2_rows(self, call):
        # T = 2p + 2 values leave exactly p + 2 rows; one value fewer fails
        with pytest.raises(
            ValueError, match=rf"{P + 1} usable rows cannot identify order {P} \(need at least {P + 2}\)"
        ):
            call(2 * P + 1)
        call(2 * P + 2)

    @pytest.mark.parametrize(
        "call",
        [lambda: build_ensemble(noise_series(20), 0, ErrorFamily.LAPLACE),
         lambda: BacktestSpec(noise_series(20), t0=18, horizons=1, max_order=0)],
        ids=["build_ensemble", "BacktestSpec"],
    )
    def test_order_below_one_rejected(self, call):
        with pytest.raises(ValueError, match="order must be at least 1, got 0"):
            call()


class TestTypeInvariants:
    def test_series_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            TimeSeries(np.array([1.0, np.nan]))

    def test_series_rejects_label_mismatch(self):
        with pytest.raises(ValueError):
            TimeSeries(np.array([1.0, 2.0]), labels=("a",))

    def test_series_rejects_empty(self):
        with pytest.raises(ValueError):
            TimeSeries(np.array([]))

    def test_coefficients_length_check(self):
        # an intercept alone, a 2-D array and an empty vector have no order
        for bad in ([1.0], [[1.0, 2.0]], []):
            with pytest.raises(ValueError):
                Coefficients(np.array(bad))

    def test_coefficients_from_values(self):
        c = Coefficients.from_values([0.1, 0.2, 0.3])
        assert c.order == 2
        np.testing.assert_array_equal(c.beta, Coefficients(np.array([0.1, 0.2, 0.3])).beta)

    def test_scale_positive(self):
        for scale in (0.0, -1.0, math.inf):
            with pytest.raises(ValueError):
                MleFit(Coefficients.from_values([0.0, 1.0]), scale=scale, objective=1.0)

    def test_posterior_draws_consistency(self):
        with pytest.raises(ValueError, match="tau_draws"):
            PosteriorDraws(
                beta_draws=np.zeros((4, 2)),
                tau_draws=np.ones(5),
                accepted=np.ones(4, dtype=bool),
                step_size=1.0,
                n_burn=6,
            )
        with pytest.raises(ValueError, match="positive"):
            PosteriorDraws(
                beta_draws=np.zeros((4, 2)),
                tau_draws=np.array([1.0, 1.0, 0.0, 1.0]),
                accepted=np.ones(4, dtype=bool),
                step_size=1.0,
                n_burn=6,
            )
        with pytest.raises(ValueError, match="accepted"):
            PosteriorDraws(
                beta_draws=np.zeros((4, 2)),
                tau_draws=np.ones(4),
                accepted=np.ones(5, dtype=bool),
                step_size=1.0,
                n_burn=6,
            )
        # a draw needs an intercept and at least one lag
        with pytest.raises(ValueError, match="beta_draws"):
            PosteriorDraws(
                beta_draws=np.zeros((4, 1)),
                tau_draws=np.ones(4),
                accepted=np.ones(4, dtype=bool),
                step_size=1.0,
                n_burn=6,
            )

    def test_posterior_draws_counts_follow_the_rows(self):
        draws = PosteriorDraws(
            beta_draws=np.zeros((4, 3)),
            tau_draws=np.ones(4),
            accepted=np.array([True, False, True, True]),
            step_size=0.5,
            n_burn=6,
        )
        assert (draws.order, draws.n_kept, draws.n_total) == (2, 4, 10)
        assert draws.acceptance_rate == 0.75

    def test_exact_draws_store_no_chain_diagnostics(self):
        draws = PosteriorDraws(
            beta_draws=np.zeros((4, 3)), tau_draws=np.ones(4), accepted=None, step_size=None,
            n_burn=0,
        )
        assert (draws.n_kept, draws.n_total, draws.acceptance_rate) == (4, 4, 1.0)
        for step_size, n_burn in ((0.5, 0), (None, 6)):
            with pytest.raises(ValueError, match="exact draws"):
                PosteriorDraws(
                    beta_draws=np.zeros((4, 3)), tau_draws=np.ones(4), accepted=None,
                    step_size=step_size, n_burn=n_burn,
                )
        with pytest.raises(ValueError, match="step_size"):
            PosteriorDraws(
                beta_draws=np.zeros((4, 3)), tau_draws=np.ones(4),
                accepted=np.ones(4, dtype=bool), step_size=None, n_burn=6,
            )


def test_result_types_store_only_what_was_computed():
    # every other value of these results is a property read from these fields
    stored = {
        t.__name__: tuple(f.name for f in dataclasses.fields(t))
        for t in (Coefficients, PosteriorDraws, MleFit, OrderEnsemble, MseStudyReport,
                  OrderStudyReport, BacktestReport)
    }
    assert stored == {
        "Coefficients": ("beta",),
        "PosteriorDraws": ("beta_draws", "tau_draws", "accepted", "step_size", "n_burn"),
        "MleFit": ("coeff", "scale", "objective"),
        "OrderEnsemble": ("fits", "bics"),
        "MseStudyReport": ("estimates", "acceptance_rates"),
        "OrderStudyReport": ("map_orders", "max_order"),
        "BacktestReport": ("methods", "origins", "forecasts", "truths", "crps", "baseline"),
    }
