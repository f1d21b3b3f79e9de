import math

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from bayesmar import (
    GAUSSIAN_MODEL,
    LAPLACE_MODEL,
    BacktestSpec,
    Coefficients,
    DegenerateDataError,
    ErrorFamily,
    McmcConfig,
    MleFit,
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
from bayesmar.forecast import SCALE_DIFFERENCED, result_from_paths
from bayesmar.mle_fit import point_fits

def make_series(values):
    return TimeSeries(np.asarray(values, dtype=float))


def residuals(values, beta, order, start):
    X, targets = lag_design(np.asarray(values, dtype=float), order, start)
    return targets - X @ np.asarray(beta, dtype=float)


def log_likelihood(model, resid, scale):
    """log L of the residuals, read off the model's BIC (BIC - penalty = -2 log L)."""
    resid = np.atleast_1d(np.asarray(resid, dtype=float))
    n = resid.size
    order = 1
    penalty = (order + 2) * math.log(n)
    return -0.5 * (model.bic(n, order, scale, float(model.objective(resid))) - penalty)


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
        (fit,) = point_fits(make_series(y), (2,), 5, family)
        resid = residuals(y, fit.coeff.beta, 2, 5)
        n = resid.size
        got = family.model.bic(n, 2, fit.scale, fit.objective) - 4 * math.log(n)
        want = -2.0 * float(self.law(family, fit.scale).logpdf(resid).sum())
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("family", list(ErrorFamily))
    def test_noise_matches_scipy_law(self, family):
        model = family.model
        scale = 0.7
        draws = model.noise(np.random.default_rng(52), 0.0, model.noise_per_scale * scale, 20_000)
        assert stats.kstest(draws, self.law(family, scale).cdf).pvalue > 0.01

    @pytest.mark.parametrize("family", list(ErrorFamily))
    def test_scale_draws_match_inverse_gamma(self, family):
        # Laplace tau | beta ~ InvGamma(n, S); Gaussian sigma^2 | beta ~ InvGamma(n/2, RSS/2)
        n, objective = 40, 13.0
        draws = family.model.draw_scale(np.random.default_rng(53), np.full(20_000, objective), n)
        if family is ErrorFamily.LAPLACE:
            law, sample = stats.invgamma(a=n, scale=objective), draws
        else:
            law, sample = stats.invgamma(a=n / 2, scale=objective / 2), draws**2
        assert stats.kstest(sample, law.cdf).pvalue > 0.01

    @pytest.mark.parametrize("family", list(ErrorFamily))
    def test_rows_of_a_matrix_match_vectors(self, family):
        model = family.model
        rows = np.random.default_rng(54).normal(size=(30, 57))
        got = model.objective(rows)
        assert got.shape == (30,)
        assert all(got[i] == model.objective(rows[i]) for i in range(30))

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


class TestLogMarginalPosterior:
    def test_monotone_in_residual_sum(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=15)
        s1 = LAPLACE_MODEL.objective(residuals(y, [0.0, 0.2], 1, 2))
        s2 = LAPLACE_MODEL.objective(residuals(y, [5.0, -3.0], 1, 2))
        assert s1 < s2
        assert LAPLACE_MODEL.log_marginal(s1, 14) > LAPLACE_MODEL.log_marginal(s2, 14)

    def test_zero_log_at_unit_residual_sum(self):
        # scale the series so S(beta) = 1 exactly, then the log posterior is 0
        s = LAPLACE_MODEL.objective(residuals([0.0, 2.0, 0.0], [0.0, 0.0], 1, 2))
        assert s == 1.0
        assert LAPLACE_MODEL.log_marginal(s, 2) == 0.0

    def test_ratio_matches_direct_power_form(self):
        # S^(-n) for Laplace and RSS^(-n/2) for Gaussian, each objective summed by hand
        rng = np.random.default_rng(9)
        y = rng.normal(size=7)
        b1, b2 = rng.normal(size=2), rng.normal(size=2)
        n = 6  # terms for start=2 on 7 observations
        for model, power in ((LAPLACE_MODEL, -n), (GAUSSIAN_MODEL, -n / 2)):
            objs = []
            for beta in (b1, b2):
                r = [y[t] - beta[0] - beta[1] * y[t - 1] for t in range(1, 7)]
                objs.append(
                    math.fsum(0.5 * abs(v) for v in r)
                    if model is LAPLACE_MODEL
                    else math.fsum(v * v for v in r)
                )
            lp_ratio = math.exp(
                model.log_marginal(model.objective(residuals(y, b1, 1, 2)), n)
                - model.log_marginal(model.objective(residuals(y, b2, 1, 2)), n)
            )
            direct = (objs[0] ** power) / (objs[1] ** power)
            assert lp_ratio == pytest.approx(direct, rel=1e-10)

    def test_invariant_to_term_reordering(self):
        # the kernel is a sum over residual terms; summing them in any order agrees
        rng = np.random.default_rng(13)
        y = rng.normal(size=12)
        beta = np.array([0.2, 0.5, -0.1])
        resid = [
            0.5 * abs(y[t - 1] - (beta[0] + beta[1] * y[t - 2] + beta[2] * y[t - 3]))
            for t in range(3, 13)
        ]
        s_forward = sum(resid)
        s_shuffled = sum(np.asarray(resid)[rng.permutation(len(resid))])
        got = LAPLACE_MODEL.log_marginal(LAPLACE_MODEL.objective(residuals(y, beta, 2, 3)), 10)
        assert got == pytest.approx(-10 * math.log(s_forward), abs=1e-12)
        assert got == pytest.approx(-10 * math.log(s_shuffled), abs=1e-9)

    def test_perfect_fit_is_degenerate(self):
        resid = residuals([1.0, 1.0, 1.0], [0.0, 1.0], 1, 2)
        for model in (LAPLACE_MODEL, GAUSSIAN_MODEL):
            with pytest.raises(DegenerateDataError):
                model.log_marginal(model.objective(resid), 2)


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
        return forecast_levels(result_from_paths(paths, 0.9, SCALE_DIFFERENCED), last_level).paths[0]

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
        with pytest.raises(ValueError):
            Coefficients(np.array([1.0, 2.0]), order=2)

    def test_coefficients_from_values(self):
        c = Coefficients.from_values([0.1, 0.2, 0.3])
        assert c.order == 2

    def test_scale_positive(self):
        for scale in (0.0, -1.0, math.inf):
            with pytest.raises(ValueError):
                MleFit(Coefficients.from_values([0.0, 1.0]), scale=scale, objective=1.0, n_used=5)

    def test_posterior_draws_consistency(self):
        with pytest.raises(ValueError):
            PosteriorDraws(
                beta_draws=np.zeros((5, 2)),
                tau_draws=np.ones(5),
                accepted=np.ones(5, dtype=bool),
                step_size=1.0,
                order=1,
                n_total=10,
                n_burn=6,  # implies 4 kept, not 5
            )
        with pytest.raises(ValueError):
            PosteriorDraws(
                beta_draws=np.zeros((4, 2)),
                tau_draws=np.array([1.0, 1.0, 0.0, 1.0]),
                accepted=np.ones(4, dtype=bool),
                step_size=1.0,
                order=1,
                n_total=10,
                n_burn=6,
            )
        with pytest.raises(ValueError, match="accepted"):
            PosteriorDraws(
                beta_draws=np.zeros((4, 2)),
                tau_draws=np.ones(4),
                accepted=np.ones(5, dtype=bool),
                step_size=1.0,
                order=1,
                n_total=10,
                n_burn=6,
            )
