import copy
import csv
import json
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats
from scipy.stats import ks_2samp

from bayesmar import (
    Coefficients,
    DegenerateDataError,
    ErrorFamily,
    McmcConfig,
    PosteriorDraws,
    TimeSeries,
    diff1,
    posterior_mean,
    run_mh,
    simulate_series,
    tune_step,
)
from bayesmar.cli import main
from bayesmar.core import LAPLACE_MODEL, as_seed_tuple, lag_design
from bayesmar import mcmc
from bayesmar.mcmc import (
    ADAPT_WINDOW,
    INITIAL_STEP,
    PROPOSAL_HALF_WIDTH,
    SHIFT_BLOCK_ROWS,
    _lockstep_chains,
    run_mh_batch,
)
from bayesmar.mle_fit import fit_l1

AR1 = Coefficients.from_values([0.5, 0.6])
AR2 = Coefficients.from_values([0.3, 0.75, -0.35])


def laplace_series(n=200, seed=0, burn=200):
    return simulate_series(AR2, ErrorFamily.LAPLACE, n, burn=burn, seed=seed)


def t_draw_oracle(y, order, config):
    """Gaussian ``run_mh`` from the t-draw formula, one step per line: with
    X = QR, sigma = s / sqrt(w / nu) and beta = beta_hat + R^-1 z * sigma;
    returns (betas, sigmas)."""
    X, targets = lag_design(y.values, order, order + 1)
    n, dim = X.shape
    nu = n - order - 1
    rng = np.random.default_rng(as_seed_tuple(config.seed))
    Q, R = np.linalg.qr(X)
    beta_hat = np.linalg.solve(R, Q.T @ targets)
    rss = float((targets - X @ beta_hat) @ (targets - X @ beta_hat))
    s_hat = math.sqrt(rss / nu)
    z = rng.standard_normal((config.n_total - config.n_burn, dim))
    w = rng.chisquare(nu, config.n_total - config.n_burn)
    sigmas = s_hat / np.sqrt(w / nu)
    betas = beta_hat + (z @ np.linalg.inv(R).T) * sigmas[:, None]
    return betas, sigmas


def least_squares_shape(X, targets):
    """The chain's start and proposal shape from the QR fit X = QR, one step
    per line: beta_hat = R^-1 Q' targets and L = R^-1 s, s^2 = RSS / (n - p - 1)."""
    Q, R = np.linalg.qr(X)
    beta_hat = np.linalg.solve(R, Q.T @ targets)
    resid = targets - X @ beta_hat
    s_hat = math.sqrt(float(resid @ resid) / (X.shape[0] - X.shape[1]))
    return beta_hat, np.linalg.inv(R) * s_hat


def retained_objectives(X, targets, kept, config):
    """S(beta) of each kept state, formed one retained segment at a time (the
    segments are cut at n_burn and at every ``ADAPT_WINDOW``), as the chain does."""
    cuts = sorted({*range(0, config.n_total, ADAPT_WINDOW), config.n_burn, config.n_total})
    cuts = [c - config.n_burn for c in cuts if c >= config.n_burn]
    return np.concatenate(
        [LAPLACE_MODEL.objective(targets - kept[i:j] @ X.T) for i, j in zip(cuts[:-1], cuts[1:])]
    )


def sequential_chain_oracle(y, order, config):
    """Laplace ``run_mh`` as a plain loop that starts at the QR fit and scores
    every proposal current + a L u_i by its own residual, targets - X @ proposal,
    with the Metropolis rule on the log target -n log S; returns (betas, taus,
    accepted, step)."""
    X, targets = lag_design(y.values, order, order + 1)
    n = targets.size
    model = LAPLACE_MODEL
    beta_hat, L = least_squares_shape(X, targets)
    rng = np.random.default_rng(as_seed_tuple(config.seed))
    u = rng.uniform(-PROPOSAL_HALF_WIDTH, PROPOSAL_HALF_WIDTH, size=(config.n_total, order + 1))
    shaped = u @ L.T  # row i is L u_i
    log_accept_noise = np.log(rng.random(config.n_total))

    def log_target(beta):
        return -n * math.log(model.objective(targets - X @ beta))

    a = INITIAL_STEP
    current, current_lp = beta_hat, log_target(beta_hat)
    kept, accepted = [], []
    window_accepts = 0
    for i in range(config.n_total):
        proposal = current + a * shaped[i]
        proposal_lp = log_target(proposal)
        log_ratio = proposal_lp - current_lp
        accept = bool(log_ratio >= 0.0 or log_accept_noise[i] < log_ratio)
        if accept:
            current, current_lp = proposal, proposal_lp
        if i < config.n_burn:
            window_accepts += accept
            if (i + 1) % ADAPT_WINDOW == 0:
                a = tune_step(a, window_accepts / ADAPT_WINDOW, config.target_band)
                window_accepts = 0
        else:
            kept.append(current)
            accepted.append(accept)
    kept = np.array(kept)
    taus = model.draw_scale(rng, retained_objectives(X, targets, kept, config), n)
    return kept, taus, np.array(accepted), a


def grid_marginal_quantiles(X, targets, q):
    """The q-quantiles of beta_0 and beta_1 under S(beta)^(-n), p = 1, by
    quadrature; returns (quantiles (len(q), 2), posterior SDs).

    A 201^2 grid over +-12 least-squares SDs finds the posterior mean and SD,
    then an 801^2 grid over +-7 posterior SDs integrates the density, each
    cell's mass taken at its centre, and each marginal CDF is interpolated
    linearly between cell edges."""
    n = targets.size

    def marginals(center, sd, half_width, points):
        b0, b1 = (c + s * np.linspace(-half_width, half_width, points) for c, s in zip(center, sd))
        log_post = np.empty((points, points))  # rows beta_1, columns beta_0
        for i in range(0, points, 32):
            shifted = targets - b1[i : i + 32, None] * X[:, 1]
            log_post[i : i + 32] = -n * np.log(0.5 * np.abs(shifted[:, None, :] - b0[:, None]).sum(axis=-1))
        mass = np.exp(log_post - log_post.max())
        return (b0, mass.sum(axis=0)), (b1, mass.sum(axis=1))

    beta_hat, L = least_squares_shape(X, targets)
    coarse = marginals(beta_hat, np.linalg.norm(L, axis=1), 12.0, 201)
    mean = np.array([axis @ mass / mass.sum() for axis, mass in coarse])
    sd = np.sqrt([(axis - m) ** 2 @ mass / mass.sum() for (axis, mass), m in zip(coarse, mean)])
    quantiles = []
    for axis, mass in marginals(mean, sd, 7.0, 801):
        h = axis[1] - axis[0]
        cdf = np.concatenate([[0.0], np.cumsum(mass) / mass.sum()])
        quantiles.append(np.interp(q, cdf, np.append(axis - h / 2, axis[-1] + h / 2)))
    return np.array(quantiles).T, sd


# Chain targets for ``monkeypatch.setattr(mcmc, "LAPLACE_MODEL", fake)``: the
# chain reads only the model's L1 norm N = 2 S and samples N^(-n).


class _FlatModel(type(LAPLACE_MODEL)):
    """A constant objective: every Metropolis ratio is 1."""

    def norm(self, resid, out=None, total=None):
        return np.ones(resid.shape[:-1])


class _RssMarginalModel(type(LAPLACE_MODEL)):
    """The Gaussian marginal posterior RSS(beta)^(-n/2) = sqrt(RSS)^(-n)."""

    def norm(self, resid, out=None, total=None):
        return np.sqrt(np.multiply(resid, resid, out=out).sum(axis=-1))


class _CappedModel(type(LAPLACE_MODEL)):
    """The Laplace model with every norm above ``cap`` replaced by ``fill``."""

    def __init__(self, cap, fill):
        self.cap, self.fill, self.capped = cap, fill, 0

    def norm(self, resid, out=None, total=None):
        s = super().norm(resid, out, total)
        self.capped += int(np.count_nonzero(s > self.cap))
        return np.where(s > self.cap, self.fill, s)


class TestTuneStep:
    def test_inside_band_unchanged(self):
        assert tune_step(1.0, 0.35, (0.2, 0.5)) == 1.0

    def test_high_acceptance_widens(self):
        assert tune_step(1.0, 0.9, (0.2, 0.5)) == 1.25

    def test_low_acceptance_shrinks(self):
        assert tune_step(1.0, 0.05, (0.2, 0.5)) == pytest.approx(0.8)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            tune_step(0.0, 0.3, (0.2, 0.5))


class TestPosteriorMean:
    @staticmethod
    def draws_from(beta_rows):
        beta_rows = np.asarray(beta_rows, dtype=float)
        n = beta_rows.shape[0]
        return PosteriorDraws(
            beta_draws=beta_rows,
            tau_draws=np.ones(n),
            accepted=np.ones(n, dtype=bool),
            step_size=1.0,
            n_burn=0,
        )

    def test_single_draw(self):
        d = self.draws_from([[1.0, 2.0, 3.0]])
        assert np.array_equal(posterior_mean(d).beta, [1.0, 2.0, 3.0])

    def test_two_draws(self):
        d = self.draws_from([[0.0, 0.0, 0.0], [2.0, 2.0, 2.0]])
        assert np.array_equal(posterior_mean(d).beta, [1.0, 1.0, 1.0])

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(4)
        rows = rng.normal(size=(1000, 3))
        d = self.draws_from(rows)
        oracle = np.array([math.fsum(rows[:, j]) / 1000 for j in range(3)])
        np.testing.assert_allclose(posterior_mean(d).beta, oracle, atol=1e-12)


class TestRunMh:
    def test_deterministic_under_fixed_seed(self):
        y = laplace_series(120, seed=5)
        cfg = McmcConfig(n_total=3000, n_burn=1500, seed=42)
        a = run_mh(y, 2, ErrorFamily.LAPLACE, cfg)
        b = run_mh(y, 2, ErrorFamily.LAPLACE, cfg)
        assert np.array_equal(a.beta_draws, b.beta_draws)
        assert np.array_equal(a.tau_draws, b.tau_draws)
        assert a.acceptance_rate == b.acceptance_rate
        assert a.step_size == b.step_size

    def test_acceptance_rate_within_target_band(self):
        y = laplace_series(200, seed=1, burn=0)
        draws = run_mh(y, 2, ErrorFamily.LAPLACE, McmcConfig(seed=2))
        assert 0.20 <= draws.acceptance_rate <= 0.50

    def test_posterior_mean_tracks_l1_point_fit(self):
        # the marginal posterior mode is the L1 optimum; with T=200 the
        # posterior mean should sit well within a posterior standard deviation
        y = laplace_series(200, seed=8, burn=0)
        draws = run_mh(y, 2, ErrorFamily.LAPLACE, McmcConfig(seed=3))
        mean = posterior_mean(draws).beta
        ref = fit_l1(y, 2, start=3).coeff.beta
        sd = draws.beta_draws.std(axis=0)
        assert np.all(np.abs(mean - ref) <= 0.75 * sd)

    def test_all_retained_scales_positive(self):
        y = laplace_series(80, seed=9)
        draws = run_mh(y, 1, ErrorFamily.LAPLACE, McmcConfig(n_total=2000, n_burn=500, seed=4))
        assert np.all(draws.tau_draws > 0)

    def test_conditional_scale_mean_matches_inverse_gamma(self):
        # tau | beta is inverse gamma with shape n and rate S(beta): the mean of
        # tau_i - S_i/(n-1) over 1e5 retained draws should vanish within 3 SEs
        y = laplace_series(61, seed=10)
        cfg = McmcConfig(n_total=110_000, n_burn=10_000, seed=5)
        draws = run_mh(y, 1, ErrorFamily.LAPLACE, cfg)
        X, targets = lag_design(y.values, 1, 2)
        n = targets.size
        s = 0.5 * np.abs(targets[None, :] - draws.beta_draws @ X.T).sum(axis=1)
        centered = draws.tau_draws - s / (n - 1)
        cond_var = s**2 / ((n - 1) ** 2 * (n - 2))
        se = math.sqrt(float(cond_var.mean()) / draws.n_kept)
        assert abs(float(centered.mean())) <= 3 * se

    def test_gaussian_family_runs_and_recovers(self):
        # exact draws: n_total - n_burn rows, no chain diagnostics to store
        y = simulate_series(AR2, ErrorFamily.GAUSSIAN, 200, burn=0, seed=21)
        draws = run_mh(y, 2, ErrorFamily.GAUSSIAN, McmcConfig(n_total=8000, n_burn=4000, seed=6))
        mean = posterior_mean(draws).beta
        assert np.all(np.abs(mean - AR2.beta) < 0.3)
        assert draws.n_kept == 4000 and draws.n_burn == 0 and draws.n_total == 4000
        assert draws.accepted is None and draws.step_size is None
        assert draws.acceptance_rate == 1.0

    def test_degenerate_data_rejected(self):
        trend = TimeSeries(np.arange(1.0, 41.0))
        with pytest.raises(DegenerateDataError):
            run_mh(diff1(trend), 1, ErrorFamily.LAPLACE, McmcConfig(n_total=200, n_burn=100))

    def test_series_too_short(self):
        with pytest.raises(ValueError):
            run_mh(
                TimeSeries(np.array([1.0, 2.0, 1.5])),
                2,
                ErrorFamily.LAPLACE,
                McmcConfig(n_total=100, n_burn=50),
            )

    def test_chain_target_matches_marginal_posterior_op(self):
        # replaying run_mh's random stream through a chain on the Laplace
        # marginal S^(-n) reproduces its draws bit for bit, scales included
        y = laplace_series(50, seed=12)
        X, targets = lag_design(y.values, 2, 3)
        n = targets.size
        model = LAPLACE_MODEL
        cfg = McmcConfig(n_total=600, n_burn=300, seed=(12, 0))
        draws = run_mh(y, 2, ErrorFamily.LAPLACE, cfg)

        beta_hat, L = least_squares_shape(X, targets)
        rng = np.random.default_rng(as_seed_tuple(cfg.seed))
        [(kept, accepted, step, _)] = _lockstep_chains([(X, targets, beta_hat, L, rng)], cfg)
        scales = model.draw_scale(rng, retained_objectives(X, targets, kept, cfg), n)
        np.testing.assert_array_equal(draws.beta_draws, kept)
        np.testing.assert_array_equal(draws.tau_draws, scales)
        np.testing.assert_array_equal(draws.accepted, accepted)
        assert draws.step_size == step
        assert 0.0 < draws.acceptance_rate < 1.0

    @pytest.mark.parametrize("scale", [1.0, 1e3])
    @pytest.mark.parametrize("n_burn,n_total", [(1500, 3000), (250, 2500)])
    @pytest.mark.parametrize("order", [1, 6])
    @pytest.mark.parametrize("family", list(ErrorFamily), ids=lambda f: f.value)
    def test_matches_sequential_chain_oracle(self, family, order, n_burn, n_total, scale):
        # Laplace: the window-shift residuals are the per-proposal residuals up
        # to the last bits of the log target, which flip no accept decision
        # here.  Gaussian: the exact draws are the t-draw formula replayed from
        # the seed, scales included.
        base = simulate_series(AR2, family, 120, burn=200, seed=(order, n_burn))
        y = TimeSeries(base.values * scale)
        cfg = McmcConfig(n_total=n_total, n_burn=n_burn, seed=(order, n_burn, int(scale)))
        draws = run_mh(y, order, family, cfg)
        if family is ErrorFamily.GAUSSIAN:
            betas, taus = t_draw_oracle(y, order, cfg)
            assert draws.accepted is None and draws.step_size is None
        else:
            betas, taus, accepted, step = sequential_chain_oracle(y, order, cfg)
            np.testing.assert_array_equal(draws.accepted, accepted)
            assert draws.step_size == step
            assert 0.0 < draws.acceptance_rate < 1.0
        assert draws.beta_draws.tobytes() == betas.tobytes()
        assert draws.tau_draws.tobytes() == taus.tobytes()

    @staticmethod
    def check_draws_follow_the_data_units(family, k):
        # y -> c y with c = 2^k scales the intercept and scale draws by c
        # exactly and leaves the lag draws, accept flags and final step unchanged
        c = 2.0**k
        y = simulate_series(AR2, family, 90, burn=200, seed=(15, abs(k + 10)))
        cfg = McmcConfig(n_total=3000, n_burn=1000, seed=(15, abs(k + 10)))
        for order in (1, 4):
            base = run_mh(y, order, family, cfg)
            scaled = run_mh(TimeSeries(c * y.values), order, family, cfg)
            assert np.array_equal(scaled.beta_draws[:, 0], c * base.beta_draws[:, 0])
            assert np.array_equal(scaled.beta_draws[:, 1:], base.beta_draws[:, 1:])
            assert np.array_equal(scaled.tau_draws, c * base.tau_draws)
            assert np.array_equal(scaled.accepted, base.accepted)
            assert scaled.step_size == base.step_size

    @pytest.mark.parametrize("k", [-1000, -50, -10, 3, 13, 48, 1000])
    def test_gaussian_draws_follow_the_data_units(self, k):
        self.check_draws_follow_the_data_units(ErrorFamily.GAUSSIAN, k)

    @pytest.mark.parametrize("k", [-1000, -50, -40, -10, 3, 13, 48, 1000])
    def test_laplace_draws_follow_the_data_units(self, k):
        self.check_draws_follow_the_data_units(ErrorFamily.LAPLACE, k)

    @pytest.mark.parametrize("k", [0, -40])
    @pytest.mark.parametrize("family", list(ErrorFamily), ids=lambda f: f.value)
    def test_exact_fit_rejected_in_any_units(self, family, k):
        # y_t = 1 + y_{t-1} is an exact order-1 fit of a full-rank design; the
        # perfect-fit screen is relative, so it fires at every scale 2^k
        trend = TimeSeries(2.0**k * np.arange(1.0, 41.0))
        with pytest.raises(DegenerateDataError, match="exact order-1 fit"):
            run_mh(trend, 1, family, McmcConfig(n_total=200, n_burn=100))

    @pytest.mark.parametrize("c", [1e299, 1e-298, 1e-313])
    @pytest.mark.parametrize("family", list(ErrorFamily), ids=lambda f: f.value)
    def test_data_whose_squares_over_or_underflow_sample(self, family, c):
        # the squares of data near 1e299 overflow and those near 1e-298 underflow
        # to 0, but the sampler fits the window at 2^(-e) y and maps back
        walk = np.cumsum(np.random.default_rng(7).laplace(0.3, 1.0, 80)) + 5.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = run_mh(TimeSeries(c * walk), 2, family, McmcConfig(n_total=200, n_burn=100))
        assert np.isfinite(draws.beta_draws).all()
        assert np.isfinite(draws.tau_draws).all() and (draws.tau_draws > 0).all()

    @pytest.mark.parametrize("family", list(ErrorFamily), ids=lambda f: f.value)
    def test_targets_whose_squares_underflow_are_not_an_exact_fit(self, family):
        # beside a lag of 1 the targets are 1e-200 of it, so targets'targets
        # underflows to 0 on the window; that is named, not read as 0 <= 0
        walk = np.cumsum(np.random.default_rng(7).laplace(0.3, 1.0, 80)) + 5.0
        y = TimeSeries(np.r_[1.0, 1e-200 * walk])
        with pytest.raises(DegenerateDataError, match="order-1 fit: targets'targets underflows to 0"):
            run_mh(y, 1, family, McmcConfig(n_total=200, n_burn=100))

    @pytest.mark.parametrize("family", list(ErrorFamily), ids=lambda f: f.value)
    def test_all_zero_targets_are_an_exact_fit(self, family):
        # targets'targets = 0 with every target 0 is a genuine exact fit
        y = TimeSeries(np.r_[1.0, np.zeros(39)])
        with pytest.raises(DegenerateDataError, match="exact order-1 fit"):
            run_mh(y, 1, family, McmcConfig(n_total=200, n_burn=100))

    def test_batch_equals_lone_runs(self):
        # five same-shape chains stepped together: each one's draws, accept
        # flags and final step are those of its own run
        config = McmcConfig(n_total=3000, n_burn=1300)
        fits = [(laplace_series(150, seed=(30, i)), 2, (30, i, 1)) for i in range(5)]
        batch = run_mh_batch(fits, ErrorFamily.LAPLACE, config)
        for (y, order, seed), draws in zip(fits, batch):
            lone = run_mh(y, order, ErrorFamily.LAPLACE, replace(config, seed=seed))
            assert np.array_equal(draws.beta_draws, lone.beta_draws)
            assert np.array_equal(draws.tau_draws, lone.tau_draws)
            assert np.array_equal(draws.accepted, lone.accepted)
            assert draws.step_size == lone.step_size

    @pytest.mark.parametrize("seed", [31, 32])
    def test_padded_order_batch_equals_lone_runs(self, seed):
        # orders 1..8 of one 100-point series, zero-padded to one shape: the
        # padding adds nothing to any objective or step
        y = laplace_series(100, seed=seed)
        config = McmcConfig(n_total=2000, n_burn=1000)
        fits = [(y, p, (seed, p)) for p in range(1, 9)]
        batch = run_mh_batch(fits, ErrorFamily.LAPLACE, config)
        for (_, p, fit_seed), draws in zip(fits, batch):
            lone = run_mh(y, p, ErrorFamily.LAPLACE, replace(config, seed=fit_seed))
            assert draws.order == p
            assert np.array_equal(draws.beta_draws, lone.beta_draws)
            assert np.array_equal(draws.tau_draws, lone.tau_draws)
            assert np.array_equal(draws.accepted, lone.accepted)
            assert draws.step_size == lone.step_size

    def test_wide_padded_batch_equals_lone_runs(self):
        # orders 1..6 at three backtest origins: 18 chains padded in both n
        # and p, whose windows' residual shifts are formed in row blocks
        y = laplace_series(100, seed=36)
        config = McmcConfig(n_total=1000, n_burn=500)
        fits = [(TimeSeries(y.values[:t]), p, (36, t, p)) for t in (90, 95, 100) for p in range(1, 7)]
        assert len(fits) * ADAPT_WINDOW > SHIFT_BLOCK_ROWS
        batch = run_mh_batch(fits, ErrorFamily.LAPLACE, config)
        for (window, p, fit_seed), draws in zip(fits, batch):
            lone = run_mh(window, p, ErrorFamily.LAPLACE, replace(config, seed=fit_seed))
            assert draws.beta_draws.tobytes() == lone.beta_draws.tobytes()
            assert draws.tau_draws.tobytes() == lone.tau_draws.tobytes()
            assert np.array_equal(draws.accepted, lone.accepted)
            assert draws.step_size == lone.step_size

    def test_gapped_order_batch_equals_lone_runs(self):
        # the batch shapes of a planned BMA mixture: each window samples only
        # some orders, with gaps, and the widest order is not the last fit
        y = laplace_series(100, seed=37)
        config = McmcConfig(n_total=1000, n_burn=500)
        plan = {90: (1, 2, 5, 8), 95: (3,), 100: (1, 7)}
        fits = [(TimeSeries(y.values[:t]), p, (37, t, p)) for t, orders in plan.items() for p in orders]
        batch = run_mh_batch(fits, ErrorFamily.LAPLACE, config)
        for (window, p, fit_seed), draws in zip(fits, batch):
            lone = run_mh(window, p, ErrorFamily.LAPLACE, replace(config, seed=fit_seed))
            assert draws.beta_draws.tobytes() == lone.beta_draws.tobytes()
            assert draws.tau_draws.tobytes() == lone.tau_draws.tobytes()
            assert np.array_equal(draws.accepted, lone.accepted)
            assert draws.step_size == lone.step_size

    def test_one_step_segments_match_sequential_chain_oracle(self):
        # n_burn = 201 cuts a segment [200, 201) and n_total = 801 leaves
        # [800, 801): a one-step segment's steps equal the up-front draws'
        # (numpy's one-row product rounds differently; it moves orders 7 and 8)
        y = laplace_series(90, seed=(33, 201))
        cfg = McmcConfig(n_total=801, n_burn=201, seed=(33, 201))
        for order in range(1, 9):
            draws = run_mh(y, order, ErrorFamily.LAPLACE, cfg)
            betas, taus, accepted, step = sequential_chain_oracle(y, order, cfg)
            assert draws.beta_draws.tobytes() == betas.tobytes()
            assert draws.tau_draws.tobytes() == taus.tobytes()
            np.testing.assert_array_equal(draws.accepted, accepted)
            assert draws.step_size == step

    def test_batch_holds_no_predrawn_run(self):
        # a chain draws its random numbers segment by segment, so its memory
        # follows the kept draws, not n_total: drawn up front, the steps, the
        # uniforms and their product would be 10000 x 21 doubles each (5 MiB)
        y = laplace_series(80, seed=34)
        tracemalloc.start()
        try:
            run_mh_batch([(y, 20, 4)], ErrorFamily.LAPLACE, McmcConfig(n_total=10_000, n_burn=9_800))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_backtest_shaped_batch_memory_follows_its_kept_draws(self):
        # orders 1..8 at five backtest origins, 8000/4000: the 40 chains' kept
        # draws are 8.1 MiB.  The shifts of a whole window (40 x 200 x 103
        # doubles, 6.6 MB) took the peak to 22.7 MiB; formed in row blocks in
        # one buffer, it reads 11.1 MiB
        y = laplace_series(105, seed=35)
        fits = [(TimeSeries(y.values[:t]), p, (35, t, p)) for t in range(100, 105) for p in range(1, 9)]
        tracemalloc.start()
        try:
            run_mh_batch(fits, ErrorFamily.LAPLACE, McmcConfig(n_total=8000, n_burn=4000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_mse_shaped_batch_memory_holds_no_residual_block(self):
        # five default MSE-study fits (T=200, p=2, 40000/25000): the returned
        # (beta, tau) pairs are 2.3 MiB.  Forming each fit's 15000 x 198
        # residuals to redraw tau took the peak to 25.3 MiB
        fits = [(laplace_series(200, seed=(36, i)), 2, (36, i)) for i in range(5)]
        tracemalloc.start()
        try:
            run_mh_batch(fits, ErrorFamily.LAPLACE, McmcConfig(n_total=40_000, n_burn=25_000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("family", list(ErrorFamily), ids=lambda f: f.value)
    def test_trace_export(self, tmp_path, family):
        # a chain's rows are numbered after its burn-in; exact (Gaussian)
        # draws have none, and each reads as accepted
        y = laplace_series(60, seed=13)
        cfg = McmcConfig(n_total=500, n_burn=200, seed=7)
        data = tmp_path / "in.csv"
        data.write_text("".join(f"{float(v)!r}\n" for v in y.values))
        out = tmp_path / "out"
        code = main(
            ["fit", "--input", str(data), "--order", "2", "--family", family.value, "--n-total", "500",
             "--n-burn", "200", "--seed", "7", "--trace", "--out", str(out)]
        )
        assert code == 0
        draws = run_mh(y, 2, family, cfg)
        with open(out / "trace.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iter", "beta_0", "beta_1", "beta_2", "scale", "accepted"]
        assert len(rows) - 1 == draws.n_kept
        assert int(rows[1][0]) == (1 if family is ErrorFamily.GAUSSIAN else cfg.n_burn + 1)
        betas = np.array([[float(v) for v in r[1:-2]] for r in rows[1:]])
        np.testing.assert_allclose(betas, draws.beta_draws)
        taus = np.array([float(r[-2]) for r in rows[1:]])
        np.testing.assert_allclose(taus, draws.tau_draws)
        accepted = [r[-1] for r in rows[1:]]
        assert set(accepted) <= {"0", "1"}
        rate = json.loads((out / "fit.json").read_text())["acceptance_rate"]
        assert np.mean([int(a) for a in accepted]) == rate


class TestProposalSymmetry:
    def test_acceptance_uses_target_ratios_only(self, monkeypatch):
        # on a flat target every ratio is 1, so with no proposal density
        # terms in the ratio every proposal is accepted and the chain always moves
        monkeypatch.setattr(mcmc, "LAPLACE_MODEL", _FlatModel())
        cfg = McmcConfig(n_total=500, n_burn=100, seed=1)
        rng = np.random.default_rng(0)
        X, targets = rng.normal(size=(30, 2)), rng.normal(size=30)
        [(kept, kept_accepted, _, _)] = _lockstep_chains([(X, targets, np.zeros(2), np.eye(2), rng)], cfg)
        assert kept_accepted.all()
        assert np.all(np.any(kept[1:] != kept[:-1], axis=1))


class TestAcceptScreen:
    """A chain accepts a proposal iff 0 < s' < s q, q = u^(-1/n), without a log."""

    def test_tied_integer_batches_match_sequential_chain_oracle(self):
        # integer-valued series: many tied residuals and tied lags.  Every
        # draw, flag, step and scale must be the log rule's
        rng = np.random.default_rng(38)
        walk = TimeSeries(np.cumsum(rng.integers(-2, 3, 70)).astype(float))
        counts = TimeSeries(rng.poisson(3.0, 60).astype(float))
        cfg = McmcConfig(n_total=1400, n_burn=601)
        fits = [(y, p, (38, i, p)) for i, y in enumerate((walk, counts)) for p in (1, 2, 4)]
        batch = run_mh_batch(fits, ErrorFamily.LAPLACE, cfg)
        for (y, order, seed), draws in zip(fits, batch):
            betas, taus, accepted, step = sequential_chain_oracle(y, order, replace(cfg, seed=seed))
            assert draws.beta_draws.tobytes() == betas.tobytes()
            assert draws.tau_draws.tobytes() == taus.tobytes()
            np.testing.assert_array_equal(draws.accepted, accepted)
            assert draws.step_size == step

    def test_zero_proposal_objective_raises(self):
        # targets 3 on an intercept-only design, started at 3.5 (S = 0.25 n):
        # the shape is chosen so that the first step is exactly -0.5, which
        # lands the proposal on the perfect fit
        seed = 39
        u0 = np.random.default_rng(seed).uniform(-PROPOSAL_HALF_WIDTH, PROPOSAL_HALF_WIDTH)
        shape = np.array([[-1.0 / (32.0 * u0)]])
        assert INITIAL_STEP * (u0 * shape[0, 0]) == -0.5
        chain = (np.ones((20, 1)), np.full(20, 3.0), np.array([3.5]), shape, np.random.default_rng(seed))
        with pytest.raises(DegenerateDataError, match="zero residual objective"):
            _lockstep_chains([chain], McmcConfig(n_total=400, n_burn=200))

    def test_nan_objective_rejects(self, monkeypatch):
        # objectives above a cap read NaN in one run and +inf in the other:
        # both fail the comparison and are rejected, so both runs make the
        # same draws
        y = laplace_series(90, seed=40)
        cfg = McmcConfig(n_total=1200, n_burn=400)
        runs = []
        for fill in (np.nan, np.inf):
            chains = []
            for p in (1, 3):
                X, targets = lag_design(y.values, p, p + 1)
                beta_hat, L = least_squares_shape(X, targets)
                chains.append((X, targets, beta_hat, L, np.random.default_rng((40, p))))
            cap = 1.02 * max(float(LAPLACE_MODEL.norm(t - X @ b)) for X, t, b, _, _ in chains)
            model = _CappedModel(cap, fill)
            monkeypatch.setattr(mcmc, "LAPLACE_MODEL", model)
            runs.append((_lockstep_chains(chains, cfg), model))
        (nan_run, nan_model), (inf_run, inf_model) = runs
        assert nan_model.capped == inf_model.capped > 100
        for (kept, accepted, a, _), (kept_inf, accepted_inf, a_inf, _) in zip(nan_run, inf_run):
            assert kept.tobytes() == kept_inf.tobytes()
            np.testing.assert_array_equal(accepted, accepted_inf)
            assert a == a_inf

    def test_halved_norms_decide_as_objectives(self):
        # the chain compares norms N = 2 S: 0.5 a < (0.5 b) q iff a < b q,
        # since halving is exact above the subnormals, and where b q overflows
        # (0.5 b) q exceeds half the largest float, so every finite a passes both
        rng = np.random.default_rng(56)
        b = np.exp(rng.uniform(-360.0, 709.7, 100_000))
        q = rng.uniform(1.0, 2.0, b.size)
        with np.errstate(over="ignore"):
            bq = b * q
            near = bq * (1.0 + rng.integers(-3, 4, b.size) * np.finfo(float).eps)
            a = np.where(rng.random(b.size) < 0.5, near, b * rng.uniform(0.5, 2.5, b.size))
        big = np.finfo(float).max
        b = np.r_[b, np.full(5, big / 1.5), big, big]
        q = np.r_[q, np.full(5, 1.9), np.nextafter(1.0, 2.0), 1.0]
        a = np.r_[a, big, big / 1.5, np.inf, np.nan, 0.0, big, big]
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isinf(b * q).sum() > 10
            assert np.array_equal(0.5 * a < (0.5 * b) * q, a < b * q)

    def test_log_uniform_of_minus_inf_accepts(self):
        # a PCG64 state whose first log-uniform draw is log 0 = -inf (its
        # successor state has equal halves, so the XSL-RR output is 0): the
        # first proposal, tens of standard errors from the fit on a widened
        # shape, is then accepted
        y = laplace_series(90, seed=41)
        X, targets = lag_design(y.values, 2, 3)
        beta_hat, L = least_squares_shape(X, targets)
        L = 25.0 * L
        cfg = McmcConfig(n_total=400, n_burn=0)
        bits = np.random.PCG64(41)
        state = bits.state
        half = 0x0123456789ABCDEF
        state["state"]["state"] = (half << 64) | half
        bits.state = state
        bits.advance(2**128 - 1 - cfg.n_total * 3)  # back past the chain's steps
        rng = np.random.Generator(bits)
        replay = copy.deepcopy(rng)
        replay.bit_generator.advance(cfg.n_total * 3)
        assert replay.random() == 0.0
        with np.errstate(divide="ignore"):
            [(kept, accepted, _, _)] = _lockstep_chains([(X, targets, beta_hat, L, rng)], cfg)
        assert accepted[0]
        assert np.any(kept[0] != beta_hat)
        # any other draw would accept this proposal with probability exp(lr) < 1e-8
        s_new, s_old = (float(LAPLACE_MODEL.objective(targets - X @ b)) for b in (kept[0], beta_hat))
        assert -targets.size * math.log(s_new / s_old) < -20


class TestExactGaussianDraws:
    def test_match_long_chain_on_rss_marginal(self, monkeypatch):
        # the exact t draws against a long RW-MH chain on RSS(beta)^(-n/2),
        # with about 20,000 effective draws on each side.  Means agree within
        # 4 Monte Carlo SEs (the chain's from 300 batch means), SDs within 3%
        # (an SD's relative SE is about 0.7% here) and the 5/50/95% quantiles
        # within 0.1 posterior SD (the 5% quantile's SE is about 0.02 SD).
        y = simulate_series(AR2, ErrorFamily.GAUSSIAN, 100, burn=200, seed=16)
        X, targets = lag_design(y.values, 2, 3)
        exact = run_mh(y, 2, ErrorFamily.GAUSSIAN, McmcConfig(n_total=24_000, n_burn=4_000, seed=17))
        chain_cfg = McmcConfig(n_total=310_000, n_burn=10_000, seed=18)
        rng = np.random.default_rng(as_seed_tuple(chain_cfg.seed))
        beta_hat, L = least_squares_shape(X, targets)
        monkeypatch.setattr(mcmc, "LAPLACE_MODEL", _RssMarginalModel())
        [(chain, _, _, _)] = _lockstep_chains([(X, targets, beta_hat, L, rng)], chain_cfg)

        sd = exact.beta_draws.std(axis=0)
        batch_means = chain.reshape(300, -1, 3).mean(axis=1)
        chain_se = batch_means.std(axis=0, ddof=1) / math.sqrt(300)
        exact_se = sd / math.sqrt(exact.n_kept)
        gap = np.abs(exact.beta_draws.mean(axis=0) - chain.mean(axis=0))
        assert np.all(gap <= 4 * np.hypot(chain_se, exact_se))
        np.testing.assert_allclose(sd, chain.std(axis=0), rtol=0.03)
        q = [0.05, 0.5, 0.95]
        q_gap = np.abs(np.quantile(exact.beta_draws, q, axis=0) - np.quantile(chain, q, axis=0))
        assert np.all(q_gap <= 0.1 * sd)

    @pytest.mark.parametrize("order", [1, 3])
    def test_joint_draws_follow_normal_inverse_gamma(self, order):
        # under the prior 1/sigma^2 the joint posterior is Normal-Inverse-Gamma:
        # sigma^2 ~ InvGamma(nu/2, RSS(beta_hat)/2), R (beta - beta_hat) / sigma
        # ~ N(0, I), and RSS(beta) / sigma^2 ~ chi2(n), whatever beta is, so
        # the joint draws also have the conditional law sigma^2 | beta
        y = simulate_series(AR2, ErrorFamily.GAUSSIAN, 80, burn=200, seed=(19, order))
        X, targets = lag_design(y.values, order, order + 1)
        n = targets.size
        nu = n - order - 1
        draws = run_mh(y, order, ErrorFamily.GAUSSIAN, McmcConfig(n_total=20_000, n_burn=0, seed=(19, order)))
        Q, R = np.linalg.qr(X)
        beta_hat = np.linalg.solve(R, Q.T @ targets)
        rss_hat = float((targets - X @ beta_hat) @ (targets - X @ beta_hat))
        sigma2 = draws.tau_draws**2
        pvalues = [stats.kstest(sigma2, stats.invgamma(a=nu / 2, scale=rss_hat / 2).cdf).pvalue]
        standardized = (draws.beta_draws - beta_hat) @ R.T / draws.tau_draws[:, None]
        pvalues += [stats.kstest(col, stats.norm.cdf).pvalue for col in standardized.T]
        resid = targets[None, :] - draws.beta_draws @ X.T
        pvalues.append(stats.kstest((resid * resid).sum(axis=1) / sigma2, stats.chi2(n).cdf).pvalue)
        assert min(pvalues) > 0.01

    def test_backtest_shaped_batch_memory_holds_no_residual_block(self):
        # orders 1..8 at five backtest origins, 8000/4000: the 40 fits' returned
        # (beta, sigma) pairs are 7.9 MiB.  A second pass that formed each
        # fit's 4000 x n residuals to redraw sigma took the peak to 11.7 MiB
        y = simulate_series(AR2, ErrorFamily.GAUSSIAN, 105, burn=200, seed=37)
        fits = [(TimeSeries(y.values[:t]), p, (37, t, p)) for t in range(100, 105) for p in range(1, 9)]
        tracemalloc.start()
        try:
            run_mh_batch(fits, ErrorFamily.GAUSSIAN, McmcConfig(n_total=8000, n_burn=4000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20


class TestStationaryDistribution:
    def test_matches_long_reference_chain(self):
        # post burn-in the kernel is fixed; a 10x longer reference run should
        # give the same marginal distribution of the slope coefficient
        y = laplace_series(60, seed=14)
        base = run_mh(y, 1, ErrorFamily.LAPLACE, McmcConfig(n_total=40_000, n_burn=5_000, seed=8))
        ref = run_mh(y, 1, ErrorFamily.LAPLACE, McmcConfig(n_total=355_000, n_burn=5_000, seed=9))
        a = base.beta_draws[::20, 1]
        b = ref.beta_draws[::200, 1]
        stat = ks_2samp(a, b).statistic
        assert stat < 0.05


class TestQuadratureOracle:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_chain_quantiles_match_the_grid(self, seed):
        # the chain against its real target integrated on a grid, not against
        # another chain: at p = 1 the 801^2 grid's quantiles move by under
        # 1e-4 SD when its spacing is halved and its range widened to +-9 SDs.
        # A lone chain's 5/50/95% quantiles of beta_0 and beta_1 over 100,000
        # kept draws must agree within 4 Monte Carlo SEs, each SE from the
        # quantiles of 50 batches of 2,000 draws.  A target of S^(-n/2) would
        # move the outer quantiles by about 0.7 SD, and the bound is kept
        # far below that
        y = simulate_series(AR1, ErrorFamily.LAPLACE, 60, burn=200, seed=(50, seed))
        X, targets = lag_design(y.values, 1, 2)
        q = [0.05, 0.5, 0.95]
        grid, sd = grid_marginal_quantiles(X, targets, q)
        cfg = McmcConfig(n_total=110_000, n_burn=10_000, seed=(50, seed))
        draws = run_mh(y, 1, ErrorFamily.LAPLACE, cfg).beta_draws
        batches = np.quantile(draws.reshape(50, -1, 2), q, axis=1)
        se = batches.std(axis=1, ddof=1) / math.sqrt(50)
        assert np.all(4 * se < 0.15 * sd)
        assert np.all(np.abs(np.quantile(draws, q, axis=0) - grid) <= 4 * se)


class TestMcmcConfig:
    def test_burn_in_bound(self):
        with pytest.raises(ValueError):
            McmcConfig(n_total=100, n_burn=100)

