import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest
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
from bayesmar.core import GAUSSIAN_MODEL, LAPLACE_MODEL, as_seed_tuple, lag_design
from bayesmar.mcmc import (
    ADAPT_WINDOW,
    INITIAL_STEP,
    PROPOSAL_HALF_WIDTH,
    _lockstep_chains,
    run_mh_batch,
)
from bayesmar.mle_fit import fit_l1

AR2 = Coefficients.from_values([0.3, 0.75, -0.35])


def laplace_series(n=200, seed=0, burn=200):
    return simulate_series(AR2, ErrorFamily.LAPLACE, n, burn=burn, seed=seed)


def t_draw_oracle(y, order, config):
    """Gaussian ``run_mh`` from the t-draw formula, one step per line: with
    X = QR, beta = beta_hat + R^-1 z * s / sqrt(w / nu); returns (betas, sigmas)."""
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
    betas = beta_hat + (z @ np.linalg.inv(R).T) * (s_hat / np.sqrt(w / nu))[:, None]
    rss_i = np.vecdot(targets[None, :] - betas @ X.T, targets[None, :] - betas @ X.T)
    sigmas = np.sqrt(0.5 * rss_i / rng.gamma(shape=0.5 * n, scale=1.0, size=rss_i.size))
    return betas, sigmas


def least_squares_shape(X, targets):
    """The chain's start and proposal shape from the QR fit X = QR, one step
    per line: beta_hat = R^-1 Q' targets and L = R^-1 s, s^2 = RSS / (n - p - 1)."""
    Q, R = np.linalg.qr(X)
    beta_hat = np.linalg.solve(R, Q.T @ targets)
    resid = targets - X @ beta_hat
    s_hat = math.sqrt(float(resid @ resid) / (X.shape[0] - X.shape[1]))
    return beta_hat, np.linalg.inv(R) * s_hat


def sequential_chain_oracle(y, order, config):
    """Laplace ``run_mh`` as a plain loop that starts at the QR fit and scores
    every proposal current + a L u_i by its own residual, targets - X @ proposal;
    returns (betas, taus, accepted, step)."""
    X, targets = lag_design(y.values, order, order + 1)
    n = targets.size
    model = LAPLACE_MODEL
    beta_hat, L = least_squares_shape(X, targets)
    rng = np.random.default_rng(as_seed_tuple(config.seed))
    u = rng.uniform(-PROPOSAL_HALF_WIDTH, PROPOSAL_HALF_WIDTH, size=(config.n_total, order + 1))
    shaped = u @ L.T  # row i is L u_i
    log_accept_noise = np.log(rng.random(config.n_total))

    def log_target(beta):
        return model.log_marginal(model.objective(targets - X @ beta), n)

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
    taus = model.draw_scale(rng, model.objective(targets[None, :] - kept @ X.T), n)
    return kept, taus, np.array(accepted), a


class _FlatModel(type(LAPLACE_MODEL)):
    """A constant log marginal: every Metropolis log ratio is 0."""

    def log_marginal(self, objective, n):
        return 0.0


class _RssMarginalModel(type(GAUSSIAN_MODEL)):
    """The Gaussian marginal posterior RSS(beta)^(-n/2) as a chain target."""

    def log_marginal(self, objective, n):
        return -0.5 * n * math.log(objective)


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
        # log-marginal reproduces its draws bit for bit, scales included
        y = laplace_series(50, seed=12)
        X, targets = lag_design(y.values, 2, 3)
        n = targets.size
        model = LAPLACE_MODEL
        cfg = McmcConfig(n_total=600, n_burn=300, seed=(12, 0))
        draws = run_mh(y, 2, ErrorFamily.LAPLACE, cfg)

        beta_hat, L = least_squares_shape(X, targets)
        rng = np.random.default_rng(as_seed_tuple(cfg.seed))
        [(kept, accepted, step)] = _lockstep_chains([(X, targets, beta_hat, L, rng)], model, cfg)
        scales = model.draw_scale(rng, model.objective(targets[None, :] - kept @ X.T), n)
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

    @pytest.mark.parametrize("k", [-10, 3, 13])
    def test_gaussian_draws_follow_the_data_units(self, k):
        self.check_draws_follow_the_data_units(ErrorFamily.GAUSSIAN, k)

    @pytest.mark.parametrize("k", [-40, -10, 3, 13])
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

    def test_trace_export(self, tmp_path):
        y = laplace_series(60, seed=13)
        cfg = McmcConfig(n_total=500, n_burn=200, seed=7)
        data = tmp_path / "in.csv"
        data.write_text("".join(f"{float(v)!r}\n" for v in y.values))
        out = tmp_path / "out"
        code = main(
            ["fit", "--input", str(data), "--order", "2", "--n-total", "500", "--n-burn", "200",
             "--seed", "7", "--trace", "--out", str(out)]
        )
        assert code == 0
        draws = run_mh(y, 2, ErrorFamily.LAPLACE, cfg)
        with open(out / "trace.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iter", "beta_0", "beta_1", "beta_2", "scale", "accepted"]
        assert len(rows) - 1 == draws.n_kept
        assert int(rows[1][0]) == cfg.n_burn + 1
        taus = np.array([float(r[-2]) for r in rows[1:]])
        np.testing.assert_allclose(taus, draws.tau_draws)
        accepted = [r[-1] for r in rows[1:]]
        assert set(accepted) <= {"0", "1"}
        rate = json.loads((out / "fit.json").read_text())["acceptance_rate"]
        assert np.mean([int(a) for a in accepted]) == rate


class TestProposalSymmetry:
    def test_acceptance_uses_target_ratios_only(self):
        # on a flat target every log ratio is 0, so with no proposal density
        # terms in the ratio every proposal is accepted and the chain always moves
        cfg = McmcConfig(n_total=500, n_burn=100, seed=1)
        rng = np.random.default_rng(0)
        X, targets = rng.normal(size=(30, 2)), rng.normal(size=30)
        [(kept, kept_accepted, _)] = _lockstep_chains(
            [(X, targets, np.zeros(2), np.eye(2), rng)], _FlatModel(), cfg
        )
        assert kept_accepted.all()
        assert np.all(np.any(kept[1:] != kept[:-1], axis=1))


class TestExactGaussianDraws:
    def test_match_long_chain_on_rss_marginal(self):
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
        [(chain, _, _)] = _lockstep_chains(
            [(X, targets, beta_hat, L, rng)], _RssMarginalModel(), chain_cfg
        )

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


class TestMcmcConfig:
    def test_burn_in_bound(self):
        with pytest.raises(ValueError):
            McmcConfig(n_total=100, n_burn=100)
