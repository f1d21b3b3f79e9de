import csv
import json
import math

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
from bayesmar.core import LAPLACE_MODEL, as_seed_tuple, lag_design
from bayesmar.mcmc import ADAPT_WINDOW, PROPOSAL_HALF_WIDTH, _mh_chain
from bayesmar.mle_fit import fit_l1

AR2 = Coefficients.from_values([0.3, 0.75, -0.35])


def laplace_series(n=200, seed=0, burn=200):
    return simulate_series(AR2, ErrorFamily.LAPLACE, n, burn=burn, seed=seed)


def sequential_chain_oracle(y, order, family, config):
    """``run_mh`` as a plain loop that scores every proposal by its own
    residual, targets - X @ proposal; returns (betas, taus, accepted, step)."""
    X, targets = lag_design(y.values, order, order + 1)
    n = targets.size
    model = family.model
    rng = np.random.default_rng(as_seed_tuple(config.seed))
    beta0 = rng.random(order + 1)
    steps = rng.uniform(-PROPOSAL_HALF_WIDTH, PROPOSAL_HALF_WIDTH, size=(config.n_total, order + 1))
    log_accept_noise = np.log(rng.random(config.n_total))

    def log_target(beta):
        return model.log_marginal(model.objective(targets - X @ beta), n)

    a = config.initial_step
    current, current_lp = beta0, log_target(beta0)
    kept, accepted = [], []
    window_accepts = 0
    for i in range(config.n_total):
        proposal = current + a * steps[i]
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
            order=beta_rows.shape[1] - 1,
            n_total=n,
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
        y = simulate_series(AR2, ErrorFamily.GAUSSIAN, 200, burn=0, seed=21)
        draws = run_mh(y, 2, ErrorFamily.GAUSSIAN, McmcConfig(n_total=8000, n_burn=4000, seed=6))
        mean = posterior_mean(draws).beta
        assert np.all(np.abs(mean - AR2.beta) < 0.3)
        assert 0.20 <= draws.acceptance_rate <= 0.50

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
        # replaying run_mh's random stream through a chain on the ErrorModel
        # log-marginal reproduces its draws bit for bit, scales included
        y = laplace_series(50, seed=12)
        X, targets = lag_design(y.values, 2, 3)
        n = targets.size
        for code, family in enumerate(ErrorFamily):
            model = family.model
            cfg = McmcConfig(n_total=600, n_burn=300, seed=(12, code))
            draws = run_mh(y, 2, family, cfg)

            rng = np.random.default_rng(as_seed_tuple(cfg.seed))
            beta0 = rng.random(3)
            kept, accepted, step = _mh_chain(X, targets, model, beta0, cfg, rng)
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
        # the window-shift residuals are the per-proposal residuals up to the
        # last bits of the log target, which flip no accept decision here
        base = simulate_series(AR2, family, 120, burn=200, seed=(order, n_burn))
        y = TimeSeries(base.values * scale)
        cfg = McmcConfig(n_total=n_total, n_burn=n_burn, seed=(order, n_burn, int(scale)))
        draws = run_mh(y, order, family, cfg)
        betas, taus, accepted, step = sequential_chain_oracle(y, order, family, cfg)
        assert draws.beta_draws.tobytes() == betas.tobytes()
        assert draws.tau_draws.tobytes() == taus.tobytes()
        np.testing.assert_array_equal(draws.accepted, accepted)
        assert draws.step_size == step
        assert 0.0 < draws.acceptance_rate < 1.0

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
        assert rows[0] == ["iter", "beta_0", "beta_1", "beta_2", "tau", "accepted"]
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
        kept, kept_accepted, _ = _mh_chain(X, targets, _FlatModel(), np.zeros(2), cfg, rng)
        assert kept_accepted.all()
        assert np.all(np.any(kept[1:] != kept[:-1], axis=1))


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
