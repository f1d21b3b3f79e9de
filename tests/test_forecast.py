import csv
import warnings

import numpy as np
import pytest

from bayesmar import (
    Coefficients,
    ErrorFamily,
    McmcConfig,
    MethodSpec,
    PosteriorDraws,
    TimeSeries,
    bma_forecast,
    build_ensemble,
    credible_interval,
    fit_and_forecast,
    forecast_levels,
    point_forecast,
    run_mh,
    sample_paths,
    simulate_series,
)
from bayesmar.forecast import (
    SCALE_DIFFERENCED,
    SCALE_LEVEL,
    ForecastResult,
    per_order_forecasts,
    result_from_paths,
)
from bayesmar.cli import main

AR2 = Coefficients.from_values([0.3, 0.75, -0.35])


def constant_draws(beta_row, tau, n=200, order=None):
    beta_row = np.asarray(beta_row, dtype=float)
    order = order if order is not None else beta_row.size - 1
    return PosteriorDraws(
        beta_draws=np.tile(beta_row, (n, 1)),
        tau_draws=np.full(n, tau),
        accepted=np.ones(n, dtype=bool),
        step_size=1.0,
        order=order,
        n_total=n,
        n_burn=0,
    )


def result_with_paths(paths, level=0.95, scale=SCALE_DIFFERENCED):
    return result_from_paths(np.asarray(paths, dtype=float), level, scale)


class TestSamplePaths:
    def test_floored_scale_gives_deterministic_recursion(self):
        y = TimeSeries(np.array([0.1, -0.4, 0.8, 0.2]))
        draws = constant_draws(AR2.beta, 1e-10, n=50)
        paths = sample_paths(y, draws, 3, ErrorFamily.LAPLACE, seed=1)
        h1 = 0.3 + 0.75 * 0.2 - 0.35 * 0.8
        h2 = 0.3 + 0.75 * h1 - 0.35 * 0.2
        h3 = 0.3 + 0.75 * h2 - 0.35 * h1
        np.testing.assert_allclose(paths, np.tile([h1, h2, h3], (50, 1)), atol=1e-6)

    def test_one_step_mean_matches_location_average(self):
        rng = np.random.default_rng(5)
        betas = AR2.beta + 0.02 * rng.normal(size=(4000, 3))
        tau = 0.5
        draws = constant_draws(AR2.beta, tau, n=4000)
        draws = PosteriorDraws(
            beta_draws=betas,
            tau_draws=np.full(4000, tau),
            accepted=np.ones(4000, dtype=bool),
            step_size=1.0,
            order=2,
            n_total=4000,
            n_burn=0,
        )
        y = TimeSeries(np.array([0.5, 1.2]))
        paths = sample_paths(y, draws, 1, ErrorFamily.LAPLACE, seed=2)
        locations = betas[:, 0] + betas[:, 1] * 1.2 + betas[:, 2] * 0.5
        se = np.sqrt(8 * tau * tau / 4000)
        assert abs(paths[:, 0].mean() - locations.mean()) <= 3 * se

    def test_reproducible_under_fixed_seed(self):
        y = TimeSeries(np.array([0.5, 1.2, -0.3]))
        draws = constant_draws(AR2.beta, 0.4, n=100)
        a = sample_paths(y, draws, 4, ErrorFamily.LAPLACE, seed=(3, 4))
        b = sample_paths(y, draws, 4, ErrorFamily.LAPLACE, seed=(3, 4))
        np.testing.assert_array_equal(a, b)

    def test_thinning_keeps_every_kth_draw(self):
        y = TimeSeries(np.array([0.5, 1.2, -0.3]))
        draws = constant_draws(AR2.beta, 0.4, n=100)
        paths = sample_paths(y, draws, 2, ErrorFamily.LAPLACE, seed=0, thin=7)
        assert paths.shape == (15, 2)

    def test_gaussian_noise_branch(self):
        y = TimeSeries(np.array([0.0, 0.0]))
        draws = constant_draws(np.array([0.0, 0.0, 0.0]), 1.0, n=5000)
        paths = sample_paths(y, draws, 1, ErrorFamily.GAUSSIAN, seed=9)
        assert abs(paths.std() - 1.0) < 0.05

    def test_bad_horizon(self):
        y = TimeSeries(np.array([0.5, 1.2]))
        draws = constant_draws(AR2.beta, 0.4, n=10)
        with pytest.raises(ValueError):
            sample_paths(y, draws, 0, ErrorFamily.LAPLACE, seed=0)


class TestPointForecast:
    def test_constant_paths(self):
        assert point_forecast(np.full((7, 3), 2.5)).tolist() == [2.5, 2.5, 2.5]

    def test_two_paths(self):
        assert point_forecast(np.array([[0.0], [2.0]]))[0] == 1.0

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(11)
        paths = rng.normal(size=(500, 4))
        want = np.array([np.sort(paths[:, h]).sum() / 500 for h in range(4)])
        np.testing.assert_allclose(point_forecast(paths), want, atol=1e-12)

    def test_median_statistic(self):
        paths = np.array([[0.0], [0.0], [10.0]])
        assert point_forecast(paths, statistic="median")[0] == 0.0
        with pytest.raises(ValueError):
            point_forecast(paths, statistic="mode")


class TestCredibleInterval:
    def test_type7_quantiles_on_permutation(self):
        rng = np.random.default_rng(13)
        paths = rng.permutation(np.arange(1.0, 101.0))[:, None]
        interval = credible_interval(paths, 0.90)
        assert interval[0, 0] == pytest.approx(5.95, abs=1e-9)
        assert interval[0, 1] == pytest.approx(95.05, abs=1e-9)

    def test_widens_with_level(self):
        rng = np.random.default_rng(17)
        paths = rng.normal(size=(400, 2))
        narrow = credible_interval(paths, 0.5)
        wide = credible_interval(paths, 0.99)
        assert np.all(wide[:, 0] <= narrow[:, 0])
        assert np.all(wide[:, 1] >= narrow[:, 1])

    def test_symmetric_sample(self):
        x = np.concatenate([np.linspace(-3, 3, 301)])
        interval = credible_interval(x[:, None], 0.9)
        assert interval[0, 0] == pytest.approx(-interval[0, 1], abs=1e-9)

    def test_laplace_analytic_quantiles(self):
        mu, b = 1.5, 0.7
        rng = np.random.default_rng(19)
        paths = rng.laplace(mu, b, size=(10_000, 1))
        interval = credible_interval(paths, 0.95)
        half_width = b * np.log(1.0 / (2 * 0.025))
        assert interval[0, 0] == pytest.approx(mu - half_width, abs=0.2 * b)
        assert interval[0, 1] == pytest.approx(mu + half_width, abs=0.2 * b)

    def test_needs_two_paths(self):
        with pytest.raises(ValueError):
            credible_interval(np.zeros((1, 2)), 0.9)
        with pytest.raises(ValueError):
            credible_interval(np.zeros((5, 2)), 1.2)


class TestBmaForecast:
    def test_single_order_identity(self):
        rng = np.random.default_rng(23)
        res = result_with_paths(rng.normal(size=(300, 2)))
        mixed = bma_forecast([res], np.array([1.0]), seed=1)
        np.testing.assert_array_equal(mixed.point, res.point)
        assert mixed.paths.shape == res.paths.shape
        # every mixed path is one of the input paths
        assert all(any(np.array_equal(row, p) for p in res.paths) for row in mixed.paths[:10])

    def test_two_orders_point_average(self):
        a = result_with_paths(np.zeros((100, 1)))
        b = result_with_paths(np.full((100, 1), 2.0))
        mixed = bma_forecast([a, b], np.array([0.5, 0.5]), seed=2)
        assert mixed.point[0] == 1.0

    def test_degenerate_weights_reproduce_point_exactly(self):
        rng = np.random.default_rng(29)
        a = result_with_paths(rng.normal(size=(200, 3)))
        b = result_with_paths(rng.normal(size=(200, 3)))
        mixed = bma_forecast([a, b], np.array([1.0, 0.0]), seed=3)
        np.testing.assert_array_equal(mixed.point, a.point)

    def test_mixture_mean_oracle(self):
        rng = np.random.default_rng(31)
        a = result_with_paths(1.0 + 0.1 * rng.normal(size=(2000, 2)))
        b = result_with_paths(4.0 + 0.1 * rng.normal(size=(2000, 2)))
        w = np.array([0.3, 0.7])
        mixed = bma_forecast([a, b], w, seed=4)
        target = w[0] * a.paths.mean(axis=0) + w[1] * b.paths.mean(axis=0)
        spread = np.sqrt(mixed.paths.var(axis=0) / mixed.paths.shape[0])
        assert np.all(np.abs(mixed.paths.mean(axis=0) - target) <= 3 * spread + 1e-3)

    def test_path_count_preserved(self):
        rng = np.random.default_rng(37)
        results = [result_with_paths(rng.normal(size=(501, 2))) for _ in range(3)]
        mixed = bma_forecast(results, np.array([0.2, 0.5, 0.3]), seed=5)
        assert mixed.n_paths == 501

    def test_mismatched_horizons_rejected(self):
        a = result_with_paths(np.zeros((10, 1)))
        b = result_with_paths(np.zeros((10, 2)))
        with pytest.raises(ValueError):
            bma_forecast([a, b], np.array([0.5, 0.5]), seed=0)

    def test_bad_weights_rejected(self):
        a = result_with_paths(np.zeros((10, 1)))
        with pytest.raises(ValueError):
            bma_forecast([a], np.array([0.7]), seed=0)

    def test_nan_weight_rejected_without_warning(self):
        a = result_with_paths(np.zeros((10, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="weights"):
                bma_forecast([a, a], np.array([np.nan, 1.0]), seed=0)


class TestForecastLevels:
    def test_zero_changes(self):
        res = result_with_paths(np.zeros((50, 3)))
        levels = forecast_levels(res, 7.0)
        np.testing.assert_array_equal(levels.point, [7.0, 7.0, 7.0])
        assert levels.scale_note == SCALE_LEVEL

    def test_single_path_cumsum(self):
        res = result_with_paths(np.array([[1.0, -1.0], [1.0, -1.0]]))
        levels = forecast_levels(res, 0.0)
        np.testing.assert_array_equal(levels.paths, [[1.0, 0.0], [1.0, 0.0]])

    def test_point_linearity(self):
        rng = np.random.default_rng(41)
        res = result_with_paths(rng.normal(size=(500, 4)))
        levels = forecast_levels(res, 3.0)
        np.testing.assert_allclose(levels.point, 3.0 + np.cumsum(res.point), atol=1e-10)

    def test_requires_differenced_input(self):
        res = result_with_paths(np.zeros((10, 2)), scale=SCALE_LEVEL)
        with pytest.raises(ValueError):
            forecast_levels(res, 0.0)

    def test_level_variance_nondecreasing_in_horizon(self):
        changes = simulate_series(AR2, ErrorFamily.LAPLACE, 160, burn=200, seed=43)
        draws = run_mh(changes, 2, ErrorFamily.LAPLACE, McmcConfig(n_total=4000, n_burn=2000, seed=44))
        paths = sample_paths(changes, draws, 6, ErrorFamily.LAPLACE, seed=45)
        res = result_from_paths(paths, 0.95, SCALE_DIFFERENCED)
        levels = forecast_levels(res, 10.0)
        variances = levels.paths.var(axis=0)
        assert np.all(variances[1:] >= 0.98 * variances[:-1])


class TestPipeline:
    def test_bma_map_and_fixed_rules(self):
        # each rule's forecast is the layer composition: per-order forecasts
        # seeded from config.seed, mixed with the ensemble's BIC weights
        series = simulate_series(AR2, ErrorFamily.LAPLACE, 90, burn=200, seed=47)
        config = McmcConfig(n_total=600, n_burn=300, seed=48)
        ens = build_ensemble(series, 3, ErrorFamily.LAPLACE)
        by_order = per_order_forecasts(
            series, ErrorFamily.LAPLACE, (1, 2, 3), 3, config, 0.95, SCALE_LEVEL, (48,)
        )

        bma = fit_and_forecast(series, ErrorFamily.LAPLACE, 3, "bma", 3, config)
        want = bma_forecast([by_order[p] for p in (1, 2, 3)], ens.weights, seed=(48, 0, 2))
        np.testing.assert_array_equal(bma.paths, want.paths)
        np.testing.assert_array_equal(bma.intervals, want.intervals)
        np.testing.assert_array_equal(bma.point, want.paths.mean(axis=0))

        mapped = fit_and_forecast(series, ErrorFamily.LAPLACE, 3, "map", 3, config)
        np.testing.assert_array_equal(mapped.paths, by_order[ens.map_order].paths)
        np.testing.assert_array_equal(mapped.point, by_order[ens.map_order].point)

        fixed = fit_and_forecast(
            series, ErrorFamily.LAPLACE, 3, "fixed", 3, config, fixed_order=2
        )
        np.testing.assert_array_equal(fixed.paths, by_order[2].paths)
        np.testing.assert_array_equal(fixed.point, by_order[2].point)

    def test_fixed_rule_requires_order(self):
        series = simulate_series(AR2, ErrorFamily.LAPLACE, 90, burn=200, seed=49)
        config = McmcConfig(n_total=400, n_burn=200, seed=50)
        with pytest.raises(ValueError):
            fit_and_forecast(series, ErrorFamily.LAPLACE, 2, "fixed", 3, config)
        with pytest.raises(ValueError):
            fit_and_forecast(series, ErrorFamily.LAPLACE, 2, "best", 3, config)

    def test_fixed_order_rejected_with_other_rules(self):
        for rule in ("bma", "map"):
            with pytest.raises(ValueError, match="fixed_order"):
                MethodSpec(ErrorFamily.LAPLACE, rule, fixed_order=7)
        series = simulate_series(AR2, ErrorFamily.LAPLACE, 90, burn=200, seed=51)
        config = McmcConfig(n_total=400, n_burn=200, seed=52)
        with pytest.raises(ValueError, match="fixed_order"):
            fit_and_forecast(series, ErrorFamily.LAPLACE, 2, "map", 3, config, fixed_order=2)

    def test_paths_csv_round_trip(self, tmp_path):
        series = simulate_series(AR2, ErrorFamily.LAPLACE, 60, burn=200, seed=53)
        data = tmp_path / "in.csv"
        data.write_text("".join(f"{float(v)!r}\n" for v in series.values))
        code = main(
            ["forecast", "--input", str(data), "--order-rule", "fixed", "--order", "2", "--h", "3",
             "--n-total", "400", "--n-burn", "200", "--seed", "54", "--paths-csv",
             "--out", str(tmp_path / "out")]
        )
        assert code == 0
        with open(tmp_path / "out" / "forecast_paths.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["path_id", "h1", "h2", "h3"]
        res = fit_and_forecast(
            series, ErrorFamily.LAPLACE, 3, "fixed", 8, McmcConfig(n_total=400, n_burn=200, seed=54),
            fixed_order=2, apply_diff=True,
        )
        assert len(rows) == res.n_paths + 1
        assert [int(r[0]) for r in rows[1:]] == list(range(res.n_paths))
        np.testing.assert_array_equal([[float(v) for v in r[1:]] for r in rows[1:]], res.paths)


class TestForecastResultValidation:
    def test_interval_ordering_enforced(self):
        with pytest.raises(ValueError):
            ForecastResult(
                horizons=1,
                point=np.array([0.0]),
                paths=np.zeros((3, 1)),
                intervals=np.array([[1.0, -1.0]]),
                interval_level=0.9,
                scale_note=SCALE_LEVEL,
            )

    def test_scale_note_vocabulary(self):
        with pytest.raises(ValueError):
            ForecastResult(
                horizons=1,
                point=np.array([0.0]),
                paths=np.zeros((3, 1)),
                intervals=np.array([[-1.0, 1.0]]),
                interval_level=0.9,
                scale_note="raw",
            )
