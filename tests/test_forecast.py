import csv
import warnings
from dataclasses import replace

import numpy as np
import pytest

from bayesmar import (
    BacktestSpec,
    Coefficients,
    ErrorFamily,
    McmcConfig,
    MethodSpec,
    PosteriorDraws,
    TimeSeries,
    bma_forecast,
    build_ensemble,
    credible_interval,
    diff1,
    fit_and_forecast,
    forecast_levels,
    point_forecast,
    run_backtest,
    run_mh,
    sample_paths,
    simulate_series,
)
from bayesmar.forecast import (
    SCALE_DIFFERENCED,
    SCALE_LEVEL,
    ForecastResult,
    forecast_family,
    per_order_forecasts,
)
from bayesmar import forecast as forecast_module
from bayesmar.cli import main

AR2 = Coefficients.from_values([0.3, 0.75, -0.35])


def constant_draws(beta_row, tau, n=200):
    return PosteriorDraws(
        beta_draws=np.tile(np.asarray(beta_row, dtype=float), (n, 1)),
        tau_draws=np.full(n, tau),
        accepted=np.ones(n, dtype=bool),
        step_size=1.0,
        n_burn=0,
    )


def result_with_paths(paths, level=0.95, scale=SCALE_DIFFERENCED, statistic="mean"):
    return ForecastResult(np.asarray(paths, dtype=float), level, scale, statistic)


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

    @pytest.mark.parametrize("family", list(ErrorFamily), ids=lambda f: f.value)
    def test_explosive_draw_raises_naming_order_and_horizon(self, family):
        # one of 20 draws doubles each step from y_T = 1 with negligible
        # noise, so its path is 2^h and overflows at h = 1024; the other
        # draws' paths stay finite
        betas = np.tile([0.0, 0.5], (20, 1))
        betas[7] = [0.0, 2.0]
        draws = PosteriorDraws(betas, np.full(20, 1e-300), np.ones(20, dtype=bool), 1.0, 0)
        y = TimeSeries(np.array([3.0, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match="order-1 paths at horizon 1024$"):
                sample_paths(y, draws, 1100, family, seed=0)
        assert np.all(np.isfinite(sample_paths(y, draws, 1023, family, seed=0)))


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
        assert mixed.paths.shape == res.paths.shape
        # every mixed path is one of the input paths
        assert all(any(np.array_equal(row, p) for p in res.paths) for row in mixed.paths[:10])

    def test_two_orders_point_average(self):
        a = result_with_paths(np.zeros((100, 1)))
        b = result_with_paths(np.full((100, 1), 2.0))
        mixed = bma_forecast([a, b], np.array([0.5, 0.5]), seed=2)
        assert mixed.point[0] == 1.0

    def test_degenerate_weights_draw_from_one_order(self):
        rng = np.random.default_rng(29)
        a = result_with_paths(rng.normal(size=(200, 3)))
        b = result_with_paths(rng.normal(size=(200, 3)))
        mixed = bma_forecast([a, b], np.array([1.0, 0.0]), seed=3)
        assert {tuple(row) for row in mixed.paths} <= {tuple(row) for row in a.paths}

    @pytest.mark.parametrize("statistic", ["mean", "median"])
    def test_point_is_statistic_of_own_paths(self, statistic):
        # the mixture's point is read from its resampled paths, not averaged
        # from the orders' points, and the level rebuild keeps the statistic
        rng = np.random.default_rng(30)
        results = [result_with_paths(rng.laplace(c, 1.0, size=(301, 3)), statistic=statistic)
                   for c in (0.0, 1.0, 5.0)]
        mixed = bma_forecast(results, np.array([0.2, 0.5, 0.3]), seed=6)
        assert mixed.statistic == statistic
        np.testing.assert_array_equal(mixed.point, getattr(np, statistic)(mixed.paths, axis=0))
        levels = forecast_levels(mixed, 4.0)
        assert (levels.statistic, levels.scale_note) == (statistic, SCALE_LEVEL)
        np.testing.assert_array_equal(levels.point, getattr(np, statistic)(levels.paths, axis=0))

    def test_mismatched_statistic_rejected(self):
        a = result_with_paths(np.zeros((10, 1)))
        b = result_with_paths(np.zeros((10, 1)), statistic="median")
        with pytest.raises(ValueError, match="statistic"):
            bma_forecast([a, b], np.array([0.5, 0.5]), seed=0)

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

    def test_overflowing_levels_raise_naming_the_horizon(self):
        # every change is finite, but one path's running sum passes the
        # largest double at horizon 2; no numpy warning comes first
        res = result_with_paths(np.array([[1e308, 1e308, 1.0], [1.0, 1.0, 1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match="overflow the level paths at horizon 2$"):
                forecast_levels(res, 0.0)

    def test_requires_differenced_input(self):
        res = result_with_paths(np.zeros((10, 2)), scale=SCALE_LEVEL)
        with pytest.raises(ValueError):
            forecast_levels(res, 0.0)

    def test_level_variance_nondecreasing_in_horizon(self):
        changes = simulate_series(AR2, ErrorFamily.LAPLACE, 160, burn=200, seed=43)
        draws = run_mh(changes, 2, ErrorFamily.LAPLACE, McmcConfig(n_total=4000, n_burn=2000, seed=44))
        paths = sample_paths(changes, draws, 6, ErrorFamily.LAPLACE, seed=45)
        res = ForecastResult(paths, 0.95, SCALE_DIFFERENCED)
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

    def test_unknown_statistic_runs_no_chain(self, monkeypatch):
        calls = []
        run = forecast_module.run_mh_batch
        monkeypatch.setattr(
            forecast_module, "run_mh_batch", lambda *args: calls.append(args) or run(*args)
        )
        series = simulate_series(AR2, ErrorFamily.LAPLACE, 90, burn=200, seed=49)
        config = McmcConfig(n_total=400, n_burn=200)
        with pytest.raises(ValueError, match="unknown point statistic"):
            forecast_family(
                [(series, (0,))], [MethodSpec(ErrorFamily.LAPLACE, "bma")], 2, 3, config,
                statistic="mode",
            )
        assert calls == []

    @pytest.mark.parametrize("thin", [1, 3])
    def test_per_order_plan_of_one_path_runs_no_chain(self, monkeypatch, thin):
        # n_total - n_burn <= thin leaves 1 path per order: rejected by
        # check_plan before any chain, as in every other plan
        calls = []
        monkeypatch.setattr(forecast_module, "run_mh_batch", lambda *args: calls.append(args))
        series = simulate_series(AR2, ErrorFamily.LAPLACE, 90, burn=200, seed=49)
        config = McmcConfig(n_total=400 + thin, n_burn=400)
        with pytest.raises(ValueError, match="gives 1 path"):
            per_order_forecasts(
                series, ErrorFamily.LAPLACE, (1, 2), 2, config, 0.95, SCALE_LEVEL, (0,), thin=thin
            )
        assert calls == []

    @pytest.mark.parametrize("family", list(ErrorFamily), ids=lambda f: f.value)
    def test_no_orders_sample_nothing(self, family):
        series = simulate_series(AR2, ErrorFamily.LAPLACE, 90, burn=200, seed=49)
        config = McmcConfig(n_total=400, n_burn=200)
        assert list(forecast_module.run_mh_batch([], family, config)) == []
        assert per_order_forecasts(series, family, [], 2, config, 0.95, SCALE_LEVEL, (0,)) == {}

    def test_no_methods_rejected(self):
        series = simulate_series(AR2, ErrorFamily.LAPLACE, 90, burn=200, seed=49)
        config = McmcConfig(n_total=400, n_burn=200)
        with pytest.raises(ValueError, match="at least one method"):
            forecast_family([(series, (0,))], [], 2, 3, config)

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


def mixture_counts(weights, n_paths, seed):
    """Each order's BMA row count: floor counts, then one multinomial over the remainders."""
    raw = weights / weights.sum() * n_paths
    counts = np.floor(raw).astype(int)
    leftover = n_paths - int(counts.sum())
    if leftover > 0:
        frac = raw - counts
        counts += np.random.default_rng(seed).multinomial(leftover, frac / frac.sum())
    return counts


class TestMixturePlan:
    @pytest.mark.parametrize("family", list(ErrorFamily), ids=lambda f: f.value)
    @pytest.mark.parametrize("thin", [1, 3])
    @pytest.mark.parametrize("apply_diff", [False, True], ids=["levels", "diff"])
    @pytest.mark.parametrize("statistic", ["mean", "median"])
    def test_planned_orders_equal_all_orders_oracle(self, monkeypatch, family, thin, apply_diff, statistic):
        # the oracle samples orders 1..6 and mixes them with bma_forecast;
        # forecast_family samples only the orders with mixture rows, the MAP
        # order and a fixed order that has no rows, and gives the same bytes
        K, horizon, base = 6, 3, (56,)
        series = simulate_series(AR2, family, 90, burn=200, seed=61)
        config = McmcConfig(n_total=600, n_burn=300)
        work = diff1(series) if apply_diff else series
        scale = SCALE_DIFFERENCED if apply_diff else SCALE_LEVEL
        ens = build_ensemble(work, K, family)
        counts = mixture_counts(ens.weights, -(-300 // thin), base + (0, 2))
        unmixed = [p for p, count in enumerate(counts, 1) if count == 0]
        assert unmixed
        methods = [
            MethodSpec(family, "bma"), MethodSpec(family, "map"), MethodSpec(family, "fixed", unmixed[0])
        ]
        by_order = per_order_forecasts(work, family, range(1, K + 1), horizon, config, 0.95, scale, base, thin)
        oracle = {
            methods[0]: bma_forecast([by_order[p] for p in range(1, K + 1)], ens.weights, base + (0, 2)),
            methods[1]: by_order[ens.map_order],
            methods[2]: by_order[unmixed[0]],
        }

        sampled, pathed = [], []
        run, paths = forecast_module.run_mh_batch, forecast_module.sample_paths
        monkeypatch.setattr(
            forecast_module, "run_mh_batch",
            lambda fits, *a: sampled.extend(p for _, p, _ in fits) or run(fits, *a),
        )
        monkeypatch.setattr(
            forecast_module, "sample_paths",
            lambda y, draws, *a: pathed.append(draws.order) or paths(y, draws, *a),
        )
        (got,) = forecast_family(
            [(series, base)], methods, horizon, K, config,
            apply_diff=apply_diff, statistic=statistic, thin=thin,
        )
        mixed = {p for p, count in enumerate(counts, 1) if count > 0}
        assert sampled == pathed == sorted(mixed | {ens.map_order, unmixed[0]})

        for m, want in oracle.items():
            want = replace(want, statistic=statistic)
            if apply_diff:
                want = forecast_levels(want, float(series.values[-1]))
            assert got[m].paths.tobytes() == want.paths.tobytes()
            assert got[m].point.tobytes() == want.point.tobytes()
            assert (got[m].scale_note, got[m].statistic, got[m].interval_level) == (
                want.scale_note, want.statistic, want.interval_level
            )

    @pytest.mark.parametrize("family", list(ErrorFamily), ids=lambda f: f.value)
    def test_mixture_alone_samples_only_orders_with_rows(self, monkeypatch, family):
        series = simulate_series(AR2, family, 90, burn=200, seed=57)
        config = McmcConfig(n_total=500, n_burn=300)
        ens = build_ensemble(series, 8, family)
        counts = mixture_counts(ens.weights, 200, (58, 0, 2))
        assert 0 in counts
        sampled = []
        run = forecast_module.run_mh_batch
        monkeypatch.setattr(
            forecast_module, "run_mh_batch",
            lambda fits, *a: sampled.extend(p for _, p, _ in fits) or run(fits, *a),
        )
        forecast_family([(series, (58,))], [MethodSpec(family, "bma")], 2, 8, config)
        assert sampled == [p for p, count in enumerate(counts, 1) if count > 0]


class TestForecastResultValidation:
    def test_intervals_are_read_from_paths(self):
        paths = np.random.default_rng(59).normal(size=(40, 3))
        res = ForecastResult(paths, 0.8, SCALE_LEVEL)
        assert (res.horizons, res.n_paths) == (3, 40)
        np.testing.assert_array_equal(res.intervals, credible_interval(paths, 0.8))

    def test_scale_note_vocabulary(self):
        with pytest.raises(ValueError, match="scale_note"):
            ForecastResult(paths=np.zeros((3, 1)), interval_level=0.9, scale_note="raw")

    @pytest.mark.parametrize(
        "paths, level, statistic, match",
        [
            (np.zeros(3), 0.9, "mean", "paths must be"),
            (np.zeros((0, 2)), 0.9, "mean", "paths must be"),
            (np.zeros((3, 1)), 1.0, "mean", "level must lie"),
            (np.zeros((3, 1)), 0.0, "mean", "level must lie"),
            (np.zeros((3, 1)), 0.9, "mode", "unknown point statistic"),
        ],
        ids=["paths-not-2d", "no-paths", "level-1", "level-0", "unknown-statistic"],
    )
    def test_malformed_input_rejected(self, paths, level, statistic, match):
        with pytest.raises(ValueError, match=match):
            ForecastResult(paths, level, SCALE_LEVEL, statistic)


class TestIntervalsOnDemand:
    def test_only_the_cli_forecast_computes_intervals(self, tmp_path, monkeypatch):
        calls = []

        def counting(paths, level):
            calls.append(level)
            return credible_interval(paths, level)

        monkeypatch.setattr(forecast_module, "credible_interval", counting)
        series = simulate_series(AR2, ErrorFamily.LAPLACE, 50, burn=200, seed=61)
        methods = tuple(
            MethodSpec(family, rule)
            for family in (ErrorFamily.LAPLACE, ErrorFamily.GAUSSIAN)
            for rule in ("bma", "map")
        )
        spec = BacktestSpec(
            series=series, t0=47, horizons=2, methods=methods,
            mcmc=McmcConfig(n_total=300, n_burn=150), max_order=3, seed=62,
        )
        run_backtest(spec)
        assert calls == []

        data = tmp_path / "in.csv"
        data.write_text("".join(f"{float(v)!r}\n" for v in series.values))
        code = main(
            ["forecast", "--input", str(data), "--k", "3", "--h", "2", "--level", "0.8",
             "--n-total", "300", "--n-burn", "150", "--out", str(tmp_path / "out")]
        )
        assert code == 0
        assert calls == [0.8]
