import csv
from dataclasses import replace

import numpy as np
import pytest

from bayesmar import (
    BacktestSpec,
    Coefficients,
    DegenerateDataError,
    ErrorFamily,
    McmcConfig,
    MethodSpec,
    MseStudyReport,
    OrderStudyReport,
    SimStudyConfig,
    TimeSeries,
    build_ensemble,
    diff1,
    fit_and_forecast,
    fit_l1,
    fit_ols,
    mae,
    posterior_mean,
    rmse,
    run_mh,
    run_backtest,
    run_mse_study,
    run_order_study,
    simulate_series,
)
from bayesmar import forecast, harness, mcmc
from bayesmar.cli import _parse_methods, main

AR2 = Coefficients.from_values([0.3, 0.75, -0.35])


def mixture_orders(series, t, family, spec, mixture_seed):
    """The orders with a nonzero BMA count at origin t, plus the MAP order:
    floor counts, then one multinomial over the remainders."""
    ensemble = build_ensemble(diff1(TimeSeries(series.values[:t])), spec.max_order, family)
    n_paths = -(-(spec.mcmc.n_total - spec.mcmc.n_burn) // spec.thin)
    raw = ensemble.weights / ensemble.weights.sum() * n_paths
    counts = np.floor(raw).astype(int)
    leftover = n_paths - int(counts.sum())
    if leftover > 0:
        frac = raw - counts
        counts += np.random.default_rng(mixture_seed).multinomial(leftover, frac / frac.sum())
    return sorted({p for p, count in enumerate(counts, 1) if count > 0} | {ensemble.map_order})


class SerialPool:
    """A serial stand-in for the process pool, so stubs see every unit."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


def record_lockstep_batches(monkeypatch):
    """The chain count of every lockstep loop run in this process, in order."""
    sizes = []
    run = mcmc._lockstep_chains
    monkeypatch.setattr(
        mcmc, "_lockstep_chains", lambda chains, config: sizes.append(len(chains)) or run(chains, config)
    )
    return sizes


def record_sampled_batches(monkeypatch):
    """(family, fit seeds, batch sizes) of every ``run_mh_batch`` call of the
    forecast planner, in order; a call's batches are sampled before the next call."""
    calls = []
    run, sample = forecast.run_mh_batch, mcmc._sample_batch

    def recording(fits, family, config):
        calls.append((family, [seed for _, _, seed in fits], []))
        return run(fits, family, config)

    def sampling(batch, family, config):
        calls[-1][2].append(len(batch))
        return sample(batch, family, config)

    monkeypatch.setattr(forecast, "run_mh_batch", recording)
    monkeypatch.setattr(mcmc, "_sample_batch", sampling)
    return calls


def small_backtest_spec(series, methods, **kwargs):
    defaults = dict(
        series=series,
        t0=len(series) - 4,
        horizons=3,
        methods=methods,
        mcmc=McmcConfig(n_total=400, n_burn=200),
        max_order=3,
        seed=5,
    )
    defaults.update(kwargs)
    return BacktestSpec(**defaults)


class TestSimulateSeries:
    def test_zero_noise_converges_to_fixed_point(self):
        ts = simulate_series(AR2, ErrorFamily.LAPLACE, 200, burn=0, seed=0, scale=0.0)
        assert ts.values[-1] == pytest.approx(0.3 / 0.6, abs=1e-9)

    def test_reproducible(self):
        a = simulate_series(AR2, ErrorFamily.LAPLACE, 50, seed=9)
        b = simulate_series(AR2, ErrorFamily.LAPLACE, 50, seed=9)
        np.testing.assert_array_equal(a.values, b.values)

    def test_lag1_autocorrelation_matches_yule_walker(self):
        ts = simulate_series(AR2, ErrorFamily.LAPLACE, 100_000, burn=200, seed=12)
        x = ts.values - ts.values.mean()
        rho1 = float((x[1:] * x[:-1]).sum() / (x * x).sum())
        assert rho1 == pytest.approx(0.75 / 1.35, abs=0.02)

    def test_gaussian_noise_variance(self):
        ts = simulate_series(AR2, ErrorFamily.GAUSSIAN, 50_000, burn=200, seed=13)
        resid = ts.values[2:] - (0.3 + 0.75 * ts.values[1:-1] - 0.35 * ts.values[:-2])
        assert resid.std() == pytest.approx(1.0, abs=0.02)

    def test_bad_length(self):
        with pytest.raises(ValueError):
            simulate_series(AR2, ErrorFamily.LAPLACE, 0)

    @pytest.mark.parametrize("order", [1, 2, 3, 5])
    def test_recursion_matches_lfilter_bit_for_bit(self, order):
        from scipy.signal import lfilter

        rng = np.random.default_rng(order)
        for i, error in enumerate(ErrorFamily):
            beta = Coefficients.from_values(
                np.concatenate([[rng.normal()], rng.uniform(-0.9, 0.9, order) / order])
            )
            ts = simulate_series(beta, error, 300, burn=50, seed=(order, i), scale=2.5)
            eps = error.model.noise(np.random.default_rng((order, i)), 0.0, 2.5, 350)
            ref = lfilter([1.0], np.concatenate([[1.0], -beta.beta[1:]]), beta.beta[0] + eps)
            assert ts.values.tobytes() == ref[50:].tobytes()


class TestMseStudy:
    def test_point_fit_rows_equal_fits_on_replication_series(self):
        for error in ErrorFamily:
            config = SimStudyConfig(
                error=error, replications=3, series_length=60, max_order=5, seed=1,
                mcmc=McmcConfig(n_total=300, n_burn=100),
            )
            report = run_mse_study(config)
            for i in range(3):
                series = simulate_series(AR2, error, 60, burn=0, seed=(1, i))
                np.testing.assert_array_equal(report.estimates["QAR"][i], fit_l1(series, 2, 3).coeff.beta)
                np.testing.assert_array_equal(report.estimates["AR"][i], fit_ols(series, 2, 3).coeff.beta)

    def test_parallel_equals_serial(self):
        config = SimStudyConfig(
            replications=4,
            series_length=60,
            max_order=5,
            seed=2,
            mcmc=McmcConfig(n_total=300, n_burn=100),
        )
        serial = run_mse_study(config)
        parallel = run_mse_study(config, n_jobs=2)
        for m in serial.methods:
            np.testing.assert_array_equal(serial.estimates[m], parallel.estimates[m])
        np.testing.assert_array_equal(serial.acceptance_rates, parallel.acceptance_rates)

    def test_report_does_not_depend_on_the_units(self, monkeypatch):
        # replications go in near-equal units of at most 32, at least one per
        # job, which the sampler streams in lockstep batches of at most
        # BATCH_FITS chains; one batch of five, two units, and batches of two
        # all give the report of five lone chains
        assert harness._units(5, 1) == [range(0, 5)]
        assert harness._units(70, 1) == [range(0, 24), range(24, 47), range(47, 70)]
        assert harness._units(70, 3) == harness._units(70, 1)
        assert harness._units(100, 1) == [range(i, i + 25) for i in range(0, 100, 25)]
        assert harness._units(300, 2) == [range(i, i + 30) for i in range(0, 300, 30)]
        assert harness._units(35, 2) == [range(0, 18), range(18, 35)]
        assert harness._units(5, 2) == [range(0, 3), range(3, 5)]
        assert harness._units(5, 64) == [range(i, i + 1) for i in range(5)]
        config = SimStudyConfig(
            replications=5, series_length=60, seed=6, mcmc=McmcConfig(n_total=300, n_burn=100)
        )
        sizes = record_lockstep_batches(monkeypatch)
        whole = run_mse_study(config)
        assert sizes == [5]
        reports = [run_mse_study(config, n_jobs=2)]
        monkeypatch.setattr(mcmc, "BATCH_FITS", 2)
        sizes.clear()
        reports.append(run_mse_study(config))
        assert sizes == [2, 2, 1]
        for report in reports:
            for m in whole.methods:
                np.testing.assert_array_equal(report.estimates[m], whole.estimates[m])
            np.testing.assert_array_equal(report.acceptance_rates, whole.acceptance_rates)
        for i in range(5):
            series = simulate_series(AR2, config.error, 60, burn=0, seed=(6, i))
            lone = run_mh(series, 2, ErrorFamily.LAPLACE, replace(config.mcmc, seed=(6, i, 1)))
            np.testing.assert_array_equal(whole.estimates["BayesMAR"][i], posterior_mean(lone).beta)
            assert whole.acceptance_rates[i] == lone.acceptance_rate

    def test_seventy_replications_stream_in_three_near_equal_batches(self, monkeypatch):
        # one job's 70 replications: ceil(70 / 32) = 3 units, each one
        # lockstep batch, whose sizes differ by at most 1, not 32, 32 and 6
        sizes = record_lockstep_batches(monkeypatch)
        config = SimStudyConfig(
            replications=70, series_length=40, seed=7, mcmc=McmcConfig(n_total=200, n_burn=100)
        )
        assert run_mse_study(config).acceptance_rates.size == 70
        assert sizes == [24, 23, 23]

    def test_csv_scaling(self, tmp_path):
        config = SimStudyConfig(
            replications=2, series_length=60, max_order=5, seed=3,
            mcmc=McmcConfig(n_total=300, n_burn=100),
        )
        code = main(
            ["simulate", "--preset", "table1", "--error", "laplace", "--replications", "2",
             "--length", "60", "--k", "5", "--n-total", "300", "--n-burn", "100", "--seed", "3",
             "--out", str(tmp_path)]
        )
        assert code == 0
        report = run_mse_study(config)
        text = (tmp_path / "table1_laplace.csv").read_text()
        lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
        rows = list(csv.reader(lines))
        assert rows[0][:3] == ["method", "mse_beta0_x100", "se_beta0_x100"]
        assert [r[0] for r in rows[1:]] == ["BayesMAR", "QAR", "AR"]
        for r in rows[1:]:
            assert float(r[1]) == pytest.approx(report.mse[r[0]][0] * 100.0, rel=1e-12)
            assert float(r[2]) == pytest.approx(report.se[r[0]][0] * 100.0, rel=1e-12)


    def test_se_is_zero_at_one_replication(self):
        config = SimStudyConfig(
            replications=1, series_length=60, seed=2, mcmc=McmcConfig(n_total=300, n_burn=100)
        )
        report = run_mse_study(config)
        for m in report.methods:
            sq = (report.estimates[m] - config.true_beta.beta) ** 2
            np.testing.assert_array_equal(report.mse[m], sq[0])
            np.testing.assert_array_equal(report.se[m], np.zeros(3))

    def test_mse_and_se_follow_the_estimates(self):
        rng = np.random.default_rng(4)
        estimates = {m: rng.normal(size=(5, 3)) for m in MseStudyReport.methods}
        report = MseStudyReport(estimates, np.full(5, 0.3))
        for m in report.methods:
            sq = (estimates[m] - report.true_beta) ** 2
            np.testing.assert_array_equal(report.mse[m], sq.mean(axis=0))
            np.testing.assert_array_equal(report.se[m], sq.std(axis=0, ddof=1) / np.sqrt(5))

    def test_failed_unit_is_named_keeping_the_type(self, monkeypatch):
        def degenerate(fits, family, config):
            raise DegenerateDataError("no scale")

        monkeypatch.setattr(harness, "run_mh_batch", degenerate)
        config = SimStudyConfig(replications=3, series_length=40, seed=6)
        with pytest.raises(
            DegenerateDataError,
            match=r"^MSE study replications 0\.\.2, laplace chains seeded \(6, i, 1\): no scale$",
        ):
            run_mse_study(config)


class TestOrderStudy:
    def test_counts_and_accuracy_follow_the_map_orders(self):
        report = OrderStudyReport(np.array([2, 2, 1, 4, 2]), max_order=4)
        np.testing.assert_array_equal(report.counts, [0, 1, 3, 0, 1])
        assert report.true_order == SimStudyConfig.true_beta.order == 2
        assert report.accuracy == 0.6

    def test_counts_sum_to_replications(self):
        config = SimStudyConfig(replications=5, series_length=48, max_order=4, seed=4)
        report = run_order_study(config)
        assert report.counts.sum() == 5
        assert report.accuracy == report.counts[2] / 5
        assert len(report.map_orders) == 5

    def test_parallel_equals_serial(self):
        # the pool returns each replication's order in task order; seed 9
        # selects orders [2, 2, 2, 2, 4], so a reordering shows
        config = SimStudyConfig(replications=5, series_length=48, max_order=4, seed=9)
        serial = run_order_study(config)
        parallel = run_order_study(config, n_jobs=2)
        np.testing.assert_array_equal(serial.map_orders, parallel.map_orders)
        want = [
            build_ensemble(simulate_series(AR2, ErrorFamily.LAPLACE, 48, burn=0, seed=(9, i)),
                           4, ErrorFamily.LAPLACE).map_order
            for i in range(5)
        ]
        assert parallel.map_orders.tolist() == want

    def test_failed_replication_is_named_keeping_the_type(self, monkeypatch):
        def failing(y, max_order, family):
            raise RuntimeError("no fit")

        monkeypatch.setattr(harness, "build_ensemble", failing)
        config = SimStudyConfig(replications=3, series_length=40, max_order=4, seed=6)
        with pytest.raises(
            RuntimeError, match=r"^order study replication 0, laplace series seeded \(6, 0\): no fit$"
        ):
            run_order_study(config)

    def test_csv(self, tmp_path):
        config = SimStudyConfig(replications=3, series_length=48, max_order=4, seed=5)
        code = main(
            ["simulate", "--preset", "orders", "--error", "laplace", "--replications", "3",
             "--length", "48", "--k", "4", "--seed", "5", "--out", str(tmp_path)]
        )
        assert code == 0
        report = run_order_study(config)
        text = (tmp_path / "orders_laplace.csv").read_text()
        assert f"# accuracy_at_true_order: {report.accuracy}" in text.splitlines()
        rows = list(csv.reader(ln for ln in text.splitlines() if not ln.startswith("#")))
        assert rows[0] == ["order", "count"]
        assert len(rows) == 5
        assert [int(r[1]) for r in rows[1:]] == report.counts[1:].tolist()
        assert sum(int(r[1]) for r in rows[1:]) == 3


class TestBacktest:
    def test_backtest_and_cli_share_one_planner(self):
        # every origin's forecast is the single-method pipeline's level forecast
        # on the window, seeded with (seed, origin, family code)
        series = simulate_series(AR2, ErrorFamily.LAPLACE, 50, burn=200, seed=4)
        methods = (
            MethodSpec(ErrorFamily.LAPLACE, "fixed", fixed_order=1),
            MethodSpec(ErrorFamily.GAUSSIAN, "bma"),
        )
        spec = small_backtest_spec(series, methods, t0=46, mcmc=McmcConfig(n_total=300, n_burn=100))
        report = run_backtest(spec)
        for i, t in enumerate(report.origins):
            window = TimeSeries(series.values[:t])
            for mi, m in enumerate(methods):
                code = 0 if m.family is ErrorFamily.LAPLACE else 1
                want = fit_and_forecast(
                    window, m.family, spec.horizons, m.order_rule, spec.max_order,
                    replace(spec.mcmc, seed=(spec.seed, t, code)),
                    fixed_order=m.fixed_order, apply_diff=True,
                )
                np.testing.assert_array_equal(report.forecasts[mi, i], want.point)
        realized = ~np.isnan(report.truths)
        np.testing.assert_array_equal(
            report.errors[:, realized], (report.truths[None] - report.forecasts)[:, realized]
        )

    def test_horizon_accounting(self):
        series = simulate_series(AR2, ErrorFamily.LAPLACE, 60, burn=200, seed=6)
        spec = small_backtest_spec(
            series, (MethodSpec(ErrorFamily.LAPLACE, "fixed", fixed_order=1),), t0=55
        )
        report = run_backtest(spec)
        np.testing.assert_array_equal(report.counts, [6, 5, 4])
        assert report.origins == tuple(range(54, 60))
        # unrealized targets carry no error terms
        assert np.isnan(report.errors[0, -1, 1])

    def test_summaries_follow_the_stored_arrays(self):
        series = simulate_series(AR2, ErrorFamily.LAPLACE, 60, burn=200, seed=6)
        methods = (
            MethodSpec(ErrorFamily.LAPLACE, "fixed", fixed_order=1),
            MethodSpec(ErrorFamily.GAUSSIAN, "fixed", fixed_order=2),
        )
        report = run_backtest(small_backtest_spec(series, methods, t0=55, baseline="BayesAR-p2"))
        np.testing.assert_array_equal(report.errors, report.truths[None] - report.forecasts)
        realized = ~np.isnan(report.truths)
        np.testing.assert_array_equal(report.counts, realized.sum(axis=0))
        assert report.horizons == (1, 2, 3)
        table = report.metrics
        assert (table.methods, table.horizons, table.baseline) == (
            ("BayesMAR-p1", "BayesAR-p2"), (1, 2, 3), "BayesAR-p2"
        )
        for mi in range(2):
            for h in range(3):
                errs = report.errors[mi, realized[:, h], h]
                assert table.values["rmse"][mi, h] == rmse(errs)
                assert table.values["mae"][mi, h] == mae(errs)
                assert table.values["crps"][mi, h] == report.crps[mi, realized[:, h], h].mean()

    def test_no_look_ahead(self):
        base = simulate_series(AR2, ErrorFamily.LAPLACE, 60, burn=200, seed=7)
        mutated = base.values.copy()
        mutated[-1] += 25.0
        methods = (MethodSpec(ErrorFamily.LAPLACE, "fixed", fixed_order=1),)
        rep_a = run_backtest(small_backtest_spec(base, methods, t0=56))
        rep_b = run_backtest(small_backtest_spec(TimeSeries(mutated), methods, t0=56))
        np.testing.assert_array_equal(rep_a.forecasts, rep_b.forecasts)
        assert rep_a.truths[-1, 0] != rep_b.truths[-1, 0]

    def test_method_reordering_is_immaterial(self):
        series = simulate_series(AR2, ErrorFamily.LAPLACE, 60, burn=200, seed=8)
        m_bma = MethodSpec(ErrorFamily.LAPLACE, "bma")
        m_map = MethodSpec(ErrorFamily.LAPLACE, "map")
        rep_ab = run_backtest(small_backtest_spec(series, (m_bma, m_map), t0=56))
        rep_ba = run_backtest(small_backtest_spec(series, (m_map, m_bma), t0=56))
        for name in ("BayesMAR-BMA", "BayesMAR-MAP"):
            ia, ib = rep_ab.methods.index(name), rep_ba.methods.index(name)
            np.testing.assert_array_equal(rep_ab.forecasts[ia], rep_ba.forecasts[ib])
            np.testing.assert_array_equal(rep_ab.crps[ia], rep_ba.crps[ib])

    def test_parallel_equals_serial(self):
        series = simulate_series(AR2, ErrorFamily.LAPLACE, 60, burn=200, seed=9)
        methods = (
            MethodSpec(ErrorFamily.LAPLACE, "map"),
            MethodSpec(ErrorFamily.GAUSSIAN, "map"),
        )
        spec = small_backtest_spec(series, methods, t0=56)
        serial = run_backtest(spec, n_jobs=1)
        parallel = run_backtest(spec, n_jobs=2)
        np.testing.assert_array_equal(serial.forecasts, parallel.forecasts)
        np.testing.assert_array_equal(serial.crps, parallel.crps)

    def test_pool_has_no_more_workers_than_units(self, monkeypatch):
        # the pool forks every worker up front, so --threads 64 on 5 origins
        # must not ask for 64; a serial stand-in records the pool size
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        series = simulate_series(AR2, ErrorFamily.LAPLACE, 60, burn=200, seed=9)
        spec = small_backtest_spec(series, (MethodSpec(ErrorFamily.LAPLACE, "map"),), t0=56)
        pooled = run_backtest(spec, n_jobs=64)
        config = SimStudyConfig(
            replications=2, series_length=60, max_order=5, seed=2,
            mcmc=McmcConfig(n_total=300, n_burn=100),
        )
        run_mse_study(config, n_jobs=64)
        assert sizes == [5, 2]
        np.testing.assert_array_equal(pooled.forecasts, run_backtest(spec).forecasts)

    @pytest.mark.parametrize("n_jobs", [1, 2, 7])
    def test_units_are_contiguous_batches_of_at_most_32_fits(self, monkeypatch, n_jobs):
        # K=8 BMA and MAP in both families at 7 origins: each job gets one
        # unit of contiguous origins (7 is below the unit bound of 32
        # origins), and the sampler streams a unit's fits of
        # each family in near-equal batches of at most 32; a serial stand-in
        # for the pool lets the stubs see every batch.  Each origin samples
        # only the orders its BMA mixture draws rows from, plus the MAP order
        calls = record_sampled_batches(monkeypatch)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
        series = simulate_series(AR2, ErrorFamily.LAPLACE, 60, burn=200, seed=16)
        methods = tuple(MethodSpec(f, rule) for f in ErrorFamily for rule in ("bma", "map"))
        spec = small_backtest_spec(series, methods, t0=54, max_order=8)
        report = run_backtest(spec, n_jobs=n_jobs)
        units = []
        skipped = 0
        for family in ErrorFamily:
            code = harness._FAMILY_CODE[family]
            family_calls = [(seeds, sizes) for f, seeds, sizes in calls if f is family]
            want = []
            for t in report.origins:
                orders = mixture_orders(series, t, family, spec, (spec.seed, t, code, 0, 2))
                skipped += 8 - len(orders)
                want += [(spec.seed, t, code, p) for p in orders]
            assert [s for seeds, _ in family_calls for s in seeds] == want
            for seeds, sizes in family_calls:
                assert sum(sizes) == len(seeds) and len(sizes) == -(-len(seeds) // 32)
                assert max(sizes) <= 32 and max(sizes) - min(sizes) <= 1
            family_units = [sorted({t for _, t, _, _ in seeds}) for seeds, _ in family_calls]
            assert all(u == list(range(u[0], u[-1] + 1)) for u in family_units)
            units.append(family_units)
        assert units[0] == units[1]
        assert [t for u in units[0] for t in u] == list(report.origins)
        assert len(units[0]) == min(n_jobs, len(report.origins))
        assert skipped > 0
        np.testing.assert_array_equal(report.forecasts, run_backtest(spec).forecasts)

    @pytest.mark.parametrize("methods", ["mar-map", "mar-fixed:2,mar-map", "mar-bma,mar-map,ar-fixed:2"])
    def test_units_of_several_origins_sample_at_most_the_unit_fits(self, monkeypatch, methods):
        # batches of at most 4 fits over 8 origins in 2 jobs: each family's
        # unit covers contiguous origins, its batches hold at most 4 fits and
        # differ by at most 1, and one MAP rule packs 4 origins into each unit
        series = simulate_series(AR2, ErrorFamily.LAPLACE, 60, burn=200, seed=16)
        spec = small_backtest_spec(series, _parse_methods(methods), t0=53)
        reference = run_backtest(spec)
        monkeypatch.setattr(mcmc, "BATCH_FITS", 4)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
        calls = record_sampled_batches(monkeypatch)
        report = run_backtest(spec, n_jobs=2)
        assert len(report.origins) == 8
        for family in {m.family for m in spec.methods}:
            family_calls = [(seeds, sizes) for f, seeds, sizes in calls if f is family]
            units = [sorted({t for _, t, _, _ in seeds}) for seeds, _ in family_calls]
            assert [t for u in units for t in u] == list(report.origins)
            assert all(u == list(range(u[0], u[-1] + 1)) for u in units)
            for seeds, sizes in family_calls:
                assert sum(sizes) == len(seeds) and len(sizes) == -(-len(seeds) // 4)
                assert max(sizes) <= 4 and max(sizes) - min(sizes) <= 1
            if methods == "mar-map":
                assert [len(u) for u in units] == [4, 4]
                assert [sizes for _, sizes in family_calls] == [[4], [4]]
        np.testing.assert_array_equal(report.forecasts, reference.forecasts)
        np.testing.assert_array_equal(report.crps, reference.crps)

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_a_unit_holds_at_most_the_unit_items(self, monkeypatch, n_jobs):
        # a unit plans and sets up all its origins before its last batch
        # samples, so a long backtest is cut into units of at most
        # _UNIT_ITEMS origins at any number of jobs: 8 origins at a bound
        # of 3 make units of 3, 3 and 2, and the report does not move
        series = simulate_series(AR2, ErrorFamily.LAPLACE, 60, burn=200, seed=16)
        methods = (MethodSpec(ErrorFamily.LAPLACE, "bma"), MethodSpec(ErrorFamily.GAUSSIAN, "map"))
        spec = small_backtest_spec(series, methods, t0=53)
        reference = run_backtest(spec)
        monkeypatch.setattr(harness, "_UNIT_ITEMS", 3)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
        calls = record_sampled_batches(monkeypatch)
        report = run_backtest(spec, n_jobs=n_jobs)
        assert len(report.origins) == 8
        for family in ErrorFamily:
            units = [sorted({t for _, t, _, _ in seeds}) for f, seeds, _ in calls if f is family]
            assert units == [list(report.origins[i:j]) for i, j in ((0, 3), (3, 6), (6, 8))]
        assert report.forecasts.tobytes() == reference.forecasts.tobytes()
        assert report.crps.tobytes() == reference.crps.tobytes()

    def test_a_five_origin_plan_of_at_most_32_fits_runs_one_loop(self, monkeypatch):
        # K=8 BMA and MAP at 5 origins: the plan samples only the orders with
        # mixture rows and the MAP order, at most 32 Laplace fits here, so its
        # chains share one lockstep loop, not one per 4 origins
        series = simulate_series(AR2, ErrorFamily.LAPLACE, 60, burn=200, seed=16)
        methods = (MethodSpec(ErrorFamily.LAPLACE, "bma"), MethodSpec(ErrorFamily.LAPLACE, "map"))
        spec = small_backtest_spec(series, methods, t0=56, max_order=8)
        sizes = record_lockstep_batches(monkeypatch)
        report = run_backtest(spec)
        assert len(report.origins) == 5
        planned = sum(
            len(mixture_orders(series, t, ErrorFamily.LAPLACE, spec, (spec.seed, t, 0, 0, 2)))
            for t in report.origins
        )
        assert 8 < planned <= 32
        assert sizes == [planned]

    def test_reports_do_not_depend_on_the_batch_bound(self, monkeypatch):
        # batches of at most 2 fits give the MSE study, order study and
        # backtest reports of the default bound bit for bit
        mse = SimStudyConfig(replications=5, series_length=60, seed=6, mcmc=McmcConfig(n_total=300, n_burn=100))
        orders = SimStudyConfig(replications=3, series_length=48, max_order=4, seed=9)
        series = simulate_series(AR2, ErrorFamily.LAPLACE, 60, burn=200, seed=16)
        methods = tuple(MethodSpec(f, rule) for f in ErrorFamily for rule in ("bma", "map"))
        spec = small_backtest_spec(series, methods, t0=56)

        def reports():
            return run_mse_study(mse), run_order_study(orders), run_backtest(spec)

        (mse_a, orders_a, backtest_a) = reports()
        monkeypatch.setattr(mcmc, "BATCH_FITS", 2)
        sizes = record_lockstep_batches(monkeypatch)
        (mse_b, orders_b, backtest_b) = reports()
        assert sizes and max(sizes) == 2
        for m in mse_a.methods:
            assert mse_b.estimates[m].tobytes() == mse_a.estimates[m].tobytes()
        assert mse_b.acceptance_rates.tobytes() == mse_a.acceptance_rates.tobytes()
        assert orders_b.map_orders.tobytes() == orders_a.map_orders.tobytes()
        assert backtest_b.forecasts.tobytes() == backtest_a.forecasts.tobytes()
        assert backtest_b.crps.tobytes() == backtest_a.crps.tobytes()

    def test_a_failure_while_a_batch_samples_keeps_its_unit_name(self, monkeypatch, tmp_path, capsys):
        # the draws stream, so a chain fails while its unit consumes them: the
        # unit's name is still on the message, and the CLI still exits 4
        def degenerate(chains, config):
            raise DegenerateDataError("no scale")

        monkeypatch.setattr(mcmc, "_lockstep_chains", degenerate)
        config = SimStudyConfig(replications=5, series_length=40, seed=6, mcmc=McmcConfig(n_total=300, n_burn=100))
        with pytest.raises(
            DegenerateDataError,
            match=r"^MSE study replications 0\.\.4, laplace chains seeded \(6, i, 1\): no scale$",
        ):
            run_mse_study(config)
        series = simulate_series(AR2, ErrorFamily.LAPLACE, 60, burn=200, seed=9)
        spec = small_backtest_spec(series, (MethodSpec(ErrorFamily.LAPLACE, "map"),), t0=56)
        with pytest.raises(
            DegenerateDataError, match=r"^backtest origins 55\.\.59, laplace fits seeded \(5, t, 0\): no scale$"
        ):
            run_backtest(spec)
        data = tmp_path / "in.csv"
        data.write_text("".join(f"{float(v)!r}\n" for v in series.values))
        code = main(["backtest", "--input", str(data), "--t0", "56", "--out", str(tmp_path / "o")])
        assert code == 4
        assert capsys.readouterr().err.startswith("numeric error: backtest origins 55..59, laplace fits")

    def test_deterministic_under_master_seed(self):
        series = simulate_series(AR2, ErrorFamily.LAPLACE, 60, burn=200, seed=10)
        methods = (MethodSpec(ErrorFamily.LAPLACE, "bma"),)
        a = run_backtest(small_backtest_spec(series, methods, t0=56))
        b = run_backtest(small_backtest_spec(series, methods, t0=56))
        np.testing.assert_array_equal(a.forecasts, b.forecasts)
        np.testing.assert_array_equal(a.crps, b.crps)

    def test_degenerate_series_raises(self):
        series = TimeSeries(np.arange(1.0, 61.0))
        spec = small_backtest_spec(
            series, (MethodSpec(ErrorFamily.LAPLACE, "fixed", fixed_order=1),), t0=56
        )
        with pytest.raises(DegenerateDataError):
            run_backtest(spec)

    def test_long_csv_rows(self, tmp_path):
        series = simulate_series(AR2, ErrorFamily.LAPLACE, 60, burn=200, seed=11)
        data = tmp_path / "in.csv"
        data.write_text("".join(f"{float(v)!r}\n" for v in series.values))
        code = main(
            ["backtest", "--input", str(data), "--t0", "57", "--h", "3", "--k", "3",
             "--methods", "mar-fixed:1", "--n-total", "400", "--n-burn", "200", "--seed", "5",
             "--out", str(tmp_path)]
        )
        assert code == 0
        spec = small_backtest_spec(
            series, (MethodSpec(ErrorFamily.LAPLACE, "fixed", fixed_order=1),), t0=57
        )
        report = run_backtest(spec)
        text = (tmp_path / "backtest_origins.csv").read_text()
        lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
        rows = list(csv.reader(lines))
        assert rows[0] == ["origin", "method", "horizon", "forecast", "truth", "error", "crps"]
        assert len(rows) - 1 == int(report.counts.sum())
        # error column is truth minus forecast
        for r in rows[1:]:
            assert float(r[5]) == pytest.approx(float(r[4]) - float(r[3]), abs=1e-12)
        assert [float(r[3]) for r in rows[1:3]] == report.forecasts[0, 0, :2].tolist()


class TestBacktestSpecValidation:
    def test_t0_plus_horizon_bound(self):
        series = simulate_series(AR2, ErrorFamily.LAPLACE, 60, burn=200, seed=12)
        with pytest.raises(ValueError, match="first origin 58 lacks its last target 61"):
            small_backtest_spec(
                series, (MethodSpec(ErrorFamily.LAPLACE, "map"),), t0=59, horizons=3
            )

    def test_history_requirement(self):
        series = simulate_series(AR2, ErrorFamily.LAPLACE, 30, burn=200, seed=13)
        with pytest.raises(ValueError):
            small_backtest_spec(
                series, (MethodSpec(ErrorFamily.LAPLACE, "bma"),), t0=8, max_order=3
            )

    def test_duplicate_methods_rejected(self):
        series = simulate_series(AR2, ErrorFamily.LAPLACE, 60, burn=200, seed=14)
        with pytest.raises(ValueError):
            small_backtest_spec(
                series,
                (MethodSpec(ErrorFamily.LAPLACE, "map"), MethodSpec(ErrorFamily.LAPLACE, "map")),
                t0=56,
            )

    def test_method_names(self):
        assert MethodSpec(ErrorFamily.LAPLACE, "bma").name == "BayesMAR-BMA"
        assert MethodSpec(ErrorFamily.GAUSSIAN, "map").name == "BayesAR-MAP"
        assert MethodSpec(ErrorFamily.LAPLACE, "fixed", fixed_order=3).name == "BayesMAR-p3"

    def test_baseline_defaults_to_bma_when_present(self):
        series = simulate_series(AR2, ErrorFamily.LAPLACE, 60, burn=200, seed=15)
        spec = small_backtest_spec(
            series,
            (MethodSpec(ErrorFamily.GAUSSIAN, "map"), MethodSpec(ErrorFamily.LAPLACE, "bma")),
            t0=56,
        )
        assert spec.baseline_name() == "BayesMAR-BMA"
