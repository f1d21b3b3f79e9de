import csv
import math

import numpy as np
import pytest

from bayesmar import (
    Coefficients,
    ErrorFamily,
    MetricTable,
    crps_laplace_closed,
    crps_sample,
    mae,
    rmse,
    simulate_series,
)
from bayesmar.cli import main


def crps_double_loop(samples, observed):
    samples = np.asarray(samples, dtype=float)
    m = samples.size
    term1 = np.abs(samples - observed).mean()
    term2 = sum(abs(a - b) for a in samples for b in samples) / (2 * m * m)
    return term1 - term2


class TestRmseMae:
    def test_all_zero(self):
        assert rmse(np.zeros(5)) == 0.0
        assert mae(np.zeros(5)) == 0.0

    def test_hand_values(self):
        assert rmse(np.array([3.0, -4.0])) == pytest.approx(math.sqrt(12.5), abs=1e-12)
        assert mae(np.array([1.0, -1.0])) == 1.0

    def test_matches_definitional_loop(self):
        rng = np.random.default_rng(3)
        errors = rng.normal(size=35)
        want_rmse = math.sqrt(sum(e * e for e in errors) / 35)
        want_mae = sum(abs(e) for e in errors) / 35
        assert rmse(errors) == pytest.approx(want_rmse, abs=1e-12)
        assert mae(errors) == pytest.approx(want_mae, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rmse(np.array([]))
        with pytest.raises(ValueError):
            mae(np.array([]))


class TestCrpsSample:
    def test_perfect_deterministic_forecast(self):
        assert crps_sample(np.full(10, 3.0), 3.0) == 0.0

    def test_hand_double_sum(self):
        assert crps_sample(np.array([0.0, 2.0]), 1.0) == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("m", [3, 50, 500])
    def test_sorted_equals_double_loop(self, m):
        rng = np.random.default_rng(m)
        samples = rng.normal(size=m)
        y = rng.normal()
        assert crps_sample(samples, y) == pytest.approx(crps_double_loop(samples, y), abs=1e-10)

    def test_close_to_laplace_closed_form(self):
        rng = np.random.default_rng(11)
        mu, b, y = 0.5, 1.5, 1.1
        samples = rng.laplace(mu, b, size=20_000)
        assert abs(crps_sample(samples, y) - crps_laplace_closed(mu, b, y)) <= 0.02 * b

    def test_permutation_invariance(self):
        rng = np.random.default_rng(13)
        samples = rng.normal(size=77)
        assert crps_sample(samples, 0.3) == crps_sample(rng.permutation(samples), 0.3)

    def test_translation_invariance(self):
        rng = np.random.default_rng(17)
        samples = rng.normal(size=64)
        a = crps_sample(samples, 0.7)
        b = crps_sample(samples + 5.0, 0.7 + 5.0)
        assert a == pytest.approx(b, abs=1e-12)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(19)
        samples = rng.normal(size=64)
        lam = 3.7
        assert crps_sample(lam * samples, lam * 0.2) == pytest.approx(
            lam * crps_sample(samples, 0.2), rel=1e-12
        )

    def test_bounded_by_mean_absolute_error(self):
        rng = np.random.default_rng(23)
        samples = rng.normal(size=128)
        y = 0.4
        assert crps_sample(samples, y) <= np.abs(samples - y).mean() + 1e-12

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            crps_sample(np.array([1.0]), 1.0)


class TestCrpsLaplaceClosed:
    def test_at_the_location(self):
        assert crps_laplace_closed(2.0, 0.8, 2.0) == pytest.approx(0.8 / 4.0, abs=1e-14)

    def test_one_scale_away(self):
        b = 1.3
        want = b + b / math.e - 0.75 * b
        assert crps_laplace_closed(0.0, b, b) == pytest.approx(want, abs=1e-12)

    def test_far_tail_asymptote(self):
        b = 0.6
        d = 60.0
        assert crps_laplace_closed(0.0, b, d) == pytest.approx(d - 0.75 * b, abs=1e-12)

    def test_scale_domain(self):
        with pytest.raises(ValueError):
            crps_laplace_closed(0.0, 0.0, 1.0)


class TestMetricTable:
    @staticmethod
    def table():
        values = {
            "rmse": np.array([[1.0, 2.0], [1.5, 2.5]]),
            "mae": np.array([[0.5, 1.0], [0.4, 1.2]]),
        }
        return MetricTable(
            methods=("base", "other"), horizons=(1, 2), values=values, baseline="base"
        )

    def test_baseline_row_exactly_zero(self):
        rel = self.table().relative("rmse")
        assert np.all(rel[0] == 0.0)

    def test_relative_values(self):
        rel = self.table().relative("rmse")
        np.testing.assert_allclose(rel[1], [50.0, 25.0], atol=1e-12)

    def test_zero_baseline_gives_nan_for_others(self):
        values = {"rmse": np.array([[0.0], [2.0]])}
        t = MetricTable(methods=("base", "other"), horizons=(1,), values=values, baseline="base")
        rel = t.relative("rmse")
        assert rel[0, 0] == 0.0
        assert math.isnan(rel[1, 0])

    def test_negative_metric_rejected(self):
        with pytest.raises(ValueError):
            MetricTable(
                methods=("a",),
                horizons=(1,),
                values={"rmse": np.array([[-1.0]])},
                baseline="a",
            )

    def test_unknown_baseline_rejected(self):
        with pytest.raises(ValueError):
            MetricTable(
                methods=("a",),
                horizons=(1,),
                values={"rmse": np.array([[1.0]])},
                baseline="b",
            )

    def test_csv_layout(self, tmp_path):
        ar2 = Coefficients.from_values([0.3, 0.75, -0.35])
        series = simulate_series(ar2, ErrorFamily.LAPLACE, 60, burn=200, seed=16)
        data = tmp_path / "in.csv"
        data.write_text("".join(f"{float(v)!r}\n" for v in series.values))
        code = main(
            ["backtest", "--input", str(data), "--t0", "57", "--h", "2", "--k", "3",
             "--methods", "mar-fixed:1,ar-fixed:1", "--baseline", "BayesAR-p1",
             "--n-total", "300", "--n-burn", "150", "--out", str(tmp_path)]
        )
        assert code == 0
        text = (tmp_path / "backtest_metrics.csv").read_text().splitlines()
        assert text[0].startswith("# config: {")
        assert text[1] == "# horizon_counts: [4, 3]"
        rows = list(csv.reader(text[2:]))
        assert rows[0] == ["metric", "method", "h1", "h2", "relchg_h1", "relchg_h2"]
        assert [r[0] for r in rows[1:]] == ["crps", "crps", "mae", "mae", "rmse", "rmse"]
        assert [r[1] for r in rows[1:]] == ["BayesMAR-p1", "BayesAR-p1"] * 3
        for r in rows[2::2]:
            assert float(r[4]) == float(r[5]) == 0.0
