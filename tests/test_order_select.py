import csv
import math
import warnings

import numpy as np
import pytest

from bayesmar import (
    GAUSSIAN_MODEL,
    LAPLACE_MODEL,
    Coefficients,
    ErrorFamily,
    OrderEnsemble,
    TimeSeries,
    bma_weights,
    build_ensemble,
    fit_l1,
    lag_design,
    simulate_series,
)
from bayesmar.cli import main
from bayesmar.core import SCALE_FLOOR, fit_window

AR2 = Coefficients.from_values([0.3, 0.75, -0.35])


def laplace_series(n=220, seed=0):
    return simulate_series(AR2, ErrorFamily.LAPLACE, n, burn=200, seed=seed)


class TestBicValue:
    def test_hand_arithmetic(self):
        # n=10, p=2, tau=0.5, s=4: penalty 4*log(10), likelihood part 20*log(2) + 16
        got = LAPLACE_MODEL.bic(10, 2, 0.5, 4.0)
        want = 4 * math.log(10.0) + 20 * math.log(2.0) + 16.0
        assert got == pytest.approx(want, abs=1e-12)

    def test_gaussian_hand_arithmetic(self):
        got = GAUSSIAN_MODEL.bic(10, 2, 0.5, 4.0)
        want = 4 * math.log(10.0) + 10 * math.log(2 * math.pi * 0.25) + 16.0
        assert got == pytest.approx(want, abs=1e-12)

    def test_penalty_strictly_increasing_at_equal_fit(self):
        vals = [LAPLACE_MODEL.bic(50, p, 0.7, 12.0) for p in range(1, 11)]
        assert all(b < a for b, a in zip(vals, vals[1:]))

    def test_noiseless_data_penalty_dominates(self):
        series = simulate_series(AR2, ErrorFamily.LAPLACE, 80, burn=0, seed=0, scale=0.0)
        with pytest.warns(RuntimeWarning):
            ens = build_ensemble(series, 6, ErrorFamily.LAPLACE)
        assert ens.map_order == 2
        # all orders >= 2 fit exactly; the parameter count decides among them
        assert all(b < a for b, a in zip(ens.bics[1:], ens.bics[2:]))

    def test_bic_function_matches_ensemble(self):
        # each ensemble BIC is the Laplace kernel's BIC at the ensemble's own
        # aligned L1 fit, formed on the fit's window at 2^(-e) plus 2 n e log 2;
        # that fit comes from a packed LP, so it matches a separate fit_l1 to
        # rounding, not bit for bit
        series = laplace_series(seed=5)
        ens = build_ensemble(series, 6, ErrorFamily.LAPLACE)
        *_, e = fit_window(series.values, 6, 7)
        n = len(series) - 6
        for p in range(1, 7):
            fit = ens.fits[p - 1]
            on_window = LAPLACE_MODEL.bic(n, p, math.ldexp(fit.scale, -e), math.ldexp(fit.objective, -e))
            assert on_window + 2 * n * e * math.log(2) == ens.bics[p - 1]
            assert fit.objective == pytest.approx(fit_l1(series, p, start=7).objective, rel=1e-12)

    def test_rank_deficient_orders_each_warn_once(self):
        # alternating series: order 1 is full rank, every higher lag column is
        # +-the lag-1 column
        y = TimeSeries(np.r_[np.tile([1.0, -1.0], 20), 0.5])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            build_ensemble(y, 4, ErrorFamily.LAPLACE)
        messages = [str(w.message) for w in caught if w.category is RuntimeWarning]
        assert len(messages) == 1
        assert messages[0].startswith("rank-deficient design at orders 2, 3, 4:")

    def test_window_validation(self):
        series = laplace_series()
        with pytest.raises(ValueError):
            build_ensemble(series, 0, ErrorFamily.LAPLACE)
        with pytest.raises(ValueError):
            build_ensemble(series, len(series), ErrorFamily.LAPLACE)
        with pytest.raises(ValueError):
            build_ensemble(TimeSeries(np.arange(10.0) ** 0.5), 5, ErrorFamily.LAPLACE)


class TestBmaWeights:
    def test_uniform_for_equal_bics(self):
        np.testing.assert_allclose(bma_weights(np.full(4, 7.0)), np.full(4, 0.25), atol=1e-15)

    def test_hand_softmax(self):
        w = bma_weights(np.array([10.0, 12.0]))
        denom = 1.0 + math.exp(-1.0)
        np.testing.assert_allclose(w, [1.0 / denom, math.exp(-1.0) / denom], atol=1e-12)

    def test_extreme_separation_is_stable(self):
        w = bma_weights(np.array([0.0, 1000.0]))
        assert w[0] == 1.0
        assert w[1] == pytest.approx(0.0, abs=1e-200)

    def test_shift_invariance(self):
        rng = np.random.default_rng(7)
        bics = rng.uniform(-500, 500, size=12)
        np.testing.assert_allclose(bma_weights(bics), bma_weights(bics + 123.4), atol=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            bma_weights(np.array([1.0, np.inf]))
        with pytest.raises(ValueError):
            bma_weights(np.array([]))


class TestBuildEnsemble:
    def test_weights_compose_from_bics(self):
        ens = build_ensemble(laplace_series(seed=2), 8, ErrorFamily.LAPLACE)
        np.testing.assert_array_equal(ens.weights, bma_weights(ens.bics))

    def test_map_consistency(self):
        ens = build_ensemble(laplace_series(seed=3), 8, ErrorFamily.LAPLACE)
        assert ens.map_order == int(np.argmin(ens.bics)) + 1
        assert ens.weights[ens.map_order - 1] == ens.weights.max()
        assert ens.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_map_tie_breaks_toward_smaller_order(self):
        fits = build_ensemble(laplace_series(seed=4), 3, ErrorFamily.LAPLACE).fits
        ens = OrderEnsemble(fits, np.array([5.0, 1.0, 1.0]))
        assert (ens.max_order, ens.map_order) == (3, 2)
        np.testing.assert_array_equal(ens.weights, bma_weights(ens.bics))

    def test_single_candidate(self):
        ens = build_ensemble(laplace_series(seed=4), 1, ErrorFamily.LAPLACE)
        assert ens.map_order == 1
        np.testing.assert_array_equal(ens.weights, [1.0])

    def test_alignment_uses_last_t_minus_k_rows(self):
        series = laplace_series(seed=6)
        for k in (4, 9):
            ens = build_ensemble(series, k, ErrorFamily.LAPLACE)
            n = len(series) - k
            for p, fit in enumerate(ens.fits, start=1):
                X, targets = lag_design(series.values, p, k + 1)
                assert targets.size == n
                resid_objective = LAPLACE_MODEL.objective(targets - X @ fit.coeff.beta)
                assert fit.objective == pytest.approx(resid_objective, rel=1e-12)
                assert fit.scale == pytest.approx(fit.objective / (n + 1), rel=1e-12)

    def test_gaussian_family(self):
        series = simulate_series(AR2, ErrorFamily.GAUSSIAN, 220, burn=200, seed=8)
        ens = build_ensemble(series, 6, ErrorFamily.GAUSSIAN)
        assert ens.map_order == 2

    UNIT_CASES = [(family, k) for family in ErrorFamily for k in (-50, 48)] + [
        (ErrorFamily.LAPLACE, k) for k in (-1000, 1000)
    ]

    @pytest.mark.parametrize("family, k", UNIT_CASES, ids=[f"{f.value}-{k}" for f, k in UNIT_CASES])
    def test_follows_the_data_units(self, family, k):
        # y -> 2^k y leaves the MAP order, the weights (to rounding) and every
        # lag coefficient as they are, and scales the intercept, the scale and
        # the objective by 2^k exactly: rank and the scale floor follow the
        # units, and the L1 solver sees only the standardised window
        series = simulate_series(AR2, family, 220, burn=200, seed=10)
        base = build_ensemble(series, 6, family)
        scaled = build_ensemble(TimeSeries(2.0**k * series.values), 6, family)
        assert scaled.map_order == base.map_order
        # each BIC gains 2 n k log 2 (Laplace), so its rounding grows with |k|
        np.testing.assert_allclose(scaled.weights, base.weights, rtol=0, atol=1e-12 * max(1, abs(k) / 100))
        for fit, fit_c in zip(base.fits, scaled.fits):
            assert np.array_equal(fit_c.coeff.beta[1:], fit.coeff.beta[1:])
            assert fit_c.coeff.beta[0] == 2.0**k * fit.coeff.beta[0]
            assert fit_c.scale == 2.0**k * fit.scale
            assert fit_c.objective == (2.0**k if family is ErrorFamily.LAPLACE else 4.0**k) * fit.objective

    @pytest.mark.parametrize("c", [273.15, 1e8, 3e9, 1e10, 1e11])
    def test_laplace_fits_follow_a_level_offset(self, c):
        # y -> y + c moves only the intercept: the MAP order, the weights and the
        # lags stay (to rounding of the shifted data, eps c), and nothing raises
        # or warns.  Measured up to 1e11: weights within 0.45 eps c, lags 4.4 eps c.
        eps = np.finfo(float).eps
        walk = TimeSeries(100 + np.cumsum(np.random.default_rng(3).laplace(0.3, 1, 80)))
        for series in [*(simulate_series(AR2, ErrorFamily.LAPLACE, 120, burn=200, seed=seed) for seed in range(11, 21)),
                       walk]:
            base = build_ensemble(series, 6, ErrorFamily.LAPLACE)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                shifted = build_ensemble(TimeSeries(series.values + c), 6, ErrorFamily.LAPLACE)
            assert shifted.map_order == base.map_order
            np.testing.assert_allclose(shifted.weights, base.weights, rtol=0, atol=max(1e-6, eps * c))
            for fit, fit_c in zip(base.fits, shifted.fits):
                np.testing.assert_allclose(fit_c.coeff.beta[1:], fit.coeff.beta[1:], rtol=0,
                                           atol=max(1e-5, 10 * eps * c))

    @pytest.mark.parametrize("family", list(ErrorFamily), ids=lambda f: f.value)
    def test_all_zero_targets_fit_at_the_window_floor(self, tmp_path, family):
        # every target of the K=4 window is 0 and its lags are independent:
        # each order fits exactly and its scale is floored at SCALE_FLOOR on
        # the window, whose largest |value| 4 is 2^3 times 0.5
        data = tmp_path / "in.csv"
        data.write_text("value\n" + "".join(f"{v!r}\n" for v in [1.0, 2.0, 3.0, 4.0] + [0.0] * 26))
        code = main(["select-order", "--input", str(data), "--k", "4", "--family", family.value,
                     "--out", str(tmp_path)])
        assert code == 0
        with open(tmp_path / "ensemble.csv") as fh:
            rows = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
        assert [float(r["scale"]) for r in rows] == [math.ldexp(SCALE_FLOOR, 3)] * 4

    def test_csv_export(self, tmp_path):
        data = tmp_path / "in.csv"
        data.write_text("".join(f"{float(v)!r}\n" for v in laplace_series(seed=9).values))
        code = main(["select-order", "--input", str(data), "--k", "4", "--out", str(tmp_path)])
        assert code == 0
        with open(tmp_path / "ensemble.csv") as fh:
            lines = [ln for ln in fh if not ln.startswith("#")]
        rows = list(csv.reader(lines))
        assert rows[0] == ["order", "bic", "weight", "beta_0", "beta_1", "beta_2", "beta_3", "beta_4", "scale"]
        assert len(rows) == 5
        # order-1 row has two coefficients and blanks beyond
        assert rows[1][3] != "" and rows[1][4] != "" and rows[1][5] == ""
        weights = np.array([float(r[2]) for r in rows[1:]])
        assert weights.sum() == pytest.approx(1.0, abs=1e-9)
