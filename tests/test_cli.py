import csv
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from bayesmar import (
    Coefficients,
    ErrorFamily,
    McmcConfig,
    fit_and_forecast,
    simulate_series,
)
from bayesmar import forecast, mle_fit
from bayesmar.cli import CsvParseError, main, read_series_csv

AR2 = Coefficients.from_values([0.3, 0.75, -0.35])


def write_series_csv(path, n=64, seed=3, labels=False):
    ts = simulate_series(AR2, ErrorFamily.LAPLACE, n, burn=200, seed=seed)
    with open(path, "w") as fh:
        if labels:
            fh.write("period,value\n")
            for i, v in enumerate(ts.values):
                fh.write(f"Q{i + 1},{float(v)!r}\n")
        else:
            for v in ts.values:
                fh.write(f"{float(v)!r}\n")
    return ts


class TestReadSeriesCsv:
    def test_labeled_two_column(self, tmp_path):
        # a leading byte-order mark (Excel's "CSV UTF-8") is not part of the header
        for bom in ("", "\ufeff"):
            p = tmp_path / "s.csv"
            p.write_text(bom + "period,value\n1968Q3,100.0\n1968Q4,101.5\n", encoding="utf-8")
            ts = read_series_csv(p)
            assert len(ts) == 2
            assert ts.labels == ("1968Q3", "1968Q4")
            np.testing.assert_array_equal(ts.values, [100.0, 101.5])

    def test_headerless_single_column(self, tmp_path):
        for bom in ("", "\ufeff"):
            p = tmp_path / "s.csv"
            p.write_text(bom + "1.5\n2\n3\n4\n5\n", encoding="utf-8")
            ts = read_series_csv(p)
            assert len(ts) == 5
            assert ts.values[0] == 1.5
            assert ts.labels is None

    def test_value_header_single_column(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("value\n1.5\n2.5\n")
        np.testing.assert_array_equal(read_series_csv(p).values, [1.5, 2.5])

    def test_nan_cites_row(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("period,value\n1968Q3,NaN\n")
        with pytest.raises(CsvParseError, match="row 2"):
            read_series_csv(p)

    def test_non_numeric_cites_row(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("1.0\n2.0\noops\n")
        with pytest.raises(CsvParseError, match="row 3"):
            read_series_csv(p)

    def test_missing_value_cites_row(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("period,value\nQ1,1.0\nQ2,\n")
        with pytest.raises(CsvParseError, match="row 3"):
            read_series_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("")
        with pytest.raises(CsvParseError, match="empty"):
            read_series_csv(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("time,val,extra\n1,2,3\n")
        with pytest.raises(CsvParseError, match="row 1"):
            read_series_csv(p)


class TestForecastCommand:
    def test_json_contract(self, tmp_path):
        data = tmp_path / "in.csv"
        write_series_csv(data)
        out = tmp_path / "out"
        code = main(
            ["forecast", "--input", str(data), "--family", "laplace", "--order-rule", "bma",
             "--k", "3", "--h", "4", "--level", "0.95", "--seed", "7",
             "--n-total", "400", "--n-burn", "200", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads((out / "forecast.json").read_text())
        assert payload["seed"] == 7
        assert len(payload["horizons"]) == 4
        for i, row in enumerate(payload["horizons"], start=1):
            assert row["horizon"] == i
            assert row["lower"] <= row["point"] + 10  # bounds are finite and ordered
            assert row["lower"] <= row["upper"]
        assert payload["config"]["max_order"] == 3

    def test_matches_direct_library_call(self, tmp_path):
        data = tmp_path / "in.csv"
        series = write_series_csv(data, seed=5)
        out = tmp_path / "out"
        main(
            ["forecast", "--input", str(data), "--k", "3", "--h", "3", "--seed", "11",
             "--n-total", "400", "--n-burn", "200", "--out", str(out)]
        )
        payload = json.loads((out / "forecast.json").read_text())

        result = fit_and_forecast(
            series, ErrorFamily.LAPLACE, 3, "bma", 3,
            McmcConfig(n_total=400, n_burn=200, seed=11),
            interval_level=0.95, apply_diff=True,
        )
        for i, row in enumerate(payload["horizons"]):
            assert row["point"] == result.point[i]
            assert row["lower"] == result.intervals[i, 0]
            assert row["upper"] == result.intervals[i, 1]

    @pytest.mark.parametrize("statistic", ["mean", "median"])
    def test_no_diff_bma_point_is_statistic_of_paths(self, tmp_path, statistic):
        data = tmp_path / "in.csv"
        write_series_csv(data)
        out = tmp_path / "out"
        code = main(
            ["forecast", "--input", str(data), "--no-diff", "--order-rule", "bma", "--k", "3",
             "--h", "2", "--point-statistic", statistic, "--n-total", "400", "--n-burn", "200",
             "--paths-csv", "--out", str(out)]
        )
        assert code == 0
        points = [r["point"] for r in json.loads((out / "forecast.json").read_text())["horizons"]]
        paths = np.loadtxt(out / "forecast_paths.csv", delimiter=",", skiprows=1)[:, 1:]
        np.testing.assert_array_equal(points, getattr(np, statistic)(paths, axis=0))

    def test_rerun_is_byte_identical(self, tmp_path):
        data = tmp_path / "in.csv"
        write_series_csv(data)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(
                ["forecast", "--input", str(data), "--k", "3", "--h", "2", "--seed", "3",
                 "--n-total", "400", "--n-burn", "200", "--paths-csv", "--out", str(out)]
            )
            outs.append(out)
        assert (outs[0] / "forecast.json").read_bytes() == (outs[1] / "forecast.json").read_bytes()
        assert (outs[0] / "forecast_paths.csv").read_bytes() == (outs[1] / "forecast_paths.csv").read_bytes()


class TestFitCommand:
    def test_fit_json_and_trace(self, tmp_path):
        data = tmp_path / "in.csv"
        write_series_csv(data)
        out = tmp_path / "out"
        code = main(
            ["fit", "--input", str(data), "--order", "2", "--n-total", "500",
             "--n-burn", "200", "--seed", "1", "--trace", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads((out / "fit.json").read_text())
        assert len(payload["posterior_mean"]) == 3
        assert 0.0 <= payload["acceptance_rate"] <= 1.0
        with open(out / "trace.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) - 1 == 300


class TestSelectOrderCommand:
    def test_ensemble_csv(self, tmp_path):
        data = tmp_path / "in.csv"
        write_series_csv(data, n=80)
        out = tmp_path / "out"
        code = main(["select-order", "--input", str(data), "--k", "4", "--out", str(out)])
        assert code == 0
        text = (out / "ensemble.csv").read_text()
        assert text.startswith("# config:")
        assert "# map_order:" in text
        lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert len(lines) == 5


class TestBacktestCommand:
    def test_outputs_and_label_resolution(self, tmp_path):
        data = tmp_path / "in.csv"
        write_series_csv(data, labels=True)
        out = tmp_path / "out"
        code = main(
            ["backtest", "--input", str(data), "--t0", "Q60", "--h", "4", "--k", "3",
             "--n-total", "300", "--n-burn", "150", "--seed", "2", "--out", str(out)]
        )
        assert code == 0
        metrics = (out / "backtest_metrics.csv").read_text()
        assert "# config:" in metrics
        assert "BayesMAR-BMA" in metrics and "BayesAR-MAP" in metrics
        origins = (out / "backtest_origins.csv").read_text()
        assert origins.splitlines()[1].startswith("origin,method,horizon")

    def test_unknown_label_is_config_error(self, tmp_path):
        data = tmp_path / "in.csv"
        write_series_csv(data, labels=True)
        code = main(
            ["backtest", "--input", str(data), "--t0", "Q999", "--out", str(tmp_path / "o")]
        )
        assert code == 2


class TestSimulateCommand:
    def test_table1_preset(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["simulate", "--preset", "table1", "--error", "laplace", "--replications", "2",
             "--length", "50", "--k", "5", "--n-total", "400", "--n-burn", "200",
             "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        lines = [
            ln for ln in (out / "table1_laplace.csv").read_text().splitlines()
            if not ln.startswith("#")
        ]
        rows = list(csv.reader(lines))
        assert [r[0] for r in rows[1:]] == ["BayesMAR", "QAR", "AR"]

    def test_orders_preset(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["simulate", "--preset", "orders", "--error", "gaussian", "--replications", "2",
             "--length", "50", "--k", "5", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        text = (out / "orders_gaussian.csv").read_text()
        assert "accuracy_at_true_order" in text


def test_every_csv_data_cell_is_a_number(tmp_path):
    # floats are written as repr(float(v)), never as a numpy scalar's repr
    data = tmp_path / "in.csv"
    write_series_csv(data, n=64, labels=True)
    small = ["--n-total", "300", "--n-burn", "150"]
    runs = [
        ["fit", "--input", str(data), "--order", "2", "--trace", *small],
        ["forecast", "--input", str(data), "--k", "3", "--h", "2", "--paths-csv", *small],
        ["select-order", "--input", str(data), "--k", "3"],
        ["backtest", "--input", str(data), "--t0", "Q62", "--h", "2", "--k", "3", *small],
        ["simulate", "--preset", "table1", "--replications", "2", "--length", "50", "--k", "5",
         *small],
        ["simulate", "--preset", "orders", "--replications", "2", "--length", "50", "--k", "5"],
    ]
    for i, args in enumerate(runs):
        assert main(args + ["--out", str(tmp_path / str(i))]) == 0
    files = sorted(tmp_path.glob("*/*.csv"))
    assert {f.name for f in files} == {
        "trace.csv", "forecast_paths.csv", "ensemble.csv", "backtest_metrics.csv",
        "backtest_origins.csv", "table1_laplace.csv", "table1_gaussian.csv",
        "orders_laplace.csv", "orders_gaussian.csv",
    }
    for f in files:
        lines = [ln for ln in f.read_text().splitlines() if not ln.startswith("#")]
        header, *rows = csv.reader(lines)
        assert rows, f.name
        for row in rows:
            assert len(row) == len(header), f.name
            for col, cell in zip(header, row):
                if col in ("method", "metric"):
                    continue
                if f.name == "ensemble.csv" and col.startswith("beta_") and cell == "":
                    continue
                float(cell)  # raises on e.g. "np.float64(0.5)"


def test_module_invocation_runs_the_cli(tmp_path):
    data = tmp_path / "in.csv"
    write_series_csv(data, n=80)
    out = tmp_path / "out"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "bayesmar.cli", "select-order", "--input", str(data), "--k", "3",
         "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "ensemble.csv").exists()


class TestExitCodes:
    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["fit", "--input", str(tmp_path / "nope.csv"), "--order", "1"]) == 3

    def test_nan_csv_is_data_error(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("period,value\nQ1,NaN\n")
        assert main(["fit", "--input", str(p), "--order", "1"]) == 3

    def test_degenerate_series_is_numeric_error(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("\n".join(repr(float(i)) for i in range(1, 61)) + "\n")
        code = main(
            ["forecast", "--input", str(p), "--order-rule", "fixed", "--order", "1",
             "--n-total", "300", "--n-burn", "100", "--out", str(tmp_path / "o")]
        )
        assert code == 4

    def test_failed_l1_program_is_numeric_error_naming_orders(self, tmp_path, monkeypatch, capsys):
        def failing_linprog(*args, **kwargs):
            return SimpleNamespace(success=False, message="stub failure")

        monkeypatch.setattr(mle_fit, "linprog", failing_linprog)
        p = tmp_path / "s.csv"
        write_series_csv(p, n=80)
        code = main(["select-order", "--input", str(p), "--k", "4", "--out", str(tmp_path / "o")])
        assert code == 4
        err = capsys.readouterr().err
        assert "L1 linear program failed for orders [1, 2, 3, 4]: stub failure" in err

    def test_invalid_config_is_config_error(self, tmp_path):
        p = tmp_path / "s.csv"
        write_series_csv(p, n=30)
        code = main(
            ["select-order", "--input", str(p), "--k", "25", "--out", str(tmp_path / "o")]
        )
        assert code == 2

    def test_order_with_selection_rule_is_config_error(self, tmp_path):
        p = tmp_path / "s.csv"
        write_series_csv(p)
        out = tmp_path / "o"
        code = main(
            ["forecast", "--input", str(p), "--order-rule", "map", "--order", "7", "--k", "3",
             "--n-total", "300", "--n-burn", "100", "--out", str(out)]
        )
        assert code == 2
        assert not (out / "forecast.json").exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["forecast", "--order-rule", "map", "--order", "7"],
            ["fit", "--order", "2", "--n-total", "100", "--n-burn", "200"],
            ["simulate", "--preset", "orders", "--length", "30", "--k", "20"],
        ],
        ids=["forecast", "fit", "simulate"],
    )
    def test_config_error_leaves_no_out_dir(self, tmp_path, args):
        p = tmp_path / "s.csv"
        write_series_csv(p)
        out = tmp_path / "o"
        if args[0] != "simulate":
            args = args + ["--input", str(p)]
        assert main(args + ["--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    @pytest.mark.parametrize("command", ["backtest", "simulate"])
    def test_threads_below_one_is_config_error(self, tmp_path, command, threads):
        p = tmp_path / "s.csv"
        write_series_csv(p)
        out = tmp_path / "o"
        if command == "backtest":
            args = ["backtest", "--input", str(p), "--t0", "60"]
        else:
            args = ["simulate", "--preset", "orders"]
        with pytest.raises(SystemExit) as excinfo:
            main(args + ["--threads", threads, "--out", str(out)])
        assert excinfo.value.code == 2
        assert not out.exists()

    def test_backtest_thin_below_one_runs_no_chain(self, tmp_path, monkeypatch):
        chains = []
        monkeypatch.setattr(forecast, "run_mh", lambda *args: chains.append(args))
        p = tmp_path / "s.csv"
        write_series_csv(p)
        out = tmp_path / "o"
        code = main(["backtest", "--input", str(p), "--t0", "60", "--thin", "0", "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert chains == []

    @pytest.mark.parametrize(
        "args, code",
        [
            (["--preset", "table1", "--length", "40", "--replications", "1",
              "--n-total", "400", "--n-burn", "200"], 0),
            (["--preset", "orders", "--length", "41", "--k", "20", "--replications", "2"], 2),
            (["--preset", "orders", "--length", "42", "--k", "20", "--replications", "2"], 0),
        ],
        ids=["table1-ignores-k", "orders-one-row-short", "orders-exact-window"],
    )
    def test_simulate_length_follows_the_fit_window(self, tmp_path, args, code):
        out = tmp_path / "o"
        assert main(["simulate", "--error", "laplace", *args, "--out", str(out)]) == code
        assert out.exists() == (code == 0)

    def test_argparse_rejects_unknown_flags(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["forecast", "--nonsense"])
        assert excinfo.value.code == 2

    def test_bad_method_token(self, tmp_path):
        p = tmp_path / "s.csv"
        write_series_csv(p)
        code = main(
            ["backtest", "--input", str(p), "--t0", "60", "--methods", "arma-bma",
             "--out", str(tmp_path / "o")]
        )
        assert code == 2
