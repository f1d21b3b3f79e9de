import csv
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from bayesmar import (
    Coefficients,
    ErrorFamily,
    McmcConfig,
    fit_and_forecast,
    simulate_series,
)
from bayesmar import cli, forecast, harness, mle_fit
from bayesmar.cli import CsvParseError, build_parser, main, read_series_csv

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


def write_explosive_csv(path):
    """41 points of y_t = 1.15 y_{t-1} + Laplace noise (seed 3), from y_0 = 0."""
    rng = np.random.default_rng(3)
    y = [0.0]
    for _ in range(40):
        y.append(1.15 * y[-1] + rng.laplace(0.0, 1.0))
    path.write_text("".join(f"{v!r}\n" for v in y))


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


    def test_gaussian_fit_reruns_byte_identically_as_exact_draws(self, tmp_path):
        # exact draws: no step size, acceptance 1.0, trace rows from iter 1, all accepted
        data = tmp_path / "in.csv"
        write_series_csv(data)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main(
                ["fit", "--input", str(data), "--order", "2", "--family", "gaussian",
                 "--n-total", "500", "--n-burn", "200", "--seed", "4", "--trace",
                 "--out", str(out)]
            )
            assert code == 0
            outs.append(out)
        for name in ("fit.json", "trace.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        payload = json.loads((outs[0] / "fit.json").read_text())
        assert payload["step_size"] is None
        assert payload["acceptance_rate"] == 1.0
        assert payload["n_kept"] == 300
        with open(outs[0] / "trace.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iter", "beta_0", "beta_1", "beta_2", "scale", "accepted"]
        assert [int(r[0]) for r in rows[1:]] == list(range(1, 301))
        assert {r[-1] for r in rows[1:]} == {"1"}


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

    @pytest.mark.parametrize(
        "labels, label, index",
        [([str(2000 + i) for i in range(64)], "2060", "61"),
         ([str(i) for i in range(64)], "50", "51")],
        ids=["year-labels", "zero-based-labels"],
    )
    def test_numeric_label_names_its_period(self, tmp_path, labels, label, index):
        # a token that is a period label names that period, even when it parses
        # as an integer; the same series without labels reads it as an index
        plain = tmp_path / "plain.csv"
        ts = write_series_csv(plain)
        labeled = tmp_path / "labeled.csv"
        labeled.write_text(
            "period,value\n" + "".join(f"{p},{float(v)!r}\n" for p, v in zip(labels, ts.values))
        )
        small = ["--h", "2", "--methods", "mar-fixed:1", "--n-total", "300", "--n-burn", "150"]
        for data, t0 in ((labeled, label), (plain, index)):
            assert main(["backtest", "--input", str(data), "--t0", t0, *small,
                         "--out", str(tmp_path / data.stem)]) == 0
        for name in ("backtest_metrics.csv", "backtest_origins.csv"):
            want = (tmp_path / "plain" / name).read_bytes()
            assert (tmp_path / "labeled" / name).read_bytes() == want

    def test_last_target_of_first_origin_may_end_the_series(self, tmp_path):
        # t0=77, h=4 on 80 points: the first origin 76 forecasts 77..80
        data = tmp_path / "in.csv"
        write_series_csv(data, n=80)
        out = tmp_path / "out"
        code = main(
            ["backtest", "--input", str(data), "--t0", "77", "--h", "4", "--methods",
             "mar-fixed:1", "--n-total", "300", "--n-burn", "150", "--out", str(out)]
        )
        assert code == 0
        header = (out / "backtest_metrics.csv").read_text().splitlines()[1]
        assert header == "# horizon_counts: [4, 3, 2, 1]"

    def test_repeated_label_is_config_error(self, tmp_path, capsys):
        # Q30 is the period of CSV rows 31 and 71: neither is taken silently
        data = tmp_path / "in.csv"
        ts = write_series_csv(data, n=80)
        labels = [f"Q{i}" for i in range(1, 70)] + [f"Q{i}" for i in range(30, 41)]
        data.write_text(
            "period,value\n" + "".join(f"{p},{float(v)!r}\n" for p, v in zip(labels, ts.values))
        )
        out = tmp_path / "o"
        code = main(["backtest", "--input", str(data), "--t0", "Q30", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: t0 label 'Q30' names more than one period, at rows 31 and 71\n"
        )
        assert not out.exists()

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


def test_every_csv_data_cell_is_a_number(tmp_path, capsys):
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
    written = [
        ["fit.json", "trace.csv"],
        ["forecast.json", "forecast_paths.csv"],
        ["ensemble.csv"],
        ["backtest_metrics.csv", "backtest_origins.csv"],
        ["table1_laplace.csv", "table1_gaussian.csv"],
        ["orders_laplace.csv", "orders_gaussian.csv"],
    ]
    for i, (args, names) in enumerate(zip(runs, written)):
        out = tmp_path / str(i)
        assert main(args + ["--out", str(out)]) == 0
        # each file in --out is printed once, in the order it was written
        assert capsys.readouterr().out == "".join(f"{out / name}\n" for name in names)
        assert sorted(f.name for f in out.iterdir()) == sorted(names)
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


def _sweep_series():
    """Seeded adversarial inputs: degenerate, exact, explosive, offset and extreme in magnitude."""
    t = np.arange(60.0)

    def walk(seed, n=60):
        return np.cumsum(np.random.default_rng(seed).laplace(0.3, 1.0, n))

    noise = np.random.default_rng(2).normal(0.0, 1.0, 60)
    return {
        "constant": np.full(40, 5.0),
        "all-zero": np.zeros(40),
        "too-short": np.array([1.0, 2.0, 0.5, 3.0, 2.5]),
        "tied-integers": np.round(0.5 * walk(1)),
        "spike": np.r_[noise[:30], 1e6, noise[31:]],
        "linear-trend": 1.0 + 2.0 * t,
        "quadratic-trend": 0.5 * t**2,
        "period-4": np.tile([1.0, 3.0, -2.0, 0.5], 15),
        "alternating": np.tile([1.0, -1.0], 30),
        "explosive": 1.5**t,
        "offset-1e12": 1e12 + walk(4),
        "scale-1e300": 1e300 * walk(5),
        "scale-1e-300": 1e-300 * walk(6),
        "scale-1e299": 1e299 * walk(7, 80),
        "scale-1e-298": 1e-298 * walk(8, 80),
        "scale-1e-313": 1e-313 * walk(9, 80),
        "cauchy-walk": np.cumsum(np.random.default_rng(10).standard_cauchy(60)),
        "step": np.r_[np.zeros(30), np.ones(30)] + 1e-3 * noise,
    }


SWEEP_SERIES = _sweep_series()


@pytest.mark.filterwarnings("ignore:rank-deficient design")
@pytest.mark.parametrize("name", list(SWEEP_SERIES))
def test_input_sweep_exits_with_documented_codes(tmp_path, capsys, name):
    # every subcommand on each input, at tiny budgets: a documented exit code,
    # 2 only for the series too short to fit, no non-finite number in any
    # output, and nothing left behind by a failure
    values = SWEEP_SERIES[name]
    data = tmp_path / "in.csv"
    data.write_text("value\n" + "".join(f"{float(v)!r}\n" for v in values))
    small = ["--n-total", "200", "--n-burn", "100"]
    runs = [["backtest", "--t0", str(values.size - 1), "--h", "2", "--k", "3", *small]]
    for family in ("laplace", "gaussian"):
        fam = ["--family", family]
        runs += [
            ["fit", "--order", "2", *fam, *small],
            ["forecast", "--order-rule", "bma", "--k", "3", "--h", "2", *fam, *small],
            ["forecast", "--order-rule", "map", "--k", "3", "--h", "2", *fam, *small],
            ["forecast", "--order-rule", "fixed", "--order", "2", "--h", "2", *fam, *small],
            ["select-order", "--k", "3", *fam],
        ]
    for i, args in enumerate(runs):
        out = tmp_path / f"out{i}"
        code = main([*args, "--input", str(data), "--out", str(out)])
        assert code in (0, 2, 3, 4), args
        assert code != 2 or name == "too-short", args
        printed = capsys.readouterr().out
        if code:
            assert not out.exists(), args
            continue
        for text in [printed, *(f.read_text() for f in out.iterdir())]:
            assert not re.search(r"\b(Infinity|NaN|inf|nan)\b", text), args


@pytest.mark.parametrize("k", [1010, 1015, 1016])
def test_laplace_data_near_the_float_maximum_exit_0_or_4(tmp_path, capsys, k):
    # every fit runs on the window at 2^(-e) y and maps back, and the posterior
    # means are formed so too, so the fits and forecast run and write no inf
    y = np.ldexp(100 + np.cumsum(np.random.default_rng(3).laplace(0.3, 1, 80)), k)
    data = tmp_path / "in.csv"
    data.write_text("value\n" + "".join(f"{float(v)!r}\n" for v in y))
    runs = [["select-order", "--k", "4"], ["forecast", "--no-diff", "--k", "3", "--n-total", "400", "--n-burn", "200"],
            ["fit", "--order", "2", "--n-total", "400", "--n-burn", "200"],
            ["fit", "--order", "2", "--family", "gaussian", "--n-total", "400", "--n-burn", "200"]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        codes = [main([*args, "--input", str(data), "--out", str(tmp_path / f"out{i}")])
                 for i, args in enumerate(runs)]
    assert codes == [0, 0, 0, 0]
    assert "config error" not in capsys.readouterr().err
    for f in tmp_path.glob("out*/*"):
        assert not re.search(r"\b(Infinity|NaN|inf|nan)\b", f.read_text()), f


_HUGE_SUMMARIES = {  # seed, level and scale of a Laplace walk, and the command
    "forecast-2^1015": (3, 100.0, 2.0**1015, ["forecast", "--no-diff", "--k", "3"]),
    "backtest-1e160": (7, 5.0, 1e160, ["backtest", "--methods", "mar-bma,mar-map", "--t0", "70", "--k", "3"]),
}


@pytest.mark.parametrize("name", list(_HUGE_SUMMARIES))
def test_summaries_of_huge_data_are_finite_or_exit_4(tmp_path, capsys, name):
    # the mean point, RMSE, MAE and CRPS are formed at 2^(-e) and mapped back,
    # so data whose squares or sums overflow write no inf or NaN
    seed, level, factor, args = _HUGE_SUMMARIES[name]
    y = factor * (level + np.cumsum(np.random.default_rng(seed).laplace(0.3, 1, 80)))
    data = tmp_path / "in.csv"
    data.write_text("value\n" + "".join(f"{float(v)!r}\n" for v in y))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*args, "--n-total", "600", "--n-burn", "300", "--input", str(data), "--out", str(out)])
    assert code in (0, 4)
    texts = [capsys.readouterr().out, *(f.read_text() for f in out.iterdir())] if code == 0 else []
    for text in texts:
        assert not re.search(r"\b(Infinity|NaN|inf|nan)\b", text)


def test_readme_commands_parse():
    # every command in the README's command-line block names real flags
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [
        shlex.split(line)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("bayesmar ")
    ]
    assert [c[1] for c in commands] == [
        "fit", "forecast", "select-order", "backtest", "simulate", "simulate",
    ]
    parser = build_parser()
    for command in commands:
        ns = parser.parse_args(command[1:])
        assert ns.command == command[1]


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

    def test_directory_input_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["forecast", "--input", str(tmp_path), "--out", str(out)]) == 3
        assert "data error: " in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_input_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "s.csv"
        p.write_bytes(b"value\n1.0\n\xff\xfe2.0\n")
        out = tmp_path / "o"
        assert main(["forecast", "--input", str(p), "--out", str(out)]) == 3
        assert f"data error: {p}: byte " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["forecast", "select-order"])
    @pytest.mark.parametrize("under_file", [False, True], ids=["file", "under-file"])
    def test_unusable_out_is_config_error_before_any_work(
        self, tmp_path, monkeypatch, capsys, command, under_file
    ):
        # --out names an existing file, or a path beneath one: nothing is read
        # or fitted, and the file is left as it was
        calls = []
        monkeypatch.setattr(cli, "read_series_csv", lambda path: calls.append("read"))
        p = tmp_path / "s.csv"
        write_series_csv(p)
        blocker = tmp_path / "taken"
        blocker.write_text("keep\n")
        out = blocker / "o" if under_file else blocker
        assert main([command, "--input", str(p), "--out", str(out)]) == 2
        assert f"config error: --out {out}: {blocker} is not a directory" in capsys.readouterr().err
        assert calls == []
        assert blocker.read_text() == "keep\n"

    @pytest.mark.parametrize("parent_exists", [True, False], ids=["parent", "missing-parent"])
    def test_out_name_too_long_is_config_error_before_any_work(
        self, tmp_path, monkeypatch, capsys, parent_exists
    ):
        # a 300-character component: the lookup fails when its parent exists,
        # and it exceeds the name limit when the parent is still to be made;
        # either way no chain runs and no directory is made
        calls = []
        monkeypatch.setattr(forecast, "run_mh_batch", lambda *args: calls.append(args))
        p = tmp_path / "s.csv"
        write_series_csv(p)
        parent = tmp_path if parent_exists else tmp_path / "missing"
        out = parent / ("x" * 300)
        before = sorted(tmp_path.iterdir())
        assert main(["forecast", "--input", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: --out {out}: ") and err.count("\n") == 1
        assert calls == []
        assert sorted(tmp_path.iterdir()) == before

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

    @pytest.mark.parametrize("family", ["laplace", "gaussian"])
    def test_rank_deficient_design_is_numeric_error(self, tmp_path, family):
        # 29 equal values then one jump: the order-1 lag column is constant,
        # yet no exact fit exists, so only the rank check rejects it
        p = tmp_path / "s.csv"
        p.write_text("2.5\n" * 29 + "3.0\n")
        out = tmp_path / "o"
        code = main(["fit", "--input", str(p), "--order", "1", "--family", family,
                     "--n-total", "300", "--n-burn", "100", "--out", str(out)])
        assert code == 4
        assert not (out / "fit.json").exists()

    def test_failed_l1_program_is_numeric_error_naming_orders(self, tmp_path, monkeypatch, capsys):
        def uncertifiable_solver(X, targets, masks):
            # beta = 0 and d = 0: no fit can be certified by the duality gap
            return np.zeros((len(masks), targets.size)), np.zeros(masks.shape)

        monkeypatch.setattr(mle_fit, "_frisch_newton", uncertifiable_solver)
        p = tmp_path / "s.csv"
        write_series_csv(p, n=80)
        code = main(["select-order", "--input", str(p), "--k", "4", "--out", str(tmp_path / "o")])
        assert code == 4
        err = capsys.readouterr().err
        assert "L1 fit failed for orders [1, 2, 3, 4]: duality gap" in err

    def test_explosive_draws_are_numeric_error_leaving_no_out_dir(self, tmp_path, capsys):
        # y_t = 1.15 y_{t-1} + Laplace noise: the order-1 draws are explosive,
        # and 6000 steps overflow their paths before anything is written
        p = tmp_path / "s.csv"
        write_explosive_csv(p)
        out = tmp_path / "o"
        code = main(
            ["forecast", "--input", str(p), "--no-diff", "--order-rule", "fixed", "--order", "1",
             "--h", "6000", "--n-total", "4000", "--n-burn", "2000", "--out", str(out)]
        )
        assert code == 4
        assert not out.exists()
        err = capsys.readouterr().err
        assert re.fullmatch(r"numeric error: explosive posterior draws overflow the order-1 paths at horizon \d+\n", err)

    def test_explosive_levels_are_numeric_error_leaving_no_out_dir(self, tmp_path, capsys):
        # the explosive series, differenced by default: 4061 steps keep
        # the change paths finite but overflow the level paths
        p = tmp_path / "s.csv"
        write_explosive_csv(p)
        out = tmp_path / "o"
        code = main(
            ["forecast", "--input", str(p), "--order-rule", "fixed", "--order", "1",
             "--h", "4061", "--n-total", "4000", "--n-burn", "2000", "--out", str(out)]
        )
        assert code == 4
        assert not out.exists()
        err = capsys.readouterr().err
        assert re.fullmatch(r"numeric error: explosive posterior draws overflow the level paths at horizon \d+\n", err)

    @pytest.mark.parametrize("threads, unit", [(1, "37..40"), (2, "37..38")])
    def test_failed_backtest_unit_is_named(self, tmp_path, capsys, threads, unit):
        # noiseless y_t = 1.15 y_{t-1}: every change window admits an exact
        # order-1 fit, so the first unit's Laplace batch fails; the message
        # names the unit's origins, the family and the seed base
        p = tmp_path / "s.csv"
        p.write_text("".join(f"{1.15**t!r}\n" for t in range(41)))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main(
                ["backtest", "--input", str(p), "--t0", "38", "--k", "2", "--h", "2", "--n-total", "600",
                 "--n-burn", "300", "--threads", str(threads), "--out", str(out)]
            )
        assert code == 4
        assert not out.exists()
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"numeric error: backtest origins {unit}, laplace fits seeded (0, t, 0): "
            "data admit an exact order-1 fit; the scale posterior is improper"
        )

    def test_second_family_failure_leaves_no_out_dir(self, tmp_path, monkeypatch, capsys):
        # the Laplace study succeeds and the Gaussian one fails: neither
        # family's file is written nor printed
        run_order_study = cli.run_order_study

        def gaussian_fails(config, n_jobs=1):
            if config.error is ErrorFamily.GAUSSIAN:
                raise RuntimeError("gaussian study failed")
            return run_order_study(config, n_jobs)

        monkeypatch.setattr(cli, "run_order_study", gaussian_fails)
        out = tmp_path / "o"
        code = main(["simulate", "--preset", "orders", "--error", "both", "--replications", "3",
                     "--length", "60", "--k", "5", "--out", str(out)])
        assert code == 4
        captured = capsys.readouterr()
        assert captured.err == "numeric error: gaussian study failed\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["forecast", "select-order"])
    @pytest.mark.parametrize("factor", [1e299, 1e-298, 1e-313])
    def test_gaussian_magnitude_overflow_is_numeric_error(self, tmp_path, capsys, command, factor):
        # an 80-point walk whose squares overflow (1e299) or underflow
        # (1e-298, and 1e-313 of subnormal data): the point fit names its
        # order before any BIC is formed, and numpy warns of nothing
        p = tmp_path / "s.csv"
        walk = factor * np.cumsum(np.random.default_rng(5).normal(0.3, 1.0, 80))
        p.write_text("".join(f"{float(v)!r}\n" for v in walk))
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--input", str(p), "--family", "gaussian", "--k", "3",
                         "--out", str(out)])
        assert code == 4
        assert not out.exists()
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err.startswith("numeric error: Gaussian fit of order 1: RSS ")

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
        monkeypatch.setattr(forecast, "run_mh_batch", lambda *args: chains.append(args))
        p = tmp_path / "s.csv"
        write_series_csv(p)
        out = tmp_path / "o"
        code = main(["backtest", "--input", str(p), "--t0", "60", "--thin", "0", "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert chains == []

    def test_backtest_order_below_one_runs_no_chain(self, tmp_path, monkeypatch):
        # the fixed-order method needs no --k, but the selecting one does
        chains = []
        monkeypatch.setattr(forecast, "run_mh_batch", lambda *args: chains.append(args))
        p = tmp_path / "s.csv"
        write_series_csv(p)
        out = tmp_path / "o"
        code = main(["backtest", "--input", str(p), "--t0", "60", "--methods",
                     "mar-fixed:2,ar-bma", "--k", "0", "--out", str(out)])
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
        # the chain's step is worked out from the data, not set by a flag
        with pytest.raises(SystemExit) as excinfo:
            main(["fit", "--input", "s.csv", "--order", "1", "--step", "1.0"])
        assert excinfo.value.code == 2

    def test_bad_method_token(self, tmp_path, capsys):
        p = tmp_path / "s.csv"
        write_series_csv(p)
        for token in ("arma-bma", "mar-fixed:x", "mar-fixed:", "mar-fixed", "mar-bma:3"):
            code = main(
                ["backtest", "--input", str(p), "--t0", "60", "--methods", token,
                 "--out", str(tmp_path / "o")]
            )
            assert code == 2
            assert f"config error: unknown method token {token!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["forecast", "--h", "0"],
            ["forecast", "--thin", "0"],
            ["forecast", "--level", "1.5"],
            ["forecast", "--level", "0"],
            ["forecast", "--n-total", "401", "--n-burn", "400"],
            ["backtest", "--t0", "60", "--n-total", "301", "--n-burn", "300"],
        ],
        ids=["h0", "thin0", "level1.5", "level0", "forecast-one-path", "backtest-one-path"],
    )
    def test_bad_forecast_plan_fits_nothing(self, tmp_path, monkeypatch, args):
        fits = []
        monkeypatch.setattr(forecast, "run_mh_batch", lambda *a: fits.append("run_mh_batch"))
        monkeypatch.setattr(forecast, "build_ensemble", lambda *a: fits.append("build_ensemble"))
        p = tmp_path / "s.csv"
        write_series_csv(p)
        out = tmp_path / "o"
        assert main([*args, "--input", str(p), "--out", str(out)]) == 2
        assert not out.exists()
        assert fits == []

    @pytest.mark.parametrize(
        "args",
        [
            ["fit", "--order", "2"],
            ["forecast"],
            ["select-order"],
            ["backtest", "--t0", "60"],
            ["backtest", "--t0", "60", "--threads", "2"],
            ["simulate", "--preset", "orders", "--replications", "2", "--length", "50", "--k", "5"],
        ],
        ids=["fit", "forecast", "select-order", "backtest", "backtest-threads", "simulate"],
    )
    def test_negative_seed_exits_before_reading_input(self, tmp_path, monkeypatch, args):
        calls = []
        read = cli.read_series_csv
        monkeypatch.setattr(cli, "read_series_csv", lambda path: calls.append("read") or read(path))
        stubs = {cli: ("run_mh", "build_ensemble"), forecast: ("run_mh_batch", "build_ensemble"),
                 harness: ("run_mh_batch", "build_ensemble")}
        for module, names in stubs.items():
            for name in names:
                monkeypatch.setattr(module, name, lambda *a, name=name: calls.append(name))
        p = tmp_path / "s.csv"
        write_series_csv(p)
        out = tmp_path / "o"
        if args[0] != "simulate":
            args = args + ["--input", str(p)]
        with pytest.raises(SystemExit) as excinfo:
            main(args + ["--seed", "-1", "--out", str(out)])
        assert excinfo.value.code == 2
        assert not out.exists()
        assert calls == []

    def test_two_paths_is_enough(self, tmp_path):
        p = tmp_path / "s.csv"
        write_series_csv(p)
        out = tmp_path / "o"
        code = main(
            ["forecast", "--input", str(p), "--k", "3", "--n-total", "402", "--n-burn", "400",
             "--paths-csv", "--out", str(out)]
        )
        assert code == 0
        assert len((out / "forecast_paths.csv").read_text().splitlines()) == 1 + 2
