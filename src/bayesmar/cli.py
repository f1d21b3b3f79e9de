"""Command-line front end: CSV ingestion and subcommands over the library.

Subcommands are thin adapters: they parse flags, validate configuration,
delegate to the library, and return self-describing artifacts (every output
embeds the statistical configuration and the seed, so a table can be
reproduced from its own header).  A subcommand never touches the file system:
it returns a list of file names, each with a JSON payload or a CSV table.
``main`` alone, once the subcommand has returned, creates ``--out``, writes
each artifact (every CSV through ``_write_csv``, every JSON through
``_write_json``) and prints its path, so a failure anywhere leaves nothing
behind.  This is the only module that writes files.  Exit codes: 0 success,
2 configuration error, 3 data error, 4 numeric or degeneracy error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .core import DegenerateDataError, ErrorFamily, TimeSeries, binary_scale, diff1, unscale
from .forecast import POINT_STATISTICS, MethodSpec, fit_and_forecast
from .harness import (
    BacktestSpec,
    SimStudyConfig,
    run_backtest,
    run_mse_study,
    run_order_study,
)
from .mcmc import McmcConfig, posterior_mean, run_mh
from .order_select import build_ensemble

__all__ = ["CsvParseError", "read_series_csv", "build_parser", "main", "entrypoint"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# The --family and --error choices, in ErrorFamily's order
FAMILIES = [family.value for family in ErrorFamily]

# A subcommand's output: a file name, then a JSON payload or a CSV table
# (columns, rows, header_lines)
Artifact = tuple[str, "dict | tuple"]


class CsvParseError(ValueError):
    """Unreadable or malformed series CSV; the message cites the offending row."""


def _parse_value(text: str, row: int) -> float:
    text = text.strip()
    if not text:
        raise CsvParseError(f"row {row}: missing value")
    try:
        value = float(text)
    except ValueError:
        raise CsvParseError(f"row {row}: non-numeric value {text!r}") from None
    if not math.isfinite(value):
        raise CsvParseError(f"row {row}: non-finite value {text!r}")
    return value


def read_series_csv(path: str | Path) -> TimeSeries:
    """Read a series from CSV.

    Accepted layouts: header ``period,value`` with one labeled observation per
    row, header ``value`` with one column, or a headerless single numeric
    column.  Rows are parsed in order; any missing or non-numeric value fails
    with its 1-based row number.  A leading UTF-8 byte-order mark is skipped.
    A path that cannot be read as a UTF-8 file fails too.
    """
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise CsvParseError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise CsvParseError(f"{path}: byte {exc.start} is not UTF-8 text") from None
    if not rows:
        raise CsvParseError("empty file")

    first = [c.strip().lower() for c in rows[0]]
    if first == ["period", "value"]:
        labeled, data_rows, offset = True, rows[1:], 2
    elif first == ["value"]:
        labeled, data_rows, offset = False, rows[1:], 2
    else:
        if len(rows[0]) != 1:
            raise CsvParseError(
                "row 1: expected header 'period,value', header 'value', or a single numeric column"
            )
        _parse_value(rows[0][0], 1)
        labeled, data_rows, offset = False, rows, 1

    values: list[float] = []
    labels: list[str] = []
    for i, row in enumerate(data_rows):
        rownum = i + offset
        if labeled:
            if len(row) != 2:
                raise CsvParseError(f"row {rownum}: expected 'period,value', got {row!r}")
            labels.append(row[0].strip())
            values.append(_parse_value(row[1], rownum))
        else:
            if len(row) != 1:
                raise CsvParseError(f"row {rownum}: expected a single value, got {row!r}")
            values.append(_parse_value(row[0], rownum))
    if not values:
        raise CsvParseError("no data rows")
    return TimeSeries(np.array(values), labels=tuple(labels) if labeled else None)


def _echo(ns: argparse.Namespace, keys: tuple[str, ...]) -> dict:
    # The echo captures the statistical configuration; output paths are omitted
    # so reruns into different directories stay byte-identical.
    return {k: getattr(ns, k) for k in keys}


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, columns: list[str], rows, header_lines: tuple[str, ...] = ()) -> None:
    """Write ``# `` header lines, the column row, then ``rows``.

    Every float cell is written as ``repr(float(v))``, the shortest string that
    parses back to the same value (a numpy scalar's own repr would not parse).
    """
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


def _check_out(text: str) -> None:
    """Reject an --out that cannot become a directory, before any work runs.

    The nearest existing path, --out itself or an ancestor, must be a
    directory, and each component still to be made must fit its filesystem's
    name limit.  A path the filesystem refuses to look up is rejected too.
    """
    path = Path(text)
    try:
        existing = next(p for p in (path, *path.parents) if p.exists())
        if not existing.is_dir():
            raise ValueError(f"--out {text}: {existing} is not a directory")
        name_max = os.pathconf(existing, "PC_NAME_MAX") if hasattr(os, "pathconf") else 255
    except OSError as exc:
        raise ValueError(f"--out {text}: {exc.strerror}") from None
    for part in map(os.fsencode, path.relative_to(existing).parts):
        if len(part) > name_max:
            raise ValueError(f"--out {text}: a component of {len(part)} bytes exceeds "
                             f"the filesystem's limit of {name_max}")


def _worker_count(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"need at least 1 worker process, got {n}")
    return n


def _seed(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"seed must be at least 0, got {n}")
    return n


def _parse_methods(spec: str) -> tuple[MethodSpec, ...]:
    known_families = {"mar": ErrorFamily.LAPLACE, "ar": ErrorFamily.GAUSSIAN}
    methods: list[MethodSpec] = []
    for token in (t.strip().lower() for t in spec.split(",")):
        if not token:
            continue
        fam_key, _, rule = token.partition("-")
        rule, colon, order = rule.partition(":")
        if fam_key not in known_families or not (
            (rule in ("bma", "map") and not colon) or (rule == "fixed" and order.isdecimal())
        ):
            raise ValueError(f"unknown method token {token!r}")
        fixed_order = int(order) if rule == "fixed" else None
        methods.append(MethodSpec(known_families[fam_key], rule, fixed_order))
    if not methods:
        raise ValueError("no methods given")
    return tuple(methods)


def _resolve_t0(token: str, series: TimeSeries) -> int:
    if series.labels is not None and token in series.labels:
        periods = [t for t, label in enumerate(series.labels, start=1) if label == token]
        if len(periods) > 1:  # period t is CSV row t + 1, below the period,value header
            rows = " and ".join(str(t + 1) for t in periods)
            raise ValueError(f"t0 label {token!r} names more than one period, at rows {rows}")
        return periods[0]
    try:
        return int(token)
    except ValueError:
        pass
    if series.labels is None:
        raise ValueError(f"t0 label {token!r} given but the input CSV has no period column")
    raise ValueError(f"t0 label {token!r} not found in the input periods")


def _read_input(ns: argparse.Namespace) -> TimeSeries:
    series = read_series_csv(ns.input)
    return diff1(series) if ns.diff else series


def _mcmc(ns: argparse.Namespace, seed: int = 0) -> McmcConfig:
    return McmcConfig(n_total=ns.n_total, n_burn=ns.n_burn, seed=seed)


def _cmd_fit(ns: argparse.Namespace) -> list[Artifact]:
    draws = run_mh(_read_input(ns), ns.order, ErrorFamily(ns.family), _mcmc(ns, ns.seed))
    mean, (tau, e) = posterior_mean(draws), binary_scale(draws.tau_draws)  # tau's mean formed as beta's
    artifacts: list[Artifact] = [("fit.json", {
        "config": _echo(ns, ("input", "order", "family", "diff", "n_total", "n_burn")),
        "seed": ns.seed,
        "order": draws.order,
        "posterior_mean": [float(b) for b in mean.beta],
        "scale_posterior_mean": float(unscale(tau.mean(), e, "the scale's posterior mean")),
        "acceptance_rate": draws.acceptance_rate,
        "step_size": draws.step_size,
        "n_kept": draws.n_kept,
    })]
    if ns.trace:
        # every exact (Gaussian) draw is a new state, so it reads as accepted
        accepted = np.ones(draws.n_kept, dtype=bool) if draws.accepted is None else draws.accepted
        kept = zip(draws.beta_draws, draws.tau_draws, accepted)
        artifacts.append(("trace.csv", (
            ["iter"] + [f"beta_{j}" for j in range(draws.order + 1)] + ["scale", "accepted"],
            ([k, *b, sc, int(a)] for k, (b, sc, a) in enumerate(kept, start=draws.n_burn + 1)),
            (),
        )))
    return artifacts


def _cmd_forecast(ns: argparse.Namespace) -> list[Artifact]:
    result = fit_and_forecast(
        read_series_csv(ns.input), ErrorFamily(ns.family), ns.horizon, ns.order_rule,
        ns.max_order, _mcmc(ns, ns.seed), interval_level=ns.level, fixed_order=ns.order,
        apply_diff=not ns.no_diff, statistic=ns.point_statistic, thin=ns.thin,
    )
    artifacts: list[Artifact] = [("forecast.json", {
        "config": _echo(
            ns,
            ("input", "family", "order_rule", "order", "max_order", "horizon",
             "level", "no_diff", "n_total", "n_burn", "thin", "point_statistic"),
        ),
        "seed": ns.seed,
        "horizons": [
            {"horizon": h, "point": float(point), "lower": float(lo), "upper": float(hi)}
            for h, (point, (lo, hi)) in enumerate(zip(result.point, result.intervals), start=1)
        ],
    })]
    if ns.paths_csv:
        artifacts.append(("forecast_paths.csv", (
            ["path_id"] + [f"h{h + 1}" for h in range(result.horizons)],
            ([i, *row] for i, row in enumerate(result.paths)),
            (),
        )))
    return artifacts


def _cmd_select_order(ns: argparse.Namespace) -> list[Artifact]:
    ensemble = build_ensemble(_read_input(ns), ns.max_order, ErrorFamily(ns.family))
    header = (
        f"config: {json.dumps(_echo(ns, ('input', 'family', 'max_order', 'diff')), sort_keys=True)}",
        f"map_order: {ensemble.map_order}",
    )
    k_max = ensemble.max_order
    weights = ensemble.weights
    return [("ensemble.csv", (
        ["order", "bic", "weight"] + [f"beta_{j}" for j in range(k_max + 1)] + ["scale"],
        # betas beyond an order's own p + 1 are padded with blanks
        (
            [p, ensemble.bics[p - 1], weights[p - 1], *fit.coeff.beta]
            + [""] * (k_max - p)
            + [fit.scale]
            for p, fit in enumerate(ensemble.fits, start=1)
        ),
        header,
    ))]


def _cmd_backtest(ns: argparse.Namespace) -> list[Artifact]:
    series = read_series_csv(ns.input)
    spec = BacktestSpec(
        series=series, t0=_resolve_t0(ns.t0, series), horizons=ns.horizon,
        methods=_parse_methods(ns.methods), mcmc=_mcmc(ns), max_order=ns.max_order,
        seed=ns.seed, apply_diff=not ns.no_diff, baseline=ns.baseline, thin=ns.thin,
    )
    report = run_backtest(spec, n_jobs=ns.threads)
    config = f"config: {json.dumps(spec.config_dict(), sort_keys=True)}"
    table = report.metrics
    errors = report.errors
    return [
        ("backtest_metrics.csv", (
            ["metric", "method"]
            + [f"h{h}" for h in table.horizons]
            + [f"relchg_h{h}" for h in table.horizons],
            (
                [metric, method, *values, *rel]
                for metric in sorted(table.values)
                for method, values, rel in zip(
                    table.methods, table.values[metric], table.relative(metric)
                )
            ),
            (config, f"horizon_counts: {report.counts.tolist()}"),
        )),
        # one row per realized (origin, method, horizon) target
        ("backtest_origins.csv", (
            ["origin", "method", "horizon", "forecast", "truth", "error", "crps"],
            (
                [t, m, h, report.forecasts[mi, i, h - 1], report.truths[i, h - 1],
                 errors[mi, i, h - 1], report.crps[mi, i, h - 1]]
                for i, t in enumerate(report.origins)
                for mi, m in enumerate(report.methods)
                for h in table.horizons
                if not np.isnan(report.truths[i, h - 1])
            ),
            (config,),
        )),
    ]


def _cmd_simulate(ns: argparse.Namespace) -> list[Artifact]:
    families = list(ErrorFamily) if ns.error == "both" else [ErrorFamily(ns.error)]
    echo = json.dumps(
        _echo(ns, ("preset", "error", "replications", "length", "max_order",
                   "n_total", "n_burn", "seed")),
        sort_keys=True,
    )
    artifacts: list[Artifact] = []
    # rows are built eagerly: a lazy generator here would read the last family's report
    for family in families:
        config = SimStudyConfig(
            error=family, series_length=ns.length, replications=ns.replications,
            max_order=ns.max_order, seed=ns.seed, mcmc=_mcmc(ns),
        )
        header = (f"config: {echo}", f"noise: {family.value}")
        if ns.preset == "table1":
            report = run_mse_study(config, n_jobs=ns.threads)
            summaries = (report.mse, report.se)
            n_coef = report.true_beta.size
            # method-by-coefficient MSE/SE, scaled by 100 like the reference layout
            artifacts.append((f"table1_{family.value}.csv", (
                ["method"] + [f"{s}_beta{j}_x100" for j in range(n_coef) for s in ("mse", "se")],
                [[m] + [v[m][j] * 100.0 for j in range(n_coef) for v in summaries]
                 for m in report.methods],
                header,
            )))
        else:
            report = run_order_study(config, n_jobs=ns.threads)
            counts = report.counts
            artifacts.append((f"orders_{family.value}.csv", (
                ["order", "count"],
                [[p, int(counts[p])] for p in range(1, counts.size)],
                header + (f"accuracy_at_true_order: {report.accuracy}",),
            )))
    return artifacts


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bayesmar",
        description="Median autoregression forecasting: fit, order selection, "
        "forecasting, backtesting, and simulation studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=_seed, default=0, help="master RNG seed, at least 0")
        p.add_argument("--out", default=".", help="output directory")

    def add_budget(p: argparse.ArgumentParser, n_total: int, n_burn: int) -> None:
        p.add_argument("--n-total", dest="n_total", type=int, default=n_total)
        p.add_argument("--n-burn", dest="n_burn", type=int, default=n_burn)

    p_fit = sub.add_parser("fit", help="sample the posterior at a fixed order")
    p_fit.add_argument("--input", required=True)
    p_fit.add_argument("--order", type=int, required=True)
    p_fit.add_argument("--family", choices=FAMILIES, default="laplace")
    p_fit.add_argument("--diff", action="store_true", help="model lag-1 changes")
    add_budget(p_fit, 40_000, 25_000)
    p_fit.add_argument("--trace", action="store_true", help="export retained draws as CSV")
    add_common(p_fit)
    p_fit.set_defaults(handler=_cmd_fit)

    p_fc = sub.add_parser("forecast", help="point and density forecasts")
    p_fc.add_argument("--input", required=True)
    p_fc.add_argument("--family", choices=FAMILIES, default="laplace")
    p_fc.add_argument("--order-rule", dest="order_rule", choices=["bma", "map", "fixed"], default="bma")
    p_fc.add_argument("--order", type=int, default=None, help="order for --order-rule fixed")
    p_fc.add_argument("--k", dest="max_order", type=int, default=8, help="maximum candidate order")
    p_fc.add_argument("--h", dest="horizon", type=int, default=4)
    p_fc.add_argument("--level", type=float, default=0.95)
    p_fc.add_argument("--no-diff", dest="no_diff", action="store_true",
                      help="forecast the series itself instead of lag-1 changes")
    add_budget(p_fc, 8000, 4000)
    p_fc.add_argument("--thin", type=int, default=1)
    p_fc.add_argument("--point-statistic", dest="point_statistic",
                      choices=POINT_STATISTICS, default="mean")
    p_fc.add_argument("--paths-csv", dest="paths_csv", action="store_true",
                      help="also export raw predictive paths")
    add_common(p_fc)
    p_fc.set_defaults(handler=_cmd_forecast)

    p_sel = sub.add_parser("select-order", help="BIC table and model weights")
    p_sel.add_argument("--input", required=True)
    p_sel.add_argument("--family", choices=FAMILIES, default="laplace")
    p_sel.add_argument("--k", dest="max_order", type=int, default=8)
    p_sel.add_argument("--diff", action="store_true", help="select on lag-1 changes")
    add_common(p_sel)
    p_sel.set_defaults(handler=_cmd_select_order)

    p_bt = sub.add_parser("backtest", help="recursive out-of-sample evaluation")
    p_bt.add_argument("--input", required=True)
    p_bt.add_argument("--t0", required=True,
                      help="first forecast target: a period label, else a 1-based index")
    p_bt.add_argument("--h", dest="horizon", type=int, default=4)
    p_bt.add_argument("--k", dest="max_order", type=int, default=8)
    p_bt.add_argument("--methods", default="mar-bma,mar-map,ar-bma,ar-map",
                      help="comma list of mar-bma|mar-map|mar-fixed:P|ar-bma|ar-map|ar-fixed:P")
    add_budget(p_bt, 8000, 4000)
    p_bt.add_argument("--no-diff", dest="no_diff", action="store_true")
    p_bt.add_argument("--baseline", default=None, help="method name for relative changes")
    p_bt.add_argument("--thin", type=int, default=1)
    p_bt.add_argument("--threads", type=_worker_count, default=1, help="worker processes")
    add_common(p_bt)
    p_bt.set_defaults(handler=_cmd_backtest)

    p_sim = sub.add_parser("simulate", help="replicated simulation studies")
    p_sim.add_argument("--preset", choices=["table1", "orders"], required=True)
    p_sim.add_argument("--error", choices=[*FAMILIES, "both"], default="both")
    p_sim.add_argument("--replications", type=int, default=100)
    p_sim.add_argument("--length", type=int, default=200)
    p_sim.add_argument("--k", dest="max_order", type=int, default=20)
    add_budget(p_sim, 40_000, 25_000)
    p_sim.add_argument("--threads", type=_worker_count, default=1)
    add_common(p_sim)
    p_sim.set_defaults(handler=_cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        _check_out(ns.out)
        artifacts = ns.handler(ns)
        out = Path(ns.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, content in artifacts:
            path = out / name
            if isinstance(content, dict):
                _write_json(path, content)
            else:
                _write_csv(path, *content)
            print(path)
        return EXIT_OK
    except CsvParseError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (DegenerateDataError, np.linalg.LinAlgError, RuntimeError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
