"""Experimental protocols: simulation studies and recursive backtesting.

The simulation study generates AR(2) data with Gaussian or Laplace noise,
re-estimates the coefficients by several fitters over many replications, and
reports per-coefficient mean squared errors with their standard errors.  The
order study repeats the generation and records the BIC-selected order.

The backtest walks a series of levels forward one period at a time: at each
origin t it hands the history up to t to ``forecast_family`` (one call per
error family, seeded with (seed, t, family code)), which models the lag-1
changes unless differencing is off and returns level forecasts, and scores
the point and density forecasts against the realized values.  All randomness
derives from one master seed via per-unit seed tuples, so runs are
reproducible and independent of evaluation order.  The reports hold arrays
only; the CLI turns them into tables.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, ClassVar, Sequence

import numpy as np

from .core import (
    Coefficients,
    ErrorFamily,
    TimeSeries,
    as_seed_tuple,
    check_window,
)
from .forecast import MethodSpec, forecast_family
from .mcmc import McmcConfig, posterior_mean, run_mh
from .mle_fit import fit_l1, fit_ols
from .order_select import build_ensemble
from .scoring import MetricTable, crps_sample, mae, rmse

__all__ = [
    "SimStudyConfig",
    "simulate_series",
    "MseStudyReport",
    "run_mse_study",
    "OrderStudyReport",
    "run_order_study",
    "BacktestSpec",
    "BacktestReport",
    "run_backtest",
]

@dataclass(frozen=True)
class SimStudyConfig:
    """Design of the replicated estimation experiment on the fixed AR(2) ``true_beta``.

    Replication i draws its series with seed (seed, i) and its chain with
    seed (seed, i, 1); ``mcmc.seed`` is not read.  Each fit checks its own
    window (``check_window``): the MSE study needs ``series_length`` >= 6 and
    the order study >= 2 * ``max_order`` + 2.
    """

    true_beta: ClassVar[Coefficients] = Coefficients.from_values((0.3, 0.75, -0.35))
    error: ErrorFamily = ErrorFamily.LAPLACE
    series_length: int = 200
    replications: int = 100
    max_order: int = 20
    seed: int = 0
    mcmc: McmcConfig = field(default_factory=McmcConfig)

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError("replications must be at least 1")


def simulate_series(
    beta: Coefficients,
    error: ErrorFamily,
    length: int,
    burn: int = 200,
    seed: int | Sequence[int] = 0,
    scale: float = 1.0,
) -> TimeSeries:
    """Iterate the AR recursion from zero initial lags and keep the last values.

    Laplace errors use the standard scale (density exp(-|x|/scale)/(2 scale));
    Gaussian errors use the standard deviation.
    """
    if length < 1 or burn < 0:
        raise ValueError("length must be positive and burn nonnegative")
    rng = np.random.default_rng(as_seed_tuple(seed))
    total = length + burn
    eps = error.model.noise(rng, 0.0, scale, total)
    p = beta.order
    # Each value sums its lag terms farthest lag first, the direct form II
    # transposed order, so the series is bit-identical to SciPy's lfilter.
    lags_far_first = beta.beta[:0:-1].tolist()
    values = [0.0] * p
    for x_t in (beta.beta[0] + eps).tolist():
        acc = 0.0
        for phi, y_lag in zip(lags_far_first, values[len(values) - p :]):
            acc += phi * y_lag
        values.append(x_t + acc)
    return TimeSeries(np.array(values[p + burn :]))


def _replication_series(config: SimStudyConfig, i: int) -> TimeSeries:
    """The series of replication ``i`` of a study, seeded with (seed, i)."""
    # The replicated studies generate from zero initial lags (burn = 0); the
    # transient is part of the protocol being reproduced.
    return simulate_series(
        config.true_beta, config.error, config.series_length, burn=0, seed=(config.seed, i)
    )


@dataclass(frozen=True)
class MseStudyReport:
    """Replicated-estimation summary: per-method MSE and SE per coefficient."""

    methods: tuple[str, ...]
    true_beta: np.ndarray
    estimates: dict[str, np.ndarray]
    mse: dict[str, np.ndarray]
    se: dict[str, np.ndarray]
    acceptance_rates: np.ndarray


def _mse_replication(args: tuple[SimStudyConfig, int]):
    config, i = args
    series = _replication_series(config, i)
    p = config.true_beta.order
    cfg = replace(config.mcmc, seed=(config.seed, i, 1))
    draws = run_mh(series, p, ErrorFamily.LAPLACE, cfg)
    estimates = {
        "BayesMAR": posterior_mean(draws).beta,
        "QAR": fit_l1(series, p, start=p + 1).coeff.beta,
        "AR": fit_ols(series, p, start=p + 1).coeff.beta,
    }
    return i, estimates, draws.acceptance_rate


def run_mse_study(config: SimStudyConfig, n_jobs: int = 1) -> MseStudyReport:
    """Replicate simulation + estimation and summarize squared-error losses.

    Methods: "BayesMAR" (posterior mean at the true order), "QAR" (the L1
    point fit, which at the median is the same estimator quantile regression
    uses), "AR" (Gaussian least squares).
    """
    methods = ("BayesMAR", "QAR", "AR")
    tasks = [(config, i) for i in range(config.replications)]
    results = _run_units(_mse_replication, tasks, n_jobs)

    reps = config.replications
    n_coef = config.true_beta.order + 1
    estimates = {m: np.empty((reps, n_coef)) for m in methods}
    acceptance = np.empty(reps)
    for i, est, acc in results:
        for m in methods:
            estimates[m][i] = est[m]
        acceptance[i] = acc

    true = config.true_beta.beta
    mse = {}
    se = {}
    for m in methods:
        sq = (estimates[m] - true[None, :]) ** 2
        mse[m] = sq.mean(axis=0)
        se[m] = sq.std(axis=0, ddof=1) / np.sqrt(reps) if reps > 1 else np.zeros(n_coef)
    return MseStudyReport(
        methods=methods,
        true_beta=true.copy(),
        estimates=estimates,
        mse=mse,
        se=se,
        acceptance_rates=acceptance,
    )


@dataclass(frozen=True)
class OrderStudyReport:
    """Histogram of BIC-selected orders across replications."""

    counts: np.ndarray
    map_orders: np.ndarray
    accuracy: float
    true_order: int


def _order_replication(args: tuple[SimStudyConfig, int]):
    config, i = args
    series = _replication_series(config, i)
    return i, build_ensemble(series, config.max_order, ErrorFamily.LAPLACE).map_order


def run_order_study(config: SimStudyConfig, n_jobs: int = 1) -> OrderStudyReport:
    """Record the Laplace-BIC-selected order for each simulated replication."""
    tasks = [(config, i) for i in range(config.replications)]
    results = _run_units(_order_replication, tasks, n_jobs)
    map_orders = np.zeros(config.replications, dtype=int)
    for i, p in results:
        map_orders[i] = p
    counts = np.bincount(map_orders, minlength=config.max_order + 1)
    true_order = config.true_beta.order
    accuracy = float(counts[true_order]) / config.replications
    return OrderStudyReport(
        counts=counts,
        map_orders=map_orders,
        accuracy=accuracy,
        true_order=true_order,
    )


_FAMILY_CODE = {ErrorFamily.LAPLACE: 0, ErrorFamily.GAUSSIAN: 1}


@dataclass(frozen=True)
class BacktestSpec:
    """Recursive out-of-sample forecasting protocol on a series of levels.

    ``t0`` is the 1-based index of the first forecast target: origins run from
    t0 - 1 to T - 1 and the fit at origin t sees y_1..y_t only.  The chains
    at origin t are seeded from (seed, t, family code); ``mcmc.seed`` is not
    read.  Scoring reads points and paths only, so there is no interval level.
    A first origin too short for a method (``check_window``) or ``thin`` < 1
    fails here, before any chain runs.
    """

    series: TimeSeries
    t0: int
    horizons: int = 4
    methods: tuple[MethodSpec, ...] = (MethodSpec(ErrorFamily.LAPLACE, "bma"),)
    mcmc: McmcConfig = field(default_factory=lambda: McmcConfig(n_total=8000, n_burn=4000))
    max_order: int = 8
    seed: int = 0
    apply_diff: bool = True
    baseline: str | None = None
    thin: int = 1

    def __post_init__(self) -> None:
        T = len(self.series)
        if self.horizons < 1:
            raise ValueError("horizons must be at least 1")
        if not self.methods:
            raise ValueError("at least one method required")
        names = [m.name for m in self.methods]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate method names: {names}")
        if self.t0 + self.horizons > T:
            raise ValueError(
                f"t0={self.t0} plus horizon {self.horizons} exceeds series length {T}"
            )
        first_window = self.t0 - 1 - (1 if self.apply_diff else 0)
        for m in self.methods:
            order = m.fixed_order if m.order_rule == "fixed" else self.max_order
            check_window(
                first_window - order,
                order,
                f"t0={self.t0} leaves {first_window} usable observations at the first "
                f"origin; method {m.name}: ",
            )
        if self.thin < 1:
            raise ValueError("thin must be at least 1")
        if self.baseline is not None and self.baseline not in names:
            raise ValueError(f"baseline {self.baseline!r} not among methods {names}")

    def baseline_name(self) -> str:
        if self.baseline is not None:
            return self.baseline
        names = [m.name for m in self.methods]
        return "BayesMAR-BMA" if "BayesMAR-BMA" in names else names[0]

    def config_dict(self) -> dict:
        """Scalar configuration echo for self-describing output files."""
        return {
            "t0": self.t0,
            "horizons": self.horizons,
            "methods": [m.name for m in self.methods],
            "n_total": self.mcmc.n_total,
            "n_burn": self.mcmc.n_burn,
            "max_order": self.max_order,
            "seed": self.seed,
            "apply_diff": self.apply_diff,
            "baseline": self.baseline_name(),
            "thin": self.thin,
            "series_length": len(self.series),
        }


@dataclass(frozen=True)
class BacktestReport:
    """Per-origin forecasts and errors plus the aggregated metric table.

    ``errors`` holds truth - forecast; unrealized targets (origins whose
    horizon extends past the end of the series) are NaN and excluded from the
    aggregation, whose per-horizon term counts are in ``counts``.
    """

    methods: tuple[str, ...]
    horizons: tuple[int, ...]
    origins: tuple[int, ...]
    forecasts: np.ndarray
    truths: np.ndarray
    errors: np.ndarray
    crps: np.ndarray
    counts: np.ndarray
    metrics: MetricTable


def _forecast_origin(
    args: tuple[BacktestSpec, int]
) -> tuple[int, dict[str, tuple[np.ndarray, np.ndarray]]]:
    """Forecast every method at one origin; returns level points and CRPS per method."""
    spec, t = args
    values = spec.series.values
    H = spec.horizons
    T = values.size

    out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for family in dict.fromkeys(m.family for m in spec.methods):
        planned = forecast_family(
            TimeSeries(values[:t]),
            [m for m in spec.methods if m.family is family],
            H,
            spec.max_order,
            spec.mcmc,
            (spec.seed, t, _FAMILY_CODE[family]),
            apply_diff=spec.apply_diff,
            thin=spec.thin,
        )
        for m, fc in planned.items():
            crps_row = np.full(H, np.nan)
            for h in range(1, H + 1):
                if t + h <= T:
                    crps_row[h - 1] = crps_sample(fc.paths[:, h - 1], float(values[t + h - 1]))
            out[m.name] = (fc.point.copy(), crps_row)
    return t, out


def run_backtest(spec: BacktestSpec, n_jobs: int = 1) -> BacktestReport:
    """Run the recursive backtest and aggregate RMSE, MAE, and CRPS per horizon."""
    values = spec.series.values
    T = values.size
    origins = list(range(spec.t0 - 1, T))
    results = _run_units(_forecast_origin, [(spec, t) for t in origins], n_jobs)

    H = spec.horizons
    names = tuple(m.name for m in spec.methods)
    n_origins = len(origins)
    forecasts = np.full((len(names), n_origins, H), np.nan)
    crps_vals = np.full((len(names), n_origins, H), np.nan)
    truths = np.full((n_origins, H), np.nan)
    by_origin = dict(results)
    for i, t in enumerate(origins):
        per_method = by_origin[t]
        for h in range(1, H + 1):
            if t + h <= T:
                truths[i, h - 1] = values[t + h - 1]
        for mi, name in enumerate(names):
            points, crps_row = per_method[name]
            forecasts[mi, i] = points
            crps_vals[mi, i] = crps_row

    errors = truths[None, :, :] - forecasts
    realized = ~np.isnan(truths)
    counts = realized.sum(axis=0)

    metric_values = {
        "rmse": np.empty((len(names), H)),
        "mae": np.empty((len(names), H)),
        "crps": np.empty((len(names), H)),
    }
    for mi in range(len(names)):
        for h in range(H):
            errs = errors[mi, realized[:, h], h]
            metric_values["rmse"][mi, h] = rmse(errs)
            metric_values["mae"][mi, h] = mae(errs)
            metric_values["crps"][mi, h] = float(crps_vals[mi, realized[:, h], h].mean())

    table = MetricTable(
        methods=names,
        horizons=tuple(range(1, H + 1)),
        values=metric_values,
        baseline=spec.baseline_name(),
    )
    return BacktestReport(
        methods=names,
        horizons=tuple(range(1, H + 1)),
        origins=tuple(origins),
        forecasts=forecasts,
        truths=truths,
        errors=errors,
        crps=crps_vals,
        counts=counts,
        metrics=table,
    )


def _run_units(worker: Callable, tasks: list, n_jobs: int) -> list:
    """Run independent units serially or in a process pool; order-insensitive.

    The pool never has more workers than units: it forks them all up front.
    """
    if n_jobs <= 1 or len(tasks) <= 1:
        return [worker(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=min(n_jobs, len(tasks))) as pool:
        return list(pool.map(worker, tasks))
