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
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Sequence

import numpy as np

from .core import (
    Coefficients,
    ErrorFamily,
    TimeSeries,
    as_seed_tuple,
    check_window,
)
from .forecast import MethodSpec, check_plan, forecast_family
from .mcmc import McmcConfig, chain_bytes, posterior_mean, run_mh_batch
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

# Bytes of chain state (``mcmc.chain_bytes``) one unit of MSE replications may
# hold: 17 default chains (T=200, p=2, 40000 iterations) of about 2 MB each.
_CHAIN_BYTE_BUDGET = 32 * 2**20

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
    """Each method's estimates of ``true_beta``, one row per replication, and
    each BayesMAR chain's acceptance rate; ``mse`` and ``se`` are read from them
    per coefficient (``se`` is zero at one replication).
    """

    methods: ClassVar[tuple[str, ...]] = ("BayesMAR", "QAR", "AR")
    true_beta: ClassVar[np.ndarray] = SimStudyConfig.true_beta.beta
    estimates: dict[str, np.ndarray]
    acceptance_rates: np.ndarray

    def _sq_errors(self, method: str) -> np.ndarray:
        return (self.estimates[method] - self.true_beta[None, :]) ** 2

    @property
    def mse(self) -> dict[str, np.ndarray]:
        return {m: self._sq_errors(m).mean(axis=0) for m in self.methods}

    @property
    def se(self) -> dict[str, np.ndarray]:
        reps = self.acceptance_rates.size
        if reps < 2:
            return {m: np.zeros(self.true_beta.size) for m in self.methods}
        return {m: self._sq_errors(m).std(axis=0, ddof=1) / np.sqrt(reps) for m in self.methods}


def _mse_units(config: SimStudyConfig, n_jobs: int) -> list[range]:
    """Contiguous runs of replications, each sampled as one lockstep batch.

    A run holds as many chains as fit in ``_CHAIN_BYTE_BUDGET``, and the study
    is split at least ``n_jobs`` ways.  Every replication's chain has the same
    (n, p), so no chain is padded and the estimates do not depend on the split.
    """
    reps = config.replications
    p = config.true_beta.order
    per_chain = chain_bytes(config.series_length - p, p, config.mcmc)
    size = max(1, min(_CHAIN_BYTE_BUDGET // per_chain, -(-reps // max(n_jobs, 1))))
    return [range(i, min(i + size, reps)) for i in range(0, reps, size)]


def _mse_replications(args: tuple[SimStudyConfig, range]):
    config, reps = args
    p = config.true_beta.order
    series = [_replication_series(config, i) for i in reps]
    fits = [(y, p, (config.seed, i, 1)) for y, i in zip(series, reps)]
    draws = run_mh_batch(fits, ErrorFamily.LAPLACE, config.mcmc)
    return [
        (
            i,
            {
                "BayesMAR": posterior_mean(d).beta,
                "QAR": fit_l1(y, p, start=p + 1).coeff.beta,
                "AR": fit_ols(y, p, start=p + 1).coeff.beta,
            },
            d.acceptance_rate,
        )
        for i, y, d in zip(reps, series, draws)
    ]


def run_mse_study(config: SimStudyConfig, n_jobs: int = 1) -> MseStudyReport:
    """Replicate simulation + estimation and summarize squared-error losses.

    Methods: "BayesMAR" (posterior mean at the true order), "QAR" (the L1
    point fit, which at the median is the same estimator quantile regression
    uses), "AR" (Gaussian least squares).  The BayesMAR chains of a unit of
    replications (``_mse_units``) run in lockstep.
    """
    methods = MseStudyReport.methods
    tasks = [(config, reps) for reps in _mse_units(config, n_jobs)]
    results = _run_units(_mse_replications, tasks, n_jobs)

    reps = config.replications
    n_coef = config.true_beta.order + 1
    estimates = {m: np.empty((reps, n_coef)) for m in methods}
    acceptance = np.empty(reps)
    for i, est, acc in (row for unit in results for row in unit):
        for m in methods:
            estimates[m][i] = est[m]
        acceptance[i] = acc
    return MseStudyReport(estimates, acceptance)


@dataclass(frozen=True)
class OrderStudyReport:
    """Each replication's BIC-selected order out of 1..``max_order``; ``counts[p]``
    replications chose order p, and ``accuracy`` is the share that chose ``true_order``.
    """

    true_order: ClassVar[int] = SimStudyConfig.true_beta.order
    map_orders: np.ndarray
    max_order: int

    @property
    def counts(self) -> np.ndarray:
        return np.bincount(self.map_orders, minlength=self.max_order + 1)

    @property
    def accuracy(self) -> float:
        return float(self.counts[self.true_order]) / self.map_orders.size


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
    return OrderStudyReport(map_orders, config.max_order)


_FAMILY_CODE = {ErrorFamily.LAPLACE: 0, ErrorFamily.GAUSSIAN: 1}


@dataclass(frozen=True)
class BacktestSpec:
    """Recursive out-of-sample forecasting protocol on a series of levels.

    ``t0`` is the 1-based index of the first forecast target: origins run from
    t0 - 1 to T - 1 and the fit at origin t sees y_1..y_t only.  The chains
    at origin t are seeded from (seed, t, family code); ``mcmc.seed`` is not
    read.  Scoring reads points and paths only, so there is no interval level.
    A plan that ``check_plan`` rejects, or a first origin too short for a
    method (``check_window``), fails here, before any chain runs.
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
        check_plan(self.horizons, self.mcmc, self.thin)
        if not self.methods:
            raise ValueError("at least one method required")
        names = [m.name for m in self.methods]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate method names: {names}")
        if self.t0 + self.horizons - 1 > T:
            raise ValueError(
                f"t0={self.t0} with horizon {self.horizons}: the first origin {self.t0 - 1} "
                f"lacks its last target {self.t0 - 1 + self.horizons} (series length {T})"
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
    """Level forecasts and CRPS (methods, origins, horizons) with truths (origins, horizons).

    Unrealized targets (past the end of the series) are NaN.  ``errors`` is truth
    minus forecast, ``counts`` the realized targets per horizon, and ``metrics``
    their RMSE, MAE and mean CRPS, with changes relative to ``baseline``.
    """

    methods: tuple[str, ...]
    origins: tuple[int, ...]
    forecasts: np.ndarray
    truths: np.ndarray
    crps: np.ndarray
    baseline: str

    @property
    def horizons(self) -> tuple[int, ...]:
        return tuple(range(1, self.truths.shape[1] + 1))

    @property
    def errors(self) -> np.ndarray:
        return self.truths[None, :, :] - self.forecasts

    @property
    def counts(self) -> np.ndarray:
        return (~np.isnan(self.truths)).sum(axis=0)

    @property
    def metrics(self) -> MetricTable:
        errors, realized = self.errors, ~np.isnan(self.truths)
        shape = (len(self.methods), len(self.horizons))
        values = {"rmse": np.empty(shape), "mae": np.empty(shape), "crps": np.empty(shape)}
        for mi, h in np.ndindex(shape):
            errs = errors[mi, realized[:, h], h]
            values["rmse"][mi, h] = rmse(errs)
            values["mae"][mi, h] = mae(errs)
            values["crps"][mi, h] = float(self.crps[mi, realized[:, h], h].mean())
        return MetricTable(self.methods, self.horizons, values, self.baseline)


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
    """Run the recursive backtest; the report aggregates RMSE, MAE, and CRPS per horizon."""
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

    return BacktestReport(
        methods=names,
        origins=tuple(origins),
        forecasts=forecasts,
        truths=truths,
        crps=crps_vals,
        baseline=spec.baseline_name(),
    )


def _run_units(worker: Callable, tasks: list, n_jobs: int) -> list:
    """Run independent units serially or in a process pool; order-insensitive.

    The pool never has more workers than units: it forks them all up front.
    """
    if n_jobs <= 1 or len(tasks) <= 1:
        return [worker(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=min(n_jobs, len(tasks))) as pool:
        return list(pool.map(worker, tasks))
