"""Experimental protocols: simulation studies and recursive backtesting.

The simulation study generates AR(2) data with Gaussian or Laplace noise,
re-estimates the coefficients by several fitters over many replications, and
reports per-coefficient mean squared errors with their standard errors.  The
order study repeats the generation and records the BIC-selected order.

The backtest walks a series of levels forward one period at a time: at each
origin t it forecasts from the history up to t, seeded with (seed, t, family
code), modelling the lag-1 changes unless differencing is off, and scores the
point and density forecasts against the realized values.  The origins, and
the MSE study's replications, go in contiguous units of at most 32, at least
one per job (``_units``); a unit hands its histories to ``forecast_family``
(one call per error family), or its replications to ``run_mh_batch``.  All
randomness derives from one master seed via per-fit seed tuples, so runs are
reproducible and independent of evaluation order, of the units and of the
batches.  A numeric or configuration failure inside a unit is re-raised
with its type, its message prefixed by the unit's origins or replications,
error family and seed base.  The reports hold arrays only; the CLI turns them
into tables.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Iterator, Sequence

import numpy as np

from .core import Coefficients, ErrorFamily, TimeSeries, check_window
from .forecast import MethodSpec, check_plan, forecast_family
from .mcmc import McmcConfig, posterior_mean, run_mh_batch
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
    rng = np.random.default_rng(seed)
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


_UNIT_ITEMS = 32  # most items in one unit (``_units``)


def _units(n_items: int, n_jobs: int) -> list[range]:
    """Near-equal contiguous runs of items (replications or backtest origins),
    the longer first.  There are at least min(n_jobs, n_items), which a pool
    hands out as workers free up, each of at most ``_UNIT_ITEMS`` items: a unit
    holds its items' plans and set-ups until its last batch samples, and a
    failure names its span.  No result depends on the batches or the units.
    """
    k = max(1, min(n_items, max(n_jobs, -(-n_items // _UNIT_ITEMS))))
    return [range(-(-n_items * i // k), -(-n_items * (i + 1) // k)) for i in range(k)]


def _mse_replications(args: tuple[SimStudyConfig, range]):
    """One (BayesMAR, QAR, AR, acceptance rate) row per replication."""
    config, reps = args
    p = config.true_beta.order
    series = [_replication_series(config, i) for i in reps]
    fits = [(y, p, (config.seed, i, 1)) for y, i in zip(series, reps)]
    # the draws stream, so a chain that fails in any batch is named here
    with _naming(f"MSE study replications {_span(reps)}, laplace chains seeded ({config.seed}, i, 1)"):
        draws = run_mh_batch(fits, ErrorFamily.LAPLACE, config.mcmc)
        bayes = [(posterior_mean(d).beta, d.acceptance_rate) for d in draws]
    return [
        (mean, fit_l1(y, p, start=p + 1).coeff.beta, fit_ols(y, p, start=p + 1).coeff.beta, rate)
        for y, (mean, rate) in zip(series, bayes)
    ]


def run_mse_study(config: SimStudyConfig, n_jobs: int = 1) -> MseStudyReport:
    """Replicate simulation + estimation and summarize squared-error losses.

    Methods: "BayesMAR" (posterior mean at the true order), "QAR" (the L1
    point fit, which at the median is the same estimator quantile regression
    uses), "AR" (Gaussian least squares).  Each unit's replications (``_units``)
    stream their BayesMAR chains through one ``run_mh_batch``; rows stack in order.
    """
    tasks = [(config, reps) for reps in _units(config.replications, n_jobs)]
    rows = [row for unit in _run_units(_mse_replications, tasks, n_jobs) for row in unit]
    *estimates, acceptance = (np.array(column) for column in zip(*rows))
    return MseStudyReport(dict(zip(MseStudyReport.methods, estimates)), acceptance)


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


def _order_replication(args: tuple[SimStudyConfig, int]) -> int:
    config, i = args
    series = _replication_series(config, i)
    with _naming(f"order study replication {i}, laplace series seeded ({config.seed}, {i})"):
        return build_ensemble(series, config.max_order, ErrorFamily.LAPLACE).map_order


def run_order_study(config: SimStudyConfig, n_jobs: int = 1) -> OrderStudyReport:
    """Record the Laplace-BIC-selected order for each simulated replication."""
    tasks = [(config, i) for i in range(config.replications)]
    map_orders = _run_units(_order_replication, tasks, n_jobs)
    return OrderStudyReport(np.array(map_orders), config.max_order)


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


def _forecast_unit(args: tuple[BacktestSpec, range]) -> tuple[np.ndarray, np.ndarray]:
    """Level points and CRPS of every method at each origin of a unit, each
    (methods, origins, horizons) in ``spec.methods`` order; a target past the
    end of the series has NaN CRPS.  Each family's fits at all the unit's
    origins go through one ``forecast_family`` call.
    """
    spec, origins = args
    values = spec.series.values
    points = np.empty((len(spec.methods), len(origins), spec.horizons))
    crps = np.full(points.shape, np.nan)
    for family in dict.fromkeys(m.family for m in spec.methods):
        code = _FAMILY_CODE[family]
        windows = [(TimeSeries(values[:t]), (spec.seed, t, code)) for t in origins]
        methods = [m for m in spec.methods if m.family is family]
        # the results stream: a failure in any batch is named here, and none outlive the loop
        with _naming(f"backtest origins {_span(origins)}, {family.value} fits seeded ({spec.seed}, t, {code})"):
            results = forecast_family(
                windows, methods, spec.horizons, spec.max_order, spec.mcmc, apply_diff=spec.apply_diff, thin=spec.thin
            )
            for i, (t, by_method) in enumerate(zip(origins, results)):
                for m, result in by_method.items():
                    mi = spec.methods.index(m)
                    points[mi, i] = result.point
                    for h, truth in enumerate(values[t : t + spec.horizons].tolist()):
                        crps[mi, i, h] = crps_sample(result.paths[:, h], truth)
    return points, crps


def run_backtest(spec: BacktestSpec, n_jobs: int = 1) -> BacktestReport:
    """Run the recursive backtest; the report aggregates RMSE, MAE, and CRPS per horizon.

    The origins are split into contiguous units (``_units``), and each
    unit's points and CRPS are stacked in origin order.
    """
    values = spec.series.values
    origins = range(spec.t0 - 1, values.size)
    units = _units(len(origins), n_jobs)
    tasks = [(spec, origins[u.start : u.stop]) for u in units]
    points, crps = zip(*_run_units(_forecast_unit, tasks, n_jobs))
    padded = np.append(values, np.full(spec.horizons, np.nan))
    truths = np.array([padded[t : t + spec.horizons] for t in origins])
    return BacktestReport(
        methods=tuple(m.name for m in spec.methods),
        origins=tuple(origins),
        forecasts=np.concatenate(points, axis=1),
        truths=truths,
        crps=np.concatenate(crps, axis=1),
        baseline=spec.baseline_name(),
    )


def _span(items: Sequence[int]) -> str:
    """``items`` (contiguous) as "a..b", or "a" for one."""
    return f"{items[0]}..{items[-1]}" if len(items) > 1 else f"{items[0]}"


@contextmanager
def _naming(unit: str) -> Iterator[None]:
    """Re-raise a numeric or configuration failure inside a unit with ``unit``
    before its message; the type is kept, so the CLI's exit code is too."""
    try:
        yield
    except (np.linalg.LinAlgError, RuntimeError, ValueError) as exc:
        raise type(exc)(f"{unit}: {exc}") from exc


def _run_units(worker: Callable, tasks: list, n_jobs: int) -> list:
    """Run independent units serially or in a process pool; results come back in task order.

    The pool never has more workers than units: it forks them all up front.
    """
    if n_jobs <= 1 or len(tasks) <= 1:
        return [worker(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=min(n_jobs, len(tasks))) as pool:
        return list(pool.map(worker, tasks))
