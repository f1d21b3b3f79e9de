"""The four seeded workloads: input generators, the public call each job makes,
per-unit output checks, and the quality each job is scored by.

A job is one call into the program: one ``run_backtest``, one study call, or
one ``bayesmar forecast`` child process.  It covers one or more units
(origins, replications or calls).  Job ``i`` of a run draws its inputs from
``(seed, i)`` alone, so a run's first jobs are the same on any machine.

Every workload reports ``error_ratio`` over its first ``quality_jobs`` jobs:
the program's error divided by a reference error on the same inputs, lower is
better.  It is deterministic for a given seed, so a speed-up bought by
sampling less shows up as a loss.
- forecasts (backtest, cli_forecast): the expected squared error of the
  BayesMAR-BMA point forecast under the true model, over that of the true
  conditional mean, i.e. 1 + sum (point - mean)^2 / sum var.  Taking the
  expectation over the future instead of scoring one realized value keeps the
  ratio steady from seed to seed;
- order_study: replications per correct order selection (1 / accuracy);
- mse_study: the BayesMAR coefficient squared error over that of the exact
  L1 fit (QAR) on the same replications.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bayesmar import (
    BacktestSpec,
    Coefficients,
    ErrorFamily,
    McmcConfig,
    MethodSpec,
    SimStudyConfig,
    TimeSeries,
    simulate_series,
)
# Called through the module, so that the traced run's rebinding reaches them.
from bayesmar import harness

__all__ = ["WORKLOADS", "JobResult", "make", "warm_up", "set_up"]

# Lag-1 changes of the level series follow a Laplace AR(2).  A few additive
# outliers go into the fitting history, never near the forecast origins, so
# robustness matters for the fits while the true predictive stays exact.
CHANGE_BETA = (0.02, 0.5, -0.3)
CHANGE_SCALE = 0.25
START_LEVEL = 5.0
N_OUTLIERS = 3
OUTLIER_SIZE = 12.0 * CHANGE_SCALE

# The CLI's default backtest methods (`bayesmar backtest --methods`).
DEFAULT_METHODS = (
    MethodSpec(ErrorFamily.LAPLACE, "bma"),
    MethodSpec(ErrorFamily.LAPLACE, "map"),
    MethodSpec(ErrorFamily.GAUSSIAN, "bma"),
    MethodSpec(ErrorFamily.GAUSSIAN, "map"),
)


@dataclass
class JobResult:
    """What one job did: units attempted and failed, and its quality sums.

    ``error_ratio`` is sum(error) / sum(reference) over the quality jobs; the
    workload's ``quality_name`` figure is sum(score) / sum(scored).
    """

    attempted: int
    failed: int
    error: float = 0.0
    reference: float = 0.0
    score: float = 0.0
    scored: int = 0
    notes: list[str] = field(default_factory=list)


def level_series(seed: int, job: int, length: int, clean_tail: int) -> np.ndarray:
    """Seeded level series; the last ``clean_tail`` changes carry no outlier."""
    changes = simulate_series(
        Coefficients.from_values(CHANGE_BETA),
        ErrorFamily.LAPLACE,
        length - 1,
        burn=200,
        seed=(seed, job),
        scale=CHANGE_SCALE,
    ).values.copy()
    rng = np.random.default_rng((seed, job, 1))
    at = rng.choice(length - 1 - clean_tail, size=N_OUTLIERS, replace=False)
    changes[at] += rng.choice([-1.0, 1.0], size=N_OUTLIERS) * OUTLIER_SIZE
    return START_LEVEL + np.concatenate([[0.0], np.cumsum(changes)])


def true_moments(levels: np.ndarray, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of the next ``horizon`` levels under the true change model.

    The level error h steps ahead is sum_j eps_j * (psi_0 + ... + psi_{h-j}),
    with psi the AR(2) impulse response and Var(eps) = 2 scale^2 (Laplace).
    """
    b0, b1, b2 = CHANGE_BETA
    psi = [1.0, b1]
    while len(psi) < horizon:
        psi.append(b1 * psi[-1] + b2 * psi[-2])
    cum_psi = np.cumsum(psi[:horizon])
    lag1, lag2 = levels[-1] - levels[-2], levels[-2] - levels[-3]
    level = float(levels[-1])
    mean = np.empty(horizon)
    var = np.empty(horizon)
    for h in range(horizon):
        change = b0 + b1 * lag1 + b2 * lag2
        lag1, lag2 = change, lag1
        level += change
        mean[h] = level
        var[h] = 2.0 * CHANGE_SCALE**2 * float(np.sum(cum_psi[: h + 1] ** 2))
    return mean, var


def point_error(point: np.ndarray, levels: np.ndarray) -> tuple[float, float]:
    """(expected squared error of ``point``, that of the true mean), summed over horizons."""
    mean, var = true_moments(levels, len(point))
    return float(np.sum((point - mean) ** 2 + var)), float(np.sum(var))


def interval_score(lower: float, upper: float, observed: float, level: float) -> float:
    """Gneiting-Raftery interval score of a central ``level`` interval."""
    alpha = 1.0 - level
    score = upper - lower
    if observed < lower:
        score += 2.0 / alpha * (lower - observed)
    elif observed > upper:
        score += 2.0 / alpha * (observed - upper)
    return score


class Backtest:
    """``run_backtest`` with the CLI's four default methods on lag-1 changes."""

    name = "backtest"
    unit = "origins"
    in_process = True
    quality_name = "forecast_crps"  # mean CRPS of BayesMAR-BMA over realized cells

    def __init__(self, history: int = 100, max_order: int = 8, horizons: int = 4,
                 n_total: int = 8000, n_burn: int = 4000, quality_jobs: int = 3):
        self.history = history
        self.max_order = max_order
        self.horizons = horizons
        self.mcmc = McmcConfig(n_total=n_total, n_burn=n_burn)
        self.quality_jobs = quality_jobs
        # t0 = T - H leaves the fewest origins the protocol allows: H + 1.
        self.units_per_job = horizons + 1

    def make_input(self, seed: int, job: int) -> BacktestSpec:
        length = self.history + self.horizons + 1
        return BacktestSpec(
            series=TimeSeries(level_series(seed, job, length, clean_tail=self.horizons + 3)),
            t0=length - self.horizons,
            horizons=self.horizons,
            methods=DEFAULT_METHODS,
            mcmc=self.mcmc,
            max_order=self.max_order,
            seed=seed * 1000 + job,
        )

    def run(self, spec: BacktestSpec):
        return harness.run_backtest(spec, n_jobs=1)

    def check(self, spec: BacktestSpec, report, seed: int, job: int) -> JobResult:
        values = spec.series.values
        T = values.size
        H = spec.horizons
        origins = list(range(spec.t0 - 1, T))
        result = JobResult(attempted=len(origins), failed=0)
        expected_counts = [sum(1 for t in origins if t + h <= T) for h in range(1, H + 1)]
        if list(report.origins) != origins or report.counts.tolist() != expected_counts:
            result.failed = len(origins)
            result.notes.append(f"horizon counts {report.counts.tolist()} != {expected_counts}")
            return result
        bma = report.methods.index("BayesMAR-BMA")
        for i, t in enumerate(origins):
            realized = np.array([t + h <= T for h in range(1, H + 1)])
            truths = report.truths[i]
            crps = report.crps[:, i, :]
            ok = (
                bool(np.all(np.isfinite(report.forecasts[:, i, :])))
                and np.array_equal(truths[realized], values[t : t + realized.sum()])
                and bool(np.all(np.isnan(truths[~realized])))
                and bool(np.all(np.isfinite(crps[:, realized])) and np.all(crps[:, realized] >= 0.0))
            )
            if not ok:
                result.failed += 1
                result.notes.append(f"backtest origin {t}: non-finite, negative or misplaced output")
                continue
            error, reference = point_error(report.forecasts[bma, i], values[:t])
            result.error += error
            result.reference += reference
            result.score += float(crps[bma, realized].sum())
            result.scored += int(realized.sum())
        return result


class _Study:
    unit = "replications"
    in_process = True

    def __init__(self, reps_per_job: int = 5, quality_jobs: int = 8, **config):
        self.reps_per_job = reps_per_job
        self.units_per_job = reps_per_job
        self.quality_jobs = quality_jobs
        self.config = config

    def make_input(self, seed: int, job: int) -> SimStudyConfig:
        return SimStudyConfig(replications=self.reps_per_job, seed=seed * 1000 + job, **self.config)


class OrderStudy(_Study):
    """``run_order_study`` with the default ``SimStudyConfig`` (T=200, K=20, Laplace BIC)."""

    name = "order_study"
    quality_name = "order_accuracy"

    def run(self, config: SimStudyConfig):
        return harness.run_order_study(config, n_jobs=1)

    def check(self, config: SimStudyConfig, report, seed: int, job: int) -> JobResult:
        reps = config.replications
        result = JobResult(attempted=reps, failed=0)
        orders = np.asarray(report.map_orders)
        if orders.shape != (reps,) or int(np.sum(report.counts)) != reps:
            result.failed = reps
            result.notes.append(f"order counts sum to {int(np.sum(report.counts))}, not {reps}")
            return result
        bad = (orders < 1) | (orders > config.max_order)
        result.failed = int(bad.sum())
        if result.failed:
            result.notes.append(f"MAP orders outside 1..{config.max_order}: {orders[bad].tolist()}")
        correct = float(np.sum(orders == config.true_beta.order))
        result.error, result.reference = float(reps), correct
        result.score, result.scored = correct, reps
        return result


class MseStudy(_Study):
    """``run_mse_study`` with the default BayesMAR/QAR/AR methods and 40000/25000 draws."""

    name = "mse_study"
    quality_name = "coef_mse_x100"  # BayesMAR squared error x100, mean over coefficients

    def run(self, config: SimStudyConfig):
        return harness.run_mse_study(config, n_jobs=1)

    def check(self, config: SimStudyConfig, report, seed: int, job: int) -> JobResult:
        reps = config.replications
        true = config.true_beta.beta
        result = JobResult(attempted=reps, failed=0)
        finite = np.ones(reps, dtype=bool)
        for method in ("BayesMAR", "QAR", "AR"):
            est = np.asarray(report.estimates[method])
            if est.shape != (reps, true.size):
                result.failed = reps
                result.notes.append(f"{method} estimates have shape {est.shape}")
                return result
            finite &= np.all(np.isfinite(est), axis=1)
        result.failed = int((~finite).sum())
        if result.failed:
            result.notes.append(f"{result.failed} replications with non-finite estimates")
            return result
        bayes = float(np.sum((report.estimates["BayesMAR"] - true) ** 2))
        result.error = bayes
        result.reference = float(np.sum((report.estimates["QAR"] - true) ** 2))
        result.score, result.scored = 100.0 * bayes, reps * true.size
        return result


@dataclass(frozen=True)
class CliJob:
    csv_path: Path
    out_dir: Path
    levels: np.ndarray
    future: np.ndarray


class CliForecast:
    """``bayesmar forecast`` with default flags, one fresh child process per call."""

    name = "cli_forecast"
    unit = "calls"
    in_process = False
    quality_name = "interval_score"  # mean 95% interval score over horizons
    level = 0.95
    units_per_job = 1

    def __init__(self, workdir: str | Path, history: int = 100, horizons: int = 4,
                 quality_jobs: int = 5, extra_args: tuple[str, ...] = ()):
        self.workdir = Path(workdir)
        self.history = history
        self.horizons = horizons
        self.quality_jobs = quality_jobs
        self.extra_args = tuple(extra_args)
        # `python -m bayesmar.cli` runs nothing and the package is not installed.
        self.child_env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))

    def make_input(self, seed: int, job: int) -> CliJob:
        values = level_series(seed, job, self.history + self.horizons, clean_tail=self.horizons + 3)
        levels, future = values[: self.history], values[self.history :]
        job_dir = Path(tempfile.mkdtemp(prefix=f"cli{job}-", dir=self.workdir))
        csv_path = job_dir / "series.csv"
        rows = ["period,value"] + [f"{t + 1},{float(v)!r}" for t, v in enumerate(levels)]
        csv_path.write_text("\n".join(rows) + "\n")
        return CliJob(csv_path, job_dir / "out", levels, future)

    def run(self, job: CliJob, span_file: Path | None = None) -> subprocess.CompletedProcess:
        """One child process; with ``span_file`` it runs under the layer tracer."""
        args = ["forecast", "--input", str(job.csv_path), "--out", str(job.out_dir), *self.extra_args]
        if span_file is None:
            head = ["-c", "from bayesmar.cli import entrypoint; entrypoint()"]
        else:
            head = [str(Path(__file__).with_name("tracing.py")), str(span_file)]
        return subprocess.run(
            [sys.executable, *head, *args],
            env=self.child_env,
            capture_output=True,
            text=True,
            timeout=120,
        )

    def check(self, job: CliJob, proc: subprocess.CompletedProcess, seed: int, i: int) -> JobResult:
        result = JobResult(attempted=1, failed=1)
        if proc.returncode != 0:
            result.notes.append(f"cli exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return result
        try:
            records = json.loads((job.out_dir / "forecast.json").read_text())["horizons"]
            ok = [r["horizon"] for r in records] == list(range(1, self.horizons + 1))
            bounds = [(r["lower"], r["point"], r["upper"]) for r in records]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            result.notes.append(f"cli forecast.json unreadable: {exc!r}")
            return result
        ok = ok and all(
            all(isinstance(v, float) and math.isfinite(v) for v in b) and b[0] <= b[1] <= b[2]
            for b in bounds
        )
        if not ok:
            result.notes.append(f"cli forecast records malformed: {records!r}"[:300])
            return result
        result.failed = 0
        lower, point, upper = (np.array(col) for col in zip(*bounds))
        result.error, result.reference = point_error(point, job.levels)
        result.score = sum(
            interval_score(lo, hi, y, self.level) for lo, hi, y in zip(lower, upper, job.future)
        )
        result.scored = self.horizons
        return result


WORKLOADS = {
    "backtest": Backtest,
    "order_study": OrderStudy,
    "mse_study": MseStudy,
    "cli_forecast": CliForecast,
}

# Constructor arguments of a tiny job per workload, for the warm-up before
# timing and for the smoke check.
TINY = {
    "backtest": dict(history=30, max_order=2, n_total=400, n_burn=200, quality_jobs=1),
    "order_study": dict(reps_per_job=2, quality_jobs=1, max_order=4),
    "mse_study": dict(
        reps_per_job=2, quality_jobs=1, series_length=60, mcmc=McmcConfig(n_total=400, n_burn=200)
    ),
    "cli_forecast": dict(
        history=30, quality_jobs=1, extra_args=("--k", "2", "--n-total", "400", "--n-burn", "200")
    ),
}


def make(name: str, workdir: str | Path, tiny: bool = False):
    """The workload ``name`` at full size, or at its ``TINY`` size."""
    cls = WORKLOADS[name]
    kwargs = dict(TINY[name]) if tiny else {}
    if cls is CliForecast:
        kwargs["workdir"] = workdir
    return cls(**kwargs)


def warm_up(name: str, workdir: str | Path, seed: int) -> None:
    """Run one tiny in-process job, so lazy imports and first calls are paid before timing."""
    tiny = make(name, workdir, tiny=True)
    if tiny.in_process:
        tiny.run(tiny.make_input(seed, 0))


def set_up(name: str, seed: int, workdir: str | Path) -> None:
    """A run's set-up after the package import: first inputs, then the warm-up."""
    make(name, workdir).make_input(seed, 0)
    warm_up(name, workdir, seed)
