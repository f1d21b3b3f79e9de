"""Predictive path sampling, credible intervals, BMA mixing, and level rebuild.

Each retained posterior draw (beta_i, tau_i) seeds one simulated future path:
the next value is drawn from the error distribution centered at the linear
predictor, appended to the lag window, and the recursion continues to the
requested horizon.  Point forecasts are read off the per-horizon sample
columns, and equal-tailed intervals only when a caller asks for them; mixing
across orders resamples pooled paths with the model weights.

``forecast_family`` is the one planner from a series to its level-scale
forecasts: it checks the plan before any fit, differences the series when
asked, builds the order ensemble once, samples the union of the orders its
methods need, and summarises each method's final BMA, MAP or fixed-order
paths once, on the level scale.  ``fit_and_forecast`` (one method, used by the
CLI) and the backtest call it.  Writing results to files is the CLI's job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ErrorFamily, PosteriorDraws, TimeSeries, as_seed_tuple, diff1
from .mcmc import McmcConfig, run_mh_batch
from .order_select import build_ensemble

__all__ = [
    "ForecastResult",
    "check_plan",
    "sample_paths",
    "point_forecast",
    "credible_interval",
    "result_from_paths",
    "bma_forecast",
    "forecast_levels",
    "per_order_forecasts",
    "MethodSpec",
    "forecast_family",
    "fit_and_forecast",
]

SCALE_DIFFERENCED = "differenced"
SCALE_LEVEL = "level"


@dataclass(frozen=True)
class ForecastResult:
    """Per-horizon point forecasts and their paths; the rest is read from ``paths``."""

    point: np.ndarray
    paths: np.ndarray
    interval_level: float
    scale_note: str

    def __post_init__(self) -> None:
        if self.scale_note not in (SCALE_DIFFERENCED, SCALE_LEVEL):
            raise ValueError(f"unknown scale_note {self.scale_note!r}")
        if self.paths.ndim != 2:
            raise ValueError("paths must be (n_paths, horizons)")
        if self.point.shape != (self.horizons,):
            raise ValueError("point must have one entry per horizon")
        if not 0.0 < self.interval_level < 1.0:
            raise ValueError("level must lie in (0, 1)")

    @property
    def horizons(self) -> int:
        return int(self.paths.shape[1])

    @property
    def n_paths(self) -> int:
        return int(self.paths.shape[0])

    @property
    def intervals(self) -> np.ndarray:
        """Equal-tailed ``interval_level`` interval per horizon, shape (horizons, 2)."""
        return credible_interval(self.paths, self.interval_level)


def check_plan(horizon: int, config: McmcConfig, thin: int, level: float | None = None) -> None:
    """Reject, before any fit, a plan with horizon or thin below 1, a level
    outside (0, 1), or fewer than 2 paths: ceil((n_total - n_burn) / thin) < 2,
    that is n_total - n_burn <= thin.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if thin < 1:
        raise ValueError("thin must be at least 1")
    kept = config.n_total - config.n_burn
    if kept <= thin:
        raise ValueError(f"n_total - n_burn = {kept} at thin={thin} gives 1 path; need at least 2")
    if level is not None and not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")


def sample_paths(
    y: TimeSeries,
    draws: PosteriorDraws,
    horizon: int,
    family: ErrorFamily,
    seed: int | Sequence[int],
    thin: int = 1,
) -> np.ndarray:
    """One simulated future path per retained draw; returns (n_paths, horizon).

    Paths iterate the AR recursion forward from the last observed lags, feeding
    each sampled value back in as a lag.  The noise is the family's
    ``ErrorModel.noise`` with standard scale 2 * tau (Laplace) or sigma
    (Gaussian).  ``thin`` keeps every thin-th draw.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if thin < 1:
        raise ValueError("thin must be at least 1")
    p = draws.order
    if len(y) < p:
        raise ValueError(f"series shorter than order {p}")
    beta = draws.beta_draws[::thin]
    model = family.model
    b = model.noise_per_scale * draws.tau_draws[::thin]
    m = beta.shape[0]
    rng = np.random.default_rng(seed)

    # lags[:, j] holds y_{t-j-1} for the value about to be drawn
    lags = np.tile(y.values[-1 : -p - 1 : -1], (m, 1))
    paths = np.empty((m, horizon))
    for h in range(horizon):
        location = beta[:, 0] + np.einsum("ij,ij->i", beta[:, 1:], lags)
        draws_h = model.noise(rng, location, b)
        paths[:, h] = draws_h
        lags = np.column_stack([draws_h, lags[:, :-1]])
    return paths


def point_forecast(paths: np.ndarray, statistic: str = "mean") -> np.ndarray:
    """Per-horizon summary of the path samples (predictive mean by default)."""
    paths = np.asarray(paths, dtype=float)
    if paths.size == 0:
        raise ValueError("paths must be non-empty")
    if statistic == "mean":
        return paths.mean(axis=0)
    if statistic == "median":
        return np.median(paths, axis=0)
    raise ValueError(f"unknown point statistic {statistic!r}")


def credible_interval(paths: np.ndarray, level: float) -> np.ndarray:
    """Equal-tailed per-horizon interval, linearly interpolated quantiles."""
    paths = np.asarray(paths, dtype=float)
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    if paths.shape[0] < 2:
        raise ValueError("need at least 2 paths for an interval")
    alpha = (1.0 - level) / 2.0
    qs = np.quantile(paths, [alpha, 1.0 - alpha], axis=0, method="linear")
    return qs.T


def result_from_paths(
    paths: np.ndarray,
    interval_level: float,
    scale_note: str,
    statistic: str = "mean",
) -> ForecastResult:
    """Assemble a ForecastResult by summarizing a path matrix."""
    paths = np.asarray(paths, dtype=float)
    return ForecastResult(point_forecast(paths, statistic), paths, interval_level, scale_note)


def bma_forecast(
    per_order_results: Sequence[ForecastResult],
    weights: np.ndarray,
    seed: int | Sequence[int],
) -> ForecastResult:
    """Mix per-order forecasts with model weights.

    The point forecast is the exact weighted sum of the per-order points.  The
    mixture density is represented by resampling the pooled paths: each order
    contributes floor(weight * n_paths) paths deterministically and the
    leftover slots are drawn from the fractional remainders (residual
    resampling), which keeps the mixing noise small.
    """
    if len(per_order_results) == 0:
        raise ValueError("need at least one forecast to mix")
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(per_order_results),):
        raise ValueError("one weight per forecast required")
    if not np.all(np.isfinite(weights) & (weights >= 0)) or abs(float(weights.sum()) - 1.0) > 1e-9:
        raise ValueError("weights must be finite, nonnegative and sum to 1")
    first = per_order_results[0]
    for r in per_order_results[1:]:
        if r.paths.shape != first.paths.shape:
            raise ValueError("forecasts must share horizons and path counts")
        if r.scale_note != first.scale_note or r.interval_level != first.interval_level:
            raise ValueError("forecasts must share scale and interval level")

    point = np.zeros(first.horizons)
    for w, r in zip(weights, per_order_results):
        point += w * r.point

    n_paths = first.n_paths
    raw = weights / weights.sum() * n_paths
    counts = np.floor(raw).astype(int)
    leftover = n_paths - int(counts.sum())
    rng = np.random.default_rng(seed)
    if leftover > 0:
        # the remainders sum to leftover >= 1, up to rounding
        frac = raw - counts
        counts += rng.multinomial(leftover, frac / frac.sum())

    blocks = []
    for count, r in zip(counts, per_order_results):
        if count > 0:
            rows = rng.integers(0, r.n_paths, size=count)
            blocks.append(r.paths[rows])
    return ForecastResult(point, np.vstack(blocks), first.interval_level, first.scale_note)


def forecast_levels(
    diff_result: ForecastResult,
    last_level: float,
    statistic: str = "mean",
) -> ForecastResult:
    """Rebuild level-scale forecasts from change-scale ones.

    Every path is cumulatively summed and shifted by the last observed level;
    points are recomputed from the level paths.
    """
    if diff_result.scale_note != SCALE_DIFFERENCED:
        raise ValueError("input forecast is not on the differenced scale")
    level_paths = last_level + np.cumsum(diff_result.paths, axis=1)
    return result_from_paths(
        level_paths, diff_result.interval_level, SCALE_LEVEL, statistic
    )


def per_order_forecasts(
    y: TimeSeries,
    family: ErrorFamily,
    orders: Sequence[int],
    horizon: int,
    config: McmcConfig,
    interval_level: float,
    scale_note: str,
    seed_base: Sequence[int],
    thin: int = 1,
) -> dict[int, ForecastResult]:
    """Run the sampler and path simulation for each requested order.

    The orders' fits are sampled as one batch (``run_mh_batch``; Laplace
    chains in lockstep).  Each order's point is the mean of its paths.  Seeds
    derive from (seed_base..., order) for the chain and (seed_base..., order, 1)
    for the path noise, so results for one order do not depend on which other
    orders are requested.
    """
    base = tuple(seed_base)
    orders = sorted(set(int(o) for o in orders))
    batch = run_mh_batch([(y, p, base + (p,)) for p in orders], family, config)
    return {
        p: result_from_paths(
            sample_paths(y, draws, horizon, family, seed=base + (p, 1), thin=thin),
            interval_level,
            scale_note,
        )
        for p, draws in zip(orders, batch)
    }


_FAMILY_LABEL = {ErrorFamily.LAPLACE: "BayesMAR", ErrorFamily.GAUSSIAN: "BayesAR"}


@dataclass(frozen=True)
class MethodSpec:
    """One forecaster: an error family plus an order rule.

    ``order_rule`` is "bma" (mix all orders 1..max_order by BIC weight),
    "map" (forecast the minimum-BIC order only), or "fixed" (no selection,
    use ``fixed_order``).  ``fixed_order`` must be None for the other rules.
    """

    family: ErrorFamily
    order_rule: str
    fixed_order: int | None = None

    def __post_init__(self) -> None:
        if self.order_rule not in ("bma", "map", "fixed"):
            raise ValueError(f"unknown order_rule {self.order_rule!r}")
        if self.order_rule == "fixed" and (self.fixed_order is None or self.fixed_order < 1):
            raise ValueError("fixed order rule requires a positive fixed_order")
        if self.order_rule != "fixed" and self.fixed_order is not None:
            raise ValueError(
                f"fixed_order={self.fixed_order} is only read by the fixed order rule, "
                f"not {self.order_rule!r}"
            )

    @property
    def name(self) -> str:
        base = _FAMILY_LABEL[self.family]
        if self.order_rule == "fixed":
            return f"{base}-p{self.fixed_order}"
        return f"{base}-{self.order_rule.upper()}"


def forecast_family(
    y: TimeSeries,
    methods: Sequence[MethodSpec],
    horizon: int,
    max_order: int,
    config: McmcConfig,
    seed_base: tuple[int, ...],
    interval_level: float = 0.95,
    apply_diff: bool = False,
    statistic: str = "mean",
    thin: int = 1,
) -> dict[MethodSpec, ForecastResult]:
    """Forecast the series ``y`` with methods that share one error family.

    ``check_plan`` runs before any fit.  With ``apply_diff`` the methods model
    the lag-1 changes of ``y`` and each forecast is rebuilt on the level scale
    from the last observed value.  The order ensemble is built once if any
    method selects orders, and ``per_order_forecasts`` runs once over the union
    of the orders the methods need, seeded from ``seed_base``.  BMA mixes
    orders 1..max_order by their weights with seed (seed_base..., 0, 2), MAP
    takes the minimum-BIC order, and a fixed rule its own order.  Each method's
    point is the ``statistic`` of its own final paths.
    """
    check_plan(horizon, config, thin, interval_level)
    if not methods:
        raise ValueError("at least one method required")
    family = methods[0].family
    if any(m.family is not family for m in methods):
        raise ValueError("forecast_family needs methods of one error family")
    work = diff1(y) if apply_diff else y
    scale_note = SCALE_DIFFERENCED if apply_diff else SCALE_LEVEL
    ensemble = None
    orders = {m.fixed_order for m in methods if m.order_rule == "fixed"}
    if any(m.order_rule != "fixed" for m in methods):
        ensemble = build_ensemble(work, max_order, family)
        if any(m.order_rule == "bma" for m in methods):
            orders.update(range(1, max_order + 1))
        else:
            orders.add(ensemble.map_order)
    by_order = per_order_forecasts(
        work, family, orders, horizon, config, interval_level, scale_note, seed_base, thin=thin
    )
    planned: dict[MethodSpec, ForecastResult] = {}
    for m in methods:
        if m.order_rule == "bma":
            result = bma_forecast(
                [by_order[p] for p in range(1, max_order + 1)],
                ensemble.weights,
                seed=seed_base + (0, 2),
            )
        elif m.order_rule == "map":
            result = by_order[ensemble.map_order]
        else:
            result = by_order[m.fixed_order]
        planned[m] = (
            forecast_levels(result, float(y.values[-1]), statistic)
            if apply_diff
            else result_from_paths(result.paths, interval_level, scale_note, statistic)
        )
    return planned


def fit_and_forecast(
    y: TimeSeries,
    family: ErrorFamily,
    horizon: int,
    order_rule: str,
    max_order: int,
    config: McmcConfig,
    interval_level: float = 0.95,
    fixed_order: int | None = None,
    apply_diff: bool = False,
    statistic: str = "mean",
    thin: int = 1,
) -> ForecastResult:
    """Order selection plus forecasting for a single series and one method.

    ``order_rule`` and ``fixed_order`` are those of ``MethodSpec``; seeds
    derive from ``config.seed``.
    """
    method = MethodSpec(family, order_rule, fixed_order)
    return forecast_family(
        y, [method], horizon, max_order, config, as_seed_tuple(config.seed),
        interval_level, apply_diff, statistic, thin,
    )[method]

