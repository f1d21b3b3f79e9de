"""Predictive path sampling, credible intervals, BMA mixing, and level rebuild.

Each retained posterior draw (beta_i, tau_i) seeds one simulated future path:
the next value is drawn from the error distribution centered at the linear
predictor, appended to the lag window, and the recursion continues to the
requested horizon.  A forecast is its paths and a statistic: the point (the
per-horizon mean or median) and equal-tailed intervals are read from the paths
when asked for, and a BMA mixture resamples the orders' pooled paths.

``forecast_family`` is the one planner from series to their level-scale
forecasts and the one place where forecasts are sampled.  It checks the plan
before any fit, differences each series when asked, and builds each window's
order ensemble once.  A BMA mixture's rows per order are then planned from
the ensemble's weights alone, with seed (seed_base..., 0, 2), so an order
that contributes no rows is never sampled.  One ``run_mh_batch`` call samples
every window's remaining fits: order p's chain from seed (seed_base..., p).
Each fit's paths then come from seed (seed_base..., p, 1), and its draws are
dropped as soon as its paths exist.  ``fit_and_forecast`` (one method, used
by the CLI) passes one window, the backtest passes a unit's windows, and
``per_order_forecasts`` is a fixed-order plan over one window.  Writing
results to files is the CLI's job.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from .core import ErrorFamily, PosteriorDraws, TimeSeries, as_seed_tuple, binary_scale, diff1, unscale
from .mcmc import McmcConfig, run_mh_batch
from .order_select import build_ensemble

__all__ = [
    "ForecastResult",
    "check_plan",
    "sample_paths",
    "point_forecast",
    "credible_interval",
    "bma_forecast",
    "forecast_levels",
    "per_order_forecasts",
    "MethodSpec",
    "forecast_family",
    "fit_and_forecast",
]

SCALE_DIFFERENCED = "differenced"
SCALE_LEVEL = "level"
POINT_STATISTICS = {"mean": np.mean, "median": np.median}


@dataclass(frozen=True)
class ForecastResult:
    """Predictive paths and a point statistic; the point and the intervals are read from them."""

    paths: np.ndarray
    interval_level: float
    scale_note: str
    statistic: str = "mean"

    def __post_init__(self) -> None:
        if self.scale_note not in (SCALE_DIFFERENCED, SCALE_LEVEL):
            raise ValueError(f"unknown scale_note {self.scale_note!r}")
        if self.paths.ndim != 2 or self.paths.size == 0:
            raise ValueError("paths must be a non-empty (n_paths, horizons) array")
        if not 0.0 < self.interval_level < 1.0:
            raise ValueError("level must lie in (0, 1)")
        if self.statistic not in POINT_STATISTICS:
            raise ValueError(f"unknown point statistic {self.statistic!r}")

    @property
    def point(self) -> np.ndarray:
        """Per-horizon ``statistic`` of the paths."""
        return point_forecast(self.paths, self.statistic)

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


def check_plan(
    horizon: int, config: McmcConfig, thin: int, level: float | None = None, statistic: str = "mean"
) -> None:
    """Reject, before any fit, a plan with horizon or thin below 1, a level
    outside (0, 1), a statistic not in ``POINT_STATISTICS``, or fewer than 2
    paths: ceil((n_total - n_burn) / thin) < 2, that is n_total - n_burn <= thin.
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
    if statistic not in POINT_STATISTICS:
        raise ValueError(f"unknown point statistic {statistic!r}")


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
    (Gaussian).  ``thin`` keeps every thin-th draw.  Explosive draws can
    overflow a path; a path that is not finite raises ``RuntimeError``,
    naming the order and the first horizon at which one is not.
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
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        for h in range(horizon):
            location = beta[:, 0] + np.einsum("ij,ij->i", beta[:, 1:], lags)
            draws_h = model.noise(rng, location, b)
            paths[:, h] = draws_h
            lags = np.column_stack([draws_h, lags[:, :-1]])
    return _require_finite(paths, f"order-{p}")


def _require_finite(paths: np.ndarray, name: str) -> np.ndarray:
    """``paths``, or a ``RuntimeError`` naming the first horizon not finite on some path."""
    finite = np.isfinite(paths).all(axis=0)
    if not finite.all():
        horizon = int(np.argmin(finite)) + 1
        raise RuntimeError(f"explosive posterior draws overflow the {name} paths at horizon {horizon}")
    return paths


def point_forecast(paths: np.ndarray, statistic: str = "mean") -> np.ndarray:
    """Per-horizon summary of the path samples (predictive mean by default), formed as ``scoring``'s metrics are."""
    paths = np.asarray(paths, dtype=float)
    if paths.size == 0:
        raise ValueError("paths must be non-empty")
    if statistic not in POINT_STATISTICS:
        raise ValueError(f"unknown point statistic {statistic!r}")
    paths, e = binary_scale(paths)
    return unscale(POINT_STATISTICS[statistic](paths, axis=0), e, "the point forecast")


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


def bma_forecast(
    per_order_results: Sequence[ForecastResult],
    weights: np.ndarray,
    seed: int | Sequence[int],
) -> ForecastResult:
    """Mix per-order forecasts with model weights.

    The mixture is represented by resampling the pooled paths: each order
    contributes floor(weight * n_paths) paths deterministically and the
    leftover slots are drawn from the fractional remainders (residual
    resampling), which keeps the mixing noise small.  The result keeps the
    inputs' shared fields, so its point is their statistic of the mixed paths.
    """
    if len(per_order_results) == 0:
        raise ValueError("need at least one forecast to mix")
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(per_order_results),):
        raise ValueError("one weight per forecast required")
    if not np.all(np.isfinite(weights) & (weights >= 0)) or abs(float(weights.sum()) - 1.0) > 1e-9:
        raise ValueError("weights must be finite, nonnegative and sum to 1")
    if len({r.paths.shape for r in per_order_results}) > 1:
        raise ValueError("forecasts must share horizons and path counts")
    if len({(r.scale_note, r.interval_level, r.statistic) for r in per_order_results}) > 1:
        raise ValueError("forecasts must share scale, interval level and statistic")
    first = per_order_results[0]
    plan = _mixture_plan(weights, first.n_paths, seed)
    blocks = [r.paths[rows] for rows, r in zip(plan, per_order_results) if rows is not None]
    return replace(first, paths=np.vstack(blocks))


def _mixture_plan(
    weights: np.ndarray, n_paths: int, seed: int | Sequence[int]
) -> list[np.ndarray | None]:
    """The rows each order contributes to an ``n_paths`` mixture, or None for none.

    Order i contributes floor(weight_i * n_paths) rows; the leftover slots
    are one multinomial draw over the fractional remainders, and the rows of
    each contributing order are then drawn uniformly, in order, from the same
    generator.  The plan needs only the weights, so it is known before any
    order is sampled.
    """
    raw = weights / weights.sum() * n_paths
    counts = np.floor(raw).astype(int)
    leftover = n_paths - int(counts.sum())
    rng = np.random.default_rng(seed)
    if leftover > 0:
        # the remainders sum to leftover >= 1, up to rounding
        frac = raw - counts
        counts += rng.multinomial(leftover, frac / frac.sum())
    return [rng.integers(0, n_paths, size=count) if count > 0 else None for count in counts]


def forecast_levels(diff_result: ForecastResult, last_level: float) -> ForecastResult:
    """Rebuild level-scale forecasts from change-scale ones.

    Every path is cumulatively summed and shifted by the last observed level;
    the interval level and statistic carry over.  Finite changes can still
    overflow as levels, which raises ``RuntimeError`` as in ``sample_paths``.
    """
    if diff_result.scale_note != SCALE_DIFFERENCED:
        raise ValueError("input forecast is not on the differenced scale")
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        level_paths = last_level + np.cumsum(diff_result.paths, axis=1)
    return replace(diff_result, paths=_require_finite(level_paths, "level"), scale_note=SCALE_LEVEL)


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
    windows: Sequence[tuple[TimeSeries, tuple[int, ...]]],
    methods: Sequence[MethodSpec],
    horizon: int,
    max_order: int,
    config: McmcConfig,
    interval_level: float = 0.95,
    apply_diff: bool = False,
    statistic: str = "mean",
    thin: int = 1,
) -> Iterator[dict[MethodSpec, ForecastResult]]:
    """Forecast each (series, seed_base) in ``windows`` with methods that share
    one error family; yields one {method: result} per window, in order.

    ``check_plan`` runs before any fit.  With ``apply_diff`` the methods model
    the lag-1 changes of a series and each forecast is rebuilt on the level
    scale from its last observed value.  A window's order ensemble is built
    once if any method selects orders, and a BMA mixture is planned from its
    weights, as ``bma_forecast`` plans it, before any fit.  Each window
    samples the orders with mixture rows, the MAP order if a method takes it,
    and each fixed order: an order with no mixture rows gets no chain and no
    paths, so an overflow or a degenerate fit at that order alone does not
    fail the forecast.  The plans and one ``run_mh_batch`` call, which sets
    up every window's fits, run on the call; the draws then stream in the
    sampler's batches, and each window's fits become paths, their draws
    dropped, before its results are yielded.  Seeds are those of the module
    docstring.  BMA gathers the planned rows of orders 1..max_order, MAP
    takes the minimum-BIC order, and a fixed rule its own order.  Each method's result carries ``statistic``,
    so its point is read from its final paths.  A window's results depend
    neither on the other windows nor on which other orders are sampled.
    """
    check_plan(horizon, config, thin, interval_level, statistic)
    if not methods:
        raise ValueError("at least one method required")
    family = methods[0].family
    if any(m.family is not family for m in methods):
        raise ValueError("forecast_family needs methods of one error family")
    scale_note = SCALE_DIFFERENCED if apply_diff else SCALE_LEVEL
    selecting = any(m.order_rule != "fixed" for m in methods)
    mixing = any(m.order_rule == "bma" for m in methods)
    n_paths = -(-(config.n_total - config.n_burn) // thin)
    plans = []
    for y, seed_base in windows:
        work = diff1(y) if apply_diff else y
        base = tuple(seed_base)
        ensemble = build_ensemble(work, max_order, family) if selecting else None
        mixture = _mixture_plan(ensemble.weights, n_paths, base + (0, 2)) if mixing else []
        orders = {m.fixed_order if m.order_rule == "fixed" else ensemble.map_order
                  for m in methods if m.order_rule != "bma"}
        orders.update(p for p, rows in enumerate(mixture, 1) if rows is not None)
        plans.append((y, work, base, ensemble, mixture, sorted(orders)))
    draws = run_mh_batch(
        [(work, p, base + (p,)) for _, work, base, _, _, orders in plans for p in orders], family, config
    )
    plans.reverse()

    def results() -> Iterator[dict[MethodSpec, ForecastResult]]:
        while plans:  # each window's plan is dropped once its results are out
            y, work, base, ensemble, mixture, orders = plans.pop()
            paths = {p: sample_paths(work, next(draws), horizon, family, base + (p, 1), thin) for p in orders}
            by_method: dict[MethodSpec, ForecastResult] = {}
            for m in methods:
                if m.order_rule == "bma":
                    chosen = np.vstack([paths[p][rows] for p, rows in enumerate(mixture, 1) if rows is not None])
                elif m.order_rule == "map":
                    chosen = paths[ensemble.map_order]
                else:
                    chosen = paths[m.fixed_order]
                result = ForecastResult(chosen, interval_level, scale_note, statistic)
                by_method[m] = forecast_levels(result, float(y.values[-1])) if apply_diff else result
            yield by_method

    return results()


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
    """The fixed-order plan of ``forecast_family`` for each requested order of ``y``.

    One window, one fixed-order method per order and no differencing, so
    ``check_plan`` runs before any fit and the seeds are the planner's:
    (seed_base..., order) for the chain and (seed_base..., order, 1) for the
    path noise.  Each result has the default statistic and ``scale_note``.
    """
    methods = [MethodSpec(family, "fixed", int(p)) for p in orders]
    if not methods:
        return {}
    (results,) = forecast_family(
        [(y, tuple(seed_base))], methods, horizon, max(m.fixed_order for m in methods), config,
        interval_level, thin=thin,
    )
    return {m.fixed_order: replace(r, scale_note=scale_note) for m, r in results.items()}


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
    return next(forecast_family(
        [(y, as_seed_tuple(config.seed))], [method], horizon, max_order, config,
        interval_level, apply_diff, statistic, thin,
    ))[method]

