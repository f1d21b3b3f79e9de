"""Domain types and the error-family kernels of median autoregression.

A median autoregression of order p (MAR(p)) keeps the usual AR recursion

    y_t = beta_0 + beta_1 y_{t-1} + ... + beta_p y_{t-p} + eps_t

but draws the error from a Laplace distribution centered at zero, so the
conditional *median* of y_t is the linear predictor.  The Laplace scale is
parametrized so that the error density is (1/(4 tau)) exp(-|x| / (2 tau)),
i.e. a standard Laplace with scale b = 2 tau.  The Gaussian family is the
mean AR model with standard deviation sigma in the same scale slot.

Each family's formulas live in one ``ErrorModel`` (``LAPLACE_MODEL``,
``GAUSSIAN_MODEL``, or ``family.model``): the sampler, the BIC, the point
fits and the path and series noise all call it.

Everything in this module is a pure function of its inputs (random draws
advance only the generator passed in); the dataclasses are frozen and the
models stateless, so both can be shared freely across threads or processes.

Time indices follow the time-series convention: a series of length T is
indexed t = 1..T, and ``start`` arguments name the first 1-based index that
contributes a residual term.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

__all__ = [
    "DegenerateDataError",
    "ErrorFamily",
    "ErrorModel",
    "LAPLACE_MODEL",
    "GAUSSIAN_MODEL",
    "TimeSeries",
    "Coefficients",
    "PosteriorDraws",
    "lag_design",
    "check_window",
    "diff1",
    "as_seed_tuple",
]


class DegenerateDataError(ValueError):
    """The data admit a perfect linear fit, so the scale posterior is improper."""


class ErrorFamily(str, Enum):
    """Distribution of the AR innovation: Laplace (median model) or Gaussian."""

    LAPLACE = "laplace"
    GAUSSIAN = "gaussian"

    @property
    def model(self) -> ErrorModel:
        """This family's kernel: ``LAPLACE_MODEL`` or ``GAUSSIAN_MODEL``."""
        return _MODELS[self]


def as_seed_tuple(seed: int | Sequence[int]) -> tuple[int, ...]:
    """Normalize a seed (int or sequence of ints) to a tuple for composition."""
    if isinstance(seed, (int, np.integer)):
        return (int(seed),)
    return tuple(int(s) for s in seed)


@dataclass(frozen=True)
class TimeSeries:
    """Ordered real-valued observations with optional period labels."""

    values: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("TimeSeries requires a non-empty 1-D value sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("TimeSeries values must all be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        if self.labels is not None:
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != arr.size:
                raise ValueError(
                    f"labels length {len(labels)} != series length {arr.size}"
                )
            object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class Coefficients:
    """AR coefficient vector (intercept first) together with its order p."""

    beta: np.ndarray
    order: int

    def __post_init__(self) -> None:
        arr = np.array(self.beta, dtype=float)
        if arr.ndim != 1:
            raise ValueError("beta must be 1-D")
        if self.order < 1:
            raise ValueError("order must be a positive integer")
        if arr.size != self.order + 1:
            raise ValueError(
                f"beta has {arr.size} entries, expected order+1 = {self.order + 1}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("beta entries must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "beta", arr)

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "Coefficients":
        arr = np.asarray(values, dtype=float)
        return cls(beta=arr, order=arr.size - 1)


@dataclass(frozen=True)
class PosteriorDraws:
    """Retained joint (beta, tau) MCMC samples plus sampler diagnostics.

    ``accepted`` flags, per retained draw, whether its Metropolis proposal
    was accepted; ``step_size`` is the frozen proposal step.
    """

    beta_draws: np.ndarray
    tau_draws: np.ndarray
    accepted: np.ndarray
    step_size: float
    order: int
    n_total: int
    n_burn: int

    def __post_init__(self) -> None:
        beta = np.asarray(self.beta_draws, dtype=float)
        tau = np.asarray(self.tau_draws, dtype=float)
        accepted = np.asarray(self.accepted, dtype=bool)
        n_kept = self.n_total - self.n_burn
        if n_kept <= 0:
            raise ValueError("n_total must exceed n_burn")
        if beta.ndim != 2 or beta.shape != (n_kept, self.order + 1):
            raise ValueError(
                f"beta_draws shape {beta.shape} != ({n_kept}, {self.order + 1})"
            )
        if tau.shape != (n_kept,):
            raise ValueError(f"tau_draws shape {tau.shape} != ({n_kept},)")
        if not np.all(tau > 0):
            raise ValueError("all tau draws must be positive")
        if accepted.shape != (n_kept,):
            raise ValueError(f"accepted shape {accepted.shape} != ({n_kept},)")
        object.__setattr__(self, "beta_draws", beta)
        object.__setattr__(self, "tau_draws", tau)
        object.__setattr__(self, "accepted", accepted)

    @property
    def n_kept(self) -> int:
        return self.n_total - self.n_burn

    @property
    def acceptance_rate(self) -> float:
        """Share of retained iterations whose proposal was accepted."""
        return float(self.accepted.mean())


def lag_design(values: np.ndarray, order: int, start: int) -> tuple[np.ndarray, np.ndarray]:
    """Build the AR design for rows t = start..T (1-based).

    Returns (X, targets) with X[i] = (1, y_{t-1}, ..., y_{t-p}) and
    targets[i] = y_t for t = start + i.
    """
    values = np.asarray(values, dtype=float)
    T = values.size
    if order < 1:
        raise ValueError("order must be >= 1")
    if start <= order:
        raise ValueError(
            f"insufficient history: start={start} must exceed order={order}"
        )
    if start > T:
        raise ValueError(f"start={start} beyond series length T={T}")
    targets = values[start - 1 : T]
    cols = [np.ones(T - start + 1)]
    for j in range(1, order + 1):
        cols.append(values[start - 1 - j : T - j])
    return np.column_stack(cols), targets


def check_window(rows: int, order: int, context: str = "") -> None:
    """Reject an order-``order`` fit on ``rows`` usable rows unless rows >= order + 2.

    An AR(p) fit has p + 1 coefficients and a scale.  On its full window
    t = p+1..T a series of length T has T - p rows, so it needs T >= 2p + 2.
    ``context`` prefixes the error message.
    """
    if rows < order + 2:
        raise ValueError(
            f"{context}{rows} usable rows cannot identify order {order} "
            f"(need at least {order + 2})"
        )


def diff1(y: TimeSeries) -> TimeSeries:
    """Lag-1 differences (y_2 - y_1, ..., y_T - y_{T-1}); length T - 1."""
    if len(y) < 2:
        raise ValueError("differencing needs at least 2 observations")
    labels = y.labels[1:] if y.labels is not None else None
    return TimeSeries(values=np.diff(y.values), labels=labels)


class ErrorModel(ABC):
    """The formulas of one error law, over AR residuals r_t = y_t - x_t' beta.

    The scale (Laplace tau, Gaussian sigma) meets the n residuals only through
    the family's residual objective: S = sum |r_t| / 2 for Laplace and
    RSS = sum r_t^2 for Gaussian.  Integrating the scale out under the prior
    1/tau (Laplace) or 1/sigma^2 (Gaussian) leaves the marginal posterior
    objective(beta)^(-k n), with k = 1 for Laplace and k = 1/2 for Gaussian.
    """

    family: ErrorFamily
    k: float
    #: Standard noise scale (Laplace b, Gaussian sd) per unit of the scale.
    noise_per_scale: float

    def log_marginal(self, objective: float, n: int) -> float:
        """Log marginal posterior of beta, -k n log(objective), up to a zero constant.

        A zero objective is a perfect fit, where the posterior is improper.
        """
        if objective <= 0.0:
            raise DegenerateDataError(
                "zero residual objective: data admit a perfect fit and the posterior is improper"
            )
        return (-self.k * n) * math.log(objective)

    @abstractmethod
    def objective(self, resid: np.ndarray) -> np.ndarray:
        """Residual objective over the last axis of ``resid`` (S or RSS)."""

    @abstractmethod
    def draw_scale(self, rng: np.random.Generator, objectives: np.ndarray, n: int) -> np.ndarray:
        """One exact draw of the scale given beta per objective, from its inverse-gamma law."""

    @abstractmethod
    def bic(self, n: int, order: int, scale: float, objective: float) -> float:
        """(order + 2) log n - 2 log L of n residuals with this objective, at ``scale``."""

    @abstractmethod
    def point_scale(self, objective: float, n: int) -> float:
        """Closed-form scale estimate of a point fit whose n residuals attain ``objective``."""

    @abstractmethod
    def noise(self, rng: np.random.Generator, loc, b, size=None) -> np.ndarray:
        """Errors around ``loc`` with standard scale ``b`` (Laplace b, Gaussian sd)."""


class _LaplaceModel(ErrorModel):
    family = ErrorFamily.LAPLACE
    k = 1.0
    noise_per_scale = 2.0

    def objective(self, resid):
        return 0.5 * np.abs(resid).sum(axis=-1)

    def draw_scale(self, rng, objectives, n):
        # tau | beta ~ InvGamma(shape n, rate S(beta))
        return objectives / rng.gamma(shape=float(n), scale=1.0, size=objectives.size)

    def bic(self, n, order, scale, objective):
        # likelihood (4 tau)^(-n) exp(-S / tau)
        return (order + 2) * math.log(n) + 2.0 * n * math.log(4.0 * scale) + 2.0 * objective / scale

    def point_scale(self, objective, n):
        # S / (n + 1); the literal likelihood maximizer would divide by n
        return objective / (n + 1)

    def noise(self, rng, loc, b, size=None):
        return rng.laplace(loc, b, size)


class _GaussianModel(ErrorModel):
    family = ErrorFamily.GAUSSIAN
    k = 0.5
    noise_per_scale = 1.0

    def objective(self, resid):
        return np.vecdot(resid, resid)

    def draw_scale(self, rng, objectives, n):
        # sigma^2 | beta ~ InvGamma(shape n / 2, rate RSS(beta) / 2)
        return np.sqrt(0.5 * objectives / rng.gamma(shape=0.5 * n, scale=1.0, size=objectives.size))

    def bic(self, n, order, scale, objective):
        return (
            (order + 2) * math.log(n)
            + n * math.log(2.0 * math.pi * scale * scale)
            + objective / (scale * scale)
        )

    def point_scale(self, objective, n):
        return math.sqrt(objective / n)

    def noise(self, rng, loc, b, size=None):
        return rng.normal(loc, b, size)


LAPLACE_MODEL: ErrorModel = _LaplaceModel()
GAUSSIAN_MODEL: ErrorModel = _GaussianModel()
_MODELS = {model.family: model for model in (LAPLACE_MODEL, GAUSSIAN_MODEL)}
