"""Domain types and the error-family kernels of median autoregression.

A median autoregression of order p (MAR(p)) keeps the usual AR recursion

    y_t = beta_0 + beta_1 y_{t-1} + ... + beta_p y_{t-p} + eps_t

but draws the error from a Laplace distribution centered at zero, so the
conditional *median* of y_t is the linear predictor.  The Laplace scale is
parametrized so that the error density is (1/(4 tau)) exp(-|x| / (2 tau)),
i.e. a standard Laplace with scale b = 2 tau.  The Gaussian family is the
mean AR model with standard deviation sigma in the same scale slot.

Each family's formulas live in one ``ErrorModel`` (``LAPLACE_MODEL``,
``GAUSSIAN_MODEL``, or ``family.model``): the BIC, the point fits and the
path and series noise all call it.  Only the Laplace model also holds its
chain's L1 norm N = 2 S, the one sum behind its residual objective S, whose
S^(-n) is the chain's target, and its scale draw; ``mcmc.run_mh_batch``
draws the Gaussian (beta, sigma) exactly, from its Normal-Inverse-Gamma law.

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
    "fit_window",
    "SCALE_FLOOR",
    "binary_scale",
    "unscale",
    "independent_columns",
    "least_squares",
    "check_window",
    "diff1",
    "as_seed_tuple",
]


class DegenerateDataError(np.linalg.LinAlgError):
    """The data do not identify the fit: a rank-deficient design, or a perfect
    linear fit that makes the scale posterior improper."""


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
    """Finite AR coefficient vector, intercept first; its order p is ``beta.size - 1`` >= 1."""

    beta: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.beta, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("beta must be 1-D with an intercept and at least one lag")
        if not np.all(np.isfinite(arr)):
            raise ValueError("beta entries must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "beta", arr)

    @property
    def order(self) -> int:
        return self.beta.size - 1

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "Coefficients":
        return cls(values)


@dataclass(frozen=True)
class PosteriorDraws:
    """Retained joint (beta, scale) posterior samples plus sampler diagnostics.

    Row i of ``beta_draws`` (n_kept, order + 1) pairs with ``tau_draws[i]``.
    A chain (Laplace) also stores ``accepted[i]``, whether row i's proposal
    was accepted, its frozen proposal ``step_size`` and the ``n_burn``
    iterations that preceded the kept ones.  Exact draws (Gaussian) have no
    chain: ``accepted`` and ``step_size`` are None and ``n_burn`` is 0.
    """

    beta_draws: np.ndarray
    tau_draws: np.ndarray
    accepted: np.ndarray | None
    step_size: float | None
    n_burn: int

    def __post_init__(self) -> None:
        beta = np.asarray(self.beta_draws, dtype=float)
        tau = np.asarray(self.tau_draws, dtype=float)
        if beta.ndim != 2 or beta.shape[0] < 1 or beta.shape[1] < 2:
            raise ValueError(f"beta_draws shape {beta.shape} is not (n_kept >= 1, order + 1 >= 2)")
        n_kept = beta.shape[0]
        if tau.shape != (n_kept,):
            raise ValueError(f"tau_draws shape {tau.shape} != ({n_kept},)")
        if not np.all(tau > 0):
            raise ValueError("all tau draws must be positive")
        if self.accepted is None:
            if self.step_size is not None or self.n_burn != 0:
                raise ValueError("exact draws (accepted=None) have no step_size and no burn-in")
        else:
            accepted = np.asarray(self.accepted, dtype=bool)
            if accepted.shape != (n_kept,):
                raise ValueError(f"accepted shape {accepted.shape} != ({n_kept},)")
            if self.step_size is None:
                raise ValueError("chain draws (accepted given) need a step_size")
            object.__setattr__(self, "accepted", accepted)
        object.__setattr__(self, "beta_draws", beta)
        object.__setattr__(self, "tau_draws", tau)

    @property
    def order(self) -> int:
        return self.beta_draws.shape[1] - 1

    @property
    def n_kept(self) -> int:
        return self.beta_draws.shape[0]

    @property
    def n_total(self) -> int:
        return self.n_burn + self.n_kept

    @property
    def acceptance_rate(self) -> float:
        """Share of retained iterations whose proposal was accepted; 1.0 for
        exact draws, each of which is a new state."""
        if self.accepted is None:
            return 1.0
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


#: The one degeneracy rule, on ``fit_window``'s window: a point fit's scale is floored at it,
#: and a window whose least-squares scale sqrt(RSS / n) is at or below it is an exact fit;
#: rounding leaves an exact window 2^-50.8 to 2^-55.6 (AR(2) offset by up to 1e10, trends).
SCALE_FLOOR = 2.0**-40


def binary_scale(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values * 2^(-e), e), exactly: e the binary exponent of the largest |value|,
    per column of a 2-D array (0 if it is 0 or not finite), which lands in [0.5, 1)."""
    e = np.frexp(np.abs(values).max(axis=0))[1]
    return np.ldexp(values, -e), e


def fit_window(values: np.ndarray, order: int, start: int, context: str = "") -> tuple[np.ndarray, np.ndarray, int]:
    """(X, targets, e): ``check_window`` (with ``context``) and ``lag_design``
    of rows t = start..T on the window y_{start-order}..y_T at ``binary_scale``.

    This is the one set of units of every fit.  No square, sum or median of
    the window overflows, and power-of-two scaling is exact, so a fit of it
    has the data's lag coefficients and 2^(-e) times their intercept, scale,
    objective and draws, bit for bit unless a value leaves the normal floats.
    ``unscale`` maps those back.
    """
    check_window(len(values) - start + 1, order, context)
    lo = max(start - 1 - order, 0)  # lag_design rejects start <= order
    window, e = binary_scale(np.asarray(values, dtype=float)[lo:])
    return (*lag_design(window, order, start - lo), int(e))


def unscale(values, e, what: str | None = None, rows: Sequence = ()) -> np.ndarray:
    """``values`` times 2^e, from ``fit_window``'s units to the data's, with no
    numpy warning.  With ``what`` an overflow raises one ``DegenerateDataError``,
    "``what`` overflows", ``what`` formatted with the labels in ``rows`` of the
    rows that overflow; without, it reads inf."""
    values = np.asarray(values, dtype=float)
    with np.errstate(over="ignore"):
        out = np.ldexp(values, e)
    if what is not None and np.isinf(out).any():  # the mask only when something may overflow
        overflow = np.isinf(out) > np.isinf(values)
        if overflow.any():
            rows = [row for row, bad in zip(rows, overflow.reshape(len(rows), -1).any(axis=1)) if bad] if rows else []
            raise DegenerateDataError(f"{what.format(rows)} overflows")
    return out


def independent_columns(X: np.ndarray) -> list[int]:
    """Indices of X's columns that are independent of the kept ones before them.

    Rank is judged on X with each nonzero column scaled to max-abs 1, so the
    verdict does not depend on the data's units: a lag column in units of
    1e13 beside the unit intercept column reads as independent, as it does
    in units of 1.  A full-rank X costs one ``matrix_rank``; otherwise each
    column is tried in turn, so a prefix of columns keeps its own verdict.
    """
    size = np.abs(X).max(axis=0)
    X = X / np.where(size > 0, size, 1.0)
    k = X.shape[1]
    if np.linalg.matrix_rank(X) == k:
        return list(range(k))
    kept: list[int] = []
    for j in range(k):
        if np.linalg.matrix_rank(X[:, kept + [j]]) > len(kept):
            kept.append(j)
    return kept


def least_squares(X: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Least-squares fit of ``targets ~ X beta``: (beta_hat, R, RSS) with X = QR.

    A design that ``independent_columns`` finds rank-deficient raises
    ``DegenerateDataError``; that verdict does not depend on the data's
    units.  Householder QR is exact under ``fit_window``'s scaling.
    """
    if (rank := len(independent_columns(X))) < X.shape[1]:
        raise DegenerateDataError(f"design of {X.shape[1]} columns has rank {rank}: fit not identified")
    Q, R = np.linalg.qr(X)
    beta_hat = np.linalg.solve(R, Q.T @ targets)
    resid = targets - X @ beta_hat
    return beta_hat, R, float(resid @ resid)


def check_window(rows: int, order: int, context: str = "") -> None:
    """Reject an order-``order`` fit on ``rows`` usable rows unless rows >= order + 2.

    An AR(p) fit has p + 1 coefficients and a scale.  On its full window
    t = p+1..T a series of length T has T - p rows, so it needs T >= 2p + 2.
    An order below 1 is rejected too; ``context`` prefixes the error message.
    """
    if order < 1:
        raise ValueError(f"{context}order must be at least 1, got {order}")
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
    S(beta)^(-n) (Laplace, sampled by a chain that compares L1 norms) or
    RSS(beta)^(-n/2) (Gaussian, a multivariate t).  The Laplace model adds
    its ``norm`` (2 S), ``objective`` and ``draw_scale``.
    """

    family: ErrorFamily
    #: Standard noise scale (Laplace b, Gaussian sd) per unit of the scale.
    noise_per_scale: float

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
    noise_per_scale = 2.0

    def norm(self, resid: np.ndarray, out: np.ndarray | None = None, total: np.ndarray | None = None) -> np.ndarray:
        """N = sum |r_t| = 2 S over the last axis of ``resid``, |r_t| formed in
        ``out`` (which may be ``resid``) and N in ``total`` if given."""
        return np.add.reduce(np.abs(resid, out), -1, None, total)

    def objective(self, resid: np.ndarray) -> np.ndarray:
        """S = sum |r_t| / 2 over the last axis of ``resid``."""
        return 0.5 * self.norm(resid)

    def draw_scale(self, rng: np.random.Generator, objectives: np.ndarray, n: int) -> np.ndarray:
        """One exact draw of tau | beta ~ InvGamma(shape n, rate S(beta)) per objective."""
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
    noise_per_scale = 1.0

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


LAPLACE_MODEL = _LaplaceModel()
GAUSSIAN_MODEL = _GaussianModel()
_MODELS = {model.family: model for model in (LAPLACE_MODEL, GAUSSIAN_MODEL)}
