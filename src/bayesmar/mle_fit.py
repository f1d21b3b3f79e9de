"""Frequentist point fits feeding the BIC: exact L1 regression and least squares.

The L1 fit solves the median-regression problem

    min_beta  sum_t |y_t - (1, y_{t-1}, ..., y_{t-p}) beta| / 2

exactly, through its linear-programming dual (Koenker & d'Orey 1987):

    max_d  y' d   subject to  X' d = 0,  -1 <= d <= 1,

where X is the lag design and y the targets: one box-bounded variable per
residual and one equality row per coefficient.  By LP duality the optimal
value equals sum_t |residual_t|, and beta is the multiplier vector of the
equality rows.  Both fits take their objective and closed-form scale from the
family's ``ErrorModel``: the L1 scale divides the optimal half-absolute
residual sum by the number of residual terms plus one, and the least-squares
scale is sqrt(RSS / n).  ``point_fit`` picks the fit that matches a family.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .core import GAUSSIAN_MODEL, LAPLACE_MODEL, Coefficients, ErrorFamily, TimeSeries, lag_design

__all__ = ["MleFit", "fit_l1", "fit_ols", "point_fit", "SCALE_FLOOR"]

# Noiseless inputs give a zero objective; the scale is floored before any log.
SCALE_FLOOR = 1e-10


@dataclass(frozen=True)
class MleFit:
    """Point fit: coefficients, scale, attained objective, and window size.

    ``scale`` is tau for the Laplace family and sigma for the Gaussian one.
    """

    coeff: Coefficients
    scale: float
    objective: float
    n_used: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be finite and positive, got {self.scale}")
        if self.objective < 0:
            raise ValueError("objective must be nonnegative")
        if self.n_used < 1:
            raise ValueError("n_used must be at least 1")


def _check_window(n: int, order: int) -> None:
    if n < order + 2:
        raise ValueError(
            f"window too small: {n} usable rows cannot identify order {order} "
            f"(need at least {order + 2})"
        )


def fit_l1(y: TimeSeries, order: int, start: int) -> MleFit:
    """Exact L1 (median regression) fit on rows t = start..T.

    The scale slot carries tau = S / (n_used + 1); the objective is S.  HiGHS
    solves the dual LP (one variable in [-1, 1] per row, ``X' d = 0``) to
    global optimality and beta is read off its equality multipliers.  With a
    rank-deficient design the optimum is non-unique, a warning is emitted, and
    one optimal beta is returned.
    """
    X, targets = lag_design(y.values, order, start)
    n, k = X.shape
    _check_window(n, order)
    if np.linalg.matrix_rank(X) < k:
        warnings.warn(
            "rank-deficient design: L1 optimum is non-unique, returning one optimal vertex",
            RuntimeWarning,
            stacklevel=2,
        )

    # maximize targets @ d  s.t.  X.T @ d = 0,  -1 <= d <= 1; beta is the
    # multiplier vector of the k equality rows (sign flipped: linprog minimizes)
    res = linprog(-targets, A_eq=X.T, b_eq=np.zeros(k), bounds=(-1.0, 1.0), method="highs")
    if not res.success:
        raise RuntimeError(f"L1 linear program failed: {res.message}")
    beta = -res.eqlin.marginals

    objective = float(LAPLACE_MODEL.objective(targets - X @ beta))
    return MleFit(
        coeff=Coefficients(beta=beta, order=order),
        scale=max(LAPLACE_MODEL.point_scale(objective, n), SCALE_FLOOR),
        objective=objective,
        n_used=n,
    )


def fit_ols(y: TimeSeries, order: int, start: int) -> MleFit:
    """Gaussian MLE on rows t = start..T via the normal equations.

    The scale slot carries sigma = sqrt(RSS / n_used); the objective is the RSS.
    """
    X, targets = lag_design(y.values, order, start)
    n, k = X.shape
    _check_window(n, order)
    if np.linalg.matrix_rank(X) < k:
        raise np.linalg.LinAlgError("singular normal equations: design not full column rank")
    beta = np.linalg.solve(X.T @ X, X.T @ targets)
    rss = float(GAUSSIAN_MODEL.objective(targets - X @ beta))
    return MleFit(
        coeff=Coefficients(beta=beta, order=order),
        scale=max(GAUSSIAN_MODEL.point_scale(rss, n), SCALE_FLOOR),
        objective=rss,
        n_used=n,
    )


def point_fit(y: TimeSeries, order: int, start: int, family: ErrorFamily) -> MleFit:
    """The family's point fit on rows t = start..T: L1 for Laplace, least squares for Gaussian."""
    if family is ErrorFamily.LAPLACE:
        return fit_l1(y, order, start)
    return fit_ols(y, order, start)
