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
scale is sqrt(RSS / n).  ``point_fits`` picks the fit that matches a family.

Packing.  The duals of different orders share no variable, so the fits of
consecutive orders are solved as one LP whose equality matrix is the block
diagonal of their X_p', and beta_p is block p's slice of the multipliers.
About half of a small HiGHS solve is fixed per-call cost, which packing pays
once per LP instead of once per order: a K=20 ensemble on T=200 takes three
LPs, a K=8 ensemble on T=100 one.  An LP takes orders while the sum of their
design nonzeros n * (p + 1) stays within ``_LP_NONZERO_BUDGET``, because HiGHS
memory grows with the nonzeros: the peak RSS of one solve rose by 70-125 B per
nonzero (2 vCPUs, scipy 1.17.1; 4.8 MB for a whole T=200, K=20 ensemble, 53 MB
for T=1000, K=40).  One LP per ensemble raised the order study's peak RSS from
83.9 MB (separate fits) to 89.9 MB; with the budget it is 85.6 MB at nearly
the same throughput (28.1-29.6 against 29.2-30.1 units/s), and one LP holds at
most about 2 MB of solver state.  HiGHS presolve is off: its log reports these
dense box-bounded duals "not reduced", yet it cost a T=200 single fit 4.9 ms
against 3.6 ms without it, and 200 single fits returned bit-identical beta
either way.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .core import (
    GAUSSIAN_MODEL,
    LAPLACE_MODEL,
    Coefficients,
    ErrorFamily,
    TimeSeries,
    check_window,
    lag_design,
    least_squares,
)

__all__ = ["MleFit", "fit_l1", "fit_ols", "point_fits", "SCALE_FLOOR"]

# Noiseless inputs give a zero objective; the scale is floored before any log.
SCALE_FLOOR = 1e-10

# Design nonzeros sum n * (p + 1) allowed in one packed L1 LP (see module docstring).
_LP_NONZERO_BUDGET = 16_000


@dataclass(frozen=True)
class MleFit:
    """Point fit: coefficients, scale, and the residual objective they attain.

    ``scale`` is tau for the Laplace family and sigma for the Gaussian one,
    finite and positive; ``objective`` is the family's S or RSS.
    """

    coeff: Coefficients
    scale: float
    objective: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be finite and positive, got {self.scale}")
        if self.objective < 0:
            raise ValueError("objective must be nonnegative")


def _l1_fits(y: TimeSeries, orders: Sequence[int], start: int) -> tuple[MleFit, ...]:
    """Exact L1 fits of ``orders`` on rows t = start..T, a few orders per dual LP.

    Consecutive orders share one LP while the sum of their design sizes
    n * (p + 1) stays within ``_LP_NONZERO_BUDGET``; an order whose block alone
    exceeds it is solved alone.
    """
    groups: list[list[tuple[int, np.ndarray, np.ndarray]]] = []
    nonzeros = 0
    for order in orders:
        X, targets = lag_design(y.values, order, start)
        n, k = X.shape
        check_window(n, order)
        if np.linalg.matrix_rank(X) < k:
            warnings.warn(
                f"rank-deficient design at order {order}: L1 optimum is non-unique, "
                "returning one optimal vertex",
                RuntimeWarning,
                stacklevel=3,
            )
        if not groups or nonzeros + X.size > _LP_NONZERO_BUDGET:
            groups.append([])
            nonzeros = 0
        groups[-1].append((order, X, targets))
        nonzeros += X.size
    return tuple(fit for group in groups for fit in _solve_block_lp(group))


def _solve_block_lp(blocks: list[tuple[int, np.ndarray, np.ndarray]]) -> list[MleFit]:
    """Solve the dual LPs of (order, X, targets) blocks as one block-diagonal LP."""
    # maximize sum_p targets_p @ d_p  s.t.  X_p.T @ d_p = 0,  -1 <= d <= 1;
    # beta_p is the multiplier slice of block p's equality rows (sign flipped:
    # linprog minimizes)
    res = linprog(
        -np.concatenate([targets for _, _, targets in blocks]),
        A_eq=sparse.block_diag([X.T for _, X, _ in blocks], format="csc"),
        b_eq=np.zeros(sum(X.shape[1] for _, X, _ in blocks)),
        bounds=(-1.0, 1.0),
        method="highs",
        options={"presolve": False},
    )
    if not res.success:
        orders = [order for order, _, _ in blocks]
        raise RuntimeError(f"L1 linear program failed for orders {orders}: {res.message}")
    fits = []
    row = 0
    for _, X, targets in blocks:
        n, k = X.shape
        beta = -res.eqlin.marginals[row : row + k]
        row += k
        objective = float(LAPLACE_MODEL.objective(targets - X @ beta))
        fits.append(
            MleFit(
                coeff=Coefficients(beta),
                scale=max(LAPLACE_MODEL.point_scale(objective, n), SCALE_FLOOR),
                objective=objective,
            )
        )
    return fits


def fit_l1(y: TimeSeries, order: int, start: int) -> MleFit:
    """Exact L1 (median regression) fit on rows t = start..T.

    The scale slot carries tau = S / (n + 1) over the window's n rows; the
    objective is S.  HiGHS solves the dual LP (one variable in [-1, 1] per
    row, ``X' d = 0``) to global optimality and beta is read off its equality
    multipliers.  With a rank-deficient design the optimum is non-unique, a
    warning naming the order is emitted, and one optimal beta is returned.
    """
    return _l1_fits(y, (order,), start)[0]


def fit_ols(y: TimeSeries, order: int, start: int) -> MleFit:
    """Gaussian MLE on rows t = start..T by ``core.least_squares``.

    The scale slot carries sigma = sqrt(RSS / n) over the window's n rows; the
    objective is the RSS.  A rank-deficient design raises ``DegenerateDataError``.
    """
    X, targets = lag_design(y.values, order, start)
    n = targets.size
    check_window(n, order)
    beta, _, rss = least_squares(X, targets)
    return MleFit(
        coeff=Coefficients(beta),
        scale=max(GAUSSIAN_MODEL.point_scale(rss, n), SCALE_FLOOR),
        objective=rss,
    )


def point_fits(
    y: TimeSeries, orders: Sequence[int], start: int, family: ErrorFamily
) -> tuple[MleFit, ...]:
    """The family's point fit of each order on rows t = start..T.

    Laplace fits are exact L1 fits solved a few orders per LP; Gaussian fits
    are least squares, one order at a time.
    """
    if family is ErrorFamily.LAPLACE:
        return _l1_fits(y, orders, start)
    return tuple(fit_ols(y, order, start) for order in orders)
