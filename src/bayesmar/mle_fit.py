"""Frequentist point fits feeding the BIC: exact L1 regression and least squares.

The L1 fit solves the median-regression problem

    min_beta  S(beta) = sum_t |y_t - (1, y_{t-1}, ..., y_{t-p}) beta| / 2

exactly, through its linear-programming dual (Koenker & d'Orey 1987):

    max_d  y' d / 2   subject to  X' d = 0,  -1 <= d <= 1,

where X is the lag design and y the targets.  By LP duality the optimal
values agree, and y' d / 2 <= S(beta) for every feasible d and every beta.
Both fits take their objective and closed-form scale from the family's
``ErrorModel``: the L1 scale divides the optimal objective by the number of
residual terms plus one, and the least-squares scale is sqrt(RSS / n).  A
noiseless window attains a zero objective, so the scale is floored at
``SCALE_FLOOR`` (1e-10) times the window's largest |target|, a floor in the
data's units; a window whose targets are all 0 is floored at 1e-10 itself.
``point_fits`` picks the fit that matches a family.

Solver.  The dual, written with a = (d + 1) / 2 in [0, 1] and X' a = X' 1 / 2,
is solved by the Frisch-Newton primal-dual interior point with Mehrotra
predictor-corrector steps (Portnoy & Koenker 1997, "The Gaussian hare and the
Laplacian tortoise", Statistical Science 12:279).  It starts from a = 1/2,
which is feasible, and beta at the least-squares fit; each step solves one
k x k normal system X' Q X per problem.  Every normal system, the start's
and the dual projection's too, retries a singular matrix with a small ridge.
The orders of an ensemble share their aligned rows, so all of them are solved
as one batch: order p uses the first p + 1 columns of the largest order's
design, and the other columns are zero with a unit diagonal in the padded
normal matrix, which keeps their coefficients at zero.

Units.  Both fits run on ``core.fit_window``'s window and map back with
``core.unscale``.  ``_l1_fits`` standardises that window once more: targets
and lag columns less the targets' median, over their mean absolute deviation
from it (1 if that is 0).  The optimal basis is the same, so the solve, the
dual projection, the vertex, the certificate and the rank verdict
(``core.independent_columns``) all run there, and a level offset moves no
lag coefficient beyond the rounding of the data themselves.

Vertex and certificate.  The interior point ends near the optimum, not on a
vertex.  The fit is the exact vertex through the k observations with the
smallest |residual| there: the solution of X_h beta = y_h.  Every fit is then
certified by its duality gap S(beta) - y' d / 2, where d is the interior
point's dual, projected onto X' d = 0 and scaled into the box.  The gap is
measured against S_med = sum |y - median(y)| / 2, the intercept-only fit's
objective and so an upper bound of the optimum; on the standardised window
S_med = n / 2.  The interior point stops at a gap of 1e-12 of S_med, after
7-15 steps on the study windows.  Over 7,600 fits of study windows (T = 200,
orders 1-20) and backtest windows (T = 104, orders 1-8) the certified gaps
stayed below 9.6e-13 of S_med, below 8.2e-13 on Cauchy walks and tied
(integer-valued) series, and below 9.5e-13 on study windows offset by up to
3e9.  A fit is accepted at ``GAP_TOLERANCE`` = 1e-9.  When the optimum is not
unique (ties, or an exact fit of a lower order) the vertex may miss it; the
interior-point beta is then returned if it certifies.  If neither does,
``RuntimeError`` names the orders, so no unchecked beta is ever returned.  A
design of deficient rank is fitted on a maximal set of independent columns
(the others' coefficients are zero), with one warning naming its orders.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import (
    GAUSSIAN_MODEL,
    LAPLACE_MODEL,
    Coefficients,
    DegenerateDataError,
    ErrorFamily,
    TimeSeries,
    fit_window,
    independent_columns,
    least_squares,
    unscale,
)

__all__ = ["MleFit", "fit_l1", "fit_ols", "point_fits", "SCALE_FLOOR"]

# Noiseless inputs give a zero objective, so a point fit's scale is floored
# before any log at this share of the window's largest |target| (``_scale_floor``).
SCALE_FLOOR = 1e-10

# A fit is certified when its duality gap is at most this share of S_med.
GAP_TOLERANCE = 1e-9

_STOP_GAP = 1e-12  # the interior point stops at this duality gap, as a share of S_med
_MAX_STEPS = 50
_STEP_FRACTION = 0.99995  # of the way to the nearest bound that a step goes
_RIDGE = 1e-13  # of the largest diagonal entry, added only to a singular normal matrix


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


def _scale_floor(targets: np.ndarray) -> float:
    """``SCALE_FLOOR`` times the largest |target|, so the floor follows the
    data's units; ``SCALE_FLOOR`` itself when every target is 0."""
    return SCALE_FLOOR * (float(np.abs(targets).max()) or 1.0)


def _matvec(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A[b] @ v[b] for each b of a stack."""
    return (A @ v[..., None])[..., 0]


def _solve_normal(normal: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a normal system or a stack of them; if one is singular, solve all with a small ridge.

    Near a face of optima (tied data) the rows that carry the weight can be
    collinear, which makes the normal matrix singular in floating point.
    """
    try:
        return np.linalg.solve(normal, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        scale = normal.diagonal(axis1=-2, axis2=-1).max(axis=-1)[..., None, None]
        ridge = _RIDGE * scale * np.eye(normal.shape[-1])
        return np.linalg.solve(normal + ridge, rhs[..., None])[..., 0]


def _median(v: np.ndarray) -> float:
    """``np.median`` of a 1-D array, bit for bit, by partition: ``np.median``'s
    NaN check imports ``numpy.ma`` (about 2 MB and 10 ms on first use)."""
    k = v.size // 2
    if v.size % 2:
        return float(np.partition(v, k)[k])
    part = np.partition(v, (k - 1, k))
    return float((part[k - 1] + part[k]) / 2.0)


def _frisch_newton(X: np.ndarray, y: np.ndarray, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interior-point solves of the L1 duals of ``y ~ X[:, mask]`` for each row of ``masks``.

    ``X`` and ``y`` are the standardised window of ``_l1_fits``.  Returns (d, beta):
    one dual point in [-1, 1]^n and one beta per problem, beta zero outside its
    mask.  Problems leave the batch as they converge.
    """
    n, k = X.shape
    Xs = X * masks[:, None, :]
    pad = np.eye(k) * ~masks[:, None, :]
    half_sums = 0.5 * Xs.sum(axis=1)

    # a and s = 1 - a are kept apart, so neither loses its digits near a bound
    a = np.full((masks.shape[0], n), 0.5)
    s = a.copy()
    beta = _solve_normal(Xs.transpose(0, 2, 1) @ Xs + pad, y @ Xs)
    resid = y - _matvec(Xs, beta)
    margin = np.maximum(np.abs(resid).mean(axis=1, keepdims=True), 1e-3)
    z = np.maximum(-resid, 0.0) + margin  # multiplier of a >= 0
    w = np.maximum(resid, 0.0) + margin  # multiplier of a <= 1

    def step_length(rates):
        # min(1, _STEP_FRACTION / the fastest approach to a bound), 1 if none approaches
        return 1.0 / np.maximum(1.0, np.maximum(*(r.max(axis=1) for r in rates)) / _STEP_FRACTION)[:, None]

    d_out, beta_out = np.empty_like(a), np.empty_like(beta)
    problems = np.arange(masks.shape[0])
    for step in range(_MAX_STEPS + 1):
        gap = np.vecdot(a, z) + np.vecdot(s, w)
        done = (gap <= _STOP_GAP * n / 2) | (step == _MAX_STEPS)
        if done.any():  # write out and drop the converged problems
            d_out[problems[done]], beta_out[problems[done]] = (a - s)[done], beta[done]
            live = ~done
            problems, gap, Xs, pad, half_sums, a, s, z, w, beta = (
                v[live] for v in (problems, gap, Xs, pad, half_sums, a, s, z, w, beta)
            )
            if problems.size == 0:
                break
        Xt = Xs.transpose(0, 2, 1)
        q = 1.0 / (z / a + w / s)
        normal = Xt @ (q[:, :, None] * Xs) + pad
        primal_resid = half_sums - _matvec(Xt, a)
        dual_resid = y - _matvec(Xs, beta) - w + z

        def newton(rz, rw):
            # Newton step toward X'a = X'1/2, X beta + w - z = y, a z = rz + a z, s w = rw + s w
            rt = dual_resid - rw / s + rz / a
            db = _solve_normal(normal, _matvec(Xt, q * rt) - primal_resid)
            da = q * (rt - _matvec(Xs, db))
            return da, db, (rz - z * da) / a, (rw + w * da) / s

        # Mehrotra: an affine predictor sets the centering, then one corrector
        da, db, dz, dw = newton(-a * z, -s * w)
        tp, td = step_length((-da / a, da / s)), step_length((-dz / z, -dw / w))
        gap_affine = np.vecdot(a + tp * da, z + td * dz) + np.vecdot(s - tp * da, w + td * dw)
        mu = ((gap_affine / gap) ** 3 * gap / (2 * n))[:, None]
        da, db, dz, dw = newton(mu - a * z - da * dz, mu - s * w + da * dw)
        tp, td = step_length((-da / a, da / s)), step_length((-dz / z, -dw / w))
        a, s, beta = a + tp * da, s - tp * da, beta + td * db
        z, w = z + td * dz, w + td * dw

    return d_out, beta_out


def _certified_beta(
    X: np.ndarray, y: np.ndarray, d: np.ndarray, beta_ip: np.ndarray
) -> tuple[np.ndarray | None, float]:
    """The exact vertex near ``beta_ip``, else ``beta_ip``, if its duality gap
    certifies it; returns (beta or None, the last gap as a share of S_med,
    which is n / 2 on the standardised window ``X``, ``y`` of ``_l1_fits``)."""
    # project d onto X' d = 0 in the metric that moves each d_i in proportion
    # to its room inside [-1, 1], so the coordinates at a bound stay put
    room = 1.0 - d * d + 1e-12  # > 0, so X' room X is invertible with X' X
    d = d - room * (X @ _solve_normal(X.T @ (room[:, None] * X), X.T @ d))
    d /= max(1.0, float(np.abs(d).max()))
    bound = max(0.0, 0.5 * float(y @ d))
    basis = np.argsort(np.abs(y - X @ beta_ip), kind="stable")[: X.shape[1]]
    candidates = [beta_ip]
    try:
        candidates.insert(0, np.linalg.solve(X[basis], y[basis]))
    except np.linalg.LinAlgError:  # tied rows in the basis
        pass
    gap = math.inf
    for beta in candidates:
        gap = (float(LAPLACE_MODEL.objective(y - X @ beta)) - bound) / (y.size / 2)
        if gap <= GAP_TOLERANCE:
            return beta, gap
    return None, gap


def _l1_fits(y: TimeSeries, orders: Sequence[int], start: int) -> tuple[MleFit, ...]:
    """Certified exact L1 fits of ``orders`` on rows t = start..T, in one batched
    solve on the standardised window (see "Units" in the module docstring)."""
    orders = list(orders)
    X, targets, e = fit_window(y.values, max(orders), start)
    n = targets.size
    median = _median(targets)
    spread = float(np.mean(np.abs(targets - median))) or 1.0
    y_s = (targets - median) / spread
    X_s = np.hstack([X[:, :1], (X[:, 1:] - median) / spread])
    k = X_s.shape[1]
    # Order p's columns are the first p + 1 of X_s's, so one pass over X_s keeps,
    # for every order, each column that is independent of the kept ones before it.
    kept = independent_columns(X_s)
    masks = np.isin(np.arange(k), kept) & (np.arange(k) <= np.array(orders)[:, None])
    deficient = [order for order, mask in zip(orders, masks) if mask.sum() < order + 1]
    if deficient:  # one warning naming every such order
        at = "order" + "s" * (len(deficient) > 1) + " " + ", ".join(map(str, deficient))
        warnings.warn(f"rank-deficient design at {at}: L1 optimum is non-unique, returning one optimal fit",
                      RuntimeWarning, stacklevel=3)

    duals, betas = _frisch_newton(X_s, y_s, masks)
    fulls, ends, failed, worst = [], [], [], 0.0
    for order, mask, d, beta_ip in zip(orders, masks, duals, betas):
        beta, gap = _certified_beta(X_s[:, mask], y_s, d, beta_ip[mask])
        if beta is None:
            failed.append(order)
            worst = max(worst, gap)
            continue
        full = np.zeros(order + 1)
        full[mask[: order + 1]] = beta
        fulls.append(full)  # with its intercept and objective on fit_window's window:
        ends.append((median * (1.0 - full[1:].sum()) + spread * full[0],
                     spread * float(LAPLACE_MODEL.objective(y_s - X_s[:, mask] @ beta))))
    if failed:
        raise RuntimeError(
            f"L1 fit failed for orders {failed}: duality gap {worst:.1e} of the median fit's "
            f"objective exceeds {GAP_TOLERANCE:.0e}"
        )
    ends = unscale(ends, e, "L1 fit of orders {}: the intercept or objective", orders).tolist()
    floor = _scale_floor(y.values[start - 1 :])
    return tuple(MleFit(Coefficients(np.r_[b0, full[1:]]), max(LAPLACE_MODEL.point_scale(obj, n), floor), obj)
                 for full, (b0, obj) in zip(fulls, ends))


def fit_l1(y: TimeSeries, order: int, start: int) -> MleFit:
    """Exact L1 (median regression) fit on rows t = start..T, a batch of one
    for the interior point of the module docstring.

    The scale slot carries tau = S / (n + 1) over the window's n rows, at
    least ``SCALE_FLOOR`` times the largest |target|; the objective is S.
    Beta is certified as "Vertex and certificate" describes, or else
    ``RuntimeError`` names the order; a rank-deficient design warns and
    returns one optimal beta, zero on the dependent columns.
    """
    return _l1_fits(y, (order,), start)[0]


def fit_ols(y: TimeSeries, order: int, start: int) -> MleFit:
    """Gaussian MLE on rows t = start..T by ``core.least_squares``.

    The scale slot carries sigma = sqrt(RSS / n) over the window's n rows, at
    least ``SCALE_FLOOR`` times the largest |target|; the objective is the RSS.
    A rank-deficient design raises ``DegenerateDataError``, and so does an RSS
    or sigma^2 that over- or underflows in the data's units, where the BIC
    takes log sigma^2 (0 and normal floats pass).
    """
    X, targets, e = fit_window(y.values, order, start)
    n = targets.size
    beta, _, rss = least_squares(X, targets)
    rss = float(unscale(rss, 2 * e))
    scale = max(GAUSSIAN_MODEL.point_scale(rss, n), _scale_floor(y.values[start - 1 :]))
    tiny = np.finfo(float).tiny
    if not (rss == 0 or tiny <= rss < math.inf) or not tiny <= scale * scale < math.inf:
        raise DegenerateDataError(
            f"Gaussian fit of order {order}: RSS {rss:.3g} or sigma^2 {scale * scale:.3g} over- or underflows"
        )
    beta[0] = unscale(beta[0], e, f"Gaussian fit of order {order}: the intercept")
    return MleFit(coeff=Coefficients(beta), scale=scale, objective=rss)


def point_fits(
    y: TimeSeries, orders: Sequence[int], start: int, family: ErrorFamily
) -> tuple[MleFit, ...]:
    """The family's point fit of each order on rows t = start..T.

    Laplace fits are exact L1 fits, all orders in one batched interior-point
    solve; Gaussian fits are least squares, one order at a time.
    """
    if family is ErrorFamily.LAPLACE:
        return _l1_fits(y, orders, start)
    return tuple(fit_ols(y, order, start) for order in orders)
