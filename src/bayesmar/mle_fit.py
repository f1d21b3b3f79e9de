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
``core.SCALE_FLOOR`` on the window of "Units".  ``point_fits`` picks the fits
that match a family and returns them with their BICs.

Solver.  The dual, written with a = (d + 1) / 2 in [0, 1] and X' a = X' 1 / 2,
is solved by the Frisch-Newton primal-dual interior point with Mehrotra
predictor-corrector steps (Portnoy & Koenker 1997, "The Gaussian hare and the
Laplacian tortoise", Statistical Science 12:279).  It starts from a = 1/2,
which is feasible, and beta at the least-squares fit; each step solves one
k x k normal system X' Q X per problem.  The orders of an ensemble share
their aligned rows, so all of them are solved as one batch on the one design
of the largest order.  Order p's mask keeps its first p + 1 columns (less
any dependent one, see below) and zeroes its other coefficients and Newton
directions; their rows and columns of its normal matrix read the identity.
Each step forms every live problem's normal matrix from one product, the
problems' weights Q times the rows' outer products x x' (upper triangle,
mirrored by one gather), and every mat-vec is one product with X or X'.
Every normal system, the start's too, retries a singular matrix with a
small ridge.  Only the matrices that fail are ridged, so one degenerate
order leaves the Newton steps of the others as they are.  The interior
point only starts the crossover below: its last steps are ill-conditioned
(the weights Q span some 24 orders of magnitude), and their rounding,
which depends on the batch, can end it by a neighbouring vertex.

Units.  The fits of an ensemble share one ``core.fit_window`` window, where
each scale is floored and each BIC formed: at 2^e times the window's scale
and objective (4^e for the RSS), -2 log L gains 2 n e log 2, which the BIC
adds to ``ErrorModel.bic`` on the window.  ``core.unscale`` maps the
intercept, objective and scale back; a scale that maps back to 0 raises
``DegenerateDataError`` naming its orders.  ``_l1_fits`` standardises the
window once more: targets and lag columns less the targets' median, over
their mean absolute deviation from it (1 if that is 0).  The optimal basis
is the same, so the solve, the crossover, the certificate and the rank
verdict (``core.independent_columns``) all run there, and a level offset
moves no lag coefficient beyond the rounding of the data themselves.

Vertex and certificate.  The interior point ends near the optimum, not on a
vertex.  A crossover (Barrodale & Roberts 1973; Koenker & d'Orey 1987)
starts from the basis h of the k rows with the smallest |residual| there,
in index order, and its vertex, the solution of X_h beta = y_h.  Its basis
dual is d_i = sign(r_i) off the basis, and d_h from X_h' d_h = -X_N' d_N,
so X' d = 0; a row tied at |r_i| <= 1e-11 keeps the interior point's own
d_i in [-1, 1] (sign 0 there made tied walks cycle).  Scaled into the box, d
certifies beta by the duality gap S(beta) - y' d / 2.  While it fails, the
basis row with the largest |d_j| > 1 leaves along the edge on which S falls
at rate (|d_j| - 1) / 2, and the row at the weighted median of the edge's
breakpoints enters.  Where the start's rows tie or repeat (the next residual
also <= 1e-9, or a singular X_h), the start is instead the first k rows by
|residual| that ``core.independent_columns`` keeps.  On untied windows the
optimum, not the batch's rounding, picks the rows, so a vertex fitted in its
ensemble equals, bit for bit, the same order's lone fit.  The gap is measured
against S_med = sum |y - median(y)| / 2, an upper bound of the optimum, n / 2
on the standardised window.  On 3,360 fits of study (T = 200, orders 1-20),
backtest (T = 104, orders 1-8), Cauchy and 3e9-offset windows the start
certified with no pivot, at gaps below 5e-16 of S_med; one of 320,000
study-ensemble fits took a pivot, and 3,600 fits of tied walks at most 2.
A fit is accepted at ``GAP_TOLERANCE`` = 1e-9.  A revisited basis or n pivots
end the crossover, and ``RuntimeError`` names the orders, so no unchecked
beta is ever returned.  A design of deficient rank is fitted on a maximal set
of independent columns (the others' coefficients are zero), with one warning
naming its orders.
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
    SCALE_FLOOR,
    Coefficients,
    DegenerateDataError,
    ErrorFamily,
    TimeSeries,
    fit_window,
    independent_columns,
    least_squares,
    unscale,
)

__all__ = ["MleFit", "fit_l1", "fit_ols", "point_fits"]

# A fit is certified when its duality gap is at most this share of S_med.
GAP_TOLERANCE = 1e-9

_STOP_GAP = 1e-12  # the interior point stops at this duality gap, as a share of S_med
_MAX_STEPS = 50
_STEP_FRACTION = 0.99995  # of the way to the nearest bound that a step goes
_RIDGE = 1e-13  # of the largest diagonal entry, added only to a singular normal matrix
_TIED = 1e-11  # a residual at most this is tied at 0: its dual is the interior point's, not its sign


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


def _solve_normal(normal: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a normal system or each of a stack; retry a singular matrix alone with a small ridge.

    Near a face of optima (tied data) the rows that carry the weight can be
    collinear, which makes the normal matrix singular in floating point.  Only
    the matrices that fail are ridged, so the others keep their lone solutions.
    """
    try:
        return np.linalg.solve(normal, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if normal.ndim > 2:
            return np.stack([_solve_normal(m, r) for m, r in zip(normal, rhs)])
        ridge = _RIDGE * normal.diagonal().max() * np.eye(normal.shape[-1])
        return np.linalg.solve(normal + ridge, rhs[:, None])[:, 0]


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
    # every problem's X' diag(q) X is its row of q times ``outer``, the rows' x x'
    # upper triangles, mirrored by the gather ``flat``; outside the mask it reads I
    rows, cols = np.nonzero(np.arange(k)[:, None] <= np.arange(k))
    outer = X[:, rows] * X[:, cols]
    flat = np.empty((k, k), dtype=np.intp)
    flat[rows, cols] = flat[cols, rows] = np.arange(rows.size)
    pair, eye, keep = masks[:, :, None] & masks[:, None, :], np.eye(k), masks.astype(float)
    half_sums = 0.5 * X.sum(axis=0)

    # a and s = 1 - a are kept apart, so neither loses its digits near a bound
    a = np.full((masks.shape[0], n), 0.5)
    s = a.copy()
    beta = _solve_normal(np.where(pair, X.T @ X, eye), y @ X) * keep
    resid = y - beta @ X.T
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
            problems, gap, pair, keep, a, s, z, w, beta = (
                v[live] for v in (problems, gap, pair, keep, a, s, z, w, beta)
            )
            if problems.size == 0:
                break
        q = 1.0 / (z / a + w / s)
        normal = np.where(pair, (q @ outer)[:, flat], eye)
        primal_resid = half_sums - a @ X
        dual_resid = y - beta @ X.T - w + z

        def newton(rz, rw):
            # Newton step toward X'a = X'1/2, X beta + w - z = y, a z = rz + a z, s w = rw + s w
            rt = dual_resid - rw / s + rz / a
            db = _solve_normal(normal, (q * rt) @ X - primal_resid) * keep
            da = q * (rt - db @ X.T)
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
    """The exact vertex that a crossover from ``beta_ip`` reaches, if its basis
    dual certifies it; returns (beta or None, the last gap as a share of S_med,
    which is n / 2 on the standardised window ``X``, ``y`` of ``_l1_fits``)."""
    n, k = X.shape
    resid = np.abs(y - X @ beta_ip)
    rows = np.argsort(resid, kind="stable")
    basis, seen, gap = np.sort(rows[:k]), set(), math.inf
    restart = resid[rows[k]] <= 1e-9  # ties: the k smallest rows may be dependent
    for _ in range(n):
        if restart:  # from the first k rows by |residual| that are independent
            basis, restart = np.sort(rows[independent_columns(X[rows].T)][:k]), False
        if basis.tobytes() in seen:
            break
        seen.add(basis.tobytes())
        try:
            beta = np.linalg.solve(X[basis], y[basis])
            r = y - X @ beta
            tied = np.abs(r) <= _TIED
            dual = np.where(tied, d, np.sign(r))  # d = a - s lies in [-1, 1]
            dual[basis] = 0.0
            dual[basis] = np.linalg.solve(X[basis].T, -(X.T @ dual))  # so X' dual = 0
        except np.linalg.LinAlgError:  # a singular basis, such as repeated rows
            restart = True
            continue
        bound = max(0.0, 0.5 * float(y @ dual) / max(1.0, float(np.abs(dual).max())))
        gap = (float(LAPLACE_MODEL.objective(r)) - bound) / (n / 2)
        j = int(np.argmax(np.abs(dual[basis])))
        if gap <= GAP_TOLERANCE or abs(dual[basis[j]]) <= 1.0:
            break
        # row basis[j] leaves along the edge on which S falls at rate
        # (|dual| - 1) / 2; each row the edge crosses raises that slope
        g = X @ np.linalg.solve(X[basis], -np.sign(dual[basis[j]]) * np.eye(k)[j])
        rise = 0.5 * (np.abs(g) + dual * g)
        rise[basis] = 0.0
        crossed = np.flatnonzero(rise > 0)
        crossed = crossed[np.argsort(np.where(tied[crossed], 0.0, r[crossed] / g[crossed]), kind="stable")]
        enters = np.flatnonzero(0.5 * (1.0 - abs(dual[basis[j]])) + np.cumsum(rise[crossed]) >= 0)
        if enters.size == 0:
            break
        basis = np.sort(np.r_[np.delete(basis, j), crossed[enters[0]]])
    return (beta, gap) if gap <= GAP_TOLERANCE else (None, gap)


def _scales_and_bics(model, orders, objectives, n: int, e: int, name: str) -> tuple[list[float], np.ndarray]:
    """Each order's scale, floored on ``fit_window``'s window and mapped back by
    2^e, and its BIC, from its objective on that window (see "Units")."""
    scales = [max(model.point_scale(obj, n), SCALE_FLOOR) for obj in objectives]
    shift = 2 * n * e * math.log(2.0)
    bics = np.array([model.bic(n, p, scale, obj) + shift for p, scale, obj in zip(orders, scales, objectives)])
    if not (scales := unscale(scales, e)).all():  # as a floored scale of subnormal data does
        zeros = [p for p, s in zip(orders, scales) if not s]
        raise DegenerateDataError(f"{name} fit of orders {zeros}: the scale underflows to 0")
    return scales.tolist(), bics


def _l1_fits(y: TimeSeries, orders: Sequence[int], start: int) -> tuple[tuple[MleFit, ...], np.ndarray]:
    """Certified exact L1 fits of ``orders`` on rows t = start..T and their BICs,
    from one batched solve on the standardised window (see "Units")."""
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
    kept = np.zeros(k, dtype=bool)  # a boolean index, at a fifth of np.isin's cost
    kept[independent_columns(X_s)] = True
    masks = kept & (np.arange(k) <= np.array(orders)[:, None])
    deficient = [order for order, mask in zip(orders, masks) if mask.sum() < order + 1]
    if deficient:  # one warning naming every such order
        at = "order" + "s" * (len(deficient) > 1) + " " + ", ".join(map(str, deficient))
        warnings.warn(f"rank-deficient design at {at}: L1 optimum is non-unique, returning one optimal fit",
                      RuntimeWarning, stacklevel=3)

    duals, betas = _frisch_newton(X_s, y_s, masks)
    certified, gaps = zip(*(_certified_beta(X_s[:, mask], y_s, d, beta[mask])
                            for mask, d, beta in zip(masks, duals, betas)))
    failed = [i for i, beta in enumerate(certified) if beta is None]
    if failed:
        raise RuntimeError(
            f"L1 fit failed for orders {[orders[i] for i in failed]}: duality gap "
            f"{max(gaps[i] for i in failed):.1e} of the median fit's objective exceeds {GAP_TOLERANCE:.0e}"
        )
    fulls, ends = [], []
    for order, mask, beta in zip(orders, masks, certified):
        full = np.zeros(order + 1)
        full[mask[: order + 1]] = beta
        fulls.append(full)  # with its intercept and objective on fit_window's window:
        ends.append((median * (1.0 - full[1:].sum()) + spread * full[0],
                     spread * float(LAPLACE_MODEL.objective(y_s - X_s[:, mask] @ beta))))
    scales, bics = _scales_and_bics(LAPLACE_MODEL, orders, [obj for _, obj in ends], n, e, "L1")
    ends = unscale(ends, e, "L1 fit of orders {}: the intercept or objective", orders).tolist()
    return tuple(MleFit(Coefficients(np.r_[b0, full[1:]]), scale, obj)
                 for full, (b0, obj), scale in zip(fulls, ends, scales)), bics


def fit_l1(y: TimeSeries, order: int, start: int) -> MleFit:
    """Exact L1 (median regression) fit on rows t = start..T, a batch of one
    for the interior point of the module docstring: tau = S / (n + 1) over the
    window's n rows, floored as "Units" describes, and beta certified as
    "Vertex and certificate" describes (a rank-deficient design warns and
    returns one optimal beta, zero on the dependent columns)."""
    return _l1_fits(y, (order,), start)[0][0]


def _ols_fits(y: TimeSeries, orders: Sequence[int], start: int) -> tuple[tuple[MleFit, ...], np.ndarray]:
    """Least-squares fits of ``orders`` on rows t = start..T, order p on the first
    p + 1 columns of one window (see "Units" in the module docstring), and their BICs."""
    X, targets, e = fit_window(y.values, max(orders), start)
    betas, rss = zip(*(least_squares(X[:, : order + 1], targets)[::2] for order in orders))
    scales, bics = _scales_and_bics(GAUSSIAN_MODEL, orders, rss, targets.size, e, "Gaussian")
    b0 = unscale([beta[0] for beta in betas], e, "Gaussian fit of orders {}: the intercept", orders).tolist()
    rss = unscale(rss, 2 * e).tolist()
    return tuple(MleFit(Coefficients(np.r_[b, beta[1:]]), scale, obj)
                 for beta, b, scale, obj in zip(betas, b0, scales, rss)), bics


def fit_ols(y: TimeSeries, order: int, start: int) -> MleFit:
    """Gaussian MLE on rows t = start..T by ``core.least_squares``: sigma =
    sqrt(RSS / n) over the window's n rows, floored as "Units" describes.  The
    objective, the RSS, may read inf or 0 near the ends of the float range;
    nothing in the pipeline reads it.  A rank-deficient design raises
    ``DegenerateDataError``."""
    return _ols_fits(y, (order,), start)[0][0]


def point_fits(
    y: TimeSeries, orders: Sequence[int], start: int, family: ErrorFamily
) -> tuple[tuple[MleFit, ...], np.ndarray]:
    """(fits, BICs) of ``orders`` on rows t = start..T, all on one window: exact
    L1 fits in one batched solve (Laplace) or least squares (Gaussian)."""
    return (_l1_fits if family is ErrorFamily.LAPLACE else _ols_fits)(y, orders, start)
