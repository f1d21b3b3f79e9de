"""BIC order scoring on an aligned window, MAP selection, and BMA weights.

Candidate orders p = 1..K are made comparable by evaluating every fit on the
same last T-K observations (start = K+1), so the likelihoods share a sample
size.  The per-order criterion is

    BIC_p = (p + 2) log(T - K) - 2 log L(beta_hat, scale_hat)

with p + 2 counting the intercept, the p lag coefficients, and the scale; the
likelihood is the family's ``ErrorModel.bic`` at the point fit.
Model weights are exp(-BIC/2) normalized across orders, computed after
subtracting the minimum BIC so that realistic magnitudes cannot underflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ErrorFamily, TimeSeries
from .mle_fit import MleFit, point_fits

__all__ = ["OrderEnsemble", "bma_weights", "build_ensemble"]


@dataclass(frozen=True)
class OrderEnsemble:
    """Per-order fits with their BIC values and normalized model weights."""

    max_order: int
    fits: tuple[MleFit, ...]
    bics: np.ndarray
    weights: np.ndarray
    map_order: int

    def __post_init__(self) -> None:
        if len(self.fits) != self.max_order:
            raise ValueError("need one fit per candidate order")
        if self.bics.shape != (self.max_order,) or self.weights.shape != (self.max_order,):
            raise ValueError("bics and weights must have one entry per order")
        if abs(float(self.weights.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        if not 1 <= self.map_order <= self.max_order:
            raise ValueError("map_order out of range")


def bma_weights(bics: np.ndarray) -> np.ndarray:
    """Normalized exp(-BIC/2) weights, stabilized by subtracting the minimum BIC."""
    bics = np.asarray(bics, dtype=float)
    if bics.size == 0 or not np.all(np.isfinite(bics)):
        raise ValueError("BIC vector must be non-empty and finite")
    shifted = -(bics - bics.min()) / 2.0
    w = np.exp(shifted)
    return w / w.sum()


def build_ensemble(y: TimeSeries, max_order: int, family: ErrorFamily) -> OrderEnsemble:
    """Fit every order 1..max_order on the aligned window and weight by BIC.

    Ties in the BIC break toward the smaller order.
    """
    T = len(y)
    if max_order < 1:
        raise ValueError(f"max_order must be at least 1, got {max_order}")
    n = T - max_order
    if n < max_order + 2:
        raise ValueError(
            f"aligned window of {n} rows too small for order {max_order} (series length {T})"
        )
    fits = point_fits(y, range(1, max_order + 1), max_order + 1, family)
    bics = np.array(
        [family.model.bic(n, p, fit.scale, fit.objective) for p, fit in enumerate(fits, start=1)]
    )
    weights = bma_weights(bics)
    map_order = int(np.argmin(bics)) + 1
    return OrderEnsemble(
        max_order=max_order,
        fits=fits,
        bics=bics,
        weights=weights,
        map_order=map_order,
    )

