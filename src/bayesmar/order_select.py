"""BIC order scoring on an aligned window, MAP selection, and BMA weights.

Candidate orders p = 1..K are made comparable by evaluating every fit on the
same last T-K observations (start = K+1), so the likelihoods share a sample
size.  The per-order criterion is

    BIC_p = (p + 2) log(T - K) - 2 log L(beta_hat, scale_hat)

with p + 2 counting the intercept, the p lag coefficients, and the scale; the
likelihood is the family's ``ErrorModel.bic`` at the point fit, which
``mle_fit.point_fits`` forms with the fits, on their window.
Model weights are exp(-BIC/2) normalized across orders, computed after
subtracting the minimum BIC so that realistic magnitudes cannot underflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ErrorFamily, TimeSeries, check_window
from .mle_fit import MleFit, point_fits

__all__ = ["OrderEnsemble", "bma_weights", "build_ensemble"]


@dataclass(frozen=True)
class OrderEnsemble:
    """Point fits of orders 1..K on one aligned window, with their BICs.

    ``fits[p - 1]`` and ``bics[p - 1]`` belong to order p.  The BMA weights
    and the MAP order (the minimum BIC, ties toward the smaller order) are
    read from the BICs.
    """

    fits: tuple[MleFit, ...]
    bics: np.ndarray

    @property
    def max_order(self) -> int:
        return len(self.fits)

    @property
    def weights(self) -> np.ndarray:
        return bma_weights(self.bics)

    @property
    def map_order(self) -> int:
        return int(np.argmin(self.bics)) + 1


def bma_weights(bics: np.ndarray) -> np.ndarray:
    """Normalized exp(-BIC/2) weights, stabilized by subtracting the minimum BIC."""
    bics = np.asarray(bics, dtype=float)
    if bics.size == 0 or not np.all(np.isfinite(bics)):
        raise ValueError("BIC vector must be non-empty and finite")
    shifted = -(bics - bics.min()) / 2.0
    w = np.exp(shifted)
    return w / w.sum()


def build_ensemble(y: TimeSeries, max_order: int, family: ErrorFamily) -> OrderEnsemble:
    """Fit every order 1..max_order on the aligned window and score each by BIC."""
    T = len(y)
    check_window(T - max_order, max_order, f"aligned window of series length {T}: ")
    return OrderEnsemble(*point_fits(y, range(1, max_order + 1), max_order + 1, family))
