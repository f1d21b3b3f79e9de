"""Forecast evaluation: RMSE, MAE, sample CRPS, and the metric table.

The CRPS uses the energy form

    CRPS = mean_i |x_i - y| - (1 / (2 M^2)) sum_ij |x_i - x_j|

with the pairwise term computed from the sorted sample in O(M log M).  A
closed-form Laplace CRPS is provided as an independent oracle for the sample
estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "rmse",
    "mae",
    "crps_sample",
    "crps_laplace_closed",
    "MetricTable",
]


def rmse(errors: np.ndarray) -> float:
    """Root mean squared error."""
    errors = np.asarray(errors, dtype=float)
    if errors.size == 0:
        raise ValueError("errors must be non-empty")
    return math.sqrt(float((errors * errors).mean()))


def mae(errors: np.ndarray) -> float:
    """Mean absolute error."""
    errors = np.asarray(errors, dtype=float)
    if errors.size == 0:
        raise ValueError("errors must be non-empty")
    return float(np.abs(errors).mean())


def crps_sample(samples: np.ndarray, observed: float) -> float:
    """Sample (energy-form) CRPS of a predictive ensemble against one outcome."""
    x = np.sort(np.asarray(samples, dtype=float))
    m = x.size
    if m < 2:
        raise ValueError("need at least 2 samples")
    term_abs = float(np.abs(x - observed).mean())
    # sum_ij |x_i - x_j| = 2 * sum_k (2k - m + 1) x_(k) over the sorted sample
    k = np.arange(m)
    term_pair = float(((2.0 * k - m + 1.0) * x).sum()) / (m * m)
    return term_abs - term_pair


def crps_laplace_closed(mu: float, b: float, observed: float) -> float:
    """Closed-form CRPS of a Laplace(mu, b) forecast distribution."""
    if b <= 0:
        raise ValueError("scale b must be positive")
    d = abs(observed - mu)
    return d + b * math.exp(-d / b) - 0.75 * b


@dataclass(frozen=True)
class MetricTable:
    """Per-method, per-horizon metric values with changes relative to a baseline.

    ``values`` maps a metric name ("rmse", "mae", "crps") to an array of shape
    (n_methods, n_horizons).  Relative changes are percent differences against
    the baseline method's row; the baseline row is exactly zero, and entries
    where the baseline value is zero are NaN.
    """

    methods: tuple[str, ...]
    horizons: tuple[int, ...]
    values: dict[str, np.ndarray]
    baseline: str

    def __post_init__(self) -> None:
        if self.baseline not in self.methods:
            raise ValueError(f"baseline {self.baseline!r} not among methods")
        shape = (len(self.methods), len(self.horizons))
        for name, arr in self.values.items():
            if arr.shape != shape:
                raise ValueError(f"metric {name!r} has shape {arr.shape}, expected {shape}")
            if np.any(arr < 0):
                raise ValueError(f"metric {name!r} contains negative entries")

    def relative(self, metric: str) -> np.ndarray:
        """Percent change of each method against the baseline, per horizon."""
        arr = self.values[metric]
        base_row = arr[self.methods.index(self.baseline)]
        out = np.full(arr.shape, np.nan)
        ok = base_row > 0
        out[:, ok] = (arr[:, ok] / base_row[ok] - 1.0) * 100.0
        out[self.methods.index(self.baseline), :] = 0.0
        return out

