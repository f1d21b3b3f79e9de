"""Bayesian median autoregression (BayesMAR) for robust time series forecasting.

The model keeps the familiar AR(p) recursion but swaps the Gaussian error for
a Laplace one, so the linear predictor is the conditional median.  The package
covers posterior sampling, BIC-based order selection with model averaging,
multi-step density forecasting, scoring, and replicable simulation/backtest
harnesses, plus a CLI (``bayesmar --help``).
"""

from .core import (
    GAUSSIAN_MODEL,
    LAPLACE_MODEL,
    Coefficients,
    DegenerateDataError,
    ErrorFamily,
    ErrorModel,
    PosteriorDraws,
    TimeSeries,
    diff1,
    lag_design,
)
from .forecast import (
    ForecastResult,
    MethodSpec,
    bma_forecast,
    credible_interval,
    fit_and_forecast,
    forecast_levels,
    point_forecast,
    sample_paths,
)
from .harness import (
    BacktestReport,
    BacktestSpec,
    OrderStudyReport,
    MseStudyReport,
    SimStudyConfig,
    run_backtest,
    run_mse_study,
    run_order_study,
    simulate_series,
)
from .mcmc import McmcConfig, posterior_mean, run_mh, run_mh_batch, tune_step
from .mle_fit import MleFit, fit_l1, fit_ols
from .order_select import OrderEnsemble, bma_weights, build_ensemble
from .scoring import (
    MetricTable,
    crps_laplace_closed,
    crps_sample,
    mae,
    rmse,
)

__version__ = "0.1.0"
