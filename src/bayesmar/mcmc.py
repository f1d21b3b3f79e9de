"""Random-walk Metropolis sampling of AR coefficients on their marginal posterior.

The scale parameter is integrated out analytically, so the chain moves only in
beta space on the family's ``ErrorModel.log_marginal``: the Laplace family
targets S(beta)^(-n) with S(beta) = sum |residual| / 2, and the Gaussian family
targets RSS(beta)^(-n/2).  Proposals add a * Uniform(-0.1, 0.1) noise to every
coefficient including the intercept.  The step size a is adapted in
multiplicative nudges once per ``ADAPT_WINDOW`` burn-in iterations until the
window acceptance rate sits inside the target band, then frozen so the
retained draws come from a fixed kernel.

Because a is fixed within a window, the chain computes the residual shifts
X (a step_i) of a whole window's proposals with one matrix product.  A
proposal's residual is then the current residual minus its shift, and each
window starts by recomputing the current residual exactly as
targets - X beta, so rounding never accumulates past one window.  The states
themselves are formed exactly as current + a step_i, so the draws equal those
of a chain that scores each proposal by its own residual unless a log ratio
lands within rounding (about 1e-12) of its uniform draw.

For each retained beta the matching scale is reconstituted by an exact draw
from its conditional posterior (``ErrorModel.draw_scale``, inverse gamma),
which makes the retained (beta, tau) pairs joint posterior samples.  The
returned ``PosteriorDraws`` keep each retained iteration's accept flag; the
CLI's ``fit --trace`` writes them out, and this module writes no files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .core import (
    Coefficients,
    DegenerateDataError,
    ErrorFamily,
    ErrorModel,
    PosteriorDraws,
    TimeSeries,
    as_seed_tuple,
    check_window,
    lag_design,
)

__all__ = ["McmcConfig", "run_mh", "tune_step", "posterior_mean"]

PROPOSAL_HALF_WIDTH = 0.1
ADAPT_WINDOW = 200


@dataclass(frozen=True)
class McmcConfig:
    """Sampler budget, initial proposal step, and seed.

    Burn-in tunes the step toward the fixed acceptance band ``target_band``
    (20-50%); it is a class constant, not a setting.
    """

    target_band: ClassVar[tuple[float, float]] = (0.20, 0.50)
    n_total: int = 40_000
    n_burn: int = 25_000
    initial_step: float = 1.0
    seed: int | tuple[int, ...] = 0

    def __post_init__(self) -> None:
        if self.n_total <= 0 or self.n_burn < 0:
            raise ValueError("n_total must be positive and n_burn nonnegative")
        if self.n_burn >= self.n_total:
            raise ValueError("n_burn must be smaller than n_total")
        if self.initial_step <= 0:
            raise ValueError("initial_step must be positive")


def tune_step(current_a: float, window_acceptance: float, band: tuple[float, float]) -> float:
    """Multiplicative step-size update from one adaptation window.

    Too many acceptances mean the chain is taking timid steps, so widen; too
    few mean it is overreaching, so shrink.  Inside the band the step is kept.
    """
    if current_a <= 0:
        raise ValueError("current_a must be positive")
    lo, hi = band
    if window_acceptance > hi:
        return current_a * 1.25
    if window_acceptance < lo:
        return current_a * 0.8
    return current_a


def _mh_chain(
    X: np.ndarray,
    targets: np.ndarray,
    model: ErrorModel,
    beta0: np.ndarray,
    config: McmcConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Run the random-walk chain on ``model``'s log marginal of the regression
    ``targets ~ X beta``; returns (kept, kept_accept_flags, final_a).

    The chain runs in segments cut at every ``ADAPT_WINDOW`` boundary and at
    ``n_burn`` (which need not be a multiple of the window), so the step a is
    fixed inside each and a segment is wholly burn-in or wholly retained.
    Each segment resyncs the current residual as targets - X beta and
    computes its proposals' residual shifts X (a step_i) in one product; an
    accepted proposal's residual becomes the current one.  Adaptation happens
    at the end of each full burn-in window.  The acceptance decision compares
    the target log ratio against log-uniform noise; the symmetric proposal
    contributes nothing to the ratio.
    """
    dim = beta0.size
    n = targets.size
    n_total, n_burn = config.n_total, config.n_burn
    n_kept = n_total - n_burn
    steps = rng.uniform(-PROPOSAL_HALF_WIDTH, PROPOSAL_HALF_WIDTH, size=(n_total, dim))
    log_accept_noise = np.log(rng.random(n_total))

    a = config.initial_step
    current = np.array(beta0, dtype=float)
    kept = np.empty((n_kept, dim))
    kept_accepted = np.zeros(n_kept, dtype=bool)
    bounds = sorted({*range(0, n_total, ADAPT_WINDOW), n_burn, n_total})

    for s0, s1 in zip(bounds[:-1], bounds[1:]):
        retained = s0 >= n_burn
        a_steps = a * steps[s0:s1]
        shifts = a_steps @ X.T
        resid = targets - X @ current
        current_lp = model.log_marginal(model.objective(resid), n)
        accepted = np.zeros(s1 - s0, dtype=bool)
        for j, (shift, log_u) in enumerate(zip(shifts, log_accept_noise[s0:s1].tolist())):
            proposal_resid = resid - shift
            proposal_lp = model.log_marginal(model.objective(proposal_resid), n)
            log_ratio = proposal_lp - current_lp
            if log_ratio >= 0.0 or log_u < log_ratio:
                current = current + a_steps[j]
                resid, current_lp = proposal_resid, proposal_lp
                accepted[j] = True
            if retained:
                kept[s0 + j - n_burn] = current
        if retained:
            kept_accepted[s0 - n_burn : s1 - n_burn] = accepted
        elif s1 % ADAPT_WINDOW == 0:
            a = tune_step(a, np.count_nonzero(accepted) / ADAPT_WINDOW, config.target_band)

    return kept, kept_accepted, a


def run_mh(
    y: TimeSeries,
    order: int,
    family: ErrorFamily,
    config: McmcConfig,
) -> PosteriorDraws:
    """Sample the joint posterior of (beta, scale) for an order-p fit of ``y``.

    The chain targets the marginal posterior of beta on the full usable window
    t = p+1..T; beta starts at independent Uniform(0, 1) coordinates.  After
    burn-in, each retained beta_i gets an exact conditional scale draw:
    Laplace tau_i ~ InvGamma(shape T-p, rate S(beta_i)), Gaussian
    sigma_i^2 ~ InvGamma((T-p)/2, RSS(beta_i)/2).
    """
    check_window(len(y) - order, order, f"series of length {len(y)}: ")
    X, targets = lag_design(y.values, order, order + 1)
    n = targets.size
    # A perfect fit anywhere in beta space makes the marginal posterior
    # improper; reject such data up front rather than letting the chain wander.
    lsq_resid = targets - X @ np.linalg.lstsq(X, targets, rcond=None)[0]
    if float(lsq_resid @ lsq_resid) <= 1e-20 * max(1.0, float(targets @ targets)):
        raise DegenerateDataError(
            f"data admit an exact order-{order} fit; the scale posterior is improper"
        )
    rng = np.random.default_rng(as_seed_tuple(config.seed))
    model = family.model

    beta0 = rng.random(order + 1)
    kept, kept_accepted, final_a = _mh_chain(X, targets, model, beta0, config, rng)

    objectives = model.objective(targets[None, :] - kept @ X.T)
    if np.any(objectives <= 0.0):
        raise DegenerateDataError("retained draw with zero residual objective")
    tau = model.draw_scale(rng, objectives, n)

    return PosteriorDraws(
        beta_draws=kept,
        tau_draws=tau,
        accepted=kept_accepted,
        step_size=final_a,
        order=order,
        n_total=config.n_total,
        n_burn=config.n_burn,
    )


def posterior_mean(draws: PosteriorDraws) -> Coefficients:
    """Componentwise mean of the retained beta draws (the Bayes estimate)."""
    return Coefficients(beta=draws.beta_draws.mean(axis=0), order=draws.order)

