"""Posterior sampling of AR coefficients and scale: ``run_mh_batch`` samples
several fits at once and ``run_mh`` one.

The scale parameter is integrated out analytically, leaving a marginal
posterior of beta alone.  Both families start from one least-squares fit
(``core.least_squares``): beta_hat, X = QR and s^2 = RSS(beta_hat) / nu,
nu = n - p - 1.  All of it scales exactly with the data, so under y -> 2^k y
both samplers' intercept and scale draws scale by 2^k and the rest is equal
(for the chain, unless a log ratio lands within rounding of its uniform draw).
The perfect-fit screen is relative (RSS <= 1e-20 targets'targets) for the
same reason.

The Laplace family's, S(beta)^(-n) with S(beta) = sum |residual| / 2, is
sampled by a random-walk Metropolis chain on ``log_marginal`` from beta_hat.
Each proposal adds a L u, u ~ Uniform(-0.1, 0.1)^(p+1) and L = R^-1 s, whose
L L' = s^2 (X'X)^-1 is the least-squares covariance.  The step size a starts
at ``INITIAL_STEP`` and is adapted in multiplicative nudges once per
``ADAPT_WINDOW`` burn-in iterations until the window acceptance rate sits
inside the target band, then frozen so the retained draws come from a fixed
kernel.

Because a is fixed within a window, the chain computes the residual shifts
X (a step_i) of a whole window's proposals with one matrix product.  A
proposal's residual is then the current residual minus its shift, and each
window starts by recomputing the current residual exactly as
targets - X beta, so rounding never accumulates past one window.  The states
themselves are formed exactly as current + a step_i, one accepted step at a
time, at the end of each window, so the draws equal those of a chain that
scores each proposal by its own residual unless a log ratio lands within
rounding (about 1e-12) of its uniform draw.

All the Laplace chains of one ``run_mh_batch`` call run in lockstep
(``_lockstep_chains``): the replications of an MSE-study unit, or orders
1..K of one forecast.  Each step forms one (C x n) array of proposal
residuals and one row-wise objective, and each chain still decides its
accept through ``log_marginal``.  A chain keeps everything a lone run has:
its own generator, seeded with its fit's seed, its pre-drawn steps and
log-uniforms, its least-squares start and shape, its own n in -n log S, and
its own step a, tuned on its own acceptance.  So a fit's draws do not depend
on the other fits in its batch.  Chains of different (n, p) are zero-padded:
design rows and targets at the front, coefficients at the end.  A padded row
has residual 0 and a padded coefficient steps by 0, so padding adds 0 to
every objective and every state.  (The zeros can regroup numpy's pairwise
row sum in its last bit, which, like the window shifts, moves a draw only if
a log ratio lands within rounding of its uniform draw.)  A chain holds
``chain_bytes`` while it runs, about 2 MB for a default MSE chain (n=198,
p=2, 40,000 iterations); ``harness`` caps a unit's chains by a byte budget.
The scale draws need an n_kept x n objective block per fit (24 MB for that
chain), so they are drawn one fit at a time after the chains, never stacked.

On 2 vCPUs a default MSE-study job (five replications in one batch) ran
1.79x the replications per second of lone chains, and a backtest (orders
1..8 per origin and family) 1.94x the origins.  A lone chain (C = 1, the
``fit`` command's) steps on 1-D residuals, because numpy calls on a one-row
2-D array cost about a fifth more per step; it costs 1.02-1.04x the time per
iteration of the former single-chain loop.

The Gaussian family's, RSS(beta)^(-n/2), is exactly a multivariate t with
nu degrees of freedom, location beta_hat and scale matrix s^2 (X'X)^-1
(Zellner 1971, ch. 3).  Each draw is beta_hat + R^-1 z * s / sqrt(w / nu),
z ~ N(0, I), w ~ chi2(nu): independent rows, no burn-in and no tuning.

For each retained beta the matching scale is reconstituted by an exact draw
from its conditional posterior (``ErrorModel.draw_scale``, inverse gamma),
which makes the retained (beta, scale) pairs joint posterior samples.  The
returned ``PosteriorDraws`` keep a chain's accept flags; the CLI's
``fit --trace`` writes them out, and this module writes no files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Sequence

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
    least_squares,
)

__all__ = ["McmcConfig", "run_mh", "run_mh_batch", "chain_bytes", "tune_step", "posterior_mean"]

PROPOSAL_HALF_WIDTH = 0.1
ADAPT_WINDOW = 200
INITIAL_STEP = 16.0  # burn-in's first a; a L u is in least-squares standard errors


@dataclass(frozen=True)
class McmcConfig:
    """Sampler budget and seed.

    Burn-in tunes the step toward the fixed acceptance band ``target_band``
    (20-50%); it is a class constant, not a setting.  Exact (Gaussian) draws
    read only the seed and the kept count n_total - n_burn.
    """

    target_band: ClassVar[tuple[float, float]] = (0.20, 0.50)
    n_total: int = 40_000
    n_burn: int = 25_000
    seed: int | tuple[int, ...] = 0

    def __post_init__(self) -> None:
        if self.n_total <= 0 or self.n_burn < 0:
            raise ValueError("n_total must be positive and n_burn nonnegative")
        if self.n_burn >= self.n_total:
            raise ValueError("n_burn must be smaller than n_total")


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


def chain_bytes(rows: int, order: int, config: McmcConfig) -> int:
    """Bytes one chain of ``rows`` residuals at ``order`` holds in ``_lockstep_chains``:
    its pre-drawn steps and log-uniforms, one window of residual shifts and its
    kept states."""
    dim = order + 1
    n_kept = config.n_total - config.n_burn
    return 8 * (config.n_total * (dim + 1) + ADAPT_WINDOW * rows + n_kept * dim)


def _lockstep_chains(
    chains: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.random.Generator]],
    model: ErrorModel,  # one with a log_marginal: the Laplace model
    config: McmcConfig,
) -> list[tuple[np.ndarray, np.ndarray, float]]:
    """Run one random-walk chain per (X, targets, beta0, shape, rng) in ``chains``
    on ``model``'s log marginal of ``targets ~ X beta``, all in lockstep;
    returns (kept, kept_accept_flags, final_a) per chain.

    Chain c starts at its beta0, and its proposal i adds a_c shape u_i, with
    the u_i and the log-uniforms drawn up front from its rng.  The chains run
    in segments cut at every ``ADAPT_WINDOW`` boundary and at ``n_burn``
    (which need not be a multiple of the window), so each a_c is fixed inside
    a segment and a segment is wholly burn-in or wholly retained.  A segment
    resyncs the residuals as targets - X beta, computes its proposals' residual
    shifts in one product, steps, rebuilds its states and, at the end of a
    full burn-in window, tunes each a_c.  The symmetric proposal contributes
    nothing to the log ratio, compared against log-uniform noise.  Chains of
    different sizes are zero-padded as the module docstring describes.
    """
    n_chains = len(chains)
    rows = [targets.size for _, targets, _, _, _ in chains]
    dims = [beta0.size for _, _, beta0, _, _ in chains]
    n_max, dim_max = max(rows), max(dims)
    n_total, n_burn = config.n_total, config.n_burn
    n_kept = n_total - n_burn

    X = np.zeros((n_chains, n_max, dim_max))
    targets = np.zeros((n_chains, n_max))
    current = np.zeros((n_chains, dim_max))
    steps = np.zeros((n_chains, n_total, dim_max))
    log_accept_noise = np.empty((n_chains, n_total))
    for c, (X_c, targets_c, beta0, shape, rng) in enumerate(chains):
        X[c, n_max - rows[c] :, : dims[c]] = X_c
        targets[c, n_max - rows[c] :] = targets_c
        current[c, : dims[c]] = beta0
        u = rng.uniform(-PROPOSAL_HALF_WIDTH, PROPOSAL_HALF_WIDTH, size=(n_total, dims[c]))
        steps[c, :, : dims[c]] = u @ shape.T
        log_accept_noise[c] = np.log(rng.random(n_total))
    Xt = X.transpose(0, 2, 1)

    objective, log_marginal = model.objective, model.log_marginal
    # A lone chain steps on 1-D residuals: numpy's calls on a one-row 2-D array
    # cost about a fifth more per step than on a vector.
    lone = n_chains == 1
    a = np.full(n_chains, INITIAL_STEP)
    kept = np.empty((n_chains, n_kept, dim_max))
    kept_accepted = np.zeros((n_chains, n_kept), dtype=bool)
    bounds = sorted({*range(0, n_total, ADAPT_WINDOW), n_burn, n_total})

    for s0, s1 in zip(bounds[:-1], bounds[1:]):
        retained = s0 >= n_burn
        a_steps = a[:, None, None] * steps[:, s0:s1]
        shifts = a_steps @ Xt
        resid = targets - (X @ current[:, :, None])[:, :, 0]
        current_lp = [log_marginal(s, n) for s, n in zip(objective(resid).tolist(), rows)]
        if lone:
            resid, shifts = resid[0], shifts[0]
        else:
            shifts = shifts.transpose(1, 0, 2)  # shifts[j] is (chains, rows)
        accepted = np.zeros((n_chains, s1 - s0), dtype=bool)
        for j, (shift, log_us) in enumerate(zip(shifts, log_accept_noise[:, s0:s1].T.tolist())):
            proposal_resid = resid - shift
            objectives = objective(proposal_resid)
            for c, s in enumerate([objectives] if lone else objectives.tolist()):
                proposal_lp = log_marginal(s, rows[c])
                log_ratio = proposal_lp - current_lp[c]
                if log_ratio >= 0.0 or log_us[c] < log_ratio:
                    current_lp[c] = proposal_lp
                    accepted[c, j] = True
                    if lone:
                        resid = proposal_resid
                    else:
                        resid[c] = proposal_resid[c]
        path = np.where(accepted[:, :, None], a_steps, 0.0)
        path[:, 0] += current
        states = np.add.accumulate(path, axis=1)
        current = states[:, -1]
        if retained:
            kept[:, s0 - n_burn : s1 - n_burn] = states
            kept_accepted[:, s0 - n_burn : s1 - n_burn] = accepted
        elif s1 % ADAPT_WINDOW == 0:
            rates = np.count_nonzero(accepted, axis=1) / ADAPT_WINDOW
            a = np.array([tune_step(a_c, r, config.target_band) for a_c, r in zip(a, rates)])

    return [
        (np.ascontiguousarray(kept[c, :, : dims[c]]), kept_accepted[c], float(a[c]))
        for c in range(n_chains)
    ]


def run_mh_batch(
    fits: Sequence[tuple[TimeSeries, int, int | tuple[int, ...]]],
    family: ErrorFamily,
    config: McmcConfig,
) -> list[PosteriorDraws]:
    """Sample the joint posterior of (beta, scale) for each (y, order, seed) in ``fits``.

    Fit i is an order-p_i fit of y_i on its full usable window t = p_i+1..T,
    drawn from a generator seeded with seed_i (``config.seed`` is not read);
    a rank-deficient design or a perfect fit raises ``DegenerateDataError``.
    Laplace runs all the chains in lockstep and keeps each one's
    n_total - n_burn post-burn-in states; Gaussian draws n_total - n_burn exact
    multivariate-t rows per fit.  Each kept beta_i then gets an exact
    conditional scale draw: Laplace tau_i ~ InvGamma(shape T-p, rate
    S(beta_i)), Gaussian sigma_i^2 ~ InvGamma((T-p)/2, RSS(beta_i)/2).  A
    fit's draws do not depend on the other fits in the batch.
    """
    prepared = []
    for y, order, seed in fits:
        check_window(len(y) - order, order, f"series of length {len(y)}: ")
        X, targets = lag_design(y.values, order, order + 1)
        beta_hat, R, rss = least_squares(X, targets)
        # A perfect fit anywhere in beta space makes the marginal posterior
        # improper; reject such data up front rather than letting the chain
        # wander.  The test is relative, so it holds in any units.
        if rss <= 1e-20 * float(targets @ targets):
            raise DegenerateDataError(
                f"data admit an exact order-{order} fit; the scale posterior is improper"
            )
        nu = targets.size - order - 1
        rng = np.random.default_rng(as_seed_tuple(seed))
        prepared.append((X, targets, beta_hat, np.linalg.inv(R), math.sqrt(rss / nu), nu, rng))
    model = family.model

    if family is ErrorFamily.LAPLACE:
        chains = [(X, t, b, R_inv * s_hat, rng) for X, t, b, R_inv, s_hat, _, rng in prepared]
        samples = _lockstep_chains(chains, model, config)
        n_burn = config.n_burn
    else:
        samples = []
        for X, _, beta_hat, R_inv, s_hat, nu, rng in prepared:
            z = rng.standard_normal((config.n_total - config.n_burn, beta_hat.size))
            w = rng.chisquare(nu, z.shape[0])
            kept = beta_hat + (z @ R_inv.T) * (s_hat / np.sqrt(w / nu))[:, None]
            samples.append((kept, None, None))
        n_burn = 0

    draws = []
    for (X, targets, *_, rng), (kept, accepted, step_size) in zip(prepared, samples):
        objectives = model.objective(targets[None, :] - kept @ X.T)
        if np.any(objectives <= 0.0):
            raise DegenerateDataError("retained draw with zero residual objective")
        tau = model.draw_scale(rng, objectives, targets.size)
        draws.append(PosteriorDraws(kept, tau, accepted, step_size, n_burn))
    return draws


def run_mh(
    y: TimeSeries,
    order: int,
    family: ErrorFamily,
    config: McmcConfig,
) -> PosteriorDraws:
    """Sample the joint posterior of (beta, scale) for an order-p fit of ``y``
    seeded with ``config.seed``: ``run_mh_batch`` of one fit."""
    return run_mh_batch([(y, order, config.seed)], family, config)[0]


def posterior_mean(draws: PosteriorDraws) -> Coefficients:
    """Componentwise mean of the retained beta draws (the Bayes estimate)."""
    return Coefficients(draws.beta_draws.mean(axis=0))

