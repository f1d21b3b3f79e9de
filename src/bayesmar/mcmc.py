"""Posterior sampling of AR coefficients and scale: ``run_mh_batch`` samples
several fits at once and ``run_mh`` one.

The scale parameter is integrated out analytically, leaving a marginal
posterior of beta alone.  Both families sample ``core.fit_window``'s window
from one least-squares fit of it (``core.least_squares``): beta_hat, X = QR
and s^2 = RSS(beta_hat) / nu, nu = n - p - 1.  A window whose least-squares
scale sqrt(RSS / n) is at or below ``core.SCALE_FLOOR`` is an exact fit.

The Laplace family's, S(beta)^(-n) with S(beta) = sum |residual| / 2, is
sampled by a random-walk Metropolis chain from beta_hat.  Each proposal adds
a L u, u ~ Uniform(-0.1, 0.1)^(p+1) and L = R^-1 s, whose L L' =
s^2 (X'X)^-1 is the least-squares covariance.  The step size a starts
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
scores each proposal by its own residual unless an objective lands within
rounding (about 1e-12 relative) of its accept threshold.

``run_mh_batch`` streams the draws of its fits (an MSE-study unit's
replications, orders 1..K of one forecast, or the planned orders at every
origin of a backtest unit) in near-equal batches of at most ``BATCH_FITS`` =
32, whose Laplace chains run in lockstep (``_lockstep_chains``).  Each step
forms the C proposals' residuals, their absolute values and their L1 norms
N = 2 S in three reused arrays (``LAPLACE_MODEL.norm``), so it allocates no
array.  A chain keeps everything a lone run has: its own generators, seeded
with its fit's seed, its least-squares start and shape, its own n in S^(-n),
and its own step a, tuned on its own acceptance.  So a fit's draws depend
neither on the other fits in its batch nor on the batches.  Chains of
different (n, p) are zero-padded: design rows and targets at the front,
coefficients at the end.  A padded row has residual 0 and a padded
coefficient steps by 0, so padding adds 0 to every norm and every state.
(The zeros can regroup numpy's pairwise row sum in its last bit, which, like
the window shifts, moves a draw only if an objective lands within rounding
of its threshold.)

A chain decides every accept with one comparison, and takes no log.  Its
target is S^(-n), so the Metropolis rule log u < n log(S / S') holds iff
S' < S q with q = exp(-log u / n), and each segment turns its log-uniforms
into thresholds q once, in place.  A chain tracks its current norm N = 2 S
and accepts iff 0 < N' < N q: exactly the decisions of 0 < S' < S q, as
halving is exact for every norm it can meet.  The set-up's exact-fit screen
gives N >= sqrt(RSS(beta_hat)) > sqrt(n) SCALE_FLOOR >= 2^-40 on the window,
far above the subnormals; and if N q overflows, S q > max/2 >= S' for every
finite S', so both accept.  NaN and +inf reject; N' = 0 is a perfect fit,
which raises ``DegenerateDataError``.  The rule differs from the log rule
only by the rounding of q and of the log ratio, about 1e-13 relative, less
than the 1e-12 by which the window shifts move N', so no band around the
threshold defers to the log rule.

A chain draws its steps and log-uniforms one segment at a time, so while it
runs it holds its kept states, never its whole run of random numbers.  A
window's residual shifts are formed in row blocks of at most
``SHIFT_BLOCK_ROWS`` = 1600 (chains x steps), 8 chains' whole window: a
batch of 32 backtest fits (n = 103) would otherwise form 5.3 MB of shifts at
once.  The steps' own product is never split, since the states are built
from it.  Blocking changes only the shifts' rounding, which the window-shift
argument above covers; on backtest-shaped batches of 17, 32 and 40 chains
every draw was equal to the whole-window product's.  Every segment reuses
one buffer of steps, one of thresholds and one of shifts, so no segment's
arrays outlive it.  The scale draws' objectives S(beta) are formed as each
segment is kept, as the norms of its residuals in a contiguous (m x n_c)
view of one flat buffer, and halved once at the end, so no n_kept x n
residual block exists (24 MB for a default MSE chain: n=198, p=2, 15,000
kept).  That 32-fit batch peaks at 9.3 MiB (``tracemalloc``).

On 2 vCPUs a default MSE-study job's five chains cost 2.46 us per
chain-iteration in one batch and 4.67 us as lone chains (2.26x); with
backtest-shaped chains (orders 1..8, n ~ 100) one costs 1.20 us at 6, 0.93
at 16, 0.86 at 32 and 0.91 at 40 chains, so ``BATCH_FITS`` = 32, as a
batch's memory grows with its chains.  A lone chain (the ``fit`` command's) takes the 2-D path too: a
1-D one saved it only 8%.

The Gaussian family's, RSS(beta)^(-n/2), is exactly a multivariate t with
nu degrees of freedom, location beta_hat and scale matrix s^2 (X'X)^-1
(Zellner 1971, ch. 3).  Each draw is beta_hat + R^-1 z * s / sqrt(w / nu),
z ~ N(0, I), w ~ chi2(nu): independent rows, no burn-in and no tuning.
The joint posterior is Normal-Inverse-Gamma, and the mixing scale
s / sqrt(w / nu) = sqrt(RSS(beta_hat) / w) is its exact sigma draw, given
which beta is normal: each (beta, sigma) row is one conjugate step.

For each retained Laplace beta the matching tau is an exact draw from its
conditional posterior (``_LaplaceModel.draw_scale``, inverse gamma), which
makes the retained (beta, tau) pairs joint posterior samples.  The
returned ``PosteriorDraws`` keep a chain's accept flags; the CLI's
``fit --trace`` writes them out, and this module writes no files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Iterator, Sequence

import numpy as np

from .core import (
    Coefficients,
    DegenerateDataError,
    ErrorFamily,
    GAUSSIAN_MODEL,
    LAPLACE_MODEL,
    SCALE_FLOOR,
    PosteriorDraws,
    TimeSeries,
    binary_scale,
    fit_window,
    least_squares,
    unscale,
)

__all__ = ["McmcConfig", "run_mh", "run_mh_batch", "tune_step", "posterior_mean"]

PROPOSAL_HALF_WIDTH = 0.1
ADAPT_WINDOW = 200
INITIAL_STEP = 16.0  # burn-in's first a; a L u is in least-squares standard errors
# Most rows (chains x steps) of residual shifts formed in one product: 8
# chains' whole window.  A wider batch splits its window into row blocks.
SHIFT_BLOCK_ROWS = 1600
BATCH_FITS = 32  # most fits in one batch; the module docstring gives the cost curve


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


def _lockstep_chains(
    chains: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.random.Generator, np.random.Generator]],
    config: McmcConfig,
) -> list[tuple[np.ndarray, np.ndarray, float, np.ndarray]]:
    """Run one random-walk chain per (X, targets, beta0, shape, step_rng, rng) in ``chains``
    on the Laplace marginal S(beta)^(-n) of ``targets ~ X beta``, all in
    lockstep as the module docstring describes; returns (kept,
    kept_accept_flags, final_a, kept_objectives) per chain.

    Chain c starts at its beta0, and its proposal i adds a_c shape u_i.  The
    chains run in segments cut at every ``ADAPT_WINDOW`` boundary and at
    ``n_burn`` (which need not be a multiple of the window), so each a_c is
    fixed inside a segment and a segment is wholly burn-in or wholly
    retained.  A segment draws its u_i from step_rng and its log-uniforms
    from rng advanced past all n_total (p+1) u_i: as the two start in one
    state, the numbers and final rng of drawing both from rng up front.  It
    then resyncs the residuals as targets - X beta, computes its proposals'
    residual shifts in blocks of at most ``SHIFT_BLOCK_ROWS`` (chains x
    steps), steps by the norm rule 0 < N' < N q of the module docstring,
    rebuilds its states and, at the end of a full burn-in window, tunes each
    a_c.  The kept states and kept norms are formed from the chain's own X
    and targets, so they do not depend on the batch.  (The accept norms
    carry the shifts' and the padding's rounding: reused, they made a
    backtest forecast differ by 4.4e-16 between one and two workers.)
    """
    n_chains = len(chains)
    rows = [targets.size for _, targets, *_ in chains]
    dims = [beta0.size for _, _, beta0, *_ in chains]
    n_max, dim_max = max(rows), max(dims)
    n_total, n_burn = config.n_total, config.n_burn

    X = np.zeros((n_chains, n_max, dim_max))
    targets = np.zeros((n_chains, n_max))
    current = np.zeros((n_chains, dim_max))
    streams = []
    for c, (X_c, targets_c, beta0, shape, step_rng, rng) in enumerate(chains):
        X[c, n_max - rows[c] :, : dims[c]] = X_c
        targets[c, n_max - rows[c] :] = targets_c
        current[c, : dims[c]] = beta0
        rng.bit_generator.advance(n_total * dims[c])  # one 64-bit output per double
        streams.append((step_rng, shape.T, rng))
    Xt = np.ascontiguousarray(X.transpose(0, 2, 1))

    norm = LAPLACE_MODEL.norm
    # chain c's target is N^(-n_c), and a log-uniform's threshold q = exp(log u / -n_c)
    exponents = -np.array(rows, dtype=float)[:, None]
    a = np.full(n_chains, INITIAL_STEP)
    kept = [np.empty((n_total - n_burn, dim)) for dim in dims]
    kept_accepted = np.zeros((n_chains, n_total - n_burn), dtype=bool)
    kept_norms = np.empty((n_chains, n_total - n_burn))
    bounds = sorted({*range(0, n_total, ADAPT_WINDOW), n_burn, n_total})
    # Every segment reuses one window of steps (scaled in place to the
    # proposals, then zeroed where rejected and summed into the states, so
    # padded coefficients stay 0), one of thresholds, one block of residual
    # shifts and one flat buffer of a kept chain's residuals; every step
    # reuses one proposal residual, its absolute values and their sums.
    window = min(ADAPT_WINDOW, n_total)
    block = max(1, SHIFT_BLOCK_ROWS // n_chains)
    steps_buffer = np.zeros((n_chains, max(window, 2), dim_max))  # 2 rows for a one-step segment
    threshold_buffer = np.empty((n_chains, window))
    fit_buffer = np.empty(window * n_max)
    # shifts are stored step-major, so step j's (chains, rows) are contiguous
    shift_buffer = np.empty((min(block, window), n_chains, n_max))
    proposal_buffer = np.empty((n_chains, n_max))
    abs_buffer = np.empty_like(proposal_buffer)
    sum_buffer = np.empty(n_chains)

    for s0, s1 in zip(bounds[:-1], bounds[1:]):
        retained = s0 >= n_burn
        m = s1 - s0
        steps = steps_buffer[:, :m]
        thresholds = threshold_buffer[:, :m]
        for c, (step_rng, shape_t, rng) in enumerate(streams):
            u = step_rng.uniform(-PROPOSAL_HALF_WIDTH, PROPOSAL_HALF_WIDTH, size=(m, dims[c]))
            # numpy multiplies a single row by gemv, which rounds unlike the
            # gemm of a longer block, so a one-step segment goes as two rows
            u = np.tile(u, (2, 1)) if m == 1 else u
            np.matmul(u, shape_t, out=steps_buffer[c, : len(u), : dims[c]])
            rng.random(out=thresholds[c])
        steps *= a[:, None, None]
        np.log(thresholds, out=thresholds)
        thresholds /= exponents
        np.exp(thresholds, out=thresholds)
        resid = targets - (X @ current[:, :, None])[:, :, 0]
        current_n = norm(resid).tolist()
        accepted = np.zeros((n_chains, m), dtype=bool)
        n_blocks = -(-m // block)
        edges = [m * b // n_blocks for b in range(n_blocks + 1)]
        for j0, j1 in zip(edges[:-1], edges[1:]):
            shifts = shift_buffer[: j1 - j0]
            np.matmul(steps[:, j0:j1], Xt, out=shifts.transpose(1, 0, 2))
            for j, (shift, q) in enumerate(zip(shifts, thresholds[:, j0:j1].T.tolist()), j0):
                proposal = np.subtract(resid, shift, proposal_buffer)
                for c, n_c in enumerate(norm(proposal, abs_buffer, sum_buffer).tolist()):
                    if not 0.0 < n_c < current_n[c] * q[c]:  # NaN and +inf reject
                        if n_c == 0.0:
                            raise DegenerateDataError(
                                "zero residual objective: data admit a perfect fit and the posterior is improper"
                            )
                        continue
                    current_n[c] = n_c
                    accepted[c, j] = True
                    resid[c] = proposal[c]
        steps[~accepted] = 0.0
        steps[:, 0] += current
        states = np.add.accumulate(steps, axis=1, out=steps)
        current = states[:, -1].copy()
        if retained:
            for c, (X_c, targets_c, *_) in enumerate(chains):
                kept_c = kept[c][s0 - n_burn : s1 - n_burn]
                kept_c[:] = states[c, :, : dims[c]]
                fits = fit_buffer[: m * rows[c]].reshape(m, rows[c])  # contiguous, unlike an (m, n_max) view
                np.matmul(kept_c, X_c.T, out=fits)
                kept_norms[c, s0 - n_burn : s1 - n_burn] = norm(np.subtract(targets_c, fits, out=fits), fits)
            kept_accepted[:, s0 - n_burn : s1 - n_burn] = accepted
        elif s1 % ADAPT_WINDOW == 0:
            rates = np.count_nonzero(accepted, axis=1) / ADAPT_WINDOW
            a = np.array([tune_step(a_c, r, config.target_band) for a_c, r in zip(a, rates)])

    kept_norms *= 0.5  # the objectives S = N / 2
    return [(kept[c], kept_accepted[c], float(a[c]), kept_norms[c]) for c in range(n_chains)]


def run_mh_batch(
    fits: Sequence[tuple[TimeSeries, int, int | tuple[int, ...]]],
    family: ErrorFamily,
    config: McmcConfig,
) -> Iterator[PosteriorDraws]:
    """Yield the joint posterior draws of (beta, scale) for each (y, order, seed) in ``fits``.

    Fit i is an order-p_i fit of y_i on its full usable window t = p_i+1..T,
    drawn from generators seeded with seed_i (``config.seed`` is not read).
    The fits are sampled in ceil(N / ``BATCH_FITS``) batches, larger first,
    whose sizes differ by at most 1, each set up only when it is reached: a
    rank-deficient design or an exact fit (see the module docstring) raises
    ``DegenerateDataError`` before its batch samples, and an intercept or
    scale draw that overflows in the data's units once it has.
    Gaussian draws n_total - n_burn exact (beta, sigma) pairs per fit, each
    sigma the mixing scale of its multivariate-t beta.  Laplace runs a batch's
    chains in lockstep, keeps each one's n_total - n_burn post-burn-in states,
    and gives each kept beta_i an exact conditional scale draw tau_i ~
    InvGamma(shape T-p, rate S(beta_i)), S(beta_i) as the chain formed it on
    keeping beta_i.  A fit's draws do not depend on the other fits or batches.
    """
    done = 0
    for left in range(-(-len(fits) // BATCH_FITS), 0, -1):  # batches left
        size = -(-(len(fits) - done) // left)
        batch = _sample_batch(fits[done : done + size], family, config)[::-1]
        done += size
        while batch:  # nothing handed on is kept, so only one batch's draws are ever held
            yield batch.pop()


def _sample_batch(batch: Sequence, family: ErrorFamily, config: McmcConfig) -> list[PosteriorDraws]:
    """The draws of each fit in ``batch``, set up once here: its window, its least-squares fit and the
    exact-fit screen.  Gaussian fits are drawn exactly, one by one, and Laplace ones as chains in
    lockstep, each on two generators seeded alike (its steps'; its log-uniforms' and scales')."""
    setups = []
    for y, order, _ in batch:
        X, targets, e = fit_window(y.values, order, order + 1, f"series of length {len(y)}: ")
        beta_hat, R, rss = least_squares(X, targets)
        # a perfect fit anywhere in beta space makes the marginal posterior improper
        if GAUSSIAN_MODEL.point_scale(rss, targets.size) <= SCALE_FLOOR:
            raise DegenerateDataError(f"data admit an exact order-{order} fit; the scale posterior is improper")
        nu = targets.size - order - 1
        setups.append((X, targets, e, beta_hat, np.linalg.inv(R), math.sqrt(rss / nu), nu))
    n_kept = config.n_total - config.n_burn
    samples, n_burn = [], 0
    if family is ErrorFamily.GAUSSIAN:
        for (_, _, seed), (_, _, _, beta_hat, R_inv, s_hat, nu) in zip(batch, setups):
            rng = np.random.default_rng(seed)
            z = rng.standard_normal((n_kept, beta_hat.size))
            w = rng.chisquare(nu, n_kept)
            sigma = s_hat / np.sqrt(w / nu)  # sqrt(RSS / w): sigma^2 ~ InvGamma(nu/2, RSS/2)
            samples.append((beta_hat + (z @ R_inv.T) * sigma[:, None], sigma, None, None))
    else:
        chains = [
            (X, targets, beta_hat, R_inv * s_hat, np.random.default_rng(seed), np.random.default_rng(seed))
            for (_, _, seed), (X, targets, _, beta_hat, R_inv, s_hat, _) in zip(batch, setups)
        ]
        for (_, targets, *_, rng), (kept, accepted, step_size, objectives) in zip(
            chains, _lockstep_chains(chains, config)
        ):
            if np.any(objectives <= 0.0):
                raise DegenerateDataError("retained draw with zero residual objective")
            tau = LAPLACE_MODEL.draw_scale(rng, objectives, targets.size)
            samples.append((kept, tau, accepted, step_size))
        n_burn = config.n_burn
    draws = []
    for (_, order, _), (_, _, e, *_), (beta, scale, accepted, step_size) in zip(batch, setups, samples):
        # back to the data's units, one draw array at a time
        what = f"order-{order} fit: an intercept or scale draw"
        beta[:, 0] = unscale(beta[:, 0], e, what)
        scale[:] = unscale(scale, e, what)
        draws.append(PosteriorDraws(beta, scale, accepted, step_size, n_burn))
    return draws


def run_mh(
    y: TimeSeries,
    order: int,
    family: ErrorFamily,
    config: McmcConfig,
) -> PosteriorDraws:
    """Sample the joint posterior of (beta, scale) for an order-p fit of ``y``
    seeded with ``config.seed``: ``run_mh_batch`` of one fit."""
    return next(run_mh_batch([(y, order, config.seed)], family, config))


def posterior_mean(draws: PosteriorDraws) -> Coefficients:
    """Componentwise mean of the retained beta draws (the Bayes estimate), formed at 2^(-e)."""
    beta, e = binary_scale(draws.beta_draws)
    return Coefficients(unscale(beta.mean(axis=0), e, "the posterior mean"))

