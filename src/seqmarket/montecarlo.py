"""Monte Carlo oracle for the sequential-visit protocol.

Each trial draws the asset quality, one signal and one uniform tie-breaker
per buyer, and a uniform visit order; the seller visits buyers in that order
until one accepts (a buyer with signal ``s`` and tie-breaker ``t`` accepts
iff ``t <= sigma(s)``).  Trials are laid out in blocks of ``BLOCK_TRIALS``,
each with its own counter-derived Philox stream, so results are bit-identical
for a given configuration regardless of how blocks are scheduled.

Per block the stream is read in one fixed order: the quality of every trial,
then a ``trials x n`` array each of signal uniforms, tie-breakers and (with a
focal buyer) visit-order keys.  The arithmetic after the draws reads no
further random numbers, so the kernel can be rewritten without moving an
estimate: ``tests/reference_montecarlo.py`` keeps the earlier kernel, which
sorts the visit order, on the same stream.

*Signals.*  A buyer with signal uniform ``u`` in state ``theta`` gets outcome
``min(#{j : cum_theta[j] < u}, m - 1)``, where ``cum_theta`` is the running sum
of that state's masses; the clip covers a sum that ends below 1.  The kernel
never forms the outcome.  With ``t`` the buyer's tie-breaker, it starts from
the decision ``t <= sigma[m - 1]`` and walks the threshold chain
``j = m - 2, ..., 0``, replacing the decision by ``t <= sigma[j]`` where
``u <= cum_theta[j]``; the last replacement is the outcome's own.  Steps with
``sigma[j] == sigma[j + 1]`` change nothing and are skipped, so a cutoff
strategy takes at most two.

*Visit order.*  The focal buyer is reached when no buyer whose order key is
smaller than the focal buyer's accepts.  A buyer whose key equals the focal
buyer's counts as visited after it; such a tie has probability about
``(n - 1) * 2**-53`` per trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# Loaded with the module (numpy defers it until first use), so the first
# simulation does not pay for importing it.
from numpy.random import Generator, Philox

from .errors import LengthMismatch, NoFocalBuyer
from .equilibrium import MarketSpec, Strategy

BLOCK_TRIALS = 1 << 14


@dataclass(frozen=True)
class SimConfig:
    trials: int
    seed: int
    focal_buyer: int | None = None

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials={self.trials} must be at least 1")


@dataclass(frozen=True)
class SimEstimate:
    """Point estimates with binomial / sample standard errors."""

    trials: int
    trade_prob_H: float
    trade_prob_H_se: float
    trade_prob_L: float
    trade_prob_L_se: float
    surplus: float
    surplus_se: float
    prob_H_given_trade: float
    prob_H_given_trade_se: float
    prob_H_given_no_trade: float
    prob_H_given_no_trade_se: float
    interim_estimate: float | None = None
    interim_se: float | None = None


def _block_rng(seed: int, block: int) -> Generator:
    key = ((block + 1) << 64) | (seed & ((1 << 64) - 1))
    return Generator(Philox(key=key))


def _binomial_se(successes: float, count: float) -> float:
    if count <= 0:
        return math.nan
    p = successes / count
    return math.sqrt(max(p * (1.0 - p), 0.0) / count)


def simulate(spec: MarketSpec, strategy: Strategy, config: SimConfig) -> SimEstimate:
    """Estimate trade probabilities, surplus, and conditional posteriors.

    With a focal buyer set, also estimates the interim belief as the fraction
    of High-quality trials among those where the focal buyer is reached
    before anyone accepts.
    """
    if strategy.m != spec.experiment.m:
        raise LengthMismatch(
            f"strategy has {strategy.m} entries for an experiment with {spec.experiment.m} outcomes"
        )
    focal = config.focal_buyer
    if focal is not None and not 0 <= focal < spec.n:
        raise NoFocalBuyer(f"focal buyer {focal} outside 0..{spec.n - 1}")

    n = spec.n
    sigma = strategy.as_array()
    cum_l = np.cumsum(spec.experiment.p_L_array())
    cum_h = np.cumsum(spec.experiment.p_H_array())
    m = spec.experiment.m
    steps = [j for j in range(m - 2, -1, -1) if sigma[j] != sigma[j + 1]]

    n_high = 0
    n_trade_high = 0
    n_trade_low = 0
    surplus_sum = 0.0
    surplus_sq_sum = 0.0
    n_visited = 0
    n_visited_high = 0

    # Every block draws into the same buffers (the signal, tie-break and
    # visit-order uniforms), so no two blocks' draws are alive at once and
    # the peak memory does not hang on how the allocator reuses freed blocks.
    draws = np.empty((3, min(BLOCK_TRIALS, config.trials), n))
    remaining = config.trials
    block = 0
    while remaining > 0:
        size = min(BLOCK_TRIALS, remaining)
        rng = _block_rng(config.seed, block)
        theta_high = rng.random(size) < spec.rho
        sig_u = rng.random(out=draws[0, :size])
        tie_u = rng.random(out=draws[1, :size])

        # The threshold chain on accept decisions; the xor form of
        # ``where(below, tie_u <= sigma[j], accepts)`` runs without branches.
        accepts = tie_u <= sigma[m - 1]
        for j in steps:
            below = sig_u <= np.where(theta_high, cum_h[j], cum_l[j])[:, None]
            accepts ^= ((tie_u <= sigma[j]) ^ accepts) & below
        trade = accepts.any(axis=1)

        n_high += int(theta_high.sum())
        n_trade_high += int((trade & theta_high).sum())
        n_trade_low += int((trade & ~theta_high).sum())
        gain = np.where(theta_high, 1.0 - spec.c, -spec.c) * trade
        surplus_sum += float(gain.sum())
        surplus_sq_sum += float((gain * gain).sum())

        if focal is not None:
            order_u = rng.random(out=draws[2, :size])
            reached = ~(accepts & (order_u < order_u[:, focal : focal + 1])).any(axis=1)
            n_visited += int(reached.sum())
            n_visited_high += int((reached & theta_high).sum())

        remaining -= size
        block += 1

    trials = config.trials
    n_low = trials - n_high
    n_trade = n_trade_high + n_trade_low
    n_no_trade = trials - n_trade
    mean_surplus = surplus_sum / trials
    var_surplus = max(surplus_sq_sum / trials - mean_surplus**2, 0.0)
    if trials > 1:
        var_surplus *= trials / (trials - 1)

    return SimEstimate(
        trials=trials,
        trade_prob_H=n_trade_high / n_high if n_high else math.nan,
        trade_prob_H_se=_binomial_se(n_trade_high, n_high),
        trade_prob_L=n_trade_low / n_low if n_low else math.nan,
        trade_prob_L_se=_binomial_se(n_trade_low, n_low),
        surplus=mean_surplus,
        surplus_se=math.sqrt(var_surplus / trials),
        prob_H_given_trade=n_trade_high / n_trade if n_trade else math.nan,
        prob_H_given_trade_se=_binomial_se(n_trade_high, n_trade),
        prob_H_given_no_trade=(n_high - n_trade_high) / n_no_trade if n_no_trade else math.nan,
        prob_H_given_no_trade_se=_binomial_se(n_high - n_trade_high, n_no_trade),
        interim_estimate=(n_visited_high / n_visited if n_visited else math.nan)
        if focal is not None
        else None,
        interim_se=_binomial_se(n_visited_high, n_visited) if focal is not None else None,
    )


def estimate_interim(
    spec: MarketSpec, strategy: Strategy, config: SimConfig
) -> tuple[float, float]:
    """Interim-belief estimate and its standard error for the focal buyer."""
    if config.focal_buyer is None:
        raise NoFocalBuyer("estimate_interim needs a focal buyer in the config")
    est = simulate(spec, strategy, config)
    assert est.interim_estimate is not None and est.interim_se is not None
    return est.interim_estimate, est.interim_se
