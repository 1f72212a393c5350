"""The Monte Carlo block kernel in plain per-outcome form, kept as the
test reference.

Per block it reads every array of the stream layout that
``seqmarket.montecarlo`` uses, including those the package kernel skips (the
reserved region included, which no decision reads), then finds each
buyer's signal from a ``size x n x m`` comparison against the cumulative
masses and decides whether the focal buyer is reached by sorting the visit
order.  A buyer whose signal uniform ``u`` falls in outcome ``s``, the
interval ``(lo, hi]`` of its state's cumulative masses (the top one ending
at 1), accepts iff ``sigma[s] == 1``, or ``0 < sigma[s] < 1`` and
``u > hi - sigma[s] * (hi - lo)``: it accepts in the top ``sigma[s]`` share
of the interval.  It is slower but plain, and the package kernel must
reproduce its estimates exactly.
"""

from __future__ import annotations

import math

import numpy as np

from seqmarket.equilibrium import MarketSpec, Strategy
from seqmarket.errors import LengthMismatch, NoFocalBuyer
from seqmarket.montecarlo import BLOCK_TRIALS, SimConfig, SimEstimate, _binomial_se, _block_rng


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
    mixing = (0.0 < sigma) & (sigma < 1.0)

    def positions(cum: np.ndarray) -> np.ndarray:
        """Each outcome's acceptance position in one state."""
        lo, hi = np.append(0.0, cum[:-1]), np.append(cum[:-1], 1.0)
        return hi - sigma * (hi - lo)

    x_l, x_h = positions(cum_l), positions(cum_h)

    n_high = 0
    n_trade_high = 0
    n_trade_low = 0
    surplus_sum = 0.0
    surplus_sq_sum = 0.0
    n_visited = 0
    n_visited_high = 0

    remaining = config.trials
    block = 0
    while remaining > 0:
        size = min(BLOCK_TRIALS, remaining)
        rng = _block_rng(config.seed, block)
        theta_high = rng.random(size) < spec.rho
        sig_u = rng.random((size, n))
        rng.random((size, n))  # the reserved region
        if focal is not None:
            order_u = rng.random((size, n))

        cum = np.where(theta_high[:, None], cum_h[None, :], cum_l[None, :])
        # Inverse-CDF draw per buyer; clip guards the cumsum's last-ulp gap.
        signals = np.minimum(
            (sig_u[:, :, None] > cum[:, None, :]).sum(axis=2), m - 1
        )
        x = np.where(theta_high[:, None], x_h[signals], x_l[signals])
        accepts = np.where(mixing[signals], sig_u > x, sigma[signals] == 1.0)
        trade = accepts.any(axis=1)

        n_high += int(theta_high.sum())
        n_trade_high += int((trade & theta_high).sum())
        n_trade_low += int((trade & ~theta_high).sum())
        gain = np.where(theta_high, 1.0 - spec.c, -spec.c) * trade
        surplus_sum += float(gain.sum())
        surplus_sq_sum += float((gain * gain).sum())

        if focal is not None:
            perm = np.argsort(order_u, axis=1)
            accepts_in_order = np.take_along_axis(accepts, perm, axis=1)
            pos = (perm == focal).argmax(axis=1)
            any_before = np.cumsum(accepts_in_order, axis=1) > 0
            reached = np.where(
                pos > 0,
                ~any_before[np.arange(size), np.maximum(pos - 1, 0)],
                True,
            )
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
