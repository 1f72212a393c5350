"""Monte Carlo oracle for the sequential-visit protocol.

Each trial draws the asset quality, one signal and one uniform tie-breaker
per buyer, and a uniform visit order; the seller visits buyers in that order
until one accepts (a buyer with signal ``s`` and tie-breaker ``u`` accepts
iff ``u <= sigma(s)``).  Trials are laid out in fixed-size blocks, each with
its own counter-derived Philox stream, so results are bit-identical for a
given configuration regardless of how blocks are scheduled.
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


@dataclass(frozen=True)
class TracePoint:
    """Cumulative estimates after one block, for convergence traces."""

    trials_done: int
    trade_prob_H: float
    trade_prob_L: float
    surplus: float


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
    estimate, _ = _run(spec, strategy, config, trace=False)
    return estimate


def simulate_with_trace(
    spec: MarketSpec, strategy: Strategy, config: SimConfig
) -> "tuple[SimEstimate, tuple[TracePoint, ...]]":
    """As :func:`simulate`, also returning the per-block convergence trace."""
    return _run(spec, strategy, config, trace=True)


def _run(
    spec: MarketSpec, strategy: Strategy, config: SimConfig, trace: bool
) -> "tuple[SimEstimate, tuple[TracePoint, ...]]":
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

    n_high = 0
    n_trade_high = 0
    n_trade_low = 0
    surplus_sum = 0.0
    surplus_sq_sum = 0.0
    n_visited = 0
    n_visited_high = 0
    trace_points: list[TracePoint] = []

    remaining = config.trials
    block = 0
    while remaining > 0:
        size = min(BLOCK_TRIALS, remaining)
        rng = _block_rng(config.seed, block)
        theta_high = rng.random(size) < spec.rho
        sig_u = rng.random((size, n))
        tie_u = rng.random((size, n))
        if focal is not None:
            order_u = rng.random((size, n))

        cum = np.where(theta_high[:, None], cum_h[None, :], cum_l[None, :])
        # Inverse-CDF draw per buyer; clip guards the cumsum's last-ulp gap.
        signals = np.minimum(
            (sig_u[:, :, None] > cum[:, None, :]).sum(axis=2), m - 1
        )
        accepts = tie_u <= sigma[signals]
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
        if trace:
            done = config.trials - remaining
            n_low_done = done - n_high
            trace_points.append(
                TracePoint(
                    trials_done=done,
                    trade_prob_H=n_trade_high / n_high if n_high else math.nan,
                    trade_prob_L=n_trade_low / n_low_done if n_low_done else math.nan,
                    surplus=surplus_sum / done,
                )
            )

    trials = config.trials
    n_low = trials - n_high
    n_trade = n_trade_high + n_trade_low
    n_no_trade = trials - n_trade
    mean_surplus = surplus_sum / trials
    var_surplus = max(surplus_sq_sum / trials - mean_surplus**2, 0.0)
    if trials > 1:
        var_surplus *= trials / (trials - 1)

    estimate = SimEstimate(
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
    return estimate, tuple(trace_points)


def estimate_interim(
    spec: MarketSpec, strategy: Strategy, config: SimConfig
) -> tuple[float, float]:
    """Interim-belief estimate and its standard error for the focal buyer."""
    if config.focal_buyer is None:
        raise NoFocalBuyer("estimate_interim needs a focal buyer in the config")
    est = simulate(spec, strategy, config)
    assert est.interim_estimate is not None and est.interim_se is not None
    return est.interim_estimate, est.interim_se
