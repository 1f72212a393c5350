"""The scalar equilibrium-chain enumeration, kept as the test reference.

This is the per-market loop the package used before the batched kernel in
``seqmarket.equilibrium``: the pure cutoffs one at a time, the mixing gap on
the uniform grid, one scalar bisection per bracket and a pairwise dedup.  It
is slow (the ``n == 1`` exact-indifference case compares about a thousand
candidates pairwise) but simple to read, and the kernel must reproduce its
records bit for bit.
"""

from __future__ import annotations

import numpy as np

from seqmarket.equilibrium import (
    DEFAULT_MIXING_GRID,
    MIXING_ROOT_TOL,
    Equilibrium,
    MarketSpec,
    Strategy,
    interim_belief,
    interim_from_rejections,
    is_optimal_against,
    rejection_probs,
    total_surplus,
)
from seqmarket.errors import NoEquilibriumFound


def mixing_gap_curve(spec: MarketSpec, j: int, alphas: np.ndarray) -> np.ndarray:
    """Indifference gap at outcome ``j`` for cutoff-``j`` strategies with mixing ``alphas``."""
    p_l = spec.experiment.p_L_array()
    p_h = spec.experiment.p_H_array()
    tail_l = float(p_l[j + 1 :].sum())
    tail_h = float(p_h[j + 1 :].sum())
    r_l = 1.0 - tail_l - alphas * p_l[j]
    r_h = 1.0 - tail_h - alphas * p_h[j]
    psi = interim_from_rejections(spec.rho, r_l, r_h, spec.n)
    return psi * p_h[j] * (1.0 - spec.c) - (1.0 - psi) * p_l[j] * spec.c


def bisect_mixing(spec: MarketSpec, j: int, lo: float, hi: float) -> float:
    g = lambda a: float(mixing_gap_curve(spec, j, np.asarray([a]))[0])
    g_lo = g(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        if abs(g_mid) <= MIXING_ROOT_TOL or hi - lo < 1e-16:
            return mid
        if (g_lo < 0.0) == (g_mid < 0.0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def equilibrium_record(spec: MarketSpec, strategy: Strategy) -> Equilibrium:
    psi = interim_belief(spec, strategy)
    r_l, r_h = rejection_probs(spec, strategy)
    cutoff = next((i for i, a in enumerate(strategy.accept) if a > 0.0), strategy.m)
    mixing = strategy.accept[cutoff] if cutoff < strategy.m else 0.0
    return Equilibrium(
        strategy=strategy,
        interim=psi,
        r_L=r_l,
        r_H=r_h,
        surplus=total_surplus(spec, strategy),
        cutoff_index=cutoff,
        mixing_prob=mixing,
    )


def enumerate_equilibria(spec: MarketSpec) -> tuple[Equilibrium, ...]:
    """All monotone-cutoff equilibria, sorted most selective first."""
    spec.require_interior_prior()
    m = spec.experiment.m
    found: list[Strategy] = []

    for j in range(m + 1):
        sigma = Strategy.cutoff(m, j)
        if is_optimal_against(spec, sigma, interim_belief(spec, sigma)):
            found.append(sigma)

    alphas = np.linspace(0.0, 1.0, DEFAULT_MIXING_GRID + 1)
    for j in range(m):
        gaps = mixing_gap_curve(spec, j, alphas)
        roots: list[float] = []
        for k in range(DEFAULT_MIXING_GRID):
            g0, g1 = gaps[k], gaps[k + 1]
            if g0 == 0.0 and 0.0 < alphas[k] < 1.0:
                roots.append(float(alphas[k]))
            if g0 * g1 < 0.0:
                roots.append(bisect_mixing(spec, j, float(alphas[k]), float(alphas[k + 1])))
        for alpha in roots:
            if not 0.0 < alpha < 1.0:
                continue
            sigma = Strategy.cutoff(m, j, alpha)
            if is_optimal_against(spec, sigma, interim_belief(spec, sigma)):
                found.append(sigma)

    deduped: list[Strategy] = []
    for sigma in found:
        arr = sigma.as_array()
        if any(np.max(np.abs(arr - other.as_array())) <= 1e-9 for other in deduped):
            continue
        deduped.append(sigma)
    if not deduped:
        raise NoEquilibriumFound(f"no equilibrium found for {spec}")

    deduped.sort(key=lambda s: sum(s.accept))
    for a, b in zip(deduped, deduped[1:]):
        if not all(x <= y + 1e-12 for x, y in zip(a.accept, b.accept)):
            raise NoEquilibriumFound("equilibrium set is not a selectivity chain")
    return tuple(equilibrium_record(spec, s) for s in deduped)
