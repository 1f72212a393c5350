"""The scalar solvers the package used before its array kernels, kept as test references.

This is the per-market loop the package used before the batched kernel in
``seqmarket.equilibrium``: the pure cutoffs one at a time, the mixing gap on
the uniform grid, one scalar bisection per bracket and a pairwise dedup.  It
is slow (the ``n == 1`` exact-indifference case compares about a thousand
candidates pairwise) but simple to read, and the kernel must reproduce its
records bit for bit.  ``full_scan_hits`` is the batched kernel's own scan
before it learned to discard root-free cells: every grid point of every
(market, cutoff) pair.

It also keeps the scalar ``binary_thresholds``: a 1025-label scan and a
60-step bisection, each label tested by building its binary experiment and
solving the accept-only-high interim belief one market at a time.  The
array evaluation in ``seqmarket.statics`` must return the same three floats.

``binary_experiment_from_labels`` is the scalar label map on
``build_experiment`` that ``seqmarket.experiment.binary_masses_from_labels``
replaced, and ``sweep_binary_points`` the per-point sweep built on it: one
experiment and one market per label, solved by ``enumerate_chains``.  The
array sweep in ``seqmarket.statics`` must return an equal curve.
"""

from __future__ import annotations

import math

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
from seqmarket.equilibrium import chain_index, enumerate_chains
from seqmarket.errors import GridOutOfRange, NoEquilibriumFound, NotBinary
from seqmarket.experiment import FiniteExperiment, build_experiment
from seqmarket.statics import BinaryThresholds, SweepCurve, SweepPoint, _label_from_odds


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


def full_scan_hits(rho: float, c: float, tail_L, tail_H, p_L, p_H, n):
    """The hit cells of every (market, cutoff) pair's mixing gap on the full
    grid, as ``(pair, cell, change, g_lo)`` in (pair, cell) order.

    This is the kernel's scan before it discarded root-free cells: every one
    of the 1025 grid points of every pair, a cell being a hit when its end
    gaps change sign or its left point is an exact interior zero.  The
    arguments are per-pair arrays: the masses accepted above the cutoff,
    the cutoff outcome's masses and the market size.
    """
    alphas = np.linspace(0.0, 1.0, DEFAULT_MIXING_GRID + 1)
    col = lambda a: np.asarray(a)[:, None]
    r_l = 1.0 - col(tail_L) - alphas * col(p_L)
    r_h = 1.0 - col(tail_H) - alphas * col(p_H)
    psi = interim_from_rejections(rho, r_l, r_h, col(n))
    g = psi * col(p_H) * (1.0 - c) - (1.0 - psi) * col(p_L) * c
    g0, g1 = g[:, :-1], g[:, 1:]
    change = g0 * g1 < 0.0
    hit = change | ((g0 == 0.0) & (alphas[:-1] > 0.0))
    pair, cell = np.nonzero(hit)
    return pair, cell, change[pair, cell], g0[pair, cell]


def cutoff_strategy(m: int, index: int, mixing: float = 1.0) -> Strategy:
    """Monotone strategy: reject below ``index``, accept ``mixing`` there, accept above."""
    if index >= m:
        return Strategy((0.0,) * m)
    return Strategy((0.0,) * index + (mixing,) + (1.0,) * (m - index - 1))


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
        sigma = cutoff_strategy(m, j)
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
            sigma = cutoff_strategy(m, j, alpha)
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


def _binary_labels(spec: MarketSpec) -> tuple[float, float]:
    if not spec.experiment.is_binary():
        raise NotBinary("binary thresholds need a binary experiment")
    return spec.experiment.labels[0], spec.experiment.labels[1]


def _reject_low_feasible(spec: MarketSpec, s_low: float, s_high: float) -> bool:
    """Whether an equilibrium that rejects the low signal exists at these labels.

    The boundary condition: under the accept-only-high strategy, the low
    signal's posterior odds stay at or below the reservation odds.
    """
    exp = binary_experiment_from_labels(s_low, s_high)
    if not exp.is_binary():  # uninformative corner collapses to one outcome
        return spec.rho <= spec.c
    spec_here = spec.with_experiment(exp)
    r_l, r_h = rejection_probs(spec_here, Strategy((0.0, 1.0)))
    psi = interim_from_rejections(spec.rho, r_l, r_h, spec.n)
    low = exp.outcomes[0]
    lhs = psi * low.p_H * (1.0 - spec.c)
    rhs = (1.0 - psi) * low.p_L * spec.c
    return lhs <= rhs + 1e-15


def binary_thresholds(spec: MarketSpec) -> BinaryThresholds:
    """The three critical bad-news levels of a binary market.

    ``s_L_mute`` solves prior odds times label odds equals reservation odds
    (strongest bad news with an accept-everything equilibrium).  ``s_L_as``
    solves the adverse-selection display with the high label fixed (the
    surplus turning point).  ``s_L_dagger`` is the largest bad-news label at
    which a reject-the-low-signal equilibrium exists, found by bisection over
    the legal half-interval [0, 0.5].
    """
    _, s_high = _binary_labels(spec)
    prior_odds = spec.rho / (1.0 - spec.rho)
    cost_odds = spec.c / (1.0 - spec.c) if spec.c < 1.0 else math.inf
    mute = _label_from_odds(cost_odds / prior_odds)
    if spec.n == 1:
        s_as = 0.0  # a single buyer always gains from stronger bad news
    else:
        high_odds = s_high / (1.0 - s_high) if s_high < 1.0 else math.inf
        target = cost_odds / (prior_odds * high_odds)
        s_as = _label_from_odds(target ** (1.0 / (spec.n - 1)))

    # Regime boundary: scan for the last label where rejection is feasible,
    # then refine.  The scan guards against non-monotone corners.
    grid = np.linspace(0.0, 0.5, 1025)
    feasible = [_reject_low_feasible(spec, float(s), s_high) for s in grid]
    if all(feasible):
        dagger = 0.5
    else:
        last = max(i for i, ok in enumerate(feasible) if ok)
        lo, hi = float(grid[last]), float(grid[last + 1])
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if _reject_low_feasible(spec, mid, s_high):
                lo = mid
            else:
                hi = mid
        dagger = 0.5 * (lo + hi)
    return BinaryThresholds(s_L_mute=mute, s_L_as=s_as, s_L_dagger=dagger)


def binary_experiment_from_labels(s_low: float, s_high: float) -> FiniteExperiment:
    """Binary experiment with the given labels.

    The labels pin the masses: with ``w`` the total mass of the high outcome
    under the half/half mixture of states, the label identity
    ``(2 - w) * s_low + w * s_high = 1`` gives ``w``.  Requires
    ``s_low <= 0.5 <= s_high`` for nonnegative masses.
    """
    if not 0.0 <= s_low <= 0.5 or not 0.5 <= s_high <= 1.0:
        raise NotBinary(f"labels ({s_low}, {s_high}) outside the legal half-intervals")
    if s_high - s_low < 1e-15:
        # Uninformative corner: both labels 0.5.
        return build_experiment([(0.5, 0.5), (0.5, 0.5)])
    w = (1.0 - 2.0 * s_low) / (s_high - s_low)
    low = ((2.0 - w) * (1.0 - s_low), (2.0 - w) * s_low)
    high = (w * (1.0 - s_high), w * s_high)
    return build_experiment([low, high])


def sweep_binary_points(
    spec: MarketSpec, dimension: str, grid: "list[float]", selector: str
) -> SweepCurve:
    """Surplus of the selected equilibrium along one informativeness axis,
    one experiment and one market per label."""
    s_low, s_high = spec.experiment.labels
    if dimension not in ("bad", "good"):
        raise ValueError(f"dimension must be 'bad' or 'good', got {dimension!r}")
    end = chain_index(selector)
    labels = []
    for value in grid:
        v = float(value)
        if dimension == "bad":
            if not 0.0 <= v <= 0.5:
                raise GridOutOfRange(f"bad-news label {v} outside [0, 0.5]")
            labels.append((v, s_high))
        else:
            if not 0.5 <= v <= 1.0:
                raise GridOutOfRange(f"good-news label {v} outside [0.5, 1]")
            labels.append((s_low, v))
    specs = [spec.with_experiment(binary_experiment_from_labels(sl, sh)) for sl, sh in labels]
    points = []
    for (sl, sh), chain in zip(labels, enumerate_chains(specs)):
        eq = chain[end]
        points.append(SweepPoint(sl, sh, eq, eq.surplus))
    return SweepCurve(dimension, selector, tuple(points))
