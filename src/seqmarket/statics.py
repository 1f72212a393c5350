"""Comparative statics: market size sweeps, binary informativeness sweeps and
thresholds, override classification, spread surplus deltas, and the
single-buyer Blackwell check."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridOutOfRange, NonMonotoneStrategy, NotBinary, NotComparable
from .equilibrium import (
    Equilibrium,
    MarketSpec,
    Strategy,
    benchmarks,
    enumerate_chains,
    # Unused here since the sweeps batch their markets, but kept importable
    # from statics: perfbench's tracer test checks that statics binds it.
    enumerate_equilibria,
    interim_from_rejections,
    rejection_probs,
    select_equilibrium,
    single_buyer_surplus,
)
from .experiment import (
    FiniteExperiment,
    LocalSpreadParams,
    OddsRatio,
    apply_local_spread,
    binary_experiment_from_labels,
    is_blackwell_geq_binary,
    is_garbling_of,
)

MONOTONE_TAIL_TOL = 1e-12


class LimitClass(enum.Enum):
    FULL_INFO = "full_info"
    NO_INFO = "no_info"


class OverrideClass(enum.Enum):
    NEGATIVE = "negative"
    POSITIVE = "positive"
    UNDEFINED = "undefined"


class PredictedSign(enum.Enum):
    NON_NEGATIVE = "non_negative"
    NON_POSITIVE = "non_positive"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class NSweepPoint:
    n: int
    most_selective_surplus: float
    least_selective_surplus: float


@dataclass(frozen=True)
class NSweepResult:
    records: tuple[NSweepPoint, ...]
    limit_class: LimitClass
    predicted_limit: float
    eventual_monotone_from: int | None


def classify_limit(spec: MarketSpec) -> tuple[LimitClass, float]:
    """Limit class from the top-outcome test, plus the predicted limit value."""
    top = spec.experiment.outcomes[-1]
    bench = benchmarks(spec)
    if top.p_L == 0.0 and top.p_H > 0.0:
        return LimitClass.FULL_INFO, bench.full_info
    return LimitClass.NO_INFO, bench.no_info


def surplus_vs_n(spec: MarketSpec, n_max: int) -> NSweepResult:
    """Most- and least-selective surplus for each market size ``1..n_max``.

    The cutover index is the smallest ``n`` from which the most-selective
    series is monotone in the direction the limit class implies; it is
    reported from the computed series, never assumed.
    """
    if n_max < 1:
        raise ValueError(f"n_max={n_max} must be at least 1")
    chains = enumerate_chains([spec.with_n(n) for n in range(1, n_max + 1)])
    records = [
        NSweepPoint(n, chain[0].surplus, chain[-1].surplus) for n, chain in enumerate(chains, 1)
    ]
    limit_class, predicted = classify_limit(spec)
    direction = 1.0 if limit_class is LimitClass.FULL_INFO else -1.0
    # One backward pass: the tail from k is monotone iff the step k -> k+1
    # is and the tail from k+1 is.
    cutover = records[-1].n
    for k in range(len(records) - 2, -1, -1):
        step = records[k + 1].most_selective_surplus - records[k].most_selective_surplus
        if not direction * step >= -MONOTONE_TAIL_TOL:
            break
        cutover = records[k].n
    return NSweepResult(tuple(records), limit_class, predicted, cutover)


def _irrelevance_holds(
    spec: MarketSpec, r_L: float, r_H: float, lr: OddsRatio
) -> bool:
    """Whether trading on a signal with likelihood ratio ``lr`` is optimal
    even after ``n - 1`` rejections under the given per-visit rejection
    probabilities.

    The rejection-odds ratio is taken as 1 when nobody is ever rejected,
    matching the accept-all interim belief.  Compared cross-multiplied with a
    small relative slack so a boundary case counts as irrelevant.
    """
    if spec.n == 1 or (r_L == 0.0 and r_H == 0.0):
        ratio_num, ratio_den = 1.0, 1.0
    else:
        ratio_num, ratio_den = r_H ** (spec.n - 1), r_L ** (spec.n - 1)
    lhs = spec.rho * ratio_num * lr.num * (1.0 - spec.c)
    rhs = (1.0 - spec.rho) * ratio_den * lr.den * spec.c
    return lhs >= rhs - 1e-12 * max(lhs, rhs, 1e-300)


def irrelevance_check(spec: MarketSpec, strategy: Strategy, outcome_index: int) -> bool:
    """Adverse-selection irrelevance of the given outcome under ``strategy``."""
    if not strategy.is_monotone():
        raise NonMonotoneStrategy(f"irrelevance is defined for monotone strategies: {strategy}")
    r_l, r_h = rejection_probs(spec, strategy)
    lr = spec.experiment.likelihood_ratio(outcome_index)
    return _irrelevance_holds(spec, r_l, r_h, lr)


def classify_override(spec: MarketSpec, selector: str, index: int) -> OverrideClass:
    """Override class of a local spread at ``index`` under the selected equilibrium."""
    eq = select_equilibrium(spec, selector)
    accept = eq.strategy.accept[index]
    if accept == 1.0:
        return OverrideClass.NEGATIVE
    if accept == 0.0:
        return OverrideClass.POSITIVE
    return OverrideClass.UNDEFINED


@dataclass(frozen=True)
class SpreadDelta:
    surplus_before: float
    surplus_after: float
    override: OverrideClass
    predicted_sign: PredictedSign

    @property
    def delta(self) -> float:
        return self.surplus_after - self.surplus_before


def spread_surplus_delta(
    spec: MarketSpec, params: LocalSpreadParams, selector: str
) -> SpreadDelta:
    """Surplus change from a local spread, with its predicted sign.

    A negative override predicts a weakly higher surplus.  A positive
    override predicts a weakly lower surplus unless adverse selection is
    irrelevant, at the pre-spread equilibrium strategy, for the new upper
    outcome (likelihood ratio ``lr_high``).  Mixing at the spread outcome
    leaves the direction indeterminate; the delta is returned regardless.
    """
    eq_before = select_equilibrium(spec, selector)
    spread_exp = apply_local_spread(spec.experiment, params)
    eq_after = select_equilibrium(spec.with_experiment(spread_exp), selector)
    override = classify_override(spec, selector, params.index)
    if override is OverrideClass.NEGATIVE:
        predicted = PredictedSign.NON_NEGATIVE
    elif override is OverrideClass.POSITIVE:
        irrelevant = _irrelevance_holds(
            spec, eq_before.r_L, eq_before.r_H, OddsRatio.of(params.lr_high)
        )
        predicted = PredictedSign.INDETERMINATE if irrelevant else PredictedSign.NON_POSITIVE
    else:
        predicted = PredictedSign.INDETERMINATE
    return SpreadDelta(eq_before.surplus, eq_after.surplus, override, predicted)


def sufficient_harm_check(
    spec: MarketSpec, index: int, lr_high: OddsRatio | float
) -> bool:
    """Strategy-free sufficient condition for a positive-override spread at
    ``index`` to lower most-selective surplus.

    Both displays must hold: the prior odds times the outcome's likelihood
    ratio stay below the reservation odds, and so does the prior times that
    ratio to the ``n - 1`` composed with the spread's upper ratio.
    """
    lr_j = spec.experiment.likelihood_ratio(index)
    hi = OddsRatio.of(lr_high)
    prior = OddsRatio.from_prob(spec.rho)
    cost = OddsRatio.from_prob(spec.c)
    first = prior.times(lr_j).leq(cost)
    second = prior.times(lr_j.pow(spec.n - 1)).times(hi).leq(cost)
    return first and second


@dataclass(frozen=True)
class BinaryThresholds:
    s_L_mute: float
    s_L_as: float
    s_L_dagger: float


def _binary_labels(spec: MarketSpec) -> tuple[float, float]:
    if not spec.experiment.is_binary():
        raise NotBinary("binary thresholds need a binary experiment")
    return spec.experiment.labels[0], spec.experiment.labels[1]


def _label_from_odds(odds: float) -> float:
    return odds / (1.0 + odds) if math.isfinite(odds) else 1.0


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


@dataclass(frozen=True)
class SweepPoint:
    s_L: float
    s_H: float
    equilibrium: Equilibrium
    surplus: float


@dataclass(frozen=True)
class SweepCurve:
    dimension: str  # "bad" or "good"
    selector: str
    points: tuple[SweepPoint, ...]

    def surpluses(self) -> tuple[float, ...]:
        return tuple(p.surplus for p in self.points)


def sweep_binary(
    spec: MarketSpec, dimension: str, grid: "list[float]", selector: str
) -> SweepCurve:
    """Surplus of the selected equilibrium along one informativeness axis.

    ``dimension == "bad"`` varies the low label over ``[0, 0.5]`` holding the
    high label fixed; ``"good"`` varies the high label over ``[0.5, 1]``.
    """
    s_low, s_high = _binary_labels(spec)
    if dimension not in ("bad", "good"):
        raise ValueError(f"dimension must be 'bad' or 'good', got {dimension!r}")
    labels, specs, invalid = [], [], None
    for value in grid:
        try:
            v = float(value)
            if dimension == "bad":
                if not 0.0 <= v <= 0.5:
                    raise GridOutOfRange(f"bad-news label {v} outside [0, 0.5]")
                sl, sh = v, s_high
            else:
                if not 0.5 <= v <= 1.0:
                    raise GridOutOfRange(f"good-news label {v} outside [0.5, 1]")
                sl, sh = s_low, v
            exp = binary_experiment_from_labels(sl, sh)
            if selector not in ("most", "least"):
                raise ValueError(f"selector must be 'most' or 'least', got {selector!r}")
        except ValueError as exc:
            invalid = exc
            break
        labels.append((sl, sh))
        specs.append(spec.with_experiment(exp))
    # Solve the points before an invalid one first, so a solver failure
    # there is raised ahead of it, as a point-by-point loop would.
    chains = enumerate_chains(specs)
    if invalid is not None:
        raise invalid
    points = []
    for (sl, sh), chain in zip(labels, chains):
        eq = chain[0] if selector == "most" else chain[-1]
        points.append(SweepPoint(sl, sh, eq, eq.surplus))
    return SweepCurve(dimension, selector, tuple(points))


def single_buyer_blackwell_check(
    better: FiniteExperiment,
    base: FiniteExperiment,
    rho_grid: "list[float]",
    c_grid: "list[float]",
    tol: float = 1e-12,
) -> bool:
    """Single-buyer surplus dominance of ``better`` over ``base`` on a grid.

    The pair must be Blackwell ordered in some direction (binary label
    criterion or a garbling relation either way); the returned boolean then
    reports whether ``better`` dominates, so a reversed strict improvement
    is comparable but returns false at some grid point.
    """
    comparable = False
    if better.is_binary() and base.is_binary():
        comparable = is_blackwell_geq_binary(better, base) or is_blackwell_geq_binary(
            base, better
        )
    if not comparable:
        comparable = is_garbling_of(base, better) or is_garbling_of(better, base)
    if not comparable:
        raise NotComparable("experiments are not Blackwell ordered")
    for rho in rho_grid:
        for c in c_grid:
            if single_buyer_surplus(rho, c, better) < single_buyer_surplus(rho, c, base) - tol:
                return False
    return True
