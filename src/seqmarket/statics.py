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
    _bisect,
    _irrelevance_display,
    benchmarks,
    chain_index,
    # Unused here since the sweeps batch their markets, but kept importable
    # from statics: perfbench's tracer test checks that statics binds it.
    enumerate_equilibria,
    interim_from_rejections,
    rejection_probs,
    select_equilibrium,
    single_buyer_surplus,
    solve_chains,
)
from .experiment import (
    FiniteExperiment,
    LocalSpreadParams,
    OddsRatio,
    apply_local_spread,
    binary_masses_from_labels,
    is_garbling_of,
)

MONOTONE_TAIL_TOL = 1e-12
BLACKWELL_TOL = 1e-12


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
    reported from the computed series, never assumed.  Every size is solved
    in one ``solve_chains`` batch from the experiment's one mass array.
    """
    if n_max < 1:
        raise ValueError(f"n_max={n_max} must be at least 1")
    shape = (n_max, spec.experiment.m)
    p_L = np.broadcast_to(spec.experiment.p_L_array(), shape)
    p_H = np.broadcast_to(spec.experiment.p_H_array(), shape)
    chains = solve_chains(spec.rho, spec.c, p_L, p_H, np.arange(1, n_max + 1))
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
    matching the accept-all interim belief.  The margin may fall short of 0
    by a relative 1e-12 of the reservation odds, so a boundary case counts
    as irrelevant.
    """
    ratio = 1.0 if r_L == 0.0 and r_H == 0.0 else OddsRatio(r_H, r_L).as_float()
    margin = _irrelevance_display(spec.rho, spec.c, lr.as_float(), ratio, spec.n - 1)
    slack = 1e-12 * spec.c / (1.0 - spec.c) if spec.c < 1.0 else 0.0
    return margin >= -slack


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
    lr_j = spec.experiment.likelihood_ratio(index).as_float()
    hi = OddsRatio.of(lr_high).as_float()
    first = _irrelevance_display(spec.rho, spec.c, lr_j, 1.0, 0) <= 0.0
    second = _irrelevance_display(spec.rho, spec.c, hi, lr_j, spec.n - 1) <= 0.0
    return first and second


@dataclass(frozen=True)
class BinaryThresholds:
    s_L_mute: float
    s_L_as: float
    s_L_dagger: float


def _binary_labels(spec: MarketSpec, caller: str) -> tuple[float, float]:
    if not spec.experiment.is_binary():
        raise NotBinary(f"{caller} needs a binary experiment, got {spec.experiment.m} outcomes")
    return spec.experiment.labels[0], spec.experiment.labels[1]


def _label_from_odds(odds: float) -> float:
    return odds / (1.0 + odds) if math.isfinite(odds) else 1.0


def _reject_low_mask(spec: MarketSpec, s_low: np.ndarray, s_high: float) -> np.ndarray:
    """Whether an equilibrium that rejects the low signal exists at each
    bad-news label in ``s_low``, with the high label fixed at ``s_high``.

    The boundary condition: under the accept-only-high strategy, the low
    signal's posterior odds stay at or below the reservation odds.  The
    masses are those of ``binary_masses_from_labels``.  Where a label leaves
    one outcome without mass the experiment is not binary, and rejection is
    feasible iff ``rho <= c``.
    """
    p_L, p_H, kept = binary_masses_from_labels(s_low, s_high)
    psi = interim_from_rejections(spec.rho, 1.0 - p_L[:, 1], 1.0 - p_H[:, 1], spec.n)
    lhs = psi * p_H[:, 0] * (1.0 - spec.c)
    rhs = (1.0 - psi) * p_L[:, 0] * spec.c
    return np.where(kept[:, 0] & kept[:, 1], lhs <= rhs + 1e-15, spec.rho <= spec.c)


def binary_thresholds(spec: MarketSpec) -> BinaryThresholds:
    """The three critical bad-news levels of a binary market.

    ``s_L_mute`` solves prior odds times label odds equals reservation odds
    (strongest bad news with an accept-everything equilibrium).  ``s_L_as``
    solves the adverse-selection display with the high label fixed (the
    surplus turning point).  ``s_L_dagger`` is the largest bad-news label at
    which a reject-the-low-signal equilibrium exists: one array evaluation of
    the boundary condition scans 1025 labels over the legal half-interval
    [0, 0.5] (so a non-monotone corner cannot mislead it), and
    ``equilibrium._bisect`` refines the last feasible grid cell through the
    same evaluation, six steps per call.  It stops once the midpoint repeats
    an end, after which neither end can move, and after at most 60 steps;
    the label is the final cell's midpoint.

    Raises ``DegeneratePrior`` for ``rho`` of 0 or 1, and ``NotBinary`` when
    no label is feasible, as for the uninformative high label 0.5 with
    ``rho > c``.
    """
    spec.require_interior_prior()
    _, s_high = _binary_labels(spec, "binary_thresholds")
    prior_odds = spec.rho / (1.0 - spec.rho)
    cost_odds = spec.c / (1.0 - spec.c) if spec.c < 1.0 else math.inf
    mute = _label_from_odds(cost_odds / prior_odds)
    if spec.n == 1:
        s_as = 0.0  # a single buyer always gains from stronger bad news
    else:
        high_odds = s_high / (1.0 - s_high) if s_high < 1.0 else math.inf
        target = cost_odds / (prior_odds * high_odds)
        s_as = _label_from_odds(target ** (1.0 / (spec.n - 1)))

    grid = np.linspace(0.0, 0.5, 1025)
    feasible = np.flatnonzero(_reject_low_mask(spec, grid, s_high))
    if feasible.size == grid.size:
        dagger = 0.5
    elif feasible.size == 0:
        raise NotBinary(
            f"no bad-news label admits a reject-low equilibrium: the high label "
            f"{s_high} is uninformative and rho={spec.rho} > c={spec.c}"
        )
    else:
        last = feasible[-1]
        holds = lambda x: _reject_low_mask(spec, x, s_high)
        (lo,), (hi,) = _bisect(holds, [grid[last]], [grid[last + 1]], 60)
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
    spec: MarketSpec, dimension: str, grid: "np.ndarray | list[float] | tuple[float, ...]", selector: str
) -> SweepCurve:
    """Surplus of the selected equilibrium along one informativeness axis.

    ``dimension == "bad"`` varies the low label over ``[0, 0.5]`` holding the
    high label fixed; ``"good"`` varies the high label over ``[0.5, 1]``.
    The dimension, the selector and every label are checked before any
    point is solved.
    """
    s_low, s_high = _binary_labels(spec, "sweep-binary")
    if dimension not in ("bad", "good"):
        raise ValueError(f"dimension must be 'bad' or 'good', got {dimension!r}")
    end = chain_index(selector)
    values = np.asarray(grid, dtype=float)
    news, lo, hi = ("bad-news", 0, 0.5) if dimension == "bad" else ("good-news", 0.5, 1)
    outside = ~((values >= lo) & (values <= hi))
    if outside.any():
        raise GridOutOfRange(f"{news} label {float(values[outside.argmax()])} outside [{lo}, {hi}]")
    s_L, s_H = np.broadcast_arrays(*((values, s_high) if dimension == "bad" else (s_low, values)))
    p_L, p_H, _ = binary_masses_from_labels(s_L, s_H)
    chains = solve_chains(spec.rho, spec.c, p_L, p_H, spec.n)
    rows = zip(s_L.tolist(), s_H.tolist(), chains)
    points = [SweepPoint(sl, sh, chain[end], chain[end].surplus) for sl, sh, chain in rows]
    return SweepCurve(dimension, selector, tuple(points))


def single_buyer_blackwell_check(
    better: FiniteExperiment,
    base: FiniteExperiment,
    rho_grid: "list[float]",
    c_grid: "list[float]",
) -> bool:
    """Single-buyer surplus dominance of ``better`` over ``base`` on a grid.

    The pair must be Blackwell ordered in some direction, decided on the
    likelihood-ratio frontier (``is_garbling_of`` either way); the returned
    boolean then reports whether ``better`` dominates, so a reversed strict
    improvement is comparable but returns false at some grid point.
    """
    if not (is_garbling_of(base, better) or is_garbling_of(better, base)):
        raise NotComparable("experiments are not Blackwell ordered")
    for rho in rho_grid:
        for c in c_grid:
            if single_buyer_surplus(rho, c, better) < single_buyer_surplus(rho, c, base) - BLACKWELL_TOL:
                return False
    return True
