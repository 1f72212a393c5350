"""Finite signal structures and operations on them.

An experiment is a finite set of outcomes with conditional probability mass
functions ``p_L`` and ``p_H`` (asset quality Low / High).  Each outcome is
labelled by the normalised ratio ``p_H / (p_H + p_L)``, so that the label's
odds equal the outcome's likelihood ratio.  All belief arithmetic runs on
unreduced odds pairs so that a fully revealing outcome (``p_L == 0``, i.e.
likelihood ratio +inf) is exact rather than an overflow.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    ColumnSumMismatch,
    InfeasibleSpread,
    NegativeMass,
    NotBinary,
    ZeroMassOutcome,
)

COLUMN_SUM_TOL = 1e-9
GARBLING_FEASIBILITY_TOL = 1e-9


@dataclass(frozen=True)
class OddsRatio:
    """A nonnegative ratio ``num / den`` kept unreduced.

    ``den == 0`` encodes +inf exactly; comparisons and products are done by
    cross multiplication and never divide.
    """

    num: float
    den: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "num", float(self.num))
        object.__setattr__(self, "den", float(self.den))
        if self.num < 0.0 or self.den < 0.0:
            raise NegativeMass(f"odds ratio parts must be nonnegative: {self}")
        if self.num == 0.0 and self.den == 0.0:
            raise ZeroMassOutcome("odds ratio 0/0 is undefined")

    @staticmethod
    def from_prob(p: float) -> "OddsRatio":
        return OddsRatio(p, 1.0 - p)

    @staticmethod
    def of(value: "OddsRatio | float | int") -> "OddsRatio":
        if isinstance(value, OddsRatio):
            return value
        v = float(value)
        if math.isinf(v):
            return OddsRatio(1.0, 0.0)
        return OddsRatio(v, 1.0)

    def times(self, other: "OddsRatio") -> "OddsRatio":
        return OddsRatio(self.num * other.num, self.den * other.den)

    def pow(self, k: int) -> "OddsRatio":
        if k < 0:
            raise ValueError("negative powers are not used")
        return OddsRatio(self.num**k, self.den**k)

    def as_float(self) -> float:
        return math.inf if self.den == 0.0 else self.num / self.den

    def as_prob(self) -> float:
        total = self.num + self.den
        return self.num / total if total > 0.0 else math.nan

    # Cross-multiplied order; valid for nonnegative pairs that are not 0/0.
    def leq(self, other: "OddsRatio") -> bool:
        return self.num * other.den <= other.num * self.den

    def lt(self, other: "OddsRatio") -> bool:
        return self.num * other.den < other.num * self.den

    def geq(self, other: "OddsRatio") -> bool:
        return other.leq(self)

    def gt(self, other: "OddsRatio") -> bool:
        return other.lt(self)


@dataclass(frozen=True)
class Outcome:
    """One experiment outcome: its label and conditional masses."""

    label: float
    p_L: float
    p_H: float

    def __post_init__(self) -> None:
        if self.p_L < 0.0 or self.p_H < 0.0:
            raise NegativeMass(f"outcome masses must be nonnegative: {self}")
        if self.p_L + self.p_H <= 0.0:
            raise ZeroMassOutcome("outcome carries no probability mass")

    @property
    def likelihood_ratio(self) -> OddsRatio:
        return OddsRatio(self.p_H, self.p_L)


def _label(p_L: float, p_H: float) -> float:
    return p_H / (p_H + p_L)


@dataclass(frozen=True)
class FiniteExperiment:
    """Outcomes sorted ascending by likelihood ratio; masses sum to one per state."""

    outcomes: tuple[Outcome, ...]

    @property
    def m(self) -> int:
        return len(self.outcomes)

    @property
    def labels(self) -> tuple[float, ...]:
        return tuple(o.label for o in self.outcomes)

    def p_L_array(self) -> np.ndarray:
        return np.array([o.p_L for o in self.outcomes], dtype=float)

    def p_H_array(self) -> np.ndarray:
        return np.array([o.p_H for o in self.outcomes], dtype=float)

    def likelihood_ratio(self, index: int) -> OddsRatio:
        return self.outcomes[index].likelihood_ratio

    def is_binary(self) -> bool:
        return self.m == 2

    def mass_pairs(self) -> tuple[tuple[float, float], ...]:
        return tuple((o.p_L, o.p_H) for o in self.outcomes)


def _ratio_cmp_exact(a: "tuple[float, float]", b: "tuple[float, float]") -> int:
    """Exact likelihood-ratio order of two ``(p_L, p_H)`` pairs.

    Floats are dyadic rationals, so Fraction cross products compare the
    ratios exactly and transitively (which float products cannot guarantee).
    """
    lhs = Fraction(a[1]) * Fraction(b[0])
    rhs = Fraction(b[1]) * Fraction(a[0])
    return (lhs > rhs) - (lhs < rhs)


def _validated(outcomes: list[Outcome]) -> FiniteExperiment:
    """Wrap an already ordered outcome list, checking the core invariants.

    The order check allows a one-ulp wiggle: spread construction multiplies
    the requested ratios through a solved weight, which can perturb an exact
    boundary tie by rounding.
    """
    if not outcomes:
        raise ZeroMassOutcome("experiment needs at least one outcome with mass")
    for a, b in zip(outcomes, outcomes[1:]):
        lhs = a.p_H * b.p_L
        rhs = b.p_H * a.p_L
        if lhs > rhs + 1e-12 * max(lhs, rhs):
            raise InfeasibleSpread("outcomes are not sorted by likelihood ratio")
    sum_L = math.fsum(o.p_L for o in outcomes)
    sum_H = math.fsum(o.p_H for o in outcomes)
    if abs(sum_L - 1.0) > 1e-12 or abs(sum_H - 1.0) > 1e-12:
        raise ColumnSumMismatch(
            f"conditional masses must sum to one (got {sum_L}, {sum_H})"
        )
    return FiniteExperiment(tuple(outcomes))


def build_experiment(
    mass_pairs: "list[tuple[float, float]] | tuple[tuple[float, float], ...]",
) -> FiniteExperiment:
    """Build an experiment from ``(p_L, p_H)`` pairs.

    Masses must be nonnegative and each column must sum to one within
    ``COLUMN_SUM_TOL``; columns are renormalised exactly on build.  Pairs with
    zero total mass are dropped, the rest are stably sorted by likelihood
    ratio and labelled.
    """
    pairs = [(float(a), float(b)) for a, b in mass_pairs]
    for a, b in pairs:
        if a < 0.0 or b < 0.0:
            raise NegativeMass(f"negative mass in pair ({a}, {b})")
    sum_L = math.fsum(a for a, _ in pairs)
    sum_H = math.fsum(b for _, b in pairs)
    if abs(sum_L - 1.0) > COLUMN_SUM_TOL or abs(sum_H - 1.0) > COLUMN_SUM_TOL:
        raise ColumnSumMismatch(
            f"column sums {sum_L}, {sum_H} deviate from 1 by more than {COLUMN_SUM_TOL}"
        )
    kept = [(a / sum_L, b / sum_H) for a, b in pairs if a + b > 0.0]
    if not kept:
        raise ZeroMassOutcome("all mass pairs are zero")
    # Stable sort under the exact ratio order: equal ratios keep input order.
    kept.sort(key=functools.cmp_to_key(_ratio_cmp_exact))
    return _validated([Outcome(_label(a, b), a, b) for a, b in kept])


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


def posterior(interim: float, outcome: Outcome) -> float:
    """Bayes update of an interim belief by one outcome.

    Degenerate beliefs are absorbing; a fully revealing outcome returns 1.0
    exactly for any interior interim belief.
    """
    if interim <= 0.0:
        return 0.0
    if interim >= 1.0:
        return 1.0
    num = interim * outcome.p_H
    den = (1.0 - interim) * outcome.p_L
    return num / (num + den)


@dataclass(frozen=True)
class LocalSpreadParams:
    """Parameters of a local mean-preserving spread at one outcome.

    ``index`` is the 0-based position of the outcome whose mass is split onto
    two adjacent outcomes with likelihood ratios ``lr_low`` and ``lr_high``.
    Feasibility requires
    ``LR(index-1) <= lr_low < LR(index) < lr_high <= LR(index+1)``
    with the conventions ``LR(-1) = 0`` and ``LR(m) = +inf``.
    """

    index: int
    lr_low: OddsRatio
    lr_high: OddsRatio


def apply_local_spread(
    exp: FiniteExperiment, params: LocalSpreadParams
) -> FiniteExperiment:
    """Split outcome ``params.index`` onto two new adjacent outcomes.

    The four masses are the unique solution of the conservation constraints
    per state plus the two likelihood-ratio constraints: writing the old mass
    vector ``(p_L, p_H)`` as a cone combination of the directions
    ``(lr_low.den, lr_low.num)`` and ``(lr_high.den, lr_high.num)``.
    Conditional mass totals are conserved exactly up to rounding.
    """
    j = params.index
    if not 0 <= j < exp.m:
        raise InfeasibleSpread(f"outcome index {j} out of range for m={exp.m}")
    lo, hi = OddsRatio.of(params.lr_low), OddsRatio.of(params.lr_high)
    lr_j = exp.likelihood_ratio(j)
    lr_below = exp.likelihood_ratio(j - 1) if j > 0 else OddsRatio(0.0, 1.0)
    lr_above = exp.likelihood_ratio(j + 1) if j + 1 < exp.m else OddsRatio(1.0, 0.0)
    if not (lr_below.leq(lo) and lo.lt(lr_j) and lr_j.lt(hi) and hi.leq(lr_above)):
        raise InfeasibleSpread(
            "need LR(j-1) <= lr_low < LR(j) < lr_high <= LR(j+1)"
        )
    a = exp.outcomes[j].p_L
    b = exp.outcomes[j].p_H
    det = lo.den * hi.num - lo.num * hi.den
    alpha = (a * hi.num - b * hi.den) / det  # weight on the lr_low direction
    beta = (b * lo.den - a * lo.num) / det  # weight on the lr_high direction
    if alpha <= 0.0 or beta <= 0.0:
        raise ZeroMassOutcome("spread would create an outcome with zero mass")
    down = Outcome(_label(alpha * lo.den, alpha * lo.num), alpha * lo.den, alpha * lo.num)
    up = Outcome(_label(beta * hi.den, beta * hi.num), beta * hi.den, beta * hi.num)
    new_outcomes = list(exp.outcomes[:j]) + [down, up] + list(exp.outcomes[j + 1 :])
    return _validated(new_outcomes)


def merge_equal_ratios(exp: FiniteExperiment, tol: float = 1e-12) -> FiniteExperiment:
    """Collapse adjacent outcomes whose likelihood ratios agree within ``tol``.

    Construction keeps equal-ratio outcomes distinct; this is the explicit
    normalisation that pools them.
    """
    merged: list[list[float]] = []
    for o in exp.outcomes:
        if merged:
            pl, ph = merged[-1]
            cross = abs(ph * o.p_L - o.p_H * pl)
            scale = max(ph + pl, o.p_H + o.p_L)
            if cross <= tol * scale:
                merged[-1][0] += o.p_L
                merged[-1][1] += o.p_H
                continue
        merged.append([o.p_L, o.p_H])
    return _validated([Outcome(_label(a, b), a, b) for a, b in merged])


def is_blackwell_geq_binary(better: FiniteExperiment, base: FiniteExperiment) -> bool:
    """Blackwell comparison for binary experiments, by labels.

    ``better`` dominates iff its low label is weakly lower (stronger bad news)
    and its high label weakly higher (stronger good news).
    """
    if not better.is_binary() or not base.is_binary():
        raise NotBinary("Blackwell label criterion applies to binary experiments only")

    def leq_with_slack(a: OddsRatio, b: OddsRatio) -> bool:
        lhs, rhs = a.num * b.den, b.num * a.den
        return lhs <= rhs + 1e-12 * max(lhs, rhs)

    lo_ok = leq_with_slack(better.likelihood_ratio(0), base.likelihood_ratio(0))
    hi_ok = leq_with_slack(base.likelihood_ratio(1), better.likelihood_ratio(1))
    return lo_ok and hi_ok


def is_garbling_of(coarse: FiniteExperiment, fine: FiniteExperiment) -> bool:
    """Whether ``coarse`` is a Markov coarsening of ``fine``.

    Decided by a small linear program: does a row-stochastic nonnegative
    matrix ``T`` with ``P_fine @ T = P_coarse`` exist?  The LP minimises the
    total L1 mismatch of the mass constraints under exact row-stochasticity;
    feasible means every mass constraint holds within
    ``GARBLING_FEASIBILITY_TOL``.
    """
    # Imported here: scipy.optimize costs most of the package's import time
    # and nothing else uses it.
    from scipy.optimize import linprog

    m, r = fine.m, coarse.m
    n_t = m * r
    # Variables: T entries, then (u, v) slack pairs for the 2r mass equations.
    n_var = n_t + 4 * r
    c = np.concatenate([np.zeros(n_t), np.ones(4 * r)])
    a_eq = np.zeros((m + 2 * r, n_var))
    b_eq = np.zeros(m + 2 * r)
    for i in range(m):  # row-stochasticity, exact
        a_eq[i, i * r : (i + 1) * r] = 1.0
        b_eq[i] = 1.0
    p_fine = np.vstack([fine.p_L_array(), fine.p_H_array()])
    p_coarse = np.vstack([coarse.p_L_array(), coarse.p_H_array()])
    for state in range(2):
        for jj in range(r):
            row = m + state * r + jj
            for i in range(m):
                a_eq[row, i * r + jj] = p_fine[state, i]
            slack = n_t + 2 * (state * r + jj)
            a_eq[row, slack] = 1.0
            a_eq[row, slack + 1] = -1.0
            b_eq[row] = p_coarse[state, jj]
    res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0.0, None), method="highs")
    if not res.success:
        return False
    t = res.x[:n_t].reshape(m, r)
    residual = np.abs(p_fine @ t - p_coarse).max()
    return bool(residual <= GARBLING_FEASIBILITY_TOL)
