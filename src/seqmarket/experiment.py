"""Finite signal structures and operations on them.

An experiment is a finite set of outcomes with conditional probability mass
functions ``p_L`` and ``p_H`` (asset quality Low / High).  Each outcome is
labelled by the normalised ratio ``p_H / (p_H + p_L)``, so that the label's
odds equal the outcome's likelihood ratio.  All belief arithmetic runs on
unreduced odds pairs so that a fully revealing outcome (``p_L == 0``, i.e.
likelihood ratio +inf) is exact rather than an overflow.

Experiments are compared in the Blackwell order through their
likelihood-ratio frontiers (``is_garbling_of``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ColumnSumMismatch,
    InfeasibleSpread,
    NegativeMass,
    NotBinary,
    ZeroMassOutcome,
)

COLUMN_SUM_TOL = 1e-9


@dataclass(frozen=True)
class OddsRatio:
    """A nonnegative ratio ``num / den`` kept unreduced.

    ``den == 0`` encodes +inf exactly; comparisons are done by cross
    multiplication and never divide.
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

    def as_float(self) -> float:
        return math.inf if self.den == 0.0 else self.num / self.den

    # Cross-multiplied order; valid for nonnegative pairs that are not 0/0.
    def leq(self, other: "OddsRatio") -> bool:
        return self.num * other.den <= other.num * self.den

    def lt(self, other: "OddsRatio") -> bool:
        return self.num * other.den < other.num * self.den


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


def _likelihood_ratios(exp: FiniteExperiment) -> np.ndarray:
    """Each outcome's ``p_H / p_L``: +inf, without a warning, where it overflows or ``p_L == 0``."""
    with np.errstate(divide="ignore", over="ignore"):
        return exp.p_H_array() / exp.p_L_array()


def _ratio_cmp_exact(a: "tuple[float, float]", b: "tuple[float, float]") -> int:
    """Exact likelihood-ratio order of two ``(p_L, p_H)`` pairs of
    nonnegative finite floats.

    Where the float cross products differ they decide.  Rounding to nearest
    is monotone (``x <= y`` gives ``fl(x) <= fl(y)``, through underflow too),
    so ``fl(x) < fl(y)`` can only come from ``x < y``: a strict float
    inequality is the exact one.  Only equal float products can hide an
    exact inequality; there the Fraction cross products decide, exactly and
    transitively, since floats are dyadic rationals.
    """
    lhs, rhs = a[1] * b[0], b[1] * a[0]
    if lhs == rhs:
        from fractions import Fraction

        lhs, rhs = Fraction(a[1]) * Fraction(b[0]), Fraction(b[1]) * Fraction(a[0])
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


# Each label's legal half-interval: [0, 0.5] for the low one, [0.5, 1] for the high one.
_LABEL_MIN = np.array([0.0, 0.5])
_LABEL_MAX = np.array([0.5, 1.0])


def binary_masses_from_labels(s_low, s_high) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The outcome masses of the binary experiments with labels
    ``(s_low, s_high)``, for arrays of label pairs (or scalars, broadcast).

    Returns ``(B, 2)`` arrays ``p_L`` and ``p_H`` and a ``(B, 2)`` mask of
    the outcomes that keep mass, each row in likelihood-ratio order.  An
    outcome without mass keeps its place, with masses 0.

    The labels pin the masses: with ``w`` the total mass of the high outcome
    under the half/half mixture of states, the label identity
    ``(2 - w) * s_low + w * s_high = 1`` gives ``w``.  Labels less than
    1e-15 apart are the uninformative corner, two outcomes of mass
    ``(0.5, 0.5)``.  The rest is what ``build_experiment`` does with the two
    mass pairs, in the same float operations: the column sums ``a + b``
    (``math.fsum`` of two floats), the renormalisation and the stable exact
    ratio order, which compares the float cross products and calls
    ``_ratio_cmp_exact`` only where they are equal.

    Raises, for the first failing label pair in input order, what building
    that pair alone raises: ``NotBinary`` unless
    ``0 <= s_low <= 0.5 <= s_high <= 1``, else what ``build_experiment``
    raises on its two mass pairs.
    """
    labels = np.empty((np.broadcast(s_low, s_high).size, 2))
    labels[:, 0], labels[:, 1] = s_low, s_high
    inside = (labels >= _LABEL_MIN) & (labels <= _LABEL_MAX)
    legal = inside[:, 0] & inside[:, 1]
    # An illegal pair computes as the corner, then raises below.
    s = labels if legal.all() else np.where(legal[:, None], labels, 0.5)
    span = s[:, 1] - s[:, 0]
    corner = span < 1e-15
    w = (1.0 - 2.0 * s[:, 0]) / np.maximum(span, 1e-15)
    # raw[b, k] is outcome k's (p_L, p_H) before renormalisation.
    raw = np.empty((len(s), 2, 2))
    raw[:, :, 0] = 1.0 - s
    raw[:, :, 1] = s
    raw *= np.stack((2.0 - w, w), axis=1)[:, :, None]
    raw[corner] = 0.5
    sums = raw[:, 0] + raw[:, 1]
    kept = raw[:, :, 0] + raw[:, :, 1] > 0.0
    masses = raw / sums[:, None, :]
    # Outcome 1 goes first iff its ratio is exactly below outcome 0's.
    both = kept[:, 0] & kept[:, 1]
    high_low = masses[:, 1, 1] * masses[:, 0, 0]
    low_high = masses[:, 0, 1] * masses[:, 1, 0]
    swap = both & (high_low < low_high)
    for b in np.flatnonzero(both & (high_low == low_high)):
        swap[b] = _ratio_cmp_exact(*masses[b, ::-1].tolist()) < 0
    masses[swap] = masses[swap, ::-1]
    kept_sums = masses[:, 0] + masses[:, 1]
    failed = (
        ~legal
        | (raw < 0.0).any(axis=(1, 2))
        | (np.abs(sums - 1.0) > COLUMN_SUM_TOL).any(axis=1)
        | (np.abs(kept_sums - 1.0) > 1e-12).any(axis=1)
    )
    if failed.any():
        b = int(np.argmax(failed))
        if not legal[b]:
            s_low, s_high = labels[b].tolist()
            raise NotBinary(f"labels ({s_low}, {s_high}) outside the legal half-intervals")
        build_experiment(raw[b].tolist())  # fails the same check, so raises
    return masses[:, :, 0], masses[:, :, 1], kept


def binary_experiment_from_labels(s_low: float, s_high: float) -> FiniteExperiment:
    """Binary experiment with the given labels: the one-pair case of
    ``binary_masses_from_labels``, whose label identity needs
    ``s_low <= 0.5 <= s_high`` for nonnegative masses.  A label of 0.5 can
    leave one outcome without mass, and so a one-outcome experiment.
    """
    p_L, p_H, kept = binary_masses_from_labels(s_low, s_high)
    pairs = zip(p_L[0].tolist(), p_H[0].tolist(), kept[0].tolist())
    return FiniteExperiment(tuple(Outcome(_label(a, b), a, b) for a, b, k in pairs if k))


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


def is_garbling_of(coarse: FiniteExperiment, fine: FiniteExperiment) -> bool:
    """Whether ``coarse`` is a garbling (Markov coarsening) of ``fine``.

    With two states this is decided on the likelihood-ratio frontier
    (Blackwell 1953; Torgersen 1991): ``coarse`` is a garbling of ``fine``
    iff ``V_coarse(lam) <= V_fine(lam)`` for every ``lam >= 0``, where
    ``V(lam) = sum_i max(p_H,i - lam * p_L,i, 0)`` is, up to scale, one
    buyer's surplus at reservation odds ``lam``.  Both ``V`` are convex and
    piecewise linear, with kinks at the outcomes' likelihood ratios; between
    two kinks of ``V_fine`` the excess ``V_coarse - V_fine`` is convex, so
    it peaks at an end.  Hence the test at each finite likelihood ratio of
    ``fine`` and, as ``lam -> inf``, on the revealing masses
    ``sum_{p_L == 0} p_H`` (at ``lam = 0`` both ``V`` are 1), each with a
    slack of 1e-9.
    """
    lam = _likelihood_ratios(fine)
    lam = lam[np.isfinite(lam), None]
    frontier = lambda e: np.maximum(e.p_H_array() - lam * e.p_L_array(), 0.0).sum(axis=1)
    revealing = lambda e: e.p_H_array()[e.p_L_array() == 0.0].sum()
    return bool((frontier(coarse) <= frontier(fine) + 1e-9).all() and revealing(coarse) <= revealing(fine) + 1e-9)
