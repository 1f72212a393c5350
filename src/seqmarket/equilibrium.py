"""Rejection probabilities, interim beliefs, best responses, and the
equilibrium chain of the sequential-visit trading game.

A market has ``n`` buyers who share a prior ``rho`` on High quality; the
seller visits them in uniformly random order and trades with the first one
who accepts at his reservation value ``c``.  A visited buyer conditions on
the visit itself (all earlier buyers rejected) to form an interim belief,
then on her private signal.  Equilibria are monotone cutoff strategies; the
solver scans every pure cutoff and every mixing cutoff root and returns the
full chain, sorted most selective first.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePrior, LengthMismatch, NoEquilibriumFound
from .experiment import FiniteExperiment

INDIFFERENCE_TOL = 1e-9
MIXING_ROOT_TOL = 1e-12
DEFAULT_MIXING_GRID = 1024
# Which end of an equilibrium chain to report: the most or least selective.
SELECTORS = ("most", "least")


@dataclass(frozen=True)
class MarketSpec:
    """Market primitives: prior, reservation value, buyer count, experiment."""

    rho: float
    c: float
    n: int
    experiment: FiniteExperiment

    def __post_init__(self) -> None:
        if not 0.0 <= self.rho <= 1.0:
            raise DegeneratePrior(f"rho={self.rho} outside [0, 1]")
        if not 0.0 <= self.c <= 1.0:
            raise ValueError(f"c={self.c} outside [0, 1]")
        if self.n < 1:
            raise ValueError(f"n={self.n} must be at least 1")

    def with_n(self, n: int) -> "MarketSpec":
        return MarketSpec(self.rho, self.c, n, self.experiment)

    def with_experiment(self, experiment: FiniteExperiment) -> "MarketSpec":
        return MarketSpec(self.rho, self.c, self.n, experiment)

    def require_interior_prior(self) -> None:
        _require_interior_prior(self.rho)


def _require_interior_prior(rho: float) -> None:
    if not 0.0 < rho < 1.0:
        raise DegeneratePrior(f"equilibrium routines need rho in (0, 1), got {rho}")


@dataclass(frozen=True, slots=True)
class Strategy:
    """Per-outcome acceptance probabilities, indexed in likelihood-ratio order."""

    accept: tuple[float, ...]

    def __post_init__(self) -> None:
        if any(not 0.0 <= a <= 1.0 for a in self.accept):
            raise ValueError(f"acceptance probabilities must lie in [0, 1]: {self.accept}")

    @property
    def m(self) -> int:
        return len(self.accept)

    def is_monotone(self) -> bool:
        for i, a in enumerate(self.accept):
            if a > 0.0 and any(b < 1.0 for b in self.accept[i + 1 :]):
                return False
        return True

    def as_array(self) -> np.ndarray:
        return np.asarray(self.accept, dtype=float)


def _checked_strategy(accept: tuple[float, ...]) -> Strategy:
    """A Strategy whose probabilities the caller has already checked to lie
    in [0, 1], built without ``__post_init__``'s per-entry check."""
    strategy = object.__new__(Strategy)
    object.__setattr__(strategy, "accept", accept)
    return strategy


@dataclass(frozen=True)
class Benchmarks:
    full_info: float
    no_info: float


@dataclass(frozen=True, slots=True)
class Equilibrium:
    strategy: Strategy
    interim: float
    r_L: float
    r_H: float
    surplus: float
    cutoff_index: int  # first outcome accepted with positive probability; m if none
    mixing_prob: float  # acceptance probability at the cutoff outcome (0.0 if none)


def _check_length(spec: MarketSpec, strategy: Strategy) -> None:
    if strategy.m != spec.experiment.m:
        raise LengthMismatch(
            f"strategy has {strategy.m} entries for an experiment with {spec.experiment.m} outcomes"
        )


def _power(x, n):
    """``x ** n`` for an int ``n`` or an integer array broadcast against ``x``.

    numpy evaluates ``x ** 2`` with a Python-int exponent as ``x * x``, which
    can differ in the last bit from the general power routine that an array
    of exponents goes through; entries with ``n == 2`` keep the square so
    batched and one-market results agree.
    """
    if isinstance(n, int) or not (n == 2).any():
        return x**n
    return np.where(n == 2, x * x, x**n)


def geometric_sum(r, n):
    """``sum_{k=0}^{n-1} r**k`` elementwise (a float if 0-d), stable near ``r == 1``.

    ``n`` is an int or an integer array broadcast against ``r``.  Within
    1e-10 of 1 the sum is ``-expm1(n * log1p(-a)) / a`` with ``a = 1 - r``
    (exact there by Sterbenz's lemma), and exactly ``n`` where ``r == 1``.
    """
    r_arr = np.asarray(r, dtype=float)
    gap = 1.0 - r_arr
    near_one = np.abs(gap) < 1e-10
    if near_one.any():
        safe = np.where(near_one, 0.5, r_arr)
        a = np.where(near_one & (gap != 0.0), gap, 0.5)
        near = np.where(gap == 0.0, n, -np.expm1(n * np.log1p(-a)) / a)
        out = np.where(near_one, near, (1.0 - _power(safe, n)) / (1.0 - safe))
    else:
        out = (1.0 - _power(r_arr, n)) / gap
    return float(out) if out.ndim == 0 else out


def rejection_probs(spec: MarketSpec, strategy: Strategy) -> tuple[float, float]:
    """Per-visit rejection probabilities ``(r_L, r_H)``."""
    _check_length(spec, strategy)
    sigma = strategy.as_array()
    r_l = 1.0 - float(spec.experiment.p_L_array() @ sigma)
    r_h = 1.0 - float(spec.experiment.p_H_array() @ sigma)
    clip = lambda x: min(1.0, max(0.0, x))
    return clip(r_l), clip(r_h)


def interim_from_rejections(rho: float, r_L, r_H, n: int):
    """Interim belief consistent with the given per-visit rejection probabilities."""
    num = rho * geometric_sum(r_H, n)
    den = (1.0 - rho) * geometric_sum(r_L, n)
    return num / (num + den)


def interim_belief(spec: MarketSpec, strategy: Strategy) -> float:
    """The unique interim belief consistent with everyone using ``strategy``."""
    r_l, r_h = rejection_probs(spec, strategy)
    return float(interim_from_rejections(spec.rho, r_l, r_h, spec.n))


def total_surplus(spec: MarketSpec, strategy: Strategy) -> float:
    """Expected gains from trade: ``(1-c)`` per High trade minus ``c`` per Low trade."""
    r_l, r_h = rejection_probs(spec, strategy)
    return float(surplus_from_rejections(spec, r_l, r_h))


def surplus_from_rejections(spec: MarketSpec, r_L, r_H):
    return _surplus(spec.rho, spec.c, spec.n, r_L, r_H)


def _surplus(rho: float, c: float, n, r_L, r_H):
    return (1.0 - c) * rho * (1.0 - _power(np.asarray(r_H), n)) - c * (1.0 - rho) * (
        1.0 - _power(np.asarray(r_L), n)
    )


def outcome_probs(spec: MarketSpec, eq: Equilibrium) -> tuple[float, float, float, float]:
    """P(trade | H), P(trade | L), P(H | trade) and P(H | no trade) under ``eq``,
    where no trade means ``n`` rejections; a conditional is nan where its event has no mass."""
    unsold_H = eq.r_H**spec.n
    trade_H, trade_L = 1.0 - unsold_H, 1.0 - eq.r_L**spec.n
    trade = spec.rho * trade_H + (1.0 - spec.rho) * trade_L
    given_trade = spec.rho * trade_H / trade if trade > 0 else float("nan")
    given_no_trade = spec.rho * unsold_H / (1.0 - trade) if 1.0 - trade > 0 else float("nan")
    return trade_H, trade_L, given_trade, given_no_trade


def benchmarks(spec: MarketSpec) -> Benchmarks:
    return Benchmarks(
        full_info=spec.rho * (1.0 - spec.c),
        no_info=max(0.0, spec.rho - spec.c),
    )


def _gaps(c: float, p_L, p_H, interim):
    """Cross-multiplied posterior-vs-c comparison, one entry per outcome.

    Positive means the posterior strictly exceeds the reservation value.  All
    factors are probabilities, so the absolute indifference tolerance applies
    on a bounded scale.  Broadcasts over markets and outcomes.
    """
    return interim * p_H * (1.0 - c) - (1.0 - interim) * p_L * c


def _irrelevance_display(rho: float, c: float, lr, ratio, k):
    """The adverse-selection irrelevance display as a signed margin:
    prior odds times ``lr`` times ``ratio ** k`` minus the reservation odds.

    ``lr`` is a signal's likelihood ratio (+inf for a revealing signal) and
    ``ratio`` a rejection-odds ratio such as ``r_H / r_L``, formed by the
    caller before the power: at large ``k`` the ratio's power may underflow
    to 0 or overflow to +inf, where the powers of ``r_H`` and ``r_L`` would
    both underflow and leave 0/0.  Where one factor is 0 and another +inf,
    the signal's own ratio decides, then the prior; +inf against infinite
    reservation odds (``c == 1``) is a tie, 0.  Broadcasts over its array
    arguments; returns a float for scalar ones.
    """
    lr = np.asarray(lr, dtype=float)
    with np.errstate(all="ignore"):
        prior = np.divide(rho, 1.0 - rho)
        product = prior * lr * np.asarray(ratio, dtype=float) ** k
        if np.isnan(product).any():
            decided = np.where((lr == 0.0) | (lr == np.inf), lr, prior)
            product = np.where(np.isnan(product), decided, product)
        margin = product - np.divide(c, 1.0 - c)
    margin = np.where(np.isnan(margin), 0.0, margin)
    return float(margin) if margin.ndim == 0 else margin


# Bisection steps whose midpoints one call of the predicate covers.
_BISECTION_LEVELS = 6


def _bisection_midpoints(lo: float, hi: float, levels: int) -> list[float]:
    """Every midpoint ``levels`` bisection steps from ``(lo, hi)`` can visit, in
    heap order: entry ``i`` splits its interval into entries ``2i + 1`` and ``2i + 2``."""
    bounds, points = [(lo, hi)], []
    for i in range(2**levels - 1):
        a, b = bounds[i]
        points.append(0.5 * (a + b))
        bounds += [(a, points[-1]), (points[-1], b)]
    return points


def _bisect(holds, lo, hi, steps: int, width: float = 0.0) -> tuple[list[float], list[float]]:
    """Bisect each bracket ``(lo[k], hi[k])`` toward the boundary of the array
    predicate ``holds``, true at ``lo`` (which may exceed ``hi``); return the
    ends.  A bracket stops once its midpoint repeats an end, once ``|hi - lo|
    <= width`` or after ``steps`` steps.  One call of ``holds`` covers the
    next ``_BISECTION_LEVELS`` steps of every moving bracket, so the ends are
    those of one call per step wherever ``holds`` decides each point alone."""
    lo, hi = [float(x) for x in lo], [float(x) for x in hi]
    moves = lambda k: abs(hi[k] - lo[k]) > width and 0.5 * (lo[k] + hi[k]) not in (lo[k], hi[k])
    moving = [k for k in range(len(lo)) if moves(k)]
    while moving and steps > 0:
        levels = min(_BISECTION_LEVELS, steps)
        steps -= levels
        points = [p for k in moving for p in _bisection_midpoints(lo[k], hi[k], levels)]
        ok = holds(np.array(points)).tolist()
        for base, k in zip(range(0, len(points), 2**levels - 1), moving):
            node = 0
            for _ in range(levels):
                if not moves(k):
                    break
                if ok[base + node]:
                    lo[k], node = points[base + node], 2 * node + 2
                else:
                    hi[k], node = points[base + node], 2 * node + 1
        moving = [k for k in moving if moves(k)]
    return lo, hi


def _best_response_rows(accept: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """Per row, whether every acceptance probability is optimal for its gap.

    Rejecting needs a gap at most the tolerance, accepting one at least minus
    the tolerance, and mixing needs indifference within the tolerance.
    """
    ok = np.where(
        accept == 0.0,
        gaps <= INDIFFERENCE_TOL,
        np.where(accept == 1.0, gaps >= -INDIFFERENCE_TOL, np.abs(gaps) <= INDIFFERENCE_TOL),
    )
    return ok.all(axis=-1)


def is_optimal_against(spec: MarketSpec, strategy: Strategy, interim: float) -> bool:
    """Whether ``strategy`` is a best response to ``interim`` (indifference tolerated)."""
    _check_length(spec, strategy)
    gaps = _gaps(spec.c, spec.experiment.p_L_array(), spec.experiment.p_H_array(), interim)
    return bool(_best_response_rows(strategy.as_array(), gaps))


# Doubles per temporary array of the mixing-gap scan: a block of pairs times
# the first pass's points (15 rows of 1026 at spacing 1, 496 of 33 at 32), or
# the cells one refinement step makes (twice the cells it takes, so it takes
# at most a quarter of this).  It bounds the kernel's scratch memory whatever
# the batch size and spacing, and keeps each temporary under glibc's default
# 128 KiB mmap threshold, so temporaries are reused from the heap instead of
# being mapped, page-faulted and unmapped on every operation (about 3x slower).
_GRID_BLOCK = 1 << 14
_REFINE_STEP = _GRID_BLOCK // 4
_DEDUP_TOL = 1e-9
_CHAIN_TOL = 1e-12
# The discard bound of _root_free: its relative margin, and the limits below
# which 1 - r, 1 - psi or a product is too close to 0 for that margin.
_MARGIN = 1e-6
_NEAR_ONE = 1e-7
# The right-end acceptance mass that clears a run whose left end is r == 1.
_EXACT_END_CLEAR = 2 * _NEAR_ONE * DEFAULT_MIXING_GRID
_THIN_PSI = 1e-8
_TINY = 1e-290


def _mixing_points(rho: float, c: float, tail_L, tail_H, p_L, p_H, n, alphas):
    """At the cutoff outcome (masses ``p_L``, ``p_H``) of cutoff strategies
    mixing with probability ``alphas`` there and accepting the outcomes above
    (masses ``tail_L``, ``tail_H``): the interim belief's numerator and
    denominator, the indifference gap, and the acceptance masses ``1 - r_H``
    and ``1 - r_L``."""
    r_l = 1.0 - tail_L - alphas * p_L
    r_h = 1.0 - tail_H - alphas * p_H
    num = rho * geometric_sum(r_h, n)
    den = (1.0 - rho) * geometric_sum(r_l, n)
    return num, den, _gaps(c, p_L, p_H, num / (num + den)), 1.0 - r_h, 1.0 - r_l


def _root_free(c: float, p_L, p_H, lo, hi):
    """Whether the float gap provably has one strict sign at every grid point
    of each cell, from the ``_mixing_points`` values ``lo`` and ``hi`` at the
    cell's ends (``lo`` at the smaller mixing probability).

    The gap has the sign of ``num*A - den*B`` with ``A = p_H(1-c)`` and
    ``B = p_L c``.  The float ``r = (1 - tail) - alpha*p`` is nonincreasing in
    alpha, since each rounding step is monotone, and the exact geometric sum
    increases in ``r``; so across a cell ``num`` and ``den`` lie between their
    end values, and ``num*A - den*B`` between ``num(b)A - den(a)B`` and
    ``num(a)A - den(b)B``.  The floats stay within a relative 1e-7 of those
    exact values, well inside the margin ``_MARGIN`` on each side: the closed
    form of ``geometric_sum`` loses at most a few ulps over ``1 - r**n >= 1 - r``,
    so under 1e-8 when ``1 - r >= 1e-7``; ``1 - psi`` loses a few ulps over
    ``1 - psi``, so under 1e-7 when ``1 - psi >= 1e-8``; every other step loses
    an ulp while its result stays normal, and the final difference of two
    floats keeps their order.  A cell is therefore never discarded when a
    term is not ``r == 1`` at the right end (where ``r == 1`` and ``G == n``
    throughout) and has ``1 - r < 1e-7`` at the left end, when ``1 - psi``
    may fall below 1e-8, or when a product of the gap that is not exactly
    zero may come near underflow.

    One such term is exempt: an exact ``r == 1`` at the left end, as at the
    top cutoff's ``alpha = 0``.  There ``geometric_sum`` returns ``n``
    exactly, so that end has no error at all.  The float acceptance mass
    ``1 - r`` then rises from 0 linearly in alpha, to within 2**-53, and a
    run spans at most ``DEFAULT_MIXING_GRID`` cells; so if the right end's
    acceptance mass is at least ``2 * _NEAR_ONE * DEFAULT_MIXING_GRID``,
    every other grid point of the run has ``1 - r`` above ``_NEAR_ONE``.
    The guard fires only for a left end that is tiny but not exactly 0, or
    for a right end below that threshold.
    """
    num_a, den_a, _, accept_H_a, accept_L_a = lo
    num_b, den_b, _, accept_H_b, accept_L_b = hi
    A, B = p_H * (1.0 - c), p_L * c
    scale = num_a + den_a  # bounds num + den across the cell
    normal = ((p_H == 0.0) | (c == 1.0) | (num_b * A >= _TINY * scale)) & (
        (p_L == 0.0) | (c == 0.0) | (den_b * B >= _TINY * scale)
    )
    # Per term, from its acceptance masses at the left and the right end.
    near = lambda a, b: (b != 0.0) & (a < _NEAR_ONE) & ((a != 0.0) | (b < _EXACT_END_CLEAR))
    near_one = near(accept_H_a, accept_H_b) | near(accept_L_a, accept_L_b)
    thin = den_b < _THIN_PSI * (num_a + den_b)
    above = num_b * A * (1.0 - _MARGIN) > den_a * B * (1.0 + _MARGIN)
    below = num_a * A * (1.0 + _MARGIN) < den_b * B * (1.0 - _MARGIN)
    return (above | below) & normal & ~near_one & ~thin


def _scan_spacing(pairs: int) -> int:
    """Grid cells between the first evaluated points of a scan over ``pairs``
    (market, cutoff) pairs: the largest power of two at most ``pairs / 2``,
    from 1 up to the whole grid.

    A point costs two geometric sums per pair, and a halving level a fixed
    overhead of numpy calls whatever its size.  A few pairs are cheapest
    evaluated in full, with nothing left to halve; many are cheapest opened
    wide, where a cell that a few points prove root-free drops the most grid
    points at once.
    """
    return min(DEFAULT_MIXING_GRID, 1 << max(0, (pairs // 2).bit_length() - 1))


def _scan_hits(rho: float, c: float, tail_L, tail_H, p_L, p_H, n, spacing: int):
    """The grid cells of each (market, cutoff) pair's mixing gap that hold a
    root, as ``(pair, cell, change, g_lo)`` in (pair, cell) order: a cell
    holds a root when its ends change sign (``change``) or its left point is
    an exact interior zero.  ``g_lo`` is the gap at the cell's left point.

    The list is that of a scan of every point of the
    ``DEFAULT_MIXING_GRID``-cell grid, but most cells are discarded unseen:
    the scan evaluates every ``spacing``-th grid point (a power of two; see
    ``_scan_spacing``), then halves each cell that ``_root_free`` cannot
    discard, at grid points, until single grid cells remain, and applies the
    hit rule to those.  Pairs go in blocks, and each block's cells are
    refined (last in, first out) before the next block starts.
    """
    grid = np.linspace(0.0, 1.0, DEFAULT_MIXING_GRID + 1)
    coarse = np.r_[np.arange(0, DEFAULT_MIXING_GRID, spacing), DEFAULT_MIXING_GRID]
    found = [(np.empty(0, int), np.empty(0, int), np.empty(0, bool), np.empty(0))]
    step = _GRID_BLOCK // coarse.size
    for start in range(0, tail_L.size, step):
        blk = slice(start, start + step)
        col = lambda a: a[blk, None]
        values = _mixing_points(
            rho, c, col(tail_L), col(tail_H), col(p_L), col(p_H), col(n), grid[coarse]
        )
        lo, hi = [v[:, :-1] for v in values], [v[:, 1:] for v in values]
        pair, k = np.nonzero(~_root_free(c, col(p_L), col(p_H), lo, hi))
        # A cell is its pair, its end grid indices and the five values at each
        # end, so its end gaps sit at 5 and 10.
        stack = [(pair + start, coarse[k], coarse[k + 1], *(v[pair, k] for v in lo + hi))]
        while stack:
            cells = stack.pop()
            if cells[0].size > _REFINE_STEP:
                stack.append(tuple(a[_REFINE_STEP:] for a in cells))
                cells = tuple(a[:_REFINE_STEP] for a in cells)
            single = cells[2] - cells[1] == 1
            pair, cell, g0, g1 = (a[single] for a in (cells[0], cells[1], cells[5], cells[10]))
            change = g0 * g1 < 0.0
            hit = change | ((g0 == 0.0) & (cell > 0))
            found.append((pair[hit], cell[hit], change[hit], g0[hit]))
            pair, lo_k, hi_k, *ends = (a[~single] for a in cells)
            if not pair.size:
                continue
            mid = (lo_k + hi_k) // 2
            values = _mixing_points(
                rho, c, tail_L[pair], tail_H[pair], p_L[pair], p_H[pair], n[pair], grid[mid]
            )
            lo = [np.concatenate(v) for v in zip(ends[:5], values)]
            hi = [np.concatenate(v) for v in zip(values, ends[5:])]
            pair, lo_k, hi_k = np.concatenate([pair, pair]), np.r_[lo_k, mid], np.r_[mid, hi_k]
            keep = (hi_k - lo_k == 1) | ~_root_free(c, p_L[pair], p_H[pair], lo, hi)
            stack.append(tuple(a[keep] for a in (pair, lo_k, hi_k, *lo, *hi)))
    pair, cell, change, g_lo = map(np.concatenate, zip(*found))
    order = np.lexsort((cell, pair))
    return pair[order], cell[order], change[order], g_lo[order]


def _solve_chains(rho: float, c: float, p_L: np.ndarray, p_H: np.ndarray, n: np.ndarray) -> list:
    """Equilibrium chains of ``B`` markets that share ``rho`` and ``c``.

    ``p_L`` and ``p_H`` are ``(B, m)`` outcome masses in likelihood-ratio
    order and ``n`` the ``B`` market sizes.  Returns, per market, its chain
    sorted most selective first, or the ``NoEquilibriumFound`` it raises.

    Candidates, in the order they are found: every pure cutoff (never-accept
    included), then for each cutoff outcome the interior roots of its
    indifference gap on a uniform grid of ``DEFAULT_MIXING_GRID`` cells, in
    grid order.  A grid point where the gap is exactly zero is a root; a cell
    whose end gaps have a negative product is bisected to
    ``MIXING_ROOT_TOL``.  ``_scan_hits`` finds those cells, in a large batch
    without evaluating most grid points: it discards a run of cells where a
    bound from the run's end values proves that every grid point's gap has
    one strict sign, and lists the same cells as a scan of every point.  All
    roots are kept because the interim belief need not be monotone in the
    mixing probability for general experiments.  A candidate counts when it is a
    best response to its consistent belief.  Candidates within
    ``_DEDUP_TOL`` pointwise of an earlier kept one are pooled, and the rest
    must form a selectivity chain.

    The brackets are bisected together, one ``_mixing_points`` call per
    step: each bracket's masses are gathered once, the moving brackets are
    carried as compact arrays, and those arrays shrink only on a step where
    some bracket stops.  The records' range is checked once per batch, so
    each record's ``Strategy`` skips its per-entry check
    (``_checked_strategy``).

    The arithmetic is elementwise and in the same order as a one-market
    evaluation, so a market's records do not depend on the batch around it.
    Acceptance-weighted masses are summed left to right.
    """
    B, m = p_L.shape
    alphas = np.linspace(0.0, 1.0, DEFAULT_MIXING_GRID + 1)

    # The mixing-gap scan over (market, cutoff outcome) pairs.
    tail_L = np.stack([p_L[:, j + 1 :].sum(axis=1) for j in range(m)], axis=1).ravel()
    tail_H = np.stack([p_H[:, j + 1 :].sum(axis=1) for j in range(m)], axis=1).ravel()
    pair_L, pair_H, pair_n = p_L.ravel(), p_H.ravel(), np.repeat(n, m)
    pair, cell, change, g_lo = _scan_hits(
        rho, c, tail_L, tail_H, pair_L, pair_H, pair_n, _scan_spacing(pair_n.size)
    )

    # Refine every bracket at once: bisection with the one-bracket stopping
    # rule (|gap| within MIXING_ROOT_TOL, or the cell narrower than 1e-16).
    # ``at`` is each moving bracket's place in ``alpha``, and ``moving`` its
    # ends, the sign of its gap at lo (which keeps its sign as lo moves) and
    # its masses, compressed only on a step where some bracket stops.
    alpha = alphas[cell]
    at = np.flatnonzero(change)
    p = pair[at]
    moving = (
        alphas[cell[at]], alphas[cell[at] + 1], g_lo[at] < 0.0,
        tail_L[p], tail_H[p], pair_L[p], pair_H[p], pair_n[p],
    )
    for _ in range(200):
        if not at.size:
            break
        lo, hi, neg, *masses = moving
        mid = 0.5 * (lo + hi)
        g_mid = _mixing_points(rho, c, *masses, mid)[2]
        done = (np.abs(g_mid) <= MIXING_ROOT_TOL) | (hi - lo < 1e-16)
        same = neg == (g_mid < 0.0)
        moving = (np.where(same, mid, lo), np.where(same, hi, mid), *moving[2:])
        if done.any():
            alpha[at[done]] = mid[done]
            at, moving = at[~done], tuple(a[~done] for a in moving)
    alpha[at] = 0.5 * (moving[0] + moving[1])
    inside = (alpha > 0.0) & (alpha < 1.0)

    # Candidates: pure cutoffs 0..m (mixing 1 at the cutoff, 0 for
    # never-accept) before the mixing roots; a stable sort by market keeps
    # the found order within each market.
    pure_j = np.tile(np.arange(m + 1), B)
    row = np.concatenate([np.repeat(np.arange(B), m + 1), pair[inside] // m])
    cut = np.concatenate([pure_j, pair[inside] % m])
    mix = np.concatenate([np.where(pure_j < m, 1.0, 0.0), alpha[inside]])
    order = np.argsort(row, kind="stable")
    row, cut, mix = row[order], cut[order], mix[order]
    cols = np.arange(m)
    accept = np.where(cols < cut[:, None], 0.0, np.where(cols == cut[:, None], mix[:, None], 1.0))

    # Each candidate against its consistent interim belief.
    P_L, P_H = p_L[row], p_H[row]
    dot_L, dot_H = np.zeros(row.size), np.zeros(row.size)
    for i in range(m):
        dot_L = dot_L + P_L[:, i] * accept[:, i]
        dot_H = dot_H + P_H[:, i] * accept[:, i]
    r_L = np.minimum(1.0, np.maximum(0.0, 1.0 - dot_L))
    r_H = np.minimum(1.0, np.maximum(0.0, 1.0 - dot_H))
    psi = interim_from_rejections(rho, r_L, r_H, n[row])
    ok = _best_response_rows(accept, _gaps(c, P_L, P_H, psi[:, None]))

    # Selectivity key: total acceptance, summed left to right.
    size = accept[:, 0].copy()
    for i in range(1, m):
        size = size + accept[:, i]
    kept = np.flatnonzero(ok)
    kept = kept[_pool_near_duplicates(row[kept], accept[kept], size[kept], m)]
    kept = kept[np.lexsort((size[kept], row[kept]))]  # stable: ties keep the found order
    row, cut, mix, accept, r_L, r_H, psi = (
        a[kept] for a in (row, cut, mix, accept, r_L, r_H, psi)
    )
    same_row = row[1:] == row[:-1]
    broken = same_row & ~(accept[:-1] <= accept[1:] + _CHAIN_TOL).all(axis=1)
    surplus = _surplus(rho, c, n[row], r_L, r_H)

    # Every record's range is checked here at once; Strategy's own check
    # raises the same ValueError for the first record outside [0, 1].
    outside = ~((accept >= 0.0) & (accept <= 1.0)).all(axis=1)
    if outside.any():
        Strategy(tuple(accept[outside.argmax()].tolist()))
    chains: list = [[] for _ in range(B)]
    records = zip(
        row.tolist(), accept.tolist(), psi.tolist(), r_L.tolist(), r_H.tolist(),
        surplus.tolist(), cut.tolist(), mix.tolist(),
    )
    for b, acc, interim, rl, rh, s, j, a in records:
        chains[b].append(Equilibrium(_checked_strategy(tuple(acc)), interim, rl, rh, s, j, a))
    not_chain = set(row[1:][broken].tolist())
    out: list = []
    for b, chain in enumerate(chains):
        if not chain:
            out.append(NoEquilibriumFound(f"no equilibrium found at rho={rho}, c={c}, n={n[b]}"))
        elif b in not_chain:
            out.append(NoEquilibriumFound("equilibrium set is not a selectivity chain"))
        else:
            out.append(tuple(chain))
    return out


def _pool_near_duplicates(row: np.ndarray, accept: np.ndarray, size: np.ndarray, m: int) -> np.ndarray:
    """Mask keeping each candidate unless an earlier kept one of its market
    lies within ``_DEDUP_TOL`` pointwise (candidates in found order).

    Two strategies that close differ in total acceptance by at most
    ``m * _DEDUP_TOL``, so only markets with two candidates whose sizes are
    that close (twice that, for rounding) are compared, one candidate at a
    time against the kept set.
    """
    keep = np.ones(row.size, dtype=bool)
    by_size = np.lexsort((size, row))
    close = (row[by_size][1:] == row[by_size][:-1]) & (
        np.diff(size[by_size]) <= 2 * m * _DEDUP_TOL
    )
    for b in sorted(set(row[by_size][1:][close].tolist())):
        first, last = np.searchsorted(row, [b, b + 1])
        kept = np.empty((last - first, m))
        count = 0
        for t in range(first, last):
            if count and np.abs(kept[:count] - accept[t]).max(axis=1).min() <= _DEDUP_TOL:
                keep[t] = False
            else:
                kept[count] = accept[t]
                count += 1
    return keep


def solve_chains(
    rho: "float | Sequence[float]", c: "float | Sequence[float]", p_L: np.ndarray, p_H: np.ndarray, n
) -> list[tuple[Equilibrium, ...]]:
    """The equilibrium chains of ``B`` markets given as arrays, in input order.

    ``p_L`` and ``p_H`` are ``(B, m)`` outcome masses in likelihood-ratio
    order.  An outcome without mass in either state is not an outcome of its
    market, so a row can hold fewer than ``m`` outcomes.  ``rho``, ``c`` and
    ``n`` give one value per market, or one value for all of them.  Markets
    that share ``rho``, ``c`` and their outcome count are solved together in
    one batch.  If any market fails, raises what the first failing one
    raises: ``DegeneratePrior`` unless ``0 < rho < 1``, or
    ``NoEquilibriumFound``.
    """
    size = len(p_L)
    rhos = [rho] * size if np.ndim(rho) == 0 else list(rho)
    values = [c] * size if np.ndim(c) == 0 else list(c)
    n = np.broadcast_to(np.asarray(n), (size,))
    kept = (p_L + p_H) > 0.0
    groups: dict[tuple[float, float, int], list[int]] = {}
    for i, key in enumerate(zip(rhos, values, kept.sum(axis=1).tolist())):
        groups.setdefault(key, []).append(i)
    results: list = [None] * size
    for (rho_g, c_g, m), idx in groups.items():
        try:
            _require_interior_prior(rho_g)
        except DegeneratePrior as exc:
            for i in idx:
                results[i] = exc
            continue
        rows = np.array(idx)
        group_L, group_H = p_L[rows], p_H[rows]
        if m < p_L.shape[1]:
            keep = kept[rows]
            group_L, group_H = group_L[keep].reshape(-1, m), group_H[keep].reshape(-1, m)
        for i, chain in zip(idx, _solve_chains(rho_g, c_g, group_L, group_H, n[rows])):
            results[i] = chain
    for result in results:
        if isinstance(result, Exception):
            raise result
    return results


def enumerate_chains(specs: Sequence[MarketSpec]) -> list[tuple[Equilibrium, ...]]:
    """``enumerate_equilibria`` of every market in ``specs``, in order, by
    one ``solve_chains`` call: experiments with fewer outcomes than the
    largest are padded with massless ones.  If any market fails, raises what
    the first failing one raises.
    """
    # Each distinct experiment's masses are gathered once: a size sweep's
    # specs all share one.
    slots: dict[int, int] = {}
    pairs: list = []
    index: list[int] = []
    for spec in specs:
        key = id(spec.experiment)
        if key not in slots:
            slots[key] = len(pairs)
            pairs.append(spec.experiment.mass_pairs())
        index.append(slots[key])
    m = max(map(len, pairs), default=0)
    masses = np.array([p + ((0.0, 0.0),) * (m - len(p)) for p in pairs], dtype=float)
    masses = masses.reshape(len(pairs), m, 2)[index]
    return solve_chains(
        [spec.rho for spec in specs], [spec.c for spec in specs],
        masses[:, :, 0], masses[:, :, 1], [spec.n for spec in specs],
    )


def enumerate_equilibria(spec: MarketSpec) -> tuple[Equilibrium, ...]:
    """All monotone-cutoff equilibria, sorted most selective first.

    Every pure cutoff (including never-accept) is kept when optimal against
    its consistent belief, and so is every interior mixing root of each
    cutoff's indifference gap (see ``_solve_chains``).  Near-duplicates
    (within 1e-9 pointwise) are pooled.
    """
    return enumerate_chains([spec])[0]


def chain_index(selector: str) -> int:
    """The index, in a chain sorted most selective first, of the equilibrium
    that ``selector`` picks; a ValueError unless it is one of ``SELECTORS``."""
    if selector not in SELECTORS:
        raise ValueError(f"selector must be {' or '.join(map(repr, SELECTORS))}, got {selector!r}")
    return 0 if selector == "most" else -1


def select_equilibrium(spec: MarketSpec, selector: str) -> Equilibrium:
    """The most or least selective equilibrium, as ``selector`` says."""
    end = chain_index(selector)
    return enumerate_equilibria(spec)[end]


def single_buyer_surplus(rho: float, c: float, experiment: FiniteExperiment) -> float:
    """Equilibrium surplus with one buyer, in closed form.

    With no adverse selection the interim belief equals the prior, so the
    buyer accepts exactly where her posterior beats the reservation value;
    indifferent outcomes contribute nothing either way.
    """
    gains = _gaps(c, experiment.p_L_array(), experiment.p_H_array(), rho)
    return float(np.maximum(gains, 0.0).sum())
