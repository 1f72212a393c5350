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
        if not 0.0 < self.rho < 1.0:
            raise DegeneratePrior(f"equilibrium routines need rho in (0, 1), got {self.rho}")


@dataclass(frozen=True)
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

    @staticmethod
    def cutoff(m: int, index: int, mixing: float = 1.0) -> "Strategy":
        """Monotone strategy: reject below ``index``, accept ``mixing`` there, accept above."""
        if index >= m:
            return Strategy((0.0,) * m)
        accept = [0.0] * index + [mixing] + [1.0] * (m - index - 1)
        return Strategy(tuple(accept))


@dataclass(frozen=True)
class Benchmarks:
    full_info: float
    no_info: float


@dataclass(frozen=True)
class Equilibrium:
    strategy: Strategy
    interim: float
    r_L: float
    r_H: float
    surplus: float
    cutoff_index: int  # first outcome accepted with positive probability; m if none
    mixing_prob: float  # acceptance probability at the cutoff outcome (0.0 if none)


@dataclass(frozen=True)
class BestResponse:
    """Outcome partition implied by an interim belief."""

    must_reject: tuple[int, ...]
    must_accept: tuple[int, ...]
    indifferent: tuple[int, ...]


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
    if isinstance(n, int) or not np.any(n == 2):
        return x**n
    return np.where(n == 2, x * x, x**n)


def geometric_sum(r, n):
    """``sum_{k=0}^{n-1} r**k`` for scalars or arrays, stable near ``r == 1``.

    ``n`` is an int or an integer array broadcast against ``r``.
    """
    r_arr = np.asarray(r, dtype=float)
    gap = 1.0 - r_arr
    near_one = np.abs(gap) < 1e-10
    if r_arr.ndim and not near_one.any():
        return (1.0 - _power(r_arr, n)) / gap
    safe = np.where(near_one, 0.5, r_arr)
    closed = (1.0 - _power(safe, n)) / (1.0 - safe)
    taylor = n * (1.0 - (n - 1) * (1.0 - r_arr) / 2.0)
    out = np.where(near_one, taylor, closed)
    return float(out) if np.isscalar(r) or out.ndim == 0 else out


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


def _acceptance_gaps(spec: MarketSpec, interim: float) -> np.ndarray:
    return _gaps(spec.c, spec.experiment.p_L_array(), spec.experiment.p_H_array(), interim)


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


def best_response(spec: MarketSpec, interim: float) -> BestResponse:
    """Partition outcomes into must-reject / must-accept / indifferent."""
    gaps = _acceptance_gaps(spec, interim)
    reject = tuple(int(j) for j in np.flatnonzero(gaps < -INDIFFERENCE_TOL))
    accept = tuple(int(j) for j in np.flatnonzero(gaps > INDIFFERENCE_TOL))
    indiff = tuple(
        int(j) for j in np.flatnonzero(np.abs(gaps) <= INDIFFERENCE_TOL)
    )
    return BestResponse(reject, accept, indiff)


def is_optimal_against(spec: MarketSpec, strategy: Strategy, interim: float) -> bool:
    """Whether ``strategy`` is a best response to ``interim`` (indifference tolerated)."""
    _check_length(spec, strategy)
    return bool(_best_response_rows(strategy.as_array(), _acceptance_gaps(spec, interim)))


# Grid points of the mixing-gap scan evaluated per block.  It bounds the
# kernel's scratch memory whatever the batch size, and keeps each temporary
# array (15 rows of 1025 doubles) under glibc's default 128 KiB mmap
# threshold, so temporaries are reused from the heap instead of being
# mapped, page-faulted and unmapped on every operation (about 3x slower).
_GRID_BLOCK = 1 << 14
_DEDUP_TOL = 1e-9
_CHAIN_TOL = 1e-12


def _mixing_gaps(rho: float, c: float, tail_L, tail_H, p_L, p_H, n, alphas):
    """Indifference gap at the cutoff outcome (masses ``p_L``, ``p_H``) of
    cutoff strategies mixing with probability ``alphas`` there and accepting
    the outcomes above (masses ``tail_L``, ``tail_H``)."""
    r_l = 1.0 - tail_L - alphas * p_L
    r_h = 1.0 - tail_H - alphas * p_H
    return _gaps(c, p_L, p_H, interim_from_rejections(rho, r_l, r_h, n))


def _solve_chains(rho: float, c: float, p_L: np.ndarray, p_H: np.ndarray, n: np.ndarray) -> list:
    """Equilibrium chains of ``B`` markets that share ``rho`` and ``c``.

    ``p_L`` and ``p_H`` are ``(B, m)`` outcome masses in likelihood-ratio
    order and ``n`` the ``B`` market sizes.  Returns, per market, its chain
    sorted most selective first, or the ``NoEquilibriumFound`` it raises.

    Candidates, in the order they are found: every pure cutoff (never-accept
    included), then for each cutoff outcome the interior roots of its
    indifference gap, scanned on a uniform grid of ``DEFAULT_MIXING_GRID``
    cells in grid order.  A grid point where the gap is exactly zero is a
    root; a cell whose end gaps have a negative product is bisected to
    ``MIXING_ROOT_TOL``.  All roots are kept because the interim belief need
    not be monotone in the mixing probability for general experiments.  A
    candidate counts when it is a best response to its consistent belief.
    Candidates within ``_DEDUP_TOL`` pointwise of an earlier kept one are
    pooled, and the rest must form a selectivity chain.

    The arithmetic is elementwise and in the same order as a one-market
    evaluation, so a market's records do not depend on the batch around it.
    Acceptance-weighted masses are summed left to right.
    """
    B, m = p_L.shape
    alphas = np.linspace(0.0, 1.0, DEFAULT_MIXING_GRID + 1)

    # The mixing-gap scan over (market, cutoff outcome) pairs, in blocks.
    tail_L = np.stack([p_L[:, j + 1 :].sum(axis=1) for j in range(m)], axis=1).ravel()
    tail_H = np.stack([p_H[:, j + 1 :].sum(axis=1) for j in range(m)], axis=1).ravel()
    pair_L, pair_H, pair_n = p_L.ravel(), p_H.ravel(), np.repeat(n, m)
    interior = (alphas[:-1] > 0.0) & (alphas[:-1] < 1.0)
    pairs, cells, changes, g_cell = [np.empty(0, int)], [np.empty(0, int)], [np.empty(0, bool)], [np.empty(0)]
    step = max(1, _GRID_BLOCK // alphas.size)
    for start in range(0, B * m, step):
        blk = slice(start, start + step)
        col = lambda a: a[blk, None]
        g = _mixing_gaps(
            rho, c, col(tail_L), col(tail_H), col(pair_L), col(pair_H), col(pair_n), alphas
        )
        g0, g1 = g[:, :-1], g[:, 1:]
        # A cell holds a root when its left point is an exact interior zero
        # or its ends change sign; never both, since a zero end makes the
        # product zero.  nonzero() lists the cells in found order.
        change = g0 * g1 < 0.0
        hit = change | ((g0 == 0.0) & interior)
        if hit.any():
            pair, cell = np.nonzero(hit)
            pairs.append(pair + start)
            cells.append(cell)
            changes.append(change[pair, cell])
            g_cell.append(g0[pair, cell])
    pair, cell, change, g_lo = map(np.concatenate, (pairs, cells, changes, g_cell))

    # Refine every bracket at once: bisection with the one-bracket stopping
    # rule (|gap| within MIXING_ROOT_TOL, or the cell narrower than 1e-16).
    alpha = alphas[cell]
    bracket = np.flatnonzero(change)
    lo, hi, g_lo = alphas[cell[bracket]], alphas[cell[bracket] + 1], g_lo[bracket]
    b_pair = pair[bracket]
    active = np.arange(bracket.size)
    for _ in range(200):
        if not active.size:
            break
        a, p = active, b_pair[active]
        mid = 0.5 * (lo[a] + hi[a])
        g_mid = _mixing_gaps(rho, c, tail_L[p], tail_H[p], pair_L[p], pair_H[p], pair_n[p], mid)
        done = (np.abs(g_mid) <= MIXING_ROOT_TOL) | (hi[a] - lo[a] < 1e-16)
        alpha[bracket[a[done]]] = mid[done]
        same = (g_lo[a] < 0.0) == (g_mid < 0.0)
        up, down = ~done & same, ~done & ~same
        lo[a[up]], g_lo[a[up]] = mid[up], g_mid[up]
        hi[a[down]] = mid[down]
        active = a[~done]
    alpha[bracket[active]] = 0.5 * (lo[active] + hi[active])
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
    row, cut, mix, accept, r_L, r_H, psi = (
        a[ok] for a in (row, cut, mix, accept, r_L, r_H, psi)
    )

    # Selectivity key: total acceptance, summed left to right.
    size = accept[:, 0].copy()
    for i in range(1, m):
        size = size + accept[:, i]
    keep = _pool_near_duplicates(row, accept, size, m)
    row, cut, mix, accept, r_L, r_H, psi, size = (
        a[keep] for a in (row, cut, mix, accept, r_L, r_H, psi, size)
    )
    order = np.lexsort((size, row))  # stable: ties keep the found order
    row, cut, mix, accept, r_L, r_H, psi = (
        a[order] for a in (row, cut, mix, accept, r_L, r_H, psi)
    )
    same_row = row[1:] == row[:-1]
    broken = same_row & ~(accept[:-1] <= accept[1:] + _CHAIN_TOL).all(axis=1)
    surplus = _surplus(rho, c, n[row], r_L, r_H)

    chains: list = [[] for _ in range(B)]
    records = zip(
        row.tolist(), accept.tolist(), psi.tolist(), r_L.tolist(), r_H.tolist(),
        surplus.tolist(), cut.tolist(), mix.tolist(),
    )
    for b, acc, interim, rl, rh, s, j, a in records:
        chains[b].append(Equilibrium(Strategy(tuple(acc)), interim, rl, rh, s, j, a))
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


def enumerate_chains(specs: Sequence[MarketSpec]) -> list[tuple[Equilibrium, ...]]:
    """``enumerate_equilibria`` of every market in ``specs``, in order.

    Markets sharing ``rho``, ``c`` and the outcome count are solved together
    in one batch.  If any market fails, raises what the first failing one
    raises.
    """
    results: list = [None] * len(specs)
    groups: dict[tuple[float, float, int], list[int]] = {}
    for i, spec in enumerate(specs):
        try:
            spec.require_interior_prior()
        except DegeneratePrior as exc:
            results[i] = exc
            continue
        groups.setdefault((spec.rho, spec.c, spec.experiment.m), []).append(i)
    for (rho, c, m), idx in groups.items():
        masses = np.array([specs[i].experiment.mass_pairs() for i in idx], dtype=float)
        p_L = np.ascontiguousarray(masses[:, :, 0])
        p_H = np.ascontiguousarray(masses[:, :, 1])
        n = np.array([specs[i].n for i in idx])
        for i, chain in zip(idx, _solve_chains(rho, c, p_L, p_H, n)):
            results[i] = chain
    for result in results:
        if isinstance(result, Exception):
            raise result
    return results


def enumerate_equilibria(spec: MarketSpec) -> tuple[Equilibrium, ...]:
    """All monotone-cutoff equilibria, sorted most selective first.

    Every pure cutoff (including never-accept) is kept when optimal against
    its consistent belief, and so is every interior mixing root of each
    cutoff's indifference gap (see ``_solve_chains``).  Near-duplicates
    (within 1e-9 pointwise) are pooled.
    """
    return enumerate_chains([spec])[0]


def most_selective(spec: MarketSpec) -> Equilibrium:
    return enumerate_equilibria(spec)[0]


def least_selective(spec: MarketSpec) -> Equilibrium:
    return enumerate_equilibria(spec)[-1]


def select_equilibrium(spec: MarketSpec, selector: str) -> Equilibrium:
    """``selector`` is ``"most"`` or ``"least"`` (selective)."""
    if selector not in ("most", "least"):
        raise ValueError(f"selector must be 'most' or 'least', got {selector!r}")
    chain = enumerate_equilibria(spec)
    return chain[0] if selector == "most" else chain[-1]


def single_buyer_surplus(rho: float, c: float, experiment: FiniteExperiment) -> float:
    """Equilibrium surplus with one buyer, in closed form.

    With no adverse selection the interim belief equals the prior, so the
    buyer accepts exactly where her posterior beats the reservation value;
    indifferent outcomes contribute nothing either way.
    """
    p_l = experiment.p_L_array()
    p_h = experiment.p_H_array()
    gains = rho * p_h * (1.0 - c) - (1.0 - rho) * p_l * c
    return float(np.maximum(gains, 0.0).sum())
