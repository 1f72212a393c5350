"""Surplus-maximising coarsening of buyers' information.

A monotone binary garbling pools the experiment's outcomes into a reject /
accept recommendation by a threshold row, splitting at most one row.  The
family is parameterised by the total accept weight ``D`` (a bijection onto
``[0, m]``; smaller ``D`` means more selective).  Along ``D`` the obeyed
surplus is unimodal with its peak where the irrelevance margin ``F`` changes
sign, which is what the optimiser exploits: it returns the least selective
garbling under which adverse selection is irrelevant when that garbling's
recommendations are incentive compatible, and otherwise the better of the
nearest IC points on either side of the peak.

The family is without loss among all binary recommendation rules
``t in [0, 1]^m`` (accept outcome ``i`` with probability ``t_i``).  A rule
enters the obeyed surplus and both IC gaps only through its accept masses
``(a_L, a_H) = (t . p_L, t . p_H)``, with reject masses ``r = 1 - a``.  At a
given ``a_L`` the largest ``a_H`` accepts the rows in descending
likelihood-ratio order (Neyman-Pearson): a monotone garbling, a point of the
experiment's likelihood-ratio frontier.  Raising ``a_H`` at fixed ``a_L``

- raises the obeyed surplus ``rho (1-c) (1 - r_H^n) - (1-rho) c (1 - r_L^n)``;
- raises the accept gap, whose sign at the consistent interim belief is that
  of ``rho (1-c) (1 - r_H^n) - (1-rho) c a_L G(r_L)``, where
  ``G(r) = sum_{k<n} r^k``;
- lowers the reject gap, whose sign is that of
  ``rho (1-c) r_H G(r_H) - (1-rho) c r_L G(r_L)``, since ``r G(r)`` rises
  in ``r``.

So moving a rule to the frontier keeps it IC and weakly raises its obeyed
surplus, and the best IC monotone garbling is the best IC rule.

``grid_diagnostics`` evaluates garblings, vectorised over ``D``: the grid
and the reports (``report_at`` at one ``D``) read its columns.  The searches
evaluate only the piece they test, the IC test or the finite irrelevance
margin, which ``grid_diagnostics`` composes, so each formula has one copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParamOutOfRange
from .equilibrium import (
    INDIFFERENCE_TOL,
    MarketSpec,
    _bisect,
    _gaps,
    _irrelevance_display,
    interim_from_rejections,
    surplus_from_rejections,
)
from .experiment import FiniteExperiment, _likelihood_ratios

IC_REFINE_TOL = 1e-12
# Scan points per unit segment of D in ic_intervals, before its boundaries
# are bisected.
IC_SCAN_PER_SEGMENT = 512


@dataclass(frozen=True)
class MonotoneBinaryGarbling:
    """Threshold coarsening of ``base`` with total accept weight ``D``."""

    base: FiniteExperiment
    D: float
    accept_weights: tuple[float, ...]  # t_{i2}, ascending likelihood-ratio order
    threshold_index: int  # the row read as the threshold signal s*
    reject_L: float
    reject_H: float
    accept_L: float
    accept_H: float

    @property
    def mixing_weight(self) -> float:
        """Fraction of the threshold row mapped to the accept recommendation."""
        return float(self.accept_weights[self.threshold_index])

    @property
    def threshold_label(self) -> float:
        return self.base.outcomes[self.threshold_index].label


def _accept_weights(m: int, d) -> np.ndarray:
    d_arr = np.asarray(d, dtype=float)
    offsets = m - 1 - np.arange(m)
    return np.clip(d_arr[..., None] - offsets, 0.0, 1.0)


def _threshold_row(m: int, d) -> np.ndarray:
    # Left-limit convention: for D in (k, k+1] the split row is m-1-k; at
    # D == 0 the threshold is read at the top row.
    d_arr = np.asarray(d, dtype=float)
    seg = np.maximum(np.ceil(d_arr).astype(int), 1)
    return np.clip(m - seg, 0, m - 1)


def _row_dots(w: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``w[i] @ p`` for every row ``i``, each one BLAS dot product (a stack
    of 1 x m by m x 1 products), so a row's value does not depend on the
    rows around it; a matrix-vector product would round differently."""
    return (w[:, None, :] @ p[:, None])[:, 0, 0]


def _masses(exp: FiniteExperiment, d: np.ndarray):
    """Accept weights, then the accept and reject masses per state, of the
    garblings with parameters ``d``.

    A reject mass sums the rejected shares of the rows rather than taking
    one minus the accept mass: it is then exactly 0 where every row is
    accepted, where the difference can leave a rounding residue of about
    1e-16 whose ratio between the states is noise.
    """
    weights = _accept_weights(exp.m, d)
    p_l, p_h = exp.p_L_array(), exp.p_H_array()
    return (
        weights,
        _row_dots(weights, p_l),
        _row_dots(weights, p_h),
        _row_dots(1.0 - weights, p_l),
        _row_dots(1.0 - weights, p_h),
    )


def _check_param(exp: FiniteExperiment, d: float) -> None:
    if not 0.0 <= d <= exp.m:
        raise ParamOutOfRange(f"garbling parameter {d} outside [0, {exp.m}]")


def garbling_from_param(exp: FiniteExperiment, d: float) -> MonotoneBinaryGarbling:
    """The monotone binary garbling with accept weight ``d`` in ``[0, m]``."""
    _check_param(exp, d)
    weights, accept_l, accept_h, reject_l, reject_h = _masses(exp, np.asarray([d], dtype=float))
    return MonotoneBinaryGarbling(
        base=exp,
        D=float(d),
        accept_weights=tuple(weights[0].tolist()),
        threshold_index=int(_threshold_row(exp.m, d)),
        reject_L=float(reject_l[0]),
        reject_H=float(reject_h[0]),
        accept_L=float(accept_l[0]),
        accept_H=float(accept_h[0]),
    )


def _ic_mask(spec: MarketSpec, masses) -> np.ndarray:
    """Whether obeying each garbling's recommendations is optimal at the
    consistent interim belief, from its ``_masses``; a recommendation never
    issued imposes no condition."""
    _, accept_l, accept_h, reject_l, reject_h = masses
    psi = interim_from_rejections(spec.rho, reject_l, reject_h, spec.n)
    return ((reject_l + reject_h == 0.0) | (_gaps(spec.c, reject_l, reject_h, psi) <= INDIFFERENCE_TOL)) & (
        (accept_l + accept_h == 0.0) | (_gaps(spec.c, accept_l, accept_h, psi) >= -INDIFFERENCE_TOL)
    )


def _finite_margin(spec: MarketSpec, lr: np.ndarray, rows: np.ndarray, masses) -> tuple[np.ndarray, np.ndarray]:
    """The rejection odds and the finite irrelevance margin of garblings
    with threshold rows ``rows`` and masses ``masses`` (see
    ``grid_diagnostics``), from the experiment's likelihood ratios ``lr``."""
    _, accept_l, accept_h, reject_l, reject_h = masses
    with np.errstate(divide="ignore", invalid="ignore"):
        odds = np.where(
            reject_l + reject_h == 0.0, lr[0], np.where(accept_l + accept_h == 0.0, 1.0, reject_h / reject_l)
        )
    return odds, _irrelevance_display(spec.rho, spec.c, lr[rows], odds, spec.n - 1)


def grid_diagnostics(spec: MarketSpec, d_values) -> dict[str, np.ndarray]:
    """Everything the design reports of the garblings with parameters
    ``d_values``, in one vectorised pass (``garbling_from_param`` only forms
    masses, through ``_masses``).  It composes the IC test (``_ic_mask``)
    and the finite margin (``_finite_margin``), which the searches evaluate
    alone, so each point's IC flag and margin are those the searches read.

    Returns arrays in grid order keyed ``D``; ``weights`` (accept weight per
    row), ``threshold_row``, and that row's ``threshold_label`` and
    ``mixing_weight`` (as ``MonotoneBinaryGarbling`` reads them);
    ``accept_L``, ``accept_H``, ``reject_L``, ``reject_H``; ``is_ic``;
    ``rejection_odds`` and ``finite_margin``, ``margin``, ``is_irrelevant``;
    and ``obeyed_surplus``.

    A recommendation is IC when obeying it is optimal at the consistent
    interim belief; one never issued imposes no condition.  The finite
    margin is prior odds times the threshold row's likelihood ratio times
    the rejection odds ``r_H / r_L`` to the ``n - 1``, minus the reservation
    odds.  With no rejection mass (``D == m``) the rejection odds degenerate
    to the bottom row's likelihood ratio, their limit along the top segment;
    with no acceptance mass (``D == 0``) to 1, their limit from above.  The
    reported margin ``F`` is +inf where nothing is ever rejected.
    """
    exp = spec.experiment
    d = np.asarray(d_values, dtype=float)
    masses = _masses(exp, d)
    weights, accept_l, accept_h, reject_l, reject_h = masses
    no_reject = reject_l + reject_h == 0.0
    no_accept = accept_l + accept_h == 0.0
    lr, rows = _likelihood_ratios(exp), _threshold_row(exp.m, d)
    odds, finite_margin = _finite_margin(spec, lr, rows, masses)
    # Irrelevance also holds where acceptance is never recommended, and,
    # where rejection never is, only if even n bottom signals leave trade
    # weakly profitable; that clause can disagree with the +inf margin.
    never_reject_ok = no_reject.any() and (
        _irrelevance_display(spec.rho, spec.c, lr[0], lr[0], spec.n - 1) >= 0.0
    )
    irrelevant = no_accept | np.where(no_reject, never_reject_ok, finite_margin >= 0.0)
    return {
        "D": d,
        "weights": weights,
        "threshold_row": rows,
        "threshold_label": np.asarray(exp.labels)[rows],
        "mixing_weight": np.take_along_axis(weights, rows[:, None], axis=1)[:, 0],
        "accept_L": accept_l,
        "accept_H": accept_h,
        "reject_L": reject_l,
        "reject_H": reject_h,
        "is_ic": _ic_mask(spec, masses),
        "rejection_odds": odds,
        "finite_margin": finite_margin,
        "margin": np.where(no_reject, np.inf, finite_margin),
        "is_irrelevant": irrelevant,
        "obeyed_surplus": surplus_from_rejections(spec, reject_l, reject_h),
    }


@dataclass(frozen=True)
class GarblingReport:
    garbling: MonotoneBinaryGarbling
    is_ic: bool
    is_irrelevant: bool
    irrelevance_margin: float
    obeyed_surplus: float


_REPORT_COLUMNS = (
    "D", "weights", "threshold_row", "reject_L", "reject_H", "accept_L", "accept_H",
    "is_ic", "is_irrelevant", "margin", "obeyed_surplus",
)


def _reports(spec: MarketSpec, diag: dict[str, np.ndarray]) -> list[GarblingReport]:
    return [
        GarblingReport(
            MonotoneBinaryGarbling(spec.experiment, d, tuple(w), row, rl, rh, al, ah), ic, irr, f, s
        )
        for d, w, row, rl, rh, al, ah, ic, irr, f, s in zip(*(diag[k].tolist() for k in _REPORT_COLUMNS))
    ]


def report_at(spec: MarketSpec, d: float) -> GarblingReport:
    _check_param(spec.experiment, d)
    return _reports(spec, grid_diagnostics(spec, [d]))[0]


def is_ic(spec: MarketSpec, g: MonotoneBinaryGarbling) -> bool:
    """Whether obeying the recommendations is an equilibrium of the induced game."""
    return bool(grid_diagnostics(spec.with_experiment(g.base), [g.D])["is_ic"][0])


def max_irrelevant_param(spec: MarketSpec) -> float:
    """The largest ``D`` whose garbling leaves adverse selection irrelevant.

    The finite-limit margin is decreasing within each unit segment of ``D``
    and jumps weakly downward at integers, so the maximiser is found by
    scanning segments from the top and bisecting inside the first segment
    whose left end is nonnegative, until the midpoint repeats an end or for
    at most 80 steps (the descent through the dense floats near 0).
    ``D == 0`` always qualifies (acceptance is never recommended there).
    """
    exp = spec.experiment
    lr = _likelihood_ratios(exp)
    margin = lambda d: _finite_margin(spec, lr, _threshold_row(exp.m, d), _masses(exp, d))
    ends = np.arange(exp.m + 1, dtype=float)
    odds, at_ends = margin(ends)
    # The margin's limit at the left end of segment (seg - 1, seg], which
    # splits row m - seg: that row's likelihood ratio with the rejection
    # odds of the garbling seg - 1.
    left = _irrelevance_display(spec.rho, spec.c, lr[::-1], odds[:-1], spec.n - 1)
    for seg in range(exp.m, 0, -1):
        if at_ends[seg] >= 0.0:
            return float(seg)
        if left[seg - 1] < 0.0:
            continue
        holds = lambda d: margin(d)[1] >= 0.0
        (lo,), _ = _bisect(holds, [seg - 1], [seg], 80)
        return lo
    return 0.0


def ic_intervals(spec: MarketSpec) -> tuple[tuple[float, float], ...]:
    """The set of ``D`` with incentive-compatible recommendations, as closed
    intervals.  Both IC margins are continuous in ``D``, so a dense scan with
    bisection-refined boundaries recovers the set: each boundary bisects from
    its scan cell's IC end until ``|hi - lo| <= IC_REFINE_TOL``."""
    exp = spec.experiment
    holds = lambda d: _ic_mask(spec, _masses(exp, d))
    grid = np.linspace(0.0, float(exp.m), exp.m * IC_SCAN_PER_SEGMENT + 1)
    ok = holds(grid)
    # Bisect every disagreeing scan cell from its IC end, grid[i + ok[i + 1]].
    cells = np.flatnonzero(ok[:-1] != ok[1:])
    edges, _ = _bisect(holds, grid[cells + ok[cells + 1]], grid[cells + ok[cells]], 60, IC_REFINE_TOL)
    edge = dict(zip(cells.tolist(), edges))
    starts = np.flatnonzero(ok & np.r_[True, ~ok[:-1]]).tolist()
    stops = np.flatnonzero(ok & np.r_[~ok[1:], True]).tolist()
    last = grid.size - 1
    return tuple(
        (edge[i - 1] if i else float(grid[0]), edge[j] if j < last else float(grid[last]))
        for i, j in zip(starts, stops)
    )


def optimal_garbling(spec: MarketSpec) -> GarblingReport:
    """The regulator's surplus-maximising monotone binary garbling.

    Obeyed surplus is unimodal in ``D`` and peaks at the largest irrelevant
    parameter ``D*``.  If that garbling is IC it is optimal; otherwise the
    optimum is the better of the largest IC parameter at or below ``D*`` and
    the smallest IC parameter at or above it, with ties broken toward the
    more selective garbling.
    """
    spec.require_interior_prior()
    d_star = max_irrelevant_param(spec)
    report = report_at(spec, d_star)
    if report.is_ic:
        return report
    intervals = ic_intervals(spec)
    below = [min(hi, d_star) for lo, hi in intervals if lo <= d_star]
    above = [max(lo, d_star) for lo, hi in intervals if hi >= d_star]
    candidates = [pick(ds) for pick, ds in ((max, below), (min, above)) if ds]
    if not candidates:
        raise RuntimeError("no incentive-compatible garbling found; solver defect")
    reports = _reports(spec, grid_diagnostics(spec, candidates))
    return max(reports, key=lambda r: (r.obeyed_surplus, -r.garbling.D))


def garbling_grid(spec: MarketSpec, num_points: int) -> dict[str, np.ndarray]:
    """``grid_diagnostics`` on a uniform ``D`` grid (inclusive endpoints),
    as columns: no per-point report is built."""
    grid = np.linspace(0.0, float(spec.experiment.m), num_points)
    return grid_diagnostics(spec, grid)
