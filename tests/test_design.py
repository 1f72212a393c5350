"""Monotone binary garblings, IC recommendations, and the optimal coarsening."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

import seqmarket.cli as cli
import seqmarket.design as design
from conftest import random_market
from seqmarket.design import (
    garbling_from_param,
    garbling_grid,
    grid_diagnostics,
    ic_intervals,
    is_ic,
    max_irrelevant_param,
    optimal_garbling,
    report_at,
)
from seqmarket.equilibrium import (
    INDIFFERENCE_TOL,
    MarketSpec,
    _gaps,
    _irrelevance_display,
    interim_from_rejections,
    surplus_from_rejections,
)
from seqmarket.errors import ParamOutOfRange
from seqmarket.experiment import build_experiment, is_garbling_of
from seqmarket.scenarios import demo_market, revealing_market, tight_market


def _golden_markets() -> "list[MarketSpec]":
    """The markets of the design goldens."""
    return [
        demo_market(),
        tight_market(),
        revealing_market(),
        random_market(np.random.default_rng(6), m_choices=(4,), n_range=(2, 30)),
        random_market(np.random.default_rng(2), m_choices=(5,), n_range=(2, 30)),
    ]


def _design_doc(spec: MarketSpec, grid_points: int) -> dict:
    """A ``design`` config for ``spec`` that emits a ``grid_points`` grid."""
    return {
        "schema_version": 1,
        "market": {
            "rho": spec.rho,
            "c": spec.c,
            "n": spec.n,
            "experiment": [{"p_L": o.p_L, "p_H": o.p_H} for o in spec.experiment.outcomes],
        },
        "design": {"emit_grid": True, "grid_points": grid_points},
    }


class TestGarblingFromParam:
    def test_threshold_at_signal_boundary(self):
        g = garbling_from_param(demo_market().experiment, 1.0)
        assert g.accept_weights == (0.0, 1.0)
        assert (g.reject_L, g.reject_H) == pytest.approx((0.8, 0.2))
        coarse = build_experiment([(g.reject_L, g.reject_H), (g.accept_L, g.accept_H)])
        assert coarse.labels == pytest.approx((0.2, 0.8), abs=1e-12)

    def test_zero_weight_recommends_nothing(self):
        g = garbling_from_param(demo_market().experiment, 0.0)
        assert g.accept_weights == (0.0, 0.0)
        assert (g.reject_L, g.reject_H) == (1.0, 1.0)

    def test_split_row_masses(self):
        g = garbling_from_param(demo_market().experiment, 1.5)
        assert g.accept_weights == pytest.approx((0.5, 1.0))
        assert (g.reject_L, g.reject_H) == pytest.approx((0.4, 0.1), abs=1e-12)
        assert g.threshold_index == 0
        assert g.mixing_weight == pytest.approx(0.5)

    def test_out_of_range(self):
        with pytest.raises(ParamOutOfRange):
            garbling_from_param(demo_market().experiment, 2.5)
        with pytest.raises(ParamOutOfRange):
            garbling_from_param(demo_market().experiment, -0.1)

    def test_full_acceptance_rejects_nothing_exactly(self):
        # One minus the accept mass can leave a residue of about 1e-16 in
        # each state, whose ratio the irrelevance margin would then read.
        rng = np.random.default_rng(7)
        for _ in range(50):
            exp = random_market(rng, m_choices=(2, 3, 4, 5)).experiment
            g = garbling_from_param(exp, float(exp.m))
            assert (g.reject_L, g.reject_H) == (0.0, 0.0)

    def test_weight_parameter_is_recovered(self):
        exp = tight_market().experiment
        for d in (0.0, 0.3, 1.0, 1.7, 2.0):
            g = garbling_from_param(exp, d)
            assert sum(g.accept_weights) == pytest.approx(d, abs=1e-12)


class TestIncentiveCompatibility:
    def test_demo_threshold_garbling_is_ic(self):
        spec = demo_market()
        assert is_ic(spec, garbling_from_param(spec.experiment, 1.0))

    def test_demo_always_accept_is_ic(self):
        spec = demo_market()
        assert is_ic(spec, garbling_from_param(spec.experiment, 2.0))

    def test_tight_always_accept_is_not_ic(self):
        spec = tight_market()
        assert not is_ic(spec, garbling_from_param(spec.experiment, 2.0))


class TestIrrelevanceMargin:
    def test_tight_market_segment_formula(self):
        # On the top unit segment the margin is prior odds times the high
        # row's likelihood ratio times the rejection-odds ratio, minus the
        # reservation odds.
        spec = tight_market()
        for d in (0.1, 0.5, 0.862, 1.0):
            expected = 4.0 * (1.0 - 0.8 * d) / (1.0 - 0.2 * d) - 1.5
            assert report_at(spec, d).irrelevance_margin == pytest.approx(expected, abs=1e-12)

    def test_tight_market_margin_root(self):
        spec = tight_market()
        d_star = max_irrelevant_param(spec)
        assert d_star == pytest.approx(25.0 / 29.0, abs=1e-10)
        # dense-grid oracle: the margin changes sign nowhere else
        diag = grid_diagnostics(spec, np.linspace(1e-6, 1.0, 10_001))
        signs = np.sign(diag["margin"])
        assert np.count_nonzero(np.diff(signs) != 0) == 1

    def test_boundary_margin_is_adjacent_segment_limit(self):
        spec = demo_market()
        at_zero = report_at(spec, 0.0).irrelevance_margin
        just_above = report_at(spec, 1e-9).irrelevance_margin
        assert at_zero == pytest.approx(just_above, abs=1e-6)

    def test_no_acceptance_garbling_is_irrelevant(self):
        spec = tight_market()
        assert report_at(spec, 0.0).is_irrelevant

    def test_margin_and_predicate_disagree_at_full_acceptance(self):
        # The margin degenerates to +inf with no rejection mass while the
        # predicate still demands the worst-case profitability clause; both
        # readings are reported side by side.
        spec = tight_market()
        report = report_at(spec, 2.0)
        assert math.isinf(report.irrelevance_margin)
        assert not report.is_irrelevant

    def test_full_acceptance_irrelevant_when_worst_case_profitable(self):
        spec = MarketSpec(0.9, 0.05, 2, demo_market().experiment)
        assert report_at(spec, 2.0).is_irrelevant


class TestOptimalGarbling:
    def test_tight_market_returns_least_selective_irrelevant(self):
        spec = tight_market()
        report = optimal_garbling(spec)
        assert report.garbling.D == pytest.approx(25.0 / 29.0, abs=1e-9)
        assert report.is_ic
        diag = grid_diagnostics(spec, np.linspace(0.0, 2.0, 10_001))
        ic_best = diag["obeyed_surplus"][diag["is_ic"]].max()
        assert report.obeyed_surplus >= ic_best - 1e-6

    def test_generous_market_discloses_accept(self):
        spec = MarketSpec(0.9, 0.05, 2, demo_market().experiment)
        report = optimal_garbling(spec)
        assert report.garbling.D == pytest.approx(2.0)

    def test_demo_at_least_replicates_the_selective_equilibrium(self):
        report = optimal_garbling(demo_market())
        assert report.obeyed_surplus >= 0.348 - 1e-9
        diag = grid_diagnostics(demo_market(), np.linspace(0.0, 2.0, 10_001))
        ic_best = diag["obeyed_surplus"][diag["is_ic"]].max()
        assert report.obeyed_surplus >= ic_best - 1e-6

    def test_seeded_grid_dominance_and_selectivity_tie_break(self):
        rng = np.random.default_rng(5150)
        for _ in range(20):
            spec = random_market(rng, m_choices=(2, 3, 4, 5))
            report = optimal_garbling(spec)
            diag = grid_diagnostics(spec, np.linspace(0.0, spec.experiment.m, 10_001))
            mask = diag["is_ic"]
            assert mask.any()
            assert report.obeyed_surplus >= float(diag["obeyed_surplus"][mask].max()) - 1e-6

    def test_least_selective_irrelevant_whenever_reservation_exceeds_prior(self):
        rng = np.random.default_rng(24601)
        checked = 0
        while checked < 20:
            spec = random_market(rng, m_choices=(2, 3, 4))
            if spec.c < spec.rho:
                continue
            checked += 1
            report = optimal_garbling(spec)
            assert report.garbling.D == pytest.approx(max_irrelevant_param(spec), abs=1e-9)


class TestStructuralInvariants:
    def test_coarse_experiment_is_a_garbling_of_the_base(self):
        rng = np.random.default_rng(8675309)
        for _ in range(8):
            spec = random_market(rng, m_choices=(2, 3, 4))
            for d in rng.uniform(0.05, spec.experiment.m - 0.05, size=3):
                g = garbling_from_param(spec.experiment, float(d))
                coarse = build_experiment([(g.reject_L, g.reject_H), (g.accept_L, g.accept_H)])
                assert is_garbling_of(coarse, spec.experiment)

    def test_rejection_masses_decrease_in_the_parameter(self):
        spec = tight_market(4)
        diag = grid_diagnostics(spec, np.linspace(0.0, 2.0, 2001))
        # recompute rejection masses from surplus-independent weights
        r_l = []
        r_h = []
        for d in np.linspace(0.0, 2.0, 2001):
            g = garbling_from_param(spec.experiment, float(d))
            r_l.append(g.reject_L)
            r_h.append(g.reject_H)
        assert all(b <= a + 1e-12 for a, b in zip(r_l, r_l[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(r_h, r_h[1:]))
        interior = diag["margin"][:-1]
        assert all(b <= a + 1e-9 for a, b in zip(interior, interior[1:]))

    def test_ic_set_is_a_union_of_intervals_matching_the_scan(self):
        rng = np.random.default_rng(404)
        for _ in range(6):
            spec = random_market(rng, m_choices=(2, 3))
            intervals = ic_intervals(spec)
            for d in np.linspace(0.0, spec.experiment.m, 301):
                inside = any(lo - 1e-9 <= d <= hi + 1e-9 for lo, hi in intervals)
                assert inside == is_ic(spec, garbling_from_param(spec.experiment, float(d)))

    def test_grid_reports_match_pointwise_reports(self):
        """Every key of a 401-point ``grid_diagnostics`` call is, row by row,
        ``==`` what a one-point call gives: the row independence that the
        batched bisections rely on.  The grid, the one-point reports
        (``report_at``) and the two pieces the searches evaluate alone (the
        IC test and the finite margin), on the grid and at one point, read
        the same rows."""
        rng = np.random.default_rng(31)
        seeded = [random_market(rng, m_choices=(m,), n_range=(2, 50)) for m in (2, 3, 4, 5)]
        for spec in _golden_markets() + seeded:
            exp = spec.experiment
            grid = np.linspace(0.0, float(exp.m), 401)
            diag = grid_diagnostics(spec, grid)
            points = [grid_diagnostics(spec, [d]) for d in grid]
            for key, column in diag.items():
                np.testing.assert_array_equal(column, [p[key][0] for p in points], err_msg=f"{key} {spec}")
            columns = garbling_grid(spec, 401)
            assert columns.keys() == diag.keys()
            for key, column in diag.items():
                np.testing.assert_array_equal(columns[key], column, err_msg=f"{key} {spec}")
            masses = design._masses(exp, grid)
            np.testing.assert_array_equal(design._ic_mask(spec, masses), diag["is_ic"])
            odds, margin = design._finite_margin(spec, grid, masses)
            np.testing.assert_array_equal(odds, diag["rejection_odds"])
            np.testing.assert_array_equal(margin, diag["finite_margin"])
            one_point = [design._masses(exp, [d]) for d in grid]
            np.testing.assert_array_equal([design._ic_mask(spec, x)[0] for x in one_point], diag["is_ic"])
            margins = [design._finite_margin(spec, [d], x)[1][0] for d, x in zip(grid, one_point)]
            np.testing.assert_array_equal(margins, diag["finite_margin"])
            for d, surplus in zip(grid, columns["obeyed_surplus"]):
                assert report_at(spec, float(d)).obeyed_surplus == surplus


class TestLargeMarkets:
    @pytest.mark.parametrize("market", [demo_market, tight_market])
    def test_design_runs_at_five_thousand_buyers(self, tmp_path, market):
        # The rejection masses to the 4999th power underflow to 0 in both
        # states; the odds display must not divide them.
        config = tmp_path / "config.json"
        config.write_text(json.dumps(_design_doc(market(5000), 401)), encoding="utf-8")
        assert cli.main(["design", "--config", str(config), "--out", str(tmp_path)]) == 0
        row = (tmp_path / "design.csv").read_text().splitlines()[1].split(",")
        assert row[3] == "true"


def test_optimum_is_ic_and_beats_every_ic_grid_point():
    """What the benchmark checks of every design op, on 120 seeded markets:
    the reported optimum is IC and no IC point of the 401-point grid has
    obeyed surplus above it by more than 1e-9."""
    rng = np.random.default_rng(90210)
    for _ in range(120):
        spec = random_market(rng, m_choices=(2, 3, 4, 5), n_range=(2, 50))
        report = optimal_garbling(spec)
        assert report.is_ic
        grid = garbling_grid(spec, 401)
        best = grid["obeyed_surplus"][grid["is_ic"]].max()
        assert best <= report.obeyed_surplus + 1e-9, spec


def test_no_binary_recommendation_rule_beats_the_optimum():
    """The monotone family is without loss (the module docstring's
    argument): on 100 seeded markets (m = 2-5, n = 1-29), 2000 random rules
    ``t in [0, 1]^m`` each, a tenth of them deterministic, no IC rule has
    obeyed surplus above ``optimal_garbling``'s by more than 1e-13.  IC and
    surplus are read as ``grid_diagnostics`` reads them, from the rule's
    accept and reject masses.  The largest excess seen over 400 such
    markets was 6.3e-15, float noise."""
    rng = np.random.default_rng(1953)
    ic_rules = 0
    for _ in range(100):
        spec = random_market(rng, m_choices=(2, 3, 4, 5), n_range=(1, 29))
        p_l, p_h = spec.experiment.p_L_array(), spec.experiment.p_H_array()
        t = rng.uniform(size=(2000, spec.experiment.m))
        t[:200] = np.round(t[:200])
        a_l, a_h, r_l, r_h = t @ p_l, t @ p_h, (1.0 - t) @ p_l, (1.0 - t) @ p_h
        psi = interim_from_rejections(spec.rho, r_l, r_h, spec.n)
        ic = ((r_l + r_h == 0.0) | (_gaps(spec.c, r_l, r_h, psi) <= INDIFFERENCE_TOL)) & (
            (a_l + a_h == 0.0) | (_gaps(spec.c, a_l, a_h, psi) >= -INDIFFERENCE_TOL)
        )
        surplus = surplus_from_rejections(spec, r_l, r_h)[ic]
        assert surplus.max(initial=-np.inf) <= optimal_garbling(spec).obeyed_surplus + 1e-13, spec
        ic_rules += ic.sum()
    assert ic_rules >= 10_000


def test_obeyed_surplus_is_unimodal_along_the_parameter():
    """What ``optimal_garbling`` relies on: on 100 seeded markets (m = 2-5,
    n = 1-199) and a 400-point-per-segment grid, obeyed surplus never falls
    before its grid maximum nor rises after it, up to plateaus flat to
    1e-15, and that maximum is the surplus at the largest irrelevant
    parameter D*, to 1e-15.  The largest such step seen over 1000 markets
    was 1.1e-16."""
    rng = np.random.default_rng(1953)
    for _ in range(100):
        spec = random_market(rng, m_choices=(2, 3, 4, 5), n_range=(1, 199))
        m = spec.experiment.m
        surplus = grid_diagnostics(spec, np.linspace(0.0, m, 400 * m + 1))["obeyed_surplus"]
        peak = int(np.argmax(surplus))
        steps = np.diff(surplus)
        assert (steps[:peak] >= -1e-15).all() and (steps[peak:] <= 1e-15).all(), spec
        at_d_star = design.report_at(spec, max_irrelevant_param(spec)).obeyed_surplus
        assert surplus[peak] <= at_d_star + 1e-15, spec



def _max_irrelevant_param_80_steps(spec: MarketSpec) -> "tuple[float, bool]":
    """``max_irrelevant_param`` as it was with a fixed 80 bisection steps;
    also says whether the search bisected."""
    m = spec.experiment.m
    ends = grid_diagnostics(spec, np.arange(m + 1, dtype=float))
    lr_split = design._likelihood_ratios(spec.experiment)[::-1]
    left = _irrelevance_display(spec.rho, spec.c, lr_split, ends["rejection_odds"][:-1], spec.n - 1)
    for seg in range(m, 0, -1):
        if ends["finite_margin"][seg] >= 0.0:
            return float(seg), False
        if left[seg - 1] < 0.0:
            continue
        lo, hi = float(seg - 1), float(seg)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if grid_diagnostics(spec, [mid])["finite_margin"][0] >= 0.0:
                lo = mid
            else:
                hi = mid
        return lo, True
    return 0.0, False


def _ic_intervals_one_call_per_step(spec: MarketSpec) -> "tuple[tuple[float, float], ...]":
    """``ic_intervals`` as it was, with one ``grid_diagnostics`` call per
    bisection step for all disagreeing scan cells together."""
    m = spec.experiment.m
    grid = np.linspace(0.0, float(m), m * design.IC_SCAN_PER_SEGMENT + 1)
    ok = grid_diagnostics(spec, grid)["is_ic"]
    cells = np.flatnonzero(ok[:-1] != ok[1:])
    a, b, a_ok = grid[cells], grid[cells + 1], ok[cells]
    active = np.flatnonzero(b - a > design.IC_REFINE_TOL)
    while active.size:
        mid = 0.5 * (a[active] + b[active])
        up = grid_diagnostics(spec, mid)["is_ic"] == a_ok[active]
        a[active[up]] = mid[up]
        b[active[~up]] = mid[~up]
        active = active[b[active] - a[active] > design.IC_REFINE_TOL]
    edge = dict(zip(cells.tolist(), np.where(a_ok, a, b).tolist()))
    starts = np.flatnonzero(ok & np.r_[True, ~ok[:-1]]).tolist()
    stops = np.flatnonzero(ok & np.r_[~ok[1:], True]).tolist()
    last = grid.size - 1
    return tuple(
        (edge[i - 1] if i else float(grid[0]), edge[j] if j < last else float(grid[last]))
        for i, j in zip(starts, stops)
    )


def _search_markets() -> "list[MarketSpec]":
    """The design-golden markets and 40 seeded ones."""
    rng = np.random.default_rng(4711)
    return _golden_markets() + [random_market(rng, m_choices=(2, 3, 4, 5), n_range=(2, 50)) for _ in range(40)]


def test_max_irrelevant_param_stops_bisecting_without_moving():
    """Stopping once the midpoint repeats an end returns the float that 80
    steps return."""
    bisected = 0
    for spec in _search_markets():
        want, did_bisect = _max_irrelevant_param_80_steps(spec)
        assert max_irrelevant_param(spec) == want, spec
        bisected += did_bisect
    assert bisected >= 10


def test_ic_intervals_match_one_call_per_step():
    """Six bisection steps per call return the boundaries of one call per step."""
    refined = 0
    for spec in _search_markets():
        want = _ic_intervals_one_call_per_step(spec)
        assert ic_intervals(spec) == want, spec
        refined += sum(0.0 < lo or hi < spec.experiment.m for lo, hi in want)
    assert refined >= 10


def test_searches_batch_their_bisection_steps(monkeypatch):
    """Six bisection steps per evaluation (one ``_masses`` call), and never
    the whole ``grid_diagnostics``: each search evaluates only the piece it
    tests.  ``max_irrelevant_param`` makes one evaluation for the segment
    ends and at most ceil(80 / 6) for its bisection.  ``ic_intervals`` makes
    one for its scan and ceil(31 / 6) for the 31 halvings that take a 1/512
    cell below ``IC_REFINE_TOL``; the bound leaves one to spare."""
    calls = []
    masses = design._masses
    monkeypatch.setattr(design, "_masses", lambda *args: calls.append(0) or masses(*args))
    monkeypatch.setattr(design, "grid_diagnostics", None)
    for spec in _search_markets():
        calls.clear()
        max_irrelevant_param(spec)
        assert 1 <= len(calls) <= 1 + math.ceil(80 / 6), spec
        calls.clear()
        ic_intervals(spec)
        assert 1 <= len(calls) <= 8, spec


def _grid_markets() -> "list[MarketSpec]":
    """The design-golden markets, a seeded one for each m = 2-5 and
    n = 1, 2, 50, 5000, and a seeded one with a revealing top row."""
    rng = np.random.default_rng(2023)
    seeded = [random_market(rng, m_choices=(m,), n_range=(n, n)) for m in (2, 3, 4, 5) for n in (1, 2, 50, 5000)]
    return _golden_markets() + seeded + [random_market(rng, m_choices=(4,), fully_revealing_top=True)]


def test_design_grid_csv_matches_pointwise_reports(tmp_path):
    """Every ``design_grid.csv`` line the CLI writes from the grid's columns
    is the line the writer makes from the report at that ``D``, on markets
    whose optimum at ``D*`` is IC and markets where it is not."""
    ic_at_d_star = set()
    for k, spec in enumerate(_grid_markets()):
        config = tmp_path / f"{k}.json"
        config.write_text(json.dumps(_design_doc(spec, 201)), encoding="utf-8")
        assert cli.main(["design", "--config", str(config), "--out", str(tmp_path / str(k))]) == 0
        spec = cli.parse_config(config.read_text(encoding="utf-8")).market
        grid = np.linspace(0.0, float(spec.experiment.m), 201)
        rows = [cli._design_row(design.report_at(spec, float(d))) for d in grid]
        columns = {name: [row[name] for row in rows] for name in rows[0]}
        (want,) = cli._write_csvs(tmp_path / f"want{k}", {"design_grid": columns})
        assert (tmp_path / str(k) / "design_grid.csv").read_bytes() == want.read_bytes(), spec
        ic_at_d_star.add(design.report_at(spec, max_irrelevant_param(spec)).is_ic)
    assert ic_at_d_star == {True, False}
