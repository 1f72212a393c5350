"""Market-size sweeps, informativeness statics, overrides, and thresholds."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_solver as reference
import seqmarket.statics as statics

from conftest import loaded_modules, random_market
from seqmarket.equilibrium import MarketSpec, Strategy, enumerate_chains, select_equilibrium
from seqmarket.errors import DegeneratePrior, GridOutOfRange, NonMonotoneStrategy, NotBinary, NotComparable
from seqmarket.experiment import (
    LocalSpreadParams,
    OddsRatio,
    binary_experiment_from_labels,
    build_experiment,
)
from seqmarket.scenarios import demo_market, revealing_market, tight_market
from seqmarket.statics import (
    LimitClass,
    OverrideClass,
    PredictedSign,
    binary_thresholds,
    classify_override,
    irrelevance_check,
    single_buyer_blackwell_check,
    spread_surplus_delta,
    sufficient_harm_check,
    surplus_vs_n,
    sweep_binary,
)

SIGMA_SELECTIVE = Strategy((0.0, 1.0))


class TestSurplusVsN:
    def test_revealing_market_closed_form(self):
        res = surplus_vs_n(revealing_market(), 50)
        assert res.limit_class is LimitClass.FULL_INFO
        for point in res.records:
            assert point.most_selective_surplus == pytest.approx(
                0.4 * (1.0 - 0.25**point.n), abs=1e-12
            )
            assert point.least_selective_surplus == pytest.approx(0.3, abs=1e-12)

    def test_tight_market_surplus_dies_out(self):
        # Positive while the pure cutoff survives (n <= 4), zero once the
        # high signal is mixed (n >= 5).
        res = surplus_vs_n(tight_market(), 12)
        assert res.limit_class is LimitClass.NO_INFO
        most = [p.most_selective_surplus for p in res.records]
        assert most[:4] == pytest.approx([0.1, 0.084, 0.052, 0.02256], abs=1e-12)
        assert all(abs(x) <= 1e-9 for x in most[4:])

    def test_cutover_is_the_start_of_the_longest_monotone_tail(self, monkeypatch):
        series = [0.1, 0.3, 0.2, 0.25, 0.26, 0.26, 0.27]
        fake = [(SimpleNamespace(surplus=s),) for s in series]
        monkeypatch.setattr(statics, "solve_chains", lambda rho, c, p_L, p_H, n: fake[: len(n)])
        # Full-information limit: the series must be weakly increasing.
        assert surplus_vs_n(revealing_market(), 7).eventual_monotone_from == 3
        assert surplus_vs_n(revealing_market(), 2).eventual_monotone_from == 1
        assert surplus_vs_n(revealing_market(), 1).eventual_monotone_from == 1
        # No-information limit: weakly decreasing, so only the last step from 0.3.
        assert surplus_vs_n(tight_market(), 3).eventual_monotone_from == 2

    def test_uninformative_experiment_is_flat(self):
        spec = MarketSpec(0.5, 0.2, 1, build_experiment([(1.0, 1.0)]))
        res = surplus_vs_n(spec, 10)
        for point in res.records:
            assert point.most_selective_surplus == pytest.approx(0.3, abs=1e-12)
            assert point.least_selective_surplus == pytest.approx(0.3, abs=1e-12)
        assert res.limit_class is LimitClass.NO_INFO

    def test_tight_market_large_n_solved_values(self):
        # Independent oracle: bisect the high-signal indifference condition
        # directly with plain power sums, then freeze the implied levels.
        n = 50

        def interim_odds(alpha: float) -> float:
            r_h, r_l = 1.0 - 0.8 * alpha, 1.0 - 0.2 * alpha
            return sum(r_h**k for k in range(n)) / sum(r_l**k for k in range(n))

        lo, hi = 1e-9, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if interim_odds(mid) * 4.0 > 1.5:
                lo = mid
            else:
                hi = mid
        alpha = 0.5 * (lo + hi)
        eq = select_equilibrium(tight_market(n), "most")
        assert eq.mixing_prob == pytest.approx(alpha, abs=1e-9)
        p_trade_h = 1.0 - (1.0 - 0.8 * alpha) ** n
        p_trade_l = 1.0 - (1.0 - 0.2 * alpha) ** n
        assert p_trade_h == pytest.approx(0.98830, abs=5e-4)
        assert p_trade_l == pytest.approx(0.65887, abs=5e-4)
        p_trade = 0.5 * (p_trade_h + p_trade_l)
        # Mixing pins the expected trade posterior at the reservation value.
        assert 0.5 * p_trade_h / p_trade == pytest.approx(0.6, abs=1e-9)
        p_h_no_trade = 0.5 * (1.0 - p_trade_h) / (1.0 - p_trade)
        assert p_h_no_trade == pytest.approx(0.03316, abs=5e-4)

    def test_cutover_tail_is_monotone(self):
        res = surplus_vs_n(tight_market(), 20)
        assert res.eventual_monotone_from is not None
        tail = [
            p.most_selective_surplus
            for p in res.records
            if p.n >= res.eventual_monotone_from
        ]
        assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))


class TestIrrelevance:
    def test_demo_high_signal_two_buyers(self):
        assert irrelevance_check(demo_market(), SIGMA_SELECTIVE, 1)

    def test_boundary_counts_as_irrelevant(self):
        # Three buyers put the display exactly on the boundary.
        assert irrelevance_check(demo_market(n=3), SIGMA_SELECTIVE, 1)

    def test_four_buyers_tip_it_over(self):
        assert not irrelevance_check(demo_market(n=4), SIGMA_SELECTIVE, 1)

    def test_single_buyer_reduces_to_prior_check(self):
        spec = demo_market(n=1)
        assert irrelevance_check(spec, SIGMA_SELECTIVE, 1)  # odds 4 >= 0.25
        assert not irrelevance_check(tight_market(n=1), Strategy((0.0, 0.0)), 0)

    def test_non_monotone_strategy_rejected(self):
        with pytest.raises(NonMonotoneStrategy):
            irrelevance_check(demo_market(), Strategy((1.0, 0.5)), 1)


class TestOverrides:
    def test_demo_most_selective_classifications(self):
        assert classify_override(demo_market(), "most", 1) is OverrideClass.NEGATIVE
        assert classify_override(demo_market(), "most", 0) is OverrideClass.POSITIVE

    def test_mixing_is_undefined(self):
        # The tight market mixes on the high signal once n >= 5.
        assert classify_override(tight_market(5), "most", 1) is OverrideClass.UNDEFINED


class TestSpreadDelta:
    def test_negative_override_raises_surplus(self):
        params = LocalSpreadParams(1, OddsRatio(1, 4), OddsRatio(9, 1))
        res = spread_surplus_delta(demo_market(), params, "most")
        assert res.override is OverrideClass.NEGATIVE
        assert res.predicted_sign is PredictedSign.NON_NEGATIVE
        assert res.delta >= -1e-9

    def test_positive_override_without_irrelevance_lowers_surplus(self):
        params = LocalSpreadParams(0, OddsRatio(1, 9), OddsRatio(1, 1))
        res = spread_surplus_delta(tight_market(5), params, "most")
        assert res.override is OverrideClass.POSITIVE
        assert res.predicted_sign is PredictedSign.NON_POSITIVE
        assert res.delta <= 1e-9

    def test_outcome_preserving_spread_has_zero_delta(self):
        # Both spread pieces stay below the acceptance threshold, so the
        # equilibrium rejection probabilities are unchanged.
        params = LocalSpreadParams(0, OddsRatio(1, 9), OddsRatio(3, 10))
        res = spread_surplus_delta(demo_market(), params, "most")
        assert res.delta == pytest.approx(0.0, abs=1e-12)

    def test_seeded_family_obeys_the_sign_predictions(self):
        rng = np.random.default_rng(31415)
        classified = 0
        for _ in range(150):
            spec = random_market(rng)
            exp = spec.experiment
            j = int(rng.integers(0, exp.m))
            labels = (0.0,) + exp.labels + (1.0,)
            lo_gap = labels[j + 1] - labels[j]
            hi_gap = labels[j + 2] - labels[j + 1]
            if lo_gap < 1e-3 or hi_gap < 1e-3:
                continue
            params = LocalSpreadParams(
                j,
                OddsRatio.from_prob(labels[j] + float(rng.uniform(0.1, 0.9)) * lo_gap),
                OddsRatio.from_prob(labels[j + 1] + float(rng.uniform(0.1, 0.9)) * hi_gap),
            )
            selector = "most" if rng.random() < 0.5 else "least"
            res = spread_surplus_delta(spec, params, selector)
            if res.override is OverrideClass.NEGATIVE:
                classified += 1
                assert res.delta >= -1e-9
            elif res.predicted_sign is PredictedSign.NON_POSITIVE:
                classified += 1
                assert res.delta <= 1e-9
        assert classified >= 100


class TestSufficientHarm:
    def test_tight_market_low_outcome(self):
        assert sufficient_harm_check(tight_market(), 0, OddsRatio(4, 1))

    def test_demo_high_outcome_fails_first_display(self):
        assert not sufficient_harm_check(demo_market(), 1, OddsRatio(9, 1))

    @pytest.mark.parametrize("market", [demo_market, tight_market])
    def test_five_thousand_buyers(self, market):
        # lr_j ** 4999 underflows to 0 in numerator and denominator alike.
        for index, hi in ((0, OddsRatio(4, 1)), (1, OddsRatio(9, 1))):
            assert isinstance(sufficient_harm_check(market(5000), index, hi), bool)
        assert sufficient_harm_check(tight_market(5000), 0, OddsRatio(4, 1))
        assert not sufficient_harm_check(market(5000), 1, OddsRatio(9, 1))

    def test_reservation_value_one_is_always_harmful(self):
        spec = MarketSpec(0.5, 1.0, 2, demo_market().experiment)
        assert sufficient_harm_check(spec, 0, OddsRatio(1, 0))

    def test_prediction_matches_realised_most_selective_delta(self):
        rng = np.random.default_rng(27182)
        hits = 0
        for _ in range(120):
            spec = random_market(rng)
            exp = spec.experiment
            j = int(rng.integers(0, exp.m))
            labels = (0.0,) + exp.labels + (1.0,)
            lo_gap = labels[j + 1] - labels[j]
            hi_gap = labels[j + 2] - labels[j + 1]
            if lo_gap < 1e-3 or hi_gap < 1e-3:
                continue
            hi = OddsRatio.from_prob(labels[j + 1] + float(rng.uniform(0.1, 0.9)) * hi_gap)
            if not sufficient_harm_check(spec, j, hi):
                continue
            params = LocalSpreadParams(
                j,
                OddsRatio.from_prob(labels[j] + float(rng.uniform(0.1, 0.9)) * lo_gap),
                hi,
            )
            hits += 1
            assert spread_surplus_delta(spec, params, "most").delta <= 1e-9
        assert hits >= 20


class TestBinaryThresholds:
    def test_mute_level_demo(self):
        th = binary_thresholds(demo_market())
        assert th.s_L_mute == pytest.approx(0.2, abs=1e-12)

    def test_adverse_selection_level_demo(self):
        th = binary_thresholds(demo_market())
        assert th.s_L_as == pytest.approx(1.0 / 17.0, abs=1e-12)

    def test_as_level_matches_surplus_turning_point(self):
        spec = demo_market()
        th = binary_thresholds(spec)
        grid = list(np.linspace(0.25, 0.005, 400))
        surpluses = sweep_binary(spec, "bad", grid, "most").surpluses()
        peak = max(range(len(grid)), key=lambda i: surpluses[i])
        assert grid[peak] == pytest.approx(th.s_L_as, abs=grid[0] - grid[1] + 1e-12)

    def test_dagger_matches_regime_sweep(self):
        spec = demo_market()
        th = binary_thresholds(spec)
        grid = np.linspace(0.0, 0.5, 10_001)
        chains = enumerate_chains(
            [spec.with_experiment(binary_experiment_from_labels(float(s), 0.8)) for s in grid]
        )
        rejecting = [chain[0].strategy.accept[0] == 0.0 for chain in chains]
        boundary = grid[max(i for i, r in enumerate(rejecting) if r)]
        assert th.s_L_dagger == pytest.approx(boundary, abs=float(grid[1] - grid[0]) + 1e-12)
        assert th.s_L_dagger >= th.s_L_mute - 1e-12

    def test_single_buyer_as_level_hits_zero(self):
        assert binary_thresholds(demo_market(n=1)).s_L_as == 0.0

    @staticmethod
    def oracle_markets() -> list[MarketSpec]:
        """Seeded binary markets from n = 1 to 2**53, with the s_H = 1,
        s_L = 0, c = 0 and c = 1 corners and rho on both sides of c."""
        rng = np.random.default_rng(1)
        sizes = (1, 2, 3, 5, 10, 27, 50, 200, 10**6, 2**53)
        markets = []
        for i in range(300):
            s_high = 1.0 if i % 5 == 0 else float(rng.uniform(0.5, 1.0))
            s_low = 0.0 if i % 7 == 0 else float(rng.uniform(0.0, 0.49))
            rho = float(rng.uniform(0.02, 0.98))
            c = 0.0 if i % 11 == 0 else 1.0 if i % 13 == 0 else float(rng.uniform(0.02, 0.98))
            markets.append(MarketSpec(rho, c, sizes[i % len(sizes)], binary_experiment_from_labels(s_low, s_high)))
        return markets

    def test_matches_the_scalar_reference(self):
        markets = self.oracle_markets()
        near_half = 0
        for spec in markets:
            th = binary_thresholds(spec)
            assert th == reference.binary_thresholds(spec), spec
            near_half += spec.n == 2**53 and 0.0 < 0.5 - th.s_L_dagger < 1e-10
        # The corners the set must hold; near 0.5 at n = 2**53 the high
        # outcome's mass is so small that geometric_sum takes its near-one branch.
        assert {1, 10**6, 2**53} <= {spec.n for spec in markets}
        assert any(spec.experiment.labels[1] == 1.0 for spec in markets)
        assert any(spec.experiment.labels[0] == 0.0 for spec in markets)
        assert {0.0, 1.0} <= {spec.c for spec in markets}
        assert any(spec.rho <= spec.c for spec in markets) and any(spec.rho > spec.c for spec in markets)
        assert near_half >= 1

    def test_bisection_stop_matches_sixty_steps(self, monkeypatch):
        """Stopping once the midpoint repeats an end gives the float that all
        60 steps give."""

        def sixty_steps(spec):
            s_high = spec.experiment.labels[1]
            grid = np.linspace(0.0, 0.5, 1025)
            feasible = statics._reject_low_mask(spec, grid, s_high)
            if feasible.all():
                return 0.5
            last = np.flatnonzero(feasible)[-1]
            lo, hi = float(grid[last]), float(grid[last + 1])
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if statics._reject_low_mask(spec, np.array([mid]), s_high)[0]:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        for spec in self.oracle_markets():
            assert binary_thresholds(spec).s_L_dagger == sixty_steps(spec), spec
        calls = []
        mask = statics._reject_low_mask
        monkeypatch.setattr(statics, "_reject_low_mask", lambda *args: calls.append(0) or mask(*args))
        binary_thresholds(demo_market())
        # The scan, then six bisection steps per call.
        assert len(calls) <= 1 + math.ceil(60 / 6)

    @given(
        rho=st.floats(0.0, 1.0),
        c=st.floats(0.0, 1.0),
        n=st.sampled_from([1, 2, 3, 10, 200, 10**6, 2**53]),
        s_high=st.one_of(st.just(0.5), st.just(1.0), st.floats(0.5, 1.0)),
        labels=st.lists(st.one_of(st.just(0.0), st.just(0.5), st.floats(0.0, 0.5)), min_size=1, max_size=20),
    )
    # An exact tie at the 1e-15 tolerance, which counts as feasible.
    @example(rho=3.666666666666667e-15, c=0.0, n=1, s_high=0.8, labels=[0.25])
    # An uninformative high label leaves only the high outcome: not binary.
    @example(rho=0.6, c=0.3, n=3, s_high=0.5, labels=[0.2, 0.5])
    @settings(max_examples=150, deadline=None)
    def test_mask_matches_the_scalar_reference(self, rho, c, n, s_high, labels):
        spec = MarketSpec(rho, c, n, binary_experiment_from_labels(0.0, 1.0))
        mask = statics._reject_low_mask(spec, np.array(labels), s_high)
        assert mask.tolist() == [reference._reject_low_feasible(spec, s, s_high) for s in labels]

    @pytest.mark.parametrize("rho", [0.0, 1.0])
    def test_degenerate_prior(self, rho):
        with pytest.raises(DegeneratePrior):
            binary_thresholds(MarketSpec(rho, 0.3, 2, binary_experiment_from_labels(0.2, 0.8)))

    def test_uninformative_high_label(self):
        uninformative = binary_experiment_from_labels(0.5, 0.5)
        with pytest.raises(NotBinary, match="high label 0.5 is uninformative"):
            binary_thresholds(MarketSpec(0.6, 0.3, 3, uninformative))
        assert binary_thresholds(MarketSpec(0.3, 0.6, 3, uninformative)).s_L_dagger == 0.5


class TestSweepBinary:
    def test_good_news_sweep_is_nondecreasing(self):
        for selector in ("most", "least"):
            curve = sweep_binary(
                demo_market(), "good", list(np.linspace(0.5, 1.0, 101)), selector
            )
            s = curve.surpluses()
            assert all(b >= a - 1e-9 for a, b in zip(s, s[1:]))

    def test_bad_news_sweep_is_quasiconcave(self):
        spec = demo_market()
        th = binary_thresholds(spec)
        grid = list(np.linspace(0.5, 0.0, 201))
        s = sweep_binary(spec, "bad", grid, "most").surpluses()
        peak = max(range(len(s)), key=lambda i: s[i])
        assert all(b >= a - 1e-9 for a, b in zip(s[: peak + 1], s[1 : peak + 1]))
        assert all(b <= a + 1e-9 for a, b in zip(s[peak:], s[peak + 1 :]))
        boundary = min(th.s_L_dagger, th.s_L_as)
        assert grid[peak] == pytest.approx(boundary, abs=abs(grid[1] - grid[0]) + 1e-12)

    def test_singleton_grid_matches_direct_solve(self):
        spec = demo_market()
        curve = sweep_binary(spec, "bad", [0.2], "most")
        assert curve.surpluses()[0] == pytest.approx(
            select_equilibrium(spec, "most").surplus, abs=1e-12
        )

    def test_grid_out_of_range(self):
        with pytest.raises(GridOutOfRange):
            sweep_binary(demo_market(), "bad", [0.7], "most")
        with pytest.raises(GridOutOfRange):
            sweep_binary(demo_market(), "good", [0.3], "most")

    def test_the_first_label_out_of_range_is_named(self):
        nan = float("nan")
        with pytest.raises(GridOutOfRange, match=r"^bad-news label 0\.7 outside \[0, 0\.5\]$"):
            sweep_binary(demo_market(), "bad", np.array([0.2, 0.7, -0.1, nan]), "most")
        with pytest.raises(GridOutOfRange, match=r"^good-news label nan outside \[0\.5, 1\]$"):
            sweep_binary(demo_market(), "good", (0.6, nan, 0.3), "most")

    def test_labels_are_checked_before_any_point_is_solved(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("built or solved a point before the grid was checked")

        monkeypatch.setattr(statics, "binary_masses_from_labels", unreachable)
        monkeypatch.setattr(statics, "solve_chains", unreachable)
        with pytest.raises(GridOutOfRange, match="bad-news label 0.7"):
            sweep_binary(tight_market(2**31), "bad", [0.2, 0.7], "most")
        with pytest.raises(GridOutOfRange, match="good-news label 0.3"):
            sweep_binary(demo_market(), "good", [0.6, 0.3], "least")

    # The legal half-intervals' ends, the labels next to them and next to
    # 0.5, and labels that leave one outcome without mass.
    BAD_EDGES = (0.0, 1e-300, float(np.nextafter(0.5, 0.0)), 0.5)
    GOOD_EDGES = (0.5, float(np.nextafter(0.5, 1.0)), 1.0 - 1e-16, 1.0)

    @staticmethod
    def _same_as_reference(spec, dimension, grid, selector):
        """The curve or the (class, message) of the error, which the array
        sweep and the per-point reference must share."""
        outcomes = []
        for sweep in (sweep_binary, reference.sweep_binary_points):
            try:
                outcomes.append(sweep(spec, dimension, grid, selector))
            except Exception as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1], (spec, dimension, grid, selector)
        return outcomes[0]

    @pytest.mark.parametrize("dimension", ["bad", "good"])
    @pytest.mark.parametrize("selector", ["most", "least"])
    def test_golden_grids_match_the_per_point_reference(self, dimension, selector):
        grid = np.linspace(0.0, 0.5, 201) if dimension == "bad" else np.linspace(0.5, 1.0, 201)
        curve = self._same_as_reference(demo_market(), dimension, [float(g) for g in grid], selector)
        assert len(curve.points) == 201

    def test_seeded_markets_match_the_per_point_reference(self):
        """Seeded binary markets from n = 1 to 2**53, both dimensions and
        both selectors, on grids holding every edge label."""
        rng = np.random.default_rng(12)
        sizes = (1, 2, 3, 7, 50, 10**6, 2**31, 2**53)
        for i in range(32):
            s_low = float(rng.choice([0.0, 1e-300, np.nextafter(0.5, 0.0), rng.uniform(0.0, 0.5)]))
            s_high = float(rng.choice([1.0, 1.0 - 1e-16, np.nextafter(0.5, 1.0), rng.uniform(0.5, 1.0)]))
            rho, c = float(rng.uniform(0.02, 0.98)), float(rng.uniform(0.02, 0.98))
            spec = MarketSpec(rho, c, sizes[i // 4], binary_experiment_from_labels(s_low, s_high))
            dimension, selector = ("bad", "good")[i % 2], ("most", "least")[i // 2 % 2]
            if dimension == "bad":
                grid = [*self.BAD_EDGES, *rng.uniform(0.0, 0.5, 3)]
            else:
                grid = [*self.GOOD_EDGES, *rng.uniform(0.5, 1.0, 3)]
            curve = self._same_as_reference(spec, dimension, grid, selector)
            assert len(curve.points) == len(grid)

    def test_failures_match_the_per_point_reference(self):
        exp = demo_market().experiment
        cases = [
            (demo_market(), "bad", [0.2, 0.7], "most"),
            (demo_market(), "good", [0.6, 0.3], "least"),
            (demo_market(), "bad", [float("nan")], "most"),
            (MarketSpec(0.0, 0.3, 2, exp), "bad", [0.2], "most"),
            (MarketSpec(1.0, 0.3, 2, exp), "good", [0.7, 0.5], "least"),
            (tight_market(2**31), "bad", [0.2, 0.3], "most"),
            (tight_market(2**31), "bad", [0.5, 0.2], "least"),
        ]
        for case in cases:
            assert isinstance(self._same_as_reference(*case), tuple), case
        # An empty grid solves nothing, so even a degenerate prior passes.
        assert self._same_as_reference(MarketSpec(1.0, 0.3, 2, exp), "bad", [], "most").points == ()

    def test_invalid_selector_is_rejected_on_an_empty_grid(self):
        with pytest.raises(ValueError, match="selector must be 'most' or 'least', got 'neither'"):
            sweep_binary(demo_market(), "bad", [], "neither")

    def test_decreasing_tail_past_the_boundary(self):
        # Once bad news is strictly past the regime boundary, so that
        # rejection is actually played and adverse selection binds, further
        # strengthening only hurts.  At the boundary itself the less
        # selective always-accept equilibrium can still be live, producing
        # the one-time upward jump, so the tail is filtered to rejecting
        # equilibria strictly below the boundary.
        rng = np.random.default_rng(1618)
        for _ in range(12):
            s_h = float(rng.uniform(0.55, 0.95))
            spec = MarketSpec(
                float(rng.uniform(0.15, 0.85)),
                float(rng.uniform(0.15, 0.85)),
                int(rng.integers(2, 7)),
                binary_experiment_from_labels(0.3, s_h),
            )
            th = binary_thresholds(spec)
            grid = list(np.linspace(0.5, 0.0, 120))
            for selector in ("most", "least"):
                regime = th.s_L_dagger if selector == "most" else th.s_L_mute
                boundary = min(regime, th.s_L_as)
                curve = sweep_binary(spec, "bad", grid, selector)
                tail = [
                    p.surplus
                    for p in curve.points
                    if p.s_L < boundary - 1e-12 and p.equilibrium.strategy.accept[0] == 0.0
                ]
                assert all(b <= a + 1e-9 for a, b in zip(tail, tail[1:]))


class TestCorollaryOne:
    @staticmethod
    def _stated_onset(grid, s_h, n, c):
        oc = c / (1.0 - c)
        for i, sl in enumerate(grid):
            if sl < 1e-15:
                return i
            if (sl / (1.0 - sl)) ** (n - 1) * (s_h / (1.0 - s_h)) <= oc:
                return i
        return len(grid)

    def test_weakly_decreasing_from_stated_onset(self):
        # The corollary's display omits the prior odds; it is valid whenever
        # that factor is at most one, so the family draws rho <= 1/2.
        rng = np.random.default_rng(2024)
        for _ in range(20):
            c = float(rng.uniform(0.2, 0.9))
            rho = float(rng.uniform(0.05, min(c, 0.5)))
            n = int(rng.integers(2, 7))
            s_h = float(rng.uniform(0.55, 0.95))
            spec = MarketSpec(rho, c, n, binary_experiment_from_labels(0.3, s_h))
            grid = list(np.linspace(0.5, 0.0, 151))
            selector = "most" if rng.random() < 0.5 else "least"
            s = sweep_binary(spec, "bad", grid, selector).surpluses()
            onset = self._stated_onset(grid, s_h, n, c)
            tail = s[onset:]
            assert all(b <= a + 1e-9 for a, b in zip(tail, tail[1:]))

    def test_prior_odds_factor_is_needed_above_one_half(self):
        # With rho in (1/2, c] the display without prior odds genuinely
        # fails, while the full adverse-selection display still works.
        spec = MarketSpec(0.63, 0.64, 4, binary_experiment_from_labels(0.3, 0.64))
        grid = list(np.linspace(0.5, 0.0, 201))
        s = sweep_binary(spec, "bad", grid, "least").surpluses()
        onset = self._stated_onset(grid, 0.64, 4, 0.64)
        stated_violation = max(
            (b - a for a, b in zip(s[onset:], s[onset + 1 :])), default=0.0
        )
        assert stated_violation > 1e-6
        prior = 0.63 / 0.37
        oc = 0.64 / 0.36
        full_onset = next(
            (
                i
                for i, sl in enumerate(grid)
                if sl < 1e-15
                or prior * (sl / (1 - sl)) ** 3 * (0.64 / 0.36) <= oc
            ),
            len(grid),
        )
        tail = s[full_onset:]
        assert all(b <= a + 1e-9 for a, b in zip(tail, tail[1:]))


class TestSingleBuyerBlackwell:
    RHO_GRID = list(np.linspace(0.025, 0.975, 21))
    C_GRID = list(np.linspace(0.025, 0.975, 21))

    def test_improvement_dominates(self):
        better = binary_experiment_from_labels(0.1, 0.9)
        base = binary_experiment_from_labels(0.2, 0.8)
        assert single_buyer_blackwell_check(better, base, self.RHO_GRID, self.C_GRID)

    def test_reflexive(self):
        exp = demo_market().experiment
        assert single_buyer_blackwell_check(exp, exp, self.RHO_GRID, self.C_GRID)

    def test_reversed_strict_improvement_fails_somewhere(self):
        better = binary_experiment_from_labels(0.1, 0.9)
        base = binary_experiment_from_labels(0.2, 0.8)
        assert not single_buyer_blackwell_check(base, better, self.RHO_GRID, self.C_GRID)

    def test_unordered_pair_raises(self):
        a = binary_experiment_from_labels(0.1, 0.7)
        b = binary_experiment_from_labels(0.2, 0.8)
        with pytest.raises(NotComparable):
            single_buyer_blackwell_check(a, b, self.RHO_GRID, self.C_GRID)

    def test_comparisons_load_no_scipy(self):
        """Blackwell comparisons run on the likelihood-ratio frontier, so
        they load nothing of scipy."""
        probe = (
            "from seqmarket.experiment import binary_experiment_from_labels, build_experiment, is_garbling_of\n"
            "from seqmarket.statics import single_buyer_blackwell_check\n"
            "fine = build_experiment([(0.5, 0.2), (0.3, 0.3), (0.2, 0.5)])\n"
            "assert is_garbling_of(build_experiment([(0.8, 0.5), (0.2, 0.5)]), fine)\n"
            "better, base = binary_experiment_from_labels(0.1, 0.9), binary_experiment_from_labels(0.2, 0.8)\n"
            "assert single_buyer_blackwell_check(better, base, [0.5], [0.5])\n"
        )
        assert "scipy" not in loaded_modules(probe)
