"""Market-size sweeps, informativeness statics, overrides, and thresholds."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

import seqmarket.statics as statics

from conftest import random_market
from seqmarket.equilibrium import MarketSpec, Strategy, most_selective, select_equilibrium
from seqmarket.errors import GridOutOfRange, NonMonotoneStrategy, NotComparable
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
        monkeypatch.setattr(statics, "enumerate_chains", lambda specs: fake[: len(specs)])
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
        eq = most_selective(tight_market(n))
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
        rejecting = [
            most_selective(
                spec.with_experiment(binary_experiment_from_labels(float(s), 0.8))
            ).strategy.accept[0]
            == 0.0
            for s in grid
        ]
        boundary = grid[max(i for i, r in enumerate(rejecting) if r)]
        assert th.s_L_dagger == pytest.approx(boundary, abs=float(grid[1] - grid[0]) + 1e-12)
        assert th.s_L_dagger >= th.s_L_mute - 1e-12

    def test_single_buyer_as_level_hits_zero(self):
        assert binary_thresholds(demo_market(n=1)).s_L_as == 0.0


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
