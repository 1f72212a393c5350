"""Beliefs, best responses, the equilibrium chain, and surplus accounting."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_market
from seqmarket.equilibrium import (
    MarketSpec,
    _bisect,
    _irrelevance_display,
    Strategy,
    benchmarks,
    enumerate_equilibria,
    geometric_sum,
    interim_belief,
    interim_from_rejections,
    is_optimal_against,
    rejection_probs,
    select_equilibrium,
    total_surplus,
)
from seqmarket.errors import DegeneratePrior, LengthMismatch
from seqmarket.experiment import binary_experiment_from_labels, build_experiment
from seqmarket.scenarios import demo_market, revealing_market, tight_market

SIGMA_SELECTIVE = Strategy((0.0, 1.0))
ACCEPT_ALL = Strategy((1.0, 1.0))
NEVER_ACCEPT = Strategy((0.0, 0.0))


class TestRejectionProbs:
    def test_selective_strategy(self):
        assert rejection_probs(demo_market(), SIGMA_SELECTIVE) == pytest.approx((0.8, 0.2))

    def test_accept_all(self):
        assert rejection_probs(demo_market(), ACCEPT_ALL) == pytest.approx((0.0, 0.0))

    def test_partial_acceptance(self):
        assert rejection_probs(demo_market(), Strategy((0.0, 0.5))) == pytest.approx((0.9, 0.6))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            rejection_probs(demo_market(), Strategy((0.0, 0.5, 1.0)))


class TestGeometricSum:
    def test_near_one_at_huge_n(self):
        """Within 1e-10 of 1, ``n (1 - r)`` may be far above 1: at n = 2**53
        the sum is ``1 / (1 - r)`` and the interim belief a probability."""
        r = 1.0 - 5e-11
        a = 1.0 - r
        total = geometric_sum(r, 2**53)
        assert total > 0.0 and abs(total - 1.0 / a) <= 1e-15 / a
        assert 0.0 <= interim_from_rejections(0.5, r, 0.3, 2**53) <= 1.0

    def test_near_one_matches_exact_sums(self):
        for a in (1e-11, 3e-11, 9.9e-11):
            r = 1.0 - a
            for n in (1, 2, 7, 1000):
                exact = (1 - Fraction(r) ** n) / (1 - Fraction(r))
                assert abs(Fraction(geometric_sum(r, n)) - exact) <= Fraction(1e-15) * exact

    def test_exactly_one_sums_to_n(self):
        assert geometric_sum(1.0, 2**53) == 2.0**53
        assert geometric_sum(np.array([1.0, 0.5]), np.array([2**31, 2])).tolist() == [2.0**31, 1.5]

    @given(
        r=st.one_of(
            st.floats(0.0, 1e-6),  # near 0
            st.floats(0.0, 1.0),
            st.floats(1.0 - 1e-8, 1.0 - 1e-10),  # near 1, outside the 1e-10 band
            st.floats(1.0 - 1e-10, 1.0),  # near 1, inside it
            st.just(1.0),
        ),
        n=st.integers(1, 2**53),
        near=st.floats(1.0 - 9e-11, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_float_in_float_out_equal_to_the_array_entry(self, r, n, near):
        """A float ``r`` gives a float, ``==`` its entry in an array call that
        also holds a near-one entry; a float ``r`` with an array ``n`` gives
        the elementwise array, and so does ``interim_from_rejections``."""
        got = geometric_sum(r, n)
        assert type(got) is float
        assert got == geometric_sum(np.array([r, near]), n)[0]
        ns = np.array([n, 1, 2])
        assert geometric_sum(r, ns).tolist() == [geometric_sum(r, int(k)) for k in ns]
        interim = interim_from_rejections(0.3, r, 0.6, ns)
        assert interim.tolist() == [interim_from_rejections(0.3, r, 0.6, int(k)) for k in ns]


class TestInterimBelief:
    def test_accept_all_keeps_prior(self):
        assert interim_belief(demo_market(), ACCEPT_ALL) == pytest.approx(0.5, abs=1e-12)

    def test_selective_strategy(self):
        assert interim_belief(demo_market(), SIGMA_SELECTIVE) == pytest.approx(0.4, abs=1e-12)

    def test_uninformative_experiment_keeps_prior(self):
        spec = MarketSpec(0.37, 0.2, 4, build_experiment([(0.5, 0.5), (0.5, 0.5)]))
        for sigma in (Strategy((0.2, 1.0)), Strategy((0.0, 0.0)), Strategy((1.0, 1.0))):
            assert interim_belief(spec, sigma) == pytest.approx(0.37, abs=1e-12)

    def test_never_accept_keeps_prior(self):
        assert interim_belief(demo_market(), NEVER_ACCEPT) == pytest.approx(0.5, abs=1e-12)


class TestTotalSurplus:
    def test_selective_strategy(self):
        assert total_surplus(demo_market(), SIGMA_SELECTIVE) == pytest.approx(0.348, abs=1e-12)

    def test_accept_all(self):
        assert total_surplus(demo_market(), ACCEPT_ALL) == pytest.approx(0.3, abs=1e-12)

    def test_never_accept_is_zero(self):
        assert total_surplus(demo_market(), NEVER_ACCEPT) == 0.0


class TestBenchmarks:
    def test_demo(self):
        bench = benchmarks(demo_market())
        assert (bench.no_info, bench.full_info) == pytest.approx((0.3, 0.4))

    def test_reservation_value_one(self):
        bench = benchmarks(MarketSpec(0.5, 1.0, 2, demo_market().experiment))
        assert (bench.no_info, bench.full_info) == (0.0, 0.0)

    def test_tight(self):
        bench = benchmarks(tight_market())
        assert (bench.no_info, bench.full_info) == pytest.approx((0.0, 0.2))


class TestEnumerate:
    def test_demo_has_exactly_two_equilibria(self):
        chain = enumerate_equilibria(demo_market())
        assert len(chain) == 2
        assert chain[0].strategy.accept == (0.0, 1.0)
        assert chain[-1].strategy.accept == (1.0, 1.0)

    def test_tight_market_unique_at_every_n(self):
        for n in range(1, 21):
            chain = enumerate_equilibria(tight_market(n))
            assert len(chain) == 1
            assert chain[0].strategy.accept[0] == 0.0

    def test_single_buyer_threshold_at_prior(self):
        spec = demo_market(n=1)
        chain = enumerate_equilibria(spec)
        for eq in chain:
            assert eq.interim == pytest.approx(spec.rho, abs=1e-12)
            assert is_optimal_against(spec, eq.strategy, spec.rho)

    def test_degenerate_prior_rejected(self):
        with pytest.raises(DegeneratePrior):
            enumerate_equilibria(MarketSpec(1.0, 0.2, 2, demo_market().experiment))

    def test_most_and_least_selective_demo(self):
        assert select_equilibrium(demo_market(), "most").strategy.accept == (0.0, 1.0)
        assert select_equilibrium(demo_market(), "least").strategy.accept == (1.0, 1.0)

    def test_perfect_screening_collapses_the_chain(self):
        exp = build_experiment([(1.0, 0.0), (0.0, 1.0)])
        spec = MarketSpec(0.5, 0.3, 2, exp)
        chain = enumerate_equilibria(spec)
        assert len(chain) == 1
        assert chain[0].strategy.accept == (0.0, 1.0)
        assert chain[0].surplus == pytest.approx(benchmarks(spec).full_info, abs=1e-12)

    def test_revealing_market_has_two_equilibria(self):
        chain = enumerate_equilibria(revealing_market())
        assert len(chain) == 2
        assert chain[0].strategy.accept == (0.0, 1.0)
        assert chain[-1].strategy.accept == (1.0, 1.0)


def _market_zoo(count: int = 40) -> list[MarketSpec]:
    rng = np.random.default_rng(1217)
    return [random_market(rng) for _ in range(count)]


class TestChainInvariants:
    """Structural facts that must hold for every solved market."""

    @pytest.mark.parametrize("case", range(40))
    def test_chain_properties(self, case):
        spec = _market_zoo()[case]
        chain = enumerate_equilibria(spec)
        bench = benchmarks(spec)
        assert chain, "an equilibrium must exist"
        for eq in chain:
            assert eq.strategy.is_monotone()
            assert eq.interim <= spec.rho + 1e-12
            assert eq.r_H <= eq.r_L + 1e-12
            assert interim_belief(spec, eq.strategy) == pytest.approx(eq.interim, abs=1e-10)
            assert is_optimal_against(spec, eq.strategy, eq.interim)
            assert bench.no_info - 1e-9 <= eq.surplus <= bench.full_info + 1e-9
        for tighter, looser in zip(chain, chain[1:]):
            assert all(
                a <= b + 1e-12
                for a, b in zip(tighter.strategy.accept, looser.strategy.accept)
            )
            assert looser.surplus <= tighter.surplus + 1e-9


class TestBinaryStructure:
    def test_no_mixing_on_the_low_signal(self):
        rng = np.random.default_rng(20250811)
        for _ in range(25):
            spec = random_market(rng, m_choices=(2,))
            for eq in (select_equilibrium(spec, "most"), select_equilibrium(spec, "least")):
                assert eq.strategy.accept[0] in (0.0, 1.0)

    def test_interim_decreases_in_high_acceptance(self):
        spec = demo_market(n=3)
        p_l, p_h = spec.experiment.p_L_array(), spec.experiment.p_H_array()
        alphas = np.linspace(0.0, 1.0, 101)
        psi = interim_from_rejections(
            spec.rho, 1.0 - alphas * p_l[1], 1.0 - alphas * p_h[1], spec.n
        )
        assert np.all(np.diff(psi) < 1e-15)
        assert psi[-1] < psi[0] - 1e-6

    def test_interim_increases_in_low_acceptance(self):
        spec = demo_market(n=3)
        p_l, p_h = spec.experiment.p_L_array(), spec.experiment.p_H_array()
        alphas = np.linspace(0.0, 1.0, 101)
        r_l = 1.0 - p_l[1] - alphas * p_l[0]
        r_h = 1.0 - p_h[1] - alphas * p_h[0]
        psi = interim_from_rejections(spec.rho, r_l, r_h, spec.n)
        assert np.all(np.diff(psi) > -1e-15)
        assert psi[-1] > psi[0] + 1e-6


def test_irrelevance_display_never_divides_zero_by_zero():
    # 0.25 ** 4999 underflows to 0; the powers of 0.2 and 0.8 would leave 0/0.
    assert _irrelevance_display(0.5, 0.2, 0.25, 0.25, 4999) == -0.25
    assert _irrelevance_display(0.5, 0.2, 4.0, 4.0, 4999) == math.inf
    # A revealing signal decides against an impossible history, and so does
    # a degenerate prior against a zero ratio.
    assert _irrelevance_display(0.5, 0.2, math.inf, 0.0, 3) == math.inf
    assert _irrelevance_display(0.5, 0.2, 0.0, math.inf, 3) == -0.25
    assert _irrelevance_display(1.0, 0.2, 2.0, 0.0, 2) == math.inf
    # Infinite reservation odds: only a revealing signal reaches them, as a tie.
    assert _irrelevance_display(0.5, 1.0, math.inf, 1.0, 1) == 0.0
    assert _irrelevance_display(0.5, 1.0, 4.0, 1.0, 1) == -math.inf
    margins = _irrelevance_display(0.5, 0.2, np.array([4.0, 1.0]), np.array([2.0, 0.5]), 2)
    np.testing.assert_array_equal(margins, [15.75, 0.0])


def _bisect_one_call_per_step(holds, lo: float, hi: float, steps: int, width: float) -> "tuple[float, float]":
    """``_bisect`` on one bracket, calling ``holds`` once per step."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if abs(hi - lo) <= width or mid == lo or mid == hi:
            break
        if holds(np.array([mid]))[0]:
            lo = mid
        else:
            hi = mid
    return lo, hi


class TestBisect:
    def test_reversed_bracket_moves_down_to_the_boundary(self):
        (lo,), (hi,) = _bisect(lambda x: x >= 0.3, [1.0], [0.0], 60)
        assert hi < 0.3 <= lo
        assert (lo, hi) == _bisect_one_call_per_step(lambda x: x >= 0.3, 1.0, 0.0, 60, 0.0)

    def test_width_stop(self):
        calls = []
        holds = lambda x: calls.append(x.size) or x <= 0.3
        lo, hi = _bisect(holds, [0.0, -1.0], [1.0, 1.0], 60, 1e-3)
        # 2**-10 < 1e-3 < 2**-9: the first bracket stops after ten steps,
        # the second (twice as wide) after eleven, both within two calls.
        assert [h - l for l, h in zip(lo, hi)] == [2.0**-10, 2.0**-10]
        assert max(lo) <= 0.3 < min(hi)
        assert calls == [2 * 63, 2 * 63]
        # An empty bracket and one already within the width call nothing.
        assert _bisect(holds, [0.5, 0.25], [0.5, 0.2505], 60, 1e-3) == ([0.5, 0.25], [0.5, 0.2505])
        assert len(calls) == 2

    def test_step_cap(self):
        lo, hi = _bisect(lambda x: np.zeros(x.size, dtype=bool), [0.0], [1.0], 80)
        assert (lo, hi) == ([0.0], [2.0**-80])

    def test_always_true_stops_on_a_repeated_midpoint(self):
        calls = []
        lo, hi = _bisect(lambda x: calls.append(0) or np.ones(x.size, dtype=bool), [0.0], [1.0], 80)
        assert (lo, hi) == ([math.nextafter(1.0, 0.0)], [1.0])
        # 53 steps move lo; the 54th midpoint rounds to hi.
        assert len(calls) == math.ceil(54 / 6)

    @given(
        brackets=st.lists(
            st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)), min_size=1, max_size=5
        ),
        t=st.floats(-1e3, 1e3),
        steps=st.integers(0, 80),
        width=st.sampled_from([0.0, 1e-12, 1e-6, 0.5]),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_one_call_per_step(self, brackets, t, steps, width):
        calls = []
        holds = lambda x: calls.append(0) or x <= t
        lo, hi = _bisect(holds, [a for a, _ in brackets], [b for _, b in brackets], steps, width)
        want = [_bisect_one_call_per_step(lambda x: x <= t, a, b, steps, width) for a, b in brackets]
        assert list(zip(lo, hi)) == want
        assert len(calls) <= math.ceil(steps / 6)
