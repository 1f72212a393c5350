"""Simulation oracle: determinism, exact corners, and agreement with the
closed forms."""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import reference_montecarlo
import seqmarket.montecarlo as montecarlo
from conftest import random_market
from reference_montecarlo import simulate as reference_simulate

from seqmarket.equilibrium import (
    MarketSpec,
    Strategy,
    interim_belief,
    rejection_probs,
    select_equilibrium,
    total_surplus,
)
from seqmarket.errors import LengthMismatch, NoFocalBuyer
from seqmarket.montecarlo import SimConfig, simulate
from seqmarket.experiment import FiniteExperiment, Outcome, build_experiment
from seqmarket.scenarios import demo_market, revealing_market, tight_market

SIGMA_SELECTIVE = Strategy((0.0, 1.0))
TRIALS = 10**6
# The word numpy maps to the float 0.5: ``(w >> 11) * 2**-53 == 0.5``.
HALF = 2**52 << 11


def assert_within(value: float, target: float, se: float, sigmas: float = 3.0) -> None:
    band = max(sigmas * se, 1e-12)
    assert abs(value - target) <= band, f"{value} not within {band} of {target}"


class TestDeterminism:
    def test_bit_identical_reruns(self):
        config = SimConfig(trials=50_000, seed=20240917, focal_buyer=1)
        a = simulate(demo_market(), SIGMA_SELECTIVE, config)
        b = simulate(demo_market(), SIGMA_SELECTIVE, config)
        assert a == b

    def test_seed_changes_the_draw(self):
        a = simulate(demo_market(), SIGMA_SELECTIVE, SimConfig(trials=50_000, seed=1))
        b = simulate(demo_market(), SIGMA_SELECTIVE, SimConfig(trials=50_000, seed=2))
        assert a != b


class TestExactCorners:
    def test_accept_all_trades_immediately(self):
        est = simulate(demo_market(), Strategy((1.0, 1.0)), SimConfig(trials=20_000, seed=5))
        assert est.trade_prob_H == 1.0
        assert est.trade_prob_L == 1.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            simulate(demo_market(), Strategy((1.0,)), SimConfig(trials=10, seed=0))

    def test_focal_buyer_out_of_range(self):
        with pytest.raises(NoFocalBuyer):
            simulate(demo_market(), SIGMA_SELECTIVE, SimConfig(trials=10, seed=0, focal_buyer=7))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits(self, seed):
        """The streams are keyed by 64 bits of the seed, so a seed outside
        them would silently rerun another seed's streams."""
        with pytest.raises(ValueError, match="seed"):
            SimConfig(trials=10, seed=seed)
        assert SimConfig(trials=10, seed=seed % 2**64).seed == seed % 2**64


class TestOracleAgreement:
    def test_demo_selective_equilibrium(self):
        spec = demo_market()
        est = simulate(spec, SIGMA_SELECTIVE, SimConfig(trials=TRIALS, seed=11, focal_buyer=0))
        assert_within(est.trade_prob_H, 0.96, est.trade_prob_H_se)
        assert_within(est.trade_prob_L, 0.36, est.trade_prob_L_se)
        assert_within(est.surplus, 0.348, est.surplus_se)
        assert est.interim_estimate is not None
        assert_within(est.interim_estimate, 0.4, est.interim_se)

    def test_demo_accept_all_interim_matches_prior(self):
        est = simulate(demo_market(), Strategy((1.0, 1.0)), SimConfig(trials=200_000, seed=4, focal_buyer=1))
        assert_within(est.interim_estimate, 0.5, est.interim_se)

    def test_uninformative_signals_keep_the_prior(self):
        spec = MarketSpec(0.37, 0.2, 3, build_experiment([(0.5, 0.5), (0.5, 0.5)]))
        est = simulate(spec, Strategy((0.0, 0.6)), SimConfig(trials=200_000, seed=9, focal_buyer=2))
        assert_within(est.interim_estimate, 0.37, est.interim_se)

    def test_tight_market_large_n_equilibrium(self):
        spec = tight_market(50)
        eq = select_equilibrium(spec, "most")
        est = simulate(spec, eq.strategy, SimConfig(trials=TRIALS, seed=3))
        assert_within(est.trade_prob_H, 1.0 - eq.r_H**50, est.trade_prob_H_se)
        assert_within(est.trade_prob_L, 1.0 - eq.r_L**50, est.trade_prob_L_se)
        assert_within(est.surplus, eq.surplus, est.surplus_se)

    def test_rejection_and_conditional_posterior_consistency(self):
        spec = demo_market(n=3)
        sigma = Strategy((0.2, 0.9))
        est = simulate(spec, sigma, SimConfig(trials=TRIALS, seed=31))
        r_l, r_h = rejection_probs(spec, sigma)
        assert_within(est.trade_prob_H, 1.0 - r_h**3, est.trade_prob_H_se)
        assert_within(est.trade_prob_L, 1.0 - r_l**3, est.trade_prob_L_se)
        assert_within(est.surplus, total_surplus(spec, sigma), est.surplus_se)
        p_trade = spec.rho * (1.0 - r_h**3) + (1.0 - spec.rho) * (1.0 - r_l**3)
        recovered = est.prob_H_given_trade * p_trade + est.prob_H_given_no_trade * (1.0 - p_trade)
        se = max(est.prob_H_given_trade_se, est.prob_H_given_no_trade_se)
        assert_within(recovered, spec.rho, se)

    def test_interim_against_analytic_for_mixing_strategy(self):
        spec = tight_market(4)
        sigma = Strategy((0.0, 0.7))
        est = simulate(spec, sigma, SimConfig(trials=TRIALS, seed=77, focal_buyer=3))
        assert_within(est.interim_estimate, interim_belief(spec, sigma), est.interim_se)


def _family_case(index: int) -> tuple[MarketSpec, Strategy, int]:
    """A seeded market with m = 2..5 and n = 1..12, a strategy whose entries
    are exactly 0, exactly 1 or mixing, in any order, and a focal buyer."""
    rng = np.random.default_rng(400 + index)
    spec = random_market(rng, m_choices=(2, 3, 4, 5), n_range=(1, 12))
    kinds = rng.integers(0, 3, size=spec.experiment.m)
    accept = [(0.0, 1.0, float(rng.uniform(0.05, 0.95)))[k] for k in kinds]
    return spec, Strategy(tuple(accept)), int(rng.integers(spec.n))


class TestStatisticalFamily:
    """Random markets and strategies, each estimate within 4 standard errors
    of the closed forms."""

    @pytest.mark.parametrize("index", range(24))
    def test_estimates_match_the_closed_forms(self, index):
        """A trade probability near 1 is often estimated as exactly 1, whose
        binomial standard error is 0; its band uses the exact probability's
        standard error over the state's expected trials when that is
        larger."""
        spec, sigma, focal = _family_case(index)
        trials = 200_000
        est = simulate(spec, sigma, SimConfig(trials=trials, seed=500 + index, focal_buyer=focal))
        r_l, r_h = rejection_probs(spec, sigma)
        for value, se, r, share in (
            (est.trade_prob_H, est.trade_prob_H_se, r_h, spec.rho),
            (est.trade_prob_L, est.trade_prob_L_se, r_l, 1.0 - spec.rho),
        ):
            p = 1.0 - r**spec.n
            assert_within(value, p, max(se, math.sqrt(p * (1.0 - p) / (share * trials))), 4.0)
        assert_within(est.surplus, total_surplus(spec, sigma), est.surplus_se, 4.0)
        assert_within(est.interim_estimate, interim_belief(spec, sigma), est.interim_se, 4.0)


def _fields(est) -> tuple:
    """The estimate's fields, NaN spelled out so that ``==`` is exact equality."""
    return tuple("nan" if isinstance(v, float) and math.isnan(v) else v for v in dataclasses.astuple(est))


# An experiment whose low-state masses sum, left to right, to one ulp below 1.
ONE_ULP_SHORT = build_experiment([(0.7, 0.1), (0.2, 0.3), (0.1, 0.6)])
# Built without the column-sum check: a tenth of each state's mass is missing,
# so one signal uniform in ten lies beyond the last cumulative mass and the
# signal is clipped to the top outcome.
MASS_DEFICIT = FiniteExperiment((Outcome(0.375, 0.5, 0.3), Outcome(0.6, 0.4, 0.6)))

# Low-state masses 0.75 and 0.25: every outcome end and mixing position
# below is a multiple of 2**-53.
QUARTERS = MarketSpec(0.5, 0.2, 1, build_experiment([(0.75, 0.25), (0.25, 0.75)]))

# (market, strategy, focal buyers): each runs with and without a focal buyer.
EQUIVALENCE_CASES = {
    "m1_mixing": (MarketSpec(0.4, 0.3, 3, build_experiment([(1.0, 1.0)])), (0.45,), (0, 2)),
    "m1_reject": (MarketSpec(0.4, 0.3, 2, build_experiment([(1.0, 1.0)])), (0.0,), (1,)),
    "zero_low_mass_top": (revealing_market(3), (0.0, 1.0), (0, 2)),
    "zero_high_mass_bottom": (
        MarketSpec(0.5, 0.2, 4, build_experiment([(0.5, 0.0), (0.5, 1.0)])), (0.3, 1.0), (0, 3)
    ),
    "one_ulp_short": (MarketSpec(0.35, 0.4, 3, ONE_ULP_SHORT), (0.0, 0.5, 1.0), (1,)),
    "mass_deficit": (MarketSpec(0.5, 0.3, 3, MASS_DEFICIT), (0.2, 0.9), (0, 2)),
    "one_buyer": (demo_market(n=1), (0.0, 1.0), (0,)),
    "pure": (tight_market(6), (0.0, 1.0), (0, 5)),
    "mixing": (tight_market(7), (0.0, 0.65), (3,)),
    "accept_all": (demo_market(4), (1.0, 1.0), (0, 3)),
    "non_monotone": (MarketSpec(0.6, 0.5, 5, ONE_ULP_SHORT), (0.7, 0.0, 1.0), (0, 4)),
    "equal_neighbours": (MarketSpec(0.6, 0.5, 4, ONE_ULP_SHORT), (0.4, 0.4, 0.9), (2,)),
    # rho at 0 and 1: every trial Low, every trial High.
    "rho_zero": (MarketSpec(0.0, 0.3, 3, ONE_ULP_SHORT), (0.0, 0.5, 1.0), (1,)),
    "rho_one": (MarketSpec(1.0, 0.3, 3, ONE_ULP_SHORT), (0.2, 0.0, 1.0), (0,)),
}
for _seed in range(6):
    _spec = random_market(np.random.default_rng(100 + _seed), m_choices=(2, 3, 4, 5), n_range=(1, 8))
    _draw = np.random.default_rng(200 + _seed).choice([0.0, 0.25, 0.5, 1.0], size=_spec.experiment.m)
    EQUIVALENCE_CASES[f"seeded_{_seed}"] = (_spec, tuple(float(a) for a in _draw), (0, _spec.n - 1))


# Chunk budgets below the default, as (cells, trials per block): every block
# of the cases below then reads its arrays in several chunks.  "one_row"
# reads one row a chunk, on blocks of 128 trials (the reference's blocks
# too) so that a run takes milliseconds, not seconds; "partial_last" leaves
# a partial last chunk in a full block for every n of the cases.
CHUNK_BUDGETS = {"one_row": (1, 128), "partial_last": (3600, montecarlo.BLOCK_TRIALS)}


def _set_chunk_budget(monkeypatch, budget: str, n: int) -> None:
    cells, block = CHUNK_BUDGETS[budget]
    monkeypatch.setattr(montecarlo, "CHUNK_CELLS", cells)
    for module in (montecarlo, reference_montecarlo):
        monkeypatch.setattr(module, "BLOCK_TRIALS", block)
    rows = montecarlo._chunk_rows(n)
    assert rows == 1 if budget == "one_row" else 1 < rows < block and block % rows


@functools.cache
def _reference_fields(name: str, focal: int | None, block: int) -> tuple:
    """The reference's estimate of a case on blocks of ``block`` trials,
    which a case's chunked run shares with its unchunked one."""
    spec, accept, _ = EQUIVALENCE_CASES[name]
    config = SimConfig(trials=2 * block + 77, seed=len(name), focal_buyer=focal)
    return _fields(reference_simulate(spec, Strategy(accept), config))


def _assert_equal_to_the_reference(monkeypatch, name: str) -> None:
    spec, accept, focals = EQUIVALENCE_CASES[name]
    strategy = Strategy(accept)
    # Two full blocks and a partial third, on one to three workers and on
    # more workers than blocks.
    for focal in (None, *focals):
        config = SimConfig(trials=2 * montecarlo.BLOCK_TRIALS + 77, seed=len(name), focal_buyer=focal)
        expected = _reference_fields(name, focal, reference_montecarlo.BLOCK_TRIALS)
        for workers in (1, 2, 3, 4):
            monkeypatch.setattr(montecarlo, "_worker_count", lambda: workers)
            assert _fields(simulate(spec, strategy, config)) == expected, workers


class TestReferenceKernel:
    """The block kernel reproduces the sorted-visit-order kernel exactly."""

    def test_cases_reach_the_corners(self):
        assert np.cumsum(ONE_ULP_SHORT.p_L_array())[-1] == 1.0 - 2.0**-53
        assert np.cumsum(MASS_DEFICIT.p_L_array())[-1] < 0.95

    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_CASES))
    def test_estimates_equal_the_reference(self, monkeypatch, name):
        _assert_equal_to_the_reference(monkeypatch, name)

    @pytest.mark.parametrize("budget", sorted(CHUNK_BUDGETS))
    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_CASES))
    def test_estimates_equal_the_reference_in_chunks(self, monkeypatch, name, budget):
        _set_chunk_budget(monkeypatch, budget, EQUIVALENCE_CASES[name][0].n)
        _assert_equal_to_the_reference(monkeypatch, name)

    @pytest.mark.parametrize(
        "keys, reached",
        [
            pytest.param([[0.5, 0.5]], True, id="0.5-True"),
            pytest.param([[0.25, 0.5]], False, id="0.25-False"),
            # Words equal after ``>> 11``, in both orders: equal floats.
            pytest.param(np.array([[HALF, HALF | 0x7FF]], dtype=np.uint64), True, id="words_low_bits_focal"),
            pytest.param(np.array([[HALF | 0x7FF, HALF]], dtype=np.uint64), True, id="words_low_bits_other"),
        ],
    )
    def test_visit_order_tie_counts_the_other_buyer_after(self, monkeypatch, keys, reached):
        """Both buyers accept.  Buyer 0 comes before focal buyer 1 only when
        its visit-order key is strictly smaller; an equal key counts as later.
        Keys are compared as the floats numpy would draw, so two words that
        differ only in their low 11 bits are equal keys: a kernel comparing
        whole words would put buyer 0 first when only the focal buyer's low
        bits are set.  Everybody accepts, so the signal uniforms and the
        reserved region, two words per buyer, are skipped: the order keys
        are read from word 1 + 2n."""
        rng = _script(monkeypatch, [0.0], keys)
        est = simulate(demo_market(), Strategy((1.0, 1.0)), SimConfig(trials=1, seed=0, focal_buyer=1))
        assert (est.interim_estimate == 1.0) if reached else math.isnan(est.interim_estimate)
        assert rng.draws == [] and rng.starts == [0, 1 + 2 * 2]

    @pytest.mark.parametrize("u, trades", [(0.8, False), (np.nextafter(0.8, 1.0), True)])
    def test_signal_uniform_on_a_cumulative_mass_takes_the_lower_outcome(self, monkeypatch, u, trades):
        """In the Low state the demo market's first cumulative mass is 0.8: a
        uniform equal to it draws the rejected outcome 0, the next float the
        accepted outcome 1."""
        rng = _script(monkeypatch, [0.9], [[u]])
        est = simulate(demo_market(n=1), Strategy((0.0, 1.0)), SimConfig(trials=1, seed=0))
        assert est.trade_prob_L == float(trades)
        assert rng.draws == [] and rng.starts == [0, 1]

    @pytest.mark.parametrize(
        "u, trades",
        [
            pytest.param(0.0, False, id="lowest"),
            pytest.param(0.75, False, id="top_of_0"),
            pytest.param(0.75 + 2**-53, False, id="bottom_of_1"),
            pytest.param(0.875, False, id="at_x1"),
            pytest.param(0.875 + 2**-53, True, id="above_x1"),
            pytest.param(1.0 - 2**-53, True, id="highest"),
        ],
    )
    @pytest.mark.parametrize("kernel", [simulate, reference_simulate], ids=["kernel", "reference"])
    def test_a_word_accepts_above_its_position(self, monkeypatch, kernel, u, trades):
        """A buyer accepts iff its signal uniform lies strictly above its
        outcome's position ``hi - sigma * (hi - lo)``.  In the Low state of
        ``QUARTERS`` outcome 0 is [0, 0.75], rejected at sigma = 0 even at
        the lowest word, and outcome 1 is (0.75, 1], whose position at
        sigma = 0.5 is 0.875: the word at 0.875 rejects, the next accepts.
        The kernel reads the quality and the signal word; the reference
        reads the reserved region's word too."""
        rng = _script(monkeypatch, [0.9], [[u]], [[0.0]])
        # The reference reads the same three scripted arrays.
        monkeypatch.setattr(reference_montecarlo, "_block_rng", montecarlo._block_rng)
        est = kernel(QUARTERS, Strategy((0.0, 0.5)), SimConfig(trials=1, seed=0))
        assert est.trade_prob_L == float(trades)
        assert rng.starts == ([0, 1] if kernel is simulate else [0, 1, 2])


def _float(word: int) -> float:
    """The float numpy's ``random()`` makes of a Philox word."""
    return (word >> 11) * 2.0**-53


def _assert_word_rules(x: float, words: list[int]) -> None:
    """Each integer rule of the kernel decides ``words`` as the float test
    it replaces decides their floats: the quality test ``u < x`` for x in
    [0, 1], the signal test ``u <= x`` (x a breakpoint: a position in
    [0, 1] or a cumulative mass, which may end above 1), and the
    visit-order test ``u_i < u_f`` with each word as the focal key."""
    w = np.array(words, dtype=np.uint64)
    u = [_float(word) for word in words]
    if x <= 1.0:
        assert montecarlo._less(w, montecarlo._below(x)).tolist() == [v < x for v in u], x
    assert (w <= np.uint64(montecarlo._at_most(x))).tolist() == [v <= x for v in u], x
    for focal in words:
        earlier = w < (np.uint64(focal) & montecarlo._HIGH_BITS)
        assert earlier.tolist() == [v < _float(focal) for v in u], focal


def _words_around(x: float) -> list[int]:
    """The words whose floats lie at and next to the multiple of 2**-53 at
    or below ``x``, with the lowest and the highest word."""
    k = min(math.floor(x * 2.0**53), 2**53 - 1)
    near = [j << 11 | low for j in (k - 1, k, k + 1) if 0 <= j < 2**53 for low in (0, 0x7FF)]
    return [0, *near, 2**64 - 1]


_MULTIPLES = [k * 2.0**-53 for k in (1, 2, 3, 0x1234567890ABC, 2**52, 2**53 - 1)]
# Exact multiples of 2**-53 and their float neighbours on both sides, the
# smallest subnormal, 0.1 (no multiple) and 0.8 (one), the low-state sum of
# ONE_ULP_SHORT, and a sum one ulp above 1.
BOUNDARY_XS = sorted(
    {0.0, 5e-324, 0.1, 0.8, 1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52}
    | set(_MULTIPLES)
    | {float(np.nextafter(x, 0.0)) for x in _MULTIPLES}
    | {float(np.nextafter(x, 2.0)) for x in _MULTIPLES}
)


# (market, strategy) for one buyer: a cutoff, non-monotone strategies, zero
# masses in one state, one outcome, and cumulative masses that end below 1.
BREAKPOINT_CASES = {
    "cutoff": (tight_market(1), (0.0, 0.65)),
    "cutoff_m3": (MarketSpec(0.35, 0.4, 1, ONE_ULP_SHORT), (0.0, 0.3, 1.0)),
    "non_monotone": (MarketSpec(0.6, 0.5, 1, ONE_ULP_SHORT), (0.7, 0.0, 1.0)),
    "non_monotone_mixing": (MarketSpec(0.6, 0.5, 1, ONE_ULP_SHORT), (0.4, 1.0, 0.3)),
    "zero_high_mass_bottom": (MarketSpec(0.5, 0.2, 1, build_experiment([(0.5, 0.0), (0.5, 1.0)])), (0.3, 0.8)),
    "zero_low_mass_top": (revealing_market(1), (0.4, 0.7)),
    "m1_mixing": (MarketSpec(0.4, 0.3, 1, build_experiment([(1.0, 1.0)])), (0.45,)),
    "one_ulp_short": (MarketSpec(0.35, 0.4, 1, ONE_ULP_SHORT), (0.25, 0.5, 0.75)),
    "mass_deficit": (MarketSpec(0.5, 0.3, 1, MASS_DEFICIT), (0.2, 0.9)),
    "quarters": (QUARTERS, (0.5, 0.5)),
}


class TestWordRules:
    """The kernel compares raw Philox words with integer bounds where
    ``tests/reference_montecarlo.py`` compares numpy's floats."""

    @pytest.mark.parametrize("offset", range(8))
    def test_random_is_each_words_top_53_bits(self, offset):
        """Every rule rests on numpy mapping a word ``w`` to the float
        ``(w >> 11) * 2**-53``.  Checked ``==`` on block streams of three
        keys, from word ``offset`` (offset 0 is the stream's start, and
        seeks nowhere) and from word 10**6 + ``offset``: each place in
        Philox's four-word buffer, reached by ``_seek``."""
        for seed_, block in ((0, 0), (7, 1), (2**64 - 1, 60)):
            for to in (offset, 10**6 + offset):
                floats, words = montecarlo._block_rng(seed_, block), montecarlo._block_rng(seed_, block)
                montecarlo._seek(floats, 0, to)
                montecarlo._seek(words, 0, to)
                raw = words.bit_generator.random_raw(4099)
                assert np.array_equal(floats.random(4099), (raw >> np.uint64(11)).astype(float) * 2.0**-53)

    @pytest.mark.parametrize("x", BOUNDARY_XS)
    def test_rules_at_the_boundaries(self, x):
        _assert_word_rules(x, _words_around(x))

    def test_edges_take_no_word_or_every_word(self):
        """rho or sigma 0 admits no word, 1 every word, the highest
        included; a cumulative mass of 1 or above takes every word."""
        w = np.array([0, 0x7FF, 2**63, 2**64 - 0x800, 2**64 - 1], dtype=np.uint64)
        assert montecarlo._below(0.0) == 0 and not montecarlo._less(w, 0).any()
        assert montecarlo._below(1.0) == 2**64 and montecarlo._less(w, 2**64).all()
        for x in (1.0, 1.0 + 2.0**-52):
            assert montecarlo._at_most(x) == 2**64 - 1

    @seed(30)
    @settings(max_examples=300, deadline=None)
    @given(x=st.floats(0.0, 1.0), words=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6))
    def test_rules_on_drawn_values(self, x, words):
        _assert_word_rules(x, words)

    @seed(32)
    @settings(max_examples=500, deadline=None)
    @given(
        ends=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2).map(sorted),
        sigma=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True) | st.just(1.0 - 2.0**-53),
    )
    def test_a_position_lies_in_its_interval(self, ends, sigma):
        """The breakpoints stay in outcome order, which the flip count
        needs, because the rounded position of a mixing outcome never
        leaves its interval."""
        lo, hi = ends
        assert lo <= hi - sigma * (hi - lo) <= hi

    @pytest.mark.parametrize("name", sorted(BREAKPOINT_CASES))
    def test_words_at_each_position_and_boundary(self, monkeypatch, name):
        """One buyer, in each state, on the words at and next to each
        outcome's position ``x_s`` and each cumulative mass ``cum_s``: the
        kernel's chain of breakpoints decides each word as the reference's
        per-outcome rule decides its float."""
        spec, accept = BREAKPOINT_CASES[name]
        sigma = np.asarray(accept)
        for high, cum in ((False, spec.experiment.p_L_array()), (True, spec.experiment.p_H_array())):
            cum = np.cumsum(cum)
            lo, hi = np.append(0.0, cum[:-1]), np.append(cum[:-1], 1.0)
            points = {*(hi - sigma * (hi - lo)).tolist(), *cum.tolist()}
            for word in sorted({w for x in points for w in _words_around(x)}):
                decisions = [
                    _trades(monkeypatch, kernel, spec, accept, high, draw)
                    for kernel, draw in ((simulate, np.uint64(word)), (reference_simulate, _float(word)))
                ]
                assert decisions[0] == decisions[1], (high, hex(word))

    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_CASES))
    def test_pure_strategies_keep_the_signal_bounds(self, name):
        """For sigma in {0, 1} the breakpoints are the cumulative masses
        where sigma changes, each state's ``random() <= cum`` bound: the
        threshold chain of a pure strategy is unchanged."""
        exp = EQUIVALENCE_CASES[name][0].experiment
        cum = np.cumsum([exp.p_L_array(), exp.p_H_array()], axis=1).tolist()
        for sigma in itertools.product((0.0, 1.0), repeat=exp.m):
            bounds = [[montecarlo._at_most(row[j]) for row in cum] for j in range(exp.m - 1) if sigma[j] != sigma[j + 1]]
            assert montecarlo._breakpoints(list(sigma), cum).tolist() == bounds, sigma


def _trades(monkeypatch, kernel, spec, accept, high, signal) -> bool:
    """Whether one buyer playing ``accept`` trades in one trial of the
    state High (``high``) or Low, on the signal uniform ``signal``: a raw
    word for the kernel, a float for the reference.  The reference's
    reserved word is never read by its decision."""
    rng = _Scripted([0.0 if high else 1.0 - 2.0**-53], np.array([[signal]]), [[0.0]])
    for module in (montecarlo, reference_montecarlo):
        monkeypatch.setattr(module, "_block_rng", lambda seed, block: rng)
    est = kernel(spec, Strategy(accept), SimConfig(trials=1, seed=0))
    return (est.trade_prob_H if high else est.trade_prob_L) == 1.0


class TestSkippedDraws:
    """A block skips the arrays its decisions do not read, and every later
    draw keeps its place in the stream."""

    @pytest.mark.parametrize("offset", range(8))
    def test_skipping_words_leaves_the_draws_reading_them_leaves(self, offset):
        """From every place in Philox's four-word buffer, seeks forward of 0
        to 9 words and of about a million, and back by 1 to 9 words and by
        about a million: the counter wraps, so ``advance`` moves back too.
        Each seek lands where a fresh stream read up to the target word
        stands."""
        at = 10**6 + 12 + offset
        read = montecarlo._block_rng(5, offset).random(2 * at)
        start = montecarlo._block_rng(5, offset)
        start.random(at)
        for words in (*range(10), 10**6 + 3, *range(-9, 0), -(10**6 + 3)):
            seeked = montecarlo._block_rng(5, offset)
            seeked.bit_generator.state = start.bit_generator.state
            montecarlo._seek(seeked, at, at + words)
            assert np.array_equal(seeked.random(9), read[at + words : at + words + 9]), words

    @pytest.mark.parametrize(
        "accept, focal, arrays",
        [
            ((0.0, 0.0), None, 0),  # nobody accepts: the qualities only
            ((0.0, 0.0), 1, 0),
            ((1.0, 1.0), None, 0),  # everybody accepts
            ((1.0, 1.0), 1, 1),  # the visit-order keys
            ((0.0, 1.0), None, 1),  # pure: the signal words
            ((0.0, 1.0), 1, 2),
            ((0.45, 0.45), 1, 2),  # one sigma: the signal words too
            ((0.0, 0.6), None, 1),  # mixing: the signal words, as a pure strategy
            ((0.0, 0.6), 1, 2),
        ],
        ids=str,
    )
    def test_words_read_per_block(self, monkeypatch, accept, focal, arrays):
        """Counts the words each block reads: the ``size`` qualities and
        ``arrays`` arrays of ``size x n``, none in the reserved region."""
        _assert_words_read(monkeypatch, demo_market(3), accept, focal, arrays)

    def test_words_read_per_block_in_chunks(self, monkeypatch):
        """At n = 20 a chunk holds 6553 trials, so a full block reads each
        of its two arrays, the signal words and the visit-order keys, in
        three chunks."""
        assert 2 * montecarlo._chunk_rows(20) < montecarlo.BLOCK_TRIALS < 3 * montecarlo._chunk_rows(20)
        _assert_words_read(monkeypatch, demo_market(20), (0.0, 0.6), 1, 2)

    def test_a_one_chunk_block_reads_without_seeking(self, monkeypatch):
        """At n <= 8 a block reads each array in one chunk, from where the
        last one ended: a mixing block without a focal buyer never calls
        ``advance``, and one with a focal buyer calls it once, to skip the
        reserved region."""
        assert montecarlo._chunk_rows(8) == montecarlo.BLOCK_TRIALS
        for focal, advances in ((None, 0), (1, 1)):
            read = _assert_words_read(monkeypatch, demo_market(8), (0.0, 0.6), focal, 1 + (focal is not None))
            assert [rng.advances for rng in read.values()] == [advances, advances]


def _assert_words_read(monkeypatch, spec, accept, focal, arrays) -> dict:
    real, read = montecarlo._block_rng, {}

    def block_rng(seed, block):
        read[block] = _Counting(real(seed, block))
        return read[block]

    monkeypatch.setattr(montecarlo, "_block_rng", block_rng)
    strategy = Strategy(accept)
    config = SimConfig(trials=montecarlo.BLOCK_TRIALS + 77, seed=2, focal_buyer=focal)
    estimate = simulate(spec, strategy, config)
    sizes = {0: montecarlo.BLOCK_TRIALS, 1: 77}
    assert {block: rng.words for block, rng in read.items()} == {
        block: size * (1 + arrays * spec.n) for block, size in sizes.items()
    }
    for block, size in sizes.items():
        # The reserved region, between the signal words and the keys.
        reserved = (size * (1 + spec.n), size * (1 + 2 * spec.n))
        assert all(end <= reserved[0] or reserved[1] <= start for start, end in read[block].reads), block
    assert _fields(estimate) == _fields(reference_simulate(spec, strategy, config))
    return read


# Markets wide enough that a buyer count per trial passes 255: everybody
# accepts, and in ``all_high_top`` every buyer of a High trial accepts.
WIDE_CASES = {
    f"{name}_{n}": (spec, accept)
    for n in (256, 512)
    for name, spec, accept in (
        ("accept_all", demo_market(n), (1.0, 1.0)),
        ("all_high_top", MarketSpec(0.5, 0.2, n, build_experiment([(0.5, 0.0), (0.5, 1.0)])), (0.0, 1.0)),
    )
}


@pytest.mark.parametrize("focal", [None, 0, 255])
@pytest.mark.parametrize("name", sorted(WIDE_CASES))
def test_wide_markets_equal_the_reference(name, focal):
    spec, accept = WIDE_CASES[name]
    config = SimConfig(trials=600, seed=3, focal_buyer=focal)
    expected = _fields(reference_simulate(spec, Strategy(accept), config))
    assert _fields(simulate(spec, Strategy(accept), config)) == expected


@pytest.mark.parametrize("budget", sorted(CHUNK_BUDGETS))
@pytest.mark.parametrize("focal", [None, 0, 255])
@pytest.mark.parametrize("name", sorted(WIDE_CASES))
def test_wide_markets_equal_the_reference_in_chunks(monkeypatch, name, focal, budget):
    _set_chunk_budget(monkeypatch, budget, WIDE_CASES[name][0].n)
    test_wide_markets_equal_the_reference(name, focal)


@pytest.mark.parametrize("n", [200, 2000])
@pytest.mark.parametrize(
    "accept, focal", [((0.0, 1.0), False), ((0.0, 0.65), True)], ids=["pure", "mixing_focal"]
)
def test_a_block_holds_one_chunk_of_floats(monkeypatch, accept, focal, n):
    """One full block of the tight market, whose ``BLOCK_TRIALS x n``
    array of words would take 26.2 MB at n = 200, holds the same memory at
    either n: one chunk of words (``8 * CHUNK_CELLS`` bytes, 1 MiB), the
    chunk's decision mask (``CHUNK_CELLS`` bytes), and arrays of
    one value per trial, of which four floats' worth (0.5 MiB) are
    allowed.  Another four chunk masks' worth (0.5 MiB) covers the
    temporaries.  tracemalloc sees numpy's buffers."""
    spec = tight_market(n)
    monkeypatch.setattr(montecarlo, "_worker_count", lambda: 1)
    config = SimConfig(trials=montecarlo.BLOCK_TRIALS, seed=4, focal_buyer=n // 2 if focal else None)
    # Both strategies have one breakpoint, so one chunk mask.
    bound = (8 + 1) * montecarlo.CHUNK_CELLS + 4 * 8 * montecarlo.BLOCK_TRIALS + 4 * montecarlo.CHUNK_CELLS
    tracemalloc.start()
    try:
        estimate = simulate(spec, Strategy(accept), config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, peak
    assert not focal or 0.0 < estimate.interim_estimate < 1.0


class TestScheduling:
    """Blocks run on the caller and worker threads; the estimates do not
    depend on how many, no thread outlives the call, and the caller's CPU
    affinity is left as it was."""

    def test_many_blocks_on_more_workers_than_cpus(self, monkeypatch):
        """Ten blocks on four workers (more than the CPUs of a small
        machine) with the interpreter switching threads as often as it can:
        a lost or reordered block would move an estimate."""
        monkeypatch.setattr(montecarlo, "_worker_count", lambda: 4)
        spec, accept, _ = EQUIVALENCE_CASES["mixing"]
        config = SimConfig(trials=9 * montecarlo.BLOCK_TRIALS + 5, seed=8, focal_buyer=2)
        before, mask = threading.active_count(), montecarlo._affinity()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            estimate = simulate(spec, Strategy(accept), config)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == before and montecarlo._affinity() == mask
        assert _fields(estimate) == _fields(reference_simulate(spec, Strategy(accept), config))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("failing", [0, 1])
    def test_a_failing_block_is_raised_in_the_caller(self, monkeypatch, workers, failing):
        """Block 1 runs on a worker thread when there are two or more, block
        0 always on the caller; either way the error reaches the caller and
        every worker is joined."""
        real = montecarlo._block_rng

        def block_rng(seed, block):
            if block == failing:
                raise RuntimeError(f"block {block} failed")
            return real(seed, block)

        monkeypatch.setattr(montecarlo, "_block_rng", block_rng)
        monkeypatch.setattr(montecarlo, "_worker_count", lambda: workers)
        before, mask = threading.active_count(), montecarlo._affinity()
        config = SimConfig(trials=2 * montecarlo.BLOCK_TRIALS + 77, seed=0, focal_buyer=1)
        with pytest.raises(RuntimeError, match=f"block {failing} failed"):
            simulate(demo_market(), SIGMA_SELECTIVE, config)
        assert threading.active_count() == before and montecarlo._affinity() == mask

    @pytest.mark.parametrize("workers", [2, 3])
    def test_blocks_finishing_out_of_order(self, monkeypatch, workers):
        """The caller's blocks finish last, after the workers' later blocks:
        the results are still added in block order."""
        real, caller = montecarlo._block_rng, threading.get_ident()

        def block_rng(seed, block):
            if threading.get_ident() == caller:
                time.sleep(0.05)
            return real(seed, block)

        monkeypatch.setattr(montecarlo, "_block_rng", block_rng)
        monkeypatch.setattr(montecarlo, "_worker_count", lambda: workers)
        # On this market and seed, adding the blocks in the order they
        # finish would move an estimate.
        spec, accept, _ = EQUIVALENCE_CASES["seeded_0"]
        config = SimConfig(trials=7 * montecarlo.BLOCK_TRIALS + 5, seed=1, focal_buyer=0)
        estimate = simulate(spec, Strategy(accept), config)
        assert _fields(estimate) == _fields(reference_simulate(spec, Strategy(accept), config))

    def test_an_interrupt_in_the_caller_stops_every_worker(self, monkeypatch):
        """An interrupt in the caller's block 0 reaches the caller once the
        workers are joined, and the caller gets its CPU affinity back."""
        real = montecarlo._block_rng

        def block_rng(seed, block):
            if block == 0:
                raise KeyboardInterrupt
            return real(seed, block)

        monkeypatch.setattr(montecarlo, "_block_rng", block_rng)
        monkeypatch.setattr(montecarlo, "_worker_count", lambda: 3)
        before, mask = threading.active_count(), montecarlo._affinity()
        config = SimConfig(trials=9 * montecarlo.BLOCK_TRIALS, seed=0, focal_buyer=1)
        with pytest.raises(KeyboardInterrupt):
            simulate(demo_market(), SIGMA_SELECTIVE, config)
        assert threading.active_count() == before and montecarlo._affinity() == mask


class _Scripted:
    """Stands in for a block's generator: hands out the given draws in turn
    and records the word of the stream at which each starts.  A draw of
    floats is handed out by ``random``, or by ``random_raw`` as the words
    numpy maps to those floats, ``u * 2**53 << 11``; each must be a
    multiple of 2**-53 in [0, 1), which numpy can draw.  A draw of
    ``uint64`` words is handed out as it stands.  The stream position moves
    as Philox's does: ``advance`` moves the counter of the four-word
    groups, relative to the groups begun and modulo 2**256, and drops the
    rest of the current group."""

    def __init__(self, *draws):
        self.draws = list(draws)
        self.at = 0
        self.starts = []

    @property
    def bit_generator(self):
        # ``montecarlo._seek`` moves through the bit generator.
        return self

    def _next(self) -> np.ndarray:
        value = np.asarray(self.draws.pop(0))
        self.starts.append(self.at)
        self.at += value.size
        return value

    def random_raw(self, size, output=True):
        if not output:
            self.at += size
            return None
        value = self._next()
        if value.dtype != np.uint64:
            scaled = value.astype(float) * 2.0**53
            assert np.all((scaled == np.floor(scaled)) & (0 <= scaled) & (scaled < 2.0**53)), value
            value = scaled.astype(np.uint64) << 11
        assert value.size == size
        return value.ravel()

    def advance(self, delta):
        self.at = 4 * ((-(-self.at // 4) + delta) % 2**256)

    def random(self, size=None, out=None):
        value = self._next().astype(float)
        if out is not None:
            out[...] = value
            value = out
        return value


def _script(monkeypatch, *draws) -> _Scripted:
    """Makes the one block of a simulation draw ``draws``."""
    rng = _Scripted(*draws)
    monkeypatch.setattr(montecarlo, "_block_rng", lambda seed, block: rng)
    return rng


class _Counting:
    """Wraps a block's generator and counts the words its reads take and
    the calls of its bit generator's ``advance``; the words ``_seek``
    discards are not read.  It follows the stream position as
    ``_Scripted`` does and records each read as a ``(start, end)`` range
    of words."""

    def __init__(self, rng):
        self.rng, self.words, self.advances = rng, 0, 0
        self.at, self.reads = 0, []

    @property
    def bit_generator(self):
        return self

    def random_raw(self, size, output=True):
        if output:
            self.words += size
            self.reads.append((self.at, self.at + size))
        self.at += size
        return self.rng.bit_generator.random_raw(size, output)

    def advance(self, delta):
        self.advances += 1
        self.at = 4 * ((-(-self.at // 4) + delta) % 2**256)
        return self.rng.bit_generator.advance(delta)
