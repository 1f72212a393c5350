"""The batched equilibrium-chain kernel against the scalar reference.

``reference_solver.enumerate_equilibria`` is the one-market loop the kernel
replaced.  Every record field (strategy, interim, r_L, r_H, surplus, cutoff,
mixing probability) must match it exactly: the kernel does the same float
operations in the same order, only over arrays.
"""

from __future__ import annotations

import numpy as np
import pytest

import reference_solver as reference
from conftest import random_experiment
from seqmarket.equilibrium import (
    MarketSpec,
    Strategy,
    enumerate_chains,
    enumerate_equilibria,
    interim_belief,
    least_selective,
    most_selective,
)
from seqmarket.errors import DegeneratePrior, NoEquilibriumFound
from seqmarket.experiment import build_experiment
from seqmarket.scenarios import demo_market, revealing_market, tight_market


def _reference(spec: MarketSpec):
    try:
        return reference.enumerate_equilibria(spec)
    except NoEquilibriumFound:
        return NoEquilibriumFound


def _kernel(specs: list[MarketSpec]) -> list:
    """Each market's chain, or ``NoEquilibriumFound``, solved in one batch
    (with one retry per failing market, since a batch raises on the first)."""
    try:
        return enumerate_chains(specs)
    except NoEquilibriumFound:
        out = []
        for spec in specs:
            try:
                out.append(enumerate_equilibria(spec))
            except NoEquilibriumFound:
                out.append(NoEquilibriumFound)
        return out


def _assert_matches(specs: list[MarketSpec]) -> None:
    for spec, got in zip(specs, _kernel(specs)):
        assert got == _reference(spec), f"mismatch at {spec}"


def _seeded_market(seed: int, m: int, revealing: bool = False) -> tuple[float, float, object]:
    rng = np.random.default_rng(seed)
    exp = random_experiment(rng, m, fully_revealing_top=revealing)
    return float(rng.uniform(0.15, 0.85)), float(rng.uniform(0.1, 0.9)), exp


# Seeds whose n = 1..200 sweep has a mixing equilibrium and a chain of
# three or more at 180 sizes or more.
SWEEP_SEEDS = {2: 106, 3: 106, 4: 120, 5: 106}


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_every_market_size(m):
    """n = 1..200 in one batch."""
    if m == 1:
        rho, c, exp = 0.4, 0.3, build_experiment([(1.0, 1.0)])
    else:
        rho, c, exp = _seeded_market(SWEEP_SEEDS[m], m)
    _assert_matches([MarketSpec(rho, c, n, exp) for n in range(1, 201)])


def test_seeded_markets_mixed_batch():
    """Markets with different priors, costs, outcome counts, revealing or
    interior tops and sizes, all passed as one list."""
    rng = np.random.default_rng(4411)
    specs = []
    for i in range(40):
        m = int(rng.integers(2, 6))
        rho, c, exp = _seeded_market(5000 + i, m, revealing=bool(i % 2))
        specs.extend(MarketSpec(rho, c, int(n), exp) for n in rng.integers(2, 201, size=6))
    _assert_matches(specs)


def test_tight_and_revealing_scenarios():
    """The section-8 market mixes at every size; the revealing one has a
    fully revealing top outcome."""
    _assert_matches([tight_market(n) for n in range(1, 201)])
    _assert_matches([revealing_market(n) for n in range(2, 201)])


def test_exact_indifference_at_one_buyer():
    """At n = 1 the interim belief is the prior and the low outcome's gap is
    exactly zero, so every grid point is an equilibrium (1025 in all)."""
    chain = enumerate_equilibria(demo_market(1))
    assert len(chain) == 1025
    assert chain == reference.enumerate_equilibria(demo_market(1))


def test_near_duplicate_roots_are_pooled():
    """Just past the reservation value at which the high signal's pure
    cutoff turns indifferent, a mixing root lies within 1e-9 of the pure
    cutoff and the two are pooled into one equilibrium."""
    exp = demo_market().experiment
    high = exp.outcomes[1]
    specs = []
    for n in (2, 3, 5):
        psi = interim_belief(MarketSpec(0.5, 0.5, n, exp), Strategy((0.0, 1.0)))
        c_star = psi * high.p_H / (psi * high.p_H + (1.0 - psi) * high.p_L)
        specs.extend(MarketSpec(0.5, c_star + k * 2e-12, n, exp) for k in range(1, 11))
    _assert_matches(specs)
    assert all(len(chain) == 1 for chain in enumerate_chains(specs))


def test_uninformative_experiment():
    """The interim belief is the prior whatever the strategy."""
    exp = build_experiment([(0.5, 0.5), (0.5, 0.5)])
    _assert_matches([MarketSpec(rho, 0.35, n, exp) for rho in (0.3, 0.6) for n in (1, 2, 7, 200)])


def test_batch_order_and_errors_follow_the_input():
    specs = [tight_market(3), demo_market(2), MarketSpec(0.5, 0.2, 4, build_experiment([(1.0, 1.0)]))]
    assert enumerate_chains(specs) == [enumerate_equilibria(s) for s in specs]
    assert enumerate_chains([]) == []
    degenerate = MarketSpec(1.0, 0.2, 2, demo_market().experiment)
    with pytest.raises(DegeneratePrior):
        enumerate_chains([demo_market(2), degenerate])


def test_selectors_are_the_chain_ends():
    spec = demo_market(2)
    chain = enumerate_equilibria(spec)
    assert most_selective(spec) == chain[0]
    assert least_selective(spec) == chain[-1]
