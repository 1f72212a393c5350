"""The batched equilibrium-chain kernel against the scalar reference.

``reference_solver.enumerate_equilibria`` is the one-market loop the kernel
replaced.  Every record field (strategy, interim, r_L, r_H, surplus, cutoff,
mixing probability) must match it exactly: the kernel does the same float
operations in the same order, only over arrays.  One layer down, the
kernel's mixing-gap scan, which discards root-free cells unseen, must list
the same hit cells as ``reference_solver.full_scan_hits``, which sees every
grid point.
"""

from __future__ import annotations

import copy
import pickle
from dataclasses import FrozenInstanceError, asdict, fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_solver as reference
import seqmarket.equilibrium as equilibrium
from conftest import random_experiment
from seqmarket.equilibrium import (
    DEFAULT_MIXING_GRID,
    Equilibrium,
    MarketSpec,
    Strategy,
    enumerate_chains,
    enumerate_equilibria,
    interim_belief,
    interim_from_rejections,
    select_equilibrium,
    solve_chains,
    _root_free,
    _scan_hits,
    _scan_spacing,
)
from seqmarket.errors import DegeneratePrior, NoEquilibriumFound
from seqmarket.experiment import binary_masses_from_labels, build_experiment
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


@pytest.mark.parametrize("dimension", ["bad", "good"])
def test_label_batches_match_the_reference(monkeypatch, dimension):
    """The batch ``sweep-binary`` solves: one market size and 201 binary
    experiments, one per label along one dimension, solved from the label
    map's masses.  Their brackets finish on different refinement steps, so
    the moving brackets are compressed several times.  The demo market and
    a seeded binary one, at n = 2 and 24."""
    refining, sizes = [False], []

    def scan(*args):
        refining[0] = False
        hits = real_scan(*args)
        refining[0] = True
        sizes.append([])
        return hits

    def points(*args):
        if refining[0]:
            sizes[-1].append(np.size(args[-1]))
        return real_points(*args)

    real_scan, real_points = equilibrium._scan_hits, equilibrium._mixing_points
    monkeypatch.setattr(equilibrium, "_scan_hits", scan)
    monkeypatch.setattr(equilibrium, "_mixing_points", points)
    rho, c, exp = _seeded_market(66, 2)
    values = np.linspace(0.0, 0.5, 201) if dimension == "bad" else np.linspace(0.5, 1.0, 201)
    for base in (demo_market(), MarketSpec(rho, c, 2, exp)):
        s_low, s_high = base.experiment.labels
        s_L, s_H = np.broadcast_arrays(*((values, s_high) if dimension == "bad" else (s_low, values)))
        p_L, p_H, _ = binary_masses_from_labels(s_L, s_H)
        for n in (2, 24):
            spec = base.with_n(n)
            sizes.clear()
            got = solve_chains(spec.rho, spec.c, p_L, p_H, n)
            assert max(len(set(steps)) for steps in sizes) >= 3, sizes
            for sl, sh, chain in zip(s_L.tolist(), s_H.tolist(), got):
                market = spec.with_experiment(reference.binary_experiment_from_labels(sl, sh))
                assert chain == _reference(market), (market, sl, sh)


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


def test_array_entry_drops_massless_outcomes_and_follows_the_input():
    """A row's outcome without mass in either state is not an outcome of its
    market, and the first failing row decides what is raised."""
    p_L = np.array([[0.8, 0.2], [0.0, 1.0], [1.0, 0.0]])
    p_H = np.array([[0.2, 0.8], [0.0, 1.0], [1.0, 0.0]])
    single = build_experiment([(1.0, 1.0)])
    expected = [enumerate_equilibria(demo_market(3)), *[enumerate_equilibria(MarketSpec(0.5, 0.2, 3, single))] * 2]
    assert solve_chains(0.5, 0.2, p_L, p_H, 3) == expected
    assert solve_chains(0.5, 0.2, p_L[:0], p_H[:0], 3) == []
    # Row 0 is the tight market at n = 2**31, which the solver cannot solve.
    with pytest.raises(NoEquilibriumFound):
        solve_chains([0.5, 1.0], 0.6, p_L[:2], p_H[:2], [2**31, 2])
    with pytest.raises(DegeneratePrior):
        solve_chains([1.0, 0.5], 0.6, p_L[:2], p_H[:2], [2, 2**31])


def test_records_hold_python_floats_in_the_unit_interval():
    """The kernel checks its records' range once per batch instead of in each
    ``Strategy``: every acceptance probability is still a Python float in
    [0, 1], in a tuple."""
    rho, c, exp = _seeded_market(SWEEP_SEEDS[5], 5)
    specs = [demo_market(1), *(tight_market(n) for n in range(1, 51)), *(revealing_market(n) for n in range(1, 51))]
    specs += [MarketSpec(rho, c, n, exp) for n in range(1, 201)]
    for chain in enumerate_chains(specs):
        for eq in chain:
            assert type(eq.strategy.accept) is tuple
            assert all(type(a) is float and 0.0 <= a <= 1.0 for a in eq.strategy.accept), eq


def test_records_behave_like_constructed_ones():
    """The kernel builds each record's ``Strategy`` without its per-entry
    check (``_checked_strategy``).  Every record, and its ``Strategy``, must
    still equal, hash, print, convert, pickle, copy and refuse assignment as
    one built through ``__init__`` from the same fields, and keep its fields
    in slots, with no ``__dict__``."""
    rho, c, exp = _seeded_market(SWEEP_SEEDS[5], 5)
    specs = [demo_market(2), tight_market(7), revealing_market(5), MarketSpec(rho, c, 12, exp)]
    for chain in enumerate_chains(specs):
        for eq in chain:
            strategy = Strategy(**{f.name: getattr(eq.strategy, f.name) for f in fields(Strategy)})
            built = Equilibrium(**{f.name: getattr(eq, f.name) for f in fields(Equilibrium)} | {"strategy": strategy})
            for got, want in ((eq.strategy, strategy), (eq, built)):
                assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
                assert not hasattr(got, "__dict__")
                assert type(got).__slots__ == tuple(f.name for f in fields(got))
                assert pickle.loads(pickle.dumps(got)) == want
                assert copy.deepcopy(got) == want
                assert asdict(got) == asdict(want)
                first = fields(got)[0].name
                assert replace(got, **{first: getattr(want, first)}) == want
                with pytest.raises(FrozenInstanceError):
                    setattr(got, first, getattr(want, first))


@pytest.mark.parametrize("bad", [float("nan"), -0.1, 1.5])
def test_strategy_outside_the_unit_interval_raises(bad):
    with pytest.raises(ValueError) as info:
        Strategy((bad, 1.0))
    assert str(info.value) == f"acceptance probabilities must lie in [0, 1]: {(bad, 1.0)}"


def test_selectors_are_the_chain_ends():
    spec = demo_market(2)
    chain = enumerate_equilibria(spec)
    assert select_equilibrium(spec, "most") == chain[0]
    assert select_equilibrium(spec, "least") == chain[-1]


def test_revealing_top_at_large_n():
    """At the top cutoff of a revealing market ``r_L`` is exactly 1 at every
    mixing probability, so the low term's sum is exactly ``n``."""
    _assert_matches([revealing_market(n) for n in (10**6, 2**31, 2**53)])


def test_interim_belief_near_one():
    """A prior within 1e-9 of 1 leaves ``1 - psi`` below the scan's 1e-8
    limit, where the discard bound does not hold and cells are split."""
    exp = demo_market().experiment
    _assert_matches(
        [MarketSpec(1.0 - 1e-9, c, n, exp) for c in (0.5, 1.0 - 2e-9, 1.0 - 1e-12) for n in (2, 3, 50)]
    )


def test_tight_market_at_huge_n():
    """Beyond 2**31 buyers the kernel and the reference both find no
    equilibrium on the tight market (``r = 1 - alpha*p`` rounds too coarsely
    there), and they must agree on that."""
    specs = [tight_market(n) for n in (2**31, 2**53)]
    _assert_matches(specs)
    assert _kernel(specs) == [NoEquilibriumFound, NoEquilibriumFound]


# The mixing-gap scan, pair by pair.

SCAN_SIZES = [1, 2, 3, 10, 200, 10**6, 2**31, 2**53]
# An outcome mass: 0, or u * 10**-e, so down to 1e-300.
MASS = st.one_of(
    st.just(0.0), st.builds(lambda u, e: u * 10.0**-e, st.floats(0.0, 1.0), st.integers(0, 300))
)


def _gap(rho, c, pair, alpha):
    tail_L, tail_H, p_L, p_H, n = pair
    psi = interim_from_rejections(rho, 1.0 - tail_L - alpha * p_L, 1.0 - tail_H - alpha * p_H, n)
    return psi * p_H * (1.0 - c) - (1.0 - psi) * p_L * c


def _indifferent_cost(rho, pair, k):
    """A reservation value at which the pair's gap is exactly 0 at grid point
    ``k``, searched within 32 ulps of the indifferent posterior; ``None``
    when none of them is exact."""
    tail_L, tail_H, p_L, p_H, n = pair
    alpha = k / DEFAULT_MIXING_GRID
    psi = interim_from_rejections(rho, 1.0 - tail_L - alpha * p_L, 1.0 - tail_H - alpha * p_H, n)
    if not psi * p_H + (1.0 - psi) * p_L > 0.0:
        return None
    lo = hi = psi * p_H / (psi * p_H + (1.0 - psi) * p_L)
    for _ in range(32):
        for c in (lo, hi):
            if _gap(rho, c, pair, alpha) == 0.0:
                return float(c)
        lo, hi = np.nextafter(lo, 0.0), np.nextafter(hi, 1.0)
    return None


def _batch(rho, c, *pairs):
    """``rho``, ``c`` and per-pair arrays from pairs ``(tail_L, tail_H, p_L, p_H, n)``."""
    return (rho, c, *map(np.array, zip(*pairs)))


@st.composite
def scan_batches(draw):
    """``rho``, ``c`` and per-pair ``(tail_L, tail_H, p_L, p_H, n)`` arrays
    with revealing tops (``p_L = tail_L = 0``), zero-``p_H`` outcomes, masses
    down to 1e-300, ``c`` of 0, 1 and ``rho``, uninformative pairs, sizes up
    to 2**53, and sometimes a reservation value that makes one pair's gap
    exactly 0 at an interior grid point."""
    rho = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    pairs = []
    for _ in range(draw(st.integers(1, 6))):
        p_L, p_H = draw(MASS), draw(MASS)
        share = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
        tail_L, tail_H = draw(share) * (1.0 - p_L), draw(share) * (1.0 - p_H)
        n = draw(st.sampled_from(SCAN_SIZES))
        if draw(st.booleans()):  # uninformative: both terms alike
            tail_H, p_H = tail_L, p_L
        pairs.append((tail_L, tail_H, p_L, p_H, n))
    c = draw(st.one_of(st.just(0.0), st.just(1.0), st.just(rho), st.floats(0.0, 1.0)))
    if draw(st.booleans()):
        c = _indifferent_cost(rho, pairs[0], draw(st.integers(1, DEFAULT_MIXING_GRID - 1))) or c
    return _batch(rho, c, *pairs)


# Every first-pass spacing the scan can take: the powers of two up to the grid.
SPACINGS = [2**k for k in range(11)]


def _assert_same_hits(batch, spacing):
    got = _scan_hits(*batch, spacing)
    want = reference.full_scan_hits(*batch)
    assert [a.tolist() for a in got] == [a.tolist() for a in want]
    return want


# Each pinned batch lists other hits than the full scan, at spacing 32, when
# the discard bound loses, in turn, its margin, its 1 - psi limit and its
# underflow limit.
PINNED_BATCHES = [
    _batch(0.5, 1.0009775171065483e-15, (0.0, 0.0, 1.0, 1e-15, 2), (0.0, 0.0, 0.0, 0.0, 1)),
    _batch(
        0.9999999999999585, 0.8163601231800399,
        (0.325308095680109, 0.36510223091108873, 0.06843808577128761, 1.2565096061564724e-14, 200),
    ),
    _batch(
        0.31582937101109626, 0.07142857142857142,
        (0.4066351196001362, 0.45637778863886086, 9e-323, 2.5e-323, 10),
    ),
]
# The right-end acceptance mass at which a cell whose left end has r == 1
# exactly leaves the near-one guard.  Top-cutoff pairs (tail 0.0, or 1e-17,
# which 1 - tail also rounds to 1) have r == 1 at alpha = 0; their cutoff
# masses put the first cell's right end just below and just above it at
# spacing 256 (alpha = 1/4) and at spacing 32 (alpha = 1/32).
EXACT_END_CLEAR = 2 * 1e-7 * DEFAULT_MIXING_GRID
TOP_MASSES = [k * EXACT_END_CLEAR * (1.0 + e) for k in (4, 32) for e in (-1e-9, 1e-9)]
PINNED_BATCHES += [
    _batch(0.5, 0.3, *((tail, tail, 0.0, p, 2) for tail in (0.0, 1e-17) for p in TOP_MASSES)),
    _batch(0.5, 0.3, *((tail, tail, p, 0.5, 10) for tail in (0.0, 1e-17) for p in TOP_MASSES)),
]


def _pinned(test):
    for batch in PINNED_BATCHES:
        test = example(batch, 32)(example(batch, 256)(test))
    return test


@given(scan_batches(), st.sampled_from(SPACINGS))
@_pinned
@settings(max_examples=400, deadline=None)
def test_scan_hits_match_the_full_scan(batch, spacing):
    _assert_same_hits(batch, spacing)


# End values of a cell (numerator, denominator, gap, 1 - r_H, 1 - r_L) that
# the bound alone discards, and edits of them that each guard must keep.
ROOT_FREE_LO = (1.0, 1.0, 0.3, 0.5, 0.5)
ROOT_FREE_HI = (0.9, 0.9, 0.27, 0.6, 0.6)


@pytest.mark.parametrize(
    "p_L, lo, hi, discarded",
    [
        (0.2, {}, {}, True),
        (0.2, {3: 0.0}, {3: 0.0}, True),  # r_H == 1 across the cell: G_H == n
        (0.2, {3: 5e-8}, {}, False),  # r_H within 1e-7 of 1
        (0.2, {4: 0.0}, {4: 1e-9}, False),  # r_L leaves 1 inside the cell
        (0.2, {1: 1e-9}, {1: 5e-10}, False),  # 1 - psi below 1e-8
        (1e-295, {}, {}, False),  # (1 - psi) p_L c near underflow
        (0.0, {}, {}, True),  # ... but exactly 0
        (0.2, {3: 0.0}, {3: EXACT_END_CLEAR}, True),  # r_H == 1 only at the left end
        (0.2, {3: 0.0}, {3: np.nextafter(EXACT_END_CLEAR, 0.0)}, False),  # ... and not cleared
        (0.2, {4: 0.0}, {4: EXACT_END_CLEAR}, True),  # r_L == 1 only at the left end
        (0.2, {4: 0.0}, {4: np.nextafter(EXACT_END_CLEAR, 0.0)}, False),  # ... and not cleared
    ],
)
def test_root_free_guards(p_L, lo, hi, discarded):
    edit = lambda base, change: tuple(change.get(i, v) for i, v in enumerate(base))
    got = _root_free(0.5, p_L, 0.8, edit(ROOT_FREE_LO, lo), edit(ROOT_FREE_HI, hi))
    assert bool(got) is discarded


def test_scan_hits_at_exact_grid_zeros():
    """Seeded pairs whose gap is exactly 0 at an interior grid point, each
    with a reservation value of its own, at every spacing."""
    rng = np.random.default_rng(9)
    zeros = 0
    for _ in range(60):
        rho = float(rng.uniform(0.05, 0.95))
        pair = (*rng.uniform(0.0, 0.4, 2), *rng.uniform(0.05, 0.5, 2), int(rng.choice([2, 3, 10, 200])))
        k = int(rng.integers(1, DEFAULT_MIXING_GRID))
        c = _indifferent_cost(rho, pair, k)
        if c is None:
            continue
        for spacing in SPACINGS:
            _, cell, change, g_lo = _assert_same_hits(_batch(rho, c, pair), spacing)
        zeros += bool(((cell == k) & ~change & (g_lo == 0.0)).any())
    assert zeros >= 10


def test_scan_hits_where_every_cell_is_a_zero():
    """At one buyer and on an uninformative outcome with ``rho == c == 0.5``
    the gap is exactly 0 at every grid point: every interior cell is a hit,
    at every spacing."""
    for spacing in SPACINGS:
        demo = _assert_same_hits(_batch(0.5, 0.2, (0.2, 0.8, 0.8, 0.2, 1)), spacing)
        flat = _assert_same_hits(_batch(0.5, 0.5, (0.25, 0.25, 0.5, 0.5, 7)), spacing)
    for pair, cell, change, g_lo in (demo, flat):
        assert cell.tolist() == list(range(1, DEFAULT_MIXING_GRID)) and not change.any()


def test_scan_spacing_grows_with_the_batch_and_is_capped():
    """A lone binary market is scanned in full; the first pass widens as
    pairs are added, and stops widening at the whole grid."""
    spacings = [_scan_spacing(pairs) for pairs in range(1, 10**4)]
    assert spacings[:3] == [1, 1, 1]
    assert all(a <= b for a, b in zip(spacings, spacings[1:]))
    assert set(spacings) == set(SPACINGS)


def _size_sweep_batch(seed: int, m: int) -> tuple:
    """The (market, cutoff) pairs of a seeded market's n = 1..200 sweep."""
    rho, c, exp = _seeded_market(seed, m)
    p_L, p_H = exp.p_L_array(), exp.p_H_array()
    tails = lambda p: [p[j + 1 :].sum() for j in range(m)]
    sizes = np.arange(1, 201)
    return (
        rho, c, np.tile(tails(p_L), sizes.size), np.tile(tails(p_H), sizes.size),
        np.tile(p_L, sizes.size), np.tile(p_H, sizes.size), np.repeat(sizes, m),
    )


@pytest.mark.parametrize("m", sorted(SWEEP_SEEDS))
def test_scan_hits_on_a_whole_size_sweep(m):
    """The pairs of a seeded market's n = 1..200 sweep (400 or more), at the
    spacing the kernel picks for them: the rule's wide end on real markets."""
    batch = _size_sweep_batch(SWEEP_SEEDS[m], m)
    assert _scan_spacing(m * 200) >= 128
    _assert_same_hits(batch, _scan_spacing(m * 200))


def test_a_root_free_size_sweep_is_barely_refined(monkeypatch):
    """A seeded five-outcome market without a mixing root at any of
    n = 1..200.  Each top cutoff's first cell has r == 1 exactly at its left
    end; its right end clears the near-one guard, so the cell is discarded
    instead of being halved down to one grid cell (nine ``_mixing_points``
    calls in all).  The scan makes at most two."""
    calls = []
    real_points = equilibrium._mixing_points
    monkeypatch.setattr(equilibrium, "_mixing_points", lambda *args: calls.append(1) or real_points(*args))
    batch = _size_sweep_batch(1, 5)
    assert _assert_same_hits(batch, _scan_spacing(5 * 200))[0].size == 0
    assert len(calls) <= 2
