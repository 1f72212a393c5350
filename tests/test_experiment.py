"""Experiment construction, Bayes updating, local spreads, and garbling checks."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_solver as reference
import seqmarket.experiment as experiment
from seqmarket.equilibrium import single_buyer_surplus
from seqmarket.errors import (
    ColumnSumMismatch,
    InfeasibleSpread,
    NegativeMass,
    NotBinary,
)
from seqmarket.experiment import (
    LocalSpreadParams,
    OddsRatio,
    _ratio_cmp_exact,
    apply_local_spread,
    binary_experiment_from_labels,
    binary_masses_from_labels,
    build_experiment,
    is_garbling_of,
    posterior,
)

DEMO_PAIRS = [(0.8, 0.2), (0.2, 0.8)]


def spread_mass_oracle(a, b, lr_low, lr_high):
    """Independent linear solve for the spread masses.

    Unknowns (pl_down, pl_up): conservation of the Low mass plus the High
    mass written through the two ratio constraints.
    """
    mat = np.array([[1.0, 1.0], [lr_low, lr_high]])
    pl_down, pl_up = np.linalg.solve(mat, np.array([a, b]))
    return (pl_down, lr_low * pl_down), (pl_up, lr_high * pl_up)


class TestBuildExperiment:
    def test_demo_labels(self):
        exp = build_experiment(DEMO_PAIRS)
        assert exp.labels == pytest.approx((0.2, 0.8), abs=1e-12)

    def test_single_uninformative_outcome(self):
        exp = build_experiment([(1.0, 1.0)])
        assert exp.m == 1
        assert exp.labels[0] == pytest.approx(0.5, abs=1e-12)

    def test_fully_revealing_top(self):
        exp = build_experiment([(1.0, 0.25), (0.0, 0.75)])
        assert exp.labels == pytest.approx((0.2, 1.0), abs=1e-12)
        assert math.isinf(exp.likelihood_ratio(1).as_float())

    def test_sorts_by_likelihood_ratio(self):
        exp = build_experiment([(0.2, 0.8), (0.8, 0.2)])
        assert exp.labels == pytest.approx((0.2, 0.8), abs=1e-12)

    def test_drops_zero_mass_pairs(self):
        exp = build_experiment([(0.8, 0.2), (0.0, 0.0), (0.2, 0.8)])
        assert exp.m == 2

    def test_negative_mass_rejected(self):
        with pytest.raises(NegativeMass):
            build_experiment([(0.9, -0.1), (0.1, 1.1)])

    def test_column_sum_mismatch_rejected(self):
        with pytest.raises(ColumnSumMismatch):
            build_experiment([(0.8, 0.2), (0.3, 0.8)])

    def test_renormalises_small_drift(self):
        drift = 5e-10
        exp = build_experiment([(0.8 + drift, 0.2), (0.2, 0.8)])
        assert math.fsum(o.p_L for o in exp.outcomes) == pytest.approx(1.0, abs=1e-15)

    def test_labels_from_half_interval_construction(self):
        exp = binary_experiment_from_labels(0.2, 0.8)
        flat = [mass for pair in exp.mass_pairs() for mass in pair]
        assert flat == pytest.approx([0.8, 0.2, 0.2, 0.8], abs=1e-12)


class TestPosterior:
    def test_high_signal_at_even_interim(self):
        exp = build_experiment(DEMO_PAIRS)
        assert posterior(0.5, exp.outcomes[1]) == pytest.approx(0.8, abs=1e-12)

    def test_uninformative_outcome_is_identity(self):
        outcome = build_experiment([(1.0, 1.0)]).outcomes[0]
        for psi in (0.1, 0.37, 0.9):
            assert posterior(psi, outcome) == pytest.approx(psi, abs=1e-12)

    def test_low_signal_at_adverse_interim(self):
        exp = build_experiment(DEMO_PAIRS)
        assert posterior(0.4, exp.outcomes[0]) == pytest.approx(1.0 / 7.0, abs=1e-12)

    def test_fully_revealing_gives_exact_one(self):
        exp = build_experiment([(1.0, 0.25), (0.0, 0.75)])
        assert posterior(1e-12, exp.outcomes[1]) == 1.0

    def test_degenerate_interim_absorbs(self):
        exp = build_experiment(DEMO_PAIRS)
        assert posterior(0.0, exp.outcomes[1]) == 0.0
        assert posterior(1.0, exp.outcomes[0]) == 1.0


class TestLocalSpread:
    def test_spread_high_outcome_of_demo(self):
        exp = build_experiment(DEMO_PAIRS)
        params = LocalSpreadParams(1, OddsRatio(1, 4), OddsRatio(9, 1))
        spread = apply_local_spread(exp, params)
        assert spread.m == 3
        down, up = spread.outcomes[1], spread.outcomes[2]
        (ol, oh), (ul, uh) = spread_mass_oracle(0.2, 0.8, 0.25, 9.0)
        assert (down.p_L, down.p_H) == pytest.approx((ol, oh), abs=1e-12)
        assert (up.p_L, up.p_H) == pytest.approx((ul, uh), abs=1e-12)
        assert (down.p_L, down.p_H) == pytest.approx((4 / 35, 1 / 35), abs=1e-12)
        assert (up.p_L, up.p_H) == pytest.approx((3 / 35, 27 / 35), abs=1e-12)
        assert down.p_H / down.p_L == pytest.approx(0.25, abs=1e-12)
        # the untouched bottom outcome keeps its masses
        assert (spread.outcomes[0].p_L, spread.outcomes[0].p_H) == pytest.approx((0.8, 0.2))

    def test_spread_uniform_single_outcome(self):
        exp = build_experiment([(1.0, 1.0)])
        spread = apply_local_spread(exp, LocalSpreadParams(0, OddsRatio(1, 2), OddsRatio(2, 1)))
        down, up = spread.outcomes
        assert (down.p_L, down.p_H) == pytest.approx((2 / 3, 1 / 3), abs=1e-12)
        assert (up.p_L, up.p_H) == pytest.approx((1 / 3, 2 / 3), abs=1e-12)

    def test_spread_low_outcome_of_demo(self):
        exp = build_experiment(DEMO_PAIRS)
        spread = apply_local_spread(exp, LocalSpreadParams(0, OddsRatio(1, 9), OddsRatio(4, 1)))
        down, up = spread.outcomes[0], spread.outcomes[1]
        (ol, oh), (ul, uh) = spread_mass_oracle(0.8, 0.2, 1 / 9, 4.0)
        assert (down.p_L, down.p_H) == pytest.approx((ol, oh), abs=1e-12)
        assert (up.p_L, up.p_H) == pytest.approx((ul, uh), abs=1e-12)
        assert (down.p_L, down.p_H) == pytest.approx((27 / 35, 3 / 35), abs=1e-12)
        assert (up.p_L, up.p_H) == pytest.approx((1 / 35, 4 / 35), abs=1e-12)

    def test_ratio_ordering_enforced(self):
        exp = build_experiment(DEMO_PAIRS)
        with pytest.raises(InfeasibleSpread):
            apply_local_spread(exp, LocalSpreadParams(1, OddsRatio(5, 1), OddsRatio(9, 1)))
        with pytest.raises(InfeasibleSpread):
            apply_local_spread(exp, LocalSpreadParams(0, OddsRatio(1, 9), OddsRatio(5, 1)))
        with pytest.raises(InfeasibleSpread):
            apply_local_spread(exp, LocalSpreadParams(1, OddsRatio(4, 1), OddsRatio(9, 1)))

    def test_spread_to_fully_revealing_top(self):
        exp = build_experiment(DEMO_PAIRS)
        spread = apply_local_spread(exp, LocalSpreadParams(1, OddsRatio(1, 4), OddsRatio(1, 0)))
        assert spread.outcomes[-1].p_L == 0.0
        assert spread.outcomes[-1].label == 1.0

    def test_original_is_garbling_of_spread(self):
        exp = build_experiment(DEMO_PAIRS)
        spread = apply_local_spread(exp, LocalSpreadParams(1, OddsRatio(1, 4), OddsRatio(9, 1)))
        assert is_garbling_of(exp, spread)

    def test_merge_recovers_original_after_duplicate_ratio_spread(self):
        # Spreading onto a ratio already present keeps the outcomes distinct.
        exp = build_experiment([(0.5, 0.2), (0.3, 0.3), (0.2, 0.5)])
        lr_low = exp.likelihood_ratio(0)
        spread = apply_local_spread(exp, LocalSpreadParams(1, lr_low, OddsRatio(2, 1)))
        assert spread.m == 4


# True garblings (coarse, fine) with skewed masses, as ``build_experiment``
# mass pairs.  A linear-program check, whose solver met the mass equations
# only to about 1e-7, rejected both.
SKEWED_GARBLINGS = [
    (
        [
            (0.06609548614721186, 0.001120180713014349),
            (0.19744048161109942, 0.0330895530262452),
            (0.2884565897580681, 0.32456947172861816),
            (0.4480074424836206, 0.6412207945321223),
        ],
        [(0.3042029362113147, 0.00412469214117951), (0.6957970637886852, 0.9958753078588205)],
    ),
    (
        [
            (0.003937741368776337, 0.0035819723420334104),
            (0.6252353998013963, 0.6253461186047288),
            (0.3708268588298274, 0.37107190905323795),
        ],
        [(0.001578066473271711, 0.0009182568853734871), (0.9984219335267284, 0.9990817431146266)],
    ),
]


class TestGarblingOf:
    def test_merge_of_two_lowest_outcomes(self):
        fine = build_experiment([(0.5, 0.2), (0.3, 0.3), (0.2, 0.5)])
        coarse = build_experiment([(0.8, 0.5), (0.2, 0.5)])
        assert is_garbling_of(coarse, fine)

    def test_identity(self):
        exp = build_experiment(DEMO_PAIRS)
        assert is_garbling_of(exp, exp)

    def test_fully_revealing_is_not_a_garbling_of_noisy(self):
        revealing = build_experiment([(1.0, 0.0), (0.0, 1.0)])
        assert not is_garbling_of(revealing, build_experiment(DEMO_PAIRS))

    def test_reflexive(self):
        for exp in (
            build_experiment(DEMO_PAIRS),
            binary_experiment_from_labels(0.2, 0.8),
            build_experiment([(1.0, 0.0), (0.0, 1.0)]),
            build_experiment([(1.0, 0.5), (0.0, 0.5)]),
        ):
            assert is_garbling_of(exp, exp)

    def test_stronger_bad_news_dominates(self):
        better = binary_experiment_from_labels(0.1, 0.8)
        base = binary_experiment_from_labels(0.2, 0.8)
        assert is_garbling_of(base, better)

    def test_lower_top_label_fails(self):
        better = binary_experiment_from_labels(0.1, 0.7)
        base = binary_experiment_from_labels(0.2, 0.8)
        assert not is_garbling_of(base, better)

    def test_nearly_revealing_is_not_revealing(self):
        # The top likelihood ratio of the fine experiment overflows to +inf,
        # so only the revealing masses tell the two apart.
        revealing = build_experiment([(1.0, 0.5), (0.0, 0.5)])
        nearly = build_experiment([(1.0, 0.5), (1e-310, 0.5)])
        assert not is_garbling_of(revealing, nearly)
        assert is_garbling_of(nearly, revealing)

    @pytest.mark.parametrize("coarse, fine", SKEWED_GARBLINGS)
    def test_skewed_true_garbling(self, coarse, fine):
        assert is_garbling_of(build_experiment(coarse), build_experiment(fine))


# Hypothesis strategies: bounded random experiments and feasible spreads.


@st.composite
def experiments(draw, max_m: int = 4):
    m = draw(st.integers(min_value=1, max_value=max_m))
    raw_l = draw(
        st.lists(st.floats(0.05, 1.0, allow_nan=False), min_size=m, max_size=m)
    )
    raw_h = draw(
        st.lists(st.floats(0.05, 1.0, allow_nan=False), min_size=m, max_size=m)
    )
    p_l = [x / sum(raw_l) for x in raw_l]
    p_h = [x / sum(raw_h) for x in raw_h]
    return build_experiment(list(zip(p_l, p_h)))


@st.composite
def experiments_with_spread(draw):
    exp = draw(experiments(max_m=4))
    j = draw(st.integers(min_value=0, max_value=exp.m - 1))
    labels = (0.0,) + exp.labels + (1.0,)
    lo_gap = labels[j + 1] - labels[j]
    hi_gap = labels[j + 2] - labels[j + 1]
    if lo_gap < 1e-6 or hi_gap < 1e-6:
        return None
    t_lo = draw(st.floats(0.05, 0.95))
    t_hi = draw(st.floats(0.05, 0.95))
    label_low = labels[j] + t_lo * lo_gap
    label_high = labels[j + 1] + t_hi * hi_gap
    params = LocalSpreadParams(
        j, OddsRatio.from_prob(label_low), OddsRatio.from_prob(label_high)
    )
    return exp, params


@given(experiments(), st.floats(0.01, 0.99))
@settings(max_examples=60)
def test_posterior_martingale(exp, psi):
    mixture = [psi * o.p_H + (1.0 - psi) * o.p_L for o in exp.outcomes]
    total = math.fsum(
        q * posterior(psi, o) for q, o in zip(mixture, exp.outcomes)
    )
    assert total == pytest.approx(psi, abs=1e-12)


@given(experiments())
@settings(max_examples=60)
def test_labels_nondecreasing(exp):
    assert all(a <= b + 1e-15 for a, b in zip(exp.labels, exp.labels[1:]))


@given(experiments_with_spread())
@settings(max_examples=40, deadline=None)
def test_spread_conserves_mass_and_refines(case):
    if case is None:
        return
    exp, params = case
    spread = apply_local_spread(exp, params)
    assert math.fsum(o.p_L for o in spread.outcomes) == pytest.approx(1.0, abs=1e-12)
    assert math.fsum(o.p_H for o in spread.outcomes) == pytest.approx(1.0, abs=1e-12)
    assert all(a <= b + 1e-12 for a, b in zip(spread.labels, spread.labels[1:]))
    assert is_garbling_of(exp, spread)


def _random_masses(rng, m, min_mass):
    """A ``(2, m)`` array of ``(p_L, p_H)`` rows, log-uniform down to
    ``min_mass`` before normalising; a fifth of them have a revealing top
    outcome (``p_L == 0``), and half of those a revealing bottom one too."""
    p = 10.0 ** rng.uniform(math.log10(min_mass), 0.0, size=(2, m))
    if m > 1 and rng.random() < 0.2:
        p[0, -1] = 0.0
        if rng.random() < 0.5:
            p[1, 0] = 0.0
    return p / p.sum(axis=1, keepdims=True)


def _garble(rng, p, r):
    """``p @ T`` for a random ``m x r`` garbling ``T``: deterministic (one 1
    per row) or row-stochastic, half of the time each."""
    m = p.shape[1]
    if rng.random() < 0.5:
        t = np.zeros((m, r))
        t[np.arange(m), rng.integers(0, r, size=m)] = 1.0
    else:
        t = rng.dirichlet(np.full(r, 0.5), size=m)
    return p @ t


def _experiment(p):
    return build_experiment(list(zip(p[0], p[1])))


def _largest_violation(coarse, fine):
    """The largest excess of ``V_coarse`` over ``V_fine``, with
    ``V(lam) = sum_i max(p_H,i - lam * p_L,i, 0)``, and the ``lam`` where it
    lies.  ``V`` is read at 0, at every finite likelihood ratio of either
    experiment and at twice the largest, beyond which each ``V`` is its
    experiment's revealing mass."""
    masses = [(e.p_L_array(), e.p_H_array()) for e in (coarse, fine)]
    ratios = [h / l for p_l, p_h in masses for l, h in zip(p_l, p_h) if l > 0.0]
    v = lambda lam, p_l, p_h: np.maximum(p_h - lam * p_l, 0.0).sum()
    return max((v(lam, *masses[0]) - v(lam, *masses[1]), lam) for lam in [0.0, *ratios, 2.0 * max(ratios)])


WITNESS_GRID = np.linspace(0.025, 0.975, 41)


def _surpluses(rho, c, exp):
    """One buyer's surplus at each ``(rho[k], c[k])``: where the posterior
    beats ``c``, the gain ``rho * p_H * (1 - c) - (1 - rho) * p_L * c``."""
    rho, c = rho[:, None], c[:, None]
    gains = rho * exp.p_H_array() * (1.0 - c) - (1.0 - rho) * exp.p_L_array() * c
    return np.maximum(gains, 0.0).sum(axis=1)


def test_garbling_verdicts_against_witnesses():
    """Every ``fine @ T`` is a garbling of ``fine``.  On random pairs, every
    ``True`` has no frontier violation above the 1e-9 slack, counted at the
    kinks of both experiments, and every ``False`` is backed by a witness: a
    prior and reservation value at which one buyer's surplus under
    ``coarse`` exceeds that under ``fine`` by more than 1e-12, which no
    garbling allows.

    The witness is sought on the 41x41 (rho, c) grid of ``WITNESS_GRID`` and
    at the reservation odds of the largest frontier violation, reached with
    ``c = 1 - rho``.  The grid's reservation odds lie about 10% apart near 1,
    so a narrow violation there can fall between its points (on independent
    pairs, about one ``False`` in a thousand).  Pairs whose largest
    violation lies within 1e-6 of the test's 1e-9 slack are skipped."""
    rng = np.random.default_rng(1953)
    for _ in range(1000):
        m, r = int(rng.integers(1, 7)), int(rng.integers(1, 6))
        p = _random_masses(rng, m, 1e-12)
        assert is_garbling_of(_experiment(_garble(rng, p, r)), _experiment(p))
    rho, c = np.meshgrid(WITNESS_GRID, WITNESS_GRID, indexing="ij")
    rho, c = rho.ravel(), c.ravel()
    witnessed = 0
    for _ in range(1000):
        m, r = int(rng.integers(1, 7)), int(rng.integers(1, 6))
        p, q = _random_masses(rng, m, 1e-3), _random_masses(rng, r, 1e-3)
        if rng.random() < 0.5:  # a garbling of fine, perturbed
            eps = 10.0 ** rng.uniform(-6.0, 0.0)
            q = (1.0 - eps) * _garble(rng, p, r) + eps * q
        fine, coarse = _experiment(p), _experiment(q)
        violation, lam = _largest_violation(coarse, fine)
        if abs(violation - 1e-9) <= 1e-6:
            continue
        if is_garbling_of(coarse, fine):
            assert violation < 1e-9, (coarse, fine, violation, lam)
            continue
        at_lam = 1.0 / (1.0 + math.sqrt(lam))
        x, y = np.r_[rho, at_lam], np.r_[c, 1.0 - at_lam]
        k = np.argmax(_surpluses(x, y, coarse) - _surpluses(x, y, fine))
        gain = single_buyer_surplus(x[k], y[k], coarse) - single_buyer_surplus(x[k], y[k], fine)
        assert gain > 1e-12, (coarse, fine, violation, lam)
        witnessed += 1
    assert witnessed >= 250


# Masses at and near zero (subnormals included), ordinary ones and one.
_MASSES = st.one_of(
    st.just(0.0), st.just(5e-324), st.floats(0.0, 1e-300), st.floats(0.0, 1.0), st.just(1.0)
)


@st.composite
def pair_couples(draw):
    """Two (p_L, p_H) pairs: free, with equal ratios (k*a, k*b), or an ulp apart."""
    a = (draw(_MASSES), draw(_MASSES))
    kind = draw(st.sampled_from(["free", "scaled", "ulp"]))
    if kind == "free":
        return a, (draw(_MASSES), draw(_MASSES))
    if kind == "scaled":
        k = draw(st.floats(1e-3, 1e3))
        return a, (k * a[0], k * a[1])
    side = draw(st.integers(0, 1))
    b = list(a)
    b[side] = float(np.nextafter(a[side], draw(st.sampled_from([0.0, 2.0]))))
    return a, tuple(b)


@given(pair_couples())
@settings(max_examples=150, deadline=None)
def test_ratio_order_matches_fractions(couple):
    a, b = couple
    lhs, rhs = Fraction(a[1]) * Fraction(b[0]), Fraction(b[1]) * Fraction(a[0])
    assert _ratio_cmp_exact(a, b) == (lhs > rhs) - (lhs < rhs)
    assert _ratio_cmp_exact(b, a) == (rhs > lhs) - (rhs < lhs)


class TestBinaryMassesFromLabels:
    """The array label map against the scalar one on ``build_experiment``."""

    LOWS = (0.0, -0.0, 5e-324, 1e-300, 0.1, 0.3, float(np.nextafter(0.5, 0.0)), 0.5)
    HIGHS = (0.5, float(np.nextafter(0.5, 1.0)), 0.7, 1.0 - 1e-16, 1.0)

    @staticmethod
    def _assert_rows_match(s_lows, s_highs):
        p_L, p_H, kept = binary_masses_from_labels(s_lows, s_highs)
        for row, (s_low, s_high) in enumerate(zip(s_lows, s_highs)):
            exp = reference.binary_experiment_from_labels(s_low, s_high)
            rows = [(a, b) for a, b, k in zip(p_L[row].tolist(), p_H[row].tolist(), kept[row].tolist()) if k]
            assert rows == list(exp.mass_pairs()), (s_low, s_high)
            labels = [b / (b + a) for a, b in rows]
            assert labels == list(exp.labels), (s_low, s_high)
            signs = lambda xs: [math.copysign(1.0, x) for x in xs]
            assert signs(itertools.chain(*rows, labels)) == signs(itertools.chain(*exp.mass_pairs(), exp.labels))
            one = binary_experiment_from_labels(s_low, s_high)
            assert one == exp and one.labels == exp.labels

    def test_edge_labels_match_the_scalar_builder(self):
        pairs = list(itertools.product(self.LOWS, self.HIGHS))
        self._assert_rows_match([a for a, _ in pairs], [b for _, b in pairs])

    @given(
        st.lists(
            st.tuples(
                st.one_of(st.sampled_from(LOWS), st.floats(0.0, 0.5)),
                st.one_of(st.sampled_from(HIGHS), st.floats(0.5, 1.0)),
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_label_arrays_match_the_scalar_builder(self, pairs):
        self._assert_rows_match([a for a, _ in pairs], [b for _, b in pairs])

    @staticmethod
    def _first_failure(s_lows, s_highs):
        """The (class, message) that the array map raises, and the one the
        scalar builder raises at the first pair it refuses."""
        outcomes = []
        try:
            binary_masses_from_labels(s_lows, s_highs)
        except Exception as exc:
            outcomes.append((type(exc), str(exc)))
        for s_low, s_high in zip(s_lows, s_highs):
            try:
                reference.binary_experiment_from_labels(s_low, s_high)
            except Exception as exc:
                outcomes.append((type(exc), str(exc)))
                break
        return outcomes

    @pytest.mark.parametrize(
        "s_lows, s_highs",
        [
            ([0.2, 0.7], [0.8, 0.8]),
            ([0.2, 0.3], [0.8, 0.4]),
            ([float("nan")], [0.8]),
            ([-1e-300, 0.2], [0.8, 1.5]),
            ([0.2, 0.1], [float("inf"), 0.8]),
        ],
    )
    def test_the_first_illegal_pair_raises_as_the_scalar_builder(self, s_lows, s_highs):
        got, expected = self._first_failure(s_lows, s_highs)
        assert got == expected and got[0] is NotBinary

    def test_a_column_sum_failure_raises_as_the_scalar_builder(self, monkeypatch):
        """With no column-sum tolerance, the first pair whose two-term sums
        miss 1 raises ``build_experiment``'s mismatch, unless an illegal
        pair comes first."""
        monkeypatch.setattr(experiment, "COLUMN_SUM_TOL", 0.0)
        labels = np.random.default_rng(3).uniform(0.0, 0.5, 40).tolist()
        got, expected = self._first_failure([*labels, 0.7], [0.8] * 41)
        assert got == expected and got[0] is ColumnSumMismatch
        got, expected = self._first_failure([0.7, *labels], [0.8] * 41)
        assert got == expected and got[0] is NotBinary
