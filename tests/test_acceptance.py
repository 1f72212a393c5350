"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import random_experiment, random_market
from seqmarket.design import grid_diagnostics, max_irrelevant_param, optimal_garbling
from seqmarket.equilibrium import (
    MarketSpec,
    Strategy,
    benchmarks,
    enumerate_equilibria,
    interim_belief,
    is_optimal_against,
    select_equilibrium,
)
from seqmarket.experiment import (
    LocalSpreadParams,
    OddsRatio,
    binary_experiment_from_labels,
    posterior,
)
from seqmarket.montecarlo import SimConfig, simulate
from seqmarket.scenarios import demo_market, revealing_market, tight_market
from seqmarket.statics import (
    LimitClass,
    OverrideClass,
    PredictedSign,
    binary_thresholds,
    single_buyer_blackwell_check,
    spread_surplus_delta,
    sufficient_harm_check,
    surplus_vs_n,
    sweep_binary,
)


def report(number: int, name: str, failures: "list[str]") -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {number:02d} {name}: {status}")
    if failures:
        detail = "; ".join(failures[:12])
        if len(failures) > 12:
            detail += f"; ... ({len(failures)} total)"
        raise AssertionError(f"criterion {number} failed: {detail}")


def check(failures: "list[str]", ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def test_criterion_01_demo_market_reproduction():
    """Closed-form beliefs, posteriors, surpluses, and benchmarks of the
    two-buyer demo market, in under a second."""
    t0 = time.perf_counter()
    failures: list[str] = []
    spec = demo_market()
    chain = enumerate_equilibria(spec)
    check(failures, len(chain) == 2, f"expected two equilibria, got {len(chain)}")
    selective, pooled = chain[0], chain[-1]
    check(failures, abs(pooled.interim - 0.5) <= 1e-9, f"pooled interim {pooled.interim}")
    check(failures, abs(selective.interim - 0.4) <= 1e-9, f"selective interim {selective.interim}")

    low, high = spec.experiment.outcomes
    check(failures, abs(posterior(0.5, high) - 0.8) <= 1e-9, "posterior(0.5, high)")
    check(failures, abs(posterior(0.5, low) - 0.2) <= 1e-9, "posterior(0.5, low)")
    p_low = posterior(0.4, low)
    check(failures, abs(p_low - 1.0 / 7.0) <= 1e-9, f"posterior(0.4, low) {p_low}")
    check(failures, round(p_low, 2) == 0.14, "posterior(0.4, low) rounding")
    p_high = posterior(0.4, high)
    check(failures, abs(p_high - 8.0 / 11.0) <= 1e-9, f"posterior(0.4, high) {p_high}")
    check(failures, round(p_high, 1) == 0.7, "posterior(0.4, high) rounding")

    check(failures, abs(pooled.surplus - 0.3) <= 1e-9, f"pooled surplus {pooled.surplus}")
    check(failures, abs(selective.surplus - 0.348) <= 1e-9, f"selective surplus {selective.surplus}")
    check(failures, abs((1 - selective.r_H**2) - 0.96) <= 1e-9, "trade prob High")
    check(failures, abs((1 - selective.r_L**2) - 0.36) <= 1e-9, "trade prob Low")
    bench = benchmarks(spec)
    check(failures, abs(bench.no_info - 0.3) <= 1e-9, "no-information benchmark")
    check(failures, abs(bench.full_info - 0.4) <= 1e-9, "full-information benchmark")

    elapsed = time.perf_counter() - t0
    check(failures, elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s")
    report(1, "demo market reproduction", failures)


def test_criterion_02_tight_market_reproduction():
    """Benchmark expectations for the tight reference market (reservation
    value 0.6), solved in closed form for 1..50 buyers.

    Two of the expectations encoded below disagree with the exact solution
    of the stated market: surplus reaches zero from five buyers (not three),
    and the large-market conditional trade probabilities here correspond to
    a variant experiment whose top signal has likelihood ratio 3 rather than
    the stated 4.  They are kept verbatim rather than adjusted, so this
    check fails and documents the discrepancy; the solved values are locked
    in test_statics.py and verified by simulation in criterion 8.
    """
    t0 = time.perf_counter()
    failures: list[str] = []
    last = None
    for n in range(1, 51):
        chain = enumerate_equilibria(tight_market(n))
        check(failures, len(chain) == 1, f"n={n}: {len(chain)} equilibria")
        eq = chain[0]
        check(failures, eq.strategy.accept[0] == 0.0, f"n={n}: low signal accepted")
        if n >= 3:
            check(
                failures,
                abs(eq.surplus) <= 1e-9,
                f"n={n}: surplus {eq.surplus:.6f} not 0 within 1e-9",
            )
        if n == 50:
            last = eq
    assert last is not None
    p_trade_h = 1.0 - last.r_H**50
    p_trade_l = 1.0 - last.r_L**50
    p_trade = 0.5 * p_trade_h + 0.5 * p_trade_l
    p_h_trade = 0.5 * p_trade_h / p_trade
    p_h_no = 0.5 * last.r_H**50 / (1.0 - p_trade)
    check(failures, abs(p_trade_h - 0.95) <= 0.01, f"P(trade|H) {p_trade_h:.4f} vs 0.95+-0.01")
    check(failures, abs(p_trade_l - 0.63) <= 0.01, f"P(trade|L) {p_trade_l:.4f} vs 0.63+-0.01")
    check(failures, abs(p_h_trade - 0.60) <= 0.005, f"P(H|trade) {p_h_trade:.4f} vs 0.60+-0.005")
    check(failures, abs(p_h_no - 0.11) <= 0.01, f"P(H|no trade) {p_h_no:.4f} vs 0.11+-0.01")
    elapsed = time.perf_counter() - t0
    check(failures, elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s")
    report(2, "tight market reproduction", failures)


def test_criterion_03_revealing_market_closed_form():
    """Most-selective surplus of the revealing market equals
    0.4 * (1 - 0.25**n) exactly; least-selective stays at 0.3."""
    failures: list[str] = []
    for n in range(1, 51):
        chain = enumerate_equilibria(revealing_market(n))
        most, least = chain[0], chain[-1]
        target = 0.4 * (1.0 - 0.25**n)
        check(
            failures,
            abs(most.surplus - target) <= 1e-12,
            f"n={n}: most-selective surplus {most.surplus} vs {target}",
        )
        check(failures, abs(least.surplus - 0.3) <= 1e-12, f"n={n}: least-selective surplus")
    report(3, "revealing market closed form", failures)


def test_criterion_04_limit_classification():
    """Fifty seeded binary/ternary experiments: the limit class follows the
    top-outcome test, the surplus at n=200 is within 0.01 of the predicted
    limit, and the tail from the reported cutover is monotone."""
    t0 = time.perf_counter()
    failures: list[str] = []
    rng = np.random.default_rng(90125)
    for i in range(50):
        m = int(rng.choice((2, 3)))
        revealing = bool(rng.random() < 0.5)
        exp = random_experiment(rng, m, fully_revealing_top=revealing)
        spec = MarketSpec(float(rng.uniform(0.15, 0.85)), float(rng.uniform(0.1, 0.9)), 1, exp)
        res = surplus_vs_n(spec, 200)
        top = exp.outcomes[-1]
        expect_full = top.p_L == 0.0 and top.p_H > 0.0
        check(
            failures,
            (res.limit_class is LimitClass.FULL_INFO) == expect_full,
            f"case {i}: limit class mismatch",
        )
        gap = abs(res.records[-1].most_selective_surplus - res.predicted_limit)
        check(failures, gap <= 0.01, f"case {i}: |surplus(200) - limit| = {gap:.4f}")
        check(failures, res.eventual_monotone_from is not None, f"case {i}: no monotone tail")
        if res.eventual_monotone_from is not None:
            direction = 1.0 if res.limit_class is LimitClass.FULL_INFO else -1.0
            tail = [
                p.most_selective_surplus
                for p in res.records
                if p.n >= res.eventual_monotone_from
            ]
            check(
                failures,
                all(direction * (b - a) >= -1e-12 for a, b in zip(tail, tail[1:])),
                f"case {i}: tail not monotone",
            )
    elapsed = time.perf_counter() - t0
    check(failures, elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s")
    report(4, "market-size limit classification", failures)


def test_criterion_05_informativeness_sweeps():
    """Good-news sweeps weakly increase; bad-news sweeps are quasiconcave
    with a weakly decreasing tail past min(regime boundary, turning point);
    with reservation value above the prior, the decrease sets in from the
    stated odds condition."""
    failures: list[str] = []

    for selector in ("most", "least"):
        s = sweep_binary(demo_market(), "good", list(np.linspace(0.5, 1.0, 101)), selector).surpluses()
        check(
            failures,
            all(b >= a - 1e-9 for a, b in zip(s, s[1:])),
            f"good sweep not nondecreasing ({selector})",
        )

    spec = demo_market()
    th = binary_thresholds(spec)
    grid = list(np.linspace(0.5, 0.0, 201))
    for selector in ("most", "least"):
        curve = sweep_binary(spec, "bad", grid, selector)
        s = curve.surpluses()
        peak = max(range(len(s)), key=lambda i: s[i])
        rising = all(b >= a - 1e-9 for a, b in zip(s[: peak + 1], s[1 : peak + 1]))
        falling = all(b <= a + 1e-9 for a, b in zip(s[peak:], s[peak + 1 :]))
        check(failures, rising and falling, f"bad sweep not quasiconcave ({selector})")
        regime = th.s_L_dagger if selector == "most" else th.s_L_mute
        boundary = min(regime, th.s_L_as)
        tail = [
            p.surplus
            for p in curve.points
            if p.s_L < boundary - 1e-12 and p.equilibrium.strategy.accept[0] == 0.0
        ]
        check(
            failures,
            all(b <= a + 1e-9 for a, b in zip(tail, tail[1:])),
            f"bad sweep tail rises past the boundary ({selector})",
        )

    # Reservation value above the prior: decreasing from the onset of
    # odds(s_L)**(n-1) * odds(s_H) <= odds(c).  The display carries no prior
    # odds, so the family keeps the prior at or below one half where that
    # reduction is valid.
    rng = np.random.default_rng(2024)
    for _ in range(20):
        c = float(rng.uniform(0.2, 0.9))
        rho = float(rng.uniform(0.05, min(c, 0.5)))
        n = int(rng.integers(2, 7))
        s_h = float(rng.uniform(0.55, 0.95))
        vspec = MarketSpec(rho, c, n, binary_experiment_from_labels(0.3, s_h))
        vgrid = list(np.linspace(0.5, 0.0, 151))
        selector = "most" if rng.random() < 0.5 else "least"
        vs = sweep_binary(vspec, "bad", vgrid, selector).surpluses()
        oc = c / (1.0 - c)
        onset = next(
            (
                i
                for i, sl in enumerate(vgrid)
                if sl < 1e-15 or (sl / (1 - sl)) ** (n - 1) * (s_h / (1 - s_h)) <= oc
            ),
            len(vgrid),
        )
        tail = vs[onset:]
        check(
            failures,
            all(b <= a + 1e-9 for a, b in zip(tail, tail[1:])),
            f"rho<=c sweep rises past the stated onset (rho={rho:.3f}, c={c:.3f}, n={n})",
        )
    report(5, "informativeness sweeps", failures)


def test_criterion_06_spread_sign_predictions():
    """At least a hundred seeded local spreads: negative overrides never
    lower surplus, positive overrides with adverse selection binding never
    raise it, and the strategy-free harm condition always coincides with a
    nonpositive most-selective delta."""
    failures: list[str] = []
    rng = np.random.default_rng(31415)
    classified = 0
    for i in range(300):
        spec = random_market(rng)
        exp = spec.experiment
        j = int(rng.integers(0, exp.m))
        labels = (0.0,) + exp.labels + (1.0,)
        lo_gap = labels[j + 1] - labels[j]
        hi_gap = labels[j + 2] - labels[j + 1]
        if lo_gap < 1e-3 or hi_gap < 1e-3:
            continue
        hi = OddsRatio.from_prob(labels[j + 1] + float(rng.uniform(0.1, 0.9)) * hi_gap)
        params = LocalSpreadParams(
            j,
            OddsRatio.from_prob(labels[j] + float(rng.uniform(0.1, 0.9)) * lo_gap),
            hi,
        )
        selector = "most" if rng.random() < 0.5 else "least"
        res = spread_surplus_delta(spec, params, selector)
        if res.override is OverrideClass.NEGATIVE:
            classified += 1
            check(failures, res.delta >= -1e-9, f"case {i}: negative override delta {res.delta}")
        elif (
            res.override is OverrideClass.POSITIVE
            and res.predicted_sign is PredictedSign.NON_POSITIVE
        ):
            classified += 1
            check(failures, res.delta <= 1e-9, f"case {i}: positive override delta {res.delta}")
        if sufficient_harm_check(spec, j, hi):
            most_delta = spread_surplus_delta(spec, params, "most").delta
            check(failures, most_delta <= 1e-9, f"case {i}: harm condition delta {most_delta}")
    check(failures, classified >= 100, f"only {classified} classified cases")
    report(6, "local spread sign predictions", failures)


def test_criterion_07_equilibrium_chain_properties():
    """Every solved market in the suite: equilibria exist, are monotone,
    form a selectivity chain with interim at most the prior, and surplus is
    bracketed by the benchmarks and falls toward less selectivity."""
    failures: list[str] = []
    rng = np.random.default_rng(1217)
    specs = [demo_market(), tight_market(), tight_market(7), revealing_market(3)]
    specs += [random_market(rng) for _ in range(40)]
    for k, spec in enumerate(specs):
        chain = enumerate_equilibria(spec)
        bench = benchmarks(spec)
        check(failures, len(chain) >= 1, f"spec {k}: no equilibrium")
        for eq in chain:
            check(failures, eq.strategy.is_monotone(), f"spec {k}: non-monotone strategy")
            check(failures, eq.interim <= spec.rho + 1e-12, f"spec {k}: interim above prior")
            check(
                failures,
                abs(interim_belief(spec, eq.strategy) - eq.interim) <= 1e-10,
                f"spec {k}: stored interim inconsistent",
            )
            check(
                failures,
                is_optimal_against(spec, eq.strategy, eq.interim),
                f"spec {k}: strategy not a best response",
            )
            check(
                failures,
                bench.no_info - 1e-9 <= eq.surplus <= bench.full_info + 1e-9,
                f"spec {k}: surplus {eq.surplus} outside benchmarks",
            )
        for tighter, looser in zip(chain, chain[1:]):
            pointwise = all(
                a <= b + 1e-12
                for a, b in zip(tighter.strategy.accept, looser.strategy.accept)
            )
            check(failures, pointwise, f"spec {k}: chain order broken")
            check(
                failures,
                looser.surplus <= tighter.surplus + 1e-9,
                f"spec {k}: surplus rises toward less selectivity",
            )
    report(7, "equilibrium chain properties", failures)


def test_criterion_08_monte_carlo_oracle():
    """Simulation at a million trials matches every analytic quantity of the
    reference fixtures within three standard errors, each fixture well
    inside its time budget."""
    failures: list[str] = []
    fixtures = [
        ("demo most", demo_market(), Strategy((0.0, 1.0)), 0, 11),
        ("demo least", demo_market(), Strategy((1.0, 1.0)), 1, 12),
        ("tight n=2", tight_market(), None, 0, 13),
        ("tight n=50", tight_market(50), None, None, 14),
        ("revealing n=4 most", revealing_market(4), None, 2, 15),
        ("revealing n=4 least", revealing_market(4), Strategy((1.0, 1.0)), 0, 16),
    ]
    for name, spec, strategy, focal, seed in fixtures:
        if strategy is None:
            strategy = select_equilibrium(spec, "most").strategy
        t0 = time.perf_counter()
        est = simulate(spec, strategy, SimConfig(trials=10**6, seed=seed, focal_buyer=focal))
        elapsed = time.perf_counter() - t0
        check(failures, elapsed < 60.0, f"{name}: took {elapsed:.1f}s, budget 60s")
        from seqmarket.equilibrium import rejection_probs, total_surplus

        r_l, r_h = rejection_probs(spec, strategy)
        pairs = [
            ("trade_prob_H", est.trade_prob_H, 1.0 - r_h**spec.n, est.trade_prob_H_se),
            ("trade_prob_L", est.trade_prob_L, 1.0 - r_l**spec.n, est.trade_prob_L_se),
            ("surplus", est.surplus, total_surplus(spec, strategy), est.surplus_se),
        ]
        if focal is not None:
            pairs.append(
                ("interim", est.interim_estimate, interim_belief(spec, strategy), est.interim_se)
            )
        for label, got, want, se in pairs:
            band = max(3.0 * se, 1e-12)
            check(
                failures,
                abs(got - want) <= band,
                f"{name}: {label} {got:.5f} vs {want:.5f} (3se={band:.5f})",
            )
    report(8, "Monte Carlo oracle agreement", failures)


def test_criterion_09_garbling_optimizer():
    """Twenty seeded markets: the optimiser weakly dominates a 10^4-point IC
    grid, and whenever the reservation value is at least the prior it
    returns the least selective irrelevant garbling."""
    failures: list[str] = []
    rng = np.random.default_rng(5150)
    cor2 = 0
    for i in range(20):
        spec = random_market(rng, m_choices=(2, 3, 4, 5))
        rep = optimal_garbling(spec)
        diag = grid_diagnostics(spec, np.linspace(0.0, spec.experiment.m, 10_001))
        mask = diag["is_ic"]
        check(failures, bool(mask.any()), f"case {i}: empty IC grid")
        grid_best = float(diag["obeyed_surplus"][mask].max())
        check(
            failures,
            rep.obeyed_surplus >= grid_best - 1e-6,
            f"case {i}: optimiser {rep.obeyed_surplus:.6f} below grid best {grid_best:.6f}",
        )
        if spec.c >= spec.rho:
            cor2 += 1
            d_star = max_irrelevant_param(spec)
            check(
                failures,
                abs(rep.garbling.D - d_star) <= 1e-9,
                f"case {i}: D {rep.garbling.D} vs least selective irrelevant {d_star}",
            )
    check(failures, cor2 >= 5, f"only {cor2} reservation-above-prior cases drawn")
    report(9, "garbling optimizer dominance", failures)


def test_criterion_10_single_buyer_blackwell():
    """Twenty seeded ordered binary pairs: with one buyer, surplus under the
    more informative experiment is weakly higher across a 21x21 grid of
    priors and reservation values."""
    failures: list[str] = []
    rng = np.random.default_rng(60609)
    rho_grid = list(np.linspace(0.025, 0.975, 21))
    c_grid = list(np.linspace(0.025, 0.975, 21))
    for i in range(20):
        s_low = float(rng.uniform(0.05, 0.45))
        s_high = float(rng.uniform(0.55, 0.95))
        stronger_low = float(rng.uniform(0.0, s_low))
        stronger_high = float(rng.uniform(s_high, 1.0))
        better = binary_experiment_from_labels(stronger_low, stronger_high)
        base = binary_experiment_from_labels(s_low, s_high)
        check(
            failures,
            single_buyer_blackwell_check(better, base, rho_grid, c_grid),
            f"pair {i}: dominance fails",
        )
    report(10, "single-buyer informativeness dominance", failures)
