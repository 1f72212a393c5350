"""Solver and simulation toolkit for decentralised common-value trading with
sequential buyer visits: equilibrium enumeration, surplus benchmarks,
comparative statics in market size and buyer informativeness, regulator
garbling design, and a Monte Carlo oracle."""

from .equilibrium import (
    Benchmarks,
    Equilibrium,
    MarketSpec,
    Strategy,
    benchmarks,
    best_response,
    enumerate_chains,
    enumerate_equilibria,
    interim_belief,
    least_selective,
    most_selective,
    rejection_probs,
    select_equilibrium,
    single_buyer_surplus,
    total_surplus,
)
from .experiment import (
    FiniteExperiment,
    LocalSpreadParams,
    OddsRatio,
    Outcome,
    apply_local_spread,
    binary_experiment_from_labels,
    build_experiment,
    is_blackwell_geq_binary,
    is_garbling_of,
    merge_equal_ratios,
    posterior,
)
from .design import (
    GarblingReport,
    MonotoneBinaryGarbling,
    garbling_from_param,
    ic_intervals,
    irrelevance_margin,
    is_ic,
    is_irrelevant,
    max_irrelevant_param,
    obeyed_surplus,
    optimal_garbling,
)
from .montecarlo import SimConfig, SimEstimate, estimate_interim, simulate
from .statics import (
    BinaryThresholds,
    LimitClass,
    NSweepResult,
    OverrideClass,
    PredictedSign,
    SpreadDelta,
    binary_thresholds,
    classify_override,
    irrelevance_check,
    single_buyer_blackwell_check,
    spread_surplus_delta,
    sufficient_harm_check,
    surplus_vs_n,
    sweep_binary,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
