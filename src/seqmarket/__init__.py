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
    enumerate_chains,
    enumerate_equilibria,
    interim_belief,
    rejection_probs,
    select_equilibrium,
    single_buyer_surplus,
    solve_chains,
    total_surplus,
)
from .experiment import (
    FiniteExperiment,
    LocalSpreadParams,
    OddsRatio,
    Outcome,
    apply_local_spread,
    binary_experiment_from_labels,
    binary_masses_from_labels,
    build_experiment,
    is_garbling_of,
    posterior,
)
from .design import (
    GarblingReport,
    MonotoneBinaryGarbling,
    garbling_from_param,
    ic_intervals,
    is_ic,
    max_irrelevant_param,
    optimal_garbling,
)
from .montecarlo import SimConfig, SimEstimate, simulate
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
