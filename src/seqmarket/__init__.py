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

# The garbling design and the Monte Carlo oracle (with numpy.random) load on
# first use, so importing the package or the CLI does not pay for them.
_LAZY = {
    "GarblingReport": "design",
    "MonotoneBinaryGarbling": "design",
    "garbling_from_param": "design",
    "ic_intervals": "design",
    "is_ic": "design",
    "max_irrelevant_param": "design",
    "optimal_garbling": "design",
    "SimConfig": "montecarlo",
    "SimEstimate": "montecarlo",
    "simulate": "montecarlo",
}

__all__ = sorted({name for name in dir() if not name.startswith("_")} | set(_LAZY) | set(_LAZY.values()))
__version__ = "0.1.0"


def __getattr__(name: str):
    # Not cached: a name patched in its module (a tracer, a test) reads
    # through here, and nothing stale stays behind.  An unknown name, or
    # a submodule not yet imported, raises AttributeError, so
    # ``from seqmarket import design`` imports the submodule.
    if name in _LAZY:
        from importlib import import_module

        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
