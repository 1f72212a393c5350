"""The package's public names: the same list and objects whether a name is
bound at import or loaded from its module on first use."""

from __future__ import annotations

import sys

import pytest

import seqmarket
from conftest import loaded_modules

ALL = [
    "Benchmarks", "BinaryThresholds", "Equilibrium", "FiniteExperiment", "GarblingReport", "LimitClass",
    "LocalSpreadParams", "MarketSpec", "MonotoneBinaryGarbling", "NSweepResult", "OddsRatio", "Outcome",
    "OverrideClass", "PredictedSign", "SimConfig", "SimEstimate", "SpreadDelta", "Strategy", "apply_local_spread",
    "benchmarks", "binary_experiment_from_labels", "binary_masses_from_labels", "binary_thresholds",
    "build_experiment", "classify_override", "design", "enumerate_chains", "enumerate_equilibria", "equilibrium",
    "errors", "experiment", "garbling_from_param", "ic_intervals", "interim_belief", "irrelevance_check",
    "is_garbling_of", "is_ic", "max_irrelevant_param", "montecarlo", "optimal_garbling", "posterior",
    "rejection_probs", "select_equilibrium", "simulate", "single_buyer_blackwell_check", "single_buyer_surplus",
    "solve_chains", "spread_surplus_delta", "statics", "sufficient_harm_check", "surplus_vs_n", "sweep_binary",
    "total_surplus",
]
SUBMODULES = ("design", "equilibrium", "errors", "experiment", "montecarlo", "statics")


def test_all_is_pinned():
    assert seqmarket.__all__ == ALL


@pytest.mark.parametrize("name", [name for name in ALL if name not in SUBMODULES])
def test_every_name_is_its_defining_modules_object(name):
    value = getattr(seqmarket, name)
    assert value.__module__.startswith("seqmarket.")
    assert value is getattr(sys.modules[value.__module__], name)


def test_loaded_names_import_and_are_listed():
    from seqmarket import SimConfig, optimal_garbling, simulate
    from seqmarket.design import optimal_garbling as defined
    from seqmarket.montecarlo import SimConfig as config_class, simulate as simulator

    assert simulate is simulator and optimal_garbling is defined and SimConfig is config_class
    assert {"simulate", "optimal_garbling", "SimConfig", "design", "montecarlo"} <= set(dir(seqmarket))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        getattr(seqmarket, "no_such_name")


def test_package_import_defers_design_and_montecarlo():
    """A lazy name loads its module on first use, not at import; submodules
    still import by name."""
    loaded = loaded_modules("import seqmarket")
    assert loaded.isdisjoint({"seqmarket.design", "seqmarket.montecarlo", "numpy.random"})
    loaded = loaded_modules("import seqmarket\nseqmarket.is_ic")
    assert "seqmarket.design" in loaded and "seqmarket.montecarlo" not in loaded
    loaded = loaded_modules("from seqmarket import montecarlo\nassert montecarlo.__name__ == 'seqmarket.montecarlo'")
    assert "seqmarket.design" not in loaded
