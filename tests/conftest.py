"""Shared generators for the seeded property suites, and a fresh-interpreter
probe of what a piece of code imports."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from seqmarket.equilibrium import MarketSpec
from seqmarket.experiment import FiniteExperiment, build_experiment

_SRC = Path(__file__).resolve().parents[1] / "src"
_MODULES = "--- sys.modules ---"


def loaded_modules(probe: str) -> set[str]:
    """Run ``probe`` in a fresh interpreter on this checkout's ``src/`` and
    return the names in its ``sys.modules`` when the probe has finished."""
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    script = f"{probe}\nimport sys\nprint({_MODULES!r}, *sys.modules, sep='\\n')\n"
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    return set(out.stdout.rpartition(_MODULES)[2].split())


def random_experiment(
    rng: np.random.Generator,
    m: int,
    min_mass: float = 0.05,
    max_top_lr: float = 8.0,
    fully_revealing_top: bool = False,
) -> FiniteExperiment:
    """A random m-outcome experiment with bounded likelihood ratios.

    Masses are Dirichlet-ish draws floored at ``min_mass`` so no outcome is
    vanishingly rare; resampled until the top likelihood ratio is at most
    ``max_top_lr`` (or exactly +inf when ``fully_revealing_top``).
    """
    while True:
        p_l = rng.dirichlet(np.ones(m)) * (1.0 - m * min_mass) + min_mass
        p_h = rng.dirichlet(np.ones(m)) * (1.0 - m * min_mass) + min_mass
        exp = build_experiment(list(zip(p_l, p_h)))
        if exp.m != m:
            continue
        if fully_revealing_top:
            pairs = list(exp.mass_pairs())
            top_l, top_h = pairs[-1]
            rest_l = 1.0 - top_l
            pairs = [(pl / rest_l, ph) for pl, ph in pairs[:-1]] + [(0.0, top_h)]
            exp = build_experiment(pairs)
            if exp.m != m:
                continue
            return exp
        top = exp.outcomes[-1]
        if top.p_H / top.p_L <= max_top_lr:
            return exp


def random_market(
    rng: np.random.Generator,
    m_choices: tuple[int, ...] = (2, 3),
    n_range: tuple[int, int] = (2, 8),
    **experiment_kwargs,
) -> MarketSpec:
    m = int(rng.choice(m_choices))
    exp = random_experiment(rng, m, **experiment_kwargs)
    rho = float(rng.uniform(0.05, 0.95))
    c = float(rng.uniform(0.05, 0.95))
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    return MarketSpec(rho, c, n, exp)
