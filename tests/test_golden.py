"""Byte-for-byte CLI outputs on the bundled markets.

The files under ``tests/golden/`` lock the CSVs of the repro fixtures, of
``sweep-n`` to ``n_max = 200``, of 201-point ``sweep-binary`` curves, of
``design`` with a 401-point grid, of ``solve`` on four markets and of one
``spread``, so a change to the solver that moves any printed digit shows up
here.  The ``simulate`` cases lock the Monte Carlo
stream: the demo, tight and seeded markets with and without a focal buyer,
an explicit non-monotone strategy, and trial counts whose last block of
``BLOCK_TRIALS`` is partial.  The irrelevance margin ``F`` of the design CSVs
is the one cell compared with a tolerance (``F_TOL`` relative, or absolute
below 1): it is a product of odds whose last digits depend on the order of
its factors.  To write them afresh (only when an output change is intended
and documented):

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import seqmarket.cli as cli
from conftest import random_market
from seqmarket.scenarios import demo_market, revealing_market, tight_market

GOLDEN = Path(__file__).parent / "golden"
F_TOL = 1e-11


def _market_doc(spec) -> dict:
    return {
        "rho": spec.rho,
        "c": spec.c,
        "n": spec.n,
        "experiment": [{"p_L": o.p_L, "p_H": o.p_H} for o in spec.experiment.outcomes],
    }


def _config(spec, **sections) -> dict:
    return {"schema_version": 1, "market": _market_doc(spec), **sections}


def _cases() -> dict[str, tuple[list[str], dict | None, str]]:
    """Golden file name -> (argv without --out/--config, config or None, CSV written)."""
    cases: dict[str, tuple[list[str], dict | None, str]] = {}
    for fixture, csv in (
        ("table1", "table1.csv"),
        ("table2", "table2.csv"),
        ("section8", "section8.csv"),
        ("modified-example", "modified_example.csv"),
    ):
        cases[f"repro_{csv}"] = (["repro", fixture], None, csv)
    for name, market in (("demo", demo_market), ("tight", tight_market), ("revealing", revealing_market)):
        cases[f"sweep_n_{name}.csv"] = (
            ["sweep-n"],
            _config(market(), sweep_n={"n_max": 200}),
            "sweep_n.csv",
        )
    grids = {"bad": np.linspace(0.0, 0.5, 201), "good": np.linspace(0.5, 1.0, 201)}
    for dimension, grid in grids.items():
        for selector in ("most", "least"):
            section = {"dimension": dimension, "grid": [float(g) for g in grid], "selector": selector}
            cases[f"sweep_binary_{dimension}_{selector}.csv"] = (
                ["sweep-binary"],
                _config(demo_market(), sweep_binary=section),
                "sweep_binary.csv",
            )
    seeded = {
        # m = 4, n = 27: the largest irrelevant garbling D* is IC.
        "seeded_m4_ic": lambda: random_market(np.random.default_rng(6), m_choices=(4,), n_range=(2, 30)),
        # m = 5, n = 23: D* is not IC, so the optimum comes from ic_intervals.
        "seeded_m5_non_ic": lambda: random_market(np.random.default_rng(2), m_choices=(5,), n_range=(2, 30)),
    }
    markets = {"demo": demo_market, "tight": tight_market, "revealing": revealing_market, **seeded}
    for name, market in markets.items():
        config = _config(market(), design={"emit_grid": True, "grid_points": 401})
        for csv in ("design.csv", "design_grid.csv"):
            cases[f"{csv[:-4]}_{name}.csv"] = (["design"], config, csv)
    for name in ("demo", "tight", "revealing", "seeded_m5_non_ic"):
        cases[f"solve_{name}.csv"] = (["solve"], _config(markets[name]()), "solve.csv")
    spread = {"index": 1, "lr_low": 0.25, "lr_high": [9, 1], "selector": "most"}
    cases["spread_demo.csv"] = (["spread"], _config(demo_market(), spread=spread), "spread.csv")
    simulations = {
        "demo_focal0": (demo_market(), 50_000, 11, 0, "most"),
        "tight50": (tight_market(50), 20_000, 3, None, "most"),
        "tight50_focal17": (tight_market(50), 20_000, 3, 17, "most"),
        "seeded_m5_n6_focal5": (
            random_market(np.random.default_rng(8), m_choices=(5,), n_range=(6, 6)), 40_000, 8, 5, "most"
        ),
        "seeded_m3_nonmonotone": (
            random_market(np.random.default_rng(7), m_choices=(3,), n_range=(4, 4)), 30_000, 21, 1, [0.6, 0.0, 1.0]
        ),
        # 3 * 2**14 + 5 trials: three full blocks and a five-trial one.
        "revealing_partial_block": (revealing_market(4), 3 * 2**14 + 5, 2, 3, "most"),
    }
    for name, (market, trials, seed, focal, strategy) in simulations.items():
        section = {"trials": trials, "seed": seed, "focal_buyer": focal, "strategy": strategy}
        cases[f"simulate_{name}.csv"] = (["simulate"], _config(market, simulate=section), "simulate.csv")
    return cases


CASES = _cases()


def _run(name: str, out: Path) -> bytes:
    argv, config, csv = CASES[name]
    argv = list(argv)
    if config is not None:
        path = out / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(path)]
    assert cli.main(argv + ["--out", str(out)]) == 0
    return (out / csv).read_bytes()


def _same_margin(got: str, want: str) -> bool:
    a, b = float(got), float(want)
    if math.isinf(b) or math.isnan(b):
        return got == want
    return abs(a - b) <= F_TOL * max(1.0, abs(b))


def _assert_same_csv(got: bytes, want: bytes) -> None:
    """Byte equality, except that a cell of an ``F`` column may move within
    ``F_TOL``."""
    header = want.split(b"\n", 1)[0].decode().split(",")
    if "F" not in header:
        assert got == want
        return
    got_rows = [line.split(",") for line in got.decode().split("\n")]
    want_rows = [line.split(",") for line in want.decode().split("\n")]
    assert len(got_rows) == len(want_rows)
    f = header.index("F")
    for i, (g, w) in enumerate(zip(got_rows, want_rows)):
        assert len(g) == len(w), f"row {i}"
        for j, (a, b) in enumerate(zip(g, w)):
            if j == f and i > 0 and a != b:
                assert _same_margin(a, b), f"row {i}: F {a} vs {b}"
            else:
                assert a == b, f"row {i}, column {header[j]}: {a} vs {b}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes(tmp_path, name):
    _assert_same_csv(_run(name, tmp_path), (GOLDEN / name).read_bytes())


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            (GOLDEN / name).write_bytes(_run(name, Path(tmp)))
        print(GOLDEN / name)
    sys.exit(0)
