"""Byte-for-byte CLI outputs on the bundled markets.

The files under ``tests/golden/`` lock the CSVs of the repro fixtures, of
``sweep-n`` to ``n_max = 200`` and of 201-point ``sweep-binary`` curves, so a
change to the solver that moves any printed digit shows up here.  To write
them afresh (only when an output change is intended and documented):

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import seqmarket.cli as cli
from seqmarket.scenarios import demo_market, revealing_market, tight_market

GOLDEN = Path(__file__).parent / "golden"


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


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes(tmp_path, name):
    assert _run(name, tmp_path) == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            (GOLDEN / name).write_bytes(_run(name, Path(tmp)))
        print(GOLDEN / name)
    sys.exit(0)
