"""Config parsing, CSV emission, exit codes, and reproduction fixtures."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import seqmarket.cli as cli
from seqmarket.errors import NoEquilibriumFound, SchemaError, ValidationError

DEMO_DOC = {
    "schema_version": 1,
    "market": {
        "rho": 0.5,
        "c": 0.2,
        "n": 2,
        "experiment": [{"p_L": 0.8, "p_H": 0.2}, {"p_L": 0.2, "p_H": 0.8}],
    },
}


def write_config(tmp_path: Path, doc: dict, name: str = "config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestParseConfig:
    def test_demo_document(self):
        config = cli.parse_config(json.dumps(DEMO_DOC))
        market = config.market
        assert market.experiment.m == 2
        assert (market.rho, market.c, market.n) == (0.5, 0.2, 2)

    def test_out_of_range_prior(self):
        doc = json.loads(json.dumps(DEMO_DOC))
        doc["market"]["rho"] = 1.2
        with pytest.raises(ValidationError, match="rho"):
            cli.parse_config(json.dumps(doc))

    def test_unknown_key_rejected(self):
        doc = json.loads(json.dumps(DEMO_DOC))
        doc["market"]["extra"] = 1
        with pytest.raises(ValidationError, match="extra"):
            cli.parse_config(json.dumps(doc))

    def test_schema_version_checked(self):
        doc = json.loads(json.dumps(DEMO_DOC))
        doc["schema_version"] = 99
        with pytest.raises(SchemaError):
            cli.parse_config(json.dumps(doc))

    def test_invalid_json_is_schema_error(self):
        with pytest.raises(SchemaError):
            cli.parse_config("{not json")

    def test_round_trip(self):
        doc = json.loads(json.dumps(DEMO_DOC))
        doc["sweep_binary"] = {"dimension": "bad", "grid": [0.3, 0.2, 0.1], "selector": "least"}
        doc["spread"] = {"index": 1, "lr_low": 0.25, "lr_high": [9, 1]}
        doc["simulate"] = {"trials": 1000, "seed": 7, "focal_buyer": 0, "strategy": "most"}
        config = cli.parse_config(json.dumps(doc))
        assert cli.parse_config(cli.serialize_config(config)) == config


class TestCommands:
    def test_solve_unique_row_for_tight_market(self, tmp_path):
        doc = json.loads(json.dumps(DEMO_DOC))
        doc["market"]["c"] = 0.6
        code = cli.main(["solve", "--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "solve.csv").read_text().strip().splitlines()
        assert lines[0] == "cutoff_index,mixing_prob,interim,r_L,r_H,surplus"
        assert len(lines) == 2

    def test_solve_demo_has_two_rows(self, tmp_path):
        code = cli.main(["solve", "--config", str(write_config(tmp_path, DEMO_DOC)), "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "solve.csv").read_text().strip().splitlines()
        assert len(lines) == 3

    def test_sweep_n_constant_for_uninformative_experiment(self, tmp_path):
        doc = {
            "schema_version": 1,
            "market": {
                "rho": 0.5,
                "c": 0.2,
                "n": 2,
                "experiment": [{"p_L": 0.5, "p_H": 0.5}, {"p_L": 0.5, "p_H": 0.5}],
            },
            "sweep_n": {"n_max": 8},
        }
        code = cli.main(["sweep-n", "--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "sweep_n.csv").read_text().strip().splitlines()[1:]
        surpluses = {line.split(",")[1] for line in lines}
        assert len(lines) == 8 and len(surpluses) == 1

    def test_sweep_binary_with_grid_flag(self, tmp_path):
        doc = json.loads(json.dumps(DEMO_DOC))
        doc["sweep_binary"] = {"dimension": "good", "grid": [0.6]}
        code = cli.main(
            [
                "sweep-binary",
                "--config",
                str(write_config(tmp_path, doc)),
                "--out",
                str(tmp_path),
                "--grid",
                "0.5:1.0:6",
                "--selector",
                "least",
            ]
        )
        assert code == 0
        lines = (tmp_path / "sweep_binary.csv").read_text().strip().splitlines()
        assert len(lines) == 7
        assert lines[1].split(",")[6] == "least"

    def test_spread_command(self, tmp_path):
        doc = json.loads(json.dumps(DEMO_DOC))
        doc["spread"] = {"index": 1, "lr_low": 0.25, "lr_high": [9, 1]}
        code = cli.main(["spread", "--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path)])
        assert code == 0
        body = (tmp_path / "spread.csv").read_text()
        assert "negative" in body and "non_negative" in body

    def test_design_with_grid(self, tmp_path):
        doc = json.loads(json.dumps(DEMO_DOC))
        doc["market"]["c"] = 0.6
        doc["design"] = {"emit_grid": True, "grid_points": 11}
        code = cli.main(["design", "--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path)])
        assert code == 0
        main_row = (tmp_path / "design.csv").read_text().strip().splitlines()
        grid_rows = (tmp_path / "design_grid.csv").read_text().strip().splitlines()
        assert len(main_row) == 2
        assert len(grid_rows) == 12
        assert float(main_row[1].split(",")[0]) == pytest.approx(25.0 / 29.0, abs=1e-9)

    def test_simulate_with_overrides(self, tmp_path):
        doc = json.loads(json.dumps(DEMO_DOC))
        doc["simulate"] = {"trials": 1000, "seed": 1, "focal_buyer": 0, "strategy": [0.0, 1.0]}
        code = cli.main(
            [
                "simulate",
                "--config",
                str(write_config(tmp_path, doc)),
                "--out",
                str(tmp_path),
                "--trials",
                "2000",
                "--seed",
                "9",
            ]
        )
        assert code == 0
        lines = (tmp_path / "simulate.csv").read_text().strip().splitlines()
        first = lines[1].split(",")
        assert first[0] == "2000" and first[1] == "9"

    def test_runs_are_byte_identical(self, tmp_path):
        doc = json.loads(json.dumps(DEMO_DOC))
        doc["simulate"] = {"trials": 5000, "seed": 21, "focal_buyer": 1, "strategy": "most"}
        config = write_config(tmp_path, doc)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        assert (out_a / "simulate.csv").read_bytes() == (out_b / "simulate.csv").read_bytes()


class TestExitCodes:
    def test_input_error_is_exit_two(self, tmp_path, capsys):
        doc = json.loads(json.dumps(DEMO_DOC))
        doc["market"]["rho"] = 1.2
        code = cli.main(["solve", "--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path)])
        assert code == 2
        assert "rho" in capsys.readouterr().err

    def test_missing_config_is_exit_two(self, tmp_path):
        code = cli.main(["solve", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path)])
        assert code == 2

    def test_missing_section_is_exit_two(self, tmp_path):
        code = cli.main(["sweep-n", "--config", str(write_config(tmp_path, DEMO_DOC)), "--out", str(tmp_path)])
        assert code == 2

    def _simulate_with(self, tmp_path, capsys, *flags: str) -> tuple[int, str]:
        doc = json.loads(json.dumps(DEMO_DOC))
        doc["simulate"] = {"trials": 1000, "seed": 1}
        argv = ["simulate", "--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path)]
        code = cli.main(argv + list(flags))
        return code, capsys.readouterr().err

    def test_negative_trials_flag_is_exit_two(self, tmp_path, capsys):
        code, err = self._simulate_with(tmp_path, capsys, "--trials", "-5")
        assert code == 2 and err.startswith("error:") and "trials" in err

    def test_zero_trials_flag_is_exit_two(self, tmp_path, capsys):
        code, err = self._simulate_with(tmp_path, capsys, "--trials", "0")
        assert code == 2 and err.startswith("error:") and "trials" in err
        assert not (tmp_path / "simulate.csv").exists()

    def test_negative_seed_flag_is_exit_two(self, tmp_path, capsys):
        code, err = self._simulate_with(tmp_path, capsys, "--seed", "-3")
        assert code == 2 and err.startswith("error:") and "seed" in err

    def test_numerical_failure_is_exit_one(self, tmp_path, monkeypatch):
        def boom(spec):
            raise NoEquilibriumFound("forced for the exit-code contract")

        monkeypatch.setattr(cli, "enumerate_equilibria", boom)
        code = cli.main(["solve", "--config", str(write_config(tmp_path, DEMO_DOC)), "--out", str(tmp_path)])
        assert code == 1

    def test_section8_without_a_unique_equilibrium_is_exit_one(self, tmp_path, monkeypatch, capsys):
        real = cli.enumerate_chains

        def doubled(specs):
            return [chain + chain for chain in real(specs)]

        monkeypatch.setattr(cli, "enumerate_chains", doubled)
        assert cli.main(["repro", "section8", "--out", str(tmp_path)]) == 1
        assert "unique equilibrium at n=1" in capsys.readouterr().err


def test_cli_import_leaves_scipy_optimize_out():
    """No command needs the LP solver, so importing the CLI must not load it."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = "import sys, seqmarket.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


class TestRepro:
    def test_table1_cells(self, tmp_path):
        assert cli.main(["repro", "table1", "--out", str(tmp_path)]) == 0
        body = (tmp_path / "table1.csv").read_text()
        assert "0.5" in body and "0.4" in body
        assert f"{8 / 11:.12g}" in body
        assert f"{1 / 7:.12g}" in body

    def test_table2_cells(self, tmp_path):
        assert cli.main(["repro", "table2", "--out", str(tmp_path)]) == 0
        body = (tmp_path / "table2.csv").read_text()
        for cell in ("0.3", "0.348", "0.96", "0.36", "0.4"):
            assert cell in body

    def test_section8_has_fifty_rows(self, tmp_path):
        assert cli.main(["repro", "section8", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "section8.csv").read_text().strip().splitlines()
        assert len(lines) == 51

    def test_modified_example_matches_closed_form(self, tmp_path):
        assert cli.main(["repro", "modified-example", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "modified_example.csv").read_text().strip().splitlines()[1:]
        for line in lines:
            _, most, _, closed = line.split(",")
            assert float(most) == pytest.approx(float(closed), abs=1e-12)
