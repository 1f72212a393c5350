"""Config parsing, CSV emission, exit codes, and reproduction fixtures."""

from __future__ import annotations

import dataclasses
import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import seqmarket.cli as cli
from conftest import loaded_modules
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



def test_csv_cells_are_pinned(tmp_path):
    """Every kind of cell a table can hold, byte for byte.  A column of
    Python floats takes its own formatting pass, and so does one of Python
    bools; ``0.0`` and ``-0.0`` share one, and compare and hash equal, yet
    print apart.  A column mixing ``True`` and ``np.True_`` goes cell by
    cell.  A value that is not a list is shared by every row, and a table
    with no list column has one row."""
    import numpy as np

    nan, inf = float("nan"), float("inf")
    columns = {
        "zero": [0.0, -0.0, 1e-300],
        "special": [nan, inf, -inf],
        "numpy_float": [np.float64(-0.0), np.float64(2 / 3), 0.5],
        "flag": [True, np.True_, False],
        "bools": [False, True, True],
        "count": [np.int64(7), 3, -2],
        "other": [None, "text", 1],
        "sparse": [0.25, None, -0.0],
        "label": "shared",
        "size": 4,
        "neg_zero": -0.0,
        "missing": None,
        "on": True,
    }
    one_row = {"label": "alone", "size": -3, "neg_zero": -0.0, "missing": None, "off": False}
    cells, single = cli._write_csvs(tmp_path, {"cells": columns, "single": one_row})
    assert cells.read_bytes() == (
        b"zero,special,numpy_float,flag,bools,count,other,sparse,label,size,neg_zero,missing,on\n"
        b"0,nan,-0,true,false,7,,0.25,shared,4,-0,,true\n"
        b"-0,inf,0.666666666667,true,true,3,text,,shared,4,-0,,true\n"
        b"1e-300,-inf,0.5,false,true,-2,1,-0,shared,4,-0,,true\n"
    )
    assert single.read_bytes() == b"label,size,neg_zero,missing,off\nalone,-3,-0,,false\n"


def test_csv_columns_of_unequal_length_write_nothing(tmp_path):
    """List columns of unequal length are a program error, raised before
    ``--out`` is created or any table, even a well-formed one, is written."""
    out = tmp_path / "out"
    tables = {"fine": {"a": [1, 2], "b": "x"}, "ragged": {"a": [1, 2], "b": [1.0]}}
    with pytest.raises(ValueError, match="unequal lengths"):
        cli._write_csvs(out, tables)
    assert not out.exists()


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

    def test_out_of_memory_is_exit_one(self, tmp_path, capsys):
        """A valid config whose draw buffer cannot be allocated (10**15
        buyers): malloc refuses it at once, so no memory is touched."""
        doc = _doc({"n": 10**15}, simulate={"trials": 10, "seed": 0, "strategy": [0.0, 1.0]})
        code = cli.main(["simulate", "--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("resource failure:") and len(err.splitlines()) == 1
        assert not (tmp_path / "simulate.csv").exists()

    @pytest.mark.parametrize(
        "command, csv_is_directory",
        [(["solve"], False), (["solve"], True), (["repro", "table1"], False)],
        ids=["solve_out_is_file", "solve_csv_is_directory", "repro_out_is_file"],
    )
    def test_unwritable_out_is_exit_two(self, tmp_path, capsys, command, csv_is_directory):
        """An --out that is a file, or that holds a directory named like the
        CSV, ends in exit 2 and one error line, not a traceback."""
        out = tmp_path / "out"
        if csv_is_directory:
            (out / "solve.csv").mkdir(parents=True)
        else:
            out.write_text("", encoding="utf-8")
        config = [] if command[0] == "repro" else ["--config", str(write_config(tmp_path, DEMO_DOC))]
        code = cli.main(command + config + ["--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: cannot write output:") and len(err.splitlines()) == 1

    def test_unwritable_second_table_writes_neither(self, tmp_path, capsys):
        """``design`` with its grid writes two tables; when the second cannot
        be written, the first is not left behind, and neither is a temporary."""
        out = tmp_path / "out"
        (out / "design_grid.csv").mkdir(parents=True)
        doc = _doc(design={"emit_grid": True, "grid_points": 5})
        code = cli.main(["design", "--config", str(write_config(tmp_path, doc)), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: cannot write output:") and len(err.splitlines()) == 1
        assert [path.name for path in out.iterdir()] == ["design_grid.csv"]

    @pytest.mark.parametrize("fresh", [True, False], ids=["fresh_nested_out", "existing_out"])
    def test_failed_write_leaves_out_as_it_was(self, tmp_path, capsys, monkeypatch, fresh):
        """When the second table's temporary cannot be written, the failure
        removes the ``--out`` directories the write created, parents
        included; an ``--out`` that existed stays, with no CSV in it."""
        config = write_config(tmp_path, _doc(design={"emit_grid": True, "grid_points": 5}))
        out = tmp_path / "a" / "b" / "out" if fresh else tmp_path / "out"
        if not fresh:
            out.mkdir()
        real, written = Path.write_text, []

        def second_fails(path, *args, **kwargs):
            written.append(path.name)
            if len(written) == 2:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
            return real(path, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", second_fails)
        code = cli.main(["design", "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: cannot write output:") and len(err.splitlines()) == 1
        assert written[1].startswith(".design_grid.csv.")
        if fresh:
            assert not (tmp_path / "a").exists()
        else:
            assert list(out.iterdir()) == []

    def test_section8_without_a_unique_equilibrium_is_exit_one(self, tmp_path, monkeypatch, capsys):
        real = cli.enumerate_chains

        def doubled(specs):
            return [chain + chain for chain in real(specs)]

        monkeypatch.setattr(cli, "enumerate_chains", doubled)
        assert cli.main(["repro", "section8", "--out", str(tmp_path)]) == 1
        assert "unique equilibrium at n=1" in capsys.readouterr().err


# Loaded only by the commands that use them: the garbling design, the Monte
# Carlo oracle with numpy.random, and fractions for exact odds ties.
_DEFERRED = ("numpy.random", "seqmarket.design", "seqmarket.montecarlo", "fractions")


def test_cli_import_leaves_scipy_optimize_out():
    """No command needs the LP solver or an executor pool, so importing the
    CLI must load neither; nor does it load what only some commands use."""
    loaded = loaded_modules("import seqmarket.cli")
    assert "scipy.optimize" not in loaded
    assert "concurrent.futures" not in loaded
    assert loaded.isdisjoint(_DEFERRED)


_EVERY_SECTION = {
    **DEMO_DOC,
    "sweep_n": {"n_max": 8},
    "sweep_binary": {"dimension": "bad", "grid": [0.3, 0.2, 0.1]},
    "spread": {"index": 1, "lr_low": 0.25, "lr_high": [9, 1]},
    "design": {"emit_grid": True, "grid_points": 11},
    "simulate": {"trials": 1000, "seed": 7, "focal_buyer": 0, "strategy": "most"},
}


# What each command loads of _DEFERRED; the other commands load none of it.
_LOADS = {"design": ("seqmarket.design",), "simulate": ("seqmarket.montecarlo", "numpy.random")}


@pytest.mark.parametrize("command", ["solve", "sweep-n", "sweep-binary", "spread", "repro section8", "design", "simulate"])
def test_each_command_loads_only_what_it_runs(tmp_path, command):
    loads = set(_LOADS.get(command, ()))
    argv = command.split()
    if argv[0] != "repro":
        argv += ["--config", str(write_config(tmp_path, _EVERY_SECTION))]
    argv += ["--out", str(tmp_path / "out")]
    loaded = loaded_modules(f"import seqmarket.cli\nassert seqmarket.cli.main({argv!r}) == 0")
    assert loads <= loaded
    assert loaded.isdisjoint(set(_DEFERRED) - loads)


def test_cli_import_builds_no_parser():
    """``main`` builds its parser per call; importing the CLI builds none,
    so no parser cost hides in the import."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = """
import argparse
built = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
import seqmarket.cli
print(len(built))
seqmarket.cli._build_parser()
print(len(built))
"""
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0", "8"]


@pytest.mark.parametrize("command, parsers", [("sweep-n", 2), ("repro", 2), (None, 8), ("bogus", 8), ("--help", 8)])
def test_parser_holds_only_the_named_command(monkeypatch, command, parsers):
    """A command named first gets the root parser and its own subparser;
    anything else gets every command's."""
    built = []
    init = cli.argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__", counting)
    cli._build_parser(command)
    assert len(built) == parsers


_ROOT_USAGE = """\
usage: seqmarket [-h]
                 {solve,sweep-n,sweep-binary,spread,design,simulate,repro} ...
"""
_BARE_USAGE = "usage: seqmarket {command} [-h] [--out OUT] --config CONFIG\n"
_SWEEP_BINARY_USAGE = """\
usage: seqmarket sweep-binary [-h] [--out OUT] --config CONFIG [--grid GRID]
                              [--selector {most,least}]
"""
_SPREAD_USAGE = """\
usage: seqmarket spread [-h] [--out OUT] --config CONFIG
                        [--selector {most,least}]
"""
_SIMULATE_USAGE = """\
usage: seqmarket simulate [-h] [--out OUT] --config CONFIG [--trials TRIALS]
                          [--seed SEED]
"""
_REPRO_USAGE = """\
usage: seqmarket repro [-h] [--out OUT]
                       {table1,table2,section8,modified-example}
"""
_BARE_OPTIONS = """
options:
  -h, --help       show this help message and exit
  --out OUT        output directory for CSVs
  --config CONFIG  JSON config path
"""

# (id, argv, exit code, stdout, stderr), as argparse on Python 3.11 prints
# them 80 columns wide.
PARSER_TEXT = [
    ("root_help", ["--help"], 0, _ROOT_USAGE + """
Equilibria, comparative statics, information design, and simulation for
sequential-visit trading markets.

positional arguments:
  {solve,sweep-n,sweep-binary,spread,design,simulate,repro}

options:
  -h, --help            show this help message and exit
""", ""),
    *[
        (f"{command}_help", [command, "--help"], 0, _BARE_USAGE.format(command=command) + _BARE_OPTIONS, "")
        for command in ("solve", "sweep-n", "design")
    ],
    ("sweep-binary_help", ["sweep-binary", "--help"], 0, _SWEEP_BINARY_USAGE + """
options:
  -h, --help            show this help message and exit
  --out OUT             output directory for CSVs
  --config CONFIG       JSON config path
  --grid GRID           override grid as start:stop:count
  --selector {most,least}
""", ""),
    ("spread_help", ["spread", "--help"], 0, _SPREAD_USAGE + """
options:
  -h, --help            show this help message and exit
  --out OUT             output directory for CSVs
  --config CONFIG       JSON config path
  --selector {most,least}
""", ""),
    ("simulate_help", ["simulate", "--help"], 0, _SIMULATE_USAGE + _BARE_OPTIONS + """\
  --trials TRIALS
  --seed SEED
""", ""),
    ("repro_help", ["repro", "--help"], 0, _REPRO_USAGE + """
positional arguments:
  {table1,table2,section8,modified-example}

options:
  -h, --help            show this help message and exit
  --out OUT             output directory for CSVs
""", ""),
    ("no_arguments", [], 2, "", _ROOT_USAGE + "seqmarket: error: the following arguments are required: command\n"),
    ("unknown_command", ["bogus"], 2, "", _ROOT_USAGE + "seqmarket: error: argument command: invalid choice: 'bogus' "
     "(choose from 'solve', 'sweep-n', 'sweep-binary', 'spread', 'design', 'simulate', 'repro')\n"),
    ("unknown_option", ["--bogus"], 2, "", _ROOT_USAGE + "seqmarket: error: the following arguments are required: command\n"),
    ("sweep_n_extra", ["sweep-n", "--config", "x", "extra"], 2, "",
     _ROOT_USAGE + "seqmarket: error: unrecognized arguments: extra\n"),
    ("repro_extra", ["repro", "table1", "extra"], 2, "", _ROOT_USAGE + "seqmarket: error: unrecognized arguments: extra\n"),
    ("foreign_flag", ["solve", "--config", "x", "--trials", "1"], 2, "",
     _ROOT_USAGE + "seqmarket: error: unrecognized arguments: --trials 1\n"),
    ("config_missing", ["solve"], 2, "", _BARE_USAGE.format(command="solve")
     + "seqmarket solve: error: the following arguments are required: --config\n"),
    ("config_value", ["solve", "--config"], 2, "", _BARE_USAGE.format(command="solve")
     + "seqmarket solve: error: argument --config: expected one argument\n"),
    ("config_unreadable", ["solve", "--config", "missing.json"], 2, "",
     "error: cannot read config: [Errno 2] No such file or directory: 'missing.json'\n"),
    ("fixture_missing", ["repro"], 2, "", _REPRO_USAGE + "seqmarket repro: error: the following arguments are required: fixture\n"),
    ("fixture_value", ["repro", "bogus"], 2, "", _REPRO_USAGE + "seqmarket repro: error: argument fixture: invalid choice: "
     "'bogus' (choose from 'table1', 'table2', 'section8', 'modified-example')\n"),
    ("out_value", ["repro", "table1", "--out"], 2, "", _REPRO_USAGE + "seqmarket repro: error: argument --out: expected one argument\n"),
    ("grid_value", ["sweep-binary", "--config", "x", "--grid"], 2, "",
     _SWEEP_BINARY_USAGE + "seqmarket sweep-binary: error: argument --grid: expected one argument\n"),
    ("binary_selector_value", ["sweep-binary", "--config", "x", "--selector", "x"], 2, "", _SWEEP_BINARY_USAGE
     + "seqmarket sweep-binary: error: argument --selector: invalid choice: 'x' (choose from 'most', 'least')\n"),
    ("spread_selector_value", ["spread", "--config", "x", "--selector", "x"], 2, "", _SPREAD_USAGE
     + "seqmarket spread: error: argument --selector: invalid choice: 'x' (choose from 'most', 'least')\n"),
    ("trials_value", ["simulate", "--config", "x", "--trials", "x"], 2, "",
     _SIMULATE_USAGE + "seqmarket simulate: error: argument --trials: invalid int value: 'x'\n"),
    ("seed_value", ["simulate", "--config", "x", "--seed", "x"], 2, "",
     _SIMULATE_USAGE + "seqmarket simulate: error: argument --seed: invalid int value: 'x'\n"),
    ("repro_runs", ["repro", "table1", "--out", "out"], 0, "out/table1.csv\n", ""),
]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse's wording differs between Python versions")
@pytest.mark.parametrize("argv, code, stdout, stderr", [case[1:] for case in PARSER_TEXT], ids=[case[0] for case in PARSER_TEXT])
def test_parser_text_is_pinned(tmp_path, monkeypatch, capsys, argv, code, stdout, stderr):
    """Help, usage and argument errors, byte for byte, with their exit codes:
    a one-command parser prints what the full one does, and a root usage
    line lists every command."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    try:
        got = cli.main(argv)
    except SystemExit as exc:  # help and argparse's errors exit this way
        got = exc.code
    assert (got, *capsys.readouterr()) == (code, stdout, stderr)


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


def _doc(market: "dict | None" = None, **sections) -> dict:
    doc = json.loads(json.dumps(DEMO_DOC))
    doc["market"].update(market or {})
    doc.update(sections)
    return doc


_SWEEP_BINARY = {"dimension": "bad", "grid": [0.5, 0.4]}
_SPREAD = {"index": 1, "lr_low": 0.25, "lr_high": [9, 1]}
_SIMULATE = {"trials": 100, "seed": 1}
_NAN, _INF = float("nan"), float("inf")

# (id, command, config document or raw text, flags, the exact last stderr line)
INVALID_INPUTS = [
    ("bad_json", "solve", "{not json", [],
     "error: config is not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("root_not_object", "solve", "[]", [], "error: config root must be a JSON object"),
    ("unknown_top_key", "solve", _doc(bogus=1), [], "error: config: unknown key(s) ['bogus']"),
    ("solve_section", "solve", _doc(solve={}), [], "error: config: unknown key(s) ['solve']"),
    ("missing_market", "solve", {"schema_version": 1}, [], "error: config: missing key(s) ['market']"),
    ("missing_version", "solve", {"market": DEMO_DOC["market"]}, [],
     "error: config: missing key(s) ['schema_version']"),
    ("schema_version", "solve", _doc(schema_version=99), [], "error: unsupported schema_version 99; this tool reads 1"),
    ("schema_version_bool", "solve", _doc(schema_version=True), [],
     "error: unsupported schema_version True; this tool reads 1"),
    ("schema_version_float", "solve", _doc(schema_version=1.0), [],
     "error: unsupported schema_version 1.0; this tool reads 1"),
    ("market_null", "solve", {"schema_version": 1, "market": None}, [], "error: market: expected an object"),
    ("market_unknown", "solve", _doc({"extra": 1}), [], "error: market: unknown key(s) ['extra']"),
    ("market_missing", "solve", {"schema_version": 1, "market": {"rho": 0.5, "c": 0.2, "experiment": []}}, [],
     "error: market: missing key(s) ['n']"),
    ("rho_string", "solve", _doc({"rho": "x"}), [], "error: market.rho: expected a number, got 'x'"),
    ("rho_bool", "solve", _doc({"rho": True}), [], "error: market.rho: expected a number, got True"),
    ("rho_above", "solve", _doc({"rho": 1.2}), [], "error: market.rho: 1.2 outside [0.0, 1.0]"),
    ("rho_nan", "solve", _doc({"rho": _NAN}), [], "error: market.rho: nan outside [0.0, 1.0]"),
    ("rho_huge_integer", "solve", json.dumps(_doc({"rho": 0})).replace('"rho": 0', '"rho": 1' + "0" * 400), [],
     "error: market.rho: inf outside [0.0, 1.0]"),
    ("c_below", "solve", _doc({"c": -0.1}), [], "error: market.c: -0.1 outside [0.0, 1.0]"),
    ("c_nan", "solve", _doc({"c": _NAN}), [], "error: market.c: nan outside [0.0, 1.0]"),
    ("c_inf", "solve", _doc({"c": _INF}), [], "error: market.c: inf outside [0.0, 1.0]"),
    ("n_float", "solve", _doc({"n": 2.5}), [], "error: market.n: expected an integer, got 2.5"),
    ("n_zero", "solve", _doc({"n": 0}), [], "error: market.n: 0 below minimum 1"),
    ("n_above", "solve", _doc({"n": 10**20}), [], "error: market.n: 100000000000000000000 above maximum 9007199254740992"),
    ("n_too_many_digits", "solve", json.dumps(_doc()).replace('"n": 2', '"n": 1' + "0" * 5000), [],
     "error: config is not valid JSON: Exceeds the limit (4300 digits) for integer string conversion: "
     "value has 5001 digits; use sys.set_int_max_str_digits() to increase the limit"),
    ("experiment_empty", "solve", _doc({"experiment": []}), [], "error: market.experiment: expected a nonempty array"),
    ("experiment_object", "solve", _doc({"experiment": {}}), [], "error: market.experiment: expected a nonempty array"),
    ("outcome_number", "solve", _doc({"experiment": [1, 2]}), [],
     "error: market.experiment[0]: expected an object with p_L and p_H"),
    ("outcome_missing", "solve", _doc({"experiment": [{"p_L": 1.0}]}), [],
     "error: market.experiment[0]: missing key(s) ['p_H']"),
    ("outcome_unknown", "solve", _doc({"experiment": [{"p_L": 1.0, "p_H": 1.0, "x": 1}]}), [],
     "error: market.experiment[0]: unknown key(s) ['x']"),
    ("p_L_negative", "solve", _doc({"experiment": [{"p_L": -0.1, "p_H": 1.0}]}), [],
     "error: market.experiment[0].p_L: -0.1 outside [0.0, None]"),
    ("p_L_nan", "solve", _doc({"experiment": [{"p_L": _NAN, "p_H": 1.0}]}), [],
     "error: market.experiment[0].p_L: nan outside [0.0, None]"),
    ("p_L_inf", "solve", _doc({"experiment": [{"p_L": _INF, "p_H": 1.0}]}), [],
     "error: market.experiment[0].p_L: expected a finite number, got inf"),
    ("p_H_string", "solve", _doc({"experiment": [{"p_L": 1.0, "p_H": "a"}]}), [],
     "error: market.experiment[0].p_H: expected a number, got 'a'"),
    ("column_sums", "solve", _doc({"experiment": [{"p_L": 0.5, "p_H": 1.0}]}), [],
     "error: market: column sums 0.5, 1.0 deviate from 1 by more than 1e-09"),
    ("sweep_n_null", "sweep-n", _doc(sweep_n=None), [], "error: sweep_n: expected an object"),
    ("sweep_n_number", "sweep-n", _doc(sweep_n=5), [], "error: sweep_n: expected an object"),
    ("sweep_n_missing", "sweep-n", _doc(sweep_n={}), [], "error: sweep_n: missing key(s) ['n_max']"),
    ("n_max_zero", "sweep-n", _doc(sweep_n={"n_max": 0}), [], "error: sweep_n.n_max: 0 below minimum 1"),
    ("n_max_above", "sweep-n", _doc(sweep_n={"n_max": 10**5 + 1}), [],
     "error: sweep_n.n_max: 100001 above maximum 100000"),
    ("no_sweep_n", "sweep-n", _doc(), [], "error: config has no sweep_n section"),
    ("sweep_binary_missing", "sweep-binary", _doc(sweep_binary={}), [],
     "error: sweep_binary: missing key(s) ['dimension', 'grid']"),
    ("dimension", "sweep-binary", _doc(sweep_binary={**_SWEEP_BINARY, "dimension": "x"}), [],
     "error: sweep_binary.dimension: expected 'bad' or 'good', got 'x'"),
    ("grid_empty", "sweep-binary", _doc(sweep_binary={**_SWEEP_BINARY, "grid": []}), [],
     "error: sweep_binary.grid: expected a nonempty array of labels"),
    ("grid_number", "sweep-binary", _doc(sweep_binary={**_SWEEP_BINARY, "grid": 0.5}), [],
     "error: sweep_binary.grid: expected a nonempty array of labels"),
    ("grid_entry", "sweep-binary", _doc(sweep_binary={**_SWEEP_BINARY, "grid": [0.5, "x"]}), [],
     "error: sweep_binary.grid[1]: expected a number, got 'x'"),
    ("grid_inf", "sweep-binary", _doc(sweep_binary={**_SWEEP_BINARY, "grid": [_INF]}), [],
     "error: sweep_binary.grid[0]: expected a finite number, got inf"),
    ("binary_selector", "sweep-binary", _doc(sweep_binary={**_SWEEP_BINARY, "selector": "x"}), [],
     "error: sweep_binary.selector: expected 'most' or 'least', got 'x'"),
    ("no_sweep_binary", "sweep-binary", _doc(), [], "error: config has no sweep_binary section"),
    ("sweep_binary_m3", "sweep-binary",
     _doc({"experiment": [{"p_L": 0.5, "p_H": 0.2}, {"p_L": 0.3, "p_H": 0.3}, {"p_L": 0.2, "p_H": 0.5}]},
          sweep_binary=_SWEEP_BINARY), [],
     "error: sweep-binary needs a binary experiment, got 3 outcomes"),
    # At n = 2**31 the tight market's point 0.2 cannot be solved, so this
    # exits 2 only if the label 0.7 is rejected before any point is solved.
    ("grid_label_out_of_range", "sweep-binary",
     _doc({"c": 0.6, "n": 2**31}, sweep_binary={"dimension": "bad", "grid": [0.2, 0.7]}), [],
     "error: bad-news label 0.7 outside [0, 0.5]"),
    ("spread_unknown", "spread", _doc(spread={**_SPREAD, "x": 1}), [], "error: spread: unknown key(s) ['x']"),
    ("index_negative", "spread", _doc(spread={**_SPREAD, "index": -1}), [], "error: spread.index: -1 below minimum 0"),
    ("lr_string", "spread", _doc(spread={**_SPREAD, "lr_low": "x"}), [],
     "error: spread.lr_low: expected a number or a [num, den] pair, got 'x'"),
    ("lr_triple", "spread", _doc(spread={**_SPREAD, "lr_high": [1, 2, 3]}), [],
     "error: spread.lr_high: expected a number or a [num, den] pair, got [1, 2, 3]"),
    ("lr_inf", "spread", _doc(spread={**_SPREAD, "lr_high": [_INF, 1]}), [],
     "error: spread.lr_high: expected a number or a [num, den] pair, got [inf, 1]"),
    ("lr_huge_integer", "spread", json.dumps(_doc(spread=_SPREAD)).replace('"lr_low": 0.25', '"lr_low": 1' + "0" * 400),
     [], "error: spread.lr_low: expected a number or a [num, den] pair, got 1" + "0" * 400),
    ("lr_nan", "spread", _doc(spread={**_SPREAD, "lr_low": _NAN}), [],
     "error: spread.lr_low: expected a number or a [num, den] pair, got nan"),
    ("lr_negative", "spread", _doc(spread={**_SPREAD, "lr_low": -1}), [],
     "error: odds ratio parts must be nonnegative: OddsRatio(num=-1.0, den=1.0)"),
    ("spread_selector", "spread", _doc(spread={**_SPREAD, "selector": 1}), [],
     "error: spread.selector: expected 'most' or 'least', got 1"),
    ("no_spread", "spread", _doc(), [], "error: config has no spread section"),
    ("design_null", "design", _doc(design=None), [], "error: design: expected an object"),
    ("design_string", "design", _doc(design="ab"), [], "error: design: expected an object"),
    ("design_unknown", "design", _doc(design={"x": 1}), [], "error: design: unknown key(s) ['x']"),
    ("emit_grid", "design", _doc(design={"emit_grid": 1}), [], "error: design.emit_grid: expected a boolean, got 1"),
    ("grid_points_one", "design", _doc(design={"grid_points": 1}), [], "error: design.grid_points: 1 below minimum 2"),
    ("grid_points_above", "design", _doc(design={"grid_points": 2**53 + 1}), [],
     "error: design.grid_points: 9007199254740993 above maximum 9007199254740992"),
    ("grid_points_string", "design", _doc(design={"grid_points": "x"}), [],
     "error: design.grid_points: expected an integer, got 'x'"),
    ("simulate_missing", "simulate", _doc(simulate={}), [], "error: simulate: missing key(s) ['seed', 'trials']"),
    ("trials_zero", "simulate", _doc(simulate={**_SIMULATE, "trials": 0}), [],
     "error: simulate.trials: 0 below minimum 1"),
    ("trials_above", "simulate", _doc(simulate={**_SIMULATE, "trials": 2**53 + 1}), [],
     "error: simulate.trials: 9007199254740993 above maximum 9007199254740992"),
    ("trials_float", "simulate", _doc(simulate={**_SIMULATE, "trials": 1.5}), [],
     "error: simulate.trials: expected an integer, got 1.5"),
    ("seed_negative", "simulate", _doc(simulate={**_SIMULATE, "seed": -1}), [],
     "error: simulate.seed: -1 below minimum 0"),
    ("seed_2_64", "simulate", _doc(simulate={**_SIMULATE, "seed": 2**64}), [],
     "error: simulate.seed: 18446744073709551616 above maximum 18446744073709551615"),
    ("focal_negative", "simulate", _doc(simulate={**_SIMULATE, "focal_buyer": -1}), [],
     "error: simulate.focal_buyer: -1 below minimum 0"),
    ("focal_string", "simulate", _doc(simulate={**_SIMULATE, "focal_buyer": "x"}), [],
     "error: simulate.focal_buyer: expected an integer, got 'x'"),
    ("strategy_name", "simulate", _doc(simulate={**_SIMULATE, "strategy": "x"}), [],
     "error: simulate.strategy: expected 'most', 'least', or an array, got 'x'"),
    ("strategy_number", "simulate", _doc(simulate={**_SIMULATE, "strategy": 5}), [],
     "error: simulate.strategy: unsupported value 5"),
    ("strategy_entry", "simulate", _doc(simulate={**_SIMULATE, "strategy": [1.5, 1.0]}), [],
     "error: simulate.strategy[0]: 1.5 outside [0.0, 1.0]"),
    ("strategy_nan", "simulate", _doc(simulate={**_SIMULATE, "strategy": [_NAN, 1.0]}), [],
     "error: simulate.strategy[0]: nan outside [0.0, 1.0]"),
    ("strategy_length", "simulate", _doc(simulate={**_SIMULATE, "strategy": [1.0]}), [],
     "error: simulate.strategy: has 1 entries for 2 outcomes"),
    ("no_simulate", "simulate", _doc(), [], "error: config has no simulate section"),
    ("flag_trials_zero", "simulate", _doc(simulate=_SIMULATE), ["--trials", "0"], "error: --trials: 0 below minimum 1"),
    ("flag_trials_negative", "simulate", _doc(simulate=_SIMULATE), ["--trials", "-5"],
     "error: --trials: -5 below minimum 1"),
    ("flag_seed_negative", "simulate", _doc(simulate=_SIMULATE), ["--seed", "-3"], "error: --seed: -3 below minimum 0"),
    ("flag_seed_2_64", "simulate", _doc(simulate=_SIMULATE), ["--seed", str(2**64)],
     "error: --seed: 18446744073709551616 above maximum 18446744073709551615"),
    ("flag_trials_above", "simulate", _doc(simulate=_SIMULATE), ["--trials", str(2**53 + 1)],
     "error: --trials: 9007199254740993 above maximum 9007199254740992"),
    ("flag_trials_string", "simulate", _doc(simulate=_SIMULATE), ["--trials", "x"],
     "seqmarket simulate: error: argument --trials: invalid int value: 'x'"),
    ("flag_grid_parts", "sweep-binary", _doc(sweep_binary=_SWEEP_BINARY), ["--grid", "1:2"],
     "error: --grid expects start:stop:count, got '1:2'"),
    ("flag_grid_numbers", "sweep-binary", _doc(sweep_binary=_SWEEP_BINARY), ["--grid", "a:b:c"],
     "error: --grid expects numbers, got 'a:b:c'"),
    ("flag_grid_count", "sweep-binary", _doc(sweep_binary=_SWEEP_BINARY), ["--grid", "0.5:1:0"],
     "error: --grid count must be positive, got 0"),
    ("flag_grid_count_above", "sweep-binary", _doc(sweep_binary=_SWEEP_BINARY), ["--grid", f"0:0.5:{2**62}"],
     "error: --grid count must be at most 9007199254740992, got 4611686018427387904"),
    ("flag_grid_nan", "sweep-binary", _doc(sweep_binary=_SWEEP_BINARY), ["--grid", "nan:1:3"],
     "error: --grid[0]: expected a finite number, got nan"),
    ("flag_selector", "spread", _doc(spread=_SPREAD), ["--selector", "x"],
     "seqmarket spread: error: argument --selector: invalid choice: 'x' (choose from 'most', 'least')"),
]


@pytest.mark.parametrize(
    "command, config, flags, line", [case[1:] for case in INVALID_INPUTS], ids=[case[0] for case in INVALID_INPUTS]
)
def test_invalid_input_exits_two_with_one_error_line(tmp_path, capsys, command, config, flags, line):
    """Every invalid config or flag ends in exit 2 and a known message, never
    in a traceback, and writes no CSV."""
    path = tmp_path / "config.json"
    path.write_text(config if isinstance(config, str) else json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    try:
        code = cli.main([command, "--config", str(path), "--out", str(out)] + flags)
    except SystemExit as exc:  # argparse rejects a flag's value this way
        code = exc.code
    assert code == 2
    assert capsys.readouterr().err.strip().splitlines()[-1] == line
    assert not list(out.glob("*.csv"))


def test_seed_and_focal_buyer_bounds_are_inclusive():
    doc = _doc(simulate={"trials": 1, "seed": 2**64 - 1, "focal_buyer": None})
    simulate = cli.parse_config(json.dumps(doc)).simulate
    assert (simulate.seed, simulate.focal_buyer) == (2**64 - 1, None)


def test_market_size_bound_is_inclusive():
    assert cli.parse_config(json.dumps(_doc({"n": 2**53}))).market.n == 2**53


@pytest.mark.parametrize(
    "command, doc, flags",
    [
        ("design", _doc(design={"emit_grid": True, "grid_points": 2**53}), []),
        ("sweep-binary", _doc(sweep_binary=_SWEEP_BINARY), ["--grid", f"0:0.5:{2**53}"]),
    ],
    ids=["design_grid_points", "grid_flag"],
)
def test_largest_grid_count_is_exit_one(tmp_path, capsys, command, doc, flags):
    """A grid of 2**53 points is a valid config that no machine can
    allocate; numpy's allocation fails at once, without touching memory."""
    code = cli.main([command, "--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path)] + flags)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("resource failure:") and len(err.splitlines()) == 1
    assert not list(tmp_path.glob("*.csv"))


def _readme_example() -> str:
    """The JSON config example under the README's "Config schema" heading."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    schema = readme[readme.index("### Config schema") :]
    start = schema.index("```json") + len("```json")
    return schema[start : schema.index("```", start)]


def test_readme_config_example_parses_and_round_trips():
    """The schema example in the README is a valid config that names every
    section and key, and its canonical form reparses to the same config."""
    example = _readme_example()
    config = cli.parse_config(example)
    canonical = cli.serialize_config(config)
    assert cli.parse_config(canonical) == config
    doc, canonical_doc = json.loads(example), json.loads(canonical)
    assert set(doc) == set(canonical_doc) == {"schema_version"} | {f.name for f in dataclasses.fields(cli.RunConfig)}
    for name, section in doc.items():
        if isinstance(section, dict):
            assert set(section) == set(canonical_doc[name]), name


_README_CANONICAL = """\
{
  "design": {
    "emit_grid": true,
    "grid_points": 401
  },
  "market": {
    "c": 0.2,
    "experiment": [
      {
        "p_H": 0.2,
        "p_L": 0.8
      },
      {
        "p_H": 0.8,
        "p_L": 0.2
      }
    ],
    "n": 2,
    "rho": 0.5
  },
  "schema_version": 1,
  "simulate": {
    "focal_buyer": 0,
    "seed": 7,
    "strategy": "most",
    "trials": 1000000
  },
  "spread": {
    "index": 1,
    "lr_high": [
      9.0,
      1.0
    ],
    "lr_low": [
      0.25,
      1.0
    ],
    "selector": "most"
  },
  "sweep_binary": {
    "dimension": "bad",
    "grid": [
      0.5,
      0.4,
      0.3
    ],
    "selector": "most"
  },
  "sweep_n": {
    "n_max": 50
  }
}"""

# Every section; outcomes given out of likelihood-ratio order; a null
# focal_buyer, a strategy array, an integer label and a [num, den] odds pair.
_EVERY_SECTION_DOC = _doc(
    {"rho": 0.3, "c": 0.45, "n": 7,
     "experiment": [{"p_L": 0.2, "p_H": 0.5}, {"p_L": 0.5, "p_H": 0.2}, {"p_L": 0.3, "p_H": 0.3}]},
    sweep_n={"n_max": 12},
    sweep_binary={"dimension": "good", "grid": [0.6, 0.75, 1], "selector": "least"},
    spread={"index": 0, "lr_low": [1, 3], "lr_high": 0.5},
    design={"grid_points": 5},
    simulate={"trials": 100, "seed": 3, "focal_buyer": None, "strategy": [0, 0.5, 1]},
)

_EVERY_SECTION_CANONICAL = """\
{
  "design": {
    "emit_grid": false,
    "grid_points": 5
  },
  "market": {
    "c": 0.45,
    "experiment": [
      {
        "p_H": 0.2,
        "p_L": 0.5
      },
      {
        "p_H": 0.3,
        "p_L": 0.3
      },
      {
        "p_H": 0.5,
        "p_L": 0.2
      }
    ],
    "n": 7,
    "rho": 0.3
  },
  "schema_version": 1,
  "simulate": {
    "focal_buyer": null,
    "seed": 3,
    "strategy": [
      0.0,
      0.5,
      1.0
    ],
    "trials": 100
  },
  "spread": {
    "index": 0,
    "lr_high": [
      0.5,
      1.0
    ],
    "lr_low": [
      1.0,
      3.0
    ],
    "selector": "most"
  },
  "sweep_binary": {
    "dimension": "good",
    "grid": [
      0.6,
      0.75,
      1.0
    ],
    "selector": "least"
  },
  "sweep_n": {
    "n_max": 12
  }
}"""

_MARKET_ONLY_CANONICAL = """\
{
  "design": {
    "emit_grid": false,
    "grid_points": 201
  },
  "market": {
    "c": 0.2,
    "experiment": [
      {
        "p_H": 0.2,
        "p_L": 0.8
      },
      {
        "p_H": 0.8,
        "p_L": 0.2
      }
    ],
    "n": 2,
    "rho": 0.5
  },
  "schema_version": 1
}"""


@pytest.mark.parametrize(
    "text, canonical",
    [
        (_readme_example(), _README_CANONICAL),
        (json.dumps(_EVERY_SECTION_DOC), _EVERY_SECTION_CANONICAL),
        (json.dumps(DEMO_DOC), _MARKET_ONLY_CANONICAL),
    ],
    ids=["readme", "every_section", "market_only"],
)
def test_serialize_config_text_is_pinned(text, canonical):
    """The canonical config text, byte for byte: keys sorted, two-space
    indent, the built experiment's outcomes in likelihood-ratio order as
    ``{p_L, p_H}``, tuples as arrays, unset sections left out and the
    design section always present."""
    assert cli.serialize_config(cli.parse_config(text)) == canonical
