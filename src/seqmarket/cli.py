"""Command-line front end: JSON config in, CSV artifacts out.

Commands: solve, sweep-n, sweep-binary, spread, design, simulate, and repro
(bundled reference scenarios).  Every command is deterministic given its
config, so repeated runs produce byte-identical CSVs.  Exit codes: 0 success,
1 numerical or resource failure, 2 input error.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import itertools
import json
import math
import os
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .equilibrium import (
    SELECTORS,
    Equilibrium,
    MarketSpec,
    Strategy,
    benchmarks,
    enumerate_chains,
    enumerate_equilibria,
    select_equilibrium,
)
from .errors import MarketModelError, NoEquilibriumFound, SchemaError, ValidationError
from .experiment import LocalSpreadParams, OddsRatio, build_experiment, posterior
from .scenarios import demo_market, revealing_market, tight_market
from .statics import spread_surplus_delta, surplus_vs_n, sweep_binary

# design and montecarlo are imported inside the commands that run them, so
# the other commands never load them (nor numpy.random).
if TYPE_CHECKING:
    from .design import GarblingReport

SCHEMA_VERSION = 1


def _key(kind: str, default=MISSING, **meta):
    """A config key: its kind, its bounds (``lo``, ``hi``), ``choices`` or
    ``section`` class, and its default.  A key without a default is
    required; a key (not a section) whose default is None accepts null."""
    return field(default=default, metadata={"kind": kind, **meta})


@dataclass(frozen=True)
class _OutcomeKeys:
    p_L: float = _key("number", lo=0.0)
    p_H: float = _key("number", lo=0.0)


@dataclass(frozen=True)
class _MarketKeys:
    """The ``market`` section; ``parse_config`` turns it into a MarketSpec."""

    rho: float = _key("number", lo=0.0, hi=1.0)
    c: float = _key("number", lo=0.0, hi=1.0)
    # Beyond 2**53, n and n - 1 are the same float.
    n: int = _key("int", lo=1, hi=2**53)
    experiment: "tuple[_OutcomeKeys, ...]" = _key("outcomes")


@dataclass(frozen=True)
class SweepNConfig:
    # A sweep holds every size's chain at once, about 5 KB per size for five
    # outcomes (more for more), so 10**5 sizes stay near half a gigabyte.
    n_max: int = _key("int", lo=1, hi=10**5)


@dataclass(frozen=True)
class SweepBinaryConfig:
    dimension: str = _key("choice", choices=("bad", "good"))
    grid: tuple[float, ...] = _key("labels")
    selector: str = _key("choice", "most", choices=SELECTORS)


@dataclass(frozen=True)
class SpreadConfig:
    index: int = _key("int", lo=0)
    lr_low: tuple[float, float] = _key("odds")
    lr_high: tuple[float, float] = _key("odds")
    selector: str = _key("choice", "most", choices=SELECTORS)


@dataclass(frozen=True)
class DesignConfig:
    emit_grid: bool = _key("bool", False)
    # market.n's ceiling; near 2**60 points numpy refuses a grid with ValueError, not MemoryError.
    grid_points: int = _key("int", 201, lo=2, hi=2**53)


@dataclass(frozen=True)
class SimulateConfig:
    trials: int = _key("int", lo=1, hi=2**53)
    # montecarlo keys its streams by 64 bits of the seed.
    seed: int = _key("int", lo=0, hi=2**64 - 1)
    focal_buyer: int | None = _key("int", None, lo=0)
    strategy: "str | tuple[float, ...]" = _key("strategy", "most", choices=SELECTORS, lo=0.0, hi=1.0)


@dataclass(frozen=True)
class RunConfig:
    market: MarketSpec = _key("section", section=_MarketKeys)
    sweep_n: SweepNConfig | None = _key("section", None, section=SweepNConfig)
    sweep_binary: SweepBinaryConfig | None = _key("section", None, section=SweepBinaryConfig)
    spread: SpreadConfig | None = _key("section", None, section=SpreadConfig)
    design: DesignConfig = _key("section", DesignConfig(), section=DesignConfig)
    simulate: SimulateConfig | None = _key("section", None, section=SimulateConfig)


_SECTIONS = {key.name: key.metadata["section"] for key in fields(RunConfig)}

# The flags and their help, each named after the section key it overrides; a
# command takes those whose key its section has.
FLAGS = {"selector": None, "grid": "override grid as start:stop:count", "trials": None, "seed": None}


def _check_names(obj: dict, keys: tuple, where: str, extra: "set[str] | frozenset[str]" = frozenset()) -> None:
    """Rejects unknown keys, then missing ones; ``extra`` keys are required too."""
    names = {key.name for key in keys}
    unknown = set(obj) - names - extra
    if unknown:
        raise ValidationError(f"{where}: unknown key(s) {sorted(unknown)}")
    required = {key.name for key in keys if key.default is MISSING}
    missing = (required | extra) - set(obj)
    if missing:
        raise ValidationError(f"{where}: missing key(s) {sorted(missing)}")


def _number(value, where: str, lo: float | None = None, hi: float | None = None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where}: expected a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:  # an integer beyond the float range
        v = math.inf if value > 0 else -math.inf
    bounded = lo is not None or hi is not None
    if bounded and not (-math.inf if lo is None else lo) <= v <= (math.inf if hi is None else hi):
        raise ValidationError(f"{where}: {v} outside [{lo}, {hi}]")
    if not math.isfinite(v):
        raise ValidationError(f"{where}: expected a finite number, got {v}")
    return v


def _value(key, value, where: str):
    """``value`` checked against the config key ``key`` (a dataclass field)."""
    kind, meta = key.metadata["kind"], key.metadata
    lo, hi, choices = meta.get("lo"), meta.get("hi"), meta.get("choices")
    if kind == "section":
        return _read_section(meta["section"], value, where)
    if value is None and key.default is None:
        return None
    if kind == "number":
        return _number(value, where, lo, hi)
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValidationError(f"{where}: expected an integer, got {value!r}")
        if lo is not None and value < lo:
            raise ValidationError(f"{where}: {value} below minimum {lo}")
        if hi is not None and value > hi:
            raise ValidationError(f"{where}: {value} above maximum {hi}")
        return value
    if kind == "bool":
        if not isinstance(value, bool):
            raise ValidationError(f"{where}: expected a boolean, got {value!r}")
        return value
    if kind == "choice":
        if value not in choices:
            raise ValidationError(f"{where}: expected {' or '.join(map(repr, choices))}, got {value!r}")
        return value
    if kind == "labels":
        if not isinstance(value, list) or not value:
            raise ValidationError(f"{where}: expected a nonempty array of labels")
        return tuple(_number(v, f"{where}[{i}]") for i, v in enumerate(value))
    if kind == "odds":
        parts = value if isinstance(value, list) and len(value) == 2 else [value, 1.0]
        try:
            return tuple(_number(x, where) for x in parts)
        except ValidationError:
            raise ValidationError(f"{where}: expected a number or a [num, den] pair, got {value!r}") from None
    if kind == "strategy":
        if isinstance(value, str):
            if value not in choices:
                names = ", ".join(map(repr, choices))
                raise ValidationError(f"{where}: expected {names}, or an array, got {value!r}")
            return value
        if isinstance(value, list):
            return tuple(_number(a, f"{where}[{i}]", lo, hi) for i, a in enumerate(value))
        raise ValidationError(f"{where}: unsupported value {value!r}")
    # kind == "outcomes"
    if not isinstance(value, list) or not value:
        raise ValidationError(f"{where}: expected a nonempty array")
    entry = "an object with p_L and p_H"
    return tuple(_read_section(_OutcomeKeys, obj, f"{where}[{i}]", entry) for i, obj in enumerate(value))


def _read_section(cls: type, obj, where: str, what: str = "an object"):
    """The section ``obj`` as a ``cls``, every key checked against its field."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: expected {what}")
    keys = fields(cls)
    _check_names(obj, keys, where)
    return cls(**{key.name: _value(key, obj[key.name], f"{where}.{key.name}") for key in keys if key.name in obj})


def _parse_market(keys: _MarketKeys) -> MarketSpec:
    """The market section as a MarketSpec, its experiment built from the outcomes."""
    try:
        experiment = build_experiment([(o.p_L, o.p_H) for o in keys.experiment])
        return MarketSpec(keys.rho, keys.c, keys.n, experiment)
    except MarketModelError as exc:
        raise ValidationError(f"market: {exc}") from exc


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a JSON config document."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer of more digits than int() takes
        raise SchemaError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("config root must be a JSON object")
    _check_names(doc, fields(RunConfig), "config", {"schema_version"})
    version = doc["schema_version"]
    if isinstance(version, bool) or not isinstance(version, int) or version != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version {version!r}; this tool reads {SCHEMA_VERSION}")
    sections = {key.name: _value(key, doc[key.name], key.name) for key in fields(RunConfig) if key.name in doc}
    market = sections["market"] = _parse_market(sections["market"])
    strategy = sections["simulate"].strategy if "simulate" in sections else "most"
    if not isinstance(strategy, str) and len(strategy) != market.experiment.m:
        raise ValidationError(f"simulate.strategy: has {len(strategy)} entries for {market.experiment.m} outcomes")
    return RunConfig(**sections)


def serialize_config(config: RunConfig) -> str:
    """Canonical JSON for a RunConfig; reparses to an equal config."""
    doc = {name: section for name, section in asdict(config).items() if section is not None}
    doc["market"]["experiment"] = [{"p_L": o.p_L, "p_H": o.p_H} for o in config.market.experiment.outcomes]
    return json.dumps({"schema_version": SCHEMA_VERSION, **doc}, indent=2, sort_keys=True)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def _format_column(column) -> list[str]:
    """The cells of a table column as ``_fmt`` writes them.  A column of
    Python floats, the most common kind, or of Python bools is formatted in
    one pass; any other column cell by cell."""
    kinds = set(map(type, column))
    if kinds == {float}:
        return [f"{cell:.12g}" for cell in column]
    if kinds == {bool}:
        return ["true" if cell else "false" for cell in column]
    return list(map(_fmt, column))


def _csv_text(table: dict) -> str:
    """A table as CSV text: its column names, then one line per row.  A
    ``list`` column holds one cell per row; any other value is shared by
    every row and formatted once.  A table without a list column has one
    row, and list columns of unequal length are a ValueError."""
    lengths = {len(cells) for cells in table.values() if isinstance(cells, list)}
    if len(lengths) > 1:
        raise ValueError(f"table columns have unequal lengths {sorted(lengths)}")
    rows = lengths.pop() if lengths else 1
    columns = [
        _format_column(cells) if isinstance(cells, list) else itertools.repeat(_fmt(cells), rows)
        for cells in table.values()
    ]
    return "\n".join([",".join(table), *map(",".join, zip(*columns))]) + "\n"


def _write_csvs(out: Path, tables: "dict[str, dict]") -> list[Path]:
    """Creates ``out`` and writes each table (name -> {column name: cells},
    as ``_csv_text`` takes it) to ``out/name.csv``; returns the paths.
    Nothing else writes under ``out``.

    Every table is formatted before anything is written.  Each goes to a
    temporary file beside its target, and the temporaries are renamed only
    once every one is written, so a write that fails leaves no CSV behind;
    nor does it leave the directories that creating ``out`` made, which are
    removed again, innermost first, where empty.  A target that is a
    directory, which the rename would fail on, is refused before anything is
    written."""
    texts = [_csv_text(table) for table in tables.values()]
    paths = [out / f"{name}.csv" for name in tables]
    created: list[Path] = []
    temps: list[Path] = []
    try:
        created = list(itertools.takewhile(lambda d: not d.exists(), (out, *out.parents)))
        out.mkdir(parents=True, exist_ok=True)
        for path in paths:
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        for path, text in zip(paths, texts):
            temps.append(path.with_name(f".{path.name}.{os.getpid()}.tmp"))
            temps[-1].write_text(text, encoding="utf-8")
        for temp, path in zip(temps, paths):
            temp.replace(path)
    except OSError as exc:
        for temp in temps:
            with contextlib.suppress(OSError):
                temp.unlink(missing_ok=True)
        for directory in created:
            with contextlib.suppress(OSError):
                directory.rmdir()
        raise ValidationError(f"cannot write output: {exc}") from exc
    return paths


def _trade_probs(spec: MarketSpec, eq: Equilibrium) -> tuple[float, float]:
    """The probabilities that the asset trades at all in state H and in state L."""
    return 1.0 - eq.r_H**spec.n, 1.0 - eq.r_L**spec.n


def _cmd_solve(config: RunConfig) -> dict:
    # Each column is the Equilibrium attribute of its name.
    names = ("cutoff_index", "mixing_prob", "interim", "r_L", "r_H", "surplus")
    chain = enumerate_equilibria(config.market)
    return {"solve": {name: [getattr(eq, name) for eq in chain] for name in names}}


def _cmd_sweep_n(config: RunConfig) -> dict:
    result = surplus_vs_n(config.market, config.sweep_n.n_max)
    bench = benchmarks(config.market)
    columns = {
        "n": [p.n for p in result.records],
        "most_selective_surplus": [p.most_selective_surplus for p in result.records],
        "least_selective_surplus": [p.least_selective_surplus for p in result.records],
        "no_info": bench.no_info,
        "full_info": bench.full_info,
        "limit_class": result.limit_class.value,
        "predicted_limit": result.predicted_limit,
        "eventual_monotone_from": result.eventual_monotone_from,
    }
    return {"sweep_n": columns}


def _cmd_sweep_binary(config: RunConfig) -> dict:
    cfg, market = config.sweep_binary, config.market
    curve = sweep_binary(market, cfg.dimension, cfg.grid, cfg.selector)
    bench = benchmarks(market)
    columns = {
        "dimension": cfg.dimension,
        "s_L": [p.s_L for p in curve.points],
        "s_H": [p.s_H for p in curve.points],
        "rho": market.rho,
        "c": market.c,
        "n": market.n,
        "selector": cfg.selector,
        "cutoff_index": [p.equilibrium.cutoff_index for p in curve.points],
        "mixing_prob": [p.equilibrium.mixing_prob for p in curve.points],
        "surplus": [p.surplus for p in curve.points],
        "no_info": bench.no_info,
        "full_info": bench.full_info,
    }
    return {"sweep_binary": columns}


def _cmd_spread(config: RunConfig) -> dict:
    cfg = config.spread
    params = LocalSpreadParams(index=cfg.index, lr_low=OddsRatio(*cfg.lr_low), lr_high=OddsRatio(*cfg.lr_high))
    result = spread_surplus_delta(config.market, params, cfg.selector)
    columns = {
        "index": cfg.index,
        "lr_low": params.lr_low.as_float(),
        "lr_high": params.lr_high.as_float(),
        "selector": cfg.selector,
        "override": result.override.value,
        "predicted_sign": result.predicted_sign.value,
        "surplus_before": result.surplus_before,
        "surplus_after": result.surplus_after,
        "delta": result.delta,
    }
    return {"spread": columns}


def _design_row(report: GarblingReport) -> dict:
    return {
        "D": report.garbling.D,
        "threshold_label": report.garbling.threshold_label,
        "mixing_weight": report.garbling.mixing_weight,
        "is_ic": report.is_ic,
        "is_irrelevant": report.is_irrelevant,
        "F": report.irrelevance_margin,
        "obeyed_surplus": report.obeyed_surplus,
    }


def _cmd_design(config: RunConfig) -> dict:
    from . import design

    market = config.market
    tables = {"design": _design_row(design.optimal_garbling(market))}
    if config.design.emit_grid:
        # _design_row's columns, read off the grid's diagnostics.
        diag = design.garbling_grid(market, config.design.grid_points)
        rows, labels = diag["threshold_row"], market.experiment.labels
        tables["design_grid"] = {
            "D": diag["D"].tolist(),
            "threshold_label": [labels[i] for i in rows.tolist()],
            "mixing_weight": diag["weights"][np.arange(rows.size), rows].tolist(),
            "is_ic": diag["is_ic"].tolist(),
            "is_irrelevant": diag["is_irrelevant"].tolist(),
            "F": diag["margin"].tolist(),
            "obeyed_surplus": diag["obeyed_surplus"].tolist(),
        }
    return tables


def _cmd_simulate(config: RunConfig) -> dict:
    from . import montecarlo

    cfg = config.simulate
    if isinstance(cfg.strategy, str):
        strategy = select_equilibrium(config.market, cfg.strategy).strategy
    else:
        strategy = Strategy(cfg.strategy)
    est = montecarlo.simulate(
        config.market,
        strategy,
        montecarlo.SimConfig(trials=cfg.trials, seed=cfg.seed, focal_buyer=cfg.focal_buyer),
    )
    return {"simulate": {"trials": est.trials, "seed": cfg.seed, **asdict(est)}}


def _repro_table1() -> dict:
    spec = demo_market()
    chain = enumerate_equilibria(spec)
    low, high = spec.experiment.outcomes
    eqs = (chain[-1], chain[0])
    columns = {
        "equilibrium": ["least_selective", "most_selective"],
        "accept_low": [eq.strategy.accept[0] for eq in eqs],
        "accept_high": [eq.strategy.accept[1] for eq in eqs],
        "interim": [eq.interim for eq in eqs],
        "posterior_high": [posterior(eq.interim, high) for eq in eqs],
        "posterior_low": [posterior(eq.interim, low) for eq in eqs],
    }
    return {"table1": columns}


def _repro_table2() -> dict:
    spec = demo_market()
    chain = enumerate_equilibria(spec)
    most, least = chain[0], chain[-1]
    bench = benchmarks(spec)
    trade_all = 1.0 if spec.rho > spec.c else 0.0
    # One column per benchmark or equilibrium, its cells in "quantity" order.
    columns = {
        "quantity": ["trade_prob_H", "trade_prob_L", "total_surplus"],
        "no_info": [trade_all, trade_all, bench.no_info],
        "least_selective": [*_trade_probs(spec, least), least.surplus],
        "most_selective": [*_trade_probs(spec, most), most.surplus],
        "full_info": [1.0, 0.0, bench.full_info],
    }
    return {"table2": columns}


def _repro_section8() -> dict:
    specs = [tight_market(n) for n in range(1, 51)]
    eqs, trade_H, trade_L, given_trade, given_no_trade = [], [], [], [], []
    for spec, chain in zip(specs, enumerate_chains(specs)):
        n = spec.n
        if len(chain) != 1:
            raise NoEquilibriumFound(f"expected a unique equilibrium at n={n}, found {len(chain)}")
        eq = chain[0]
        p_trade_h, p_trade_l = _trade_probs(spec, eq)
        p_trade = spec.rho * p_trade_h + (1.0 - spec.rho) * p_trade_l
        p_no = 1.0 - p_trade
        eqs.append(eq)
        trade_H.append(p_trade_h)
        trade_L.append(p_trade_l)
        given_trade.append(spec.rho * p_trade_h / p_trade if p_trade > 0 else float("nan"))
        given_no_trade.append(spec.rho * eq.r_H**n / p_no if p_no > 0 else float("nan"))
    columns = {
        "n": [spec.n for spec in specs],
        "cutoff_index": [eq.cutoff_index for eq in eqs],
        "mixing_prob": [eq.mixing_prob for eq in eqs],
        "sigma_low": [eq.strategy.accept[0] for eq in eqs],
        "sigma_high": [eq.strategy.accept[1] for eq in eqs],
        "interim": [eq.interim for eq in eqs],
        "r_L": [eq.r_L for eq in eqs],
        "r_H": [eq.r_H for eq in eqs],
        "surplus": [eq.surplus for eq in eqs],
        "trade_prob_H": trade_H,
        "trade_prob_L": trade_L,
        "prob_H_given_trade": given_trade,
        "prob_H_given_no_trade": given_no_trade,
    }
    return {"section8": columns}


def _repro_modified_example() -> dict:
    sizes = range(1, 51)
    chains = enumerate_chains([revealing_market(n) for n in sizes])
    columns = {
        "n": list(sizes),
        "most_selective_surplus": [chain[0].surplus for chain in chains],
        "least_selective_surplus": [chain[-1].surplus for chain in chains],
        "closed_form_most": [0.4 * (1.0 - 0.25**n) for n in sizes],
    }
    return {"modified_example": columns}


REPRO_FIXTURES = {
    "table1": _repro_table1,
    "table2": _repro_table2,
    "section8": _repro_section8,
    "modified-example": _repro_modified_example,
}
# command -> the config section it reads (None: the market alone) and its handler
COMMANDS = {
    "solve": (None, _cmd_solve),
    "sweep-n": ("sweep_n", _cmd_sweep_n),
    "sweep-binary": ("sweep_binary", _cmd_sweep_binary),
    "spread": ("spread", _cmd_spread),
    "design": ("design", _cmd_design),
    "simulate": ("simulate", _cmd_simulate),
}


def _flag_keys(command: str) -> list:
    """The keys of ``command``'s section that a flag can override."""
    section = COMMANDS[command][0]
    keys = fields(_SECTIONS[section]) if section else ()
    return [key for key in keys if key.name in FLAGS]


def _build_parser(command: "str | None" = None) -> argparse.ArgumentParser:
    """The parser, holding only ``command``'s subparser when ``command``
    names one and every command's otherwise (help, a missing or unknown
    command).  Its text is the same either way."""
    parser = argparse.ArgumentParser(
        prog="seqmarket",
        description="Equilibria, comparative statics, information design, and "
        "simulation for sequential-visit trading markets.",
    )
    names = (*COMMANDS, "repro")
    built = (command,) if command in names else names
    # argparse lists the built commands in the usage line, which an
    # "unrecognized arguments" error prints; it lists every command.
    metavar = None if built == names else "{" + ",".join(names) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in built:
        p = sub.add_parser(name)
        p.add_argument("--out", type=Path, default=Path("."), help="output directory for CSVs")
        if name == "repro":
            p.add_argument("fixture", choices=tuple(REPRO_FIXTURES))
            continue
        p.add_argument("--config", type=Path, required=True, help="JSON config path")
        for key in _flag_keys(name):
            kind = key.metadata["kind"]
            options = {"choice": {"choices": key.metadata.get("choices")}, "int": {"type": int}}.get(kind, {})
            p.add_argument(f"--{key.name}", help=FLAGS[key.name], **options)
    return parser


def _parse_grid_flag(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"--grid expects start:stop:count, got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValidationError(f"--grid expects numbers, got {text!r}") from exc
    if count < 1:
        raise ValidationError(f"--grid count must be positive, got {count}")
    if count > 2**53:
        raise ValidationError(f"--grid count must be at most {2**53}, got {count}")
    return [float(x) for x in np.linspace(start, stop, count)]


def _apply_overrides(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    """The config with the command's flags applied; a flag is held to the
    bounds of the config key it replaces."""
    overrides = {}
    for key in _flag_keys(args.command):
        value = getattr(args, key.name)
        if value is not None:
            value = _parse_grid_flag(value) if key.name == "grid" else value
            overrides[key.name] = _value(key, value, f"--{key.name}")
    name = COMMANDS[args.command][0]
    if not overrides or getattr(config, name) is None:
        return config
    return replace(config, **{name: replace(getattr(config, name), **overrides)})


def run(command: str, config: RunConfig, out: Path) -> list[Path]:
    """Execute one command against a parsed config; returns written paths."""
    section, handler = COMMANDS[command]
    if section is not None and getattr(config, section) is None:
        raise ValidationError(f"config has no {section} section")
    return _write_csvs(out, handler(config))


def main(argv: "list[str] | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        if args.command == "repro":
            paths = _write_csvs(args.out, REPRO_FIXTURES[args.fixture]())
        else:
            try:
                text = args.config.read_text(encoding="utf-8")
            except OSError as exc:
                raise ValidationError(f"cannot read config: {exc}") from exc
            config = _apply_overrides(parse_config(text), args)
            paths = run(args.command, config, args.out)
    except MarketModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"resource failure: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
