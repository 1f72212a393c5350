"""Command-line front end: JSON config in, CSV artifacts out.

Commands: solve, sweep-n, sweep-binary, spread, design, simulate, and repro
(bundled reference scenarios).  Every command is deterministic given its
config, so repeated runs produce byte-identical CSVs.  Exit codes: 0 success,
1 numerical failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import design as design_mod
from . import montecarlo
from .equilibrium import (
    Equilibrium,
    MarketSpec,
    Strategy,
    benchmarks,
    enumerate_chains,
    enumerate_equilibria,
    select_equilibrium,
)
from .errors import MarketModelError, NoEquilibriumFound, SchemaError, ValidationError
from .experiment import LocalSpreadParams, OddsRatio, build_experiment
from .scenarios import demo_market, revealing_market, tight_market
from .statics import spread_surplus_delta, surplus_vs_n, sweep_binary

SCHEMA_VERSION = 1
COMMANDS = ("solve", "sweep-n", "sweep-binary", "spread", "design", "simulate", "repro")
REPRO_FIXTURES = ("table1", "table2", "section8", "modified-example")


@dataclass(frozen=True)
class SweepNConfig:
    n_max: int


@dataclass(frozen=True)
class SweepBinaryConfig:
    dimension: str
    grid: tuple[float, ...]
    selector: str = "most"


@dataclass(frozen=True)
class SpreadConfig:
    index: int
    lr_low: tuple[float, float]
    lr_high: tuple[float, float]
    selector: str = "most"


@dataclass(frozen=True)
class DesignConfig:
    emit_grid: bool = False
    grid_points: int = 201


@dataclass(frozen=True)
class SimulateConfig:
    trials: int
    seed: int
    focal_buyer: int | None = None
    strategy: "str | tuple[float, ...]" = "most"


@dataclass(frozen=True)
class RunConfig:
    market: MarketSpec
    sweep_n: SweepNConfig | None = None
    sweep_binary: SweepBinaryConfig | None = None
    spread: SpreadConfig | None = None
    design: DesignConfig = field(default_factory=DesignConfig)
    simulate: SimulateConfig | None = None


def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ValidationError(f"{where}: unknown key(s) {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ValidationError(f"{where}: missing key(s) {sorted(missing)}")


def _number(obj: dict, key: str, where: str, lo: float | None = None, hi: float | None = None) -> float:
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where}.{key}: expected a number, got {value!r}")
    v = float(value)
    if lo is not None and v < lo or hi is not None and v > hi:
        raise ValidationError(f"{where}.{key}: {v} outside [{lo}, {hi}]")
    return v


def _integer(obj: dict, key: str, where: str, lo: int | None = None) -> int:
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{where}.{key}: expected an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ValidationError(f"{where}.{key}: {value} below minimum {lo}")
    return value


def _odds_pair(value, where: str) -> tuple[float, float]:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (float(value), 1.0)
    if (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)
    ):
        return (float(value[0]), float(value[1]))
    raise ValidationError(f"{where}: expected a number or a [num, den] pair, got {value!r}")


def _parse_market(obj, where: str = "market") -> MarketSpec:
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: expected an object")
    _require_keys(obj, {"rho", "c", "n", "experiment"}, {"rho", "c", "n", "experiment"}, where)
    rho = _number(obj, "rho", where, 0.0, 1.0)
    c = _number(obj, "c", where, 0.0, 1.0)
    n = _integer(obj, "n", where, 1)
    exp_obj = obj["experiment"]
    if not isinstance(exp_obj, list) or not exp_obj:
        raise ValidationError(f"{where}.experiment: expected a nonempty array")
    pairs = []
    for i, entry in enumerate(exp_obj):
        entry_where = f"{where}.experiment[{i}]"
        if not isinstance(entry, dict):
            raise ValidationError(f"{entry_where}: expected an object with p_L and p_H")
        _require_keys(entry, {"p_L", "p_H"}, {"p_L", "p_H"}, entry_where)
        pairs.append((_number(entry, "p_L", entry_where, 0.0), _number(entry, "p_H", entry_where, 0.0)))
    try:
        experiment = build_experiment(pairs)
        return MarketSpec(rho, c, n, experiment)
    except MarketModelError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _parse_selector(obj: dict, where: str) -> str:
    selector = obj.get("selector", "most")
    if selector not in ("most", "least"):
        raise ValidationError(f"{where}.selector: expected 'most' or 'least', got {selector!r}")
    return selector


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a JSON config document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("config root must be a JSON object")
    allowed = {"schema_version", "market", "solve", "sweep_n", "sweep_binary", "spread", "design", "simulate"}
    _require_keys(doc, allowed, {"schema_version", "market"}, "config")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version {doc['schema_version']!r}; this tool reads {SCHEMA_VERSION}")
    market = _parse_market(doc["market"])

    sweep_n = None
    if "sweep_n" in doc:
        obj = doc["sweep_n"]
        _require_keys(obj, {"n_max"}, {"n_max"}, "sweep_n")
        sweep_n = SweepNConfig(n_max=_integer(obj, "n_max", "sweep_n", 1))

    sweep_bin = None
    if "sweep_binary" in doc:
        obj = doc["sweep_binary"]
        _require_keys(obj, {"dimension", "grid", "selector"}, {"dimension", "grid"}, "sweep_binary")
        dimension = obj["dimension"]
        if dimension not in ("bad", "good"):
            raise ValidationError(f"sweep_binary.dimension: expected 'bad' or 'good', got {dimension!r}")
        grid_obj = obj["grid"]
        if not isinstance(grid_obj, list) or not grid_obj:
            raise ValidationError("sweep_binary.grid: expected a nonempty array of labels")
        grid = tuple(
            _number({"g": g}, "g", f"sweep_binary.grid[{i}]") for i, g in enumerate(grid_obj)
        )
        sweep_bin = SweepBinaryConfig(dimension, grid, _parse_selector(obj, "sweep_binary"))

    spread = None
    if "spread" in doc:
        obj = doc["spread"]
        _require_keys(obj, {"index", "lr_low", "lr_high", "selector"}, {"index", "lr_low", "lr_high"}, "spread")
        spread = SpreadConfig(
            index=_integer(obj, "index", "spread", 0),
            lr_low=_odds_pair(obj["lr_low"], "spread.lr_low"),
            lr_high=_odds_pair(obj["lr_high"], "spread.lr_high"),
            selector=_parse_selector(obj, "spread"),
        )

    design = DesignConfig()
    if "design" in doc:
        obj = doc["design"]
        _require_keys(obj, {"emit_grid", "grid_points"}, set(), "design")
        emit = obj.get("emit_grid", False)
        if not isinstance(emit, bool):
            raise ValidationError(f"design.emit_grid: expected a boolean, got {emit!r}")
        points = obj.get("grid_points", 201)
        if isinstance(points, bool) or not isinstance(points, int) or points < 2:
            raise ValidationError(f"design.grid_points: expected an integer >= 2, got {points!r}")
        design = DesignConfig(emit_grid=emit, grid_points=points)

    simulate = None
    if "simulate" in doc:
        obj = doc["simulate"]
        _require_keys(obj, {"trials", "seed", "focal_buyer", "strategy"}, {"trials", "seed"}, "simulate")
        focal = obj.get("focal_buyer")
        if focal is not None:
            focal = _integer(obj, "focal_buyer", "simulate", 0)
        strategy_obj = obj.get("strategy", "most")
        strategy: str | tuple[float, ...]
        if isinstance(strategy_obj, str):
            if strategy_obj not in ("most", "least"):
                raise ValidationError(
                    f"simulate.strategy: expected 'most', 'least', or an array, got {strategy_obj!r}"
                )
            strategy = strategy_obj
        elif isinstance(strategy_obj, list):
            strategy = tuple(
                _number({"a": a}, "a", f"simulate.strategy[{i}]", 0.0, 1.0)
                for i, a in enumerate(strategy_obj)
            )
            if len(strategy) != market.experiment.m:
                raise ValidationError(
                    f"simulate.strategy: has {len(strategy)} entries for {market.experiment.m} outcomes"
                )
        else:
            raise ValidationError(f"simulate.strategy: unsupported value {strategy_obj!r}")
        simulate = SimulateConfig(
            trials=_integer(obj, "trials", "simulate", 1),
            seed=_integer(obj, "seed", "simulate", 0),
            focal_buyer=focal,
            strategy=strategy,
        )

    return RunConfig(market, sweep_n, sweep_bin, spread, design, simulate)


def serialize_config(config: RunConfig) -> str:
    """Canonical JSON for a RunConfig; reparses to an equal config."""
    doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "market": {
            "rho": config.market.rho,
            "c": config.market.c,
            "n": config.market.n,
            "experiment": [
                {"p_L": o.p_L, "p_H": o.p_H} for o in config.market.experiment.outcomes
            ],
        },
    }
    if config.sweep_n is not None:
        doc["sweep_n"] = {"n_max": config.sweep_n.n_max}
    if config.sweep_binary is not None:
        doc["sweep_binary"] = {
            "dimension": config.sweep_binary.dimension,
            "grid": list(config.sweep_binary.grid),
            "selector": config.sweep_binary.selector,
        }
    if config.spread is not None:
        doc["spread"] = {
            "index": config.spread.index,
            "lr_low": list(config.spread.lr_low),
            "lr_high": list(config.spread.lr_high),
            "selector": config.spread.selector,
        }
    doc["design"] = {
        "emit_grid": config.design.emit_grid,
        "grid_points": config.design.grid_points,
    }
    if config.simulate is not None:
        doc["simulate"] = {
            "trials": config.simulate.trials,
            "seed": config.simulate.seed,
            "focal_buyer": config.simulate.focal_buyer,
            "strategy": config.simulate.strategy
            if isinstance(config.simulate.strategy, str)
            else list(config.simulate.strategy),
        }
    return json.dumps(doc, indent=2, sort_keys=True)


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def _write_csv(path: Path, header: "list[str]", rows: "list[list]") -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _equilibrium_row(eq: Equilibrium) -> list:
    return [eq.cutoff_index, eq.mixing_prob, eq.interim, eq.r_L, eq.r_H, eq.surplus]


EQUILIBRIUM_HEADER = ["cutoff_index", "mixing_prob", "interim", "r_L", "r_H", "surplus"]


def _cmd_solve(config: RunConfig, out: Path) -> list[Path]:
    chain = enumerate_equilibria(config.market)
    path = out / "solve.csv"
    _write_csv(path, EQUILIBRIUM_HEADER, [_equilibrium_row(eq) for eq in chain])
    return [path]


def _cmd_sweep_n(config: RunConfig, out: Path) -> list[Path]:
    if config.sweep_n is None:
        raise ValidationError("config has no sweep_n section")
    result = surplus_vs_n(config.market, config.sweep_n.n_max)
    bench = benchmarks(config.market)
    cutover = result.eventual_monotone_from
    rows = [
        [
            p.n,
            p.most_selective_surplus,
            p.least_selective_surplus,
            bench.no_info,
            bench.full_info,
            result.limit_class.value,
            result.predicted_limit,
            "" if cutover is None else cutover,
        ]
        for p in result.records
    ]
    path = out / "sweep_n.csv"
    _write_csv(
        path,
        [
            "n",
            "most_selective_surplus",
            "least_selective_surplus",
            "no_info",
            "full_info",
            "limit_class",
            "predicted_limit",
            "eventual_monotone_from",
        ],
        rows,
    )
    return [path]


def _cmd_sweep_binary(config: RunConfig, out: Path) -> list[Path]:
    if config.sweep_binary is None:
        raise ValidationError("config has no sweep_binary section")
    cfg = config.sweep_binary
    curve = sweep_binary(config.market, cfg.dimension, list(cfg.grid), cfg.selector)
    bench = benchmarks(config.market)
    rows = [
        [
            cfg.dimension,
            p.s_L,
            p.s_H,
            config.market.rho,
            config.market.c,
            config.market.n,
            cfg.selector,
            p.equilibrium.cutoff_index,
            p.equilibrium.mixing_prob,
            p.surplus,
            bench.no_info,
            bench.full_info,
        ]
        for p in curve.points
    ]
    path = out / "sweep_binary.csv"
    _write_csv(
        path,
        ["dimension", "s_L", "s_H", "rho", "c", "n", "selector", "cutoff_index", "mixing_prob", "surplus", "no_info", "full_info"],
        rows,
    )
    return [path]


def _cmd_spread(config: RunConfig, out: Path) -> list[Path]:
    if config.spread is None:
        raise ValidationError("config has no spread section")
    cfg = config.spread
    params = LocalSpreadParams(
        index=cfg.index,
        lr_low=OddsRatio(*cfg.lr_low),
        lr_high=OddsRatio(*cfg.lr_high),
    )
    result = spread_surplus_delta(config.market, params, cfg.selector)
    path = out / "spread.csv"
    _write_csv(
        path,
        ["index", "lr_low", "lr_high", "selector", "override", "predicted_sign", "surplus_before", "surplus_after", "delta"],
        [
            [
                cfg.index,
                OddsRatio(*cfg.lr_low).as_float(),
                OddsRatio(*cfg.lr_high).as_float(),
                cfg.selector,
                result.override.value,
                result.predicted_sign.value,
                result.surplus_before,
                result.surplus_after,
                result.delta,
            ]
        ],
    )
    return [path]


DESIGN_HEADER = ["D", "threshold_label", "mixing_weight", "is_ic", "is_irrelevant", "F", "obeyed_surplus"]


def _design_row(report: design_mod.GarblingReport) -> list:
    return [
        report.garbling.D,
        report.garbling.threshold_label,
        report.garbling.mixing_weight,
        report.is_ic,
        report.is_irrelevant,
        report.irrelevance_margin,
        report.obeyed_surplus,
    ]


def _cmd_design(config: RunConfig, out: Path) -> list[Path]:
    report = design_mod.optimal_garbling(config.market)
    paths = [out / "design.csv"]
    _write_csv(paths[0], DESIGN_HEADER, [_design_row(report)])
    if config.design.emit_grid:
        grid_path = out / "design_grid.csv"
        reports = design_mod.garbling_grid(config.market, config.design.grid_points)
        _write_csv(grid_path, DESIGN_HEADER, [_design_row(r) for r in reports])
        paths.append(grid_path)
    return paths


def _cmd_simulate(config: RunConfig, out: Path) -> list[Path]:
    if config.simulate is None:
        raise ValidationError("config has no simulate section")
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
    row = [
        cfg.trials,
        cfg.seed,
        est.trade_prob_H,
        est.trade_prob_H_se,
        est.trade_prob_L,
        est.trade_prob_L_se,
        est.surplus,
        est.surplus_se,
        est.prob_H_given_trade,
        est.prob_H_given_trade_se,
        est.prob_H_given_no_trade,
        est.prob_H_given_no_trade_se,
        "" if est.interim_estimate is None else est.interim_estimate,
        "" if est.interim_se is None else est.interim_se,
    ]
    path = out / "simulate.csv"
    _write_csv(
        path,
        [
            "trials",
            "seed",
            "trade_prob_H",
            "trade_prob_H_se",
            "trade_prob_L",
            "trade_prob_L_se",
            "surplus",
            "surplus_se",
            "prob_H_given_trade",
            "prob_H_given_trade_se",
            "prob_H_given_no_trade",
            "prob_H_given_no_trade_se",
            "interim_estimate",
            "interim_se",
        ],
        [row],
    )
    return [path]


def _posterior_from(interim: float, p_l: float, p_h: float) -> float:
    num = interim * p_h
    return num / (num + (1.0 - interim) * p_l)


def _repro_table1(out: Path) -> list[Path]:
    spec = demo_market()
    chain = enumerate_equilibria(spec)
    rows = []
    for name, eq in (("least_selective", chain[-1]), ("most_selective", chain[0])):
        low, high = spec.experiment.outcomes
        rows.append(
            [
                name,
                eq.strategy.accept[0],
                eq.strategy.accept[1],
                eq.interim,
                _posterior_from(eq.interim, high.p_L, high.p_H),
                _posterior_from(eq.interim, low.p_L, low.p_H),
            ]
        )
    path = out / "table1.csv"
    _write_csv(path, ["equilibrium", "accept_low", "accept_high", "interim", "posterior_high", "posterior_low"], rows)
    return [path]


def _repro_table2(out: Path) -> list[Path]:
    spec = demo_market()
    chain = enumerate_equilibria(spec)
    most, least = chain[0], chain[-1]
    bench = benchmarks(spec)
    trade_all = 1.0 if spec.rho > spec.c else 0.0
    rows = [
        ["trade_prob_H", trade_all, 1.0 - least.r_H**spec.n, 1.0 - most.r_H**spec.n, 1.0],
        ["trade_prob_L", trade_all, 1.0 - least.r_L**spec.n, 1.0 - most.r_L**spec.n, 0.0],
        ["total_surplus", bench.no_info, least.surplus, most.surplus, bench.full_info],
    ]
    path = out / "table2.csv"
    _write_csv(path, ["quantity", "no_info", "least_selective", "most_selective", "full_info"], rows)
    return [path]


def _repro_section8(out: Path) -> list[Path]:
    specs = [tight_market(n) for n in range(1, 51)]
    rows = []
    for spec, chain in zip(specs, enumerate_chains(specs)):
        n = spec.n
        if len(chain) != 1:
            raise NoEquilibriumFound(f"expected a unique equilibrium at n={n}, found {len(chain)}")
        eq = chain[0]
        p_trade_h = 1.0 - eq.r_H**n
        p_trade_l = 1.0 - eq.r_L**n
        p_trade = spec.rho * p_trade_h + (1.0 - spec.rho) * p_trade_l
        p_h_trade = spec.rho * p_trade_h / p_trade if p_trade > 0 else float("nan")
        p_no = 1.0 - p_trade
        p_h_no = spec.rho * eq.r_H**n / p_no if p_no > 0 else float("nan")
        rows.append(
            [
                n,
                eq.cutoff_index,
                eq.mixing_prob,
                eq.strategy.accept[0],
                eq.strategy.accept[1],
                eq.interim,
                eq.r_L,
                eq.r_H,
                eq.surplus,
                p_trade_h,
                p_trade_l,
                p_h_trade,
                p_h_no,
            ]
        )
    path = out / "section8.csv"
    _write_csv(
        path,
        [
            "n",
            "cutoff_index",
            "mixing_prob",
            "sigma_low",
            "sigma_high",
            "interim",
            "r_L",
            "r_H",
            "surplus",
            "trade_prob_H",
            "trade_prob_L",
            "prob_H_given_trade",
            "prob_H_given_no_trade",
        ],
        rows,
    )
    return [path]


def _repro_modified_example(out: Path) -> list[Path]:
    rows = []
    chains = enumerate_chains([revealing_market(n) for n in range(1, 51)])
    for n, chain in enumerate(chains, 1):
        closed_form = 0.4 * (1.0 - 0.25**n)
        rows.append([n, chain[0].surplus, chain[-1].surplus, closed_form])
    path = out / "modified_example.csv"
    _write_csv(path, ["n", "most_selective_surplus", "least_selective_surplus", "closed_form_most"], rows)
    return [path]


def _cmd_repro(fixture: str, out: Path) -> list[Path]:
    dispatch = {
        "table1": _repro_table1,
        "table2": _repro_table2,
        "section8": _repro_section8,
        "modified-example": _repro_modified_example,
    }
    return dispatch[fixture](out)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqmarket",
        description="Equilibria, comparative statics, information design, and "
        "simulation for sequential-visit trading markets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--out", type=Path, default=Path("."), help="output directory for CSVs")
        if name == "repro":
            p.add_argument("fixture", choices=REPRO_FIXTURES)
            continue
        p.add_argument("--config", type=Path, required=True, help="JSON config path")
        if name in ("sweep-binary", "spread"):
            p.add_argument("--selector", choices=("most", "least"))
        if name == "sweep-binary":
            p.add_argument("--grid", help="override grid as start:stop:count")
        if name == "simulate":
            p.add_argument("--trials", type=int)
            p.add_argument("--seed", type=int)
    return parser


def _parse_grid_flag(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"--grid expects start:stop:count, got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValidationError(f"--grid expects numbers, got {text!r}") from exc
    if count < 1:
        raise ValidationError(f"--grid count must be positive, got {count}")
    return tuple(float(x) for x in np.linspace(start, stop, count))


def _apply_overrides(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    sweep_bin = config.sweep_binary
    if getattr(args, "grid", None) is not None and sweep_bin is not None:
        sweep_bin = SweepBinaryConfig(sweep_bin.dimension, _parse_grid_flag(args.grid), sweep_bin.selector)
    if getattr(args, "selector", None) is not None:
        if sweep_bin is not None:
            sweep_bin = SweepBinaryConfig(sweep_bin.dimension, sweep_bin.grid, args.selector)
        if config.spread is not None:
            config = RunConfig(
                config.market,
                config.sweep_n,
                sweep_bin,
                SpreadConfig(config.spread.index, config.spread.lr_low, config.spread.lr_high, args.selector),
                config.design,
                config.simulate,
            )
            return config
    simulate = config.simulate
    if simulate is not None:
        trials = getattr(args, "trials", None) or simulate.trials
        seed = getattr(args, "seed", None)
        seed = simulate.seed if seed is None else seed
        simulate = SimulateConfig(trials, seed, simulate.focal_buyer, simulate.strategy)
    return RunConfig(config.market, config.sweep_n, sweep_bin, config.spread, config.design, simulate)


def run(command: str, config: RunConfig, out: Path) -> list[Path]:
    """Execute one command against a parsed config; returns written paths."""
    out.mkdir(parents=True, exist_ok=True)
    dispatch = {
        "solve": _cmd_solve,
        "sweep-n": _cmd_sweep_n,
        "sweep-binary": _cmd_sweep_binary,
        "spread": _cmd_spread,
        "design": _cmd_design,
        "simulate": _cmd_simulate,
    }
    return dispatch[command](config, out)


def main(argv: "list[str] | None" = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "repro":
            args.out.mkdir(parents=True, exist_ok=True)
            paths = _cmd_repro(args.fixture, args.out)
        else:
            try:
                text = args.config.read_text(encoding="utf-8")
            except OSError as exc:
                print(f"error: cannot read config: {exc}", file=sys.stderr)
                return 2
            config = _apply_overrides(parse_config(text), args)
            paths = run(args.command, config, args.out)
    except (SchemaError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MarketModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
