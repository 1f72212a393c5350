"""Output checks, one per op kind, run on the op's own CSV.

Pure Python: the expected values come from the generated config (masses,
rho, c, n, grids) and closed forms, never from the program under test.  A
check returns the list of problems it found; an empty list is a pass.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction
from pathlib import Path

SURPLUS_SLACK = 1e-12
LIMIT_TOL = 0.01  # |surplus(n_max) - predicted limit|
CSV_REL_TOL = 1e-11  # two 12-significant-digit renderings of one value
DESIGN_TOL = 1e-9
MC_BAND = 5.0  # standard errors; wider than criterion 08's 3 so a new seed gives no false alarm


def _rows(path: Path) -> list[dict]:
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _num(text: str) -> float:
    return math.nan if text == "" else float(text)


def _close(a: float, b: float, rel: float = CSV_REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


class _Market:
    """The generated market, cells sorted by likelihood ratio as the program
    sorts them (exact ratio order, ties kept in input order)."""

    def __init__(self, doc: dict) -> None:
        self.rho, self.c, self.n = doc["rho"], doc["c"], doc["n"]
        cells = [(o["p_L"], o["p_H"]) for o in doc["experiment"]]
        key = lambda cell: (1, Fraction(0)) if cell[0] == 0 else (0, Fraction(cell[1]) / Fraction(cell[0]))  # noqa: E731
        self.cells = sorted((cell for cell in cells if cell[0] + cell[1] > 0), key=key)
        self.full_info = self.rho * (1.0 - self.c)
        self.no_info = max(0.0, self.rho - self.c)
        top_l, top_h = self.cells[-1]
        self.revealing_top = top_l == 0.0 and top_h > 0.0

    def surplus_in_range(self, value: float) -> bool:
        return -SURPLUS_SLACK <= value <= self.full_info + SURPLUS_SLACK


def _surplus_problems(market: _Market, rows: list[dict], columns: tuple[str, ...]) -> list[str]:
    problems = []
    for row in rows:
        for col in columns:
            if not market.surplus_in_range(_num(row[col])):
                problems.append(f"{col}={row[col]} outside [0, full_info={market.full_info:.6g}]")
    return problems


def check_sweep_n(config: dict, out: Path, _extra: dict) -> list[str]:
    market = _Market(config["market"])
    n_max = config["sweep_n"]["n_max"]
    rows = _rows(out / "sweep_n.csv")
    problems = []
    if [int(r["n"]) for r in rows] != list(range(1, n_max + 1)):
        return [f"expected one row per n = 1..{n_max}, got {len(rows)} rows"]
    expected = "full_info" if market.revealing_top else "no_info"
    if any(r["limit_class"] != expected for r in rows):
        problems.append(f"limit_class is not {expected!r} (top-outcome test)")
    problems += _surplus_problems(market, rows, ("most_selective_surplus", "least_selective_surplus"))
    limit = market.full_info if market.revealing_top else market.no_info
    last = _num(rows[-1]["most_selective_surplus"])
    if not abs(last - limit) <= LIMIT_TOL:
        problems.append(f"surplus at n={n_max} is {last:.6g}, predicted limit {limit:.6g}")
    return problems


def check_section8(_config, out: Path, _extra: dict) -> list[str]:
    market = _Market({"rho": 0.5, "c": 0.6, "n": 1, "experiment": [{"p_L": 0.8, "p_H": 0.2}, {"p_L": 0.2, "p_H": 0.8}]})
    rows = _rows(out / "section8.csv")
    if [int(r["n"]) for r in rows] != list(range(1, 51)):
        return [f"expected one row per n = 1..50, got {len(rows)} rows"]
    return _surplus_problems(market, rows, ("surplus",))


def check_modified_example(_config, out: Path, _extra: dict) -> list[str]:
    rows = _rows(out / "modified_example.csv")
    if [int(r["n"]) for r in rows] != list(range(1, 51)):
        return [f"expected one row per n = 1..50, got {len(rows)} rows"]
    return [
        f"n={r['n']}: most-selective surplus {r['most_selective_surplus']} != closed form {r['closed_form_most']}"
        for r in rows
        if not _close(_num(r["most_selective_surplus"]), _num(r["closed_form_most"]))
    ]


def check_sweep_binary(config: dict, out: Path, _extra: dict) -> list[str]:
    market = _Market(config["market"])
    section = config["sweep_binary"]
    rows = _rows(out / "sweep_binary.csv")
    if len(rows) != len(section["grid"]):
        return [f"expected {len(section['grid'])} rows, got {len(rows)}"]
    column = "s_L" if section["dimension"] == "bad" else "s_H"
    problems = [
        f"row {i}: {column}={r[column]} but the grid point is {g!r}"
        for i, (r, g) in enumerate(zip(rows, section["grid"]))
        if not _close(_num(r[column]), g)
    ]
    return problems + _surplus_problems(market, rows, ("surplus",))


def check_spread(config: dict, out: Path, _extra: dict) -> list[str]:
    market = _Market(config["market"])
    rows = _rows(out / "spread.csv")
    if len(rows) != 1:
        return [f"expected one row, got {len(rows)}"]
    row = rows[0]
    problems = _surplus_problems(market, rows, ("surplus_before", "surplus_after"))
    if row["override"] not in ("negative", "positive", "undefined"):
        problems.append(f"unknown override class {row['override']!r}")
    if row["predicted_sign"] not in ("non_negative", "non_positive", "indeterminate"):
        problems.append(f"unknown predicted sign {row['predicted_sign']!r}")
    before, after, delta = (_num(row[k]) for k in ("surplus_before", "surplus_after", "delta"))
    if not abs(delta - (after - before)) <= 1e-11:
        problems.append(f"delta {delta} != surplus_after - surplus_before")
    return problems


def check_design(config: dict, out: Path, _extra: dict) -> list[str]:
    best = _rows(out / "design.csv")
    grid = _rows(out / "design_grid.csv")
    if len(best) != 1:
        return [f"design.csv: expected one row, got {len(best)}"]
    points = config["design"]["grid_points"]
    if len(grid) != points:
        return [f"design_grid.csv: expected {points} rows, got {len(grid)}"]
    problems = []
    if best[0]["is_ic"] != "true":
        problems.append("the optimal garbling is not incentive compatible")
    top = _num(best[0]["obeyed_surplus"])
    for row in grid:
        if row["is_ic"] == "true" and _num(row["obeyed_surplus"]) > top + DESIGN_TOL:
            problems.append(f"IC grid point D={row['D']} has obeyed surplus {row['obeyed_surplus']} above the optimum {top}")
    return problems


def check_thresholds(config: dict, _out, extra: dict) -> list[str]:
    market = _Market(config["market"])
    values = extra["thresholds"]
    problems = [f"threshold {v!r} outside [0, 0.5]" for v in values if not 0.0 <= v <= 0.5]
    odds = (market.c / (1.0 - market.c)) / (market.rho / (1.0 - market.rho))
    mute = odds / (1.0 + odds)
    if not abs(values[0] - mute) <= 1e-12:
        problems.append(f"s_L_mute {values[0]!r} != label of cost odds over prior odds {mute!r}")
    return problems


def _geometric(r: float, n: int) -> float:
    return float(n) if r == 1.0 else (1.0 - r**n) / (1.0 - r)


def check_simulate(config: dict, out: Path, extra: dict) -> list[str]:
    """Every estimate within MC_BAND standard errors of the analytic value
    for the strategy that was simulated.

    The standard error is the larger of the reported one and the analytic
    one (the estimator's spread at the analytic value over the expected
    number of conditioning trials).  The reported binomial error is 0 when
    an estimate is exactly 0 or 1, which happens for rare events.
    """
    market = _Market(config["market"])
    rows = _rows(out / "simulate.csv")
    if len(rows) != 1:
        return [f"expected one row, got {len(rows)}"]
    row = rows[0]
    sigma = extra["strategy"]
    if len(sigma) != len(market.cells):
        return [f"strategy has {len(sigma)} entries for {len(market.cells)} outcomes"]
    rho, c, n = market.rho, market.c, market.n
    trials = config["simulate"]["trials"]
    r_l = min(1.0, max(0.0, 1.0 - sum(a * s for (a, _), s in zip(market.cells, sigma))))
    r_h = min(1.0, max(0.0, 1.0 - sum(b * s for (_, b), s in zip(market.cells, sigma))))
    trade_h, trade_l = 1.0 - r_h**n, 1.0 - r_l**n
    trade = rho * trade_h + (1.0 - rho) * trade_l
    surplus = (1.0 - c) * rho * trade_h - c * (1.0 - rho) * trade_l
    square = (1.0 - c) ** 2 * rho * trade_h + c**2 * (1.0 - rho) * trade_l
    # name: (analytic value, expected number of trials it is estimated from)
    expected = {
        "trade_prob_H": (trade_h, rho * trials),
        "trade_prob_L": (trade_l, (1.0 - rho) * trials),
        "prob_H_given_trade": (rho * trade_h / trade if trade > 0.0 else math.nan, trade * trials),
        "prob_H_given_no_trade": (rho * r_h**n / (1.0 - trade) if trade < 1.0 else math.nan, (1.0 - trade) * trials),
    }
    if config["simulate"].get("focal_buyer") is not None:
        g_h, g_l = rho * _geometric(r_h, n), (1.0 - rho) * _geometric(r_l, n)
        expected["interim"] = (g_h / (g_h + g_l), (g_h + g_l) / n * trials)
    analytic_se = {
        name: math.sqrt(max(p * (1.0 - p), 0.0) / count) if count > 0 and not math.isnan(p) else math.nan
        for name, (p, count) in expected.items()
    }
    expected = {name: p for name, (p, _) in expected.items()}
    expected["surplus"] = surplus
    analytic_se["surplus"] = math.sqrt(max(square - surplus**2, 0.0) / trials)
    problems = []
    for name, want in expected.items():
        key = "interim_estimate" if name == "interim" else name
        se_key = "interim_se" if name == "interim" else f"{name}_se"
        got, se = _num(row[key]), max(_num(row[se_key]), analytic_se[name])
        if math.isnan(want):  # conditioning on an event of probability 0
            if not math.isnan(got):
                problems.append(f"{name}: got {got}, expected undefined")
            continue
        if math.isnan(got):  # the conditioning event was never drawn
            continue
        if not abs(got - want) <= MC_BAND * se + 1e-12:
            problems.append(f"{name}: {got:.6g} vs analytic {want:.6g} (se {se:.3g})")
    return problems


def check(op: dict, config: dict | None, out: Path, extra: dict) -> list[str]:
    if op["kind"] == "repro":
        return {"section8": check_section8, "modified-example": check_modified_example}[op["fixture"]](config, out, extra)
    return {
        "sweep_n": check_sweep_n,
        "sweep_binary": check_sweep_binary,
        "spread": check_spread,
        "design": check_design,
        "thresholds": check_thresholds,
        "simulate": check_simulate,
    }[op["kind"]](config, out, extra)
