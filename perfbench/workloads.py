"""Seeded input generator and the op plan of each workload.

Everything here is pure Python and never imports the program, so the inputs
depend only on the seed: the same seed gives byte-identical config files on
every commit.  Masses are whole multiples of 1/1024 and rho/c are multiples
of 1/1024 (or 1/16), so every value is exact in binary floating point and
the exact-indifference markets really are indifferent, not just close.

A workload is a list of ops.  One measured pass runs every op of the list
once, in a fresh interpreter.  Each op is one CLI command (``argv`` for
``seqmarket.cli.main``) or one ``statics.binary_thresholds`` call on a
config's market.  The cost-determining properties of every op (command, m,
n, grid size, trials, focal buyer, IC or not) are fixed per slot; the seed
only moves the values inside each slot, so the op mix, and with it the
medians, stays the same from seed to seed.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

UNITS = 1024  # masses are integer multiples of 1/UNITS
MIN_UNITS = 48  # smallest mass of a non-revealing cell (about 0.047)
MAX_TOP_LR = 8  # bound on the top likelihood ratio of an interior experiment
N_MAX = 200
BINARY_GRID_POINTS = 201
DESIGN_GRID_POINTS = 401
MC_TRIALS = 1_000_000
PROBE_TRIALS = 300_000
PROBES = 5  # probe ops per kind and pass
WORKLOADS = ("size_sweep", "info_design", "mc_oracle")

# Bundled reference markets (scenarios.py), restated as configs.
DEMO = {"rho": 0.5, "c": 0.2, "pairs": [(0.8, 0.2), (0.2, 0.8)]}
TIGHT = {"rho": 0.5, "c": 0.6, "pairs": [(0.8, 0.2), (0.2, 0.8)]}
REVEALING = {"rho": 0.5, "c": 0.2, "pairs": [(1.0, 0.25), (0.0, 0.75)]}


# ---------------------------------------------------------------- markets


def _int(rng: random.Random, lo: int, hi: int) -> int:
    """Uniform integer in [lo, hi] from ``random()`` alone, whose stream is
    stable across Python versions (``randint`` has changed before)."""
    return lo + int(rng.random() * (hi - lo + 1))


def _units(rng: random.Random, total: int, parts: int, floor: int) -> list[int]:
    """``parts`` integers of at least ``floor`` that sum to ``total``."""
    weights = [0.2 + rng.random() for _ in range(parts)]
    spare = total - parts * floor
    scale = spare / sum(weights)
    out = [floor + int(w * scale) for w in weights]
    out[max(range(parts), key=lambda i: weights[i])] += total - sum(out)
    return out


def _lr_key(pair: tuple[int, int]):
    p_l, p_h = pair
    return (1, Fraction(0)) if p_l == 0 else (0, Fraction(p_h, p_l))


def _sorted_pairs(p_l: list[int], p_h: list[int]) -> list[tuple[int, int]]:
    return sorted(zip(p_l, p_h), key=_lr_key)


def _experiment(rng: random.Random, m: int, revealing: bool) -> list[tuple[int, int]]:
    """``m`` (p_L, p_H) unit pairs sorted by likelihood ratio.  A revealing
    experiment has a top cell with ``p_L == 0``; an interior one has every
    ratio finite and the top one at most MAX_TOP_LR."""
    while True:
        p_h = _units(rng, UNITS, m, MIN_UNITS)
        if revealing:
            p_l = _units(rng, UNITS, m - 1, MIN_UNITS) + [0]
            rest = sorted(zip(p_l[:-1], p_h[:-1]), key=_lr_key)
            return rest + [(0, p_h[-1])]
        pairs = _sorted_pairs(_units(rng, UNITS, m, MIN_UNITS), p_h)
        top_l, top_h = pairs[-1]
        if top_h <= MAX_TOP_LR * top_l and len(set(map(_lr_key, pairs))) == m:
            return pairs


def _market(rho: float, c: float, pairs, n: int) -> dict:
    return {
        "rho": rho,
        "c": c,
        "n": n,
        "experiment": [
            {"p_L": a / UNITS if isinstance(a, int) else a, "p_H": b / UNITS if isinstance(b, int) else b}
            for a, b in pairs
        ],
    }


def _fixed(ref: dict, n: int) -> dict:
    return _market(ref["rho"], ref["c"], ref["pairs"], n)


def random_market(rng: random.Random, m: int, revealing: bool, n: int) -> dict:
    rho = _int(rng, 154, 870) / UNITS  # about 0.15 .. 0.85
    c = _int(rng, 103, 921) / UNITS  # about 0.10 .. 0.90
    return _market(rho, c, _experiment(rng, m, revealing), n)


def indifferent_market(rng: random.Random, m: int, revealing: bool, n: int) -> dict:
    """A market whose buyer is exactly indifferent at some signal when
    ``n == 1``: rho = 1/2 and the cell's likelihood ratio equals the cost
    odds c/(1-c), both exact in binary floating point."""
    # c = k/16.  Not 1/2: there the indifferent cell would be uninformative
    # (likelihood ratio 1 = cost odds = prior odds) and the chain grows to
    # ~170 equilibria at every n, a 10 s op that would make the cost of this
    # slot depend on the seed.
    k = (3, 4, 5, 6, 7, 9, 10, 11, 12, 13)[_int(rng, 0, 9)]
    t = _int(rng, 3, 5) * 4  # the indifferent cell has p_H = k t, p_L = (16-k) t units
    cell = ((16 - k) * t, k * t)
    others = m - 1
    while True:
        p_h = _units(rng, UNITS - cell[1], others, MIN_UNITS)
        if revealing:
            p_l = _units(rng, UNITS - cell[0], others - 1, MIN_UNITS) + [0]
        else:
            p_l = _units(rng, UNITS - cell[0], others, MIN_UNITS)
        pairs = sorted(list(zip(p_l, p_h)) + [cell], key=_lr_key)
        if len(set(map(_lr_key, pairs))) == m:
            break
    market = _market(0.5, k / 16, pairs, n)
    rho, c = market["rho"], market["c"]
    p_l, p_h = cell[0] / UNITS, cell[1] / UNITS
    assert rho * p_h * (1.0 - c) - (1.0 - rho) * p_l * c == 0.0
    return market


def binary_market(rng: random.Random, n: int) -> dict:
    """Interior binary market with rho > c, so all three bad-news
    thresholds are labels in [0, 1/2]."""
    rho = _int(rng, 420, 870) / UNITS
    c = _int(rng, 103, int(rho * UNITS) - 52) / UNITS
    return _market(rho, c, _experiment(rng, 2, False), n)


# ---------------------------------------------------------- design classes


def design_class(market: dict) -> str:
    """``"ic"`` when the largest irrelevant garbling parameter D* gives
    incentive-compatible recommendations, else ``"non_ic"`` (the optimiser
    then scans ``ic_intervals``).  Mirrors the model in log-odds so that no
    power underflows; used only to stratify the generated markets."""
    rho, c, n = market["rho"], market["c"], market["n"]
    p_l = [o["p_L"] for o in market["experiment"]]
    p_h = [o["p_H"] for o in market["experiment"]]
    m = len(p_l)

    def log_lr(i: int) -> float:
        return math.inf if p_l[i] == 0.0 else math.log(p_h[i] / p_l[i])

    def masses(d: float):
        w = [min(1.0, max(0.0, d - (m - 1 - i))) for i in range(m)]
        acc_l = sum(a * b for a, b in zip(w, p_l))
        acc_h = sum(a * b for a, b in zip(w, p_h))
        return max(0.0, 1.0 - acc_l), max(0.0, 1.0 - acc_h), acc_l, acc_h

    def margin_ok(d: float) -> bool:
        rej_l, rej_h, acc_l, acc_h = masses(d)
        row = min(max(m - max(math.ceil(d), 1), 0), m - 1)
        if rej_l == 0.0 and rej_h == 0.0:
            log_ratio = log_lr(0)
        elif acc_l + acc_h == 0.0:
            log_ratio = 0.0
        elif rej_l == 0.0:
            log_ratio = math.inf
        elif rej_h == 0.0:
            log_ratio = -math.inf
        else:
            log_ratio = math.log(rej_h / rej_l)
        total = math.log(rho / (1 - rho)) + log_lr(row)
        if n > 1:
            total += (n - 1) * log_ratio
        return total >= math.log(c / (1 - c))

    d_star = 0.0
    for seg in range(m, 0, -1):
        if margin_ok(float(seg)):
            d_star = float(seg)
            break
        lo, hi = seg - 1.0, float(seg)
        if not margin_ok(lo + 1e-12):
            continue
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if margin_ok(mid) else (lo, mid)
        d_star = lo
        break

    rej_l, rej_h, acc_l, acc_h = masses(d_star)
    g_l = n if rej_l == 1.0 else (1.0 - rej_l**n) / (1.0 - rej_l)
    g_h = n if rej_h == 1.0 else (1.0 - rej_h**n) / (1.0 - rej_h)
    psi = rho * g_h / (rho * g_h + (1.0 - rho) * g_l)
    ic = True
    if rej_l + rej_h > 0.0:
        ic &= psi * rej_h * (1.0 - c) - (1.0 - psi) * rej_l * c <= 1e-9
    if acc_l + acc_h > 0.0:
        ic &= psi * acc_h * (1.0 - c) - (1.0 - psi) * acc_l * c >= -1e-9
    return "ic" if ic else "non_ic"


def design_market(rng: random.Random, m: int, want: str, n_max: int = 50) -> dict:
    while True:
        market = random_market(rng, m, rng.random() < 0.5, _int(rng, 2, n_max))
        if design_class(market) == want:
            return market


# ------------------------------------------------------------------- spread


def spread_section(market: dict, rng: random.Random) -> dict:
    """A local spread at a finite-ratio cell, with the new ratios at the
    midpoints towards the neighbouring cells (halving/doubling at the ends),
    written as exact [num, den] pairs."""
    cells = [(o["p_L"], o["p_H"]) for o in market["experiment"]]
    finite = [j for j, (a, _) in enumerate(cells) if a > 0.0]
    j = finite[_int(rng, 0, len(finite) - 1)]
    a, b = cells[j]
    if j == 0:
        low = [b, 2 * a]
    else:
        a0, b0 = cells[j - 1]
        low = [b0 * a + b * a0, 2 * a0 * a]
    if j == len(cells) - 1 or cells[j + 1][0] == 0.0:
        high = [2 * b, a]
    else:
        a1, b1 = cells[j + 1]
        high = [b1 * a + b * a1, 2 * a1 * a]
    return {"index": j, "lr_low": low, "lr_high": high, "selector": "most" if rng.random() < 0.5 else "least"}


# -------------------------------------------------------------------- plans


def _doc(market: dict, **sections) -> dict:
    return {"schema_version": 1, "market": market, **sections}


def _grid(dimension: str) -> list[float]:
    k = BINARY_GRID_POINTS - 1
    if dimension == "bad":
        return [0.5 * (k - i) / k for i in range(BINARY_GRID_POINTS)]
    return [0.5 + 0.5 * i / k for i in range(BINARY_GRID_POINTS)]


def sweep_n_op(market: dict) -> dict:
    return {"kind": "sweep_n", "command": "sweep-n", "doc": _doc(market, sweep_n={"n_max": N_MAX})}


def sweep_binary_op(market: dict, dimension: str, selector: str) -> dict:
    section = {"dimension": dimension, "grid": _grid(dimension), "selector": selector}
    return {"kind": "sweep_binary", "command": "sweep-binary", "doc": _doc(market, sweep_binary=section)}


def design_op(market: dict, **tags) -> dict:
    section = {"emit_grid": True, "grid_points": DESIGN_GRID_POINTS}
    return {"kind": "design", "command": "design", "doc": _doc(market, design=section), **tags}


def thresholds_op(market: dict) -> dict:
    return {"kind": "thresholds", "command": "binary_thresholds", "doc": _doc(market)}


def simulate_op(market: dict, trials: int, seed: int, focal) -> dict:
    section = {"trials": trials, "seed": seed, "focal_buyer": focal, "strategy": "most"}
    return {"kind": "simulate", "command": "simulate", "doc": _doc(market, simulate=section)}


def repro_op(fixture: str) -> dict:
    return {"kind": "repro", "command": "repro", "fixture": fixture}


def probe_ops(kind: str) -> list[dict]:
    """Fixed ops of one kind, the same for every seed, run on workloads that
    are not the kind's home so that every per-command metric exists on every
    workload.  PROBES distinct inputs of about the same cost give the metric
    one cluster of samples per pass without repeating an input inside one
    interpreter."""
    rng = random.Random(f"probe:{kind}")
    if kind == "sweep_n":
        ops = [sweep_n_op(random_market(rng, 3, False, 1)) for _ in range(PROBES)]
    elif kind == "sweep_binary":
        ops = [sweep_binary_op(_fixed(DEMO, 2), "bad", "most"), sweep_binary_op(_fixed(DEMO, 2), "good", "least")]
        ops += [sweep_binary_op(binary_market(rng, 3), "bad", "least") for _ in range(PROBES - 2)]
    elif kind == "design":
        ops = [design_op(design_market(rng, 4, "non_ic", n_max=20), design_class="non_ic") for _ in range(PROBES)]
    elif kind == "thresholds":
        ops = [thresholds_op(_fixed(DEMO, 2))] + [thresholds_op(binary_market(rng, 10)) for _ in range(PROBES - 1)]
    else:
        ops = [simulate_op(random_market(rng, 3, False, 3), PROBE_TRIALS, seed, None) for seed in range(PROBES)]
    return [dict(op, probe=True) for op in ops]


def jittered(market: dict, rng: random.Random) -> dict:
    """``market`` with rho and c each moved by at most 2/1024."""
    move = lambda x: (round(x * UNITS) + _int(rng, -2, 2)) / UNITS  # noqa: E731
    return dict(market, rho=move(market["rho"]), c=move(market["c"]))


def _size_sweep(rng: random.Random) -> list[dict]:
    # Fixed anchor markets over m = 2..5, every other one with a fully
    # revealing top; the seed moves rho and c by a few 1/1024.  A sweep's
    # cost jumps with how many of the 200 sizes have a mixing equilibrium to
    # bisect, so freely drawn markets would move the medians by a quarter
    # from seed to seed.
    anchors = random.Random("size_sweep:anchors")
    ops = [
        sweep_n_op(jittered(random_market(anchors, m, i % 2 == 0, 1), rng))
        for i, m in enumerate((2, 3, 4, 5, 2, 3, 4, 5, 2, 3))
    ]
    ops.append(sweep_n_op(indifferent_market(rng, 3, rng.random() < 0.5, 1)))
    ops += [sweep_n_op(_fixed(TIGHT, 1)), sweep_n_op(_fixed(REVEALING, 1))]
    ops += [repro_op("section8"), repro_op("modified-example")]
    return ops + [op for kind in ("sweep_binary", "design", "thresholds", "simulate") for op in probe_ops(kind)]


def _info_design(rng: random.Random) -> list[dict]:
    # Fixed anchor markets, as in size_sweep; the seed moves rho and c by a
    # few 1/1024 (a design market keeps its IC class).  Freely drawn markets
    # changed from seed to seed which design ops hit the 0/0 underflow, so
    # the failed count, and with it ok_frac, moved with the seed.
    anchors = random.Random("info_design:anchors")
    binaries = [_fixed(DEMO, 2)] + [jittered(binary_market(anchors, _int(anchors, 1, 50)), rng) for _ in range(3)]
    ops = [sweep_binary_op(binaries[0], d, s) for d in ("bad", "good") for s in ("most", "least")]
    for i, market in enumerate(binaries[1:]):
        ops.append(sweep_binary_op(market, ("bad", "good")[i % 2], ("most", "least")[i % 2]))
        ops.append(sweep_binary_op(market, ("good", "bad")[i % 2], ("most", "least")[(i + 1) % 2]))
    ops += [thresholds_op(market) for market in binaries]
    for m in (2, 3, 4, 5, 3, 4):
        anchor = random_market(anchors, m, anchors.random() < 0.5, _int(anchors, 2, 50))
        market = jittered(anchor, rng)
        ops.append({"kind": "spread", "command": "spread", "doc": _doc(market, spread=spread_section(market, anchors))})
    # One IC market in four, each m once, so the median design op runs ic_intervals.
    for i, m in enumerate((3, 4, 5) * 4):
        want = "ic" if i in (0, 4, 8) else "non_ic"
        anchor = design_market(anchors, m, want)
        while design_class(market := jittered(anchor, rng)) != want:
            pass
        ops.append(design_op(market, design_class=want))
    return ops + [op for kind in ("sweep_n", "simulate") for op in probe_ops(kind)]


def _mc_oracle(rng: random.Random) -> list[dict]:
    seed = lambda: _int(rng, 1, 2**31 - 1)  # noqa: E731
    ops = [
        simulate_op(_fixed(DEMO, 2), MC_TRIALS, seed(), 0),
        simulate_op(_fixed(TIGHT, 50), MC_TRIALS, seed(), None),
        simulate_op(_fixed(TIGHT, 50), MC_TRIALS, seed(), _int(rng, 0, 49)),
    ]
    for i, n in enumerate((2, 2, 3, 3, 4, 4, 5, 6, 8, 10)):
        market = random_market(rng, 5, rng.random() < 0.5, n)
        ops.append(simulate_op(market, MC_TRIALS, seed(), _int(rng, 0, n - 1) if i % 2 else None))
    return ops + [op for kind in ("sweep_n", "sweep_binary", "design", "thresholds") for op in probe_ops(kind)]


def interleave(ops: list[dict]) -> list[dict]:
    """Spread each kind evenly over the pass (stride order), so that slow
    and fast stretches of the machine do not fall on one kind's ops."""
    counts: dict[str, int] = {}
    keyed = []
    for index, op in enumerate(ops):
        rank = counts.get(op["kind"], 0)
        counts[op["kind"]] = rank + 1
        keyed.append((rank, index, op))
    return [op for _, _, op in sorted(keyed, key=lambda t: ((t[0] + 0.5) / counts[t[2]["kind"]], t[1]))]


def build_plan(workload: str, seed: int) -> list[dict]:
    """The workload's ops in pass order; a CLI op carries its config as ``doc``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    ops = {"size_sweep": _size_sweep, "info_design": _info_design, "mc_oracle": _mc_oracle}[workload](rng)
    return [dict(op, id=f"{i:02d}-{op['kind']}") for i, op in enumerate(interleave(ops))]


def write_plan(workload: str, seed: int, directory: Path) -> list[dict]:
    """Write the workload's configs under ``directory`` and return the op
    list, each CLI op with the path of its config."""
    directory.mkdir(parents=True, exist_ok=True)
    ops = []
    for op in build_plan(workload, seed):
        op = dict(op)
        doc = op.pop("doc", None)
        if doc is not None:
            path = directory / f"{op['id']}.json"
            path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
            op["config"] = str(path)
        ops.append(op)
    return ops
