"""Tests of the benchmark itself: generator, output checks, tracing wrappers.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from seqmarket import cli, statics  # noqa: E402
from seqmarket.equilibrium import select_equilibrium  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload, tmp_path):
    workloads.write_plan(workload, 11, tmp_path / "a")
    workloads.write_plan(workload, 11, tmp_path / "b")
    workloads.write_plan(workload, 12, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_parse_config_accepts_every_generated_config(workload, seed, tmp_path):
    for op in workloads.write_plan(workload, seed, tmp_path):
        if "config" in op:
            text = Path(op["config"]).read_text(encoding="utf-8")
            config = cli.parse_config(text)
            assert config.market.experiment.m == len(json.loads(text)["market"]["experiment"])


def test_generator_covers_the_listed_properties():
    ops = [op for w in workloads.WORKLOADS for seed in (5, 6) for op in workloads.build_plan(w, seed)]
    docs = [op["doc"] for op in ops if "doc" in op]
    markets = [doc["market"] for doc in docs]
    assert {m["n"] for m in markets} >= {1, 2, 50}
    assert {len(m["experiment"]) for m in markets} == {2, 3, 4, 5}
    assert any(o["p_L"] == 0.0 for m in markets for o in m["experiment"])  # fully revealing top
    assert any(all(o["p_L"] > 0.0 for o in m["experiment"]) for m in markets)  # interior top
    indifferent = [
        m for m in markets
        if m["rho"] == 0.5
        and any(m["rho"] * o["p_H"] * (1 - m["c"]) - (1 - m["rho"]) * o["p_L"] * m["c"] == 0.0 for o in m["experiment"])
    ]
    assert len(indifferent) >= 3  # exact indifference at n = 1
    assert {op.get("design_class") for op in ops if op["kind"] == "design" and not op.get("probe")} == {"ic", "non_ic"}
    assert {doc["simulate"]["focal_buyer"] is None for doc in docs if "simulate" in doc} == {True, False}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_moves_no_cost_property(workload):
    def slots(seed):
        out = []
        for op in workloads.build_plan(workload, seed):
            market = op.get("doc", {}).get("market", {})
            out.append((op["id"], op["command"], len(market.get("experiment", ())), market.get("n"), op.get("design_class")))
        return out

    assert slots(1) == slots(2) == slots(3)
    assert workloads.build_plan(workload, 1) != workloads.build_plan(workload, 2)


def test_every_workload_runs_every_measured_kind():
    for workload in workloads.WORKLOADS:
        kinds = {op["kind"] for op in workloads.build_plan(workload, 1)}
        assert kinds >= set(run.KIND_METRICS), workload


# ------------------------------------------------------------------ checks


def _run_cli(tmp_path: Path, command: str, doc: dict | None, fixture: str | None = None) -> Path:
    out = tmp_path / "out"
    if doc is None:
        assert cli.main(["repro", fixture, "--out", str(out)]) == 0
    else:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
    return out


def _rewrite(path: Path, edit) -> None:
    with path.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    rows = edit(rows)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _set(index: int, column: str, value: str):
    def edit(rows):
        rows[index][column] = value
        return rows

    return edit


def _assert_detects(op, doc, out, name, edit, extra=None, clean=True):
    """The check passes on the program's own CSV (when ``clean``) and finds
    a new problem once ``name`` is edited."""
    before = checks.check(op, doc, out, extra or {})
    if clean:
        assert before == []
    _rewrite(out / name, edit)
    after = checks.check(op, doc, out, extra or {})
    assert set(after) - set(before), f"corruption of {name} went unnoticed"


FAST_REVEALING = {"rho": 0.5, "c": 0.3, "n": 1, "experiment": [{"p_L": 1.0, "p_H": 0.5}, {"p_L": 0.0, "p_H": 0.5}]}


@pytest.mark.parametrize(
    "edit",
    [
        _set(3, "most_selective_surplus", "-0.01"),
        _set(0, "limit_class", "no_info"),
        _set(-1, "most_selective_surplus", "0.1"),
        lambda rows: rows[:-1],
    ],
)
def test_sweep_n_check(edit, tmp_path):
    doc = {"schema_version": 1, "market": FAST_REVEALING, "sweep_n": {"n_max": 40}}
    out = _run_cli(tmp_path, "sweep-n", doc)
    _assert_detects({"kind": "sweep_n"}, doc, out, "sweep_n.csv", edit)


def test_repro_checks(tmp_path):
    out = _run_cli(tmp_path, "repro", None, "section8")
    _assert_detects({"kind": "repro", "fixture": "section8"}, None, out, "section8.csv", _set(9, "surplus", "0.5"), clean=False)
    out = _run_cli(tmp_path / "m", "repro", None, "modified-example")
    op = {"kind": "repro", "fixture": "modified-example"}
    _assert_detects(op, None, out, "modified_example.csv", _set(4, "most_selective_surplus", "0.30000001"))


@pytest.mark.parametrize("edit", [_set(2, "surplus", "0.9"), _set(5, "s_L", "0.123"), lambda rows: rows[1:]])
def test_sweep_binary_check(edit, tmp_path):
    section = {"dimension": "bad", "grid": [0.5 - 0.05 * i for i in range(11)], "selector": "least"}
    doc = {"schema_version": 1, "market": workloads._fixed(workloads.DEMO, 2), "sweep_binary": section}
    out = _run_cli(tmp_path, "sweep-binary", doc)
    _assert_detects({"kind": "sweep_binary"}, doc, out, "sweep_binary.csv", edit)


def test_spread_check(tmp_path):
    market = workloads._fixed(workloads.DEMO, 3)
    doc = {"schema_version": 1, "market": market, "spread": {"index": 1, "lr_low": 2, "lr_high": 9, "selector": "most"}}
    out = _run_cli(tmp_path, "spread", doc)
    _assert_detects({"kind": "spread"}, doc, out, "spread.csv", _set(0, "delta", "0.25"))


@pytest.mark.parametrize(
    "name, edit",
    [
        ("design.csv", _set(0, "is_ic", "false")),
        ("design_grid.csv", lambda rows: [dict(r, is_ic="true", obeyed_surplus="0.45") if i == 7 else r for i, r in enumerate(rows)]),
        ("design_grid.csv", lambda rows: rows[:-2]),
    ],
)
def test_design_check(name, edit, tmp_path):
    doc = {"schema_version": 1, "market": workloads._fixed(workloads.DEMO, 2), "design": {"emit_grid": True, "grid_points": 401}}
    out = _run_cli(tmp_path, "design", doc)
    _assert_detects({"kind": "design"}, doc, out, name, edit)


def test_thresholds_check():
    doc = {"schema_version": 1, "market": workloads._fixed(workloads.DEMO, 2)}
    value = statics.binary_thresholds(cli.parse_config(json.dumps(doc)).market)
    good = [value.s_L_mute, value.s_L_as, value.s_L_dagger]
    assert checks.check({"kind": "thresholds"}, doc, None, {"thresholds": good}) == []
    assert checks.check({"kind": "thresholds"}, doc, None, {"thresholds": [good[0] + 1e-6, *good[1:]]})
    assert checks.check({"kind": "thresholds"}, doc, None, {"thresholds": [*good[:2], 0.6]})


@pytest.mark.parametrize("column", ["trade_prob_H", "surplus", "interim_estimate"])
def test_simulate_check(column, tmp_path):
    section = {"trials": 20000, "seed": 3, "focal_buyer": 0, "strategy": "most"}
    doc = {"schema_version": 1, "market": workloads._fixed(workloads.DEMO, 2), "simulate": section}
    out = _run_cli(tmp_path, "simulate", doc)
    strategy = list(select_equilibrium(cli.parse_config(json.dumps(doc)).market, "most").strategy.accept)

    def shift(rows):
        se = "interim_se" if column == "interim_estimate" else f"{column}_se"
        rows[0][column] = repr(float(rows[0][column]) + 6 * float(rows[0][se]))
        return rows

    _assert_detects({"kind": "simulate"}, doc, out, "simulate.csv", shift, {"strategy": strategy})


# ------------------------------------------------------------------ tracing


def _holders():
    """Every (module, attribute) of the package holding a traced function."""
    import importlib

    originals = {
        name: getattr(importlib.import_module(f"seqmarket.{name.split('.')[0]}"), name.split(".")[1])
        for name in tracing.SPAN_NAMES
    }
    mods = [m for k, m in sys.modules.items() if k == "seqmarket" or k.startswith("seqmarket.")]
    return {
        (mod.__name__, attr): (name, value)
        for mod in mods
        for attr, value in vars(mod).items()
        for name, fn in originals.items()
        if value is fn
    }


def test_wrappers_patch_every_holder_and_restore_it():
    import seqmarket
    from seqmarket import design, equilibrium

    before = _holders()
    assert ("seqmarket.statics", "enumerate_equilibria") in before  # bound by name
    assert ("seqmarket", "select_equilibrium") in before  # re-exported
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for mod_name, attr in before:
            assert getattr(sys.modules[mod_name], attr) is not before[(mod_name, attr)][1]
        assert statics.enumerate_equilibria is equilibrium.enumerate_equilibria is seqmarket.enumerate_equilibria
        market = cli.parse_config(json.dumps({"schema_version": 1, "market": workloads._fixed(workloads.DEMO, 2)})).market
        tracer.enabled = True
        design.optimal_garbling(market)
        statics.spread_surplus_delta(market, cli.LocalSpreadParams(1, cli.OddsRatio(2, 1), cli.OddsRatio(9, 1)), "most")
        with pytest.raises(ValueError):
            seqmarket.select_equilibrium(market, "neither")
        tracer.enabled = False
    finally:
        tracer.restore()
    assert _holders() == before
    layers = tracer.layer_metrics()
    # Two selections in spread_surplus_delta, one in classify_override, one refused.
    assert layers["equilibrium.select_equilibrium.calls"] == 4
    assert layers["equilibrium.select_equilibrium.raised"] == 1
    assert layers["equilibrium.enumerate_equilibria.calls"] == 3
    assert layers["statics.classify_override.calls"] == 1
    assert layers["design.optimal_garbling.calls"] == 1
    from seqmarket.experiment import apply_local_spread

    params = cli.LocalSpreadParams(1, cli.OddsRatio(2, 1), cli.OddsRatio(9, 1))
    chains = 2 * len(equilibrium.enumerate_equilibria(market))
    chains += len(equilibrium.enumerate_equilibria(market.with_experiment(apply_local_spread(market.experiment, params))))
    assert layers[tracing.EQUILIBRIA] == chains
    total = layers["statics.spread_surplus_delta.total_s"]
    assert 0 <= layers["statics.spread_surplus_delta.self_s"] <= total


def test_tail_percentile_leaves_ten_samples_beyond():
    for n in (11, 20, 26, 68, 200):
        pct = run.tail_percentile(n)
        values = list(range(n))
        assert sum(v > run.percentile(values, pct) for v in values) >= 10
        assert sum(v > run.percentile(values, pct + 1) for v in values) < 10 or pct == 99


def _record(op_id, kind, ok, seconds):
    return {"id": op_id, "kind": kind, "ok": ok, "norm_s": seconds, "latency_s": seconds}


def test_latencies_cover_only_ops_that_succeeded():
    ops = [{"id": "a", "kind": "sweep_n"}, {"id": "b", "kind": "design"}, {"id": "p", "kind": "simulate", "probe": True}]
    ops += [{"id": k, "kind": k} for k in ("sweep_binary", "thresholds")]
    records = [_record("a", "sweep_n", True, 0.2), _record("b", "design", False, 0.001), _record("p", "simulate", True, 9.0)]
    records += [_record(k, k, True, 0.1) for k in ("sweep_binary", "thresholds")]
    passes = [{"ops": records, "rss_mb": 80.0}] * 2
    metrics, _ = run.end_to_end(passes, [0.5], ops)
    assert "design_ms" not in metrics  # no fallback to the failed attempts
    assert metrics["simulate_ms"][0] == pytest.approx(9000.0)  # probes feed their kind's metric
    assert metrics["op_p50_ms"][0] == pytest.approx(100.0)  # but not the workload's own latencies
    assert metrics["op_mean_ms"][0] == pytest.approx(400.0 / 3)
    assert metrics["ok_frac"][0] == pytest.approx(4 / 5)
