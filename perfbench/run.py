#!/usr/bin/env python3
"""seqmarket benchmark: one workload, measured for a given time.

    python3 perfbench/run.py --workload size_sweep --seed 1 --seconds 34 --trace 0

Run it from the root of a checkout; it builds nothing and imports the
package from ``src/``.  It writes the workload's configs from the seed,
then runs measured passes (each a fresh interpreter, see child.py) until
the time is spent, at least MIN_PASSES of them.  Every op's output is
checked (checks.py).  The last line of standard output is the result:
end-to-end metrics with ``--trace 0``, per-layer metrics from a traced pass
with ``--trace 1``.  Everything it writes goes under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
from calibration import calibrated  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 2  # untraced passes per --trace 0 run; fixes the tail percentile
SETUP_PROBES = 3  # extra import-only interpreters per --trace 0 run
HARD_LIMIT_S = 165.0  # a run must end well within 180 s
KIND_METRICS = {
    "sweep_n": "sweep_n_ms",
    "sweep_binary": "sweep_binary_ms",
    "design": "design_ms",
    "thresholds": "thresholds_ms",
    "simulate": "simulate_ms",
}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here (no program, or a foreign one)."""


def tail_percentile(samples_per_run: int) -> int:
    """The highest whole percentile that leaves at least ten samples beyond
    it when a run has its minimum sample count."""
    return max(0, math.floor(100 * (samples_per_run - 10) / samples_per_run))


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


# ----------------------------------------------------------------- children


class Runner:
    def __init__(self, root: Path, work: Path, deadline: float) -> None:
        self.root = root
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        self.env.update({var: "1" for var in THREAD_VARS})
        self.count = 0

    def spawn(self, args: list[str]) -> dict | None:
        """Start a child, wait for it, and return its result (None when it
        crashed or ran out of time)."""
        self.count += 1
        result_path = self.work / f"child-{self.count}.json"
        timeout = max(1.0, self.deadline - time.perf_counter())
        env = dict(self.env, PERFBENCH_T0=repr(time.perf_counter()))
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(result_path), *args],
                env=env,
                cwd=self.root,
                timeout=timeout,
                capture_output=True,
                text=True,
            )
        except subprocess.TimeoutExpired:
            return None
        if proc.returncode != 0 or not result_path.exists():
            sys.stderr.write(proc.stderr[-2000:])
            return None
        result = json.loads(result_path.read_text(encoding="utf-8"))
        src = (self.root / "src").resolve()
        if not Path(result["seqmarket_file"]).resolve().is_relative_to(src):
            raise BenchError(f"seqmarket was imported from {result['seqmarket_file']}, not from {src}")
        return result


def run_pass(runner: Runner, plan: Path, ops: list[dict], index: int, traced: bool) -> dict:
    out = runner.work / f"out-{index}"
    args = [str(plan), str(out)] + ([str(runner.work / f"spans-{index}.csv")] if traced else [])
    start = time.perf_counter()
    result = runner.spawn(args)
    elapsed = time.perf_counter() - start
    if result is None:
        records = [
            {"id": op["id"], "kind": op["kind"], "command": op["command"], "ok": False, "error_class": "PassCrashed"}
            for op in ops
        ]
        return {"ops": records, "crashed": True, "elapsed": elapsed, "traced": traced}
    for op, record in zip(ops, result["ops"]):
        record["norm_s"] = calibrated(record["latency_s"], record["cal_s"])
        if not record["ok"]:
            continue
        config = json.loads(Path(op["config"]).read_text(encoding="utf-8")) if "config" in op else None
        problems = checks.check(op, config, out / op["id"], record.get("check_inputs", {}))
        if problems:
            record.update(ok=False, error_class="CheckFailed", message="; ".join(problems)[:500])
    result.update(crashed=False, elapsed=elapsed, traced=traced)
    return result


# ------------------------------------------------------------------ metrics


def _median_ms(values: list[float]) -> float:
    return statistics.median(values) * 1e3


def _own_ok(passes: list[dict], ops: list[dict]) -> list[dict]:
    """Records of the workload's own ops (not probes) that succeeded."""
    probe = {op["id"] for op in ops if op.get("probe")}
    return [r for p in passes for r in p["ops"] if r["ok"] and r["id"] not in probe]


def end_to_end(passes: list[dict], setups: list[float], ops: list[dict]) -> tuple[dict, dict]:
    """Latency metrics over ops that succeeded.  ``op_p50_ms``,
    ``op_mean_ms`` and ``op_tail_ms`` cover the workload's own ops; probes
    only feed the per-command metric of their kind.  A per-command metric
    whose ops all failed is left out (the run is then not correct)."""
    records = [r for p in passes for r in p["ops"]]
    ok = [r for r in records if r["ok"]]
    own = _own_ok(passes, ops)
    latencies = [r["norm_s"] for r in own]
    pct = tail_percentile(len(_own_ok(passes[:MIN_PASSES], ops)))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_ms": (_median_ms(latencies), "ms"),
        "op_mean_ms": (statistics.mean(latencies) * 1e3, "ms"),
        "op_tail_ms": (percentile(latencies, pct) * 1e3, "ms"),
    }
    for kind, name in KIND_METRICS.items():
        samples = [r["norm_s"] for r in ok if r["kind"] == kind]
        if samples:
            metrics[name] = (_median_ms(samples), "ms")
    metrics["peak_rss_mb"] = (max(p["rss_mb"] for p in passes), "MB")
    metrics["ok_frac"] = (len(ok) / len(records), "1")
    tail = {
        "percentile": pct,
        "samples": len(latencies),
        "beyond": sum(x * 1e3 > metrics["op_tail_ms"][0] for x in latencies),
        "raw_op_p50_ms": _median_ms([r["latency_s"] for r in own]),
    }
    return metrics, tail


def per_layer(untraced: list[dict], traced: list[dict], ops: list[dict]) -> dict:
    layers = [p["layers"] for p in traced]
    metrics = {}
    for name in layers[0]:
        unit = "count" if not name.endswith("_s") else "s"
        if name == tracing.YIELD:
            unit = "1"
        metrics[name] = (statistics.median(layer[name] for layer in layers), unit)

    def p50(passes: list[dict]) -> float:
        return _median_ms([r["norm_s"] for r in _own_ok(passes, ops)])

    metrics["trace.overhead_ms"] = (p50(traced) - p50(untraced), "ms")
    return metrics


# -------------------------------------------------------------- environment


def environment(root: Path, args: argparse.Namespace, header: dict | None) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    head = root / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            ref_path = root / ".git" / ref[5:]
            ref = ref_path.read_text(encoding="utf-8").strip() if ref_path.exists() else ref
        commit = ref
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    header = header or {}
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": header.get("python", sys.version.split()[0]),
        "numpy": header.get("numpy"),
        "scipy": header.get("scipy"),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": {var: "1" for var in THREAD_VARS},
    }


# --------------------------------------------------------------------- main


def measure(args: argparse.Namespace, root: Path) -> dict:
    start = time.perf_counter()
    work = root / ".perfbench" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    ops = workloads.write_plan(args.workload, args.seed, work / "configs")
    plan = work / "plan.json"
    plan.write_text(json.dumps(ops), encoding="utf-8")
    runner = Runner(root, work, start + HARD_LIMIT_S)

    setups: list[float] = []
    header = None
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe = runner.spawn(["--setup-only"])
            if probe is not None:
                header = probe
                setups.append(calibrated(probe["setup_s"], probe["setup_cal_s"]))

    passes: list[dict] = []
    while True:
        traced = bool(args.trace) and any(not p["traced"] for p in passes)
        result = run_pass(runner, plan, ops, len(passes), traced)
        passes.append(result)
        if not result["crashed"]:
            header = header or result
            setups.append(calibrated(result["setup_s"], result["setup_cal_s"]))
        else:
            break
        untraced = [p for p in passes if not p["traced"]]
        enough = len(untraced) >= MIN_PASSES if not args.trace else len(passes) >= 2
        spent = time.perf_counter() - start
        mean = statistics.mean(p["elapsed"] for p in passes)
        if enough and (spent + mean > args.seconds or spent + mean > HARD_LIMIT_S):
            break

    records = [r for p in passes for r in p["ops"]]
    failures: dict[str, dict] = {}
    for r in records:
        if not r["ok"]:
            entry = failures.setdefault(
                r["id"],
                {"op": r["id"], "command": r["command"], "error_class": r["error_class"], "message": r.get("message", ""), "count": 0},
            )
            entry["count"] += 1
    good = [p for p in passes if not p["crashed"]]
    untraced = [p for p in good if not p["traced"]]
    traced = [p for p in good if p["traced"]]
    # Failed ops, wrong outputs included, count in "failed" and ok_frac.
    # "correct" says whether every op of every pass was run and checked, and
    # whether every measured command kind has an op that passed its check.
    succeeded = {r["kind"] for r in records if r["ok"]}
    no_success = sorted(name for kind, name in KIND_METRICS.items() if kind not in succeeded)
    correct = (
        len(good) == len(passes) and bool(untraced) and (bool(traced) or not args.trace) and not no_success
    )
    report = {
        "workload": args.workload,
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "correct": correct,
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
        "failures": sorted(failures.values(), key=lambda f: f["op"]),
        "no_success": no_success,
        "environment": environment(root, args, header),
        "elapsed_s": time.perf_counter() - start,
    }
    if args.trace and traced and untraced:
        report["metrics"] = per_layer(untraced, traced, ops)
    elif not args.trace and untraced:
        report["metrics"], report["tail"] = end_to_end(untraced, setups, ops)
    report["latencies"] = {  # per op: [measured, speed-calibrated] seconds, one pair per pass
        op["id"]: [[r["latency_s"], r["norm_s"]] for p in good for r in p["ops"] if r["id"] == op["id"]] for op in ops
    }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "seqmarket" / "cli.py").is_file():
        print(f"error: no seqmarket source under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    try:
        report = measure(args, root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not report.get("metrics"):
        print("error: no measured pass completed", file=sys.stderr)
        print(json.dumps(report["failures"]), file=sys.stderr)
        return 1
    (root / ".perfbench" / f"{args.workload}-result.json").write_text(json.dumps(report, indent=1), encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{report['passes']} passes x {report['ops_per_pass']} ops in {report['elapsed_s']:.1f} s")
    if "tail" in report:
        tail = report["tail"]
        print(f"tail percentile p{tail['percentile']} over {tail['samples']} op samples ({tail['beyond']} beyond); "
              f"op_p50 before speed calibration {tail['raw_op_p50_ms']:.4g} ms")
    for name, (value, unit) in report["metrics"].items():
        print(f"  {name:<52} {value:>14.6g} {unit}")
    for name in report["no_success"]:
        print(f"  NOT CORRECT: every op behind {name} failed, so it has no value")
    for failure in report["failures"]:
        print(f"  FAILED {failure['op']} ({failure['command']}): {failure['error_class']} x{failure['count']}: {failure['message']}")
    print("environment " + json.dumps(report["environment"], sort_keys=True))
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
