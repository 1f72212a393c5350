"""One measured pass: a fresh interpreter imports ``seqmarket.cli`` and runs
every op of a plan once, timing each op on its own.

Usage (started by run.py, with PERFBENCH_T0 set to the parent's
``time.perf_counter()`` just before the start; on Linux that clock is
CLOCK_MONOTONIC, which all processes share):

    python3 perfbench/child.py RESULT.json --setup-only
    python3 perfbench/child.py RESULT.json PLAN.json OUT_DIR [SPANS.csv]

Around each op the child also times the calibration kernel
(calibration.py), so the parent can scale the op's time to the reference
machine speed.  With a spans path the pass is traced: every function in
tracing.TRACED is wrapped, spans are recorded only while an op is being
timed, and the per-layer totals go into the result next to the latencies.
"""

import os
import sys
import time

T0 = float(os.environ["PERFBENCH_T0"])
import seqmarket.cli  # noqa: E402  (the import is what setup_s measures)

SETUP_S = time.perf_counter() - T0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

from calibration import calibrated, kernel_times  # noqa: E402

SETUP_CAL_S = statistics.median(kernel_times())  # the machine's speed just after the import


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def _header() -> dict:
    return {
        "setup_s": SETUP_S,
        "setup_cal_s": SETUP_CAL_S,
        "seqmarket_file": seqmarket.cli.__file__,
        "python": sys.version.split()[0],
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
    }


def _call(op: dict, out: Path):
    """The op as a zero-argument callable; inputs are parsed beforehand so
    the timed region holds only the command itself."""
    from seqmarket import cli, statics

    if op["kind"] == "thresholds":
        spec = cli.parse_config(Path(op["config"]).read_text(encoding="utf-8")).market
        return lambda: statics.binary_thresholds(spec)
    if op["kind"] == "repro":
        argv = ["repro", op["fixture"], "--out", str(out)]
    else:
        argv = [op["command"], "--config", op["config"], "--out", str(out)]
    return lambda: seqmarket.cli.main(argv)


def _error_class(op: dict, out: Path) -> str:
    """The exception class behind a nonzero exit.  ``cli.main`` turns
    exceptions into exit codes, so the command is run once more through
    ``cli.run``, which raises them (outside the timed region)."""
    from seqmarket import cli

    if op["kind"] == "repro":
        return "exit"
    try:
        config = cli.parse_config(Path(op["config"]).read_text(encoding="utf-8"))
        cli.run(op["command"], config, out)
    except Exception as exc:  # the class is what we want to record
        return type(exc).__name__
    return "exit"


def _check_inputs(op: dict, value) -> dict:
    """What the parent's output check needs beyond the op's CSV."""
    from seqmarket import cli
    from seqmarket.equilibrium import select_equilibrium

    if op["kind"] == "thresholds":
        return {"thresholds": [value.s_L_mute, value.s_L_as, value.s_L_dagger]}
    if op["kind"] == "simulate":
        config = cli.parse_config(Path(op["config"]).read_text(encoding="utf-8"))
        strategy = select_equilibrium(config.market, config.simulate.strategy).strategy
        return {"strategy": list(strategy.accept)}
    return {}


def run_op(op: dict, out: Path, tracer=None) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    record = {"id": op["id"], "kind": op["kind"], "command": op["command"]}
    call = _call(op, out)
    cal_before = kernel_times()
    stderr = io.StringIO()
    value = exc = None
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        if tracer is not None:
            tracer.enabled = True
        start = time.perf_counter()
        try:
            value = call()
        except SystemExit as caught:  # argparse rejects its arguments this way
            exc = caught
        except Exception as caught:  # one failing op must not end the pass
            exc = caught
        finally:
            record["latency_s"] = time.perf_counter() - start
            if tracer is not None:
                tracer.enabled = False
    record["cal_s"] = statistics.median(cal_before + kernel_times())
    if exc is not None:
        record.update(ok=False, error_class=type(exc).__name__, message=str(exc)[:300])
    elif op["kind"] != "thresholds" and value != 0:
        message = stderr.getvalue().strip().splitlines()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            error_class = _error_class(op, out)
        record.update(ok=False, exit=value, error_class=error_class, message=(message or [""])[-1][:300])
    else:
        record["ok"] = True
        try:
            record["check_inputs"] = _check_inputs(op, value)
        except Exception as caught:
            record.update(ok=False, error_class=f"check_inputs:{type(caught).__name__}", message=str(caught)[:300])
    return record


def main(argv: list[str]) -> int:
    result_path = Path(argv[0])
    if argv[1:] == ["--setup-only"]:
        result_path.write_text(json.dumps(_header()), encoding="utf-8")
        return 0
    plan_path, out_dir = Path(argv[1]), Path(argv[2])
    spans_path = Path(argv[3]) if len(argv) > 3 else None
    ops = json.loads(plan_path.read_text(encoding="utf-8"))
    tracer = None
    if spans_path is not None:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    records = []
    try:
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op = index
            records.append(run_op(op, out_dir / op["id"], tracer))
    finally:
        if tracer is not None:
            tracer.restore()
    result = _header()
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["ops"] = records
    if tracer is not None:
        result["layers"] = tracer.layer_metrics([calibrated(1.0, r["cal_s"]) for r in records])
        tracer.write_spans(spans_path, [op["id"] for op in ops])
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
