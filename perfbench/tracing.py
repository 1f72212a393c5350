"""Spans around the program's public functions, installed from outside.

``statics``, ``design`` and ``cli`` bind functions by name (``from
.equilibrium import ...``), and the package ``__init__`` re-exports them, so
one function object can sit under several module attributes.  ``Tracer``
replaces every attribute that holds a traced function with one wrapper and
puts the originals back on ``restore``.  Spans (name, start, end, parent,
op) are kept in flat arrays in memory and written out when the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from pathlib import Path

TRACED = {
    "cli": ("parse_config", "run", "main"),
    "experiment": ("build_experiment", "binary_experiment_from_labels", "apply_local_spread"),
    "equilibrium": (
        "enumerate_equilibria",
        "select_equilibrium",
        "is_optimal_against",
        "interim_belief",
        "rejection_probs",
        "interim_from_rejections",
        "geometric_sum",
        "total_surplus",
        "surplus_from_rejections",
    ),
    "statics": (
        "surplus_vs_n",
        "sweep_binary",
        "spread_surplus_delta",
        "classify_override",
        "binary_thresholds",
    ),
    "design": (
        "optimal_garbling",
        "max_irrelevant_param",
        "ic_intervals",
        "garbling_grid",
        "garbling_from_param",
        "is_ic",
    ),
    "montecarlo": ("simulate",),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)
EQUILIBRIA = "equilibrium.enumerate_equilibria.equilibria"
TRIALS = "montecarlo.simulate.trials"
YIELD = "equilibrium.candidate_yield"


class Tracer:
    """Records a span per call of every traced function while ``enabled``."""

    def __init__(self) -> None:
        self.enabled = False
        self.op = 0
        self._stack: list[int] = []
        self._name = array("H")
        self._op = array("H")
        self._parent = array("l")
        self._start = array("q")
        self._end = array("q")
        self._raised = array("b")
        self.equilibria = 0
        self.trials = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "seqmarket" or name.startswith("seqmarket."))
        ]
        for index, name in enumerate(SPAN_NAMES):
            mod_name, fn_name = name.split(".")
            original = getattr(importlib.import_module(f"seqmarket.{mod_name}"), fn_name)
            wrapper = self._wrap(index, name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, index: int, name: str, fn):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = len(tracer._start)
            tracer._name.append(index)
            tracer._op.append(tracer.op)
            tracer._parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer._end.append(0)
            tracer._raised.append(0)
            tracer._stack.append(span)
            tracer._start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._raised[span] = 1
                raise
            finally:
                tracer._end[span] = clock()
                tracer._stack.pop()
            if name == "equilibrium.enumerate_equilibria":
                tracer.equilibria += len(result)
            elif name == "montecarlo.simulate":
                tracer.trials += args[2].trials if len(args) > 2 else kwargs["config"].trials
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def layer_metrics(self, speed: "list[float] | None" = None) -> dict[str, float]:
        """``<module>.<fn>.{calls,total_s,self_s,raised}`` over every span,
        plus the chain-length count, the simulated trials and the yield of
        equilibria per candidate best-response check.  ``speed[op]`` scales
        the times of that op's spans (see calibration.py)."""
        n = len(SPAN_NAMES)
        calls, raised = [0] * n, [0] * n
        total, self_ns = [0] * n, [0] * n
        child_ns = [0] * len(self._start)
        for span in range(len(self._start)):
            duration = self._end[span] - self._start[span]
            parent = self._parent[span]
            if parent >= 0:
                child_ns[parent] += duration
        for span in range(len(self._start)):
            index = self._name[span]
            duration = self._end[span] - self._start[span]
            scale = speed[self._op[span]] if speed else 1.0
            calls[index] += 1
            raised[index] += self._raised[span]
            total[index] += duration * scale
            self_ns[index] += (duration - child_ns[span]) * scale
        out: dict[str, float] = {}
        for index, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = calls[index]
            out[f"{name}.total_s"] = total[index] / 1e9
            out[f"{name}.self_s"] = self_ns[index] / 1e9
            out[f"{name}.raised"] = raised[index]
        out[EQUILIBRIA] = self.equilibria
        out[TRIALS] = self.trials
        checks = out["equilibrium.is_optimal_against.calls"]
        out[YIELD] = self.equilibria / checks if checks else 0.0
        return out

    def write_spans(self, path: Path, op_ids: list[str]) -> None:
        with path.open("w", encoding="utf-8") as fh:
            fh.write("op,span,parent,name,start_ns,end_ns,raised\n")
            for span in range(len(self._start)):
                fh.write(
                    f"{op_ids[self._op[span]]},{span},{self._parent[span]},"
                    f"{SPAN_NAMES[self._name[span]]},{self._start[span]},"
                    f"{self._end[span]},{self._raised[span]}\n"
                )
