"""Span tracer for the benchmark's traced run.

The tracer rebinds the public functions of the bellbound layers to wrappers
that record one span per call: name, start, end and the index of the span
that was open when the call began.  The rebinding covers every bellbound
module that holds a reference to the function, including names imported from
another module (``bounds_engine.critical_gamma``,
``statistics_io.joint_probability`` ...), so calls between layers are seen as
well as calls from the benchmark.  Spans stay in memory until the run ends.

Each operation of a workload opens a root span; the spans it causes share its
index as their request identifier.  A span's self time is its duration minus
the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path

TRACED_FUNCTIONS = (
    ("quantum_core", "joint_probability"),
    ("quantum_core", "concurrence"),
    ("bell_model", "coefficients"),
    ("bell_model", "quantum_value"),
    ("bell_model", "evaluate_classical"),
    ("statistics_io", "simulate"),
    ("statistics_io", "validate"),
    ("statistics_io", "save"),
    ("statistics_io", "load"),
    ("optimizer", "seesaw_max_violation"),
    ("optimizer", "global_max_violation"),
    ("optimizer", "critical_gamma"),
    ("bounds_engine", "assemble_report"),
    ("bounds_engine", "upper_bound_numeric"),
    ("cli", "main"),
)

ROOT_SPAN = "op"


def _seesaw_counters(counters, args, kwargs, result):
    from bellbound import optimizer

    cfg = kwargs.get("cfg", args[2] if len(args) > 2 else optimizer.DEFAULT_CONFIG)
    counters["optimizer.seesaw_max_violation.rows"] += cfg.restarts
    counters["optimizer.seesaw_max_violation.best_iterations"] += result.iterations
    counters["optimizer.seesaw_max_violation.unconverged"] += int(not result.converged)


def _save_counters(counters, args, kwargs, result):
    counters["statistics_io.bytes_written"] += Path(kwargs.get("path", args[1])).stat().st_size


def _load_counters(counters, args, kwargs, result):
    counters["statistics_io.bytes_read"] += Path(kwargs.get("path", args[0])).stat().st_size


def _curves_counters(counters, args, kwargs, result):
    from bellbound import cli

    argv = list(kwargs.get("argv", args[0] if args else []))
    if argv[:1] != ["curves"] or "--output" not in argv:
        return
    out_dir = Path(argv[argv.index("--output") + 1])
    for name in (cli.CSV_VIOLATION, cli.CSV_CONCURRENCE):
        counters["cli.csv_bytes"] += (out_dir / name).stat().st_size


_AFTER = {
    "optimizer.seesaw_max_violation": _seesaw_counters,
    "statistics_io.save": _save_counters,
    "statistics_io.load": _load_counters,
    "cli.main": _curves_counters,
}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric; every count and time is per operation."""
    if name.endswith(".self_ms"):
        return "ms/op"
    if name.endswith("bytes") or name.endswith("_written") or name.endswith("_read"):
        return "bytes/op"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    return "count/op"


class Tracer:
    """In-memory span recorder bound to the bellbound modules while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: Counter = Counter()
        self.enabled = False
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(index)
                if name == "bounds_engine.assemble_report":
                    from bellbound.errors import ValidationFailure

                    if isinstance(exc, ValidationFailure):
                        self.counters["bounds_engine.refused"] += 1
                raise
            self._close(index)
            if after is not None:
                after(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function wherever a bellbound module holds it."""
        import bellbound

        modules = [m for key, m in sys.modules.items() if key == "bellbound" or key.startswith("bellbound.")]
        for module_name, fn_name in TRACED_FUNCTIONS:
            original = getattr(getattr(bellbound, module_name), fn_name)
            wrapper = self._wrap(f"{module_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def op(self, fn, *args):
        """Run one workload operation under a root span, with tracing on."""
        self.enabled = True
        index = self._open(ROOT_SPAN)
        try:
            return fn(*args)
        finally:
            self._close(index)
            self.enabled = False

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.ends[i] - self.starts[i]
        return [self.ends[i] - self.starts[i] - covered[i] for i in range(len(self.names))]

    def layer_metrics(self) -> dict[str, float]:
        """Per-operation call counts, self times and counters."""
        ops = max(1, self.names.count(ROOT_SPAN))
        calls: Counter = Counter(self.names)
        self_s: Counter = Counter()
        for name, t in zip(self.names, self.self_times()):
            self_s[name] += t
        out: dict[str, float] = {}
        for module_name, fn_name in TRACED_FUNCTIONS:
            key = f"{module_name}.{fn_name}"
            out[f"{key}.calls"] = calls[key] / ops
            out[f"{key}.self_ms"] = 1e3 * self_s[key] / ops
        for key in (
            "optimizer.seesaw_max_violation.rows",
            "optimizer.seesaw_max_violation.best_iterations",
            "optimizer.seesaw_max_violation.unconverged",
            "bounds_engine.refused",
            "statistics_io.bytes_written",
            "statistics_io.bytes_read",
            "cli.csv_bytes",
        ):
            out[key] = self.counters[key] / ops
        seesaw_calls = calls["optimizer.seesaw_max_violation"]
        unconverged = self.counters["optimizer.seesaw_max_violation.unconverged"]
        # With no see-saw call nothing failed to converge.
        out["optimizer.seesaw_max_violation.converged_ratio"] = (
            (seesaw_calls - unconverged) / seesaw_calls if seesaw_calls else 1.0
        )
        out["harness.op.self_ms"] = 1e3 * self_s[ROOT_SPAN] / ops
        out["trace.spans"] = len(self.names) / ops
        return out

    def write(self, path: Path) -> None:
        """Write every span as one JSON line: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps([name, self.starts[i], self.ends[i], self.parents[i]]) + "\n")
