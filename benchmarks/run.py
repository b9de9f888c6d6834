"""bellbound benchmark: one workload per process, timed and gated.

Usage (from the repository root):

    python3 benchmarks/run.py --workload lab_closed --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` next to this directory, never from an
installed copy.  BLAS and OpenMP thread pools are pinned to one thread before
numpy is imported.  Each run:

1. imports the package, times that import in several fresh interpreters,
   sets the workload up several times (input generation from ``--seed`` plus
   a warm-up) and reports the median import plus the median set-up;
2. runs operations closed loop, one after the other, for ``--seconds``;
3. checks every answer it timed, outside the timed region; a failed check or
   an unexpected exception counts as a failed operation.

Operation timings are reported at a fixed machine speed.  The speed of a
shared host drifts by tens of percent over seconds to minutes, in CPU time as
much as in wall time, so the raw timings of one commit differ that much from
run to run.  While operations run, a timer signal times a fixed reference
slice that calls no bellbound code (``MachineSpeed``).  Each operation's
duration, less the slices that fell inside it, is scaled to the speed at
which the slice takes ``REFERENCE_SLICE_S``.  A change to bellbound moves
the scaled timings and leaves the slice alone.  The raw timings and the
measured speed are printed next to the result.  Set-up time is reported
raw: set-up waits on fresh interpreters, and a slice timed after such a wait
does not track the speed the set-up saw.

With ``--trace 0`` the result carries the end-to-end metrics.  With
``--trace 1`` the run measures half its time untraced and half traced (see
``bench_trace.py``) and reports per-layer metrics per operation plus the
tracing overhead; its spans are written to ``benchmarks/.work/``.  Span self
times are raw and include the reference slices that fell inside them, about
2% of the run.  The last line of standard output is the JSON result; the
lines before it name every metric with its unit and record the environment.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
REFERENCES = HERE / "reference"

WORKLOAD_NAMES = ("lab_closed", "state_seesaw", "numeric_bracket", "tilt_sweep")
SETUP_REPEATS = 3
REFERENCE_SLICE_S = 1e-3
# One reference slice is timed this often, from a timer signal, while
# operations run; about 2% of the run.
REFERENCE_EVERY_S = 0.05
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import numpy, bellbound; print(time.perf_counter() - t)"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def import_package() -> None:
    """Import numpy and bellbound from the checkout's ``src``."""
    sys.path.insert(0, str(SRC))
    try:
        import numpy  # noqa: F401

        import bellbound
    except ImportError as exc:
        raise SystemExit(f"cannot import bellbound from {SRC}: {exc}") from exc
    if not Path(bellbound.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bellbound was imported from {bellbound.__file__}, not from {SRC}")


class MachineSpeed:
    """Durations of a fixed reference slice of work that calls no bellbound code.

    The slice mixes what bellbound spends its time on: small complex
    eigenproblems and Kronecker products in numpy, Python arithmetic and a
    JSON round trip.  While ``sampling()`` is active a timer signal runs one
    slice every REFERENCE_EVERY_S, in the middle of operations as well as
    between them, so long operations are sampled at the speed they saw;
    ``spent`` adds up the time the slices took, for callers to subtract.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        mats = rng.normal(size=(8, 4, 4)) + 1j * rng.normal(size=(8, 4, 4))
        self._np = np
        self._mats = list(mats + mats.conj().transpose(0, 2, 1))
        self._payload = {"p": rng.random((4, 4, 4)).tolist()}
        self.durations: list[float] = []
        self.spent = 0.0

    def _slice(self) -> float:
        acc = 0.0
        for mat in self._mats:
            vals, vecs = self._np.linalg.eigh(mat)
            acc += float(vals[0]) + float(self._np.kron(vecs[:2, :2], vecs[2:, 2:]).real.sum())
        for i in range(2000):
            acc += (i % 7) * 0.5
        return acc + len(json.loads(json.dumps(self._payload))["p"])

    def _on_timer(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._slice()
        duration = time.perf_counter() - t0
        self.durations.append(duration)
        self.spent += duration

    @contextlib.contextmanager
    def sampling(self):
        self._on_timer(None, None)
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S, REFERENCE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self) -> float:
        """How many times slower than nominal the machine ran (median slice / REFERENCE_SLICE_S)."""
        return statistics.median(self.durations) / REFERENCE_SLICE_S


def import_times() -> list[float]:
    """Time the import of numpy and bellbound in SETUP_REPEATS fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(proc.stdout))
    return times


def _commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=False
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')} ({deps.get('openblas configuration', '').strip()})"
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "platform": platform.platform(),
        "commit": _commit(),
        "seed": seed,
    }


class Run:
    """Operation durations and gate outcomes of one measuring phase."""

    def __init__(self):
        self.inputs: list[int] = []
        self.durations: list[float] = []
        self.failures: list[str] = []
        self.speed = MachineSpeed()

    @property
    def attempted(self) -> int:
        return len(self.durations)

    def input_medians(self) -> list[float]:
        """The median duration of each input this run reached.

        Inputs cost different amounts and a slow workload makes only a pass
        or two per run, so statistics over all durations would depend on
        which inputs the run stopped after; over these, each input counts once.
        """
        by_input: dict[int, list[float]] = {}
        for k, duration in zip(self.inputs, self.durations):
            by_input.setdefault(k, []).append(duration)
        return [statistics.median(d) for d in by_input.values()]

    def pass_rate(self) -> float:
        """Operations per second over one pass of the inputs this run reached."""
        medians = self.input_medians()
        return len(medians) / sum(medians)


def measure(workload, items, seconds: float, tracer=None) -> Run:
    """Run operations closed loop until ``seconds`` have passed (at least one)."""
    run = Run()
    speed = run.speed
    start = time.perf_counter()
    index = 0
    with speed.sampling():
        while index == 0 or time.perf_counter() - start < seconds:
            run.inputs.append(index % len(items))
            item = items[index % len(items)]
            index += 1
            spent, t0 = speed.spent, time.perf_counter()
            try:
                result = tracer.op(workload.op, item) if tracer else workload.op(item)
            except Exception:
                run.durations.append(time.perf_counter() - t0 - (speed.spent - spent))
                run.failures.append(traceback.format_exc(limit=3))
                continue
            run.durations.append(time.perf_counter() - t0 - (speed.spent - spent))
            try:
                workload.check(item, result)
            except Exception:
                run.failures.append(traceback.format_exc(limit=3))
    return run


def set_up(workload_cls, seed: int, work_dir: Path):
    """Set the workload up SETUP_REPEATS times; return it, its inputs and each duration."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload = workload_cls(work_dir, REFERENCES)
        items = workload.make_inputs(seed)
        workload.warm_up(items)
        times.append(time.perf_counter() - t0)
    return workload, items, times


def run_workload(args) -> dict:
    import_package()
    imports = import_times()
    sys.path.insert(0, str(HERE))
    import bench_trace
    import bench_workloads

    env = environment(args.seed)
    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload, items, setup_times = set_up(
            bench_workloads.WORKLOADS[args.workload], args.seed, work_dir
        )
        lines = []
        if args.trace:
            untraced = measure(workload, items, args.seconds / 2)
            tracer = bench_trace.Tracer()
            tracer.install()
            try:
                traced = measure(workload, items, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_path)
            metrics = tracer.layer_metrics()
            base = statistics.median(untraced.input_medians()) / untraced.speed.factor()
            metrics["trace.overhead_pct"] = 100.0 * (
                statistics.median(traced.input_medians()) / traced.speed.factor() / base - 1.0
            )
            runs = (untraced, traced)
            units = {name: bench_trace.unit_of(name) for name in metrics}
            lines.append(
                f"traced {traced.attempted} ops against {untraced.attempted} untraced; "
                f"spans written to {spans_path.relative_to(ROOT)}"
            )
        else:
            run = measure(workload, items, args.seconds)
            runs = (run,)
            setup_raw = statistics.median(imports) + statistics.median(setup_times)
            p50_raw = statistics.median(run.input_medians())
            factor = run.speed.factor()
            metrics = {
                "setup_s": setup_raw,
                "ops_per_s": run.pass_rate() * factor,
                "op_p50_ms": 1e3 * p50_raw / factor,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = dict(END_TO_END_UNITS)
            # The highest percentile with at least ten samples beyond it.
            if run.attempted >= 100:
                p90_ms = 1e3 * statistics.quantiles(run.durations, n=10)[8] / factor
                lines.append(f"op_p90_ms = {p90_ms:.6g} ms")
            if args.workload == "tilt_sweep":
                lines.append(f"sweep_s = {p50_raw / factor:.6g} s")
            lines.append(
                f"setup: median import of {', '.join(f'{t:.4f}' for t in imports)} s "
                f"+ median set-up of {', '.join(f'{t:.4f}' for t in setup_times)} s"
            )
            lines.append(
                f"machine speed: reference slice median {factor * REFERENCE_SLICE_S * 1e3:.4g} ms "
                f"over {len(run.speed.durations)} slices (nominal {REFERENCE_SLICE_S * 1e3:g} ms); "
                f"raw ops_per_s = {run.pass_rate():.6g} 1/s, raw op_p50_ms = {1e3 * p50_raw:.6g} ms"
            )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    attempted = sum(r.attempted for r in runs)
    failures = [f for r in runs for f in r.failures]
    for failure in failures[:5]:
        print(failure, file=sys.stderr)
    print(f"# workload {args.workload}: {attempted} ops, {len(failures)} failed")
    print(f"error_rate = {len(failures) / attempted:.6g} (failed/attempted)")
    for line in lines:
        print(line)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({"env": env}))
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def run_all(args) -> dict:
    """Run every workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            raise SystemExit(f"workload {name} exited with code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
