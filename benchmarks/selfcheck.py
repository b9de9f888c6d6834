"""Fast self-check of the benchmark harness (about a minute).

Run from the repository root:

    python3 benchmarks/selfcheck.py

It runs every workload briefly, untraced and traced, and asserts that:

* every end-to-end and per-layer metric named in ``BENCHMARK.json`` is
  emitted, with its unit, and nothing else;
* every per-layer metric has an entry in ``metric_map.json``;
* the answers are correct at this commit;
* the traced run shows no see-saw call on lab_closed, and on tilt_sweep one
  ``global_max_violation`` call per grid point plus one per tilt at or above
  the cutoff;
* a corrupted reference value turns into failed operations, not a pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run as bench_run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
SEED = 7
SECONDS = 0.5


def run(workload: str, trace: int) -> dict:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED),
            "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} --trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, declared: list[dict], label: str) -> None:
    emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
    expected = {m["name"]: m["unit"] for m in declared}
    assert emitted == expected, f"{label}: emitted {emitted}, declared {expected}"
    assert result["attempted"] >= 1, f"{label}: no operation attempted"
    assert result["failed"] == 0 and result["correct"], f"{label}: {result['failed']} failed"


def corrupt_references(target: Path) -> None:
    shutil.copytree(HERE / "reference", target)
    demo = json.loads((target / "demo_slice.json").read_text())
    demo["expected"]["s_ch_obs"][0] += 0.01
    (target / "demo_slice.json").write_text(json.dumps(demo))
    sweep = json.loads((target / "tilt_sweep.json").read_text())
    header, first, *rest = sweep["max_violation_curve.csv"]
    tau, s_q, cap = first.split(",")
    sweep["max_violation_curve.csv"] = [header, f"{tau},{float(s_q) + 1e-6!r},{cap}", *rest]
    (target / "tilt_sweep.json").write_text(json.dumps(sweep))


def check_corrupted_references() -> None:
    """Run the gated workloads in-process against a corrupted copy of the references."""
    bench_run.import_package()
    import bench_workloads

    scratch = bench_run.WORK / "selfcheck"
    shutil.rmtree(scratch, ignore_errors=True)
    corrupt_references(scratch / "reference")
    try:
        for workload_cls in (bench_workloads.NumericBracket, bench_workloads.TiltSweep):
            workload = workload_cls(scratch, scratch / "reference")
            result = bench_run.measure(workload, workload.make_inputs(SEED), SECONDS)
            assert result.failures, f"{workload.name} passed corrupted references"
            print(f"ok {workload.name} rejects a corrupted reference "
                  f"({len(result.failures)}/{result.attempted} failed)")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    mapping = json.loads((HERE / "metric_map.json").read_text())["moves"]
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert per_layer == set(mapping), f"metric_map.json and BENCHMARK.json differ: {per_layer ^ set(mapping)}"
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        check_metrics(run(workload, 0), spec["end_to_end"], f"{workload} untraced")
        traced = run(workload, 1)
        check_metrics(traced, spec["per_layer"], f"{workload} traced")
        layer = {name: entry["value"] for name, entry in traced["metrics"].items()}
        if workload == "lab_closed":
            assert layer["optimizer.seesaw_max_violation.calls"] == 0, "see-saw ran on lab_closed"
        if workload == "tilt_sweep":
            # The grid has two tilts, one of them at or above the cutoff.
            calls = layer["optimizer.global_max_violation.calls"]
            assert calls == 2 + 1, f"global_max_violation ran {calls} times per sweep, expected 3"
        print(f"ok {workload}")
    check_corrupted_references()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
