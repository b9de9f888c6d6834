"""The benchmark's workloads: seeded inputs, the timed operation, and its gate.

Each workload turns a seed into a list of inputs, runs one operation per
input (closed loop, cycling through the list) and checks every answer it
timed with a gate that runs outside the timed region.  Operations call the
layers through their module attributes, so a traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from bellbound import (
    bell_model,
    bounds_engine,
    cli,
    optimizer,
    quantum_core,
    statistics_io,
)

GATE_TOL = 1e-6
CAP_TOL = 1e-9
VALUE_TOL = 1e-9
# Tolerances of the curves CSV columns against their references.  Values and
# caps are gated at 1e-8.  A column derived from an angle is fixed only as
# finely as the search that finds the angle: c_critical = sin(2 gamma) comes
# from a bisection that stops at GAMMA_BISECTION_TOL, and c_optimal from a
# golden-section search over a maximum so flat that see-saw values, converged
# to convergence_tol, tell angles apart only about sqrt(convergence_tol)
# apart.  sin(2 gamma) moves by up to twice the angle, and each tolerance
# allows as much again.  A correct change to the see-saw's arithmetic can
# move these columns by more than 1e-8.
CSV_TOL = {
    "tau": 1e-8,
    "s_q": 1e-8,
    "analytic_cap": 1e-8,
    "c_critical": 4.0 * optimizer.GAMMA_BISECTION_TOL,
    "c_optimal": 2.0 * math.sqrt(optimizer.DEFAULT_CONFIG.convergence_tol),
}

DEMO_SLICE = Path(bounds_engine.__file__).resolve().parent / "data" / "demo_slice.json"

_PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)


class GateFailure(Exception):
    """A timed answer disagrees with its reference or breaks an invariant."""


def _gate(ok: bool, message: str) -> None:
    if not ok:
        raise GateFailure(message)


def horodecki_ch_max(rho) -> float:
    """Exact maximal untilted CH value of a two-qubit state, (sqrt(M) - 1) / 2.

    M is the sum of the two largest eigenvalues of T^T T, with T the
    correlation matrix T_ij = tr(rho sigma_i (x) sigma_j) (Horodecki,
    Horodecki & Horodecki, Phys. Lett. A 200, 340 (1995)).
    """
    corr = np.array(
        [[np.trace(rho.matrix @ np.kron(si, sj)).real for sj in _PAULIS] for si in _PAULIS]
    )
    eig = np.sort(np.linalg.eigvalsh(corr.T @ corr))
    return (math.sqrt(max(0.0, eig[-1] + eig[-2])) - 1.0) / 2.0


def _bit_reversed(count: int) -> list[int]:
    # Strata in an order whose every prefix spreads over the whole range, so a
    # run that stops part-way through the list still sees a balanced mix.
    bits = max(1, (count - 1).bit_length())
    keys = [int(format(k, f"0{bits}b")[::-1], 2) for k in range(count)]
    return sorted(range(count), key=lambda k: keys[k])


class LabClosed:
    """Simulate an experiment, save it, load it, bracket it (closed form)."""

    name = "lab_closed"
    inputs_per_run = 300

    def __init__(self, work_dir: Path, references: Path):
        self.table_path = work_dir / "table.json"

    def make_inputs(self, seed: int) -> list:
        rng = np.random.default_rng([seed, 1])
        items = []
        for k in range(self.inputs_per_run):
            if k % 3 == 0:
                gamma = float(rng.uniform(0.0, math.pi / 4))
                rho, c_true = quantum_core.schmidt_state(gamma), math.sin(2.0 * gamma)
            else:
                rho = quantum_core.random_two_qubit_state(rng, pure=k % 3 == 1)
                c_true = quantum_core.concurrence(rho)
            items.append((rho, quantum_core.random_measurement_set(rng), c_true))
        return items

    def warm_up(self, items) -> None:
        for item in items[:20]:
            self.check(item, self.op(item))

    def op(self, item):
        rho, meas, _ = item
        table = statistics_io.simulate(rho, meas)
        statistics_io.save(table, self.table_path)
        loaded = statistics_io.load(self.table_path)
        return bounds_engine.assemble_report(loaded, projective=True)

    def check(self, item, report) -> None:
        c_true = item[2]
        upper = min(report.present_upper_bounds())
        _gate(
            report.lower_bound - GATE_TOL <= c_true <= upper + GATE_TOL,
            f"bracket [{report.lower_bound!r}, {upper!r}] misses C = {c_true!r}",
        )


class StateSeesaw:
    """One see-saw call on a random pure or mixed state."""

    name = "state_seesaw"
    inputs_per_run = 2048

    def __init__(self, work_dir: Path, references: Path):
        pass

    def make_inputs(self, seed: int) -> list:
        rng = np.random.default_rng([seed, 2])
        items = []
        for k in range(self.inputs_per_run):
            rho = quantum_core.random_two_qubit_state(rng, pure=k % 2 == 0)
            tau = 1.0 if k % 3 == 0 else float(rng.uniform(1.0, 1.5))
            exact = horodecki_ch_max(rho) if tau == 1.0 else None
            items.append((rho, tau, exact))
        return items

    def warm_up(self, items) -> None:
        # A fixed call: the seeded inputs have a long tail of slow calls, and
        # warming up on them would make set-up time depend on the seed.
        optimizer.seesaw_max_violation(quantum_core.schmidt_state(0.5), 1.3)

    def op(self, item):
        rho, tau, _ = item
        return optimizer.seesaw_max_violation(rho, tau)

    def check(self, item, result) -> None:
        rho, tau, exact = item
        value = result.value.value
        if exact is not None:
            _gate(
                abs(value - exact) <= GATE_TOL,
                f"see-saw CH value {value!r} differs from the exact maximum {exact!r}",
            )
        cap = optimizer.max_value_cap(tau)
        _gate(value <= cap + CAP_TOL, f"see-saw value {value!r} exceeds the cap {cap!r} at tau {tau!r}")
        direct = bell_model.quantum_value(rho, result.measurements, tau).value
        _gate(
            abs(direct - value) <= VALUE_TOL,
            f"quantum_value {direct!r} at the returned measurements differs from {value!r}",
        )


class NumericBracket:
    """The full numeric report: closed-form bounds plus the critical-curve bound."""

    name = "numeric_bracket"
    strata = 16
    # Thresholds start this far above the cutoff.  A report's cost grows
    # without bound as tau_obs nears the cutoff, so without a floor the
    # closest threshold a seed happens to draw would set a run's throughput.
    # The lowest stratum still costs two to three times the median report.
    cutoff_gap = 0.01
    max_tries = 2000

    def __init__(self, work_dir: Path, references: Path):
        self.demo_reference = json.loads((references / "demo_slice.json").read_text(encoding="utf-8"))

    def make_inputs(self, seed: int) -> list:
        # Exact Schmidt-state experiments with tau_obs stratified over
        # [cutoff + cutoff_gap, 1.49): the report's cost depends on tau_obs,
        # steeply near the cutoff, so every run gets one threshold from each
        # stratum.  A try aims at the lowest empty stratum and fills whichever
        # empty stratum its threshold lands in; most thresholds overshoot.
        rng = np.random.default_rng([seed, 3])
        edges = np.linspace(bell_model.TAU_MAXENT_CUTOFF + self.cutoff_gap, 1.49, self.strata + 1)
        experiments: dict[int, tuple] = {}
        for _ in range(self.max_tries):
            empty = [k for k in range(self.strata) if k not in experiments]
            if not empty:
                break
            tau0 = float(rng.uniform(edges[empty[0]], edges[empty[0] + 1]))
            gamma = float(rng.uniform(0.0, math.pi / 4))
            if optimizer.pure_state_value_cap(gamma, tau0) <= 0.0:
                continue
            rho = quantum_core.schmidt_state(gamma)
            table = statistics_io.simulate(rho, optimizer.seesaw_max_violation(rho, tau0).measurements)
            threshold = bounds_engine.tau_obs(statistics_io.ch_slice(table))
            if threshold is None or not edges[0] <= threshold < edges[-1]:
                continue
            k = int(np.searchsorted(edges, threshold, side="right")) - 1
            experiments.setdefault(k, (table, math.sin(2.0 * gamma)))
        if len(experiments) < self.strata:
            raise RuntimeError(f"no experiment in {self.strata - len(experiments)} strata after {self.max_tries} tries")
        return [(statistics_io.load(DEMO_SLICE), None)] + [experiments[k] for k in _bit_reversed(self.strata)]

    def warm_up(self, items) -> None:
        bounds_engine.assemble_report(items[0][0], projective=True)
        optimizer.seesaw_max_violation(quantum_core.schmidt_state(0.5), 1.3)

    def op(self, item):
        return bounds_engine.assemble_report(item[0], projective=True, numeric_ub=True)

    def check(self, item, report) -> None:
        numeric = report.upper_bound_numeric
        _gate(numeric is not None, f"no numeric upper bound (notes: {report.notes})")
        _gate(
            numeric <= report.upper_bound_analytic + GATE_TOL,
            f"numeric bound {numeric!r} above the analytic bound {report.upper_bound_analytic!r}",
        )
        c_true = item[1]
        if c_true is None:
            for field, (expected, tol) in self.demo_reference["expected"].items():
                got = getattr(report, field)
                _gate(abs(got - expected) <= tol, f"demo slice {field} = {got!r}, expected {expected} +/- {tol}")
            _gate(report.lower_bound <= numeric + GATE_TOL, f"demo lower bound above numeric {numeric!r}")
        else:
            _gate(
                report.lower_bound - GATE_TOL <= c_true <= numeric + GATE_TOL,
                f"[{report.lower_bound!r}, {numeric!r}] misses C = {c_true!r}",
            )


class TiltSweep:
    """One in-process `bellbound curves` call on a fixed grid across the cutoff.

    The grid is the same for every seed: grids of different tilts cost
    different amounts, and with a handful of operations per run a seeded
    choice among them would widen the run-to-run spread.
    """

    name = "tilt_sweep"

    def __init__(self, work_dir: Path, references: Path):
        self.out_dir = work_dir / "curves"
        self.grid = json.loads((references / "tilt_sweep.json").read_text(encoding="utf-8"))

    def make_inputs(self, seed: int) -> list:
        return [self.grid]

    def warm_up(self, items) -> None:
        cli.build_parser()
        optimizer.seesaw_max_violation(quantum_core.schmidt_state(0.5), 1.3)

    def op(self, grid):
        argv = [
            "curves",
            "--tau-min", repr(grid["tau_min"]),
            "--tau-max", repr(grid["tau_max"]),
            "--grid", str(grid["grid"]),
            "--output", str(self.out_dir),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(self, grid, exit_code) -> None:
        _gate(exit_code == cli.EXIT_OK, f"curves exited with {exit_code}")
        for name in (cli.CSV_VIOLATION, cli.CSV_CONCURRENCE):
            rows = [line.split(",") for line in (self.out_dir / name).read_text(encoding="utf-8").splitlines()]
            expected = [line.split(",") for line in grid[name]]
            _gate(rows[0] == expected[0], f"{name} header {rows[0]} differs from {expected[0]}")
            _gate(len(rows) == len(expected), f"{name} has {len(rows) - 1} rows, expected {len(expected) - 1}")
            for got, want in zip(rows[1:], expected[1:]):
                _gate(len(got) == len(want), f"{name} row {got} has another width than {want}")
                for column, g, w in zip(rows[0], got, want):
                    diff = abs(float(g) - float(w))
                    _gate(
                        diff <= CSV_TOL[column],
                        f"{name} {column} = {g} differs from reference {w} by {diff:.3e}",
                    )
            if name == cli.CSV_VIOLATION:
                for tau, s_q, cap in rows[1:]:
                    _gate(float(s_q) <= float(cap) + CAP_TOL, f"s_q {s_q} above the analytic cap {cap} at tau {tau}")


WORKLOADS = {w.name: w for w in (LabClosed, StateSeesaw, NumericBracket, TiltSweep)}
