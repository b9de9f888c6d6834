"""Command-line surface: certify bounds, simulate, optimize, emit curve CSVs, verify.

Exit-code contract: 0 success, 2 parse/usage error (malformed files or
out-of-range parameters), 3 validation failure, 4 numeric failure.  All
commands are deterministic: only ``verify`` draws random numbers, from its
``--seed``, and repeated runs produce byte-identical output files.
``--log-level`` sends the ``"bellbound"`` logger to stderr for one command,
so search diagnostics never reach standard output or the files written.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import logging
import math
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import bell_model, bounds_engine, optimizer, quantum_core, statistics_io
from .errors import NoViolationFound, NumericFailure, StatisticsFormatError, ValidationFailure

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NUMERIC = 4

DEFAULT_SEED = 2071
LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")
CSV_VIOLATION = "max_violation_curve.csv"
CSV_CONCURRENCE = "concurrence_curve.csv"


def _g9(value: float) -> str:
    return f"{value:.9g}"


def _parse_angles(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"--angles needs four comma-separated radians, got {text!r}")
    return tuple(float(p) for p in parts)  # type: ignore[return-value]


def _cmd_bound(args) -> int:
    stats = statistics_io.load(args.input)
    report = bounds_engine.assemble_report(
        stats,
        projective=args.projective,
        numeric_ub=args.numeric_ub,
        tol=args.tol,
    )
    print(report.summary_text())
    if args.output:
        bounds_engine.save_report(report, args.output)
        print(f"report written to {args.output}")
    return EXIT_OK


def _cmd_demo(args) -> int:
    with resources.as_file(resources.files("bellbound").joinpath("data/demo_slice.json")) as path:
        stats = statistics_io.load(path)
    report = bounds_engine.assemble_report(
        stats,
        projective=True,
        numeric_ub=args.numeric_ub,
        tol=args.tol,
    )
    print(report.summary_text())
    if args.output:
        bounds_engine.save_report(report, args.output)
        print(f"report written to {args.output}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    angles = _parse_angles(args.angles)
    m = quantum_core.MeasurementSet.from_polar_angles(*angles)
    table = statistics_io.simulate(quantum_core.schmidt_state(args.gamma), m)
    statistics_io.save(table, args.output)
    slc = statistics_io.ch_slice(table)
    print(f"table written to {args.output}")
    print(f"  p(0,0|0,0) = {_g9(slc.j00)}   p_A(0|0) = {_g9(slc.mA0)}   p_B(0|0) = {_g9(slc.mB0)}")
    return EXIT_OK


def _cmd_optimize(args) -> int:
    optimum = optimizer.global_max_violation(args.tau)
    concurrence_star = math.sin(2.0 * optimum.gamma_star)
    print(f"optimum at tilt {_g9(optimum.tau)}")
    print(f"  gamma*:      {_g9(optimum.gamma_star)}")
    print(f"  value:       {_g9(optimum.s_q)}")
    print(f"  concurrence: {_g9(concurrence_star)}")
    for party, vectors in (("alice", optimum.measurements.alice), ("bob", optimum.measurements.bob)):
        for setting, v in enumerate(vectors):
            print(f"  {party}[{setting}] bloch: ({_g9(v.x)}, {_g9(v.y)}, {_g9(v.z)})")
    if args.output:
        payload = {
            "tau": optimum.tau,
            "gamma_star": optimum.gamma_star,
            "s_q": optimum.s_q,
            "concurrence": concurrence_star,
            "measurements": {
                "alice": [[v.x, v.y, v.z] for v in optimum.measurements.alice],
                "bob": [[v.x, v.y, v.z] for v in optimum.measurements.bob],
            },
        }
        Path(args.output).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"optimum written to {args.output}")
    return EXIT_OK


def _cmd_curves(args) -> int:
    if not (1.0 <= args.tau_min < args.tau_max < bell_model.TAU_TRIVIAL):
        raise ValueError(
            f"tilt range [{args.tau_min}, {args.tau_max}] must satisfy 1 <= min < max < 1.5"
        )
    if args.grid < 2:
        raise ValueError("--grid must be at least 2")
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    taus = np.linspace(args.tau_min, args.tau_max, args.grid)
    violation_rows = []
    concurrence_rows = []
    for tau in taus:
        t = float(tau)
        if t >= bell_model.TAU_MAXENT_CUTOFF:
            try:
                point = optimizer.critical_gamma(t)
                optimum, critical = point.optimum, point.c_cr
            except NoViolationFound as exc:  # no violating angle, so no critical curve
                optimum, critical = exc.optimum, math.nan
        else:
            optimum = optimizer.global_max_violation(t)
            critical = 1.0  # below the cutoff even the maximally entangled state violates
        violation_rows.append((t, optimum.s_q, optimizer.max_value_cap(t)))
        concurrence_rows.append((t, math.sin(2.0 * optimum.gamma_star), critical))
    violation_path = out_dir / CSV_VIOLATION
    concurrence_path = out_dir / CSV_CONCURRENCE
    with open(violation_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("tau,s_q,analytic_cap\n")
        for row in violation_rows:
            fh.write(",".join(_g9(v) for v in row) + "\n")
    with open(concurrence_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("tau,c_optimal,c_critical\n")
        for row in concurrence_rows:
            fh.write(",".join(_g9(v) for v in row) + "\n")
    print(f"curve written to {violation_path}")
    print(f"curve written to {concurrence_path}")
    return EXIT_OK


def _verify_checks(seed: int, tol: float):
    maxent = quantum_core.maximally_entangled_state()

    def tilt_domain():
        for bad in (1.6, 0.9):
            try:
                bell_model.coefficients(bad)
            except ValueError:
                continue
            return False, f"tilt {bad} was accepted"
        return True, "tilts 1.6 and 0.9 rejected"

    def coefficient_support():
        rng = np.random.default_rng([seed, 1])
        worst = 0.0
        for _ in range(20):
            t = float(rng.uniform(1.0, 1.5))
            beta = bell_model.coefficients(t).beta
            if int(np.count_nonzero(beta)) != 6:
                return False, "support is not six entries"
            expected = np.zeros((2, 2, 2, 2))
            expected[0, 1, 0, 0] = expected[1, 0, 0, 0] = 1.0 - t
            expected[0, 1, 0, 1] = expected[1, 0, 1, 0] = -t
            expected[0, 0, 0, 0] = 1.0
            expected[1, 1, 0, 0] = -1.0
            worst = max(worst, float(np.max(np.abs(beta - expected))))
        ok = worst <= 1e-15
        return ok, f"max coefficient residual {worst:.3e}"

    def decomposition_identity():
        rng = np.random.default_rng([seed, 2])
        worst = 0.0
        for _ in range(1000):
            table = statistics_io.random_nosignaling_table(rng)
            t = float(rng.uniform(1.0, 1.5))
            direct = bell_model.evaluate_classical(table, t).value
            via_slice = bell_model.evaluate_classical(statistics_io.ch_slice(table), t).value
            decomposed = bell_model.evaluate_from_ch(table, t).value
            worst = max(worst, abs(direct - decomposed), abs(via_slice - decomposed))
        ok = worst <= 1e-12
        return ok, f"max residual {worst:.3e} over 1000 boxes"

    def tilt_slope():
        rng = np.random.default_rng([seed, 3])
        worst = 0.0
        for _ in range(200):
            table = statistics_io.random_nosignaling_table(rng)
            slc = statistics_io.ch_slice(table)
            t1 = float(rng.uniform(1.0, 1.2))
            t2 = float(rng.uniform(1.25, 1.499))
            v1 = bell_model.evaluate_classical(slc, t1).value
            v2 = bell_model.evaluate_classical(slc, t2).value
            slope = (v2 - v1) / (t2 - t1)
            worst = max(worst, abs(slope + (slc.mA0 + slc.mB0)))
        ok = worst <= 1e-12
        return ok, f"max slope residual {worst:.3e}"

    def trivial_nonpositivity():
        rng = np.random.default_rng([seed, 4])
        worst = -math.inf
        for _ in range(1000):
            table = statistics_io.random_nosignaling_table(rng)
            worst = max(
                worst,
                bell_model.evaluate_classical(table, 1.5, allow_trivial_regime=True).value,
            )
        ok = worst <= 1e-12
        return ok, f"max value at tilt 3/2 is {worst:.3e}"

    def kron_value(rho, m, t):
        # The tilted value from tr(rho Pi_a (x) Pi_b), with each projector
        # (I +/- v.sigma)/2 built as a matrix: a Born rule independent of the
        # Bloch-form table that simulate and quantum_value share.
        paulis = (quantum_core.PAULI_X, quantum_core.PAULI_Y, quantum_core.PAULI_Z)

        def projector(v, outcome):
            sign = -1.0 if outcome else 1.0
            return 0.5 * (np.eye(2) + sign * sum(c * pauli for c, pauli in zip(v.as_array(), paulis)))

        beta = bell_model.coefficients(t).beta
        value = 0.0
        for x, y, a, b in itertools.product(range(2), repeat=4):
            op = np.kron(projector(m.alice[x], a), projector(m.bob[y], b))
            value += beta[x, y, a, b] * np.trace(rho.matrix @ op).real
        return value

    def quantum_classical_consistency():
        rng = np.random.default_rng([seed, 5])
        worst = 0.0
        worst_validation = 0.0
        for i in range(50):
            rho = quantum_core.random_two_qubit_state(rng, pure=bool(i % 2))
            m = quantum_core.random_measurement_set(rng)
            t = float(rng.uniform(1.0, 1.5))
            table = statistics_io.simulate(rho, m)
            report = statistics_io.validate(table, 1e-10)
            worst_validation = max(
                worst_validation,
                report.normalization_residual,
                report.nosignaling_residual,
                report.consistency_residual,
            )
            reference = kron_value(rho, m, t)
            direct = bell_model.quantum_value(rho, m, t).value
            simulated = bell_model.evaluate_classical(table, t).value
            worst = max(worst, abs(direct - reference), abs(simulated - reference))
        ok = worst <= 1e-12 and worst_validation <= 1e-10
        return ok, f"max value residual {worst:.3e}, max structural residual {worst_validation:.3e}"

    def schmidt_concurrence():
        worst = 0.0
        for gamma in np.linspace(0.0, math.pi / 4, 50):
            c = quantum_core.concurrence(quantum_core.schmidt_state(float(gamma)))
            worst = max(worst, abs(c - math.sin(2.0 * float(gamma))))
        ok = worst <= 1e-9
        return ok, f"max residual {worst:.3e} on 50 angles"

    def local_unitary_invariance():
        rng = np.random.default_rng([seed, 6])
        worst = 0.0
        for i in range(100):
            rho = quantum_core.random_two_qubit_state(rng, pure=bool(i % 2))
            base = quantum_core.concurrence(rho)
            u = np.kron(
                quantum_core.random_single_qubit_unitary(rng),
                quantum_core.random_single_qubit_unitary(rng),
            )
            rotated = quantum_core.TwoQubitState(u @ rho.matrix @ u.conj().T)
            worst = max(worst, abs(quantum_core.concurrence(rotated) - base))
        ok = worst <= 1e-9
        return ok, f"max residual {worst:.3e} over 100 rotations"

    def projective_marginal_law():
        rng = np.random.default_rng([seed, 7])
        worst = 0.0
        interval_excess = 0.0
        for _ in range(50):
            gamma = float(rng.uniform(0.0, math.pi / 4))
            rho = quantum_core.schmidt_state(gamma)
            m = quantum_core.random_measurement_set(rng)
            slc = statistics_io.ch_slice(statistics_io.simulate(rho, m))
            cos2g = math.cos(2.0 * gamma)
            for marginal, direction in (
                (slc.mA0, m.alice[0]),
                (slc.mA1, m.alice[1]),
                (slc.mB0, m.bob[0]),
                (slc.mB1, m.bob[1]),
            ):
                predicted = 0.5 * (1.0 + direction.z * cos2g)
                worst = max(worst, abs(marginal - predicted))
                interval_excess = max(
                    interval_excess,
                    0.5 * (1.0 - cos2g) - marginal,
                    marginal - 0.5 * (1.0 + cos2g),
                )
        ok = worst <= 1e-12 and interval_excess <= 1e-12
        return ok, f"max law residual {worst:.3e}, max interval excess {interval_excess:.3e}"

    def tsirelson_point():
        cfg = optimizer.SeesawConfig(rng_seed=seed)
        value = optimizer.seesaw_max_violation(maxent, 1.0, cfg).value.value
        residual = abs(value - (1.0 / math.sqrt(2.0) - 0.5))
        ok = residual <= 1e-6
        return ok, f"value {value:.9f}, residual {residual:.3e}"

    def maxent_cutoff():
        cfg = optimizer.SeesawConfig(rng_seed=seed)
        report = optimizer.verify_maximally_entangled_cutoff(
            [1.2072, 1.3, 1.4, 1.49], cfg, measurement_sets_per_tau=25
        )
        worst_violation = max(c.max_violation for c in report.checks)
        worst_identity = max(c.identity_residual for c in report.checks)
        return bool(report.passed), (
            f"max violation {worst_violation:.3e}, max identity residual {worst_identity:.3e}"
        )

    def cap_dominance():
        cfg = optimizer.SeesawConfig(rng_seed=seed)
        worst = -math.inf
        for gamma in (0.2, 0.45, 0.7, math.pi / 4):
            for t in (1.0, 1.1, 1.25, 1.4):
                value = optimizer.seesaw_max_violation(
                    quantum_core.schmidt_state(gamma), t, cfg
                ).value.value
                worst = max(worst, value - optimizer.pure_state_value_cap(gamma, t))
        ok = worst <= 1e-9
        return ok, f"max excess over the analytic cap {worst:.3e}"

    def bound_monotonicity():
        s_grid = np.linspace(0.0, 1.0 / math.sqrt(2.0) - 0.5, 200)
        lowers = [bounds_engine.lower_bound_concurrence(float(s)) for s in s_grid]
        if any(b > a + 1e-15 for a, b in zip(lowers[1:], lowers)):
            return False, "lower bound is not nondecreasing"
        t_grid = np.linspace(bell_model.TAU_MAXENT_CUTOFF, 1.5, 200)
        uppers = [bounds_engine.upper_bound_analytic(float(t)) for t in t_grid]
        if any(b > a + 1e-12 for a, b in zip(uppers, uppers[1:])):
            return False, "analytic upper bound is not nonincreasing"
        return True, "lower bound nondecreasing, analytic upper bound nonincreasing"

    def demo_slice_bounds():
        with resources.as_file(
            resources.files("bellbound").joinpath("data/demo_slice.json")
        ) as path:
            slc = statistics_io.load(path)
        report = bounds_engine.assemble_report(slc, projective=True, tol=tol)
        ok = (
            abs(report.s_ch_obs - 0.1826) <= 1e-4
            and abs(report.lower_bound - 0.9297) <= 1e-3
            and report.tau_obs is not None
            and abs(report.tau_obs - 1.2102) <= 1e-3
            and abs(report.upper_bound_analytic - 0.9999) <= 1e-4
            and abs(report.upper_bound_marginal - 0.9806) <= 5e-4
        )
        return ok, (
            f"lower {report.lower_bound:.4f}, threshold {report.tau_obs:.4f}, "
            f"analytic {report.upper_bound_analytic:.4f}, marginal {report.upper_bound_marginal:.4f}"
        )

    return [
        ("tilt domain rejects out-of-range requests", tilt_domain),
        ("coefficient tensor has six-entry support", coefficient_support),
        ("decomposition identity on no-signaling boxes", decomposition_identity),
        ("value is affine in the tilt with slope -(mA0+mB0)", tilt_slope),
        ("nonpositivity at tilt 3/2", trivial_nonpositivity),
        ("quantum value matches simulated classical value", quantum_classical_consistency),
        ("schmidt-state concurrence equals sin(2 gamma)", schmidt_concurrence),
        ("concurrence invariant under local unitaries", local_unitary_invariance),
        ("projective marginals follow the cosine law", projective_marginal_law),
        ("tsirelson point reproduced by see-saw", tsirelson_point),
        ("maximally entangled state silent past the cutoff", maxent_cutoff),
        ("analytic cap dominates see-saw values", cap_dominance),
        ("bounds are monotone", bound_monotonicity),
        ("bundled demo slice reproduces its bounds", demo_slice_bounds),
    ]


def _cmd_verify(args) -> int:
    checks = _verify_checks(args.seed, args.tol)
    failures = []
    for name, check in checks:
        ok, detail = check()
        tag = "PASS" if ok else "FAIL"
        print(f"[{tag}] {name} ({detail})")
        if not ok:
            failures.append(name)
    total = len(checks)
    print(f"verification suite: {total - len(failures)}/{total} passed (seed {args.seed})")
    if failures:
        print("failing invariants: " + "; ".join(failures), file=sys.stderr)
        return 1
    return EXIT_OK


def _add_log_level(parser, default) -> None:
    parser.add_argument("--log-level", dest="log_level", type=str.upper, choices=LOG_LEVELS,
                        default=default, help="print bellbound log records from this level up to stderr")


def _add_common(parser, *, seed=False, tol=True, output=False):
    # The option is accepted after the command too; SUPPRESS keeps a command
    # without it from resetting the value given before the command.
    _add_log_level(parser, argparse.SUPPRESS)
    if seed:
        parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="RNG seed")
    if tol:
        parser.add_argument("--tol", type=float, default=statistics_io.HARD_VALIDATION_TOL,
                            help="hard validation tolerance")
    if output:
        parser.add_argument("--output", type=str, default=None, help="output file path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellbound",
        description="Bound two-qubit entanglement from 2-setting/2-outcome statistics.",
    )
    _add_log_level(parser, None)
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="derive concurrence bounds from a statistics file")
    p_bound.add_argument("--input", required=True, help="statistics file (full or ch_slice)")
    p_bound.add_argument("--projective", action="store_true",
                         help="assert projective measurements (enables the marginal bound)")
    p_bound.add_argument("--numeric-ub", action="store_true", dest="numeric_ub",
                         help="also run the numeric critical-curve upper bound")
    _add_common(p_bound, output=True)

    p_demo = sub.add_parser("demo", help="run `bound --projective` on the bundled demo slice")
    p_demo.add_argument("--numeric-ub", action="store_true", dest="numeric_ub")
    _add_common(p_demo, output=True)

    p_sim = sub.add_parser("simulate", help="write the Born-rule table of a Schmidt-angle state")
    p_sim.add_argument("--gamma", type=float, required=True, help="Schmidt angle in [0, pi/4]")
    p_sim.add_argument("--angles", type=str, default="0,0,0,0",
                       help="four in-plane polar angles a0,a1,b0,b1 (radians)")
    p_sim.add_argument("--output", type=str, required=True, help="table file to write")
    _add_common(p_sim, tol=False)

    p_opt = sub.add_parser("optimize", help="maximal violation over states at a given tilt")
    p_opt.add_argument("--tau", type=float, required=True, help="tilt parameter in [1, 1.5)")
    _add_common(p_opt, tol=False, output=True)

    p_curves = sub.add_parser("curves", help="emit the violation and concurrence curve CSVs")
    p_curves.add_argument("--tau-min", type=float, default=1.0, dest="tau_min")
    p_curves.add_argument("--tau-max", type=float, default=1.49, dest="tau_max")
    p_curves.add_argument("--grid", type=int, default=25, help="number of tilt grid points")
    p_curves.add_argument("--output", type=str, default=".", help="output directory")
    _add_common(p_curves, tol=False)

    p_verify = sub.add_parser("verify", help="run the invariant verification suite")
    _add_common(p_verify, seed=True)

    return parser


_HANDLERS = {
    "bound": _cmd_bound,
    "demo": _cmd_demo,
    "simulate": _cmd_simulate,
    "optimize": _cmd_optimize,
    "curves": _cmd_curves,
    "verify": _cmd_verify,
}


@contextlib.contextmanager
def _log_to_stderr(level):
    # Attach a stderr handler to the "bellbound" logger for one command and
    # restore the logger afterwards; without a level the logger is untouched.
    if level is None:
        yield
        return
    log = logging.getLogger("bellbound")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(asctime)s %(levelname)s %(name)s: %(message)s"))
    previous = log.level
    log.addHandler(handler)
    log.setLevel(level)
    try:
        yield
    finally:
        log.removeHandler(handler)
        log.setLevel(previous)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.command]
    try:
        with _log_to_stderr(args.log_level):
            return handler(args)
    except ValidationFailure as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except StatisticsFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
