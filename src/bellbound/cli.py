"""Command-line surface: certify bounds, simulate, optimize, emit curve CSVs, verify.

Exit-code contract: 0 success, 2 parse/usage error (malformed files,
out-of-range parameters or an ``--output`` that cannot be written),
3 validation failure, 4 numeric failure.  All
commands are deterministic: only ``verify`` draws random numbers, from its
``--seed``, and repeated runs produce byte-identical output files.
``--log-level`` sends the ``"bellbound"`` logger to stderr for one command,
so search diagnostics never reach standard output or the files written.
``demo`` is ``bound --projective`` on the bundled slice, and ``verify`` runs
the registry of :mod:`bellbound.invariants`, which it alone imports.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import math
import sys
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
    try:
        angles = tuple(float(p) for p in text.split(","))
    except ValueError:
        angles = ()
    if len(angles) != 4 or not all(math.isfinite(a) for a in angles):
        raise ValueError(f"--angles needs four comma-separated finite radians, got {text!r}")
    return angles  # type: ignore[return-value]


def _cmd_bound(args) -> int:
    stats = statistics_io.load_demo_slice() if args.input is None else statistics_io.load(args.input)
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
    try:
        taus = np.linspace(args.tau_min, args.tau_max, args.grid)
    except MemoryError:
        raise ValueError(f"--grid {args.grid} is too large: its tilts do not fit in memory") from None
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
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


def _cmd_verify(args) -> int:
    from .invariants import INVARIANTS  # loaded only here, so other commands skip it

    statistics_io.check_tolerance(args.tol)  # before any check prints its line
    failures = []
    for name, check in INVARIANTS:
        try:
            ok, detail = check(args.seed, args.tol)
        except Exception as exc:  # a broken check fails alone; the others still run
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        tag = "PASS" if ok else "FAIL"
        print(f"[{tag}] {name} ({detail})")
        if not ok:
            failures.append(name)
    total = len(INVARIANTS)
    print(f"verification suite: {total - len(failures)}/{total} passed (seed {args.seed})")
    if failures:
        print("failing invariants: " + "; ".join(failures), file=sys.stderr)
        return 1
    return EXIT_OK


def _seed(text: str) -> int:
    # numpy would reject a negative seed only after verify printed its first lines
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _add_log_level(parser, default) -> None:
    parser.add_argument("--log-level", dest="log_level", type=str.upper, choices=LOG_LEVELS,
                        default=default, help="print bellbound log records from this level up to stderr")


def _add_common(parser, *, tol=True, output=False):
    # The option is accepted after the command too; SUPPRESS keeps a command
    # without it from resetting the value given before the command.
    _add_log_level(parser, argparse.SUPPRESS)
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
    p_demo.set_defaults(input=None, projective=True)
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
    p_verify.add_argument("--seed", type=_seed, default=DEFAULT_SEED, help="RNG seed (non-negative)")
    _add_common(p_verify)

    return parser


_HANDLERS = {
    "bound": _cmd_bound,
    "demo": _cmd_bound,
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
    except OSError as exc:  # every file read goes through statistics_io.load, which raises ParseError
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
