import json
import logging
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bellbound
from bellbound import (
    ChSlice,
    bell_model,
    invariants,
    load,
    optimizer,
    quantum_core,
    save,
    schmidt_state,
    simulate,
    statistics_io,
    uniform_table,
)
from bellbound.cli import (
    CSV_CONCURRENCE,
    CSV_VIOLATION,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VALIDATION,
    build_parser,
    main,
)

from conftest import DEMO_SLICE, marginal_past_one_table, near_trivial_experiment

RECORDED_OUTPUTS = Path(__file__).with_name("recorded_cli_outputs.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def edge_of_violation_experiment(tau):
    """The table of the Schmidt state whose max F at ``tau`` falls to 1e-13
    above the optimum, measured with the settings that attain max F there,
    and that state's concurrence."""
    rate = optimizer._Rater(tau)
    lo, hi = optimizer.global_max_violation(tau).gamma_star, math.pi / 4
    for _ in range(45):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if rate([mid])[0][0] > 1e-13 else (lo, mid)
    measurements = optimizer._optimum_point(lo, rate).measurements
    return simulate(schmidt_state(lo), measurements), math.sin(2.0 * lo)


def grab(label: str, text: str) -> float:
    match = re.search(rf"{re.escape(label)}:\s+(-?[0-9.]+)", text)
    assert match, f"label {label!r} not found in:\n{text}"
    return float(match.group(1))


class TestBoundCommand:
    def test_demo_numbers(self, capsys):
        code, out, _ = run(capsys, "demo")
        assert code == EXIT_OK
        assert grab("lower bound", out) == pytest.approx(0.9294, abs=1e-3)
        assert grab("tilt threshold", out) == pytest.approx(1.2100, abs=1e-3)
        assert grab("upper bound (analytic)", out) == pytest.approx(0.9999, abs=1e-3)
        assert grab("upper bound (marginal)", out) == pytest.approx(0.9808, abs=1e-3)

    def test_bound_on_slice_file(self, capsys, tmp_path):
        path = tmp_path / "slice.json"
        save(DEMO_SLICE, path)
        code, out, _ = run(capsys, "bound", "--input", str(path), "--projective")
        assert code == EXIT_OK
        assert grab("CH value (untilted)", out) == pytest.approx(0.1826, abs=1e-6)

    def test_uniform_table_reports_no_violation(self, capsys, tmp_path):
        path = tmp_path / "uniform.json"
        save(uniform_table(), path)
        code, out, _ = run(capsys, "bound", "--input", str(path))
        assert code == EXIT_OK
        assert grab("lower bound", out) == 0.0
        assert "tilt threshold:          absent" in out
        assert "vacuous" in out

    def test_report_file_written(self, capsys, tmp_path):
        in_path = tmp_path / "slice.json"
        out_path = tmp_path / "report.json"
        save(DEMO_SLICE, in_path)
        code, _, _ = run(
            capsys, "bound", "--input", str(in_path), "--projective", "--output", str(out_path)
        )
        assert code == EXIT_OK
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert payload["lower_bound"] == pytest.approx(0.9294, abs=1e-3)

    def test_malformed_file_exits_parse(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops", encoding="utf-8")
        code, _, err = run(capsys, "bound", "--input", str(path))
        assert code == EXIT_PARSE
        assert "input error" in err

    def test_integer_beyond_the_float_range_exits_parse(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"format": "full", "p": [1' + "0" * 400 + ", " + ", ".join(["0.25"] * 15) + "]}",
                        encoding="utf-8")
        code, out, err = run(capsys, "bound", "--input", str(path))
        assert (code, out) == (EXIT_PARSE, "")
        assert err.startswith("input error: p[0] = 1000") and err.endswith(" lies outside [0, 1]\n")

    def test_missing_file_exits_parse(self, capsys, tmp_path):
        code, _, _ = run(capsys, "bound", "--input", str(tmp_path / "nope.json"))
        assert code == EXIT_PARSE

    def test_inconsistent_data_exits_validation(self, capsys, tmp_path):
        slc = ChSlice(j00=0.9, j01=0.2, j10=0.2, j11=0.2, mA0=0.4, mA1=0.5, mB0=0.4, mB1=0.5)
        path = tmp_path / "bad_slice.json"
        save(slc, path)
        code, _, err = run(capsys, "bound", "--input", str(path))
        assert code == EXIT_VALIDATION
        assert "validation failure" in err

    def test_slice_below_lower_frechet_bound_exits_validation(self, capsys, tmp_path):
        slc = ChSlice(j00=0.0, j01=0.0, j10=0.0, j11=0.0, mA0=1.0, mA1=1.0, mB0=1.0, mB1=1.0)
        path = tmp_path / "impossible_slice.json"
        save(slc, path)
        code, _, err = run(capsys, "bound", "--input", str(path))
        assert code == EXIT_VALIDATION
        assert "validation failure" in err

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tol_exits_parse(self, capsys, tmp_path, tol):
        # With --tol inf the PR box would pass validation and get a bracket.
        slc = ChSlice(j00=0.5, j01=0.5, j10=0.5, j11=0.0, mA0=0.5, mA1=0.5, mB0=0.5, mB1=0.5)
        path = tmp_path / "pr_box_slice.json"
        save(slc, path)
        code, out, err = run(capsys, "bound", "--input", str(path), "--tol", tol, "--projective")
        assert code == EXIT_PARSE
        assert "finite" in err and "lower bound" not in out
        code, _, err = run(capsys, "demo", "--tol", tol)
        assert code == EXIT_PARSE and "finite" in err

    def test_near_trivial_threshold_reports_numeric_bound_absent(self, capsys, tmp_path):
        path = tmp_path / "table.json"
        save(near_trivial_experiment()[0], path)
        code, out, _ = run(capsys, "bound", "--input", str(path), "--projective", "--numeric-ub")
        assert code == EXIT_OK
        assert "upper bound (numeric):   absent" in out
        assert "no Schmidt angle violates" in out

    def test_measurements_missing_max_f_exit_numeric(self, capsys, tmp_path, quantum_value_off_by_1e9):
        path = tmp_path / "slice.json"
        save(DEMO_SLICE, path)
        code, out, err = run(capsys, "bound", "--input", str(path), "--projective", "--numeric-ub")
        assert code == EXIT_NUMERIC
        assert "differs from max F" in err and "lower bound" not in out

    @pytest.mark.parametrize("tau", [1.45, 1.49, 1.498, 1.499])
    def test_numeric_bound_contains_a_state_at_the_edge_of_violation(self, capsys, tmp_path, tau):
        # Noise-free data from the Schmidt state whose max F at tau is 1e-13,
        # just above the crossing, so its tilt threshold lies just above tau:
        # the numeric bound, found at that threshold, must not fall below the
        # state's concurrence.
        table, concurrence = edge_of_violation_experiment(tau)
        path, report_path = tmp_path / "table.json", tmp_path / "report.json"
        save(table, path)
        code, _, err = run(capsys, "bound", "--input", str(path), "--numeric-ub", "--output", str(report_path))
        assert (code, err) == (EXIT_OK, "")
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["lower_bound"] <= concurrence <= report["upper_bound_numeric"]
        assert concurrence <= report["upper_bound_analytic"]

    def test_critical_angle_that_violates_cold_exits_numeric(self, capsys, tmp_path, warm_ratings_short_by_1e9):
        # With warm ratings 1e-9 short, the crossing's end rated cold violates,
        # and the numeric bound is refused rather than reported below the
        # state's concurrence.  The data are those of the test above: the
        # experiment rates cold, and the optimum reads only the maximizers of
        # its warm ratings.
        path = tmp_path / "table.json"
        save(edge_of_violation_experiment(1.45)[0], path)
        code, out, err = run(capsys, "bound", "--input", str(path), "--numeric-ub")
        assert code == EXIT_NUMERIC
        assert err.startswith("numeric failure: critical angle ") and " cold, not below " in err
        assert "lower bound" not in out

    def test_positive_ch_value_with_vanishing_setting_0_marginals_exits_validation(self, capsys, tmp_path):
        path = tmp_path / "no_marginals.json"
        save(ChSlice(j00=5e-7, j01=0.0, j10=0.0, j11=0.0, mA0=0.0, mA1=0.5, mB0=0.0, mB1=0.5), path)
        code, out, err = run(capsys, "bound", "--input", str(path))
        assert (code, out) == (EXIT_VALIDATION, "")
        assert "vanishing setting-0 marginals" in err

    @pytest.mark.parametrize("tol", [[], ["--tol", "1e-5"]], ids=["default-tol", "tol-1e-5"])
    def test_marginal_within_tolerance_past_1_is_bounded(self, capsys, tmp_path, tol):
        path = tmp_path / "table.json"
        save(marginal_past_one_table(4e-7), path)
        code, out, err = run(capsys, "bound", "--input", str(path), *tol)
        assert (code, err) == (EXIT_OK, "")
        assert "validation:              pass" in out

    def test_marginal_past_1_beyond_tolerance_exits_validation(self, capsys, tmp_path):
        path = tmp_path / "table.json"
        save(marginal_past_one_table(2e-5), path)
        code, out, err = run(capsys, "bound", "--input", str(path))
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err.startswith("validation failure:")

    def test_slice_no_state_can_produce_exits_validation(self, capsys, tmp_path):
        # CH value 0.2 within Tsirelson's bound, but at tilt 1.11 its observed
        # value 0.2 - 0.7 * 0.11 lies 9.0e-3 above the largest max F any
        # state reaches there: the bracket is empty.
        slc = ChSlice(j00=0.35, j01=0.35, j10=0.35, j11=0.15, mA0=0.35, mA1=0.5, mB0=0.35, mB1=0.5)
        path = tmp_path / "unreachable_slice.json"
        save(slc, path)
        code, out, err = run(capsys, "bound", "--input", str(path))
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err.startswith("validation failure:") and "empty bracket" in err

    def test_pr_box_slice_exits_validation(self, capsys, tmp_path):
        # CH value 1/2, far above the quantum maximum (sqrt(2) - 1)/2.
        slc = ChSlice(j00=0.5, j01=0.5, j10=0.5, j11=0.0, mA0=0.5, mA1=0.5, mB0=0.5, mB1=0.5)
        path = tmp_path / "pr_box_slice.json"
        save(slc, path)
        code, out, err = run(capsys, "bound", "--input", str(path), "--projective")
        assert code == EXIT_VALIDATION
        assert "validation failure" in err and "tsirelson_residual" in err
        assert "lower bound" not in out


class TestSimulateCommand:
    def test_writes_table(self, capsys, tmp_path):
        out = tmp_path / "table.json"
        code, text, _ = run(
            capsys, "simulate", "--gamma", str(math.pi / 4), "--output", str(out)
        )
        assert code == EXIT_OK
        table = load(out)
        assert table.prob(0, 0, 0, 0) == pytest.approx(0.5, abs=1e-12)
        assert "p(0,0|0,0) = 0.5" in text

    def test_bad_gamma_exits_parse(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "simulate", "--gamma", "2.0", "--output", str(tmp_path / "t.json")
        )
        assert code == EXIT_PARSE
        assert "parameter error" in err

    def test_bad_angles_exit_parse(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            "simulate",
            "--gamma",
            "0.5",
            "--angles",
            "1,2,3",
            "--output",
            str(tmp_path / "t.json"),
        )
        assert code == EXIT_PARSE


    @pytest.mark.parametrize("angles", ["inf,0,0,0", "0,nan,0,0", "0,0,0,-inf", "x,0,0,0", "1,2,3"])
    def test_non_finite_or_malformed_angles_exit_parse(self, capsys, tmp_path, angles):
        out = tmp_path / "t.json"
        code, text, err = run(capsys, "simulate", "--gamma", "0.5", f"--angles={angles}", "--output", str(out))
        assert (code, text) == (EXIT_PARSE, "")
        assert err == f"parameter error: --angles needs four comma-separated finite radians, got {angles!r}\n"
        assert not out.exists()


class TestOptimizeCommand:
    def test_untilted_optimum(self, capsys, tmp_path):
        out = tmp_path / "opt.json"
        code, text, _ = run(capsys, "optimize", "--tau", "1.0", "--output", str(out))
        assert code == EXIT_OK
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["s_q"] == pytest.approx(1.0 / math.sqrt(2.0) - 0.5, abs=1e-6)
        assert payload["gamma_star"] == pytest.approx(math.pi / 4, abs=1e-3)
        measurements = optimizer.global_max_violation(1.0).measurements
        assert payload["measurements"] == {
            "alice": [[v.x, v.y, v.z] for v in measurements.alice],
            "bob": [[v.x, v.y, v.z] for v in measurements.bob],
        }
        assert "gamma*" in text

    def test_out_of_range_tilt_exits_parse(self, capsys):
        code, _, _ = run(capsys, "optimize", "--tau", "1.6")
        assert code == EXIT_PARSE
        code, _, _ = run(capsys, "optimize", "--tau", "0.5")
        assert code == EXIT_PARSE

    def test_trivial_tilt_names_the_range_without_a_hint(self, capsys):
        # No command or search takes the argument coefficients() does, so the
        # message gives the range and the reason only.
        code, out, err = run(capsys, "optimize", "--tau", "1.5")
        assert (code, out) == (EXIT_PARSE, "")
        assert err == (
            "parameter error: tilt parameter 1.5 is outside [1, 3/2); "
            "the inequality is trivially satisfied there\n"
        )

    @pytest.mark.parametrize("tau", ["nan", "inf", "-inf"])
    def test_non_finite_tilt_exits_parse(self, capsys, tau):
        code, out, err = run(capsys, "optimize", f"--tau={tau}")
        assert code == EXIT_PARSE and out == ""
        assert f"tilt parameter must be a finite number in [1, 3/2), got {float(tau)!r}" in err


class TestCurvesCommand:
    def test_files_and_dominance(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "curves",
            "--tau-min",
            "1.0",
            "--tau-max",
            "1.3",
            "--grid",
            "4",
            "--output",
            str(tmp_path),
        )
        assert code == EXIT_OK
        violation = (tmp_path / "max_violation_curve.csv").read_text(encoding="utf-8")
        concurrence = (tmp_path / "concurrence_curve.csv").read_text(encoding="utf-8")
        vlines = violation.strip().splitlines()
        clines = concurrence.strip().splitlines()
        assert vlines[0] == "tau,s_q,analytic_cap"
        assert clines[0] == "tau,c_optimal,c_critical"
        assert len(vlines) == 5 and len(clines) == 5
        first = vlines[1].split(",")
        assert float(first[0]) == 1.0
        assert float(first[1]) == pytest.approx(1.0 / math.sqrt(2.0) - 0.5, abs=1e-5)
        for line in vlines[1:]:
            tau, s_q, cap = map(float, line.split(","))
            assert s_q <= cap + 1e-9
        row = clines[1].split(",")
        assert float(row[1]) == pytest.approx(1.0, abs=1e-3)

    def test_near_trivial_tilt_row_vanishes(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            "curves",
            "--tau-min",
            "1.45",
            "--tau-max",
            "1.499",
            "--grid",
            "2",
            "--output",
            str(tmp_path),
        )
        assert code == EXIT_OK
        last = (tmp_path / "max_violation_curve.csv").read_text(encoding="utf-8").strip()
        tau, s_q, cap = map(float, last.splitlines()[-1].split(","))
        assert tau == pytest.approx(1.499)
        assert s_q <= 1e-3
        assert s_q <= cap + 1e-9

    def test_tilt_without_a_violating_angle_leaves_the_critical_value_absent(self, capsys, tmp_path):
        # 1.4999 passes the range check, but no Schmidt angle violates there:
        # its row keeps the optimum and writes c_critical as nan.
        code, _, _ = run(
            capsys,
            "curves",
            "--tau-min",
            "1.3",
            "--tau-max",
            "1.4999",
            "--grid",
            "2",
            "--output",
            str(tmp_path),
        )
        assert code == EXIT_OK
        rows = (tmp_path / CSV_CONCURRENCE).read_text(encoding="utf-8").strip().splitlines()
        first, last = (row.split(",") for row in rows[1:])
        assert 0.0 < float(first[2]) < 1.0
        assert last[0] == "1.4999"
        assert math.isnan(float(last[2]))
        assert 0.0 < float(last[1]) < 1e-3
        violation = (tmp_path / CSV_VIOLATION).read_text(encoding="utf-8").strip().splitlines()
        assert float(violation[-1].split(",")[1]) <= 1e-10

    def test_grid_too_large_to_allocate_exits_parse(self, capsys, tmp_path):
        # 1e15 tilts would take 7 PiB: the allocation fails at once, and
        # nothing is written.
        out = tmp_path / "curves"
        code, text, err = run(capsys, "curves", "--grid", "1000000000000000", "--output", str(out))
        assert (code, text) == (EXIT_PARSE, "")
        assert err.startswith("parameter error: --grid 1000000000000000") and err.count("\n") == 1
        assert not out.exists()

    def test_single_tilt_grid_exits_parse(self, capsys, tmp_path):
        code, text, err = run(capsys, "curves", "--grid", "1", "--output", str(tmp_path / "curves"))
        assert (code, text) == (EXIT_PARSE, "")
        assert "--grid must be at least 2" in err

    def test_bad_range_exits_parse(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "curves", "--tau-min", "1.2", "--tau-max", "1.6", "--output", str(tmp_path)
        )
        assert code == EXIT_PARSE


class TestUnwritableOutput:
    """An ``--output`` that cannot be written ends in one ``output error`` line and exit 2."""

    ARGV = {
        "bound": ["--input", "{slice}"],
        "demo": [],
        "simulate": ["--gamma", "0.3"],
        "optimize": ["--tau", "1.3"],
        "curves": ["--tau-min", "1.0", "--tau-max", "1.1", "--grid", "2"],
    }

    @pytest.mark.parametrize("kind", ["under a missing directory", "of the wrong kind"])
    @pytest.mark.parametrize("command", list(ARGV))
    def test_exits_parse_with_one_line(self, capsys, tmp_path, command, kind):
        slice_path = tmp_path / "slice.json"
        save(DEMO_SLICE, slice_path)
        if command == "curves":
            # curves makes missing directories, so both cases put a file where it needs one.
            output = slice_path / "curves" if kind.startswith("under") else slice_path
        else:
            output = tmp_path / "missing" / "out.json" if kind.startswith("under") else tmp_path
        argv = [a.format(slice=slice_path) for a in self.ARGV[command]]
        before = sorted(tmp_path.rglob("*"))
        code, _, err = run(capsys, command, *argv, "--output", str(output))
        assert code == EXIT_PARSE
        assert err.startswith("output error: ") and err.count("\n") == 1
        assert sorted(tmp_path.rglob("*")) == before


class TestLogLevel:
    def test_debug_log_leaves_curves_outputs_unchanged(self, capsys, tmp_path):
        log = logging.getLogger("bellbound")
        handlers, level = list(log.handlers), log.level

        def curves(*extra):
            code, out, err = run(capsys, "curves", "--grid", "2", "--output", str(tmp_path), *extra)
            assert code == EXIT_OK
            return out, err, [(tmp_path / name).read_bytes() for name in (CSV_VIOLATION, CSV_CONCURRENCE)]

        out, err, files = curves()
        debug_out, debug_err, debug_files = curves("--log-level", "DEBUG")
        assert (debug_out, debug_files) == (out, files)
        assert err == ""
        assert re.search(
            r"(?m)DEBUG bellbound: Schmidt optimum at tau 1\.49: 9 angles rated cold and 5 warm, \d+ Newton steps, "
            r"peak bracket \[\S+, \S+\] with slopes \S+ and \S+$",
            debug_err,
        )
        assert re.search(
            r"(?m)DEBUG bellbound: critical angle at tau 1\.49: 2 angles rated cold and 9 warm, \d+ Newton steps, "
            r"bracket \[\S+, \S+\] with max F \S+ and \S+$",
            debug_err,
        )
        assert (log.handlers, log.level) == (handlers, level)

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_option_before_or_after_the_command(self):
        parser = build_parser()
        assert parser.parse_args(["verify"]).log_level is None
        assert parser.parse_args(["--log-level", "info", "verify"]).log_level == "INFO"
        assert parser.parse_args(["verify", "--log-level", "debug"]).log_level == "DEBUG"
        with pytest.raises(SystemExit):
            parser.parse_args(["verify", "--log-level", "loud"])


class TestVerifyCommand:
    def test_passes_and_is_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "verify")
        code2, out2, _ = run(capsys, "verify")
        assert code1 == EXIT_OK and code2 == EXIT_OK
        assert out1 == out2
        assert "[FAIL]" not in out1
        assert "14/14 passed" in out1

    def test_a_wrong_born_rule_fails_the_value_check(self, capsys, monkeypatch):
        # simulate and quantum_value share one Born table, so the check needs
        # its own reference.  Swapping Bob's outcomes at setting 1 leaves a
        # valid table, just not the one the measurements give.
        def swapped(rho, m):
            table = quantum_core.joint_probability(rho, m)
            wrong = table.copy()
            wrong[:, 1] = table[:, 1, :, ::-1]
            return wrong

        for module in (bell_model, statistics_io):
            monkeypatch.setattr(module, "joint_probability", swapped)
        code, out, _ = run(capsys, "verify")
        assert code == 1
        assert "[FAIL] quantum value matches simulated classical value" in out

    def test_negative_seed_is_rejected_before_any_output(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["verify", "--seed", "-1"])
        captured = capsys.readouterr()
        assert caught.value.code == EXIT_PARSE
        assert captured.out == ""
        assert "--seed: expected a non-negative integer, got '-1'" in captured.err

    @pytest.mark.parametrize("tol", ["nan", "0", "inf", "-1"])
    def test_bad_tolerance_is_rejected_before_any_output(self, capsys, tol):
        code, out, err = run(capsys, "verify", "--tol", tol)
        assert (code, out) == (EXIT_PARSE, "")
        assert "tolerance must be positive and finite" in err

    def test_an_invariant_that_raises_fails_alone(self, capsys, monkeypatch):
        def broken(seed, tol):
            raise RuntimeError("broken on purpose")

        patched = list(invariants.INVARIANTS)
        name = patched[3][0]
        patched[3] = (name, broken)
        monkeypatch.setattr(invariants, "INVARIANTS", patched)
        code, out, err = run(capsys, "verify")
        lines = out.splitlines()
        assert code == 1
        assert lines[3] == f"[FAIL] {name} (RuntimeError: broken on purpose)"
        assert sum(line.startswith("[PASS] ") for line in lines) == 13
        assert lines[-1] == "verification suite: 13/14 passed (seed 2071)"
        assert err == f"failing invariants: {name}\n"

    def test_importing_the_cli_leaves_the_invariants_unloaded(self):
        # Only verify imports the registry, so every other command starts without it.
        probe = "import sys, bellbound, bellbound.cli; sys.exit('bellbound.invariants' in sys.modules)"
        src = str(Path(bellbound.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0

    def test_exit_codes_are_distinct(self):
        assert len({EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, EXIT_NUMERIC}) == 4


class TestRecordedOutputs:
    """The outputs of the numeric searches and of ``verify`` are byte-identical to recordings.

    ``recorded_cli_outputs.json`` holds the stdout and the files of
    ``curves --grid 25`` (default range) and ``optimize --tau 1.25``, recorded
    before the coarse Schmidt-angle scan skipped angles by their analytic
    cap, and the stdout of ``verify`` (default seed and seed 7) and
    ``demo --numeric-ub``, recorded before the invariants moved out of the
    CLI into their registry; stdout names the output directory as
    ``{output}``.  The recordings hold for one floating-point environment
    (numpy 2.4 with OpenBLAS on x86-64); a libm or BLAS that rounds
    differently changes the last printed digit of some value without any
    change to the code.
    """

    @pytest.mark.parametrize(
        "command",
        ["curves --grid 25", "optimize --tau 1.25", "verify", "verify --seed 7", "demo --numeric-ub"],
    )
    def test_matches_the_recording(self, capsys, tmp_path, command):
        recorded = json.loads(RECORDED_OUTPUTS.read_text(encoding="utf-8"))[command]
        argv = command.split()
        if argv[0] == "curves":
            argv += ["--output", str(tmp_path)]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (EXIT_OK, "")
        assert out.replace(str(tmp_path), "{output}") == recorded["stdout"]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(recorded["files"])
        for name, text in recorded["files"].items():
            assert (tmp_path / name).read_bytes() == text.encode("utf-8")

    def test_verify_after_curves_in_one_process(self, capsys, tmp_path):
        # The commands share one parser; a parse leaves nothing behind that a
        # later command reads.
        recorded = json.loads(RECORDED_OUTPUTS.read_text(encoding="utf-8"))["verify"]
        code, _, _ = run(capsys, "curves", "--grid", "2", "--output", str(tmp_path))
        assert code == EXIT_OK
        assert run(capsys, "verify") == (EXIT_OK, recorded["stdout"], "")
