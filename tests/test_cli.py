import json
import logging
import math
import re

import pytest

from bellbound import ChSlice, load, save, uniform_table
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

from conftest import DEMO_SLICE


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


class TestOptimizeCommand:
    def test_untilted_optimum(self, capsys, tmp_path):
        out = tmp_path / "opt.json"
        code, text, _ = run(capsys, "optimize", "--tau", "1.0", "--output", str(out))
        assert code == EXIT_OK
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["s_q"] == pytest.approx(1.0 / math.sqrt(2.0) - 0.5, abs=1e-6)
        assert payload["gamma_star"] == pytest.approx(math.pi / 4, abs=1e-3)
        assert "gamma*" in text

    def test_out_of_range_tilt_exits_parse(self, capsys):
        code, _, _ = run(capsys, "optimize", "--tau", "1.6")
        assert code == EXIT_PARSE
        code, _, _ = run(capsys, "optimize", "--tau", "0.5")
        assert code == EXIT_PARSE


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

    def test_bad_range_exits_parse(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "curves", "--tau-min", "1.2", "--tau-max", "1.6", "--output", str(tmp_path)
        )
        assert code == EXIT_PARSE


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
        assert "DEBUG bellbound: Schmidt optimum at tau 1.49: 98 angles rated" in debug_err
        assert "DEBUG bellbound: critical angle at tau 1.49: " in debug_err
        assert "bracket [" in debug_err
        assert (log.handlers, log.level) == (handlers, level)

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

    def test_exit_codes_are_distinct(self):
        assert len({EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, EXIT_NUMERIC}) == 4
