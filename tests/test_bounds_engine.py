import json
import math

import numpy as np
import pytest

from bellbound import (
    TAU_MAXENT_CUTOFF,
    ChSlice,
    MeasurementSet,
    NumericFailure,
    ValidationFailure,
    assemble_report,
    ch_slice,
    ch_value,
    evaluate_classical,
    lower_bound_concurrence,
    maximally_entangled_state,
    random_measurement_set,
    save_report,
    schmidt_state,
    seesaw_max_violation,
    simulate,
    tau_obs,
    uniform_table,
    upper_bound_analytic,
    upper_bound_marginal,
    upper_bound_numeric,
    validate,
)
from bellbound import bounds_engine
from bellbound.bounds_engine import NOTE_BELOW_CUTOFF, NOTE_NO_VIOLATION
from bellbound.optimizer import SeesawConfig
from bellbound.statistics_io import ProbabilityTable

from conftest import DEMO_SLICE

TSIRELSON = 1.0 / math.sqrt(2.0) - 0.5
FAST = SeesawConfig(restarts=4, max_iterations=400)


class TestLowerBound:
    def test_no_violation_gives_trivial_bound(self):
        assert lower_bound_concurrence(0.0) == 0.0
        assert lower_bound_concurrence(-0.3) == 0.0

    def test_tsirelson_violation_forces_maximal_entanglement(self):
        assert lower_bound_concurrence(TSIRELSON) == pytest.approx(1.0, abs=1e-12)

    def test_demo_value(self):
        # Published lower bound 0.9297 came from unrounded data; the printed
        # digits give 0.92939...
        bound = lower_bound_concurrence(0.1826)
        assert bound == pytest.approx(0.9293928340588814, abs=1e-12)
        assert bound == pytest.approx(0.9297, abs=1e-3)

    def test_monotone_increasing(self):
        grid = np.linspace(0.0, TSIRELSON, 300)
        values = [lower_bound_concurrence(float(s)) for s in grid]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


class TestTauObs:
    def test_demo_slice(self):
        threshold = tau_obs(DEMO_SLICE)
        assert threshold == pytest.approx(1.2099816007359705, abs=1e-9)
        assert threshold == pytest.approx(1.2102, abs=1e-3)

    def test_agrees_with_fine_scan(self):
        threshold = tau_obs(DEMO_SLICE)
        taus = np.arange(TAU_MAXENT_CUTOFF, 1.5, 1e-6)
        values = np.array([evaluate_classical(DEMO_SLICE, float(t)).value for t in taus[:1]])
        # Affine in the tilt: evaluate endpoints and interpolate the whole scan.
        v0 = evaluate_classical(DEMO_SLICE, float(taus[0])).value
        slope = -(DEMO_SLICE.mA0 + DEMO_SLICE.mB0)
        scan_values = v0 + slope * (taus - taus[0])
        violating = taus[scan_values > 0.0]
        assert violating.size > 0
        assert threshold == pytest.approx(float(violating.max()), abs=1e-6)

    def test_absent_without_ch_violation(self):
        assert tau_obs(ch_slice(uniform_table())) is None

    def test_absent_when_violation_below_cutoff(self):
        # A mild violation: root 1 + s/(mA0+mB0) stays below the cutoff.
        slc = ChSlice(j00=0.35, j01=0.35, j10=0.35, j11=0.0, mA0=0.5, mA1=0.5, mB0=0.5, mB1=0.5)
        assert ch_value(slc) > 0.0
        assert tau_obs(slc) is None

    def test_chsh_optimal_statistics_sit_on_the_cutoff(self):
        slc = ch_slice(simulate(maximally_entangled_state(), MeasurementSet.chsh_optimal()))
        threshold = tau_obs(slc)
        assert threshold is not None
        assert threshold == pytest.approx(TAU_MAXENT_CUTOFF, abs=1e-9)


class TestUpperBoundAnalytic:
    def test_demo_threshold(self):
        assert upper_bound_analytic(1.2102) == pytest.approx(0.9999, abs=1e-4)

    def test_trivial_tilt_forces_product_state(self):
        assert upper_bound_analytic(1.5) == pytest.approx(0.0, abs=1e-12)

    def test_cutoff_is_vacuous(self):
        assert upper_bound_analytic(TAU_MAXENT_CUTOFF) == pytest.approx(1.0, abs=1e-6)

    def test_domain_error_below_cutoff(self):
        with pytest.raises(ValueError):
            upper_bound_analytic(1.1)

    def test_monotone_decreasing(self):
        grid = np.linspace(TAU_MAXENT_CUTOFF, 1.5, 300)
        values = [upper_bound_analytic(float(t)) for t in grid]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


class TestUpperBoundNumeric:
    def test_demo_threshold_bracket(self):
        value = upper_bound_numeric(1.2102)
        assert 0.9 < value <= 0.9999 + 1e-4
        assert value <= upper_bound_analytic(1.2102) + 1e-6

    def test_cutoff_is_nearly_vacuous(self):
        assert upper_bound_numeric(TAU_MAXENT_CUTOFF) >= 1.0 - 1e-3

    def test_strong_tilt(self):
        assert upper_bound_numeric(1.49) < 0.3


class TestUpperBoundMarginal:
    def test_demo_slice(self):
        bound = upper_bound_marginal(DEMO_SLICE, projective=True)
        assert bound == pytest.approx(0.9808032422458646, abs=1e-12)
        assert bound == pytest.approx(0.9806, abs=5e-4)

    def test_extreme_marginal_forces_product_state(self):
        slc = ChSlice(j00=0.0, j01=0.0, j10=0.0, j11=0.0, mA0=0.0, mA1=0.5, mB0=0.5, mB1=0.5)
        assert upper_bound_marginal(slc, projective=True) == 0.0

    def test_uniform_marginals_are_vacuous(self):
        slc = ch_slice(uniform_table())
        assert upper_bound_marginal(slc, projective=True) == pytest.approx(1.0, abs=1e-12)

    def test_absent_without_projective_flag(self):
        assert upper_bound_marginal(DEMO_SLICE, projective=False) is None


class TestAssembleReport:
    def test_demo_report_composite(self):
        report = assemble_report(DEMO_SLICE, projective=True)
        assert report.s_ch_obs == pytest.approx(0.1826, abs=1e-12)
        assert report.lower_bound == pytest.approx(0.9294, abs=1e-3)
        assert report.tau_obs == pytest.approx(1.2100, abs=1e-3)
        assert report.upper_bound_analytic == pytest.approx(0.9999, abs=1e-4)
        assert report.upper_bound_marginal == pytest.approx(0.9808, abs=1e-3)
        assert report.upper_bound_numeric is None
        assert report.two_qubit_assumed and report.projective_assumed
        assert report.diagnostics.verdict == "pass"

    def test_uniform_table_report(self):
        report = assemble_report(uniform_table(), projective=True)
        assert report.lower_bound == 0.0
        assert report.tau_obs is None
        assert report.upper_bound_analytic == 1.0
        assert report.upper_bound_marginal == pytest.approx(1.0, abs=1e-12)
        assert NOTE_NO_VIOLATION in report.notes

    def test_below_cutoff_note(self):
        slc = ChSlice(j00=0.35, j01=0.35, j10=0.35, j11=0.0, mA0=0.5, mA1=0.5, mB0=0.5, mB1=0.5)
        report = assemble_report(slc)
        assert report.tau_obs is None
        assert report.upper_bound_analytic == 1.0
        assert NOTE_BELOW_CUTOFF in report.notes

    def test_validation_failure_refuses_report(self):
        p = np.array(uniform_table().p)
        p[0, 0, 0, 0] = 0.5  # breaks normalization and no-signaling
        with pytest.raises(ValidationFailure) as excinfo:
            assemble_report(ProbabilityTable(p))
        assert excinfo.value.report.verdict == "fail"

    def test_pr_box_slice_refused(self):
        slc = ChSlice(j00=0.5, j01=0.5, j10=0.5, j11=0.0, mA0=0.5, mA1=0.5, mB0=0.5, mB1=0.5)
        with pytest.raises(ValidationFailure) as excinfo:
            assemble_report(slc, projective=True)
        assert excinfo.value.report.verdict == "fail"

    def test_lower_bound_above_marginal_bound_refused(self):
        # Structurally valid and within Tsirelson's bound, but a CH value of
        # 0.1 needs concurrence 0.663 while the marginal 0.1 allows at most 0.6.
        slc = ChSlice(j00=0.1, j01=0.1, j10=0.5, j11=0.0, mA0=0.1, mA1=0.5, mB0=0.5, mB1=0.5)
        report = assemble_report(slc)
        assert report.diagnostics.verdict == "pass"
        assert report.lower_bound == pytest.approx(math.sqrt(0.44), abs=1e-12)
        with pytest.raises(ValidationFailure, match="marginal upper bound"):
            assemble_report(slc, projective=True)

    def test_lower_bound_above_analytic_bound_refused(self):
        # CH value 0.15 (lower bound 0.83) persists to tilt 1.375, where the
        # analytic cap is 0.733.
        slc = ChSlice(j00=0.2, j01=0.2, j10=0.15, j11=0.0, mA0=0.2, mA1=0.5, mB0=0.2, mB1=0.5)
        assert validate(slc).verdict == "pass"
        with pytest.raises(ValidationFailure, match="analytic upper bound"):
            assemble_report(slc)

    def test_numeric_bound_below_lower_bound_refused(self, monkeypatch):
        monkeypatch.setattr(bounds_engine, "upper_bound_numeric", lambda tau: 0.5)
        with pytest.raises(NumericFailure, match="empty bracket"):
            assemble_report(DEMO_SLICE, projective=True, numeric_ub=True)

    def test_end_to_end_bounds_bracket_true_concurrence(self):
        # Simulate the pi/8 state with its own tilt-1.3 optimal measurements.
        rho = schmidt_state(math.pi / 8)
        measurements = seesaw_max_violation(rho, 1.3, FAST).measurements
        report = assemble_report(simulate(rho, measurements), projective=True, numeric_ub=True)
        truth = math.sin(math.pi / 4)
        assert report.lower_bound <= truth + 1e-6
        for upper in report.present_upper_bounds():
            assert truth <= upper + 1e-6

    def test_bracketing_on_random_experiments(self, rng):
        for _ in range(30):
            gamma = float(rng.uniform(0.0, math.pi / 4))
            rho = schmidt_state(gamma)
            report = assemble_report(simulate(rho, random_measurement_set(rng)), projective=True)
            truth = math.sin(2.0 * gamma)
            assert report.lower_bound <= truth + 1e-6
            for upper in report.present_upper_bounds():
                assert truth <= upper + 1e-6

    def test_report_serialization(self, tmp_path):
        report = assemble_report(DEMO_SLICE, projective=True)
        path = tmp_path / "report.json"
        save_report(report, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["s_ch_obs"] == report.s_ch_obs
        assert payload["tau_obs"] == report.tau_obs
        assert payload["upper_bound_numeric"] is None
        assert payload["assumptions"] == {"two_qubit": True, "projective": True}
        assert "lower bound" in payload["summary"]

    def test_summary_text_labels(self):
        text = assemble_report(DEMO_SLICE, projective=True).summary_text()
        for label in ("CH value", "lower bound", "tilt threshold", "upper bound (marginal)"):
            assert label in text


class TestProjectiveMarginalLaw:
    def test_marginals_follow_cosine_law_and_interval(self, rng):
        # Every projective marginal of a Schmidt-angle state equals
        # (1 + cos(theta) cos(2 gamma))/2 and lies inside the admissible band.
        for _ in range(20):
            gamma = float(rng.uniform(0.0, math.pi / 4))
            m = random_measurement_set(rng)
            slc = ch_slice(simulate(schmidt_state(gamma), m))
            cos2g = math.cos(2.0 * gamma)
            observed = (
                (slc.mA0, m.alice[0]),
                (slc.mA1, m.alice[1]),
                (slc.mB0, m.bob[0]),
                (slc.mB1, m.bob[1]),
            )
            for marginal, direction in observed:
                predicted = 0.5 * (1.0 + direction.z * cos2g)
                assert marginal == pytest.approx(predicted, abs=1e-12)
                assert 0.5 * (1.0 - cos2g) - 1e-12 <= marginal <= 0.5 * (1.0 + cos2g) + 1e-12
