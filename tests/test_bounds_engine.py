import json
import logging
import math
import re

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
    critical_gamma,
    evaluate_classical,
    lower_bound_concurrence,
    max_value_cap,
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
from bellbound import bounds_engine, optimizer, schmidt
from bellbound.bounds_engine import (
    NOTE_BELOW_CUTOFF,
    NOTE_NO_VIOLATION,
    NOTE_NUMERIC_AT_TRIVIAL,
    NOTE_NUMERIC_NO_VIOLATION,
    NOTE_NUMERIC_UNAVAILABLE,
)
from bellbound.statistics_io import ProbabilityTable

from conftest import DEMO_SLICE, marginal_past_one_table, near_trivial_experiment

TSIRELSON = 1.0 / math.sqrt(2.0) - 0.5


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

    def test_equals_critical_gamma(self):
        # A linspace from the cutoff, and seeded tilts from 1.495 on: there
        # the scan's peak lies in the grid's first cell and rates at most 1e-9
        # from 1.4958, so the bound refines the optimum, and from 1.49966 no
        # angle violates.  Two tilts below the cutoff answer 1 unsearched.
        taus = [1.0, 1.1, *np.linspace(TAU_MAXENT_CUTOFF, 1.4999999, 300).tolist()]
        taus += np.random.default_rng(29).uniform(1.495, 1.4999999, 100).tolist()
        bounds = [upper_bound_numeric(tau) for tau in taus]
        assert bounds == [critical_gamma(tau).c_cr for tau in taus]
        assert sum(tau >= 1.4958 and bound is not None for tau, bound in zip(taus, bounds)) >= 60
        assert sum(bound is None for bound in bounds) >= 5

    def test_answers_without_refining_the_optimum(self, monkeypatch):
        expected = {tau: critical_gamma(tau).c_cr for tau in (1.2102, 1.3, 1.427, 1.49)}

        def refused(*args):
            raise AssertionError("the optimum was refined")

        monkeypatch.setattr(optimizer, "_refined_optimum", refused)
        assert {tau: upper_bound_numeric(tau) for tau in expected} == expected

    @staticmethod
    def cold_ratings(monkeypatch, search, tau):
        """The angle and start counts of each cold rating ``search`` makes at ``tau``."""
        schmidt_maxima, calls = schmidt._schmidt_maxima, []

        def recording(gammas, t, starts=schmidt._NEWTON_STARTS):
            calls.append((len(gammas), starts))
            return schmidt_maxima(gammas, t, starts)

        with monkeypatch.context() as patched:
            patched.setattr(optimizer, "_schmidt_maxima", recording)
            search(tau)
        return calls

    @pytest.mark.parametrize("tau", [1.0, 1.1])
    def test_rates_no_angle_below_the_cutoff(self, monkeypatch, tau):
        assert self.cold_ratings(monkeypatch, upper_bound_numeric, tau) == []
        assert upper_bound_numeric(tau) == 1.0

    def test_rates_cold_all_but_the_optimum(self, monkeypatch):
        # At 1.3 the bound makes every cold rating of critical_gamma but the
        # optimum's 4-start one.  At 1.497, where it refines, it scans the
        # whole grid once and rates the optimum once, as critical_gamma does.
        searched = self.cold_ratings(monkeypatch, critical_gamma, 1.3)
        bounded = self.cold_ratings(monkeypatch, upper_bound_numeric, 1.3)
        assert searched.count((1, schmidt._NEWTON_STARTS)) == 2
        searched.remove((1, schmidt._NEWTON_STARTS))
        assert bounded == searched
        scan, optimum = [(8, optimizer._SCAN_STARTS)] * 8, [(1, schmidt._NEWTON_STARTS)]
        crossing = [(1, optimizer._SCAN_STARTS), (1, schmidt._NEWTON_STARTS)]
        for search in (upper_bound_numeric, critical_gamma):
            assert self.cold_ratings(monkeypatch, search, 1.497) == scan + optimum + crossing

    @pytest.mark.parametrize("tau", [1.3, 1.497])
    def test_measurements_missing_max_f_raise(self, quantum_value_off_by_1e9, tau):
        with pytest.raises(NumericFailure, match="differs from max F"):
            upper_bound_numeric(tau)

    def test_logs_its_scan_before_the_crossing(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="bellbound"):
            upper_bound_numeric(1.3)
            upper_bound_numeric(1.497)
        messages = [r.getMessage() for r in caplog.records if r.name == "bellbound"]
        assert len(messages) == 5
        assert re.fullmatch(
            r"Schmidt scan at tau 1\.3: 18 angles rated cold, 58 Newton steps, "
            r"peak at gamma 0\.3615\d+ with max F 1\.834928e-02, optimum not refined",
            messages[0],
        )
        assert messages[1].startswith("critical angle at tau 1.3: 2 angles rated cold and 5 warm, 21 Newton steps")
        assert re.fullmatch(
            r"Schmidt scan at tau 1\.497: 64 angles rated cold, \d+ Newton steps, "
            r"peak at gamma 0 with max F 0\.000000e\+00, refining the optimum",
            messages[2],
        )
        assert messages[3].startswith("Schmidt optimum at tau 1.497: 65 angles rated cold and 5 warm")
        assert messages[4].startswith("critical angle at tau 1.497: 2 angles rated cold")

    def test_domain(self):
        for tau in (1.5, math.nextafter(1.0, 0.0), math.nan):
            with pytest.raises(ValueError, match=r"\[1, 3/2\)"):
                upper_bound_numeric(tau)


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

    def test_no_violating_angle_leaves_numeric_bound_absent(self):
        table, truth = near_trivial_experiment()
        report = assemble_report(table, projective=True, numeric_ub=True)
        assert 1.4999 < report.tau_obs < 1.5 - 1e-9
        assert report.upper_bound_numeric is None
        assert NOTE_NUMERIC_NO_VIOLATION in report.notes
        assert report.lower_bound <= truth + 1e-6
        for upper in report.present_upper_bounds():
            assert truth <= upper + 1e-6

    def test_numeric_bound_without_a_tilt_threshold_is_noted(self):
        report = assemble_report(uniform_table(), numeric_ub=True)
        assert report.tau_obs is None and report.upper_bound_numeric is None
        assert NOTE_NUMERIC_UNAVAILABLE in report.notes

    def test_numeric_bound_at_the_trivial_tilt_is_noted(self):
        # A CH value of 1e-13 over setting-0 marginals of 2e-13 puts the root
        # 1 + s_ch / (mA0 + mB0) at 3/2 itself, where no angle can violate.
        slc = ChSlice(j00=1e-13, j01=1e-13, j10=1e-13, j11=0.0, mA0=1e-13, mA1=0.5, mB0=1e-13, mB1=0.5)
        report = assemble_report(slc, numeric_ub=True)
        assert report.tau_obs == 1.5 and report.upper_bound_numeric is None
        assert NOTE_NUMERIC_AT_TRIVIAL in report.notes

    def test_positive_ch_value_with_vanishing_setting_0_marginals_refused(self):
        # j00 = 5e-7 > min(mA0, mB0) = 0 passes validation's tolerance, but
        # leaves the tilt threshold without a denominator.
        slc = ChSlice(j00=5e-7, j01=0.0, j10=0.0, j11=0.0, mA0=0.0, mA1=0.5, mB0=0.0, mB1=0.5)
        with pytest.raises(ValidationFailure, match="vanishing setting-0 marginals"):
            assemble_report(slc)

    def test_vanishing_marginals_refusal_carries_the_reports_tolerance(self):
        # j00 = 5e-6 over zero marginals passes at tol 1e-5; the refusal
        # carries that verdict, not a re-validation at the default 1e-6.
        slc = ChSlice(j00=5e-6, j01=0.0, j10=0.0, j11=0.0, mA0=0.0, mA1=0.5, mB0=0.0, mB1=0.5)
        with pytest.raises(ValidationFailure, match="vanishing setting-0 marginals") as excinfo:
            assemble_report(slc, tol=1e-5)
        assert excinfo.value.report == validate(slc, 1e-5)
        assert excinfo.value.report.verdict == "pass"

    def test_vanishing_marginals_refusal_carries_the_tables_residuals(self):
        # Setting pair (0, 1) gives outcome (0, 0) with probability 5e-6, which
        # the setting-0 marginals, read from the other blocks, never show: a
        # no-signaling residual of 5e-6 that the slice alone cannot see.
        p = np.zeros((2, 2, 2, 2))
        p[:, :, 1, 1] = 1.0
        p[0, 1, 0, 0], p[0, 1, 1, 1] = 5e-6, 1.0 - 5e-6
        table = ProbabilityTable(p)
        with pytest.raises(ValidationFailure, match="vanishing setting-0 marginals") as excinfo:
            assemble_report(table, tol=1e-5)
        assert excinfo.value.report == validate(table, 1e-5)
        assert excinfo.value.report.nosignaling_residual == pytest.approx(5e-6, rel=1e-9)

    def test_data_no_state_can_produce_is_refused(self):
        # The slices (m, m, m, m - s, m, 1/2, m, 1/2) have CH value s and pass
        # validation up to Tsirelson's bound.  Their observed value
        # v_obs(tau) = s - 2 m (tau - 1) can lie above the largest max F any
        # state reaches at some tilt, max_value_cap(tau); no state then
        # produces them, and the report refuses them by its empty bracket.
        # Of the 3,840 valid slices here, 666 lie above the cap by more than
        # 1e-6 somewhere on the tilt grid; no other slice is refused.
        taus = np.linspace(1.0, 1.5, 500, endpoint=False)
        caps = np.array([max_value_cap(float(t)) for t in taus])
        valid, impossible = 0, 0
        for s in np.linspace(0.2071, 0.0, 48, endpoint=False).tolist():
            for m in np.linspace(s, 0.5, 80).tolist():
                slc = ChSlice(j00=m, j01=m, j10=m, j11=m - s, mA0=m, mA1=0.5, mB0=m, mB1=0.5)
                if validate(slc).verdict != "pass":
                    continue
                valid += 1
                excess = float((ch_value(slc) - (taus - 1.0) * (slc.mA0 + slc.mB0) - caps).max())
                if excess > 1e-6:
                    impossible += 1
                    with pytest.raises(ValidationFailure, match="empty bracket"):
                        assemble_report(slc)
                else:
                    assemble_report(slc)
        assert (valid, impossible) == (3840, 666)

    def test_marginal_within_tolerance_past_1_gives_a_report(self):
        # p_A(0|0) = 1 + 4e-7 is clipped to 1 in the slice; the normalization
        # residual reports the excess.
        report = assemble_report(marginal_past_one_table(4e-7), projective=True)
        assert report.diagnostics.verdict == "pass"
        assert report.diagnostics.normalization_residual == pytest.approx(4e-7, rel=1e-9)
        assert ch_slice(marginal_past_one_table(4e-7)).mA0 == 1.0
        with pytest.raises(ValidationFailure) as excinfo:
            assemble_report(marginal_past_one_table(2e-5), projective=True)
        assert excinfo.value.report.verdict == "fail"

    def test_measurements_missing_max_f_still_raise(self, quantum_value_off_by_1e9):
        with pytest.raises(NumericFailure, match="differs from max F"):
            assemble_report(DEMO_SLICE, projective=True, numeric_ub=True)

    def test_end_to_end_bounds_bracket_true_concurrence(self):
        # Simulate the pi/8 state with its own tilt-1.3 optimal measurements.
        rho = schmidt_state(math.pi / 8)
        measurements = seesaw_max_violation(rho, 1.3).measurements
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

