import dataclasses
import logging
import math
import re

import numpy as np
import pytest

from bellbound import (
    TAU_MAXENT_CUTOFF,
    NumericFailure,
    SeesawConfig,
    critical_gamma,
    global_max_violation,
    in_plane_grid_max_violation,
    max_value_cap,
    maximally_entangled_state,
    pure_state_value_cap,
    quantum_value,
    random_measurement_set,
    random_two_qubit_state,
    schmidt_state,
    seesaw_max_violation,
    verify_maximally_entangled_cutoff,
)
from bellbound import optimizer as opt_module

from conftest import horodecki_ch_max

TSIRELSON = 1.0 / math.sqrt(2.0) - 0.5
FAST = SeesawConfig(restarts=4, max_iterations=400)
INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
COARSE_GRID = np.linspace(0.0, math.pi / 4, opt_module.COARSE_GAMMA_POINTS)


def max_f(gamma, tau):
    return float(opt_module._schmidt_maxima([gamma], tau)[0][0])


def sequential_golden_section_max(f, lo, hi, tol):
    """Plain golden-section search, one evaluation per step: the oracle."""
    c = hi - INV_GOLDEN * (hi - lo)
    d = lo + INV_GOLDEN * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - INV_GOLDEN * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + INV_GOLDEN * (hi - lo)
            fd = f(d)
    return 0.5 * (lo + hi)


def sequential_global_max_violation(tau):
    """Coarse scan, then the sequential golden section on max F."""
    peak = int(np.argmax([max_f(float(g), tau) for g in COARSE_GRID]))
    lo = float(COARSE_GRID[max(peak - 1, 0)])
    hi = float(COARSE_GRID[min(peak + 1, COARSE_GRID.size - 1)])
    gamma_star = sequential_golden_section_max(lambda g: max_f(g, tau), lo, hi, 1e-8)
    return gamma_star, max_f(gamma_star, tau)


def bisection_from(lo, tau, value_at):
    """Plain bisection for the last violating angle in [lo, pi/4]: the oracle."""
    hi = math.pi / 4
    while hi - lo > opt_module.GAMMA_BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if value_at(mid) > opt_module.VIOLATION_THRESHOLD:
            lo = mid
        else:
            hi = mid
    return lo


def clipped_f(gamma, tau, t0, t1):
    """F over polar angles in [0, pi] with the clipped best X, as first derived."""
    c, s = math.cos(2.0 * gamma), math.sin(2.0 * gamma)
    common = s * s * (math.sin(t0) ** 2 + math.sin(t1) ** 2)
    a = common + (math.cos(t0) + math.cos(t1) + 2.0 * (1.0 - tau) * c) ** 2
    b = common + (math.cos(t0) - math.cos(t1)) ** 2
    bound = 2.0 * s * s * abs(math.sin(t0) * math.sin(t1))
    x = min(bound, max(-bound, 0.5 * (b - a)))
    return 0.5 - tau + 0.5 * (1.0 - tau) * c * math.cos(t0) + 0.25 * math.sqrt(a + x) + 0.25 * math.sqrt(b - x)


class TestSeesaw:
    def test_tsirelson_point(self):
        result = seesaw_max_violation(maximally_entangled_state(), 1.0)
        assert result.value.value == pytest.approx(TSIRELSON, abs=1e-6)
        assert result.converged

    def test_no_violation_past_cutoff(self):
        result = seesaw_max_violation(maximally_entangled_state(), 1.21)
        assert result.value.value <= 1e-9

    def test_partially_entangled_saturation(self):
        # The untilted optimum of the pi/8 state, cross-checked against the
        # in-plane grid oracle at 0.001 rad resolution.
        result = seesaw_max_violation(schmidt_state(math.pi / 8), 1.0)
        expected = (math.sqrt(1.5) - 1.0) / 2.0
        assert result.value.value == pytest.approx(expected, abs=1e-6)
        oracle = in_plane_grid_max_violation(math.pi / 8, 1.0, resolution=0.001)
        assert result.value.value == pytest.approx(oracle, abs=1e-6)

    def test_ascent_is_monotone_for_every_restart(self):
        result = seesaw_max_violation(schmidt_state(0.5), 1.2, keep_history=True)
        assert result.histories is not None
        assert len(result.histories) == 8
        for history in result.histories:
            diffs = np.diff(np.array(history))
            assert diffs.min() >= -1e-12

    def test_value_matches_returned_measurements(self, rng):
        for i in range(10):
            rho = random_two_qubit_state(rng, pure=bool(i % 2))
            tau = float(rng.uniform(1.0, 1.5))
            result = seesaw_max_violation(rho, tau)
            recomputed = quantum_value(rho, result.measurements, tau).value
            assert result.value.value == pytest.approx(recomputed, abs=1e-12)

    def test_matches_horodecki_oracle_on_general_states(self):
        # At tilt 1 the exact maximum is known for every state, pure or mixed.
        rng = np.random.default_rng(1995)
        for i in range(30):
            rho = random_two_qubit_state(rng, pure=i % 2 == 0)
            value = seesaw_max_violation(rho, 1.0).value.value
            assert value == pytest.approx(horodecki_ch_max(rho.matrix), abs=1e-9)

    def test_tilt_domain_checked(self):
        with pytest.raises(ValueError):
            seesaw_max_violation(maximally_entangled_state(), 1.5)
        with pytest.raises(ValueError):
            seesaw_max_violation(maximally_entangled_state(), 0.9)

    def test_deterministic_given_seed(self):
        a = seesaw_max_violation(schmidt_state(0.4), 1.25)
        b = seesaw_max_violation(schmidt_state(0.4), 1.25)
        assert a.value.value == b.value.value
        assert a.measurements.alice[0].as_array() == pytest.approx(
            b.measurements.alice[0].as_array(), abs=0.0
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SeesawConfig(restarts=0)
        with pytest.raises(ValueError):
            SeesawConfig(convergence_tol=0.0)


class TestBatchedKernel:
    def test_schmidt_batch_equals_public_calls(self):
        # A batch of angles rated at once, against one public see-saw each.
        gammas = [0.05, 0.4, 0.6, math.pi / 4]
        batched, _, _ = opt_module._schmidt_maxima(gammas, 1.25)
        for gamma, value in zip(gammas, batched):
            single = seesaw_max_violation(schmidt_state(gamma), 1.25)
            assert single.converged
            assert value >= single.value.value - 1e-12
            assert value == pytest.approx(single.value.value, abs=1e-9)
            assert value == max_f(gamma, 1.25)

    def test_search_is_silent_by_default(self, capsys):
        global_max_violation(1.3)
        assert capsys.readouterr() == ("", "")

    def test_restart_starts_drawn_once_and_read_only(self):
        cfg = SeesawConfig(restarts=5, rng_seed=11)
        starts = opt_module._restart_starts(cfg)
        assert opt_module._restart_starts(SeesawConfig(restarts=5, rng_seed=11)) is starts
        fresh = opt_module._restart_starts.__wrapped__(cfg)
        for cached, drawn in zip(starts, fresh):
            assert cached.shape == (5, 3)
            np.testing.assert_array_equal(cached, drawn)
            with pytest.raises(ValueError):
                cached[0, 0] = 0.0


class TestDecidedStates:
    """How a Schmidt angle's outcome is decided: values stay below the cap,
    pi/4 never violates, and the crossing is a plain bisection on max F."""

    @pytest.mark.parametrize("tau", [1.0, 1.1736, 1.3, 1.427, 1.49])
    def test_seesaw_stays_below_the_cap_on_the_coarse_grid(self, tau):
        for gamma in COARSE_GRID:
            value = seesaw_max_violation(schmidt_state(float(gamma)), tau).value.value
            assert value <= pure_state_value_cap(float(gamma), tau) + 1e-12

    def test_maximally_entangled_cap_rules_out_violation(self):
        # Why [gamma_star, pi/4] brackets the crossing in critical_gamma.
        taus = np.linspace(TAU_MAXENT_CUTOFF - 1e-12, 1.5, 4001)[:-1]
        for tau in (*taus, math.nextafter(1.5, 0.0)):
            assert pure_state_value_cap(math.pi / 4, float(tau)) <= opt_module.VIOLATION_THRESHOLD / 2

    @pytest.mark.parametrize("tau", [1.2236, 1.427])
    def test_critical_gamma_equals_plain_bisection(self, tau):
        point = critical_gamma(tau)
        assert point.gamma_c == bisection_from(point.optimum.gamma_star, tau, lambda g: max_f(g, tau))


class TestGoldenSectionRounds:
    """The golden section steps exactly as the textbook sequential search."""

    @staticmethod
    def counted(f, calls):
        def value(x):
            calls.append(x)
            return f(x)

        return value

    def check(self, f, lo, hi, tol=1e-8):
        calls = []
        got = opt_module._golden_section_max(self.counted(f, calls), lo, hi, tol)
        assert got == sequential_golden_section_max(f, lo, hi, tol)
        return got, calls

    def test_unimodal_functions(self):
        for peak in (0.0, 0.1234567, 0.3, 0.5, 0.77, 1.0):
            self.check(lambda x: -((x - peak) ** 2), 0.0, 1.0)
            self.check(lambda x: -abs(x - peak), 0.0, 1.0)
            self.check(lambda x: math.exp(-40.0 * (x - peak) ** 2), 0.0, 1.0)

    def test_call_count_on_a_coarse_bracket(self):
        # The width of two coarse-grid cells takes 31 golden-section steps to
        # shrink below 1e-8: 33 evaluations.
        width = 2.0 * (math.pi / 4) / (opt_module.COARSE_GAMMA_POINTS - 1)
        _, calls = self.check(lambda x: -((x - 0.41) ** 2), 0.4, 0.4 + width)
        assert len(calls) == 33

    def test_exact_ties(self):
        # Values on a coarse lattice tie fc == fd on many steps.
        def f(x):
            return -float(round(abs(x - 0.4) * 20.0))

        _, calls = self.check(f, 0.0, 1.0)
        assert len(calls) > 2

    def test_flat_plateau(self):
        self.check(lambda x: 1.0, 0.0, 1.0)
        self.check(lambda x: min(1.0, 5.0 - 20.0 * abs(x - 0.6)), 0.0, 1.0)

    def test_interval_already_within_tolerance(self):
        _, calls = self.check(lambda x: x, 0.3, 0.3 + 5e-9)
        assert len(calls) == 2

    @pytest.mark.parametrize("tau", [1.0, 1.1736, 1.3, 1.427])
    def test_global_optimum_matches_sequential_search(self, tau):
        gamma_star, value = sequential_global_max_violation(tau)
        opt = global_max_violation(tau)
        assert opt.gamma_star == gamma_star
        assert opt.s_q == pytest.approx(value, abs=1e-12)


class TestExactSchmidtMaximum:
    """The accuracy contract of max F against the see-saw, the caps and the oracles."""

    GAMMAS = (0.02, 0.08, 0.138, 0.2, 0.45, 0.7, 0.78, math.pi / 4)
    TAUS = (1.0, 1.1736, 1.2236, 1.3, 1.427, 1.49)

    def test_against_seesaw_and_cap_on_a_grid(self):
        for tau in self.TAUS:
            values, _, _ = opt_module._schmidt_maxima(self.GAMMAS, tau)
            for gamma, value in zip(self.GAMMAS, values):
                seesaw = seesaw_max_violation(schmidt_state(gamma), tau)
                assert value >= seesaw.value.value - 1e-12
                if seesaw.converged:
                    assert abs(value - seesaw.value.value) <= 1e-9
                assert value <= pure_state_value_cap(gamma, tau) + 1e-12

    def test_above_an_unconverged_seesaw(self):
        # Next to pi/4 the see-saw runs out of iterations short of the maximum.
        seesaw = seesaw_max_violation(schmidt_state(0.78), 1.1736)
        assert not seesaw.converged
        assert max_f(0.78, 1.1736) - seesaw.value.value > 1e-7

    @pytest.mark.parametrize("gamma,tau", [(0.1, 1.427), (0.35, 1.3), (0.6, 1.1), (math.pi / 4, 1.0)])
    def test_against_the_in_plane_grid_oracle(self, gamma, tau):
        oracle = in_plane_grid_max_violation(gamma, tau)
        assert max_f(gamma, tau) >= oracle - 1e-12
        assert max_f(gamma, tau) == pytest.approx(oracle, abs=1e-7)

    def test_clipped_form_never_exceeds_the_maximum(self):
        # The maximizer runs on the in-plane form; F with the clipped best X
        # over all polar angles never rises above its maximum, and reaches it.
        rng = np.random.default_rng(17)
        for gamma, tau in ((0.05, 1.49), (0.3, 1.2), (0.7, 1.0), (0.5, 1.35)):
            value, thetas, _ = opt_module._schmidt_maxima([gamma], tau)
            t0, t1 = thetas[0]
            polar = [math.acos(math.cos(t)) for t in (t0, t1)]
            assert clipped_f(gamma, tau, *polar) == pytest.approx(value[0], abs=1e-12)
            samples = rng.uniform(0.0, math.pi, size=(2000, 2))
            assert max(clipped_f(gamma, tau, a, b) for a, b in samples) <= value[0] + 1e-12

    def test_optimum_reproduces_max_f_with_its_measurements(self):
        for tau in (1.0, 1.2236, 1.49):
            opt = global_max_violation(tau)
            assert opt.s_q == pytest.approx(max_f(opt.gamma_star, tau), abs=1e-12)
            rho = schmidt_state(opt.gamma_star)
            assert quantum_value(rho, opt.measurements, tau).value == opt.s_q

    def test_measurements_that_miss_max_f_are_refused(self, monkeypatch):
        real = opt_module.quantum_value

        def shifted(rho, m, tau):
            value = real(rho, m, tau)
            return opt_module.BellValue(value=value.value + 1e-9, tau=value.tau)

        monkeypatch.setattr(opt_module, "quantum_value", shifted)
        with pytest.raises(NumericFailure, match="differs from max F"):
            global_max_violation(1.3)

    @pytest.mark.parametrize("tau", [1.2236, 1.3, 1.427, 1.49])
    def test_critical_angle_at_least_the_seesaw_bisection(self, tau):
        point = critical_gamma(tau)
        seesaw = bisection_from(
            point.optimum.gamma_star,
            tau,
            lambda g: seesaw_max_violation(schmidt_state(g), tau).value.value,
        )
        assert point.gamma_c >= seesaw

    def test_each_search_logs_one_line(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="bellbound"):
            critical_gamma(1.3)
        messages = [r.getMessage() for r in caplog.records if r.name == "bellbound"]
        assert len(messages) == 2
        assert re.fullmatch(r"Schmidt optimum at tau 1\.3: 98 angles rated, \d+ Newton steps", messages[0])
        assert re.fullmatch(
            r"critical angle at tau 1\.3: \d+ angles rated, \d+ Newton steps, "
            r"bracket \[\S+, \S+\] with max F \S+ and \S+",
            messages[1],
        )


class TestGlobalMaxViolation:
    def test_untilted_optimum_is_maximally_entangled(self):
        opt = global_max_violation(1.0)
        assert opt.s_q == pytest.approx(TSIRELSON, abs=1e-6)
        assert opt.gamma_star == pytest.approx(math.pi / 4, abs=1e-3)
        assert math.sin(2.0 * opt.gamma_star) == pytest.approx(1.0, abs=1e-6)

    def test_near_trivial_tilt_optimum_vanishes(self):
        opt = global_max_violation(1.499)
        assert opt.s_q <= 1e-4
        assert opt.gamma_star < 0.1

    def test_interior_tilt_prefers_partial_entanglement(self):
        opt = global_max_violation(1.25)
        assert opt.s_q > 0.0
        assert opt.gamma_star < math.pi / 4 - 0.01
        oracle = in_plane_grid_max_violation(opt.gamma_star, 1.25)
        assert opt.s_q == pytest.approx(oracle, abs=1e-5)

    def test_optimal_entanglement_drops_below_one_past_cutoff(self):
        opt = global_max_violation(1.21)
        assert math.sin(2.0 * opt.gamma_star) < 0.999


class TestCriticalGamma:
    def test_boundary_tilt_keeps_maximal_entanglement(self):
        point = critical_gamma(TAU_MAXENT_CUTOFF)
        assert point.c_cr >= 1.0 - 1e-3

    def test_demo_threshold_tilt(self):
        point = critical_gamma(1.2102)
        assert 0.9 < point.c_cr <= 0.9999 + 1e-4

    def test_strong_tilt(self):
        # The analytic cap evaluates to about 0.201 at tilt 1.49.
        point = critical_gamma(1.49)
        assert point.c_cr < 0.3

    def test_concurrence_consistent_with_angle(self):
        point = critical_gamma(1.3)
        assert point.c_cr == pytest.approx(math.sin(2.0 * point.gamma_c), abs=1e-12)
        assert point.s_at_peak > 0.0

    def test_returns_the_optimum_it_started_from(self):
        point = critical_gamma(1.3)
        optimum = global_max_violation(1.3)
        assert point.optimum.tau == optimum.tau
        assert point.optimum.gamma_star == optimum.gamma_star
        assert point.optimum.s_q == optimum.s_q
        assert point.optimum.measurements == optimum.measurements
        assert point.s_at_peak == optimum.s_q

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            critical_gamma(1.1)
        with pytest.raises(ValueError):
            critical_gamma(1.5)

    def test_nonincreasing_on_small_grid(self):
        values = [critical_gamma(t).c_cr for t in (1.21, 1.28, 1.35, 1.42, 1.49)]
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 1e-8


class TestMaxentCutoffVerification:
    def test_grid_passes(self):
        report = verify_maximally_entangled_cutoff(
            [1.2072, 1.3, 1.45], measurement_sets_per_tau=25
        )
        assert report.passed
        assert report.failures == ()
        for check in report.checks:
            assert check.max_violation <= 1e-9
            assert check.identity_residual <= 1e-12

    def test_untilted_identity_is_trivial(self, rng):
        # At tilt 1 the uniform-marginal shift identity reduces to 0 = 0.
        rho = maximally_entangled_state()
        m = random_measurement_set(rng)
        value = quantum_value(rho, m, 1.0).value
        residual = abs(value - (value - (1.0 - 1.0)))
        assert residual == 0.0

    def test_grid_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            verify_maximally_entangled_cutoff([1.1], measurement_sets_per_tau=1)


class TestAnalyticCaps:
    def test_untilted_cap_is_tsirelson(self):
        assert max_value_cap(1.0) == pytest.approx(TSIRELSON, abs=1e-15)

    def test_cap_vanishes_toward_trivial_tilt(self):
        assert max_value_cap(1.499) <= 1e-3

    def test_closed_form_matches_grid_maximum(self):
        for tau in (1.0, 1.1, 1.21, 1.3, 1.45):
            grid = np.linspace(0.0, math.pi / 4, 20001)
            numeric = max(pure_state_value_cap(float(g), tau) for g in grid)
            assert max_value_cap(tau) == pytest.approx(numeric, abs=1e-8)

    def test_cap_dominates_seesaw_spot_checks(self):
        for gamma in (0.2, 0.5, math.pi / 4):
            for tau in (1.0, 1.15, 1.3):
                value = seesaw_max_violation(schmidt_state(gamma), tau, FAST).value.value
                assert value <= pure_state_value_cap(gamma, tau) + 1e-9


class TestInPlaneOracle:
    def test_tsirelson_from_the_grid(self):
        value = in_plane_grid_max_violation(math.pi / 4, 1.0)
        assert value == pytest.approx(TSIRELSON, abs=1e-8)

    def test_refinement_improves_or_matches(self):
        coarse = in_plane_grid_max_violation(0.6, 1.1, resolution=0.01, refine=False)
        refined = in_plane_grid_max_violation(0.6, 1.1, resolution=0.01, refine=True)
        assert refined >= coarse - 1e-15

    def test_angle_domain_checked(self):
        with pytest.raises(ValueError):
            in_plane_grid_max_violation(1.0, 1.1)


class TestNumericFailurePath:
    def test_critical_gamma_reports_diagnostics_when_search_finds_nothing(self, monkeypatch):
        real = opt_module.global_max_violation

        def never_violates(tau):
            return dataclasses.replace(real(tau), s_q=-1.0)

        monkeypatch.setattr(opt_module, "global_max_violation", never_violates)
        with pytest.raises(NumericFailure, match="no violating"):
            critical_gamma(1.3)
