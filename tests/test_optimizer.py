import logging
import math

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
from bellbound.quantum_core import schmidt_density_stack

from conftest import horodecki_ch_max

TSIRELSON = 1.0 / math.sqrt(2.0) - 0.5
FAST = SeesawConfig(restarts=4, max_iterations=400)
INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
COARSE_GRID = np.linspace(0.0, math.pi / 4, opt_module.COARSE_GAMMA_POINTS)


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


def sequential_global_max_violation(tau, cfg):
    """Coarse scan, then the sequential golden section on single see-saw calls."""
    grid = np.linspace(0.0, math.pi / 4, opt_module.COARSE_GAMMA_POINTS)
    peak = int(np.argmax(opt_module._schmidt_peak_values(grid, tau, cfg)[0]))
    lo = float(grid[max(peak - 1, 0)])
    hi = float(grid[min(peak + 1, grid.size - 1)])

    def value_at(gamma):
        return seesaw_max_violation(schmidt_state(gamma), tau, cfg).value.value

    gamma_star = sequential_golden_section_max(value_at, lo, hi, 1e-8)
    return gamma_star, value_at(gamma_star)


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
    def test_stack_equals_single_state_calls(self, rng):
        # States that stop at different iterations, two of them at the cap.
        states = [maximally_entangled_state(), schmidt_state(0.3), schmidt_state(0.7)]
        states += [random_two_qubit_state(rng, pure=bool(i % 2)) for i in range(5)]
        parts = [opt_module._pauli_decomposition(rho.matrix) for rho in states]
        r_alice, r_bob, corr = (np.array(p) for p in zip(*parts))
        cfg = SeesawConfig(max_iterations=100)
        shared = (1.3, opt_module._restart_starts(cfg), cfg.max_iterations, cfg.convergence_tol, True)
        values, vectors, converged, iterations, histories = opt_module._seesaw_batch(
            r_alice, r_bob, corr, *shared
        )
        stopped = iterations.max(axis=1)
        assert len(set(stopped.tolist())) >= 5
        assert not converged.all(axis=1).all()
        assert (stopped[~converged.all(axis=1)] == cfg.max_iterations).all()
        for s in range(len(states)):
            one = slice(s, s + 1)
            v1, vectors1, c1, it1, h1 = opt_module._seesaw_batch(r_alice[one], r_bob[one], corr[one], *shared)
            np.testing.assert_allclose(values[s], v1[0], rtol=0.0, atol=1e-12)
            for stacked, single in zip(vectors, vectors1):
                np.testing.assert_allclose(stacked[s], single[0], rtol=0.0, atol=1e-12)
            np.testing.assert_array_equal(converged[s], c1[0])
            np.testing.assert_array_equal(iterations[s], it1[0])
            assert len(histories[s]) == stopped[s] == len(h1[0])
            np.testing.assert_allclose(histories[s], h1[0], rtol=0.0, atol=1e-12)

    def test_schmidt_batch_equals_public_calls(self):
        gammas = [0.05, 0.4, 0.6, math.pi / 4]
        batched, converged = opt_module._schmidt_peak_values(gammas, 1.25, FAST)
        for gamma, value, flag in zip(gammas, batched, converged):
            single = seesaw_max_violation(schmidt_state(gamma), 1.25, FAST)
            assert value == pytest.approx(single.value.value, abs=1e-12)
            assert flag == single.converged

    def test_schmidt_batch_logs_unconverged_best_restarts(self, caplog):
        cfg = SeesawConfig(max_iterations=2)
        with caplog.at_level(logging.DEBUG, logger="bellbound"):
            _, converged = opt_module._schmidt_peak_values([0.3, 0.5, 0.7], 1.2, cfg)
        assert not converged.any()
        messages = [r.getMessage() for r in caplog.records if r.name == "bellbound"]
        assert messages == ["see-saw batch at tau 1.2: 3 states, 3 unconverged best restarts"]

    def test_search_is_silent_by_default(self, capsys):
        global_max_violation(1.3, FAST)
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

    def test_bisection_rounds_reproduce_plain_bisection(self):
        for crossing in (0.3, 0.5123456789, 0.7853, 0.2 + 1e-9):
            lo0, hi0 = 0.2, math.pi / 4
            lo, hi = lo0, hi0
            while hi - lo > opt_module.GAMMA_BISECTION_TOL:
                mid = 0.5 * (lo + hi)
                if mid < crossing:
                    lo = mid
                else:
                    hi = mid
            sizes = []

            def violates(gammas):
                sizes.append(len(gammas))
                return np.array(gammas) < crossing

            blo, bhi = lo0, hi0
            while bhi - blo > opt_module.GAMMA_BISECTION_TOL:
                blo, bhi = opt_module._bisection_round(violates, blo, bhi)
            assert (blo, bhi) == (lo, hi)
            assert max(sizes) == 2**opt_module.BISECTION_STEPS_PER_ROUND - 1


def plain_critical_gamma(tau, cfg):
    """Plain bisection on single see-saw calls from the optimum: the oracle."""
    lo, hi = global_max_violation(tau, cfg).gamma_star, math.pi / 4
    while hi - lo > opt_module.GAMMA_BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if seesaw_max_violation(schmidt_state(mid), tau, cfg).value.value > opt_module.VIOLATION_THRESHOLD:
            lo = mid
        else:
            hi = mid
    return lo


class TestDecidedStates:
    """Retiring decided states from a batch keeps every result bit for bit."""

    @staticmethod
    def kernel_inputs(states):
        return opt_module._pauli_decomposition(np.array([rho.matrix for rho in states]))

    def test_stacked_decomposition_equals_single_states(self, rng):
        states = [schmidt_state(float(g)) for g in COARSE_GRID]
        states += [random_two_qubit_state(rng, pure=bool(i % 2)) for i in range(20)]
        stacked = self.kernel_inputs(states)
        for s, rho in enumerate(states):
            for part, single in zip(stacked, opt_module._pauli_decomposition(rho.matrix)):
                np.testing.assert_array_equal(part[s], single)

    @pytest.mark.parametrize("gamma", [-0.1, math.pi / 4 + 0.01, math.pi, math.nan, math.inf])
    def test_stacked_states_reject_angles_as_schmidt_state(self, gamma):
        with pytest.raises(ValueError) as single:
            schmidt_state(gamma)
        with pytest.raises(ValueError) as stacked:
            schmidt_density_stack([0.2, gamma])
        assert str(stacked.value) == str(single.value)
        with pytest.raises(ValueError) as searched:
            opt_module._schmidt_peak_values([0.2, gamma], 1.3, FAST)
        assert str(searched.value) == str(single.value)

    def test_retired_state_leaves_the_others_bitwise_unchanged(self, rng):
        states = [schmidt_state(g) for g in (0.1, 0.3, 0.5, 0.7)]
        states += [random_two_qubit_state(rng, pure=bool(i % 2)) for i in range(4)]
        r_alice, r_bob, corr = self.kernel_inputs(states)
        cfg = SeesawConfig(max_iterations=200)
        shared = (1.2, opt_module._restart_starts(cfg), cfg.max_iterations, cfg.convergence_tol, True)
        values, vectors, converged, iterations, histories = opt_module._seesaw_batch(
            r_alice, r_bob, corr, *shared
        )
        leave_at = {3: 2, 10: 5}  # iteration -> the state retired there
        seen = []

        def retire(active, values):
            seen.append(active.copy())
            return active == leave_at.get(len(seen), -1)

        pruned = opt_module._seesaw_batch(r_alice, r_bob, corr, *shared, retire)
        for iteration, state in leave_at.items():
            assert state in seen[iteration - 1] and state not in seen[iteration]
            np.testing.assert_array_equal(pruned[0][state], histories[state][iteration - 1])
            assert len(pruned[4][state]) == iteration
        for s in set(range(len(states))) - set(leave_at.values()):
            np.testing.assert_array_equal(pruned[0][s], values[s])
            for got, want in zip(pruned[1], vectors):
                np.testing.assert_array_equal(got[s], want[s])
            np.testing.assert_array_equal(pruned[2][s], converged[s])
            np.testing.assert_array_equal(pruned[3][s], iterations[s])
            np.testing.assert_array_equal(pruned[4][s], histories[s])

    @pytest.mark.parametrize("tau", [1.0, 1.1736, 1.3, 1.427, 1.49])
    def test_seesaw_stays_below_the_cap_on_the_coarse_grid(self, tau):
        values, _ = opt_module._schmidt_peak_values(COARSE_GRID, tau, opt_module.DEFAULT_CONFIG)
        caps = np.array([pure_state_value_cap(float(g), tau) for g in COARSE_GRID])
        assert (values <= caps + 1e-12).all()

    @pytest.mark.parametrize("tau", [1.0, 1.1736, 1.3, 1.427, 1.49])
    def test_pruned_coarse_argmax_equals_unpruned(self, tau):
        cfg = opt_module.DEFAULT_CONFIG
        caps = np.array([pure_state_value_cap(float(g), tau) for g in COARSE_GRID])
        full, _ = opt_module._schmidt_peak_values(COARSE_GRID, tau, cfg)
        pruned, _ = opt_module._schmidt_peak_values(COARSE_GRID, tau, cfg, opt_module._retire_below_lead(caps))
        assert int(np.argmax(pruned)) == int(np.argmax(full))
        kept = pruned == full
        assert kept[np.argmax(full)]
        assert not kept.all()

    def test_maximally_entangled_cap_rules_out_violation(self):
        # Why critical_gamma never judges pi/4 itself.
        taus = np.linspace(TAU_MAXENT_CUTOFF - 1e-12, 1.5, 4001)[:-1]
        for tau in (*taus, math.nextafter(1.5, 0.0)):
            assert pure_state_value_cap(math.pi / 4, float(tau)) <= opt_module.VIOLATION_THRESHOLD / 2

    @pytest.mark.parametrize("tau", [1.2236, 1.427])
    def test_critical_gamma_equals_plain_bisection(self, tau):
        cfg = opt_module.DEFAULT_CONFIG
        assert critical_gamma(tau, cfg).gamma_c == plain_critical_gamma(tau, cfg)

    def test_batch_log_counts_retired_states(self, caplog):
        cfg = SeesawConfig(max_iterations=2)
        with caplog.at_level(logging.DEBUG, logger="bellbound"):
            opt_module._schmidt_peak_values([0.3, 0.5, 0.7], 1.2, cfg, lambda active, values: active == 1)
        messages = [r.getMessage() for r in caplog.records if r.name == "bellbound"]
        assert messages == [
            "see-saw batch at tau 1.2: 3 states, 2 unconverged best restarts, 1 retired as decided"
        ]


class TestGoldenSectionRounds:
    @staticmethod
    def batched(f, sizes):
        def values(points):
            sizes.append(len(points))
            return np.array([f(x) for x in points])

        return values

    def check(self, f, lo, hi, tol=1e-8):
        sizes = []
        got = opt_module._golden_section_max(self.batched(f, sizes), lo, hi, tol)
        assert got == sequential_golden_section_max(f, lo, hi, tol)
        assert max(sizes) <= 2**opt_module.BISECTION_STEPS_PER_ROUND - 1
        return got, sizes

    def test_unimodal_functions(self):
        for peak in (0.0, 0.1234567, 0.3, 0.5, 0.77, 1.0):
            self.check(lambda x: -((x - peak) ** 2), 0.0, 1.0)
            self.check(lambda x: -abs(x - peak), 0.0, 1.0)
            self.check(lambda x: math.exp(-40.0 * (x - peak) ** 2), 0.0, 1.0)

    def test_call_count_on_a_coarse_bracket(self):
        # The width of two coarse-grid cells takes 31 golden-section steps to
        # shrink below 1e-8: 33 sequential evaluations, 9 batched calls.
        width = 2.0 * (math.pi / 4) / (opt_module.COARSE_GAMMA_POINTS - 1)
        _, sizes = self.check(lambda x: -((x - 0.41) ** 2), 0.4, 0.4 + width)
        assert len(sizes) == 9
        assert sizes[0] == 2

    def test_exact_ties(self):
        # Values on a coarse lattice tie fc == fd on many steps.
        def f(x):
            return -float(round(abs(x - 0.4) * 20.0))

        _, sizes = self.check(f, 0.0, 1.0)
        assert len(sizes) > 1

    def test_flat_plateau(self):
        self.check(lambda x: 1.0, 0.0, 1.0)
        self.check(lambda x: min(1.0, 5.0 - 20.0 * abs(x - 0.6)), 0.0, 1.0)

    def test_interval_already_within_tolerance(self):
        self.check(lambda x: x, 0.3, 0.3 + 5e-9)

    @pytest.mark.parametrize("tau", [1.0, 1.1736, 1.3, 1.427])
    def test_global_optimum_matches_sequential_search(self, tau):
        gamma_star, s_q = sequential_global_max_violation(tau, opt_module.DEFAULT_CONFIG)
        opt = global_max_violation(tau)
        assert opt.gamma_star == gamma_star
        assert opt.s_q == s_q


class TestGlobalMaxViolation:
    def test_untilted_optimum_is_maximally_entangled(self):
        opt = global_max_violation(1.0)
        assert opt.s_q == pytest.approx(TSIRELSON, abs=1e-6)
        assert opt.gamma_star == pytest.approx(math.pi / 4, abs=1e-3)
        assert math.sin(2.0 * opt.gamma_star) == pytest.approx(1.0, abs=1e-6)

    def test_near_trivial_tilt_optimum_vanishes(self):
        opt = global_max_violation(1.499, FAST)
        assert opt.s_q <= 1e-4
        assert opt.gamma_star < 0.1

    def test_interior_tilt_prefers_partial_entanglement(self):
        opt = global_max_violation(1.25, FAST)
        assert opt.s_q > 0.0
        assert opt.gamma_star < math.pi / 4 - 0.01
        oracle = in_plane_grid_max_violation(opt.gamma_star, 1.25)
        assert opt.s_q == pytest.approx(oracle, abs=1e-5)

    def test_optimal_entanglement_drops_below_one_past_cutoff(self):
        opt = global_max_violation(1.21, FAST)
        assert math.sin(2.0 * opt.gamma_star) < 0.999


class TestCriticalGamma:
    def test_boundary_tilt_keeps_maximal_entanglement(self):
        point = critical_gamma(TAU_MAXENT_CUTOFF, FAST)
        assert point.c_cr >= 1.0 - 1e-3

    def test_demo_threshold_tilt(self):
        point = critical_gamma(1.2102, FAST)
        assert 0.9 < point.c_cr <= 0.9999 + 1e-4

    def test_strong_tilt(self):
        # The analytic cap evaluates to about 0.201 at tilt 1.49.
        point = critical_gamma(1.49, FAST)
        assert point.c_cr < 0.3

    def test_concurrence_consistent_with_angle(self):
        point = critical_gamma(1.3, FAST)
        assert point.c_cr == pytest.approx(math.sin(2.0 * point.gamma_c), abs=1e-12)
        assert point.s_at_peak > 0.0

    def test_returns_the_optimum_it_started_from(self):
        point = critical_gamma(1.3, FAST)
        optimum = global_max_violation(1.3, FAST)
        assert point.optimum.tau == optimum.tau
        assert point.optimum.gamma_star == optimum.gamma_star
        assert point.optimum.s_q == optimum.s_q
        assert point.optimum.measurements == optimum.measurements
        assert point.s_at_peak == optimum.s_q

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            critical_gamma(1.1, FAST)
        with pytest.raises(ValueError):
            critical_gamma(1.5, FAST)

    def test_nonincreasing_on_small_grid(self):
        values = [critical_gamma(t, FAST).c_cr for t in (1.21, 1.28, 1.35, 1.42, 1.49)]
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
        import bellbound.optimizer as opt_module

        real = opt_module.seesaw_max_violation

        def never_violates(rho, tau, cfg=opt_module.DEFAULT_CONFIG, **kwargs):
            result = real(rho, tau, cfg, **kwargs)
            crushed = opt_module.BellValue(value=-1.0, tau=result.value.tau)
            return opt_module.SeesawResult(
                value=crushed,
                measurements=result.measurements,
                converged=result.converged,
                iterations=result.iterations,
            )

        monkeypatch.setattr(opt_module, "seesaw_max_violation", never_violates)
        with pytest.raises(NumericFailure, match="no violating"):
            critical_gamma(1.3, FAST)
