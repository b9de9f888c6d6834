import dataclasses
import hashlib
import logging
import math
import re

import numpy as np
import pytest

from bellbound import (
    TAU_MAXENT_CUTOFF,
    MeasurementSet,
    NoViolationFound,
    NumericFailure,
    SeesawConfig,
    TwoQubitState,
    critical_gamma,
    global_max_violation,
    max_value_cap,
    maximally_entangled_state,
    pure_state_value_cap,
    quantum_value,
    random_measurement_set,
    random_two_qubit_state,
    schmidt_state,
    seesaw_max_violation,
)
from bellbound import optimizer as opt_module
from bellbound.invariants import maxent_cutoff

from conftest import horodecki_ch_max, in_plane_grid_max_violation

TSIRELSON = 1.0 / math.sqrt(2.0) - 0.5
INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
COARSE_GRID = np.linspace(0.0, math.pi / 4, opt_module.COARSE_GAMMA_POINTS)


def capped_input():
    """A state on which every restart runs out its 500 iterations still rising.

    Input 1026 of the benchmark's state_seesaw inputs for seed 7302, drawn by
    the same stream: a mixed state at tilt 1.
    """
    rng = np.random.default_rng([7302, 2])
    for k in range(1027):
        rho = random_two_qubit_state(rng, pure=k % 2 == 0)
        tau = 1.0 if k % 3 == 0 else float(rng.uniform(1.0, 1.5))
    return rho, tau


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


def bisection_bracket_from(lo, value_at, threshold=0.0):
    """Plain bisection for the violation crossing in [lo, pi/4], to the width
    GAMMA_BISECTION_TOL: the oracle's final bracket.  An angle violates where
    its value is above ``threshold``."""
    hi = math.pi / 4
    while hi - lo > opt_module.GAMMA_BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if value_at(mid) > threshold:
            lo = mid
        else:
            hi = mid
    return lo, hi


# Tilts from the cutoff to 1.4998; above about 1.4996 no angle violates.
BISECTION_TILTS = [float(t) for t in np.linspace(TAU_MAXENT_CUTOFF, 1.4998, 64)]
# Tilts from 1 up to the cutoff, where the optimum moves off pi/4.
UNTILTED_SIDE_TILTS = [float(t) for t in np.linspace(1.0, TAU_MAXENT_CUTOFF, 64, endpoint=False)]
# The crossing's bracket at the two tilts after 1.4995, where the slope of
# max F there is 1.2e-6 and 6.7e-7: each aim of eight rounding allowances
# past the crossing is 6e-9 and 1.2e-8 wide, and the bracket (the README's
# near-3/2 contract) about 1e-8 and 3e-8.  The critical angle, its upper end,
# lies above the crossing by at most that.
CROSSING_WIDTH_NEAR_THREE_HALVES = {1.4995452261306532: 1e-8, 1.499664824120603: 3e-8}
# Concurrence sin(2 gamma) of the optimum near 3/2, where the peak of max F is
# 2.7e-12 high at tilt 1.4999 and 2.7e-21 at 1.4999999: a golden section on
# double-precision ratings, whose rounding is 2e-16, places it only to about
# 1e-6 and 1e-5 in the angle.  Computed with mpmath at 50 digits: the in-plane
# maximizer by Newton from the double one, the peak by golden section to a
# relative 1e-12.
REFERENCE_PEAK_CONCURRENCE = {1.4999: 3.9996444602315520e-4, 1.4999999: 3.9999996467788739e-7}


def optimum_log(caplog, tau):
    """The optimum at a tilt and its DEBUG line's numbers: the angles rated and
    the peak bracket (lo, hi, slope at lo, slope at hi), or None where the
    grid's peak was taken."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="bellbound"):
        optimum = global_max_violation(tau)
    match = re.fullmatch(
        r"Schmidt optimum at tau \S+: (\d+) angles rated, \d+ Newton steps, peak bracket "
        r"(?:none|\[(\S+), (\S+)\] with slopes (\S+) and (\S+))",
        caplog.records[0].getMessage(),
    )
    angles, *bracket = match.groups()
    bracket = None if bracket[0] is None else tuple(float(x) for x in bracket)
    return optimum, int(angles), bracket


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
        result = seesaw_max_violation(schmidt_state(0.5), 1.2)
        assert result.histories.shape == (result.batch_iterations, 8)
        assert np.diff(result.histories, axis=0).min() >= -1e-12

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
        assert a == b and hash(a) == hash(b)
        assert a.value.value == b.value.value
        assert a.measurements.alice[0].as_array() == pytest.approx(
            b.measurements.alice[0].as_array(), abs=0.0
        )

    def test_seed_is_the_only_setting(self):
        assert [field.name for field in dataclasses.fields(SeesawConfig)] == ["rng_seed"]
        constants = (SeesawConfig.restarts, SeesawConfig.max_iterations, SeesawConfig.convergence_tol)
        assert constants == (8, 500, 1e-11)
        with pytest.raises(TypeError):
            SeesawConfig(restarts=4)

    def test_bit_identical_to_recorded_results(self):
        # SHA-256 of value, measurement vectors, converged flag and iteration
        # count of the best restart on 300 seeded random pure and mixed states,
        # recorded from the see-saw before the Born rule moved to the Bloch
        # form.  The kernel and the Pauli decomposition it reads must keep
        # every bit.  The digest holds for one floating-point environment
        # (numpy 2.4 with OpenBLAS on x86-64); BLAS kernels that round matrix
        # products differently change it without any change to the code.
        rng = np.random.default_rng(60331)
        digest = hashlib.sha256()
        for i in range(300):
            rho = random_two_qubit_state(rng, pure=bool(i % 2))
            tau = float(rng.uniform(1.0, 1.5))
            result = seesaw_max_violation(rho, tau)
            vectors = [v.as_array() for v in (*result.measurements.alice, *result.measurements.bob)]
            digest.update(np.array([result.value.value, *np.concatenate(vectors)]).tobytes())
            digest.update(np.array([result.converged, result.iterations], dtype=np.int64).tobytes())
        assert digest.hexdigest() == "8dd842d112b509f4b00d3ae1d3ec390a2e24b14e5a4a7151e7b041e1780d8120"

    def test_bit_identical_on_histories_seeds_and_degenerate_states(self):
        # The paths the digest above misses: every restart's history, another
        # seed, a batch stopped unconverged at its iteration cap, and the
        # states I/4 and |00> (whose effective operators vanish).  Recorded
        # while the restart count, iteration cap and tolerance were still
        # settable; same floating-point caveat as above.
        rng = np.random.default_rng(7177)
        cases = [(TwoQubitState(np.eye(4) / 4.0), 1.0), (TwoQubitState(np.eye(4) / 4.0), 1.3)]
        cases += [(schmidt_state(0.0), 1.0), (schmidt_state(0.0), 1.3)]
        for i in range(16):
            cases.append((random_two_qubit_state(rng, pure=bool(i % 2)), float(rng.uniform(1.0, 1.5))))
        cases.append(capped_input())
        digest = hashlib.sha256()
        for cfg in (SeesawConfig(), SeesawConfig(rng_seed=99)):
            for rho, tau in cases:
                result = seesaw_max_violation(rho, tau, cfg)
                vectors = [v.as_array() for v in (*result.measurements.alice, *result.measurements.bob)]
                digest.update(np.array([result.value.value, *np.concatenate(vectors)]).tobytes())
                digest.update(np.array([result.converged, result.iterations], dtype=np.int64).tobytes())
                for history in result.histories.T:
                    digest.update(history.tobytes())
        assert digest.hexdigest() == "f246c0702021cee6596a5d2b23ad9ca39fa0e0b58680e249c6d16a1c4ec5bb61"

    @pytest.mark.parametrize("tau,expected", [(1.0, -0.5), (1.3, -0.8)])
    def test_maximally_mixed_state_keeps_every_start(self, tau, expected):
        # I/4 has no Bloch or correlation part, so every candidate vanishes:
        # the degenerate branch keeps each restart's start, the value is
        # exactly 1/2 - tau, and the batch converges at its second iteration.
        result = seesaw_max_violation(TwoQubitState(np.eye(4) / 4.0), tau)
        assert result.value.value == expected
        chsh = opt_module._vectors(MeasurementSet.chsh_optimal())
        assert result.measurements == opt_module._measurement_set_from(chsh)
        assert (result.converged, result.iterations, result.batch_iterations) == (True, 2, 2)

    def test_product_state_mixes_degenerate_and_regular_rows(self):
        # On |00> only some rows vanish (Alice's setting 1 from the CHSH
        # start, whose b0 - b1 is orthogonal to z), so the degenerate mask
        # picks single entries of the stacked (2, restarts) layout.
        result = seesaw_max_violation(schmidt_state(0.0), 1.3)
        assert result.value.value == 0.0
        assert result.converged
        assert result.unconverged == 0

    def test_batch_diagnostics_on_a_converging_call(self):
        result = seesaw_max_violation(maximally_entangled_state(), 1.0)
        assert result.unconverged == 0
        assert result.iterations <= result.batch_iterations
        assert result.histories.shape == (result.batch_iterations, 8)
        with pytest.raises(ValueError):
            result.histories[0, 0] = 0.0

    def test_batch_diagnostics_on_a_call_stopped_at_its_cap(self):
        result = seesaw_max_violation(*capped_input())
        assert result.batch_iterations == SeesawConfig.max_iterations
        assert (result.converged, result.iterations) == (False, SeesawConfig.max_iterations)
        # A restart converged once its value rose by less than the tolerance.
        rises = np.diff(result.histories, axis=0, prepend=-np.inf)
        never = int(np.count_nonzero(~(rises < SeesawConfig.convergence_tol).any(axis=0)))
        assert result.unconverged == never == 8


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
        starts = opt_module._restart_starts(11)
        assert opt_module._restart_starts(11) is starts
        fresh = opt_module._restart_starts.__wrapped__(11)
        for cached, drawn in zip(starts, fresh):
            assert cached.shape == (2, 8, 3)
            np.testing.assert_array_equal(cached, drawn)
            with pytest.raises(ValueError):
                cached[0, 0] = 0.0


class TestDecidedStates:
    """How a Schmidt angle's outcome is decided: values stay below the cap,
    so the coarse scan may skip what the cap rules out, pi/4 never violates,
    and the critical angle lies in a plain bisection's bracket on max F."""

    @pytest.mark.parametrize("tau", [1.0, 1.1736, 1.3, 1.427, 1.49])
    def test_seesaw_stays_below_the_cap_on_the_coarse_grid(self, tau):
        for gamma in COARSE_GRID:
            value = seesaw_max_violation(schmidt_state(float(gamma)), tau).value.value
            assert value <= pure_state_value_cap(float(gamma), tau) + 1e-12

    @pytest.mark.parametrize("tau", [1.0, 1.1736, 1.3, 1.427, 1.49])
    def test_max_f_stays_below_the_cap_on_the_coarse_grid(self, tau):
        # The premise that lets the coarse scan skip an angle: its max F is
        # at most its cap + 1e-12.
        values, _, _ = opt_module._schmidt_maxima(COARSE_GRID, tau)
        for gamma, value in zip(COARSE_GRID, values):
            assert value <= pure_state_value_cap(float(gamma), tau) + 1e-12

    def test_coarse_scan_skips_only_what_the_cap_rules_out(self, monkeypatch):
        schmidt_maxima, rated = opt_module._schmidt_maxima, []

        def recording(gammas, t):
            rated.extend(float(g) for g in gammas)
            return schmidt_maxima(gammas, t)

        def coarse_ratings(tau):
            rated.clear()
            global_max_violation(tau)
            return len(set(rated) & set(COARSE_GRID.tolist()))

        monkeypatch.setattr(opt_module, "_schmidt_maxima", recording)
        assert coarse_ratings(1.3) < opt_module.COARSE_GAMMA_POINTS
        # Just below 3/2 the lead is too small for any cap to rule an angle out.
        assert coarse_ratings(1.4999) == opt_module.COARSE_GAMMA_POINTS

    def test_maximally_entangled_cap_rules_out_violation(self):
        # Why [gamma_star, pi/4] brackets the crossing in critical_gamma.
        taus = np.linspace(TAU_MAXENT_CUTOFF - 1e-12, 1.5, 4001)[:-1]
        for tau in (*taus, math.nextafter(1.5, 0.0)):
            assert pure_state_value_cap(math.pi / 4, float(tau)) <= opt_module.VIOLATION_THRESHOLD / 2

    @pytest.mark.parametrize(
        "tau", [1.2236, 1.427, 1.2102, 1.49, 1.4995452261306532, 1.499664824120603, *BISECTION_TILTS]
    )
    def test_critical_gamma_equals_plain_bisection(self, tau):
        # The critical angle lies in the final bracket of a plain bisection on
        # max F > 0, at the width GAMMA_BISECTION_TOL.  Only at the two tilts
        # after 1.4995, where max F falls slowest, may it lie above, by the
        # near-3/2 contract (see CROSSING_WIDTH_NEAR_THREE_HALVES).  Rated
        # fresh it does not violate, unless it is pi/4 (at the cutoff, where
        # max F falls to 0 at pi/4 itself).  Its concurrence is at least that
        # of the last angle above 1e-10 which a bisection from the
        # golden-section optimum reaches, the critical angle's earlier
        # definition.
        try:
            point = critical_gamma(tau)
        except NoViolationFound:
            assert tau > 1.4996  # no crossing to bisect
            return
        lo, hi = bisection_bracket_from(point.optimum.gamma_star, lambda g: max_f(g, tau))
        assert lo <= point.gamma_c <= hi + CROSSING_WIDTH_NEAR_THREE_HALVES.get(tau, 0.0)
        assert point.gamma_c == math.pi / 4 or max_f(point.gamma_c, tau) < -opt_module._MAX_F_ROUNDING
        earlier, _ = bisection_bracket_from(
            sequential_global_max_violation(tau)[0], lambda g: max_f(g, tau), opt_module.VIOLATION_THRESHOLD
        )
        assert point.c_cr >= math.sin(2.0 * earlier)

    def test_critical_gamma_refuses_a_bracket_left_open(self, monkeypatch):
        # Stopped on its step cap before the bracket is four aims wide, the
        # closer leaves an upper end that may lie far above the crossing.
        monkeypatch.setattr(opt_module, "_CLOSE_STEPS", 2)
        with pytest.raises(NumericFailure, match="open after 2 ratings"):
            critical_gamma(1.3)

    @pytest.mark.parametrize(
        "gamma,tau",
        [(0.3, 1.0), (0.6, 1.0), (0.35, 1.2236), (0.7, 1.2236), (0.2, 1.3), (0.5, 1.3), (0.05, 1.427), (0.2, 1.427)],
    )
    def test_envelope_slope_matches_finite_difference(self, gamma, tau):
        # The first angle of each tilt lies below the peak, the second above.
        _, thetas, _ = opt_module._schmidt_maxima([gamma], tau)
        h = 1e-6
        central = (max_f(gamma + h, tau) - max_f(gamma - h, tau)) / (2.0 * h)
        assert opt_module._envelope_slope(gamma, tau, *thetas[0]) == pytest.approx(central, abs=1e-7)

    def test_critical_angle_rates_few_angles(self, caplog):
        # The counted work, not the time: Newton's 6 ratings replace a
        # bisection of 26.  The line shows the closer's own bracket, whose
        # upper end is the critical angle.
        with caplog.at_level(logging.DEBUG, logger="bellbound"):
            point = critical_gamma(1.3)
        line = [r.getMessage() for r in caplog.records if r.getMessage().startswith("critical angle")][0]
        match = re.fullmatch(
            r"critical angle at tau 1\.3: (\d+) angles rated, \d+ Newton steps, "
            r"bracket \[(\S+), (\S+)\] with max F (\S+) and (\S+)",
            line,
        )
        angles, lo, hi, f_lo, f_hi = (float(g) for g in match.groups())
        assert angles == 6
        assert hi == pytest.approx(point.gamma_c, abs=1e-11)
        assert 0.0 < point.gamma_c - lo <= 1e-12
        assert f_lo > opt_module._MAX_F_ROUNDING and f_hi < -opt_module._MAX_F_ROUNDING


class TestGoldenSectionRounds:
    """The plain golden section, kept as the test oracle, on functions whose
    peak is known, and the optimum against it."""

    @staticmethod
    def counted(f, calls):
        def value(x):
            calls.append(x)
            return f(x)

        return value

    def check(self, f, lo, hi, tol=1e-8):
        calls = []
        got = sequential_golden_section_max(self.counted(f, calls), lo, hi, tol)
        assert lo <= got <= hi
        return got, calls

    def test_unimodal_functions(self):
        for peak in (0.0, 0.1234567, 0.3, 0.5, 0.77, 1.0):
            for f in (
                lambda x: -((x - peak) ** 2),
                lambda x: -abs(x - peak),
                lambda x: math.exp(-40.0 * (x - peak) ** 2),
            ):
                got, _ = self.check(f, 0.0, 1.0)
                assert abs(got - peak) <= 1e-8

    def test_call_count_on_a_coarse_bracket(self):
        # The width of two coarse-grid cells takes 31 golden-section steps to
        # shrink below 1e-8: 33 evaluations, the two first angles and one per
        # step.
        width = 2.0 * (math.pi / 4) / (opt_module.COARSE_GAMMA_POINTS - 1)
        got, calls = self.check(lambda x: -((x - 0.41) ** 2), 0.4, 0.4 + width)
        assert abs(got - 0.41) <= 1e-8 and len(calls) == len(set(calls)) == 33

    def test_exact_ties(self):
        # Values on a coarse lattice tie fc == fd on many steps.  Ties keep
        # the left end, so the search ends within the tolerance of the top
        # plateau, |x - 0.4| <= 0.025, at its left edge.
        def f(x):
            return -float(round(abs(x - 0.4) * 20.0))

        got, calls = self.check(f, 0.0, 1.0)
        assert -0.025 - 1e-8 <= got - 0.4 <= 0.025 and len(calls) > 2

    def test_flat_plateau(self):
        self.check(lambda x: 1.0, 0.0, 1.0)
        got, _ = self.check(lambda x: min(1.0, 5.0 - 20.0 * abs(x - 0.6)), 0.0, 1.0)
        assert abs(got - 0.6) <= 0.2

    def test_interval_already_within_tolerance(self):
        # No step is taken: the midpoint, with only the two first angles rated.
        got, calls = self.check(lambda x: x, 0.3, 0.3 + 5e-9)
        assert got == 0.5 * (0.3 + (0.3 + 5e-9)) and len(calls) == 2

    @pytest.mark.parametrize(
        "tau",
        # Each tilt once: the cutoff and 1 head both lists of tilts.
        dict.fromkeys(
            [1.0, 1.1736, TAU_MAXENT_CUTOFF, 1.3, 1.427, 1.49, 1.4999, 1.4999999, *BISECTION_TILTS, *UNTILTED_SIDE_TILTS]
            # The cells that end at the grid: the kink at pi/4, then the two
            # that start at 0.
            + [1.0024, 1.0061, 1.4913, 1.4974]
        ),
    )
    def test_global_optimum_matches_sequential_search(self, tau):
        # The optimum is at least as high as the plain golden section's, and
        # at the same concurrence to 1e-6: the golden section's, or, at the
        # two tilts where max F is too flat for it to place the peak, that of
        # a 50-digit reference.
        gamma_star, value = sequential_global_max_violation(tau)
        opt = global_max_violation(tau)
        assert opt.s_q >= value - 1e-15
        c_reference = math.sin(2.0 * gamma_star)
        if tau in REFERENCE_PEAK_CONCURRENCE:
            assert abs(c_reference - REFERENCE_PEAK_CONCURRENCE[tau]) > 1e-6
            c_reference = REFERENCE_PEAK_CONCURRENCE[tau]
        assert abs(math.sin(2.0 * opt.gamma_star) - c_reference) <= 1e-6


class TestPeakReplay:
    """The optimum as the secant root of its envelope-slope bracket, and the
    premises of that bracket."""

    @pytest.mark.parametrize("tau", [1.05, 1.25, 1.4, 1.49, 1.4999999])
    def test_slope_noise_stays_within_the_floor(self, tau):
        # The closer's premise: within 1e-7 of the peak the slope is smooth in
        # the angle, and its values scatter about a parabola by at most the
        # floor (at most 1.7e-16 here, at 1.49; at 1.4999999 the peak lies at
        # 2e-7).  A line would leave the slope's curvature, about 1e-14 over
        # the window, in the scatter.
        peak = global_max_violation(tau).gamma_star
        offsets = np.linspace(-1e-7, 1e-7, 10)
        slopes = []
        for gamma in peak + offsets:
            _, thetas, _ = opt_module._schmidt_maxima([float(gamma)], tau)
            slopes.append(opt_module._envelope_slope(float(gamma), tau, *thetas[0]))
        smooth = np.polyval(np.polyfit(offsets / 1e-7, slopes, 2), offsets / 1e-7)
        assert np.max(np.abs(np.array(slopes) - smooth)) <= opt_module._SLOPE_FLOOR

    @pytest.mark.parametrize("tau", [1.1736, 1.3, 1.427, 1.49])
    def test_secant_brackets_the_peak_beyond_the_floor(self, caplog, tau):
        optimum, _, bracket = optimum_log(caplog, tau)
        lo, hi, slope_lo, slope_hi = bracket
        assert slope_lo > opt_module._SLOPE_FLOOR and slope_hi < -opt_module._SLOPE_FLOOR
        assert 0.0 < hi - lo <= 2e-6
        assert lo <= optimum.gamma_star <= hi

    def test_slopes_lost_in_noise_decide_nothing(self, caplog, monkeypatch):
        # Slopes within the floor decide nothing and certify no bracket, so
        # the grid's peak is taken, rated once more for its measurements.
        rng = np.random.default_rng(5)
        floor = opt_module._SLOPE_FLOOR
        monkeypatch.setattr(opt_module, "_envelope_slope", lambda *args: float(rng.uniform(-floor, floor)))
        optimum, angles, bracket = optimum_log(caplog, 1.3)
        peak = int(np.argmax([max_f(float(g), 1.3) for g in COARSE_GRID]))
        assert (bracket, optimum.gamma_star) == (None, COARSE_GRID[peak])
        assert angles == 19

    def test_peak_at_the_grid_end_is_taken(self, caplog):
        # At tilt 1 the peak is pi/4, the last grid angle, where the slope
        # from the left is within the floor: no bracket, and nothing rated
        # after the scan but the measurements.
        optimum, angles, bracket = optimum_log(caplog, 1.0)
        assert (optimum.gamma_star, angles, bracket) == (math.pi / 4, 9, None)

    @pytest.mark.parametrize("tau", [1.003, 1.3])
    def test_mirrored_maximizers_tie_at_pi_over_4_with_opposite_slopes(self, tau):
        # Why the slope at pi/4 enters as minus its size: (t0, t1) and
        # (pi - t0, pi - t1) both maximize the in-plane form there, and their
        # envelope slopes are opposite, so the slope from the left is the
        # falling one.
        gamma = math.pi / 4
        _, thetas, _ = opt_module._schmidt_maxima([gamma], tau)
        pairs = [thetas[0], tuple(math.pi - t for t in thetas[0])]
        s, k = math.sin(2.0 * gamma), (1.0 - tau) * math.cos(2.0 * gamma)
        values, slopes = [], []
        for t0, t1 in pairs:
            values.append(opt_module._in_plane_f(math.sin(t0), math.cos(t0), math.sin(t1), math.cos(t1), s, k))
            slopes.append(opt_module._envelope_slope(gamma, tau, t0, t1))
        assert values[0] == pytest.approx(values[1], abs=opt_module._MAX_F_ROUNDING)
        assert abs(slopes[0]) > opt_module._SLOPE_FLOOR
        assert slopes[0] == pytest.approx(-slopes[1], rel=1e-9)

    def test_rates_a_third_fewer_angles(self, caplog):
        # The counted work, not the time: 52 angles for the optimum at 1.3
        # and 60 for the critical angle in all before the envelope slope;
        # 35 and 43 with the golden section and bisection replayed; 24 and 30
        # with each search reporting its own bracket.
        _, angles, _ = optimum_log(caplog, 1.3)
        assert angles == 24
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="bellbound"):
            critical_gamma(1.3)
        counts = [int(re.search(r": (\d+) angles rated", r.getMessage()).group(1)) for r in caplog.records]
        assert counts == [24, 6]


class TestCloseBracket:
    """The one bracket closer on synthetic falling functions: the ends keep a
    value of certain sign, and the bracket closes to four aims."""

    FLOOR = 1e-9

    @staticmethod
    def linear(x):
        return 0.3 - 2.0 * x, -2.0

    @staticmethod
    def concave(x):
        return 0.5 - x * x, -2.0 * x

    def close(self, h, a, b, *, slopes=True, far_end_known=True, floor=FLOOR):
        calls = []

        def counted(x):
            calls.append(x)
            value, slope = h(x)
            return value, slope if slopes else None

        h_b = h(b)[0] if far_end_known else None
        lo, h_lo, hi, h_hi, closed = opt_module._close_bracket(counted, a, h(a)[0], b, h_b, floor)
        assert h_lo == h(lo)[0] > floor and h_hi == h(hi)[0] < -floor
        return lo, hi, calls, closed

    def aim(self, slope):
        return opt_module._AIM_FLOORS * self.FLOOR / abs(slope)

    @pytest.mark.parametrize("slopes", [True, False], ids=["newton", "secant"])
    @pytest.mark.parametrize("shape,root", [("linear", 0.15), ("concave", math.sqrt(0.5))])
    def test_closes_to_four_aims_round_the_root(self, shape, root, slopes):
        h = getattr(self, shape)
        lo, hi, calls, closed = self.close(h, 0.0, 1.0, slopes=slopes)
        assert lo < root < hi
        assert hi - lo <= 4.0 * self.aim(h(root)[1]) * 1.01
        assert closed and len(calls) < opt_module._CLOSE_STEPS

    @pytest.mark.parametrize("slopes", [True, False], ids=["newton", "secant"])
    def test_values_within_the_floor_leave_no_wide_bracket(self, slopes):
        # Regula falsi lands on the root first, where h is flat within the
        # floor; the closer steps round it instead of stopping there.
        def h(x):
            return (0.0 if abs(x - 0.5) < 2.0 * self.FLOOR else 0.5 - x), -1.0

        lo, hi, calls, closed = self.close(h, 0.0, 1.0, slopes=slopes)
        assert calls[0] == 0.5
        assert closed and lo < 0.5 < hi and hi - lo <= 4.0 * self.aim(1.0)

    def test_unknown_far_end_is_halved_until_its_value_is_known(self):
        lo, hi, calls, closed = self.close(self.linear, 0.0, 1.0, far_end_known=False)
        assert calls[0] == 0.5
        assert closed and lo < 0.15 < hi and hi - lo <= 4.0 * self.aim(2.0)

    def test_a_slope_that_never_falls_still_narrows_the_bracket(self):
        # Every step falls back: the midpoint while the far end is unknown,
        # then regula falsi, which lands on the root within the floor; where
        # it would rate that angle again, the midpoint is taken instead.
        # Without a falling slope there is no aim, so the bracket is never
        # called closed.
        lo, hi, calls, closed = self.close(lambda x: (0.3 - 2.0 * x, 1.0), 0.0, 1.0, far_end_known=False)
        assert calls[:4] == [0.5, 0.15, 0.25, 0.15]
        assert all(x != y for x, y in zip(calls, calls[1:]))
        assert lo < 0.15 < hi and not closed

    def test_step_cap(self):
        # Four aims of a floor far below rounding are narrower than any
        # bracket of floats, so only the cap stops the closer, which reports
        # the bracket open.
        lo, hi, calls, closed = self.close(self.concave, 0.0, 1.0, floor=1e-300)
        assert len(calls) == opt_module._CLOSE_STEPS and not closed
        assert 0.0 < hi - lo < 1e-15  # the ends keep their signs (see close)


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

    def test_measurements_that_miss_max_f_are_refused(self, quantum_value_off_by_1e9):
        with pytest.raises(NumericFailure, match="differs from max F"):
            global_max_violation(1.3)

    @pytest.mark.parametrize("tau", [1.2236, 1.3, 1.427, 1.49])
    def test_critical_angle_at_least_the_seesaw_bisection(self, tau):
        point = critical_gamma(tau)
        seesaw, _ = bisection_bracket_from(
            point.optimum.gamma_star, lambda g: seesaw_max_violation(schmidt_state(g), tau).value.value
        )
        assert point.gamma_c >= seesaw

    def test_each_search_logs_one_line(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="bellbound"):
            critical_gamma(1.3)
        messages = [r.getMessage() for r in caplog.records if r.name == "bellbound"]
        assert len(messages) == 2
        assert re.fullmatch(
            r"Schmidt optimum at tau 1\.3: 24 angles rated, \d+ Newton steps, peak bracket \[\S+, \S+\] "
            r"with slopes \S+ and \S+",
            messages[0],
        )
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
        rows = maxent_cutoff([1.2072, 1.3, 1.45], 25)
        assert len(rows) == 3
        for violation, residual in rows:
            assert violation <= 1e-9
            assert residual <= 1e-12

    def test_untilted_identity_is_trivial(self, rng):
        # At tilt 1 the uniform-marginal shift identity reduces to 0 = 0.
        rho = maximally_entangled_state()
        m = random_measurement_set(rng)
        value = quantum_value(rho, m, 1.0).value
        residual = abs(value - (value - (1.0 - 1.0)))
        assert residual == 0.0

    def test_grid_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            maxent_cutoff([1.1], 1)


class TestAnalyticCaps:
    def test_cap_root_is_where_the_cap_falls_to_the_threshold(self):
        # Newton's start in critical_gamma: above the optimum, at most pi/4.
        for tau in np.linspace(TAU_MAXENT_CUTOFF, 1.4996, 40):
            gamma = opt_module._cap_root(float(tau))
            assert global_max_violation(float(tau)).gamma_star < gamma <= math.pi / 4
            cap = pure_state_value_cap(gamma, float(tau))
            assert cap == pytest.approx(opt_module.VIOLATION_THRESHOLD, abs=1e-15)

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
                value = seesaw_max_violation(schmidt_state(gamma), tau).value.value
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

    def test_no_violation_carries_the_optimum(self):
        # Just below 3/2 even the optimum stays under the threshold; the
        # error hands it on, equal to the one the search itself finds.
        with pytest.raises(NoViolationFound) as caught:
            critical_gamma(1.4999)
        assert caught.value.optimum == global_max_violation(1.4999)
        assert caught.value.optimum.s_q <= opt_module.VIOLATION_THRESHOLD
