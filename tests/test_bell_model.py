import math
import re

import numpy as np
import pytest

from bellbound import (
    TAU_MAXENT_CUTOFF,
    MeasurementSet,
    ch_slice,
    ch_value,
    coefficients,
    evaluate_classical,
    evaluate_from_ch,
    maximally_entangled_state,
    quantum_value,
    random_measurement_set,
    random_nosignaling_table,
    random_two_qubit_state,
    schmidt_state,
    simulate,
    uniform_table,
)
from bellbound.statistics_io import ProbabilityTable

from conftest import DEMO_SLICE, kron_born_table

TSIRELSON = 1.0 / math.sqrt(2.0) - 0.5


class TestCoefficients:
    def test_untilted_reduces_to_ch(self):
        beta = coefficients(1.0).beta
        assert beta[0, 1, 0, 0] == 0.0
        assert beta[1, 0, 0, 0] == 0.0
        assert beta[0, 1, 0, 1] == -1.0
        assert beta[1, 0, 1, 0] == -1.0
        assert beta[0, 0, 0, 0] == 1.0
        assert beta[1, 1, 0, 0] == -1.0

    def test_tilt_one_and_a_quarter(self):
        beta = coefficients(1.25).beta
        assert beta[0, 1, 0, 0] == pytest.approx(-0.25, abs=1e-15)
        assert beta[1, 0, 0, 0] == pytest.approx(-0.25, abs=1e-15)
        assert beta[0, 1, 0, 1] == pytest.approx(-1.25, abs=1e-15)
        assert beta[1, 0, 1, 0] == pytest.approx(-1.25, abs=1e-15)

    def test_ten_of_sixteen_entries_vanish(self, rng):
        for _ in range(10):
            beta = coefficients(float(rng.uniform(1.0, 1.5))).beta
            assert int(np.count_nonzero(beta == 0.0)) == 10

    def test_eta_is_inverse_tilt(self):
        assert coefficients(1.25).eta == pytest.approx(0.8, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            coefficients(0.99)
        with pytest.raises(ValueError):
            coefficients(1.5)
        with pytest.raises(ValueError):
            coefficients(1.6)
        assert coefficients(1.6, allow_trivial_regime=True).tau == 1.6

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    def test_non_finite_tilt_is_refused(self, tau):
        with pytest.raises(ValueError, match=re.escape(f"must be a finite number in [1, 3/2), got {tau!r}")):
            coefficients(tau)
        with pytest.raises(ValueError, match=re.escape(f"must be a finite number at least 1, got {tau!r}")):
            coefficients(tau, allow_trivial_regime=True)


class TestEvaluateClassical:
    def test_demo_slice_untilted(self):
        value = evaluate_classical(DEMO_SLICE, 1.0).value
        assert value == pytest.approx(0.1826, abs=1e-12)
        # Cross-check through the lower bound the value implies (published 0.9297).
        assert math.sqrt((2.0 * value + 1.0) ** 2 - 1.0) == pytest.approx(0.9297, abs=1e-3)

    def test_deterministic_local_table_on_boundary(self):
        p = np.zeros((2, 2, 2, 2))
        p[:, :, 0, 0] = 1.0
        table = ProbabilityTable(p)
        assert evaluate_classical(table, 1.0).value == pytest.approx(0.0, abs=1e-15)

    def test_uniform_table_value(self):
        assert ch_value(uniform_table()) == pytest.approx(-0.5, abs=1e-15)

    def test_trivial_regime_needs_flag(self):
        with pytest.raises(ValueError):
            evaluate_classical(uniform_table(), 1.5)
        value = evaluate_classical(uniform_table(), 1.5, allow_trivial_regime=True).value
        assert value == pytest.approx(-0.5 + (1.0 - 1.5) * 1.0, abs=1e-15)

    def test_nonpositivity_at_trivial_tilt(self, rng):
        worst = -math.inf
        for _ in range(200):
            table = random_nosignaling_table(rng)
            worst = max(worst, evaluate_classical(table, 1.5, allow_trivial_regime=True).value)
        assert worst <= 1e-12

    def test_decomposition_identity(self, rng):
        worst = 0.0
        for _ in range(200):
            table = random_nosignaling_table(rng)
            tau = float(rng.uniform(1.0, 1.5))
            direct = evaluate_classical(table, tau).value
            slice_direct = evaluate_classical(ch_slice(table), tau).value
            decomposed = evaluate_from_ch(table, tau).value
            worst = max(worst, abs(direct - decomposed), abs(slice_direct - decomposed))
        assert worst <= 1e-12

    def test_affine_in_tilt_with_marginal_slope(self, rng):
        for _ in range(50):
            slc = ch_slice(random_nosignaling_table(rng))
            t1, t2 = sorted(rng.uniform(1.0, 1.499, size=2))
            if t2 - t1 < 1e-6:
                continue
            v1 = evaluate_classical(slc, float(t1)).value
            v2 = evaluate_classical(slc, float(t2)).value
            slope = (v2 - v1) / (t2 - t1)
            assert slope == pytest.approx(-(slc.mA0 + slc.mB0), abs=1e-10)
            assert v2 < v1  # strictly decreasing whenever mA0 + mB0 > 0


class TestQuantumValue:
    def test_tsirelson_point(self):
        value = quantum_value(maximally_entangled_state(), MeasurementSet.chsh_optimal(), 1.0)
        assert value.value == pytest.approx(TSIRELSON, abs=1e-12)

    def test_separable_state_never_violates(self, rng):
        rho = schmidt_state(0.0)
        for _ in range(20):
            m = random_measurement_set(rng)
            assert quantum_value(rho, m, 1.0).value <= 1e-12

    def test_uniform_marginal_shift_at_tilt(self):
        # Marginals of the maximally entangled state are exactly 1/2, so the
        # tilted value is the untilted one minus (tau - 1).
        value = quantum_value(maximally_entangled_state(), MeasurementSet.chsh_optimal(), 1.1)
        assert value.value == pytest.approx(TSIRELSON - 0.1, abs=1e-12)

    def test_matches_simulated_classical_value(self, rng):
        worst = 0.0
        for i in range(30):
            rho = random_two_qubit_state(rng, pure=bool(i % 2))
            m = random_measurement_set(rng)
            tau = float(rng.uniform(1.0, 1.5))
            direct = quantum_value(rho, m, tau).value
            simulated = evaluate_classical(simulate(rho, m), tau).value
            # The kron/trace oracle is the independent side: simulate and
            # quantum_value share the library's Born rule.
            oracle = float(np.sum(coefficients(tau).beta * kron_born_table(rho, m)))
            worst = max(worst, abs(direct - simulated), abs(direct - oracle))
        assert worst <= 1e-12

    def test_slice_of_simulation_matches(self, rng):
        for _ in range(10):
            rho = random_two_qubit_state(rng)
            m = random_measurement_set(rng)
            tau = float(rng.uniform(1.0, 1.5))
            via_slice = evaluate_classical(ch_slice(simulate(rho, m)), tau).value
            assert quantum_value(rho, m, tau).value == pytest.approx(via_slice, abs=1e-12)

    def test_tilt_cutoff_constant(self):
        assert TAU_MAXENT_CUTOFF == pytest.approx(0.5 + 1.0 / math.sqrt(2.0), abs=1e-15)
