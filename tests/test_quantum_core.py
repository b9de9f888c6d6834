import math

import numpy as np
import pytest

from bellbound import (
    BlochVector,
    MeasurementSet,
    NumericFailure,
    TwoQubitState,
    concurrence,
    joint_probability,
    maximally_entangled_state,
    random_measurement_set,
    random_two_qubit_state,
    schmidt_state,
)

from conftest import PAULIS, concurrence_eigvals_oracle, kron_born_table, projector_from_bloch

Z = BlochVector(0.0, 0.0, 1.0)
ALL_Z = MeasurementSet(alice=(Z, Z), bob=(Z, Z))


class TestSchmidtState:
    def test_gamma_zero_is_product_projector(self):
        rho = schmidt_state(0.0)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-15)

    def test_gamma_quarter_pi_is_maximally_entangled_projector(self):
        rho = schmidt_state(math.pi / 4)
        ket = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
        np.testing.assert_allclose(rho.matrix, np.outer(ket, ket), atol=1e-15)

    @pytest.mark.parametrize("gamma", [-0.1, math.pi / 4 + 0.01, math.pi])
    def test_outside_domain_raises(self, gamma):
        with pytest.raises(ValueError):
            schmidt_state(gamma)

    def test_states_are_pure(self):
        for gamma in np.linspace(0.0, math.pi / 4, 9):
            m = schmidt_state(float(gamma)).matrix
            np.testing.assert_allclose(m @ m, m, atol=1e-14)

    def test_pi_8_concurrence_matches_independent_oracle(self):
        rho = schmidt_state(math.pi / 8)
        oracle = concurrence_eigvals_oracle(rho.matrix)
        assert oracle == pytest.approx(math.sin(math.pi / 4), abs=1e-6)
        assert concurrence(rho) == pytest.approx(oracle, abs=1e-6)


class TestProjectorFromBloch:
    # The projectors of the kron_born_table oracle, against closed forms.
    def test_z_axis_outcome_zero(self):
        p = projector_from_bloch(BlochVector(0.0, 0.0, 1.0), 0)
        np.testing.assert_allclose(p, np.diag([1.0, 0.0]), atol=1e-15)

    def test_x_axis_outcome_zero(self):
        p = projector_from_bloch(BlochVector(1.0, 0.0, 0.0), 0)
        np.testing.assert_allclose(p, 0.5 * np.ones((2, 2)), atol=1e-15)

    def test_outcomes_sum_to_identity(self, rng):
        for _ in range(20):
            n = BlochVector.normalized(rng.normal(size=3))
            total = projector_from_bloch(n, 0) + projector_from_bloch(n, 1)
            np.testing.assert_allclose(total, np.eye(2), atol=1e-15)

    def test_idempotent_and_hermitian(self, rng):
        for _ in range(20):
            n = BlochVector.normalized(rng.normal(size=3))
            for outcome in (0, 1):
                m = projector_from_bloch(n, outcome)
                assert np.max(np.abs(m @ m - m)) <= 1e-12
                assert np.max(np.abs(m - m.conj().T)) <= 1e-12
                assert m.trace().real == pytest.approx(1.0, abs=1e-12)


class TestJointProbability:
    def test_product_state_computational_basis(self):
        p = joint_probability(schmidt_state(0.0), ALL_Z)
        assert p.shape == (2, 2, 2, 2)
        assert p[0, 0, 0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_maximally_entangled_uniform_marginal(self):
        p = joint_probability(maximally_entangled_state(), ALL_Z)
        assert p[0, 0, 0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_schmidt_basis_has_no_cross_terms(self):
        # Direct matrix evaluation: <01| rho |01> vanishes for Schmidt states.
        rho = schmidt_state(math.pi / 8)
        assert np.abs(rho.matrix[1, 1]) <= 1e-15
        assert joint_probability(rho, ALL_Z)[0, 0, 0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_outcomes_sum_to_one(self, rng):
        for i in range(20):
            rho = random_two_qubit_state(rng, pure=bool(i % 2))
            p = joint_probability(rho, random_measurement_set(rng))
            np.testing.assert_allclose(p.sum(axis=(2, 3)), np.ones((2, 2)), rtol=0.0, atol=1e-12)

    def test_matches_kron_oracle(self):
        rng = np.random.default_rng(7741)
        worst = 0.0
        for i in range(240):
            rho = random_two_qubit_state(rng, pure=bool(i % 2))
            m = random_measurement_set(rng)
            worst = max(worst, float(np.abs(joint_probability(rho, m) - kron_born_table(rho, m)).max()))
        assert worst <= 1e-14

    def test_rounding_below_zero_is_clamped(self):
        rho = TwoQubitState(np.diag([1.0 + 5e-13, -5e-13, 0.0, 0.0]).astype(complex))
        p = joint_probability(rho, ALL_Z)
        assert p[0, 0, 0, 1] == 0.0
        assert p[0, 0, 0, 0] == 1.0

    def test_probability_outside_range_raises(self):
        # A state inside the PSD tolerance (eigenvalue -5e-11 >= -1e-10) whose
        # Born probability is beyond the 1e-12 the rule forgives.
        rho = TwoQubitState(np.diag([1.0 + 5e-11, -5e-11, 0.0, 0.0]).astype(complex))
        with pytest.raises(NumericFailure, match="outside"):
            joint_probability(rho, ALL_Z)


class TestConcurrence:
    def test_product_states_have_zero_concurrence(self, rng):
        assert concurrence(schmidt_state(0.0)) == 0.0
        for _ in range(10):
            a = rng.normal(size=2) + 1j * rng.normal(size=2)
            b = rng.normal(size=2) + 1j * rng.normal(size=2)
            ket = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
            rho = TwoQubitState(np.outer(ket, ket.conj()))
            assert concurrence(rho) <= 1e-7

    def test_werner_state_half(self):
        # Frozen value 0.25 computed with the independent eigensolver oracle.
        phi = maximally_entangled_state().matrix
        werner = TwoQubitState(0.5 * phi + 0.5 * np.eye(4) / 4.0)
        oracle = concurrence_eigvals_oracle(werner.matrix)
        assert oracle == pytest.approx(0.25, abs=1e-12)
        assert concurrence(werner) == pytest.approx(0.25, abs=1e-12)

    def test_matches_oracle_on_random_states(self, rng):
        for i in range(25):
            rho = random_two_qubit_state(rng, pure=bool(i % 2))
            assert concurrence(rho) == pytest.approx(
                concurrence_eigvals_oracle(rho.matrix), abs=1e-6
            )


class TestTwoQubitStateValidation:
    def test_non_hermitian_rejected(self):
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 1] = 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            TwoQubitState(m)

    def test_wrong_trace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            TwoQubitState(np.eye(4, dtype=complex) / 2.0)

    def test_negative_eigenvalue_rejected(self):
        m = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
        with pytest.raises(ValueError, match="eigenvalue"):
            TwoQubitState(m)

    def test_matrix_is_readonly(self):
        rho = schmidt_state(0.2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 0.0


class TestBlochForm:
    def test_rebuilds_the_matrix(self):
        # rho = (1 (x) 1 + sum r_A,i s_i (x) 1 + sum r_B,j 1 (x) s_j + sum T_ij s_i (x) s_j) / 4,
        # with the Pauli products formed here by Kronecker products.
        rng = np.random.default_rng(515)
        one = np.eye(2)
        for i in range(200):
            rho = random_two_qubit_state(rng, pure=i % 2 == 0)
            r_alice, r_bob, corr = rho.bloch
            rebuilt = np.kron(one, one)
            for k in range(3):
                rebuilt = rebuilt + r_alice[k] * np.kron(PAULIS[k], one) + r_bob[k] * np.kron(one, PAULIS[k])
                for j in range(3):
                    rebuilt = rebuilt + corr[k, j] * np.kron(PAULIS[k], PAULIS[j])
            np.testing.assert_allclose(rebuilt / 4.0, rho.matrix, rtol=0.0, atol=1e-15)

    def test_computed_once_and_read_only(self):
        # Every access views the same memory, so nothing is computed again.
        rho = schmidt_state(0.3)
        first, again = rho.bloch, rho.bloch
        assert [a.shape for a in first] == [(3,), (3,), (3, 3)]
        for a, b in zip(first, again):
            assert np.shares_memory(a, b)
            with pytest.raises(ValueError):
                a[0] = 0.0


class TestMeasurementSet:
    def test_chsh_optimal_directions(self):
        m = MeasurementSet.chsh_optimal()
        inv = 1.0 / math.sqrt(2.0)
        assert m.alice[0].as_array() == pytest.approx([0.0, 0.0, 1.0])
        assert m.alice[1].as_array() == pytest.approx([1.0, 0.0, 0.0])
        assert m.bob[0].as_array() == pytest.approx([inv, 0.0, inv])
        assert m.bob[1].as_array() == pytest.approx([-inv, 0.0, inv])

    def test_from_polar_angles_is_in_plane(self):
        m = MeasurementSet.from_polar_angles(0.0, math.pi / 2, math.pi / 4, -math.pi / 4)
        for v in (*m.alice, *m.bob):
            assert v.y == 0.0
        assert m.alice[1].x == pytest.approx(1.0)

    def test_wrong_arity_rejected(self):
        z = BlochVector(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            MeasurementSet(alice=(z,), bob=(z, z))

    def test_non_unit_direction_raises(self):
        with pytest.raises(ValueError, match="unit norm"):
            BlochVector(0.0, 0.0, 2.0)

    def test_normalized_rebuilds_a_set_from_its_rows(self, rng):
        # The rows are the vectors a0, a1, b0, b1 exactly.  Normalizing them
        # again divides by a norm that may round to 1 -/+ one unit in the last
        # place, so a component moves by at most 2^-52; a row scaled by two
        # normalizes to the same bits.
        for m in [MeasurementSet.chsh_optimal(), *(random_measurement_set(rng) for _ in range(50))]:
            rows = m.as_array()
            assert rows.tolist() == [v.as_array().tolist() for v in (*m.alice, *m.bob)]
            again = MeasurementSet.normalized(rows)
            np.testing.assert_allclose(again.as_array(), rows, rtol=0.0, atol=2.0**-52)
            assert MeasurementSet.normalized(2.0 * rows) == again
        with pytest.raises(ValueError, match="zero"):
            MeasurementSet.normalized(np.zeros((4, 3)))
