import math

import numpy as np
import pytest

from bellbound import (
    BlochVector,
    MeasurementSet,
    Projector2x2,
    SchmidtState,
    TwoQubitState,
    concurrence,
    joint_probability,
    maximally_entangled_state,
    projector_from_bloch,
    random_measurement_set,
    random_two_qubit_state,
    schmidt_state,
)
from bellbound.quantum_core import random_single_qubit_unitary

from conftest import concurrence_eigvals_oracle


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

    def test_schmidt_state_value_type(self):
        s = SchmidtState(0.3)
        assert s.concurrence == pytest.approx(math.sin(0.6), abs=1e-15)
        np.testing.assert_allclose(s.density().matrix, schmidt_state(0.3).matrix)


class TestProjectorFromBloch:
    def test_z_axis_outcome_zero(self):
        p = projector_from_bloch(BlochVector(0.0, 0.0, 1.0), 0)
        np.testing.assert_allclose(p.matrix, np.diag([1.0, 0.0]), atol=1e-15)

    def test_x_axis_outcome_zero(self):
        p = projector_from_bloch(BlochVector(1.0, 0.0, 0.0), 0)
        np.testing.assert_allclose(p.matrix, 0.5 * np.ones((2, 2)), atol=1e-15)

    def test_outcomes_sum_to_identity(self, rng):
        for _ in range(20):
            n = BlochVector.normalized(rng.normal(size=3))
            total = projector_from_bloch(n, 0).matrix + projector_from_bloch(n, 1).matrix
            np.testing.assert_allclose(total, np.eye(2), atol=1e-15)

    def test_idempotent_and_hermitian(self, rng):
        for _ in range(20):
            n = BlochVector.normalized(rng.normal(size=3))
            for outcome in (0, 1):
                m = projector_from_bloch(n, outcome).matrix
                assert np.max(np.abs(m @ m - m)) <= 1e-12
                assert np.max(np.abs(m - m.conj().T)) <= 1e-12
                assert m.trace().real == pytest.approx(1.0, abs=1e-12)

    def test_non_unit_vector_raises(self):
        with pytest.raises(ValueError):
            projector_from_bloch([0.0, 0.0, 2.0], 0)

    def test_bad_outcome_raises(self):
        with pytest.raises(ValueError):
            projector_from_bloch(BlochVector(0.0, 0.0, 1.0), 2)


class TestJointProbability:
    def test_product_state_computational_basis(self):
        rho = schmidt_state(0.0)
        p0 = projector_from_bloch(BlochVector(0.0, 0.0, 1.0), 0)
        assert joint_probability(rho, p0, p0) == pytest.approx(1.0, abs=1e-15)

    def test_maximally_entangled_uniform_marginal(self):
        rho = maximally_entangled_state()
        p0 = projector_from_bloch(BlochVector(0.0, 0.0, 1.0), 0)
        assert joint_probability(rho, p0, p0) == pytest.approx(0.5, abs=1e-15)

    def test_schmidt_basis_has_no_cross_terms(self):
        # Direct matrix evaluation: <01| rho |01> vanishes for Schmidt states.
        rho = schmidt_state(math.pi / 8)
        assert np.abs(rho.matrix[1, 1]) <= 1e-15
        a = projector_from_bloch(BlochVector(0.0, 0.0, 1.0), 0)
        b = projector_from_bloch(BlochVector(0.0, 0.0, 1.0), 1)
        assert joint_probability(rho, a, b) == pytest.approx(0.0, abs=1e-15)

    def test_outcomes_sum_to_one(self, rng):
        for i in range(20):
            rho = random_two_qubit_state(rng, pure=bool(i % 2))
            m = random_measurement_set(rng)
            alice = m.alice_projectors()
            bob = m.bob_projectors()
            for x in range(2):
                for y in range(2):
                    total = sum(
                        joint_probability(rho, alice[x][a], bob[y][b])
                        for a in range(2)
                        for b in range(2)
                    )
                    assert total == pytest.approx(1.0, abs=1e-12)


class TestConcurrence:
    def test_product_states_have_zero_concurrence(self, rng):
        assert concurrence(schmidt_state(0.0)) == 0.0
        for _ in range(10):
            a = rng.normal(size=2) + 1j * rng.normal(size=2)
            b = rng.normal(size=2) + 1j * rng.normal(size=2)
            ket = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
            rho = TwoQubitState(np.outer(ket, ket.conj()))
            assert concurrence(rho) <= 1e-7

    def test_schmidt_states_give_sin_two_gamma(self):
        for gamma in np.linspace(0.0, math.pi / 4, 50):
            c = concurrence(schmidt_state(float(gamma)))
            assert c == pytest.approx(math.sin(2.0 * float(gamma)), abs=1e-9)

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

    def test_invariant_under_local_unitaries(self, rng):
        for i in range(100):
            rho = random_two_qubit_state(rng, pure=bool(i % 2))
            base = concurrence(rho)
            u = np.kron(random_single_qubit_unitary(rng), random_single_qubit_unitary(rng))
            rotated = TwoQubitState(u @ rho.matrix @ u.conj().T)
            assert abs(concurrence(rotated) - base) <= 1e-9


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

    def test_projector_pairs_complete(self):
        m = MeasurementSet.chsh_optimal()
        for pair in (*m.alice_projectors(), *m.bob_projectors()):
            np.testing.assert_allclose(pair[0].matrix + pair[1].matrix, np.eye(2), atol=1e-15)


class TestProjector2x2Validation:
    def test_rank_two_rejected(self):
        with pytest.raises(ValueError):
            Projector2x2(np.eye(2, dtype=complex))

    def test_non_idempotent_rejected(self):
        with pytest.raises(ValueError):
            Projector2x2(np.diag([0.6, 0.4]).astype(complex))
