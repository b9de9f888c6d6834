from itertools import product

import numpy as np
import pytest

from bellbound import ChSlice, global_max_violation, optimizer, schmidt_state, simulate

# The bundled demo statistics (a down-conversion pair source measured with
# two settings per side; see src/bellbound/data/demo_slice.json).
DEMO_SLICE = ChSlice(
    j00=0.3811,
    j01=0.3593,
    j10=0.3789,
    j11=0.0671,
    mA0=0.4025,
    mA1=0.4806,
    mB0=0.4671,
    mB1=0.5058,
)

PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SIGMA_YY = np.kron(PAULI_Y, PAULI_Y)
PAULIS = (
    np.array([[0.0, 1.0], [1.0, 0.0]]),
    PAULI_Y,
    np.array([[1.0, 0.0], [0.0, -1.0]]),
)


def projector_from_bloch(direction, outcome: int) -> np.ndarray:
    """Qubit projector (1 + (-1)^outcome n.sigma)/2 as a 2x2 matrix."""
    n = direction.as_array()
    sign = -1.0 if outcome else 1.0
    return 0.5 * (np.eye(2) + sign * sum(c * pauli for c, pauli in zip(n, PAULIS)))


def kron_born_table(rho, m) -> np.ndarray:
    """Independent Born-rule oracle: p[x, y, a, b] = tr(rho A_x^a (x) B_y^b).

    Builds each projector as a matrix and takes one 4x4 Kronecker product and
    trace per entry -- a different code path from the library's Bloch-form
    rule, which never forms an operator.
    """
    p = np.empty((2, 2, 2, 2))
    for x, y, a, b in product(range(2), repeat=4):
        op = np.kron(projector_from_bloch(m.alice[x], a), projector_from_bloch(m.bob[y], b))
        p[x, y, a, b] = np.trace(rho.matrix @ op).real
    return p


def concurrence_eigvals_oracle(matrix: np.ndarray) -> float:
    """Independent concurrence oracle: general (non-Hermitian) eigensolver.

    Directly takes the decreasingly ordered eigenvalues of
    rho (sy x sy) rho^T (sy x sy) -- a different code path from the library's
    Hermitian-route implementation.
    """
    lam = np.linalg.eigvals(matrix @ SIGMA_YY @ matrix.conj() @ SIGMA_YY)
    roots = np.sqrt(np.sort(np.abs(lam.real))[::-1])
    return float(max(0.0, 2.0 * roots[0] - roots.sum()))


def horodecki_ch_max(matrix: np.ndarray) -> float:
    """Exact maximal untilted CH value of a two-qubit state: (sqrt(M) - 1) / 2.

    M is the sum of the two largest eigenvalues of T^T T, where
    T_ij = tr(rho sigma_i (x) sigma_j) is built here by Kronecker products and
    traces (Horodecki, Horodecki & Horodecki, Phys. Lett. A 200, 340 (1995)).
    """
    corr = np.array([[np.trace(matrix @ np.kron(si, sj)).real for sj in PAULIS] for si in PAULIS])
    eig = np.linalg.eigvalsh(corr.T @ corr)
    return float((np.sqrt(max(0.0, eig[-1] + eig[-2])) - 1.0) / 2.0)


def near_trivial_experiment():
    """The tilt-1.4999 optimum, simulated: valid data whose threshold nears 3/2.

    Its tilt threshold is about 1.49993, where no Schmidt angle violates above
    the critical-angle search's 1e-10.  Returns the table and the true
    concurrence sin(2 gamma*).
    """
    optimum = global_max_violation(1.4999)
    table = simulate(schmidt_state(optimum.gamma_star), optimum.measurements)
    return table, float(np.sin(2.0 * optimum.gamma_star))


@pytest.fixture
def quantum_value_off_by_1e9(monkeypatch):
    """Shift the optimizer's quantum_value by 1e-9, so no optimum reproduces max F."""
    real = optimizer.quantum_value

    def shifted(rho, m, tau):
        value = real(rho, m, tau)
        return optimizer.BellValue(value=value.value + 1e-9, tau=value.tau)

    monkeypatch.setattr(optimizer, "quantum_value", shifted)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260808)
