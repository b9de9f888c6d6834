import numpy as np
import pytest

from bellbound import ChSlice

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


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260808)
