import math

import numpy as np
import pytest

from bellbound import ChSlice, coefficients, global_max_violation, optimizer, schmidt_state, simulate
from bellbound.invariants import kron_born_table, projector_from_bloch  # noqa: F401  (re-exported for the test modules)

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


def in_plane_grid_max_violation(
    gamma: float, tau: float, *, resolution: float = 0.002, refine: bool = True
) -> float:
    """Independent grid oracle for the maximal violation of a Schmidt-angle state.

    Scans Bob's two polar angles over [0, 2 pi) at the given resolution.  For
    in-plane measurements the objective is affine in each of Alice's Bloch
    vectors, so her optimal response per setting is exact (the norm of the
    coefficient vector); nothing is iterated, making this a genuine
    cross-check of the see-saw.  One refinement pass re-grids a window of
    +/- 2 resolution around the best Bob pair at 1/50 of the resolution.
    """
    schmidt_state(gamma)  # validates the angle range
    coefficients(tau)
    c2g = math.cos(2.0 * gamma)
    s2g = math.sin(2.0 * gamma)
    t = float(tau)

    def scan(theta0: np.ndarray, theta1: np.ndarray):
        cb1 = np.cos(theta1)
        sb1 = np.sin(theta1)
        best = -math.inf
        best_pair = (0.0, 0.0)
        chunk = 256
        for lo in range(0, theta0.size, chunk):
            th0 = theta0[lo : lo + chunk]
            cb0 = np.cos(th0)[:, None]
            sb0 = np.sin(th0)[:, None]
            u0 = 0.5 * (1.0 - t) * c2g + 0.25 * (cb0 + cb1[None, :])
            v0 = 0.25 * s2g * (sb0 + sb1[None, :])
            u1 = 0.25 * (cb0 - cb1[None, :])
            v1 = 0.25 * s2g * (sb0 - sb1[None, :])
            values = (
                (0.5 - t + 0.5 * (1.0 - t) * c2g * cb0)
                + np.hypot(u0, v0)
                + np.hypot(u1, v1)
            )
            i, j = np.unravel_index(int(np.argmax(values)), values.shape)
            if values[i, j] > best:
                best = float(values[i, j])
                best_pair = (float(th0[i]), float(theta1[j]))
        return best, best_pair

    thetas = np.arange(0.0, 2.0 * math.pi, resolution)
    best, (t0, t1) = scan(thetas, thetas)
    if refine:
        step = resolution / 50.0
        window = np.arange(-2.0 * resolution, 2.0 * resolution + step / 2, step)
        refined, _ = scan(t0 + window, t1 + window)
        best = max(best, refined)
    return best


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
