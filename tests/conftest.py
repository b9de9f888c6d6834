import math

import numpy as np
import pytest

from bellbound import (
    BellValue,
    ChSlice,
    ProbabilityTable,
    coefficients,
    global_max_violation,
    optimizer,
    schmidt_state,
    seesaw,
    simulate,
)
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


def marginal_past_one_table(excess: float):
    """A table whose marginal p_A(0|0) reads 1 + ``excess`` from the y = 0 block.

    p(.,.|0,0) = [[1/2, 1/2 + excess], [0, 0]], p(.,.|0,1) = [[1/2, 1/2], [0, 0]],
    and p(a,b|1,y) = 1/2 for a = b: its normalization residual is ``excess``.
    """
    p = np.zeros((2, 2, 2, 2))
    p[0, 0, 0] = [0.5, 0.5 + excess]
    p[0, 1, 0] = [0.5, 0.5]
    p[1, :, 0, 0] = p[1, :, 1, 1] = 0.5
    return ProbabilityTable(p)


def reference_ch_slice(table) -> ChSlice:
    """Slice oracle: the library's former ``ch_slice``, one numpy read per field.

    Alice marginals from the y = 0 block, Bob marginals from the x = 0 block,
    each a numpy sum of two entries; a marginal past 1 raises ``RangeError``.
    """
    p = table.p
    return ChSlice(
        j00=float(p[0, 0, 0, 0]),
        j01=float(p[0, 1, 0, 0]),
        j10=float(p[1, 0, 0, 0]),
        j11=float(p[1, 1, 0, 0]),
        mA0=float(p[0, 0, 0, :].sum()),
        mA1=float(p[1, 0, 0, :].sum()),
        mB0=float(p[0, 0, :, 0].sum()),
        mB1=float(p[0, 1, :, 0].sum()),
    )


def reference_validate(table, tol: float) -> tuple:
    """Validation oracle: the library's former residual expressions for a full table.

    Returns (normalization, no-signaling, consistency, Tsirelson residuals,
    verdict).  No-signaling compares four sliced sums; consistency and the
    Tsirelson excess are read off :func:`reference_ch_slice`.
    """
    p = table.p
    normalization = float(np.max(np.abs(p.sum(axis=(2, 3)) - 1.0)))
    alice = np.max(np.abs(p[:, 0, :, :].sum(axis=2) - p[:, 1, :, :].sum(axis=2)))
    bob = np.max(np.abs(p[0, :, :, :].sum(axis=1) - p[1, :, :, :].sum(axis=1)))
    nosignaling = float(max(alice, bob))
    s = reference_ch_slice(table)
    pairs = ((s.j00, s.mA0, s.mB0), (s.j01, s.mA0, s.mB1), (s.j10, s.mA1, s.mB0), (s.j11, s.mA1, s.mB1))
    consistency = max(0.0, max(max(j - min(ma, mb), ma + mb - 1.0 - j) for j, ma, mb in pairs))
    ch = s.j00 + s.j01 + s.j10 - s.j11 - s.mA0 - s.mB0
    tsirelson = max(0.0, ch - (math.sqrt(2.0) - 1.0) / 2.0)
    worst = max(normalization, nosignaling, consistency, tsirelson)
    verdict = "pass" if worst <= tol else "warn" if worst <= 10.0 * tol else "fail"
    return normalization, nosignaling, consistency, tsirelson, verdict


def _plain_renormalize_rows(candidate: np.ndarray, current: np.ndarray) -> np.ndarray:
    # Each row scaled to unit length; a row whose norm is below 1e-14 keeps
    # the current one.
    norms = np.sqrt(np.add.reduce(candidate * candidate, axis=-1))
    degenerate = norms < 1e-14
    out = candidate / np.where(degenerate, 1.0, norms)[..., None]
    out[degenerate] = current[degenerate]
    return out


def plain_seesaw(r_alice, r_bob, corr, tau, starts, tol):
    """Independent see-saw oracle: the plain alternating ascent, with no Newton finish.

    The batch kernel the library ran before its settings were packed into
    rows, kept apart from it: each party's two settings are one
    (2, restarts, 3) array, and every iteration forms each restart's value at
    (alice, bob) term by term.  A restart is converged once its value rises by
    less than ``tol`` in an iteration; the batch stops at the iteration where
    its last restart converges, or after 500 iterations.  Returns the
    final values (restarts,), Alice's and Bob's (2, restarts, 3) settings, the
    converged flags, the iteration at which each restart first converged (or
    stopped), and the (iterations, restarts) history of the values.
    """
    max_iterations = 500
    alice, bob = starts
    restarts = alice.shape[1]
    history = np.empty((max_iterations, restarts))
    previous = np.full(restarts, -np.inf)
    converged = np.zeros(restarts, dtype=bool)
    first_converged = np.zeros(restarts, dtype=int)
    corr_t = corr.T
    alice_col, bob_col = r_alice[:, None], r_bob[:, None]
    tilt_pull_a = 2.0 * (1.0 - tau) * r_alice
    tilt_pull_b = 2.0 * (1.0 - tau) * r_bob
    bob_pm = np.array([bob[0] + bob[1], bob[0] - bob[1]])
    corr_bob = bob_pm @ corr_t
    for iterations in range(1, max_iterations + 1):
        corr_bob[0] += tilt_pull_a
        alice = _plain_renormalize_rows(corr_bob, alice)
        corr_alice = np.array([alice[0] + alice[1], alice[0] - alice[1]]) @ corr
        corr_alice[0] += tilt_pull_b
        bob = _plain_renormalize_rows(corr_alice, bob)
        bob_pm = np.array([bob[0] + bob[1], bob[0] - bob[1]])
        corr_bob = bob_pm @ corr_t
        a_dot = (alice[0] @ alice_col)[:, 0]
        b_dot = (bob[0] @ bob_col)[:, 0]
        bob_marginal = (bob_pm @ bob_col)[..., 0]
        corr_terms = np.einsum("prk,prk->pr", alice, corr_bob)
        values = 0.25 * (
            2.0 + 2.0 * a_dot + bob_marginal[0] + corr_terms[0] + bob_marginal[1] + corr_terms[1]
        ) - tau * (1.0 + 0.5 * (a_dot + b_dot))
        history[iterations - 1] = values
        newly = ~converged & (values - previous < tol)
        first_converged[newly] = iterations
        converged |= newly
        if converged.all() or iterations == max_iterations:
            first_converged[~converged] = iterations
            break
        previous = values
    return values, alice, bob, converged, first_converged, history[:iterations]


def loop_in_plane_f(sin0, cos0, sin1, cos1, s, k, derivatives=False):
    """The in-plane form F - (1/2 - tau) in its loop form over the two norms:
    the oracle of schmidt._in_plane_f (all six outputs, ``derivatives``)
    and of schmidt._grid_f (the value, on arrays).  The library's former
    kernel, kept verbatim; see schmidt._in_plane_f for the terms."""
    value = 0.5 * k * cos0
    grad0, grad1 = -0.5 * k * sin0, 0.0
    h00, h01, h11 = -0.5 * k * cos0, 0.0, 0.0
    for sign, shift in ((1.0, 2.0 * k), (-1.0, 0.0)):
        x = s * (sin0 + sign * sin1)
        z = cos0 + sign * cos1 + shift
        r = (x * x + z * z) ** 0.5
        value = value + 0.25 * r
        if derivatives and r > 0.0:  # a vanishing norm is a kink at a minimum
            w0 = (x * s * cos0 - z * sin0) / r
            w1 = sign * (x * s * cos1 - z * sin1) / r
            grad0 += 0.25 * w0
            grad1 += 0.25 * w1
            h00 += 0.25 * ((s * s * cos0 * cos0 + sin0 * sin0 - x * s * sin0 - z * cos0) / r - w0 * w0 / r)
            h11 += 0.25 * ((s * s * cos1 * cos1 + sin1 * sin1 - sign * (x * s * sin1 + z * cos1)) / r - w1 * w1 / r)
            h01 += 0.25 * (sign * (s * s * cos0 * cos1 + sin0 * sin1) / r - w0 * w1 / r)
    if not derivatives:
        return value
    return value, grad0, grad1, h00, h01, h11


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
    """Shift by 1e-9 the quantum_value that reads back the measurements at max F,
    so that neither an optimum nor a pure state's Schmidt route reproduces it."""
    real = seesaw.quantum_value

    def shifted(rho, m, tau):
        value = real(rho, m, tau)
        return BellValue(value=value.value + 1e-9, tau=value.tau)

    monkeypatch.setattr(seesaw, "quantum_value", shifted)


@pytest.fixture
def warm_ratings_short_by_1e9(monkeypatch):
    """Lower every warm rating of max F by 1e-9, as a warm start stopped on a lower local maximum would."""
    real = optimizer._Rater.warm

    def short(self, gamma):
        value, theta = real(self, gamma)
        return value - 1e-9, theta

    monkeypatch.setattr(optimizer._Rater, "warm", short)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260808)
