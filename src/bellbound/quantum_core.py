"""Two-qubit states, rank-1 projective measurements, Born probabilities, concurrence.

All density matrices are 4x4 complex arrays in the computational product basis
|00>, |01>, |10>, |11>.  Every public operation is a pure function on immutable
value types, so unrestricted concurrent use is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericFailure

HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
UNIT_NORM_ATOL = 1e-12
IDEMPOTENCY_ATOL = 1e-12
PSD_EIGENVALUE_FLOOR = -1e-10

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_SIGMA_YY = np.kron(PAULI_Y, PAULI_Y)


def _frozen_array(values, dtype=complex) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


def _check_density_stack(m: np.ndarray) -> None:
    # The TwoQubitState invariants, checked at once on a (S, 4, 4) stack: each
    # numpy call runs once for the whole stack.  An error names the first
    # failing trace, or the smallest eigenvalue of the stack.
    if not np.isfinite(m).all():
        raise ValueError("density matrix has non-finite entries")
    adjoint = m.swapaxes(-1, -2).conj()
    if np.abs(m - adjoint).max() > HERMITICITY_ATOL:
        raise ValueError("density matrix is not Hermitian within 1e-12")
    for trace in m.trace(axis1=-2, axis2=-1).tolist():
        if abs(trace.real - 1.0) > TRACE_ATOL or abs(trace.imag) > TRACE_ATOL:
            raise ValueError(f"density matrix trace {trace} differs from 1 by more than 1e-12")
    eigmin = float(np.linalg.eigvalsh((m + adjoint) / 2.0).min())
    if eigmin < PSD_EIGENVALUE_FLOOR:
        raise ValueError(f"density matrix has eigenvalue {eigmin:.3e} below -1e-10")


@dataclass(frozen=True, eq=False)
class TwoQubitState:
    """Validated two-qubit density matrix.

    Invariants enforced at construction: Hermitian within 1e-12, unit trace
    within 1e-12, and positive semidefinite (smallest eigenvalue >= -1e-10).
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"density matrix must be 4x4, got shape {m.shape}")
        _check_density_stack(m[None])
        object.__setattr__(self, "matrix", _frozen_array(m))

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))


@dataclass(frozen=True)
class SchmidtState:
    """Pure state cos(gamma)|00> + sin(gamma)|11>, indexed by the Schmidt angle.

    gamma = 0 is a product state, gamma = pi/4 is maximally entangled; the
    concurrence of the state is sin(2 gamma).
    """

    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "gamma", _schmidt_angle(self.gamma))

    @property
    def concurrence(self) -> float:
        return math.sin(2.0 * self.gamma)

    def ket(self) -> np.ndarray:
        return _schmidt_kets([self.gamma])[0]

    def density(self) -> TwoQubitState:
        return TwoQubitState(_schmidt_matrices([self.gamma])[0])


def _schmidt_angle(gamma) -> float:
    g = float(gamma)
    if not math.isfinite(g) or g < 0.0 or g > math.pi / 4 + 1e-15:
        raise ValueError(f"Schmidt angle must lie in [0, pi/4], got {gamma}")
    return g


def _schmidt_kets(angles) -> np.ndarray:
    # (S, 4) kets cos(g)|00> + sin(g)|11>.  math.cos / math.sin per angle, not
    # np.cos / np.sin, whose last bit may differ: the golden-section search
    # compares values about 1e-11 apart, so an ulp in a state moves its result.
    kets = np.zeros((len(angles), 4), dtype=complex)
    kets[:, 0] = [math.cos(g) for g in angles]
    kets[:, 3] = [math.sin(g) for g in angles]
    return kets


def _schmidt_matrices(angles) -> np.ndarray:
    # (S, 4, 4) outer products |psi><psi|, the same products np.outer forms.
    kets = _schmidt_kets(angles)
    return kets[:, :, None] * kets.conj()[:, None, :]


def schmidt_state(gamma: float) -> TwoQubitState:
    """Density matrix of the Schmidt-angle pure state cos(g)|00> + sin(g)|11>."""
    return SchmidtState(float(gamma)).density()


def schmidt_density_stack(gammas) -> np.ndarray:
    """(S, 4, 4) stack of the matrices ``schmidt_state(g).matrix`` for each angle.

    Each angle is checked as :func:`schmidt_state` checks it, with the same
    error, and the stack passes the :class:`TwoQubitState` checks, each run
    once for the whole stack.
    """
    m = _schmidt_matrices([_schmidt_angle(float(g)) for g in gammas])
    _check_density_stack(m)
    return m


def maximally_entangled_state() -> TwoQubitState:
    """The gamma = pi/4 limit, the projector onto (|00> + |11>)/sqrt(2)."""
    return schmidt_state(math.pi / 4)


@dataclass(frozen=True)
class BlochVector:
    """Unit vector on the Bloch sphere (validated to unit norm within 1e-12)."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            object.__setattr__(self, name, float(getattr(self, name)))
        norm = math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)
        if not math.isfinite(norm) or abs(norm - 1.0) > UNIT_NORM_ATOL:
            raise ValueError(f"Bloch vector must have unit norm, got |n| = {norm!r}")

    @classmethod
    def from_array(cls, values) -> "BlochVector":
        v = np.asarray(values, dtype=float).reshape(3)
        return cls(float(v[0]), float(v[1]), float(v[2]))

    @classmethod
    def normalized(cls, values) -> "BlochVector":
        v = np.asarray(values, dtype=float).reshape(3)
        norm = float(np.linalg.norm(v))
        if norm == 0.0 or not math.isfinite(norm):
            raise ValueError("cannot normalize a zero or non-finite vector")
        v = v / norm
        return cls(float(v[0]), float(v[1]), float(v[2]))

    @classmethod
    def from_polar_angle(cls, theta: float) -> "BlochVector":
        """In-plane (x-z) direction at polar angle theta from the z axis."""
        return cls(math.sin(theta), 0.0, math.cos(theta))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    @property
    def polar_angle(self) -> float:
        """Angle from the z axis, arccos of the z component."""
        return math.acos(min(1.0, max(-1.0, self.z)))


@dataclass(frozen=True, eq=False)
class Projector2x2:
    """Rank-1 projector on a qubit: Hermitian, idempotent, unit trace (1e-12)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"projector must be 2x2, got shape {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_ATOL:
            raise ValueError("projector is not Hermitian within 1e-12")
        if np.max(np.abs(m @ m - m)) > IDEMPOTENCY_ATOL:
            raise ValueError("projector is not idempotent within 1e-12")
        if abs(m.trace().real - 1.0) > TRACE_ATOL:
            raise ValueError("projector must have rank 1 (trace 1)")
        object.__setattr__(self, "matrix", _frozen_array(m))


def projector_from_bloch(direction, outcome: int) -> Projector2x2:
    """Projector (1 + (-1)^outcome n.sigma)/2 for a binary measurement outcome.

    The two outcomes of a direction sum to the identity.  Accepts a
    :class:`BlochVector` or any length-3 array-like, which is validated to be
    a unit vector.
    """
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome!r}")
    if not isinstance(direction, BlochVector):
        direction = BlochVector.from_array(direction)
    s = -1.0 if outcome else 1.0
    m = 0.5 * np.array(
        [
            [1.0 + s * direction.z, s * (direction.x - 1j * direction.y)],
            [s * (direction.x + 1j * direction.y), 1.0 - s * direction.z],
        ],
        dtype=complex,
    )
    return Projector2x2(m)


@dataclass(frozen=True)
class MeasurementSet:
    """Two Bloch directions per party: Alice settings x = 0, 1 and Bob y = 0, 1."""

    alice: tuple[BlochVector, BlochVector]
    bob: tuple[BlochVector, BlochVector]

    def __post_init__(self):
        for name, pair in (("alice", self.alice), ("bob", self.bob)):
            pair = tuple(pair)
            if len(pair) != 2 or not all(isinstance(v, BlochVector) for v in pair):
                raise ValueError(f"{name} must be two BlochVector instances")
            object.__setattr__(self, name, pair)

    @classmethod
    def chsh_optimal(cls) -> "MeasurementSet":
        """Alice along z and x; Bob at +/- pi/4 in the x-z plane."""
        inv = 1.0 / math.sqrt(2.0)
        return cls(
            alice=(BlochVector(0.0, 0.0, 1.0), BlochVector(1.0, 0.0, 0.0)),
            bob=(BlochVector(inv, 0.0, inv), BlochVector(-inv, 0.0, inv)),
        )

    @classmethod
    def from_polar_angles(cls, a0: float, a1: float, b0: float, b1: float) -> "MeasurementSet":
        """In-plane measurement set from four polar angles (radians)."""
        return cls(
            alice=(BlochVector.from_polar_angle(a0), BlochVector.from_polar_angle(a1)),
            bob=(BlochVector.from_polar_angle(b0), BlochVector.from_polar_angle(b1)),
        )

    def alice_projectors(self) -> tuple[tuple[Projector2x2, Projector2x2], ...]:
        return tuple((projector_from_bloch(n, 0), projector_from_bloch(n, 1)) for n in self.alice)

    def bob_projectors(self) -> tuple[tuple[Projector2x2, Projector2x2], ...]:
        return tuple((projector_from_bloch(n, 0), projector_from_bloch(n, 1)) for n in self.bob)


def joint_probability(rho: TwoQubitState, a: Projector2x2, b: Projector2x2) -> float:
    """Born probability tr(rho A (x) B), clamped to [0, 1]."""
    value = np.trace(rho.matrix @ np.kron(a.matrix, b.matrix))
    p = float(value.real)
    if p < -1e-12 or p > 1.0 + 1e-12:
        raise NumericFailure(f"Born probability {p!r} outside [-1e-12, 1 + 1e-12]")
    return min(max(p, 0.0), 1.0)


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, u = np.linalg.eigh(m)
    w = np.clip(w, 0.0, None)
    # Null-space eigenvalues carry O(eps) noise whose square root would pollute
    # the result at the 1e-8 level; zero them relative to the largest one.
    w[w < w.max() * 1e-13] = 0.0
    return (u * np.sqrt(w)) @ u.conj().T


def concurrence(rho: TwoQubitState) -> float:
    """Wootters concurrence of a two-qubit density matrix, in [0, 1].

    Computes max(0, 2 sqrt(l1) - sum_i sqrt(l_i)) where l_i are the decreasingly
    ordered eigenvalues of rho (sy x sy) rho* (sy x sy), with conjugation in the
    computational basis.  The square roots are obtained through the Hermitian
    route: they are the eigenvalues of sqrt(sqrt(rho) rho_tilde sqrt(rho)),
    i.e. the singular values of sqrt(rho_tilde) sqrt(rho), which an SVD
    delivers at absolute machine precision.  Negative numerical eigenvalues of
    the intermediate PSD factors are clamped to zero before square roots.
    """
    m = rho.matrix
    rho_tilde = _SIGMA_YY @ m.conj() @ _SIGMA_YY
    try:
        x = _psd_sqrt(rho_tilde) @ _psd_sqrt(m)
        roots = np.linalg.svd(x, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure("eigendecomposition failed in concurrence") from exc
    return float(max(0.0, 2.0 * roots.max() - roots.sum()))


def random_bloch_vector(rng: np.random.Generator) -> BlochVector:
    """Uniformly random direction on the Bloch sphere."""
    while True:
        v = rng.normal(size=3)
        norm = float(np.linalg.norm(v))
        if norm > 1e-8:
            return BlochVector.normalized(v)


def random_measurement_set(rng: np.random.Generator) -> MeasurementSet:
    """Four independent uniformly random Bloch directions."""
    return MeasurementSet(
        alice=(random_bloch_vector(rng), random_bloch_vector(rng)),
        bob=(random_bloch_vector(rng), random_bloch_vector(rng)),
    )


def random_single_qubit_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-random 2x2 unitary (QR of a complex Gaussian with phase fixing)."""
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_two_qubit_state(rng: np.random.Generator, *, pure: bool = False) -> TwoQubitState:
    """Random two-qubit state: Haar-random pure, or a Ginibre-induced mixed state."""
    if pure:
        vec = rng.normal(size=4) + 1j * rng.normal(size=4)
        vec /= np.linalg.norm(vec)
        return TwoQubitState(np.outer(vec, vec.conj()))
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    m /= m.trace().real
    return TwoQubitState((m + m.conj().T) / 2.0)
