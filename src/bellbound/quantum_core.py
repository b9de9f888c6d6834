"""Two-qubit states, rank-1 projective measurements, Born probabilities, concurrence.

All density matrices are 4x4 complex arrays in the computational product basis
|00>, |01>, |10>, |11>.  Under product measurements a state is seen only
through its Bloch form: the local Bloch vectors r_A, r_B and the 3x3
correlation matrix T (Horodecki, Horodecki & Horodecki, Phys. Lett. A 200, 340
(1995)), which :attr:`TwoQubitState.bloch` holds.  The Born rule, the see-saw
and the Schmidt-angle searches all read it there.  Every public operation is a
pure function on immutable value types, so unrestricted concurrent use is safe.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericFailure

HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
UNIT_NORM_ATOL = 1e-12
PSD_EIGENVALUE_FLOOR = -1e-10

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_SIGMA_YY = np.kron(PAULI_Y, PAULI_Y)
_PAULIS = np.array([PAULI_X, PAULI_Y, PAULI_Z])
# (-1)^a for an outcome a, and (-1)^(a+b) for a pair of outcomes.
_OUTCOME_SIGNS = np.array([1.0, -1.0])
_PAIR_SIGNS = np.outer(_OUTCOME_SIGNS, _OUTCOME_SIGNS)


def _frozen_array(values, dtype=complex) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class TwoQubitState:
    """Validated two-qubit density matrix.

    Invariants enforced at construction: Hermitian within 1e-12, unit trace
    within 1e-12, and positive semidefinite (smallest eigenvalue >= -1e-10).
    Its Bloch form, :attr:`bloch`, is computed on first use and kept.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"density matrix must be 4x4, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("density matrix has non-finite entries")
        adjoint = m.conj().T
        if np.abs(m - adjoint).max() > HERMITICITY_ATOL:
            raise ValueError("density matrix is not Hermitian within 1e-12")
        trace = m.trace()
        if abs(trace.real - 1.0) > TRACE_ATOL or abs(trace.imag) > TRACE_ATOL:
            raise ValueError(f"density matrix trace {trace} differs from 1 by more than 1e-12")
        eigmin = float(np.linalg.eigvalsh((m + adjoint) / 2.0).min())
        if eigmin < PSD_EIGENVALUE_FLOOR:
            raise ValueError(f"density matrix has eigenvalue {eigmin:.3e} below -1e-10")
        object.__setattr__(self, "matrix", _frozen_array(m))

    @functools.cached_property
    def _bloch_terms(self) -> np.ndarray:
        # One read-only buffer, 0.37 KB a state against 1 KB for three results;
        # its real views keep the strides that the see-saw's rounding rests on.
        r = self.matrix.reshape(2, 2, 2, 2)
        terms = np.empty(15, dtype=complex)
        np.einsum("ij,aji->a", np.einsum("ikjk->ij", r), _PAULIS, out=terms[:3])
        np.einsum("kl,blk->b", np.einsum("ikil->kl", r), _PAULIS, out=terms[3:6])
        np.einsum("ikjl,aji,blk->ab", r, _PAULIS, _PAULIS, out=terms[6:].reshape(3, 3))
        terms.setflags(write=False)
        return terms

    @property
    def bloch(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The Bloch form ``(r_alice, r_bob, corr)``: read-only views of values computed once per state.

        With r_A,i = tr(rho s_i (x) 1), r_B,j = tr(rho 1 (x) s_j) and T_ij = tr(rho s_i (x) s_j),
        rho = (1 (x) 1 + sum_i r_A,i s_i (x) 1 + sum_j r_B,j 1 (x) s_j + sum_ij T_ij s_i (x) s_j) / 4.
        """
        terms = self._bloch_terms
        return terms[:3].real, terms[3:6].real, terms[6:].reshape(3, 3).real


def schmidt_state(gamma: float) -> TwoQubitState:
    """Density matrix of the pure state cos(g)|00> + sin(g)|11>, g in [0, pi/4].

    g = 0 is a product state, g = pi/4 is maximally entangled; the
    concurrence of the state is sin(2 g).
    """
    g = float(gamma)
    if not math.isfinite(g) or g < 0.0 or g > math.pi / 4 + 1e-15:
        raise ValueError(f"Schmidt angle must lie in [0, pi/4], got {gamma}")
    vec = np.zeros(4, dtype=complex)
    vec[0] = math.cos(g)
    vec[3] = math.sin(g)
    return TwoQubitState(np.outer(vec, vec.conj()))


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
    def normalized(cls, values) -> "BlochVector":
        """The direction of ``values``, divided by its norm.

        The norm of a unit row rounds to 1 +/- 1 ulp, so a component may move
        by one ulp (up to 2.2e-16).  The constructor is the spelling that
        keeps the bits.
        """
        v = np.asarray(values, dtype=float).reshape(3)
        norm = float(np.linalg.norm(v))
        if norm == 0.0 or not math.isfinite(norm):
            raise ValueError("cannot normalize a zero or non-finite vector")
        v = v / norm
        return cls(float(v[0]), float(v[1]), float(v[2]))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


@dataclass(frozen=True)
class MeasurementSet:
    """Two Bloch directions per party, Alice's x = 0, 1 and Bob's y = 0, 1; as an array, rows a0, a1, b0, b1."""

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
        """In-plane measurement set from four polar angles (radians), each from the z axis toward x."""
        a0, a1, b0, b1 = (BlochVector(math.sin(t), 0.0, math.cos(t)) for t in (a0, a1, b0, b1))
        return cls(alice=(a0, a1), bob=(b0, b1))

    @classmethod
    def normalized(cls, rows) -> "MeasurementSet":
        """The set whose vectors a0, a1, b0, b1 are the four rows, each scaled to unit norm.

        Each row goes through :meth:`BlochVector.normalized`, so a row already
        of unit norm may move by one ulp, and the result need not compare
        equal to the set the rows came from.  ``seesaw._best_response``
        passes each set it forms through here once.
        """
        a0, a1, b0, b1 = (BlochVector.normalized(row) for row in rows)
        return cls(alice=(a0, a1), bob=(b0, b1))

    def as_array(self) -> np.ndarray:
        """The (4, 3) rows a0, a1, b0, b1."""
        return np.array([[v.x, v.y, v.z] for v in (*self.alice, *self.bob)])


def joint_probability(rho: TwoQubitState, m: MeasurementSet) -> np.ndarray:
    """Born table p[x, y, a, b] = tr(rho A_x^a (x) B_y^b) for a projective set.

    With A_x^a = (1 + (-1)^a a_x.sigma)/2 and B_y^b alike, each entry is
    (1 + (-1)^a a_x.r_A + (-1)^b b_y.r_B + (-1)^(a+b) a_x.T b_y)/4 in the
    state's Bloch form :attr:`TwoQubitState.bloch`, which each state computes
    once.  Raises :class:`~bellbound.errors.NumericFailure` if an entry lies
    outside [-1e-12, 1 + 1e-12]; entries are then clamped to [0, 1].
    """
    r_alice, r_bob, corr = rho.bloch
    alice, bob = m.as_array().reshape(2, 2, 3)
    # einsum, not BLAS matrix products: as fast at this size, and it spares
    # the program the BLAS working memory (0.2 to 0.3 MB of peak RSS).
    alice_term = np.multiply.outer(np.einsum("xi,i->x", alice, r_alice), _OUTCOME_SIGNS)  # [x, a]
    bob_term = np.multiply.outer(np.einsum("yi,i->y", bob, r_bob), _OUTCOME_SIGNS)  # [y, b]
    corr_term = np.multiply.outer(np.einsum("xi,ij,yj->xy", alice, corr, bob), _PAIR_SIGNS)  # [x, y, a, b]
    p = 0.25 * (1.0 + alice_term[:, None, :, None] + bob_term[None, :, None, :] + corr_term)
    low, high = float(p.min()), float(p.max())
    if low < -1e-12 or high > 1.0 + 1e-12:
        bad = low if low < -1e-12 else high
        raise NumericFailure(f"Born probability {bad!r} outside [-1e-12, 1 + 1e-12]")
    return np.clip(p, 0.0, 1.0)


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
