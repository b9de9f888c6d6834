"""The maximal violation of any two-qubit state: max F if pure, else a see-saw finished by Newton.

A pure state's maximal violation is invariant under local unitaries, so
:func:`seesaw_max_violation` takes it to its Schmidt form: the SVD of its
2x2 coefficient matrix gives the Schmidt angle and Bob's local unitary.  It
rates that angle by max F (:mod:`bellbound.schmidt`) and turns Bob's
maximizing vectors by the rotation his unitary makes of Bloch vectors; no
see-saw runs.  A mixed state takes the see-saw below, a search of its own
that runs on any state, and that the tests hold against the Schmidt route
on pure ones.

The see-saw is an alternating ascent.  With one party fixed, the value is
affine in each of the other party's outcome-0 projectors, so the optimal
rank-1 update for a setting is the projector onto the top eigenvector of a
2x2 effective operator (obtained by contracting the state with the fixed
party's operators and the tilted coefficients).  Ascent
is monotone because each update maximizes over a family containing the
current projector.  Its 8 restarts run in one batch: each party's settings
are the rows [x0 | x1 | 1] of one (8, 7) array, so that a half-step is one
matrix product with a block matrix that adds the tilt pull, one norm and one
divide for all of them.  Each restart is scored by V (below) at Bob's
settings, the value of Alice's best response to them, which the norms of
her next update give.  The ascent converges only linearly, so the batch
hands off once every restart's V has risen by less than 1e-6 in an
iteration (or after 500 iterations).

In the state's Bloch form (local vectors r_A, r_B and correlation matrix T),
Alice's best response is closed form for any state, which leaves a function
of Bob's two Bloch vectors on (S^2)^2:

    V(b0, b1) = 1/2 - tau + (1 - tau) b0.r_B / 2
                + |T (b0 + b1) + 2 (1 - tau) r_A| / 4 + |T (b0 - b1)| / 4.

Damped Riemannian Newton on V, with its analytic gradient and Hessian,
climbs from the leading restart, the one with the highest V at hand-off (and
from every restart still rising at the cap), to the maximum; at tilt 1 that
is the exact maximum of Horodecki, Horodecki & Horodecki (PLA 200, 340
(1995)).  The best finish is the answer, with Alice's best response to it.
Only the random starts are settable, through :class:`SeesawConfig`'s seed,
and they play no part on the Schmidt route.  max F is V restricted to
Schmidt states, over the polar angles of Bob's vectors in the x-z plane; the
Schmidt-angle searches of :mod:`bellbound.optimizer` rate it too, and do not
run the see-saw.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .bell_model import BellValue, coefficients, quantum_value
from .errors import NumericFailure
from .quantum_core import _PAULIS, MeasurementSet, TwoQubitState, random_measurement_set
from .schmidt import _schmidt_maxima

# The see-saw batch hands off to the Newton finish once every restart's value
# has risen by less than this in an iteration, or at its iteration cap.  The
# finish stops on its predicted rise; a long flat ridge can take it many
# steps (76 on input 985 of the benchmark's state_seesaw inputs for seed 7302,
# the most among the 4,096 of seeds 7302 and 7303), so its cap is above the
# 60 steps of the Schmidt-angle searches' Newton runs.
_HANDOFF_TOL = 1e-6
_FINISH_MAX_STEPS = 200
# A state whose purity (1 + |r_A|^2 + |r_B|^2 + |T|^2) / 4 lies within this
# of 1 takes the Schmidt route.  Pure inputs read within 9e-16 of 1 (20,000
# random pure states).  (1 - e) psi psi^+ + e I/4 has purity
# 1 - 3e/2 + 3e^2/4, so the route takes e up to about 6.7e-14; at such a
# state the value it reads back lies within e of max F at psi's angle, far
# inside the 1e-12 the read-back allows.
_PURITY_TOL = 1e-13
# Alice's CHSH-optimal settings, kept where a candidate of her best response
# to Bob vanishes.
_ALICE_FALLBACK = MeasurementSet.chsh_optimal().as_array()[:2]
_ALICE_FALLBACK.setflags(write=False)


@dataclass(frozen=True)
class SeesawConfig:
    """The see-saw's RNG seed; its restart count, iteration cap and tolerance are fixed.

    ``restarts`` and ``max_iterations`` bound the batch of
    :func:`seesaw_max_violation`.  ``convergence_tol`` is the rise per
    iteration below which the plain see-saw, run without the Newton finish,
    counts a restart converged; that run is the tests' oracle.
    """

    restarts: ClassVar[int] = 8
    max_iterations: ClassVar[int] = 500
    convergence_tol: ClassVar[float] = 1e-11
    rng_seed: int = 2071


DEFAULT_CONFIG = SeesawConfig()
# The histories of a call that ran no batch.
_NO_HISTORIES = np.empty((0, SeesawConfig.restarts))
_NO_HISTORIES.setflags(write=False)


@dataclass(frozen=True)
class SeesawResult:
    """Best value over restarts, the measurements achieving it, and diagnostics.

    ``converged`` and ``iterations`` refer to the restart returned:
    ``converged`` is whether its Newton finish stopped on its rule (a
    predicted rise below 1e-17) rather than on its 200-step cap, and
    ``iterations`` the batch iteration at which its V (module docstring)
    first rose by less than the 1e-6 hand-off tolerance (or the last, if it
    never did).  Where finishes tie exactly, the lowest restart index is
    returned, so rounding can decide which restart these two fields
    describe.  ``batch_iterations`` is the iteration at which the batch
    handed off to Newton, and ``unconverged`` the number of restarts whose V
    never rose by less than 1e-6 in an iteration, which is nonzero only when
    the batch ran out its 500 iterations.  ``finished`` holds the restarts
    the Newton finish ran from, ascending, and ``finish_steps`` the Newton
    steps it tried from them, summed.  ``histories`` is the read-only
    ``(batch_iterations, restarts)`` array of every restart's V at each
    iteration's Bob settings (the value of Alice's best response to them),
    before the finish; each column is nondecreasing.  Results compare and
    hash without it.

    A pure state takes the Schmidt route and runs no batch, so
    ``batch_iterations`` is 0 there and only there (a batch runs at least
    one iteration).  On the route ``converged`` is True, ``iterations`` and
    ``unconverged`` are 0, ``finished`` is ``()``, ``finish_steps`` holds
    the Newton steps of the rating of max F, and ``histories`` is read-only
    with shape ``(0, 8)``; ``SeesawConfig.rng_seed`` does not affect it.
    """

    value: BellValue
    measurements: MeasurementSet
    converged: bool
    iterations: int
    batch_iterations: int
    unconverged: int
    finished: tuple[int, ...]
    finish_steps: int
    histories: np.ndarray = field(compare=False)


def _renormalize_rows(candidate: np.ndarray, current: np.ndarray) -> np.ndarray:
    # Best rank-1 update per restart: align with the effective operator's Bloch
    # part.  A vanishing part leaves the objective flat, so the previous
    # direction is kept (deterministic tie-breaking); a zero top eigenvalue
    # still assigns its eigenvector to the outcome-0 projector.  The norm is
    # the plain sum of squares, as np.linalg.norm forms it, without that
    # call's overhead (einsum may fuse multiply-adds and round differently).
    norms = np.sqrt(np.add.reduce(candidate * candidate, axis=-1))
    degenerate = norms < 1e-14
    out = candidate / np.where(degenerate, 1.0, norms)[..., None]
    out[degenerate] = current[degenerate]
    return out


def _seesaw(r_alice, r_bob, corr, tau, starts, tol):
    # Alternating ascent on one state at one tilt, every restart in one batch.
    # Each party's settings are the rows [x0 | x1 | 1] of one (restarts, 7)
    # array, so a half-step is one product with a block matrix built per
    # call, which gives the other party's two candidates with the tilt pull
    # already added, then one norm and one divide into that party's rows.
    # From Bob's rows the product also gives b0.(1 - tau) r_B / 2 + 1/2 - tau
    # in column 6, so the norms of Alice's candidates complete V at Bob's
    # settings (module docstring), Alice's best-response value, which scores
    # each restart.  The batch stops at the iteration where every restart's
    # V has once risen by less than ``tol``, or at the iteration cap, before
    # that iteration's update of Alice.  Returns Bob's (2, restarts, 3)
    # settings, the converged flags, the iteration at which each restart
    # first converged (or the last), and the read-only (iterations, restarts)
    # rows of V; the last row is V at Bob's returned settings.
    max_iterations = SeesawConfig.max_iterations
    restarts = starts[0].shape[1]
    to_alice = np.zeros((7, 7))
    to_alice[:3, :3] = to_alice[:3, 3:6] = to_alice[3:6, :3] = corr.T
    to_alice[3:6, 3:6] = -corr.T
    to_alice[6, :3] = 2.0 * (1.0 - tau) * r_alice
    to_alice[:3, 6] = 0.5 * (1.0 - tau) * r_bob
    to_alice[6, 6] = 0.5 - tau
    to_bob = np.zeros((7, 6))
    to_bob[:3, :3] = to_bob[:3, 3:] = to_bob[3:6, :3] = corr
    to_bob[3:6, 3:] = -corr
    to_bob[6, :3] = 2.0 * (1.0 - tau) * r_bob
    alice, bob, for_alice = np.ones((restarts, 7)), np.ones((restarts, 7)), np.empty((restarts, 7))
    for_bob, squares, norms = np.empty((restarts, 6)), np.empty((restarts, 2, 3)), np.empty((restarts, 2))
    # (restarts, 2, 3) views of the settings and candidates.
    alice_sets, bob_sets = (rows[:, :6].reshape(restarts, 2, 3) for rows in (alice, bob))
    to_alice_sets, to_bob_sets = for_alice[:, :6].reshape(restarts, 2, 3), for_bob.reshape(restarts, 2, 3)
    alice_sets[...] = starts[0].transpose(1, 0, 2)
    bob_sets[...] = starts[1].transpose(1, 0, 2)
    linear, quarters = for_alice[:, 6], np.full(2, 0.25)
    # Row 0 is -inf, so that the first rise never counts as converged.
    history = np.empty((max_iterations + 1, restarts))
    history[0] = -np.inf
    converged = np.zeros(restarts, dtype=bool)

    def measure(candidates):
        np.multiply(candidates, candidates, out=squares)
        np.sqrt(np.add.reduce(squares, axis=-1, out=norms), out=norms)

    def take(candidates, sets):
        # The plain divide, unless some candidate vanishes.
        if np.minimum.reduce(norms, axis=None) < 1e-14:
            sets[...] = _renormalize_rows(candidates, sets)
        else:
            np.divide(candidates, norms[..., None], out=sets)

    np.matmul(bob, to_alice, out=for_alice)
    measure(to_alice_sets)
    take(to_alice_sets, alice_sets)
    for iterations in range(1, max_iterations + 1):
        np.matmul(alice, to_bob, out=for_bob)
        measure(to_bob_sets)
        take(to_bob_sets, bob_sets)
        np.matmul(bob, to_alice, out=for_alice)
        measure(to_alice_sets)
        values = np.add(linear, norms @ quarters, out=history[iterations])
        converged |= values - history[iterations - 1] < tol
        if converged.all() or iterations == max_iterations:
            break
        take(to_alice_sets, alice_sets)
    histories = history[1 : iterations + 1]
    histories.setflags(write=False)
    below = np.diff(history[: iterations + 1], axis=0) < tol
    first_converged = np.where(converged, below.argmax(axis=0) + 1, iterations)
    return bob_sets.transpose(1, 0, 2), converged, first_converged, histories


def _tangent_basis(b):
    # Two orthonormal vectors spanning the tangent plane of the sphere at the
    # unit vector b: b's cross product with the axis least aligned with it,
    # normalized, and b's cross product with that.
    x, y, z = b
    ax, ay, az = abs(x), abs(y), abs(z)
    if ax <= ay and ax <= az:
        e = (0.0, z, -y)
    elif ay <= az:
        e = (-z, 0.0, x)
    else:
        e = (y, -x, 0.0)
    n = (e[0] * e[0] + e[1] * e[1] + e[2] * e[2]) ** 0.5
    e = (e[0] / n, e[1] / n, e[2] / n)
    return e, (y * e[2] - z * e[1], z * e[0] - x * e[2], x * e[1] - y * e[0])


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _mat_vec(t, b):
    return _dot(t[0], b), _dot(t[1], b), _dot(t[2], b)


def _bloch_v(b0, b1, t, pull, lin):
    # V - (1/2 - tau) at Bob's Bloch vectors b0 and b1 (unit 3-tuples of
    # floats), for the correlation matrix t (a tuple of rows),
    # pull = 2 (1 - tau) r_A and lin = (1 - tau) r_B / 2:
    #
    #     lin.b0 + |u| / 4 + |v| / 4,  u = T (b0 + b1) + pull,  v = T (b0 - b1).
    #
    # Returns it with the Riemannian gradient (4 floats) and Hessian (4x4
    # lists) on (S^2)^2, in the tangent bases of _tangent_basis at b0 and b1
    # (four vectors e_i, b0's first), and the bases.  Moving b0 along
    # e_i moves u and v by T e_i; moving b1 moves u by T e_i and v by -T e_i.
    # For a norm |x| with such columns J_i, the gradient is x.J_i / |x| and the
    # Euclidean Hessian (J_i.J_j - (x.J_i)(x.J_j) / |x|^2) / |x|; the sphere
    # adds -(b.g) on b's diagonal, with g the Euclidean gradient in b.  A
    # vanishing norm is a kink at its minimum and adds no derivative.
    tb0, tb1 = _mat_vec(t, b0), _mat_vec(t, b1)
    u = (tb0[0] + tb1[0] + pull[0], tb0[1] + tb1[1] + pull[1], tb0[2] + tb1[2] + pull[2])
    v = (tb0[0] - tb1[0], tb0[1] - tb1[1], tb0[2] - tb1[2])
    ru, rv = _dot(u, u) ** 0.5, _dot(v, v) ** 0.5
    value = _dot(lin, b0) + 0.25 * (ru + rv)
    iu, iv = (1.0 / r if r > 0.0 else 0.0 for r in (ru, rv))
    bases = _tangent_basis(b0) + _tangent_basis(b1)
    te = [_mat_vec(t, e) for e in bases]
    pu = [_dot(u, j) * iu for j in te]
    pv = [_dot(v, j) * iv for j in te[:2]] + [-_dot(v, j) * iv for j in te[2:]]
    grad = [_dot(lin, bases[0]) + 0.25 * (pu[0] + pv[0]), _dot(lin, bases[1]) + 0.25 * (pu[1] + pv[1])]
    grad += [0.25 * (pu[2] + pv[2]), 0.25 * (pu[3] + pv[3])]
    normal = (
        _dot(lin, b0) + 0.25 * (_dot(u, tb0) * iu + _dot(v, tb0) * iv),
        0.25 * (_dot(u, tb1) * iu - _dot(v, tb1) * iv),
    )
    same, cross = 0.25 * (iu + iv), 0.25 * (iu - iv)
    au, av = [0.25 * iu * p for p in pu], [0.25 * iv * p for p in pv]
    hess = [
        [
            _dot(te[i], te[j]) * (same if (i < 2) == (j < 2) else cross) - au[i] * pu[j] - av[i] * pv[j]
            for j in range(4)
        ]
        for i in range(4)
    ]
    for i in range(4):
        hess[i][i] -= normal[i // 2]
    return value, grad, hess, bases


def _shifted_solve(hess, grad, mu):
    # x with (mu - H) x = g, by block elimination on H's 2x2 blocks
    # [[A, C], [C^T, D]]: P = mu - A, its Schur complement S = mu - D - C^T P^-1 C.
    # None unless mu - H is positive definite, that is unless P and S are.
    (a00, a01, c00, c01), (_, a11, c10, c11), (_, _, d00, d01), (_, _, _, d11) = hess
    p00, p01, p11 = mu - a00, -a01, mu - a11
    det_p = p00 * p11 - p01 * p01
    if not (p00 > 0.0 and det_p > 0.0):
        return None
    # W = P^-1 C and h = P^-1 g0.
    w00, w01 = (p11 * c00 - p01 * c10) / det_p, (p11 * c01 - p01 * c11) / det_p
    w10, w11 = (p00 * c10 - p01 * c00) / det_p, (p00 * c11 - p01 * c01) / det_p
    h0, h1 = (p11 * grad[0] - p01 * grad[1]) / det_p, (p00 * grad[1] - p01 * grad[0]) / det_p
    s00 = mu - d00 - (c00 * w00 + c10 * w10)
    s01 = -d01 - (c00 * w01 + c10 * w11)
    s11 = mu - d11 - (c01 * w01 + c11 * w11)
    det_s = s00 * s11 - s01 * s01
    if not (s00 > 0.0 and det_s > 0.0):
        return None
    # C enters mu - H with a minus sign, so x1 = S^-1 (g1 + C^T h), x0 = h + W x1.
    r0, r1 = grad[2] + c00 * h0 + c10 * h1, grad[3] + c01 * h0 + c11 * h1
    x2, x3 = (s11 * r0 - s01 * r1) / det_s, (s00 * r1 - s01 * r0) / det_s
    return [h0 + w00 * x2 + w01 * x3, h1 + w10 * x2 + w11 * x3, x2, x3]


def _ascent_step(grad, hess, shift):
    # The damped Newton step (mu - H)^-1 g, with mu = shift where H - shift is
    # negative definite, else H's top eigenvalue plus 1e-12 (at least 0) plus
    # shift.  The block solve serves the first case; the second, where H may
    # be singular to rounding, is solved in H's eigenbasis.
    step = _shifted_solve(hess, grad, shift)
    if step is None:
        lam, vec = np.linalg.eigh(hess)
        mu = max(float(lam[-1]) + 1e-12, 0.0) + shift
        step = (vec @ ((grad @ vec) / (mu - lam))).tolist()
    return step


def _retract(b, bases, d0, d1):
    # b moved by d0 e0 + d1 e1 in its tangent plane, back onto the sphere.
    e0, e1 = bases
    m = (b[0] + d0 * e0[0] + d1 * e1[0], b[1] + d0 * e0[1] + d1 * e1[1], b[2] + d0 * e0[2] + d1 * e1[2])
    n = _dot(m, m) ** 0.5
    return m[0] / n, m[1] / n, m[2] / n


def _bloch_newton(b0, b1, t, pull, lin):
    # Damped (Levenberg-Marquardt) Riemannian Newton ascent of V from Bob's
    # vectors b0, b1, by _newton_max's rules: a step is taken in the tangent
    # planes and renormalized, kept only if V rises, and the shift grows
    # tenfold on a refused step and shrinks tenfold on a kept one.  Stops once
    # the predicted rise is below 1e-17, or after _FINISH_MAX_STEPS steps.
    # Returns V - (1/2 - tau), the vectors, whether the predicted rise fell
    # below 1e-17, and the number of steps tried.
    current = _bloch_v(b0, b1, t, pull, lin)
    shift, steps = 0.0, 0
    while steps < _FINISH_MAX_STEPS:
        value, grad, hess, bases = current
        step = _ascent_step(grad, hess, shift)
        if 0.5 * (grad[0] * step[0] + grad[1] * step[1] + grad[2] * step[2] + grad[3] * step[3]) < 1e-17:
            return value, b0, b1, True, steps
        steps += 1
        n0, n1 = _retract(b0, bases[:2], *step[:2]), _retract(b1, bases[2:], *step[2:])
        trial = _bloch_v(n0, n1, t, pull, lin)
        if trial[0] > value:
            b0, b1, current, shift = n0, n1, trial, 0.1 * shift
        else:
            diagonal = abs(hess[0][0]) + abs(hess[1][1]) + abs(hess[2][2]) + abs(hess[3][3])
            shift = 10.0 * shift + 1e-3 * diagonal + 1e-12
    return current[0], b0, b1, False, steps


def _best_response(corr: np.ndarray, pull: np.ndarray, bob: np.ndarray) -> MeasurementSet:
    # Alice's best settings against Bob's (2, 3) vectors, the update the
    # see-saw kernel makes, for pull = 2 (1 - tau) r_A, with Bob's vectors as
    # one normalized set; where a candidate vanishes, her CHSH-optimal
    # setting is kept.
    alice = _renormalize_rows(np.array([corr @ (bob[0] + bob[1]) + pull, corr @ (bob[0] - bob[1])]), _ALICE_FALLBACK)
    return MeasurementSet.normalized([*alice, *bob])


@functools.lru_cache(maxsize=16)
def _restart_starts(rng_seed: int) -> tuple[np.ndarray, np.ndarray]:
    # Restart 0 is the CHSH-optimal start; the others are random measurement
    # sets drawn from streams derived from the seed.  Returned as Alice's and
    # Bob's (2, restarts, 3) settings, drawn once per seed and read-only,
    # since every caller shares them.
    children = np.random.SeedSequence(rng_seed).spawn(SeesawConfig.restarts - 1)
    sets = [MeasurementSet.chsh_optimal()]
    sets += [random_measurement_set(np.random.default_rng(child)) for child in children]
    settings = np.array([m.as_array() for m in sets]).transpose(1, 0, 2)
    arrays = (settings[:2].copy(), settings[2:].copy())
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _measured_maximum(rho: TwoQubitState, tau: float, gamma: float, value: float, theta, rotation=None):
    # The measurements at max F, ``value`` at the Schmidt angle ``gamma``, and
    # their quantum value, which must reproduce it to 1e-12: Bob's vectors in
    # the x-z plane at the polar angles ``theta``, turned by ``rotation``
    # where given, and Alice's best response to them, the update the see-saw
    # kernel makes.
    t0, t1 = theta
    bob = np.array([[math.sin(t0), 0.0, math.cos(t0)], [math.sin(t1), 0.0, math.cos(t1)]])
    if rotation is not None:
        bob = bob @ rotation.T
    r_alice, _, corr = rho.bloch
    measurements = _best_response(corr, 2.0 * (1.0 - tau) * r_alice, bob)
    s_q = quantum_value(rho, measurements, tau).value
    if abs(s_q - value) > 1e-12:
        raise NumericFailure(
            f"quantum value {s_q!r} at the maximizing measurements differs from max F {value!r} "
            f"at gamma {gamma!r}, tilt {tau!r}"
        )
    return measurements, s_q


def _schmidt_route(rho: TwoQubitState, tau: float) -> SeesawResult:
    # A pure state psi is (U (x) W)(cos g |00> + sin g |11>), with
    # U diag(cos g, sin g) W^T the SVD of its 2x2 coefficient matrix; the
    # column of rho with the largest diagonal entry is psi up to a phase and
    # a scale, which neither the angle nor the vectors see.  max F at g is
    # rated from 4 starts, and Bob's maximizing vectors are turned by the
    # rotation R_ij = tr(s_i W s_j W^+) / 2 that W makes of Bloch vectors.
    matrix = rho.matrix
    column = matrix[:, int(np.argmax(matrix.diagonal().real))]
    _, sigma, vh = np.linalg.svd(column.reshape(2, 2))
    gamma = math.atan2(sigma[1], sigma[0])
    values, thetas, steps = _schmidt_maxima([gamma], tau)
    turned = vh.T @ _PAULIS @ vh.conj()
    rotation = 0.5 * np.einsum("iab,jba->ij", _PAULIS, turned).real
    measurements, value = _measured_maximum(rho, tau, gamma, values[0], thetas[0], rotation)
    # The route's fields, in order: converged, iterations, batch_iterations,
    # unconverged, finished, finish_steps and histories (SeesawResult).
    return SeesawResult(BellValue(value, tau), measurements, True, 0, 0, 0, (), steps, _NO_HISTORIES)


def seesaw_max_violation(rho: TwoQubitState, tau: float, cfg: SeesawConfig = DEFAULT_CONFIG) -> SeesawResult:
    """The maximal violation of a fixed state: max F if pure, else a see-saw batch, then Newton.

    A state whose purity (1 + |r_A|^2 + |r_B|^2 + |T|^2) / 4 is within 1e-13
    of 1 is pure: its maximal violation, invariant under local unitaries, is
    max F at its Schmidt angle atan2(s2, s1), from the singular values
    s1 >= s2 of its 2x2 coefficient matrix, rated to rounding from 4 starts
    (:mod:`bellbound.schmidt`).  Bob's maximizing vectors are turned by the
    rotation his local unitary makes of Bloch vectors, and Alice takes her
    best response to them.  Their quantum value must reproduce max F to
    1e-12, or :class:`~bellbound.errors.NumericFailure` is raised; it is the
    value returned.  No batch runs, and ``cfg`` plays no part.

    For any other state, restart 0 starts from the CHSH-optimal angles; the
    other 7 draw random Bloch vectors from streams derived from
    ``cfg.rng_seed``, so results are reproducible.  Alice's best response to
    Bob's settings is closed form, which leaves the value a function
    V(b0, b1) of Bob's two Bloch vectors (module docstring).  All restarts
    iterate in one batch until the V of each has risen by less than 1e-6 in
    an iteration, or for 500 iterations, and damped Riemannian Newton on V
    finishes the leading restart (the one with the highest V at hand-off)
    and every restart that was still rising by 1e-6 or more at the cap,
    until its predicted rise is below 1e-17 (or after 200 steps).  The best
    finish is returned, with Alice's best response to its vectors.
    """
    tau = coefficients(tau).tau  # validates the tilt range
    r_alice, r_bob, corr = rho.bloch
    if 1.0 - 0.25 * (1.0 + r_alice @ r_alice + r_bob @ r_bob + np.vdot(corr, corr)) <= _PURITY_TOL:
        return _schmidt_route(rho, tau)
    return _batch_max_violation(rho, tau, cfg)


def _batch_max_violation(rho: TwoQubitState, tau: float, cfg: SeesawConfig = DEFAULT_CONFIG) -> SeesawResult:
    # The see-saw batch and its Newton finish (seesaw_max_violation's
    # docstring) on any state, pure ones too, at a float tilt in [1, 3/2):
    # the tests keep it as a search independent of the Schmidt route.
    r_alice, r_bob, corr = rho.bloch
    bob, handed_off, iteration_counts, histories = _seesaw(
        r_alice, r_bob, corr, tau, _restart_starts(cfg.rng_seed), _HANDOFF_TOL
    )
    pull = 2.0 * (1.0 - tau) * r_alice
    terms = (
        tuple(tuple(row) for row in corr.tolist()),
        tuple(pull.tolist()),
        tuple((0.5 * (1.0 - tau) * r_bob).tolist()),
    )
    # The leader is the restart with the highest V at hand-off; on a tie of
    # finishes, max() keeps the first, the lowest restart index.
    finished_restarts = tuple(sorted({int(np.argmax(histories[-1])), *np.flatnonzero(~handed_off).tolist()}))
    finishes = [
        (r, *_bloch_newton(tuple(bob[0, r].tolist()), tuple(bob[1, r].tolist()), *terms)) for r in finished_restarts
    ]
    r, value, b0, b1, finished, _ = max(finishes, key=lambda finish: finish[1])
    return SeesawResult(
        value=BellValue(value=0.5 - tau + value, tau=tau),
        measurements=_best_response(corr, pull, np.array([b0, b1])),
        converged=finished,
        iterations=int(iteration_counts[r]),
        batch_iterations=len(histories),
        unconverged=int(np.count_nonzero(~handed_off)),
        finished=finished_restarts,
        finish_steps=sum(finish[5] for finish in finishes),
        histories=histories,
    )
