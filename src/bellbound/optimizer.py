"""Maximal-violation search over product projective measurements.

Three layers:

* :func:`seesaw_max_violation` -- alternating ascent for any state.  With one
  party fixed, the value is affine in each of the other party's outcome-0
  projectors, so the optimal rank-1 update for a setting is the projector
  onto the top eigenvector of a 2x2 effective operator (obtained by
  contracting the state with the fixed party's operators and the tilted
  coefficients).  Ascent is monotone because each update maximizes over a
  family containing the current projector.  Every restart runs in one batch.
* :func:`global_max_violation` -- outer scalar search over the Schmidt angle:
  a 64-point coarse grid guards against multiple local maxima, then a
  golden section refines to 1e-8.
* :func:`critical_gamma` -- for a tilt at which the maximally entangled state
  no longer violates, a bisection above the arg-max angle locates the
  largest Schmidt angle that still violates; its concurrence is the numeric
  upper bound on the concurrence of any violating state.  The optimum the
  search started from is returned with it.

Neither Schmidt-angle search runs the see-saw.  For the state
cos(g)|00> + sin(g)|11>, write c = cos 2g and s = sin 2g.  Alice's best
response is the norm of her coefficient vector, and Bob's two Bloch vectors
enter only through their polar angles t0, t1 and the difference of their
azimuths, through X = 2 s^2 sin t0 sin t1 cos(dphi).  The value is concave in
X, so the exact maximum over all rank-1 projective measurements is the
maximum over (t0, t1) of

    F = 1/2 - tau + (1 - tau) c cos(t0) / 2 + sqrt(A + X*) / 4 + sqrt(B - X*) / 4

with A = s^2 (sin^2 t0 + sin^2 t1) + (cos t0 + cos t1 + 2 (1 - tau) c)^2,
B = s^2 (sin^2 t0 + sin^2 t1) + (cos t0 - cos t1)^2 and
X* = clip((B - A)/2, +/- 2 s^2 sin t0 sin t1).  Both searches rate each
angle by max F, found to rounding by damped Newton from a coarse grid of
(t0, t1), not by the see-saw's lower bound.  Each search logs its tilt, the
angles it rated and its Newton steps at DEBUG level on the ``"bellbound"``
logger, which is silent unless the application configures logging (the
CLI's ``--log-level``); the critical-angle search adds its final bracket.

:func:`in_plane_grid_max_violation` is an independent grid oracle for
Schmidt-angle states, and :func:`pure_state_value_cap` /
:func:`max_value_cap` give the closed-form analytic caps the search results
are checked against.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .bell_model import (
    TAU_MAXENT_CUTOFF,
    TAU_TRIVIAL,
    BellValue,
    coefficients,
    quantum_value,
)
from .errors import NumericFailure
from .quantum_core import (
    BlochVector,
    MeasurementSet,
    SchmidtState,
    TwoQubitState,
    maximally_entangled_state,
    random_bloch_vector,
    random_measurement_set,
    schmidt_state,
)

VIOLATION_THRESHOLD = 1e-10
GAMMA_BISECTION_TOL = 1e-8
COARSE_GAMMA_POINTS = 64

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Starts of the maximizer of F: t0 at half steps in (0, pi), t1 at whole
# steps round the circle, so that no start has t1 = +/- t0, where a norm of
# the in-plane form vanishes.  Newton runs from the best _NEWTON_STARTS of
# them at each angle; the grid is rated _ANGLE_CHUNK angles at a time to keep
# its temporaries small.
_GRID_STEPS = 12
_GRID_T0, _GRID_T1 = (
    g.ravel().tolist()
    for g in np.meshgrid(
        (np.arange(_GRID_STEPS) + 0.5) * (math.pi / _GRID_STEPS),
        np.arange(2 * _GRID_STEPS) * (math.pi / _GRID_STEPS),
        indexing="ij",
    )
)
_GRID_TRIG = tuple(f(np.array(t)) for t in (_GRID_T0, _GRID_T1) for f in (np.sin, np.cos))
_NEWTON_STARTS = 4
_NEWTON_MAX_STEPS = 60
_ANGLE_CHUNK = 8

logger = logging.getLogger("bellbound")


@dataclass(frozen=True)
class SeesawConfig:
    """Restart count, iteration cap, convergence tolerance, and RNG seed."""

    restarts: int = 8
    max_iterations: int = 500
    convergence_tol: float = 1e-11
    rng_seed: int = 2071

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.convergence_tol <= 0.0:
            raise ValueError("convergence_tol must be positive")


DEFAULT_CONFIG = SeesawConfig()


@dataclass(frozen=True)
class SeesawResult:
    """Best value over restarts, the measurements achieving it, and diagnostics.

    ``converged`` refers to the best restart; ``histories`` (present when the
    search is run with ``keep_history=True``) carries the per-iteration value
    sequence of every restart, each of which is nondecreasing.
    """

    value: BellValue
    measurements: MeasurementSet
    converged: bool
    iterations: int
    histories: tuple[tuple[float, ...], ...] | None = None


@dataclass(frozen=True)
class OptimumPoint:
    """Arg-max Schmidt angle, its violation, and the optimizing measurements."""

    tau: float
    gamma_star: float
    s_q: float
    measurements: MeasurementSet


@dataclass(frozen=True)
class CriticalCurvePoint:
    """Largest violating Schmidt angle at a tilt, and its concurrence sin(2 gamma_c).

    ``optimum`` is the maximal violation at the same tilt, from which the
    search started.
    """

    tau: float
    gamma_c: float
    c_cr: float
    optimum: OptimumPoint

    @property
    def s_at_peak(self) -> float:
        return self.optimum.s_q


_PAULIS = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)


def _pauli_decomposition(rho: np.ndarray):
    # Local Bloch vectors and the 3x3 correlation matrix; they carry everything
    # the functional sees of the state under product projective measurements.
    r = rho.reshape(2, 2, 2, 2)
    rho_a = np.einsum("ikjk->ij", r)
    rho_b = np.einsum("ikil->kl", r)
    r_alice = np.real(np.einsum("ij,aji->a", rho_a, _PAULIS))
    r_bob = np.real(np.einsum("kl,blk->b", rho_b, _PAULIS))
    corr = np.real(np.einsum("ikjl,aji,blk->ab", r, _PAULIS, _PAULIS))
    return r_alice, r_bob, corr


def _renormalize_rows(candidate: np.ndarray, current: np.ndarray) -> np.ndarray:
    # Best rank-1 update per restart: align with the effective operator's Bloch
    # part.  A vanishing part leaves the objective flat, so the previous
    # direction is kept (deterministic tie-breaking); a zero top eigenvalue
    # still assigns its eigenvector to the outcome-0 projector.  The norm is
    # the plain sum of squares, as np.linalg.norm forms it, without that
    # call's overhead (einsum may fuse multiply-adds and round differently).
    norms = np.sqrt(np.add.reduce(candidate * candidate, axis=-1))
    degenerate = norms < 1e-14
    if not degenerate.any():
        return candidate / norms[..., None]
    out = candidate / np.where(degenerate, 1.0, norms)[..., None]
    out[degenerate] = current[degenerate]
    return out


def _seesaw_batch(r_alice, r_bob, corr, tau, starts, max_iterations, tol, keep_history):
    # Alternating ascent at one tilt for S states, all stopping together:
    # ``r_alice`` and ``r_bob`` are (S, 3), ``corr`` is (S, 3, 3), and the
    # four (restarts, 3) start arrays are shared by every state, so rows are
    # laid out (S, restarts, 3).  A restart is converged once its value
    # improves by less than ``tol``; the batch stops at the iteration where
    # its last restart converges, or at ``max_iterations``.  Returns the final
    # values (S, restarts), the four (S, restarts, 3) measurement arrays, the
    # converged flags, the iteration at which each restart first converged
    # (or stopped), and, with ``keep_history``, each state's list of
    # per-iteration value rows.
    states = corr.shape[0]
    a0, a1, b0, b1 = (np.repeat(np.asarray(s, dtype=float)[None], states, axis=0) for s in starts)
    histories: list[list[np.ndarray]] = [[] for _ in range(states)]
    previous = np.full(a0.shape[:2], -np.inf)
    converged = np.zeros(a0.shape[:2], dtype=bool)
    first_converged = np.zeros(a0.shape[:2], dtype=int)
    corr_t = np.swapaxes(corr, 1, 2)
    alice_col = r_alice[:, :, None]
    bob_col = r_bob[:, :, None]
    tilt_pull_a = (2.0 * (1.0 - tau) * r_alice)[:, None, :]
    tilt_pull_b = (2.0 * (1.0 - tau) * r_bob)[:, None, :]
    # T b_+ and T b_- feed both the value line and the next update of Alice.
    corr_bp = (b0 + b1) @ corr_t
    corr_bm = (b0 - b1) @ corr_t
    for iterations in range(1, max_iterations + 1):
        a0 = _renormalize_rows(corr_bp + tilt_pull_a, a0)
        a1 = _renormalize_rows(corr_bm, a1)
        b0 = _renormalize_rows((a0 + a1) @ corr + tilt_pull_b, b0)
        b1 = _renormalize_rows((a0 - a1) @ corr, b1)
        bp = b0 + b1
        bm = b0 - b1
        corr_bp = bp @ corr_t
        corr_bm = bm @ corr_t
        a_dot = (a0 @ alice_col)[..., 0]
        b_dot = (b0 @ bob_col)[..., 0]
        # Term by term, in this order, so that results stay bit for bit those
        # of earlier releases.
        values = 0.25 * (
            2.0
            + 2.0 * a_dot
            + (bp @ bob_col)[..., 0]
            + np.einsum("srk,srk->sr", a0, corr_bp)
            + (bm @ bob_col)[..., 0]
            + np.einsum("srk,srk->sr", a1, corr_bm)
        ) - tau * (1.0 + 0.5 * (a_dot + b_dot))
        if keep_history:
            for state, row in enumerate(values):
                histories[state].append(row)
        newly = ~converged & (values - previous < tol)
        first_converged[newly] = iterations
        converged |= newly
        if converged.all() or iterations == max_iterations:
            first_converged[~converged] = iterations
            break
        previous = values
    return values, (a0, a1, b0, b1), converged, first_converged, histories


def _chsh_start() -> tuple[np.ndarray, ...]:
    inv = 1.0 / math.sqrt(2.0)
    return (
        np.array([0.0, 0.0, 1.0]),
        np.array([1.0, 0.0, 0.0]),
        np.array([inv, 0.0, inv]),
        np.array([-inv, 0.0, inv]),
    )


def _random_start(rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    return tuple(random_bloch_vector(rng).as_array() for _ in range(4))


@functools.lru_cache(maxsize=16)
def _restart_starts(cfg: SeesawConfig) -> tuple[np.ndarray, ...]:
    # Restart 0 is the CHSH-optimal start; the others are drawn from streams
    # derived from the seed.  Returned as four (restarts, 3) arrays, drawn
    # once per config and read-only, since every caller shares them.
    starts = [_chsh_start()]
    if cfg.restarts > 1:
        for child in np.random.SeedSequence(cfg.rng_seed).spawn(cfg.restarts - 1):
            starts.append(_random_start(np.random.default_rng(child)))
    arrays = tuple(np.array([s[k] for s in starts]) for k in range(4))
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _measurement_set_from(vectors) -> MeasurementSet:
    units = [BlochVector.normalized(v) for v in vectors]
    return MeasurementSet(alice=(units[0], units[1]), bob=(units[2], units[3]))


def seesaw_max_violation(
    rho: TwoQubitState,
    tau: float,
    cfg: SeesawConfig = DEFAULT_CONFIG,
    *,
    keep_history: bool = False,
) -> SeesawResult:
    """Alternating ascent toward the maximal violation of a fixed state.

    Restart 0 starts from the CHSH-optimal angles; the remaining restarts draw
    random Bloch vectors from streams derived from ``cfg.rng_seed``, so results
    are reproducible.  All restarts iterate in one batch; a restart is
    converged once its value improves by less than ``cfg.convergence_tol``,
    and the best restart is returned (flagged unconverged if it exhausted
    ``cfg.max_iterations``).
    """
    coefficients(tau)  # validates the tilt range
    r_alice, r_bob, corr = _pauli_decomposition(rho.matrix)
    values, vectors, converged, iteration_counts, history = _seesaw_batch(
        r_alice[None],
        r_bob[None],
        corr[None],
        float(tau),
        _restart_starts(cfg),
        cfg.max_iterations,
        cfg.convergence_tol,
        keep_history,
    )
    best = int(np.argmax(values[0]))
    histories = None
    if keep_history:
        stacked = np.array(history[0])
        histories = tuple(tuple(stacked[:, r]) for r in range(cfg.restarts))
    return SeesawResult(
        value=BellValue(value=float(values[0, best]), tau=float(tau)),
        measurements=_measurement_set_from([v[0, best] for v in vectors]),
        converged=bool(converged[0, best]),
        iterations=int(iteration_counts[0, best]),
        histories=histories,
    )


def _in_plane_f(sin0, cos0, sin1, cos1, s, k, derivatives=False):
    # F - (1/2 - tau) with Bob's vectors in the x-z plane at polar angles t0
    # and t1 round the whole circle, from their sines and cosines (arrays, or
    # floats with ``derivatives``), and k = (1 - tau) c.  t1 in (pi, 2 pi) is
    # the polar angle 2 pi - t1 at azimuth difference pi, so X is at an end
    # of its clip range.  That is where the maximum of F lies: between the
    # ends F is sqrt((A + B)/2)/2 plus terms of t0, and (A + B)/2 is convex in
    # cos t1, so F has no local maximum in t1 there; at sin t0 sin t1 = 0 the
    # range is {0}, one of its own ends.  With ``derivatives`` the
    # gradient and the Hessian (h00, h01, h11) come too.  Each norm is that
    # of w = (s (sin t0 +/- sin t1), cos t0 +/- cos t1 [+ 2k]); the second
    # derivative of (s sin t, cos t) is minus itself.
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


def _newton_max(t0: float, t1: float, s: float, k: float):
    # Damped (Levenberg-Marquardt) Newton ascent of the in-plane form from one
    # start: the Hessian is shifted until negative definite, a step is kept
    # only if F rises, and the shift grows tenfold on a refused step and
    # shrinks tenfold on a kept one.  Stops once the predicted rise is below
    # 1e-17.  Returns the value, the angles and the steps taken.
    current = _in_plane_f(math.sin(t0), math.cos(t0), math.sin(t1), math.cos(t1), s, k, True)
    shift, steps = 0.0, 0
    while steps < _NEWTON_MAX_STEPS:
        value, g0, g1, h00, h01, h11 = current
        mu = max(0.5 * (h00 + h11) + math.hypot(0.5 * (h00 - h11), h01) + 1e-12, 0.0) + shift
        a, d = h00 - mu, h11 - mu
        det = a * d - h01 * h01
        d0 = (h01 * g1 - d * g0) / det
        d1 = (h01 * g0 - a * g1) / det
        if 0.5 * (g0 * d0 + g1 * d1) < 1e-17:
            break
        steps += 1
        n0, n1 = t0 + d0, t1 + d1
        trial = _in_plane_f(math.sin(n0), math.cos(n0), math.sin(n1), math.cos(n1), s, k, True)
        if trial[0] > value:
            t0, t1, current, shift = n0, n1, trial, 0.1 * shift
        else:
            shift = 10.0 * shift + 1e-3 * (abs(h00) + abs(h11)) + 1e-12
    return current[0], t0, t1, steps


def _schmidt_maxima(gammas, tau: float):
    # max F at each Schmidt angle, the maximizing (t0, t1) of the in-plane
    # form, and the Newton steps taken: the grid is rated a chunk of angles
    # at a time, and Newton runs from each angle's best starts.
    values, thetas, steps = [], [], 0
    for lo in range(0, len(gammas), _ANGLE_CHUNK):
        chunk = [float(g) for g in gammas[lo : lo + _ANGLE_CHUNK]]
        s = [math.sin(2.0 * g) for g in chunk]
        k = [(1.0 - tau) * math.cos(2.0 * g) for g in chunk]
        grid = _in_plane_f(*_GRID_TRIG, np.array(s)[:, None], np.array(k)[:, None])
        for row, s_row, k_row in zip(np.argsort(grid, axis=1)[:, -_NEWTON_STARTS:], s, k):
            runs = [_newton_max(_GRID_T0[i], _GRID_T1[i], s_row, k_row) for i in row]
            value, t0, t1, _ = max(runs)
            values.append(0.5 - tau + value)
            thetas.append((t0, t1))
            steps += sum(run[3] for run in runs)
    return np.array(values), thetas, steps


class _Rater:
    # max F for one search at one tilt, counting the angles rated and the
    # Newton steps for the search's log line.
    def __init__(self, tau: float):
        self.tau, self.angles, self.steps = tau, 0, 0

    def __call__(self, gammas):
        values, thetas, steps = _schmidt_maxima(gammas, self.tau)
        self.angles += len(values)
        self.steps += steps
        return values, thetas


def _golden_section_max(f, lo: float, hi: float, tol: float) -> float:
    # Golden-section search for a maximum of f on [lo, hi], to width tol.
    c = hi - _INV_GOLDEN * (hi - lo)
    d = lo + _INV_GOLDEN * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_GOLDEN * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_GOLDEN * (hi - lo)
            fd = f(d)
    return 0.5 * (lo + hi)


def _optimum_point(gamma: float, tau: float, rate: _Rater) -> OptimumPoint:
    # The measurements at max F: Bob in the x-z plane at the maximizing
    # angles, Alice's best response to him, the update the see-saw kernel
    # makes.  Their quantum value must reproduce max F.
    values, thetas = rate([gamma])
    t0, t1 = thetas[0]
    rho = schmidt_state(gamma)
    r_alice, _, corr = _pauli_decomposition(rho.matrix)
    bob = np.array([[math.sin(t0), 0.0, math.cos(t0)], [math.sin(t1), 0.0, math.cos(t1)]])
    candidates = np.array([corr @ (bob[0] + bob[1]) + 2.0 * (1.0 - tau) * r_alice, corr @ (bob[0] - bob[1])])
    alice = _renormalize_rows(candidates, np.array(_chsh_start()[:2]))
    measurements = _measurement_set_from([*alice, *bob])
    s_q = quantum_value(rho, measurements, tau).value
    if abs(s_q - values[0]) > 1e-12:
        raise NumericFailure(
            f"quantum value {s_q!r} at the maximizing measurements differs from max F {values[0]!r} "
            f"at gamma {gamma!r}, tilt {tau!r}"
        )
    return OptimumPoint(tau=tau, gamma_star=gamma, s_q=s_q, measurements=measurements)


def global_max_violation(tau: float) -> OptimumPoint:
    """Maximal violation over all two-qubit states at a given tilt.

    By convexity the optimum is attained on pure states, parametrized in the
    Schmidt basis by a single angle.  Each angle is rated by the exact
    maximum over measurements, max F (see the module docstring).  The scan
    assumes no unimodality: a coarse 64-point grid first, then a golden
    section to 1e-8 in the angle.  ``s_q`` is the quantum value at the
    returned measurements, which reproduces max F to 1e-12 or the search
    raises :class:`~bellbound.errors.NumericFailure`.
    """
    coefficients(tau)
    t = float(tau)
    rate = _Rater(t)
    grid = np.linspace(0.0, math.pi / 4, COARSE_GAMMA_POINTS)
    peak = int(np.argmax(rate(grid)[0]))
    lo = float(grid[max(peak - 1, 0)])
    hi = float(grid[min(peak + 1, COARSE_GAMMA_POINTS - 1)])
    gamma_star = _golden_section_max(lambda g: rate([g])[0][0], lo, hi, 1e-8)
    optimum = _optimum_point(gamma_star, t, rate)
    logger.debug("Schmidt optimum at tau %.10g: %d angles rated, %d Newton steps", t, rate.angles, rate.steps)
    return optimum


def critical_gamma(tau: float) -> CriticalCurvePoint:
    """Largest Schmidt angle whose state still violates at tilt ``tau``.

    Defined for tilts from the maximally-entangled cutoff up to (not including)
    3/2.  Bisects, to 1e-8 in the angle, for the violation/no-violation
    crossing above the arg-max angle of :func:`global_max_violation`, with
    "violates" meaning max F above 1e-10 (see the module docstring).  That
    optimum is returned too.
    """
    t = float(tau)
    if not (TAU_MAXENT_CUTOFF - 1e-12 <= t < TAU_TRIVIAL):
        raise ValueError(
            f"critical angle is defined for tilts in [{TAU_MAXENT_CUTOFF:.10f}, 1.5), got {tau!r}"
        )
    optimum = global_max_violation(t)
    if optimum.s_q <= VIOLATION_THRESHOLD:
        raise NumericFailure(
            f"no violating Schmidt angle found at tilt {t!r} (peak value {optimum.s_q:.3e} "
            f"at gamma {optimum.gamma_star:.6f}); the search is expected to violate below 3/2"
        )
    # pi/4 never violates on this domain: its cap, (1 - t) + (sqrt 2 - 1)/2,
    # is at most 1e-12 for t >= cutoff - 1e-12, far below the threshold.  So
    # [gamma_star, pi/4] brackets the crossing.
    rate = _Rater(t)
    lo, hi = optimum.gamma_star, math.pi / 4
    f_lo, f_hi = optimum.s_q, rate([hi])[0][0]
    while hi - lo > GAMMA_BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        value = rate([mid])[0][0]
        if value > VIOLATION_THRESHOLD:
            lo, f_lo = mid, value
        else:
            hi, f_hi = mid, value
    logger.debug(
        "critical angle at tau %.10g: %d angles rated, %d Newton steps, bracket [%.12g, %.12g] "
        "with max F %.6e and %.6e",
        t, rate.angles, rate.steps, lo, hi, f_lo, f_hi,
    )
    return CriticalCurvePoint(tau=t, gamma_c=lo, c_cr=math.sin(2.0 * lo), optimum=optimum)


@dataclass(frozen=True)
class CutoffCheck:
    """One tilt of the maximally-entangled cutoff verification."""

    tau: float
    max_violation: float
    identity_residual: float
    passed: bool


@dataclass(frozen=True)
class CutoffReport:
    checks: tuple[CutoffCheck, ...]
    violation_tol: float
    identity_tol: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[CutoffCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)


def verify_maximally_entangled_cutoff(
    tau_grid,
    cfg: SeesawConfig = DEFAULT_CONFIG,
    *,
    measurement_sets_per_tau: int = 100,
    violation_tol: float = 1e-9,
    identity_tol: float = 1e-12,
) -> CutoffReport:
    """Numeric check that the maximally entangled state cannot violate past the cutoff.

    For each tilt in the grid (which must lie in [cutoff, 3/2)) two facts are
    verified: (i) the see-saw on the maximally entangled state never exceeds
    ``violation_tol``; (ii) because that state's marginals under rank-1
    projective measurements are exactly 1/2, its tilted value equals its
    untilted value minus (tau - 1) -- checked on random measurement sets to
    ``identity_tol``.
    """
    rho = maximally_entangled_state()
    checks = []
    for index, tau in enumerate(np.asarray(tau_grid, dtype=float)):
        t = float(tau)
        if not (TAU_MAXENT_CUTOFF - 1e-12 <= t < TAU_TRIVIAL):
            raise ValueError(f"grid tilt {t!r} outside [{TAU_MAXENT_CUTOFF:.10f}, 1.5)")
        result = seesaw_max_violation(rho, t, cfg)
        rng = np.random.default_rng([cfg.rng_seed, index])
        residual = 0.0
        for _ in range(measurement_sets_per_tau):
            m = random_measurement_set(rng)
            tilted = quantum_value(rho, m, t).value
            untilted = quantum_value(rho, m, 1.0).value
            residual = max(residual, abs(tilted - (untilted - (t - 1.0))))
        passed = result.value.value <= violation_tol and residual <= identity_tol
        checks.append(
            CutoffCheck(
                tau=t,
                max_violation=result.value.value,
                identity_residual=residual,
                passed=passed,
            )
        )
    return CutoffReport(tuple(checks), violation_tol, identity_tol)


def pure_state_value_cap(gamma: float, tau: float) -> float:
    """Closed-form cap on the maximal violation by the Schmidt-angle state.

    max{0, 2 (1 - tau) sin^2(gamma) + (sqrt(1 + sin^2(2 gamma)) - 1) / 2}: the
    second term caps the untilted part, the first is the best case for the
    tilt penalty (both marginals at their minimum (1 - cos 2 gamma)/2).
    """
    s2 = math.sin(2.0 * gamma)
    return max(0.0, 2.0 * (1.0 - tau) * math.sin(gamma) ** 2 + (math.sqrt(1.0 + s2 * s2) - 1.0) / 2.0)


def max_value_cap(tau: float) -> float:
    """Largest value of :func:`pure_state_value_cap` over Schmidt angles.

    The stationarity condition has the closed-form solution
    cos(2 gamma) = 2 (tau - 1) sqrt(2 / (1 + 4 (tau - 1)^2)), clipped to 1.
    """
    t = float(tau) - 1.0
    c = min(1.0, 2.0 * t * math.sqrt(2.0 / (1.0 + 4.0 * t * t)))
    return pure_state_value_cap(0.5 * math.acos(c), tau)


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
    SchmidtState(gamma)  # validates the angle range
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
