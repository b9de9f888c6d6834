"""Maximal-violation search over product projective measurements.

Three layers:

* :func:`seesaw_max_violation` -- alternating ascent for any state.  With one
  party fixed, the value is affine in each of the other party's outcome-0
  projectors, so the optimal rank-1 update for a setting is the projector
  onto the top eigenvector of a 2x2 effective operator (obtained by
  contracting the state with the fixed party's operators and the tilted
  coefficients).  Ascent is monotone because each update maximizes over a
  family containing the current projector.  Its 8 restarts run in one batch,
  with each party's two settings stacked into one array, so that a half-step
  is one matrix product and one renormalization for all of them; the batch
  stops once every restart has converged, or after 500 iterations.  Only the
  random starts are settable, through :class:`SeesawConfig`'s seed.
* :func:`global_max_violation` -- outer scalar search over the Schmidt angle:
  a 64-point coarse grid guards against multiple local maxima, then the peak
  is bracketed inside the grid's best cell.  The grid is rated in decreasing
  order of :func:`pure_state_value_cap`, skipping every angle whose cap
  cannot reach the best value already rated.
* :func:`critical_gamma` -- for a tilt at which the maximally entangled state
  no longer violates, an angle above the largest Schmidt angle that still
  violates (max F >= 0), rated not to violate; its concurrence is the numeric
  upper bound on the concurrence of any violating state.  The optimum the
  search started from is returned with it.

Each search reports the bracket it closes.  A safeguarded root finder closes
a bracket on the root of a falling function of the angle: the slope of max F
for the optimum's peak, max F itself for the crossing.  It takes Newton steps
where the function has a slope and secant steps otherwise, with regula falsi
or the midpoint as the fallback, and aims each step a few noise floors past
its root, so that both ends are certain of their sign.  The optimum is the
secant root of its slope bracket; the critical angle is the crossing
bracket's non-violating end.

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
(t0, t1), not by the see-saw's lower bound.  The slope of max F in the angle
comes from the envelope theorem at the maximizer a rating returns, polished
by Newton steps on the gradient of the in-plane form, at no extra rating.
Each search logs its tilt, the angles it rated and the Newton steps of their
maximizations at DEBUG level on the ``"bellbound"`` logger, which is silent
unless the application configures logging (the CLI's ``--log-level``); the
optimum search adds its peak bracket with the slopes at both ends ("unknown"
for 0, unrated, or "none" for the bracket, where the grid's peak is taken),
the critical-angle search its bracket with max F at both ends (or "none" for
pi/4, unrated).

:func:`pure_state_value_cap` / :func:`max_value_cap` give the closed-form
analytic caps the search results are checked against.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .bell_model import (
    TAU_MAXENT_CUTOFF,
    TAU_TRIVIAL,
    BellValue,
    coefficients,
    quantum_value,
)
from .errors import NoViolationFound, NumericFailure
from .quantum_core import (
    BlochVector,
    MeasurementSet,
    TwoQubitState,
    _pauli_decomposition,
    random_measurement_set,
    schmidt_state,
)

# critical_gamma brackets no crossing at a tilt whose optimum's max F is at
# most this, and starts its search where the analytic cap falls to it.
VIOLATION_THRESHOLD = 1e-10
# The width at which a plain bisection for the critical angle stops; no
# search here bisects, but the benchmark's tolerances and the tests' oracle
# read it.
GAMMA_BISECTION_TOL = 1e-8
COARSE_GAMMA_POINTS = 64

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
# max F never exceeds pure_state_value_cap by more than this (a tested
# contract), so the coarse scan skips an angle whose cap plus this is below
# the best max F already rated: it cannot be the scan's peak.
_CAP_TOLERANCE = 1e-12
# max F is rated to rounding: over 1e-8-wide windows its ratings scatter about
# a smooth curve by at most 2.3e-16 (measured at tilts from 1.21 to 1.4997).
# So a rating is certain of its sign only beyond this allowance: the
# critical-angle search counts an angle as non-violating only below minus it.
_MAX_F_ROUNDING = 1e-15
# The envelope slope of max F, read at a maximizer polished to rounding (see
# _envelope_slope), is fixed to about this, absolute: slopes at 21 angles
# within 1e-7 of the peak, and 1e-3 to either side, scatter about a parabola
# by at most 3.1e-16 (measured at 100 tilts from 1 to 1.4999999, away from the
# tilt-1 kink at pi/4, where no bracket is closed).  So a slope beyond this
# tells on which side of the peak its angle lies.
_SLOPE_FLOOR = 2e-15
# The bracket closer aims each step this many noise floors of its function
# past the step's root, so that the next value is certain of its sign and the
# bracket closes from both sides; it stops once the bracket is four such aims
# wide, or after _CLOSE_STEPS values.  The most a bracket has needed is 25
# values: at tilt 1.4999999 the slope is cubic in the angle down to the peak
# at 2e-7, so secant steps from the grid's 0.0125 close in on it by a factor
# of about 0.6 each.
_AIM_FLOORS = 8.0
_CLOSE_STEPS = 32

logger = logging.getLogger("bellbound")


@dataclass(frozen=True)
class SeesawConfig:
    """The see-saw's RNG seed; its restart count, iteration cap and tolerance are fixed."""

    restarts: ClassVar[int] = 8
    max_iterations: ClassVar[int] = 500
    convergence_tol: ClassVar[float] = 1e-11
    rng_seed: int = 2071


DEFAULT_CONFIG = SeesawConfig()


@dataclass(frozen=True)
class SeesawResult:
    """Best value over restarts, the measurements achieving it, and diagnostics.

    ``converged`` and ``iterations`` refer to the best restart;
    ``batch_iterations`` is the iteration at which the batch of restarts
    stopped, and ``unconverged`` the number of restarts that never converged.
    ``histories`` is the read-only ``(batch_iterations, restarts)`` array of
    every restart's value at each iteration; each column is nondecreasing.
    Results compare and hash without it.
    """

    value: BellValue
    measurements: MeasurementSet
    converged: bool
    iterations: int
    batch_iterations: int
    unconverged: int
    histories: np.ndarray = field(compare=False)


@dataclass(frozen=True)
class OptimumPoint:
    """Arg-max Schmidt angle, its violation, and the optimizing measurements."""

    tau: float
    gamma_star: float
    s_q: float
    measurements: MeasurementSet


@dataclass(frozen=True)
class CriticalCurvePoint:
    """Critical Schmidt angle at a tilt, and its concurrence sin(2 gamma_c).

    ``gamma_c`` is rated not to violate and lies just above the largest
    violating angle, so ``c_cr`` errs on the conservative side.

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


def _seesaw(r_alice, r_bob, corr, tau, starts):
    # Alternating ascent on one state at one tilt, every restart in one batch.
    # Each party's two settings are one (2, restarts, 3) array, so a half-step
    # is one product with ``corr`` (or its transposed view), the tilt pull
    # added in place on setting 0, and one renormalization; the sum and
    # difference of the settings go into two preallocated (2, restarts, 3)
    # buffers, and each iteration's values into its row of a preallocated
    # history.  A restart is converged once its value improves by less than
    # the tolerance; the batch stops at the iteration where its last restart
    # converges, or at the iteration cap.  Returns the final values
    # (restarts,), Alice's and Bob's (2, restarts, 3) settings, the converged
    # flags, the iteration at which each restart first converged (or
    # stopped), and the read-only (iterations, restarts) rows of the history.
    max_iterations, tol = SeesawConfig.max_iterations, SeesawConfig.convergence_tol
    alice, bob = starts
    restarts = alice.shape[1]
    history = np.empty((max_iterations, restarts))
    previous = np.full(restarts, -np.inf)
    converged = np.zeros(restarts, dtype=bool)
    first_converged = np.zeros(restarts, dtype=int)
    # corr.T stays a view: a contiguous copy takes another BLAS path for a
    # single restart and rounds differently.
    corr_t = corr.T
    alice_col = r_alice[:, None]
    bob_col = r_bob[:, None]
    tilt_pull_a = 2.0 * (1.0 - tau) * r_alice
    tilt_pull_b = 2.0 * (1.0 - tau) * r_bob
    alice_pm, bob_pm, corr_bob, corr_alice = (np.empty_like(alice) for _ in range(4))
    np.add(bob[0], bob[1], out=bob_pm[0])
    np.subtract(bob[0], bob[1], out=bob_pm[1])
    # T b_+ and T b_- feed both the value line and the next update of Alice.
    np.matmul(bob_pm, corr_t, out=corr_bob)
    for iterations in range(1, max_iterations + 1):
        np.add(corr_bob[0], tilt_pull_a, out=corr_bob[0])
        alice = _renormalize_rows(corr_bob, alice)
        np.add(alice[0], alice[1], out=alice_pm[0])
        np.subtract(alice[0], alice[1], out=alice_pm[1])
        np.matmul(alice_pm, corr, out=corr_alice)
        np.add(corr_alice[0], tilt_pull_b, out=corr_alice[0])
        bob = _renormalize_rows(corr_alice, bob)
        np.add(bob[0], bob[1], out=bob_pm[0])
        np.subtract(bob[0], bob[1], out=bob_pm[1])
        np.matmul(bob_pm, corr_t, out=corr_bob)
        a_dot = (alice[0] @ alice_col)[:, 0]
        b_dot = (bob[0] @ bob_col)[:, 0]
        bob_marginal = (bob_pm @ bob_col)[..., 0]
        corr_terms = np.einsum("prk,prk->pr", alice, corr_bob)
        # Term by term, in this order, so that results stay bit for bit those
        # of earlier releases.
        values = np.subtract(
            0.25 * (2.0 + 2.0 * a_dot + bob_marginal[0] + corr_terms[0] + bob_marginal[1] + corr_terms[1]),
            tau * (1.0 + 0.5 * (a_dot + b_dot)),
            out=history[iterations - 1],
        )
        newly = ~converged & (values - previous < tol)
        first_converged[newly] = iterations
        converged |= newly
        if converged.all() or iterations == max_iterations:
            first_converged[~converged] = iterations
            break
        previous = values
    histories = history[:iterations]
    histories.setflags(write=False)
    return values, alice, bob, converged, first_converged, histories


def _vectors(m: MeasurementSet) -> np.ndarray:
    return np.array([v.as_array() for v in (*m.alice, *m.bob)])


@functools.lru_cache(maxsize=16)
def _restart_starts(rng_seed: int) -> tuple[np.ndarray, np.ndarray]:
    # Restart 0 is the CHSH-optimal start; the others are random measurement
    # sets drawn from streams derived from the seed.  Returned as Alice's and
    # Bob's (2, restarts, 3) settings, drawn once per seed and read-only,
    # since every caller shares them.
    children = np.random.SeedSequence(rng_seed).spawn(SeesawConfig.restarts - 1)
    sets = [MeasurementSet.chsh_optimal()]
    sets += [random_measurement_set(np.random.default_rng(child)) for child in children]
    settings = np.array([_vectors(m) for m in sets]).transpose(1, 0, 2)
    arrays = (settings[:2].copy(), settings[2:].copy())
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _measurement_set_from(vectors) -> MeasurementSet:
    units = [BlochVector.normalized(v) for v in vectors]
    return MeasurementSet(alice=(units[0], units[1]), bob=(units[2], units[3]))


def seesaw_max_violation(rho: TwoQubitState, tau: float, cfg: SeesawConfig = DEFAULT_CONFIG) -> SeesawResult:
    """Alternating ascent toward the maximal violation of a fixed state.

    Restart 0 starts from the CHSH-optimal angles; the other 7 draw random
    Bloch vectors from streams derived from ``cfg.rng_seed``, so results are
    reproducible.  All restarts iterate in one batch; a restart is converged
    once its value improves by less than 1e-11, and the best restart is
    returned (flagged unconverged if it ran out the 500 iterations).
    """
    coefficients(tau)  # validates the tilt range
    r_alice, r_bob, corr = _pauli_decomposition(rho.matrix)
    values, alice, bob, converged, iteration_counts, histories = _seesaw(
        r_alice, r_bob, corr, float(tau), _restart_starts(cfg.rng_seed)
    )
    best = int(np.argmax(values))
    return SeesawResult(
        value=BellValue(value=float(values[best]), tau=float(tau)),
        measurements=_measurement_set_from([alice[0, best], alice[1, best], bob[0, best], bob[1, best]]),
        converged=bool(converged[best]),
        iterations=int(iteration_counts[best]),
        batch_iterations=len(histories),
        unconverged=int(np.count_nonzero(~converged)),
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


def _close_bracket(h, a, h_a, b, h_b, floor: float, x: float = math.nan):
    # Safeguarded root finder for a falling function h, certain of its sign at
    # the bracket's ends: h(a) > floor and h(b) < -floor, where floor is the
    # noise of its values.  h(x) returns its value and its slope, or None for
    # the slope, when the secant through the last two values stands in; where
    # h returns slopes, an end's value may be unknown (None).  Each Newton or
    # secant step aims _AIM_FLOORS floors past its root, away from the side of
    # the value it starts from, so that the next value is certain of its sign
    # and the bracket closes from both sides.  A value within the floor
    # belongs to neither end; the next step is aimed from it toward the wider
    # side, so it never leaves a wide bracket.  A step outside (a, b), or one
    # after a slope that does not fall, is replaced by regula falsi on [a, b],
    # or by the midpoint while an end's value is unknown or where regula falsi
    # would repeat the last value.  Stops once [a, b] is four aims wide, or
    # after _CLOSE_STEPS values.  Returns a, h(a), b, h(b) and whether the
    # bracket closed to four aims.
    last = (b, h_b)
    for _ in range(_CLOSE_STEPS):
        if not a < x < b and None not in (h_a, h_b):
            x = a + h_a * (b - a) / (h_a - h_b)
        if not a < x < b or x == last[0]:
            x = 0.5 * (a + b)
        value, slope = h(x)
        if slope is None:
            slope = (value - last[1]) / (x - last[0])
        last = (x, value)
        if value > floor:
            a, h_a = x, value
        elif value < -floor:
            b, h_b = x, value
        if not slope < 0.0:
            x = math.nan
            continue
        aim = _AIM_FLOORS * floor / -slope
        if b - a <= 4.0 * aim:
            return a, h_a, b, h_b, True
        x -= value / slope
        x += aim if value > floor or (value >= -floor and b - x > x - a) else -aim
    return a, h_a, b, h_b, False


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
    alice = _renormalize_rows(candidates, _vectors(MeasurementSet.chsh_optimal())[:2])
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
    assumes no unimodality: a coarse 64-point grid first, then a bracket on
    the peak inside the grid's best cell.  The grid is rated eight angles at
    a time in decreasing order of :func:`pure_state_value_cap`, and an angle is
    rated only if its cap + 1e-12 reaches the best max F rated so far; the
    scan stops at the first group with none left.  Since max F never exceeds
    the cap by more than 1e-12, a skipped angle lies strictly below the
    lead, and an angle that ties the peak is always rated, so the peak (the
    first one, on ties) is that of the full grid.  ``s_q`` is the quantum
    value at the returned measurements, which reproduces max F to 1e-12 or
    the search raises :class:`~bellbound.errors.NumericFailure`.

    The bracket closer of the module docstring brackets the peak inside the
    coarse cell by secant steps on the envelope slope of max F, from the
    slopes at the cell's grid angles, which the scan has already rated, and
    the optimum is the secant root of that bracket.  Each slope is read at
    the rating's maximizer polished by Newton, and its noise floor is 2e-15.
    Two cells end at the grid:

    * at pi/4 the slope enters as minus its size, the slope from the left;
    * at 0 the slope is exactly 0, as max F is even in the angle, so that end
      enters unknown, with the midpoint as the closer's fallback there; if it
      stays unknown, the bracket's midpoint is returned.

    Where the cell has no rising end below a falling one, the grid's peak is
    flat within the floor, as pi/4 is at tilt 1, and is returned.  The peak
    is found to about 1e-9 in the angle up to tilt 1.4999999, where it lies at
    2e-7.  At tilt 1.3 the search rates 24 angles.
    """
    coefficients(tau)
    t = float(tau)
    rate = _Rater(t)
    grid = np.linspace(0.0, math.pi / 4, COARSE_GAMMA_POINTS)
    caps = np.array([pure_state_value_cap(float(g), t) for g in grid])
    values = np.full(COARSE_GAMMA_POINTS, -np.inf)
    thetas = [None] * COARSE_GAMMA_POINTS
    order = np.argsort(-caps, kind="stable")
    for start in range(0, COARSE_GAMMA_POINTS, _ANGLE_CHUNK):
        chunk = order[start : start + _ANGLE_CHUNK]
        chunk = chunk[caps[chunk] + _CAP_TOLERANCE >= values.max()]
        if chunk.size == 0:  # caps only fall from here, so no later angle passes
            break
        values[chunk], chunk_thetas = rate(grid[chunk])
        for i, theta in zip(chunk, chunk_thetas):
            thetas[i] = theta
    peak = int(np.argmax(values))
    gamma_star, ends = float(grid[peak]), "none"

    def slope_at(gamma, theta=None):
        return _envelope_slope(gamma, t, *(theta or rate([gamma])[1][0]))

    def cell_slope(i):
        # The scan's maximizers give the cell's slopes without a rating.  max F
        # is even in the angle, so its slope at 0 is exactly 0 and tells no
        # side: that end enters unknown.  At pi/4, (t0, t1) and
        # (pi - t0, pi - t1) tie in max F with opposite slopes, and the slope
        # from the left is the falling one.
        if i == 0:
            return None
        slope = slope_at(float(grid[i]), thetas[i])
        return -abs(slope) if i == COARSE_GAMMA_POINTS - 1 else slope

    cell = [(float(grid[i]), cell_slope(i)) for i in range(max(peak - 1, 0), min(peak + 2, COARSE_GAMMA_POINTS))]
    rising = [p for p in cell if p[1] is None or p[1] > _SLOPE_FLOOR]
    falling = [p for p in cell if p[1] is not None and p[1] < -_SLOPE_FLOOR]
    # Without a rising end below a falling one the scan's peak is flat within
    # the floor, as pi/4 is at tilt 1, and is itself the peak.
    if rising and falling and rising[-1][0] < falling[0][0]:
        a, g_a, b, g_b, _ = _close_bracket(lambda x: (slope_at(x), None), *rising[-1], *falling[0], _SLOPE_FLOOR)
        # An end left unknown is 0, never rated below the peak: the bracket's
        # midpoint stands in for the secant root.
        gamma_star = 0.5 * (a + b) if g_a is None else a + g_a * (b - a) / (g_a - g_b)
        ends = "[%.17g, %.17g] with slopes %s and %.6e" % (a, b, "unknown" if g_a is None else "%.6e" % g_a, g_b)
    optimum = _optimum_point(gamma_star, t, rate)
    logger.debug(
        "Schmidt optimum at tau %.10g: %d angles rated, %d Newton steps, peak bracket %s",
        t, rate.angles, rate.steps, ends,
    )
    return optimum


def _envelope_slope(gamma: float, tau: float, t0: float, t1: float) -> float:
    # d max F / d gamma at an angle whose in-plane form peaks near (t0, t1).
    # A rating fixes the maximizer only to about the square root of rounding,
    # which leaves the slope off by up to 6e-9.  So the angles are wrapped to
    # [-pi, pi] and polished by Newton steps on the gradient, which resolves
    # the peak far below the rounding of F, the Hessian shifted wherever it is
    # not negative definite, until a step is below 1e-12 or the Hessian is
    # singular to rounding.  It is at pi/4, where s = 1 and c = 0 leave F a
    # function of t0 - t1 alone, so that its maximizers form a line.  At the
    # maximizer the gradient in (t0, t1) vanishes, so by Danskin's envelope
    # theorem the slope is the partial derivative of F in gamma.  F sees gamma
    # only through s = sin 2g and k = (1 - tau) c, with c = cos 2g, so the
    # slope is 2 c dF/ds - 2 (1 - tau) s dF/dk.  In the terms of _in_plane_f,
    # dF/ds = 1/4 sum x (sin t0 +/- sin t1) / r over both norms, and
    # dF/dk = cos(t0)/2 + z/(2 r) of the "+" norm, the one that holds 2k.
    c, s = math.cos(2.0 * gamma), math.sin(2.0 * gamma)
    t0, t1, k = math.remainder(t0, 2.0 * math.pi), math.remainder(t1, 2.0 * math.pi), (1.0 - tau) * c
    for _ in range(_NEWTON_MAX_STEPS):
        _, g0, g1, h00, h01, h11 = _in_plane_f(math.sin(t0), math.cos(t0), math.sin(t1), math.cos(t1), s, k, True)
        if abs(h00 * h11 - h01 * h01) <= 1e-15 * (h00 + h11) ** 2:
            break
        mu = 2.0 * max(0.5 * (h00 + h11) + math.hypot(0.5 * (h00 - h11), h01), 0.0)
        a, d = h00 - mu, h11 - mu
        det = a * d - h01 * h01
        d0, d1 = (h01 * g1 - d * g0) / det, (h01 * g0 - a * g1) / det
        t0, t1 = t0 + d0, t1 + d1
        if abs(d0) + abs(d1) <= 1e-12:
            break
    sin0, cos0, sin1, cos1 = math.sin(t0), math.cos(t0), math.sin(t1), math.cos(t1)
    d_s, d_k = 0.0, 0.5 * cos0
    for sign, shift in ((1.0, 2.0 * k), (-1.0, 0.0)):
        u = sin0 + sign * sin1
        x = s * u
        z = cos0 + sign * cos1 + shift
        r = (x * x + z * z) ** 0.5
        if r > 0.0:  # a vanishing norm is a kink at a minimum, never at the maximizer
            d_s += 0.25 * x * u / r
            if sign > 0.0:
                d_k += 0.5 * z / r
    return 2.0 * c * d_s - 2.0 * (1.0 - tau) * s * d_k


def _cap_root(tau: float) -> float:
    # The angle above the peak at which pure_state_value_cap falls to the
    # violation threshold v.  With u = sin^2 g, p = 1 + 2 v and
    # q = 4 (tau - 1), the cap equals v where sqrt(1 + 4 u (1 - u)) = p + q u;
    # squared, (4 + q^2) u^2 + 2 (p q - 2) u + 4 v (1 + v) = 0, whose larger
    # root is the one above the peak.  The root is real wherever some angle
    # violates: the cap's maximum is still 5.8e-8 at tilt 1.49966, where the
    # largest max F falls to v.
    v = VIOLATION_THRESHOLD
    p, q = 1.0 + 2.0 * v, 4.0 * (tau - 1.0)
    half_b, a2 = p * q - 2.0, 4.0 + q * q
    disc = half_b * half_b - 4.0 * a2 * v * (1.0 + v)
    return math.asin(math.sqrt((math.sqrt(disc) - half_b) / a2))


def critical_gamma(tau: float) -> CriticalCurvePoint:
    """Critical Schmidt angle at tilt ``tau``: just above the last violating angle.

    Defined for tilts from the maximally-entangled cutoff up to (not including)
    3/2.  A state violates where max F >= 0 (see the module docstring), since
    tau is where the observed value is 0.  The bracket closer of the module
    docstring brackets the crossing above the arg-max angle of
    :func:`global_max_violation` by Newton steps on max F, with the slope from
    the envelope theorem at no extra rating, starting where
    :func:`pure_state_value_cap` falls to 1e-10.  Each step aims eight
    rounding allowances of max F (1e-15 each) past its root.  The angle
    returned is the bracket's upper end, which the closer rated below -1e-15,
    so it errs on the conservative side; at the cutoff, where the crossing is
    pi/4 itself, that end stays pi/4.  The bracket is about 1e-13 wide at
    tilt 1.3 and widens as max F flattens toward 3/2 (its slope at the
    crossing is 8.7e-6 at 1.4988, 1.2e-6 at 1.4995 and 6.7e-7 at 1.49966),
    to about 2e-9, 1e-8 and 3e-8 there.  The violating angles above the
    optimum are assumed to form one interval.

    Raises :class:`~bellbound.errors.NoViolationFound`, carrying the optimum,
    when even the optimum does not violate, as happens just below 3/2, and
    :class:`~bellbound.errors.NumericFailure` when the closer stops on its
    step cap before the bracket is four aims wide.
    """
    t = float(tau)
    if not (TAU_MAXENT_CUTOFF - 1e-12 <= t < TAU_TRIVIAL):
        raise ValueError(
            f"critical angle is defined for tilts in [{TAU_MAXENT_CUTOFF:.10f}, 1.5), got {tau!r}"
        )
    optimum = global_max_violation(t)
    if optimum.s_q <= VIOLATION_THRESHOLD:
        raise NoViolationFound(
            f"no violating Schmidt angle found at tilt {t!r} (peak value {optimum.s_q:.3e} "
            f"at gamma {optimum.gamma_star:.6f}); the search is expected to violate below 3/2",
            optimum,
        )
    rate = _Rater(t)

    def max_f(x):
        values, thetas = rate([x])
        return float(values[0]), _envelope_slope(x, t, *thetas[0])

    # The crossing lies in [gamma_star, pi/4], and pi/4 (C = 1) is always a
    # sound answer, so it enters unrated.  Newton starts where the cap falls
    # to 1e-10, not at the cap's zero, which at the cutoff is pi/4 itself,
    # where max F has a kink.
    a, f_a, b, f_b, closed = _close_bracket(
        max_f, optimum.gamma_star, optimum.s_q, math.pi / 4, None, _MAX_F_ROUNDING, _cap_root(t)
    )
    if not closed:
        raise NumericFailure(f"crossing bracket [{a!r}, {b!r}] at tilt {t!r} open after {_CLOSE_STEPS} ratings")
    logger.debug(
        "critical angle at tau %.10g: %d angles rated, %d Newton steps, bracket [%.17g, %.17g] "
        "with max F %.6e and %s",
        t, rate.angles, rate.steps, a, b, f_a, "none" if f_b is None else "%.6e" % f_b,
    )
    return CriticalCurvePoint(tau=t, gamma_c=b, c_cr=math.sin(2.0 * b), optimum=optimum)


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
