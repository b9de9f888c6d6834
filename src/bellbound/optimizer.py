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
  a 64-point coarse grid guards against multiple local maxima, then a
  golden section refines to 1e-8.  The grid is rated in decreasing order of
  :func:`pure_state_value_cap`, skipping every angle whose cap cannot reach
  the best value already rated.
* :func:`critical_gamma` -- for a tilt at which the maximally entangled state
  no longer violates, the largest Schmidt angle above the arg-max angle that
  still violates, to 1e-8 by bisection; its concurrence is the numeric upper
  bound on the concurrence of any violating state.  The optimum the search
  started from is returned with it.

Both searches replay a textbook search, bit for bit, from one bracket.  A
safeguarded root finder closes a bracket on the root of a falling function of
the angle: the slope of max F for the optimum's peak, max F - 1e-10 for the
crossing.  It takes Newton steps where the function has a slope and secant
steps otherwise, with regula falsi or the midpoint as the fallback, and aims
each step a few noise floors past its root, so that both ends are certain of
their sign.  The golden section or the bisection is then replayed, and one
rule settles each step: a step whose point lies beyond the bracket by more
than rounding could reverse is decided by its side of the bracket, and every
other step is rated, as the textbook search rates it.

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
comes from the envelope theorem at the maximizer a rating returns, at no
extra rating.  Each search logs its tilt, the angles it rated and the Newton
steps of their maximizations at DEBUG level on the ``"bellbound"`` logger,
which is silent unless the application configures logging (the CLI's
``--log-level``); the optimum search adds its peak bracket with the slopes at
both ends (or "none") and the golden steps decided and angles rated, the
critical-angle search its final bracket with max F at both ends.

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
# max F never exceeds pure_state_value_cap by more than this (a tested
# contract), so the coarse scan skips an angle whose cap plus this is below
# the best max F already rated: it cannot be the scan's peak.
_CAP_TOLERANCE = 1e-12
# max F is rated to rounding: over 1e-8-wide windows its ratings scatter about
# a smooth curve by at most 2.3e-16 (measured at tilts from 1.21 to 1.4997).
# So two ratings can order two angles wrongly unless max F differs between
# them by more than this allowance.
_MAX_F_ROUNDING = 1e-15
# The envelope slope of max F is fixed only to about this, absolute: Newton
# fixes the maximizer (t0, t1) only to about the square root of rounding.
# Slopes at 10 angles within 1e-7 of the peak scatter about a line by at most
# 9e-10 (measured at tilts from 1.05 to 1.4999999), so a slope beyond this
# tells on which side of the peak its angle lies.
_SLOPE_FLOOR = 2e-9
# The golden section settles a step without its ratings only where max F at
# its two angles is predicted to differ by more than this: about 400 times the
# 2.3e-16 scatter of the ratings, so a rating could not order them otherwise.
_DECIDED_GAP = 1e-13
# The bracket closer aims each step this many noise floors of its function
# past the step's root, so that the next value is certain of its sign and the
# bracket closes from both sides; it stops once the bracket is four such aims
# wide, or after _CLOSE_STEPS values.
_AIM_FLOORS = 8.0
_CLOSE_STEPS = 16

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


def _golden_section_max(f, lo: float, hi: float, tol: float, decide) -> float:
    # Golden-section search for a maximum of f on [lo, hi], to width tol.
    # Each step first asks decide(c, d): True settles it as f(c) >= f(d),
    # False as f(c) < f(d), and None has both angles rated, each at most once.
    # An angle no step needs is never rated, so a decide that always answers
    # None takes the textbook search's steps with one rating fewer.
    c = hi - _INV_GOLDEN * (hi - lo)
    d = lo + _INV_GOLDEN * (hi - lo)
    fc = fd = None
    while hi - lo > tol:
        keep_left = decide(c, d)
        if keep_left is None:
            fc = f(c) if fc is None else fc
            fd = f(d) if fd is None else fd
            keep_left = fc >= fd
        if keep_left:
            hi, d, fd = d, c, fc
            c, fc = hi - _INV_GOLDEN * (hi - lo), None
        else:
            lo, c, fc = c, d, fd
            d, fd = lo + _INV_GOLDEN * (hi - lo), None
    return 0.5 * (lo + hi)


def _side(x: float, lo: float, hi: float, margin: float):
    # The one rule by which both replays settle a step without a rating: True
    # where x lies above the bracket [lo, hi] by more than margin, False where
    # it lies below it by more, and None, so that the step is rated, nearer.
    return True if x > hi + margin else False if x < lo - margin else None


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
    # after _CLOSE_STEPS values.  Returns a, h(a), b, h(b).
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
            break
        x -= value / slope
        x += aim if value > floor or (value >= -floor and b - x > x - a) else -aim
    return a, h_a, b, h_b


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
    assumes no unimodality: a coarse 64-point grid first, then a golden
    section to 1e-8 in the angle.  The grid is rated eight angles at a time
    in decreasing order of :func:`pure_state_value_cap`, and an angle is
    rated only if its cap + 1e-12 reaches the best max F rated so far; the
    scan stops at the first group with none left.  Since max F never exceeds
    the cap by more than 1e-12, a skipped angle lies strictly below the
    lead, and an angle that ties the peak is always rated, so the peak (the
    first one, on ties) is that of the full grid.  ``s_q`` is the quantum
    value at the returned measurements, which reproduces max F to 1e-12 or
    the search raises :class:`~bellbound.errors.NumericFailure`.

    The golden section ends bit for bit where one rating every step ends,
    but rates far fewer angles:

    1. The bracket closer of the module docstring brackets the peak inside
       the coarse cell by secant steps on the envelope slope of max F, from
       the slopes at the cell's three grid angles, which the scan has
       already rated.  The slope's noise floor is 2e-9: Newton fixes the
       maximizer only to about the square root of rounding.
    2. Each golden step is settled by the side of the bracket on which the
       midpoint of its two angles lies, where it lies beyond the bracket by
       more than a quadratic model of max F, with an allowance for its cubic
       term, needs to put the two angles 1e-13 apart in max F (about 400
       times the rating scatter).  Every other step rates both angles, as
       the plain search does.

    Where no bracket can be certified, as when the peak is at a grid end
    (tilt 1) or the slopes are lost in noise, nothing is decided and every
    step is rated.  At tilt 1.3 the search rates 35 angles instead of 52.
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
    lo = float(grid[max(peak - 1, 0)])
    hi = float(grid[min(peak + 1, COARSE_GAMMA_POINTS - 1)])

    def slope_at(gamma, theta=None):
        return _envelope_slope(gamma, t, *(theta or rate([gamma])[1][0]))

    # Near the peak p, max F is f(p) - k (x - p)^2 / 2 + j (x - p)^3 / 6, so for
    # c < d with midpoint m, f(d) - f(c) = (d - c) k (p + j (d - c)^2 / (24 k) - m).
    # A golden step is settled where m lies beyond the peak bracket by more
    # than four times that cubic shift plus the distance at which the
    # difference falls to _DECIDED_GAP.  Without a bracket, the whole line
    # stands in and every step is rated.
    bracket, a, b, k, shift = None, -math.inf, math.inf, 1.0, 0.0
    if 0 < peak < COARSE_GAMMA_POINTS - 1:
        # The scan's maximizers give the cell's slopes without a rating.
        cell = [(float(grid[i]), slope_at(float(grid[i]), thetas[i])) for i in (peak - 1, peak, peak + 1)]
        rising = [p for p in cell if p[1] > _SLOPE_FLOOR]
        falling = [p for p in cell if p[1] < -_SLOPE_FLOOR]
        if rising and falling and rising[-1][0] < falling[0][0]:
            bracket = _close_bracket(lambda x: (slope_at(x), None), *rising[-1], *falling[0], _SLOPE_FLOOR)
            a, g_a, b, g_b = bracket
            k = (g_a - g_b) / (b - a)
            # |j| / 2 from the cell's second divided difference of the slope.
            (x0, g0), (x1, g1), (x2, g2) = cell
            shift = abs(((g2 - g1) / (x2 - x1) - (g1 - g0) / (x1 - x0)) / (x2 - x0)) / (3.0 * k)
    decided = []

    def decide(c, d):
        side = _side(0.5 * (c + d), a, b, shift * (d - c) ** 2 + _DECIDED_GAP / (k * (d - c)))
        decided.append(side is not None)
        return side

    golden = rate.angles
    gamma_star = _golden_section_max(lambda g: rate([g])[0][0], lo, hi, 1e-8, decide)
    golden = rate.angles - golden
    optimum = _optimum_point(gamma_star, t, rate)
    ends = "none" if bracket is None else "[%.12g, %.12g] with slopes %.6e and %.6e" % (a, b, *bracket[1::2])
    logger.debug(
        "Schmidt optimum at tau %.10g: %d angles rated, %d Newton steps, peak bracket %s, "
        "golden section %d steps decided and %d angles rated",
        t, rate.angles, rate.steps, ends, sum(decided), golden,
    )
    return optimum


def _envelope_slope(gamma: float, tau: float, t0: float, t1: float) -> float:
    # d max F / d gamma at an angle whose in-plane form peaks at (t0, t1).
    # There the gradient in (t0, t1) vanishes, so by Danskin's envelope
    # theorem the slope is the partial derivative of F in gamma.  F sees gamma
    # only through s = sin 2g and k = (1 - tau) c, with c = cos 2g, so the
    # slope is 2 c dF/ds - 2 (1 - tau) s dF/dk.  In the terms of _in_plane_f,
    # dF/ds = 1/4 sum x (sin t0 +/- sin t1) / r over both norms, and
    # dF/dk = cos(t0)/2 + z/(2 r) of the "+" norm, the one that holds 2k.
    c, s = math.cos(2.0 * gamma), math.sin(2.0 * gamma)
    sin0, cos0, sin1, cos1 = math.sin(t0), math.cos(t0), math.sin(t1), math.cos(t1)
    d_s, d_k = 0.0, 0.5 * cos0
    for sign, shift in ((1.0, 2.0 * (1.0 - tau) * c), (-1.0, 0.0)):
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
    """Largest Schmidt angle whose state still violates at tilt ``tau``.

    Defined for tilts from the maximally-entangled cutoff up to (not including)
    3/2.  The angle is the one a bisection, to 1e-8 in the angle, finds for
    the violation/no-violation crossing above the arg-max angle of
    :func:`global_max_violation`, with "violates" meaning max F above 1e-10
    (see the module docstring); that optimum is returned too.  The search
    runs in three steps:

    1. The bracket closer of the module docstring brackets the crossing by
       Newton steps on max F - 1e-10, starting where
       :func:`pure_state_value_cap` falls to 1e-10.  The slope of max F
       comes from the envelope theorem, at no extra rating.  Each step aims
       eight rounding allowances of max F (1e-15 each) past its root, so the
       bracket is about 1e-13 wide at tilt 1.3.
    2. The bisection is replayed on its own midpoints, by the rule the
       golden section uses.  A midpoint below Newton's bracket violates and
       one above it does not; only one inside it, or so near it that
       rounding could reverse the verdict, is rated.  The violating angles
       above the optimum form one interval, as the bisection itself assumes,
       so every step is decided as a rating would decide it and the angle is
       bit for bit the bisection's.
    3. Both ends of the final bracket are rated.  If the lower end does not
       violate or the upper one does, the replay cannot vouch for the bracket
       and :class:`~bellbound.errors.NumericFailure` is raised.

    Above a tilt of about 1.4988 the angle is the bisection's, bit for bit,
    but fixed only to rounding: max F falls so slowly at the crossing (its
    slope is 8e-6 at 1.4988 and 3e-8 at 1.49966) that the 2e-16 rounding of
    its ratings decides the last bisection steps, to about 7e-9 in the angle
    at 1.49966.

    Raises :class:`~bellbound.errors.NoViolationFound`, carrying the optimum,
    when even the optimum does not violate, as happens just below 3/2.
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

    def excess(x):
        values, thetas = rate([x])
        return float(values[0]) - VIOLATION_THRESHOLD, _envelope_slope(x, t, *thetas[0])

    # pi/4 never violates on this domain: its cap, (1 - t) + (sqrt 2 - 1)/2,
    # is at most 1e-12 for t >= cutoff - 1e-12, far below the threshold.  So
    # [gamma_star, pi/4] brackets the crossing.  Newton starts where the cap
    # falls to the threshold, not at the cap's zero: at the cutoff that zero
    # is pi/4 itself, where max F has a kink, and the crossing lies 3e-10
    # below it.
    a, h_a, b, h_b = _close_bracket(
        excess, optimum.gamma_star, optimum.s_q - VIOLATION_THRESHOLD, math.pi / 4, None, _MAX_F_ROUNDING, _cap_root(t)
    )
    # A midpoint is decided by its side of [a, b] only where max F differs
    # from its value at the near end by more than rounding can reverse, which
    # holds beyond ``margin``; a midpoint nearer is rated, as the bisection
    # rates it.  The margin is far below the spacing of the last midpoints
    # except within about 1e-3 of 3/2, where max F falls so slowly that the
    # bisection's verdicts there are rounding's.
    margin = math.inf if h_b is None else _MAX_F_ROUNDING * (b - a) / (h_a - h_b)
    lo, hi = optimum.gamma_star, math.pi / 4
    while hi - lo > GAMMA_BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        above = _side(mid, a, b, margin)
        if above is None:
            above = rate([mid])[0][0] <= VIOLATION_THRESHOLD
        lo, hi = (lo, mid) if above else (mid, hi)
    f_lo, f_hi = (float(v) for v in rate([lo, hi])[0])
    logger.debug(
        "critical angle at tau %.10g: %d angles rated, %d Newton steps, bracket [%.12g, %.12g] "
        "with max F %.6e and %.6e",
        t, rate.angles, rate.steps, lo, hi, f_lo, f_hi,
    )
    if not f_lo > VIOLATION_THRESHOLD >= f_hi:
        raise NumericFailure(
            f"the critical-angle bracket [{lo!r}, {hi!r}] at tilt {t!r} has max F {f_lo!r} and "
            f"{f_hi!r} at its ends, not a violation below a non-violation: max F is not single-crossing"
        )
    return CriticalCurvePoint(tau=t, gamma_c=lo, c_cr=math.sin(2.0 * lo), optimum=optimum)


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
