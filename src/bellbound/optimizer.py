"""Maximal-violation search over product projective measurements.

Three layers:

* :func:`~bellbound.seesaw.seesaw_max_violation` (re-exported here) -- the
  maximal violation of any state: of a pure state, max F at its Schmidt
  angle; of a mixed state, a see-saw batch finished by Newton on V(b0, b1),
  the value as a function of Bob's two Bloch vectors (see
  :mod:`bellbound.seesaw`).
* :func:`global_max_violation` -- outer scalar search over the Schmidt angle:
  a 64-point coarse grid guards against multiple local maxima, then the peak
  is bracketed inside the grid's best cell.  The grid is rated in decreasing
  order of :func:`pure_state_value_cap`, skipping every angle whose cap
  cannot reach the best value already rated.
* :func:`critical_gamma` -- at any tilt in [1, 3/2), the optimum and then
  the crossing above it: an angle above the largest Schmidt angle that still
  violates (max F >= 0), rated not to violate.  It is pi/4 below the
  maximally-entangled cutoff, with no crossing searched, and None where no
  angle violates above 1e-10.  Its concurrence is the numeric upper bound on
  the concurrence of any violating state, which
  :func:`~bellbound.bounds_engine.upper_bound_numeric` finds by the same
  crossing from a table of critical angles at 33 tilts.  The critical angle
  falls as the tilt rises, so the entry two nodes above a tilt lies below
  its crossing; the bound starts there where the entry's cold rating
  violates.  Elsewhere, as near 3/2, it starts from the coarse scan's peak,
  refining the optimum only where that peak rates at most 1e-9, so that its
  None decision is the same.

Each search reports the bracket it closes.  A safeguarded root finder closes
a bracket on the root of a falling function of the angle from its value and
slope: max F and its envelope slope for the crossing, and for the optimum's
peak the slope g of max F, with a slope that makes each step the secant step
on g(x)/x.  It takes those steps with regula falsi or the midpoint as the
fallback, and aims each a few noise floors past its root, so that both ends
are certain of their sign.  The optimum is the secant root of g(x)/x on its
bracket; the critical angle is the crossing bracket's non-violating end.

Neither Schmidt-angle search runs the see-saw.  Both rate each angle by
max F, the exact maximum over measurements of the Schmidt-angle state (see
:mod:`bellbound.schmidt`), not by the see-saw's lower bound.  A cold rating
finds max F to rounding by damped Newton from the best starts of a coarse
grid of (t0, t1), Bob's polar angles: the best 4 where its numbers are
reported or certify the critical angle, the best 1 in the coarse scan, at
the table entry and at the crossing's first angle, which only rank angles or
open a bracket.  A warm rating runs Newton once, from the maximizer of the
nearest angle the search has already rated.  Where a run that decides the
rating stops on its step cap, as it does at some angles for tilts just above
1, its end is polished by Newton steps on the gradient of the in-plane form.
A warm rating can only under-rate max F, so what a search returns rests on
cold ratings: the coarse scan, the table entry, the optimum's measurements
and ``s_q``, and the critical angle; warm ratings only give the optimum's
slopes and the crossing's steps after its first angle.  The slope of max F in the angle
comes from the envelope theorem at the maximizer a rating returns, polished
the same way, at no extra rating.  Each search logs its tilt, the angles it
rated cold and warm and the Newton steps of their maximizations at DEBUG
level on the ``"bellbound"`` logger, which is silent unless the application
configures logging (the CLI's ``--log-level``); the optimum search adds its
peak bracket with the slopes at both ends ("unknown" for 0, unrated, or
"none" for the bracket, where the grid's peak is taken), the critical-angle
search its bracket with max F at both ends, the upper end's from its cold
rating (or "none" for pi/4, unrated), or the optimum's peak value and angle
where no angle violates.  The numeric upper bound logs its table entry
before its crossing: the tilt, the entry's angle and the node tilt it came
from, its max F and Newton steps, and whether it brackets from it.  Where it
does not, the coarse scan's line follows: the tilt, the angles rated cold,
the Newton steps, the peak angle with its max F, and whether it refines the
optimum.

:func:`pure_state_value_cap` / :func:`max_value_cap` give the closed-form
analytic caps the search results are checked against.
"""

from __future__ import annotations

import bisect
import logging
import math
from dataclasses import dataclass

import numpy as np

from .bell_model import TAU_MAXENT_CUTOFF, coefficients
from .errors import NumericFailure
from .quantum_core import MeasurementSet, schmidt_state
from .schmidt import _NEWTON_STARTS, _finish, _newton_max, _polish, _schmidt_maxima
from .seesaw import (  # noqa: F401  (DEFAULT_CONFIG and seesaw_max_violation: benchmarks/ reads them here)
    DEFAULT_CONFIG,
    _measured_maximum,
    seesaw_max_violation,
)

# critical_gamma brackets no crossing at a tilt whose optimum's max F is at
# most this, and starts its search where the analytic cap falls to it.
VIOLATION_THRESHOLD = 1e-10
# The width at which a plain bisection for the critical angle stops; no
# search here bisects, but the benchmark's tolerances and the tests' oracle
# read it.
GAMMA_BISECTION_TOL = 1e-8
COARSE_GAMMA_POINTS = 64
# The coarse scan's angles, with the two terms of pure_state_value_cap there,
# each formed as that function forms it: sin^2(gamma), which the tilt scales,
# and the untilted (sqrt(1 + sin^2(2 gamma)) - 1) / 2.
_COARSE_GRID = np.linspace(0.0, math.pi / 4, COARSE_GAMMA_POINTS)
_COARSE_SIN_SQ = np.array([math.sin(g) ** 2 for g in _COARSE_GRID.tolist()])
_COARSE_UNTILTED = np.array(
    [(math.sqrt(1.0 + s * s) - 1.0) / 2.0 for s in (math.sin(2.0 * g) for g in _COARSE_GRID.tolist())]
)

# A scan rating, which only ranks angles or opens the crossing's bracket,
# runs Newton from the best _SCAN_STARTS grid starts; a rating whose numbers
# are reported or carry the soundness of the critical angle, from the best
# _NEWTON_STARTS.  The best start alone falls short of the best of 4 by at
# most 4.7e-15 (the 64 grid angles at 400 tilts in [1, 1.5)), which can only
# make the cap's skip test more cautious.  The coarse scan rates its angles
# _ANGLE_CHUNK at a time, which keeps the grid's temporaries small.
_SCAN_STARTS = 1
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
# _polish), is fixed to about this, absolute: slopes at 21 angles
# within 1e-7 of the peak, and 1e-3 to either side, scatter about a parabola
# by at most 3.1e-16 (measured at 100 tilts from 1 to 1.4999999, away from the
# tilt-1 kink at pi/4, where no bracket is closed).  So a slope beyond this
# tells on which side of the peak its angle lies.
_SLOPE_FLOOR = 2e-15
# The bracket closer aims each step this many noise floors of its function
# past the step's root, so that the next value is certain of its sign and the
# bracket closes from both sides; it stops once the bracket is four such aims
# wide, or after _CLOSE_STEPS values.  Over 1,846 tilts from 1 to 1.4999999
# the most a bracket needed is 14 values, for the crossing at tilt 1.49961;
# the optimum's needed at most 6.
_AIM_FLOORS = 8.0
_CLOSE_STEPS = 20
# The numeric upper bound refines the optimum only where the coarse scan's
# peak rates at most this (from about tilt 1.496, where the peak lies in the
# grid's first cell).  Above it the optimum's s_q, within 1e-12 of a max F
# that refinement only raises above the peak's, exceeds VIOLATION_THRESHOLD.
_REFINE_BELOW = 1e-9
# critical_gamma's gamma_c at the tilts _TABLE_TAUS, evenly spaced from the
# cutoff to 1.4996.  The numeric upper bound starts its crossing from an
# entry where one rates as violating (see _table_start); a test rebuilds
# them, in about 70 ms.
_TABLE_TAUS = np.linspace(TAU_MAXENT_CUTOFF, 1.4996, 33).tolist()
_CRITICAL_TABLE = (
    0.7853981633974483, 0.7615303792889422, 0.7376876884189986,
    0.7138579205986867, 0.6900312869363432, 0.6662000575708285,
    0.6423582542191867, 0.6185013538753796, 0.5946260012644853,
    0.5707297284956232, 0.5468106808788148, 0.5228673481563048,
    0.49889830050372935, 0.47490192861933067, 0.45087618706470123,
    0.4268183397625788, 0.4027247062016616, 0.3785904064434902,
    0.35440910246309587, 0.3301727326660705, 0.30587123558234036,
    0.2814922577004184, 0.25702083911582735, 0.23243906903869327,
    0.20772570111604508, 0.18285571579926713, 0.1577998133719381,
    0.13252381637779104, 0.10698795350178057, 0.08114598763296155,
    0.054944137609012136, 0.02831972402882917, 0.0011994495229992273,
)

logger = logging.getLogger("bellbound")


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
    violating angle, so ``c_cr`` errs on the conservative side.  Below the
    maximally-entangled cutoff they are pi/4 and 1; both are None where no
    angle violates above 1e-10.

    ``optimum`` is the maximal violation at the same tilt.
    """

    tau: float
    gamma_c: float | None
    c_cr: float | None
    optimum: OptimumPoint


class _Rater:
    # max F for one search at one tilt, and the search's one record: the
    # maximizer of every angle it has rated, in ``maximizers``, and the cold
    # and warm ratings and Newton steps for the search's log line.  Calling
    # the rater rates angles cold, by _schmidt_maxima from ``starts`` grid
    # starts each; warm() rates one angle by a single Newton run from the
    # maximizer of the nearest angle (in gamma) this rater has rated.  A warm
    # rating may stop on a lower local maximum, so it can only under-rate
    # max F.
    def __init__(self, tau: float):
        self.tau, self.cold, self.warmed, self.steps = tau, 0, 0, 0
        self.maximizers = {}

    def __call__(self, gammas, starts: int = _NEWTON_STARTS):
        values, thetas, steps = _schmidt_maxima(gammas, self.tau, starts)
        self.cold += len(values)
        self.steps += steps
        self.maximizers.update(zip((float(g) for g in gammas), thetas))
        return values, thetas

    def warm(self, gamma: float):
        nearest = min(self.maximizers, key=lambda g: abs(g - gamma))
        s, k = math.sin(2.0 * gamma), (1.0 - self.tau) * math.cos(2.0 * gamma)
        run = _newton_max(*self.maximizers[nearest], s, k)
        value, t0, t1 = _finish(run, s, k)
        self.warmed += 1
        self.steps += run[3]
        self.maximizers[gamma] = (t0, t1)
        return 0.5 - self.tau + value, (t0, t1)


def _close_bracket(h, a, h_a, b, h_b, floor: float, x: float = math.nan):
    # Safeguarded root finder for a falling function h, certain of its sign at
    # the bracket's ends: h(a) > floor and h(b) < -floor, where floor is the
    # noise of its values.  h(x) returns its value and its slope; an end's
    # value may be unknown (None).  Each Newton step on those aims _AIM_FLOORS
    # floors past its root, away from the side of the value it starts from,
    # so that the next value is certain of its sign and the bracket closes
    # from both sides.  A value within the floor belongs to neither end; the
    # next step is aimed from it toward the wider side, so it never leaves a
    # wide bracket.  A step outside (a, b), or one after a slope that does
    # not fall, is replaced by regula falsi on [a, b], or by the midpoint
    # while an end's value is unknown or where regula falsi would repeat the
    # last angle rated.  Stops once [a, b] is four aims wide, or after
    # _CLOSE_STEPS values.  Returns a, h(a), b, h(b) and whether the bracket
    # closed to four aims.
    last = b
    for _ in range(_CLOSE_STEPS):
        if not a < x < b and None not in (h_a, h_b):
            x = a + h_a * (b - a) / (h_a - h_b)
        if not a < x < b or x == last:
            x = 0.5 * (a + b)
        value, slope = h(x)
        last = x
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


def _optimum_point(gamma: float, rate: _Rater) -> OptimumPoint:
    # The measurements at max F and their quantum value, which must reproduce it.
    values, thetas = rate([gamma])
    measurements, s_q = _measured_maximum(schmidt_state(gamma), rate.tau, gamma, values[0], thetas[0])
    return OptimumPoint(tau=rate.tau, gamma_star=gamma, s_q=s_q, measurements=measurements)


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
    coarse cell by secant steps on g(x)/x, g the envelope slope of max F,
    from the slopes at the cell's grid angles, which the scan has already
    rated.  The optimum is the secant root of g(x)/x on the bracket, or
    through the last two angles rated while the end at 0 stays unknown, and
    the midpoint if that root leaves the bracket.  The angles the closer
    steps to are rated warm, since only their slopes are read, and the
    optimum itself cold, since its measurements and ``s_q`` are reported.
    Each slope is read at the rating's maximizer polished by Newton, and its
    noise floor is 2e-15.  Two cells end at the grid:

    * at pi/4 the slope enters as minus its size, the slope from the left;
    * at 0 the slope g is exactly 0, as max F is even in the angle, so that
      end enters unknown, with the midpoint as the closer's fallback there.

    Where the cell has no rising end below a falling one, the grid's peak is
    flat within the floor, as pi/4 is at tilt 1, and is returned.  The peak
    is found to about 1e-9 in the angle up to tilt 1.4999999, where it lies at
    2e-7.  At tilt 1.3 the search rates 19 angles cold (18 for the scan from
    one Newton start each, 1 for the measurements from four) and 5 warm, in
    77 Newton steps.
    """
    rate = _Rater(coefficients(tau).tau)
    return _refined_optimum(rate, _coarse_scan(rate)[1])


def _coarse_scan(rate: _Rater):
    # The coarse grid rated by ``rate`` in decreasing order of the cap, with
    # the angles the cap rules out left at -inf: max F at each grid angle and
    # the index of the grid's peak.  The maximizers stay in the rater.
    caps = _coarse_caps(rate.tau)
    values = np.full(COARSE_GAMMA_POINTS, -np.inf)
    order = np.argsort(-caps, kind="stable")
    for start in range(0, COARSE_GAMMA_POINTS, _ANGLE_CHUNK):
        chunk = order[start : start + _ANGLE_CHUNK]
        chunk = chunk[caps[chunk] + _CAP_TOLERANCE >= values.max()]
        if chunk.size == 0:  # caps only fall from here, so no later angle passes
            break
        values[chunk] = rate(_COARSE_GRID[chunk], _SCAN_STARTS)[0]
    return values, int(np.argmax(values))


def _refined_optimum(rate: _Rater, peak: int) -> OptimumPoint:
    # The optimum inside the coarse scan's best cell, from the maximizers the
    # scan left in ``rate``, with its measurements; logs the search's line.
    t, grid = rate.tau, _COARSE_GRID
    gamma_star, ends = float(grid[peak]), "none"

    def slope_at(gamma, theta=None):
        return _envelope_slope(gamma, t, *(theta or rate.warm(gamma)[1]))

    def cell_slope(i):
        # The scan's maximizers give the cell's slopes without a rating.  max F
        # is even in the angle, so its slope at 0 is exactly 0 and tells no
        # side: that end enters unknown.  At pi/4, (t0, t1) and
        # (pi - t0, pi - t1) tie in max F with opposite slopes, and the slope
        # from the left is the falling one.
        if i == 0:
            return None
        slope = slope_at(float(grid[i]), rate.maximizers.get(float(grid[i])))
        return -abs(slope) if i == COARSE_GAMMA_POINTS - 1 else slope

    cell = [(float(grid[i]), cell_slope(i)) for i in range(max(peak - 1, 0), min(peak + 2, COARSE_GAMMA_POINTS))]
    rising = [p for p in cell if p[1] is None or p[1] > _SLOPE_FLOOR]
    falling = [p for p in cell if p[1] is not None and p[1] < -_SLOPE_FLOOR]
    # Without a rising end below a falling one the scan's peak is flat within
    # the floor, as pi/4 is at tilt 1, and is itself the peak.
    if rising and falling and rising[-1][0] < falling[0][0]:
        h, ratios = _ratio_secant(slope_at, *falling[0])
        a, g_a, b, g_b, _ = _close_bracket(h, *rising[-1], *falling[0], _SLOPE_FLOOR)
        (x0, r0), (x1, r1) = ratios[-2:] if g_a is None else ((a, g_a / a), (b, g_b / b))
        gamma_star = x1 - r1 * (x1 - x0) / (r1 - r0) if r1 != r0 else math.nan
        if not a < gamma_star < b:
            gamma_star = 0.5 * (a + b)
        ends = "[%.17g, %.17g] with slopes %s and %.6e" % (a, b, "unknown" if g_a is None else "%.6e" % g_a, g_b)
    optimum = _optimum_point(gamma_star, rate)
    logger.debug(
        "Schmidt optimum at tau %.10g: %d angles rated cold and %d warm, %d Newton steps, peak bracket %s",
        t, rate.cold, rate.warmed, rate.steps, ends,
    )
    return optimum


def _ratio_secant(slope_at, b: float, g_b: float):
    # The closer's function for the peak in a grid cell whose falling end is
    # b, where the slope is g_b, and the (x, g(x)/x) pairs it rates.  Each
    # value of g comes with x times the secant slope of g(x)/x through the
    # last two angles, which makes the closer's Newton step the secant step
    # on g(x)/x.  The slope g is odd in the angle, so g(x)/x is even and has
    # no root at 0; near 3/2, where the peak lies in the grid's first cell,
    # it is close to linear in x, while g falls like x^2 above the peak, so
    # that secant steps on g would close in by a factor of only about 0.6
    # each.  In the other cells both find the same root, and g(x)/x in fewer
    # steps (9,058 warm ratings against 9,393 over 1,846 tilts from 1 to
    # 1.4999999), so every cell takes the one rule.  The closer never rates
    # one angle twice in a row, so x - x0 never vanishes.
    ratios = [(b, g_b / b)]

    def h(x):
        value = slope_at(x)
        x0, ratio0 = ratios[-1]
        ratios.append((x, value / x))
        return value, x * (value / x - ratio0) / (x - x0)

    return h, ratios


def _envelope_slope(gamma: float, tau: float, t0: float, t1: float) -> float:
    # d max F / d gamma at an angle whose in-plane form peaks near (t0, t1).
    # A rating fixes the maximizer only to about the square root of rounding,
    # which leaves the slope off by up to 6e-9, so the slope is read at the
    # maximizer polished by _polish.  There the gradient in (t0, t1) vanishes,
    # so by Danskin's envelope theorem the slope is the partial derivative of
    # F in gamma.  F sees gamma only through s = sin 2g and k = (1 - tau) c,
    # with c = cos 2g, so the slope is 2 c dF/ds - 2 (1 - tau) s dF/dk.  In
    # the terms of _in_plane_f, dF/ds = 1/4 sum x (sin t0 +/- sin t1) / r over
    # both norms, and dF/dk = cos(t0)/2 + z/(2 r) of the "+" norm, the one
    # that holds 2k.
    c, s = math.cos(2.0 * gamma), math.sin(2.0 * gamma)
    k = (1.0 - tau) * c
    t0, t1 = _polish(t0, t1, s, k)
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

    Answers every tilt in [1, 3/2), with the optimum of
    :func:`global_max_violation` at that tilt.  A state violates where
    max F >= 0 (see the module docstring), since tau is where the observed
    value is 0.  Below the maximally-entangled cutoff even pi/4 violates, so
    the critical angle is pi/4 (``c_cr`` 1), with no search.  Where even the
    optimum's max F is at most 1e-10, as happens just below 3/2, no angle
    violates: ``gamma_c`` and ``c_cr`` are None, and the peak value and angle
    are logged at DEBUG level.

    Otherwise the bracket closer of the module docstring brackets the
    crossing above the arg-max angle by Newton steps on max F, with the slope
    from the envelope theorem at no extra rating, starting where
    :func:`pure_state_value_cap` falls to 1e-10.  Each step aims eight
    rounding allowances of max F (1e-15 each) past its root.  The first angle
    is rated cold, from one Newton start, and every later one warm.  The
    angle returned is the bracket's upper end, which the closer rated below
    -1e-15; since a warm rating can only under-rate max F, that end is rated
    again, cold from four starts, and must again fall below -1e-15.  Where
    it does not, as when the step that set it landed an ulp past the floor,
    the angle one bracket width above it (at most pi/4) is rated cold once
    and returned instead if it falls below -1e-15, so the angle returned may
    lie up to twice the bracket's width above the crossing.  So it errs on
    the conservative side; at the cutoff, where the crossing is pi/4
    itself, that end stays pi/4, unrated.
    At tilt 1.3 the search rates 2 angles cold and 5 warm, in 21 Newton
    steps, and the bracket is about 1e-13 wide.  It widens as max F flattens
    toward 3/2 (its slope at the crossing is 8.7e-6 at 1.4988, 1.2e-6 at
    1.4995 and 6.7e-7 at 1.49966), to about 2e-9, 1e-8 and 3e-8 there.  The
    violating angles above the crossing's lower end, here the optimum, are
    assumed to form one interval.

    Raises ``ValueError`` for a tilt outside [1, 3/2), and
    :class:`~bellbound.errors.NumericFailure` when the closer stops on its
    step cap before the bracket is four aims wide, or when neither the
    bracket's upper end nor the angle one width above it rates below -1e-15
    cold.
    """
    optimum = global_max_violation(tau)
    t = optimum.tau
    gamma_c = math.pi / 4 if t < TAU_MAXENT_CUTOFF else _crossing(t, optimum.gamma_star, optimum.s_q)
    c_cr = None if gamma_c is None else math.sin(2.0 * gamma_c)
    return CriticalCurvePoint(tau=t, gamma_c=gamma_c, c_cr=c_cr, optimum=optimum)


def _crossing(t: float, a: float, f_a: float) -> float | None:
    # critical_gamma's angle at a tilt from the cutoff on, bracketed from an
    # angle a below the crossing that rates f_a (the optimum's, a table
    # entry's or the coarse scan's peak): None where that is at most
    # VIOLATION_THRESHOLD.  Logs the search's line.
    if f_a <= VIOLATION_THRESHOLD:
        logger.debug(
            "critical angle at tau %.10g: no violating Schmidt angle, peak value %.3e at gamma %.6f",
            t, f_a, a,
        )
        return None
    rate = _Rater(t)

    def max_f(x):
        # The first angle is rated cold, from one start, every later one warm.
        if rate.maximizers:
            value, theta = rate.warm(x)
        else:
            values, thetas = rate([x], _SCAN_STARTS)
            value, theta = float(values[0]), thetas[0]
        return value, _envelope_slope(x, t, *theta)

    # The crossing lies in [a, pi/4], and pi/4 (C = 1) is always a sound
    # answer, so it enters unrated.  Newton starts where the cap falls to
    # 1e-10, not at the cap's zero, which at the cutoff is pi/4 itself, where
    # max F has a kink.
    a, f_a, b, f_b, closed = _close_bracket(max_f, a, f_a, math.pi / 4, None, _MAX_F_ROUNDING, _cap_root(t))
    if not closed:
        raise NumericFailure(f"crossing bracket [{a!r}, {b!r}] at tilt {t!r} open after {_CLOSE_STEPS} ratings")
    # A warm rating, or a cold one from one start, may under-rate max F,
    # which on this end is the unsound side, so the end returned is rated
    # afresh, cold, from all the starts.
    if b < math.pi / 4:
        cold = float(rate([b])[0][0])
        if not cold < -_MAX_F_ROUNDING:
            # The step that set b may spend its aim on its own error and land
            # an ulp past the floor, where the cold rating reads an ulp or two
            # higher; the angle one bracket width further up is rated instead.
            above = min(b + (b - a), math.pi / 4)
            retry = float(rate([above])[0][0])
            if not retry < -_MAX_F_ROUNDING:
                raise NumericFailure(
                    f"critical angle {b!r} at tilt {t!r} rated {f_b!r} in its bracket but {cold!r} cold, "
                    f"not below -{_MAX_F_ROUNDING!r}, nor is {retry!r} at {above!r}"
                )
            b, cold = above, retry
        f_b = cold
    logger.debug(
        "critical angle at tau %.10g: %d angles rated cold and %d warm, %d Newton steps, "
        "bracket [%.17g, %.17g] with max F %.6e and %s",
        t, rate.cold, rate.warmed, rate.steps, a, b, f_a, "none" if f_b is None else "%.6e" % f_b,
    )
    return b


def _critical_concurrence(tau: float) -> float | None:
    # critical_gamma's c_cr from a violating angle below the crossing and the
    # crossing alone.  Any violating angle is a sound lower end for it: the
    # table entry two nodes above the tilt, where its cold rating violates,
    # and otherwise the coarse scan's peak.  The violating angles above that
    # end are assumed to form one interval, which from the entry spans far
    # less than from the peak.  The closer starts at _cap_root and reads its
    # lower end only in its regula-falsi and midpoint fallbacks, so from
    # either end it found, bit for bit, the crossing critical_gamma finds from
    # the optimum, on every tilt tested (tests/test_bounds_engine.py).
    t = coefficients(tau).tau
    if t < TAU_MAXENT_CUTOFF:
        return 1.0
    gamma_c = _crossing(t, *(_table_start(t) or _scan_start(t)))
    return None if gamma_c is None else math.sin(2.0 * gamma_c)


def _table_start(t: float) -> tuple[float, float] | None:
    # The entry of _CRITICAL_TABLE two nodes above the tilt, and its max F,
    # rated cold from one start with the measurements read back there; None
    # where that rates at most VIOLATION_THRESHOLD.  The critical angle falls
    # as the tilt rises, so the entry should lie below the tilt's crossing,
    # but it is only a hint: its own rating certifies that it violates.
    # One node up, an entry barely violates at a node tilt, and near 3/2 none
    # violates above the threshold.  Logs the route's line.
    node = min(bisect.bisect_right(_TABLE_TAUS, t) + 1, len(_TABLE_TAUS) - 1)
    gamma, rate = _CRITICAL_TABLE[node], _Rater(t)
    values, thetas = rate([gamma], _SCAN_STARTS)
    value = float(values[0])
    violates = value > VIOLATION_THRESHOLD
    logger.debug(
        "Schmidt table at tau %.10g: entry gamma %.17g from node tau %.10g rated max F %.6e cold, %d Newton steps, %s",
        t, gamma, _TABLE_TAUS[node], value, rate.steps,
        "bracketing from it" if violates else "not violating, scanning instead",
    )
    if not violates:
        return None
    _measured_maximum(schmidt_state(gamma), t, gamma, value, thetas[0])
    return gamma, value


def _scan_start(t: float) -> tuple[float, float]:
    # The coarse scan's peak and its cold rating, with the measurements read
    # back there.  The optimum is refined only where the peak rates at most
    # _REFINE_BELOW, so that the answer is None exactly where
    # critical_gamma's is.  Logs the scan's line.
    rate = _Rater(t)
    values, peak = _coarse_scan(rate)
    gamma, value = float(_COARSE_GRID[peak]), float(values[peak])
    refine = value <= _REFINE_BELOW
    logger.debug(
        "Schmidt scan at tau %.10g: %d angles rated cold, %d Newton steps, peak at gamma %.17g with max F %.6e, %s",
        t, rate.cold, rate.steps, gamma, value, "refining the optimum" if refine else "optimum not refined",
    )
    if refine:
        optimum = _refined_optimum(rate, peak)
        return optimum.gamma_star, optimum.s_q
    _measured_maximum(schmidt_state(gamma), t, gamma, value, rate.maximizers[gamma])
    return gamma, value


def pure_state_value_cap(gamma: float, tau: float) -> float:
    """Closed-form cap on the maximal violation by the Schmidt-angle state.

    max{0, 2 (1 - tau) sin^2(gamma) + (sqrt(1 + sin^2(2 gamma)) - 1) / 2}: the
    second term caps the untilted part, the first is the best case for the
    tilt penalty (both marginals at their minimum (1 - cos 2 gamma)/2).
    """
    s2 = math.sin(2.0 * gamma)
    return max(0.0, 2.0 * (1.0 - tau) * math.sin(gamma) ** 2 + (math.sqrt(1.0 + s2 * s2) - 1.0) / 2.0)


def _coarse_caps(tau: float) -> np.ndarray:
    # pure_state_value_cap at every angle of the coarse scan, bit for bit.
    return np.maximum(0.0, 2.0 * (1.0 - tau) * _COARSE_SIN_SQ + _COARSE_UNTILTED)


def max_value_cap(tau: float) -> float:
    """Largest value of :func:`pure_state_value_cap` over Schmidt angles.

    The stationarity condition has the closed-form solution
    cos(2 gamma) = 2 (tau - 1) sqrt(2 / (1 + 4 (tau - 1)^2)), clipped to 1.
    """
    t = float(tau) - 1.0
    c = min(1.0, 2.0 * t * math.sqrt(2.0 / (1.0 + 4.0 * t * t)))
    return pure_state_value_cap(0.5 * math.acos(c), tau)
