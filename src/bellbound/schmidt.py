"""max F: the exact maximal violation of a Schmidt-angle state.

For the state cos(g)|00> + sin(g)|11>, write c = cos 2g and s = sin 2g.
Alice's best response is the norm of her coefficient vector, and Bob's two
Bloch vectors enter only through their polar angles t0, t1 and the
difference of their azimuths, through X = 2 s^2 sin t0 sin t1 cos(dphi).  The
value is concave in X, so the exact maximum over all rank-1 projective
measurements is the maximum over (t0, t1) of

    F = 1/2 - tau + (1 - tau) c cos(t0) / 2 + sqrt(A + X*) / 4 + sqrt(B - X*) / 4

with A = s^2 (sin^2 t0 + sin^2 t1) + (cos t0 + cos t1 + 2 (1 - tau) c)^2,
B = s^2 (sin^2 t0 + sin^2 t1) + (cos t0 - cos t1)^2 and
X* = clip((B - A)/2, +/- 2 s^2 sin t0 sin t1).  :func:`_schmidt_maxima`
finds max F to rounding by damped Newton from the best starts of a coarse
grid of (t0, t1).  One start is the first grid index among exact ties for
the best value; more are the last of ``np.argsort``, whatever their order
among ties.  The grid's values are formed from its tilt-free sums
(sin t0 +/- sin t1, cos t0 + cos t1 and (cos t0 - cos t1)^2), computed once
at import, and equal the in-plane form's bit for bit.  Where the best run
stops on its step cap, as it does at some angles for tilts just above 1,
its end is polished by Newton steps on the gradient of the in-plane form.

The Schmidt-angle searches of :mod:`bellbound.optimizer` rate angles here,
and so does :func:`~bellbound.seesaw.seesaw_max_violation` for a pure state,
at its Schmidt angle.
"""

from __future__ import annotations

import math

import numpy as np

# Starts of the maximizer of F: t0 at half steps in (0, pi), t1 at whole
# steps round the circle, so that no start has t1 = +/- t0, where a norm of
# the in-plane form vanishes.  A rating runs Newton from the best
# _NEWTON_STARTS of them unless its caller asks for fewer.
_GRID_STEPS = 12
_GRID_T0, _GRID_T1 = (
    g.ravel().tolist()
    for g in np.meshgrid(
        (np.arange(_GRID_STEPS) + 0.5) * (math.pi / _GRID_STEPS),
        np.arange(2 * _GRID_STEPS) * (math.pi / _GRID_STEPS),
        indexing="ij",
    )
)
_GRID_SIN0, _GRID_COS0, _GRID_SIN1, _GRID_COS1 = (
    f(np.array(t)) for t in (_GRID_T0, _GRID_T1) for f in (np.sin, np.cos)
)
# The grid's tilt-free sums, formed once as _in_plane_f forms them.
_GRID_SIN_SUM, _GRID_SIN_DIFF = _GRID_SIN0 + _GRID_SIN1, _GRID_SIN0 - _GRID_SIN1
_GRID_COS_SUM = _GRID_COS0 + _GRID_COS1
_GRID_COS_DIFF_SQ = (_GRID_COS0 - _GRID_COS1) * (_GRID_COS0 - _GRID_COS1)
_NEWTON_STARTS = 4
_NEWTON_MAX_STEPS = 60


def _in_plane_f(sin0, cos0, sin1, cos1, s, k):
    # F - (1/2 - tau) with Bob's vectors in the x-z plane at polar angles t0
    # and t1 round the whole circle, from their sines and cosines, and
    # k = (1 - tau) c, with its gradient and Hessian (h00, h01, h11).  t1 in
    # (pi, 2 pi) is the polar angle 2 pi - t1 at azimuth difference pi, so X
    # is at an end of its clip range.  That is where the maximum of F lies:
    # between the ends F is sqrt((A + B)/2)/2 plus terms of t0, and (A + B)/2
    # is convex in cos t1, so F has no local maximum in t1 there; at
    # sin t0 sin t1 = 0 the range is {0}, one of its own ends.  Each norm is
    # that of w = (s (sin t0 +/- sin t1), cos t0 +/- cos t1 [+ 2k]); the
    # second derivative of (s sin t, cos t) is minus itself.  A vanishing
    # norm is a kink at a minimum and adds no derivative.
    value = 0.5 * k * cos0
    grad0, grad1 = -0.5 * k * sin0, 0.0
    h00, h01, h11 = -value, 0.0, 0.0
    ss = s * s
    ssc0, ssc1 = ss * cos0, ss * cos1
    a0, a1, p = ssc0 * cos0 + sin0 * sin0, ssc1 * cos1 + sin1 * sin1, ssc0 * cos1 + sin0 * sin1
    # The "+" norm, which holds 2k.
    x = s * (sin0 + sin1)
    z = cos0 + cos1 + 2.0 * k
    r = (x * x + z * z) ** 0.5
    value = value + 0.25 * r
    if r > 0.0:
        xs = x * s
        w0 = (xs * cos0 - z * sin0) / r
        w1 = (xs * cos1 - z * sin1) / r
        grad0 += 0.25 * w0
        grad1 += 0.25 * w1
        h00 += 0.25 * ((a0 - xs * sin0 - z * cos0) / r - w0 * w0 / r)
        h11 += 0.25 * ((a1 - (xs * sin1 + z * cos1)) / r - w1 * w1 / r)
        h01 += 0.25 * (p / r - w0 * w1 / r)
    # The "-" norm: each sign flip of the "+" norm's terms is exact.
    x = s * (sin0 - sin1)
    z = cos0 - cos1
    r = (x * x + z * z) ** 0.5
    value = value + 0.25 * r
    if r > 0.0:
        xs = x * s
        w0 = (xs * cos0 - z * sin0) / r
        w1 = -(xs * cos1 - z * sin1) / r
        grad0 += 0.25 * w0
        grad1 += 0.25 * w1
        h00 += 0.25 * ((a0 - xs * sin0 - z * cos0) / r - w0 * w0 / r)
        h11 += 0.25 * ((a1 + (xs * sin1 + z * cos1)) / r - w1 * w1 / r)
        h01 += 0.25 * (-p / r - w0 * w1 / r)
    return value, grad0, grad1, h00, h01, h11


def _grid_f(s, k):
    # The value of _in_plane_f at every grid start, bit for bit, for columns
    # s and k (a row per angle), from the grid's tilt-free sums.
    x = s * _GRID_SIN_SUM
    z = _GRID_COS_SUM + 2.0 * k
    plus = (x * x + z * z) ** 0.5
    x = s * _GRID_SIN_DIFF
    minus = (x * x + _GRID_COS_DIFF_SQ) ** 0.5
    return 0.5 * k * _GRID_COS0 + 0.25 * plus + 0.25 * minus


def _newton_max(t0: float, t1: float, s: float, k: float):
    # Damped (Levenberg-Marquardt) Newton ascent of the in-plane form from one
    # start: the Hessian is shifted until negative definite, a step is kept
    # only if F rises, and the shift grows tenfold on a refused step and
    # shrinks tenfold on a kept one.  Stops once the predicted rise is below
    # 1e-17.  Returns the value, the angles and the steps taken.
    current = _in_plane_f(math.sin(t0), math.cos(t0), math.sin(t1), math.cos(t1), s, k)
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
        trial = _in_plane_f(math.sin(n0), math.cos(n0), math.sin(n1), math.cos(n1), s, k)
        if trial[0] > value:
            t0, t1, current, shift = n0, n1, trial, 0.1 * shift
        else:
            shift = 10.0 * shift + 1e-3 * (abs(h00) + abs(h11)) + 1e-12
    return current[0], t0, t1, steps


def _polish(t0: float, t1: float, s: float, k: float) -> tuple[float, float]:
    # The maximizer of the in-plane form near (t0, t1), resolved far below the
    # rounding of F: the angles are wrapped to [-pi, pi] and take Newton steps
    # on the gradient, the Hessian shifted wherever it is not negative
    # definite, until a step is below 1e-12 or the Hessian is singular to
    # rounding.  It is at pi/4, where s = 1 and c = 0 leave F a function of
    # t0 - t1 alone, so that its maximizers form a line.
    t0, t1 = math.remainder(t0, 2.0 * math.pi), math.remainder(t1, 2.0 * math.pi)
    for _ in range(_NEWTON_MAX_STEPS):
        _, g0, g1, h00, h01, h11 = _in_plane_f(math.sin(t0), math.cos(t0), math.sin(t1), math.cos(t1), s, k)
        if abs(h00 * h11 - h01 * h01) <= 1e-15 * (h00 + h11) ** 2:
            break
        mu = 2.0 * max(0.5 * (h00 + h11) + math.hypot(0.5 * (h00 - h11), h01), 0.0)
        a, d = h00 - mu, h11 - mu
        det = a * d - h01 * h01
        d0, d1 = (h01 * g1 - d * g0) / det, (h01 * g0 - a * g1) / det
        t0, t1 = t0 + d0, t1 + d1
        if abs(d0) + abs(d1) <= 1e-12:
            break
    return t0, t1


def _finish(run, s: float, k: float):
    # The value and maximizer of a Newton run.  Where the run stopped on its
    # step cap, as the best run does at some angles for tilts just above 1,
    # its end is polished and the polished value kept if it is higher.
    value, t0, t1, steps = run
    if steps == _NEWTON_MAX_STEPS:
        p0, p1 = _polish(t0, t1, s, k)
        polished = _in_plane_f(math.sin(p0), math.cos(p0), math.sin(p1), math.cos(p1), s, k)[0]
        if polished > value:
            return polished, p0, p1
    return value, t0, t1


def _schmidt_maxima(gammas, tau: float, starts: int = _NEWTON_STARTS):
    # max F at each Schmidt angle, the maximizing (t0, t1) of the in-plane
    # form, and the Newton steps taken.  Newton runs from each angle's best
    # ``starts`` grid starts, and the best run is finished by _finish.  One
    # start is the first best index (np.argmax); more are the last of
    # np.argsort, whose pick among exact ties max(runs) does not see.
    gammas = [float(g) for g in gammas]
    s = [math.sin(2.0 * g) for g in gammas]
    k = [(1.0 - tau) * math.cos(2.0 * g) for g in gammas]
    grid = _grid_f(np.array(s)[:, None], np.array(k)[:, None])
    rows = np.argmax(grid, axis=1)[:, None] if starts == 1 else np.argsort(grid, axis=1)[:, -starts:]
    values, thetas, steps = [], [], 0
    for row, s_row, k_row in zip(rows.tolist(), s, k):
        runs = [_newton_max(_GRID_T0[i], _GRID_T1[i], s_row, k_row) for i in row]
        value, t0, t1 = _finish(max(runs), s_row, k_row)
        values.append(0.5 - tau + value)
        thetas.append((t0, t1))
        steps += sum(run[3] for run in runs)
    return np.array(values), thetas, steps
