"""Maximal-violation search over product projective measurements.

Three layers:

* :func:`seesaw_max_violation` -- alternating ascent.  With one party fixed,
  the value is affine in each of the other party's outcome-0 projectors, so the
  optimal rank-1 update for a setting is the projector onto the top eigenvector
  of a 2x2 effective operator (obtained by contracting the state with the fixed
  party's operators and the tilted coefficients).  Ascent is monotone because
  each update maximizes over a family containing the current projector.
  One kernel runs the ascent for a stack of states at once, every restart of
  every state in one batch; a single state is a stack of one.  A state
  leaves the batch when its restarts have converged, or earlier when a
  search's retire rule finds its outcome decided.
* :func:`global_max_violation` -- outer scalar search over the Schmidt angle:
  a 64-point coarse grid, evaluated as one stack of states, guards against
  multiple local maxima, then golden-section refinement to 1e-8.  A grid
  state leaves the scan once its analytic cap lies below the best value
  reached so far, since it can no longer be the arg-max.  The refinement runs
  in lookahead rounds: each evaluates, as one stack, the up to 15 angles the
  next four golden-section steps could visit, so about nine batched calls
  reach the angle the plain sequential search would.
* :func:`critical_gamma` -- for a tilt at which the maximally entangled state
  no longer violates, a dyadic 16-section above the arg-max angle locates the
  largest Schmidt angle that still violates; its concurrence is the numeric
  upper bound on the concurrence of any violating state.  Each round
  evaluates, as one stack, the 15 angles the next four bisection steps could
  visit, so the result is the one plain bisection would reach.  An angle
  whose analytic cap rules out a violation is not evaluated, and a state
  leaves the batch once one restart violates.  The optimum the search
  started from is returned with it.

Both searches share one lookahead helper, and build their Schmidt states as
one checked stack.  Retiring states changes no result bit: the ascent is
monotone and every see-saw value lies below the cap, so a retired state's
outcome is known.  Each batch logs its state count, its unconverged best
restarts and the states retired as decided at DEBUG level on the
``"bellbound"`` logger, which is silent unless the application configures
logging (the CLI's ``--log-level``).

:func:`in_plane_grid_max_violation` is an independent oracle for Schmidt-angle
states that never touches the see-saw path, and
:func:`pure_state_value_cap` / :func:`max_value_cap` give the closed-form
analytic caps the search results are checked against.
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
    random_measurement_set,
    schmidt_density_stack,
    schmidt_state,
)

VIOLATION_THRESHOLD = 1e-10
# How far past a bound a see-saw value must be before a state leaves a batch
# as decided.  Each value is formed afresh from O(1) terms, so its rounding
# does not build up over iterations: on 128 angles at 9 tilts the values stood
# at most 4.4e-16 above pure_state_value_cap and 6.7e-16 below an earlier
# value of their restart.
_DECIDED_MARGIN = 1e-12
GAMMA_BISECTION_TOL = 1e-8
COARSE_GAMMA_POINTS = 64
BISECTION_STEPS_PER_ROUND = 4

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

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
    # ``rho`` is one 4x4 matrix or a (S, 4, 4) stack; each matrix of a stack
    # gets, bit for bit, what it would get alone.
    r = rho.reshape(*rho.shape[:-2], 2, 2, 2, 2)
    rho_a = np.einsum("...ikjk->...ij", r)
    rho_b = np.einsum("...ikil->...kl", r)
    r_alice = np.real(np.einsum("...ij,aji->...a", rho_a, _PAULIS))
    r_bob = np.real(np.einsum("...kl,blk->...b", rho_b, _PAULIS))
    corr = np.real(np.einsum("...ikjl,aji,blk->...ab", r, _PAULIS, _PAULIS))
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


def _seesaw_batch(r_alice, r_bob, corr, tau, starts, max_iterations, tol, keep_history, retire=None):
    # Alternating ascent for S states at one tilt: ``r_alice`` and ``r_bob``
    # are (S, 3), ``corr`` is (S, 3, 3), and the four (restarts, 3) start
    # arrays are shared by every state, so rows are laid out (S, restarts, 3).
    # A restart is converged once its value improves by less than ``tol``;
    # a state stops at the iteration where its last restart converges, or at
    # ``max_iterations``, and is then compacted out of the batch.  The optional
    # ``retire(active, values)`` sees, every iteration, the batch indices of
    # the states still running and their (active, restarts) values; the states
    # it flags have a decided outcome and stop there, reporting the values
    # they reached.  Compaction leaves every other state's arithmetic, and so
    # its results, bit for bit as they were.  Returns the
    # final values (S, restarts), the four (S, restarts, 3) measurement
    # arrays, the converged flags, the iteration at which each restart first
    # converged (or stopped), and, with ``keep_history``, each state's list of
    # per-iteration value rows.
    states = corr.shape[0]
    a0, a1, b0, b1 = (np.repeat(np.asarray(s, dtype=float)[None], states, axis=0) for s in starts)
    restarts = a0.shape[1]
    out_values = np.empty((states, restarts))
    out_vectors = tuple(np.empty_like(v) for v in (a0, a1, b0, b1))
    out_converged = np.empty((states, restarts), dtype=bool)
    out_iterations = np.empty((states, restarts), dtype=int)
    histories: list[list[np.ndarray]] = [[] for _ in range(states)]

    active = np.arange(states)
    previous = np.full((states, restarts), -np.inf)
    converged = np.zeros((states, restarts), dtype=bool)
    first_converged = np.zeros((states, restarts), dtype=int)
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
        # Term by term, in this order: the golden-section search compares
        # values about 1e-11 apart, so regrouping the sum moves its optimum.
        values = 0.25 * (
            2.0
            + 2.0 * a_dot
            + (bp @ bob_col)[..., 0]
            + np.einsum("srk,srk->sr", a0, corr_bp)
            + (bm @ bob_col)[..., 0]
            + np.einsum("srk,srk->sr", a1, corr_bm)
        ) - tau * (1.0 + 0.5 * (a_dot + b_dot))
        if keep_history:
            for state, row in zip(active, values):
                histories[state].append(row)
        newly = ~converged & (values - previous < tol)
        first_converged[newly] = iterations
        converged |= newly
        done = converged.all(axis=1)
        if retire is not None:
            done |= retire(active, values)
        if iterations == max_iterations:
            done[:] = True
        if done.any():
            first_converged[done[:, None] & ~converged] = iterations
            finished = active[done]
            out_values[finished] = values[done]
            for out, v in zip(out_vectors, (a0, a1, b0, b1)):
                out[finished] = v[done]
            out_converged[finished] = converged[done]
            out_iterations[finished] = first_converged[done]
            if done.all():
                break
            keep = ~done
            (active, values, converged, first_converged, a0, a1, b0, b1, corr_bp, corr_bm,
             corr, corr_t, alice_col, bob_col, tilt_pull_a, tilt_pull_b) = (
                x[keep]
                for x in (active, values, converged, first_converged, a0, a1, b0, b1, corr_bp, corr_bm,
                          corr, corr_t, alice_col, bob_col, tilt_pull_a, tilt_pull_b)
            )
        previous = values
    return out_values, out_vectors, out_converged, out_iterations, histories


def _chsh_start() -> tuple[np.ndarray, ...]:
    inv = 1.0 / math.sqrt(2.0)
    return (
        np.array([0.0, 0.0, 1.0]),
        np.array([1.0, 0.0, 0.0]),
        np.array([inv, 0.0, inv]),
        np.array([-inv, 0.0, inv]),
    )


def _random_start(rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    vectors = []
    for _ in range(4):
        v = rng.normal(size=3)
        while np.linalg.norm(v) < 1e-8:
            v = rng.normal(size=3)
        vectors.append(v / np.linalg.norm(v))
    return tuple(vectors)


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


def _schmidt_peak_values(gammas, tau: float, cfg: SeesawConfig, retire=None) -> tuple[np.ndarray, np.ndarray]:
    # Best see-saw value of each Schmidt-angle state, all states in one batch,
    # and whether that best restart converged; each pair equals the value and
    # flag of ``seesaw_max_violation(schmidt_state(gamma), tau, cfg)``.  A
    # state stopped by the ``retire`` rule of ``_seesaw_batch`` reports the
    # value it had reached, which settles only what that rule decided.
    r_alice, r_bob, corr = _pauli_decomposition(schmidt_density_stack(gammas))
    retired = np.zeros(len(corr), dtype=bool)

    def record(active, values):
        decided = retire(active, values)
        retired[active[decided]] = True
        return decided

    values, _, converged, _, _ = _seesaw_batch(
        r_alice, r_bob, corr, float(tau), _restart_starts(cfg), cfg.max_iterations, cfg.convergence_tol, False,
        None if retire is None else record,
    )
    best = np.argmax(values, axis=1)
    rows = np.arange(len(best))
    best_converged = converged[rows, best]
    message = "see-saw batch at tau %.10g: %d states, %d unconverged best restarts"
    counts = [len(best), int(np.count_nonzero(~best_converged & ~retired))]
    if retire is not None:
        message += ", %d retired as decided"
        counts.append(int(np.count_nonzero(retired)))
    logger.debug(message, tau, *counts)
    return values[rows, best], best_converged


def _retire_below_lead(caps: np.ndarray):
    # Retire rule for an arg-max over states with the given value caps
    # (pure_state_value_cap).  A state's see-saw values never exceed its cap,
    # and the ascent is monotone, so the best value any state has reached is
    # a lower bound on the final value of the arg-max.  A state whose cap lies
    # below that lead, by more than the rounding _DECIDED_MARGIN covers, can
    # no longer be the arg-max.
    lead = -math.inf

    def retire(active, values):
        nonlocal lead
        lead = max(lead, float(values.max()))
        return caps[active] + _DECIDED_MARGIN < lead

    return retire


def _retire_violating(active, values):
    # Retire rule for the violation test: a restart above the threshold by
    # _DECIDED_MARGIN ends above it too, since the ascent is monotone up to
    # rounding below that margin, and the best restart ends at least as high.
    return (values > VIOLATION_THRESHOLD + _DECIDED_MARGIN).any(axis=1)


def _lookahead_round(step, judge, state):
    # Up to BISECTION_STEPS_PER_ROUND steps of a sequential search from one
    # batched judgment.  ``step(state)`` is None where the sequential search
    # stops, else ``(point, decide, follow)``: the point the step judges,
    # ``decide(judgment)`` for the branch it takes, and
    # ``follow(branch, judgment)`` for the state after it.  The points depend
    # on the branches alone, so following both branches with no judgment yet
    # (None) lists every point the steps could visit, as the sequential search
    # computes them; ``judge`` rates them all in one call, then the steps are
    # walked.
    points: dict[tuple[bool, ...], float] = {}

    def expand(state, path: tuple[bool, ...]) -> None:
        taken = step(state) if len(path) < BISECTION_STEPS_PER_ROUND else None
        if taken is not None:
            point, _, follow = taken
            points[path] = point
            for branch in (False, True):
                expand(follow(branch, None), path + (branch,))

    expand(state, ())
    judged = dict(zip(points, judge(list(points.values()))))
    path: tuple[bool, ...] = ()
    while path in points:
        _, decide, follow = step(state)
        branch = bool(decide(judged[path]))
        state = follow(branch, judged[path])
        path += (branch,)
    return state


def _golden_section_max(values, lo: float, hi: float, tol: float) -> float:
    # Golden-section search for a maximum, in lookahead rounds.  ``values``
    # rates a list of points in one call.  A state is (lo, hi, c, d, known,
    # c_is_new): the interval, its two interior points, the value of the one
    # already rated, and which one the next step rates.  Each step compares
    # fc >= fd and moves exactly as the sequential search does.
    def step(state):
        lo, hi, c, d, known, c_is_new = state
        if hi - lo <= tol:
            return None

        def pair(value):
            return (value, known) if c_is_new else (known, value)

        def decide(value) -> bool:
            fc, fd = pair(value)
            return fc >= fd

        def follow(keep_left: bool, value):
            fc, fd = pair(value)
            if keep_left:
                return (lo, d, d - _INV_GOLDEN * (d - lo), c, fc, True)
            return (c, hi, d, c + _INV_GOLDEN * (hi - c), fd, False)

        return (c if c_is_new else d), decide, follow

    c = hi - _INV_GOLDEN * (hi - lo)
    d = lo + _INV_GOLDEN * (hi - lo)
    fc, fd = values([c, d])
    # d is rated already, so the first step is walked here, outside a round.
    state = (lo, hi, c, d, fc, False)
    taken = step(state)
    if taken is not None:
        _, decide, follow = taken
        state = follow(bool(decide(fd)), fd)
        while step(state) is not None:
            state = _lookahead_round(step, values, state)
    return 0.5 * (state[0] + state[1])


def global_max_violation(tau: float, cfg: SeesawConfig = DEFAULT_CONFIG) -> OptimumPoint:
    """Maximal violation over all two-qubit states at a given tilt.

    By convexity the optimum is attained on pure states, parametrized in the
    Schmidt basis by a single angle; the scan assumes no unimodality (a coarse
    64-point grid first, all its states in one see-saw batch) and
    golden-section refines to 1e-8 in the angle.  A grid state leaves the
    batch once :func:`pure_state_value_cap` at its angle lies below the best
    value any state has reached: it can no longer be the arg-max, which is
    all the scan keeps.  The refinement judges, in one see-saw batch per
    round, the up to 15 angles the next four golden-section steps could
    visit, so it returns the angle the sequential search would, from about
    nine batches instead of 33 single-state calls.
    """
    coefficients(tau)

    def values(gammas) -> np.ndarray:
        return _schmidt_peak_values(gammas, tau, cfg)[0]

    grid = np.linspace(0.0, math.pi / 4, COARSE_GAMMA_POINTS)
    caps = np.array([pure_state_value_cap(float(g), tau) for g in grid])
    coarse, _ = _schmidt_peak_values(grid, tau, cfg, _retire_below_lead(caps))
    peak = int(np.argmax(coarse))
    lo = grid[max(peak - 1, 0)]
    hi = grid[min(peak + 1, COARSE_GAMMA_POINTS - 1)]
    gamma_star = _golden_section_max(values, float(lo), float(hi), 1e-8)
    final = seesaw_max_violation(schmidt_state(gamma_star), tau, cfg)
    return OptimumPoint(
        tau=float(tau),
        gamma_star=float(gamma_star),
        s_q=final.value.value,
        measurements=final.measurements,
    )


def _bisection_round(violates, lo: float, hi: float) -> tuple[float, float]:
    # Up to BISECTION_STEPS_PER_ROUND steps of plain bisection from one batched
    # evaluation of ``violates``; the steps the tolerance would stop are cut.
    def step(state):
        lo, hi = state
        if hi - lo <= GAMMA_BISECTION_TOL:
            return None
        mid = 0.5 * (lo + hi)
        return mid, bool, lambda violated, _: (mid, hi) if violated else (lo, mid)

    return _lookahead_round(step, violates, (lo, hi))


def critical_gamma(tau: float, cfg: SeesawConfig = DEFAULT_CONFIG) -> CriticalCurvePoint:
    """Largest Schmidt angle whose state still violates at tilt ``tau``.

    Defined for tilts from the maximally-entangled cutoff up to (not including)
    3/2.  Locates the violation/no-violation crossing above the arg-max angle,
    with "violates" meaning a see-saw value above 1e-10, to 1e-8 in the angle,
    by a dyadic 16-section: each round judges, in one see-saw batch, the 15
    angles the next four bisection steps could visit, so the result is the
    angle plain bisection would return.  An angle whose
    :func:`pure_state_value_cap` is at most half the threshold is judged
    non-violating without a see-saw, and a state counts as violating, and
    leaves the batch, as soon as one restart passes the threshold by 1e-12;
    monotone ascent makes both judgments the ones the full see-saw would
    reach.  The optimum from :func:`global_max_violation` that the search
    starts from is returned too.
    """
    t = float(tau)
    if not (TAU_MAXENT_CUTOFF - 1e-12 <= t < TAU_TRIVIAL):
        raise ValueError(
            f"critical angle is defined for tilts in [{TAU_MAXENT_CUTOFF:.10f}, 1.5), got {tau!r}"
        )
    optimum = global_max_violation(t, cfg)
    if optimum.s_q <= VIOLATION_THRESHOLD:
        raise NumericFailure(
            f"no violating Schmidt angle found at tilt {t!r} (peak value {optimum.s_q:.3e} "
            f"at gamma {optimum.gamma_star:.6f}); the search is expected to violate below 3/2"
        )

    def violates(gammas) -> np.ndarray:
        # An angle whose cap is at most half the threshold cannot violate,
        # since see-saw values exceed the cap by less than _DECIDED_MARGIN;
        # its see-saw is not run.
        judged = np.array([pure_state_value_cap(g, t) > VIOLATION_THRESHOLD / 2 for g in gammas])
        if judged.any():
            values, _ = _schmidt_peak_values(np.asarray(gammas)[judged], t, cfg, _retire_violating)
            judged[judged] = values > VIOLATION_THRESHOLD
        return judged

    # pi/4 never violates on this domain: its cap, (1 - t) + (sqrt 2 - 1)/2,
    # is at most 1e-12 for t >= cutoff - 1e-12, far below the threshold.  So
    # [gamma_star, pi/4] brackets the crossing.
    lo, hi = optimum.gamma_star, math.pi / 4
    while hi - lo > GAMMA_BISECTION_TOL:
        lo, hi = _bisection_round(violates, lo, hi)
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
