"""The invariants behind ``bellbound verify``, as one ordered registry.

:data:`INVARIANTS` lists ``(name, check)`` pairs; ``check(seed, tol)`` returns
``(ok, detail)``.  Random draws come from ``default_rng([seed, k])``, a stream
``k`` per check, or from ``SeesawConfig(rng_seed=seed)``; ``tol`` is the
validation tolerance of the demo-slice report.  ``verify`` prints one line per
entry in order, and the acceptance suite runs each entry as a test named after
it.  The module also holds the oracles the checks use: the kron/trace Born
rule, which shares no code with the library's Bloch-form table, and the
cutoff check of the maximally entangled state.  Only ``verify`` imports it.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from . import bell_model, bounds_engine, optimizer, quantum_core, seesaw, statistics_io


def projector_from_bloch(direction, outcome: int) -> np.ndarray:
    """Qubit projector (1 + (-1)^outcome n.sigma)/2 as a 2x2 matrix."""
    paulis = (quantum_core.PAULI_X, quantum_core.PAULI_Y, quantum_core.PAULI_Z)
    sign = -1.0 if outcome else 1.0
    return 0.5 * (np.eye(2) + sign * sum(c * pauli for c, pauli in zip(direction.as_array(), paulis)))


def kron_born_table(rho, m) -> np.ndarray:
    """Independent Born rule: p[x, y, a, b] = tr(rho A_x^a (x) B_y^b).

    Builds each projector as a matrix and takes one 4x4 Kronecker product and
    trace per entry -- a different code path from the library's Bloch-form
    rule, which never forms an operator.
    """
    p = np.empty((2, 2, 2, 2))
    for x, y, a, b in product(range(2), repeat=4):
        op = np.kron(projector_from_bloch(m.alice[x], a), projector_from_bloch(m.bob[y], b))
        p[x, y, a, b] = np.trace(rho.matrix @ op).real
    return p


def random_single_qubit_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-random 2x2 unitary (QR of a complex Gaussian with phase fixing)."""
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def maxent_cutoff(taus, measurement_sets_per_tau: int, cfg=seesaw.DEFAULT_CONFIG):
    """``(violation, residual)`` of the maximally entangled state at each tilt in [cutoff, 3/2).

    ``violation`` is the see-saw's maximal value.  The state's marginals are
    exactly 1/2, so its tilted value is its untilted value minus (tau - 1);
    ``residual`` is the largest miss of that identity over measurement sets
    drawn from ``default_rng([cfg.rng_seed, index])``.
    """
    rho = quantum_core.maximally_entangled_state()
    rows = []
    for index, tau in enumerate(np.asarray(taus, dtype=float)):
        t = float(tau)
        if not (bell_model.TAU_MAXENT_CUTOFF - 1e-12 <= t < bell_model.TAU_TRIVIAL):
            raise ValueError(f"grid tilt {t!r} outside [{bell_model.TAU_MAXENT_CUTOFF:.10f}, 1.5)")
        violation = seesaw.seesaw_max_violation(rho, t, cfg).value.value
        rng = np.random.default_rng([cfg.rng_seed, index])
        residual = 0.0
        for _ in range(measurement_sets_per_tau):
            m = quantum_core.random_measurement_set(rng)
            tilted = bell_model.quantum_value(rho, m, t).value
            untilted = bell_model.quantum_value(rho, m, 1.0).value
            residual = max(residual, abs(tilted - (untilted - (t - 1.0))))
        rows.append((violation, residual))
    return rows


def tilt_domain(seed, tol):
    for bad in (1.6, 0.9):
        try:
            bell_model.coefficients(bad)
        except ValueError:
            continue
        return False, f"tilt {bad} was accepted"
    return True, "tilts 1.6 and 0.9 rejected"


def coefficient_support(seed, tol):
    rng = np.random.default_rng([seed, 1])
    worst = 0.0
    for _ in range(20):
        t = float(rng.uniform(1.0, 1.5))
        beta = bell_model.coefficients(t).beta
        if int(np.count_nonzero(beta)) != 6:
            return False, "support is not six entries"
        expected = np.zeros((2, 2, 2, 2))
        expected[0, 1, 0, 0] = expected[1, 0, 0, 0] = 1.0 - t
        expected[0, 1, 0, 1] = expected[1, 0, 1, 0] = -t
        expected[0, 0, 0, 0] = 1.0
        expected[1, 1, 0, 0] = -1.0
        worst = max(worst, float(np.max(np.abs(beta - expected))))
    return worst <= 1e-15, f"max coefficient residual {worst:.3e}"


def decomposition_identity(seed, tol):
    rng = np.random.default_rng([seed, 2])
    worst = 0.0
    for _ in range(1000):
        table = statistics_io.random_nosignaling_table(rng)
        t = float(rng.uniform(1.0, 1.5))
        direct = bell_model.evaluate_classical(table, t).value
        via_slice = bell_model.evaluate_classical(statistics_io.ch_slice(table), t).value
        decomposed = bell_model.evaluate_from_ch(table, t).value
        worst = max(worst, abs(direct - decomposed), abs(via_slice - decomposed))
    return worst <= 1e-12, f"max residual {worst:.3e} over 1000 boxes"


def tilt_slope(seed, tol):
    rng = np.random.default_rng([seed, 3])
    worst = 0.0
    for _ in range(200):
        table = statistics_io.random_nosignaling_table(rng)
        slc = statistics_io.ch_slice(table)
        t1 = float(rng.uniform(1.0, 1.2))
        t2 = float(rng.uniform(1.25, 1.499))
        v1 = bell_model.evaluate_classical(slc, t1).value
        v2 = bell_model.evaluate_classical(slc, t2).value
        slope = (v2 - v1) / (t2 - t1)
        worst = max(worst, abs(slope + (slc.mA0 + slc.mB0)))
    return worst <= 1e-12, f"max slope residual {worst:.3e}"


def trivial_nonpositivity(seed, tol):
    rng = np.random.default_rng([seed, 4])
    worst = -math.inf
    for _ in range(1000):
        table = statistics_io.random_nosignaling_table(rng)
        worst = max(worst, bell_model.evaluate_classical(table, 1.5, allow_trivial_regime=True).value)
    return worst <= 1e-12, f"max value at tilt 3/2 is {worst:.3e}"


def quantum_classical_consistency(seed, tol):
    # simulate and quantum_value share one Born table, so the reference is
    # the kron/trace rule, summed over the entries in product order.
    rng = np.random.default_rng([seed, 5])
    worst = 0.0
    worst_validation = 0.0
    for i in range(50):
        rho = quantum_core.random_two_qubit_state(rng, pure=bool(i % 2))
        m = quantum_core.random_measurement_set(rng)
        t = float(rng.uniform(1.0, 1.5))
        table = statistics_io.simulate(rho, m)
        report = statistics_io.validate(table, 1e-10)
        worst_validation = max(
            worst_validation,
            report.normalization_residual,
            report.nosignaling_residual,
            report.consistency_residual,
        )
        beta = bell_model.coefficients(t).beta
        born = kron_born_table(rho, m)
        reference = sum(beta[entry] * born[entry] for entry in product(range(2), repeat=4))
        direct = bell_model.quantum_value(rho, m, t).value
        simulated = bell_model.evaluate_classical(table, t).value
        worst = max(worst, abs(direct - reference), abs(simulated - reference))
    ok = worst <= 1e-12 and worst_validation <= 1e-10
    return ok, f"max value residual {worst:.3e}, max structural residual {worst_validation:.3e}"


def schmidt_concurrence(seed, tol):
    worst = 0.0
    for gamma in np.linspace(0.0, math.pi / 4, 50):
        c = quantum_core.concurrence(quantum_core.schmidt_state(float(gamma)))
        worst = max(worst, abs(c - math.sin(2.0 * float(gamma))))
    return worst <= 1e-9, f"max residual {worst:.3e} on 50 angles"


def local_unitary_invariance(seed, tol):
    rng = np.random.default_rng([seed, 6])
    worst = 0.0
    for i in range(100):
        rho = quantum_core.random_two_qubit_state(rng, pure=bool(i % 2))
        base = quantum_core.concurrence(rho)
        u = np.kron(random_single_qubit_unitary(rng), random_single_qubit_unitary(rng))
        rotated = quantum_core.TwoQubitState(u @ rho.matrix @ u.conj().T)
        worst = max(worst, abs(quantum_core.concurrence(rotated) - base))
    return worst <= 1e-9, f"max residual {worst:.3e} over 100 rotations"


def projective_marginal_law(seed, tol):
    rng = np.random.default_rng([seed, 7])
    worst = 0.0
    interval_excess = 0.0
    for _ in range(50):
        gamma = float(rng.uniform(0.0, math.pi / 4))
        rho = quantum_core.schmidt_state(gamma)
        m = quantum_core.random_measurement_set(rng)
        slc = statistics_io.ch_slice(statistics_io.simulate(rho, m))
        cos2g = math.cos(2.0 * gamma)
        for marginal, direction in (
            (slc.mA0, m.alice[0]),
            (slc.mA1, m.alice[1]),
            (slc.mB0, m.bob[0]),
            (slc.mB1, m.bob[1]),
        ):
            predicted = 0.5 * (1.0 + direction.z * cos2g)
            worst = max(worst, abs(marginal - predicted))
            interval_excess = max(
                interval_excess,
                0.5 * (1.0 - cos2g) - marginal,
                marginal - 0.5 * (1.0 + cos2g),
            )
    ok = worst <= 1e-12 and interval_excess <= 1e-12
    return ok, f"max law residual {worst:.3e}, max interval excess {interval_excess:.3e}"


def tsirelson_point(seed, tol):
    cfg = seesaw.SeesawConfig(rng_seed=seed)
    value = seesaw.seesaw_max_violation(quantum_core.maximally_entangled_state(), 1.0, cfg).value.value
    residual = abs(value - (1.0 / math.sqrt(2.0) - 0.5))
    return residual <= 1e-6, f"value {value:.9f}, residual {residual:.3e}"


def maxent_silence(seed, tol):
    rows = maxent_cutoff([1.2072, 1.3, 1.4, 1.49], 25, seesaw.SeesawConfig(rng_seed=seed))
    worst_violation = max(violation for violation, _ in rows)
    worst_identity = max(residual for _, residual in rows)
    ok = worst_violation <= 1e-9 and worst_identity <= 1e-12
    return ok, f"max violation {worst_violation:.3e}, max identity residual {worst_identity:.3e}"


def cap_dominance(seed, tol):
    cfg = seesaw.SeesawConfig(rng_seed=seed)
    worst = -math.inf
    for gamma in (0.2, 0.45, 0.7, math.pi / 4):
        for t in (1.0, 1.1, 1.25, 1.4):
            value = seesaw.seesaw_max_violation(quantum_core.schmidt_state(gamma), t, cfg).value.value
            worst = max(worst, value - optimizer.pure_state_value_cap(gamma, t))
    return worst <= 1e-9, f"max excess over the analytic cap {worst:.3e}"


def bound_monotonicity(seed, tol):
    s_grid = np.linspace(0.0, 1.0 / math.sqrt(2.0) - 0.5, 200)
    lowers = [bounds_engine.lower_bound_concurrence(float(s)) for s in s_grid]
    if any(b > a + 1e-15 for a, b in zip(lowers[1:], lowers)):
        return False, "lower bound is not nondecreasing"
    t_grid = np.linspace(bell_model.TAU_MAXENT_CUTOFF, 1.5, 200)
    uppers = [bounds_engine.upper_bound_analytic(float(t)) for t in t_grid]
    if any(b > a + 1e-12 for a, b in zip(uppers, uppers[1:])):
        return False, "analytic upper bound is not nonincreasing"
    return True, "lower bound nondecreasing, analytic upper bound nonincreasing"


def demo_slice_bounds(seed, tol):
    report = bounds_engine.assemble_report(statistics_io.load_demo_slice(), projective=True, tol=tol)
    ok = (
        abs(report.s_ch_obs - 0.1826) <= 1e-4
        and abs(report.lower_bound - 0.9297) <= 1e-3
        and report.tau_obs is not None
        and abs(report.tau_obs - 1.2102) <= 1e-3
        and abs(report.upper_bound_analytic - 0.9999) <= 1e-4
        and abs(report.upper_bound_marginal - 0.9806) <= 5e-4
    )
    return ok, (
        f"lower {report.lower_bound:.4f}, threshold {report.tau_obs:.4f}, "
        f"analytic {report.upper_bound_analytic:.4f}, marginal {report.upper_bound_marginal:.4f}"
    )


INVARIANTS = [
    ("tilt domain rejects out-of-range requests", tilt_domain),
    ("coefficient tensor has six-entry support", coefficient_support),
    ("decomposition identity on no-signaling boxes", decomposition_identity),
    ("value is affine in the tilt with slope -(mA0+mB0)", tilt_slope),
    ("nonpositivity at tilt 3/2", trivial_nonpositivity),
    ("quantum value matches simulated classical value", quantum_classical_consistency),
    ("schmidt-state concurrence equals sin(2 gamma)", schmidt_concurrence),
    ("concurrence invariant under local unitaries", local_unitary_invariance),
    ("projective marginals follow the cosine law", projective_marginal_law),
    ("tsirelson point reproduced by see-saw", tsirelson_point),
    ("maximally entangled state silent past the cutoff", maxent_silence),
    ("analytic cap dominates see-saw values", cap_dominance),
    ("bounds are monotone", bound_monotonicity),
    ("bundled demo slice reproduces its bounds", demo_slice_bounds),
]
