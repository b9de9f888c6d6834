"""The tilted Clauser-Horne functional: coefficients and its two evaluations.

The functional is a one-parameter deformation of the CH expression, indexed by
a tilt tau >= 1.  Local (separable-state) statistics satisfy value <= 0 for all
tau; at tau = 1 the plain CH inequality is recovered, and from tau = 3/2 on the
inequality is a conic combination of positivity constraints and holds for every
no-signaling distribution.  The tilt has a detection-efficiency reading through
eta = 1/tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quantum_core import MeasurementSet, TwoQubitState, joint_probability
from .statistics_io import ChSlice, ProbabilityTable, _as_slice, ch_value

TAU_MIN = 1.0
TAU_TRIVIAL = 1.5
# Above this tilt the maximally entangled state cannot violate the inequality.
TAU_MAXENT_CUTOFF = 0.5 + 1.0 / math.sqrt(2.0)


def _validate_tau(tau: float, allow_trivial_regime: bool) -> float:
    t = float(tau)
    if not math.isfinite(t) or t < TAU_MIN:
        domain = "at least 1" if allow_trivial_regime else "in [1, 3/2)"
        raise ValueError(f"tilt parameter must be a finite number {domain}, got {tau!r}")
    if t >= TAU_TRIVIAL and not allow_trivial_regime:
        raise ValueError(
            f"tilt parameter {tau!r} is outside [1, 3/2); the inequality is trivially satisfied there"
        )
    return t


@dataclass(frozen=True, eq=False)
class TiltedChCoefficients:
    """Dense coefficient tensor beta indexed (x, y, a, b), plus the tilt tau."""

    tau: float
    beta: np.ndarray

    @property
    def eta(self) -> float:
        """Symmetric detection-efficiency reading of the tilt."""
        return 1.0 / self.tau


def coefficients(tau: float, *, allow_trivial_regime: bool = False) -> TiltedChCoefficients:
    """Coefficient tensor of the tilted CH functional at tilt tau.

    Nonzero entries: beta[0,1,0,0] = beta[1,0,0,0] = 1 - tau,
    beta[0,1,0,1] = beta[1,0,1,0] = -tau, beta[0,0,0,0] = 1,
    beta[1,1,0,0] = -1; the remaining 10 of 16 entries are zero.
    """
    t = _validate_tau(tau, allow_trivial_regime)
    beta = np.zeros((2, 2, 2, 2), dtype=float)
    beta[0, 1, 0, 0] = 1.0 - t
    beta[1, 0, 0, 0] = 1.0 - t
    beta[0, 1, 0, 1] = -t
    beta[1, 0, 1, 0] = -t
    beta[0, 0, 0, 0] = 1.0
    beta[1, 1, 0, 0] = -1.0
    beta.setflags(write=False)
    return TiltedChCoefficients(tau=t, beta=beta)


@dataclass(frozen=True)
class BellValue:
    """Value of the tilted functional together with the tilt it was taken at."""

    value: float
    tau: float


def evaluate_classical(
    stats: ProbabilityTable | ChSlice, tau: float, *, allow_trivial_regime: bool = False
) -> BellValue:
    """Tilted functional evaluated on observed statistics via the coefficient sum.

    A full table is contracted against the dense beta tensor.  A slice carries
    exactly the support of beta: the two probabilities not stored explicitly,
    p(0,1|0,1) and p(1,0|1,0), are reconstructed from the marginals.
    """
    coeff = coefficients(tau, allow_trivial_regime=allow_trivial_regime)
    if isinstance(stats, ProbabilityTable):
        value = float(np.sum(coeff.beta * stats.p))
        return BellValue(value=value, tau=coeff.tau)
    slc = _as_slice(stats)
    b = coeff.beta
    value = (
        b[0, 0, 0, 0] * slc.j00
        + b[0, 1, 0, 0] * slc.j01
        + b[1, 0, 0, 0] * slc.j10
        + b[1, 1, 0, 0] * slc.j11
        + b[0, 1, 0, 1] * (slc.mA0 - slc.j01)
        + b[1, 0, 1, 0] * (slc.mB0 - slc.j10)
    )
    return BellValue(value=float(value), tau=coeff.tau)


def evaluate_from_ch(
    stats: ProbabilityTable | ChSlice, tau: float, *, allow_trivial_regime: bool = False
) -> BellValue:
    """Tilted functional via its decomposition: CH value plus the marginal penalty.

    value(tau) = value(1) + (1 - tau) [p_A(0|0) + p_B(0|0)].  On no-signaling
    statistics this agrees with :func:`evaluate_classical` to 1e-12; the two
    routes are kept separate so that agreement is a meaningful check.
    """
    t = _validate_tau(tau, allow_trivial_regime)
    slc = _as_slice(stats)
    value = ch_value(slc) + (1.0 - t) * (slc.mA0 + slc.mB0)
    return BellValue(value=float(value), tau=t)


def quantum_value(rho: TwoQubitState, m: MeasurementSet, tau: float) -> BellValue:
    """Quantum expectation of the tilted functional: beta contracted with the Born table."""
    coeff = coefficients(tau)
    value = float(np.sum(coeff.beta * joint_probability(rho, m)))
    return BellValue(value=value, tau=coeff.tau)
