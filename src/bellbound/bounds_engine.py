"""Concurrence bounds assembled from observed statistics.

Given a validated table or slice, the report carries:

* the untilted CH value and the lower bound it implies on the concurrence;
* the largest tilt at which the statistics still violate (closed form, since
  the value is affine in the tilt), when that tilt reaches the
  maximally-entangled cutoff;
* an analytic upper bound on the concurrence at that tilt, optionally
  sharpened by the numeric critical-curve search;
* under the extra assumption of projective measurements, the marginal-based
  upper bound.

Every bound is clamped to the physical range [0, 1]; bounds that cannot be
derived from the given data are reported as absent with a reason.  A
bracket whose lower bound exceeds an upper bound is refused, never reported.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .bell_model import TAU_MAXENT_CUTOFF, TAU_TRIVIAL, ch_value
from .errors import NoViolationFound, NumericFailure, ValidationFailure
from .optimizer import critical_gamma
from .statistics_io import (
    HARD_VALIDATION_TOL,
    ChSlice,
    ProbabilityTable,
    ValidationReport,
    ch_slice,
    validate,
)

NOTE_NO_VIOLATION = "no violation of the untilted inequality; tilt-based upper bounds are vacuous"
NOTE_BELOW_CUTOFF = (
    "violation does not persist to the maximally-entangled cutoff tilt; "
    "tilt-based upper bounds are vacuous"
)
NOTE_NOT_PROJECTIVE = "marginal bound skipped: measurements not asserted projective"
NOTE_NUMERIC_UNAVAILABLE = "numeric upper bound skipped: no usable tilt threshold"
NOTE_NUMERIC_AT_TRIVIAL = "numeric upper bound skipped: tilt threshold at the trivial boundary 3/2"
NOTE_NUMERIC_NO_VIOLATION = (
    "numeric upper bound skipped: no Schmidt angle violates above 1e-10 at the tilt threshold"
)


def lower_bound_concurrence(s_ch_obs: float) -> float:
    """Lower bound on the concurrence from an observed untilted CH value.

    sqrt((2 s + 1)^2 - 1) for s > 0, clamped to [0, 1]; nonpositive values
    give the trivial bound 0.  Sound for suboptimal measurements because the
    observed value never exceeds the state's maximal value.
    """
    s = float(s_ch_obs)
    if s <= 0.0:
        return 0.0
    inner = (2.0 * s + 1.0) ** 2 - 1.0
    return min(1.0, math.sqrt(max(0.0, inner)))


def tau_obs(slc: ChSlice) -> float | None:
    """Largest tilt at which the observed statistics still violate, if usable.

    The value is affine in the tilt, so the supremum is the exact root
    1 + s_ch / (mA0 + mB0).  Returned clamped to [cutoff, 3/2] when the root
    reaches the maximally-entangled cutoff and the CH value is positive;
    absent (None) otherwise.
    """
    s_ch = ch_value(slc)
    if s_ch <= 0.0:
        return None
    marginal_mass = slc.mA0 + slc.mB0
    if marginal_mass <= 0.0:
        # j00 <= min(mA0, mB0) forces s_ch <= 0 when both marginals vanish.
        raise ValidationFailure(
            validate(slc),
            "positive CH value with vanishing setting-0 marginals is inconsistent data",
        )
    root = 1.0 + s_ch / marginal_mass
    if root < TAU_MAXENT_CUTOFF - 1e-12:
        return None
    return min(max(root, TAU_MAXENT_CUTOFF), TAU_TRIVIAL)


def upper_bound_analytic(tau: float) -> float:
    """Closed-form cap on the concurrence of any state violating at tilt ``tau``.

    2 sqrt(2 (tau-1) (2 tau-1) (3-2 tau)) / (5 - 8 tau + 4 tau^2), clamped to
    [0, 1].  Defined on [cutoff, 3/2]; equals 1 at the cutoff and 0 at 3/2.
    """
    t = float(tau)
    if not (TAU_MAXENT_CUTOFF - 1e-12 <= t <= TAU_TRIVIAL + 1e-12):
        raise ValueError(
            f"analytic upper bound is defined for tilts in [{TAU_MAXENT_CUTOFF:.10f}, 1.5], got {tau!r}"
        )
    inner = 2.0 * (t - 1.0) * (2.0 * t - 1.0) * (3.0 - 2.0 * t)
    value = 2.0 * math.sqrt(max(0.0, inner)) / (5.0 - 8.0 * t + 4.0 * t * t)
    return min(1.0, max(0.0, value))


def upper_bound_numeric(tau: float) -> float | None:
    """Critical-curve concurrence at tilt ``tau`` (numeric).

    The concurrence sin(2 gamma_c) at the critical angle, which
    :func:`~bellbound.optimizer.critical_gamma` brackets by Newton on max F
    with its envelope slope.  A state violates where max F >= 0, and the
    bracket's end it reports is rated non-violating (below -1e-15), so it lies
    above every violating angle the search assumes.  None when even the
    optimum stays below 1e-10 at ``tau``, as happens just below 3/2: the
    search then has no crossing to locate, and the analytic bound is the one
    that holds.
    """
    # The search runs over pure Schmidt states, yet the bound holds for mixed
    # states too.  Wootters' decomposition writes rho as a mixture of pure
    # states that all have concurrence C(rho).  The observed value at a tilt
    # is the same mixture of their values under the same measurements, so at
    # every tilt below tau_obs, where rho's statistics violate, one of those
    # pure states violates too.  Its Schmidt angle then lies at or below the
    # critical angle, so C(rho) <= c_cr at every such tilt, and at tau_obs by
    # the continuity of c_cr in the tilt.
    try:
        return critical_gamma(tau).c_cr
    except NoViolationFound:
        return None


def upper_bound_marginal(slc: ChSlice, projective: bool = True) -> float | None:
    """Upper bound from marginals, valid only for projective measurements.

    For a pure state of concurrence C every projective marginal lies within
    (1 +/- sqrt(1 - C^2))/2, so C <= sqrt(1 - (1 - 2 m)^2) for each observed
    marginal m; the outcome-1 marginals give the same number.  Returns None
    when the projective flag is not set.
    """
    if not projective:
        return None
    bounds = [math.sqrt(max(0.0, 1.0 - (1.0 - 2.0 * m) ** 2)) for m in slc.marginals()]
    return min(1.0, min(bounds))


@dataclass(frozen=True)
class BoundReport:
    """All bounds derived from one set of observed statistics."""

    s_ch_obs: float
    lower_bound: float
    tau_obs: float | None
    upper_bound_analytic: float
    upper_bound_numeric: float | None
    upper_bound_marginal: float | None
    two_qubit_assumed: bool
    projective_assumed: bool
    diagnostics: ValidationReport
    notes: tuple[str, ...]

    def present_upper_bounds(self) -> tuple[float, ...]:
        bounds = [self.upper_bound_analytic]
        if self.upper_bound_numeric is not None:
            bounds.append(self.upper_bound_numeric)
        if self.upper_bound_marginal is not None:
            bounds.append(self.upper_bound_marginal)
        return tuple(bounds)

    def to_dict(self) -> dict:
        return {
            "s_ch_obs": self.s_ch_obs,
            "lower_bound": self.lower_bound,
            "tau_obs": self.tau_obs,
            "upper_bound_analytic": self.upper_bound_analytic,
            "upper_bound_numeric": self.upper_bound_numeric,
            "upper_bound_marginal": self.upper_bound_marginal,
            "assumptions": {
                "two_qubit": self.two_qubit_assumed,
                "projective": self.projective_assumed,
            },
            "diagnostics": {
                "normalization_residual": self.diagnostics.normalization_residual,
                "nosignaling_residual": self.diagnostics.nosignaling_residual,
                "consistency_residual": self.diagnostics.consistency_residual,
                "tsirelson_residual": self.diagnostics.tsirelson_residual,
                "verdict": self.diagnostics.verdict,
            },
            "notes": list(self.notes),
        }

    def summary_text(self) -> str:
        def fmt(value, digits=6):
            return "absent" if value is None else f"{value:.{digits}f}"

        assumptions = ["two-qubit Hilbert space"]
        if self.projective_assumed:
            assumptions.append("projective measurements")
        lines = [
            "concurrence bounds from observed statistics",
            f"  CH value (untilted):     {self.s_ch_obs:.6f}",
            f"  lower bound:             {fmt(self.lower_bound)}",
            f"  tilt threshold:          {fmt(self.tau_obs)}",
            f"  upper bound (analytic):  {fmt(self.upper_bound_analytic)}",
            f"  upper bound (numeric):   {fmt(self.upper_bound_numeric)}",
            f"  upper bound (marginal):  {fmt(self.upper_bound_marginal)}",
            f"  assumptions:             {'; '.join(assumptions)}",
            "  validation:              "
            f"{self.diagnostics.verdict} (normalization {self.diagnostics.normalization_residual:.3e}, "
            f"no-signaling {self.diagnostics.nosignaling_residual:.3e}, "
            f"consistency {self.diagnostics.consistency_residual:.3e}, "
            f"tsirelson {self.diagnostics.tsirelson_residual:.3e})",
        ]
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def assemble_report(
    stats: ProbabilityTable | ChSlice,
    *,
    projective: bool = False,
    numeric_ub: bool = False,
    tol: float = HARD_VALIDATION_TOL,
) -> BoundReport:
    """Validate statistics and derive every bound the data supports.

    Raises :class:`~bellbound.errors.ValidationFailure` when the validation
    verdict is ``fail``, or when the lower bound exceeds the analytic or the
    marginal upper bound by more than ``tol``: no state meeting the stated
    assumptions fits such statistics.  The numeric upper bound runs the
    optimizer and is gated behind ``numeric_ub``; it is absent, with a note,
    when the search finds no violating Schmidt angle at the tilt threshold,
    and a numeric bound below the lower bound by more than ``tol`` raises
    :class:`~bellbound.errors.NumericFailure`.
    """
    diagnostics = validate(stats, tol)
    if diagnostics.failed:
        raise ValidationFailure(diagnostics)
    slc = stats if isinstance(stats, ChSlice) else ch_slice(stats)
    s_ch = ch_value(slc)
    lower = lower_bound_concurrence(s_ch)
    threshold = tau_obs(slc)
    notes: list[str] = []
    if threshold is None:
        analytic = 1.0
        notes.append(NOTE_NO_VIOLATION if s_ch <= 0.0 else NOTE_BELOW_CUTOFF)
    else:
        analytic = upper_bound_analytic(threshold)
    marginal = upper_bound_marginal(slc, projective)
    for name, upper in (("analytic", analytic), ("marginal", marginal)):
        if upper is not None and lower > upper + tol:
            raise ValidationFailure(
                diagnostics,
                f"empty bracket: lower bound {lower:.6f} exceeds the {name} upper bound "
                f"{upper:.6f}; no state meeting the assumptions fits these statistics",
            )
    numeric = None
    if numeric_ub:
        if threshold is None:
            notes.append(NOTE_NUMERIC_UNAVAILABLE)
        elif threshold >= TAU_TRIVIAL - 1e-9:
            notes.append(NOTE_NUMERIC_AT_TRIVIAL)
        else:
            numeric = upper_bound_numeric(threshold)
            if numeric is None:
                notes.append(NOTE_NUMERIC_NO_VIOLATION)
            elif lower > numeric + tol:
                raise NumericFailure(
                    f"empty bracket: numeric upper bound {numeric:.6f} at tilt {threshold:.6f} "
                    f"lies below the lower bound {lower:.6f}"
                )
    if marginal is None:
        notes.append(NOTE_NOT_PROJECTIVE)
    return BoundReport(
        s_ch_obs=s_ch,
        lower_bound=lower,
        tau_obs=threshold,
        upper_bound_analytic=analytic,
        upper_bound_numeric=numeric,
        upper_bound_marginal=marginal,
        two_qubit_assumed=True,
        projective_assumed=projective,
        diagnostics=diagnostics,
        notes=tuple(notes),
    )


def save_report(report: BoundReport, path) -> None:
    """Write the report as JSON mirroring the fields, plus a summary block."""
    payload = report.to_dict()
    payload["summary"] = report.summary_text()
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
