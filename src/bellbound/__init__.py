"""Semi-device-independent concurrence bounds from tilted Clauser-Horne statistics.

A numpy library (plus a small CLI) that takes observed 2-setting/2-outcome
measurement statistics and, assuming only a two-qubit Hilbert space, brackets
the concurrence of the underlying state from below (via the untilted CH
violation) and from above (via the largest tilt at which the statistics still
violate, and optionally via the marginals when the measurements are
projective).  A quantum simulator and a see-saw optimizer generate, certify,
and cross-check every quantity at desk scale; ``bellbound verify`` runs the
paper's checkable claims from :mod:`bellbound.invariants`, not loaded here.

Search diagnostics go to the ``"bellbound"`` logger, which stays silent until
the application configures logging.
"""

import logging

from .bell_model import (
    TAU_MAXENT_CUTOFF,
    TAU_MIN,
    TAU_TRIVIAL,
    BellValue,
    TiltedChCoefficients,
    coefficients,
    evaluate_classical,
    evaluate_from_ch,
    quantum_value,
)
from .bounds_engine import (
    BoundReport,
    assemble_report,
    lower_bound_concurrence,
    save_report,
    tau_obs,
    upper_bound_analytic,
    upper_bound_marginal,
    upper_bound_numeric,
)
from .errors import (
    NumericFailure,
    ParseError,
    RangeError,
    SchemaError,
    StatisticsFormatError,
    ValidationFailure,
)
from .optimizer import (
    CriticalCurvePoint,
    OptimumPoint,
    critical_gamma,
    global_max_violation,
    max_value_cap,
    pure_state_value_cap,
)
from .quantum_core import (
    BlochVector,
    MeasurementSet,
    TwoQubitState,
    concurrence,
    joint_probability,
    maximally_entangled_state,
    random_measurement_set,
    random_two_qubit_state,
    schmidt_state,
)
from .seesaw import SeesawConfig, SeesawResult, seesaw_max_violation
from .statistics_io import (
    ChSlice,
    ProbabilityTable,
    ValidationReport,
    ch_slice,
    ch_value,
    load,
    random_nosignaling_table,
    save,
    simulate,
    uniform_table,
    validate,
)

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "BellValue",
    "BlochVector",
    "BoundReport",
    "ChSlice",
    "CriticalCurvePoint",
    "MeasurementSet",
    "NumericFailure",
    "OptimumPoint",
    "ParseError",
    "ProbabilityTable",
    "RangeError",
    "SchemaError",
    "SeesawConfig",
    "SeesawResult",
    "StatisticsFormatError",
    "TAU_MAXENT_CUTOFF",
    "TAU_MIN",
    "TAU_TRIVIAL",
    "TiltedChCoefficients",
    "TwoQubitState",
    "ValidationFailure",
    "ValidationReport",
    "assemble_report",
    "ch_slice",
    "ch_value",
    "coefficients",
    "concurrence",
    "critical_gamma",
    "evaluate_classical",
    "evaluate_from_ch",
    "global_max_violation",
    "joint_probability",
    "load",
    "lower_bound_concurrence",
    "max_value_cap",
    "maximally_entangled_state",
    "pure_state_value_cap",
    "quantum_value",
    "random_measurement_set",
    "random_nosignaling_table",
    "random_two_qubit_state",
    "save",
    "save_report",
    "schmidt_state",
    "seesaw_max_violation",
    "simulate",
    "tau_obs",
    "uniform_table",
    "upper_bound_analytic",
    "upper_bound_marginal",
    "upper_bound_numeric",
    "validate",
]
