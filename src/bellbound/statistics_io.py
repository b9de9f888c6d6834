"""Ingestion, validation, and simulation of 2-setting/2-outcome statistics.

This is the experimental-data boundary of the package.  Two interchangeable
carriers exist:

* :class:`ProbabilityTable` -- all 16 conditional probabilities p(a,b|x,y);
* :class:`ChSlice` -- the eight numbers the tilted functional actually uses:
  the four joints p(0,0|x,y) and the four outcome-0 marginals.

File format (JSON object):

* ``{"format": "full", "p": [... 16 numbers ...]}`` with entries ordered
  lexicographically by (x, y, a, b);
* ``{"format": "ch_slice", "j00": ..., "j01": ..., "j10": ..., "j11": ...,
  "mA0": ..., "mA1": ..., "mB0": ..., "mB1": ...}``.

An optional ``"description"`` string is allowed in either format; any other
field is rejected.  Probabilities are serialized as plain decimal numbers at
round-trip precision.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from .errors import ParseError, RangeError, SchemaError
from .quantum_core import MeasurementSet, TwoQubitState, joint_probability

HARD_VALIDATION_TOL = 1e-6
WARN_FACTOR = 10.0
# Largest untilted CH value any quantum state reaches: (sqrt(2) - 1) / 2.
TSIRELSON_CH = (math.sqrt(2.0) - 1.0) / 2.0

_FULL_KEYS = {"format", "p", "description"}
_SLICE_FIELDS = ("j00", "j01", "j10", "j11", "mA0", "mA1", "mB0", "mB1")
_SLICE_KEYS = {"format", "description", *_SLICE_FIELDS}


def _check_probability(value, label: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{label} must be a number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        raise RangeError(f"{label} is not finite: {value!r}")
    if v < 0.0 or v > 1.0:
        raise RangeError(f"{label} = {value!r} lies outside [0, 1]")
    return v


@dataclass(frozen=True, eq=False)
class ProbabilityTable:
    """Conditional distribution p(a,b|x,y) stored as an array indexed [x,y,a,b]."""

    p: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.p, dtype=float)
        if arr.shape != (2, 2, 2, 2):
            raise SchemaError(f"probability table must have shape (2,2,2,2), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise RangeError("probability table has non-finite entries")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise RangeError("probability table has entries outside [0, 1]")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "p", arr)

    def prob(self, a: int, b: int, x: int, y: int) -> float:
        return float(self.p[x, y, a, b])

    def flat(self) -> list[float]:
        """The 16 entries ordered lexicographically by (x, y, a, b)."""
        return [float(v) for v in self.p.reshape(-1)]

    @classmethod
    def from_flat(cls, values) -> "ProbabilityTable":
        arr = np.asarray(values, dtype=float)
        if arr.shape != (16,):
            raise SchemaError(f"full format needs exactly 16 probabilities, got {arr.size}")
        return cls(arr.reshape(2, 2, 2, 2))


@dataclass(frozen=True)
class ChSlice:
    """The eight numbers entering the tilted functional.

    j_xy = p(0,0|x,y); mA_x = p_A(0|x); mB_y = p_B(0|y).  Joints must be
    consistent with the marginals (j_xy <= min(mA_x, mB_y) up to tolerance),
    which :func:`validate` reports rather than the constructor enforcing.
    """

    j00: float
    j01: float
    j10: float
    j11: float
    mA0: float
    mA1: float
    mB0: float
    mB1: float

    def __post_init__(self):
        for name in _SLICE_FIELDS:
            object.__setattr__(self, name, _check_probability(getattr(self, name), name))

    def joints(self) -> tuple[float, float, float, float]:
        return (self.j00, self.j01, self.j10, self.j11)

    def marginals(self) -> tuple[float, float, float, float]:
        return (self.mA0, self.mA1, self.mB0, self.mB1)


@dataclass(frozen=True)
class ValidationReport:
    """Maximum absolute violations of the structural constraints, plus a verdict.

    ``tsirelson_residual`` is the excess of the untilted CH value over its
    quantum maximum: no quantum state produces statistics beyond it.
    """

    normalization_residual: float
    nosignaling_residual: float
    consistency_residual: float
    tsirelson_residual: float
    verdict: str

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    @property
    def failed(self) -> bool:
        return self.verdict == "fail"


def _verdict(residuals, tol: float) -> str:
    worst = max(residuals)
    if worst <= tol:
        return "pass"
    if worst <= WARN_FACTOR * tol:
        return "warn"
    return "fail"


def _slice_consistency(slc: ChSlice) -> float:
    # Frechet bounds of each joint against its marginals: j <= min(mA, mB),
    # and p(1,1|x,y) = 1 - mA - mB + j >= 0.
    pairs = (
        (slc.j00, slc.mA0, slc.mB0),
        (slc.j01, slc.mA0, slc.mB1),
        (slc.j10, slc.mA1, slc.mB0),
        (slc.j11, slc.mA1, slc.mB1),
    )
    return max(0.0, max(max(j - min(ma, mb), ma + mb - 1.0 - j) for j, ma, mb in pairs))


def _slice_tsirelson(slc: ChSlice) -> float:
    from .bell_model import ch_value  # bell_model imports this module

    return max(0.0, ch_value(slc) - TSIRELSON_CH)


def validate(stats: ProbabilityTable | ChSlice, tol: float = HARD_VALIDATION_TOL) -> ValidationReport:
    """Check normalization, no-signaling, joint/marginal consistency and Tsirelson's bound.

    Verdict is ``pass`` if every residual is within ``tol``, ``warn`` within
    10x ``tol``, and ``fail`` beyond that.  For a :class:`ChSlice` only the
    consistency and Tsirelson residuals are computable; the other two are
    reported as zero.  ``tol`` must be positive and finite.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")
    if isinstance(stats, ChSlice):
        consistency = _slice_consistency(stats)
        tsirelson = _slice_tsirelson(stats)
        return ValidationReport(0.0, 0.0, consistency, tsirelson, _verdict([consistency, tsirelson], tol))
    if not isinstance(stats, ProbabilityTable):
        raise TypeError(f"expected ProbabilityTable or ChSlice, got {type(stats).__name__}")
    p = stats.p
    normalization = float(np.max(np.abs(p.sum(axis=(2, 3)) - 1.0)))
    alice = np.max(np.abs(p[:, 0, :, :].sum(axis=2) - p[:, 1, :, :].sum(axis=2)))
    bob = np.max(np.abs(p[0, :, :, :].sum(axis=1) - p[1, :, :, :].sum(axis=1)))
    nosignaling = float(max(alice, bob))
    slc = ch_slice(stats)
    consistency = _slice_consistency(slc)
    tsirelson = _slice_tsirelson(slc)
    residuals = [normalization, nosignaling, consistency, tsirelson]
    return ValidationReport(normalization, nosignaling, consistency, tsirelson, _verdict(residuals, tol))


def ch_slice(table: ProbabilityTable) -> ChSlice:
    """Extract the functional's support from a full table.

    Alice marginals are read off the y = 0 block, Bob marginals off the x = 0
    block; residual no-signaling noise is kept as-is rather than averaged.
    """
    p = table.p
    return ChSlice(
        j00=float(p[0, 0, 0, 0]),
        j01=float(p[0, 1, 0, 0]),
        j10=float(p[1, 0, 0, 0]),
        j11=float(p[1, 1, 0, 0]),
        mA0=float(p[0, 0, 0, :].sum()),
        mA1=float(p[1, 0, 0, :].sum()),
        mB0=float(p[0, 0, :, 0].sum()),
        mB1=float(p[0, 1, :, 0].sum()),
    )


def simulate(rho: TwoQubitState, m: MeasurementSet) -> ProbabilityTable:
    """Born-rule table p(a,b|x,y) = tr(rho A_x^a (x) B_y^b) for projective sets."""
    alice = m.alice_projectors()
    bob = m.bob_projectors()
    p = np.empty((2, 2, 2, 2), dtype=float)
    for x in range(2):
        for y in range(2):
            for a in range(2):
                for b in range(2):
                    p[x, y, a, b] = joint_probability(rho, alice[x][a], bob[y][b])
    return ProbabilityTable(p)


def uniform_table() -> ProbabilityTable:
    """White noise: every outcome pair equally likely for every setting pair."""
    return ProbabilityTable(np.full((2, 2, 2, 2), 0.25))


def _deterministic_boxes() -> np.ndarray:
    boxes = np.zeros((16, 2, 2, 2, 2))
    for i, (fa0, fa1, fb0, fb1) in enumerate(product((0, 1), repeat=4)):
        fa = (fa0, fa1)
        fb = (fb0, fb1)
        for x, y in product((0, 1), repeat=2):
            boxes[i, x, y, fa[x], fb[y]] = 1.0
    return boxes


def _pr_boxes() -> np.ndarray:
    boxes = np.zeros((8, 2, 2, 2, 2))
    for i, (alpha, beta, gamma) in enumerate(product((0, 1), repeat=3)):
        for x, y, a, b in product((0, 1), repeat=4):
            if (a ^ b) == ((x & y) ^ (alpha & x) ^ (beta & y) ^ gamma):
                boxes[i, x, y, a, b] = 0.5
    return boxes


_EXTREMAL_LOCAL = _deterministic_boxes()
_EXTREMAL_NOSIGNALING = np.concatenate([_EXTREMAL_LOCAL, _pr_boxes()])


def random_nosignaling_table(
    rng: np.random.Generator, *, include_pr_boxes: bool = True
) -> ProbabilityTable:
    """Random no-signaling distribution: a convex mixture of extremal boxes.

    With ``include_pr_boxes`` the mixture ranges over the full no-signaling
    polytope of the 2-setting/2-outcome scenario; without it, over the local
    polytope only.  Normalization and no-signaling hold to machine precision.
    """
    boxes = _EXTREMAL_NOSIGNALING if include_pr_boxes else _EXTREMAL_LOCAL
    weights = rng.dirichlet(np.ones(boxes.shape[0]))
    return ProbabilityTable(np.tensordot(weights, boxes, axes=1))


def _load_full(payload: dict) -> ProbabilityTable:
    unknown = set(payload) - _FULL_KEYS
    if unknown:
        raise SchemaError(f"unknown fields in full-format file: {sorted(unknown)}")
    if "p" not in payload:
        raise SchemaError('full format requires a "p" array')
    values = payload["p"]
    if not isinstance(values, list) or len(values) != 16:
        raise SchemaError('"p" must be an array of exactly 16 numbers')
    return ProbabilityTable.from_flat([_check_probability(v, f"p[{i}]") for i, v in enumerate(values)])


def _load_slice(payload: dict) -> ChSlice:
    unknown = set(payload) - _SLICE_KEYS
    if unknown:
        raise SchemaError(f"unknown fields in ch_slice file: {sorted(unknown)}")
    missing = [k for k in _SLICE_FIELDS if k not in payload]
    if missing:
        raise SchemaError(f"ch_slice file missing fields: {missing}")
    return ChSlice(**{k: _check_probability(payload[k], k) for k in _SLICE_FIELDS})


def load(path) -> ProbabilityTable | ChSlice:
    """Read a statistics file, returning the typed value its "format" key names."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read statistics file {path}: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"statistics file {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise SchemaError("statistics file must contain a top-level object")
    fmt = payload.get("format")
    if fmt == "full":
        return _load_full(payload)
    if fmt == "ch_slice":
        return _load_slice(payload)
    raise SchemaError(f'"format" must be "full" or "ch_slice", got {fmt!r}')


def save(stats: ProbabilityTable | ChSlice, path, *, description: str | None = None) -> None:
    """Write a statistics file; round-trips probabilities bit-exactly."""
    if isinstance(stats, ProbabilityTable):
        payload: dict = {"format": "full", "p": stats.flat()}
    elif isinstance(stats, ChSlice):
        payload = {"format": "ch_slice"}
        payload.update({k: getattr(stats, k) for k in _SLICE_FIELDS})
    else:
        raise TypeError(f"expected ProbabilityTable or ChSlice, got {type(stats).__name__}")
    if description is not None:
        payload["description"] = description
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
