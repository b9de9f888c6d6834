"""Ingestion, validation, and simulation of 2-setting/2-outcome statistics.

This is the experimental-data boundary of the package.  :func:`simulate`
wraps the Born table of :func:`~bellbound.quantum_core.joint_probability`,
computed from the state's Bloch form.  Two interchangeable carriers exist:

* :class:`ProbabilityTable` -- all 16 conditional probabilities p(a,b|x,y);
* :class:`ChSlice` -- the eight numbers the tilted functional actually uses:
  the four joints p(0,0|x,y) and the four outcome-0 marginals.

File format (JSON object):

* ``{"format": "full", "p": [... 16 numbers ...]}`` with entries ordered
  lexicographically by (x, y, a, b);
* ``{"format": "ch_slice", "j00": ..., "j01": ..., "j10": ..., "j11": ...,
  "mA0": ..., "mA1": ..., "mB0": ..., "mB1": ...}``.

An optional ``"description"`` string is allowed in either format; any other
field is rejected.  :func:`save` writes exactly the text of
``json.dumps(payload, indent=2)`` plus a newline: probabilities as plain
decimal numbers at round-trip precision (``float.__repr__``), the
description with json's escaping.

A table's slice is computed once per table and cached on it (see
:attr:`ProbabilityTable.ch_slice`); :func:`ch_slice`, :func:`validate` and
the bounds all read that one copy.  Each slice marginal, the sum of two
table entries, is clipped to [0, 1]: a table within tolerance of
normalization may sum past 1, and its normalization residual reports the
excess.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass
from importlib import resources
from itertools import product

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
    # Compared before float(), which overflows past the float range; NaN fails too.
    if not 0.0 <= value <= 1.0:
        raise RangeError(f"{label} = {value!r} lies outside [0, 1]")
    return float(value)


@dataclass(frozen=True, eq=False)
class ProbabilityTable:
    """Conditional distribution p(a,b|x,y) stored as a read-only array indexed [x,y,a,b].

    Its slice, :attr:`ch_slice`, is computed on first use and kept: the
    module function :func:`ch_slice`, :func:`validate` and
    :func:`~bellbound.bounds_engine.assemble_report` all read it.
    """

    p: np.ndarray

    def __post_init__(self):
        arr = np.array(self.p, dtype=float, order="C")
        if arr.shape != (2, 2, 2, 2):
            raise SchemaError(f"probability table must have shape (2,2,2,2), got {arr.shape}")
        if not (arr.min() >= 0.0 and arr.max() <= 1.0):  # NaN fails here too
            if not np.all(np.isfinite(arr)):
                raise RangeError("probability table has non-finite entries")
            raise RangeError("probability table has entries outside [0, 1]")
        arr.setflags(write=False)
        object.__setattr__(self, "p", arr)

    @functools.cached_property
    def ch_slice(self) -> "ChSlice":
        """The table's :class:`ChSlice`, computed once per table.

        Alice marginals are read off the y = 0 block, Bob marginals off the
        x = 0 block; residual no-signaling noise is kept as-is rather than
        averaged.  Each marginal, a sum of two entries, is clipped to [0, 1]:
        a table within tolerance of normalization may sum past 1, which the
        normalization residual reports.
        """
        v = self.flat()
        # Entries are non-negative, so max(0.0, s) only turns a sum of two -0.0 entries
        # into 0.0, as numpy's sum does; each sum equals numpy's two-term sum bit for bit.
        return ChSlice(
            j00=v[0],
            j01=v[4],
            j10=v[8],
            j11=v[12],
            mA0=min(1.0, max(0.0, v[0] + v[1])),
            mA1=min(1.0, max(0.0, v[8] + v[9])),
            mB0=min(1.0, max(0.0, v[0] + v[2])),
            mB1=min(1.0, max(0.0, v[4] + v[6])),
        )

    def flat(self) -> list[float]:
        """The 16 entries ordered lexicographically by (x, y, a, b)."""
        return self.p.reshape(-1).tolist()


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

    def marginals(self) -> tuple[float, float, float, float]:
        return (self.mA0, self.mA1, self.mB0, self.mB1)


def _as_slice(stats: ProbabilityTable | ChSlice) -> ChSlice:
    if isinstance(stats, ChSlice):
        return stats
    if isinstance(stats, ProbabilityTable):
        return stats.ch_slice
    raise TypeError(f"expected ProbabilityTable or ChSlice, got {type(stats).__name__}")


def ch_value(stats: ProbabilityTable | ChSlice) -> float:
    """The untilted (tau = 1) CH value of observed statistics."""
    slc = _as_slice(stats)
    return slc.j00 + slc.j01 + slc.j10 - slc.j11 - slc.mA0 - slc.mB0


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
    return max(0.0, ch_value(slc) - TSIRELSON_CH)


def check_tolerance(tol: float) -> None:
    """Raise ``ValueError`` unless the validation tolerance is positive and finite."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")


def validate(stats: ProbabilityTable | ChSlice, tol: float = HARD_VALIDATION_TOL) -> ValidationReport:
    """Check normalization, no-signaling, joint/marginal consistency and Tsirelson's bound.

    Verdict is ``pass`` if every residual is within ``tol``, ``warn`` within
    10x ``tol``, and ``fail`` beyond that.  For a :class:`ChSlice` only the
    consistency and Tsirelson residuals are computable; the other two are
    reported as zero.  For a table, the consistency and Tsirelson residuals
    are those of its cached slice, whose marginals are clipped to [0, 1]; an
    excess past 1 shows in the normalization residual.  ``tol`` must be
    positive and finite.
    """
    check_tolerance(tol)
    if isinstance(stats, ChSlice):
        consistency = _slice_consistency(stats)
        tsirelson = _slice_tsirelson(stats)
        return ValidationReport(0.0, 0.0, consistency, tsirelson, _verdict([consistency, tsirelson], tol))
    if not isinstance(stats, ProbabilityTable):
        raise TypeError(f"expected ProbabilityTable or ChSlice, got {type(stats).__name__}")
    p = stats.p
    normalization = float(abs(p.sum(axis=(2, 3)) - 1.0).max())
    alice = p.sum(axis=3)  # p_A(a|x,y), indexed [x,y,a]
    bob = p.sum(axis=2)  # p_B(b|x,y), indexed [x,y,b]
    nosignaling = float(max(abs(alice[:, 0] - alice[:, 1]).max(), abs(bob[0] - bob[1]).max()))
    slc = stats.ch_slice
    consistency = _slice_consistency(slc)
    tsirelson = _slice_tsirelson(slc)
    residuals = [normalization, nosignaling, consistency, tsirelson]
    return ValidationReport(normalization, nosignaling, consistency, tsirelson, _verdict(residuals, tol))


def ch_slice(table: ProbabilityTable) -> ChSlice:
    """Extract the functional's support from a full table.

    Returns the table's cached :attr:`ProbabilityTable.ch_slice`: Alice
    marginals read off the y = 0 block, Bob marginals off the x = 0 block,
    residual no-signaling noise kept as-is rather than averaged, and each
    marginal clipped to [0, 1].
    """
    return table.ch_slice


def simulate(rho: TwoQubitState, m: MeasurementSet) -> ProbabilityTable:
    """Born-rule table p(a,b|x,y) = tr(rho A_x^a (x) B_y^b) for projective sets.

    One evaluation of :func:`~bellbound.quantum_core.joint_probability`, the
    package's single Born rule, on the state's Bloch form.
    """
    return ProbabilityTable(joint_probability(rho, m))


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
    if not all(type(v) is float and 0.0 <= v <= 1.0 for v in values):
        # Entry by entry: integers load as floats, and the first bad entry is refused by name.
        values = [_check_probability(v, f"p[{i}]") for i, v in enumerate(values)]
    return ProbabilityTable(np.reshape(values, (2, 2, 2, 2)))


def _load_slice(payload: dict) -> ChSlice:
    unknown = set(payload) - _SLICE_KEYS
    if unknown:
        raise SchemaError(f"unknown fields in ch_slice file: {sorted(unknown)}")
    missing = [k for k in _SLICE_FIELDS if k not in payload]
    if missing:
        raise SchemaError(f"ch_slice file missing fields: {missing}")
    return ChSlice(**{k: payload[k] for k in _SLICE_FIELDS})


def load(path) -> ProbabilityTable | ChSlice:
    """Read a statistics file, returning the typed value its "format" key names."""
    try:
        with open(os.fspath(path), encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ParseError(f"cannot read statistics file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"statistics file {path} is not UTF-8 text: {exc}") from exc
    try:
        payload = json.loads(text)
    except ValueError as exc:  # malformed JSON, or an integer literal past int's digit limit
        raise ParseError(f"statistics file {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise SchemaError("statistics file must contain a top-level object")
    if not isinstance(payload.get("description", ""), str):
        raise SchemaError(f'"description" must be a string, got {type(payload["description"]).__name__}')
    fmt = payload.get("format")
    if fmt == "full":
        return _load_full(payload)
    if fmt == "ch_slice":
        return _load_slice(payload)
    raise SchemaError(f'"format" must be "full" or "ch_slice", got {fmt!r}')


def load_demo_slice() -> ChSlice:
    """The bundled demo statistics, ``data/demo_slice.json``, read by :func:`load`."""
    with resources.as_file(resources.files("bellbound").joinpath("data/demo_slice.json")) as path:
        return load(path)


def _json_text(payload: dict) -> str:
    # The text of json.dumps(payload, indent=2) + "\n" for a payload of strings, floats and
    # lists of floats, without json's pure-Python indenting encoder.  Floats are written by
    # float.__repr__, as json writes them; strings go through json's own escaping.
    fields = []
    for key, value in payload.items():
        if isinstance(value, str):
            text = json.dumps(value)
        elif isinstance(value, list):
            text = "[\n    " + ",\n    ".join(map(float.__repr__, value)) + "\n  ]"
        else:
            text = float.__repr__(value)
        fields.append(f'  "{key}": {text}')
    return "{\n" + ",\n".join(fields) + "\n}\n"


def save(stats: ProbabilityTable | ChSlice, path, *, description: str | None = None) -> None:
    """Write a statistics file; round-trips probabilities bit-exactly.

    The file holds exactly the text of ``json.dumps(payload, indent=2)``
    plus a newline, in UTF-8, with the fields in the order the module's file
    format lists them.  A ``description`` that is not a string is refused before
    anything is written, since :func:`load` would refuse the file.
    """
    if description is not None and not isinstance(description, str):
        raise TypeError(f"description must be a string, got {type(description).__name__}")
    if isinstance(stats, ProbabilityTable):
        payload: dict = {"format": "full", "p": stats.flat()}
    elif isinstance(stats, ChSlice):
        payload = {"format": "ch_slice"}
        payload.update({k: getattr(stats, k) for k in _SLICE_FIELDS})
    else:
        raise TypeError(f"expected ProbabilityTable or ChSlice, got {type(stats).__name__}")
    if description is not None:
        payload["description"] = description
    text = _json_text(payload)
    with open(os.fspath(path), "w", encoding="utf-8") as f:
        f.write(text)
