"""Shared data model and validation for all estimators.

Datasets are immutable after validation: the backing arrays are marked
read-only, and a writeable array the caller passed in is copied first, so
the caller's array stays writeable and its later writes never reach the
dataset. A read-only input array is kept as it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .errors import (
    DimensionMismatchError,
    EmptyDatasetError,
    EmptyTreatmentArmError,
    InvalidInputError,
    LengthMismatchError,
    NonFiniteValueError,
)

BINARY = "binary"
CONTINUOUS = "continuous"
_TREATMENT_KINDS = (BINARY, CONTINUOUS)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _owned(a: np.ndarray, source) -> np.ndarray:
    """`a`, coerced from the caller's `source`, as an array only the dataset
    holds: copied when it may share memory with a writeable source array."""
    if isinstance(source, np.ndarray) and source.flags.writeable and np.may_share_memory(a, source):
        return a.copy(order="K")
    return a


def _is_01(v: np.ndarray) -> bool:
    """Whether every entry is 0 or 1."""
    return bool(((v == 0.0) | (v == 1.0)).all())


def _as_vector(name: str, v, n: int | None = None, *, finite: bool = True) -> np.ndarray:
    """Coerce a 1-D input to a float vector, of length `n` when `n` is given.

    With `_as_matrix` and `_check_length` it holds every shape, length and
    finiteness check on array arguments. `finite=False` skips the finiteness
    scan on the regression fit path, whose callers pass validated columns.
    """
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"'{name}' must be a 1-d vector, got shape {arr.shape}")
    if finite and not np.isfinite(arr).all():
        raise NonFiniteValueError(f"column '{name}' contains non-finite values")
    return _check_length(name, arr, n)


def _check_length(name: str, arr: np.ndarray, n: int | None) -> np.ndarray:
    if n is not None and arr.shape[0] != n:
        raise LengthMismatchError(f"{name} must have length {n}, got {arr.shape[0]}")
    return arr


def _as_matrix(name: str, m, n: int | None = None, *, finite: bool = True) -> np.ndarray:
    """Coerce to an (n, p) float matrix; a vector is one column, and None a
    zero-width matrix."""
    if m is None:
        return np.empty((n, 0), dtype=float)
    arr = np.asarray(m, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise LengthMismatchError(f"'{name}' must be a vector or 2-d matrix")
    _check_length(f"{name} rows", arr, n)
    if finite and not np.isfinite(arr).all():
        raise NonFiniteValueError(f"matrix '{name}' contains non-finite values")
    return arr


@dataclass(frozen=True, eq=False)
class ObservationalDataset:
    """A validated cross-sectional dataset (outcome, treatment, covariates).

    Attributes:
        y: outcome vector, length n.
        d: treatment vector, length n.
        x: covariate matrix, shape (n, p); p may be 0.
        z: instrument matrix, shape (n, L), or None.
        treatment_kind: "binary" or "continuous".
    """

    y: np.ndarray
    d: np.ndarray
    x: np.ndarray
    z: np.ndarray | None = None
    treatment_kind: str = BINARY

    @property
    def n(self) -> int:
        return self.y.shape[0]

    def take(self, indices) -> "ObservationalDataset":
        """Return a new dataset restricted to (or resampled at) `indices`.

        Integer-array indexing copies, so the new arrays own their data.
        """
        idx = np.asarray(indices, dtype=int)
        return ObservationalDataset(
            y=_readonly(self.y[idx]),
            d=_readonly(self.d[idx]),
            x=_readonly(self.x[idx]),
            z=None if self.z is None else _readonly(self.z[idx]),
            treatment_kind=self.treatment_kind,
        )


def validate(
    y,
    d,
    x=None,
    z=None,
    treatment_kind: str | None = None,
) -> ObservationalDataset:
    """Validate raw columns into an :class:`ObservationalDataset`.

    Treatment kind is detected automatically — binary when all values lie in
    {0, 1}, continuous otherwise — unless `treatment_kind` overrides it.

    Raises:
        LengthMismatchError: columns of differing length.
        NonFiniteValueError: NaN/inf anywhere.
        EmptyDatasetError: fewer than 2 rows.
    """
    yv = _as_vector("y", y)
    n = yv.shape[0]
    dv = _as_vector("d", d, n)
    if n < 2:
        raise EmptyDatasetError(f"need at least 2 rows, got {n}")
    xm = _as_matrix("x", x, n)
    zm = None if z is None else _as_matrix("z", z, n)

    is_01 = _is_01(dv)
    if treatment_kind is None:
        kind = BINARY if is_01 else CONTINUOUS
    else:
        kind = treatment_kind
        if kind not in _TREATMENT_KINDS:
            raise InvalidInputError(f"unknown treatment_kind {kind!r}")
        if kind == BINARY and not is_01:
            raise InvalidInputError("treatment_kind='binary' but d has values outside {0, 1}")
    return ObservationalDataset(
        y=_readonly(_owned(yv, y)),
        d=_readonly(_owned(dv, d)),
        x=_readonly(_owned(xm, x)),
        z=None if zm is None else _readonly(_owned(zm, z)),
        treatment_kind=kind,
    )


@dataclass(frozen=True, eq=False)
class PanelDataset:
    """A validated panel: rows sorted by (unit, time), units contiguous.

    Attributes:
        unit: original unit identifiers (any dtype), length n.
        time: integer time index, length n.
        y, d: outcome / treatment vectors.
        x: covariate matrix (n, p).
        unit_codes: 0..N-1 integer codes aligned with rows.
        unit_counts: periods per unit, length N.
    """

    unit: np.ndarray
    time: np.ndarray
    y: np.ndarray
    d: np.ndarray
    x: np.ndarray
    unit_codes: np.ndarray
    unit_counts: np.ndarray

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def n_units(self) -> int:
        return self.unit_counts.shape[0]

    def unit_means(self, v: np.ndarray) -> np.ndarray:
        """Per-unit means of a row-aligned vector, length N."""
        return np.bincount(self.unit_codes, weights=v) / self.unit_counts

    def broadcast_units(self, per_unit: np.ndarray) -> np.ndarray:
        """Expand a length-N per-unit vector back to row alignment."""
        return per_unit[self.unit_codes]

    def take_units(self, unit_index) -> "PanelDataset":
        """Rebuild a panel from whole units (used by the panel bootstrap).

        Repeated indices are allowed; each occurrence becomes a distinct new
        unit, numbered 0..M-1 in draw order, so resampled panels remain
        valid. The result equals `validate_panel` applied to the drawn rows
        and is built without re-running it: every drawn unit's rows are
        already contiguous and sorted by time.
        """
        drawn = np.asarray(unit_index, dtype=int)
        counts = self.unit_counts[drawn]
        n = int(counts.sum())
        if n < 2:
            raise EmptyDatasetError(f"need at least 2 rows, got {n}")
        source_start = (np.cumsum(self.unit_counts) - self.unit_counts)[drawn]
        target_start = np.cumsum(counts) - counts
        rows = np.arange(n) + np.repeat(source_start - target_start, counts)
        codes = np.repeat(np.arange(drawn.shape[0], dtype=np.intp), counts)
        return PanelDataset(
            unit=_readonly(codes.astype(int)),
            time=_readonly(self.time[rows]),
            y=_readonly(self.y[rows]),
            d=_readonly(self.d[rows]),
            x=_readonly(self.x[rows]),
            unit_codes=_readonly(codes),
            unit_counts=_readonly(counts),
        )


def validate_panel(unit, time, y, d, x=None) -> PanelDataset:
    """Validate raw panel columns into a :class:`PanelDataset`.

    Rows are sorted by (unit, time); duplicate (unit, time) pairs are
    rejected. `unit` and `time` must be 1-d; unit ids must be mutually
    comparable, with no NaN, infinity or None; times must be integers that
    fit in int64. Rows that already come sorted, with numeric unit ids, skip
    the sort: one O(n) pass checks the order and numbers the units.
    """
    unit_arr = np.asarray(unit)
    time_arr = np.asarray(time)
    for name, ids in (("unit", unit_arr), ("time", time_arr)):
        if ids.ndim != 1:
            raise DimensionMismatchError(f"{name} must be a 1-d vector, got shape {ids.shape}")
    if unit_arr.dtype.kind in "fc" and not np.isfinite(unit_arr).all():
        raise NonFiniteValueError("unit ids must be finite")
    if unit_arr.dtype == object and any(u is None or u != u for u in unit_arr.tolist()):
        raise NonFiniteValueError("unit ids must not contain None or NaN")
    if time_arr.dtype.kind not in "iu":
        try:
            as_int = np.asarray(time_arr, dtype=float)
        except (TypeError, ValueError):  # times NumPy cannot read as numbers
            valid = False
        else:
            valid = ((as_int >= -(2.0**63)) & (as_int < 2.0**63) & (as_int == np.round(as_int))).all()
        if not valid:
            raise NonFiniteValueError("time must be an integer vector within the int64 range")
        time_arr = as_int.astype(int)
    yv = _as_vector("y", y)
    n = yv.shape[0]
    dv = _as_vector("d", d, n)
    _check_length("unit", unit_arr, n)
    _check_length("time", time_arr, n)
    if n < 2:
        raise EmptyDatasetError(f"need at least 2 rows, got {n}")
    xm = _as_matrix("x", x, n)

    codes = _codes_if_sorted(unit_arr, time_arr)
    if codes is None:
        # Sort by (unit, time); unit ids may be non-numeric, so sort via codes.
        try:
            codes = np.unique(unit_arr, return_inverse=True)[1]
        except TypeError:
            raise InvalidInputError("unit ids must be mutually comparable") from None
        order = np.lexsort((time_arr, codes))
        # integer-array indexing copies, so `_owned` keeps the sorted columns
        unit_arr, time_arr, yv, dv, xm, codes = (
            v[order] for v in (unit_arr, time_arr, yv, dv, xm, codes)
        )
        if ((codes[1:] == codes[:-1]) & (time_arr[1:] == time_arr[:-1])).any():
            raise LengthMismatchError("duplicate (unit, time) pairs in panel")
    return PanelDataset(
        unit=_readonly(_owned(unit_arr, unit)),
        time=_readonly(_owned(time_arr, time)),
        y=_readonly(_owned(yv, y)),
        d=_readonly(_owned(dv, d)),
        x=_readonly(_owned(xm, x)),
        unit_codes=_readonly(codes),
        unit_counts=_readonly(np.bincount(codes)),
    )


def _codes_if_sorted(unit: np.ndarray, time: np.ndarray) -> np.ndarray | None:
    """Unit codes 0..N-1 of numeric unit ids whose rows are strictly sorted by
    (unit, time), or None when the general sort is needed.

    The codes count the unit changes, so they equal the codes of the sorted
    unique ids (`validate_panel` has already rejected NaN ids).
    """
    if unit.dtype.kind not in "iuf":
        return None
    same = unit[1:] == unit[:-1]
    if not ((unit[1:] > unit[:-1]) | (same & (time[1:] > time[:-1]))).all():
        return None
    codes = np.empty(unit.shape[0], dtype=np.intp)
    codes[0] = 0
    np.cumsum(~same, out=codes[1:])
    return codes


@dataclass
class CausalEstimate:
    """A point estimate of an average treatment effect.

    Attributes:
        estimand: "ATE".
        method: identifier of the producing estimator.
        dose: treatment level the estimand refers to.
        ref_dose: reference level.
        point: the estimate.
        variance: estimated sampling variance, when available.
        n_used: rows that actually entered the estimate.
        diagnostics: method-specific extras (JSON-serializable values).

    `ci` is derived from `variance` and cannot be set; attach another
    variance (say, a bootstrap one) with `dataclasses.replace`.
    """

    estimand: str
    method: str
    dose: float
    point: float
    n_used: int
    ref_dose: float | None = None
    variance: float | None = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.variance is not None and self.variance < 0:
            raise InvalidInputError("variance must be non-negative")

    @property
    def ci(self) -> tuple[float, float] | None:
        """The 95% normal interval around `point`; None without a variance."""
        return None if self.variance is None else normal_interval(self.point, self.variance)


def normal_interval(point: float, variance: float, level: float = 0.95):
    """Symmetric normal-approximation interval around a point estimate."""
    _check_level(level)
    if variance < 0:
        raise InvalidInputError("variance must be non-negative")
    half = float(ndtri(0.5 + float(level) / 2.0)) * math.sqrt(variance)
    return (point - half, point + half)


def _check_level(level: float) -> None:
    """Reject an interval level outside (0, 1)."""
    if not (0.0 < level < 1.0):
        raise InvalidInputError(f"level must lie in (0, 1), got {level}")


def _check_int(minimum: int, **parts) -> None:
    """Reject a count, seed or stream key part that is not an integer
    >= `minimum`, before NumPy, `range` or a loop would meet it."""
    for name, value in parts.items():
        if not isinstance(value, (int, np.integer)) or value < minimum:
            raise InvalidInputError(f"{name} must be >= {minimum} and an integer, got {value!r}")


def _check_rows(what: str, rows: int, n: int) -> None:
    """Reject a fit made on another number of rows than the dataset's."""
    if rows != n:
        raise LengthMismatchError(f"{what} has {rows} rows, the dataset {n}")


def _estimate(
    method: str,
    point,
    n_used,
    variance=None,
    diagnostics: dict | None = None,
    *,
    dose: float = 1.0,
    ref_dose: float = 0.0,
) -> CausalEstimate:
    """Build the CausalEstimate every estimator returns.

    It casts the numbers to float and `n_used` to int.
    """
    return CausalEstimate(
        estimand="ATE",
        method=method,
        dose=float(dose),
        ref_dose=float(ref_dose),
        point=float(point),
        variance=None if variance is None else float(variance),
        n_used=int(n_used),
        diagnostics={} if diagnostics is None else diagnostics,
    )


def _select_columns(x: np.ndarray, selection: tuple[int, ...] | None) -> np.ndarray:
    """The covariate columns named by `selection` (all of them for None)."""
    if selection is None:
        return x
    sel = tuple(selection)
    for j in sel:
        if not (0 <= j < x.shape[1]):
            raise InvalidInputError(f"covariate column {j} does not exist (p={x.shape[1]})")
    return x[:, sel]


def difference_in_means(ds: ObservationalDataset) -> CausalEstimate:
    """Mean outcome of treated units minus mean outcome of controls.

    Requires a binary treatment with both arms non-empty. The reported
    variance is the usual unpooled two-sample formula s1^2/n1 + s0^2/n0.
    """
    if ds.treatment_kind != BINARY:
        raise InvalidInputError("difference_in_means requires a binary treatment")
    treated = ds.d == 1.0
    n1 = int(treated.sum())
    n0 = ds.n - n1
    if n1 == 0 or n0 == 0:
        raise EmptyTreatmentArmError(
            f"both arms required (treated={n1}, control={n0})"
        )
    y1 = ds.y[treated]
    y0 = ds.y[~treated]
    point = float(y1.mean() - y0.mean())
    var = None
    if n1 > 1 and n0 > 1:
        var = float(y1.var(ddof=1) / n1 + y0.var(ddof=1) / n0)
    return _estimate(
        "difference_in_means", point, ds.n, var, {"n_treated": n1, "n_control": n0}
    )
