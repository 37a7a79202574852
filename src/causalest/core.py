"""Shared data model and validation for all estimators.

Datasets are immutable after validation: the backing arrays are marked
read-only, and a writeable array the caller passed in is copied first, so
the caller's array stays writeable and its later writes never reach the
dataset. A read-only input array is kept as it is.
"""

from __future__ import annotations

import functools
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

def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _owned(a: np.ndarray, source) -> np.ndarray:
    """`a`, coerced from the caller's `source`, as an array only the dataset
    holds: copied when it may share memory with a writeable source array."""
    if isinstance(source, np.ndarray) and source.flags.writeable and np.may_share_memory(a, source):
        return a.copy(order="K")
    return a


def _gather(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The rows of `a` at `rows`, as a read-only C-ordered copy."""
    # np.take copies whole rows; `a[rows]` took 9x as long on a 50,000 x 2 block
    return _readonly(np.take(a, rows, axis=0))


def _indices(indices, n: int) -> np.ndarray:
    """`indices` as a 1-d integer vector with every entry in [0, n).

    A boolean mask, a non-integer dtype or an entry out of range is an input
    error: a cast would read a mask as 0/1 indices, and NumPy would wrap a
    negative entry or raise a bare IndexError.
    """
    idx = np.asarray(indices)
    if idx.ndim != 1 or idx.dtype.kind not in "iu":
        raise InvalidInputError(
            f"indices must be a 1-d integer vector, got dtype {idx.dtype} and shape {idx.shape}"
        )
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise InvalidInputError(f"indices must lie in [0, {n})")
    return idx


def _is_01(v: np.ndarray) -> bool:
    """Whether every entry is 0 or 1."""
    return bool(((v == 0.0) | (v == 1.0)).all())


def _as_float(name: str, v) -> np.ndarray:
    """`v` as a float array; strings, a mapping or ragged rows are an input error."""
    try:
        return np.asarray(v, dtype=float)
    except (TypeError, ValueError) as err:
        raise InvalidInputError(f"'{name}' must be numeric and rectangular: {err}") from None


def _as_vector(name: str, v, n: int | None = None, *, finite: bool = True) -> np.ndarray:
    """Coerce a 1-D input to a float vector, of length `n` when `n` is given.

    With `_as_matrix` and `_check_length` it holds every shape, length and
    finiteness check on array arguments. `finite=False` skips the finiteness
    scan on the regression fit path, whose callers pass validated columns.
    """
    arr = _as_float(name, v)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"'{name}' must be a 1-d vector, got shape {arr.shape}")
    if finite and not np.isfinite(arr).all():
        raise NonFiniteValueError(f"vector '{name}' contains non-finite values")
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
    arr = _as_float(name, m)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"'{name}' must be a vector or 2-d matrix, got shape {arr.shape}")
    _check_length(f"{name} rows", arr, n)
    if finite and not np.isfinite(arr).all():
        raise NonFiniteValueError(f"matrix '{name}' contains non-finite values")
    return arr


@dataclass(frozen=True, eq=False)
class ObservationalDataset:
    """A validated cross-sectional dataset (outcome, treatment, covariates).

    Attributes:
        y: outcome vector, length n.
        d: treatment vector, length n; the estimators that contrast the
            arms d = 1 and d = 0 need it 0/1 (see `_check_arms`).
        x: covariate matrix, shape (n, p); p may be 0.
    """

    y: np.ndarray
    d: np.ndarray
    x: np.ndarray
    # True for a bootstrap resample and for what `take` draws from one: its
    # outcome fits solve their normal equations (`fit_outcome_model`)
    _resampled: bool = field(default=False, init=False, repr=False)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    def take(self, indices) -> "ObservationalDataset":
        """Return a new dataset restricted to (or resampled at) `indices`.

        The gathers copy, so the new arrays own their data. Rows taken from
        a bootstrap resample are a bootstrap resample too.

        Raises:
            InvalidInputError: `indices` is not a 1-d integer vector with
                every entry in [0, n).
            EmptyDatasetError: `indices` selects fewer than 2 rows.
        """
        idx = _indices(indices, self.n)
        if idx.size < 2:
            raise EmptyDatasetError(f"need at least 2 rows, got {idx.size}")
        taken = ObservationalDataset(
            y=_gather(self.y, idx),
            d=_gather(self.d, idx),
            x=_gather(self.x, idx),
        )
        if self._resampled:
            object.__setattr__(taken, "_resampled", True)
        return taken


def validate(y, d, x=None) -> ObservationalDataset:
    """Validate raw columns into an :class:`ObservationalDataset`.

    Any finite `d` is valid input; an estimator that contrasts the arms
    d = 1 and d = 0 checks that it is a 0/1 indicator.

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
    return ObservationalDataset(
        y=_readonly(_owned(yv, y)),
        d=_readonly(_owned(dv, d)),
        x=_readonly(_owned(xm, x)),
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
    # (validated source panel, the source units drawn) of a `_DrawnPanel`
    _drawn_from = None

    @functools.cached_property
    def n(self) -> int:
        return int(self.unit_counts.sum())

    @property
    def n_units(self) -> int:
        return self.unit_counts.shape[0]

    def unit_means(self, v: np.ndarray) -> np.ndarray:
        """Per-unit means of a row-aligned vector, length N."""
        return np.bincount(self.unit_codes, weights=v) / self.unit_counts

    def broadcast_units(self, per_unit: np.ndarray) -> np.ndarray:
        """Expand a length-N per-unit vector back to row alignment."""
        return per_unit[self.unit_codes]

    @functools.cached_property
    def _within(self) -> tuple[np.ndarray, np.ndarray]:
        """The within transform, computed on first read: a read-only,
        C-contiguous (n, 1 + p) block of the unit-demeaned [d, x], and the
        unit-demeaned y."""
        block = np.empty((self.n, 1 + self.x.shape[1]))
        for j, v in enumerate((self.d, *self.x.T)):
            np.subtract(v, self.broadcast_units(self.unit_means(v)), out=block[:, j])
        return _readonly(block), _readonly(self.y - self.broadcast_units(self.unit_means(self.y)))

    @functools.cached_property
    def _unit_sums(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-unit sums of the within transform, computed on first read:
        each unit's cross products Z_i'Z_i of Z = [within d, within x,
        within y], shape (N, 2 + p, 2 + p), and per unit the largest
        |within d| and the largest |d|.

        A panel that draws unit i c_i times from this one has the within
        cross products sum_i c_i Z_i'Z_i (a drawn unit's within rows are its
        source unit's), and its maxima are those of the drawn units.
        """
        block, y = self._within
        columns = [*block.T, y]
        starts = np.cumsum(self.unit_counts) - self.unit_counts
        gram = np.empty((self.n_units, len(columns), len(columns)))
        for j, u in enumerate(columns):
            for l, v in enumerate(columns[: j + 1]):
                gram[:, j, l] = gram[:, l, j] = np.add.reduceat(u * v, starts)
        d_dev = np.maximum.reduceat(np.abs(block[:, 0]), starts)
        d_max = np.maximum.reduceat(np.abs(self.d), starts)
        return _readonly(gram), _readonly(d_dev), _readonly(d_max)

    def take_units(self, unit_index) -> "PanelDataset":
        """Rebuild a panel from whole units (used by the panel bootstrap).

        Repeated indices are allowed; each occurrence becomes a distinct new
        unit, numbered 0..M-1 in draw order, so resampled panels remain
        valid. The result, a `_DrawnPanel`, equals `validate_panel` applied
        to the drawn rows and is built without re-running it.

        Raises:
            InvalidInputError: `unit_index` is not a 1-d integer vector with
                every entry in [0, n_units).
            EmptyDatasetError: the drawn units hold fewer than 2 rows.
        """
        drawn = _indices(unit_index, self.n_units)
        counts = self.unit_counts[drawn]
        n = int(counts.sum())
        if n < 2:
            raise EmptyDatasetError(f"need at least 2 rows, got {n}")
        if self._drawn_from is None:
            source, units = self, np.array(drawn, dtype=np.intp)
        else:
            source, units = self._drawn_from[0], self._drawn_from[1][drawn]
        return _DrawnPanel(_readonly(counts), source, _readonly(units))


class _DrawnPanel(PanelDataset):
    """A panel drawn by whole units from a validated source panel.

    It holds `_drawn_from` = (source, units): drawn unit j is source unit
    `units[j]`, and a draw from a drawn panel draws from its source. Every drawn unit's rows are already contiguous
    and sorted by time, so each row field, the unit codes included, is
    gathered from the source on its first read, with the bits of the
    validated drawn rows. A fixed-effects replicate reads none of them
    unless its sums are too ill-conditioned: it sums the source's per-unit
    cross products (`_unit_sums`).
    """

    def __init__(self, unit_counts: np.ndarray, source: PanelDataset, units: np.ndarray):
        object.__setattr__(self, "unit_counts", unit_counts)
        object.__setattr__(self, "_drawn_from", (source, units))

    @functools.cached_property
    def _rows(self) -> np.ndarray:
        """The drawn rows in the source panel, in draw order."""
        source, units = self._drawn_from
        counts = self.unit_counts
        source_start = (np.cumsum(source.unit_counts) - source.unit_counts)[units]
        target_start = np.cumsum(counts) - counts
        return np.arange(self.n) + np.repeat(source_start - target_start, counts)

    def _gathered(self, name: str) -> np.ndarray:
        """The source's row field `name` at the drawn rows."""
        return _gather(getattr(self._drawn_from[0], name), self._rows)

    @functools.cached_property
    def unit_codes(self) -> np.ndarray:
        """Drawn unit j on its rows."""
        return _readonly(np.repeat(np.arange(self.n_units, dtype=np.intp), self.unit_counts))

    # the drawn units' ids are their codes
    unit = functools.cached_property(lambda self: self.unit_codes)
    time = functools.cached_property(lambda self: self._gathered("time"))
    y = functools.cached_property(lambda self: self._gathered("y"))
    d = functools.cached_property(lambda self: self._gathered("d"))
    x = functools.cached_property(lambda self: self._gathered("x"))


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
    # a uint64 entry beyond int64 takes the float path, whose range check
    # rejects it; a Python-int bound keeps this comparison in uint64
    if time_arr.dtype.kind not in "iu" or (time_arr.dtype == np.uint64 and (time_arr > 2**63 - 1).any()):
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
    """A point estimate of the treatment effect its `method` identifies.

    Attributes:
        method: identifier of the producing estimator.
        point: the estimate.
        variance: estimated sampling variance, when available.
        n_used: rows that actually entered the estimate.
        diagnostics: method-specific extras (JSON-serializable values).

    `ci` is derived from `variance` and cannot be set; attach another
    variance (say, a bootstrap one) with `dataclasses.replace`.
    """

    method: str
    point: float
    n_used: int
    variance: float | None = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.variance is not None and self.variance < 0:
            raise InvalidInputError("variance must be non-negative")

    @property
    def ci(self) -> tuple[float, float] | None:
        """The 95% normal interval around `point`; None without a variance."""
        return None if self.variance is None else normal_interval(self.point, self.variance)


# the 97.5% standard normal quantile, the half-width of a 95% interval in SEs
_Z_95 = float(ndtri(0.975))


def normal_interval(point: float, variance: float):
    """The symmetric 95% normal-approximation interval around a point estimate."""
    if variance < 0:
        raise InvalidInputError("variance must be non-negative")
    half = _Z_95 * math.sqrt(variance)
    return (point - half, point + half)


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


def _check_arms(ds) -> tuple[np.ndarray, np.ndarray]:
    """The arm indicators (d == 1, d == 0) of a treatment that is a 0/1
    indicator with some unit in each arm, d = 1 and d = 0.

    The one check of every estimator that contrasts the two arms. It runs
    before any fit, on which a one-arm design would fail as rank deficient;
    the comparisons allocate boolean vectors only.

    Raises:
        InvalidInputError: d takes a value other than 0 and 1.
        EmptyTreatmentArmError: no unit is in one of the arms.
    """
    treated, control = ds.d == 1.0, ds.d == 0.0
    if not (treated | control).all():
        raise InvalidInputError("the treatment must be a binary (0/1) indicator")
    for arm, in_arm in (("treated", treated), ("control", control)):
        if not in_arm.any():
            raise EmptyTreatmentArmError(f"no unit is in the {arm} arm")
    return treated, control


def _estimate(
    method: str,
    point,
    n_used,
    variance=None,
    diagnostics: dict | None = None,
) -> CausalEstimate:
    """Build the CausalEstimate every estimator returns.

    It casts the numbers to float and `n_used` to int.
    """
    return CausalEstimate(
        method=method,
        point=float(point),
        variance=None if variance is None else float(variance),
        n_used=int(n_used),
        diagnostics={} if diagnostics is None else diagnostics,
    )


def difference_in_means(ds: ObservationalDataset) -> CausalEstimate:
    """Mean outcome of treated units minus mean outcome of controls.

    Requires a 0/1 treatment with both arms non-empty (`_check_arms`). The
    reported variance is the usual unpooled two-sample formula
    s1^2/n1 + s0^2/n0.
    """
    treated, _ = _check_arms(ds)
    n1 = int(treated.sum())
    n0 = ds.n - n1
    y1 = ds.y[treated]
    y0 = ds.y[~treated]
    point = float(y1.mean() - y0.mean())
    var = None
    if n1 > 1 and n0 > 1:
        var = float(y1.var(ddof=1) / n1 + y0.var(ddof=1) / n0)
    return _estimate(
        "difference_in_means", point, ds.n, var, {"n_treated": n1, "n_control": n0}
    )
