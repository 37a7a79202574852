"""Assignment models: the binary propensity score.

Also provides overlap trimming and the stratified balance diagnostic that
verifies the balancing property of the estimated score.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    ObservationalDataset,
    _as_vector,
    _check_arms,
    _check_rows,
    _DrawnRows,
    _same_draws,
)
from .errors import (
    AllUnitsTrimmedError,
    InvalidInputError,
    ZeroPropensityError,
)
from .regress import _chord_steps, fit_logistic


@dataclass
class PropensityFit:
    """A fitted binary assignment model with per-unit scores.

    Attributes:
        scores_treated: P(D=1 | x) per unit.
        scores: probability of the *received* treatment per unit.
        diagnostics: extras such as the dropped-unit count after trimming.
        start: what a bootstrap replicate's score fit starts from: the
            logistic coefficients on (1, x) behind the scores and the
            inverse information of the fit's last Newton step (see
            `LinearFit.start`); None for scores supplied by `from_scores`.

    Construction raises LengthMismatchError when `scores_treated` differs in
    length from `scores`, and NonFiniteValueError for a non-finite entry of
    either.
    """

    scores_treated: np.ndarray
    scores: np.ndarray
    diagnostics: dict = field(default_factory=dict)
    start: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        self.scores = s = _as_vector("scores", self.scores)
        self.scores_treated = _as_vector("scores_treated", self.scores_treated, s.shape[0])
        if np.any(s <= 0.0) or np.any(s >= 1.0):
            raise InvalidInputError("scores must lie strictly in (0, 1)")

    @property
    def n(self) -> int:
        return self.scores.shape[0]

    @classmethod
    def from_scores(cls, p1, d) -> "PropensityFit":
        """Wrap externally supplied treated-probabilities as a binary fit.

        `p1` is P(D=1 | x) per unit and `d` the observed 0/1 treatment, so
        the received-arm scores can be formed. Non-finite entries raise
        `NonFiniteValueError`; the range check is the constructor's.
        """
        p = _as_vector("p1", p1)
        dv = _as_vector("d", d, p.shape[0])
        return cls(scores_treated=p, scores=_received(p, dv))


class _DrawnScores(PropensityFit):
    """A score fit of a drawn dataset's distinct rows (`core._DrawnRows`).

    It holds `_drawn` = (dataset, treated, received): the dataset and the
    treated and received-arm scores of its distinct rows, which the outcome
    regression and doubly robust sums read. `scores_treated` and `scores`,
    which every other reader sees, spread them to the drawn rows on first
    read. `dataclasses.replace` of it returns a plain `PropensityFit` of
    the drawn rows, with the fields it changes.
    """

    def __new__(cls, *args, **fields):
        # `dataclasses.replace` passes the fit's fields by name
        if fields:
            return PropensityFit(**fields)
        return super().__new__(cls)

    def __init__(self, ds: _DrawnRows, treated, received, diagnostics: dict, start):
        self._drawn = (ds, treated, received)
        self.diagnostics, self.start = diagnostics, start

    n = property(lambda self: self._drawn[0].n)
    scores_treated = functools.cached_property(lambda self: self._drawn[0]._spread(self._drawn[1]))
    scores = functools.cached_property(lambda self: self._drawn[0]._spread(self._drawn[2]))


def _distinct_scores(fit: PropensityFit, ds) -> np.ndarray | None:
    """The received-arm scores of the distinct rows of `ds`, when `fit` was
    fitted over them (a `_DrawnScores` of the same draws); else None."""
    if isinstance(fit, _DrawnScores) and _same_draws(fit._drawn[0], ds):
        return fit._drawn[2]
    return None


def _received(p1: np.ndarray, d: np.ndarray) -> np.ndarray:
    """P(D = d_i | x) per unit: 1 - p1, overwritten by p1 where d is 1."""
    # one row-length buffer, where np.where would also allocate 1 - p1
    s = np.subtract(1.0, p1)
    np.copyto(s, p1, where=d == 1.0)
    return s


def _unsaturated(scores: np.ndarray) -> np.ndarray:
    """Fitted received-arm scores; one that rounds to exactly 0 or 1 fails the fit."""
    if scores.min() <= 0.0 or scores.max() >= 1.0:
        raise ZeroPropensityError("a fitted score rounds to exactly 0 or 1")
    return scores


def estimate_propensity_binary(ds: ObservationalDataset, start=None) -> PropensityFit:
    """Logistic fit of d on (1, x); scores are fitted received-arm probabilities.

    The fit starts from `start`, such as the full-sample fit's `start` for
    a bootstrap replicate (zeros when None; see `fit_logistic`). A d
    that is not 0/1 raises InvalidInputError, an empty arm
    EmptyTreatmentArmError, and a score that rounds to exactly 0 or 1
    ZeroPropensityError. The diagnostics record the IRLS `iterations`.

    On a drawn dataset (a bootstrap row resample) a fit from `start` takes
    its chord steps over the distinct drawn rows, each counted as often as
    it was drawn: the score is X'(c (d - p)). Its separation and score
    checks read those rows, which hold the drawn rows' values. Where a
    chord step is discarded, and for every fit from zeros, the drawn rows
    themselves are fitted, as for any dataset.
    """
    if start is not None and isinstance(ds, _DrawnRows):
        rows, counts = ds._distinct
        _check_arms(rows)
        design = np.column_stack([np.ones(rows.n), rows.x])
        model = _chord_steps(design, rows.d, counts, start)[0]
        if model is not None:
            received = _unsaturated(_received(model.fitted, rows.d))
            diagnostics = {"iterations": model.iterations}
            return _DrawnScores(ds, model.fitted, received, diagnostics, model.start)
    _check_arms(ds)
    model = fit_logistic(np.column_stack([np.ones(ds.n), ds.x]), ds.d, start)
    return PropensityFit(
        scores_treated=model.fitted,
        scores=_unsaturated(_received(model.fitted, ds.d)),
        diagnostics={"iterations": model.iterations},
        start=model.start,
    )


def trim_overlap(fit: PropensityFit, lo: float = 0.01, hi: float = 0.99):
    """Drop units whose received-arm score falls outside [lo, hi].

    Returns (trimmed_fit, kept_indices); the caller subsets its dataset with
    `kept_indices`. The dropped count is recorded in the fit diagnostics,
    and the trimmed fit keeps the full sample's `start`. A score fit of a
    drawn dataset's distinct rows is trimmed on those rows, and its kept
    indices are positions into the drawn rows.

    Raises:
        InvalidInputError: lo and hi are not numbers with 0 <= lo < hi <= 1.
        AllUnitsTrimmedError: fewer than 2 units keep their score, the
            fewest a dataset holds.
    """
    if not (all(isinstance(b, numbers.Real) for b in (lo, hi)) and 0.0 <= lo < hi <= 1.0):
        raise InvalidInputError(f"require 0 <= lo < hi <= 1, got ({lo}, {hi})")
    drawn = isinstance(fit, _DrawnScores)
    scores = fit._drawn[2] if drawn else fit.scores
    keep = (scores >= lo) & (scores <= hi)
    if not drawn:
        kept_indices = np.flatnonzero(keep)
    elif keep.all():
        kept_indices = np.arange(fit.n)
    else:
        kept_indices = np.flatnonzero(fit._drawn[0]._spread(keep))
    if kept_indices.size < 2:
        raise AllUnitsTrimmedError(
            f"{kept_indices.size} of {fit.n} units have a score inside [{lo}, {hi}], need at least 2"
        )
    diagnostics = dict(fit.diagnostics)
    diagnostics["n_dropped"] = int(fit.n - kept_indices.size)
    if drawn:
        ds, treated, received = fit._drawn
        if kept_indices.size < ds.n:
            ds, treated, received = ds.take(kept_indices), treated[keep], received[keep]
        return _DrawnScores(ds, treated, received, diagnostics, fit.start), kept_indices
    trimmed = replace(
        fit,
        scores_treated=fit.scores_treated[keep],
        scores=fit.scores[keep],
        diagnostics=diagnostics,
    )
    return trimmed, kept_indices


# stratification and the balance table both block on score quintiles
_N_STRATA = 5


def quantile_strata(scores: np.ndarray) -> np.ndarray:
    """Assign 0..4 stratum labels by the sample quintiles of the scores.

    Edges are the j/5 sample quantiles (linear interpolation); a score equal
    to an edge joins the upper stratum, so tied scores always share a label.
    """
    edges = np.quantile(scores, np.arange(1, _N_STRATA) / _N_STRATA)
    return np.searchsorted(edges, scores, side="right")


@dataclass
class BalanceTable:
    """Standardized mean differences overall and within propensity strata.

    Attributes:
        overall: |mean_t - mean_c| / pooled sd, per covariate (length p).
        per_stratum: per-stratum SMDs on the full-sample pooled-sd scale,
            shape (J, p); NaN where a stratum lacks one arm.
        stratum_avg: size-weighted average of defined per-stratum SMDs.
        stratum_sizes: units per stratum.
        n_undefined_strata: strata that lack one arm entirely.
    """

    overall: np.ndarray
    per_stratum: np.ndarray
    stratum_avg: np.ndarray
    stratum_sizes: np.ndarray
    n_undefined_strata: int


def _pooled_sd(x: np.ndarray, treated: np.ndarray) -> np.ndarray:
    """Column-wise pooled standard deviation across the two arms."""
    xt = x[treated]
    xc = x[~treated]
    return np.sqrt((xt.var(ddof=0, axis=0) + xc.var(ddof=0, axis=0)) / 2.0)


def _smd(x: np.ndarray, treated: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Column-wise standardized mean difference; 0 for zero-variance columns.

    Within-stratum differences are standardized by the full-sample pooled sd
    (passed as ``scale``) so strata are comparable on a common scale: a narrow
    stratum shrinks the mean difference, not the yardstick.
    """
    xt = x[treated]
    xc = x[~treated]
    diff = np.abs(xt.mean(axis=0) - xc.mean(axis=0))
    out = np.zeros(x.shape[1])
    nz = scale > 0
    out[nz] = diff[nz] / scale[nz]
    return out


def balance_diagnostic(ds: ObservationalDataset, fit: PropensityFit) -> BalanceTable:
    """Covariate balance before and after stratifying on the estimated score.

    Strata that lack one treatment arm are reported as undefined (NaN rows)
    and excluded from the stratum-averaged SMD; this is diagnostic, not fatal.
    A d that is not 0/1 raises InvalidInputError, and an empty arm
    EmptyTreatmentArmError.
    """
    treated, _ = _check_arms(ds)
    _check_rows("score fit", fit.n, ds.n)
    scale = _pooled_sd(ds.x, treated)
    overall = _smd(ds.x, treated, scale)
    labels = quantile_strata(fit.scores_treated)
    p = ds.x.shape[1]
    per_stratum = np.full((_N_STRATA, p), np.nan)
    sizes = np.zeros(_N_STRATA, dtype=int)
    defined = np.zeros(_N_STRATA, dtype=bool)
    for j in range(_N_STRATA):
        in_j = labels == j
        sizes[j] = int(in_j.sum())
        tj = treated[in_j]
        if sizes[j] == 0 or tj.all() or not tj.any():
            continue
        per_stratum[j] = _smd(ds.x[in_j], tj, scale)
        defined[j] = True
    if p and defined.any():
        w = sizes[defined] / sizes[defined].sum()
        stratum_avg = w @ per_stratum[defined]
    else:
        stratum_avg = np.full(p, np.nan)
    return BalanceTable(
        overall=overall,
        per_stratum=per_stratum,
        stratum_avg=stratum_avg,
        stratum_sizes=sizes,
        n_undefined_strata=int(_N_STRATA - defined.sum()),
    )
