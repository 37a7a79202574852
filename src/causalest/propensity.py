"""Assignment models: the binary propensity score.

Also provides overlap trimming and the stratified balance diagnostic that
verifies the balancing property of the estimated score.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    ObservationalDataset,
    _as_vector,
    _check_arms,
    _check_rows,
)
from .errors import (
    AllUnitsTrimmedError,
    InvalidInputError,
    ZeroPropensityError,
)
from .regress import fit_logistic


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
    """
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
    and the trimmed fit keeps the full sample's `start`.

    Raises:
        InvalidInputError: lo and hi are not numbers with 0 <= lo < hi <= 1.
        AllUnitsTrimmedError: fewer than 2 units keep their score, the
            fewest a dataset holds.
    """
    if not (all(isinstance(b, numbers.Real) for b in (lo, hi)) and 0.0 <= lo < hi <= 1.0):
        raise InvalidInputError(f"require 0 <= lo < hi <= 1, got ({lo}, {hi})")
    keep = (fit.scores >= lo) & (fit.scores <= hi)
    kept_indices = np.flatnonzero(keep)
    if kept_indices.size < 2:
        raise AllUnitsTrimmedError(
            f"{kept_indices.size} of {fit.n} units have a score inside [{lo}, {hi}], need at least 2"
        )
    diagnostics = dict(fit.diagnostics)
    diagnostics["n_dropped"] = int(fit.n - kept_indices.size)
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
