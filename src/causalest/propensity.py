"""Assignment models: the binary propensity score.

Also provides overlap trimming and the stratified balance diagnostic that
verifies the balancing property of the estimated score.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    BINARY,
    ObservationalDataset,
    _as_vector,
    _check_int,
    _check_rows,
)
from .errors import (
    AllUnitsTrimmedError,
    InvalidInputError,
    NoTreatmentVariationError,
    ZeroPropensityError,
)
from .regress import LinearFit, fit_logistic


@dataclass
class PropensityFit:
    """A fitted binary assignment model with per-unit scores.

    Attributes:
        scores: probability of the *received* treatment per unit.
        model: the underlying regression fit (None for injected scores).
        trim_bounds: (lo, hi) applied by trim_overlap, if any.
        level_scores: level -> P(D=level | x) vectors, for levels 0 and 1;
            required.
        diagnostics: extras such as the dropped-unit count after trimming.

    Construction raises InvalidInputError when `level_scores` is missing or
    does not hold exactly the levels 0 and 1, LengthMismatchError when one
    of its vectors differs in length from `scores`, and NonFiniteValueError
    for a non-finite entry of `scores` or of any `level_scores` vector.
    """

    scores: np.ndarray
    model: LinearFit | None = None
    trim_bounds: tuple[float, float] | None = None
    level_scores: dict[float, np.ndarray] | None = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.scores = s = _as_vector("scores", self.scores)
        if self.level_scores is None or set(self.level_scores) != {0.0, 1.0}:
            raise InvalidInputError("level_scores must give P(D=level | x) for levels 0 and 1")
        self.level_scores = {
            level: _as_vector(f"level_scores[{level}]", v, s.shape[0])
            for level, v in self.level_scores.items()
        }
        if np.any(s <= 0.0) or np.any(s >= 1.0):
            raise InvalidInputError("scores must lie strictly in (0, 1)")

    @property
    def n(self) -> int:
        return self.scores.shape[0]

    def score_at(self, d: float) -> np.ndarray:
        """P(D = d | x) for every unit."""
        key = float(d)
        if key not in self.level_scores:
            raise InvalidInputError(f"no score model for level {d}")
        return self.level_scores[key]

    @property
    def scores_treated(self) -> np.ndarray:
        """P(D=1 | x) per unit."""
        return self.score_at(1.0)

    @classmethod
    def from_scores(cls, p1, d) -> "PropensityFit":
        """Wrap externally supplied treated-probabilities as a binary fit.

        `p1` is P(D=1 | x) per unit and `d` the observed 0/1 treatment, so
        the received-dose scores can be formed. Non-finite entries raise
        `NonFiniteValueError`; the range check is the constructor's.
        """
        p = _as_vector("p1", p1)
        dv = _as_vector("d", d, p.shape[0])
        return cls(
            scores=np.where(dv == 1.0, p, 1.0 - p),
            level_scores={1.0: p, 0.0: 1.0 - p},
        )


def _unsaturated(scores: np.ndarray) -> np.ndarray:
    """Fitted received-dose scores; one that rounds to exactly 0 or 1 fails the fit."""
    if scores.min() <= 0.0 or scores.max() >= 1.0:
        raise ZeroPropensityError("a fitted score rounds to exactly 0 or 1")
    return scores


def estimate_propensity_binary(ds: ObservationalDataset) -> PropensityFit:
    """Logistic fit of d on (1, x); scores are fitted received-dose probabilities.

    A score that rounds to exactly 0 or 1 raises ZeroPropensityError. The
    diagnostics record the IRLS `iterations` and `converged` flag.
    """
    if ds.treatment_kind != BINARY:
        raise InvalidInputError("binary propensity model requires a binary treatment")
    if ds.d.min() == ds.d.max():
        raise NoTreatmentVariationError("both treatment arms must be non-empty")
    model = fit_logistic(np.column_stack([np.ones(ds.n), ds.x]), ds.d)
    p1 = model.fitted
    return PropensityFit(
        scores=_unsaturated(np.where(ds.d == 1.0, p1, 1.0 - p1)),
        model=model,
        level_scores={1.0: p1, 0.0: 1.0 - p1},
        diagnostics={"iterations": model.iterations, "converged": model.converged},
    )


def trim_overlap(fit: PropensityFit, lo: float = 0.01, hi: float = 0.99):
    """Drop units whose received-dose score falls outside [lo, hi].

    Returns (trimmed_fit, kept_indices); the caller subsets its dataset with
    `kept_indices`. The dropped count is recorded in the fit diagnostics.
    """
    if not (0.0 <= lo < hi <= 1.0):
        raise InvalidInputError(f"require 0 <= lo < hi <= 1, got ({lo}, {hi})")
    keep = (fit.scores >= lo) & (fit.scores <= hi)
    kept_indices = np.flatnonzero(keep)
    if kept_indices.size == 0:
        raise AllUnitsTrimmedError(f"no unit has score inside [{lo}, {hi}]")
    diagnostics = dict(fit.diagnostics)
    diagnostics["n_dropped"] = int(fit.n - kept_indices.size)
    trimmed = replace(
        fit,
        scores=fit.scores[keep],
        level_scores={k: v[keep] for k, v in fit.level_scores.items()},
        trim_bounds=(lo, hi),
        diagnostics=diagnostics,
    )
    return trimmed, kept_indices


def quantile_strata(scores: np.ndarray, n_strata: int) -> np.ndarray:
    """Assign 0..J-1 stratum labels by sample-quantile edges of the scores.

    Edges are the j/J sample quantiles (linear interpolation); a score equal
    to an edge joins the upper stratum, so tied scores always share a label.
    """
    _check_int(1, n_strata=n_strata)
    edges = np.quantile(scores, np.arange(1, n_strata) / n_strata)
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


def balance_diagnostic(
    ds: ObservationalDataset, fit: PropensityFit, n_strata: int = 5
) -> BalanceTable:
    """Covariate balance before and after stratifying on the estimated score.

    Strata that lack one treatment arm are reported as undefined (NaN rows)
    and excluded from the stratum-averaged SMD; this is diagnostic, not fatal.
    """
    if ds.treatment_kind != BINARY:
        raise InvalidInputError("balance diagnostic requires a binary treatment")
    _check_int(2, n_strata=n_strata)
    _check_rows("score fit", fit.n, ds.n)
    treated = ds.d == 1.0
    if treated.all() or not treated.any():
        raise NoTreatmentVariationError("both arms required for balance checks")
    scale = _pooled_sd(ds.x, treated)
    overall = _smd(ds.x, treated, scale)
    labels = quantile_strata(fit.scores_treated, n_strata)
    p = ds.x.shape[1]
    per_stratum = np.full((n_strata, p), np.nan)
    sizes = np.zeros(n_strata, dtype=int)
    defined = np.zeros(n_strata, dtype=bool)
    for j in range(n_strata):
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
        n_undefined_strata=int(n_strata - defined.sum()),
    )
