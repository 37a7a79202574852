"""Cross-sectional treatment-effect estimators.

Covers outcome regression, inverse-probability weighting, propensity-score
regression, stratification, nearest-neighbour matching on the score, and the
augmented (doubly robust) combination of outcome and assignment models.
"""

from __future__ import annotations

import numpy as np

from .core import (
    CausalEstimate,
    ObservationalDataset,
    _check_arms,
    _check_rows,
    _DrawnRows,
    _estimate,
)
from .errors import (
    DimensionMismatchError,
    InvalidInputError,
    NoUsableStratumError,
    ZeroPropensityError,
)
from .propensity import _N_STRATA, PropensityFit, _distinct_scores, quantile_strata
from .regress import (
    IDENTITY,
    LinearFit,
    _coef_estimate,
    _fit_ols_by_normal_equations,
    fit_ols,
    predict,
)

_WEIGHT_FLOOR = 1e-12


def fit_outcome_model(ds: ObservationalDataset) -> LinearFit:
    """Pooled OLS of y on (1, d, x).

    To leave the covariates out, fit it on a dataset without them,
    `validate(ds.y, ds.d)`. A drawn dataset (a bootstrap row resample, and
    rows `take` draws from one) is fitted over its distinct rows, each
    counted as often as it was drawn, from normal equations; this agrees
    with the SVD fit of the drawn rows to rounding and takes that fit where
    it would lose digits. Its residuals are spread to the drawn rows. Every
    other dataset takes the SVD fit.
    """
    counted = _counted_outcome_fit(ds)
    if counted is None:
        return fit_ols(_outcome_design(ds), ds.y)
    fit = counted[2]
    fit.residuals = ds._spread(fit.residuals)
    return fit


def _outcome_design(ds):
    """The outcome design (1, d, x) of a dataset's rows."""
    return np.column_stack([np.ones(ds.n), ds.d, ds.x])


def _counted_outcome_fit(ds):
    """(rows, counts, fit) of a drawn dataset: its distinct rows, their
    draw counts and the outcome fit of the drawn rows solved over them
    (`_fit_ols_by_normal_equations`), whose residuals are the distinct
    rows'. None for any other dataset, and where those normal equations do
    not hold."""
    if not isinstance(ds, _DrawnRows):
        return None
    rows, counts = ds._distinct
    fit = _fit_ols_by_normal_equations(_outcome_design(rows), rows.y, counts, ds.n)
    return None if fit is None else (rows, counts, fit)


def _total(v: np.ndarray, counts) -> float:
    """The sum of v over rows, row i counted counts[i] times (once each when
    counts is None)."""
    return float(v.sum() if counts is None else counts @ v)


def _mean_and_variance(v: np.ndarray, counts, n: int) -> tuple[float, float]:
    """The mean of v over n rows, row i counted counts[i] times (once each
    when counts is None), and the variance of that mean, s^2 / n."""
    mean = _total(v, counts) / n
    # squared in place, as ndarray.var does, so no third row-length array
    dev = v - mean
    np.multiply(dev, dev, out=dev)
    return mean, _total(dev, counts) / (n - 1) / n


def _outcome_model(ds, outcome_fit):
    """The outcome fit of `ds`'s rows where no counted fit is taken: the
    caller's fit when one is passed, after checking its link, width and row
    count, else the SVD fit."""
    if outcome_fit is None:
        return fit_ols(_outcome_design(ds), ds.y)
    if outcome_fit.link != IDENTITY:
        raise InvalidInputError(
            f"outcome fit has link {outcome_fit.link!r}; the outcome model is OLS ({IDENTITY!r})"
        )
    width = 2 + ds.x.shape[1]
    if outcome_fit.coef.shape[0] != width:
        raise DimensionMismatchError(
            f"outcome fit has design width {outcome_fit.coef.shape[0]}, the dataset needs {width}"
        )
    _check_rows("outcome fit", outcome_fit.residuals.shape[0], ds.n)
    return outcome_fit


def _control_design(ds):
    """The outcome design with every unit's d set to 0; callers overwrite
    column 1 to set it to 1."""
    return np.column_stack([np.ones(ds.n), np.zeros(ds.n), ds.x])


def ate_or(ds: ObservationalDataset, outcome_fit: LinearFit | None = None) -> CausalEstimate:
    """Average effect of d = 1 against d = 0 from the pooled outcome
    regression: the mean prediction with every d set to 1, less that with
    every d set to 0.

    `outcome_fit`, when given, is `fit_outcome_model(ds)` fitted earlier,
    and is used in place of a new fit; one that is not an OLS fit raises
    InvalidInputError, and one whose design width does not match the
    dataset DimensionMismatchError. Without it, a drawn dataset takes its
    means over its distinct rows, weighted by their draw counts, where its
    outcome fit does (`fit_outcome_model`).
    """
    counted = None if outcome_fit is not None else _counted_outcome_fit(ds)
    rows, counts, fit = counted or (ds, None, _outcome_model(ds, outcome_fit))
    design = _control_design(rows)
    lo = _total(predict(fit, design), counts) / ds.n
    design[:, 1] = 1.0
    hi = _total(predict(fit, design), counts) / ds.n
    # the two designs differ only in d's column, so the contrast's delta
    # variance is that of d's coefficient; an exactly identified fit has none
    var = None if fit.coef_cov is None else fit.coef_cov[1, 1]
    return _estimate("or", hi - lo, ds.n, var)


def _arm_weights(p, in_arm, name):
    """The indicator `in_arm` of the arm called `name` (d = 1 or d = 0) as
    floats, checking the received-arm scores `p` against the weight floor
    only where the indicator is on.

    Where it is on, the received-arm score is P(D=arm|x). Where it is off,
    a term is 0·y/score with a positive score, the same signed zero that
    dividing by P(D=arm|x) gives, so neither arm forms 1 - p. The caller
    has checked the arms and the fit's rows.
    """
    if (p[in_arm] < _WEIGHT_FLOOR).any():
        raise ZeroPropensityError(
            f"a {name} unit has an assignment score below {_WEIGHT_FLOOR}"
        )
    return in_arm.astype(float)


def ate_ipw(ds: ObservationalDataset, fit: PropensityFit) -> CausalEstimate:
    """Difference of Horvitz-Thompson weighted means at d = 1 and d = 0.
    A d that is not 0/1 raises InvalidInputError, and an empty arm
    EmptyTreatmentArmError."""
    treated, control = _check_arms(ds)
    _check_rows("score fit", fit.n, ds.n)
    p = fit.scores
    ind1 = _arm_weights(p, treated, "treated")
    ind0 = _arm_weights(p, control, "control")
    contrib = ind1 * ds.y / p - ind0 * ds.y / p
    point, var = _mean_and_variance(contrib, None, ds.n)
    diagnostics = {"n_treated": int(ind1.sum()), "n_control": int(ind0.sum())}
    return _estimate("ipw", point, ds.n, var, diagnostics)


def ate_psr(ds: ObservationalDataset, fit: PropensityFit) -> CausalEstimate:
    """Regression of y on (1, d, p), with p the treated-probability; the
    effect is d's coefficient. A constant score carries no information and
    is left out, which gives the difference in means. A d that is not 0/1
    raises InvalidInputError, and an empty arm EmptyTreatmentArmError."""
    _check_arms(ds)
    _check_rows("score fit", fit.n, ds.n)
    p1 = fit.scores_treated
    degenerate = bool(np.ptp(p1) == 0.0)
    design = np.column_stack([np.ones(ds.n), ds.d, *([] if degenerate else [p1])])
    return _coef_estimate("psr", design, ds.y, 1, {"degenerate_score": degenerate})


def ate_stratification(ds: ObservationalDataset, fit: PropensityFit) -> CausalEstimate:
    """Size-weighted within-stratum mean differences over score quintiles.

    Strata lacking one arm are dropped and the weights renormalized over the
    remaining strata; the excluded unit count is reported as a diagnostic.
    A d that is not 0/1 raises InvalidInputError, an empty arm
    EmptyTreatmentArmError, and arms that share no stratum
    NoUsableStratumError.
    """
    treated, control = _check_arms(ds)
    _check_rows("score fit", fit.n, ds.n)
    labels = quantile_strata(fit.scores_treated)
    diffs, sizes, var_terms = [], [], []
    n_unusable = 0
    for j in range(_N_STRATA):
        in_j = labels == j
        y1 = ds.y[in_j & treated]
        y0 = ds.y[in_j & control]
        if y1.size == 0 or y0.size == 0:
            n_unusable += 1
            continue
        diffs.append(y1.mean() - y0.mean())
        sizes.append(int(in_j.sum()))
        if y1.size > 1 and y0.size > 1:
            var_terms.append(y1.var(ddof=1) / y1.size + y0.var(ddof=1) / y0.size)
        else:
            var_terms.append(None)
    if not sizes:
        raise NoUsableStratumError("no stratum contains both treatment arms")
    w = np.asarray(sizes, dtype=float)
    w /= w.sum()
    point = float(w @ np.asarray(diffs))
    var = None
    if all(v is not None for v in var_terms):
        var = float(np.sum(w**2 * np.asarray(var_terms, dtype=float)))
    diagnostics = {
        "n_unusable_strata": n_unusable,
        "n_excluded_units": int(ds.n - sum(sizes)),
    }
    return _estimate("stratification", point, sum(sizes), var, diagnostics)


def _nearest(targets: np.ndarray, pool: np.ndarray) -> np.ndarray:
    """Position in `pool` of each target's nearest score.

    Candidates are ordered by (|target - score|, position), so distance ties
    go to the lowest position. In one dimension the nearest score below a
    target lies just below its insertion point in sorted order, and likewise
    above, so each target is compared with two candidates: O(n log n) time
    and O(n) memory. The result equals the first entry of a stable argsort
    of the full distance row, the float rounding of the distances included.
    """
    m = pool.size
    up = np.argsort(pool, kind="stable")  # (score, position) ascending
    # (score ascending, position descending): read backwards from a target's
    # insertion point, an equal-score group below it yields its lowest
    # position first
    down = m - 1 - np.argsort(pool[::-1], kind="stable")
    s = pool[up]
    ins = np.searchsorted(s, targets)  # scores at [0, ins) lie below the target
    below = down[np.maximum(ins - 1, 0)]
    above = up[np.minimum(ins, m - 1)]
    gap_below = np.where(ins > 0, np.abs(targets - pool[below]), np.inf)
    gap_above = np.where(ins < m, np.abs(targets - pool[above]), np.inf)
    take_below = (gap_below < gap_above) | ((gap_below == gap_above) & (below < above))
    nearest = np.where(take_below, below, above)

    # Rounding in t - s can give distinct scores on one side of a target the
    # same distance (only when the distance exceeds the nearer of t and s).
    # When such a run reaches a side's candidate, its lowest positions may
    # lie beyond it, so those rare targets are redone in full.
    tie_lo = np.searchsorted(s, s, side="left")  # bounds of each tie group
    tie_hi = np.searchsorted(s, s, side="right")

    def distance_shared_past(rank, first, stop):
        inside = (rank >= first) & (rank < stop)
        at = np.where(inside, rank, 0)
        gap = np.abs(targets - s[at])
        shared = np.zeros(targets.size, dtype=bool)
        for nb in (tie_lo[at] - 1, tie_hi[at]):  # the distinct scores around it
            ok = inside & (nb >= first) & (nb < stop)
            shared |= ok & (np.abs(targets - s[np.where(ok, nb, 0)]) == gap)
        return shared

    redo = distance_shared_past(ins - 1, 0, ins)  # the side below the target
    redo |= distance_shared_past(ins, ins, m)  # the side at or above it
    for i in np.flatnonzero(redo):
        nearest[i] = np.argmin(np.abs(targets[i] - pool))
    return nearest


def ate_matching(ds: ObservationalDataset, fit: PropensityFit) -> CausalEstimate:
    """One-to-one nearest-neighbour matching (with replacement) on the
    treated-probability.

    Each unit's counterfactual outcome is the outcome of its closest
    opposite-arm unit by absolute score distance; distance ties go to the
    lowest-index candidate. The search sorts each arm once, so it costs
    O(n log n) time and O(n) memory. A d that is not 0/1 raises
    InvalidInputError, and an empty arm EmptyTreatmentArmError. No analytic
    variance is reported — use the bootstrap.
    """
    treated, control = _check_arms(ds)
    _check_rows("score fit", fit.n, ds.n)
    p1 = fit.scores_treated
    idx_t = np.flatnonzero(treated)
    idx_c = np.flatnonzero(control)

    def imputed_from(targets, pool):
        # pool positions ascend with the unit index, so the lowest position
        # is the lowest-index candidate
        return ds.y[pool][_nearest(p1[targets], p1[pool])]

    effect_t = ds.y[idx_t] - imputed_from(idx_t, idx_c)
    effect_c = imputed_from(idx_c, idx_t) - ds.y[idx_c]
    point = float((effect_t.sum() + effect_c.sum()) / ds.n)
    return _estimate("matching", point, ds.n)


def ate_dr(
    ds: ObservationalDataset, fit: PropensityFit, outcome_fit: LinearFit | None = None
) -> CausalEstimate:
    """Augmented (doubly robust) estimator combining both nuisance models.

    Consistent if either the outcome regression or the assignment model is
    correctly specified. `outcome_fit`, when given, is
    `fit_outcome_model(ds)` fitted earlier, and is used in place of a new
    fit; one that is not an OLS fit raises InvalidInputError, and one whose
    design width does not match the dataset DimensionMismatchError. A d
    that is not 0/1 raises InvalidInputError, and an empty arm
    EmptyTreatmentArmError, before either model is fitted.
    """
    scores = None if outcome_fit is not None else _distinct_scores(fit, ds)
    counted = None if scores is None else _counted_outcome_fit(ds)
    if counted is None:
        treated, control = _check_arms(ds)
        _check_rows("score fit", fit.n, ds.n)
        or_fit = _outcome_model(ds, outcome_fit)
        rows, counts, scores = ds, None, fit.scores
    else:
        rows, counts, or_fit = counted
        treated, control = _check_arms(rows)
    # one counterfactual design for both arms, apart from the fitted one
    design = _control_design(rows)

    def counterfactual(arm, in_arm, name):
        ind = _arm_weights(scores, in_arm, name)
        design[:, 1] = arm
        m = predict(or_fit, design)
        return m + ind * (rows.y - m) / scores, ind

    hi, ind1 = counterfactual(1.0, treated, "treated")
    lo, ind0 = counterfactual(0.0, control, "control")
    point, var = _mean_and_variance(hi - lo, counts, ds.n)
    diagnostics = {"n_treated": int(_total(ind1, counts)), "n_control": int(_total(ind0, counts))}
    return _estimate("dr", point, ds.n, var, diagnostics)
