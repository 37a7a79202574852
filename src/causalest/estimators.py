"""Cross-sectional treatment-effect estimators.

Covers outcome regression, inverse-probability weighting, propensity-score
regression, stratification, nearest-neighbour matching on the score, and the
augmented (doubly robust) combination of outcome and assignment models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BINARY,
    CausalEstimate,
    ObservationalDataset,
    _check_int,
    _check_rows,
    _estimate,
    _select_columns,
)
from .errors import (
    DimensionMismatchError,
    EmptyDoseGroupError,
    InsufficientMatchesError,
    InvalidInputError,
    NoUsableStratumError,
    ZeroPropensityError,
)
from .propensity import PropensityFit, quantile_strata
from .regress import IDENTITY, LOGIT, LinearFit, fit_logistic, fit_ols, predict
from .variance import delta_variance

_WEIGHT_FLOOR = 1e-12


@dataclass(frozen=True)
class OrSpec:
    """Outcome-regression specification.

    Attributes:
        link: "identity" (linear model) or "logit" (binary outcomes).
        interactions_with_d: also include treatment-by-covariate products,
            letting covariate slopes differ by treatment level.
        covariate_selection: indices of x columns to include (None = all;
            an empty tuple fits the treatment-only model).
    """

    link: str = IDENTITY
    interactions_with_d: bool = False
    covariate_selection: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.link not in (IDENTITY, LOGIT):
            raise InvalidInputError(f"unknown link {self.link!r}")


def _or_design(d: np.ndarray, x: np.ndarray, spec: OrSpec) -> np.ndarray:
    xs = _select_columns(x, spec.covariate_selection)
    cols = [np.ones(d.shape[0]), d]
    if xs.shape[1]:
        cols.append(xs)
        if spec.interactions_with_d:
            cols.append(d[:, None] * xs)
    return np.column_stack(cols)


def fit_outcome_model(ds: ObservationalDataset, spec: OrSpec | None = None) -> LinearFit:
    """Pooled regression of y on (1, d, x[, d*x]) with the requested link."""
    spec = spec or OrSpec()
    design = _or_design(ds.d, ds.x, spec)
    if spec.link == LOGIT:
        return fit_logistic(design, ds.y)
    return fit_ols(design, ds.y)


def _outcome_model(ds, spec, outcome_fit):
    """`spec`'s outcome model on `ds`: the caller's fit when one is passed,
    after checking that it has the spec's link, width and row count."""
    if outcome_fit is None:
        return fit_outcome_model(ds, spec)
    p = ds.x.shape[1] if spec.covariate_selection is None else len(spec.covariate_selection)
    width = 2 + p * (2 if spec.interactions_with_d else 1)
    if outcome_fit.design_width != width:
        raise DimensionMismatchError(
            f"outcome fit has design width {outcome_fit.design_width}, the spec needs {width}"
        )
    if outcome_fit.link != spec.link:
        raise InvalidInputError(
            f"outcome fit has link {outcome_fit.link!r}, the spec has {spec.link!r}"
        )
    _check_rows("outcome fit", outcome_fit.residuals.shape[0], ds.n)
    return outcome_fit


def _dose_designs(ds, spec):
    """A function from a dose to the outcome design with every unit's dose set
    to it. All calls share one buffer and overwrite only the dose columns."""
    design = _or_design(np.zeros(ds.n), ds.x, spec)
    xs = _select_columns(ds.x, spec.covariate_selection)

    def at(dose):
        design[:, 1] = float(dose)
        if spec.interactions_with_d:
            design[:, 2 + xs.shape[1]:] = float(dose) * xs
        return design

    return at


def _apo_prediction(fit, design_at):
    """Mean predicted outcome on a counterfactual design, plus the
    delta-method gradient of that mean in the coefficients."""
    preds = predict(fit, design_at)
    if fit.link == LOGIT:
        grad = ((preds * (1.0 - preds))[:, None] * design_at).mean(axis=0)
    else:
        grad = design_at.mean(axis=0)
    return float(preds.mean()), grad


def ate_or(
    ds: ObservationalDataset,
    dose: float = 1.0,
    ref_dose: float = 0.0,
    spec: OrSpec | None = None,
    outcome_fit: LinearFit | None = None,
) -> CausalEstimate:
    """Average effect of `dose` vs `ref_dose` from the pooled outcome regression.

    `outcome_fit`, when given, is `fit_outcome_model(ds, spec)` fitted
    earlier, and is used in place of a new fit; one whose design width does
    not match the spec raises DimensionMismatchError.
    """
    spec = spec or OrSpec()
    fit = _outcome_model(ds, spec, outcome_fit)
    design_at = _dose_designs(ds, spec)
    hi, g_hi = _apo_prediction(fit, design_at(dose))
    lo, g_lo = _apo_prediction(fit, design_at(ref_dose))
    point = hi - lo
    var = delta_variance(fit, g_hi - g_lo)
    diagnostics = {"link": spec.link, "interactions": spec.interactions_with_d}
    return _estimate("or", point, ds.n, var, diagnostics, dose=dose, ref_dose=ref_dose)


def _dose_weights(ds, fit, dose):
    """Indicator of receiving `dose` and the per-unit P(D=dose|x) scores,
    guarding the weight floor only where the indicator is on."""
    _check_rows("score fit", fit.n, ds.n)
    at_dose = ds.d == float(dose)
    if not at_dose.any():
        raise EmptyDoseGroupError(f"no unit received dose {dose}")
    p = fit.score_at(dose)
    if (p[at_dose] < _WEIGHT_FLOOR).any():
        raise ZeroPropensityError(
            f"a unit at dose {dose} has an assignment score below {_WEIGHT_FLOOR}"
        )
    return at_dose.astype(float), p


def ate_ipw(
    ds: ObservationalDataset,
    fit: PropensityFit,
    dose: float = 1.0,
    ref_dose: float = 0.0,
) -> CausalEstimate:
    """Difference of Horvitz-Thompson weighted means at `dose` vs `ref_dose`."""
    ind1, p1 = _dose_weights(ds, fit, dose)
    ind0, p0 = _dose_weights(ds, fit, ref_dose)
    contrib = ind1 * ds.y / p1 - ind0 * ds.y / p0
    point = float(contrib.mean())
    var = float(contrib.var(ddof=1) / ds.n)
    diagnostics = {"n_at_dose": int(ind1.sum()), "n_at_ref": int(ind0.sum())}
    return _estimate("ipw", point, ds.n, var, diagnostics, dose=dose, ref_dose=ref_dose)


def ate_psr(
    ds: ObservationalDataset,
    fit: PropensityFit,
    dose: float = 1.0,
    ref_dose: float = 0.0,
    poly_degree: int = 1,
    interactions: bool = False,
) -> CausalEstimate:
    """Regression of y on treatment and a polynomial in the treated-probability.

    The additive form (default) reads the effect off the treatment
    coefficient. With `interactions=True`, treatment-by-score products are
    added and the averaged predicted contrast at `dose` vs `ref_dose` is
    returned (the treatment coefficient plus the interaction coefficients
    evaluated at the mean score powers).
    """
    if ds.treatment_kind != BINARY:
        raise InvalidInputError("propensity-score regression requires a binary treatment")
    _check_int(1, poly_degree=poly_degree)
    _check_rows("score fit", fit.n, ds.n)
    p1 = fit.scores_treated
    degenerate = bool(np.ptp(p1) == 0.0)
    powers = [] if degenerate else [p1**k for k in range(1, poly_degree + 1)]
    cols = [np.ones(ds.n), ds.d, *powers]
    if interactions and not degenerate:
        cols.extend(ds.d * pk for pk in powers)
    design = np.column_stack(cols)
    ols = fit_ols(design, ds.y)
    grad = np.zeros(design.shape[1])
    grad[1] = float(dose) - float(ref_dose)
    if interactions and not degenerate:
        for k in range(1, poly_degree + 1):
            grad[1 + poly_degree + k] = grad[1] * float((p1**k).mean())
    point = float(grad @ ols.coef)
    var = delta_variance(ols, grad)
    diagnostics = {
        "poly_degree": poly_degree,
        "interactions": interactions,
        "degenerate_score": degenerate,
    }
    return _estimate("psr", point, ds.n, var, diagnostics, dose=dose, ref_dose=ref_dose)


def ate_stratification(
    ds: ObservationalDataset, fit: PropensityFit, n_strata: int = 5
) -> CausalEstimate:
    """Size-weighted within-stratum mean differences over score strata.

    Strata lacking one arm are dropped and the weights renormalized over the
    remaining strata; the excluded unit count is reported as a diagnostic.
    """
    if ds.treatment_kind != BINARY:
        raise InvalidInputError("stratification requires a binary treatment")
    _check_rows("score fit", fit.n, ds.n)
    labels = quantile_strata(fit.scores_treated, n_strata)
    treated = ds.d == 1.0
    diffs, sizes, var_terms = [], [], []
    n_unusable = 0
    for j in range(n_strata):
        in_j = labels == j
        y1 = ds.y[in_j & treated]
        y0 = ds.y[in_j & ~treated]
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
        "n_strata": n_strata,
        "n_unusable_strata": n_unusable,
        "n_excluded_units": int(ds.n - sum(sizes)),
    }
    return _estimate("stratification", point, sum(sizes), var, diagnostics)


def _nearest(targets: np.ndarray, pool: np.ndarray, k: int) -> np.ndarray:
    """Positions in `pool` of each target's `k` nearest scores, nearest first.

    Candidates are ordered by (|target - score|, position), so distance ties
    go to the lowest position. In one dimension the k nearest scores lying
    below a target are the k just below its insertion point in sorted order,
    and likewise above, so only a (n_targets, 2k) block is ever compared:
    O(n log n + n k log k) time and O(n k) memory. The result equals a
    stable argsort of the full distance row, the float rounding of the
    distances included.
    """
    m = pool.size
    up = np.argsort(pool, kind="stable")  # (score, position) ascending
    # (score ascending, position descending): read backwards from a target's
    # insertion point, an equal-score group below it yields its lowest
    # positions first
    down = m - 1 - np.argsort(pool[::-1], kind="stable")
    s = pool[up]
    ins = np.searchsorted(s, targets)  # scores at [0, ins) lie below the target
    steps = np.arange(k)
    below = ins[:, None] - 1 - steps
    above = ins[:, None] + steps
    cand = np.concatenate(
        [down[np.maximum(below, 0)], up[np.minimum(above, m - 1)]], axis=1
    )
    valid = np.concatenate([below >= 0, above < m], axis=1)
    dist = np.where(valid, np.abs(targets[:, None] - pool[cand]), np.inf)
    order = np.lexsort((np.where(valid, cand, m), dist), axis=1)[:, :k]
    nearest = np.take_along_axis(cand, order, axis=1)

    # Rounding in t - s can give distinct scores on one side of a target the
    # same distance (only when the distance exceeds the nearer of t and s).
    # When such a run reaches a side's k-th candidate, its lowest positions
    # may lie outside the window, so those rare targets are redone in full.
    tie_lo = np.searchsorted(s, s, side="left")  # bounds of each tie group
    tie_hi = np.searchsorted(s, s, side="right")

    def distance_shared_past(kth, first, stop):
        inside = (kth >= first) & (kth < stop)
        at = np.where(inside, kth, 0)
        gap = np.abs(targets - s[at])
        shared = np.zeros(targets.size, dtype=bool)
        for nb in (tie_lo[at] - 1, tie_hi[at]):  # the distinct scores around it
            ok = inside & (nb >= first) & (nb < stop)
            shared |= ok & (np.abs(targets - s[np.where(ok, nb, 0)]) == gap)
        return shared

    redo = distance_shared_past(ins - k, 0, ins)  # the side below the target
    redo |= distance_shared_past(ins + k - 1, ins, m)  # the side at or above it
    for i in np.flatnonzero(redo):
        nearest[i] = np.argsort(np.abs(targets[i] - pool), kind="stable")[:k]
    return nearest


def ate_matching(
    ds: ObservationalDataset, fit: PropensityFit, n_matches: int = 1
) -> CausalEstimate:
    """Nearest-neighbour matching (with replacement) on the treated-probability.

    Each unit's counterfactual outcome is the mean outcome of its `n_matches`
    closest opposite-arm units by absolute score distance; distance ties go
    to the lowest-index candidate. The search sorts each arm once, so it
    costs O(n log n) time and O(n * n_matches) memory. No analytic variance
    is reported — use the bootstrap.
    """
    if ds.treatment_kind != BINARY:
        raise InvalidInputError("matching requires a binary treatment")
    _check_int(1, n_matches=n_matches)
    _check_rows("score fit", fit.n, ds.n)
    p1 = fit.scores_treated
    treated = ds.d == 1.0
    idx_t = np.flatnonzero(treated)
    idx_c = np.flatnonzero(~treated)
    if min(idx_t.size, idx_c.size) < n_matches:
        raise InsufficientMatchesError(
            f"need {n_matches} matches but arms have sizes "
            f"({idx_t.size}, {idx_c.size})"
        )

    def imputed_from(targets, pool):
        # pool positions ascend with the unit index, so the lowest position
        # is the lowest-index candidate
        return ds.y[pool][_nearest(p1[targets], p1[pool], n_matches)].mean(axis=1)

    effect_t = ds.y[idx_t] - imputed_from(idx_t, idx_c)
    effect_c = imputed_from(idx_c, idx_t) - ds.y[idx_c]
    point = float((effect_t.sum() + effect_c.sum()) / ds.n)
    return _estimate("matching", point, ds.n, diagnostics={"n_matches": n_matches})


def ate_dr(
    ds: ObservationalDataset,
    fit: PropensityFit,
    dose: float = 1.0,
    ref_dose: float = 0.0,
    spec: OrSpec | None = None,
    outcome_fit: LinearFit | None = None,
) -> CausalEstimate:
    """Augmented (doubly robust) estimator combining both nuisance models.

    Consistent if either the outcome regression or the assignment model is
    correctly specified. `outcome_fit`, when given, is
    `fit_outcome_model(ds, spec)` fitted earlier, and is used in place of a
    new fit; one whose design width does not match the spec raises
    DimensionMismatchError.
    """
    spec = spec or OrSpec()
    or_fit = _outcome_model(ds, spec, outcome_fit)
    # one counterfactual design for both arms, apart from the fitted one
    design_at = _dose_designs(ds, spec)

    def arm(d_val):
        ind, p = _dose_weights(ds, fit, d_val)
        m = predict(or_fit, design_at(d_val))
        return m + ind * (ds.y - m) / p, ind

    hi, ind1 = arm(dose)
    lo, ind0 = arm(ref_dose)
    contrib = hi - lo
    point = float(contrib.mean())
    var = float(contrib.var(ddof=1) / ds.n)
    diagnostics = {
        "link": spec.link,
        "interactions": spec.interactions_with_d,
        "n_at_dose": int(ind1.sum()),
        "n_at_ref": int(ind0.sum()),
    }
    return _estimate("dr", point, ds.n, var, diagnostics, dose=dose, ref_dose=ref_dose)
