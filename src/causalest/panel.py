"""Longitudinal estimators: pooled OLS, random effects, fixed effects,
first differences, and the correlated-random-effects (Mundlak) device.

All five return the coefficient on the treatment column as the effect
estimate; they differ in how they handle unit-level unobserved heterogeneity.
"""

from __future__ import annotations

import numpy as np

from .core import CausalEstimate, PanelDataset, _estimate
from .errors import NoWithinVariationError, TooFewPeriodsError
from .regress import _coef_estimate, _normal_equations_hold, fit_ols

_ZERO_RTOL = 1e-12
#: smallest share of the within sum of squares of y that the residual sum of
#: squares from the sums may be: y'y - b'coef cancels digits as the fit
#: nears exact. At cond(A) <= 1e3 the variance's relative error stayed under
#: 5e-12 for shares above 1e-3, but reached 1e-10 between 1e-4 and 1e-3
_SUMS_RSS_SHARE = 1e-3


def _require_two_periods(pds: PanelDataset, method: str):
    if int(pds.unit_counts.min()) < 2:
        raise TooFewPeriodsError(f"{method} requires >= 2 periods for every unit")


def _no_variation(dev: float, scale: float) -> bool:
    """Whether a largest |deviation| `dev` is zero at the scale of the largest |d|."""
    return dev <= _ZERO_RTOL * max(1.0, scale)


def _demeaned(pds: PanelDataset, columns, means, theta: np.ndarray) -> np.ndarray:
    """RE's quasi-demeaned design: one (n, k) array whose column j is
    `columns[j] - theta * means[j]`, with the per-unit `means[j]` broadcast
    to the rows and `theta` given per row."""
    design = np.empty((pds.n, len(columns)))
    for j, (v, m) in enumerate(zip(columns, means)):
        shift = pds.broadcast_units(m)  # a fresh array: fancy indexing copies
        shift *= theta
        np.subtract(v, shift, out=design[:, j])
    return design


def _within_dof(pds: PanelDataset, k: int, d_dev: float, d_max: float) -> int:
    """The within fit's residual degrees of freedom, which also subtract the N
    absorbed unit means, after its checks; `d_dev` is the largest |within d|
    and `d_max` the largest |d|."""
    dof = pds.n - pds.n_units - k
    if dof < 1:
        raise TooFewPeriodsError(
            f"no residual degrees of freedom (n={pds.n}, units={pds.n_units}, k={k})"
        )
    if _no_variation(d_dev, d_max):
        raise NoWithinVariationError("treatment is constant within every unit")
    return dof


def _within_fit(pds: PanelDataset):
    """OLS of the unit-demeaned y on the panel's within design, the demeaned
    d and x, read from `PanelDataset._within_ols` after the checks of
    `_within_dof`; returns (fit, dof)."""
    design, _ = pds._within
    dof = _within_dof(
        pds, design.shape[1], float(np.max(np.abs(design[:, 0]))), float(np.max(np.abs(pds.d)))
    )
    return pds._within_ols, dof


def _fe_from_sums(pds: PanelDataset) -> CausalEstimate | None:
    """Fixed effects of a panel built by `take_units`, from its source's
    per-unit sums: with c_i the draws of source unit i, A = sum c_i A_i and
    b = sum c_i b_i give A coef = b, and the residual sum of squares is
    sum c_i y_i'y_i - b'coef. No row is gathered.

    Returns None, for the caller to fit the gathered rows, when A is too
    ill-conditioned for the normal equations or too near the SVD fit's rank
    rule (`regress._normal_equations_hold`), or when the fit is too near
    exact (`_SUMS_RSS_SHARE`).
    """
    source, units = pds._drawn_from
    gram, d_dev, d_max = source._unit_sums
    k = gram.shape[1] - 1
    dof = _within_dof(pds, k, float(d_dev[units].max()), float(d_max[units].max()))
    draws = np.bincount(units, minlength=source.n_units).astype(float)
    sums = (draws @ gram.reshape(source.n_units, -1)).reshape(k + 1, k + 1)
    a, b, yy = sums[:k, :k], sums[:k, k], sums[k, k]
    if not _normal_equations_hold(a):
        return None
    rhs = np.zeros((k, 2))
    rhs[:, 0] = b
    rhs[0, 1] = 1.0
    solved = np.linalg.solve(a, rhs)  # coef, and the first column of A^-1
    rss = yy - b @ solved[:, 0]
    if not rss > _SUMS_RSS_SHARE * yy:
        return None
    return _estimate("fe", solved[0, 0], pds.n, rss / dof * solved[0, 1], {"dof": int(dof)})


def _on_d(intercept, d, x) -> np.ndarray:
    """The design (intercept, d, x); `intercept` is the constant column (a
    scalar broadcasts)."""
    design = np.empty((d.shape[0], 2 + x.shape[1]))
    design[:, 0] = intercept
    design[:, 1] = d
    design[:, 2:] = x
    return design


def _coef_on_d(method, intercept, d, x, y, diagnostics=None) -> CausalEstimate:
    """OLS of y on intercept, d, x; d's coefficient is the estimate."""
    return _coef_estimate(method, fit_ols(_on_d(intercept, d, x), y), 1, diagnostics)


def _pooled_ols(pds: PanelDataset):
    """OLS of y on (1, d, x), ignoring the panel structure; a panel fits it
    once, as `PanelDataset._pooled_ols`."""
    return fit_ols(_on_d(1.0, pds.d, pds.x), pds.y)


def fit_pols(pds: PanelDataset) -> CausalEstimate:
    """Pooled OLS of y on (1, d, x), ignoring the panel structure."""
    return _coef_estimate("pols", pds._pooled_ols, 1)


def fit_fe(pds: PanelDataset) -> CausalEstimate:
    """Within (fixed-effects) estimator: OLS on unit-demeaned columns.

    The error variance subtracts the N estimated unit means from the degrees
    of freedom. A panel built by `take_units` is fitted from its source's
    per-unit sums (`_fe_from_sums`), which agree with the fit of its rows to
    rounding, and from its gathered rows where the sums would lose digits.
    """
    _require_two_periods(pds, "fixed effects")
    if pds._drawn_from is not None:
        est = _fe_from_sums(pds)
        if est is not None:
            return est
    fit, dof = _within_fit(pds)
    # fit_ols scales the covariance by RSS/(n-k); correct for the N absorbed means
    var = fit.coef_cov[0, 0] * (pds.n - fit.coef.shape[0]) / dof
    return _estimate("fe", fit.coef[0], pds.n, var, {"dof": int(dof)})


def fit_fd(pds: PanelDataset) -> CausalEstimate:
    """First-difference estimator: OLS of consecutive-period differences."""
    _require_two_periods(pds, "first differences")
    same_unit = pds.unit_codes[1:] == pds.unit_codes[:-1]
    dd, dy, dx = ((v[1:] - v[:-1])[same_unit] for v in (pds.d, pds.y, pds.x))
    if np.ptp(dd) == 0.0:
        raise NoWithinVariationError("differenced treatment has no variation beyond the intercept")
    return _coef_on_d("fd", 1.0, dd, dx, dy)


def fit_cre(pds: PanelDataset) -> CausalEstimate:
    """Correlated-random-effects (Mundlak) estimator.

    Augments the pooled regression with the unit mean of the treatment,
    absorbing unit effects that correlate with d; on balanced panels the
    treatment coefficient equals the fixed-effects estimate.
    """
    _require_two_periods(pds, "correlated random effects")
    dbar = pds.broadcast_units(pds.unit_means(pds.d))
    # the unit means would otherwise duplicate d and fail as a rank deficiency
    if _no_variation(float(np.max(np.abs(pds.d - dbar))), float(np.max(np.abs(pds.d)))):
        raise NoWithinVariationError("treatment is constant within every unit")
    return _coef_on_d("cre", 1.0, pds.d, np.column_stack([pds.x, dbar]), pds.y)


def fit_re(pds: PanelDataset) -> CausalEstimate:
    """Random-effects GLS with Swamy-Arora-style variance components.

    The idiosyncratic variance comes from the within regression, the
    unit-effect variance from the between regression; the data are then
    quasi-demeaned by theta_i and fit by OLS. When the unit-effect variance
    estimate is non-positive (or too few units exist to run the between
    regression), the estimator falls back to pooled OLS and records the
    reason in the diagnostics.
    """
    counts = pds.unit_counts.astype(float)
    N = pds.n_units
    columns = [pds.d, *pds.x.T]
    means = [pds.unit_means(v) for v in columns]
    y_means = pds.unit_means(pds.y)

    def pols_fallback(**diagnostics):
        return _coef_estimate("re", pds._pooled_ols, 1, diagnostics)

    # within step for the idiosyncratic variance
    w_fit, dof_w = _within_fit(pds)
    s2e = float(w_fit.residuals @ w_fit.residuals) / dof_w

    # between step for the unit-effect variance
    b_design = np.column_stack([np.ones(N), *means])
    k_b = b_design.shape[1]
    if N <= k_b:
        return pols_fallback(re_fallback="too-few-units-for-between-step")
    b_fit = fit_ols(b_design, y_means)
    s2b = float(b_fit.residuals @ b_fit.residuals) / (N - k_b)
    t_harmonic = N / float(np.sum(1.0 / counts))
    s2u = s2b - s2e / t_harmonic
    if s2u <= 0.0:
        return pols_fallback(re_fallback="nonpositive-unit-variance", sigma2_e=s2e, sigma2_u=s2u)

    theta = 1.0 - np.sqrt(s2e / (counts * s2u + s2e))
    theta_row = pds.broadcast_units(theta)
    quasi = _demeaned(pds, columns, means, theta_row)
    yt = pds.y - pds.broadcast_units(y_means) * theta_row
    diagnostics = {
        "sigma2_e": s2e,
        "sigma2_u": float(s2u),
        "theta_min": float(theta.min()),
        "theta_max": float(theta.max()),
    }
    return _coef_on_d("re", 1.0 - theta_row, quasi[:, 0], quasi[:, 1:], yt, diagnostics)
