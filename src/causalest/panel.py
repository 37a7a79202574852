"""Longitudinal estimators: pooled OLS, random effects, fixed effects,
first differences, and the correlated-random-effects (Mundlak) device.

All five return the coefficient on the treatment column as the effect
estimate; they differ in how they handle unit-level unobserved heterogeneity.
"""

from __future__ import annotations

import numpy as np

from .core import CausalEstimate, PanelDataset, _estimate
from .errors import NoWithinVariationError, TooFewPeriodsError
from .regress import _coef_estimate, fit_ols

_ZERO_RTOL = 1e-12


def _require_two_periods(pds: PanelDataset, method: str):
    if int(pds.unit_counts.min()) < 2:
        raise TooFewPeriodsError(f"{method} requires >= 2 periods for every unit")


def _no_variation(v: np.ndarray, scale: float) -> bool:
    return float(np.max(np.abs(v), initial=0.0)) <= _ZERO_RTOL * max(1.0, scale)


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


def _within_fit(pds: PanelDataset):
    """OLS of the unit-demeaned y on the panel's within design, the demeaned
    d and x; returns (fit, dof), where dof also subtracts the N absorbed
    unit means."""
    design, y = pds._within
    k = design.shape[1]
    dof = pds.n - pds.n_units - k
    if dof < 1:
        raise TooFewPeriodsError(
            f"no residual degrees of freedom (n={pds.n}, units={pds.n_units}, k={k})"
        )
    if _no_variation(design[:, 0], float(np.max(np.abs(pds.d)))):
        raise NoWithinVariationError("treatment is constant within every unit")
    return fit_ols(design, y), dof


def _coef_on_d(method, intercept, d, x, y, diagnostics=None) -> CausalEstimate:
    """OLS of y on intercept, d, x; d's coefficient is the estimate.

    `intercept` is the constant column (a scalar broadcasts).
    """
    design = np.empty((d.shape[0], 2 + x.shape[1]))
    design[:, 0] = intercept
    design[:, 1] = d
    design[:, 2:] = x
    return _coef_estimate(method, design, y, 1, diagnostics)


def fit_pols(pds: PanelDataset) -> CausalEstimate:
    """Pooled OLS of y on (1, d, x), ignoring the panel structure."""
    return _coef_on_d("pols", 1.0, pds.d, pds.x, pds.y)


def fit_fe(pds: PanelDataset) -> CausalEstimate:
    """Within (fixed-effects) estimator: OLS on unit-demeaned columns.

    The error variance subtracts the N estimated unit means from the degrees
    of freedom.
    """
    _require_two_periods(pds, "fixed effects")
    fit, dof = _within_fit(pds)
    # fit_ols scales the covariance by RSS/(n-k); correct for the N absorbed means
    var = fit.coef_cov[0, 0] * (pds.n - fit.design_width) / dof
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
    if _no_variation(pds.d - dbar, float(np.max(np.abs(pds.d)))):
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
        return _coef_on_d("re", 1.0, pds.d, pds.x, pds.y, diagnostics)

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
