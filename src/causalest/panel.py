"""Longitudinal estimators: pooled OLS, random effects, fixed effects,
first differences, and the correlated-random-effects (Mundlak) device.

All five return the coefficient on the treatment column as the effect
estimate; they differ in how they handle unit-level unobserved heterogeneity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CausalEstimate, PanelDataset, _estimate, _select_columns
from .errors import (
    InvalidInputError,
    NoWithinVariationError,
    TooFewPeriodsError,
)
from .regress import fit_ols

POLS = "pols"
RE = "re"
FE = "fe"
FD = "fd"
CRE = "cre"
_METHODS = (POLS, RE, FE, FD, CRE)

_ZERO_RTOL = 1e-12


@dataclass(frozen=True)
class PanelSpec:
    """Panel-estimator specification.

    Attributes:
        method: one of "pols", "re", "fe", "fd", "cre".
        include_intercept: include a constant column where the method admits
            one (FE is always intercept-free after demeaning).
        covariate_selection: indices of x columns to include (None = all).
    """

    method: str = POLS
    include_intercept: bool = True
    covariate_selection: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.method not in _METHODS:
            raise InvalidInputError(f"unknown panel method {self.method!r}")


def fit_panel(pds: PanelDataset, spec: PanelSpec | None = None) -> CausalEstimate:
    """Dispatch to the panel estimator named by `spec.method`."""
    spec = spec or PanelSpec()
    return {
        POLS: fit_pols,
        RE: fit_re,
        FE: fit_fe,
        FD: fit_fd,
        CRE: fit_cre,
    }[spec.method](pds, spec)


def _require_two_periods(pds: PanelDataset, method: str):
    if int(pds.unit_counts.min()) < 2:
        raise TooFewPeriodsError(f"{method} requires >= 2 periods for every unit")


def _no_variation(v: np.ndarray, scale: float) -> bool:
    return float(np.max(np.abs(v), initial=0.0)) <= _ZERO_RTOL * max(1.0, scale)


def fit_pols(pds: PanelDataset, spec: PanelSpec | None = None) -> CausalEstimate:
    """Pooled OLS of y on (1, d, x), ignoring the panel structure."""
    spec = spec or PanelSpec(method=POLS)
    x = _select_columns(pds.x, spec.covariate_selection)
    cols = ([np.ones(pds.n)] if spec.include_intercept else []) + [pds.d]
    if x.shape[1]:
        cols.append(x)
    fit = fit_ols(np.column_stack(cols), pds.y)
    i = 1 if spec.include_intercept else 0
    return _estimate(POLS, fit.coef[i], pds.n, fit.coef_cov[i, i])


def fit_fe(pds: PanelDataset, spec: PanelSpec | None = None) -> CausalEstimate:
    """Within (fixed-effects) estimator: OLS on unit-demeaned columns.

    The error variance subtracts the N estimated unit means from the degrees
    of freedom.
    """
    spec = spec or PanelSpec(method=FE)
    _require_two_periods(pds, "fixed effects")
    x = _select_columns(pds.x, spec.covariate_selection)
    dw = pds.d - pds.broadcast_units(pds.unit_means(pds.d))
    if _no_variation(dw, float(np.max(np.abs(pds.d)))):
        raise NoWithinVariationError("treatment is constant within every unit")
    yw = pds.y - pds.broadcast_units(pds.unit_means(pds.y))
    cols = [dw]
    for j in range(x.shape[1]):
        cols.append(x[:, j] - pds.broadcast_units(pds.unit_means(x[:, j])))
    design = np.column_stack(cols)
    k = design.shape[1]
    dof = pds.n - pds.n_units - k
    if dof < 1:
        raise TooFewPeriodsError(
            f"no residual degrees of freedom (n={pds.n}, units={pds.n_units}, k={k})"
        )
    fit = fit_ols(design, yw)
    # fit_ols scales the covariance by RSS/(n-k); correct for the N absorbed means
    var = fit.coef_cov[0, 0] * (pds.n - k) / dof
    return _estimate(FE, fit.coef[0], pds.n, var, {"dof": int(dof)})


def _differences(pds: PanelDataset, x: np.ndarray):
    same_unit = pds.unit_codes[1:] == pds.unit_codes[:-1]
    dd = (pds.d[1:] - pds.d[:-1])[same_unit]
    dy = (pds.y[1:] - pds.y[:-1])[same_unit]
    dx = (x[1:] - x[:-1])[same_unit]
    return dd, dy, dx


def fit_fd(pds: PanelDataset, spec: PanelSpec | None = None) -> CausalEstimate:
    """First-difference estimator: OLS of consecutive-period differences."""
    spec = spec or PanelSpec(method=FD)
    _require_two_periods(pds, "first differences")
    x = _select_columns(pds.x, spec.covariate_selection)
    dd, dy, dx = _differences(pds, x)
    if np.ptp(dd) == 0.0:
        if spec.include_intercept or _no_variation(dd, float(np.max(np.abs(pds.d)))):
            raise NoWithinVariationError(
                "differenced treatment has no variation"
                + (" beyond the intercept" if spec.include_intercept else "")
            )
    cols = ([np.ones(dd.shape[0])] if spec.include_intercept else []) + [dd]
    if dx.shape[1]:
        cols.append(dx)
    fit = fit_ols(np.column_stack(cols), dy)
    i = 1 if spec.include_intercept else 0
    return _estimate(FD, fit.coef[i], dd.shape[0], fit.coef_cov[i, i])


def fit_cre(pds: PanelDataset, spec: PanelSpec | None = None) -> CausalEstimate:
    """Correlated-random-effects (Mundlak) estimator.

    Augments the pooled regression with the unit mean of the treatment,
    absorbing unit effects that correlate with d; on balanced panels the
    treatment coefficient equals the fixed-effects estimate.
    """
    spec = spec or PanelSpec(method=CRE)
    _require_two_periods(pds, "correlated random effects")
    x = _select_columns(pds.x, spec.covariate_selection)
    dbar = pds.broadcast_units(pds.unit_means(pds.d))
    cols = ([np.ones(pds.n)] if spec.include_intercept else []) + [pds.d]
    if x.shape[1]:
        cols.append(x)
    cols.append(dbar)
    fit = fit_ols(np.column_stack(cols), pds.y)
    i = 1 if spec.include_intercept else 0
    return _estimate(CRE, fit.coef[i], pds.n, fit.coef_cov[i, i])


def fit_re(pds: PanelDataset, spec: PanelSpec | None = None) -> CausalEstimate:
    """Random-effects GLS with Swamy-Arora-style variance components.

    The idiosyncratic variance comes from the within regression, the
    unit-effect variance from the between regression; the data are then
    quasi-demeaned by theta_i and fit by OLS. When the unit-effect variance
    estimate is non-positive (or too few units exist to run the between
    regression), the estimator falls back to pooled OLS and records the
    reason in the diagnostics.
    """
    spec = spec or PanelSpec(method=RE)
    x = _select_columns(pds.x, spec.covariate_selection)
    counts = pds.unit_counts.astype(float)
    N = pds.n_units

    def pols_fallback(reason, extra=None):
        est = fit_pols(pds, PanelSpec(POLS, spec.include_intercept, spec.covariate_selection))
        diags = {"re_fallback": reason}
        if extra:
            diags.update(extra)
        return _estimate(RE, est.point, pds.n, est.variance, diags)

    # within step for the idiosyncratic variance
    dw = pds.d - pds.broadcast_units(pds.unit_means(pds.d))
    yw = pds.y - pds.broadcast_units(pds.unit_means(pds.y))
    w_cols = [dw]
    for j in range(x.shape[1]):
        w_cols.append(x[:, j] - pds.broadcast_units(pds.unit_means(x[:, j])))
    w_design = np.column_stack(w_cols)
    k_w = w_design.shape[1]
    dof_w = pds.n - N - k_w
    if dof_w < 1:
        raise TooFewPeriodsError(
            f"no within degrees of freedom (n={pds.n}, units={N}, k={k_w})"
        )
    w_fit = fit_ols(w_design, yw)
    s2e = float(w_fit.residuals @ w_fit.residuals) / dof_w

    # between step for the unit-effect variance
    b_cols = [np.ones(N), pds.unit_means(pds.d)]
    for j in range(x.shape[1]):
        b_cols.append(pds.unit_means(x[:, j]))
    b_design = np.column_stack(b_cols)
    k_b = b_design.shape[1]
    if N <= k_b:
        return pols_fallback("too-few-units-for-between-step")
    b_fit = fit_ols(b_design, pds.unit_means(pds.y))
    s2b = float(b_fit.residuals @ b_fit.residuals) / (N - k_b)
    t_harmonic = N / float(np.sum(1.0 / counts))
    s2u = s2b - s2e / t_harmonic
    if s2u <= 0.0:
        return pols_fallback(
            "nonpositive-unit-variance", {"sigma2_e": s2e, "sigma2_u": s2u}
        )

    theta = 1.0 - np.sqrt(s2e / (counts * s2u + s2e))
    theta_row = pds.broadcast_units(theta)
    yt = pds.y - theta_row * pds.broadcast_units(pds.unit_means(pds.y))
    dt = pds.d - theta_row * pds.broadcast_units(pds.unit_means(pds.d))
    cols = ([1.0 - theta_row] if spec.include_intercept else []) + [dt]
    for j in range(x.shape[1]):
        cols.append(x[:, j] - theta_row * pds.broadcast_units(pds.unit_means(x[:, j])))
    fit = fit_ols(np.column_stack(cols), yt)
    i = 1 if spec.include_intercept else 0
    return _estimate(
        RE,
        fit.coef[i],
        pds.n,
        fit.coef_cov[i, i],
        {
            "sigma2_e": s2e,
            "sigma2_u": float(s2u),
            "theta_min": float(theta.min()),
            "theta_max": float(theta.max()),
        },
    )
