"""Longitudinal estimators: pooled OLS, random effects, fixed effects,
first differences, and the correlated-random-effects (Mundlak) device.

All five return the coefficient on the treatment column as the effect
estimate; they differ in how they handle unit-level unobserved heterogeneity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CausalEstimate, PanelDataset, _estimate, _select_columns
from .errors import InvalidInputError, NoWithinVariationError, TooFewPeriodsError
from .regress import _coef_estimate, fit_ols

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


def _within_fit(pds: PanelDataset, selection: tuple[int, ...] | None):
    """OLS of the unit-demeaned y on the panel's within design: the demeaned
    d, then the demeaned x columns named by `selection` (all for None);
    returns (fit, dof), where dof also subtracts the N absorbed unit means."""
    design, y = pds._within
    if selection is not None:  # C order, as the block's: the SVD's bits depend on it
        x = _select_columns(design[:, 1:], selection)
        design = np.ascontiguousarray(np.column_stack([design[:, 0], x]))
    k = design.shape[1]
    dof = pds.n - pds.n_units - k
    if dof < 1:
        raise TooFewPeriodsError(
            f"no residual degrees of freedom (n={pds.n}, units={pds.n_units}, k={k})"
        )
    if _no_variation(design[:, 0], float(np.max(np.abs(pds.d)))):
        raise NoWithinVariationError("treatment is constant within every unit")
    return fit_ols(design, y), dof


def _coef_on_d(method, spec, intercept, d, x, y, diagnostics=None) -> CausalEstimate:
    """OLS of y on [intercept,] d, x; d's coefficient is the estimate.

    `intercept` is the constant column (a scalar broadcasts), used when
    `spec.include_intercept` is set.
    """
    i = 1 if spec.include_intercept else 0
    design = np.empty((d.shape[0], i + 1 + x.shape[1]))
    if i:
        design[:, 0] = intercept
    design[:, i] = d
    design[:, i + 1 :] = x
    return _coef_estimate(method, design, y, i, diagnostics)


def fit_pols(pds: PanelDataset, spec: PanelSpec | None = None) -> CausalEstimate:
    """Pooled OLS of y on (1, d, x), ignoring the panel structure."""
    spec = spec or PanelSpec(method=POLS)
    x = _select_columns(pds.x, spec.covariate_selection)
    return _coef_on_d(POLS, spec, 1.0, pds.d, x, pds.y)


def fit_fe(pds: PanelDataset, spec: PanelSpec | None = None) -> CausalEstimate:
    """Within (fixed-effects) estimator: OLS on unit-demeaned columns.

    The error variance subtracts the N estimated unit means from the degrees
    of freedom.
    """
    spec = spec or PanelSpec(method=FE)
    _require_two_periods(pds, "fixed effects")
    fit, dof = _within_fit(pds, spec.covariate_selection)
    # fit_ols scales the covariance by RSS/(n-k); correct for the N absorbed means
    var = fit.coef_cov[0, 0] * (pds.n - fit.design_width) / dof
    return _estimate(FE, fit.coef[0], pds.n, var, {"dof": int(dof)})


def fit_fd(pds: PanelDataset, spec: PanelSpec | None = None) -> CausalEstimate:
    """First-difference estimator: OLS of consecutive-period differences."""
    spec = spec or PanelSpec(method=FD)
    _require_two_periods(pds, "first differences")
    x = _select_columns(pds.x, spec.covariate_selection)
    same_unit = pds.unit_codes[1:] == pds.unit_codes[:-1]
    dd, dy, dx = ((v[1:] - v[:-1])[same_unit] for v in (pds.d, pds.y, x))
    if np.ptp(dd) == 0.0:
        if spec.include_intercept or _no_variation(dd, float(np.max(np.abs(pds.d)))):
            raise NoWithinVariationError(
                "differenced treatment has no variation"
                + (" beyond the intercept" if spec.include_intercept else "")
            )
    return _coef_on_d(FD, spec, 1.0, dd, dx, dy)


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
    return _coef_on_d(CRE, spec, 1.0, pds.d, np.column_stack([x, dbar]), pds.y)


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
    columns = [pds.d, *x.T]
    means = [pds.unit_means(v) for v in columns]
    y_means = pds.unit_means(pds.y)

    def pols_fallback(**diagnostics):
        return _coef_on_d(RE, spec, 1.0, pds.d, x, pds.y, diagnostics)

    # within step for the idiosyncratic variance
    w_fit, dof_w = _within_fit(pds, spec.covariate_selection)
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
    return _coef_on_d(RE, spec, 1.0 - theta_row, quasi[:, 0], quasi[:, 1:], yt, diagnostics)
