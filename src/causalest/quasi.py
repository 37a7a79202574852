"""Estimators for non-ignorable assignment: instrumental variables and 2SLS,
difference-in-differences, synthetic control, and regression discontinuity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    CausalEstimate,
    _as_matrix,
    _as_vector,
    _estimate,
    _is_01,
    _owned,
    _readonly,
)
from .errors import (
    ConvergenceError,
    DegenerateProblemError,
    DimensionMismatchError,
    EmptyCellError,
    InvalidInputError,
    NoFirstStageJumpError,
    NoTreatmentVariationError,
    OneSidedDataError,
    OrderConditionError,
)
from .regress import _coef_estimate, _svd_solve

_FIRST_STAGE_JUMP_TOL = 0.05


# ---------------------------------------------------------------------------
# Instrumental variables
# ---------------------------------------------------------------------------

def ate_2sls(y, d, z, x=None) -> CausalEstimate:
    """Two-stage least squares with endogenous d and excluded instruments z.

    Exogenous covariates x (plus an intercept) are appended to the
    instrument set and to the second-stage regression. The point estimate is
    the coefficient on the first endogenous column; the variance uses
    second-stage residuals recomputed with the original (not fitted) d.
    """
    yv = _as_vector("y", y)
    n = yv.shape[0]
    dm = _as_matrix("d", d, n)
    zm = _as_matrix("z", z, n)
    xm = _as_matrix("x", x, n)
    n_endog = dm.shape[1]
    if n_endog < 1:
        raise DimensionMismatchError("at least one endogenous column is required")
    if zm.shape[1] < n_endog:
        raise OrderConditionError(
            f"{zm.shape[1]} instruments cannot identify {n_endog} endogenous columns"
        )
    return _second_stage(yv, dm, zm, xm, _first_stage(dm, zm, xm))


def _first_stage(dm, zm, xm):
    """(exog, instruments, coef): the exogenous columns (1, x), the
    instruments (1, x, z) and the coefficients of d on the instruments."""
    n = dm.shape[0]
    exog = np.column_stack([np.ones(n), xm]) if xm.shape[1] else np.ones((n, 1))
    instruments = np.column_stack([exog, zm])
    return exog, instruments, _svd_solve(instruments, dm)[0]


def _second_stage(yv, dm, zm, xm, first) -> CausalEstimate:
    """The 2SLS estimate of `ate_2sls` from its `_first_stage`."""
    exog, instruments, first_coef = first
    n, n_endog = dm.shape
    d_hat = instruments @ first_coef

    # first-stage strength diagnostic, one F-style statistic per endogenous column
    f_stats = []
    dof_full = n - instruments.shape[1]
    restricted_coef, _ = _svd_solve(exog, dm)
    restricted_resid = dm - exog @ restricted_coef
    full_resid = dm - d_hat
    for m in range(n_endog):
        rss_f = float(full_resid[:, m] @ full_resid[:, m])
        rss_r = float(restricted_resid[:, m] @ restricted_resid[:, m])
        if rss_f <= 0.0 or dof_full < 1:
            f_stats.append(float("inf"))
        else:
            f_stats.append(((rss_r - rss_f) / zm.shape[1]) / (rss_f / dof_full))

    second = np.column_stack([np.ones(n), d_hat, xm])
    coef, xtx_inv = _svd_solve(second, yv, inverse=True)
    resid = yv - np.column_stack([np.ones(n), dm, xm]) @ coef
    k2 = second.shape[1]
    sigma2 = float(resid @ resid) / max(n - k2, 1)
    coef_cov = sigma2 * xtx_inv
    diagnostics = {
        "n_instruments": int(zm.shape[1]),
        "n_endogenous": int(n_endog),
        "first_stage_f": f_stats if n_endog > 1 else f_stats[0],
    }
    return _estimate("2sls", coef[1], n, coef_cov[1, 1], diagnostics)


# ---------------------------------------------------------------------------
# Difference in differences
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DidDataset:
    """Grouped two-period (or multi-period) outcome data.

    Attributes:
        y: outcomes, length n.
        group: 0/1 ever-treated indicator per row.
        period: integer period per row (0/1 basic; 0..T multi-period).
        x: optional covariate matrix (n, p).
        treated: optional explicit row-level treatment indicator, needed
            beyond two periods; defaults to group x period in the basic
            two-period design.
    """

    y: np.ndarray
    group: np.ndarray
    period: np.ndarray
    x: np.ndarray
    treated: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.y.shape[0]


def validate_did(y, group, period, x=None, treated=None) -> DidDataset:
    """Validate raw columns into a DidDataset."""
    yv = _as_vector("y", y)
    n = yv.shape[0]
    gv = _as_vector("group", group, n)
    pv = _as_vector("period", period, n)
    if not _is_01(gv):
        raise InvalidInputError("group must be a 0/1 indicator")
    if not _is_01(pv) and ((pv != np.round(pv)).any() or pv.min() < 0):
        raise InvalidInputError("period must contain non-negative integers")
    xm = _as_matrix("x", x, n)
    tv = None
    if treated is not None:
        tv = _as_vector("treated", treated, n)
        if not _is_01(tv):
            raise InvalidInputError("treated must be a 0/1 indicator")
        tv = _readonly(_owned(tv, treated))
    return DidDataset(
        y=_readonly(_owned(yv, y)),
        group=_readonly(_owned(gv, group)),
        period=_readonly(_owned(pv, period)),
        x=_readonly(_owned(xm, x)),
        treated=tv,
    )


def ate_did(dd: DidDataset) -> CausalEstimate:
    """Difference in differences: the coefficient on the treated indicator in
    OLS of y on (1, group, one dummy per period after the first, treated),
    with the covariate columns of `dd.x` appended when it has any.

    Without `dd.treated` the periods must be 0 and 1 and treated is
    group x period, so without covariates the estimate is the double
    difference of the 2x2 cell means; an empty cell raises EmptyCellError.
    An explicit `dd.treated` is used as given, for any number of periods,
    and one that never varies raises NoTreatmentVariationError. The
    diagnostics give `n_periods`.
    """
    if dd.treated is None:
        if not _is_01(dd.period):
            raise InvalidInputError(
                "without an explicit treated indicator the design requires periods in {0, 1}"
            )
        # cell 2 g + p holds the rows with group g and period p
        counts = np.bincount(2 * (dd.group == 1.0) + (dd.period == 1.0), minlength=4)
        for g in (0, 1):
            for p in (0, 1):
                if counts[2 * g + p] == 0:
                    raise EmptyCellError(f"no observations with group={g:g}, period={p:g}")
        periods, treated = (0.0, 1.0), dd.group * dd.period
    else:
        periods, treated = np.unique(dd.period), dd.treated
        if treated.min() == treated.max():
            raise NoTreatmentVariationError("the treatment indicator never varies")
    dummies = [(dd.period == t).astype(float) for t in periods[1:]]
    cols = [np.ones(dd.n), dd.group, *dummies, treated]
    if dd.x.shape[1]:
        cols.append(dd.x)
    diagnostics = {"n_periods": len(periods)}
    return _coef_estimate("did", np.column_stack(cols), dd.y, len(periods) + 1, diagnostics)


# ---------------------------------------------------------------------------
# Synthetic control
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ScProblem:
    """A synthetic-control problem.

    Attributes:
        x1: treated-unit characteristics, length K.
        x0: donor characteristics, shape (K, J).
        z1: treated pre-period outcomes, length T_pre.
        z0: donor pre-period outcomes, shape (T_pre, J).
        y1: treated post-period outcomes, length T_post.
        y0: donor post-period outcomes, shape (T_post, J).
    """

    x1: np.ndarray
    x0: np.ndarray
    z1: np.ndarray
    z0: np.ndarray
    y1: np.ndarray
    y0: np.ndarray

    def __post_init__(self):
        x1 = _as_vector("x1", self.x1)
        z1 = _as_vector("z1", self.z1)
        y1 = _as_vector("y1", self.y1)
        x0 = _as_matrix("x0", self.x0, x1.shape[0])
        z0 = _as_matrix("z0", self.z0, z1.shape[0])
        y0 = _as_matrix("y0", self.y0, y1.shape[0])
        j = x0.shape[1]
        if j < 1:
            raise DimensionMismatchError("at least one donor is required")
        if z0.shape[1] != j or y0.shape[1] != j:
            raise DimensionMismatchError("x0, z0 and y0 must share the donor count")
        if z1.shape[0] < 1:
            raise DimensionMismatchError("at least one pre period is required")
        for name, v in (("x1", x1), ("x0", x0), ("z1", z1), ("z0", z0), ("y1", y1), ("y0", y0)):
            object.__setattr__(self, name, _readonly(_owned(v, getattr(self, name))))

    @property
    def n_donors(self) -> int:
        return self.x0.shape[1]


def sc_weights(x1, x0, v_diag) -> np.ndarray:
    """Simplex-constrained weights minimizing (x1 - x0 w)' V (x1 - x0 w).

    On the simplex x1 - x0 w = -C w, where column j of C is
    V^(1/2) (x0_j - x1). Writing u >= 0 as t w with t = sum(u) and w on the
    simplex, ||C u||^2 + (sum(u) - 1)^2 = t^2 ||C w||^2 + (t - 1)^2, whose
    minimum over t is q / (1 + q) with q = ||C w||^2; it grows with q. So
    the non-negative least squares solution u of [C / ||C||; 1'] u = [0; 1]
    has as its support an optimal face of the simplex problem. That support
    comes from one Lawson-Hanson solve (`scipy.optimize.nnls`), and the
    weights from the exact least squares on that face (`_sc_face_optimum`).
    The solve raises ConvergenceError if it has not finished after 3J steps,
    instead of returning an unfinished iterate.

    When the optimum is not unique (more than K + 1 donors in the optimal
    face), the weights are one optimal point, a deterministic function of
    the inputs with at most K + 1 positive weights. A single donor gets
    weight one; a donor whose column equals x1 exactly, or every donor when
    V weights no row where the donors differ from x1, short-circuits to
    weight one on the lowest such index.
    """
    from scipy.optimize import nnls  # loaded here: no other path needs the optimizer

    x1v = _as_vector("x1", x1)
    x0m = _as_matrix("x0", x0, x1v.shape[0])
    v = _as_vector("v_diag", v_diag, x1v.shape[0])
    if (v < 0.0).any() or not (v > 0.0).any():
        raise InvalidInputError("v_diag entries must be >= 0 with at least one positive")
    k, j = x0m.shape
    sqrt_v = np.sqrt(v)
    a = x0m * sqrt_v[:, None]
    b = x1v * sqrt_v
    vertex_resid = a - b[:, None]
    spread = float(np.linalg.norm(vertex_resid))
    w = np.zeros(j)
    exact = np.flatnonzero(np.all(x0m == x1v[:, None], axis=0))
    if j == 1 or exact.size or spread == 0.0:
        w[exact[0] if exact.size else 0] = 1.0
        return w

    try:
        u = nnls(np.vstack([vertex_resid / spread, np.ones(j)]), np.append(np.zeros(k), 1.0))[0]
    except RuntimeError:
        raise ConvergenceError(
            f"non-negative least squares for {j} donor weights did not finish in {3 * j} steps"
        ) from None
    free = u > 0.0
    w = _sc_face_optimum(vertex_resid, a, free)
    # on a degenerate face a donor's exact weight can round to zero or below
    while (w[free] <= 0.0).any():
        free &= w > 0.0
        w = _sc_face_optimum(vertex_resid, a, free)
    return w


def _sc_face_optimum(vertex_resid, a, free) -> np.ndarray:
    """Minimizer of ||a w - b||^2 over sum(w) = 1 with w zero off `free`.

    With r the first free index, w_r = 1 - sum(u) eliminates the equality:
    u solves the least squares (a_F - a_r) u = -(a_r - b).
    """
    idx = np.flatnonzero(free)
    ref, rest = idx[0], idx[1:]
    target = np.zeros(free.shape[0])
    u = np.linalg.lstsq(a[:, rest] - a[:, [ref]], -vertex_resid[:, ref], rcond=None)[0]
    target[rest] = u
    target[ref] = 1.0 - u.sum()
    return target


@dataclass
class ScFit:
    """Fitted synthetic control.

    Attributes:
        weights: donor weights on the simplex.
        v: diagonal predictor weights found by the outer search.
        gap: per-post-period treated-minus-synthetic outcome differences.
        pre_rmse: root-mean-squared pre-period fit error.
        estimate: the post-period mean gap as a CausalEstimate.
        outer_converged: whether Nelder-Mead reported success for the chosen
            start (True when one donor leaves nothing to search).
        outer_iterations: Nelder-Mead iterations of the chosen start.
    """

    weights: np.ndarray
    v: np.ndarray
    gap: np.ndarray
    pre_rmse: float
    estimate: CausalEstimate = field(repr=False)
    outer_converged: bool
    outer_iterations: int


def sc_fit(problem: ScProblem) -> ScFit:
    """Fit a synthetic control with a nested optimization.

    Inner: the exact simplex-constrained donor weights for a given diagonal
    V (`sc_weights`). Outer: Nelder-Mead over softmax-parameterized V
    (multi-start from the uniform V and each one-hot corner) minimizing the
    pre-period outcome mismatch of the induced weights. The convergence flag
    and iteration count of the start with the lowest mismatch are kept in
    the fit and in its estimate's diagnostics.
    """
    from scipy.optimize import minimize  # loaded here: no other path needs the optimizer

    k = problem.x1.shape[0]
    j = problem.n_donors
    if j >= 2:
        stacked = np.vstack([problem.x0, problem.z0])
        if all(np.array_equal(stacked[:, jj], stacked[:, 0]) for jj in range(1, j)):
            raise DegenerateProblemError("all donors are identical")

    def pre_mismatch(theta: np.ndarray) -> float:
        e = np.exp(theta - theta.max())
        w = sc_weights(problem.x1, problem.x0, e / e.sum())
        r = problem.z1 - problem.z0 @ w
        return float(r @ r)

    if j == 1:
        weights = np.ones(1)
        v_best = np.full(k, 1.0 / k)
        converged, iterations = True, 0
    else:
        starts = [np.zeros(k)]
        for corner in range(k):
            theta = np.zeros(k)
            theta[corner] = 10.0
            starts.append(theta)
        best = None
        for theta0 in starts:
            res = minimize(pre_mismatch, theta0, method="Nelder-Mead")
            if best is None or res.fun < best.fun:
                best = res
        e = np.exp(best.x - best.x.max())
        v_best = e / e.sum()
        weights = sc_weights(problem.x1, problem.x0, v_best)
        converged, iterations = bool(best.success), int(best.nit)

    pre_resid = problem.z1 - problem.z0 @ weights
    gap = problem.y1 - problem.y0 @ weights
    pre_rmse = float(np.sqrt(np.mean(pre_resid**2)))
    diagnostics = {
        "pre_rmse": pre_rmse,
        "outer_converged": converged,
        "outer_iterations": iterations,
    }
    estimate = _estimate(
        "synthetic_control", gap.mean(), gap.shape[0], diagnostics=diagnostics
    )
    return ScFit(
        weights=weights,
        v=v_best,
        gap=gap,
        pre_rmse=pre_rmse,
        estimate=estimate,
        outer_converged=converged,
        outer_iterations=iterations,
    )


# ---------------------------------------------------------------------------
# Regression discontinuity
# ---------------------------------------------------------------------------

def _rdd_frame(y, t, cutoff, bandwidth, d=None):
    yv = _as_vector("y", y)
    tv = _as_vector("t", t, yv.shape[0])
    dv = None if d is None else _as_vector("d", d, yv.shape[0])
    tc = tv - float(cutoff)
    if bandwidth is not None:
        if bandwidth <= 0:
            raise InvalidInputError("bandwidth must be positive")
        keep = np.abs(tc) <= bandwidth
        yv, tc = yv[keep], tc[keep]
        dv = None if dv is None else dv[keep]
    above = (tc >= 0.0).astype(float)
    n_right = int(above.sum())
    if n_right == 0 or n_right == above.shape[0]:
        raise OneSidedDataError("observations are required on both sides of the cutoff")
    return yv, tc, above, dv


def rdd_sharp(y, t, cutoff: float = 0.0, bandwidth: float | None = None) -> CausalEstimate:
    """Sharp RDD: OLS of y on (1, D, t-c, D(t-c)) with D = 1[t >= c].

    The point estimate is the coefficient on D — the jump in the conditional
    expectation at the cutoff. An optional bandwidth restricts the fit to
    |t - c| <= bandwidth.
    """
    yv, tc, above, _ = _rdd_frame(y, t, cutoff, bandwidth)
    diagnostics = {
        "cutoff": float(cutoff),
        "bandwidth": bandwidth,
        "n_right": int(above.sum()),
        "n_left": int(yv.shape[0] - above.sum()),
    }
    design = np.column_stack([np.ones(yv.shape[0]), above, tc, above * tc])
    return _coef_estimate("rdd_sharp", design, yv, 1, diagnostics)


def rdd_fuzzy(
    y, t, d, cutoff: float = 0.0, bandwidth: float | None = None
) -> CausalEstimate:
    """Fuzzy RDD: 2SLS with observed treatment instrumented by 1[t >= c].

    The slope terms (t-c) and 1[t>=c](t-c) enter as exogenous controls. The
    assignment probability must jump at the cutoff; a first-stage jump of
    0.05 or less raises NoFirstStageJumpError.
    """
    yv, tc, above, dv = _rdd_frame(y, t, cutoff, bandwidth, d)
    n = yv.shape[0]
    dm, zm, xm = dv.reshape(-1, 1), above.reshape(-1, 1), np.column_stack([tc, above * tc])
    # the jump is the first stage's coefficient on `above`, its last instrument
    first = _first_stage(dm, zm, xm)
    jump = float(first[2][-1, 0])
    if abs(jump) <= _FIRST_STAGE_JUMP_TOL:
        raise NoFirstStageJumpError(
            f"assignment probability jump {jump:.4f} is within the "
            f"{_FIRST_STAGE_JUMP_TOL} tolerance"
        )
    est = _second_stage(yv, dm, zm, xm, first)
    diagnostics = dict(est.diagnostics)
    diagnostics.update(
        {
            "cutoff": float(cutoff),
            "bandwidth": bandwidth,
            "first_stage_jump": jump,
        }
    )
    return _estimate("rdd_fuzzy", est.point, n, est.variance, diagnostics)
