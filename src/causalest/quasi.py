"""Estimators for non-ignorable assignment: instrumental variables and 2SLS,
difference-in-differences, synthetic control, and regression discontinuity.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .core import (
    CausalEstimate,
    PanelDataset,
    _as_matrix,
    _as_vector,
    _check_arms,
    _estimate,
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
    OneSidedDataError,
    TooFewPeriodsError,
)
from .regress import _coef_estimate, _svd_solve, _xtx_inv

_FIRST_STAGE_JUMP_TOL = 0.05
#: smallest LP margin, on gradient terms scaled to at most one and a V that
#: sums to one, at which `_sc_certificate` takes the LP's V
_SC_MARGIN = 1e-6
#: largest change of a weight at which `sc_weights` at the certificate's V
#: is taken to return the best pre-period fit
_SC_WEIGHT_TOL = 1e-9


# ---------------------------------------------------------------------------
# Instrumental variables
# ---------------------------------------------------------------------------

def ate_2sls(y, d, z) -> CausalEstimate:
    """Two-stage least squares of y on one endogenous treatment d, with one
    excluded instrument z and an intercept.

    The point estimate is the coefficient on d; the variance uses
    second-stage residuals recomputed with the original (not fitted) d, and
    is None on two rows, which leave no residual. A d or z of more than one
    column raises DimensionMismatchError.
    """
    yv = _as_vector("y", y)
    n = yv.shape[0]
    dm, zm = _as_matrix("d", d, n), _as_matrix("z", z, n)
    for name, m in (("d", dm), ("z", zm)):
        if m.shape[1] != 1:
            raise DimensionMismatchError(f"{name} must be one column, got {m.shape[1]}")
    xm = np.empty((n, 0))
    dv, zv = dm.ravel(), zm.ravel()
    return _second_stage(yv, dv, xm, _first_stage(dv, zv, xm))


def _first_stage(dv, zv, xm):
    """(exog, instruments, coef): the exogenous columns (1, x), the
    instruments (1, x, z) and the coefficients of d on the instruments."""
    n = dv.shape[0]
    exog = np.column_stack([np.ones(n), xm])
    instruments = np.column_stack([exog, zv])
    return exog, instruments, _svd_solve(instruments, dv)[0]


def _second_stage(yv, dv, xm, first) -> CausalEstimate:
    """The 2SLS estimate from `_first_stage`, for the vectors d and y."""
    exog, instruments, first_coef = first
    n = dv.shape[0]
    d_hat = instruments @ first_coef

    # first-stage strength diagnostic: the F statistic of the instrument
    dof_full = n - instruments.shape[1]
    restricted_coef, _ = _svd_solve(exog, dv)
    restricted_resid = dv - exog @ restricted_coef
    full_resid = dv - d_hat
    rss_f = float(full_resid @ full_resid)
    rss_r = float(restricted_resid @ restricted_resid)
    if rss_f <= 0.0 or dof_full < 1:
        f_stat = float("inf")
    else:
        f_stat = (rss_r - rss_f) / (rss_f / dof_full)

    second = np.column_stack([np.ones(n), d_hat, xm])
    coef, factors = _svd_solve(second, yv)
    resid = yv - np.column_stack([np.ones(n), dv, xm]) @ coef
    dof = n - second.shape[1]
    # an exactly identified fit (n = k) leaves no residual to scale by
    var = float(resid @ resid) / dof * _xtx_inv(*factors)[1, 1] if dof else None
    return _estimate("2sls", coef[1], n, var, {"first_stage_f": f_stat})


# ---------------------------------------------------------------------------
# Difference in differences
# ---------------------------------------------------------------------------

def ate_did(pds: PanelDataset) -> CausalEstimate:
    """Difference in differences on a panel: the coefficient on the treated
    indicator `pds.d` in OLS of y on (1, group, one dummy per period after
    the first, d), with the covariate columns of `pds.x` appended when it
    has any. A unit's group is 1 when its d is 1 in any period, and the
    periods are the distinct values of `pds.time`.

    d must be a 0/1 indicator with both arms non-empty (`_check_arms`).
    A panel with a single period raises TooFewPeriodsError, before the
    design is built: there each unit's group is its d, so the two columns
    would coincide. With two periods an empty group-by-period cell raises
    EmptyCellError,
    and when d is the group in the second period and 0 in the first, the
    estimate without covariates is the double difference of the 2x2 cell
    means. The design's rows run period by period, each period's in panel
    order. The diagnostics give `n_periods`.
    """
    _check_arms(pds)
    # one stable sort of the times orders the rows period by period
    order = np.argsort(pds.time, kind="stable")
    time = pds.time[order]
    bounds = [0, *(np.flatnonzero(time[1:] != time[:-1]) + 1), pds.n]
    n_periods = len(bounds) - 1
    if n_periods < 2:
        raise TooFewPeriodsError("difference in differences requires >= 2 periods")
    group = pds.broadcast_units(pds.unit_means(pds.d) > 0.0)[order]
    design = np.zeros((pds.n, n_periods + 2 + pds.x.shape[1]))
    design[:, 0] = 1.0
    design[:, 1] = group
    for j in range(1, n_periods):
        design[bounds[j] : bounds[j + 1], 1 + j] = 1.0
    design[:, n_periods + 1] = pds.d[order]
    if pds.x.shape[1]:
        design[:, n_periods + 2 :] = np.take(pds.x, order, axis=0)
    if n_periods == 2:
        for p, rows in enumerate((group[: bounds[1]], group[bounds[1] :])):
            in_group = np.count_nonzero(rows)
            for g, count in enumerate((rows.size - in_group, in_group)):
                if count == 0:
                    raise EmptyCellError(
                        f"no observations with group={g}, period={time[bounds[p]]}"
                    )
    diagnostics = {"n_periods": n_periods}
    return _coef_estimate("did", design, pds.y[order], n_periods + 1, diagnostics)


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
    x1v = _as_vector("x1", x1)
    x0m = _as_matrix("x0", x0, x1v.shape[0])
    v = _as_vector("v_diag", v_diag, x1v.shape[0])
    if (v < 0.0).any() or not (v > 0.0).any():
        raise InvalidInputError("v_diag entries must be >= 0 with at least one positive")
    return _sc_weights(x1v, x0m, v)


def _sc_weights(x1v, x0m, v) -> np.ndarray:
    """`sc_weights` of validated inputs: the solve that `sc_fit` repeats."""
    from scipy.optimize import nnls  # loaded here: no other path needs the optimizer

    k, j = x0m.shape
    sqrt_v = np.sqrt(v)
    a = x0m * sqrt_v[:, None]
    b = x1v * sqrt_v
    vertex_resid = a - b[:, None]
    spread = float(np.linalg.norm(vertex_resid))
    w = np.zeros(j)
    exact = np.flatnonzero((x0m == x1v[:, None]).all(axis=0))
    if j == 1 or exact.size or spread == 0.0:
        w[exact[0] if exact.size else 0] = 1.0
        return w

    system = np.empty((k + 1, j))
    np.divide(vertex_resid, spread, out=system[:k])
    system[k] = 1.0
    target = np.zeros(k + 1)
    target[k] = 1.0
    try:
        u = nnls(system, target)[0]
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


def _sc_certificate(x1, x0, z1, z0):
    """(w*, V) when w*, the best pre-period fit over the simplex, is the
    inner optimum of a strictly positive V; otherwise None.

    With r = x0 w* - x1, the inner problem's gradient at w* is 2 g(v), where
    g_j(v) = sum_k v_k r_k x0_kj. w* is inner-optimal for V exactly when
    g_j(v) = mu on its support and g_j(v) >= mu off it (KKT; the problem is
    convex). One LP (HiGHS) maximizes a margin m with g_j(v) >= mu + m off
    the support and v_k >= m, over sum(v) = 1; the g terms are taken against
    x0 - x1, which moves every g_j by the same sum_k v_k r_k x1_k, and
    scaled to at most one. The certificate holds when m > _SC_MARGIN and
    `sc_weights` at that V returns w* within _SC_WEIGHT_TOL: no V fits the
    pre-period better, so (w*, V) is a global optimum of the bilevel
    problem.
    """
    from scipy.optimize import linprog  # loaded here: no other path needs the optimizer

    k, j = x0.shape
    w = _sc_weights(z1, z0, np.ones(z1.shape[0]))
    vertex_resid = x0 - x1[:, None]
    g = (vertex_resid * (vertex_resid @ w)[:, None]).T / (np.abs(vertex_resid).max() ** 2 or 1.0)
    support = w > 0.0
    n_off = j - int(support.sum())
    # variables (v, mu, m); maximize m
    a_eq = np.zeros((j - n_off + 1, k + 2))
    a_eq[:-1, :k] = g[support]
    a_eq[:-1, k] = -1.0
    a_eq[-1, :k] = 1.0
    a_ub = np.zeros((n_off + k, k + 2))
    a_ub[:n_off, :k] = -g[~support]
    a_ub[:n_off, k] = 1.0
    a_ub[n_off:, :k] = -np.eye(k)
    a_ub[:, k + 1] = 1.0
    res = linprog(
        np.append(np.zeros(k + 1), -1.0),
        A_ub=a_ub,
        b_ub=np.zeros(n_off + k),
        A_eq=a_eq,
        b_eq=np.append(np.zeros(j - n_off), 1.0),
        bounds=[(0.0, None)] * k + [(None, None)] * 2,
        method="highs",
    )
    if res.status != 0 or not res.x[-1] > _SC_MARGIN:
        return None
    v = res.x[:k] / res.x[:k].sum()
    if np.abs(_sc_weights(x1, x0, v) - w).max() > _SC_WEIGHT_TOL:
        return None
    return w, v


@dataclass
class ScFit:
    """Fitted synthetic control.

    Attributes:
        weights: donor weights on the simplex.
        v: diagonal predictor weights, summing to one, under which the
            weights are the inner optimum: the certificate's V, or the best
            V the outer search found.
        gap: per-post-period treated-minus-synthetic outcome differences.
        estimate: the post-period mean gap as a CausalEstimate. Its
            diagnostics hold the root-mean-squared pre-period fit error
            `pre_rmse`; `outer_search`, "certified" when the weights are
            the certified global optimum (or one donor leaves nothing to
            search) and "search" otherwise; and whether Nelder-Mead
            reported success for the chosen start `outer_converged` and
            that start's iterations `outer_iterations` (True and 0 for a
            certified fit).
    """

    weights: np.ndarray
    v: np.ndarray
    gap: np.ndarray
    estimate: CausalEstimate = field(repr=False)


def sc_fit(problem: ScProblem) -> ScFit:
    """Fit a synthetic control: the donor weights w(V) that are optimal for
    the predictor weights V (`sc_weights`), at the V whose weights best fit
    the pre-period outcomes.

    First a certificate (`_sc_certificate`): when the best pre-period fit
    over the simplex is w(V) for a strictly positive V found by one linear
    program, those weights and that V are the global optimum. Otherwise a
    nested search: Nelder-Mead over softmax-parameterized V (multi-start
    from the uniform V and each one-hot corner) minimizing the pre-period
    mismatch of w(V), with the pre-period outcomes centred and scaled by the
    mean and spread of [z1, z0], so that its stopping rule does not read the
    outcome's units. The convergence flag and iteration count of the start
    with the lowest mismatch are kept in the estimate's diagnostics.
    """
    from scipy.optimize import minimize  # loaded here: no other path needs the optimizer

    x1, x0 = problem.x1, problem.x0
    k, j = x0.shape
    if j >= 2:
        stacked = np.vstack([x0, problem.z0])
        if all(np.array_equal(stacked[:, jj], stacked[:, 0]) for jj in range(1, j)):
            raise DegenerateProblemError("all donors are identical")
    z = np.column_stack([problem.z1, problem.z0])
    z = (z - z.mean()) / (z.std() or 1.0)
    z1, z0 = z[:, 0], z[:, 1:]

    def pre_mismatch(theta: np.ndarray) -> float:
        e = np.exp(theta - theta.max())
        r = z1 - z0 @ _sc_weights(x1, x0, e / e.sum())
        return float(r @ r)

    certified = (np.ones(1), np.full(k, 1.0 / k)) if j == 1 else _sc_certificate(x1, x0, z1, z0)
    if certified is not None:
        weights, v_best = certified
        converged, iterations = True, 0
    else:
        starts = [np.zeros(k), *(10.0 * np.eye(k))]
        best = min(
            (minimize(pre_mismatch, theta0, method="Nelder-Mead") for theta0 in starts),
            key=lambda res: res.fun,
        )
        e = np.exp(best.x - best.x.max())
        v_best = e / e.sum()
        weights = _sc_weights(x1, x0, v_best)
        converged, iterations = bool(best.success), int(best.nit)

    pre_resid = problem.z1 - problem.z0 @ weights
    gap = problem.y1 - problem.y0 @ weights
    diagnostics = {
        "pre_rmse": float(np.sqrt(np.mean(pre_resid**2))),
        "outer_search": "search" if certified is None else "certified",
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
        estimate=estimate,
    )


# ---------------------------------------------------------------------------
# Regression discontinuity
# ---------------------------------------------------------------------------

def _rdd_frame(y, t, cutoff, d=None):
    if not isinstance(cutoff, numbers.Real) or not math.isfinite(cutoff):
        raise InvalidInputError(f"cutoff must be a finite real number, got {cutoff!r}")
    yv = _as_vector("y", y)
    tv = _as_vector("t", t, yv.shape[0])
    dv = None if d is None else _as_vector("d", d, yv.shape[0])
    tc = tv - float(cutoff)
    above = (tc >= 0.0).astype(float)
    n_right = int(above.sum())
    if n_right == 0 or n_right == above.shape[0]:
        raise OneSidedDataError("observations are required on both sides of the cutoff")
    return yv, tc, above, dv


def rdd_sharp(y, t, cutoff: float = 0.0) -> CausalEstimate:
    """Sharp RDD: OLS of y on (1, D, t-c, D(t-c)) with D = 1[t >= c], over
    the whole support of t.

    The point estimate is the coefficient on D — the jump in the conditional
    expectation at the cutoff. A cutoff that is not a finite real number
    raises InvalidInputError.
    """
    yv, tc, above, _ = _rdd_frame(y, t, cutoff)
    diagnostics = {
        "cutoff": float(cutoff),
        "n_right": int(above.sum()),
        "n_left": int(yv.shape[0] - above.sum()),
    }
    design = np.column_stack([np.ones(yv.shape[0]), above, tc, above * tc])
    return _coef_estimate("rdd_sharp", design, yv, 1, diagnostics)


def rdd_fuzzy(y, t, d, cutoff: float = 0.0) -> CausalEstimate:
    """Fuzzy RDD: 2SLS with observed treatment instrumented by 1[t >= c],
    over the whole support of t.

    The slope terms (t-c) and 1[t>=c](t-c) enter as exogenous controls. The
    assignment probability must jump at the cutoff; a first-stage jump of
    0.05 or less raises NoFirstStageJumpError. A cutoff that is not a
    finite real number raises InvalidInputError.
    """
    yv, tc, above, dv = _rdd_frame(y, t, cutoff, d)
    n = yv.shape[0]
    xm = np.column_stack([tc, above * tc])
    # the jump is the first stage's coefficient on `above`, its last instrument
    first = _first_stage(dv, above, xm)
    jump = float(first[2][-1])
    if abs(jump) <= _FIRST_STAGE_JUMP_TOL:
        raise NoFirstStageJumpError(
            f"assignment probability jump {jump:.4f} is within the "
            f"{_FIRST_STAGE_JUMP_TOL} tolerance"
        )
    est = _second_stage(yv, dv, xm, first)
    diagnostics = {**est.diagnostics, "cutoff": float(cutoff), "first_stage_jump": jump}
    return _estimate("rdd_fuzzy", est.point, n, est.variance, diagnostics)
