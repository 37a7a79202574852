"""Linear and logistic regression building blocks used by every estimator."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import expit

from .core import CausalEstimate, _as_matrix, _as_vector, _estimate, _is_01
from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    InvalidInputError,
    NonFiniteValueError,
    NoTreatmentVariationError,
    RankDeficientError,
    SeparationError,
)

IDENTITY = "identity"
LOGIT = "logit"

#: smallest (singular value / largest singular value) accepted as full rank
RANK_RTOL = 1e-10
#: smallest eigenvalue ratio of the unit-diagonal-scaled cross products A
#: that a bootstrap replicate's fit solves by normal equations. Their
#: relative error in the coefficients grows like cond(A) * 3e-16 (2.7e-12
#: at cond(A) near 1e4, measured against an iteratively refined solve), so
#: cond(A) <= 1e3 keeps it under the 1e-12 the tests allow the two paths
_SUMS_RTOL = 1e-3
#: fitted probability considered pinned to the boundary
_SEP_PROB = 1e-10
#: coefficient magnitude that, together with pinned probabilities, flags separation
_SEP_COEF = 30.0
#: max |response - probability| below which the classes are perfectly fitted
_SEP_RESID = 1e-6
#: IRLS steps after which a fit that has not converged raises ConvergenceError
_MAX_IRLS_ITER = 100
#: max |score| at which IRLS has converged
_IRLS_TOL = 1e-8


@dataclass
class LinearFit:
    """A fitted linear or logistic model.

    Attributes:
        coef: estimated coefficients, length k.
        link: "identity" (OLS) or "logit" (IRLS logistic).
        residuals: response-scale residuals (y - fitted), length n.
        coef_cov: for OLS, the covariance of coef, shape (k, k); None for
            an exactly identified fit (n = k) and for logit, whose inverse
            information is in `start`.
        iterations: IRLS steps taken, chord and Newton, and a round that
            discards a chord step (0 for OLS).
        fitted: for logit, the fitted probabilities on the fit's own
            design, length n; None for OLS.
        start: for logit, the `start` a fit of a resample of the design
            can take: coef and a k x k inverse information, that of the
            fit's last Newton step (the start's own when the fit took
            none, and (X'WX)^-1 at coef when a fit from zeros took no
            step); None for OLS.
    """

    coef: np.ndarray
    link: str
    residuals: np.ndarray
    coef_cov: np.ndarray | None
    iterations: int = 0
    fitted: np.ndarray | None = None
    start: tuple[np.ndarray, np.ndarray] | None = None


def _check_design(design, y) -> tuple[np.ndarray, np.ndarray]:
    X = _as_matrix("design", design, finite=False)
    return X, _as_vector("response", y, X.shape[0], finite=False)


class _Svd(NamedTuple):
    """A design X with its thin SVD U diag(s) Vt, which passed the rank rule:
    what least-squares fits of several responses on one design share."""

    X: np.ndarray
    U: np.ndarray
    s: np.ndarray
    Vt: np.ndarray


def _svd_factor(Xw: np.ndarray) -> _Svd:
    """The thin SVD of a design, the one factorization of every
    least-squares solve.

    Raises RankDeficientError when the singular-value ratio falls below
    RANK_RTOL (or the system is under-determined). A design with a
    non-finite entry raises NonFiniteValueError: a failed SVD looks for one,
    and an SVD that returns a non-finite largest singular value has one. Any
    other failed SVD raises ConvergenceError.
    """
    n, k = Xw.shape
    if n < k:
        raise RankDeficientError(f"n={n} rows cannot identify k={k} coefficients")
    try:
        U, s, Vt = np.linalg.svd(Xw, full_matrices=False)
    except np.linalg.LinAlgError:
        if not np.isfinite(Xw).all():
            raise NonFiniteValueError("design contains non-finite values") from None
        raise ConvergenceError("SVD of the design did not converge") from None
    # an infinite entry gives NaN singular values instead of failing, and
    # a NaN ratio would pass the rank test
    if not math.isfinite(s[0]):
        raise NonFiniteValueError("design contains non-finite values")
    if s[0] == 0.0 or s[-1] / s[0] < RANK_RTOL:
        raise RankDeficientError(
            f"design is rank deficient (singular-value ratio {0.0 if s[0] == 0 else s[-1] / s[0]:.2e})"
        )
    return _Svd(Xw, U, s, Vt)


def _svd_coef(f: _Svd, yw: np.ndarray) -> np.ndarray:
    """The least-squares coefficients of one response vector on a factored design."""
    return f.Vt.T @ ((f.U.T @ yw) / f.s)


def _svd_solve(Xw: np.ndarray, yw: np.ndarray):
    """Least-squares solve of one response vector via SVD (`_svd_factor`);
    returns (coef, (s, Vt)), whose s and Vt give (X'X)^-1 through
    `_xtx_inv`."""
    f = _svd_factor(Xw)
    return _svd_coef(f, yw), (f.s, f.Vt)


def _xtx_inv(s: np.ndarray, Vt: np.ndarray) -> np.ndarray:
    """(X'X)^-1 from the singular values and right singular vectors of X."""
    return (Vt.T / s**2) @ Vt


def fit_ols(design, y) -> LinearFit:
    """Ordinary least squares via orthogonal decomposition.

    Minimizes the residual sum of squares; the coefficient covariance is
    sigma^2 (X'X)^-1 with sigma^2 = RSS / (n - k). An exactly identified
    fit (n = k) leaves no residual to estimate sigma^2, so its covariance is
    None.

    Raises:
        RankDeficientError: collinear or under-determined design.
        DimensionMismatchError: inconsistent shapes.
        NonFiniteValueError: a non-finite entry in the design or response,
            or a residual sum of squares beyond the float range.
    """
    X, r = _check_design(design, y)
    return _ols(_svd_factor(X), r)


def _ols(f: _Svd, r: np.ndarray) -> LinearFit:
    """`fit_ols` of the response vector r on a factored design: the one
    arithmetic of every SVD least-squares fit, shared or not."""
    n, k = f.X.shape
    # unscanned inputs: a non-finite entry fails the SVD or shows in the
    # RSS, and so does a response near the float limit, whose products
    # overflow. NumPy would warn of the NaN or inf before the check raises
    with np.errstate(invalid="ignore", over="ignore"):
        coef = _svd_coef(f, r)
        resid = r - f.X @ coef
        rss = float(resid @ resid)
    if not math.isfinite(rss):
        raise NonFiniteValueError("the residual sum of squares is not finite")
    return LinearFit(
        coef=coef,
        link=IDENTITY,
        residuals=resid,
        coef_cov=rss / (n - k) * _xtx_inv(f.s, f.Vt) if n > k else None,
    )


def _normal_equations_hold(a: np.ndarray) -> bool:
    """Whether cross products A = X'X are well enough conditioned for the
    normal equations to give the SVD fit's answer to rounding, and far enough
    from the SVD fit's rank rule for that fit not to raise.

    A with a non-finite entry or a non-positive diagonal entry does not.
    """
    diag = np.diag(a)
    if not (np.isfinite(a).all() and (diag > 0.0).all()):
        return False
    scale = 1.0 / np.sqrt(diag)
    eig = np.linalg.eigvalsh(a * np.outer(scale, scale))
    # A's own eigenvalue ratio is at least eig[0] / eig[-1] * min(diag) /
    # max(diag); above RANK_RTOL, the design's singular-value ratio is above
    # sqrt(RANK_RTOL), far from the RANK_RTOL at which fit_ols raises
    return bool(
        eig[0] >= _SUMS_RTOL * eig[-1]
        and eig[0] * diag.min() >= RANK_RTOL * eig[-1] * diag.max()
    )


def _fit_ols_by_normal_equations(X: np.ndarray, y: np.ndarray, counts: np.ndarray, n: int):
    """`fit_ols` of the n rows that repeat row i of X and y counts[i] times,
    solved from the cross products A = X'(c X) and b = X'(c y): the
    coefficients and A^-1 by one LU solve, the residuals of X's rows as
    y - X coef, so they and the covariance sum(c r^2)/(n-k) A^-1 carry no
    y'y - b'coef cancellation. Agrees with `fit_ols` of the repeated rows to
    rounding; its residuals are those of X's rows.

    None when n <= k or when A fails `_normal_equations_hold`: the caller
    then fits the repeated rows with `fit_ols`, so a collinear design still
    raises the SVD rank rule's RankDeficientError.
    """
    k = X.shape[1]
    if n <= k:
        return None
    # entries beyond about 1e154 overflow A, which then fails the check,
    # while the SVD of the rows themselves does not overflow
    with np.errstate(over="ignore"):
        cx = X * counts[:, None]
        a = cx.T @ X
    if not _normal_equations_hold(a):
        return None
    rhs = np.empty((k, 1 + k))
    rhs[:, 0] = cx.T @ y
    rhs[:, 1:] = np.eye(k)
    solved = np.linalg.solve(a, rhs)  # coef, then A^-1
    coef = solved[:, 0]
    resid = y - X @ coef
    return LinearFit(
        coef=coef,
        link=IDENTITY,
        residuals=resid,
        coef_cov=float(counts @ (resid * resid)) / (n - k) * solved[:, 1:],
    )


def _coef_estimate(method: str, fit: LinearFit, at: int, diagnostics=None) -> CausalEstimate:
    """The estimate an OLS fit gives: coefficient `at`, and its diagonal
    entry of the coefficient covariance as the variance (None for an
    exactly identified fit)."""
    var = None if fit.coef_cov is None else fit.coef_cov[at, at]
    return _estimate(method, fit.coef[at], fit.residuals.shape[0], var, diagnostics)


def _check_start(start, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Copies of a warm start's coefficients (length k) and inverse
    information (k x k), both finite."""
    try:
        coef, inverse = start
    except (TypeError, ValueError):
        raise DimensionMismatchError(
            "start must be a pair (coefficients, inverse information)"
        ) from None
    coef = _as_vector("start", coef, k).copy()
    inverse = _as_matrix("start inverse information", inverse).copy()
    if inverse.shape != (k, k):
        raise DimensionMismatchError(
            f"start inverse information must have shape ({k}, {k}), got {inverse.shape}"
        )
    return coef, inverse


def _check_separation(coef, p, resid, work) -> None:
    """Raise SeparationError when the fit at `coef`, with probabilities `p`
    and residuals `resid`, separates the classes; `work` is a buffer of
    resid's length."""
    if np.abs(coef).max() > _SEP_COEF and ((p < _SEP_PROB) | (p > 1.0 - _SEP_PROB)).any():
        raise SeparationError(
            "fitted probabilities pinned at 0/1 with diverging coefficients"
        )
    # Wide-margin separation saturates expit before the coefficients
    # look large: every response then fits essentially exactly and the
    # score underflows, which would masquerade as convergence.
    if np.abs(resid, out=work).max() < _SEP_RESID:
        raise SeparationError(
            "every response fitted to machine precision; classes are separated"
        )


def _chord_steps(X: np.ndarray, dv: np.ndarray, counts, start) -> tuple[LinearFit | None, int]:
    """`fit_logistic`'s chord steps from `start`, with row i of X and dv
    counted counts[i] times (once each when counts is None): (fit, rounds).

    Each step, coef += H^-1 score with the start's H^-1, must at least
    halve max|score|. The fit is the converged LinearFit, whose residuals
    and fitted values are X's rows'; it is None when a step fails to halve
    (discarded before any check reads it) or the step limit is reached.
    `rounds` counts the rounds taken, the discarding one included.
    """
    n, k = X.shape
    coef, chord = _check_start(start, k)
    p, resid, work = np.empty(n), np.empty(n), np.empty(n)
    last = np.inf  # max|score| where the last step was taken
    for it in range(1, _MAX_IRLS_ITER + 1):
        expit(X @ coef, out=p)
        np.subtract(dv, p, out=resid)
        score = X.T @ (resid if counts is None else np.multiply(counts, resid, out=work))
        size = np.abs(score).max()
        if not size <= last / 2:  # a NaN score lands here too
            return None, it
        last = size
        _check_separation(coef, p, resid, work)
        if size < _IRLS_TOL:
            fit = LinearFit(
                coef=coef,
                link=LOGIT,
                residuals=resid,
                coef_cov=None,
                iterations=it - 1,
                fitted=p,
                start=(coef, chord),
            )
            return fit, it
        coef = coef + chord @ score
    return None, _MAX_IRLS_ITER


# an inf in the unscanned design makes NaN products (inf * 0 in X coef),
# which NumPy warns of before a Newton step's SVD raises NonFiniteValueError
@np.errstate(invalid="ignore")
def fit_logistic(design, d, start=None) -> LinearFit:
    """Logistic regression by iteratively reweighted least squares.

    Without `start`, iterates Newton/IRLS steps from coef = 0 until the
    score vector satisfies max|score| < 1e-8. `start` is a pair (coef,
    inverse information), such as the full-sample fit's `start` for a
    bootstrap replicate. From it the fit takes chord steps, coef +=
    H^-1 score with the start's H^-1, which need no factorization, while
    each step at least halves max|score|. A step that does not is
    discarded before any check reads it, and Newton steps start over from
    zeros, so the fit ends as the cold fit. The stopping rule, the
    separation checks and the step limit (which counts the discarded step
    and the round that discards it) do not depend on the start.

    Raises:
        NoTreatmentVariationError: d has a single class.
        SeparationError: probabilities pinned at 0/1 with |coef| > 30, or
            every response fitted to within 1e-6 (wide-margin separation).
        ConvergenceError: no convergence in 100 steps.
        DimensionMismatchError: `start` is not a pair of a length-k vector
            and a k x k matrix.
        NonFiniteValueError: `start` or the design has a non-finite entry.
    """
    X, dv = _check_design(design, d)
    if not _is_01(dv):
        raise InvalidInputError("logistic response must be 0/1")
    if dv.min() == dv.max():
        raise NoTreatmentVariationError("response takes a single value")

    rounds = 0
    if start is not None:
        fit, rounds = _chord_steps(X, dv, None, start)
        if fit is not None:
            return fit
    n, k = X.shape
    coef = np.zeros(k)
    # row-length work arrays that every step overwrites; the converged fit
    # keeps p and resid, and each fit allocates its own. Xw is
    # column-major, the layout LAPACK factors in, so the SVD copies it in
    # contiguous runs; its bits do not depend on the layout. X keeps the
    # caller's layout, as X @ coef rounds differently in another one
    p, resid, sw = np.empty(n), np.empty(n), np.empty(n)
    Xw = np.empty((k, n)).T
    factors = None
    for it in range(rounds + 1, _MAX_IRLS_ITER + 1):
        expit(X @ coef, out=p)
        np.subtract(dv, p, out=resid)
        score = X.T @ resid
        size = np.abs(score).max()
        _check_separation(coef, p, resid, sw)
        # sw = p (1 - p), formed as (1 - p) p: IEEE products commute
        np.subtract(1.0, p, out=sw)
        sw *= p
        if size < _IRLS_TOL:
            if factors is not None:
                inverse = _xtx_inv(*factors)
            else:  # a fit from zeros that took no step
                np.multiply(X.T, np.sqrt(sw, out=sw), out=Xw.T)
                inverse = _xtx_inv(*_svd_solve(Xw, resid)[1])
            return LinearFit(
                coef=coef,
                link=LOGIT,
                residuals=resid,
                coef_cov=None,
                iterations=it - 1,
                fitted=p,
                start=(coef, inverse),
            )
        np.maximum(sw, 1e-12, out=sw)
        np.sqrt(sw, out=sw)
        # Newton step as a weighted least-squares solve on the working
        # response, formed in the residuals' buffer
        resid /= sw
        np.multiply(X.T, sw, out=Xw.T)
        step, factors = _svd_solve(Xw, resid)
        coef = coef + step
    raise ConvergenceError(f"IRLS did not converge in {_MAX_IRLS_ITER} iterations")


def predict(fit: LinearFit, design_new) -> np.ndarray:
    """Evaluate a fit on new design rows (expit-transformed for logit)."""
    X = _as_matrix("design_new", design_new, finite=False)
    if X.shape[1] != fit.coef.shape[0]:
        raise DimensionMismatchError(
            f"design_new has width {X.shape[1]}, fit expects {fit.coef.shape[0]}"
        )
    eta = X @ fit.coef
    return expit(eta) if fit.link == LOGIT else eta
