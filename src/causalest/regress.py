"""Linear and logistic regression building blocks used by every estimator."""

from __future__ import annotations

import functools
from dataclasses import MISSING, dataclass

import numpy as np
from scipy.special import expit

from .core import CausalEstimate, _as_matrix, _as_vector, _check_int, _estimate, _is_01
from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    InvalidInputError,
    NoTreatmentVariationError,
    RankDeficientError,
    SeparationError,
)

IDENTITY = "identity"
LOGIT = "logit"

#: smallest (singular value / largest singular value) accepted as full rank
RANK_RTOL = 1e-10
#: fitted probability considered pinned to the boundary
_SEP_PROB = 1e-10
#: coefficient magnitude that, together with pinned probabilities, flags separation
_SEP_COEF = 30.0
#: max |response - probability| below which the classes are perfectly fitted
_SEP_RESID = 1e-6


class _OnFirstRead:
    """Dataclass field descriptor: a zero-argument callable stored in the
    field is called on the first read, and its result replaces it."""

    def __set_name__(self, owner, name):
        self._name = name

    def __get__(self, obj, owner=None):
        if obj is None:  # class access: the dataclass field has no default
            return MISSING
        value = obj.__dict__[self._name]
        if callable(value):
            value = obj.__dict__[self._name] = value()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self._name] = value


@dataclass
class LinearFit:
    """A fitted linear or logistic model.

    Attributes:
        coef: estimated coefficients, length k.
        link: "identity" (OLS) or "logit" (IRLS logistic).
        residuals: response-scale residuals (y - fitted), length n.
        coef_cov: asymptotic covariance of coef, shape (k, k). May be given
            as a zero-argument callable, which runs on the first read.
        design_width: k, for prediction-time shape checking.
        converged: True when the fit met its convergence criterion.
        iterations: IRLS iterations used (0 for OLS).
        fitted: for logit, the fitted probabilities on the fit's own
            design, length n; None for OLS.
    """

    coef: np.ndarray
    link: str
    residuals: np.ndarray
    coef_cov: np.ndarray | None = _OnFirstRead()
    design_width: int
    converged: bool = True
    iterations: int = 0
    fitted: np.ndarray | None = None


def _check_design(design, y) -> tuple[np.ndarray, np.ndarray]:
    X = _as_matrix("design", design, finite=False)
    return X, _as_vector("response", y, X.shape[0], finite=False)


def _svd_solve(Xw: np.ndarray, yw: np.ndarray | None, *, inverse: bool = False):
    """Least-squares solve via SVD; returns (coef, xtx_inv).

    coef is None when `yw` is None, and (X'X)^-1 is formed only with
    `inverse`, else None. Raises RankDeficientError when the
    singular-value ratio falls below RANK_RTOL (or the system is
    under-determined).
    """
    n, k = Xw.shape
    if n < k:
        raise RankDeficientError(f"n={n} rows cannot identify k={k} coefficients")
    U, s, Vt = np.linalg.svd(Xw, full_matrices=False)
    if s[0] == 0.0 or s[-1] / s[0] < RANK_RTOL:
        raise RankDeficientError(
            f"design is rank deficient (singular-value ratio {0.0 if s[0] == 0 else s[-1] / s[0]:.2e})"
        )
    coef = xtx_inv = None
    if yw is not None:
        uty = U.T @ yw
        coef = Vt.T @ (uty / (s[:, None] if uty.ndim == 2 else s))
    if inverse:
        xtx_inv = (Vt.T / s**2) @ Vt
    return coef, xtx_inv


def _weighted_xtx_inv(Xw: np.ndarray) -> np.ndarray:
    """(Xw' Xw)^-1 from the same SVD a Newton step uses."""
    return _svd_solve(Xw, None, inverse=True)[1]


def fit_ols(design, y) -> LinearFit:
    """Ordinary least squares via orthogonal decomposition.

    Minimizes the residual sum of squares; the coefficient covariance is
    sigma^2 (X'X)^-1 with sigma^2 = RSS / (n - k).

    Raises:
        RankDeficientError: collinear or under-determined design.
        DimensionMismatchError: inconsistent shapes.
    """
    X, r = _check_design(design, y)
    n, k = X.shape
    coef, xtx_inv = _svd_solve(X, r, inverse=True)
    resid = r - X @ coef
    sigma2 = float(resid @ resid) / (n - k) if n > k else 0.0
    return LinearFit(
        coef=coef,
        link=IDENTITY,
        residuals=resid,
        coef_cov=sigma2 * xtx_inv,
        design_width=k,
    )


def _coef_estimate(method: str, design, y, at: int, diagnostics=None) -> CausalEstimate:
    """OLS of y on `design`; coefficient `at` is the estimate, and its
    diagonal entry of the coefficient covariance the variance."""
    fit = fit_ols(design, y)
    return _estimate(method, fit.coef[at], len(y), fit.coef_cov[at, at], diagnostics)


def fit_logistic(design, d, max_iter: int = 100, tol: float = 1e-8) -> LinearFit:
    """Logistic regression by iteratively reweighted least squares.

    Starts from coef = 0 and iterates Newton/IRLS steps until the score
    vector satisfies max|score| < tol. The inverse information (X'WX)^-1
    at the converged coefficients is computed on the first read of
    `coef_cov`, from a weighted design the fit owns; it raises
    RankDeficientError then if the weights leave the design rank deficient.

    Raises:
        NoTreatmentVariationError: d has a single class.
        SeparationError: probabilities pinned at 0/1 with |coef| > 30, or
            every response fitted to within 1e-6 (wide-margin separation).
        ConvergenceError: max_iter exhausted.
    """
    _check_int(1, max_iter=max_iter)
    X, dv = _check_design(design, d)
    if not _is_01(dv):
        raise InvalidInputError("logistic response must be 0/1")
    if dv.min() == dv.max():
        raise NoTreatmentVariationError("response takes a single value")

    k = X.shape[1]
    coef = np.zeros(k)
    for it in range(1, max_iter + 1):
        p = expit(X @ coef)
        resid = dv - p
        if np.abs(coef).max() > _SEP_COEF and ((p < _SEP_PROB) | (p > 1.0 - _SEP_PROB)).any():
            raise SeparationError(
                "fitted probabilities pinned at 0/1 with diverging coefficients"
            )
        # Wide-margin separation saturates expit before the coefficients
        # look large: every response then fits essentially exactly and the
        # score underflows, which would masquerade as convergence.
        if np.abs(resid).max() < _SEP_RESID:
            raise SeparationError(
                "every response fitted to machine precision; classes are separated"
            )
        score = X.T @ resid
        if np.abs(score).max() < tol:
            w = p * (1.0 - p)
            return LinearFit(
                coef=coef,
                link=LOGIT,
                residuals=resid,
                coef_cov=functools.partial(_weighted_xtx_inv, X * np.sqrt(w)[:, None]),
                design_width=k,
                converged=True,
                iterations=it - 1,
                fitted=p,
            )
        sw = np.sqrt(np.maximum(p * (1.0 - p), 1e-12))
        # Newton step as a weighted least-squares solve on the working
        # response, formed in the residuals' buffer
        resid /= sw
        step, _ = _svd_solve(X * sw[:, None], resid)
        coef = coef + step
    raise ConvergenceError(f"IRLS did not converge in {max_iter} iterations")


def predict(fit: LinearFit, design_new) -> np.ndarray:
    """Evaluate a fit on new design rows (expit-transformed for logit)."""
    X = np.asarray(design_new, dtype=float)
    # a 1-d input is a single design row, or else a column of one-regressor rows
    if X.ndim == 1 and X.size == fit.design_width > 1:
        X = X.reshape(1, -1)
    X = _as_matrix("design_new", X, finite=False)
    if X.shape[1] != fit.design_width:
        raise DimensionMismatchError(
            f"design_new has width {X.shape[1]}, fit expects {fit.design_width}"
        )
    eta = X @ fit.coef
    return expit(eta) if fit.link == LOGIT else eta
