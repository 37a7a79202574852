"""Linear and logistic regression against independent oracles."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.special import expit

from causalest import (
    LOGIT,
    estimate_propensity_binary,
    fit_logistic,
    fit_ols,
    predict,
)
from causalest import regress
from causalest.errors import (
    ConvergenceError,
    DimensionMismatchError,
    NoTreatmentVariationError,
    RankDeficientError,
    SeparationError,
)

from .conftest import confounded_binary, philox


def logistic_loglik(design, d, coef) -> float:
    """Oracle: Bernoulli log-likelihood at `coef` (numerically stable form)."""
    X = np.asarray(design, dtype=float)
    eta = X @ np.asarray(coef, dtype=float)
    # log(1 + exp(eta)) without overflow
    log1pexp = np.where(eta > 30, eta, np.log1p(np.exp(np.minimum(eta, 30))))
    return float(np.asarray(d, dtype=float) @ eta - log1pexp.sum())


def logistic_score(design, d, coef) -> np.ndarray:
    """Oracle: gradient of the Bernoulli log-likelihood, X'(d - p)."""
    X = np.asarray(design, dtype=float)
    p = expit(X @ np.asarray(coef, dtype=float))
    return X.T @ (np.asarray(d, dtype=float) - p)


class TestFitOls:
    def test_hand_line(self):
        # [TRIVIAL] points (1,3),(2,5),(3,7) lie on y = 1 + 2x
        X = np.array([[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
        fit = fit_ols(X, [3.0, 5.0, 7.0])
        np.testing.assert_allclose(fit.coef, [1.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(fit.residuals, 0.0, atol=1e-12)

    def test_intercept_only_is_mean(self):
        # [TRIVIAL] regressing (2,4,6) on a constant returns their mean 4
        fit = fit_ols(np.ones((3, 1)), [2.0, 4.0, 6.0])
        assert fit.coef[0] == pytest.approx(4.0)

    def test_normal_equations_oracle(self):
        # [DERIVED] oracle: explicit inv(X'X) X'y on a random 6x3 problem
        g = philox(3)
        X = g.normal(size=(6, 3))
        y = g.normal(size=6)
        fit = fit_ols(X, y)
        oracle = np.linalg.inv(X.T @ X) @ X.T @ y
        np.testing.assert_allclose(fit.coef, oracle, atol=1e-10)

    def test_coef_cov_oracle(self):
        # [DERIVED] oracle: sigma^2 inv(X'X) with sigma^2 = RSS/(n-k)
        g = philox(4)
        X = np.column_stack([np.ones(30), g.normal(size=(30, 2))])
        y = g.normal(size=30)
        fit = fit_ols(X, y)
        resid = y - X @ np.linalg.inv(X.T @ X) @ X.T @ y
        sigma2 = resid @ resid / (30 - 3)
        np.testing.assert_allclose(
            fit.coef_cov, sigma2 * np.linalg.inv(X.T @ X), rtol=1e-8
        )

    def test_reparameterization_invariance(self):
        # [DERIVED] fitted values are unchanged by any invertible column mix
        g = philox(6)
        X = np.column_stack([np.ones(25), g.normal(size=(25, 2))])
        y = g.normal(size=25)
        A = np.array([[1.0, 0.3, -0.2], [0.0, 2.0, 0.5], [0.0, 0.0, -1.5]])
        f1 = fit_ols(X, y)
        f2 = fit_ols(X @ A, y)
        np.testing.assert_allclose(X @ f1.coef, (X @ A) @ f2.coef, atol=1e-8)

    def test_collinear_design_rejected(self):
        X = np.column_stack([np.ones(10), np.full(10, 2.0)])
        with pytest.raises(RankDeficientError):
            fit_ols(X, np.arange(10.0))

    def test_underdetermined_rejected(self):
        with pytest.raises(RankDeficientError):
            fit_ols(np.ones((2, 3)), [1.0, 2.0])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            fit_ols(np.ones((3, 1)), [1.0, 2.0])

    def test_saturated_fit_zero_sigma(self):
        # n == k: residuals are zero and so is the covariance scale
        X = np.array([[1.0, 0.0], [1.0, 1.0]])
        fit = fit_ols(X, [2.0, 5.0])
        np.testing.assert_allclose(fit.coef, [2.0, 3.0], atol=1e-12)
        np.testing.assert_allclose(fit.coef_cov, 0.0, atol=1e-12)


def _logistic_draw(seed: int, n: int, a0: float = 2.0, a1: float = 0.5):
    g = philox(seed)
    x = g.normal(0.0, np.sqrt(10.0), n)
    d = (g.uniform(size=n) < expit(a0 + a1 * x)).astype(float)
    return np.column_stack([np.ones(n), x]), d


class TestFitLogistic:
    def test_grid_oracle(self):
        # [DERIVED] oracle: the IRLS optimum beats a coarse likelihood grid
        X, d = _logistic_draw(7, 400)
        fit = fit_logistic(X, d)
        best = max(
            logistic_loglik(X, d, (a0, a1))
            for a0 in np.linspace(0.0, 4.0, 21)
            for a1 in np.linspace(0.0, 1.0, 21)
        )
        assert logistic_loglik(X, d, fit.coef) >= best - 1e-9

    def test_score_zero_at_optimum(self):
        # [DERIVED] first-order condition X'(d - p) = 0 at the fit
        X, d = _logistic_draw(8, 300)
        fit = fit_logistic(X, d)
        assert np.max(np.abs(logistic_score(X, d, fit.coef))) < 1e-6
        assert fit.converged
        assert fit.link == LOGIT

    def test_loglik_gradient_matches_finite_differences(self):
        # [DERIVED] oracle: central differences of the log-likelihood
        X, d = _logistic_draw(9, 120)
        g = philox(10)
        h = 1e-5
        for _ in range(10):
            coef = g.normal(0.0, 0.5, 2)
            grad = logistic_score(X, d, coef)
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                fd = (logistic_loglik(X, d, coef + e) - logistic_loglik(X, d, coef - e)) / (
                    2 * h
                )
                assert grad[j] == pytest.approx(fd, abs=1e-4)

    def test_parameter_recovery(self):
        # [DERIVED] n = 10,000 draws recover the generating (2, 0.5)
        X, d = _logistic_draw(11, 10_000)
        fit = fit_logistic(X, d)
        np.testing.assert_allclose(fit.coef, [2.0, 0.5], atol=0.1)

    def test_separation_detected(self):
        x = np.linspace(-2, 2, 40)
        d = (x > 0).astype(float)
        with pytest.raises(SeparationError):
            fit_logistic(np.column_stack([np.ones(40), x]), d)

    def test_wide_margin_separation_detected(self):
        # [DERIVED] a gap between the classes lets IRLS fit every response
        # essentially exactly while the coefficients still look moderate;
        # that must be reported as separation, not convergence.
        x = np.concatenate([np.linspace(-2.0, -1.0, 20), np.linspace(1.0, 2.0, 20)])
        d = (x > 0).astype(float)
        with pytest.raises(SeparationError, match="separated"):
            fit_logistic(np.column_stack([np.ones(40), x]), d)

    def test_single_class_rejected(self):
        with pytest.raises(NoTreatmentVariationError):
            fit_logistic(np.ones((5, 1)), np.ones(5))

    def test_non_binary_response_rejected(self):
        with pytest.raises(ValueError, match="0/1"):
            fit_logistic(np.ones((3, 1)), [0.0, 0.5, 1.0])

    def test_max_iter_exhaustion(self):
        X, d = _logistic_draw(12, 200)
        with pytest.raises(ConvergenceError):
            fit_logistic(X, d, max_iter=1)


class TestIrlsWork:
    @staticmethod
    def _count_svd_solves(monkeypatch):
        calls = []
        solve = regress._svd_solve

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(regress, "_svd_solve", counted)
        return calls

    def test_score_fit_runs_one_svd_per_newton_step(self, monkeypatch):
        # the covariance a score fit never reads is never computed
        calls = self._count_svd_solves(monkeypatch)
        fit = estimate_propensity_binary(confounded_binary(14, 2000))
        assert fit.model.iterations > 0
        assert len(calls) == fit.model.iterations
        fit.model.coef_cov
        fit.model.coef_cov
        assert len(calls) == fit.model.iterations + 1

    def test_coef_cov_matches_eager_oracle_after_design_overwritten(self):
        # [DERIVED] oracle: (X'WX)^-1 from the SVD of the weighted design at
        # the converged coefficients, formed the way a Newton step forms it
        X, d = _logistic_draw(15, 500)
        saved = X.copy()
        fit = fit_logistic(X, d)
        X[:] = philox(16).normal(size=X.shape)  # the caller reuses its buffer
        p = expit(saved @ fit.coef)
        _, s, Vt = np.linalg.svd(saved * np.sqrt(p * (1.0 - p))[:, None], full_matrices=False)
        oracle = (Vt.T / s**2) @ Vt
        assert np.array_equal(fit.coef_cov, oracle)
        np.testing.assert_allclose(
            fit.coef_cov, np.linalg.inv(saved.T @ (saved * (p * (1.0 - p))[:, None])), rtol=1e-8
        )

    def test_fitted_equals_prediction_on_the_design(self):
        X, d = _logistic_draw(17, 400)
        fit = fit_logistic(X, d)
        assert np.array_equal(fit.fitted, predict(fit, X))
        assert np.array_equal(fit.residuals, d - fit.fitted)


class TestPredict:
    def test_logit_hand_value(self):
        # [TRIVIAL] expit(2 + 0.5*0) = expit(2) ~ 0.8808
        X, d = _logistic_draw(13, 500)
        fit = fit_logistic(X, d)
        fit.coef = np.array([2.0, 0.5])
        assert predict(fit, [1.0, 0.0])[0] == pytest.approx(expit(2.0))

    def test_single_row_vs_column_disambiguation(self):
        fit = fit_ols(np.ones((3, 1)), [2.0, 4.0, 6.0])
        # width-1 fit: a 1-d input is a column of rows
        np.testing.assert_allclose(predict(fit, [1.0, 1.0]), [4.0, 4.0])

    def test_width_mismatch(self):
        fit = fit_ols(np.ones((3, 1)), [2.0, 4.0, 6.0])
        with pytest.raises(DimensionMismatchError):
            predict(fit, np.ones((2, 3)))
