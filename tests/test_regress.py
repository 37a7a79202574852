"""Linear and logistic regression against independent oracles."""

from __future__ import annotations

import re

import numpy as np
import pytest
from scipy.special import expit

from causalest import (
    LOGIT,
    ate_2sls,
    ate_did,
    ate_or,
    estimate_propensity_binary,
    fit_logistic,
    fit_ols,
    predict,
    rdd_sharp,
    validate,
    validate_panel,
)
from causalest import regress
from causalest.errors import (
    ConvergenceError,
    DimensionMismatchError,
    NonFiniteValueError,
    NoTreatmentVariationError,
    RankDeficientError,
    SeparationError,
)

from .conftest import confounded_binary, count_svd_solves, newton_start_inverse, philox

_NON_FINITE_START = "vector 'start' contains non-finite values"


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

    def test_saturated_fit_has_no_covariance(self):
        # n == k: the residuals are zero by construction, so they estimate
        # no error variance; a covariance of 0 would claim certainty
        X = np.array([[1.0, 0.0], [1.0, 1.0]])
        fit = fit_ols(X, [2.0, 5.0])
        np.testing.assert_allclose(fit.coef, [2.0, 3.0], atol=1e-12)
        assert fit.coef_cov is None

    @pytest.mark.parametrize(
        "estimate, point",
        [
            # [TRIVIAL] (5 - 3) - (2 - 1) on the four 2x2 cells of two units
            (
                lambda: ate_did(
                    validate_panel([0, 0, 1, 1], [0, 1, 0, 1], [1.0, 2, 3, 5], [0.0, 0, 0, 1])
                ),
                1.0,
            ),
            # [TRIVIAL] y = 1 + d + 3x on three rows of (1, d, x)
            (lambda: ate_or(validate([1.0, 2, 4], [0.0, 1, 0], [0.0, 0, 1])), 1.0),
            # [TRIVIAL] lines 2 + t left and 4 + t right of the cutoff
            (lambda: rdd_sharp([0.0, 1, 5, 6], [-2.0, -1, 1, 2]), 2.0),
            # [TRIVIAL] two rows with d = z: the slope of y on d
            (lambda: ate_2sls([1.0, 3], [0.0, 1], [0.0, 1]), 2.0),
        ],
        ids=["did", "or", "rdd_sharp", "2sls"],
    )
    def test_exactly_identified_estimate_reports_no_variance(self, estimate, point):
        est = estimate()
        assert est.point == pytest.approx(point, abs=1e-12)
        assert est.variance is None
        assert est.ci is None


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

    def test_max_iter_exhaustion(self, monkeypatch):
        X, d = _logistic_draw(12, 200)
        monkeypatch.setattr(regress, "_MAX_IRLS_ITER", 1)
        with pytest.raises(ConvergenceError, match="in 1 iterations"):
            fit_logistic(X, d)


class TestIrlsWork:
    def test_score_fit_runs_one_svd_per_newton_step(self, monkeypatch):
        # the start's inverse information comes from the last Newton step's
        # SVD, so the converged fit factors nothing more
        calls = count_svd_solves(monkeypatch)
        ds = confounded_binary(14, 2000)
        iterations = estimate_propensity_binary(ds).diagnostics["iterations"]
        assert iterations > 0
        assert len(calls) == iterations
        model = fit_logistic(np.column_stack([np.ones(ds.n), ds.x]), ds.d)
        assert model.iterations == iterations
        assert len(calls) == 2 * iterations

    def test_logistic_fit_carries_no_coef_cov(self):
        # [DERIVED] oracle: textbook Newton by normal equations; a logistic
        # fit's inverse information is the one its start carries
        X, d = _logistic_draw(15, 500)
        fit = fit_logistic(X, d)
        assert fit.coef_cov is None
        np.testing.assert_allclose(fit.start[1], newton_start_inverse(X, d), rtol=1e-8)

    def test_fitted_equals_prediction_on_the_design(self):
        X, d = _logistic_draw(17, 400)
        fit = fit_logistic(X, d)
        assert np.array_equal(fit.fitted, predict(fit, X))
        assert np.array_equal(fit.residuals, d - fit.fitted)


def _allocating_irls(X, d, max_iter=100, tol=1e-8, start=None):
    """Oracle: the IRLS loop that allocates its row-length arrays afresh on
    every step; returns (coef, residuals, fitted, iterations)."""
    coef = np.zeros(X.shape[1]) if start is None else np.array(start, dtype=float)
    for it in range(1, max_iter + 1):
        p = expit(X @ coef)
        resid = d - p
        if np.abs(coef).max() > regress._SEP_COEF and (
            (p < regress._SEP_PROB) | (p > 1.0 - regress._SEP_PROB)
        ).any():
            raise SeparationError("pinned at 0/1")
        if np.abs(resid).max() < regress._SEP_RESID:
            raise SeparationError("classes are separated")
        score = X.T @ resid
        if np.abs(score).max() < tol:
            return coef, resid, p, it - 1
        sw = np.sqrt(np.maximum(p * (1.0 - p), 1e-12))
        resid /= sw
        step, _ = regress._svd_solve(X * sw[:, None], resid)
        coef = coef + step
    raise ConvergenceError(f"did not converge in {max_iter} iterations")


def _score_draw(seed: int, n: int, k: int):
    """A design of an intercept and k - 1 normal covariates, and a 0/1
    response drawn from a logistic model in them."""
    g = philox(seed)
    X = np.column_stack([np.ones(n), g.normal(size=(n, k - 1))])
    eta = X @ np.linspace(-0.4, 0.8, k)
    return X, (g.uniform(size=n) < expit(eta)).astype(float)


def _failure(fit_call) -> Exception:
    with pytest.raises((SeparationError, ConvergenceError)) as info:
        fit_call()
    return info.value


class TestIrlsInPlace:
    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("n", [60, 1_000, 50_000])
    def test_bits_match_the_allocating_loop(self, n, k):
        # [DERIVED] oracle: the loop that allocates every array afresh
        for seed in (n + k, n + k + 1):
            X, d = _score_draw(seed, n, k)
            coef, resid, p, iterations = _allocating_irls(X, d)
            fit = fit_logistic(X, d)
            assert np.array_equal(fit.coef, coef)
            assert np.array_equal(fit.residuals, resid)
            assert np.array_equal(fit.fitted, p)
            assert fit.iterations == iterations > 0

    @pytest.mark.parametrize(
        "x",
        [
            np.linspace(-2.0, 2.0, 40),
            np.concatenate([np.linspace(-2.0, -1.0, 20), np.linspace(1.0, 2.0, 20)]),
        ],
        ids=["pinned", "wide-margin"],
    )
    def test_separation_raises_as_the_allocating_loop_does(self, x):
        X, d = np.column_stack([np.ones(x.size), x]), (x > 0).astype(float)
        oracle = _failure(lambda: _allocating_irls(X, d))
        got = _failure(lambda: fit_logistic(X, d))
        assert type(got) is type(oracle) is SeparationError
        assert str(oracle) in str(got)  # the same of the two checks

    def test_exhaustion_raises_as_the_allocating_loop_does(self, monkeypatch):
        X, d = _score_draw(18, 1_000, 4)
        monkeypatch.setattr(regress, "_MAX_IRLS_ITER", 1)
        oracle = _failure(lambda: _allocating_irls(X, d, max_iter=1))
        got = _failure(lambda: fit_logistic(X, d))
        assert type(got) is type(oracle) is ConvergenceError
        assert str(oracle) in str(got)

    def test_fits_share_no_memory(self):
        X, d = _score_draw(19, 1_000, 4)
        first = fit_logistic(X, d)
        arrays = {"fitted": first.fitted, "residuals": first.residuals,
                  "inverse": first.start[1], "design": X}
        names = list(arrays)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                assert not np.shares_memory(arrays[a], arrays[b]), (a, b)
        saved = {name: v.copy() for name, v in arrays.items()}
        X2, d2 = _score_draw(20, 1_000, 4)
        second = fit_logistic(X2, d2)
        for name in ("fitted", "residuals", "inverse"):
            assert np.array_equal(arrays[name], saved[name]), name
            assert not np.shares_memory(arrays[name], second.fitted), name
            assert not np.shares_memory(arrays[name], second.residuals), name


def _allocating_chord_irls(X, d, coef, inverse=None, max_iter=100, tol=1e-8):
    """Oracle: chord steps coef += inverse @ score from `coef` while each
    halves max|score|, and once one does not, allocating Newton steps from
    zeros; with `inverse` None, Newton steps from `coef`. Returns (coef,
    residuals, fitted, start inverse, iterations): the start inverse is
    (X'WX)^-1 from the SVD of the last Newton step, else `inverse`, else
    (X'WX)^-1 at the optimum."""
    coef = np.array(coef, dtype=float)
    last, newton_inverse = np.inf, None
    for it in range(1, max_iter + 1):
        p = expit(X @ coef)
        resid = d - p
        score = X.T @ resid
        if inverse is not None:
            if not np.abs(score).max() <= last / 2:
                coef, inverse = np.zeros(X.shape[1]), None
                continue
            last = np.abs(score).max()
        if np.abs(coef).max() > regress._SEP_COEF and (
            (p < regress._SEP_PROB) | (p > 1.0 - regress._SEP_PROB)
        ).any():
            raise SeparationError("pinned at 0/1")
        if np.abs(resid).max() < regress._SEP_RESID:
            raise SeparationError("classes are separated")
        if np.abs(score).max() < tol:
            Xw = X * np.sqrt(p * (1.0 - p))[:, None]
            at_optimum = regress._xtx_inv(*regress._svd_solve(Xw, resid)[1])
            for start_inverse in (newton_inverse, inverse, at_optimum):
                if start_inverse is not None:
                    return coef, resid, p, start_inverse, it - 1
        if inverse is not None:
            coef = coef + inverse @ score
            continue
        sw = np.sqrt(np.maximum(p * (1.0 - p), 1e-12))
        step, _ = regress._svd_solve(X * sw[:, None], resid / sw)
        _, s, Vt = np.linalg.svd(X * sw[:, None], full_matrices=False)
        newton_inverse = (Vt.T / s**2) @ Vt
        coef = coef + step
    raise ConvergenceError(f"did not converge in {max_iter} iterations")


def _assert_matches_oracle(fit, oracle):
    coef, resid, p, inverse, iterations = oracle
    assert np.array_equal(fit.coef, coef)
    assert np.array_equal(fit.residuals, resid)
    assert np.array_equal(fit.fitted, p)
    assert np.array_equal(fit.start[0], coef)
    assert np.array_equal(fit.start[1], inverse)
    assert fit.iterations == iterations


class TestWarmStart:
    def test_bootstrap_resamples_reach_the_cold_fit_with_no_svd(self, monkeypatch):
        # [DERIVED] a resample's optimum lies a root-n step from the full
        # sample's, where the full-sample information is within O(n^-1/2)
        # of the resample's, so chord steps contract by far more than half
        # each and stop by the same max|score| rule near the cold optimum
        X, d = _score_draw(21, 50_000, 4)
        full = fit_logistic(X, d)
        calls = count_svd_solves(monkeypatch)
        g = philox(22)
        for _ in range(4):
            idx = g.integers(0, d.size, size=d.size)
            Xb, db = X[idx], d[idx]
            del calls[:]
            warm = fit_logistic(Xb, db, start=full.start)
            assert not calls
            assert warm.iterations > 0
            assert warm.start[1] is not full.start[1]
            assert np.array_equal(warm.start[1], full.start[1])
            cold = fit_logistic(Xb, db)
            assert len(calls) == cold.iterations
            np.testing.assert_allclose(warm.coef, cold.coef, rtol=0.0, atol=1e-12)
            assert np.abs(logistic_score(Xb, db, warm.coef)).max() < regress._IRLS_TOL

    @pytest.mark.parametrize("n, k", [(60, 2), (1_000, 3), (50_000, 4)])
    def test_bits_match_the_allocating_loop_from_the_same_start(self, n, k):
        # [DERIVED] oracle: the allocating chord-then-Newton loop, started at
        # the same point; the far start falls back to Newton steps from zeros
        X, d = _score_draw(n + k + 2, n, k)
        inverse = fit_logistic(X, d).start[1]
        optimum = fit_logistic(X, d).coef
        for coef in (np.linspace(0.3, -0.2, k), optimum + 0.01, 5.0 * optimum):
            oracle = _allocating_chord_irls(X, d, coef, inverse)
            _assert_matches_oracle(fit_logistic(X, d, start=(coef, inverse)), oracle)

    def test_zero_start_is_the_default(self):
        # [DERIVED] oracle: the allocating Newton loop from zeros, whose last
        # step's SVD gives the start a fit of a resample takes
        X, d = _score_draw(23, 1_000, 3)
        fit = fit_logistic(X, d)
        _assert_matches_oracle(fit, _allocating_chord_irls(X, d, np.zeros(3)))
        assert fit.iterations > 0

    def test_a_fit_that_takes_no_step_starts_the_next_at_its_covariance(self):
        # [TRIVIAL] with half the responses 1 and a centred covariate that
        # is balanced between them, the score vanishes at zero
        X = np.column_stack([np.ones(4), [-1.0, 1.0, -1.0, 1.0]])
        d = np.array([0.0, 0.0, 1.0, 1.0])
        fit = fit_logistic(X, d)
        assert fit.iterations == 0
        assert np.array_equal(fit.start[0], np.zeros(2))
        np.testing.assert_allclose(fit.start[1], np.eye(2), rtol=1e-12)

    def test_a_fit_that_takes_no_step_on_a_collinear_design_is_rank_deficient(self):
        # the score vanishes at zero as above, and the inverse information
        # the fit would return goes through the SVD fit's rank rule
        c = [-1.0, 1.0, -1.0, 1.0]
        X = np.column_stack([np.ones(4), c, c])
        with pytest.raises(RankDeficientError):
            fit_logistic(X, [0.0, 0.0, 1.0, 1.0])

    def test_start_at_the_optimum_is_copied(self):
        X, d = _score_draw(24, 1_000, 3)
        start = fit_logistic(X, d).start
        saved = [part.copy() for part in start]
        fit = fit_logistic(X, d, start=start)
        assert fit.iterations == 0
        assert np.array_equal(fit.coef, saved[0])
        assert np.array_equal(fit.start[1], saved[1])
        for mine, theirs in zip(fit.start, start):
            assert not np.shares_memory(mine, theirs)
        fit.coef[0] += 1.0
        fit.start[1][0, 0] += 1.0
        assert all(np.array_equal(part, was) for part, was in zip(start, saved))

    @pytest.mark.parametrize(
        "start, error, message",
        [
            ((np.zeros(2), np.eye(3)), DimensionMismatchError, "start must have length 3, got 2"),
            ((np.zeros(4), np.eye(3)), DimensionMismatchError, "start must have length 3, got 4"),
            (
                (np.zeros((3, 1)), np.eye(3)),
                DimensionMismatchError,
                "'start' must be a 1-d vector, got shape",
            ),
            ((np.array([0.0, np.nan, 0.0]), np.eye(3)), NonFiniteValueError, _NON_FINITE_START),
            ((np.array([0.0, 0.0, np.inf]), np.eye(3)), NonFiniteValueError, _NON_FINITE_START),
            (np.zeros(3), DimensionMismatchError, "start must be a pair"),
            ((np.zeros(3),), DimensionMismatchError, "start must be a pair"),
            (
                (np.zeros(3), np.eye(2)),
                DimensionMismatchError,
                "start inverse information must have shape (3, 3), got (2, 2)",
            ),
            (
                (np.zeros(3), np.ones(3)),
                DimensionMismatchError,
                "start inverse information must have shape (3, 3), got (3, 1)",
            ),
            (
                (np.zeros(3), np.diag([1.0, np.nan, 1.0])),
                NonFiniteValueError,
                "matrix 'start inverse information' contains non-finite values",
            ),
        ],
        ids=["short", "long", "2-d", "nan", "inf", "vector", "single",
             "inverse-shape", "inverse-vector", "inverse-nan"],
    )
    def test_start_is_checked_like_outside_input(self, start, error, message):
        # the coefficient vector is not called a column
        X, d = _score_draw(25, 200, 3)
        with pytest.raises(error, match=f"^{re.escape(message)}"):
            fit_logistic(X, d, start=start)

    def test_separation_is_detected_from_a_warm_start(self):
        x = np.linspace(-2.0, 2.0, 40)
        X, d = np.column_stack([np.ones(x.size), x]), (x > 0).astype(float)
        with pytest.raises(SeparationError):
            fit_logistic(X, d, start=([0.0, 5.0], np.eye(2)))

    def test_a_start_that_does_not_contract_ends_as_the_cold_fit(self, monkeypatch):
        # [DERIVED] oracle: the cold fit. Five times the optimum is too far
        # for the first chord step to halve max|score|, so Newton steps run
        # from zeros. On resamples of 30 rows the full-sample information is
        # far from each resample's, so the chord often breaks off, and the
        # fit then starts over as the cold fit, bit for bit (or ends in the
        # cold fit's error). A chord that contracts throughout stops by the
        # same rule as the cold fit, so the two optima differ by at most
        # what max|score| < 1e-8 allows: (X'WX)^-1 times the two scores
        X, d = _score_draw(26, 2_000, 4)
        cold = fit_logistic(X, d)
        far = fit_logistic(X, d, start=(5.0 * cold.coef, cold.start[1]))
        assert np.array_equal(far.coef, cold.coef)
        # the chord step from the start, and the round that discards it
        assert far.iterations == cold.iterations + 2

        X, d = _score_draw(27, 30, 4)
        full = fit_logistic(X, d)
        calls = count_svd_solves(monkeypatch)
        g = philox(28)
        fell_back = failed = 0
        for _ in range(40):
            idx = g.integers(0, d.size, size=d.size)
            Xb, db = X[idx], d[idx]
            try:
                cold = fit_logistic(Xb, db)
            except (SeparationError, ConvergenceError) as error:
                with pytest.raises(type(error)):
                    fit_logistic(Xb, db, start=full.start)
                failed += 1
                continue
            del calls[:]
            warm = fit_logistic(Xb, db, start=full.start)
            if calls:  # only a fit that starts over from zeros takes Newton steps
                fell_back += 1
                assert np.array_equal(warm.coef, cold.coef)
                continue
            scores = sum(np.abs(logistic_score(Xb, db, c)).max() for c in (warm.coef, cold.coef))
            w = cold.fitted * (1.0 - cold.fitted)
            inverse = np.linalg.inv(Xb.T @ (Xb * w[:, None]))
            allowed = 2.0 * np.abs(inverse).sum(axis=1).max() * scores
            assert np.abs(warm.coef - cold.coef).max() <= allowed
        assert fell_back > 0 and failed > 0 and fell_back + failed < 40

    def test_a_discarded_iterate_is_never_checked_for_separation(self):
        # [DERIVED] an inverse information 10^4 times too large sends the
        # first chord step to coefficients beyond 30 with pinned fitted
        # probabilities, which the separation check rejects. The step does
        # not halve max|score|, so the fit discards it and ends as the cold
        # fit, bit for bit
        X, d = _score_draw(29, 2_000, 4)
        cold = fit_logistic(X, d)
        coef, inverse = cold.coef + 0.01, 1e4 * cold.start[1]
        trial = coef + inverse @ logistic_score(X, d, coef)
        p = expit(X @ trial)
        assert np.abs(trial).max() > regress._SEP_COEF
        assert ((p < regress._SEP_PROB) | (p > 1.0 - regress._SEP_PROB)).any()
        with pytest.raises(SeparationError):
            _allocating_irls(X, d, start=trial)
        warm = fit_logistic(X, d, start=(coef, inverse))
        assert np.array_equal(warm.coef, cold.coef)
        assert np.array_equal(warm.fitted, cold.fitted)


class TestPredict:
    def test_logit_hand_value(self):
        # [TRIVIAL] expit(2 + 0.5*0) = expit(2) ~ 0.8808
        X, d = _logistic_draw(13, 500)
        fit = fit_logistic(X, d)
        fit.coef = np.array([2.0, 0.5])
        assert predict(fit, [[1.0, 0.0]])[0] == pytest.approx(expit(2.0))

    def test_single_row_vs_column_disambiguation(self):
        fit = fit_ols(np.ones((3, 1)), [2.0, 4.0, 6.0])
        # width-1 fit: a 1-d input is a column of rows
        np.testing.assert_allclose(predict(fit, [1.0, 1.0]), [4.0, 4.0])
        # for any width: a width-2 fit reads it as one column and rejects it
        wide = fit_ols(np.column_stack([np.ones(3), [0.0, 1.0, 2.0]]), [2.0, 4.0, 6.0])
        with pytest.raises(DimensionMismatchError):
            predict(wide, [1.0, 1.0])

    def test_width_mismatch(self):
        fit = fit_ols(np.ones((3, 1)), [2.0, 4.0, 6.0])
        with pytest.raises(DimensionMismatchError):
            predict(fit, np.ones((2, 3)))
