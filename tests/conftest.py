"""Shared test helpers.

Every randomized test draws from an explicitly seeded counter-based
generator so failures reproduce exactly.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from scipy.special import expit

from causalest import regress, simulate, validate


def philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def count_svd_solves(monkeypatch) -> list:
    """Count the SVD factorizations of least-squares solves made from here
    on (regress._svd_factor, which every solve calls): returns the list
    that each call appends to."""
    calls = []
    factor = regress._svd_factor

    def counted(*args, **kwargs):
        calls.append(1)
        return factor(*args, **kwargs)

    monkeypatch.setattr(regress, "_svd_factor", counted)
    return calls


def newton_start_inverse(X, d, tol=1e-8) -> np.ndarray:
    """Oracle: textbook Newton-Raphson for the logistic likelihood from
    zeros, by normal equations, to max|score| < tol; returns the inverse
    information (X'WX)^-1 at the iterate its last step was taken from."""
    coef, inverse = np.zeros(X.shape[1]), None
    for _ in range(100):
        p = expit(X @ coef)
        score = X.T @ (d - p)
        if np.abs(score).max() < tol:
            return inverse
        inverse = np.linalg.inv(X.T @ (X * (p * (1.0 - p))[:, None]))
        coef = coef + inverse @ score
    raise AssertionError("the Newton oracle did not converge")


def run_methods(case, methods, runs, n, seed):
    """(points, n_failed) of `methods` alone over a case's runs: the loop
    and the draws `run_monte_carlo` runs, with a subset of its methods."""
    return simulate._replicate(
        lambda r: simulate._case_inputs(case, n, r, seed),
        [(m, simulate._CASES[case][1][m]) for m in methods],
        runs,
        f"{case} runs",
    )


#: full-length float64 copies of each input column an estimator may hold at
#: its peak: the row copies, the design columns built from them, an SVD
#: factor, fitted values and residuals. A search quadratic in n, or a Python
#: object per row, needs far more than this at n = 10^5.
COPIES_PER_COLUMN = 10


def traced_peak(call):
    """(result, peak bytes that `tracemalloc` saw) of `call()`."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng() -> np.random.Generator:
    return philox(20240817)


def confounded_binary(seed: int, n: int, tau: float = -5.0):
    """A strongly confounded binary-treatment draw used across test modules:
    x shifts both the assignment odds and the outcome level."""
    g = philox(seed)
    x = g.normal(0.0, np.sqrt(10.0), n)
    p = expit(2.0 + 0.5 * x)
    d = (g.uniform(size=n) < p).astype(float)
    y = 10.0 + tau * d + 0.5 * x + g.normal(0.0, np.sqrt(5.0), n)
    return validate(y, d, x)


def saturating_binary(seed: int, n: int = 500):
    """Columns (y, d, x) with x ~ N(0, 20^2) and P(D=1 | x) = expit(0.5 x).

    The fitted scores of units far out in x round to exactly 0 or 1, so
    some resamples of such a draw give a score model PropensityFit rejects.
    """
    g = philox(seed)
    x = g.normal(0.0, 20.0, n)
    d = (g.uniform(size=n) < expit(0.5 * x)).astype(float)
    y = 1.0 + 2.0 * d + x + g.normal(size=n)
    return y, d, x


def randomized_binary(seed: int, n: int, tau: float = 2.0):
    """A randomized draw (assignment independent of x) where outcome
    regression, weighting and the augmented estimator must all agree."""
    g = philox(seed)
    x = g.normal(0.0, 1.0, n)
    d = (g.uniform(size=n) < 0.5).astype(float)
    y = 1.0 + tau * d + 0.8 * x + g.normal(0.0, 1.0, n)
    return validate(y, d, x)
