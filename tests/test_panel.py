"""Longitudinal estimators: pooled OLS, random effects, fixed effects,
first differences, and correlated random effects."""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from causalest import (
    fit_cre,
    fit_fd,
    fit_fe,
    fit_pols,
    fit_re,
    validate_panel,
)
from causalest.errors import NoWithinVariationError, TooFewPeriodsError

from .conftest import philox


def _hand_panel():
    """Two units whose levels confound the pooled slope: within-unit the
    effect is exactly 1, pooled it is 21/5."""
    unit = np.array([1, 1, 2, 2])
    time = np.array([0, 1, 0, 1])
    d = np.array([0.0, 1.0, 2.0, 3.0])
    y = np.array([0.0, 1.0, 10.0, 11.0])
    return validate_panel(unit, time, y, d)


def _random_panel(seed, n_units=50, t=4, unit_sd=1.5, slope=0.5):
    g = philox(seed)
    n = n_units * t
    unit = np.repeat(np.arange(n_units), t)
    time = np.tile(np.arange(t), n_units)
    alpha = np.repeat(g.normal(0.0, unit_sd, n_units), t)
    d = g.normal(size=n)
    y = 1.0 + slope * d + alpha + g.normal(size=n)
    return validate_panel(unit, time, y, d)


def _covariate_columns(seed, n_cov=2):
    """Raw columns of an unbalanced panel of 40 units with `n_cov` (at most
    three) covariates; the unit effect correlates with d and x, and periods
    have gaps."""
    g = philox(seed)
    counts = np.tile([2, 3, 4, 2, 5, 3, 4, 2, 6, 3], 4)
    unit = np.repeat(np.arange(counts.size), counts)
    time = np.concatenate([np.sort(g.choice(8, c, replace=False)) for c in counts])
    alpha = np.repeat(g.normal(0.0, 2.0, counts.size), counts)
    x = g.normal(size=(unit.size, n_cov)) + 0.4 * alpha[:, None]
    d = 0.5 * alpha + x @ np.array([0.3, -0.2, 0.1])[:n_cov] + g.normal(size=unit.size)
    y = 1.0 + 0.5 * d + x @ np.array([1.0, -0.5, 0.25])[:n_cov] + alpha + g.normal(size=unit.size)
    return unit, time, y, d, x


def _lstsq_fit(design, y):
    """Coefficients and the iid OLS covariance diagonal, from lstsq."""
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ beta
    sigma2 = resid @ resid / (design.shape[0] - design.shape[1])
    return beta, sigma2 * np.diag(np.linalg.inv(design.T @ design)), resid


def _unit_differences(pds):
    """Consecutive-period differences of [y, d, x], taken within each unit."""
    block = np.column_stack([pds.y, pds.d, pds.x])
    return np.concatenate([np.diff(block[pds.unit_codes == u], axis=0) for u in range(pds.n_units)])


def test_each_estimator_takes_only_the_panel():
    # every estimator uses all of x; the design is not configurable
    for fit in (fit_pols, fit_re, fit_fe, fit_fd, fit_cre):
        assert list(inspect.signature(fit).parameters) == ["pds"], fit.__name__


class TestHandExamples:
    def test_fe_removes_unit_confounding(self):
        # [DERIVED] hand within-transform: both units have slope exactly 1
        assert fit_fe(_hand_panel()).point == pytest.approx(1.0, abs=1e-12)

    def test_pols_absorbs_the_confounding(self):
        # [DERIVED] hand pooled arithmetic: 21/5 = 4.2
        assert fit_pols(_hand_panel()).point == pytest.approx(4.2, abs=1e-12)

    def test_fd_constant_differences(self):
        # [DERIVED] hand difference: delta-d=(1,1), delta-y=(1,1); a constant
        # regressor clashes with the intercept
        with pytest.raises(NoWithinVariationError, match="beyond the intercept"):
            fit_fd(_hand_panel())


class TestFixedEffects:
    def test_equals_unit_dummy_regression(self):
        # [DERIVED] oracle: within estimator equals OLS with explicit unit
        # dummies, point and variance alike
        pds = _random_panel(50, n_units=8, t=3)
        est = fit_fe(pds)
        dummies = np.equal.outer(pds.unit_codes, np.arange(pds.n_units)).astype(float)
        design = np.column_stack([dummies, pds.d])
        beta, *_ = np.linalg.lstsq(design, pds.y, rcond=None)
        resid = pds.y - design @ beta
        sigma2 = resid @ resid / (pds.n - design.shape[1])
        var = sigma2 * np.linalg.inv(design.T @ design)[-1, -1]
        assert est.point == pytest.approx(beta[-1], abs=1e-10)
        assert est.variance == pytest.approx(var, rel=1e-8)

    def test_unit_constant_shift_invariance(self):
        pds = _random_panel(51)
        shifts = philox(52).normal(0.0, 50.0, pds.n_units)
        shifted = validate_panel(
            pds.unit, pds.time, pds.y + shifts[pds.unit_codes], pds.d, pds.x
        )
        assert fit_fe(shifted).point == pytest.approx(fit_fe(pds).point, abs=1e-9)
        assert fit_fd(shifted).point == pytest.approx(fit_fd(pds).point, abs=1e-9)

    def test_no_within_variation(self):
        unit = np.repeat([0, 1], 2)
        d = np.array([1.0, 1.0, 3.0, 3.0])  # constant inside each unit
        pds = validate_panel(unit, np.tile([0, 1], 2), np.arange(4.0), d)
        for fit in (fit_fe, fit_re, fit_fd, fit_cre):
            with pytest.raises(NoWithinVariationError):
                fit(pds)

    def test_single_period_unit_rejected(self):
        pds = validate_panel([0, 0, 1], [0, 1, 0], [1.0, 2.0, 3.0], [0.0, 1.0, 0.5])
        for fn in (fit_fe, fit_fd, fit_cre, fit_re):
            with pytest.raises(TooFewPeriodsError):
                fn(pds)

    def test_saturated_within_fit_rejected(self):
        # one unit, two periods: demeaning leaves no residual dof
        pds = validate_panel([0, 0], [0, 1], [1.0, 2.0], [0.0, 1.0])
        for fn in (fit_fe, fit_re):
            with pytest.raises(TooFewPeriodsError, match="degrees of freedom"):
                fn(pds)

    def test_unbalanced_panels_supported(self):
        g = philox(53)
        counts = [2, 3, 4, 2, 5, 3, 4, 2]
        unit = np.repeat(np.arange(len(counts)), counts)
        time = np.concatenate([np.arange(c) for c in counts])
        n = unit.size
        alpha = np.repeat(g.normal(0, 2, len(counts)), counts)
        d = g.normal(size=n)
        y = 0.5 * d + alpha + g.normal(size=n)
        pds = validate_panel(unit, time, y, d)
        est = fit_fe(pds)
        dummies = np.equal.outer(pds.unit_codes, np.arange(pds.n_units)).astype(float)
        beta, *_ = np.linalg.lstsq(np.column_stack([dummies, pds.d]), pds.y, rcond=None)
        assert est.point == pytest.approx(beta[-1], abs=1e-10)


@pytest.mark.parametrize("n_cov", [0, 2, 3])
class TestCovariateOracles:
    """Each estimator with no, two or three covariates on an unbalanced
    panel, against an lstsq fit of the textbook design."""

    def test_pols_equals_pooled_regression(self, n_cov):
        pds = validate_panel(*_covariate_columns(69, n_cov))
        beta, var, _ = _lstsq_fit(np.column_stack([np.ones(pds.n), pds.d, pds.x]), pds.y)
        est = fit_pols(pds)
        assert est.point == pytest.approx(beta[1], abs=1e-10)
        assert est.variance == pytest.approx(var[1], rel=1e-8)
        assert est.n_used == pds.n

    def test_fe_equals_unit_dummy_regression(self, n_cov):
        pds = validate_panel(*_covariate_columns(70, n_cov))
        dummies = np.equal.outer(pds.unit_codes, np.arange(pds.n_units)).astype(float)
        beta, var, _ = _lstsq_fit(np.column_stack([dummies, pds.d, pds.x]), pds.y)
        est = fit_fe(pds)
        assert est.point == pytest.approx(beta[pds.n_units], abs=1e-10)
        assert est.variance == pytest.approx(var[pds.n_units], rel=1e-8)
        assert est.diagnostics["dof"] == pds.n - pds.n_units - 1 - n_cov

    def test_fd_equals_differenced_regression(self, n_cov):
        pds = validate_panel(*_covariate_columns(71, n_cov))
        diffs = _unit_differences(pds)
        design = np.column_stack([np.ones(diffs.shape[0]), diffs[:, 1:]])
        beta, var, _ = _lstsq_fit(design, diffs[:, 0])
        est = fit_fd(pds)
        assert est.point == pytest.approx(beta[1], abs=1e-10)
        assert est.variance == pytest.approx(var[1], rel=1e-8)
        assert est.n_used == pds.n - pds.n_units

    def test_cre_equals_mundlak_regression(self, n_cov):
        pds = validate_panel(*_covariate_columns(72, n_cov))
        dbar = np.array([pds.d[pds.unit_codes == u].mean() for u in range(pds.n_units)])
        design = np.column_stack([np.ones(pds.n), pds.d, pds.x, dbar[pds.unit_codes]])
        beta, var, _ = _lstsq_fit(design, pds.y)
        est = fit_cre(pds)
        assert est.point == pytest.approx(beta[1], abs=1e-10)
        assert est.variance == pytest.approx(var[1], rel=1e-8)


class TestFirstDifferences:
    def test_equals_fe_with_two_periods(self):
        # [DERIVED] algebraic identity at T=2 on a balanced panel: the
        # intercept of the differenced regression absorbs the period effect,
        # so FD equals the two-way within estimate, which is FE on y and d
        # with each period's cross-unit mean removed
        pds = _random_panel(54, n_units=40, t=2)
        per_period = np.bincount(pds.time)

        def period_demeaned(v):
            return v - (np.bincount(pds.time, weights=v) / per_period)[pds.time]

        two_way = validate_panel(pds.unit, pds.time, period_demeaned(pds.y), period_demeaned(pds.d))
        assert fit_fd(pds).point == pytest.approx(fit_fe(two_way).point, abs=1e-10)

    def test_differences_skip_unit_boundaries(self):
        # consecutive rows of different units must not be differenced: the
        # unit levels are far apart, so a difference across a boundary
        # would move the slope
        unit = np.repeat([0, 1, 2], 3)
        time = np.tile([0, 1, 2], 3)
        d = np.array([0.0, 1.0, 3.0, 50.0, 50.5, 52.5, -20.0, -17.0, -16.0])
        noise = np.array([0.0, 0.3, -0.1, 0.2, 0.0, 0.4, -0.3, 0.1, 0.0])
        y = 2.0 * d + np.repeat([0.0, 300.0, -150.0], 3) + noise
        pds = validate_panel(unit, time, y, d)
        diffs = _unit_differences(pds)
        beta, var, _ = _lstsq_fit(np.column_stack([np.ones(6), diffs[:, 1]]), diffs[:, 0])
        est = fit_fd(pds)
        assert est.point == pytest.approx(beta[1], abs=1e-10)
        assert est.variance == pytest.approx(var[1], rel=1e-8)
        assert est.n_used == 6


class TestCorrelatedRandomEffects:
    def test_equals_fe_on_balanced_panels(self):
        # [DERIVED] adding the unit-mean regressor reproduces the within
        # estimate exactly on balanced panels
        for seed in (55, 56, 57):
            pds = _random_panel(seed, n_units=30, t=5)
            assert fit_cre(pds).point == pytest.approx(fit_fe(pds).point, abs=1e-6)

    def test_matches_explicit_mundlak_regression(self):
        pds = _random_panel(58)
        dbar = pds.broadcast_units(pds.unit_means(pds.d))
        design = np.column_stack([np.ones(pds.n), pds.d, dbar])
        beta, *_ = np.linalg.lstsq(design, pds.y, rcond=None)
        assert fit_cre(pds).point == pytest.approx(beta[1], abs=1e-10)


class TestRandomEffects:
    def test_swamy_arora_oracle(self):
        # [DERIVED] oracle: quasi-demeaned OLS with variance components
        # recomputed from scratch (within/between residual variances)
        pds = _random_panel(59, n_units=60, t=4)
        est = fit_re(pds)
        T, N, n = 4, pds.n_units, pds.n
        dbar_u = pds.unit_means(pds.d)
        ybar_u = pds.unit_means(pds.y)
        dw = pds.d - pds.broadcast_units(dbar_u)
        yw = pds.y - pds.broadcast_units(ybar_u)
        slope_w = (dw @ yw) / (dw @ dw)
        rss_w = np.sum((yw - slope_w * dw) ** 2)
        s2e = rss_w / (n - N - 1)
        bx = np.column_stack([np.ones(N), dbar_u])
        bb, *_ = np.linalg.lstsq(bx, ybar_u, rcond=None)
        s2b = np.sum((ybar_u - bx @ bb) ** 2) / (N - 2)
        s2u = s2b - s2e / T
        theta = 1.0 - np.sqrt(s2e / (T * s2u + s2e))
        ystar = pds.y - theta * pds.broadcast_units(ybar_u)
        dstar = pds.d - theta * pds.broadcast_units(dbar_u)
        gx = np.column_stack([np.full(n, 1.0 - theta), dstar])
        gb, *_ = np.linalg.lstsq(gx, ystar, rcond=None)
        assert est.point == pytest.approx(gb[1], abs=1e-10)
        assert est.diagnostics["sigma2_e"] == pytest.approx(s2e, rel=1e-10)
        assert est.diagnostics["sigma2_u"] == pytest.approx(s2u, rel=1e-10)
        assert 0.0 < est.diagnostics["theta_min"] <= est.diagnostics["theta_max"] < 1.0

    @pytest.mark.parametrize("n_cov", [0, 2, 3])
    def test_unbalanced_oracle_with_covariates(self, n_cov):
        # [DERIVED] per-unit theta_i from T_i, and the harmonic-mean T in the
        # unit-effect variance, recomputed with lstsq from the raw columns
        pds = validate_panel(*_covariate_columns(73, n_cov))
        codes, N, n = pds.unit_codes, pds.n_units, pds.n
        t_i = np.bincount(codes).astype(float)
        block = np.column_stack([pds.y, pds.d, pds.x])
        means = np.array([block[codes == u].mean(axis=0) for u in range(N)])
        within = block - means[codes]
        _, _, resid_w = _lstsq_fit(within[:, 1:], within[:, 0])
        s2e = resid_w @ resid_w / (n - N - 1 - n_cov)
        _, _, resid_b = _lstsq_fit(np.column_stack([np.ones(N), means[:, 1:]]), means[:, 0])
        s2u = resid_b @ resid_b / (N - 2 - n_cov) - s2e / (N / np.sum(1.0 / t_i))
        theta = 1.0 - np.sqrt(s2e / (t_i * s2u + s2e))
        quasi = block - theta[codes, None] * means[codes]
        design = np.column_stack([1.0 - theta[codes], quasi[:, 1:]])
        beta, var, _ = _lstsq_fit(design, quasi[:, 0])
        est = fit_re(pds)
        assert "re_fallback" not in est.diagnostics
        assert est.point == pytest.approx(beta[1], abs=1e-10)
        assert est.variance == pytest.approx(var[1], rel=1e-8)
        assert est.diagnostics["sigma2_e"] == pytest.approx(s2e, rel=1e-10)
        assert est.diagnostics["sigma2_u"] == pytest.approx(s2u, rel=1e-10)
        assert est.diagnostics["theta_min"] == pytest.approx(theta.min(), rel=1e-12)
        assert est.diagnostics["theta_max"] == pytest.approx(theta.max(), rel=1e-12)
        assert theta.min() < theta.max()  # the panel is unbalanced

    def test_recovers_exogenous_slope(self):
        pds = _random_panel(60, n_units=300, t=5, unit_sd=2.0)
        assert fit_re(pds).point == pytest.approx(0.5, abs=0.05)

    def test_fallback_when_unit_variance_nonpositive(self):
        # all unit means of y equal -> between residuals vanish -> fall back
        unit = np.repeat(np.arange(4), 2)
        time = np.tile([0, 1], 4)
        d = np.array([0.0, 1.0, 0.0, 2.0, 0.0, 3.0, 1.0, 3.0])
        y = np.array([-1.0, 1.0, -1.0, 1.0, -2.0, 2.0, -2.0, 2.0])
        pds = validate_panel(unit, time, y, d)
        est = fit_re(pds)
        assert est.diagnostics["re_fallback"] == "nonpositive-unit-variance"
        assert est.point == pytest.approx(fit_pols(pds).point, abs=1e-12)
        assert est.method == "re"

    def test_fallback_when_too_few_units(self):
        est = fit_re(_hand_panel())
        assert est.diagnostics["re_fallback"] == "too-few-units-for-between-step"
        assert est.point == pytest.approx(4.2, abs=1e-12)

    def test_interpolates_between_pols_and_fe(self):
        # strong unit effects push theta toward 1 and RE toward FE
        pds = _random_panel(61, n_units=200, t=6, unit_sd=8.0)
        re = fit_re(pds).point
        fe = fit_fe(pds).point
        pols = fit_pols(pds).point
        assert abs(re - fe) < abs(pols - fe) + 0.05
        assert fit_re(pds).diagnostics["theta_min"] > 0.5


def _bits(value):
    return np.float64(value).view(np.int64)


@pytest.mark.parametrize(
    "fit", [fit_pols, fit_re, fit_fe, fit_fd, fit_cre], ids=["pols", "re", "fe", "fd", "cre"]
)
class TestInvarianceSweep:
    """Each estimator on an unbalanced panel with two covariates."""

    def test_row_order_leaves_the_bits_unchanged(self, fit):
        columns = _covariate_columns(80)
        reference = fit(validate_panel(*columns))
        for seed in (81, 82, 83):
            perm = philox(seed).permutation(columns[0].size)
            est = fit(validate_panel(*(c[perm] for c in columns)))
            assert _bits(est.point) == _bits(reference.point)
            assert _bits(est.variance) == _bits(reference.variance)

    def test_order_preserving_unit_relabelling(self, fit):
        unit, time, y, d, x = _covariate_columns(84)
        reference = fit(validate_panel(unit, time, y, d, x))
        for relabelled in (1000 + 7 * unit, np.char.add("unit-", np.char.zfill(unit.astype(str), 3))):
            est = fit(validate_panel(relabelled, time, y, d, x))
            assert est.point == reference.point
            assert est.variance == reference.variance

    @pytest.mark.parametrize("a, b", [(3.0, 7.0), (-0.25, -40.0)])
    def test_affine_outcome_scales_point_and_variance(self, fit, a, b):
        unit, time, y, d, x = _covariate_columns(85)
        reference = fit(validate_panel(unit, time, y, d, x))
        est = fit(validate_panel(unit, time, a * y + b, d, x))
        assert est.point == pytest.approx(a * reference.point, rel=1e-9, abs=1e-12)
        assert est.variance == pytest.approx(a * a * reference.variance, rel=1e-8)
        assert est.diagnostics.keys() == reference.diagnostics.keys()
