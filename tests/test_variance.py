"""Delta-method variances and the unit bootstrap."""

from __future__ import annotations

import re

import numpy as np
import pytest
from scipy.special import expit, ndtri

from causalest import (
    DgpSpec,
    OrSpec,
    ate_ipw,
    ate_matching,
    ate_or,
    ate_psr,
    ate_stratification,
    balance_diagnostic,
    bootstrap_variance,
    delta_variance,
    estimate_propensity_binary,
    fit_fe,
    fit_logistic,
    fit_ols,
    fit_outcome_model,
    generate,
    normal_interval,
    run_monte_carlo,
    trim_overlap,
    validate,
    validate_panel,
)
from causalest.errors import (
    CausalestError,
    InvalidInputError,
    MissingCoefCovarianceError,
    TooManyFailedReplicatesError,
    ZeroPropensityError,
)
from causalest.regress import IDENTITY, LinearFit

from .conftest import confounded_binary, philox, saturating_binary


def delta_variance_or(ds, m1: LinearFit, m0: LinearFit) -> float:
    """Oracle: large-sample variance of the arm-regression ATE.

    `m1` and `m0` are identity-link fits of the outcome on (1, x) within the
    treated and control arms. The estimator is the mean over all units of
    m1(x_i) - m0(x_i); its variance combines the spread of the centered
    contrast with a delta-method term for each arm's coefficient noise:

        Var = mean[(m1(x_i) - m0(x_i) - tau)^2] / n + g' V1 g + g' V0 g

    where g is the average design row (1, mean x) and V1, V0 the coefficient
    covariances.
    """
    for fit in (m1, m0):
        if fit.link != IDENTITY:
            raise ValueError("arm models must use the identity link")
        if fit.coef_cov is None:
            raise MissingCoefCovarianceError("arm model lacks a coefficient covariance")
    design = np.column_stack([np.ones(ds.n), ds.x])
    if design.shape[1] != m1.design_width or design.shape[1] != m0.design_width:
        raise ValueError("arm models were not fitted on a (1, x) design of this dataset")
    contrast = design @ m1.coef - design @ m0.coef
    centered = contrast - contrast.mean()
    g = design.mean(axis=0)
    return float(
        centered @ centered / ds.n**2 + g @ m1.coef_cov @ g + g @ m0.coef_cov @ g
    )


def _fit_with_cov(coef_cov):
    coef = np.zeros(np.asarray(coef_cov).shape[0]) if coef_cov is not None else np.zeros(2)
    return LinearFit(
        coef=coef,
        link=IDENTITY,
        residuals=np.zeros(3),
        coef_cov=None if coef_cov is None else np.asarray(coef_cov, dtype=float),
        design_width=coef.shape[0],
    )


class TestDeltaVariance:
    def test_hand_quadratic_form(self):
        # [DERIVED] hand evaluation: [1,2] V [1,2]' with V=[[2,.5],[.5,1]] is 8
        fit = _fit_with_cov([[2.0, 0.5], [0.5, 1.0]])
        assert delta_variance(fit, [1.0, 2.0]) == pytest.approx(8.0, abs=1e-12)

    def test_missing_covariance(self):
        with pytest.raises(MissingCoefCovarianceError):
            delta_variance(_fit_with_cov(None), [1.0, 2.0])

    def test_gradient_shape_checked(self):
        fit = _fit_with_cov([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="gradient"):
            delta_variance(fit, [1.0, 2.0, 3.0])


class TestNormalInterval:
    def test_hand_half_width(self):
        # [DERIVED] 95% normal quantile 1.959964... times sd 2
        lo, hi = normal_interval(1.0, 4.0)
        assert lo == pytest.approx(1.0 - 1.9599639845400545 * 2.0, abs=1e-9)
        assert hi == pytest.approx(1.0 + 1.9599639845400545 * 2.0, abs=1e-9)

    def test_level_validated(self):
        with pytest.raises(ValueError, match="level"):
            normal_interval(0.0, 1.0, level=1.0)

    @pytest.mark.parametrize("level", [0.95, 0.9, 0.5, np.float64(0.99), np.array(0.8)])
    def test_quantile_per_level_is_exact(self, level):
        # [DERIVED] the same bits as the quantile formed afresh, on first
        # and repeated calls, whatever the type of the level
        half = float(ndtri(0.5 + float(level) / 2.0)) * 3.0
        for _ in range(2):
            assert normal_interval(2.0, 9.0, level) == (2.0 - half, 2.0 + half)

    def test_variance_validated(self):
        with pytest.raises(ValueError, match="non-negative"):
            normal_interval(0.0, -1.0)


class TestDeltaFiniteDifferenceAgreement:
    @staticmethod
    def _fd_variance(ds, spec, response):
        """Gradient of coef -> mean predicted contrast of dose 1 against
        dose 0 by central differences, pushed through the coefficient
        covariance."""
        fit = fit_outcome_model(ds, spec)

        def design_at(dose):
            cols = [np.ones(ds.n), np.full(ds.n, dose), ds.x]
            if spec.interactions_with_d:
                cols.append(dose * ds.x)
            return np.column_stack(cols)

        treated, control = design_at(1.0), design_at(0.0)

        def f(coef):
            return float(response(treated @ coef).mean() - response(control @ coef).mean())

        h = 1e-6
        grad = np.empty(fit.coef.shape[0])
        for k in range(grad.size):
            up, dn = fit.coef.copy(), fit.coef.copy()
            up[k] += h
            dn[k] -= h
            grad[k] = (f(up) - f(dn)) / (2.0 * h)
        return float(grad @ fit.coef_cov @ grad)

    def test_identity_link(self):
        # [DERIVED] oracle: numerical gradient reproduces the delta variance
        ds = confounded_binary(100, 400)
        spec = OrSpec(interactions_with_d=True)
        est = ate_or(ds, spec=spec)
        fd = self._fd_variance(ds, spec, lambda eta: eta)
        assert est.variance == pytest.approx(fd, rel=1e-5)

    def test_logit_link(self):
        g = philox(101)
        n = 500
        x = g.normal(size=n)
        d = (g.uniform(size=n) < 0.5).astype(float)
        y = (g.uniform(size=n) < expit(0.2 + 0.7 * d + x)).astype(float)
        ds = validate(y, d, x, treatment_kind="binary")
        spec = OrSpec(link="logit")
        est = ate_or(ds, spec=spec)
        fd = self._fd_variance(ds, spec, expit)
        assert est.variance == pytest.approx(fd, rel=1e-5)


class TestDeltaVarianceOr:
    @staticmethod
    def _arm_fits(ds):
        design = np.column_stack([np.ones(ds.n), ds.x])
        treated = ds.d == 1.0
        m1 = fit_ols(design[treated], ds.y[treated])
        m0 = fit_ols(design[~treated], ds.y[~treated])
        return m1, m0

    def test_formula_oracle(self):
        # [DERIVED] oracle: the three-term sum recomputed from scratch
        ds = confounded_binary(102, 300)
        m1, m0 = self._arm_fits(ds)
        v = delta_variance_or(ds, m1, m0)
        design = np.column_stack([np.ones(ds.n), ds.x])
        contrast = design @ m1.coef - design @ m0.coef
        centered = contrast - contrast.mean()
        g = design.mean(axis=0)
        expected = (
            centered @ centered / ds.n**2
            + g @ m1.coef_cov @ g
            + g @ m0.coef_cov @ g
        )
        assert v == pytest.approx(expected, rel=1e-12)

    def test_noiseless_variance_vanishes(self):
        # [TRIVIAL] zero-noise limit: no residuals, identical arm surfaces
        g = philox(103)
        x = g.normal(size=200)
        d = (g.uniform(size=200) < 0.5).astype(float)
        y = 2.0 + 3.0 * x
        ds = validate(y, d, x)
        m1, m0 = self._arm_fits(ds)
        assert delta_variance_or(ds, m1, m0) == pytest.approx(0.0, abs=1e-15)

    def test_tracks_monte_carlo_variance(self):
        # [DERIVED] averaged delta variance within 25% of the empirical
        # spread of the matching arm-regression estimator
        points, variances = [], []
        for i in range(200):
            ds = confounded_binary(4000 + i, 1000)
            points.append(ate_or(ds, spec=OrSpec(interactions_with_d=True)).point)
            m1, m0 = self._arm_fits(ds)
            variances.append(delta_variance_or(ds, m1, m0))
        emp = np.var(points, ddof=1)
        avg_delta = np.mean(variances)
        assert abs(avg_delta - emp) <= 0.25 * max(avg_delta, emp)

    def test_link_and_width_validation(self):
        ds = confounded_binary(104, 60)
        m1, m0 = self._arm_fits(ds)
        bad = LinearFit(
            coef=m1.coef,
            link="logit",
            residuals=m1.residuals,
            coef_cov=m1.coef_cov,
            design_width=m1.design_width,
        )
        with pytest.raises(ValueError, match="identity"):
            delta_variance_or(ds, bad, m0)
        wide = fit_ols(
            np.column_stack([np.ones(ds.n), ds.x, ds.x**2]), ds.y
        )
        with pytest.raises(ValueError, match="design"):
            delta_variance_or(ds, wide, m0)
        no_cov = LinearFit(
            coef=m1.coef,
            link=IDENTITY,
            residuals=m1.residuals,
            coef_cov=None,
            design_width=m1.design_width,
        )
        with pytest.raises(MissingCoefCovarianceError):
            delta_variance_or(ds, no_cov, m0)


def _mean_estimator(ds):
    return float(ds.y.mean())


class TestBootstrap:
    def test_matches_closed_form_for_the_mean(self):
        # [DERIVED] closed-form oracle: Var(mean) = s^2 / n
        g = philox(105)
        y = g.normal(3.0, 2.0, 300)
        ds = validate(y, (g.uniform(size=300) < 0.5).astype(float))
        result = bootstrap_variance(ds, _mean_estimator, n_boot=2000, seed=7)
        target = y.var(ddof=1) / y.size
        assert abs(result.variance - target) <= 0.15 * target

    def test_constant_outcome(self):
        ds = validate(np.full(50, 4.0), (np.arange(50) % 2).astype(float))
        result = bootstrap_variance(ds, _mean_estimator, n_boot=50)
        assert result.variance == 0.0
        assert result.ci == (4.0, 4.0)

    def test_minimum_replicates(self):
        ds = validate([1.0, 2.0], [1.0, 0.0])
        with pytest.raises(ValueError, match="n_boot"):
            bootstrap_variance(ds, _mean_estimator, n_boot=1)

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5])
    def test_level_checked_before_any_replicate(self, level):
        calls = []

        def estimator(sample):
            calls.append(None)
            return float(sample.y.mean())

        ds = validate([1.0, 2.0, 4.0], [1.0, 0.0, 1.0])
        with pytest.raises(InvalidInputError, match=r"level must lie in \(0, 1\), got"):
            bootstrap_variance(ds, estimator, n_boot=20, level=level)
        assert calls == []

    @pytest.mark.parametrize("seed", [-3, 1.5])
    def test_seed_checked_before_any_replicate(self, seed):
        calls = []

        def estimator(sample):
            calls.append(None)
            return float(sample.y.mean())

        ds = validate([1.0, 2.0, 4.0], [1.0, 0.0, 1.0])
        with pytest.raises(InvalidInputError, match="seed must be >= 0 and an integer"):
            bootstrap_variance(ds, estimator, n_boot=20, seed=seed)
        assert calls == []

    def test_seed_determinism(self):
        ds = confounded_binary(106, 120)
        a = bootstrap_variance(ds, _mean_estimator, n_boot=80, seed=11)
        c = bootstrap_variance(ds, _mean_estimator, n_boot=80, seed=11)
        np.testing.assert_array_equal(a.points, c.points)
        assert a.variance == c.variance

    def test_scale_equivariance(self):
        # [DERIVED] y -> 3y multiplies the variance of any affine-equivariant
        # estimator by 9; the resample indices depend only on the seed
        g = philox(107)
        y = g.normal(size=100)
        d = (g.uniform(size=100) < 0.5).astype(float)
        base = bootstrap_variance(validate(y, d), _mean_estimator, n_boot=200, seed=3)
        scaled = bootstrap_variance(
            validate(3.0 * y, d), _mean_estimator, n_boot=200, seed=3
        )
        assert scaled.variance == pytest.approx(9.0 * base.variance, rel=1e-9)

    def test_percentile_interval_from_replicates(self):
        ds = confounded_binary(108, 90)
        result = bootstrap_variance(ds, _mean_estimator, n_boot=120, seed=5)
        lo, hi = np.quantile(result.points, [0.025, 0.975])
        assert result.ci == (pytest.approx(lo), pytest.approx(hi))

    def test_estimator_may_return_causal_estimate(self):
        ds = confounded_binary(109, 150)
        result = bootstrap_variance(ds, ate_or, n_boot=40, seed=2)
        assert result.n_ok == 40
        assert np.isfinite(result.points).all()

    def test_failed_replicates_dropped_and_counted(self):
        ds = confounded_binary(110, 80)
        calls = {"n": 0}

        def flaky(sample):
            calls["n"] += 1
            if calls["n"] % 20 == 0:
                raise CausalestError("synthetic failure")
            return float(sample.y.mean())

        result = bootstrap_variance(ds, flaky, n_boot=200, seed=9)
        assert result.n_failed == 10
        assert result.n_ok == 190
        assert int(np.isnan(result.points).sum()) == 10

    def test_too_many_failures_abort(self):
        ds = confounded_binary(111, 80)
        calls = {"n": 0}

        def very_flaky(sample):
            calls["n"] += 1
            if calls["n"] % 5 == 0:
                raise CausalestError("synthetic failure")
            return float(sample.y.mean())

        with pytest.raises(TooManyFailedReplicatesError):
            bootstrap_variance(ds, very_flaky, n_boot=200, seed=9)

    def test_saturated_score_replicates_are_counted(self):
        # [DERIVED] in 2 of 50 resamples the fitted scores round to exactly
        # 1, which fails the score fit; the bootstrap counts those
        # replicates as failed instead of aborting
        ds = validate(*saturating_binary(2))
        raised = []

        def ipw(sample):
            try:
                fit, kept = trim_overlap(estimate_propensity_binary(sample))
                return ate_ipw(sample.take(kept), fit)
            except CausalestError as exc:
                raised.append(exc)
                raise

        result = bootstrap_variance(ds, ipw, n_boot=50, seed=3)
        assert result.n_failed == len(raised) == 2
        assert result.n_ok == 48
        assert int(np.isnan(result.points).sum()) == 2
        for exc in raised:
            assert isinstance(exc, ZeroPropensityError)
            assert "rounds to exactly 0 or 1" in str(exc)

    def test_exactly_ten_percent_failed_is_tolerated(self):
        # the budget is "more than 10% aborts", the rule the error states
        ds = confounded_binary(111, 80)
        calls = {"n": 0}

        def tenth_fails(sample):
            calls["n"] += 1
            if calls["n"] % 10 == 0:
                raise CausalestError("synthetic failure")
            return float(sample.y.mean())

        result = bootstrap_variance(ds, tenth_fails, n_boot=200, seed=9)
        assert result.n_failed == 20
        assert result.n_ok == 180

    def test_non_finite_points_count_as_failed(self):
        # [DERIVED] an infinite replicate point is a failed replicate: counted
        # against the 10% budget and left out of the variance
        ds = confounded_binary(111, 80)

        def inf_every(k):
            calls = {"n": 0}

            def estimator(sample):
                calls["n"] += 1
                return np.inf if calls["n"] % k == 0 else float(sample.y.mean())

            return estimator

        result = bootstrap_variance(ds, inf_every(10), n_boot=200, seed=9)
        assert result.n_failed == 20
        assert result.n_ok == 180
        finite = result.points[np.isfinite(result.points)]
        assert result.variance == finite.var(ddof=1)
        with pytest.raises(
            TooManyFailedReplicatesError, match="bootstrap: estimator failed on 40/200 runs"
        ):
            bootstrap_variance(ds, inf_every(5), n_boot=200, seed=9)

    @pytest.mark.parametrize("panel", [False, True], ids=["rows", "units"])
    def test_points_equal_the_estimator_on_each_keyed_resample(self, panel):
        # [DERIVED] oracle: replicate b is the estimator on the resample drawn
        # from Philox(SeedSequence(seed, spawn_key=(b,))), bit for bit
        if panel:
            g = philox(113)
            data = validate_panel(
                np.repeat(np.arange(20), 3), np.tile(np.arange(3), 20),
                g.normal(size=60), g.normal(size=60),
            )
            estimator, n_draw, take = fit_fe, data.n_units, data.take_units
        else:
            data = confounded_binary(113, 150)
            estimator, n_draw, take = ate_or, data.n, data.take
        result = bootstrap_variance(data, estimator, n_boot=12, seed=21)
        expected = np.array([
            estimator(take(
                np.random.Generator(
                    np.random.Philox(np.random.SeedSequence(21, spawn_key=(b,)))
                ).integers(0, n_draw, size=n_draw)
            )).point
            for b in range(12)
        ])
        assert np.array_equal(result.points.view(np.int64), expected.view(np.int64))

    def test_panel_bootstrap_resamples_units(self):
        g = philox(112)
        n_units, t = 30, 3
        unit = np.repeat(np.arange(n_units), t)
        time = np.tile(np.arange(t), n_units)
        alpha = np.repeat(g.normal(0.0, 2.0, n_units), t)
        d = g.normal(size=n_units * t)
        y = 0.5 * d + alpha + g.normal(size=n_units * t)
        pds = validate_panel(unit, time, y, d)
        result = bootstrap_variance(pds, fit_fe, n_boot=100, seed=13)
        assert result.n_ok == 100
        assert result.variance > 0.0
        again = bootstrap_variance(pds, fit_fe, n_boot=100, seed=13)
        np.testing.assert_array_equal(result.points, again.points)


def _scored():
    """A binary dataset and its fitted score."""
    ds = confounded_binary(45, 200)
    return ds, estimate_propensity_binary(ds)


class TestIntegerArguments:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: run_monte_carlo("cs1", runs=3.5, n=100), "runs must be >= 2 and an integer, got 3.5"),
            (lambda: generate(DgpSpec("cs1", n=100.5), 0), "n must be >= 10 and an integer, got 100.5"),
            (
                lambda: bootstrap_variance(
                    validate([1.0, 2.0, 4.0], [1.0, 0.0, 1.0]), _mean_estimator, n_boot=5.5
                ),
                "n_boot must be >= 2 and an integer, got 5.5",
            ),
            (
                lambda: ate_stratification(*_scored(), n_strata=2.5),
                "n_strata must be >= 1 and an integer, got 2.5",
            ),
            (
                lambda: ate_matching(*_scored(), n_matches=1.5),
                "n_matches must be >= 1 and an integer, got 1.5",
            ),
            (
                lambda: ate_psr(*_scored(), poly_degree=1.5),
                "poly_degree must be >= 1 and an integer, got 1.5",
            ),
            (
                lambda: balance_diagnostic(*_scored(), n_strata=2.5),
                "n_strata must be >= 2 and an integer, got 2.5",
            ),
            (
                lambda: fit_logistic(
                    np.column_stack([np.ones(4), [0.0, 1.0, 2.0, 3.0]]), [0.0, 1.0, 0.0, 1.0],
                    max_iter=2.5,
                ),
                "max_iter must be >= 1 and an integer, got 2.5",
            ),
        ],
        ids=["runs", "n", "n_boot", "n_strata", "n_matches", "poly_degree",
             "balance_n_strata", "max_iter"],
    )
    def test_float_count_is_an_input_error(self, call, message):
        # a float count used to reach NumPy or range and escape as a bare TypeError
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            call()


class TestBootstrapDeltaAgreement:
    def test_twenty_linear_dgps(self):
        # [DERIVED] cross-method consistency: bootstrap and delta variances
        # of the outcome-regression ATE within 25% of each other
        for i in range(20):
            g = philox(5000 + i)
            n = 400
            x = g.normal(size=n)
            d = (g.uniform(size=n) < 0.5).astype(float)
            y = 1.0 + 2.0 * d + x + g.normal(size=n)
            ds = validate(y, d, x)
            delta = ate_or(ds).variance
            boot = bootstrap_variance(ds, ate_or, n_boot=500, seed=i).variance
            assert abs(boot - delta) <= 0.25 * max(boot, delta)
