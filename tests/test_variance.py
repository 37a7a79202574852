"""Delta-method variances and the unit bootstrap."""

from __future__ import annotations

import dataclasses
import inspect
import pickle
import re
import warnings

import numpy as np
import pytest
from scipy.special import ndtri

from causalest import (
    PropensityFit,
    ate_did,
    ate_dr,
    ate_ipw,
    ate_or,
    bootstrap_variance,
    difference_in_means,
    estimate_propensity_binary,
    fit_fe,
    fit_ols,
    fit_outcome_model,
    generate,
    normal_interval,
    run_monte_carlo,
    simulate,
    trim_overlap,
    validate,
    validate_panel,
)
from causalest.errors import (
    CausalestError,
    InvalidInputError,
    RankDeficientError,
    SeparationError,
    TooManyFailedReplicatesError,
    ZeroPropensityError,
)
from causalest import core, regress
from causalest.core import ObservationalDataset, PanelDataset
from causalest.regress import IDENTITY, LinearFit

from .conftest import (
    confounded_binary,
    count_svd_solves,
    philox,
    run_methods,
    saturating_binary,
)


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
            raise ValueError("arm model lacks a coefficient covariance")
    design = np.column_stack([np.ones(ds.n), ds.x])
    if design.shape[1] != m1.coef.shape[0] or design.shape[1] != m0.coef.shape[0]:
        raise ValueError("arm models were not fitted on a (1, x) design of this dataset")
    contrast = design @ m1.coef - design @ m0.coef
    centered = contrast - contrast.mean()
    g = design.mean(axis=0)
    return float(
        centered @ centered / ds.n**2 + g @ m1.coef_cov @ g + g @ m0.coef_cov @ g
    )


class TestDeltaVariance:
    def test_hand_quadratic_form(self):
        # [DERIVED] hand evaluation: y = (0, 2, 1, 3) on (1, d) with
        # d = (0, 0, 1, 1) has residuals (-1, 1, -1, 1), so sigma^2 = 4 / 2;
        # (X'X)^-1 at d is 1/2 + 1/2, and the contrast's gradient is the unit
        # vector at d, so the delta variance is 2 * 1 = 2
        est = ate_or(validate([0.0, 2.0, 1.0, 3.0], [0.0, 0.0, 1.0, 1.0]))
        assert est.point == pytest.approx(1.0, abs=1e-12)
        assert est.variance == pytest.approx(2.0, abs=1e-12)


class TestNormalInterval:
    def test_hand_half_width(self):
        # [DERIVED] 95% normal quantile 1.959964... times sd 2
        lo, hi = normal_interval(1.0, 4.0)
        assert lo == pytest.approx(1.0 - 1.9599639845400545 * 2.0, abs=1e-9)
        assert hi == pytest.approx(1.0 + 1.9599639845400545 * 2.0, abs=1e-9)

    def test_quantile_is_exact(self):
        # [DERIVED] the same bits as the 97.5% quantile formed afresh, on
        # first and repeated calls
        half = float(ndtri(0.975)) * 3.0
        for _ in range(2):
            assert normal_interval(2.0, 9.0) == (2.0 - half, 2.0 + half)

    def test_variance_validated(self):
        with pytest.raises(ValueError, match="non-negative"):
            normal_interval(0.0, -1.0)


class TestDeltaFiniteDifferenceAgreement:
    def test_identity_link(self):
        # [DERIVED] oracle: the numerical gradient of coef -> mean predicted
        # contrast of d = 1 against d = 0, by central differences, gives the
        # delta variance that ate_or reports
        ds = confounded_binary(100, 400)
        fit = fit_ols(np.column_stack([np.ones(ds.n), ds.d, ds.x]), ds.y)
        ones, zeros = np.ones(ds.n), np.zeros(ds.n)
        treated = np.column_stack([ones, ones, ds.x])
        control = np.column_stack([ones, zeros, ds.x])

        def f(coef):
            return float((treated @ coef).mean() - (control @ coef).mean())

        h = 1e-6
        grad = np.empty(fit.coef.shape[0])
        for k in range(grad.size):
            up, dn = fit.coef.copy(), fit.coef.copy()
            up[k] += h
            dn[k] -= h
            grad[k] = (f(up) - f(dn)) / (2.0 * h)
        fd = float(grad @ fit.coef_cov @ grad)
        assert ate_or(ds).variance == pytest.approx(fd, rel=1e-5)


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
            m1, m0 = self._arm_fits(ds)
            design = np.column_stack([np.ones(ds.n), ds.x])
            points.append((design @ m1.coef - design @ m0.coef).mean())
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
        )
        with pytest.raises(ValueError, match="covariance"):
            delta_variance_or(ds, no_cov, m0)


def _mean_estimator(ds):
    return float(ds.y.mean())


def _fails_first(k, call):
    """`call`, except that its first `k` calls raise a CausalestError."""
    calls = {"n": 0}

    def failing(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] <= k:
            raise CausalestError("synthetic failure")
        return call(*args, **kwargs)

    return failing


class TestOneFailureShare:
    """The Monte Carlo harness and the bootstrap abort at one share, the
    rule their error states: "more than 5% aborts". 5% of 40 is 2, so 2
    failures are tolerated in either loop and a third aborts.
    """

    @staticmethod
    def _n_failed(monkeypatch, loop, k):
        """Failures counted by the harness (RDD1 over 40 cs6 runs) or by the
        bootstrap (40 replicates of a mean) when the first `k` fits fail."""
        if loop == "harness":
            monkeypatch.setattr(simulate, "rdd_sharp", _fails_first(k, simulate.rdd_sharp))
            return int(run_methods("cs6", ["RDD1"], runs=40, n=200, seed=10)[1][0])
        ds = confounded_binary(111, 80)
        return bootstrap_variance(ds, _fails_first(k, _mean_estimator), n_boot=40, seed=9).n_failed

    @pytest.mark.parametrize("loop", ["harness", "bootstrap"])
    def test_five_percent_failed_is_tolerated(self, monkeypatch, loop):
        assert self._n_failed(monkeypatch, loop, 2) == 2

    @pytest.mark.parametrize(
        "loop, message",
        [
            ("harness", "RDD1 failed on 3/40 cs6 runs"),
            ("bootstrap", "estimator failed on 3/40 bootstrap replicates"),
        ],
        ids=["harness", "bootstrap"],
    )
    def test_one_more_failure_aborts(self, monkeypatch, loop, message):
        # each loop's message counts its own replicates
        with pytest.raises(TooManyFailedReplicatesError, match=rf"^{message} \(tolerance 5%\)$"):
            self._n_failed(monkeypatch, loop, 3)


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

    @pytest.mark.parametrize("data, kind", [([1.0, 2.0, 3.0], "list")], ids=["list"])
    def test_unsupported_data_is_an_input_error(self, data, kind):
        # [TRIVIAL] only a dataset the bootstrap can resample is accepted;
        # anything else is bad input, not an AttributeError from inside
        with pytest.raises(InvalidInputError) as info:
            bootstrap_variance(data, ate_did, n_boot=5)
        message = str(info.value)
        for name in ("ObservationalDataset", "PanelDataset", kind):
            assert name in message

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

    def test_takes_only_what_a_caller_sets(self):
        # every interval is the 95% one
        assert list(inspect.signature(bootstrap_variance).parameters) == [
            "data", "estimator", "n_boot", "seed"
        ]

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

    def test_non_finite_points_count_as_failed(self):
        # [DERIVED] an infinite replicate point is a failed replicate: counted
        # against the 5% budget and left out of the variance
        ds = confounded_binary(111, 80)

        def inf_every(k):
            calls = {"n": 0}

            def estimator(sample):
                calls["n"] += 1
                return np.inf if calls["n"] % k == 0 else float(sample.y.mean())

            return estimator

        result = bootstrap_variance(ds, inf_every(20), n_boot=200, seed=9)
        assert result.n_failed == 10
        assert result.n_ok == 190
        finite = result.points[np.isfinite(result.points)]
        assert result.variance == finite.var(ddof=1)
        with pytest.raises(
            TooManyFailedReplicatesError, match="estimator failed on 11/200 bootstrap replicates"
        ):
            bootstrap_variance(ds, inf_every(18), n_boot=200, seed=9)

    @pytest.mark.parametrize("panel", [False, True], ids=["rows", "units"])
    def test_points_equal_the_estimator_on_each_keyed_resample(self, panel):
        # [DERIVED] oracle: replicate b is the estimator on the resample drawn
        # from Philox(SeedSequence(seed, spawn_key=(b,))), bit for bit. The
        # rows case runs an estimator that fits no outcome model: a row
        # resample solves that model's normal equations, which a plain
        # `take` does not (TestResampledOutcomeFits checks those fits)
        if panel:
            g = philox(113)
            data = validate_panel(
                np.repeat(np.arange(20), 3), np.tile(np.arange(3), 20),
                g.normal(size=60), g.normal(size=60),
            )
            estimator, n_draw, take = fit_fe, data.n_units, data.take_units
        else:
            data = confounded_binary(113, 150)
            estimator, n_draw, take = difference_in_means, data.n, data.take
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

    @pytest.mark.parametrize("n_cov", [0, 2])
    def test_panel_bootstrap_demeans_only_the_source_panel(self, monkeypatch, n_cov):
        # each replicate gathers the source panel's within transform at its
        # drawn rows, so unit means are taken once per column of [d, x, y]
        # on the source, not once per replicate
        g = philox(114)
        data = validate_panel(
            np.repeat(np.arange(20), 3), np.tile(np.arange(3), 20),
            g.normal(size=60), g.normal(size=60), g.normal(size=(60, n_cov)) if n_cov else None,
        )
        callers = []
        unit_means = PanelDataset.unit_means

        def counted(pds, v):
            callers.append(pds)
            return unit_means(pds, v)

        monkeypatch.setattr(PanelDataset, "unit_means", counted)
        result = bootstrap_variance(data, fit_fe, n_boot=15, seed=4)
        assert result.n_ok == 15
        assert len(callers) == 2 + n_cov
        assert all(pds is data for pds in callers)

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

    def test_did_bootstrap_resamples_units(self):
        # [DERIVED] a cs5 unit's two rows share its covariate and its group,
        # so their errors are positively correlated; the iid OLS variance
        # ignores that, and the double difference removes the shared part.
        # A resample of whole units keeps each unit's rows together.
        pds = generate("cs5", 0)
        result = bootstrap_variance(pds, ate_did, n_boot=100)
        assert (result.n_ok, result.n_failed) == (100, 0)
        assert 0.0 < result.variance < ate_did(pds).variance


class TestResampledOutcomeFits:
    """A row resample of the bootstrap is a drawn dataset: its source and
    its draws. Its warm-started score fit, its outcome fit and the OR and DR
    sums run over the distinct drawn rows with their draw counts. They
    agree with the fits of the gathered rows to rounding, raise what those
    fits raise, and take those fits, bit for bit, where the counted form
    would lose digits. Every other dataset takes the SVD fit."""

    @staticmethod
    def _draw(seed, n_cov, second=None, n=400):
        """A confounded draw with `n_cov` covariates; `second(x0, g)`, when
        given, replaces the second covariate."""
        g = philox(seed)
        x = g.normal(size=(n, n_cov))
        if second is not None:
            x[:, 1] = second(x[:, 0], g)
        d = (g.uniform(size=n) < 1.0 / (1.0 + np.exp(-0.8 * x[:, :1].sum(axis=1)))).astype(float)
        y = 1.0 + 2.0 * d + x @ np.linspace(1.0, -0.5, n_cov) + g.normal(size=n)
        return validate(y, d, x if n_cov else None)

    @staticmethod
    def _replicates(data, n_boot=4, seed=5):
        """The resamples `bootstrap_variance` hands its estimator."""
        samples = []
        bootstrap_variance(
            data, lambda sample: samples.append(sample) or 0.0, n_boot=n_boot, seed=seed
        )
        return samples

    @staticmethod
    def _rows(sample):
        """The same rows as a validated dataset, which takes the SVD fit."""
        return validate(sample.y, sample.d, sample.x)

    @staticmethod
    def _start(data):
        """The full-sample score fit's start, as the CLI's replicates take it."""
        return estimate_propensity_binary(data).start

    @pytest.mark.parametrize("n_cov", [0, 3])
    def test_counted_score_fit_matches_the_chord_fit_of_the_gathered_rows(self, n_cov, monkeypatch):
        data = self._draw(168 + n_cov, n_cov)
        start = self._start(data)
        calls = count_svd_solves(monkeypatch)
        for sample in self._replicates(data):
            calls.clear()
            got = estimate_propensity_binary(sample, start)
            assert not calls  # chord steps only
            rows = self._rows(sample)
            want = regress.fit_logistic(np.column_stack([np.ones(rows.n), rows.x]), rows.d, start)
            np.testing.assert_allclose(got.start[0], want.coef, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(got.scores_treated, want.fitted, rtol=1e-12, atol=0.0)
            want_fit = estimate_propensity_binary(rows, start)
            np.testing.assert_allclose(got.scores, want_fit.scores, rtol=1e-12, atol=0.0)
            assert got.diagnostics == want_fit.diagnostics
            assert got.start[1] is start[1] or np.array_equal(got.start[1], start[1])

    @pytest.mark.parametrize(
        "n_cov, warm",
        [(0, True), (3, True), (0, False), (3, False)],
        ids=["0", "3", "0-cold", "3-cold"],
    )
    def test_agrees_with_the_svd_fit_of_the_same_rows(self, n_cov, warm, monkeypatch):
        # a cold score fit (no start, or a discarded chord step) is a fit of
        # the gathered rows, so DR fits its outcome model on them too
        data = self._draw(160 + n_cov, n_cov)
        start = self._start(data) if warm else None
        calls = count_svd_solves(monkeypatch)
        for sample in self._replicates(data):
            score = estimate_propensity_binary(sample, start)
            calls.clear()
            got = (fit_outcome_model(sample), ate_or(sample), ate_dr(sample, score))
            # the normal equations, but for a cold DR's outcome fit
            assert len(calls) == (0 if warm else 1)
            rows = self._rows(sample)
            design = np.column_stack([np.ones(rows.n), rows.d, rows.x])
            want = (fit_ols(design, rows.y), ate_or(rows), ate_dr(rows, estimate_propensity_binary(rows, start)))
            assert got[0].residuals.shape == (sample.n,)
            np.testing.assert_allclose(got[0].coef, want[0].coef, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(got[0].coef_cov, want[0].coef_cov, rtol=1e-10, atol=0.0)
            # the drawn rows' residuals, spread from the distinct rows'
            np.testing.assert_array_equal(got[0].residuals, rows.y - design @ got[0].coef)
            for g, w in zip(got[1:], want[1:]):
                assert g.point == pytest.approx(w.point, rel=1e-12, abs=0.0)
                assert g.variance == pytest.approx(w.variance, rel=1e-10, abs=0.0)
                assert (g.method, g.n_used, g.diagnostics) == (w.method, w.n_used, w.diagnostics)

    def test_a_discarded_chord_step_gives_the_cold_fit_bit_for_bit(self):
        # an inverse information five times too large overshoots, so the
        # first chord step fails to halve max|score| and is discarded
        data = self._draw(169, 3)
        coef, inverse = self._start(data)
        start = (coef, 5.0 * inverse)
        for sample in self._replicates(data):
            got = estimate_propensity_binary(sample, start)
            rows = self._rows(sample)
            want = estimate_propensity_binary(rows, start)
            cold = estimate_propensity_binary(rows)
            for fit in want, cold:
                for name in ("scores", "scores_treated"):
                    np.testing.assert_array_equal(getattr(got, name), getattr(fit, name), err_msg=name)
                np.testing.assert_array_equal(got.start[0], fit.start[0])
                np.testing.assert_array_equal(got.start[1], fit.start[1])
            # the step limit counts the discarded step and its round
            assert got.diagnostics == want.diagnostics
            assert got.diagnostics["iterations"] == cold.diagnostics["iterations"] + 2

    def test_separation_is_raised_on_the_same_replicates(self):
        # the arms split at x = 0 but for two units beside the boundary: a
        # replicate that draws neither is separated
        g = philox(170)
        x = np.sort(g.uniform(-1.0, 1.0, size=30))
        d = (x > 0.0).astype(float)
        d[[14, 15]] = 1.0 - d[[14, 15]]
        data = validate(g.normal(size=30), d, x)
        start = self._start(data)
        outcomes = []
        for sample in self._replicates(data, n_boot=40, seed=6):
            raised = []
            for ds in sample, self._rows(sample):
                try:
                    estimate_propensity_binary(ds, start)
                    raised.append(None)
                except CausalestError as err:
                    raised.append(type(err))
            assert raised[0] == raised[1]
            outcomes.append(raised[0])
        assert SeparationError in outcomes and None in outcomes

    def test_exactly_identified_fit_is_the_svd_fit(self):
        # n = k leaves no residual to estimate the covariance from, so the
        # counted form declines and the gathered rows take the SVD fit
        data = self._draw(165, 1)
        sample = core._DrawnRows(data, np.array([4, 0, 2]))
        ones = np.ones(3)
        assert regress._fit_ols_by_normal_equations(np.eye(3), ones, ones, 3) is None
        rows = self._rows(sample)
        got = fit_outcome_model(sample)
        want = fit_ols(np.column_stack([np.ones(3), rows.d, rows.x]), rows.y)
        assert got.coef_cov is None and want.coef_cov is None
        np.testing.assert_array_equal(got.coef, want.coef)
        np.testing.assert_array_equal(got.residuals, want.residuals)

    def test_a_trimmed_replicate_is_drawn_from_the_source(self):
        # the CLI trims inside a replicate with `take`; a plain `take` of a
        # validated dataset is no drawn dataset
        data = self._draw(166, 3)
        assert type(data.take(np.arange(0, data.n, 2))) is ObservationalDataset
        start = self._start(data)
        for sample in self._replicates(data, n_boot=3):
            score, kept = trim_overlap(estimate_propensity_binary(sample, start), 0.2, 0.8)
            assert 2 <= kept.size < sample.n
            sub = sample.take(kept)
            assert sub._drawn_from[0] is data
            np.testing.assert_array_equal(sub._drawn_from[1], sample._drawn_from[1][kept])
            rows = self._rows(sample)
            want_score, want_kept = trim_overlap(estimate_propensity_binary(rows, start), 0.2, 0.8)
            np.testing.assert_array_equal(kept, want_kept)
            assert score.diagnostics == want_score.diagnostics
            want_sub = rows.take(kept)
            for name in ("y", "d", "x"):
                np.testing.assert_array_equal(getattr(sub, name), getattr(want_sub, name))
            got, want = ate_dr(sub, score), ate_dr(want_sub, want_score)
            assert got.point == pytest.approx(want.point, rel=1e-12, abs=0.0)
            assert got.variance == pytest.approx(want.variance, rel=1e-10, abs=0.0)
            assert (got.n_used, got.diagnostics) == (want.n_used, want.diagnostics)

    def test_a_doubly_robust_replicate_reads_no_row_field(self):
        data = self._draw(171, 3)
        start = self._start(data)
        for sample in self._replicates(data, n_boot=3):
            score, kept = trim_overlap(estimate_propensity_binary(sample, start), 0.01, 0.99)
            assert kept.size == sample.n
            ate_dr(sample, score)
            ate_or(sample)
            assert not {"y", "d", "x"} & set(vars(sample))

    def test_a_drawn_dataset_pickles(self):
        data = self._draw(172, 3)
        sample = self._replicates(data, n_boot=2)[0]
        for ds in sample, sample.take(np.arange(0, sample.n, 2)):
            copy = pickle.loads(pickle.dumps(ds))
            assert type(copy) is core._DrawnRows and copy.n == ds.n
            np.testing.assert_array_equal(copy._drawn_from[1], ds._drawn_from[1])
            for name in ("y", "d", "x"):
                np.testing.assert_array_equal(getattr(copy, name), getattr(ds, name))
            assert ate_or(copy).point == ate_or(ds).point

    def test_replace_gives_the_plain_form_of_the_drawn_rows(self):
        # as `replace` of a resample and of its score fit did before either
        # was a private subclass
        data = self._draw(173, 3)
        sample = self._replicates(data, n_boot=2)[0]
        score = estimate_propensity_binary(sample, self._start(data))
        assert type(score) is not PropensityFit
        cases = [
            (sample, ObservationalDataset, ("y", "d", "x"), "y", np.zeros(sample.n)),
            (score, PropensityFit, ("scores_treated", "scores"), "scores", np.full(sample.n, 0.5)),
        ]
        for drawn, plain, names, changed, value in cases:
            for changes in {}, {changed: value}:
                got = dataclasses.replace(drawn, **changes)
                assert type(got) is plain
                for name in names:
                    want = changes.get(name, getattr(drawn, name))
                    np.testing.assert_array_equal(getattr(got, name), want, err_msg=name)
        assert dataclasses.replace(score).diagnostics == score.diagnostics

    def test_ill_conditioned_replicate_takes_the_svd_fit_bit_for_bit(self, monkeypatch):
        # a covariate within 1e-3 of another puts the scaled cross products'
        # condition number near 1e6
        data = self._draw(163, 3, second=lambda x0, g: x0 + 1e-3 * g.normal(size=x0.size))
        calls = count_svd_solves(monkeypatch)
        for sample in self._replicates(data):
            calls.clear()
            got = fit_outcome_model(sample)
            assert len(calls) == 1
            want = fit_outcome_model(self._rows(sample))
            for name in ("coef", "residuals", "coef_cov"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
            a, b = ate_or(sample), ate_or(self._rows(sample))
            assert (a.point, a.variance) == (b.point, b.variance)

    @pytest.mark.parametrize(
        "second",
        [
            lambda x0, g: 2.0 * x0,
            lambda x0, g: 1e-13 * g.normal(size=x0.size),
            lambda x0, g: 1e160 * g.normal(size=x0.size),
        ],
        ids=["collinear", "badly scaled", "overflowing"],
    )
    def test_rank_deficient_replicate_raises_what_the_svd_fit_raises(self, second):
        # "badly scaled": the design's singular-value ratio is below
        # RANK_RTOL, though its unit-diagonal-scaled cross products are well
        # conditioned; "overflowing": X'X overflows, which must not warn
        data = self._draw(164, 2, second=second)
        for sample in self._replicates(data, n_boot=2):
            with pytest.raises(RankDeficientError) as want:
                fit_outcome_model(self._rows(sample))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(RankDeficientError, match=f"^{re.escape(str(want.value))}$"):
                    fit_outcome_model(sample)
                with pytest.raises(RankDeficientError, match=f"^{re.escape(str(want.value))}$"):
                    ate_or(sample)

    @pytest.mark.parametrize("trim", [None, (0.2, 0.8)], ids=["untrimmed", "trimmed"])
    def test_full_sample_estimates_stay_on_the_svd_fit(self, trim, monkeypatch):
        # oracle: the estimators with the SVD fit of the outcome model passed
        # in; the full-sample point is what it was before replicates took
        # the normal equations, bit for bit
        data = self._draw(167, 3, n=2_000)
        score = estimate_propensity_binary(data)
        sub = data
        if trim is not None:
            score, kept = trim_overlap(score, *trim)
            assert 0 < kept.size < data.n
            sub = data.take(kept)
        oracle = fit_ols(np.column_stack([np.ones(sub.n), sub.d, sub.x]), sub.y)
        calls = count_svd_solves(monkeypatch)
        got = ate_or(sub), ate_dr(sub, score)
        assert len(calls) == 2  # one SVD outcome fit per estimator
        want = ate_or(sub, oracle), ate_dr(sub, score, oracle)
        for g, w in zip(got, want):
            assert np.array_equal(
                np.array([g.point, g.variance]).view(np.int64),
                np.array([w.point, w.variance]).view(np.int64),
            )


class TestIntegerArguments:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: run_monte_carlo("cs1", runs=3.5, n=100), "runs must be >= 2 and an integer, got 3.5"),
            (lambda: generate("cs1", 0, n=100.5), "n must be >= 10 and an integer, got 100.5"),
            (
                lambda: bootstrap_variance(
                    validate([1.0, 2.0, 4.0], [1.0, 0.0, 1.0]), _mean_estimator, n_boot=5.5
                ),
                "n_boot must be >= 2 and an integer, got 5.5",
            ),
        ],
        ids=["runs", "n", "n_boot"],
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
