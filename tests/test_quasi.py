"""Estimators for non-ignorable assignment: IV/2SLS, DID, synthetic
control, and regression discontinuity."""

from __future__ import annotations

import dataclasses
import inspect
import itertools

import numpy as np
import pytest
import scipy.optimize

from causalest import (
    ScFit,
    ScProblem,
    ate_2sls,
    ate_did,
    rdd_fuzzy,
    rdd_sharp,
    sc_fit,
    sc_weights,
    validate_panel,
)
from causalest import quasi, regress, simulate
from causalest.errors import (
    ConvergenceError,
    DegenerateProblemError,
    DimensionMismatchError,
    EmptyCellError,
    EmptyTreatmentArmError,
    InvalidInputError,
    LengthMismatchError,
    NoFirstStageJumpError,
    NonFiniteValueError,
    OneSidedDataError,
    RankDeficientError,
    TooFewPeriodsError,
)

from .conftest import COPIES_PER_COLUMN, philox, traced_peak


def _endogenous_draw(seed, n, tau=-1.0):
    """Treatment shifted by an unobserved u that also moves the outcome;
    z is a clean shifter."""
    g = philox(seed)
    z = g.normal(size=n)
    u = g.normal(size=n)
    d = 0.3 + 0.8 * z + u
    y = 1.0 + tau * d + 0.9 * u + 0.3 * g.normal(size=n)
    return y, d, z


def test_each_estimator_takes_only_what_a_caller_sets():
    # one treatment and one instrument with an intercept; DID reads its
    # panel alone; the discontinuity estimators fit the whole support of t
    signatures = {
        ate_2sls: ["y", "d", "z"],
        ate_did: ["pds"],
        rdd_sharp: ["y", "t", "cutoff"],
        rdd_fuzzy: ["y", "t", "d", "cutoff"],
    }
    for estimator, parameters in signatures.items():
        assert list(inspect.signature(estimator).parameters) == parameters, estimator.__name__


class TestIvRatio:
    """`ate_2sls` with one instrument and no covariates: the covariance ratio."""

    def test_hand_covariance_ratio(self):
        # [DERIVED] hand evaluation: Cov(z,y)/Cov(z,d) = 1.5/0.5 = 3
        est = ate_2sls([0.0, 6.0], [0.0, 2.0], [0.0, 1.0])
        assert est.point == pytest.approx(3.0, abs=1e-12)

    def test_self_instrument_equals_ols_slope(self):
        # [TRIVIAL] z = d makes the ratio the OLS slope of y on d
        g = philox(70)
        d = g.normal(size=200)
        y = 2.0 + 1.7 * d + g.normal(size=200)
        dc = d - d.mean()
        slope = (dc @ (y - y.mean())) / (dc @ dc)
        assert ate_2sls(y, d, d).point == pytest.approx(slope, abs=1e-12)

    def test_constant_instrument_rejected(self):
        with pytest.raises(RankDeficientError):
            ate_2sls([1.0, 2.0, 3.0], [0.0, 1.0, 2.0], [5.0, 5.0, 5.0])

    def test_zero_first_stage_rejected(self):
        # [DERIVED] z has mean 0 and z @ (d - 0.5) = 0, so Cov(z, d) is
        # exactly 0: the fitted d is constant, and the second stage cannot
        # separate it from the intercept
        with pytest.raises(RankDeficientError):
            ate_2sls([1.0, 2.0, 3.0, 5.0], [0.0, 1.0, 0.0, 1.0], [1.0, 1.0, -1.0, -1.0])

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            ate_2sls([1.0, 2.0], [0.0, 1.0], [0.0])


class Test2sls:
    def test_self_instrument_reproduces_ols(self):
        # [DERIVED] projecting d on a set containing d is the identity
        g = philox(71)
        d = g.normal(size=200)
        y = 1.0 - 2.0 * d + g.normal(size=200)
        est = ate_2sls(y, d, d)
        beta, *_ = np.linalg.lstsq(np.column_stack([np.ones(200), d]), y, rcond=None)
        assert est.point == pytest.approx(beta[1], abs=1e-10)

    def test_column_of_more_than_two_dimensions_is_a_shape_error(self):
        # a shape error, as for any other column, not the length error
        y, d, z = _endogenous_draw(70, 50)
        with pytest.raises(DimensionMismatchError, match="'d' must be a vector or 2-d matrix") as raised:
            ate_2sls(y, d.reshape(50, 1, 1), z)
        assert not isinstance(raised.value, LengthMismatchError)

    def test_just_identified_equals_iv_ratio(self):
        # [DERIVED] oracle: the covariance ratio Cov(z, y) / Cov(z, d)
        y, d, z = _endogenous_draw(72, 150)
        zc = z - z.mean()
        ratio = (zc @ (y - y.mean())) / (zc @ (d - d.mean()))
        assert ate_2sls(y, d, z).point == pytest.approx(ratio, abs=1e-10)

    def test_recovers_effect_under_endogeneity(self):
        # [DERIVED] the naive slope is contaminated by u; the instrumented
        # one recovers the structural -1
        y, d, z = _endogenous_draw(73, 20_000)
        naive, *_ = np.linalg.lstsq(
            np.column_stack([np.ones(y.size), d]), y, rcond=None
        )
        assert abs(naive[1] - (-1.0)) > 0.2
        assert ate_2sls(y, d, z).point == pytest.approx(-1.0, abs=0.05)

    def test_two_column_treatment_or_instrument_rejected(self):
        # one endogenous column and one instrument, each as a vector or an
        # (n, 1) column; a second column of either is an input error
        g = philox(75)
        y, one, two = g.normal(size=50), g.normal(size=(50, 1)), g.normal(size=(50, 2))
        assert ate_2sls(y, one, one[:, 0]).point == ate_2sls(y, one[:, 0], one).point
        for d, z in ((two, one), (one, two), (two, two)):
            with pytest.raises(DimensionMismatchError, match="must be one column, got 2"):
                ate_2sls(y, d, z)

    def test_variance_and_first_stage_f_match_lstsq_oracle(self):
        # [DERIVED] oracle: the 2SLS variance is sigma^2 [(X_hat' X_hat)^-1]_dd
        # with residuals from the observed d, and the first-stage F of one
        # instrument compares d's fits on (1, z) and on 1
        y, d, z = _endogenous_draw(74, 300)
        n = y.size
        instruments = np.column_stack([np.ones(n), z])
        pi, *_ = np.linalg.lstsq(instruments, d, rcond=None)
        second = np.column_stack([np.ones(n), instruments @ pi])
        beta, *_ = np.linalg.lstsq(second, y, rcond=None)
        resid = y - np.column_stack([np.ones(n), d]) @ beta
        variance = (resid @ resid) / (n - 2) * np.linalg.inv(second.T @ second)[1, 1]
        rss_full = np.sum((d - instruments @ pi) ** 2)
        rss_restricted = np.sum((d - d.mean()) ** 2)
        f_stat = (rss_restricted - rss_full) / (rss_full / (n - 2))
        est = ate_2sls(y, d, z)
        assert est.point == pytest.approx(beta[1], abs=1e-10)
        assert est.variance == pytest.approx(variance, rel=1e-10)
        assert est.diagnostics == {"first_stage_f": pytest.approx(f_stat, rel=1e-10)}

    def test_first_stage_f_explodes_on_exact_fit(self):
        g = philox(76)
        z = g.normal(size=80)
        est = ate_2sls(g.normal(size=80), z, z)
        assert est.diagnostics["first_stage_f"] > 1e6

    def test_irrelevant_instrument_flagged_weak(self):
        # relevance failure surfaces in the diagnostic, not a silent answer
        g = philox(77)
        d = g.normal(size=100)
        z = g.normal(size=100)  # independent of d
        y = 1.0 + d + g.normal(size=100)
        est = ate_2sls(y, d, z)
        assert est.diagnostics["first_stage_f"] < 10.0


def _two_periods(g, n_units):
    """(unit, time, group) rows of `n_units` units observed in periods 0 and
    1, in (unit, time) order; each unit is in group 1 with probability 1/2."""
    group = np.repeat((g.uniform(size=n_units) < 0.5).astype(float), 2)
    return np.repeat(np.arange(n_units), 2), np.tile([0, 1], n_units), group


def _period_major(time, *columns):
    """`columns` with their rows put period by period, each period's rows
    in their given order: the row order of `ate_did`'s design."""
    order = np.concatenate([np.flatnonzero(time == t) for t in sorted(set(time.tolist()))])
    return [np.asarray(c)[order] for c in columns]


class TestDid:
    @staticmethod
    def _cells_panel(means, reps=3):
        """A panel realizing exact cell means (y11, y10, y01, y00): `reps`
        units per group, each observed in periods 0 and 1."""
        y11, y10, y01, y00 = means
        y, unit, time, d = [], [], [], []
        for i, (g, pre, post) in enumerate([(1, y10, y11)] * reps + [(0, y00, y01)] * reps):
            y += [pre, post]
            unit += [i, i]
            time += [0, 1]
            d += [0.0, float(g)]
        return validate_panel(unit, time, y, d)

    def test_hand_double_difference(self):
        # [DERIVED] (10-6) - (5-3) = 2
        pds = self._cells_panel((10.0, 6.0, 5.0, 3.0))
        assert ate_did(pds).point == pytest.approx(2.0, abs=1e-12)

    def test_equals_double_difference_of_cell_means(self):
        # [DERIVED] the saturated regression reproduces the cell-mean formula
        g = philox(78)
        unit, period, group = _two_periods(g, 200)
        y = 1 + 2 * group + 3 * period + 4 * group * period + g.normal(size=400)
        pds = validate_panel(unit, period, y, group * period)

        def cell(gv, pv):
            return y[(group == gv) & (period == pv)].mean()

        oracle = (cell(1, 1) - cell(1, 0)) - (cell(0, 1) - cell(0, 0))
        assert ate_did(pds).point == pytest.approx(oracle, abs=1e-10)

    def test_shift_invariance(self):
        # [TRIVIAL] group- and period-constant shifts are absorbed
        g = philox(79)
        unit, period, group = _two_periods(g, 100)
        y = g.normal(size=200)
        base = ate_did(validate_panel(unit, period, y, group * period)).point
        shifted = y + 11.0 + 7.0 * group - 3.0 * period
        assert ate_did(validate_panel(unit, period, shifted, group * period)).point == pytest.approx(
            base, abs=1e-9
        )

    def test_basic_design_is_the_two_by_two_interaction(self):
        # [DERIVED] oracle: OLS on the explicit (1, group, period, group x
        # period) design, its rows period by period, gives the same bits,
        # point and variance
        g = philox(84)
        unit, period, group = _two_periods(g, 150)
        y = 1 + group - period + 3 * group * period + g.normal(size=300)
        est = ate_did(validate_panel(unit, period, y, group * period))
        design = np.column_stack([np.ones(300), group, period, group * period])
        oracle = regress._coef_estimate("did", regress.fit_ols(*_period_major(period, design, y)), 3)
        assert (est.point, est.variance) == (oracle.point, oracle.variance)
        assert est.method == "did"
        assert est.diagnostics == {"n_periods": 2}

    def test_explicit_treated_used_as_given_on_two_periods(self):
        # [DERIVED] oracle: lstsq on (1, group, period, d) with a treatment
        # that is not group x period: some units of group 1 are treated in
        # both periods
        g = philox(85)
        unit, period, group = _two_periods(g, 150)
        early = np.repeat(g.uniform(size=150) < 0.4, 2)
        d = group * np.maximum(period, early)
        y = 1 + group + period + 2 * d + g.normal(size=300)
        est = ate_did(validate_panel(unit, period, y, d))
        design = np.column_stack([np.ones(300), group, period, d])
        beta, *_ = np.linalg.lstsq(design, y, rcond=None)
        assert est.point == pytest.approx(beta[3], abs=1e-10)
        basic = ate_did(validate_panel(unit, period, y, group * period)).point
        assert est.point != pytest.approx(basic, abs=1e-3)

    def test_empty_cell(self):
        # unit 0 is treated in period 0 and has no row in period 1
        with pytest.raises(EmptyCellError, match="group=1, period=1"):
            ate_did(validate_panel([0, 1, 2], [0, 1, 0], [1.0, 2.0, 3.0], [1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("empty", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_the_empty_cell_is_named(self, empty):
        # one unit per cell, observed once: a unit of group 1 is treated then
        cells = [(g, p) for g in (0, 1) for p in (0, 1) if (g, p) != empty]
        group, period = (np.array(c) for c in zip(*cells))
        pds = validate_panel(np.arange(3), period, np.arange(3.0), group.astype(float))
        with pytest.raises(EmptyCellError, match=f"group={empty[0]}, period={empty[1]}$"):
            ate_did(pds)

    def test_validation_errors(self):
        # the panel's own checks, then the one rule of a two-arm estimator
        with pytest.raises(InvalidInputError, match="binary"):
            ate_did(validate_panel([0, 0, 1, 1], [0, 1, 0, 1], np.arange(4.0), [0.0, 2.0, 0.0, 0.0]))
        with pytest.raises(EmptyTreatmentArmError, match="treated arm"):
            ate_did(validate_panel([0, 0, 1, 1], [0, 1, 0, 1], np.arange(4.0), np.zeros(4)))
        with pytest.raises(NonFiniteValueError, match="integer"):
            validate_panel([0, 0], [0.0, 0.5], [1.0, 2.0], [0.0, 1.0])
        with pytest.raises(DimensionMismatchError):
            validate_panel([0, 0], [0, 1], [1.0, 2.0], [0.0])

    @pytest.mark.parametrize("n_cov", [0, 1])
    def test_one_period_is_too_few_periods(self, n_cov, monkeypatch):
        # with one period each unit's group is its d, so the design's group
        # and d columns coincide; the estimator names the cause, as fit_fe
        # and fit_fd do, before it builds or fits the design
        x = np.arange(4.0) ** 2 if n_cov else None
        pds = validate_panel([0, 1, 2, 3], [0, 0, 0, 0], [1.0, 2, 3, 4], [0.0, 1, 0, 1], x)
        fits = []
        monkeypatch.setattr(quasi, "_coef_estimate", lambda *a, **k: fits.append(a))
        with pytest.raises(TooFewPeriodsError, match="^difference in differences requires >= 2 periods$"):
            ate_did(pds)
        assert not fits

    def test_cs5_draws_equal_the_period_major_interaction_fit(self):
        # [DERIVED] oracle: for every run of the paper's scale at seed 42,
        # OLS on (1, group, period, group x period) built from the panel's
        # columns, its rows period by period, gives the bits of the point
        # and the variance, for the design with and without the violation
        got, want = [], []
        for r in range(1000):
            for pds in simulate._case_inputs("cs5", 1000, r, 42):
                group = np.repeat(pds.d.reshape(-1, 2).max(axis=1), 2)
                design = np.column_stack([np.ones(pds.n), group, pds.time, group * pds.time])
                oracle = regress._coef_estimate("did", regress.fit_ols(*_period_major(pds.time, design, pds.y)), 3)
                est = ate_did(pds)
                got.append((est.point, est.variance))
                want.append((oracle.point, oracle.variance))
        assert np.array_equal(np.array(got), np.array(want))


class TestDidCovariates:
    """`ate_did` on a panel that carries covariates."""

    @staticmethod
    def _draw(seed, n_units=150, beta_x=3.0):
        g = philox(seed)
        unit, period, group = _two_periods(g, n_units)
        x = g.normal(size=2 * n_units)
        y = (
            1.0
            + group
            + period
            + 2.0 * group * period
            + beta_x * x
            + 0.5 * g.normal(size=2 * n_units)
        )
        return unit, period, y, group * period, x

    def test_orthogonal_covariate_leaves_estimate(self):
        # [TRIVIAL] a regressor orthogonal to the design changes nothing
        unit, period, y, d, x = self._draw(80)
        base = np.column_stack([np.ones(y.size), np.repeat(d[1::2], 2), period, d])
        x_orth = x - base @ np.linalg.lstsq(base, x, rcond=None)[0]
        with_x = ate_did(validate_panel(unit, period, y, d, x_orth))
        without = ate_did(validate_panel(unit, period, y, d))
        assert with_x.point == pytest.approx(without.point, abs=1e-8)

    def test_collinear_covariate_rejected(self):
        unit, period, y, d, _ = self._draw(81)
        with pytest.raises(RankDeficientError):
            ate_did(validate_panel(unit, period, y, d, np.repeat(d[1::2], 2)))

    def test_covariate_cuts_monte_carlo_variance(self):
        # [DERIVED] precision gain: the x-term absorbs outcome noise
        with_x, without = [], []
        for i in range(200):
            unit, period, y, d, x = self._draw(2000 + i, n_units=100)
            with_x.append(ate_did(validate_panel(unit, period, y, d, x)).point)
            without.append(ate_did(validate_panel(unit, period, y, d)).point)
        assert np.var(with_x, ddof=1) < np.var(without, ddof=1)


class TestDidMultiperiod:
    """`ate_did` on any number of periods."""

    def test_two_periods_collapse_to_basic(self):
        # [DERIVED] the periods are the panel's two times, whatever they are:
        # times 3 and 7 give the bits of times 0 and 1
        g = philox(82)
        unit, period, group = _two_periods(g, 100)
        y = 1 + group + period - 4 * group * period + g.normal(size=200)
        basic = ate_did(validate_panel(unit, period, y, group * period))
        moved = ate_did(validate_panel(unit, 3 + 4 * period, y, group * period))
        assert (moved.point, moved.variance) == (basic.point, basic.variance)
        assert moved.diagnostics == {"n_periods": 2}
        with pytest.raises(EmptyCellError, match="group=1, period=7$"):
            ate_did(validate_panel([0, 1, 2], [3, 3, 7], np.arange(3.0), [1.0, 0.0, 0.0]))

    def test_noiseless_constant_effect_recovered(self):
        # [DERIVED] constructed noiseless three-period panel
        unit, period = np.repeat(np.arange(20), 3), np.tile([0, 1, 2], 20)
        group = (unit % 2 == 0).astype(float)
        treated = group * (period >= 1)
        y = 10.0 + 3.0 * group + 2.0 * (period == 1) + 5.0 * (period == 2) + 4.0 * treated
        est = ate_did(validate_panel(unit, period, y, treated))
        assert est.point == pytest.approx(4.0, abs=1e-10)
        assert est.diagnostics["n_periods"] == 3

    def test_common_shock_absorbed_by_time_dummy(self):
        g = philox(83)
        unit, period = np.repeat(np.arange(80), 3), np.tile([0, 1, 2], 80)
        group = np.repeat((g.uniform(size=80) < 0.5).astype(float), 3)
        treated = group * (period == 2)
        y = g.normal(size=240) + 2.0 * treated
        base = ate_did(validate_panel(unit, period, y, treated)).point
        shocked = y + 9.0 * (period == 1)
        assert ate_did(validate_panel(unit, period, shocked, treated)).point == pytest.approx(
            base, abs=1e-9
        )

    def test_covariates_join_the_design(self):
        # [DERIVED] oracle: lstsq on (1, group, period dummies, treated, x)
        g = philox(86)
        unit, period = np.repeat(np.arange(80), 3), np.tile([0, 1, 2], 80)
        group = np.repeat((g.uniform(size=80) < 0.5).astype(float), 3)
        treated = group * (period >= 1)
        x = g.normal(size=(240, 2))
        y = 1 + group + period + 2 * treated + x @ [1.5, -0.5] + g.normal(size=240)
        est = ate_did(validate_panel(unit, period, y, treated, x))
        design = np.column_stack(
            [np.ones(240), group, period == 1, period == 2, treated, x]
        ).astype(float)
        beta, *_ = np.linalg.lstsq(design, y, rcond=None)
        assert est.point == pytest.approx(beta[4], abs=1e-10)
        assert est.diagnostics == {"n_periods": 3}

    def test_unbalanced_panel_matches_lstsq(self):
        # [DERIVED] oracle: lstsq on (1, group, period dummies, d, x) from the
        # raw rows, with each unit's group read off its own rows, and the
        # variance sigma^2 (X'X)^-1 with sigma^2 = RSS / (n - k): units miss
        # periods, adopt at different times and come in shuffled order
        g = philox(87)
        unit, period = np.repeat(np.arange(120), 4), np.tile([0, 1, 2, 3], 120)
        keep = g.uniform(size=480) < 0.8
        adopt = np.where(g.uniform(size=120) < 0.5, g.integers(1, 4, size=120), 9)[unit]
        d = (period >= adopt).astype(float)
        x = g.normal(size=480)
        y = 0.5 + 0.3 * period + 2.0 * d - 0.7 * x + g.normal(size=480)
        shuffle = g.permutation(int(keep.sum()))
        unit, period, d, x, y = (v[keep][shuffle] for v in (unit, period, d, x, y))
        est = ate_did(validate_panel(unit, period, y, d, x))
        ever = {u for u, t in zip(unit.tolist(), d.tolist()) if t == 1.0}
        group = np.array([float(u in ever) for u in unit.tolist()])
        design = np.column_stack(
            [np.ones(y.size), group, period == 1, period == 2, period == 3, d, x]
        ).astype(float)
        beta, rss, *_ = np.linalg.lstsq(design, y, rcond=None)
        variance = rss[0] / (y.size - 7) * np.linalg.inv(design.T @ design)[5, 5]
        assert est.point == pytest.approx(beta[5], rel=1e-10)
        assert est.variance == pytest.approx(variance, rel=1e-8)
        assert est.n_used == y.size
        assert est.diagnostics == {"n_periods": 4}

    def test_constant_treatment_rejected(self):
        # d is the treated indicator, so a panel with one arm has no contrast
        for d in (np.zeros(4), np.ones(4)):
            with pytest.raises(EmptyTreatmentArmError):
                ate_did(validate_panel([0, 0, 1, 1], [0, 1, 0, 1], np.arange(4.0), d))


class TestScWeights:
    def test_hand_midpoint(self):
        # [DERIVED] x1=2 between donors at 1 and 3: the best convex
        # combination is the midpoint
        w = sc_weights([2.0], [[1.0, 3.0]], [1.0])
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-6)

    def test_single_donor(self):
        np.testing.assert_array_equal(sc_weights([5.0], [[1.0]], [1.0]), [1.0])

    def test_exact_donor_match_takes_lowest_index(self):
        x0 = np.array([[2.0, 2.0, 1.0], [3.0, 3.0, 0.0]])
        w = sc_weights([2.0, 3.0], x0, [1.0, 1.0])
        np.testing.assert_array_equal(w, [1.0, 0.0, 0.0])

    def test_simplex_feasibility_and_vertex_optimality(self):
        # [DERIVED] the solution must be feasible and beat every vertex
        for seed in range(84, 94):
            g = philox(seed)
            x1 = g.normal(size=4)
            x0 = g.normal(size=(4, 6))
            v = g.uniform(0.1, 1.0, size=4)
            w = sc_weights(x1, x0, v)
            assert np.all(w >= -1e-10)
            assert abs(w.sum() - 1.0) <= 1e-8

            def obj(wv):
                r = x1 - x0 @ wv
                return float(r @ (v * r))

            for jj in range(6):
                vertex = np.zeros(6)
                vertex[jj] = 1.0
                assert obj(w) <= obj(vertex) + 1e-10

    def test_grid_oracle(self):
        # [DERIVED] oracle: exhaustive simplex grid at step 1e-3
        g = philox(95)
        x1 = g.normal(size=2)
        x0 = g.normal(size=(2, 3))
        v = np.array([0.7, 0.3])
        w = sc_weights(x1, x0, v)
        step = 1e-3
        w1, w2 = np.meshgrid(
            np.arange(0.0, 1.0 + step, step), np.arange(0.0, 1.0 + step, step)
        )
        w1, w2 = w1.ravel(), w2.ravel()
        keep = w1 + w2 <= 1.0 + 1e-12
        grid = np.vstack([w1[keep], w2[keep], 1.0 - w1[keep] - w2[keep]])
        resid = x1[:, None] - x0 @ grid
        grid_best = float(np.min(np.sum(v[:, None] * resid**2, axis=0)))
        r = x1 - x0 @ w
        assert float(r @ (v * r)) <= grid_best + 1e-8

    def test_kkt_residual_oracle(self):
        # [DERIVED] oracle: the KKT conditions of min (x1 - x0 w)' V (x1 - x0 w)
        # on the simplex. With gradient g, every donor in the support shares
        # one value of g (the multiplier of sum w = 1) and no donor outside
        # it has a smaller one; K = 1..4 against J = 2..6 covers faces of
        # every size, including non-unique optima (K + 1 < J).
        for j in range(2, 7):
            for seed in range(5):
                g = philox(1000 * j + seed)
                k = 1 + seed % 4
                x1 = g.normal(size=k)
                x0 = g.normal(size=(k, j))
                v = g.uniform(0.1, 1.0, size=k)
                w = sc_weights(x1, x0, v)
                assert np.all(w >= 0.0)
                assert abs(w.sum() - 1.0) <= 1e-12
                grad = -2.0 * x0.T @ (v * (x1 - x0 @ w))
                support = w > 0.0
                level = grad[support].mean()
                scale = 1e-10 * (1.0 + np.abs(grad).max())
                assert np.max(np.abs(grad[support] - level)) <= scale
                assert np.all(grad[~support] >= level - scale)

    def test_level_shift_invariance(self):
        # [DERIVED] on the simplex (x1 + c) - (x0 + c) w = x1 - x0 w, so a
        # common level c leaves the problem and its solution unchanged
        for seed in range(20):
            g = philox(2000 + seed)
            k, j = 1 + seed % 3, 2 + seed % 5
            x1 = g.normal(size=k)
            x0 = g.normal(size=(k, j))
            v = g.uniform(0.1, 1.0, size=k)
            c = g.uniform(-5.0, 5.0)
            np.testing.assert_allclose(
                sc_weights(x1 + c, x0 + c, v), sc_weights(x1, x0, v), rtol=0, atol=1e-8
            )

    def test_non_unique_optimum_is_sparse_deterministic_and_optimal(self):
        # [DERIVED] with J > K + 1 donors the optimum need not be unique; the
        # solver must still return one optimal point, the same one on every
        # call, with at most K + 1 donors in its support (a vertex of the
        # optimal face), and no simplex vertex may beat it
        for j in range(4, 9):
            for seed in range(6):
                g = philox(3000 + 10 * j + seed)
                k = 1 + seed % (j - 2)
                x0 = g.normal(size=(k, j))
                # every third problem puts x1 inside the donors' hull, where
                # a whole face of weights reaches a zero objective
                x1 = x0 @ g.dirichlet(np.ones(j)) if seed % 3 == 0 else g.normal(size=k)
                v = g.uniform(0.1, 1.0, size=k)
                w = sc_weights(x1, x0, v)
                np.testing.assert_array_equal(sc_weights(x1, x0, v), w)
                assert np.all(w >= 0.0)
                assert np.count_nonzero(w) <= k + 1
                resid = x1[:, None] - x0
                vertex_best = float(np.min(np.sum(v[:, None] * resid**2, axis=0)))
                r = x1 - x0 @ w
                assert float(r @ (v * r)) <= vertex_best + 1e-12 * (1.0 + x1 @ (v * x1))

    def test_weight_rounding_below_zero_on_a_degenerate_face_is_dropped(self):
        # on these integer problems the non-negative least squares support
        # holds a donor whose exact weight on that face is 0; its face solve
        # rounds it to about -3e-16, and such a donor must leave the support
        w = sc_weights([-1.0, 2.0, -2.0], [[1.0, 2.0, 1.0], [-2.0, -1.0, -2.0], [0.0, -2.0, -2.0]],
                       [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(w, [0.0, 1.0, 0.0])
        x0 = [[0.0, 1.0, -1.0, -1.0], [-1.0, -2.0, -2.0, -1.0], [1.0, 1.0, -2.0, 2.0]]
        w = sc_weights([1.0, 0.0, -1.0], x0, [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(w[[1, 3]], [0.0, 0.0])
        np.testing.assert_allclose(w, [7.0 / 11.0, 0.0, 4.0 / 11.0, 0.0], rtol=1e-14)

    def test_zero_spread_takes_lowest_index(self):
        # V weights only the first row, where every donor equals x1, so
        # every point of the simplex is optimal
        w = sc_weights([1.0, 5.0], [[1.0, 1.0, 1.0], [2.0, 3.0, 9.0]], [1.0, 0.0])
        np.testing.assert_array_equal(w, [1.0, 0.0, 0.0])

    def test_step_cap_raises_instead_of_returning_an_iterate(self, monkeypatch):
        # SciPy's nnls raises RuntimeError at its cap of 3J iterations; that
        # must surface as the package's ConvergenceError
        def capped_nnls(a, b):
            raise RuntimeError("Maximum number of iterations reached.")

        monkeypatch.setattr(scipy.optimize, "nnls", capped_nnls)
        with pytest.raises(ConvergenceError, match="did not finish in 6 steps"):
            sc_weights([2.0], [[1.0, 3.0]], [1.0])

    def test_dimension_and_v_validation(self):
        with pytest.raises(DimensionMismatchError, match="x0"):
            sc_weights([1.0, 2.0], [[1.0, 2.0]], [1.0, 1.0])
        with pytest.raises(DimensionMismatchError, match="v_diag"):
            sc_weights([1.0], [[1.0, 2.0]], [1.0, 1.0])
        with pytest.raises(ValueError, match="v_diag"):
            sc_weights([1.0], [[1.0, 2.0]], [0.0])

    def test_non_finite_donors_rejected(self):
        with pytest.raises(NonFiniteValueError, match="x0"):
            sc_weights([1.0, 0.0], [[np.nan, 2.0, 3.0], [1.0, 0.0, 2.0]], [1.0, 1.0])


def _study_problem(seed):
    """One of the 40 problems of the synthetic-control study (seeds
    100-139): K = 4 characteristics, 3 pre- and 2 post-periods, J = 4
    donors, N(0, 1) entries, x1 and z1 drawn independently of the donors."""
    g = philox(seed)
    return ScProblem(
        x1=g.normal(size=4), x0=g.normal(size=(4, 4)), z1=g.normal(size=3),
        z0=g.normal(size=(3, 4)), y1=g.normal(size=2), y0=g.normal(size=(2, 4)),
    )


def _pre_mismatch(problem, w):
    r = problem.z1 - problem.z0 @ w
    return float(r @ r)


def _best_pre_fit(problem):
    """[ORACLE] The least pre-period mismatch over the simplex, by
    enumeration: on every donor subset, the least squares of z1 on its
    columns with weights summing to one (the bordered normal equations),
    kept where the weights are non-negative."""
    best = np.inf
    j = problem.n_donors
    for size in range(1, j + 1):
        for face in itertools.combinations(range(j), size):
            cols = problem.z0[:, face]
            kkt = np.zeros((size + 1, size + 1))
            kkt[:size, :size] = cols.T @ cols
            kkt[:size, size] = kkt[size, :size] = 1.0
            rhs = np.append(cols.T @ problem.z1, 1.0)
            w_face = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:size]
            if (w_face >= -1e-12).all() and abs(w_face.sum() - 1.0) <= 1e-12:
                w = np.zeros(j)
                w[list(face)] = w_face
                best = min(best, _pre_mismatch(problem, w))
    return best


def _affine_outcomes(problem, a, b):
    """The problem with every outcome, z and y, mapped to a * value + b."""
    return ScProblem(
        x1=problem.x1,
        x0=problem.x0,
        **{name: a * getattr(problem, name) + b for name in ("z1", "z0", "y1", "y0")},
    )


def _certified_weight_tol(problem, weights, a, b):
    """[DERIVED] How far rounding can move certified weights when the
    outcomes are mapped to a z + b: they are the least squares on their
    support of the standardized outcomes (z - mean) / spread, whose entries
    round by eps (max|z| + |b / a|) / spread relative to O(1); a least
    squares solution moves by at most that times kappa^2, kappa the
    condition number of the support's differences from its first donor."""
    eps = np.finfo(float).eps
    z = np.column_stack([problem.z1, problem.z0])
    support = np.flatnonzero(weights > 0.0)
    diffs = problem.z0[:, support[1:]] - problem.z0[:, support[:1]]
    kappa = np.linalg.cond(diffs) if support.size > 1 else 1.0
    return 8 * eps * kappa**2 * (np.abs(z).max() + abs(b / a)) / z.std()


class TestScFit:
    @staticmethod
    def _convex_problem(seed, w_true):
        g = philox(seed)
        j = w_true.shape[0]
        x0 = g.normal(size=(4, j))
        z0 = g.normal(size=(3, j))
        y0 = g.normal(size=(2, j))
        return ScProblem(
            x1=x0 @ w_true, x0=x0, z1=z0 @ w_true, z0=z0, y1=y0 @ w_true, y0=y0
        )

    def test_perfect_donor_short_circuit(self):
        x0 = np.array([[1.0, 4.0], [2.0, 8.0]])
        z0 = np.array([[3.0, 9.0]])
        y0 = np.array([[5.0, 0.0], [6.0, 1.0]])
        problem = ScProblem(
            x1=[1.0, 2.0], x0=x0, z1=[3.0], z0=z0, y1=[7.0, 9.0], y0=y0
        )
        fit = sc_fit(problem)
        np.testing.assert_array_equal(fit.weights, [1.0, 0.0])
        np.testing.assert_allclose(fit.gap, [2.0, 3.0], atol=1e-12)
        assert fit.estimate.point == pytest.approx(2.5, abs=1e-12)
        assert fit.estimate.diagnostics["pre_rmse"] == pytest.approx(0.0, abs=1e-12)

    def test_recovers_convex_combination(self):
        # [DERIVED] noiseless convex-combination construction
        w_true = np.array([0.2, 0.5, 0.3])
        fit = sc_fit(self._convex_problem(96, w_true))
        np.testing.assert_allclose(fit.weights, w_true, atol=1e-3)
        assert abs(fit.estimate.point) < 1e-2

    def test_level_shift_invariance(self):
        # [DERIVED] a common level added to every characteristic and outcome
        # of the treated unit and the donors leaves the problem unchanged
        w_true = np.array([0.2, 0.5, 0.3])
        problem = self._convex_problem(96, w_true)
        c = philox(99).uniform(-5.0, 5.0)
        fields = ("x1", "x0", "z1", "z0", "y1", "y0")
        shifted = ScProblem(**{name: getattr(problem, name) + c for name in fields})
        fit, fit_s = sc_fit(problem), sc_fit(shifted)
        np.testing.assert_allclose(fit_s.weights, fit.weights, rtol=0, atol=1e-8)
        np.testing.assert_allclose(fit_s.gap, fit.gap, rtol=0, atol=1e-8)

    def test_fit_keeps_its_diagnostics_in_the_estimate_only(self):
        # the pre-period error and the outer search's state are read from
        # the estimate's diagnostics, not from copies on the fit
        assert [f.name for f in dataclasses.fields(ScFit)] == ["weights", "v", "gap", "estimate"]
        for problem in (self._convex_problem(96, np.array([0.2, 0.5, 0.3])), _study_problem(102)):
            assert set(sc_fit(problem).estimate.diagnostics) == {
                "pre_rmse", "outer_search", "outer_converged", "outer_iterations"
            }

    def test_outer_search_convergence_reported(self):
        def state(problem):
            diagnostics = sc_fit(problem).estimate.diagnostics
            return tuple(diagnostics[key] for key in ("outer_search", "outer_converged", "outer_iterations"))

        # a certified fit takes no outer step
        assert state(self._convex_problem(96, np.array([0.2, 0.5, 0.3]))) == ("certified", True, 0)
        # study problem 102 has no certificate: its best pre-period fit is
        # inner-optimal for no V, so the search runs
        kind, converged, iterations = state(_study_problem(102))
        assert (kind, converged) == ("search", True) and iterations > 0
        # one donor leaves nothing to search
        single = ScProblem(x1=[1.0], x0=[[9.0]], z1=[2.0], z0=[[1.0]], y1=[4.0], y0=[[1.0]])
        assert state(single) == ("certified", True, 0)

    def test_certified_v_is_strictly_positive_and_gives_the_weights(self):
        # [DERIVED] the LP's margin keeps every v_k > 0; at a V with a zero
        # entry the inner optimum of this convex problem is not unique
        w_true = np.array([0.2, 0.5, 0.3])
        problem = self._convex_problem(96, w_true)
        fit = sc_fit(problem)
        assert fit.estimate.diagnostics["outer_search"] == "certified"
        assert (fit.v > 0.0).all() and fit.v.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(fit.weights, w_true, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            sc_weights(problem.x1, problem.x0, fit.v), fit.weights, rtol=0, atol=quasi._SC_WEIGHT_TOL
        )

    def test_the_outer_search_solves_validated_inputs(self, monkeypatch):
        # the search and the certificate call the inner kernel, not the
        # public sc_weights, which validates its inputs again on each call
        def public(*args):
            raise AssertionError("sc_fit called the public sc_weights")

        monkeypatch.setattr(quasi, "sc_weights", public)
        for problem in (self._convex_problem(96, np.array([0.2, 0.5, 0.3])), _study_problem(102)):
            sc_fit(problem)

    def test_donor_permutation_equivariance(self):
        w_true = np.array([0.2, 0.5, 0.3])
        problem = self._convex_problem(97, w_true)
        perm = np.array([2, 0, 1])
        permuted = ScProblem(
            x1=problem.x1,
            x0=problem.x0[:, perm],
            z1=problem.z1,
            z0=problem.z0[:, perm],
            y1=problem.y1,
            y0=problem.y0[:, perm],
        )
        fit = sc_fit(problem)
        fit_p = sc_fit(permuted)
        np.testing.assert_allclose(fit_p.weights, fit.weights[perm], atol=1e-4)
        np.testing.assert_allclose(fit_p.gap, fit.gap, atol=1e-5)

    def test_weights_equivariance_is_tight_for_fixed_v(self):
        g = philox(98)
        x1 = g.normal(size=3)
        x0 = g.normal(size=(3, 4))
        v = np.array([0.5, 0.3, 0.2])
        perm = np.array([3, 1, 0, 2])
        w = sc_weights(x1, x0, v)
        w_p = sc_weights(x1, x0[:, perm], v)
        np.testing.assert_allclose(w_p, w[perm], atol=1e-10)

    def test_single_donor_gap(self):
        problem = ScProblem(
            x1=[1.0], x0=[[9.0]], z1=[2.0], z0=[[1.0]], y1=[4.0, 6.0], y0=[[1.0], [2.0]]
        )
        fit = sc_fit(problem)
        np.testing.assert_allclose(fit.gap, [3.0, 4.0])
        assert fit.estimate.point == pytest.approx(3.5)

    def test_identical_donors_rejected(self):
        with pytest.raises(DegenerateProblemError):
            sc_fit(
                ScProblem(
                    x1=[1.0],
                    x0=[[2.0, 2.0]],
                    z1=[1.0],
                    z0=[[3.0, 3.0]],
                    y1=[1.0],
                    y0=[[4.0, 5.0]],
                )
            )

    def test_problem_validation(self):
        with pytest.raises(DimensionMismatchError, match="donor count"):
            ScProblem(
                x1=[1.0], x0=[[1.0, 2.0]], z1=[1.0], z0=[[1.0]], y1=[1.0], y0=[[1.0, 2.0]]
            )
        with pytest.raises(DimensionMismatchError, match="x0 rows"):
            ScProblem(
                x1=[1.0, 2.0], x0=[[1.0]], z1=[1.0], z0=[[1.0]], y1=[1.0], y0=[[1.0]]
            )
        with pytest.raises(ValueError, match="finite"):
            ScProblem(
                x1=[1.0], x0=[[np.inf]], z1=[1.0], z0=[[1.0]], y1=[1.0], y0=[[1.0]]
            )


class TestSyntheticControlStudy:
    """The 40 study problems of `_study_problem`, seeds 100-139."""

    @pytest.fixture(scope="class")
    def fits(self):
        problems = [_study_problem(seed) for seed in range(100, 140)]
        return [(problem, sc_fit(problem)) for problem in problems]

    @staticmethod
    def _of_kind(fits, kind):
        return [(p, f) for p, f in fits if f.estimate.diagnostics["outer_search"] == kind]

    def test_both_paths_are_taken(self, fits):
        # 9 certified and 31 searched with SciPy 1.17's HiGHS
        assert self._of_kind(fits, "certified") and self._of_kind(fits, "search")

    def test_a_certified_fit_is_the_best_pre_period_fit(self, fits):
        for problem, fit in self._of_kind(fits, "certified"):
            best = _best_pre_fit(problem)
            assert _pre_mismatch(problem, fit.weights) == pytest.approx(best, rel=1e-12)
            assert fit.estimate.diagnostics["pre_rmse"] == pytest.approx(
                np.sqrt(best / problem.z1.shape[0]), rel=1e-12
            )
        # the oracle bounds every fit from below
        for problem, fit in fits:
            assert _pre_mismatch(problem, fit.weights) >= _best_pre_fit(problem) * (1 - 1e-12)

    def test_no_search_fit_is_worse_than_its_best_start(self, fits):
        # the starts are the uniform V and the softmax of 10 at each corner
        for problem, fit in self._of_kind(fits, "search"):
            k = problem.x1.shape[0]
            starts = [np.full(k, 1.0 / k)]
            for corner in range(k):
                e = np.exp(10.0 * (np.eye(k)[corner] - 1.0))
                starts.append(e / e.sum())
            best_start = min(
                _pre_mismatch(problem, sc_weights(problem.x1, problem.x0, v)) for v in starts
            )
            assert _pre_mismatch(problem, fit.weights) <= best_start * (1 + 1e-12)

    def test_the_search_reads_standardized_outcomes(self, monkeypatch):
        # [DERIVED] Nelder-Mead stops on an absolute change of its objective,
        # so the search minimizes the mismatch of (z - mean) / spread, which
        # a z + b leaves unchanged up to rounding
        seen = []
        search = scipy.optimize.minimize

        def recording(fun, x0, **kwargs):
            seen.append(fun(x0))
            return search(fun, x0, **kwargs)

        monkeypatch.setattr(scipy.optimize, "minimize", recording)
        problem = _study_problem(102)
        sc_fit(problem)
        reference = list(seen)
        for a, b in [(1e3, -5.0), (1e-3, 2.0)]:
            seen.clear()
            assert sc_fit(_affine_outcomes(problem, a, b)).estimate.diagnostics["outer_search"] == "search"
            np.testing.assert_allclose(seen, reference, rtol=1e-9)

    @pytest.mark.parametrize("a, b", [(1e3, -5.0), (1e-3, 2.0), (1.0, 7.0), (-2.0, 1.5)])
    def test_a_certified_fit_is_invariant_to_the_outcome_units(self, fits, a, b):
        eps = np.finfo(float).eps
        for problem, fit in self._of_kind(fits, "certified"):
            moved = sc_fit(_affine_outcomes(problem, a, b))
            assert moved.estimate.diagnostics["outer_search"] == "certified"
            tol = _certified_weight_tol(problem, fit.weights, a, b)
            np.testing.assert_allclose(moved.weights, fit.weights, rtol=0, atol=tol)
            assert _pre_mismatch(problem, moved.weights) == pytest.approx(
                _pre_mismatch(problem, fit.weights), rel=1e-12
            )
            # rounding of a y + b and of the weighted sum, plus the weights' move
            size = abs(a) * np.abs(np.column_stack([problem.y1, problem.y0])).max() + abs(b)
            j = problem.n_donors
            assert moved.estimate.point == pytest.approx(
                a * fit.estimate.point, rel=0, abs=4 * (j + 4) * eps * size + j * size * tol
            )


class TestRddSharp:
    def test_noiseless_jump_recovered_exactly(self):
        # [TRIVIAL] noiseless piecewise-linear data
        t = np.linspace(-1.0, 1.0, 41)
        y = 1.0 + 2.0 * t + 5.0 * (t >= 0.0)
        est = rdd_sharp(y, t)
        assert est.point == pytest.approx(5.0, abs=1e-10)
        assert est.diagnostics == {"cutoff": 0.0, "n_right": 21, "n_left": 20}

    def test_nonzero_cutoff(self):
        t = np.linspace(0.0, 4.0, 81)
        y = -1.0 + 0.5 * (t - 2.0) + 3.0 * (t >= 2.0)
        assert rdd_sharp(y, t, cutoff=2.0).point == pytest.approx(3.0, abs=1e-10)

    def test_one_sided_data_rejected(self):
        t = np.linspace(-2.0, -1.0, 10)
        with pytest.raises(OneSidedDataError):
            rdd_sharp(np.ones(10), t)


class TestRddFuzzy:
    def test_full_compliance_reduces_to_sharp(self):
        g = philox(99)
        t = g.uniform(-1.0, 1.0, 400)
        d = (t >= 0.0).astype(float)
        y = 1.0 + 2.0 * t + 5.0 * d + g.normal(0.0, 0.5, 400)
        assert rdd_fuzzy(y, t, d).point == pytest.approx(
            rdd_sharp(y, t).point, abs=1e-8
        )

    def test_partial_compliance_noiseless_recovery(self):
        # [DERIVED] the structural equation is exact, so instrumenting the
        # flipped assignment still solves for the jump exactly
        t = np.linspace(-1.0, 1.0, 201)
        d = (t >= 0.0).astype(float)
        flip = (np.abs(t) < 0.25) & (np.arange(t.size) % 4 == 0)
        d[flip] = 1.0 - d[flip]
        y = 1.0 + 2.0 * t + 5.0 * d
        est = rdd_fuzzy(y, t, d)
        assert est.point == pytest.approx(5.0, abs=1e-8)
        assert set(est.diagnostics) == {"first_stage_f", "cutoff", "first_stage_jump"}
        assert 0.05 < est.diagnostics["first_stage_jump"] < 1.0

    def test_no_first_stage_jump(self):
        t = np.linspace(-1.0, 1.0, 50)
        with pytest.raises(NoFirstStageJumpError):
            rdd_fuzzy(np.ones(50), t, np.ones(50))

    def test_first_stage_jump_matches_a_least_squares_first_stage(self):
        # [DERIVED] oracle: the coefficient on 1[t >= c] in least squares of
        # d on (1, 1[t >= c], t - c, 1[t >= c](t - c)) over the whole support
        g = philox(98)
        t = g.uniform(-1.0, 1.0, 600)
        d = (t >= 0.1).astype(float)
        flip = (g.uniform(size=600) < 0.3) & (np.abs(t - 0.1) < 0.4)
        d[flip] = 1.0 - d[flip]
        y = 1.0 + 2.0 * t + 5.0 * d + g.normal(0.0, 0.5, 600)
        est = rdd_fuzzy(y, t, d, cutoff=0.1)
        tc = t - 0.1
        above = (tc >= 0.0).astype(float)
        design = np.column_stack([np.ones(tc.size), above, tc, above * tc])
        oracle = np.linalg.lstsq(design, d, rcond=None)[0][1]
        assert abs(est.diagnostics["first_stage_jump"] - oracle) <= 1e-12

    @pytest.mark.parametrize("jump", [0.0, 0.04, -0.049])
    def test_first_stage_jump_at_or_below_the_tolerance_raises(self, jump):
        # d is exactly linear on each side with the given jump at the cutoff
        t = np.linspace(-1.0, 1.0, 201)
        above = (t >= 0.0).astype(float)
        d = 0.3 + 0.1 * t + jump * above
        with pytest.raises(NoFirstStageJumpError, match="jump"):
            rdd_fuzzy(1.0 + t + 2.0 * d, t, d)

    def test_first_stage_jump_above_the_tolerance_is_kept(self):
        t = np.linspace(-1.0, 1.0, 201)
        d = 0.3 + 0.1 * t + 0.06 * (t >= 0.0)
        est = rdd_fuzzy(1.0 + t + 2.0 * d, t, d)
        assert est.diagnostics["first_stage_jump"] == pytest.approx(0.06, abs=1e-12)

    def test_length_mismatch(self):
        t = np.linspace(-1.0, 1.0, 50)
        with pytest.raises(DimensionMismatchError, match="d must"):
            rdd_fuzzy(np.ones(50), t, np.ones(49))



@pytest.mark.parametrize("estimator", ["rdd_sharp", "rdd_fuzzy"])
@pytest.mark.parametrize("cutoff", ["a", "0.5", None, [0.0, 1.0], np.array(0.0), np.nan, np.inf])
def test_cutoff_that_is_not_a_finite_real_number_is_an_input_error(estimator, cutoff, monkeypatch):
    # rejected before any fit: a fit here would fail the test
    def no_fit(*args, **kwargs):
        raise AssertionError("fitted")

    monkeypatch.setattr(quasi, "_coef_estimate", no_fit)
    monkeypatch.setattr(quasi, "_first_stage", no_fit)
    t = np.linspace(-1.0, 1.0, 41)
    d = (t >= 0.0).astype(float)
    columns = (1.0 + t, t) if estimator == "rdd_sharp" else (1.0 + t, t, d)
    with pytest.raises(InvalidInputError, match="cutoff must be a finite real number"):
        getattr(quasi, estimator)(*columns, cutoff=cutoff)


@pytest.mark.parametrize("cutoff", [0, np.float64(0.0), np.int64(0), 0.0])
def test_cutoff_of_any_real_number_type_gives_the_same_fit(cutoff):
    t = np.linspace(-1.0, 1.0, 41)
    y = 1.0 + 2.0 * t + 5.0 * (t >= 0.0)
    est = rdd_sharp(y, t, cutoff=cutoff)
    assert est.diagnostics["cutoff"] == 0.0
    assert est.point == rdd_sharp(y, t).point


def _quasi_draw(name, seed=91, n=400):
    """A seeded draw for the named row: its outcome column, and the call that
    estimates from an outcome column and a row order applied to every column.

    "ate_did" is `ate_did` on a two-period panel, "ate_did_covariates" the
    same with a covariate, and "ate_did_multiperiod" `ate_did` on three
    periods.
    """
    g = philox(seed)
    if name == "ate_2sls":
        z, u, x = g.normal(size=n), g.normal(size=n), g.normal(size=n)
        d = 0.3 + 0.8 * z + u + 0.5 * x
        y = 1.0 - d + 0.9 * u + 0.7 * x + 0.3 * g.normal(size=n)
        return y, lambda y, rows: ate_2sls(y[rows], d[rows], z[rows])
    if name.startswith("ate_did"):
        # n rows of units observed in every period, but the last unit of
        # three periods may miss its last ones
        n_periods = 3 if name == "ate_did_multiperiod" else 2
        n_units = -(-n // n_periods)
        unit = np.repeat(np.arange(n_units), n_periods)[:n]
        period = np.tile(np.arange(n_periods), n_units)[:n]
        group = (g.uniform(size=n_units) < 0.5)[unit].astype(float)
        treated = group * (period > 0)
        x = g.normal(size=n)
        y = 1.0 + group + period + 2.0 * treated + 1.5 * x + g.normal(size=n)
        columns = {"x": x} if name == "ate_did_covariates" else {}
        return y, lambda y, rows: ate_did(
            validate_panel(
                unit[rows], period[rows], y[rows], treated[rows],
                **{k: v[rows] for k, v in columns.items()},
            )
        )
    t = g.uniform(-1.0, 1.0, n)
    d = (t >= 0.1).astype(float)
    d = np.where((g.uniform(size=n) < 0.25) & (np.abs(t - 0.1) < 0.3), 1.0 - d, d)
    y = 1.0 + 2.0 * t + 5.0 * d + g.normal(size=n)
    if name == "rdd_sharp":
        return y, lambda y, rows: rdd_sharp(y[rows], t[rows], cutoff=0.1)
    return y, lambda y, rows: rdd_fuzzy(y[rows], t[rows], d[rows], cutoff=0.1)


_SWEPT = [
    "ate_2sls",
    "ate_did",
    "ate_did_covariates",
    "ate_did_multiperiod",
    "rdd_sharp",
    "rdd_fuzzy",
]


def _sc_problems():
    """Synthetic-control problems whose optimal donor weights are the same
    for every predictor weighting V, so they do not depend on where the
    outer search over V stops: `inside` has x1 in the donors' hull, fitted
    exactly by w_true; `outside` has x1 beyond donors 0 and 1 in the last
    two characteristics, where those donors tie, and between them in the
    first, so every V gives the edge weights (0.75, 0.25, 0, 0)."""
    g = philox(121)
    w_true = np.array([0.2, 0.5, 0.3, 0.0])
    x0, z0, y0 = g.normal(size=(4, 4)), g.normal(size=(3, 4)), g.normal(size=(2, 4))
    inside = ScProblem(
        x1=x0 @ w_true, x0=x0, z1=z0 @ w_true, z0=z0, y1=y0 @ w_true + 1.0, y0=y0
    )
    g = philox(120)
    edge = np.array([0.75, 0.25, 0.0, 0.0])
    z0, y0 = g.normal(size=(3, 4)), g.normal(size=(2, 4))
    outside = ScProblem(
        x1=[0.25, 2.0, 3.0],
        x0=[[0.0, 1.0, 0.3, 0.6], [1.0, 1.0, -0.5, 0.2], [1.0, 1.0, 0.4, -1.0]],
        z1=z0 @ edge + 0.1 * g.normal(size=3),
        z0=z0,
        y1=y0 @ edge + 1.0,
        y0=y0,
    )
    return {"inside": inside, "outside": outside}


class TestInvarianceSweep:
    @pytest.mark.parametrize("name", _SWEPT)
    def test_row_shuffle_leaves_point_and_variance(self, name):
        y, estimate = _quasi_draw(name)
        reference = estimate(y, np.arange(y.size))
        for seed in (92, 93, 94):
            est = estimate(y, philox(seed).permutation(y.size))
            assert est.point == pytest.approx(reference.point, rel=1e-10)
            assert est.variance == pytest.approx(reference.variance, rel=1e-10)

    @pytest.mark.parametrize("name", _SWEPT)
    @pytest.mark.parametrize("a, b", [(3.0, 7.0), (-0.25, -40.0)])
    def test_affine_outcome_scales_point_and_variance(self, name, a, b):
        y, estimate = _quasi_draw(name)
        rows = np.arange(y.size)
        reference = estimate(y, rows)
        est = estimate(a * y + b, rows)
        assert est.point == pytest.approx(a * reference.point, rel=1e-9)
        assert est.variance == pytest.approx(a * a * reference.variance, rel=1e-8)

    @pytest.mark.parametrize("where", ["inside", "outside", "study-101", "study-114"])
    @pytest.mark.parametrize("a, b", [(3.0, 7.0), (-2.0, 1.5), (1e3, -5.0), (1e-3, 2.0)])
    def test_affine_outcome_scales_synthetic_control(self, where, a, b):
        # [DERIVED] x1 and x0 are unchanged, and the pre-period mismatch only
        # scales by a^2, so the same V is optimal; the weights sum to one,
        # so the shift cancels and the post-period gap scales by a. Study
        # problems 101 and 114 are certified with three donors in the
        # support, so there the weights depend on V.
        problem = {**_sc_problems(), "study-101": _study_problem(101), "study-114": _study_problem(114)}[where]
        reference, fit = sc_fit(problem), sc_fit(_affine_outcomes(problem, a, b))
        j = problem.n_donors
        eps = np.finfo(float).eps
        # rounding of a y + b, of the j-term weighted sum of the donors and
        # of the mean, each relative to the magnitude |a| max|y| + |b|
        size = abs(a) * max(np.abs(problem.y1).max(), np.abs(problem.y0).max()) + abs(b)
        point_tol = 4 * (j + 4) * eps * size
        if where.startswith("study"):
            assert fit.estimate.diagnostics["outer_search"] == "certified"
            tol = _certified_weight_tol(problem, reference.weights, a, b)
            point_tol += j * size * tol  # the weights' own move
        else:
            # the weights come from a least-squares solve on at most j O(1),
            # well-conditioned donor columns: a few ulps per donor
            tol = 16 * j * eps
        np.testing.assert_allclose(fit.weights, reference.weights, rtol=0, atol=tol)
        assert fit.estimate.point == pytest.approx(a * reference.estimate.point, rel=0, abs=point_tol)


# the columns each estimator's `_quasi_draw` call is handed
_DRAW_COLUMNS = {
    "ate_2sls": 3,  # y, d, z
    "ate_did": 4,  # y, unit, period, treated
    "ate_did_covariates": 5,  # y, unit, period, treated, x
    "ate_did_multiperiod": 4,  # y, unit, period, treated
    "rdd_sharp": 2,  # y, t
    "rdd_fuzzy": 3,  # y, t, d
}


class TestScaling:
    @pytest.mark.parametrize("name", sorted(_DRAW_COLUMNS))
    def test_scales_to_1e5_rows(self, name):
        # [DERIVED] the bound grows with the data: COPIES_PER_COLUMN float64
        # copies of each column the call is handed, its row take included
        n = 100_000
        y, estimate = _quasi_draw(name, n=n)
        rows = np.arange(n)
        est, peak = traced_peak(lambda: estimate(y, rows))
        assert peak < COPIES_PER_COLUMN * 8 * n * _DRAW_COLUMNS[name]
        assert np.isfinite(est.point)
