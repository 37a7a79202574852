"""Estimators for non-ignorable assignment: IV/2SLS, DID, synthetic
control, and regression discontinuity."""

from __future__ import annotations

import numpy as np
import pytest

from causalest import (
    ScProblem,
    ate_2sls,
    ate_did,
    ate_did_covariates,
    ate_did_multiperiod,
    iv_ratio,
    rdd_fuzzy,
    rdd_sharp,
    sc_fit,
    sc_weights,
    validate_did,
)
from causalest import quasi
from causalest.errors import (
    ConvergenceError,
    DegenerateProblemError,
    DimensionMismatchError,
    EmptyCellError,
    NoFirstStageJumpError,
    NoTreatmentVariationError,
    NonFiniteValueError,
    OneSidedDataError,
    OrderConditionError,
    RankDeficientError,
    WeakInstrumentError,
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


class TestIvRatio:
    def test_hand_covariance_ratio(self):
        # [DERIVED] hand evaluation: Cov(z,y)/Cov(z,d) = 1.5/0.5 = 3
        est = iv_ratio([0.0, 6.0], [0.0, 2.0], [0.0, 1.0])
        assert est.point == pytest.approx(3.0, abs=1e-12)
        assert est.variance is None

    def test_self_instrument_equals_ols_slope(self):
        # [TRIVIAL] z = d makes the ratio the OLS slope of y on d
        g = philox(70)
        d = g.normal(size=200)
        y = 2.0 + 1.7 * d + g.normal(size=200)
        dc = d - d.mean()
        slope = (dc @ (y - y.mean())) / (dc @ dc)
        assert iv_ratio(y, d, d).point == pytest.approx(slope, abs=1e-12)

    def test_constant_instrument_rejected(self):
        with pytest.raises(WeakInstrumentError):
            iv_ratio([1.0, 2.0, 3.0], [0.0, 1.0, 2.0], [5.0, 5.0, 5.0])

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            iv_ratio([1.0, 2.0], [0.0, 1.0], [0.0])


class Test2sls:
    def test_self_instrument_reproduces_ols(self):
        # [DERIVED] projecting d on a set containing d is the identity
        g = philox(71)
        d = g.normal(size=200)
        y = 1.0 - 2.0 * d + g.normal(size=200)
        est = ate_2sls(y, d, z=d)
        beta, *_ = np.linalg.lstsq(np.column_stack([np.ones(200), d]), y, rcond=None)
        assert est.point == pytest.approx(beta[1], abs=1e-10)

    def test_just_identified_equals_iv_ratio(self):
        y, d, z = _endogenous_draw(72, 150)
        assert ate_2sls(y, d, z).point == pytest.approx(
            iv_ratio(y, d, z).point, abs=1e-10
        )

    def test_recovers_effect_under_endogeneity(self):
        # [DERIVED] the naive slope is contaminated by u; the instrumented
        # one recovers the structural -1
        y, d, z = _endogenous_draw(73, 20_000)
        naive, *_ = np.linalg.lstsq(
            np.column_stack([np.ones(y.size), d]), y, rcond=None
        )
        assert abs(naive[1] - (-1.0)) > 0.2
        assert ate_2sls(y, d, z).point == pytest.approx(-1.0, abs=0.05)

    def test_exogenous_covariates_oracle(self):
        # [DERIVED] oracle: both stages written out with lstsq
        g = philox(74)
        n = 300
        x = g.normal(size=n)
        z = g.normal(size=n)
        u = g.normal(size=n)
        d = 0.5 * x + z + u
        y = 2.0 - d + x + 0.5 * u + g.normal(size=n)
        est = ate_2sls(y, d, z, x=x)
        instruments = np.column_stack([np.ones(n), x, z])
        pi, *_ = np.linalg.lstsq(instruments, d, rcond=None)
        d_hat = instruments @ pi
        second = np.column_stack([np.ones(n), d_hat, x])
        beta, *_ = np.linalg.lstsq(second, y, rcond=None)
        assert est.point == pytest.approx(beta[1], abs=1e-10)

    def test_order_condition(self):
        g = philox(75)
        d2 = g.normal(size=(50, 2))
        with pytest.raises(OrderConditionError, match="cannot identify"):
            ate_2sls(g.normal(size=50), d2, z=g.normal(size=50))

    def test_first_stage_f_explodes_on_exact_fit(self):
        g = philox(76)
        z = g.normal(size=80)
        est = ate_2sls(g.normal(size=80), z, z=z)
        assert est.diagnostics["first_stage_f"] > 1e6

    def test_irrelevant_instrument_flagged_weak(self):
        # relevance failure surfaces in the diagnostic, not a silent answer
        g = philox(77)
        d = g.normal(size=100)
        z = g.normal(size=100)  # independent of d
        y = 1.0 + d + g.normal(size=100)
        est = ate_2sls(y, d, z)
        assert est.diagnostics["first_stage_f"] < 10.0


class TestDid:
    @staticmethod
    def _cells_dataset(means, reps=3):
        """Rows realizing exact cell means (y11, y10, y01, y00)."""
        y11, y10, y01, y00 = means
        y, group, period = [], [], []
        for g, p, m in ((1, 1, y11), (1, 0, y10), (0, 1, y01), (0, 0, y00)):
            y += [m] * reps
            group += [g] * reps
            period += [p] * reps
        return validate_did(np.array(y, dtype=float), group, period)

    def test_hand_double_difference(self):
        # [DERIVED] (10-6) - (5-3) = 2
        dd = self._cells_dataset((10.0, 6.0, 5.0, 3.0))
        assert ate_did(dd).point == pytest.approx(2.0, abs=1e-12)

    def test_equals_double_difference_of_cell_means(self):
        # [DERIVED] the saturated regression reproduces the cell-mean formula
        g = philox(78)
        n = 400
        group = (g.uniform(size=n) < 0.5).astype(float)
        period = (g.uniform(size=n) < 0.5).astype(float)
        y = 1 + 2 * group + 3 * period + 4 * group * period + g.normal(size=n)
        dd = validate_did(y, group, period)

        def cell(gv, pv):
            return y[(group == gv) & (period == pv)].mean()

        oracle = (cell(1, 1) - cell(1, 0)) - (cell(0, 1) - cell(0, 0))
        assert ate_did(dd).point == pytest.approx(oracle, abs=1e-10)

    def test_shift_invariance(self):
        # [TRIVIAL] group- and period-constant shifts are absorbed
        g = philox(79)
        n = 200
        group = (g.uniform(size=n) < 0.5).astype(float)
        period = (g.uniform(size=n) < 0.5).astype(float)
        y = g.normal(size=n)
        base = ate_did(validate_did(y, group, period)).point
        shifted = y + 11.0 + 7.0 * group - 3.0 * period
        assert ate_did(validate_did(shifted, group, period)).point == pytest.approx(
            base, abs=1e-9
        )

    def test_empty_cell(self):
        y = np.array([1.0, 2.0, 3.0])
        with pytest.raises(EmptyCellError, match="group=1, period=1"):
            ate_did(validate_did(y, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]))

    @pytest.mark.parametrize("empty", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_the_empty_cell_is_named(self, empty):
        cells = [(g, p) for g in (0, 1) for p in (0, 1) if (g, p) != empty]
        group, period = (np.array(c, dtype=float) for c in zip(*cells))
        dd = validate_did(np.arange(3.0), group, period)
        with pytest.raises(EmptyCellError, match=f"group={empty[0]}, period={empty[1]}$"):
            ate_did(dd)

    def test_non_binary_period_rejected_in_basic_design(self):
        dd = validate_did(
            np.arange(8.0),
            [0, 0, 1, 1, 0, 0, 1, 1],
            [0, 1, 0, 1, 2, 2, 2, 2],
        )
        with pytest.raises(ValueError, match="periods in"):
            ate_did(dd)

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="0/1"):
            validate_did([1.0, 2.0], [0.0, 2.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="non-negative integers"):
            validate_did([1.0, 2.0], [0.0, 1.0], [0.0, -1.0])
        with pytest.raises(ValueError, match="non-negative integers"):
            validate_did([1.0, 2.0], [0.0, 1.0], [0.0, 0.5])
        with pytest.raises(DimensionMismatchError):
            validate_did([1.0, 2.0], [0.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="treated"):
            validate_did([1.0, 2.0], [0.0, 1.0], [0.0, 1.0], treated=[0.0, 3.0])


class TestDidCovariates:
    @staticmethod
    def _draw(seed, n=300, beta_x=3.0):
        g = philox(seed)
        group = (g.uniform(size=n) < 0.5).astype(float)
        period = (g.uniform(size=n) < 0.5).astype(float)
        x = g.normal(size=n)
        y = (
            1.0
            + group
            + period
            + 2.0 * group * period
            + beta_x * x
            + 0.5 * g.normal(size=n)
        )
        return y, group, period, x

    def test_requires_covariates(self):
        with pytest.raises(ValueError, match="no covariates"):
            ate_did_covariates(
                validate_did([1.0, 2.0, 3.0, 4.0], [1, 1, 0, 0], [0, 1, 0, 1])
            )

    def test_orthogonal_covariate_leaves_estimate(self):
        # [TRIVIAL] a regressor orthogonal to the design changes nothing
        y, group, period, x = self._draw(80)
        base = np.column_stack(
            [np.ones(y.size), group, period, group * period]
        )
        x_orth = x - base @ np.linalg.lstsq(base, x, rcond=None)[0]
        with_x = ate_did_covariates(validate_did(y, group, period, x=x_orth))
        without = ate_did(validate_did(y, group, period))
        assert with_x.point == pytest.approx(without.point, abs=1e-8)

    def test_collinear_covariate_rejected(self):
        y, group, period, _ = self._draw(81)
        with pytest.raises(RankDeficientError):
            ate_did_covariates(validate_did(y, group, period, x=group))

    def test_covariate_cuts_monte_carlo_variance(self):
        # [DERIVED] precision gain: the x-term absorbs outcome noise
        with_x, without = [], []
        for i in range(200):
            y, group, period, x = self._draw(2000 + i, n=200)
            dd_x = validate_did(y, group, period, x=x)
            dd = validate_did(y, group, period)
            with_x.append(ate_did_covariates(dd_x).point)
            without.append(ate_did(dd).point)
        assert np.var(with_x, ddof=1) < np.var(without, ddof=1)


class TestDidMultiperiod:
    def test_two_periods_collapse_to_basic(self):
        g = philox(82)
        n = 200
        group = (g.uniform(size=n) < 0.5).astype(float)
        period = (g.uniform(size=n) < 0.5).astype(float)
        y = 1 + group + period - 4 * group * period + g.normal(size=n)
        dd = validate_did(y, group, period)
        assert ate_did_multiperiod(dd).point == pytest.approx(
            ate_did(dd).point, abs=1e-10
        )

    def test_noiseless_constant_effect_recovered(self):
        # [DERIVED] constructed noiseless three-period panel
        group = np.tile([1.0, 0.0], 30)
        period = np.repeat([0.0, 1.0, 2.0], 20)
        treated = group * (period >= 1.0)
        y = 10.0 + 3.0 * group + 2.0 * (period == 1) + 5.0 * (period == 2) + 4.0 * treated
        dd = validate_did(y, group, period, treated=treated)
        est = ate_did_multiperiod(dd)
        assert est.point == pytest.approx(4.0, abs=1e-10)
        assert est.diagnostics["n_periods"] == 3

    def test_common_shock_absorbed_by_time_dummy(self):
        g = philox(83)
        n = 240
        group = (g.uniform(size=n) < 0.5).astype(float)
        period = g.integers(0, 3, size=n).astype(float)
        treated = group * (period == 2.0)
        y = g.normal(size=n) + 2.0 * treated
        dd = validate_did(y, group, period, treated=treated)
        base = ate_did_multiperiod(dd).point
        shocked = y + 9.0 * (period == 1.0)
        dd2 = validate_did(shocked, group, period, treated=treated)
        assert ate_did_multiperiod(dd2).point == pytest.approx(base, abs=1e-9)

    def test_requires_explicit_treated_beyond_two_periods(self):
        dd = validate_did(
            np.arange(6.0), [1, 1, 1, 0, 0, 0], [0, 1, 2, 0, 1, 2]
        )
        with pytest.raises(ValueError, match="explicit treated indicator"):
            ate_did_multiperiod(dd)

    def test_constant_treatment_rejected(self):
        dd = validate_did(
            np.arange(4.0),
            [1, 1, 0, 0],
            [0, 1, 0, 1],
            treated=[0.0, 0.0, 0.0, 0.0],
        )
        with pytest.raises(NoTreatmentVariationError):
            ate_did_multiperiod(dd)


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

        monkeypatch.setattr(quasi, "nnls", capped_nnls)
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
        assert fit.pre_rmse == pytest.approx(0.0, abs=1e-12)

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

    def test_outer_search_convergence_reported(self):
        fit = sc_fit(self._convex_problem(96, np.array([0.2, 0.5, 0.3])))
        assert fit.outer_converged is True
        assert fit.outer_iterations > 0
        assert fit.estimate.diagnostics["outer_converged"] is True
        assert fit.estimate.diagnostics["outer_iterations"] == fit.outer_iterations
        # one donor leaves nothing to search
        single = sc_fit(
            ScProblem(x1=[1.0], x0=[[9.0]], z1=[2.0], z0=[[1.0]], y1=[4.0], y0=[[1.0]])
        )
        assert (single.outer_converged, single.outer_iterations) == (True, 0)

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


class TestRddSharp:
    def test_noiseless_jump_recovered_exactly(self):
        # [TRIVIAL] noiseless piecewise-linear data
        t = np.linspace(-1.0, 1.0, 41)
        y = 1.0 + 2.0 * t + 5.0 * (t >= 0.0)
        est = rdd_sharp(y, t)
        assert est.point == pytest.approx(5.0, abs=1e-10)
        assert est.diagnostics["n_right"] == 21
        assert est.diagnostics["n_left"] == 20

    def test_nonzero_cutoff(self):
        t = np.linspace(0.0, 4.0, 81)
        y = -1.0 + 0.5 * (t - 2.0) + 3.0 * (t >= 2.0)
        assert rdd_sharp(y, t, cutoff=2.0).point == pytest.approx(3.0, abs=1e-10)

    def test_bandwidth_restricts_sample(self):
        t = np.linspace(-1.0, 1.0, 41)
        y = 1.0 + 2.0 * t + 5.0 * (t >= 0.0)
        est = rdd_sharp(y, t, bandwidth=0.5)
        assert est.n_used == int(np.sum(np.abs(t) <= 0.5))
        assert est.point == pytest.approx(5.0, abs=1e-10)
        with pytest.raises(ValueError, match="bandwidth"):
            rdd_sharp(y, t, bandwidth=0.0)

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
        assert 0.05 < est.diagnostics["first_stage_jump"] < 1.0

    def test_no_first_stage_jump(self):
        t = np.linspace(-1.0, 1.0, 50)
        with pytest.raises(NoFirstStageJumpError):
            rdd_fuzzy(np.ones(50), t, np.ones(50))

    def test_length_mismatch(self):
        t = np.linspace(-1.0, 1.0, 50)
        with pytest.raises(DimensionMismatchError, match="d must"):
            rdd_fuzzy(np.ones(50), t, np.ones(49))

    def test_length_mismatch_with_bandwidth(self):
        # d is checked against y before the bandwidth subsets the rows
        t = np.linspace(-1.0, 1.0, 50)
        with pytest.raises(DimensionMismatchError, match="d must"):
            rdd_fuzzy(np.ones(50), t, np.ones(49), bandwidth=0.5)


def _quasi_draw(name, seed=91, n=400):
    """A seeded draw for the named estimator: its outcome column, and the
    call that estimates from an outcome column and a row order applied to
    every column."""
    g = philox(seed)
    if name in ("ate_2sls", "iv_ratio"):
        z, u, x = g.normal(size=n), g.normal(size=n), g.normal(size=n)
        d = 0.3 + 0.8 * z + u + 0.5 * x
        y = 1.0 - d + 0.9 * u + 0.7 * x + 0.3 * g.normal(size=n)
        if name == "iv_ratio":
            return y, lambda y, rows: iv_ratio(y[rows], d[rows], z[rows])
        return y, lambda y, rows: ate_2sls(y[rows], d[rows], z[rows], x=x[rows])
    if name.startswith("ate_did"):
        group = (g.uniform(size=n) < 0.5).astype(float)
        n_periods = 3 if name == "ate_did_multiperiod" else 2
        period = g.integers(0, n_periods, size=n).astype(float)
        treated = group * (period > 0.0)
        x = g.normal(size=n)
        y = 1.0 + group + period + 2.0 * treated + 1.5 * x + g.normal(size=n)
        estimator = {
            "ate_did": ate_did,
            "ate_did_covariates": ate_did_covariates,
            "ate_did_multiperiod": ate_did_multiperiod,
        }[name]
        return y, lambda y, rows: estimator(
            validate_did(y[rows], group[rows], period[rows], x=x[rows], treated=treated[rows])
        )
    t = g.uniform(-1.0, 1.0, n)
    d = (t >= 0.1).astype(float)
    d = np.where((g.uniform(size=n) < 0.25) & (np.abs(t - 0.1) < 0.3), 1.0 - d, d)
    y = 1.0 + 2.0 * t + 5.0 * d + g.normal(size=n)
    if name == "rdd_sharp":
        return y, lambda y, rows: rdd_sharp(y[rows], t[rows], cutoff=0.1, bandwidth=0.8)
    return y, lambda y, rows: rdd_fuzzy(y[rows], t[rows], d[rows], cutoff=0.1, bandwidth=0.8)


_SWEPT = [
    "ate_2sls",
    "iv_ratio",
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
            if reference.variance is None:  # iv_ratio reports a point only
                assert est.variance is None
            else:
                assert est.variance == pytest.approx(reference.variance, rel=1e-10)

    @pytest.mark.parametrize("name", _SWEPT)
    @pytest.mark.parametrize("a, b", [(3.0, 7.0), (-0.25, -40.0)])
    def test_affine_outcome_scales_point_and_variance(self, name, a, b):
        y, estimate = _quasi_draw(name)
        rows = np.arange(y.size)
        reference = estimate(y, rows)
        est = estimate(a * y + b, rows)
        assert est.point == pytest.approx(a * reference.point, rel=1e-9)
        if reference.variance is None:
            assert est.variance is None
        else:
            assert est.variance == pytest.approx(a * a * reference.variance, rel=1e-8)

    @pytest.mark.parametrize("where", ["inside", "outside"])
    @pytest.mark.parametrize("a, b", [(3.0, 7.0), (-2.0, 1.5), (1e3, -5.0), (1e-3, 2.0)])
    def test_affine_outcome_scales_synthetic_control(self, where, a, b):
        # [DERIVED] x1 and x0 are unchanged, so the inner weights are too, and
        # the pre-period mismatch only scales by a^2; the weights sum to one,
        # so the shift cancels and the post-period gap scales by a
        problem = _sc_problems()[where]
        moved = ScProblem(
            x1=problem.x1,
            x0=problem.x0,
            **{name: a * getattr(problem, name) + b for name in ("z1", "z0", "y1", "y0")},
        )
        reference, fit = sc_fit(problem), sc_fit(moved)
        j = problem.n_donors
        eps = np.finfo(float).eps
        # the weights come from a least-squares solve on at most j O(1),
        # well-conditioned donor columns: a few ulps per donor
        np.testing.assert_allclose(fit.weights, reference.weights, rtol=0, atol=16 * j * eps)
        # rounding of a y + b, of the j-term weighted sum of the donors and
        # of the mean, each relative to the magnitude |a| max|y| + |b|
        size = abs(a) * max(np.abs(problem.y1).max(), np.abs(problem.y0).max()) + abs(b)
        assert fit.estimate.point == pytest.approx(
            a * reference.estimate.point, rel=0, abs=4 * (j + 4) * eps * size
        )


# the columns each estimator's `_quasi_draw` call is handed
_DRAW_COLUMNS = {
    "ate_2sls": 4,  # y, d, z, x
    "iv_ratio": 3,  # y, d, z
    "ate_did": 5,  # y, group, period, x, treated
    "ate_did_covariates": 5,
    "ate_did_multiperiod": 5,
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
