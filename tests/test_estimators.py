"""Cross-sectional effect estimators: OR, IPW, PSR, stratification,
matching and the augmented (doubly robust) combination."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from scipy.special import expit

from causalest import (
    LOGIT,
    OrSpec,
    PropensityFit,
    ate_dr,
    ate_ipw,
    ate_matching,
    ate_or,
    ate_psr,
    ate_stratification,
    balance_diagnostic,
    difference_in_means,
    estimate_propensity_binary,
    fit_outcome_model,
    predict,
    validate,
)
from causalest.errors import (
    DimensionMismatchError,
    EmptyDoseGroupError,
    InsufficientMatchesError,
    InvalidInputError,
    LengthMismatchError,
    NoUsableStratumError,
    ZeroPropensityError,
)
from causalest.estimators import _nearest

from .conftest import (
    COPIES_PER_COLUMN,
    confounded_binary,
    philox,
    randomized_binary,
    traced_peak,
)


@pytest.fixture(scope="module")
def cs1_mc_points():
    """1,000 confounded draws at n=1,000 with an estimated score per draw,
    shared by the Monte Carlo recovery tests in this module."""
    psr_points, strat_points = [], []
    for i in range(1000):
        ds = confounded_binary(3000 + i, 1000)
        fit = estimate_propensity_binary(ds)
        psr_points.append(ate_psr(ds, fit, poly_degree=2).point)
        strat_points.append(ate_stratification(ds, fit, n_strata=5).point)
    return {"psr": np.array(psr_points), "strat": np.array(strat_points)}


class TestOrSpec:
    def test_unknown_link(self):
        with pytest.raises(ValueError, match="unknown link"):
            OrSpec(link="probit")

    def test_bad_column_index(self):
        ds = confounded_binary(30, 50)
        with pytest.raises(ValueError, match="does not exist"):
            ate_or(ds, spec=OrSpec(covariate_selection=(3,)))

    def test_empty_selection_drops_covariates(self):
        # [TRIVIAL] selecting no columns reduces to the treatment-only model
        ds = confounded_binary(31, 200)
        est = ate_or(ds, spec=OrSpec(covariate_selection=()))
        assert est.point == pytest.approx(difference_in_means(ds).point, abs=1e-12)


class TestOutcomeRegression:
    def test_exact_linear_dgp(self):
        # [TRIVIAL] y = 3 + 2d with no noise: predictions at doses 5 and 0
        # are 13 and 3
        d = np.array([0.0, 1.0, 2.0, 3.0])
        ds = validate(3.0 + 2.0 * d, d)
        assert ate_or(ds, 5.0, 0.0).point == pytest.approx(10.0, abs=1e-10)

    def test_no_covariates_equals_difference_in_means(self):
        # [TRIVIAL] saturated-in-d model reproduces the two arm means
        ds = randomized_binary(32, 150)
        est = ate_or(ds, spec=OrSpec(covariate_selection=()))
        dim = difference_in_means(ds)
        assert est.point == pytest.approx(dim.point, abs=1e-12)

    def test_identical_doses_give_zero(self):
        ds = randomized_binary(33, 100)
        assert ate_or(ds, 1.0, 1.0).point == 0.0

    def test_randomized_linear_recovery(self):
        # [DERIVED] direct simulation with known coefficients
        g = philox(34)
        n = 10_000
        x = g.normal(size=n)
        d = (g.uniform(size=n) < 0.5).astype(float)
        y = 1.0 + 2.0 * d + 0.5 * x + g.normal(size=n)
        est = ate_or(validate(y, d, x))
        assert est.point == pytest.approx(2.0, abs=0.05)

    def test_interactions_equal_per_arm_fits(self):
        # [DERIVED] oracle: a fully interacted pooled fit predicts exactly
        # like two separate per-arm regressions
        ds = confounded_binary(35, 400)
        est = ate_or(ds, spec=OrSpec(interactions_with_d=True))
        treated = ds.d == 1.0
        design = np.column_stack([np.ones(ds.n), ds.x])
        bt, *_ = np.linalg.lstsq(design[treated], ds.y[treated], rcond=None)
        bc, *_ = np.linalg.lstsq(design[~treated], ds.y[~treated], rcond=None)
        oracle = (design @ bt - design @ bc).mean()
        assert est.point == pytest.approx(oracle, abs=1e-10)

    def test_logit_link_averages_response_scale(self):
        # predictions are inverted through the link before averaging
        g = philox(36)
        n = 500
        x = g.normal(size=n)
        d = (g.uniform(size=n) < 0.5).astype(float)
        y = (g.uniform(size=n) < expit(0.3 + 0.8 * d + x)).astype(float)
        ds = validate(y, d, x, treatment_kind="binary")
        spec = OrSpec(link="logit")
        est = ate_or(ds, spec=spec)
        from causalest import fit_outcome_model

        fit = fit_outcome_model(ds, spec)
        design1 = np.column_stack([np.ones(n), np.ones(n), x])
        design0 = np.column_stack([np.ones(n), np.zeros(n), x])
        oracle = expit(design1 @ fit.coef).mean() - expit(design0 @ fit.coef).mean()
        assert est.point == pytest.approx(oracle, abs=1e-12)


class TestIpw:
    def test_apo_hand_example(self):
        # [DERIVED] hand evaluation of the treated arm's weighted mean:
        # (1/4)(3/0.5 + 5/0.5) = 4, less a control arm of zero outcomes
        ds = validate([3.0, 5.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0])
        fit = PropensityFit.from_scores([0.5] * 4, ds.d)
        assert ate_ipw(ds, fit).point == pytest.approx(4.0, abs=1e-12)

    def test_ate_hand_example(self):
        # [DERIVED] hand evaluation: (1/4)(6 + 10 - 4 - 8) = 1
        ds = validate([3.0, 5.0, 2.0, 4.0], [1.0, 1.0, 0.0, 0.0])
        fit = PropensityFit.from_scores([0.5] * 4, ds.d)
        est = ate_ipw(ds, fit)
        assert est.point == pytest.approx(1.0, abs=1e-12)
        assert est.diagnostics == {"n_at_dose": 2, "n_at_ref": 2}

    def test_constant_share_reduces_to_arm_mean(self):
        # [TRIVIAL] Horvitz-Thompson with the empirical shares as weights:
        # arm means 6 and 5
        ds = validate([3.0, 6.0, 9.0, 5.0], [1.0, 1.0, 1.0, 0.0])
        fit = PropensityFit.from_scores([0.75] * 4, ds.d)
        assert ate_ipw(ds, fit).point == pytest.approx(6.0 - 5.0, abs=1e-12)

    def test_empty_dose_group(self):
        ds = validate([1.0, 2.0], [1.0, 0.0])
        fit = PropensityFit.from_scores([0.5, 0.5], ds.d)
        with pytest.raises(EmptyDoseGroupError):
            ate_ipw(ds, fit, 2.0)

    def test_zero_propensity_floor(self):
        ds = validate([1.0, 2.0], [1.0, 0.0])
        fit = PropensityFit.from_scores([1e-15, 0.5], ds.d)
        with pytest.raises(ZeroPropensityError):
            ate_ipw(ds, fit)

    def test_floor_ignores_off_indicator_units(self):
        # a vanishing treated-probability on a CONTROL unit never divides
        ds = validate([1.0, 2.0, 3.0], [0.0, 1.0, 0.0])
        fit = PropensityFit.from_scores([1e-15, 0.5, 0.1], ds.d)
        est = ate_ipw(ds, fit)
        assert np.isfinite(est.point)


class TestPsr:
    def test_additive_polynomial_oracle(self):
        # [DERIVED] oracle: effect reads off the treatment coefficient of
        # y ~ (1, d, p, p^2) solved by normal equations
        ds = confounded_binary(37, 300)
        p1 = expit(2.0 + 0.5 * ds.x[:, 0])
        fit = PropensityFit.from_scores(p1, ds.d)
        est = ate_psr(ds, fit, poly_degree=2)
        design = np.column_stack([np.ones(ds.n), ds.d, p1, p1**2])
        beta, *_ = np.linalg.lstsq(design, ds.y, rcond=None)
        assert est.point == pytest.approx(beta[1], abs=1e-10)

    def test_interaction_contrast_oracle(self):
        # [DERIVED] with d-by-score interactions the averaged contrast is
        # beta_d + beta_{dp} * mean(p)
        ds = confounded_binary(38, 300)
        p1 = expit(2.0 + 0.5 * ds.x[:, 0])
        fit = PropensityFit.from_scores(p1, ds.d)
        est = ate_psr(ds, fit, poly_degree=1, interactions=True)
        design = np.column_stack([np.ones(ds.n), ds.d, p1, ds.d * p1])
        beta, *_ = np.linalg.lstsq(design, ds.y, rcond=None)
        assert est.point == pytest.approx(beta[1] + beta[3] * p1.mean(), abs=1e-10)

    def test_degenerate_constant_score(self):
        # [TRIVIAL] constant score carries no information: difference in means
        ds = randomized_binary(39, 120)
        fit = PropensityFit.from_scores([0.5] * ds.n, ds.d)
        est = ate_psr(ds, fit, poly_degree=3)
        assert est.diagnostics["degenerate_score"] is True
        assert est.point == pytest.approx(difference_in_means(ds).point, abs=1e-12)

    def test_identical_doses_give_zero(self):
        ds = randomized_binary(40, 100)
        fit = estimate_propensity_binary(ds)
        assert ate_psr(ds, fit, dose=1.0, ref_dose=1.0).point == 0.0

    def test_poly_degree_validated(self):
        ds = randomized_binary(41, 50)
        fit = estimate_propensity_binary(ds)
        with pytest.raises(ValueError, match="poly_degree"):
            ate_psr(ds, fit, poly_degree=0)

    def test_requires_binary(self):
        d = np.linspace(0.0, 3.0, 30)
        ds = validate(np.ones(30), d, np.ones(30))
        fit = PropensityFit.from_scores([0.5] * 30, (d > 1).astype(float))
        with pytest.raises(ValueError, match="binary"):
            ate_psr(ds, fit)

    def test_monte_carlo_recovery_degree2(self, cs1_mc_points):
        # [DERIVED] Monte Carlo against the known effect -5
        av = cs1_mc_points["psr"].mean()
        assert abs(av - (-5.0)) < 0.15


class TestStratification:
    def test_hand_weighted_average(self):
        # [DERIVED] hand evaluation: 0.4*(5-3) + 0.6*(9-8) = 1.4
        y = np.array([5.0, 5.0, 3.0, 3.0, 9.0, 9.0, 9.0, 8.0, 8.0, 8.0])
        d = np.array([1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
        p1 = np.array([0.2] * 4 + [0.8] * 6)
        ds = validate(y, d)
        fit = PropensityFit.from_scores(p1, d)
        est = ate_stratification(ds, fit, n_strata=2)
        assert est.point == pytest.approx(1.4, abs=1e-12)
        assert est.n_used == 10

    def test_one_stratum_equals_difference_in_means(self):
        # [TRIVIAL] J=1 collapses to the plain contrast
        ds = randomized_binary(42, 80)
        fit = estimate_propensity_binary(ds)
        est = ate_stratification(ds, fit, n_strata=1)
        assert est.point == pytest.approx(difference_in_means(ds).point, abs=1e-12)

    def test_missing_arm_renormalizes(self):
        y = np.array([5.0, 5.0, 3.0, 3.0, 4.0, 4.0, 3.0, 3.0, 7.0, 7.0, 7.0, 7.0])
        d = np.array([1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
        p1 = np.array([0.1] * 4 + [0.5] * 4 + [0.9] * 4)
        ds = validate(y, d)
        est = ate_stratification(ds, PropensityFit.from_scores(p1, d), n_strata=3)
        # usable strata have diffs 2 and 1 with equal renormalized weights
        assert est.point == pytest.approx(1.5, abs=1e-12)
        assert est.n_used == 8
        assert est.diagnostics["n_unusable_strata"] == 1
        assert est.diagnostics["n_excluded_units"] == 4

    def test_no_usable_stratum(self):
        d = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
        p1 = np.array([0.2] * 3 + [0.8] * 3)
        ds = validate(np.ones(6), d)
        with pytest.raises(NoUsableStratumError):
            ate_stratification(ds, PropensityFit.from_scores(p1, d), n_strata=2)

    def test_variance_requires_two_per_arm(self):
        y = np.array([5.0, 3.0, 4.0])
        d = np.array([1.0, 0.0, 0.0])  # singleton treated arm
        ds = validate(y, d)
        fit = PropensityFit.from_scores([0.5] * 3, d)
        est = ate_stratification(ds, fit, n_strata=1)
        assert est.variance is None and est.ci is None

    def test_monte_carlo_quintile_blocking(self, cs1_mc_points):
        # [DERIVED] Monte Carlo: quintile blocking removes most confounding
        av = cs1_mc_points["strat"].mean()
        assert abs(av - (-5.0)) < 0.25


def dense_matching_point(ds, p1, n_matches):
    """Oracle: the full n_t x n_c distance matrix with a stable row argsort.
    Candidates sit in ascending index order, so distance ties go to the
    lowest index."""
    treated = ds.d == 1.0
    idx_t = np.flatnonzero(treated)
    idx_c = np.flatnonzero(~treated)

    def imputed_from(targets, pool):
        dist = np.abs(p1[targets][:, None] - p1[pool][None, :])
        order = np.argsort(dist, axis=1, kind="stable")[:, :n_matches]
        return ds.y[pool][order].mean(axis=1)

    effect_t = ds.y[idx_t] - imputed_from(idx_t, idx_c)
    effect_c = imputed_from(idx_c, idx_t) - ds.y[idx_c]
    return float((effect_t.sum() + effect_c.sum()) / ds.n)


class TestMatching:
    def test_hand_example(self):
        # [DERIVED] hand evaluation of the matched-set formula: every
        # imputation contributes an effect of 3
        y = np.array([5.0, 4.0, 2.0, 1.0])
        d = np.array([1.0, 1.0, 0.0, 0.0])
        p1 = np.array([0.6, 0.3, 0.55, 0.25])
        ds = validate(y, d)
        est = ate_matching(ds, PropensityFit.from_scores(p1, d), n_matches=1)
        assert est.point == pytest.approx(3.0, abs=1e-12)
        assert est.variance is None

    def test_distance_tie_goes_to_lowest_index(self):
        y = np.array([10.0, 0.0, 2.0])
        d = np.array([1.0, 0.0, 0.0])
        p1 = np.array([0.5, 0.4, 0.6])  # both controls 0.1 away
        ds = validate(y, d)
        est = ate_matching(ds, PropensityFit.from_scores(p1, d), n_matches=1)
        assert est.point == pytest.approx((10.0 + 10.0 + 8.0) / 3.0, abs=1e-12)

    def test_identical_pairs_give_zero(self):
        # [TRIVIAL] equal outcomes in tied matched pairs cancel exactly
        ds = validate([4.0, 4.0], [1.0, 0.0])
        fit = PropensityFit.from_scores([0.5, 0.5], ds.d)
        assert ate_matching(ds, fit).point == 0.0

    def test_insufficient_matches(self):
        ds = validate([1.0, 2.0, 3.0], [1.0, 0.0, 0.0])
        fit = PropensityFit.from_scores([0.5, 0.4, 0.6], ds.d)
        with pytest.raises(InsufficientMatchesError):
            ate_matching(ds, fit, n_matches=2)

    def test_n_matches_validated(self):
        ds = validate([1.0, 2.0], [1.0, 0.0])
        fit = PropensityFit.from_scores([0.5, 0.5], ds.d)
        with pytest.raises(ValueError, match="n_matches"):
            ate_matching(ds, fit, n_matches=0)

    def test_equals_dense_oracle_exactly(self):
        # [ORACLE] the windowed search returns the dense search's matches in
        # the dense order, so the point is bit-identical; every other draw
        # rounds the scores to one decimal, which puts large tie groups on
        # both sides of most targets
        g = philox(47)
        for draw in range(200):
            n = int(g.integers(5, 401))
            k = int(g.integers(1, min(4, n // 2) + 1))
            d = np.zeros(n)
            d[g.permutation(n)[: int(g.integers(k, n - k + 1))]] = 1.0
            p1 = g.uniform(0.02, 0.98, n)
            if draw % 2:
                p1 = np.clip(np.round(p1, 1), 0.1, 0.9)
            ds = validate(g.normal(size=n), d)
            est = ate_matching(ds, PropensityFit.from_scores(p1, d), n_matches=k)
            assert est.point == dense_matching_point(ds, p1, k), (draw, n, k)

    def test_ties_on_both_sides_go_to_lowest_index(self):
        # [DERIVED] the treated units at 0.5 are equally far (0.1, exactly
        # in floating point) from every control at 0.4 and 0.6, so each
        # matches the three lowest-index controls, whichever side they lie on
        p1 = np.array([0.5, 0.6, 0.4, 0.6, 0.5, 0.4, 0.6, 0.4, 0.5, 0.6, 0.4])
        d = (p1 == 0.5).astype(float)
        assert 0.5 - 0.4 == 0.6 - 0.5
        y = np.where(d == 1.0, 0.0, 2.0 ** np.arange(11))  # distinct subset sums
        ds = validate(y, d)
        est = ate_matching(ds, PropensityFit.from_scores(p1, d), n_matches=3)
        control_y = y[d == 0.0]
        effect_t = -control_y[:3].mean()  # controls 1, 2 and 3
        expected = (3 * effect_t - control_y.sum()) / ds.n
        assert est.point == pytest.approx(expected, abs=1e-12)
        assert est.point == dense_matching_point(ds, p1, 3)

    def test_rounding_ties_between_distinct_scores(self):
        # [ORACLE] 0.9 - 0.1 and 0.9 - nextafter(0.1) round to the same
        # distance, so the farther, lower-index control wins the tie
        p1 = np.array([0.1, np.nextafter(0.1, 1.0), 0.9])
        d = np.array([0.0, 0.0, 1.0])
        assert 0.9 - p1[0] == 0.9 - p1[1]
        ds = validate([0.0, 1.0, 10.0], d)
        est = ate_matching(ds, PropensityFit.from_scores(p1, d))
        assert est.point == dense_matching_point(ds, p1, 1) == 29.0 / 3.0

    def test_scales_to_1e5_rows(self):
        # [SCALING] the dense search would need about 20 GB here; check the
        # peak allocation and 200 targets against a brute-force search over
        # the whole opposite arm
        k = 2
        ds = confounded_binary(48, 100_000)
        p1 = expit(2.0 + 0.5 * ds.x[:, 0])
        fit = PropensityFit.from_scores(p1, ds.d)
        tracemalloc.start()
        try:
            ate_matching(ds, fit, n_matches=k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        treated = ds.d == 1.0
        g = philox(49)
        for targets, pool in ((p1[treated], p1[~treated]), (p1[~treated], p1[treated])):
            found = _nearest(targets, pool, k)
            for i in g.choice(targets.size, 100, replace=False):
                brute = np.argsort(np.abs(targets[i] - pool), kind="stable")[:k]
                np.testing.assert_array_equal(found[i], brute)


def three_design_dr(ds, fit, spec):
    """Oracle: the augmented estimator with a fresh design per arm, beside
    the fitted one, each built column by column."""
    or_fit = fit_outcome_model(ds, spec)
    xs = ds.x if spec.covariate_selection is None else ds.x[:, spec.covariate_selection]
    arms = []
    for dose in (1.0, 0.0):
        d = np.full(ds.n, dose)
        cols = [np.ones(ds.n), d, xs]
        if spec.interactions_with_d:
            cols.append(d[:, None] * xs)
        m = predict(or_fit, np.column_stack(cols))
        ind = (ds.d == dose).astype(float)
        arms.append(m + ind * (ds.y - m) / fit.score_at(dose))
    contrib = arms[0] - arms[1]
    return float(contrib.mean()), float(contrib.var(ddof=1) / ds.n)


class TestDoublyRobust:
    @pytest.mark.parametrize(
        "spec",
        [
            OrSpec(interactions_with_d=True),
            OrSpec(interactions_with_d=True, covariate_selection=(1,)),
            OrSpec(link=LOGIT),
            OrSpec(link=LOGIT, interactions_with_d=True),
        ],
        ids=["interactions", "selected-interactions", "logit", "logit-interactions"],
    )
    def test_matches_three_design_oracle(self, spec):
        # [DERIVED] bit for bit: one counterfactual design overwritten per
        # arm gives the same numbers as a new design per arm
        g = philox(47)
        x = g.normal(size=(3000, 2))
        d = (g.uniform(size=3000) < expit(0.3 + x @ [0.5, -0.4])).astype(float)
        index = 1.0 + 0.8 * d + x @ [0.6, 0.3] - 0.4 * d * x[:, 0]
        if spec.link == LOGIT:
            y = (g.uniform(size=3000) < expit(index)).astype(float)
        else:
            y = index + g.normal(size=3000)
        ds = validate(y, d, x)
        fit = estimate_propensity_binary(ds)
        est = ate_dr(ds, fit, spec=spec)
        assert (est.point, est.variance) == three_design_dr(ds, fit, spec)

    def test_augmented_formula_oracle(self):
        # [DERIVED] oracle: m(d,x) from normal equations plus the weighted
        # residual correction, composed independently of the implementation
        ds = confounded_binary(43, 200)
        p1 = expit(2.0 + 0.5 * ds.x[:, 0])
        fit = PropensityFit.from_scores(p1, ds.d)
        est = ate_dr(ds, fit)
        design = np.column_stack([np.ones(ds.n), ds.d, ds.x])
        beta, *_ = np.linalg.lstsq(design, ds.y, rcond=None)
        m1 = np.column_stack([np.ones(ds.n), np.ones(ds.n), ds.x]) @ beta
        m0 = np.column_stack([np.ones(ds.n), np.zeros(ds.n), ds.x]) @ beta
        hi = m1 + ds.d * (ds.y - m1) / p1
        lo = m0 + (1.0 - ds.d) * (ds.y - m0) / (1.0 - p1)
        assert est.point == pytest.approx((hi - lo).mean(), abs=1e-10)

    def test_zero_propensity_raises(self):
        ds = validate([1.0, 2.0, 3.0], [1.0, 0.0, 1.0], [0.1, 0.2, 0.3])
        fit = PropensityFit.from_scores([1e-15, 0.5, 0.6], ds.d)
        with pytest.raises(ZeroPropensityError):
            ate_dr(ds, fit)

    def test_or_ipw_dr_agree_under_randomization(self):
        # [DERIVED] with constant true assignment probability all three
        # estimators target the same contrast
        ds = randomized_binary(44, 10_000)
        fit = estimate_propensity_binary(ds)
        pts = {
            "or": ate_or(ds).point,
            "ipw": ate_ipw(ds, fit).point,
            "dr": ate_dr(ds, fit).point,
        }
        assert abs(pts["or"] - 2.0) < 0.1
        for a in pts.values():
            for b in pts.values():
                assert abs(a - b) < 0.1


def _bits(est):
    return np.array([est.point, est.variance, *est.ci]).view(np.int64)


class TestSharedOutcomeFit:
    SPECS = [
        OrSpec(),
        OrSpec(covariate_selection=()),
        OrSpec(interactions_with_d=True, covariate_selection=(1,)),
        OrSpec(link=LOGIT),
    ]

    @staticmethod
    def _draw(spec):
        g = philox(48)
        x = g.normal(size=(800, 2))
        d = (g.uniform(size=800) < expit(0.2 + x @ [0.5, -0.4])).astype(float)
        index = 0.5 + 0.8 * d + x @ [0.6, 0.3]
        if spec.link == LOGIT:
            y = (g.uniform(size=800) < expit(index)).astype(float)
        else:
            y = index + g.normal(size=800)
        return validate(y, d, x)

    @pytest.mark.parametrize("spec", SPECS, ids=["full", "no-x", "selected-interactions", "logit"])
    def test_passed_fit_is_bit_identical_to_self_fitted(self, spec):
        # [DERIVED] a fit made beforehand gives the same bits as the fit the
        # estimator makes itself, for both estimators that take one
        ds = self._draw(spec)
        score = estimate_propensity_binary(ds)
        outcome = fit_outcome_model(ds, spec)
        for dose, ref in ((1.0, 0.0), (0.0, 1.0)):
            own = ate_or(ds, dose, ref, spec=spec)
            shared = ate_or(ds, dose, ref, spec=spec, outcome_fit=outcome)
            assert np.array_equal(_bits(shared), _bits(own))
            assert shared.diagnostics == own.diagnostics
            own = ate_dr(ds, score, dose, ref, spec=spec)
            shared = ate_dr(ds, score, dose, ref, spec=spec, outcome_fit=outcome)
            assert np.array_equal(_bits(shared), _bits(own))
            assert shared.diagnostics == own.diagnostics

    def test_fit_of_the_wrong_width_rejected(self):
        ds = self._draw(OrSpec())
        score = estimate_propensity_binary(ds)
        no_x = fit_outcome_model(ds, OrSpec(covariate_selection=()))
        full = fit_outcome_model(ds)
        with pytest.raises(DimensionMismatchError, match="design width 2, the spec needs 4"):
            ate_or(ds, outcome_fit=no_x)
        with pytest.raises(DimensionMismatchError, match="design width 4, the spec needs 2"):
            ate_dr(ds, score, spec=OrSpec(covariate_selection=()), outcome_fit=full)
        with pytest.raises(DimensionMismatchError, match="the spec needs 6"):
            ate_dr(ds, score, spec=OrSpec(interactions_with_d=True), outcome_fit=full)

    def test_fit_of_another_link_or_row_count_rejected(self):
        ds = self._draw(OrSpec())
        full = fit_outcome_model(ds)
        with pytest.raises(InvalidInputError, match="link 'identity', the spec has 'logit'"):
            ate_or(ds, spec=OrSpec(link=LOGIT), outcome_fit=full)
        with pytest.raises(LengthMismatchError, match="800 rows, the dataset 400"):
            ate_or(ds.take(np.arange(400)), outcome_fit=full)

    @pytest.mark.parametrize(
        "estimator",
        [ate_ipw, ate_dr, balance_diagnostic, ate_psr, ate_stratification, ate_matching],
        ids=["ate_ipw", "ate_dr", "balance_diagnostic",
             "ate_psr", "ate_stratification", "ate_matching"],
    )
    def test_score_fit_of_another_row_count_rejected(self, estimator):
        # a score fit on other rows would pair the dataset's units with other
        # units' scores, or fail inside NumPy
        ds = confounded_binary(45, 200)
        fit = estimate_propensity_binary(ds)
        with pytest.raises(LengthMismatchError, match="score fit has 200 rows, the dataset 150"):
            estimator(ds.take(np.arange(150)), fit)


class TestPermutationInvariance:
    def test_row_order_never_matters(self):
        ds = confounded_binary(45, 300)
        p1 = expit(2.0 + 0.5 * ds.x[:, 0])
        perm = philox(46).permutation(ds.n)
        ds_p = ds.take(perm)
        fit = PropensityFit.from_scores(p1, ds.d)
        fit_p = PropensityFit.from_scores(p1[perm], ds_p.d)
        pairs = [
            (ate_or(ds).point, ate_or(ds_p).point),
            (ate_ipw(ds, fit).point, ate_ipw(ds_p, fit_p).point),
            (
                ate_psr(ds, fit, poly_degree=2).point,
                ate_psr(ds_p, fit_p, poly_degree=2).point,
            ),
            (
                ate_stratification(ds, fit, 5).point,
                ate_stratification(ds_p, fit_p, 5).point,
            ),
            (ate_matching(ds, fit).point, ate_matching(ds_p, fit_p).point),
            (ate_dr(ds, fit).point, ate_dr(ds_p, fit_p).point),
        ]
        for original, permuted in pairs:
            assert original == pytest.approx(permuted, abs=1e-10)



# each cross-sectional estimator, on a dataset and a fixed score fit
_CROSS_SECTIONAL = {
    "difference_in_means": lambda ds, fit: difference_in_means(ds),
    "ate_or": lambda ds, fit: ate_or(ds),
    "ate_ipw": ate_ipw,
    "ate_psr": lambda ds, fit: ate_psr(ds, fit, poly_degree=2),
    "ate_stratification": lambda ds, fit: ate_stratification(ds, fit, 5),
    "ate_matching": ate_matching,
    "ate_dr": ate_dr,
}


class TestAffineOutcome:
    """y -> a y + b, on TestPermutationInvariance's draw and score."""

    @staticmethod
    def _draw():
        ds = confounded_binary(45, 300)
        p1 = expit(2.0 + 0.5 * ds.x[:, 0])
        treated = ds.d == 1.0
        for targets, pool in ((p1[treated], p1[~treated]), (p1[~treated], p1[treated])):
            # no distance ties, so no match is decided by the lowest index
            dist = np.sort(np.abs(targets[:, None] - pool[None, :]), axis=1)
            assert (dist[:, 0] < dist[:, 1]).all()
        return ds, PropensityFit.from_scores(p1, ds.d)

    @pytest.mark.parametrize("a, b", [(3.0, 7.0), (-0.25, -40.0)])
    @pytest.mark.parametrize("name", sorted(set(_CROSS_SECTIONAL) - {"ate_ipw"}))
    def test_point_scales_by_a_and_variance_by_a_squared(self, name, a, b):
        # [DERIVED] the scores do not see y and both arms shift by b, so an
        # effect scales by a and its variance by a^2
        ds, fit = self._draw()
        estimate = _CROSS_SECTIONAL[name]
        reference = estimate(ds, fit)
        est = estimate(validate(a * ds.y + b, ds.d, ds.x), fit)
        assert est.point == pytest.approx(a * reference.point, rel=1e-9, abs=1e-12)
        if reference.variance is None:  # matching reports a point only
            assert est.variance is None
        else:
            assert est.variance == pytest.approx(a * a * reference.variance, rel=1e-8)

    @pytest.mark.parametrize("a, b", [(3.0, 7.0), (-0.25, -40.0)])
    def test_ipw_is_linear_but_moves_with_a_shift(self, a, b):
        # [DERIVED] Horvitz-Thompson weights 1/p need not average to one in
        # an arm, so ipw(a y + b) = a ipw(y) + b ipw(1), with ipw(1) != 0
        ds, fit = self._draw()
        reference = ate_ipw(ds, fit)
        of_one = ate_ipw(validate(np.ones(ds.n), ds.d, ds.x), fit).point
        assert of_one != 0.0
        est = ate_ipw(validate(a * ds.y + b, ds.d, ds.x), fit)
        assert est.point == pytest.approx(a * reference.point + b * of_one, rel=1e-9)
        scaled = ate_ipw(validate(a * ds.y, ds.d, ds.x), fit)
        assert scaled.point == pytest.approx(a * reference.point, rel=1e-9)
        assert scaled.variance == pytest.approx(a * a * reference.variance, rel=1e-8)


class TestScaling:
    @pytest.mark.parametrize("name", sorted(_CROSS_SECTIONAL))
    def test_scales_to_1e5_rows(self, name):
        # [DERIVED] the bound grows with the data: COPIES_PER_COLUMN float64
        # copies of each of the four columns y, d, x and the score
        n = 100_000
        ds = confounded_binary(48, n)
        fit = PropensityFit.from_scores(expit(2.0 + 0.5 * ds.x[:, 0]), ds.d)
        est, peak = traced_peak(lambda: _CROSS_SECTIONAL[name](ds, fit))
        assert peak < COPIES_PER_COLUMN * 8 * n * 4
        assert np.isfinite(est.point)
