"""Cross-sectional effect estimators: OR, IPW, PSR, stratification,
matching and the augmented (doubly robust) combination."""

from __future__ import annotations

import inspect
import tracemalloc

import numpy as np
import pytest
from scipy.special import expit

from causalest import (
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
    fit_logistic,
    fit_outcome_model,
    predict,
    quantile_strata,
    validate,
)
from causalest import regress
from causalest.errors import (
    DimensionMismatchError,
    EmptyTreatmentArmError,
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
        psr_points.append(ate_psr(ds, fit).point)
        strat_points.append(ate_stratification(ds, fit).point)
    return {"psr": np.array(psr_points), "strat": np.array(strat_points)}


def test_each_estimator_takes_only_the_dataset_and_its_fits():
    # the outcome model uses all of the dataset's x, the score regression
    # (1, d, p), every contrast is d = 1 against d = 0, matching is
    # one-to-one, and stratification and the balance table block on score
    # quintiles
    signatures = {
        fit_outcome_model: ["ds"],
        ate_or: ["ds", "outcome_fit"],
        ate_ipw: ["ds", "fit"],
        ate_psr: ["ds", "fit"],
        ate_stratification: ["ds", "fit"],
        ate_matching: ["ds", "fit"],
        ate_dr: ["ds", "fit", "outcome_fit"],
        balance_diagnostic: ["ds", "fit"],
        quantile_strata: ["scores"],
    }
    for estimator, parameters in signatures.items():
        assert list(inspect.signature(estimator).parameters) == parameters, estimator.__name__


# every estimator that contrasts the arms d = 1 and d = 0, as (ds, fit) -> result
_ARM_ENTRY_POINTS = {
    "difference_in_means": lambda ds, fit: difference_in_means(ds),
    "estimate_propensity_binary": lambda ds, fit: estimate_propensity_binary(ds),
    "ate_ipw": ate_ipw,
    "ate_psr": ate_psr,
    "ate_stratification": ate_stratification,
    "ate_matching": ate_matching,
    "ate_dr": ate_dr,
    "balance_diagnostic": balance_diagnostic,
}


def _arm_check_data(d):
    """A 200-row dataset with one covariate and treatment `d`, and a score
    fit of it that is valid for any d."""
    g = philox(58)
    x = g.normal(size=200)
    y = 1.0 + 2.0 * (d == 1.0) + x + g.normal(size=200)
    return validate(y, d, x), PropensityFit.from_scores(expit(0.3 * x), d)


@pytest.fixture
def no_fit(monkeypatch):
    """Make any least-squares or logistic fit fail the test: every SVD
    solve goes through `regress._svd_solve`."""

    def solve(*args, **kwargs):
        raise AssertionError("a fit ran before the arm check")

    monkeypatch.setattr(regress, "_svd_solve", solve)


@pytest.mark.parametrize("entry", _ARM_ENTRY_POINTS)
class TestArmCheck:
    """One rule for the arms: d is a 0/1 indicator with a unit in each
    arm, checked before any fit. A fit of one arm would read a rank-deficient
    design (psr's (1, d, p), dr's (1, d, x)) or a single-class response."""

    def test_treatment_other_than_0_1_is_an_input_error(self, entry, no_fit):
        # [TRIVIAL] 20 of 200 units at d = 0.5, which is neither arm: the
        # weighting and doubly robust estimators would read them as controls
        d = (philox(59).uniform(size=200) < 0.5).astype(float)
        d[::10] = 0.5
        ds, fit = _arm_check_data(d)
        with pytest.raises(InvalidInputError, match=r"^the treatment must be a binary \(0/1\) indicator$"):
            _ARM_ENTRY_POINTS[entry](ds, fit)

    @pytest.mark.parametrize("arm", ["treated", "control"])
    def test_empty_arm_names_the_arm(self, entry, arm, no_fit):
        # [TRIVIAL] every unit in the other arm
        ds, fit = _arm_check_data(np.full(200, 0.0 if arm == "treated" else 1.0))
        with pytest.raises(EmptyTreatmentArmError, match=f"^no unit is in the {arm} arm$"):
            _ARM_ENTRY_POINTS[entry](ds, fit)


class TestOutcomeRegression:
    def test_exact_linear_dgp(self):
        # [TRIVIAL] y = 3 + 2d with no noise on a continuous d: predictions
        # at d = 1 and d = 0 are 5 and 3
        d = np.array([0.0, 1.0, 2.0, 3.0])
        ds = validate(3.0 + 2.0 * d, d)
        assert ate_or(ds).point == pytest.approx(2.0, abs=1e-10)

    def test_no_covariates_equals_difference_in_means(self):
        # [TRIVIAL] saturated-in-d model reproduces the two arm means; the
        # covariates are left out by leaving them out of the dataset
        ds = randomized_binary(32, 150)
        est = ate_or(validate(ds.y, ds.d))
        dim = difference_in_means(ds)
        assert est.point == pytest.approx(dim.point, abs=1e-12)

    @pytest.mark.parametrize("p", [0, 1, 3])
    def test_point_and_variance_match_lstsq_oracle(self, p):
        # [DERIVED] oracle: one linear model serves both arms, so the
        # contrast is d's coefficient of y ~ (1, d, x) and its variance that
        # coefficient's entry of sigma^2 (X'X)^-1
        g = philox(50 + p)
        n = 400
        x = g.normal(size=(n, p))
        d = (g.uniform(size=n) < expit(0.3 + 0.4 * x.sum(axis=1))).astype(float)
        y = 1.0 - 1.5 * d + x @ np.linspace(0.5, -0.5, p) + g.normal(size=n)
        est = ate_or(validate(y, d, x))
        design = np.column_stack([np.ones(n), d, x])
        beta, rss, *_ = np.linalg.lstsq(design, y, rcond=None)
        cov = rss[0] / (n - design.shape[1]) * np.linalg.inv(design.T @ design)
        assert est.point == pytest.approx(beta[1], abs=1e-10)
        assert est.variance == pytest.approx(cov[1, 1], rel=1e-9)

    def test_randomized_linear_recovery(self):
        # [DERIVED] direct simulation with known coefficients
        g = philox(34)
        n = 10_000
        x = g.normal(size=n)
        d = (g.uniform(size=n) < 0.5).astype(float)
        y = 1.0 + 2.0 * d + 0.5 * x + g.normal(size=n)
        est = ate_or(validate(y, d, x))
        assert est.point == pytest.approx(2.0, abs=0.05)


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
        assert est.diagnostics == {"n_treated": 2, "n_control": 2}

    def test_constant_share_reduces_to_arm_mean(self):
        # [TRIVIAL] Horvitz-Thompson with the empirical shares as weights:
        # arm means 6 and 5
        ds = validate([3.0, 6.0, 9.0, 5.0], [1.0, 1.0, 1.0, 0.0])
        fit = PropensityFit.from_scores([0.75] * 4, ds.d)
        assert ate_ipw(ds, fit).point == pytest.approx(6.0 - 5.0, abs=1e-12)

    def test_zero_propensity_floor(self):
        ds = validate([1.0, 2.0], [1.0, 0.0])
        fit = PropensityFit.from_scores([1e-15, 0.5], ds.d)
        with pytest.raises(ZeroPropensityError, match="a treated unit has an assignment score"):
            ate_ipw(ds, fit)

    def test_floor_ignores_off_indicator_units(self):
        # a vanishing treated-probability on a CONTROL unit never divides
        ds = validate([1.0, 2.0, 3.0], [0.0, 1.0, 0.0])
        fit = PropensityFit.from_scores([1e-15, 0.5, 0.1], ds.d)
        est = ate_ipw(ds, fit)
        assert np.isfinite(est.point)


class TestPsr:
    def test_additive_polynomial_oracle(self):
        # [DERIVED] oracle: effect and variance read off the treatment
        # coefficient of y ~ (1, d, p), solved by normal equations
        ds = confounded_binary(37, 300)
        p1 = expit(2.0 + 0.5 * ds.x[:, 0])
        fit = PropensityFit.from_scores(p1, ds.d)
        est = ate_psr(ds, fit)
        design = np.column_stack([np.ones(ds.n), ds.d, p1])
        beta, rss, *_ = np.linalg.lstsq(design, ds.y, rcond=None)
        cov = rss[0] / (ds.n - 3) * np.linalg.inv(design.T @ design)
        assert est.point == pytest.approx(beta[1], abs=1e-10)
        assert est.variance == pytest.approx(cov[1, 1], rel=1e-9)
        assert est.diagnostics == {"degenerate_score": False}

    def test_degenerate_constant_score(self):
        # [TRIVIAL] constant score carries no information: difference in means
        ds = randomized_binary(39, 120)
        fit = PropensityFit.from_scores([0.5] * ds.n, ds.d)
        est = ate_psr(ds, fit)
        assert est.diagnostics["degenerate_score"] is True
        assert est.point == pytest.approx(difference_in_means(ds).point, abs=1e-12)

    def test_monte_carlo_recovery(self, cs1_mc_points):
        # [DERIVED] Monte Carlo against the known effect -5
        av = cs1_mc_points["psr"].mean()
        assert abs(av - (-5.0)) < 0.15


class TestStratification:
    def test_hand_weighted_average(self):
        # [DERIVED] five score groups of 2, 4, 4, 4 and 6 units are the five
        # quintile strata; hand evaluation of the size-weighted differences:
        # 0.1*2 + 0.2*1 + 0.2*3 + 0.2*(-1) + 0.3*4 = 2
        y = np.array([5.0, 3.0, 4, 4, 3, 3, 6, 3, 6, 3, 2, 2, 3, 3, 9, 9, 9, 5, 5, 5])
        d = np.array([1.0, 0.0, 1, 1, 0, 0, 1, 0, 1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 0])
        p1 = np.repeat([0.1, 0.3, 0.5, 0.7, 0.9], [2, 4, 4, 4, 6])
        ds = validate(y, d)
        fit = PropensityFit.from_scores(p1, d)
        est = ate_stratification(ds, fit)
        assert est.point == pytest.approx(2.0, abs=1e-12)
        assert est.n_used == 20
        assert est.diagnostics == {"n_unusable_strata": 0, "n_excluded_units": 0}

    def test_one_stratum_equals_difference_in_means(self):
        # [TRIVIAL] a constant score puts every unit in one stratum, which
        # collapses to the plain contrast
        ds = randomized_binary(42, 80)
        fit = PropensityFit.from_scores([0.5] * ds.n, ds.d)
        est = ate_stratification(ds, fit)
        assert est.point == pytest.approx(difference_in_means(ds).point, abs=1e-12)
        assert est.n_used == ds.n
        assert est.diagnostics["n_unusable_strata"] == 4

    def test_missing_arm_renormalizes(self):
        # five score groups of four; the top one holds only treated units
        y = np.array([5.0, 5, 3, 3, 4, 4, 3, 3, 6, 6, 3, 3, 1, 1, 3, 3, 7, 7, 7, 7])
        d = np.array([1.0, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 1, 1])
        p1 = np.repeat([0.1, 0.3, 0.5, 0.7, 0.9], 4)
        ds = validate(y, d)
        est = ate_stratification(ds, PropensityFit.from_scores(p1, d))
        # usable strata have diffs 2, 1, 3 and -2 with equal renormalized weights
        assert est.point == pytest.approx(1.0, abs=1e-12)
        assert est.n_used == 16
        assert est.diagnostics["n_unusable_strata"] == 1
        assert est.diagnostics["n_excluded_units"] == 4

    def test_no_usable_stratum(self):
        # five tied pairs, one stratum each, and each pair is one arm
        d = np.array([1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0])
        p1 = np.repeat([0.1, 0.3, 0.5, 0.7, 0.9], 2)
        ds = validate(np.ones(10), d)
        with pytest.raises(NoUsableStratumError):
            ate_stratification(ds, PropensityFit.from_scores(p1, d))

    def test_variance_requires_two_per_arm(self):
        y = np.array([5.0, 3.0, 4.0])
        d = np.array([1.0, 0.0, 0.0])  # singleton treated arm
        ds = validate(y, d)
        fit = PropensityFit.from_scores([0.5] * 3, d)
        est = ate_stratification(ds, fit)
        assert est.variance is None and est.ci is None

    def test_monte_carlo_quintile_blocking(self, cs1_mc_points):
        # [DERIVED] Monte Carlo: quintile blocking removes most confounding
        av = cs1_mc_points["strat"].mean()
        assert abs(av - (-5.0)) < 0.25


def dense_matching_point(ds, p1):
    """Oracle: the full n_t x n_c distance matrix with a stable row argsort.
    Candidates sit in ascending index order, so distance ties go to the
    lowest index."""
    treated = ds.d == 1.0
    idx_t = np.flatnonzero(treated)
    idx_c = np.flatnonzero(~treated)

    def imputed_from(targets, pool):
        dist = np.abs(p1[targets][:, None] - p1[pool][None, :])
        return ds.y[pool][np.argsort(dist, axis=1, kind="stable")[:, 0]]

    effect_t = ds.y[idx_t] - imputed_from(idx_t, idx_c)
    effect_c = imputed_from(idx_c, idx_t) - ds.y[idx_c]
    return float((effect_t.sum() + effect_c.sum()) / ds.n)


class TestMatching:
    def test_hand_example(self):
        # [DERIVED] hand evaluation of the matched-pair formula: every
        # imputation contributes an effect of 3
        y = np.array([5.0, 4.0, 2.0, 1.0])
        d = np.array([1.0, 1.0, 0.0, 0.0])
        p1 = np.array([0.6, 0.3, 0.55, 0.25])
        ds = validate(y, d)
        est = ate_matching(ds, PropensityFit.from_scores(p1, d))
        assert est.point == pytest.approx(3.0, abs=1e-12)
        assert est.variance is None
        assert est.diagnostics == {}

    def test_distance_tie_goes_to_lowest_index(self):
        y = np.array([10.0, 0.0, 2.0])
        d = np.array([1.0, 0.0, 0.0])
        p1 = np.array([0.5, 0.4, 0.6])  # both controls 0.1 away
        ds = validate(y, d)
        est = ate_matching(ds, PropensityFit.from_scores(p1, d))
        assert est.point == pytest.approx((10.0 + 10.0 + 8.0) / 3.0, abs=1e-12)

    def test_identical_pairs_give_zero(self):
        # [TRIVIAL] equal outcomes in tied matched pairs cancel exactly
        ds = validate([4.0, 4.0], [1.0, 0.0])
        fit = PropensityFit.from_scores([0.5, 0.5], ds.d)
        assert ate_matching(ds, fit).point == 0.0

    def test_equals_dense_oracle_exactly(self):
        # [ORACLE] the two-candidate search returns the dense search's match,
        # so the point is bit-identical; every other draw rounds the scores
        # to one decimal, which puts large tie groups on both sides of most
        # targets
        g = philox(47)
        for draw in range(200):
            n = int(g.integers(5, 401))
            d = np.zeros(n)
            d[g.permutation(n)[: int(g.integers(1, n))]] = 1.0
            p1 = g.uniform(0.02, 0.98, n)
            if draw % 2:
                p1 = np.clip(np.round(p1, 1), 0.1, 0.9)
            ds = validate(g.normal(size=n), d)
            est = ate_matching(ds, PropensityFit.from_scores(p1, d))
            assert est.point == dense_matching_point(ds, p1), (draw, n)

    def test_ties_on_both_sides_go_to_lowest_index(self):
        # [DERIVED] the treated units at 0.5 are equally far (0.1, exactly
        # in floating point) from every control at 0.4 and 0.6, so each
        # matches the lowest-index control, whichever side it lies on: above
        # the treated units, then, with 0.4 and 0.6 swapped, below them
        above = np.array([0.5, 0.6, 0.4, 0.6, 0.5, 0.4, 0.6, 0.4, 0.5, 0.6, 0.4])
        below = np.where(above == 0.6, 0.4, np.where(above == 0.4, 0.6, 0.5))
        assert 0.5 - 0.4 == 0.6 - 0.5
        for p1 in (above, below):
            d = (p1 == 0.5).astype(float)
            y = np.where(d == 1.0, 0.0, 2.0 ** np.arange(11))  # distinct subset sums
            ds = validate(y, d)
            est = ate_matching(ds, PropensityFit.from_scores(p1, d))
            control_y = y[d == 0.0]
            effect_t = -control_y[0]  # control 1
            expected = (3 * effect_t - control_y.sum()) / ds.n
            assert est.point == pytest.approx(expected, abs=1e-12)
            assert est.point == dense_matching_point(ds, p1)

    def test_rounding_ties_between_distinct_scores(self):
        # [ORACLE] 0.9 - 0.1 and 0.9 - nextafter(0.1) round to the same
        # distance, so the farther, lower-index control wins the tie
        p1 = np.array([0.1, np.nextafter(0.1, 1.0), 0.9])
        d = np.array([0.0, 0.0, 1.0])
        assert 0.9 - p1[0] == 0.9 - p1[1]
        ds = validate([0.0, 1.0, 10.0], d)
        est = ate_matching(ds, PropensityFit.from_scores(p1, d))
        assert est.point == dense_matching_point(ds, p1) == 29.0 / 3.0

    def test_scales_to_1e5_rows(self):
        # [SCALING] the dense search would need about 20 GB here; check the
        # peak allocation and 200 targets against a brute-force search over
        # the whole opposite arm
        ds = confounded_binary(48, 100_000)
        p1 = expit(2.0 + 0.5 * ds.x[:, 0])
        fit = PropensityFit.from_scores(p1, ds.d)
        tracemalloc.start()
        try:
            ate_matching(ds, fit)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        treated = ds.d == 1.0
        g = philox(49)
        for targets, pool in ((p1[treated], p1[~treated]), (p1[~treated], p1[treated])):
            found = _nearest(targets, pool)
            for i in g.choice(targets.size, 100, replace=False):
                brute = np.argsort(np.abs(targets[i] - pool), kind="stable")[0]
                assert found[i] == brute


def three_design_dr(ds, fit):
    """Oracle: the augmented estimator with a fresh design per arm, beside
    the fitted one, each built column by column, and P(D=0|x) formed as
    1 - P(D=1|x)."""
    or_fit = fit_outcome_model(ds)
    arms = []
    for arm in (1.0, 0.0):
        m = predict(or_fit, np.column_stack([np.ones(ds.n), np.full(ds.n, arm), ds.x]))
        ind = (ds.d == arm).astype(float)
        p = fit.scores_treated if arm == 1.0 else 1.0 - fit.scores_treated
        arms.append(m + ind * (ds.y - m) / p)
    contrib = arms[0] - arms[1]
    return float(contrib.mean()), float(contrib.var(ddof=1) / ds.n)


def _drop_x(ds):
    """The same draw without its covariates."""
    return validate(ds.y, ds.d)


# the dataset shapes an outcome fit sees: x with 2 columns, and none
SHAPES = pytest.mark.parametrize("shape", [lambda ds: ds, _drop_x], ids=["full", "no-x"])


class TestDoublyRobust:
    @SHAPES
    def test_matches_three_design_oracle(self, shape):
        # [DERIVED] bit for bit: one counterfactual design overwritten per
        # arm gives the same numbers as a new design per arm; the score is
        # fitted on x either way, and y carries a d-by-x interaction that
        # the outcome model leaves out
        g = philox(47)
        x = g.normal(size=(3000, 2))
        d = (g.uniform(size=3000) < expit(0.3 + x @ [0.5, -0.4])).astype(float)
        y = 1.0 + 0.8 * d + x @ [0.6, 0.3] - 0.4 * d * x[:, 0] + g.normal(size=3000)
        ds = validate(y, d, x)
        fit = estimate_propensity_binary(ds)
        est = ate_dr(shape(ds), fit)
        assert (est.point, est.variance) == three_design_dr(shape(ds), fit)

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


def one_minus_p_ipw(ds, p1):
    """Oracle: the Horvitz-Thompson contrast with P(D=0|x) formed as
    1 - P(D=1|x); (point, variance)."""
    ind1, ind0 = (ds.d == 1.0).astype(float), (ds.d == 0.0).astype(float)
    contrib = ind1 * ds.y / p1 - ind0 * ds.y / (1.0 - p1)
    return float(contrib.mean()), float(contrib.var(ddof=1) / ds.n)


class TestReceivedArmScores:
    def test_ipw_and_dr_equal_the_one_minus_p_formula(self):
        # [ORACLE] bit for bit: both arms divide by the received-arm score,
        # which is p where d = 1 and 1 - p where d = 0, and a unit off an
        # arm adds 0*y/score, the same signed zero for any positive score;
        # scores rounded to 0.1 put many units on each score, and outcomes
        # of both signs give zeros of both signs
        g = philox(52)
        for draw in range(50):
            n = int(g.integers(20, 400))
            x = g.normal(size=(n, 2))
            p1 = np.clip(np.round(expit(x @ [0.8, -0.5]), 1), 0.1, 0.9)
            d = (g.uniform(size=n) < p1).astype(float)
            y = 0.5 * d + x @ [0.5, 0.5] + g.normal(size=n)
            ds = validate(y, d, x)
            fit = PropensityFit.from_scores(p1, d)
            ipw, dr = ate_ipw(ds, fit), ate_dr(ds, fit)
            assert (ipw.point, ipw.variance) == one_minus_p_ipw(ds, p1), draw
            assert (dr.point, dr.variance) == three_design_dr(ds, fit), draw


def _bits(est):
    return np.array([est.point, est.variance, *est.ci]).view(np.int64)


class TestSharedOutcomeFit:
    @staticmethod
    def _draw():
        g = philox(48)
        x = g.normal(size=(800, 2))
        d = (g.uniform(size=800) < expit(0.2 + x @ [0.5, -0.4])).astype(float)
        y = 0.5 + 0.8 * d + x @ [0.6, 0.3] + g.normal(size=800)
        return validate(y, d, x)

    @SHAPES
    def test_passed_fit_is_bit_identical_to_self_fitted(self, shape):
        # [DERIVED] a fit made beforehand gives the same bits as the fit the
        # estimator makes itself, for both estimators that take one
        full = self._draw()
        score = estimate_propensity_binary(full)
        ds = shape(full)
        outcome = fit_outcome_model(ds)
        own = ate_or(ds)
        shared = ate_or(ds, outcome)
        assert np.array_equal(_bits(shared), _bits(own))
        assert shared.diagnostics == own.diagnostics
        own = ate_dr(ds, score)
        shared = ate_dr(ds, score, outcome)
        assert np.array_equal(_bits(shared), _bits(own))
        assert shared.diagnostics == own.diagnostics

    def test_fit_of_the_wrong_width_rejected(self):
        ds = self._draw()
        score = estimate_propensity_binary(ds)
        no_x = fit_outcome_model(_drop_x(ds))
        full = fit_outcome_model(ds)
        with pytest.raises(DimensionMismatchError, match="design width 2, the dataset needs 4"):
            ate_or(ds, no_x)
        with pytest.raises(DimensionMismatchError, match="design width 4, the dataset needs 2"):
            ate_dr(_drop_x(ds), score, full)

    def test_logit_fit_rejected(self):
        # a logistic fit of a binary outcome has the outcome model's width,
        # but log-odds coefficients: the identity-link contrast and its
        # variance would not describe it
        g = philox(3)
        x = g.normal(size=(400, 1))
        d = (g.uniform(size=400) < 0.5).astype(float)
        y = (g.uniform(size=400) < expit(-0.3 + 0.8 * d + x[:, 0])).astype(float)
        ds = validate(y, d, x)
        logit = fit_logistic(np.column_stack([np.ones(400), d, x]), y)
        assert logit.coef.shape[0] == 3
        with pytest.raises(InvalidInputError, match="outcome fit has link 'logit'"):
            ate_or(ds, logit)
        with pytest.raises(InvalidInputError, match="outcome fit has link 'logit'"):
            ate_dr(ds, estimate_propensity_binary(ds), logit)

    def test_fit_of_another_row_count_rejected(self):
        ds = self._draw()
        full = fit_outcome_model(ds)
        half = ds.take(np.arange(400))
        with pytest.raises(LengthMismatchError, match="800 rows, the dataset 400"):
            ate_or(half, full)
        with pytest.raises(LengthMismatchError, match="800 rows, the dataset 400"):
            ate_dr(half, estimate_propensity_binary(half), full)

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
            (ate_psr(ds, fit).point, ate_psr(ds_p, fit_p).point),
            (ate_stratification(ds, fit).point, ate_stratification(ds_p, fit_p).point),
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
    "ate_psr": ate_psr,
    "ate_stratification": ate_stratification,
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
