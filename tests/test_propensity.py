"""Assignment models, trimming, stratification, and balance checks."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from scipy.special import expit

from causalest import (
    PropensityFit,
    ate_ipw,
    balance_diagnostic,
    estimate_propensity_binary,
    fit_logistic,
    predict,
    quantile_strata,
    trim_overlap,
    validate,
)
from causalest.errors import (
    AllUnitsTrimmedError,
    DimensionMismatchError,
    EmptyTreatmentArmError,
    InvalidInputError,
    LengthMismatchError,
    NonFiniteValueError,
    ZeroPropensityError,
)

from .conftest import (
    confounded_binary,
    count_svd_solves,
    newton_start_inverse,
    randomized_binary,
    saturating_binary,
)


def test_score_fit_holds_only_what_the_estimators_read():
    # the scores and the start a bootstrap replicate's fit takes, of k
    # and k x k numbers; the rest of the logistic fit behind them is not kept
    assert [f.name for f in dataclasses.fields(PropensityFit)] == [
        "scores_treated", "scores", "diagnostics", "start"
    ]
    ds = confounded_binary(26, 600)
    assert [part.shape for part in estimate_propensity_binary(ds).start] == [(2,), (2, 2)]


class TestBinaryPropensity:
    def test_scores_are_received_dose_probabilities(self):
        ds = confounded_binary(21, 400)
        fit = estimate_propensity_binary(ds)
        p1 = fit.scores_treated
        assert np.array_equal(fit.scores, np.where(ds.d == 1.0, p1, 1.0 - p1))
        assert np.all((fit.scores > 0) & (fit.scores < 1))

    def test_parameter_recovery(self):
        # [DERIVED] the logistic fit behind the scores recovers the
        # generating (2, 0.5) at n=10,000
        ds = confounded_binary(22, 10_000)
        fit = estimate_propensity_binary(ds)
        model = fit_logistic(np.column_stack([np.ones(ds.n), ds.x]), ds.d)
        assert np.array_equal(fit.scores_treated, model.fitted)
        np.testing.assert_allclose(model.coef, [2.0, 0.5], atol=0.1)

    def test_single_arm_rejected(self):
        # the empty arm is named, as every estimator that contrasts the arms
        # names it, before the logistic fit would see a single class
        ds = validate([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
        with pytest.raises(EmptyTreatmentArmError, match="^no unit is in the control arm$"):
            estimate_propensity_binary(ds)

    @pytest.mark.parametrize("seed", [1, 7, 8])
    def test_saturated_fit_is_an_estimation_error(self, seed):
        # [DERIVED] far-out units get fitted scores of exactly 0 or 1: the
        # input is well-formed, so the failure is the fit's, not the input's
        ds = validate(*saturating_binary(seed))
        with pytest.raises(ZeroPropensityError, match="exactly 0 or 1") as info:
            estimate_propensity_binary(ds)
        assert not isinstance(info.value, InvalidInputError)

    def test_affine_rescaling_invariance(self):
        # [DERIVED] P(D=1|x) is unchanged by x -> a + b x
        ds = confounded_binary(23, 500)
        shifted = validate(ds.y, ds.d, 7.0 - 3.0 * ds.x)
        p_orig = estimate_propensity_binary(ds).scores_treated
        p_shift = estimate_propensity_binary(shifted).scores_treated
        np.testing.assert_allclose(p_orig, p_shift, atol=1e-8)

    def test_from_scores_wraps_external_probabilities(self):
        p1 = np.array([0.2, 0.7, 0.4])
        d = np.array([1.0, 0.0, 1.0])
        fit = PropensityFit.from_scores(p1, d)
        np.testing.assert_allclose(fit.scores, [0.2, 0.3, 0.4])
        assert fit.scores_treated.tolist() == [0.2, 0.7, 0.4]

    def test_from_scores_rejects_boundary(self):
        with pytest.raises(ValueError, match="strictly"):
            PropensityFit.from_scores([0.0, 0.5], [1.0, 0.0])

    def test_from_scores_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            PropensityFit.from_scores([0.5], [1.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_from_scores_rejects_non_finite(self, bad):
        with pytest.raises(NonFiniteValueError, match="non-finite"):
            PropensityFit.from_scores([0.5, bad, 0.4], [1.0, 0.0, 1.0])

    def test_constructor_rejects_nan_scores(self):
        # a NaN passes a (0, 1) range test, since every comparison with it
        # is false
        nan = np.nan
        with pytest.raises(NonFiniteValueError, match="scores"):
            PropensityFit(scores_treated=[0.5, nan], scores=[0.5, nan])

    def test_constructor_rejects_nan_scores_treated(self):
        with pytest.raises(NonFiniteValueError, match="scores_treated"):
            PropensityFit(scores_treated=[0.5, np.nan], scores=[0.5, 0.5])

    def test_constructor_keeps_the_float_vectors_it_coerces(self):
        # [DERIVED] oracle: the same fit built from arrays
        ds = validate([1.0, 3.0, 2.0, 5.0], [1.0, 0.0, 0.0, 1.0])
        arrays = PropensityFit.from_scores([0.2, 0.5, 0.4, 0.7], ds.d)
        lists = PropensityFit(
            scores_treated=arrays.scores_treated.tolist(),
            scores=arrays.scores.tolist(),
        )
        assert lists.scores.dtype == np.float64
        assert lists.scores_treated.dtype == np.float64
        assert lists.n == 4
        trimmed, kept = trim_overlap(lists, 0.25, 0.75)
        assert kept.tolist() == [1, 2, 3]
        assert trimmed.scores.tolist() == arrays.scores[1:].tolist()
        assert trimmed.scores_treated.tolist() == arrays.scores_treated[1:].tolist()
        assert ate_ipw(ds, lists).point == ate_ipw(ds, arrays).point


class TestIrlsDiagnostics:
    def test_binary_fit_records_iterations_and_scores_of_the_last_iterate(self):
        # [DERIVED] oracle: the scores a prediction on the design gives
        ds = confounded_binary(26, 800)
        fit = estimate_propensity_binary(ds)
        design = np.column_stack([np.ones(ds.n), ds.x])
        p1 = predict(fit_logistic(design, ds.d), design)
        assert np.array_equal(fit.scores_treated, p1)
        assert np.array_equal(fit.scores, np.where(ds.d == 1.0, p1, 1.0 - p1))
        assert fit.diagnostics == {"iterations": fit_logistic(design, ds.d).iterations}
        assert fit.diagnostics["iterations"] > 0


class TestScoreCoefficients:
    def test_fit_keeps_the_logistic_coefficients(self):
        # [DERIVED] oracle: the logistic fit of d on (1, x), and the inverse
        # information (X'WX)^-1 where textbook Newton takes its last step
        ds = confounded_binary(27, 600)
        fit = estimate_propensity_binary(ds)
        design = np.column_stack([np.ones(ds.n), ds.x])
        assert np.array_equal(fit.start[0], fit_logistic(design, ds.d).coef)
        np.testing.assert_allclose(fit.start[1], newton_start_inverse(design, ds.d), rtol=1e-8)

    def test_external_scores_have_no_coefficients(self):
        assert PropensityFit.from_scores([0.2, 0.7], [1.0, 0.0]).start is None

    def test_trimming_carries_the_full_sample_coefficients(self):
        ds = confounded_binary(28, 600)
        fit = estimate_propensity_binary(ds)
        trimmed, kept = trim_overlap(fit, 0.2, 0.8)
        assert kept.size < ds.n
        assert trimmed.start is fit.start

    def test_start_reaches_the_logistic_fit(self, monkeypatch):
        # [DERIVED] a fit started from the full sample's start takes chord
        # steps on a resample, with no SVD, and lands on the cold fit,
        # within what the max|score| < 1e-8 stopping rule allows at this n
        ds = confounded_binary(29, 5_000)
        full = estimate_propensity_binary(ds)
        sample = ds.take(np.random.Generator(np.random.Philox(30)).integers(0, ds.n, size=ds.n))
        calls = count_svd_solves(monkeypatch)
        warm = estimate_propensity_binary(sample, start=full.start)
        assert not calls
        cold = estimate_propensity_binary(sample)
        assert len(calls) == cold.diagnostics["iterations"] > 0
        np.testing.assert_allclose(warm.start[0], cold.start[0], rtol=1e-10)
        np.testing.assert_allclose(warm.scores, cold.scores, rtol=1e-10)
        assert warm.diagnostics["iterations"] > 0

    @pytest.mark.parametrize(
        "start, error",
        [
            (([0.0], np.eye(2)), DimensionMismatchError),
            (([0.0, np.nan], np.eye(2)), NonFiniteValueError),
        ],
        ids=["length", "nan"],
    )
    def test_start_is_checked_like_outside_input(self, start, error):
        with pytest.raises(error, match="start"):
            estimate_propensity_binary(confounded_binary(31, 200), start=start)


class TestTrimOverlap:
    def test_hand_example(self):
        # [TRIVIAL] received scores (0.001, 0.5, 0.7, 0.999) with bounds
        # [0.01, 0.99] keep only the middle two units
        fit = PropensityFit.from_scores([0.001, 0.5, 0.7, 0.999], [1.0, 1.0, 1.0, 1.0])
        trimmed, kept = trim_overlap(fit, 0.01, 0.99)
        assert kept.tolist() == [1, 2]
        assert trimmed.scores.tolist() == [0.5, 0.7]
        assert trimmed.diagnostics["n_dropped"] == 2

    def test_trimmed_scores_respect_bounds(self):
        ds = confounded_binary(27, 800)
        fit = estimate_propensity_binary(ds)
        trimmed, kept = trim_overlap(fit, 0.2, 0.8)
        assert np.all((trimmed.scores >= 0.2) & (trimmed.scores <= 0.8))
        assert kept.shape[0] == trimmed.n

    def test_both_score_vectors_subset_together(self):
        fit = PropensityFit.from_scores([0.3, 0.005, 0.6], [1.0, 1.0, 0.0])
        trimmed, kept = trim_overlap(fit)
        assert kept.tolist() == [0, 2]
        assert trimmed.scores_treated.tolist() == [0.3, 0.6]
        assert trimmed.scores.tolist() == [0.3, 1.0 - 0.6]

    def test_all_trimmed(self):
        fit = PropensityFit.from_scores([0.001, 0.999], [1.0, 0.0])
        with pytest.raises(AllUnitsTrimmedError):
            trim_overlap(fit, 0.4, 0.6)

    def test_one_kept_unit_is_too_few(self):
        # a dataset holds at least 2 rows, so one kept unit cannot be taken
        fit = PropensityFit.from_scores([0.001, 0.5, 0.999], [1.0, 1.0, 1.0])
        with pytest.raises(AllUnitsTrimmedError, match="1 of 3 units"):
            trim_overlap(fit, 0.01, 0.99)
        trimmed, kept = trim_overlap(fit, 0.001, 0.99)
        assert kept.tolist() == [0, 1]

    def test_invalid_bounds(self):
        fit = PropensityFit.from_scores([0.5, 0.5], [1.0, 0.0])
        with pytest.raises(ValueError):
            trim_overlap(fit, 0.9, 0.1)

    def test_fit_without_scores_treated_is_a_package_error(self):
        # trim_overlap subsets both score vectors, so a fit needs both
        with pytest.raises(InvalidInputError, match="scores_treated"):
            PropensityFit(scores_treated=None, scores=[0.2, 0.5, 0.9])

    def test_scores_treated_must_match_the_scores_in_length(self):
        with pytest.raises(LengthMismatchError, match="scores_treated"):
            PropensityFit(scores_treated=[0.2, 0.5, 0.9], scores=[0.2, 0.5])


class TestQuantileStrata:
    def test_even_split(self):
        # [DERIVED] 10 increasing scores into 5 strata -> consecutive pairs
        scores = np.linspace(0.05, 0.95, 10)
        labels = quantile_strata(scores)
        assert labels.tolist() == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]

    def test_ties_share_a_stratum(self):
        # [DERIVED] three tied groups of four; the 0.2, 0.4, 0.6 and 0.8
        # quantiles are 0.2, 0.5, 0.5 and 0.8, and a score on an edge joins
        # the upper stratum
        scores = np.repeat([0.2, 0.5, 0.8], 4)
        labels = quantile_strata(scores)
        assert labels.tolist() == [1] * 4 + [3] * 4 + [4] * 4

    def test_single_stratum(self):
        # [TRIVIAL] a constant score puts every unit in the top stratum
        assert quantile_strata(np.full(12, 0.4)).tolist() == [4] * 12


class TestBalanceDiagnostic:
    def test_stratification_restores_balance(self):
        # [DERIVED] with strong confounding the raw SMD is large; within
        # score strata the averaged SMD must collapse
        ds = confounded_binary(28, 10_000)
        fit = estimate_propensity_binary(ds)
        table = balance_diagnostic(ds, fit)
        assert table.overall[0] > 0.5
        assert table.stratum_avg[0] < 0.2
        assert table.stratum_sizes.sum() == ds.n

    def test_randomized_assignment_is_balanced_everywhere(self):
        # [TRIVIAL] no confounding: overall and within-stratum imbalance
        # are both sampling noise
        ds = randomized_binary(29, 10_000)
        fit = estimate_propensity_binary(ds)
        table = balance_diagnostic(ds, fit)
        assert table.overall[0] < 0.1
        assert table.stratum_avg[0] < 0.1

    def test_undefined_stratum_is_nan_not_fatal(self):
        # [DERIVED] ten scores in five tied pairs fill the five strata in
        # turn; stratum 4 holds only treated units and stratum 2 only
        # controls: both are reported NaN and left out of the average
        p1 = np.repeat([0.1, 0.3, 0.5, 0.7, 0.9], 2)
        d = np.array([0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0])
        x = np.arange(1.0, 11.0)
        ds = validate(np.zeros(10), d, x)
        fit = PropensityFit.from_scores(p1, d)
        table = balance_diagnostic(ds, fit)
        assert table.stratum_sizes.tolist() == [2] * 5
        assert table.n_undefined_strata == 2
        assert np.isnan(table.per_stratum[[2, 4]]).all()
        assert np.isfinite(table.per_stratum[[0, 1, 3]]).all()
        # every defined stratum's arms differ by 1 in x: an SMD of 1 / sd
        scale = np.sqrt((x[d == 1].var() + x[d == 0].var()) / 2.0)
        np.testing.assert_allclose(table.stratum_avg, [1.0 / scale], rtol=1e-12)

    def test_zero_variance_column_smd_is_zero(self):
        ds = validate([0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 1.0, 0.0], np.ones((4, 1)))
        fit = PropensityFit.from_scores([0.5, 0.5, 0.5, 0.5], ds.d)
        table = balance_diagnostic(ds, fit)
        assert table.overall[0] == 0.0
        # a constant score leaves one stratum, the top one, defined
        assert table.n_undefined_strata == 4
        assert table.per_stratum[4, 0] == 0.0
