"""Assignment models, trimming, stratification, and balance checks."""

from __future__ import annotations

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
    InvalidInputError,
    LengthMismatchError,
    NoTreatmentVariationError,
    NonFiniteValueError,
    ZeroPropensityError,
)

from .conftest import confounded_binary, randomized_binary, saturating_binary


class TestBinaryPropensity:
    def test_scores_are_received_dose_probabilities(self):
        ds = confounded_binary(21, 400)
        fit = estimate_propensity_binary(ds)
        p1 = fit.score_at(1.0)
        np.testing.assert_allclose(fit.score_at(0.0), 1.0 - p1, atol=1e-12)
        np.testing.assert_allclose(
            fit.scores, np.where(ds.d == 1.0, p1, 1.0 - p1), atol=1e-12
        )
        assert np.all((fit.scores > 0) & (fit.scores < 1))

    def test_parameter_recovery(self):
        # [DERIVED] the fitted model recovers the generating (2, 0.5) at n=10,000
        ds = confounded_binary(22, 10_000)
        fit = estimate_propensity_binary(ds)
        np.testing.assert_allclose(fit.model.coef, [2.0, 0.5], atol=0.1)

    def test_single_arm_rejected(self):
        ds = validate([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
        with pytest.raises(NoTreatmentVariationError):
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
        p_orig = estimate_propensity_binary(ds).score_at(1.0)
        p_shift = estimate_propensity_binary(shifted).score_at(1.0)
        np.testing.assert_allclose(p_orig, p_shift, atol=1e-8)

    def test_from_scores_wraps_external_probabilities(self):
        p1 = np.array([0.2, 0.7, 0.4])
        d = np.array([1.0, 0.0, 1.0])
        fit = PropensityFit.from_scores(p1, d)
        np.testing.assert_allclose(fit.scores, [0.2, 0.3, 0.4])
        np.testing.assert_allclose(fit.score_at(0.0) + fit.score_at(1.0), 1.0)

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
            PropensityFit(
                scores=[0.5, nan],
                level_scores={1.0: [0.5, nan], 0.0: [0.5, nan]},
            )

    def test_constructor_rejects_nan_level_scores(self):
        with pytest.raises(NonFiniteValueError, match="level_scores"):
            PropensityFit(
                scores=[0.5, 0.5],
                level_scores={1.0: [0.5, np.nan], 0.0: [0.5, 0.5]},
            )

    def test_constructor_keeps_the_float_vectors_it_coerces(self):
        # [DERIVED] oracle: the same fit built from arrays
        ds = validate([1.0, 3.0, 2.0, 5.0], [1.0, 0.0, 0.0, 1.0])
        arrays = PropensityFit.from_scores([0.2, 0.5, 0.4, 0.7], ds.d)
        lists = PropensityFit(
            scores=arrays.scores.tolist(),
            level_scores={k: v.tolist() for k, v in arrays.level_scores.items()},
        )
        assert lists.scores.dtype == np.float64
        assert all(v.dtype == np.float64 for v in lists.level_scores.values())
        assert lists.n == 4
        trimmed, kept = trim_overlap(lists, 0.25, 0.75)
        assert kept.tolist() == [1, 2, 3]
        assert trimmed.scores.tolist() == arrays.scores[1:].tolist()
        assert trimmed.score_at(0.0).tolist() == arrays.score_at(0.0)[1:].tolist()
        assert ate_ipw(ds, lists).point == ate_ipw(ds, arrays).point


class TestIrlsDiagnostics:
    def test_binary_fit_records_iterations_and_scores_of_the_last_iterate(self):
        # [DERIVED] oracle: the scores a prediction on the design gives
        ds = confounded_binary(26, 800)
        fit = estimate_propensity_binary(ds)
        design = np.column_stack([np.ones(ds.n), ds.x])
        p1 = predict(fit.model, design)
        assert np.array_equal(fit.scores_treated, p1)
        assert np.array_equal(fit.scores, np.where(ds.d == 1.0, p1, 1.0 - p1))
        assert fit.diagnostics == {
            "iterations": fit_logistic(design, ds.d).iterations,
            "converged": True,
        }
        assert fit.diagnostics["iterations"] > 0


class TestTrimOverlap:
    def test_hand_example(self):
        # [TRIVIAL] received scores (0.001, 0.5, 0.999) with bounds
        # [0.01, 0.99] keep only the middle unit
        fit = PropensityFit.from_scores([0.001, 0.5, 0.999], [1.0, 1.0, 1.0])
        trimmed, kept = trim_overlap(fit, 0.01, 0.99)
        assert kept.tolist() == [1]
        assert trimmed.scores.tolist() == [0.5]
        assert trimmed.trim_bounds == (0.01, 0.99)
        assert trimmed.diagnostics["n_dropped"] == 2

    def test_trimmed_scores_respect_bounds(self):
        ds = confounded_binary(27, 800)
        fit = estimate_propensity_binary(ds)
        trimmed, kept = trim_overlap(fit, 0.2, 0.8)
        assert np.all((trimmed.scores >= 0.2) & (trimmed.scores <= 0.8))
        assert kept.shape[0] == trimmed.n

    def test_level_scores_subset_together(self):
        fit = PropensityFit.from_scores([0.3, 0.005, 0.6], [1.0, 1.0, 0.0])
        trimmed, kept = trim_overlap(fit)
        np.testing.assert_allclose(trimmed.score_at(1.0), [0.3, 0.6][: kept.size])

    def test_all_trimmed(self):
        fit = PropensityFit.from_scores([0.001, 0.999], [1.0, 0.0])
        with pytest.raises(AllUnitsTrimmedError):
            trim_overlap(fit, 0.4, 0.6)

    def test_invalid_bounds(self):
        fit = PropensityFit.from_scores([0.5, 0.5], [1.0, 0.0])
        with pytest.raises(ValueError):
            trim_overlap(fit, 0.9, 0.1)

    def test_fit_without_level_scores_is_a_package_error(self):
        # trim_overlap subsets every level's vector, so a fit needs both
        with pytest.raises(InvalidInputError, match="level_scores"):
            trim_overlap(PropensityFit(scores=[0.2, 0.5, 0.9]), 0.1, 0.8)
        with pytest.raises(InvalidInputError, match="level_scores"):
            PropensityFit(scores=[0.2, 0.5], level_scores={1.0: [0.2, 0.5]})

    def test_level_scores_must_match_the_scores_in_length(self):
        with pytest.raises(LengthMismatchError, match="level_scores"):
            PropensityFit(
                scores=[0.2, 0.5], level_scores={1.0: [0.2, 0.5, 0.9], 0.0: [0.8, 0.5, 0.1]}
            )


class TestQuantileStrata:
    def test_even_split(self):
        # [DERIVED] 10 increasing scores into 5 strata -> consecutive pairs
        scores = np.linspace(0.05, 0.95, 10)
        labels = quantile_strata(scores, 5)
        assert labels.tolist() == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]

    def test_ties_share_a_stratum(self):
        labels = quantile_strata(np.full(12, 0.4), 4)
        assert np.unique(labels).size == 1

    def test_single_stratum(self):
        assert quantile_strata(np.array([0.1, 0.9]), 1).tolist() == [0, 0]

    def test_bad_count(self):
        with pytest.raises(ValueError):
            quantile_strata(np.array([0.5]), 0)


class TestBalanceDiagnostic:
    def test_stratification_restores_balance(self):
        # [DERIVED] with strong confounding the raw SMD is large; within
        # score strata the averaged SMD must collapse
        ds = confounded_binary(28, 10_000)
        fit = estimate_propensity_binary(ds)
        table = balance_diagnostic(ds, fit, n_strata=5)
        assert table.overall[0] > 0.5
        assert table.stratum_avg[0] < 0.2
        assert table.stratum_sizes.sum() == ds.n

    def test_randomized_assignment_is_balanced_everywhere(self):
        # [TRIVIAL] no confounding: overall and within-stratum imbalance
        # are both sampling noise
        ds = randomized_binary(29, 10_000)
        fit = estimate_propensity_binary(ds)
        table = balance_diagnostic(ds, fit, n_strata=5)
        assert table.overall[0] < 0.1
        assert table.stratum_avg[0] < 0.1

    def test_undefined_stratum_is_nan_not_fatal(self):
        # stratum of all-treated units: reported NaN, excluded from the average
        p1 = np.array([0.1, 0.1, 0.1, 0.9, 0.9, 0.9])
        d = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 1.0])
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        ds = validate(np.zeros(6), d, x)
        fit = PropensityFit.from_scores(p1, d)
        table = balance_diagnostic(ds, fit, n_strata=2)
        assert table.n_undefined_strata == 1
        assert np.isnan(table.per_stratum[1]).all()
        assert np.isfinite(table.stratum_avg).all()

    def test_zero_variance_column_smd_is_zero(self):
        ds = validate([0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 1.0, 0.0], np.ones((4, 1)))
        fit = PropensityFit.from_scores([0.5, 0.5, 0.5, 0.5], ds.d)
        table = balance_diagnostic(ds, fit, n_strata=2)
        assert table.overall[0] == 0.0
