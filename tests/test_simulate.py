"""Tests for the Monte Carlo harness: DGP specs, case draws, the runner,
and golden-table comparison.

Oracles here are independent recomputations: least-squares recovery of the
generating coefficients, hand-built reports for the comparison logic, and
the packaged reference tables parsed back through the public readers.
"""

import numpy as np
import pytest

from causalest import (
    CASE_IDS,
    CASE_METHODS,
    TRUE_TAU,
    CausalEstimate,
    CellCheck,
    DgpSpec,
    MonteCarloReport,
    PropensityFit,
    ate_2sls,
    ate_did,
    ate_dr,
    ate_ipw,
    ate_or,
    compare_to_reference,
    estimate_propensity_binary,
    fit_cre,
    fit_fd,
    fit_fe,
    fit_pols,
    fit_re,
    generate,
    load_reference,
    load_tolerances,
    rdd_fuzzy,
    read_reference_csv,
    rdd_sharp,
    run_monte_carlo,
    validate,
)
from causalest import core, quasi, simulate
from causalest.errors import (
    InvalidInputError,
    MissingReferenceCellError,
    OneSidedDataError,
    SeparationError,
    TooManyFailedReplicatesError,
    UnknownCaseError,
)


class TestDgpSpec:
    def test_unknown_case_rejected(self):
        # [TRIVIAL]
        with pytest.raises(UnknownCaseError, match="unknown case"):
            DgpSpec(case_id="cs7")

    def test_unknown_parameter_rejected(self):
        # [TRIVIAL]
        with pytest.raises(ValueError, match="unknown parameters"):
            DgpSpec(case_id="cs1", params={"not_a_knob": 1.0})

    def test_variant_must_belong_to_case(self):
        # [TRIVIAL] "violated" is a cs5 variant, not a cs1 one.
        with pytest.raises(ValueError, match="unknown variant"):
            DgpSpec(case_id="cs1", variant="violated")

    def test_minimum_sample_size(self):
        # [TRIVIAL]
        with pytest.raises(ValueError, match="n must be >= 10"):
            DgpSpec(case_id="cs1", n=5)

    def test_period_count_checked_up_front(self):
        # [TRIVIAL] a bad panel spec fails on construction, not once per run
        with pytest.raises(ValueError, match="n_periods must be >= 2"):
            DgpSpec(case_id="cs2", params={"n_periods": 1})

    def test_unit_count_checked_up_front(self):
        # [TRIVIAL] n = 10 rows over 6 periods leaves a single unit
        with pytest.raises(ValueError, match="n too small for the period count"):
            DgpSpec(case_id="cs3", n=10, params={"n_periods": 6})

    def test_merged_params_override_defaults(self):
        # [TRIVIAL]
        spec = DgpSpec(case_id="cs6", params={"noise_sd": 0.0})
        merged = spec.merged_params()
        assert merged["noise_sd"] == 0.0
        assert merged["tau"] == 5.0  # untouched default survives

    def test_case_index(self):
        # [TRIVIAL]
        assert DgpSpec(case_id="cs4").case_index == 4


class TestGenerate:
    def test_run_index_must_be_nonnegative(self):
        # [TRIVIAL]
        with pytest.raises(ValueError, match="run_index must be >= 0"):
            generate(DgpSpec(case_id="cs1"), run_index=-1)

    def test_generate_is_deterministic(self):
        # [TRIVIAL] same spec/run/seed reproduces the draw bit-for-bit;
        # a different run index gives a different draw.
        spec = DgpSpec(case_id="cs1", n=200)
        a = generate(spec, run_index=3, seed=113)
        b = generate(spec, run_index=3, seed=113)
        c = generate(spec, run_index=4, seed=113)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.d, b.d)
        assert np.array_equal(a.x, b.x)
        assert not np.array_equal(a.y, c.y)

    def test_confounded_binary_design_recovers_coefficients(self):
        # [DERIVED] oracle: least squares on the correctly specified design
        # recovers the generating treatment effect and slope at large n.
        spec = DgpSpec(case_id="cs1", n=20_000)
        ds = generate(spec, run_index=0, seed=114)
        share = ds.d.mean()
        assert 0.0 < share < 1.0
        design = np.column_stack([np.ones(ds.n), ds.d, ds.x[:, 0]])
        coef, *_ = np.linalg.lstsq(design, ds.y, rcond=None)
        p = spec.merged_params()
        assert coef[1] == pytest.approx(p["tau"], abs=0.2)
        assert coef[2] == pytest.approx(p["beta1"], abs=0.05)
        assert ds.x[:, 0].var(ddof=1) == pytest.approx(p["x_variance"], rel=0.05)

    def test_panel_draw_shape_and_treatment_variation(self):
        # [DERIVED] oracle: the panel has n // n_periods units, each with
        # n_periods rows, and treatment varies within units.
        spec = DgpSpec(case_id="cs2", n=1000)
        pds = generate(spec, run_index=0, seed=115)
        assert len(pds.unit_counts) == 100
        assert np.all(pds.unit_counts == 10)
        within_var = [
            pds.d[pds.unit_codes == u].var(ddof=0)
            for u in range(len(pds.unit_counts))
        ]
        assert min(within_var) > 0.0

    def test_endogenous_design_structure(self):
        # [DERIVED] oracle: with no treatment noise the dose is an exact
        # linear function of covariate and instrument, and the invalid
        # instrument differs from the valid one by the covariate deviation.
        spec = DgpSpec(case_id="cs4", n=500)
        ds = generate(spec, run_index=2, seed=116)
        p = spec.merged_params()
        x = ds.x[:, 0]
        z, z_bad = _instruments(spec, run_index=2, seed=116)
        np.testing.assert_allclose(
            ds.d, p["alpha0"] + p["alpha1"] * x + p["alpha2"] * z, atol=1e-10
        )
        np.testing.assert_allclose(
            z_bad - z, p["bad_coef"] * (x - p["x_mean"]), atol=1e-10
        )

    def test_two_period_variants_differ_only_on_untreated_post(self):
        # [DERIVED] oracle: the violated arm perturbs outcomes only for
        # untreated units in the post period.
        base = generate(DgpSpec(case_id="cs5", n=400), run_index=1, seed=117)
        violated = generate(
            DgpSpec(case_id="cs5", n=400, variant="violated"), run_index=1, seed=117
        )
        assert np.array_equal(base.group, violated.group)
        assert np.array_equal(base.period, violated.period)
        touched = (base.period == 1) & (base.group == 0)
        diff = violated.y - base.y
        assert np.all(diff[~touched] == 0.0)
        assert np.all(diff[touched] != 0.0)

    def test_discontinuity_variants_share_forcing_variable(self):
        # [DERIVED] oracle: sharp and fuzzy arms share the forcing variable
        # and noise; treatment differs only inside the compliance band.
        spec_s = DgpSpec(case_id="cs6", n=800, variant="sharp")
        spec_f = DgpSpec(case_id="cs6", n=800, variant="fuzzy")
        sharp = generate(spec_s, run_index=0, seed=118)
        fuzzy = generate(spec_f, run_index=0, seed=118)
        t = sharp.x[:, 0]
        assert np.array_equal(t, fuzzy.x[:, 0])
        p = spec_s.merged_params()
        flipped = sharp.d != fuzzy.d
        assert flipped.any()
        assert np.all(np.abs(t[flipped] - p["cutoff"]) < p["flip_band"])
        # default variant is the sharp arm
        default = generate(DgpSpec(case_id="cs6", n=800), run_index=0, seed=118)
        assert np.array_equal(default.d, sharp.d)

    def test_noiseless_sharp_discontinuity_is_exact(self):
        # [DERIVED] oracle: with zero outcome noise the sharp design is an
        # exact piecewise-linear function, so the estimator must return the
        # generating jump to machine precision.
        spec = DgpSpec(case_id="cs6", n=300, params={"noise_sd": 0.0})
        ds = generate(spec, run_index=0, seed=119)
        est = rdd_sharp(ds.y, ds.x[:, 0])
        assert est.point == pytest.approx(5.0, abs=1e-9)


class TestDrawsAreKeptWithoutCopies:
    @pytest.mark.parametrize("case_id", CASE_IDS)
    def test_validators_copy_no_array_of_a_draw(self, case_id, monkeypatch):
        # each draw marks its fresh arrays read-only, so `_owned` keeps them
        owned = core._owned
        calls, copies = [], []

        def counted(a, source):
            kept = owned(a, source)
            calls.append(1)
            if kept is not a:
                copies.append(a.shape)
            return kept

        monkeypatch.setattr(core, "_owned", counted)
        monkeypatch.setattr(quasi, "_owned", counted)
        spec = DgpSpec(case_id=case_id, n=200)
        simulate._case_inputs(spec, spec.merged_params(), 0, 42)
        assert calls
        assert copies == []


def _misspecified_scores(spec, run_index, seed):
    """The deliberately wrong assignment scores that cs1's draw pairs with
    its dataset, from the run's keyed streams."""
    stream = simulate._run_stream(spec, run_index, seed)
    return simulate._draw_cs1(spec.merged_params(), spec.n, stream)[1]


def _instruments(spec, run_index, seed):
    """The valid and the invalid instrument that cs4's draw pairs with its
    dataset, from the run's keyed streams."""
    stream = simulate._run_stream(spec, run_index, seed)
    return simulate._draw_cs4(spec.merged_params(), spec.n, stream)[1:]


class TestMisspecifiedScores:
    def test_scores_are_deterministic_and_interior(self):
        # [TRIVIAL] scores reproduce exactly and live strictly inside the
        # truncation bounds.
        spec = DgpSpec(case_id="cs1", n=2000)
        a = _misspecified_scores(spec, run_index=0, seed=120)
        b = _misspecified_scores(spec, run_index=0, seed=120)
        assert np.array_equal(a, b)
        p = spec.merged_params()
        assert a.min() > p["trunc_lo"]
        assert a.max() < p["trunc_hi"]
        assert a.std() > 0.05  # genuinely dispersed, not a constant


@pytest.mark.parametrize("bad", [-1, 1.5])
class TestStreamKeyChecked:
    """A seed or run index that cannot key a stream is an input error,
    raised before any draw."""

    @staticmethod
    def _count_draws(monkeypatch):
        calls = []
        real = simulate._draw_cs1

        def draw(*args):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(simulate, "_draw_cs1", draw)
        return calls

    def test_run_monte_carlo_seed(self, monkeypatch, bad):
        calls = self._count_draws(monkeypatch)
        with pytest.raises(InvalidInputError, match="seed must be >= 0 and an integer"):
            run_monte_carlo("cs1", runs=3, n=100, seed=bad)
        assert calls == []

    @pytest.mark.parametrize("entry", [generate])
    def test_single_draw_entry_points(self, monkeypatch, bad, entry):
        calls = self._count_draws(monkeypatch)
        spec = DgpSpec(case_id="cs1", n=100)
        with pytest.raises(InvalidInputError, match="seed must be >= 0 and an integer"):
            entry(spec, 0, seed=bad)
        with pytest.raises(InvalidInputError, match="run_index must be >= 0 and an integer"):
            entry(spec, bad, seed=1)
        assert calls == []


class TestRunMonteCarlo:
    def test_requires_at_least_two_runs(self):
        # [TRIVIAL]
        with pytest.raises(ValueError, match="runs must be >= 2"):
            run_monte_carlo("cs1", runs=1, n=100)

    def test_unknown_method_rejected(self):
        # [TRIVIAL]
        with pytest.raises(ValueError, match="unknown methods"):
            run_monte_carlo("cs1", methods=("OR1", "NOPE"), runs=2, n=100)

    def test_method_subset_preserves_requested_order(self):
        # [TRIVIAL]
        report = run_monte_carlo(
            "cs1", methods=("PS1", "OR1"), runs=2, n=200, seed=121
        )
        assert report.methods == ("PS1", "OR1")
        assert report.points.shape == (2, 2)

    def test_report_fields_and_mse_identity(self):
        # [DERIVED] oracle: the report's MSE must equal the empirical
        # variance plus squared bias computed from its own columns.
        report = run_monte_carlo("cs5", runs=10, n=400, seed=122)
        assert report.case_id == "cs5"
        assert report.runs == 10
        assert report.n == 400
        assert report.seed == 122
        assert report.true_tau == TRUE_TAU["cs5"]
        assert report.methods == CASE_METHODS["cs5"]
        assert np.all(report.n_failed == 0)
        assert np.all(np.isfinite(report.points))
        for j in range(len(report.methods)):
            col = report.points[:, j]
            assert report.av_est[j] == pytest.approx(col.mean(), abs=1e-12)
            assert report.emp_var[j] == pytest.approx(col.var(ddof=1), abs=1e-12)
            recomputed = report.emp_var[j] + (report.av_est[j] - report.true_tau) ** 2
            assert report.mse[j] == pytest.approx(recomputed, abs=1e-12)
        assert "params" in report.metadata
        assert "notation_readings" in report.metadata

    def test_results_identical_across_invocations(self):
        # [DERIVED] the per-run points must be bit-identical across repeat
        # invocations with the same seed.
        a = run_monte_carlo("cs1", runs=6, n=200, seed=123)
        c = run_monte_carlo("cs1", runs=6, n=200, seed=123)
        assert np.array_equal(a.points, c.points)

    def test_params_override_flows_into_runs(self):
        # [DERIVED] oracle: forcing zero outcome noise makes the sharp
        # discontinuity estimate exact in every run.
        report = run_monte_carlo(
            "cs6", methods=("RDD1",), runs=3, n=120, seed=124,
            params={"noise_sd": 0.0},
        )
        np.testing.assert_allclose(report.points[:, 0], 5.0, atol=1e-9)
        assert report.av_est[0] == pytest.approx(5.0, abs=1e-9)
        assert report.metadata["params"]["noise_sd"] == 0.0

    def test_aborts_when_too_many_runs_fail(self):
        # [DERIVED] a pathological offset makes almost every unit treated,
        # so propensity estimation fails on most runs and the experiment
        # must abort rather than report on a sliver of survivors.
        with pytest.raises(TooManyFailedReplicatesError, match="failed on"):
            run_monte_carlo(
                "cs1", methods=("PS1",), runs=20, n=100, seed=125,
                params={"alpha0": 12.0},
            )

    def test_true_effect_follows_params_override(self):
        # [DERIVED] the DGP's effect is the overridden tau, so the outcome
        # regression's MSE is its small sampling error, not (2 - (-5))^2.
        report = run_monte_carlo(
            "cs1", runs=20, n=300, seed=1, params={"tau": 2.0}, methods=["OR1"]
        )
        assert report.true_tau == 2.0
        assert report.av_est[0] == pytest.approx(2.0, abs=0.5)
        assert report.mse[0] < 0.5

    @pytest.mark.parametrize(
        "methods", [("OR1",), ("OR1", "OR2", "PS2", "DR2", "DR3")]
    )
    def test_unused_failing_fit_does_not_sink_other_methods(self, methods):
        # [DERIVED] with alpha1 = 20 the estimated score separates on every
        # draw, but none of these methods uses it, and each succeeds.
        report = run_monte_carlo(
            "cs1", runs=20, n=200, seed=3, params={"alpha1": 20.0}, methods=methods
        )
        assert np.all(report.n_failed == 0)
        assert np.all(np.isfinite(report.points))

    def test_one_method_failure_marks_only_its_cell(self, monkeypatch):
        # [DERIVED] PS1 fails on run 0 alone; every other cell is finite,
        # and 1 failure in 20 runs stays inside the 5% budget.
        real = simulate.ate_ipw
        calls = {"n": 0}

        def fail_first(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise SeparationError("injected")
            return real(*args, **kwargs)

        monkeypatch.setattr(simulate, "ate_ipw", fail_first)
        report = run_monte_carlo("cs1", runs=20, n=200, seed=7)
        ps1 = report.methods.index("PS1")
        assert np.isnan(report.points[0, ps1])
        assert np.isfinite(np.delete(report.points[0], ps1)).all()
        assert np.isfinite(report.points[1:]).all()
        assert report.n_failed.tolist() == [int(m == "PS1") for m in report.methods]

    @staticmethod
    def _rdd1_failing_on(monkeypatch, runs, failure):
        """cs6 with RDD1 alone, 20 runs, where rdd_sharp calls `failure` on
        the given run indices (one rdd_sharp call per run) instead of fitting."""
        real = simulate.rdd_sharp
        calls = {"n": 0}

        def sharp(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] - 1 in runs:
                return failure()
            return real(*args, **kwargs)

        monkeypatch.setattr(simulate, "rdd_sharp", sharp)
        return run_monte_carlo("cs6", methods=("RDD1",), runs=20, n=200, seed=10)

    @staticmethod
    def _raise():
        raise OneSidedDataError("injected")

    @staticmethod
    def _infinite():
        return CausalEstimate(estimand="ATE", method="rdd_sharp", point=np.inf, n_used=200)

    def test_exactly_five_percent_failed_is_tolerated(self, monkeypatch):
        # the budget is "more than 5% aborts": 1 failed run in 20 is tolerated
        report = self._rdd1_failing_on(monkeypatch, {4}, self._raise)
        assert report.n_failed.tolist() == [1]
        assert np.isnan(report.points[4, 0])
        assert np.isfinite(np.delete(report.points[:, 0], 4)).all()

    def test_more_than_five_percent_failed_aborts(self, monkeypatch):
        # [TRIVIAL] the harness and the bootstrap raise the same class
        with pytest.raises(TooManyFailedReplicatesError, match="cs6: RDD1 failed on 2/20 runs"):
            self._rdd1_failing_on(monkeypatch, {4, 11}, self._raise)

    def test_non_finite_point_counts_as_failed(self, monkeypatch):
        # [DERIVED] an infinite point is a failed run: counted against the
        # budget and left out of the mean
        report = self._rdd1_failing_on(monkeypatch, {7}, self._infinite)
        assert report.n_failed.tolist() == [1]
        assert report.av_est[0] == np.delete(report.points[:, 0], 7).mean()
        with pytest.raises(TooManyFailedReplicatesError, match="failed on 2/20 runs"):
            self._rdd1_failing_on(monkeypatch, {7, 8}, self._infinite)

    def test_failed_draw_fails_every_method_in_its_run(self, monkeypatch):
        # [DERIVED] a draw that raises leaves its whole row NaN and counts
        # one failure against every method
        real = simulate._draw_cs6
        calls = []

        def draw(p, n, stream):
            calls.append(None)
            if len(calls) == 4:  # run 3's draw
                raise OneSidedDataError("injected")
            return real(p, n, stream)

        monkeypatch.setattr(simulate, "_draw_cs6", draw)
        report = run_monte_carlo("cs6", runs=20, n=200, seed=10)
        assert np.isnan(report.points[3]).all()
        assert np.isfinite(np.delete(report.points, 3, axis=0)).all()
        assert report.n_failed.tolist() == [1, 1, 1]

    def test_score_fit_runs_once_per_run_and_only_when_used(self, monkeypatch):
        # [DERIVED] PS1 and DR1 share one estimated score per run; a panel
        # without them never fits it.
        real = simulate.estimate_propensity_binary
        calls = {"n": 0}

        def counted(ds):
            calls["n"] += 1
            return real(ds)

        monkeypatch.setattr(simulate, "estimate_propensity_binary", counted)
        run_monte_carlo("cs1", runs=4, n=200, seed=8)
        assert calls["n"] == 4
        run_monte_carlo("cs1", methods=("OR1", "PS2", "DR2"), runs=4, n=200, seed=8)
        assert calls["n"] == 4

    def test_draws_and_estimators_found_by_name_at_call_time(self, monkeypatch):
        # [DERIVED] wrappers set on the module's attributes (as a call
        # tracer does) see every draw and estimator call.
        counts = {"draw": 0, "fe": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(simulate, "_draw_panel", counting("draw", simulate._draw_panel))
        monkeypatch.setattr(simulate, "fit_fe", counting("fe", simulate.fit_fe))
        run_monte_carlo("cs2", runs=3, n=100, seed=9)
        run_monte_carlo("cs3", methods=("POLS",), runs=2, n=100, seed=9)
        assert counts == {"draw": 5, "fe": 3}


_PANEL_FITS = {"POLS": fit_pols, "RE": fit_re, "FD": fit_fd, "FE": fit_fe, "CRE": fit_cre}


def _unshared(case, method, r, seed):
    """The method's estimate on run r, from the public draw with every
    nuisance fitted afresh for this one call."""
    spec = DgpSpec(case_id=case, n=300)
    ds = generate(spec, r, seed)
    if case == "cs1":
        injected = PropensityFit.from_scores(_misspecified_scores(spec, r, seed), ds.d)
        return {
            "OR1": lambda: ate_or(ds),
            "OR2": lambda: ate_or(validate(ds.y, ds.d)),
            "PS1": lambda: ate_ipw(ds, estimate_propensity_binary(ds)),
            "PS2": lambda: ate_ipw(ds, injected),
            "DR1": lambda: ate_dr(validate(ds.y, ds.d), estimate_propensity_binary(ds)),
            "DR2": lambda: ate_dr(ds, injected),
            "DR3": lambda: ate_dr(validate(ds.y, ds.d), injected),
        }[method]()
    if case in ("cs2", "cs3"):
        return _PANEL_FITS[method](ds)
    if case == "cs4":
        z, z_bad = _instruments(spec, r, seed)
        return {
            "OR1": lambda: ate_or(ds),
            "OR2": lambda: ate_or(validate(ds.y, ds.d)),
            "IV1": lambda: ate_2sls(ds.y, ds.d, z),
            "IV2": lambda: ate_2sls(ds.y, ds.d, z_bad),
        }[method]()
    if case == "cs5":
        variant = {"DID1": None, "DID2": "violated"}[method]
        return ate_did(generate(DgpSpec(case_id=case, n=300, variant=variant), r, seed))
    variant = {"RDD1": "sharp", "RDD2": "fuzzy", "RDD3": "fuzzy"}[method]
    spec = DgpSpec(case_id=case, n=300, variant=variant)
    ds, cutoff = generate(spec, r, seed), spec.merged_params()["cutoff"]
    if method == "RDD3":
        return rdd_fuzzy(ds.y, ds.x[:, 0], ds.d, cutoff=cutoff)
    return rdd_sharp(ds.y, ds.x[:, 0], cutoff=cutoff)


class TestHarnessBitOracle:
    @pytest.mark.parametrize("case", CASE_IDS)
    def test_points_equal_unshared_estimators_bit_for_bit(self, case):
        # [DERIVED] oracle: whatever the harness shares or skips inside a
        # run, each cell carries the bits of the estimator called alone on
        # the public draw of that run
        report = run_monte_carlo(case, runs=4, n=300, seed=126)
        assert report.methods == CASE_METHODS[case]
        expected = np.array(
            [[_unshared(case, m, r, 126).point for m in report.methods] for r in range(4)]
        )
        assert np.array_equal(report.points.view(np.int64), expected.view(np.int64))


def _report(methods, av, var, mse, tau=-5.0):
    av = np.asarray(av, dtype=float)
    var = np.asarray(var, dtype=float)
    mse = np.asarray(mse, dtype=float)
    return MonteCarloReport(
        case_id="cs1",
        methods=tuple(methods),
        runs=3,
        n=100,
        seed=0,
        true_tau=tau,
        av_est=av,
        emp_var=var,
        mse=mse,
        points=np.zeros((3, len(methods))),
        n_failed=np.zeros(len(methods), dtype=int),
        metadata={},
    )


class TestCompareToReference:
    def test_cell_within_tolerance_passes(self):
        # [DERIVED] oracle: |-4.99 - (-5.0)| = 0.01 <= 0.1.
        report = _report(["A"], [-4.99], [0.5], [0.5 + 0.01**2])
        checks = compare_to_reference(
            report,
            {"A": {"av_est": -5.0, "emp_var": 0.5, "mse": 0.5}},
            {"A": {"av_est": 0.1}},
        )
        cell = next(c for c in checks if c.quantity == "av_est")
        assert isinstance(cell, CellCheck)
        assert cell.method == "A"
        assert cell.produced == pytest.approx(-4.99)
        assert cell.expected == -5.0
        assert cell.tol == 0.1
        assert cell.passed

    def test_cell_outside_tolerance_fails(self):
        # [DERIVED] oracle: |-3.1 - (-5.0)| = 1.9 > 0.1.
        report = _report(["A"], [-3.1], [0.5], [0.5 + 1.9**2])
        checks = compare_to_reference(
            report,
            {"A": {"av_est": -5.0, "emp_var": 0.5, "mse": 4.11}},
            {"A": {"av_est": 0.1}},
        )
        cell = next(c for c in checks if c.quantity == "av_est")
        assert not cell.passed

    def test_consistency_check_appended_per_method(self):
        # [DERIVED] oracle: mse must equal emp_var + (av - tau)^2 within
        # 1e-9; a report cooked with a 1e-6 discrepancy must fail it.
        good = _report(["A"], [-4.0], [0.25], [0.25 + 1.0])
        checks = compare_to_reference(good, {"A": {"av_est": -5.0}}, {})
        assert [c.quantity for c in checks] == ["mse_consistency"]
        assert checks[0].passed

        cooked = _report(["A"], [-4.0], [0.25], [0.25 + 1.0 + 1e-6])
        bad = compare_to_reference(cooked, {"A": {"av_est": -5.0}}, {})
        assert not bad[0].passed

    def test_missing_reference_row_raises(self):
        # [TRIVIAL]
        report = _report(["A", "B"], [-5, -5], [0.1, 0.1], [0.1, 0.1])
        with pytest.raises(MissingReferenceCellError, match="no row for B"):
            compare_to_reference(report, {"A": {"av_est": -5.0}}, {})

    def test_relative_tolerance_widens_band(self):
        # [DERIVED] oracle: rel 0.02 at expected -5.0 gives a band of 0.1,
        # so a 0.09 discrepancy passes while abs-only 0.05 would not.
        report = _report(["A"], [-4.91], [0.1], [0.1 + 0.09**2])
        rel = compare_to_reference(
            report,
            {"A": {"av_est": -5.0}},
            {"A": {"av_est": {"abs": 0.05, "rel": 0.02}}},
        )
        cell = next(c for c in rel if c.quantity == "av_est")
        assert cell.tol == pytest.approx(0.1)
        assert cell.passed
        abs_only = compare_to_reference(
            report,
            {"A": {"av_est": -5.0}},
            {"A": {"av_est": 0.05}},
        )
        assert not next(c for c in abs_only if c.quantity == "av_est").passed

    def test_invalid_tolerance_entries_rejected(self):
        # [TRIVIAL]
        report = _report(["A"], [-5.0], [0.1], [0.1])
        reference = {"A": {"av_est": -5.0}}
        with pytest.raises(ValueError, match="unknown tolerance keys"):
            compare_to_reference(report, reference, {"A": {"av_est": {"atol": 1}}})
        with pytest.raises(ValueError, match="empty tolerance entry"):
            compare_to_reference(report, reference, {"A": {"av_est": {}}})
        with pytest.raises(ValueError, match="unknown report quantity"):
            compare_to_reference(report, reference, {"A": {"av_mean": 0.1}})


class TestReferenceTables:
    def test_read_reference_csv_roundtrip(self):
        # [TRIVIAL]
        text = "method,av_est,emp_var,mse\nOR1,-4.999,0.084,0.084\nPS1,-4.949,2.054,2.054\n"
        table = read_reference_csv(text)
        assert table["OR1"] == {"av_est": -4.999, "emp_var": 0.084, "mse": 0.084}
        assert set(table) == {"OR1", "PS1"}

    def test_read_reference_csv_rejects_bad_header(self):
        # [TRIVIAL]
        with pytest.raises(ValueError, match="must have columns"):
            read_reference_csv("method,mean\nOR1,-5\n")

    def test_read_reference_csv_rejects_empty_table(self):
        # [TRIVIAL]
        with pytest.raises(ValueError, match="empty"):
            read_reference_csv("method,av_est,emp_var,mse\n")

    def test_packaged_references_cover_every_case_method(self):
        # [TRIVIAL] every case ships a reference row per registered method.
        for case_id in CASE_IDS:
            table = load_reference(case_id)
            assert set(table) == set(CASE_METHODS[case_id])
            for row in table.values():
                assert set(row) == {"av_est", "emp_var", "mse"}

    def test_unknown_case_rejected_by_loaders(self):
        # [TRIVIAL]
        with pytest.raises(UnknownCaseError, match="unknown case"):
            load_reference("cs9")
        with pytest.raises(UnknownCaseError, match="unknown case"):
            load_tolerances("cs9")

    def test_tolerances_packaged_only_for_cell_checked_cases(self):
        # [TRIVIAL] the panel cases are property-checked, so they ship no
        # cell tolerances.
        for case_id in ("cs1", "cs4", "cs5", "cs6"):
            tol = load_tolerances(case_id)
            assert tol is not None
            assert set(tol) <= set(CASE_METHODS[case_id])
            for entry in tol.values():
                assert set(entry) <= {"av_est", "emp_var", "mse"}
        assert load_tolerances("cs2") is None
        assert load_tolerances("cs3") is None

    def test_small_experiment_passes_packaged_golden_check(self):
        # [DERIVED] integration: a modest two-period experiment must land
        # inside the packaged tolerance band around the reference table.
        report = run_monte_carlo("cs5", runs=200, n=1000, seed=42)
        checks = compare_to_reference(
            report, load_reference("cs5"), load_tolerances("cs5")
        )
        assert all(c.passed for c in checks)
