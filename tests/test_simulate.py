"""Tests for the Monte Carlo harness: case and size checks, case draws, the
runner, and golden-table comparison.

Oracles here are independent recomputations: least-squares recovery of the
generating coefficients, hand-built reports for the comparison logic, and
the packaged reference tables parsed back through the golden check's
loader.
"""

import dataclasses
import inspect
import json
from importlib import resources

import numpy as np
import pytest

from causalest import (
    CASE_IDS,
    CASE_METHODS,
    TRUE_TAU,
    CausalEstimate,
    CellCheck,
    MonteCarloReport,
    PanelDataset,
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
    rdd_fuzzy,
    rdd_sharp,
    run_monte_carlo,
    validate,
    validate_panel,
)
from causalest import core, quasi, simulate
from causalest.cli import main
from causalest.errors import (
    InvalidInputError,
    MissingReferenceCellError,
    OneSidedDataError,
    SeparationError,
    TooManyFailedReplicatesError,
    UnknownCaseError,
)

from .conftest import run_methods


def test_harness_takes_only_what_the_cli_sets(capsys):
    # the six cases are fixed designs: a run is set by its case, size, run
    # index and seed, and the golden check by the packaged tables alone
    assert list(inspect.signature(run_monte_carlo).parameters) == ["case_id", "runs", "n", "seed"]
    assert list(inspect.signature(generate).parameters) == ["case_id", "run_index", "n", "seed"]
    assert list(inspect.signature(compare_to_reference).parameters) == ["report"]
    with pytest.raises(SystemExit) as done:
        main(["simulate", "--help"])
    assert done.value.code == 0
    usage = capsys.readouterr().out
    assert "--check" in usage
    assert "--tol-file" not in usage


class TestDgpSpec:
    """A case id and a sample size are checked before any draw."""

    def test_unknown_case_rejected(self):
        # [TRIVIAL]
        with pytest.raises(UnknownCaseError, match="unknown case"):
            generate("cs7", 0)
        with pytest.raises(UnknownCaseError, match="unknown case"):
            run_monte_carlo("cs7", runs=2, n=100)

    def test_minimum_sample_size(self):
        # [TRIVIAL]
        with pytest.raises(ValueError, match="n must be >= 10"):
            generate("cs1", 0, n=5)

    def test_unit_count_checked_up_front(self):
        # [TRIVIAL] n = 19 rows over cs3's 10 periods leaves a single unit;
        # the harness rejects it before its first run
        with pytest.raises(ValueError, match="n too small for the period count"):
            generate("cs3", 0, n=19)
        with pytest.raises(ValueError, match="n too small for the period count"):
            run_monte_carlo("cs3", runs=2, n=19)

    def test_case_index(self):
        # [TRIVIAL] a run's streams are keyed by the case's index, 4 for cs4
        stream = simulate._run_stream("cs4", 2, 116)
        expected = simulate._keyed_stream(116, 4, 2, 0).normal(size=3)
        assert np.array_equal(stream("x").normal(size=3), expected)


class TestGenerate:
    def test_run_index_must_be_nonnegative(self):
        # [TRIVIAL]
        with pytest.raises(ValueError, match="run_index must be >= 0"):
            generate("cs1", run_index=-1)

    def test_generate_is_deterministic(self):
        # [TRIVIAL] same case/size/run/seed reproduces the draw bit-for-bit;
        # a different run index gives a different draw.
        a = generate("cs1", run_index=3, n=200, seed=113)
        b = generate("cs1", run_index=3, n=200, seed=113)
        c = generate("cs1", run_index=4, n=200, seed=113)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.d, b.d)
        assert np.array_equal(a.x, b.x)
        assert not np.array_equal(a.y, c.y)

    def test_confounded_binary_design_recovers_coefficients(self):
        # [DERIVED] oracle: least squares on the correctly specified design
        # recovers the generating treatment effect and slope at large n.
        ds = generate("cs1", run_index=0, n=20_000, seed=114)
        share = ds.d.mean()
        assert 0.0 < share < 1.0
        design = np.column_stack([np.ones(ds.n), ds.d, ds.x[:, 0]])
        coef, *_ = np.linalg.lstsq(design, ds.y, rcond=None)
        p = simulate._DEFAULT_PARAMS["cs1"]
        assert coef[1] == pytest.approx(p["tau"], abs=0.2)
        assert coef[2] == pytest.approx(p["beta1"], abs=0.05)
        assert ds.x[:, 0].var(ddof=1) == pytest.approx(p["x_variance"], rel=0.05)

    def test_panel_draw_shape_and_treatment_variation(self):
        # [DERIVED] oracle: the panel has n // n_periods units, each with
        # n_periods rows, and treatment varies within units.
        pds = generate("cs2", run_index=0, n=1000, seed=115)
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
        ds = generate("cs4", run_index=2, n=500, seed=116)
        p = simulate._DEFAULT_PARAMS["cs4"]
        x = ds.x[:, 0]
        z, z_bad = _instruments(500, run_index=2, seed=116)
        np.testing.assert_allclose(
            ds.d, p["alpha0"] + p["alpha1"] * x + p["alpha2"] * z, atol=1e-10
        )
        np.testing.assert_allclose(
            z_bad - z, p["bad_coef"] * (x - p["x_mean"]), atol=1e-10
        )

    def test_two_period_variants_differ_only_on_untreated_post(self):
        # [DERIVED] oracle: the violated arm perturbs outcomes only for
        # untreated units in the post period.
        # unit i holds rows 2i (period 0) and 2i + 1 (period 1), d is its
        # treatment in period 1, and both designs share unit, time and d
        base, violated = simulate._case_inputs("cs5", 400, 1, 117)
        for name in ("unit", "time", "d"):
            assert getattr(base, name) is getattr(violated, name), name
        assert np.array_equal(base.unit, np.repeat(np.arange(400), 2))
        assert np.array_equal(base.time, np.tile([0, 1], 400))
        group = np.repeat(base.d[1::2], 2)
        assert np.all(base.d[::2] == 0.0)
        touched = (base.time == 1) & (group == 0)
        diff = violated.y - base.y
        assert np.all(diff[~touched] == 0.0)
        assert np.all(diff[touched] != 0.0)
        # the public draw is the design without the violation
        assert np.array_equal(generate("cs5", run_index=1, n=400, seed=117).y, base.y)

    def test_discontinuity_variants_share_forcing_variable(self):
        # [DERIVED] oracle: sharp and fuzzy arms share the forcing variable
        # and noise; treatment differs only inside the compliance band.
        sharp, fuzzy, _ = simulate._case_inputs("cs6", 800, 0, 118)
        t = sharp.x[:, 0]
        assert np.array_equal(t, fuzzy.x[:, 0])
        p = simulate._DEFAULT_PARAMS["cs6"]
        flipped = sharp.d != fuzzy.d
        assert flipped.any()
        assert np.all(np.abs(t[flipped] - p["cutoff"]) < p["flip_band"])
        # the public draw is the sharp arm
        default = generate("cs6", run_index=0, n=800, seed=118)
        assert np.array_equal(default.d, sharp.d)

    def test_noiseless_sharp_discontinuity_is_exact(self, monkeypatch):
        # [DERIVED] oracle: with zero outcome noise the sharp design is an
        # exact piecewise-linear function, so the estimator must return the
        # generating jump to machine precision.
        monkeypatch.setitem(simulate._DEFAULT_PARAMS["cs6"], "noise_sd", 0.0)
        ds = generate("cs6", run_index=0, n=300, seed=119)
        est = rdd_sharp(ds.y, ds.x[:, 0])
        assert est.point == pytest.approx(5.0, abs=1e-9)


class TestDrawsAreKeptWithoutCopies:
    @pytest.mark.parametrize("case_id", CASE_IDS)
    def test_validators_copy_no_array_of_a_draw(self, case_id, monkeypatch):
        # each draw marks its fresh arrays read-only, so `_owned` keeps them
        owned = core._owned
        calls, copies, sources = [], [], []

        def counted(a, source):
            kept = owned(a, source)
            calls.append(1)
            sources.append(source)
            if kept is not a:
                copies.append(a.shape)
            return kept

        monkeypatch.setattr(core, "_owned", counted)
        monkeypatch.setattr(quasi, "_owned", counted)
        inputs = simulate._case_inputs(case_id, 200, 0, 42)
        assert calls
        assert copies == []
        # a panel run's y and d are the very arrays its draw made
        for pds in (v for v in inputs if isinstance(v, PanelDataset)):
            assert any(pds.y is v for v in sources)
            assert any(pds.d is v for v in sources)

    @pytest.mark.parametrize("case_id", ["cs2", "cs3", "cs5"])
    def test_runs_share_the_layout_of_their_rows(self, case_id):
        # [DERIVED] the (unit, time) layout is validated once, and every run
        # of the case shares its read-only unit, time and unit codes
        first, second = (simulate._case_inputs(case_id, 200, r, 42) for r in (0, 1))
        for name in ("unit", "time", "unit_codes"):
            shared = getattr(first[0], name)
            assert shared is getattr(second[0], name)
            assert not shared.flags.writeable
        if case_id == "cs5":  # the violated design has the base design's rows
            base, violated = first
            for name in ("unit", "time", "d", "x", "unit_codes", "unit_counts"):
                assert getattr(violated, name) is getattr(base, name)
            assert not np.array_equal(violated.y, base.y)

    @pytest.mark.parametrize("case_id", ["cs2", "cs3", "cs5"])
    def test_a_drawn_panel_equals_the_validated_columns(self, case_id):
        # [DERIVED] oracle: `validate_panel` of the drawn columns, for the
        # public draw and for cs5's violated design
        panels = simulate._case_inputs(case_id, 200, 3, 42)
        assert type(generate(case_id, 3, n=200, seed=42)) is PanelDataset
        for pds in panels:
            want = validate_panel(pds.unit, pds.time, pds.y, pds.d)
            for name in ("unit", "time", "y", "d", "x", "unit_codes", "unit_counts"):
                got = getattr(pds, name)
                assert got.dtype == getattr(want, name).dtype, name
                assert np.array_equal(got, getattr(want, name)), name
            assert not pds.y.flags.writeable and not pds.d.flags.writeable


class TestSharedFactorizations:
    """Each run factors a design its methods share once: FE and RE's
    within step one within design, POLS and RE's fallback one pooled
    design, DID1 and DID2 one difference-in-differences design."""

    @staticmethod
    def _svd_calls(monkeypatch, case_id, runs, n, seed) -> tuple[int, int]:
        """(np.linalg.svd calls, RE fallbacks) of one experiment."""
        svd, fit = np.linalg.svd, simulate.fit_re
        calls, fallbacks = [], []

        def counted_svd(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        def counted_re(pds):
            est = fit(pds)
            fallbacks.append("re_fallback" in est.diagnostics)
            return est

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(simulate, "fit_re", counted_re)
        run_monte_carlo(case_id, runs, n, seed)
        return len(calls), sum(fallbacks)

    def test_fe_and_re_share_one_within_factorization(self, monkeypatch):
        # [DERIVED] cs2 fits seven designs per run: POLS, RE's within,
        # between and quasi-demeaned steps, FD, FE and CRE; FE's is RE's
        # within design, so six are factored
        assert self._svd_calls(monkeypatch, "cs2", 10, 1000, 42) == (60, 0)

    def test_re_fallback_reuses_the_pooled_factorization(self, monkeypatch):
        # [DERIVED] seed 42's cs3 at the paper's scale: RE falls back to
        # pooled OLS in 490 runs, which factor five designs (RE's within and
        # between steps, POLS, FD and CRE), and the other 510 runs six
        assert self._svd_calls(monkeypatch, "cs3", 1000, 1000, 42) == (5510, 490)

    def test_did_designs_share_one_factorization(self, monkeypatch):
        # [DERIVED] DID1 and DID2 differ in y only, so a cs5 run factors one
        # design
        assert self._svd_calls(monkeypatch, "cs5", 10, 300, 7) == (10, 0)


def _misspecified_scores(n, run_index, seed):
    """The deliberately wrong assignment scores that cs1's draw of size n
    pairs with its dataset, from the run's keyed streams."""
    stream = simulate._run_stream("cs1", run_index, seed)
    return simulate._draw_cs1(simulate._DEFAULT_PARAMS["cs1"], n, stream)[1]


def _instruments(n, run_index, seed):
    """The valid and the invalid instrument that cs4's draw of size n pairs
    with its dataset, from the run's keyed streams."""
    stream = simulate._run_stream("cs4", run_index, seed)
    return simulate._draw_cs4(simulate._DEFAULT_PARAMS["cs4"], n, stream)[1:]


class TestMisspecifiedScores:
    def test_scores_are_deterministic_and_interior(self):
        # [TRIVIAL] scores reproduce exactly and live strictly inside the
        # truncation bounds.
        a = _misspecified_scores(2000, run_index=0, seed=120)
        b = _misspecified_scores(2000, run_index=0, seed=120)
        assert np.array_equal(a, b)
        p = simulate._DEFAULT_PARAMS["cs1"]
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
        with pytest.raises(InvalidInputError, match="seed must be >= 0 and an integer"):
            entry("cs1", 0, n=100, seed=bad)
        with pytest.raises(InvalidInputError, match="run_index must be >= 0 and an integer"):
            entry("cs1", bad, n=100, seed=1)
        assert calls == []


class TestRunMonteCarlo:
    def test_requires_at_least_two_runs(self):
        # [TRIVIAL]
        with pytest.raises(ValueError, match="runs must be >= 2"):
            run_monte_carlo("cs1", runs=1, n=100)

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

    def test_params_override_flows_into_runs(self, monkeypatch):
        # [DERIVED] oracle: forcing zero outcome noise makes the sharp
        # discontinuity estimate exact in every run; meta.json's parameters
        # are a copy of the ones the runs read.
        monkeypatch.setitem(simulate._DEFAULT_PARAMS["cs6"], "noise_sd", 0.0)
        report = run_monte_carlo("cs6", runs=3, n=120, seed=124)
        rdd1 = report.methods.index("RDD1")
        np.testing.assert_allclose(report.points[:, rdd1], 5.0, atol=1e-9)
        assert report.av_est[rdd1] == pytest.approx(5.0, abs=1e-9)
        assert report.metadata["params"] == simulate._DEFAULT_PARAMS["cs6"]
        assert report.metadata["params"] is not simulate._DEFAULT_PARAMS["cs6"]
        assert report.metadata["params"]["noise_sd"] == 0.0

    def test_aborts_when_too_many_runs_fail(self, monkeypatch):
        # [DERIVED] a pathological offset makes almost every unit treated,
        # so the methods fail on most runs and the experiment must abort
        # rather than report on a sliver of survivors.
        monkeypatch.setitem(simulate._DEFAULT_PARAMS["cs1"], "alpha0", 12.0)
        with pytest.raises(TooManyFailedReplicatesError, match="failed on"):
            run_monte_carlo("cs1", runs=20, n=100, seed=125)

    def test_true_effect_follows_params_override(self, monkeypatch):
        # [DERIVED] the DGP's effect is the overridden tau, so the outcome
        # regression's MSE is its small sampling error, not (2 - (-5))^2.
        monkeypatch.setitem(simulate._DEFAULT_PARAMS["cs1"], "tau", 2.0)
        report = run_monte_carlo("cs1", runs=20, n=300, seed=1)
        or1 = report.methods.index("OR1")
        assert report.true_tau == 2.0
        assert report.av_est[or1] == pytest.approx(2.0, abs=0.5)
        assert report.mse[or1] < 0.5

    @pytest.mark.parametrize(
        "methods", [("OR1",), ("OR1", "OR2", "PS2", "DR2", "DR3")]
    )
    def test_unused_failing_fit_does_not_sink_other_methods(self, methods, monkeypatch):
        # [DERIVED] with alpha1 = 20 the estimated score separates on every
        # draw, but none of these methods uses it, and each succeeds.
        monkeypatch.setitem(simulate._DEFAULT_PARAMS["cs1"], "alpha1", 20.0)
        points, n_failed = run_methods("cs1", methods, runs=20, n=200, seed=3)
        assert np.all(n_failed == 0)
        assert np.all(np.isfinite(points))

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
        """cs6 at 20 runs, where RDD1's rdd_sharp call calls `failure` on the
        given run indices instead of fitting. Each run calls rdd_sharp for
        RDD1 and then for RDD2."""
        real = simulate.rdd_sharp
        calls = {"n": 0}

        def sharp(*args, **kwargs):
            run, is_rdd2 = divmod(calls["n"], 2)
            calls["n"] += 1
            if not is_rdd2 and run in runs:
                return failure()
            return real(*args, **kwargs)

        monkeypatch.setattr(simulate, "rdd_sharp", sharp)
        return run_monte_carlo("cs6", runs=20, n=200, seed=10)

    @staticmethod
    def _raise():
        raise OneSidedDataError("injected")

    @staticmethod
    def _infinite():
        return CausalEstimate(method="rdd_sharp", point=np.inf, n_used=200)

    def test_exactly_five_percent_failed_is_tolerated(self, monkeypatch):
        # the budget is "more than 5% aborts": 1 failed run in 20 is tolerated
        report = self._rdd1_failing_on(monkeypatch, {4}, self._raise)
        assert report.n_failed.tolist() == [1, 0, 0]
        assert np.isnan(report.points[4, 0])
        assert np.isfinite(np.delete(report.points[:, 0], 4)).all()

    def test_more_than_five_percent_failed_aborts(self, monkeypatch):
        # [TRIVIAL] the harness and the bootstrap raise the same class
        message = r"^RDD1 failed on 2/20 cs6 runs \(tolerance 5%\)$"
        with pytest.raises(TooManyFailedReplicatesError, match=message):
            self._rdd1_failing_on(monkeypatch, {4, 11}, self._raise)

    def test_non_finite_point_counts_as_failed(self, monkeypatch):
        # [DERIVED] an infinite point is a failed run: counted against the
        # budget and left out of the mean
        report = self._rdd1_failing_on(monkeypatch, {7}, self._infinite)
        assert report.n_failed.tolist() == [1, 0, 0]
        assert report.av_est[0] == np.delete(report.points[:, 0], 7).mean()
        with pytest.raises(TooManyFailedReplicatesError, match="RDD1 failed on 2/20 cs6 runs"):
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
        run_methods("cs1", ("OR1", "PS2", "DR2"), runs=4, n=200, seed=8)
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
        run_methods("cs3", ("POLS",), runs=2, n=100, seed=9)
        assert counts == {"draw": 5, "fe": 3}


_PANEL_FITS = {"POLS": fit_pols, "RE": fit_re, "FD": fit_fd, "FE": fit_fe, "CRE": fit_cre}


def _unshared(case, method, r, seed):
    """The method's estimate on run r, from the public draw (the draw's
    other design for cs5's DID2 and cs6's RDD2 and RDD3) with every nuisance
    fitted afresh for this one call."""
    ds = generate(case, r, n=300, seed=seed)
    if case == "cs1":
        injected = PropensityFit.from_scores(_misspecified_scores(300, r, seed), ds.d)
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
        z, z_bad = _instruments(300, r, seed)
        return {
            "OR1": lambda: ate_or(ds),
            "OR2": lambda: ate_or(validate(ds.y, ds.d)),
            "IV1": lambda: ate_2sls(ds.y, ds.d, z),
            "IV2": lambda: ate_2sls(ds.y, ds.d, z_bad),
        }[method]()
    if method in ("DID2", "RDD2", "RDD3"):
        ds = simulate._case_inputs(case, 300, r, seed)[1]
    if case == "cs5":
        return ate_did(ds)
    cutoff = simulate._DEFAULT_PARAMS["cs6"]["cutoff"]
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


def _tables(monkeypatch, reference, tolerances):
    """Let the golden check read `reference` and `tolerances` in place of
    the packaged tables."""
    monkeypatch.setattr(simulate, "_packaged_tables", lambda case: (reference, tolerances))


class TestCompareToReference:
    def test_cell_within_tolerance_passes(self, monkeypatch):
        # [DERIVED] oracle: |-4.99 - (-5.0)| = 0.01 <= 0.1.
        report = _report(["A"], [-4.99], [0.5], [0.5 + 0.01**2])
        _tables(monkeypatch, {"A": {"av_est": -5.0, "emp_var": 0.5, "mse": 0.5}},
                {"A": {"av_est": 0.1}})
        checks = compare_to_reference(report)
        cell = next(c for c in checks if c.quantity == "av_est")
        assert isinstance(cell, CellCheck)
        assert cell.method == "A"
        assert cell.produced == pytest.approx(-4.99)
        assert cell.expected == -5.0
        assert cell.tol == 0.1
        assert cell.passed

    def test_cell_outside_tolerance_fails(self, monkeypatch):
        # [DERIVED] oracle: |-3.1 - (-5.0)| = 1.9 > 0.1.
        report = _report(["A"], [-3.1], [0.5], [0.5 + 1.9**2])
        _tables(monkeypatch, {"A": {"av_est": -5.0, "emp_var": 0.5, "mse": 4.11}},
                {"A": {"av_est": 0.1}})
        cell = next(c for c in compare_to_reference(report) if c.quantity == "av_est")
        assert not cell.passed

    def test_consistency_check_appended_per_method(self, monkeypatch):
        # [DERIVED] oracle: mse must equal emp_var + (av - tau)^2 within
        # 1e-9; a report cooked with a 1e-6 discrepancy must fail it.
        _tables(monkeypatch, {"A": {"av_est": -5.0}}, {})
        good = _report(["A"], [-4.0], [0.25], [0.25 + 1.0])
        checks = compare_to_reference(good)
        assert [c.quantity for c in checks] == ["mse_consistency"]
        assert checks[0].passed

        cooked = _report(["A"], [-4.0], [0.25], [0.25 + 1.0 + 1e-6])
        bad = compare_to_reference(cooked)
        assert not bad[0].passed

    def test_missing_reference_row_raises(self, monkeypatch):
        # [TRIVIAL]
        _tables(monkeypatch, {"A": {"av_est": -5.0}}, {})
        report = _report(["A", "B"], [-5, -5], [0.1, 0.1], [0.1, 0.1])
        with pytest.raises(MissingReferenceCellError, match="no row for B"):
            compare_to_reference(report)


def _packaged_tolerances():
    """(case, tolerance map) for every `*_tol.json` the package ships."""
    folder = resources.files("causalest") / "reference"
    return [
        (entry.name.removesuffix("_tol.json"), json.loads(entry.read_text()))
        for entry in folder.iterdir()
        if entry.name.endswith("_tol.json")
    ]


class TestReferenceTables:
    def test_packaged_references_cover_every_case_method(self):
        # [TRIVIAL] every case ships a reference row per registered method.
        for case_id in CASE_IDS:
            table = simulate._packaged_tables(case_id)[0]
            assert set(table) == set(CASE_METHODS[case_id])
            for row in table.values():
                assert set(row) == {"av_est", "emp_var", "mse"}
                assert all(type(v) is float for v in row.values())

    def test_unknown_case_rejected_by_loaders(self):
        # [TRIVIAL] a hand-built report of an unknown case is rejected
        # before the loader looks for its tables
        report = dataclasses.replace(_report(["A"], [-5.0], [0.1], [0.1]), case_id="cs9")
        with pytest.raises(UnknownCaseError, match="unknown case 'cs9'"):
            compare_to_reference(report)

    def test_tolerances_packaged_only_for_cell_checked_cases(self):
        # [TRIVIAL] the panel cases are property-checked, so they ship no
        # cell tolerances.
        shipped = dict(_packaged_tolerances())
        assert sorted(shipped) == ["cs1", "cs4", "cs5", "cs6"]
        for case_id, tol in shipped.items():
            assert tol
            assert set(tol) <= set(CASE_METHODS[case_id])
            assert simulate._packaged_tables(case_id)[1] == tol
        assert simulate._packaged_tables("cs2")[1] == {}
        assert simulate._packaged_tables("cs3")[1] == {}

    def test_every_tolerance_is_a_positive_float_on_a_reference_cell(self):
        # [TRIVIAL] the golden check takes each packaged band as it is, so
        # the packaged files must hold only positive float bands on report
        # quantities that the case's reference table gives as floats
        for case_id, tol in _packaged_tolerances():
            reference = simulate._packaged_tables(case_id)[0]
            for method, entry in tol.items():
                assert type(entry) is dict and entry, (case_id, method)
                for quantity, band in entry.items():
                    where = (case_id, method, quantity)
                    assert quantity in ("av_est", "emp_var", "mse"), where
                    assert type(band) is float and band > 0.0, where
                    assert type(reference[method][quantity]) is float, where

    def test_small_experiment_passes_packaged_golden_check(self):
        # [DERIVED] integration: a modest two-period experiment must land
        # inside the packaged tolerance band around the reference table.
        report = run_monte_carlo("cs5", runs=200, n=1000, seed=42)
        checks = compare_to_reference(report)
        assert [c.quantity for c in checks] == ["av_est", "mse_consistency", "mse_consistency"]
        assert all(c.passed for c in checks)
