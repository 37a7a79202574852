"""Full-scale benchmark checks.

Every test here enforces one quantitative requirement on the shipped
benchmark at its stated scale (1,000 Monte Carlo runs of n = 1,000,
seed 42) and prints a one-line [PASS]/[FAIL] verdict with the numbers.
Each case's report is computed once per module and must finish well
inside its wall-clock budget.
"""

import time

import numpy as np
import pytest

from causalest import (
    DgpSpec,
    OrSpec,
    ate_2sls,
    ate_or,
    balance_diagnostic,
    bootstrap_variance,
    compare_to_reference,
    estimate_propensity_binary,
    fit_outcome_model,
    generate,
    load_reference,
    load_tolerances,
    rdd_sharp,
    run_monte_carlo,
    sc_weights,
    validate,
)

from .conftest import confounded_binary, philox

RUNS = 1000
N = 1000
SEED = 42
TIME_BUDGET_SECONDS = 300.0


def _timed_report(case_id):
    start = time.perf_counter()
    report = run_monte_carlo(case_id, runs=RUNS, n=N, seed=SEED)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def cs1():
    return _timed_report("cs1")


@pytest.fixture(scope="module")
def cs2():
    return _timed_report("cs2")


@pytest.fixture(scope="module")
def cs3():
    return _timed_report("cs3")


@pytest.fixture(scope="module")
def cs4():
    return _timed_report("cs4")


@pytest.fixture(scope="module")
def cs5():
    return _timed_report("cs5")


@pytest.fixture(scope="module")
def cs6():
    return _timed_report("cs6")


def _col(report, method):
    return report.points[:, report.methods.index(method)]


def _av(report, method):
    return float(report.av_est[report.methods.index(method)])


def _var(report, method):
    return float(report.emp_var[report.methods.index(method)])


def _mse(report, method):
    return float(report.mse[report.methods.index(method)])


def _check(label, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _check_mean(report, method, expected, tol):
    got = _av(report, method)
    _check(
        f"{report.case_id} {method} mean",
        abs(got - expected) <= tol,
        f"{got:.4f} vs {expected:g} (tol {tol:g})",
    )


def _check_runtime(case_id, elapsed):
    _check(
        f"{case_id} runtime",
        elapsed < TIME_BUDGET_SECONDS,
        f"{elapsed:.1f}s < {TIME_BUDGET_SECONDS:.0f}s",
    )


def _check_golden(report):
    tolerances = load_tolerances(report.case_id)
    assert tolerances is not None
    checks = compare_to_reference(report, load_reference(report.case_id), tolerances)
    for c in checks:
        print(
            f"[{'PASS' if c.passed else 'FAIL'}] {report.case_id} golden "
            f"{c.method} {c.quantity}: {c.produced:.6g} vs {c.expected:.6g} "
            f"(tol {c.tol:g})"
        )
    assert all(c.passed for c in checks)


class TestConfoundedCrossSection:
    def test_outcome_regression_mean(self, cs1):
        _check_mean(cs1[0], "OR1", -4.999, 0.10)

    def test_weighting_mean(self, cs1):
        _check_mean(cs1[0], "PS1", -4.949, 0.30)

    def test_dr_with_misspecified_outcome_model_mean(self, cs1):
        _check_mean(cs1[0], "DR1", -4.944, 0.15)

    def test_dr_with_misspecified_score_mean(self, cs1):
        _check_mean(cs1[0], "DR2", -4.977, 0.15)

    def test_omitted_covariate_regression_is_biased(self, cs1):
        got = _av(cs1[0], "OR2")
        _check("cs1 OR2 bias", abs(got + 5.0) > 1.0, f"|{got:.4f} + 5| > 1")

    def test_doubly_misspecified_dr_is_biased(self, cs1):
        got = _av(cs1[0], "DR3")
        _check("cs1 DR3 bias", abs(got + 5.0) > 1.0, f"|{got:.4f} + 5| > 1")

    def test_misspecified_score_weighting_flips_sign(self, cs1):
        got = _av(cs1[0], "PS2")
        _check("cs1 PS2 sign", got > 0.0, f"mean {got:.4f} > 0")

    def test_weighting_variance_dominates_regression(self, cs1):
        v_ps, v_or = _var(cs1[0], "PS1"), _var(cs1[0], "OR1")
        _check(
            "cs1 variance ordering",
            v_ps >= 5.0 * v_or,
            f"var(PS1)={v_ps:.4f} >= 5*var(OR1)={5 * v_or:.4f}",
        )

    def test_golden_table(self, cs1):
        _check_golden(cs1[0])

    def test_runtime(self, cs1):
        _check_runtime("cs1", cs1[1])


class TestPanelUnobservedHeterogeneity:
    def test_within_style_estimators_unbiased(self, cs2):
        for m in ("FE", "FD", "CRE"):
            got = _av(cs2[0], m)
            _check(f"cs2 {m} mean", abs(got) < 0.05, f"|{got:.4f}| < 0.05")

    def test_pooled_and_random_effects_biased(self, cs2):
        for m in ("POLS", "RE"):
            got = _av(cs2[0], m)
            _check(f"cs2 {m} bias", abs(got) > 0.5, f"|{got:.4f}| > 0.5")

    def test_fe_equals_cre_run_by_run(self, cs2):
        gap = float(np.max(np.abs(_col(cs2[0], "FE") - _col(cs2[0], "CRE"))))
        _check("cs2 FE==CRE per run", gap <= 1e-6, f"max gap {gap:.2e} <= 1e-6")

    def test_runtime(self, cs2):
        _check_runtime("cs2", cs2[1])


class TestPanelMeasurementError:
    def test_every_method_biased(self, cs3):
        for m in cs3[0].methods:
            got = _av(cs3[0], m)
            _check(f"cs3 {m} bias", abs(got) > 0.05, f"|{got:.4f}| > 0.05")

    def test_runtime(self, cs3):
        _check_runtime("cs3", cs3[1])


class TestEndogenousTreatment:
    def test_full_regression_mean(self, cs4):
        _check_mean(cs4[0], "OR1", -1.000, 0.02)

    def test_naive_regression_mean(self, cs4):
        _check_mean(cs4[0], "OR2", -0.800, 0.05)

    def test_instrumented_mean(self, cs4):
        _check_mean(cs4[0], "IV1", -1.000, 0.05)

    def test_invalid_instrument_worse_than_naive(self, cs4):
        iv2, or2 = _av(cs4[0], "IV2"), _av(cs4[0], "OR2")
        _check(
            "cs4 IV2 vs OR2 bias",
            abs(iv2 + 1.0) > abs(or2 + 1.0),
            f"|{iv2:.4f}+1| > |{or2:.4f}+1|",
        )

    def test_golden_table(self, cs4):
        _check_golden(cs4[0])

    def test_runtime(self, cs4):
        _check_runtime("cs4", cs4[1])


class TestDifferenceInDifferences:
    def test_mean(self, cs5):
        _check_mean(cs5[0], "DID1", -4.0, 0.05)

    def test_variance_bound(self, cs5):
        got = _var(cs5[0], "DID1")
        _check("cs5 DID1 variance", got <= 0.02, f"{got:.4f} <= 0.02")

    def test_trend_violation_biases_the_estimate(self, cs5):
        got = _av(cs5[0], "DID2")
        _check("cs5 DID2 bias", abs(got + 4.0) > 0.5, f"|{got:.4f} + 4| > 0.5")

    def test_violated_mse_dominated_by_bias(self, cs5):
        mse, var = _mse(cs5[0], "DID2"), _var(cs5[0], "DID2")
        _check(
            "cs5 DID2 mse",
            mse > 10.0 * var,
            f"mse {mse:.4f} > 10*var {10 * var:.4f}",
        )

    def test_golden_table(self, cs5):
        _check_golden(cs5[0])

    def test_runtime(self, cs5):
        _check_runtime("cs5", cs5[1])


class TestRegressionDiscontinuity:
    def test_sharp_mean(self, cs6):
        _check_mean(cs6[0], "RDD1", 5.0, 0.10)

    def test_fuzzy_mean(self, cs6):
        _check_mean(cs6[0], "RDD3", 5.0, 0.15)

    def test_fuzzy_noisier_than_sharp(self, cs6):
        v3, v1 = _var(cs6[0], "RDD3"), _var(cs6[0], "RDD1")
        _check(
            "cs6 variance ordering",
            v3 > v1,
            f"var(RDD3)={v3:.4f} > var(RDD1)={v1:.4f}",
        )

    def test_sharp_on_noncompliant_data_attenuated(self, cs6):
        got = _av(cs6[0], "RDD2")
        _check("cs6 RDD2 attenuation", got < 4.5, f"mean {got:.4f} < 4.5")

    def test_golden_table(self, cs6):
        _check_golden(cs6[0])

    def test_runtime(self, cs6):
        _check_runtime("cs6", cs6[1])


@pytest.fixture(scope="module")
def balance_tables():
    """Balance diagnostics on 100 independent confounded draws of 10,000."""
    spec = DgpSpec(case_id="cs1", n=10_000)
    tables = []
    for i in range(100):
        ds = generate(spec, run_index=i, seed=SEED)
        fit = estimate_propensity_binary(ds)
        tables.append(balance_diagnostic(ds, fit, n_strata=5))
    return tables


class TestBalancingProperty:
    def test_stratification_improves_balance_with_high_probability(
        self, balance_tables
    ):
        wins = sum(
            float(t.stratum_avg[0]) < float(t.overall[0]) for t in balance_tables
        )
        _check(
            "balance improvement probability",
            wins >= 95,
            f"{wins}/100 draws improved (need >= 95)",
        )

    def test_single_draw_smd_bounds(self, balance_tables):
        table = balance_tables[0]
        overall = float(table.overall[0])
        within = float(table.stratum_avg[0])
        _check(
            "balance SMD bounds",
            overall > 0.5 and within < 0.2,
            f"overall {overall:.3f} > 0.5, stratum average {within:.3f} < 0.2",
        )


@pytest.fixture(scope="module")
def dr_report():
    return run_monte_carlo(
        "cs1", methods=("OR2", "DR1", "DR2"), runs=200, n=1000, seed=SEED
    )


class TestDoubleRobustnessProperty:
    def test_survives_misspecified_outcome_model(self, dr_report):
        got = _av(dr_report, "DR1")
        _check("robustness DR1", abs(got + 5.0) < 0.15, f"|{got:.4f} + 5| < 0.15")

    def test_survives_misspecified_score(self, dr_report):
        got = _av(dr_report, "DR2")
        _check("robustness DR2", abs(got + 5.0) < 0.15, f"|{got:.4f} + 5| < 0.15")

    def test_unaugmented_misspecified_model_is_biased(self, dr_report):
        got = _av(dr_report, "OR2")
        _check("robustness OR2", abs(got + 5.0) > 1.0, f"|{got:.4f} + 5| > 1")


@pytest.fixture(scope="module")
def endogenous():
    return generate(DgpSpec(case_id="cs4", n=N), run_index=0, seed=SEED)


class TestInstrumentIdentities:
    def test_just_identified_equals_instrument_ratio(self, endogenous):
        ds = endogenous
        z = ds.z[:, 0]
        two_stage = ate_2sls(ds.y, ds.d, z).point
        zc = z - z.mean()
        ratio = float(zc @ (ds.y - ds.y.mean())) / float(zc @ (ds.d - ds.d.mean()))
        gap = abs(two_stage - ratio)
        _check("2SLS == IV ratio", gap <= 1e-10, f"gap {gap:.2e} <= 1e-10")

    def test_self_instrument_equals_least_squares(self, endogenous):
        ds = endogenous
        two_stage = ate_2sls(ds.y, ds.d, ds.d).point
        design = np.column_stack([np.ones(ds.n), ds.d])
        slope = np.linalg.lstsq(design, ds.y, rcond=None)[0][1]
        gap = abs(two_stage - slope)
        _check("2SLS(Z=D) == OLS", gap <= 1e-10, f"gap {gap:.2e} <= 1e-10")


class TestSyntheticControlProperty:
    @staticmethod
    def _objective(x1, x0, v, w):
        r = x1 - x0 @ w
        return float(r @ (v * r))

    def test_weights_feasible_and_vertex_optimal(self):
        worst_neg, worst_sum, worst_gap = 0.0, 0.0, -np.inf
        for seed in range(150, 160):
            g = philox(seed)
            x1 = g.normal(size=6)
            x0 = g.normal(size=(6, 4))
            v = g.uniform(0.5, 1.5, 6)
            w = sc_weights(x1, x0, v)
            worst_neg = min(worst_neg, float(w.min()))
            worst_sum = max(worst_sum, abs(float(w.sum()) - 1.0))
            obj = self._objective(x1, x0, v, w)
            for j in range(4):
                vertex = np.zeros(4)
                vertex[j] = 1.0
                worst_gap = max(
                    worst_gap, obj - self._objective(x1, x0, v, vertex)
                )
        ok = worst_neg >= -1e-10 and worst_sum <= 1e-8 and worst_gap <= 1e-10
        _check(
            "synthetic-control weights",
            ok,
            f"min weight {worst_neg:.1e}, sum error {worst_sum:.1e}, "
            f"worst vertex gap {worst_gap:.1e}",
        )

    def test_weights_match_grid_search(self):
        g = philox(162)
        x1 = g.normal(size=2)
        x0 = g.normal(size=(2, 3))
        v = g.uniform(0.5, 1.5, 2)
        w = sc_weights(x1, x0, v)
        step = 1e-3
        grid = np.arange(0.0, 1.0 + step / 2, step)
        w1, w2 = np.meshgrid(grid, grid, indexing="ij")
        keep = w1 + w2 <= 1.0 + 1e-12
        w1, w2 = w1[keep], w2[keep]
        w3 = 1.0 - w1 - w2
        r0 = x1[0] - (x0[0, 0] * w1 + x0[0, 1] * w2 + x0[0, 2] * w3)
        r1 = x1[1] - (x0[1, 0] * w1 + x0[1, 1] * w2 + x0[1, 2] * w3)
        best = float(np.min(v[0] * r0**2 + v[1] * r1**2))
        obj = self._objective(x1, x0, v, w)
        _check(
            "synthetic-control grid oracle",
            obj <= best + 1e-8,
            f"objective {obj:.6e} <= grid best {best:.6e} + 1e-8",
        )


class TestDiscontinuityExactness:
    def test_noiseless_sharp_design_recovered_exactly(self):
        spec = DgpSpec(case_id="cs6", n=N, params={"noise_sd": 0.0})
        ds = generate(spec, run_index=0, seed=SEED)
        got = rdd_sharp(ds.y, ds.x[:, 0]).point
        _check(
            "noiseless sharp discontinuity",
            abs(got - 5.0) <= 1e-9,
            f"|{got!r} - 5| <= 1e-9",
        )


class TestVarianceProperties:
    def test_bootstrap_matches_closed_form_for_the_mean(self):
        g = philox(160)
        y = g.normal(3.0, 2.0, 400)
        ds = validate(y, (g.uniform(size=400) < 0.5).astype(float))
        result = bootstrap_variance(
            ds, lambda s: float(s.y.mean()), n_boot=2000, seed=SEED
        )
        target = y.var(ddof=1) / y.size
        rel = abs(result.variance - target) / target
        _check(
            "bootstrap vs closed form",
            rel <= 0.15,
            f"bootstrap {result.variance:.3e} vs s^2/n {target:.3e} "
            f"(rel {rel:.3f} <= 0.15)",
        )

    def test_delta_variance_matches_finite_differences(self):
        ds = confounded_binary(161, 400)
        spec = OrSpec(interactions_with_d=True)
        est = ate_or(ds, spec=spec)
        fit = fit_outcome_model(ds, spec)
        ones, zeros = np.ones(ds.n), np.zeros(ds.n)
        treated = np.column_stack([ones, ones, ds.x, ds.x])
        control = np.column_stack([ones, zeros, ds.x, zeros])

        def contrast(coef):
            return (treated @ coef).mean() - (control @ coef).mean()

        h = 1e-6
        grad = np.empty(fit.coef.shape[0])
        for k in range(grad.size):
            up, dn = fit.coef.copy(), fit.coef.copy()
            up[k] += h
            dn[k] -= h
            grad[k] = (contrast(up) - contrast(dn)) / (2 * h)
        fd = float(grad @ fit.coef_cov @ grad)
        rel = abs(est.variance - fd) / fd
        _check(
            "delta vs finite differences",
            rel <= 1e-5,
            f"delta {est.variance:.6e} vs fd {fd:.6e} (rel {rel:.2e} <= 1e-5)",
        )


class TestReportIntegrity:
    def test_mse_identity_on_every_report(self, cs1, cs2, cs3, cs4, cs5, cs6):
        for report, _ in (cs1, cs2, cs3, cs4, cs5, cs6):
            bias = report.av_est - report.true_tau
            gap = float(np.max(np.abs(report.mse - (report.emp_var + bias**2))))
            _check(
                f"{report.case_id} mse identity",
                gap <= 1e-9,
                f"max |mse - (var + bias^2)| = {gap:.2e} <= 1e-9",
            )

    def test_points_bit_identical_across_thread_counts(self):
        a = run_monte_carlo("cs1", runs=50, n=N, seed=SEED)
        b = run_monte_carlo("cs1", runs=50, n=N, seed=SEED)
        same = np.array_equal(a.points, b.points)
        _check("same-seed determinism", same, "points identical across two invocations")
