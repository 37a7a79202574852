"""Six benchmark data-generating processes and the Monte Carlo harness.

Each case study draws datasets from a fixed DGP, runs a panel of estimators
(some deliberately misspecified), and reports the mean estimate, empirical
variance, and mean squared error against the known truth.

Randomness is counter-based and fully keyed: variable v of run r in case c
draws from Philox seeded by SeedSequence(seed, spawn_key=(c, r, v)). Adding
a method or skipping an unused variable never perturbs other draws, and a
fixed seed gives bit-identical reports. Runs execute one after another.
"""

from __future__ import annotations

import csv
import functools
import json
from dataclasses import dataclass
from importlib import resources

import numpy as np
from scipy.special import expit, ndtr, ndtri

from .core import _check_int, _readonly, validate, validate_panel
from .errors import InvalidInputError, MissingReferenceCellError, UnknownCaseError
from .estimators import ate_dr, ate_ipw, ate_or, fit_outcome_model
from .panel import fit_cre, fit_fd, fit_fe, fit_pols, fit_re
from .propensity import PropensityFit, estimate_propensity_binary
from .quasi import ate_2sls, ate_did, rdd_fuzzy, rdd_sharp
from .variance import _keyed_stream, _replicate

CASE_IDS = ("cs1", "cs2", "cs3", "cs4", "cs5", "cs6")

_DEFAULT_PARAMS = {
    "cs1": {
        # assignment: P(D=1|x) = expit(alpha0 + alpha1 x); outcome:
        # y = beta0 + tau d + beta1 x + noise
        "alpha0": 2.0,
        "alpha1": 0.5,
        "beta0": 10.0,
        "beta1": 0.5,
        "tau": -5.0,
        "x_variance": 10.0,
        "noise_variance": 5.0,
        # the deliberately wrong score: a truncated normal around the mean
        # true score, independent of x
        "misspecified_score_sd": 0.5,
        "trunc_lo": 0.01,
        "trunc_hi": 0.99,
    },
    "cs2": {
        # unit level w ~ U(w_lo, w_hi); d = delta w + noise(sigma_d);
        # y = alpha + tau d + gamma w + noise(sigma_e); w itself unobserved
        "n_periods": 10,
        "tau": 0.0,
        "alpha": 1.0,
        "delta": 2.0,
        "gamma": 2.0,
        "w_lo": 1.0,
        "w_hi": 100.0,
        "sigma_d": 1.0,
        "sigma_e": 1.0,
    },
    "cs3": {
        # as cs2 but the confounder drifts over time:
        # w_it = w_i + noise(sigma_w) enters both d and y
        "n_periods": 10,
        "tau": 0.0,
        "alpha": 1.0,
        "delta": 2.0,
        "gamma": 2.0,
        "w_lo": 1.0,
        "w_hi": 100.0,
        "sigma_d": 1.0,
        "sigma_e": 1.0,
        "sigma_w": 5.0,
    },
    "cs4": {
        # d = alpha0 + alpha1 x + alpha2 z (+ noise(sigma_d));
        # y = beta0 + tau d + beta1 x + noise(sigma_e); x unobserved by the
        # naive and IV estimators; z_bad = z + bad_coef (x - x_mean)
        "alpha0": 1.0,
        "alpha1": 0.5,
        "alpha2": 1.0,
        "beta0": 1.0,
        "beta1": 0.5,
        "tau": -1.0,
        "x_mean": 15.0,
        "x_sd": 1.0,
        "sigma_d": 0.0,
        "sigma_e": 1.0,
        "bad_coef": 2.0,
    },
    "cs5": {
        # two periods; d1 = ever-treated; y0 = a0 + sel d1 + beta x0 + e;
        # y1 = a1 + sel d1 + tau d1 + beta x0 + e; the violated design adds
        # violation_coef * x1 to untreated units in period 1
        "tau": -4.0,
        "intercept_pre": 1.0,
        "intercept_post": 3.0,
        "selection_level": 1.0,
        "selection_strength": 1.0,
        "beta_x": 1.0,
        "sigma_e": 1.0,
        "x1_mean": 1.0,
        "x1_sd": 1.0,
        "violation_coef": 1.0,
    },
    "cs6": {
        # forcing t ~ U(t_lo, t_hi); y = intercept + slope t + tau D + noise;
        # the fuzzy design flips treatment for flip_share of units within
        # |t - cutoff| < flip_band
        "tau": 5.0,
        "intercept": 1.0,
        "slope": 2.0,
        "noise_sd": 1.0,
        "cutoff": 0.0,
        "t_lo": -1.0,
        "t_hi": 1.0,
        "flip_share": 0.25,
        "flip_band": 0.25,
    },
}

TRUE_TAU = {case: params["tau"] for case, params in _DEFAULT_PARAMS.items()}

# stream layout: variable index per case, keyed (seed, case, run, variable)
_VARIABLE_STREAMS = {
    "cs1": {"x": 0, "assignment": 1, "outcome_noise": 2, "misspecified_score": 3},
    "cs2": {"unit_levels": 0, "treatment_noise": 1, "outcome_noise": 2},
    "cs3": {
        "unit_levels": 0,
        "treatment_noise": 1,
        "outcome_noise": 2,
        "measurement_noise": 3,
    },
    "cs4": {"x": 0, "instrument": 1, "treatment_noise": 2, "outcome_noise": 3},
    "cs5": {
        "x0": 0,
        "assignment": 1,
        "noise_pre": 2,
        "noise_post": 3,
        "x1": 4,
    },
    "cs6": {"forcing": 0, "outcome_noise": 1, "compliance": 2},
}


def _check_case_id(case_id: str) -> None:
    if case_id not in CASE_IDS:
        raise UnknownCaseError(f"unknown case {case_id!r}")


def _check_size(case_id: str, n: int) -> None:
    """Reject an unknown case, or a sample size `n` too small for it,
    before any draw; a panel case has n // n_periods units."""
    _check_case_id(case_id)
    _check_int(10, n=n)
    p = _DEFAULT_PARAMS[case_id]
    if "n_periods" in p and n // int(p["n_periods"]) < 2:
        raise InvalidInputError("n too small for the period count")


def _truncated_normal(rng, mu, sigma, lo, hi, size):
    """Exact truncated-normal draws via the inverse-CDF transform."""
    a = ndtr((lo - mu) / sigma)
    b = ndtr((hi - mu) / sigma)
    u = rng.uniform(size=size)
    return mu + sigma * ndtri(a + u * (b - a))


# ---------------------------------------------------------------------------
# Case draws: each maps the case's parameters p, the size n and stream(name),
# the generator of one named variable of the run, to the run's datasets and
# the arrays its methods take beside them (cs1's injected scores, cs4's two
# instruments). A draw marks its own fresh arrays read-only, so the
# validators keep them without a copy.
# ---------------------------------------------------------------------------

def _draw_cs1(p: dict, n: int, stream):
    x = stream("x").normal(0.0, np.sqrt(p["x_variance"]), n)
    score = expit(p["alpha0"] + p["alpha1"] * x)
    d = (stream("assignment").uniform(size=n) < score).astype(float)
    noise = stream("outcome_noise").normal(0.0, np.sqrt(p["noise_variance"]), n)
    y = p["beta0"] + p["tau"] * d + p["beta1"] * x + noise
    fake = _truncated_normal(
        stream("misspecified_score"),
        float(score.mean()),
        p["misspecified_score_sd"],
        p["trunc_lo"],
        p["trunc_hi"],
        n,
    )
    return validate(*map(_readonly, (y, d, x))), fake


def _draw_panel(p: dict, n: int, stream):
    t_per = int(p["n_periods"])
    n_units = n // t_per
    n = n_units * t_per
    w = np.repeat(stream("unit_levels").uniform(p["w_lo"], p["w_hi"], n_units), t_per)
    if "sigma_w" in p:  # cs3: the confounder drifts over time
        w = w + stream("measurement_noise").normal(0.0, p["sigma_w"], n)
    d = p["delta"] * w + stream("treatment_noise").normal(0.0, p["sigma_d"], n)
    noise = stream("outcome_noise").normal(0.0, p["sigma_e"], n)
    y = p["alpha"] + p["tau"] * d + p["gamma"] * w + noise
    unit = np.repeat(np.arange(n_units), t_per)
    time = np.tile(np.arange(t_per), n_units)
    return validate_panel(*map(_readonly, (unit, time, y, d)))


def _draw_cs4(p: dict, n: int, stream):
    x = stream("x").normal(p["x_mean"], p["x_sd"], n)
    z = stream("instrument").normal(0.0, 1.0, n)
    d = p["alpha0"] + p["alpha1"] * x + p["alpha2"] * z
    if p["sigma_d"] > 0.0:
        d = d + stream("treatment_noise").normal(0.0, p["sigma_d"], n)
    noise = stream("outcome_noise").normal(0.0, p["sigma_e"], n)
    y = p["beta0"] + p["tau"] * d + p["beta1"] * x + noise
    z_bad = z + p["bad_coef"] * (x - p["x_mean"])
    return validate(*map(_readonly, (y, d, x))), _readonly(z), _readonly(z_bad)


def _draw_cs5(p: dict, n: int, stream):
    x0 = stream("x0").normal(0.0, 1.0, n)
    d1 = (
        stream("assignment").uniform(size=n) < expit(p["selection_strength"] * x0)
    ).astype(float)
    e0 = stream("noise_pre").normal(0.0, p["sigma_e"], n)
    e1 = stream("noise_post").normal(0.0, p["sigma_e"], n)
    y0 = p["intercept_pre"] + p["selection_level"] * d1 + p["beta_x"] * x0 + e0
    y1 = p["intercept_post"] + p["selection_level"] * d1 + p["tau"] * d1 + p["beta_x"] * x0 + e1
    x1 = stream("x1").normal(p["x1_mean"], p["x1_sd"], n)
    y1_violated = y1 + p["violation_coef"] * x1 * (1.0 - d1)
    # unit i is treated in period 1 when d1[i] is 1; its two rows come in
    # (unit, time) order, so `validate_panel` takes them as sorted, and both
    # designs share the read-only unit, time and d
    unit = _readonly(np.repeat(np.arange(n), 2))
    time = _readonly(np.tile(np.arange(2), n))
    d = _readonly(np.column_stack([np.zeros(n), d1]).ravel())

    def panel(y_post):
        return validate_panel(unit, time, _readonly(np.column_stack([y0, y_post]).ravel()), d)

    return panel(y1), panel(y1_violated)


def _draw_cs6(p: dict, n: int, stream):
    t = _readonly(stream("forcing").uniform(p["t_lo"], p["t_hi"], n))
    eps = stream("outcome_noise").normal(0.0, p["noise_sd"], n)
    d_sharp = (t >= p["cutoff"]).astype(float)
    flip = (stream("compliance").uniform(size=n) < p["flip_share"]) & (
        np.abs(t - p["cutoff"]) < p["flip_band"]
    )
    d_fuzzy = np.where(flip, 1.0 - d_sharp, d_sharp)
    y_sharp = p["intercept"] + p["slope"] * t + p["tau"] * d_sharp + eps
    y_fuzzy = p["intercept"] + p["slope"] * t + p["tau"] * d_fuzzy + eps
    return (
        validate(*map(_readonly, (y_sharp, d_sharp)), t),
        validate(*map(_readonly, (y_fuzzy, d_fuzzy)), t),
    )


def _run_stream(case_id: str, run_index: int, seed: int):
    """stream(v), the Philox generator of run `run_index`'s variable v:
    keyed (seed, case, run_index, v), with v from `_VARIABLE_STREAMS` and
    the case's index 1-6 from its id."""
    variables = _VARIABLE_STREAMS[case_id]
    key = (seed, int(case_id[2]), run_index)
    return lambda name: _keyed_stream(*key, variables[name])


def _case_inputs(case_id: str, n: int, run_index: int, seed: int) -> tuple:
    """Run `run_index`'s inputs from the case's `_CASES` draw, with the
    parameters `_DEFAULT_PARAMS` holds when it is called."""
    return _CASES[case_id][0](_DEFAULT_PARAMS[case_id], n, _run_stream(case_id, run_index, seed))


def generate(case_id: str, run_index: int, n: int = 1000, seed: int = 42):
    """Draw the dataset for one Monte Carlo run of a case study.

    Returns the draw's primary dataset: an ObservationalDataset (cs1, cs4,
    and cs6's sharp design) or a PanelDataset (cs2, cs3, and cs5's
    two-period design without the parallel-trends violation).
    """
    _check_size(case_id, n)
    _check_int(0, run_index=run_index, seed=seed)
    return _case_inputs(case_id, n, run_index, seed)[0]


# ---------------------------------------------------------------------------
# Per-case method panels
# ---------------------------------------------------------------------------

def _cs1_inputs(p, n, stream):
    """A cs1 draw, the same draw without x, and the nuisance fits, each
    built on first use: the estimated and injected scores, and the outcome
    regressions with and without x."""
    ds, fake = _draw_cs1(p, n, stream)
    ds_no_x = validate(ds.y, ds.d)
    return (
        ds,
        ds_no_x,
        functools.cache(lambda: estimate_propensity_binary(ds)),
        functools.cache(lambda: PropensityFit.from_scores(fake, ds.d)),
        functools.cache(lambda: fit_outcome_model(ds)),
        functools.cache(lambda: fit_outcome_model(ds_no_x)),
    )


_PANEL_METHODS = {
    "POLS": lambda pds: fit_pols(pds),
    "RE": lambda pds: fit_re(pds),
    "FD": lambda pds: fit_fd(pds),
    "FE": lambda pds: fit_fe(pds),
    "CRE": lambda pds: fit_cre(pds),
}

# case -> (draw, methods). The draw maps (p, n, stream), as `_case_inputs`
# passes them, to the run's inputs as a tuple; each method, in report
# order, maps those inputs to a CausalEstimate. Every function is looked up
# by its module-global name when called (hence the lambdas), so a wrapper
# set on a module attribute sees it.
_CASES = {
    "cs1": (
        lambda p, n, stream: _cs1_inputs(p, n, stream),
        {
            "OR1": lambda ds, ds_no_x, fitted, injected, full, no_x: ate_or(ds, full()),
            "OR2": lambda ds, ds_no_x, fitted, injected, full, no_x: ate_or(ds_no_x, no_x()),
            "PS1": lambda ds, ds_no_x, fitted, injected, full, no_x: ate_ipw(ds, fitted()),
            "PS2": lambda ds, ds_no_x, fitted, injected, full, no_x: ate_ipw(ds, injected()),
            "DR1": lambda ds, ds_no_x, fitted, injected, full, no_x: ate_dr(
                ds_no_x, fitted(), no_x()
            ),
            "DR2": lambda ds, ds_no_x, fitted, injected, full, no_x: ate_dr(
                ds, injected(), full()
            ),
            "DR3": lambda ds, ds_no_x, fitted, injected, full, no_x: ate_dr(
                ds_no_x, injected(), no_x()
            ),
        },
    ),
    "cs2": (lambda p, n, stream: (_draw_panel(p, n, stream),), _PANEL_METHODS),
    "cs3": (lambda p, n, stream: (_draw_panel(p, n, stream),), _PANEL_METHODS),
    "cs4": (
        lambda p, n, stream: _draw_cs4(p, n, stream),
        {
            "OR1": lambda ds, z, z_bad: ate_or(ds),
            "OR2": lambda ds, z, z_bad: ate_or(validate(ds.y, ds.d)),
            "IV1": lambda ds, z, z_bad: ate_2sls(ds.y, ds.d, z),
            "IV2": lambda ds, z, z_bad: ate_2sls(ds.y, ds.d, z_bad),
        },
    ),
    "cs5": (
        lambda p, n, stream: _draw_cs5(p, n, stream),
        {
            "DID1": lambda base, violated: ate_did(base),
            "DID2": lambda base, violated: ate_did(violated),
        },
    ),
    "cs6": (
        lambda p, n, stream: (*_draw_cs6(p, n, stream), p["cutoff"]),
        {
            "RDD1": lambda sharp, fuzzy, c: rdd_sharp(sharp.y, sharp.x[:, 0], cutoff=c),
            "RDD2": lambda sharp, fuzzy, c: rdd_sharp(fuzzy.y, fuzzy.x[:, 0], cutoff=c),
            "RDD3": lambda sharp, fuzzy, c: rdd_fuzzy(
                fuzzy.y, fuzzy.x[:, 0], fuzzy.d, cutoff=c
            ),
        },
    ),
}

CASE_METHODS = {case: tuple(methods) for case, (_, methods) in _CASES.items()}


@dataclass
class MonteCarloReport:
    """Aggregated Monte Carlo results for one case study.

    Attributes:
        case_id: the case that ran.
        methods: method labels in report order.
        runs, n, seed: experiment dimensions.
        true_tau: the effect the DGP embeds.
        av_est: mean estimate per method over successful runs.
        emp_var: empirical variance (divisor R-1) per method.
        mse: emp_var + squared bias per method (so MSE = var + bias^2 holds
            exactly).
        points: per-run estimates, shape (runs, len(methods)); a NaN or
            infinite cell marks one method's failure in one run.
        n_failed: failed-run count per method.
        metadata: parameters and notation-reading records for meta.json.
    """

    case_id: str
    methods: tuple
    runs: int
    n: int
    seed: int
    true_tau: float
    av_est: np.ndarray
    emp_var: np.ndarray
    mse: np.ndarray
    points: np.ndarray
    n_failed: np.ndarray
    metadata: dict


_NOTATION_READINGS = {
    "cs1": {
        "x_scale": "second argument of the normal law read as a variance",
        "outcome_noise_scale": "second argument read as a variance",
        "misspecified_score_scale": "second argument read as a standard deviation",
        "misspecified_score_support": "truncated to [trunc_lo, trunc_hi] by inverse-CDF sampling",
        "calibration": "x-variance reading selected by matching the covariate-omitted regression bias",
    },
    "cs2": {
        "unstated_parameters": "sigma_d=1 and sigma_e=1 chosen so the pooled and random-effects biases exceed 0.5",
        "sign": "the stated positive design parameters imply positive pooled/random-effects bias; the shipped reference table records the magnitudes with the opposite sign, so checks on this case are property-based",
    },
    "cs3": {
        "unstated_parameters": "sigma_w=5 drift noise; true effect kept at 0 per the shared design",
        "sign": "as in cs2, checks are property-based: the stated design fixes the bias magnitudes and the reference table is descriptive only",
    },
    "cs4": {
        "sigma_d": "0 (treatment deterministic given x and z), the value consistent with the documented naive bias of 0.2",
        "bad_instrument": "z_bad = z + bad_coef (x - x_mean) with bad_coef=2 so its bias exceeds the naive regression's",
    },
    "cs5": {
        "violation": "x1 ~ N(x1_mean, x1_sd^2) added to untreated units in the post period",
    },
    "cs6": {
        "fuzziness": "flip_share of units within flip_band of the cutoff receive the opposite treatment",
    },
}


def run_monte_carlo(
    case_id: str, runs: int = 1000, n: int = 1000, seed: int = 42
) -> MonteCarloReport:
    """Run one case study's Monte Carlo experiment.

    Each run draws once and runs every method of the case. A method that
    raises a CausalestError gets NaN for that run alone (a failed draw fails
    every method), and a non-finite point counts as a failure too; if any
    method fails on more than 5% of runs the experiment aborts with
    TooManyFailedReplicatesError. Results are deterministic for a fixed seed.
    """
    _check_int(2, runs=runs)
    _check_int(0, seed=seed)
    _check_size(case_id, n)
    params = dict(_DEFAULT_PARAMS[case_id])
    methods = CASE_METHODS[case_id]
    points, n_failed = _replicate(
        lambda r: _case_inputs(case_id, n, r, seed),
        list(_CASES[case_id][1].items()),
        runs,
        f"{case_id} runs",
    )
    tau = float(params["tau"])
    av = np.empty(len(methods))
    var = np.empty(len(methods))
    for j in range(len(methods)):
        ok = points[:, j][np.isfinite(points[:, j])]
        av[j] = ok.mean()
        var[j] = ok.var(ddof=1)
    mse = var + (av - tau) ** 2
    return MonteCarloReport(
        case_id=case_id,
        methods=methods,
        runs=runs,
        n=n,
        seed=seed,
        true_tau=tau,
        av_est=av,
        emp_var=var,
        mse=mse,
        points=points,
        n_failed=n_failed,
        metadata={
            "params": params,
            "notation_readings": _NOTATION_READINGS[case_id],
        },
    )


# ---------------------------------------------------------------------------
# Golden-file comparison
# ---------------------------------------------------------------------------

_REPORT_FIELDS = ("av_est", "emp_var", "mse")
_CONSISTENCY_TOL = 1e-9


@dataclass
class CellCheck:
    """One golden-comparison verdict."""

    method: str
    quantity: str
    produced: float
    expected: float
    tol: float
    passed: bool


def _packaged_tables(case_id: str) -> tuple[dict, dict]:
    """The case's packaged reference table, method -> {av_est, emp_var,
    mse}, and its tolerances, method -> {quantity: absolute tolerance}; a
    case whose acceptance is property-based ships no tolerances."""
    folder = resources.files("causalest") / "reference"
    text = (folder / f"{case_id}.csv").read_text()
    reference = {
        row["method"]: {f: float(row[f]) for f in _REPORT_FIELDS}
        for row in csv.DictReader(text.splitlines())
    }
    tol = folder / f"{case_id}_tol.json"
    return reference, json.loads(tol.read_text()) if tol.is_file() else {}


def compare_to_reference(report: MonteCarloReport) -> list[CellCheck]:
    """Check report cells against the case's packaged reference table
    within its packaged tolerances.

    Every report method must have a row in the reference table. Each report
    row also gets an internal consistency check that MSE equals variance
    plus squared bias.
    """
    _check_case_id(report.case_id)
    reference, tolerances = _packaged_tables(report.case_id)
    checks: list[CellCheck] = []
    for j, m in enumerate(report.methods):
        if m not in reference:
            raise MissingReferenceCellError(f"reference table has no row for {m}")
        produced = {
            "av_est": float(report.av_est[j]),
            "emp_var": float(report.emp_var[j]),
            "mse": float(report.mse[j]),
        }
        for quantity, tol in tolerances.get(m, {}).items():
            expected = reference[m][quantity]
            checks.append(
                CellCheck(
                    method=m,
                    quantity=quantity,
                    produced=produced[quantity],
                    expected=expected,
                    tol=tol,
                    passed=abs(produced[quantity] - expected) <= tol,
                )
            )
        recomputed = produced["emp_var"] + (produced["av_est"] - report.true_tau) ** 2
        checks.append(
            CellCheck(
                method=m,
                quantity="mse_consistency",
                produced=produced["mse"],
                expected=recomputed,
                tol=_CONSISTENCY_TOL,
                passed=abs(produced["mse"] - recomputed) <= _CONSISTENCY_TOL,
            )
        )
    return checks
