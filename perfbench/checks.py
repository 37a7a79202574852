"""Output checks, computed apart from the program with NumPy alone.

Each check either recomputes the program's number by an independent route
(NumPy least squares, an own Newton logistic fit, an own nearest-neighbour
search) or tests a property the method must have against the truth the
inputs embed. None compares against a stored copy of earlier output.
Each workload's check takes the work directory, one round's outputs and
what the worker ran after the rounds, and returns the names of the parts
whose check failed.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

import inputs

# the effects the case designs embed (the paper's cs1-cs6)
TRUE_TAU = {"cs1": -5.0, "cs2": 0.0, "cs3": 0.0, "cs4": -1.0, "cs5": -4.0, "cs6": 5.0}
# estimators the paper shows to be consistent in each case
CONSISTENT = {
    "cs1": ("OR1", "PS1", "DR1", "DR2"),
    "cs2": ("FE", "FD", "CRE"),
    "cs4": ("OR1", "IV1"),
    "cs5": ("DID1",),
    "cs6": ("RDD1", "RDD3"),
}
MC_SE_BOUND = 5.0  # Monte Carlo standard errors a consistent mean may stray
POINT_SE_BOUND = 4.0  # standard errors a point may stray from the embedded effect
VARIANCE_FACTOR = 2.0  # bootstrap variance against the analytic one
RTOL = 1e-8  # same number by two routes


def _close(a: float, b: float, rtol: float = RTOL) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# mc_suite
# ---------------------------------------------------------------------------

def _read_table(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    """Header, first column and numeric body of a CSV table."""
    with open(path, newline="") as handle:
        header, *rows = list(csv.reader(handle))
    return header, [row[0] for row in rows], np.array([[float(v) for v in row[1:]] for row in rows])


def mc_suite(work: Path, outputs: dict, finish: dict) -> set[str]:
    failed = set()
    for case in inputs.MC_CASES:
        out = outputs[case]
        verdicts = [ln for ln in out["lines"] if ln.startswith(("[ok] ", "[FAIL] "))]
        # exit code 1 means a reference check failed; the verdict lines say which case
        ok = out["rc"] in (0, 1) and finish["short_rc"] == 0
        ok = ok and bool(verdicts) and all(ln.startswith("[ok] ") for ln in verdicts)

        header, _, runs = _read_table(work / "mc" / case / "runs.csv")
        methods = header[1:]
        ok = ok and runs.shape[0] == inputs.MC_RUNS and np.isfinite(runs).all()
        tau = TRUE_TAU[case]
        av = runs.mean(axis=0)
        var = runs.var(axis=0, ddof=1)
        mse = var + (av - tau) ** 2
        report_header, report_methods, report = _read_table(work / "mc" / case / "report.csv")
        ok = ok and report_header == ["method", "av_est", "emp_var", "mse"] and report_methods == methods
        ok = ok and all(
            _close(mine, theirs, 1e-9)
            for mine, theirs in zip(np.column_stack([av, var, mse]).ravel(), report.ravel())
        )
        se = np.sqrt(var / inputs.MC_RUNS)
        for m in CONSISTENT.get(case, ()):
            j = methods.index(m)
            ok = ok and abs(av[j] - tau) <= MC_SE_BOUND * se[j]

        full = (work / "mc" / case / "runs.csv").read_text().splitlines()
        short = (work / "mc_short" / case / "runs.csv").read_text().splitlines()
        ok = ok and len(short) == inputs.MC_SHORT_RUNS + 1 and short == full[: len(short)]
        if not ok:
            failed.add(case)
    return failed


# ---------------------------------------------------------------------------
# estimate_csv
# ---------------------------------------------------------------------------

def newton_logistic(design: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Maximum-likelihood logistic coefficients by plain Newton steps."""
    beta = np.zeros(design.shape[1])
    for _ in range(100):
        p = 1.0 / (1.0 + np.exp(-(design @ beta)))
        hessian = design.T @ (design * (p * (1.0 - p))[:, None])
        step = np.linalg.solve(hessian, design.T @ (d - p))
        beta = beta + step
        if np.max(np.abs(step)) < 1e-13 * max(1.0, np.max(np.abs(beta))):
            return beta
    raise RuntimeError("Newton logistic fit did not converge")


def _trimmed(columns: dict[str, np.ndarray]):
    """Rows kept by the score trimming, with their treated-probabilities."""
    x = np.column_stack([columns[c] for c in inputs.CSV_COVARIATES])
    d = columns["d"]
    design = np.column_stack([np.ones(d.shape[0]), x])
    p1 = 1.0 / (1.0 + np.exp(-(design @ newton_logistic(design, d))))
    received = np.where(d == 1.0, p1, 1.0 - p1)
    keep = (received >= inputs.TRIM[0]) & (received <= inputs.TRIM[1])
    return columns["y"][keep], d[keep], x[keep], p1[keep]


def dr_oracle(columns: dict[str, np.ndarray]) -> tuple[float, float, int]:
    """Augmented inverse-weighting point, its analytic variance, and rows used."""
    y, d, x, p1 = _trimmed(columns)
    n = y.shape[0]
    beta = np.linalg.lstsq(np.column_stack([np.ones(n), d, x]), y, rcond=None)[0]
    m1 = beta[0] + beta[1] + x @ beta[2:]
    m0 = beta[0] + x @ beta[2:]
    contrib = m1 + d * (y - m1) / p1 - (m0 + (1.0 - d) * (y - m0) / (1.0 - p1))
    return float(contrib.mean()), float(contrib.var(ddof=1) / n), n


def _nearest(target: np.ndarray, pool: np.ndarray) -> np.ndarray:
    """Index into `pool` of each target's nearest score; ties go to the lowest index."""
    order = np.lexsort((np.arange(pool.shape[0]), pool))
    ranked = pool[order]
    # first position of each run of equal scores holds its lowest index
    first = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    values = ranked[first]
    right = np.clip(np.searchsorted(values, target), 0, values.shape[0] - 1)
    left = np.clip(right - 1, 0, values.shape[0] - 1)
    lo, hi = order[first[left]], order[first[right]]
    d_lo, d_hi = np.abs(target - pool[lo]), np.abs(target - pool[hi])
    return np.where((d_lo < d_hi) | ((d_lo == d_hi) & (lo < hi)), lo, hi)


def match_oracle(columns: dict[str, np.ndarray]) -> tuple[float, float, int]:
    """One-to-one score matching with replacement: point, its variance, rows used.

    The variance is the exact one given the matches, with the unit outcome
    noise the inputs embed: unit j enters the point with weight
    (1 + K_j) / n, where K_j counts the times it serves as a match.
    """
    y, d, _x, p1 = _trimmed(columns)
    n = y.shape[0]
    idx_t, idx_c = np.flatnonzero(d == 1.0), np.flatnonzero(d == 0.0)
    match_t = idx_c[_nearest(p1[idx_t], p1[idx_c])]
    match_c = idx_t[_nearest(p1[idx_c], p1[idx_t])]
    point = ((y[idx_t] - y[match_t]).sum() + (y[match_c] - y[idx_c]).sum()) / n
    uses = np.bincount(np.r_[match_t, match_c], minlength=n)
    return float(point), float(np.sum((1.0 + uses) ** 2) / n**2), n


def estimate_csv(work: Path, outputs: dict, finish: dict) -> set[str]:
    failed = set()
    oracles = {}
    for part, oracle in (("dr", dr_oracle), ("match", match_oracle)):
        with np.load(work / f"{part}.npz") as data:
            point, variance, n_used = oracles[part] = oracle({k: data[k] for k in data.files})
        out = outputs[part]
        if out["rc"] != 0:
            failed.add(part)
            continue
        report = json.loads(out["stdout"])
        ok = report["n_used"] == n_used and _close(report["point"], point)
        ok = ok and abs(point - inputs.CSV_TAU) <= POINT_SE_BOUND * np.sqrt(variance)
        if part == "dr":
            ok = ok and 1.0 / VARIANCE_FACTOR <= report["variance"] / variance <= VARIANCE_FACTOR
        if not ok:
            failed.add(part)
    # every matching replicate succeeded and estimates the embedded effect; a
    # replicate strays about sqrt(2) times as far as the point does
    boot = outputs["match_boot"]
    reach = 2 * POINT_SE_BOUND * np.sqrt(oracles["match"][1])
    if boot["failed"] or not np.all(np.abs(np.asarray(boot["points"]) - inputs.CSV_TAU) <= reach):
        failed.add("match_boot")
    return failed


# ---------------------------------------------------------------------------
# panel_synth
# ---------------------------------------------------------------------------

def fe_oracle(panel: dict[str, np.ndarray]) -> tuple[float, float]:
    """Within estimator by unit demeaning and NumPy least squares, with its variance."""
    codes = panel["unit"]
    counts = np.bincount(codes)

    def demean(v):
        return v - (np.bincount(codes, weights=v) / counts)[codes]

    design = np.column_stack([demean(panel["d"]), demean(panel["x"])])
    yw = demean(panel["y"])
    beta, rss, _, _ = np.linalg.lstsq(design, yw, rcond=None)
    dof = yw.shape[0] - counts.shape[0] - design.shape[1]
    cov = rss[0] / dof * np.linalg.inv(design.T @ design)
    return float(beta[0]), float(cov[0, 0])


def panel_synth(work: Path, outputs: dict, finish: dict) -> set[str]:
    failed = set()
    with np.load(work / "panel.npz") as data:
        point, variance = fe_oracle({k: data[k] for k in data.files})
    fe = outputs["fe_boot"]
    ratio = fe["boot_variance"] / variance
    if not (
        _close(fe["point"], point)
        and fe["boot_failed"] == 0
        and 1.0 / VARIANCE_FACTOR <= ratio <= VARIANCE_FACTOR
    ):
        failed.add("fe_boot")
    problems = json.loads((work / "sc.json").read_text())
    for i, problem in enumerate(problems):
        fit = outputs[f"sc{i}"]
        w = np.asarray(fit["weights"])
        ok = w.shape == (3,) and bool(np.all(w >= 0.0)) and abs(w.sum() - 1.0) <= 1e-9
        if problem["weights"] is not None:
            ok = ok and np.max(np.abs(w - problem["weights"])) <= 1e-3
            ok = ok and abs(fit["point"] - problem["effect"]) <= 1e-2
        if not ok:
            failed.add(f"sc{i}")
    return failed
