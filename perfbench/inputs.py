"""Seeded input generators for the benchmark workloads.

Every input is drawn from the workload seed alone and carries a stated
truth, so the output checks can test the program against it:

* the CSVs embed the treatment effect ``CSV_TAU``;
* the panel embeds the within effect ``PANEL_TAU``;
* one synthetic-control problem is an exact convex combination of three
  donors with known weights and a known post-period effect; another puts
  the treated unit outside the donors' hull.
"""

from __future__ import annotations

import numpy as np

# workload sizes
MC_CASES = ("cs1", "cs2", "cs3", "cs4", "cs5", "cs6")
MC_RUNS = 1000  # the paper's scale: 1,000 runs of n = 1,000 per case
MC_N = 1000
MC_SHORT_RUNS = 20  # the rerun that must reproduce the first rows of runs.csv
# 80 and 120 replicates keep a factor-2 miss of the bootstrap variance below
# 1e-4 per seed
DR_ROWS = 50_000
DR_BOOT = 80
MATCH_ROWS = 2_000
MATCH_BOOT = 40
PANEL_UNITS = 5_000
PANEL_PERIODS = 10
PANEL_BOOT = 120

CSV_TAU = 2.0
TRIM = (0.01, 0.99)  # the default score trimming of `causalest estimate`
CSV_COVARIATES = ("x1", "x2", "x3")
# assignment index alpha'x; the outcome depends on x only through it, so
# matching on the score leaves no covariate imbalance in the outcome
CSV_ALPHA = np.array([0.6, -0.4, 0.3])
CSV_INTERCEPT = -0.2
CSV_OUTCOME_SLOPE = 1.5

PANEL_TAU = -1.5

# The geometry of each synthetic-control problem is fixed: the cost of one
# sc_fit depends on it by more than a factor of ten, so a geometry
# drawn from the seed would make wall time depend on the seed. The seed
# permutes the donors and sets the effect, neither of which changes the
# cost of the fit.
SC_GEOMETRY_SEED = 20221125
SC_SHAPE = (2, 10, 5)  # characteristics, pre periods, post periods
# (geometry, true weights) of each convex-combination problem
SC_CONVEX = ((2, (0.5, 0.3, 0.2)),)
SC_OUTSIDE = 13  # geometry of the problem outside the donors' hull
SC_FIELDS = ("x1", "x0", "z1", "z0", "y1", "y0")


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, *key])))


def observational(seed: int, part: int, n: int) -> dict[str, np.ndarray]:
    """A confounded cross-section with three covariates and effect CSV_TAU."""
    rng = _rng(seed, 1, part)
    x = rng.normal(size=(n, 3))
    index = x @ CSV_ALPHA
    p1 = 1.0 / (1.0 + np.exp(-(CSV_INTERCEPT + index)))
    d = (rng.uniform(size=n) < p1).astype(float)
    y = 1.0 + CSV_TAU * d + CSV_OUTCOME_SLOPE * index + rng.normal(size=n)
    return {"y": y, "d": d, "x1": x[:, 0], "x2": x[:, 1], "x3": x[:, 2]}


def write_csv(path, columns: dict[str, np.ndarray]) -> None:
    """Write columns with ``repr`` precision, so parsing them back is exact."""
    names = list(columns)
    rows = zip(*(columns[c].tolist() for c in names))
    with open(path, "w", newline="") as handle:
        handle.write(",".join(names) + "\n")
        handle.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def panel(seed: int, n_units: int, n_periods: int) -> dict[str, np.ndarray]:
    """A balanced panel whose unit effect is correlated with the treatment.

    Pooled regression is biased; the within (fixed-effects) estimator
    recovers PANEL_TAU.
    """
    rng = _rng(seed, 2)
    a = np.repeat(rng.normal(size=n_units), n_periods)
    n = n_units * n_periods
    x = rng.normal(size=n) + 0.3 * a
    d = 0.5 * a + 0.5 * x + rng.normal(size=n)
    y = 2.0 * a + PANEL_TAU * d + 0.8 * x + rng.normal(size=n)
    return {
        "unit": np.repeat(np.arange(n_units), n_periods),
        "time": np.tile(np.arange(n_periods), n_units),
        "y": y,
        "d": d,
        "x": x,
    }


def _sc_geometry(geometry: int, perm: np.ndarray):
    k, t_pre, t_post = SC_SHAPE
    geo = np.random.default_rng([SC_GEOMETRY_SEED, geometry])
    x0 = geo.normal(0.0, 1.0, (k, 3))
    trend = np.linspace(0.0, 1.0, t_pre + t_post)[:, None]
    outcomes = geo.normal(0.0, 1.0, (t_pre + t_post, 3)) + trend
    return x0[:, perm], outcomes[:t_pre, perm], outcomes[t_pre:, perm]


def synthetic_control(seed: int) -> list[dict]:
    """Three-donor problems: exact convex combinations, then one outside the hull.

    Each problem is a dict of the ScProblem fields plus ``weights`` and
    ``effect`` (None for the problem outside the hull, which has no true
    weights).
    """
    rng = _rng(seed, 3)
    problems = []
    for geometry, w in SC_CONVEX:
        perm = rng.permutation(3)
        x0, z0, y0 = _sc_geometry(geometry, perm)
        w = np.asarray(w)[perm]
        effect = rng.uniform(1.0, 3.0)
        problems.append({
            "x1": x0 @ w, "x0": x0, "z1": z0 @ w, "z0": z0,
            "y1": y0 @ w + effect, "y0": y0, "weights": w, "effect": effect,
        })
    x0, z0, y0 = _sc_geometry(SC_OUTSIDE, rng.permutation(3))
    problems.append({
        "x1": x0.max(axis=1) + 1.0, "x0": x0, "z1": z0.max(axis=1) + 1.0, "z0": z0,
        "y1": y0.max(axis=1) + 1.0, "y0": y0, "weights": None, "effect": None,
    })
    return problems
