"""Uncertainty quantification: the unit bootstrap.

The bootstrap resamples observations (or whole units, for panels) with
replacement, re-runs an arbitrary estimator on each replicate, and reports
the spread of the replicate estimates. Every replicate draws from its own
seeded stream, so results are bit-identical for a given seed. The Monte
Carlo harness runs its experiments through the same replicate loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CausalEstimate, ObservationalDataset, PanelDataset, _check_int
from .errors import (
    CausalestError,
    InvalidInputError,
    TooManyFailedReplicatesError,
)


@dataclass
class BootstrapResult:
    """Replicate summary from `bootstrap_variance`.

    Attributes:
        variance: sample variance of the successful replicate estimates.
        ci: 95% percentile interval of the replicate estimates.
        points: per-replicate estimates, NaN or infinite where it failed.
        n_ok: successful replicates.
        n_failed: replicates that raised a CausalestError or were non-finite.
    """

    variance: float
    ci: tuple[float, float]
    points: np.ndarray
    n_ok: int
    n_failed: int


def _keyed_stream(seed: int, *key: int) -> np.random.Generator:
    """The Philox stream of SeedSequence(seed, spawn_key=key): Monte Carlo
    variables are keyed (case, run, variable), bootstrap replicates (b,)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


# an estimator fails a replicate loop, the Monte Carlo runs or the bootstrap
# replicates, when it fails on more than this share of them
_MAX_FAILED_SHARE = 0.05


def _replicate(sample, estimators: list, count: int, label: str):
    """Run every estimator on `count` seeded replicates; (points, n_failed).

    `sample(r)` builds replicate r's inputs as a tuple, and `estimators`
    holds (name, estimator) pairs, each estimator mapping those inputs to a
    CausalEstimate or a float; `points[r, j]` is estimator j's point on
    replicate r. A CausalestError from `sample` fails every estimator on
    that replicate and one from an estimator fails its cell only, leaving
    NaN; a non-finite point counts as failed too. An estimator that fails on
    more than `_MAX_FAILED_SHARE` of the replicates aborts the loop with an
    error that counts them as `label`, say "cs1 runs".
    """
    points = np.full((count, len(estimators)), np.nan)
    for r in range(count):
        try:
            inputs = sample(r)
        except CausalestError:
            continue
        for j, (_, estimate) in enumerate(estimators):
            try:
                est = estimate(*inputs)
            except CausalestError:
                continue
            points[r, j] = est.point if isinstance(est, CausalEstimate) else float(est)
    n_failed = np.count_nonzero(~np.isfinite(points), axis=0)
    for (name, _), failed in zip(estimators, n_failed):
        if failed > _MAX_FAILED_SHARE * count:
            raise TooManyFailedReplicatesError(
                f"{name} failed on {failed}/{count} {label} (tolerance {_MAX_FAILED_SHARE:.0%})"
            )
    return points, n_failed


def bootstrap_variance(
    data,
    estimator,
    n_boot: int = 200,
    seed: int = 42,
) -> BootstrapResult:
    """Nonparametric bootstrap of an estimator over resampled data.

    `data` is an ObservationalDataset (rows resampled i.i.d.) or a
    PanelDataset (whole units resampled, keeping each unit's time series
    intact). `estimator` maps a dataset to a CausalEstimate or a float.
    A row resample, and rows `take` draws from it, fits the outcome model
    by normal equations (see `fit_outcome_model`). Replicates that raise a
    CausalestError (invalid input or a failed estimate) or give a
    non-finite point are skipped; when more than 5% of them fail the
    bootstrap aborts. Any other `data` is an InvalidInputError.
    """
    _check_int(2, n_boot=n_boot)
    _check_int(0, seed=seed)
    if not isinstance(data, (ObservationalDataset, PanelDataset)):
        raise InvalidInputError(
            "bootstrap_variance resamples an ObservationalDataset or a PanelDataset, "
            f"got {type(data).__name__}"
        )
    is_panel = isinstance(data, PanelDataset)
    n_draw = data.n_units if is_panel else data.n

    def resample(b: int) -> tuple:
        idx = _keyed_stream(seed, b).integers(0, n_draw, size=n_draw)
        if is_panel:
            return (data.take_units(idx),)
        # marked as a resample, whose outcome fits solve their normal
        # equations; `take` of it keeps the mark
        sample = data.take(idx)
        object.__setattr__(sample, "_resampled", True)
        return (sample,)

    points, n_failed = _replicate(
        resample, [("estimator", estimator)], n_boot, "bootstrap replicates"
    )
    points = points[:, 0]
    ok = points[np.isfinite(points)]
    alpha = 1.0 - 0.95  # the 95% percentile interval
    lo, hi = np.quantile(ok, [alpha / 2.0, 1.0 - alpha / 2.0])
    return BootstrapResult(
        variance=float(ok.var(ddof=1)),
        ci=(float(lo), float(hi)),
        points=points,
        n_ok=int(ok.size),
        n_failed=int(n_failed[0]),
    )
