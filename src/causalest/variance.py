"""Uncertainty quantification: delta-method contrasts and the unit bootstrap.

The bootstrap resamples observations (or whole units, for panels) with
replacement, re-runs an arbitrary estimator on each replicate, and reports
the spread of the replicate estimates. Every replicate draws from its own
seeded stream, so results are bit-identical for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CausalEstimate, PanelDataset
from .errors import (
    CausalestError,
    InvalidInputError,
    MissingCoefCovarianceError,
    TooManyFailedReplicatesError,
)
from .regress import LinearFit

# a bootstrap aborts when more than this share of its replicates fail
_MAX_FAILED_SHARE = 0.10


def delta_variance(fit: LinearFit, gradient) -> float:
    """Variance of a smooth scalar g(coef) via the delta method: g' V g."""
    if fit.coef_cov is None:
        raise MissingCoefCovarianceError(
            "fit carries no coefficient covariance; cannot form a delta variance"
        )
    g = np.asarray(gradient, dtype=float)
    if g.shape != (fit.coef.shape[0],):
        raise InvalidInputError(
            f"gradient has shape {g.shape}, expected ({fit.coef.shape[0]},)"
        )
    return float(g @ fit.coef_cov @ g)


@dataclass
class BootstrapResult:
    """Replicate summary from `bootstrap_variance`.

    Attributes:
        variance: sample variance of the successful replicate estimates.
        ci: percentile interval of the replicate estimates.
        points: per-replicate estimates, NaN where the replicate failed.
        n_ok: successful replicates.
        n_failed: replicates that raised a CausalestError.
    """

    variance: float
    ci: tuple[float, float]
    points: np.ndarray
    n_ok: int
    n_failed: int


def _replicate_stream(seed: int, b: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=(b,)))
    )


def bootstrap_variance(
    data,
    estimator,
    n_boot: int = 200,
    seed: int = 42,
    level: float = 0.95,
) -> BootstrapResult:
    """Nonparametric bootstrap of an estimator over resampled data.

    `data` is an ObservationalDataset (rows resampled i.i.d.) or a
    PanelDataset (whole units resampled, keeping each unit's time series
    intact). `estimator` maps a dataset to a CausalEstimate or a float.
    Replicates that raise a CausalestError (invalid input or a failed
    estimate) are skipped; when more than 10% of them fail the bootstrap
    aborts.
    """
    if n_boot < 2:
        raise InvalidInputError("n_boot must be >= 2")
    is_panel = isinstance(data, PanelDataset)
    n_draw = data.n_units if is_panel else data.n

    def one(b: int) -> float:
        rng = _replicate_stream(seed, b)
        idx = rng.integers(0, n_draw, size=n_draw)
        sample = data.take_units(idx) if is_panel else data.take(idx)
        try:
            est = estimator(sample)
        except CausalestError:
            return np.nan
        return est.point if isinstance(est, CausalEstimate) else float(est)

    points = np.array([one(b) for b in range(n_boot)])

    ok = points[np.isfinite(points)]
    n_failed = int(n_boot - ok.size)
    if n_failed > _MAX_FAILED_SHARE * n_boot:
        raise TooManyFailedReplicatesError(
            f"{n_failed}/{n_boot} bootstrap replicates failed "
            f"(tolerance {_MAX_FAILED_SHARE:.0%})"
        )
    alpha = 1.0 - level
    lo, hi = np.quantile(ok, [alpha / 2.0, 1.0 - alpha / 2.0])
    return BootstrapResult(
        variance=float(ok.var(ddof=1)),
        ci=(float(lo), float(hi)),
        points=points,
        n_ok=int(ok.size),
        n_failed=n_failed,
    )
