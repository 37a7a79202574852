"""Exception taxonomy for causalest.

Every failure the package raises derives from :class:`CausalestError`, so
callers, the Monte Carlo harness and the bootstrap catch one base class. It
has two branches:

* :class:`InvalidInputError` (also a ``ValueError``): the caller passed
  something the code cannot use, such as a bad shape, a non-finite value or
  an out-of-range option. ``causalest`` exits with code 2.
* every other subclass: the input was well-formed but the estimate could not
  be formed, such as a rank-deficient design or a separated logistic fit.
  ``causalest`` exits with code 3.
"""

from __future__ import annotations


class CausalestError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(CausalestError, ValueError):
    """An argument or input value the package cannot use."""


# ---------------------------------------------------------------------------
# data / validation
# ---------------------------------------------------------------------------

class DimensionMismatchError(InvalidInputError):
    """Matrix/vector dimensions are inconsistent."""


class LengthMismatchError(DimensionMismatchError):
    """Input columns do not share a common length."""


class NonFiniteValueError(InvalidInputError):
    """An input column contains NaN or infinity."""


class EmptyDatasetError(InvalidInputError):
    """Dataset has too few rows to be usable."""


class EmptyTreatmentArmError(CausalestError):
    """A required treatment arm has no units."""


# ---------------------------------------------------------------------------
# regression
# ---------------------------------------------------------------------------

class RankDeficientError(CausalestError):
    """Design matrix is (numerically) rank deficient."""


class SeparationError(CausalestError):
    """Logistic fit detected (quasi-)complete separation."""


class NoTreatmentVariationError(CausalestError):
    """The 0/1 response of a logistic fit has a single class."""


class ConvergenceError(CausalestError):
    """Iterative fit exhausted its iteration budget before converging."""


# ---------------------------------------------------------------------------
# propensity
# ---------------------------------------------------------------------------

class AllUnitsTrimmedError(CausalestError):
    """Overlap trimming removed every unit."""


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

class ZeroPropensityError(CausalestError):
    """A fitted score is exactly 0 or 1, or a divisor score is below 1e-12."""


class EmptyDoseGroupError(CausalestError):
    """No units received the requested dose."""


class NoUsableStratumError(CausalestError):
    """Every propensity stratum is missing one treatment arm."""


class InsufficientMatchesError(CausalestError):
    """An arm is smaller than the requested number of matches."""


# ---------------------------------------------------------------------------
# panel
# ---------------------------------------------------------------------------

class NoWithinVariationError(CausalestError):
    """Treatment does not vary within units (or within differences)."""


class TooFewPeriodsError(CausalestError):
    """A unit has fewer periods than the method requires."""


# ---------------------------------------------------------------------------
# quasi-experimental
# ---------------------------------------------------------------------------

class OrderConditionError(CausalestError):
    """Fewer instruments than endogenous regressors."""


class EmptyCellError(CausalestError):
    """A group-by-period cell of the 2x2 design is empty."""


class DegenerateProblemError(CausalestError):
    """Synthetic-control problem has no usable donor variation."""


class OneSidedDataError(CausalestError):
    """All forcing-variable values fall on one side of the cutoff."""


class NoFirstStageJumpError(CausalestError):
    """Assignment probability does not jump at the cutoff."""


# ---------------------------------------------------------------------------
# variance
# ---------------------------------------------------------------------------

class TooManyFailedReplicatesError(CausalestError):
    """An estimator failed on over 5% of Monte Carlo runs or 10% of bootstrap replicates."""


class MissingCoefCovarianceError(CausalestError):
    """A fit lacks the coefficient covariance the formula requires."""


# ---------------------------------------------------------------------------
# simulation harness
# ---------------------------------------------------------------------------

class UnknownCaseError(InvalidInputError):
    """Requested simulation case id is not registered."""


class MissingReferenceCellError(InvalidInputError):
    """Reference table lacks a method present in the report."""
