"""causalest: causal effect estimation and simulation benchmarks.

Estimators for observational data (outcome regression, assignment-score
weighting, regression, stratification and matching, and the augmented
doubly robust combination), linear panel models, instrumental variables,
difference-in-differences, synthetic control, and regression discontinuity,
plus a seeded Monte Carlo harness with golden-file reference checks.
"""

from . import errors
from .core import (
    CausalEstimate,
    ObservationalDataset,
    PanelDataset,
    difference_in_means,
    normal_interval,
    validate,
    validate_panel,
)
from .estimators import (
    ate_dr,
    ate_ipw,
    ate_matching,
    ate_or,
    ate_psr,
    ate_stratification,
    fit_outcome_model,
)
from .panel import (
    fit_cre,
    fit_fd,
    fit_fe,
    fit_pols,
    fit_re,
)
from .propensity import (
    BalanceTable,
    PropensityFit,
    balance_diagnostic,
    estimate_propensity_binary,
    quantile_strata,
    trim_overlap,
)
from .quasi import (
    ScFit,
    ScProblem,
    ate_2sls,
    ate_did,
    rdd_fuzzy,
    rdd_sharp,
    sc_fit,
    sc_weights,
)
from .regress import (
    IDENTITY,
    LOGIT,
    LinearFit,
    fit_logistic,
    fit_ols,
    predict,
)
from .simulate import (
    CASE_IDS,
    CASE_METHODS,
    TRUE_TAU,
    CellCheck,
    MonteCarloReport,
    compare_to_reference,
    generate,
    run_monte_carlo,
)
from .variance import (
    BootstrapResult,
    bootstrap_variance,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "ObservationalDataset",
    "PanelDataset",
    "CausalEstimate",
    "validate",
    "validate_panel",
    "difference_in_means",
    "IDENTITY",
    "LOGIT",
    "LinearFit",
    "fit_ols",
    "fit_logistic",
    "predict",
    "PropensityFit",
    "estimate_propensity_binary",
    "trim_overlap",
    "quantile_strata",
    "BalanceTable",
    "balance_diagnostic",
    "fit_outcome_model",
    "ate_or",
    "ate_ipw",
    "ate_psr",
    "ate_stratification",
    "ate_matching",
    "ate_dr",
    "fit_pols",
    "fit_re",
    "fit_fe",
    "fit_fd",
    "fit_cre",
    "ate_2sls",
    "ate_did",
    "ScProblem",
    "ScFit",
    "sc_weights",
    "sc_fit",
    "rdd_sharp",
    "rdd_fuzzy",
    "normal_interval",
    "BootstrapResult",
    "bootstrap_variance",
    "generate",
    "run_monte_carlo",
    "MonteCarloReport",
    "compare_to_reference",
    "CellCheck",
    "CASE_IDS",
    "CASE_METHODS",
    "TRUE_TAU",
    "__version__",
]
