"""Beta flexible Weibull lifetime distribution.

Library and CLI for a four-parameter lifetime model built by passing the
flexible Weibull CDF through the regularized incomplete beta function:
density, distribution, hazards, quantiles, sampling, moments, order
statistics, maximum-likelihood fitting with observed-information confidence
intervals, and model-selection tooling.
"""

__version__ = "0.1.0"

from .core import (
    BFWParams,
    bfw_cdf,
    bfw_cumulative_hazard,
    bfw_hazard,
    bfw_log_pdf,
    bfw_mode,
    bfw_pdf,
    bfw_quantile,
    bfw_reversed_hazard,
    bfw_sample,
    bfw_survival,
    mode_equation,
)
from .datasets import PUMPS, ingest
from .errors import (
    ConvergenceError,
    DataFormatError,
    DomainError,
    ExpansionStabilityError,
    NoInteriorModeError,
    NumericError,
    QuadratureAccuracyError,
    SaturationError,
)
from .flexible_weibull import FWParams, fw_cdf, fw_log_pdf, fw_pdf, fw_quantile, fw_sf
from .inference import (
    Dataset,
    FitResult,
    OptimizerConfig,
    confidence_intervals,
    covariance_from_information,
    fit_mle,
    interval_bounds,
    log_likelihood,
    observed_information,
    score,
)
from .model_selection import (
    ComparisonRow,
    ComparisonTable,
    InformationCriteria,
    ModelFamily,
    StepCurve,
    available_families,
    compare_models,
    ecdf,
    fit_model,
    get_family,
    information_criteria,
    kaplan_meier,
    ks_statistic,
)
from .moments import (
    MomentSummary,
    central_moment_quadrature,
    mgf,
    moment_summary,
    raw_moment_quadrature,
)
from .order_stats import OrderIndex, order_stat_pdf, order_stat_pdf_expansion
from .special import (
    digamma,
    inv_reg_inc_beta,
    log_gamma,
    polygamma,
    reg_inc_beta,
    std_normal_quantile,
    trigamma,
)

__all__ = [
    "__version__",
    # parameters and data
    "BFWParams", "FWParams", "Dataset", "PUMPS", "ingest",
    # base distribution
    "fw_cdf", "fw_pdf", "fw_log_pdf", "fw_sf", "fw_quantile",
    # four-parameter distribution
    "bfw_cdf", "bfw_pdf", "bfw_log_pdf", "bfw_survival", "bfw_hazard",
    "bfw_reversed_hazard", "bfw_cumulative_hazard", "bfw_quantile",
    "bfw_sample", "bfw_mode", "mode_equation",
    # moments
    "MomentSummary", "raw_moment_quadrature", "central_moment_quadrature",
    "moment_summary", "mgf",
    # order statistics
    "OrderIndex", "order_stat_pdf", "order_stat_pdf_expansion",
    # inference
    "FitResult", "OptimizerConfig", "log_likelihood", "score",
    "observed_information", "fit_mle", "confidence_intervals",
    "interval_bounds", "covariance_from_information",
    # model selection
    "InformationCriteria", "StepCurve", "ModelFamily", "ComparisonRow",
    "ComparisonTable", "information_criteria", "ks_statistic", "ecdf",
    "kaplan_meier", "get_family", "available_families", "fit_model",
    "compare_models",
    # special functions
    "log_gamma", "polygamma", "digamma", "trigamma",
    "reg_inc_beta", "inv_reg_inc_beta", "std_normal_quantile",
    # errors
    "DomainError", "SaturationError", "NoInteriorModeError",
    "QuadratureAccuracyError", "ExpansionStabilityError", "ConvergenceError", "NumericError",
    "DataFormatError",
]
