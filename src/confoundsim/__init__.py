"""Quantify spurious association that survives regression adjustment.

Synthetic populations in which a single latent trait drives every observed
response are generated, regressed, and summarized to measure how much
apparent effect remains after confounders are regressed out; the same
fitting engine powers a recoding and staged-analysis pipeline for real
delimited survey files.
"""

__version__ = "0.3.0"

from .ensemble import (EnsembleError, EnsembleSummary, GridCell, GridSpec,
                       empirical_beta_formula, empirical_sigma_formula,
                       population_limit, run_ensemble, scan_grid)
from .glm import (DesignMatrix, FitBatch, FitResult, NotConvergedError,
                  SingularDesignError, confidence_interval, fit_logistic,
                  inverse_logit, logit, one_hot, relative_risk)
from .ingest import (ColumnSpec, IngestError, MappingParseError, MappingRule,
                     StudySpec, apply_mappings, build_design, load_survey,
                     parse_mapping_file, parse_mapping_rule, parse_study_json,
                     staged_analysis)
from .metamodel import (ModelParams, ResponseMatrix, UndefinedCorrelationError,
                        derive_seed, draw_population, sample_correlation,
                        theoretical_correlation)

__all__ = [
    "__version__",
    "ModelParams", "ResponseMatrix", "UndefinedCorrelationError",
    "theoretical_correlation", "draw_population",
    "sample_correlation", "derive_seed",
    "DesignMatrix", "FitResult", "FitBatch", "SingularDesignError", "NotConvergedError",
    "logit", "inverse_logit", "fit_logistic", "relative_risk",
    "confidence_interval", "one_hot",
    "EnsembleError", "EnsembleSummary", "GridSpec", "GridCell",
    "run_ensemble", "empirical_beta_formula", "empirical_sigma_formula",
    "population_limit", "scan_grid",
    "MappingRule", "ColumnSpec", "StudySpec", "MappingParseError",
    "IngestError", "parse_mapping_rule", "parse_mapping_file",
    "parse_study_json", "load_survey", "apply_mappings", "build_design",
    "staged_analysis",
]
