"""Soft-threshold additive risk scores.

Clinical table scores award points when a measurement crosses a
threshold.  This package replaces each hard threshold with a logistic
ramp of trainable steepness, position and weight, so the score becomes a
differentiable model that can be fitted to outcome data while keeping
the table's structure (age-banded thresholds, OR-groups, missing-as-zero
handling) intact.

Public API highlights:

* :class:`ScoreDefinition`, :class:`ScoreParameters` — the score table
  and its trainable parameters.
* :class:`CohortDesign`, :func:`soft_scores`, :func:`hard_scores` — the
  one place a cohort becomes arrays, serving soft and table scores, the
  likelihood gradients, and row slices for cross-validation.
* :func:`fit` — projected blockwise fitting of a design with monotone
  objective trace.
* :func:`cross_validate`, :func:`evaluate_scores` — discrimination and
  calibration metrics on held-out folds of one design; :func:`roc_and_auc`
  returns the ROC table as a :class:`RocCurve` of arrays, from which every
  cutoff metric of a pooled or per-fold report is read.
* :func:`impute` — kNN, mean or normal-value imputation of missing cells.
* :func:`generate` with :mod:`softscore.presets` — synthetic cohorts
  with known ground truth.
"""
from .errors import (
    ContractViolation,
    NumericError,
    SoftScoreError,
    ValidationError,
)
from .model import (
    BINARY,
    DOWN,
    MAX_VALUED,
    MIN_VALUED,
    UP,
    AgeBand,
    BinaryFeature,
    FeatureStep,
    PatientRecord,
    RawVariable,
    ScoreDefinition,
    ScoreParameters,
    hard_score,
    validate_cohort,
)
from .design import CohortDesign, hard_scores, soft_scores
from .optimizer import (
    FitTrace,
    OptimizerConfig,
    TraceStep,
    backtracking_step,
    fit,
    gradient_log_weights,
    gradient_slopes,
    gradient_thresholds,
    negative_log_likelihood,
    penalized_objective,
    project_slopes,
    project_thresholds,
)
from .evaluation import (
    EvaluationReport,
    FoldMetrics,
    RocCurve,
    ScoredRow,
    brier,
    cross_validate,
    evaluate_scores,
    evaluate_subgroup,
    platt_probabilities,
    platt_scale,
    prec_rec_balance,
    roc_and_auc,
    stratified_fold_assignment,
    youden,
)
from .imputation import (
    ImputationMethod,
    impute,
    knn_distances,
)
from .synthetic import GeneratorConfig, ValueDistribution, generate

__version__ = "0.1.0"

__all__ = [
    "AgeBand",
    "BINARY",
    "BinaryFeature",
    "CohortDesign",
    "ContractViolation",
    "DOWN",
    "EvaluationReport",
    "FeatureStep",
    "FitTrace",
    "FoldMetrics",
    "GeneratorConfig",
    "ImputationMethod",
    "MAX_VALUED",
    "MIN_VALUED",
    "NumericError",
    "OptimizerConfig",
    "PatientRecord",
    "RawVariable",
    "RocCurve",
    "ScoreDefinition",
    "ScoreParameters",
    "ScoredRow",
    "SoftScoreError",
    "TraceStep",
    "UP",
    "ValidationError",
    "ValueDistribution",
    "__version__",
    "backtracking_step",
    "brier",
    "cross_validate",
    "evaluate_scores",
    "evaluate_subgroup",
    "fit",
    "generate",
    "gradient_log_weights",
    "gradient_slopes",
    "gradient_thresholds",
    "hard_score",
    "hard_scores",
    "impute",
    "knn_distances",
    "negative_log_likelihood",
    "penalized_objective",
    "platt_probabilities",
    "platt_scale",
    "prec_rec_balance",
    "project_slopes",
    "project_thresholds",
    "roc_and_auc",
    "soft_scores",
    "stratified_fold_assignment",
    "validate_cohort",
    "youden",
]
