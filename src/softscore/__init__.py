"""Soft-threshold additive risk scores.

Clinical table scores award points when a measurement crosses a
threshold.  This package replaces each hard threshold with a logistic
ramp of trainable steepness, position and weight, so the score becomes a
differentiable model that can be fitted to outcome data while keeping
the table's age-banded thresholds and missing-as-zero handling.  OR-groups
are kept by the table score alone, which takes the largest triggered weight
of each group; the soft score sums the group's members.

Public API highlights:

* :class:`ScoreDefinition`, :class:`ScoreParameters` — the score table
  and its trainable parameters.
* :class:`Cohort` — a cohort as columns (ids, ages, outcomes, an (n, m)
  value matrix), the one cohort type every entry point reads.
* :class:`CohortDesign`, :func:`soft_scores`, :func:`hard_scores` — a
  cohort's columns laid out against a definition, serving soft and table
  scores, the likelihood kernels, and row slices for cross-validation.
* :func:`objective`, :func:`objective_gradient` — what :func:`fit`
  minimises under its config, and the gradient in (a, t, log w).
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
    Cohort,
    FeatureStep,
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
    fit,
    objective,
    objective_gradient,
)
from .evaluation import (
    EvaluationReport,
    FoldMetrics,
    RocCurve,
    brier,
    cross_validate,
    evaluate_scores,
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
    "Cohort",
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
    "RawVariable",
    "RocCurve",
    "ScoreDefinition",
    "ScoreParameters",
    "SoftScoreError",
    "TraceStep",
    "UP",
    "ValidationError",
    "ValueDistribution",
    "__version__",
    "brier",
    "cross_validate",
    "evaluate_scores",
    "fit",
    "generate",
    "hard_score",
    "hard_scores",
    "impute",
    "knn_distances",
    "objective",
    "objective_gradient",
    "platt_probabilities",
    "platt_scale",
    "prec_rec_balance",
    "roc_and_auc",
    "soft_scores",
    "stratified_fold_assignment",
    "validate_cohort",
    "youden",
]
