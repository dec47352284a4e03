"""Missing-value imputation and the ridge logistic reference model.

kNN imputation measures record similarity over commonly observed variables
only: the Euclidean distance between standardized values is divided by the
number of shared variables.  A missing cell takes the average of that
variable over the k nearest records that observe it, walking further down
the neighbor list when closer records lack it; with fewer than k such donors
at a finite distance it takes the average of those found, and with none the
column mean.  Donors are searched only for records with a missing cell, one
record at a time, so memory stays O(n * m) for n records and m variables;
``knn_distances`` is the public n x n reference for those distances.  Every
imputed value is computed from the original (not already-imputed) cohort, so
a second pass is a no-op.
"""
from __future__ import annotations

import logging
import numbers
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import ValidationError
from .model import PatientRecord, ScoreDefinition
from .numerics import logistic_newton, sigmoid
from .optimizer import _number

logger = logging.getLogger("softscore")

KNN = "knn"
MEAN = "mean"
NORMAL = "normal"


@dataclass(frozen=True)
class ImputationMethod:
    """Imputation strategy: kNN with a neighbor count, column mean, or the
    score's normal (healthy) values."""

    kind: str
    k: int = 5
    normal_values: Optional[Mapping[str, float]] = None

    def __post_init__(self):
        if self.kind not in (KNN, MEAN, NORMAL):
            raise ValidationError(f"unknown imputation method {self.kind!r}")
        if self.kind == KNN:
            object.__setattr__(self, "k", _number("k", self.k, numbers.Integral))
            if self.k < 1:
                raise ValidationError("k must be >= 1")
        if self.kind == NORMAL:
            if not self.normal_values:
                raise ValidationError("normal imputation needs a normal-value table")
            object.__setattr__(
                self,
                "normal_values",
                {str(k): float(v) for k, v in self.normal_values.items()},
            )

    @classmethod
    def knn(cls, k: int = 5) -> "ImputationMethod":
        return cls(KNN, k=k)

    @classmethod
    def mean(cls) -> "ImputationMethod":
        return cls(MEAN)

    @classmethod
    def normal_from_definition(cls, definition: ScoreDefinition) -> "ImputationMethod":
        """Normal-value table from the definition; every continuous variable
        must declare one."""
        table = {}
        missing = []
        for v in definition.variables:
            if v.normal_value is not None:
                table[v.name] = v.normal_value
            elif v.kind != "binary":
                missing.append(v.name)
        if missing:
            raise ValidationError(
                f"variables without a normal_value: {', '.join(missing)}"
            )
        return cls(NORMAL, normal_values=table)


def _cohort_matrix(
    cohort: Sequence[PatientRecord], variables: Optional[Sequence[str]] = None
):
    """Variable names and the n x m value matrix, NaN where missing; the
    variables default to every name in order of first appearance."""
    if variables is None:
        variables = list(dict.fromkeys(name for r in cohort for name in r.values))
    X = np.full((len(cohort), len(variables)), np.nan)
    for i, r in enumerate(cohort):
        for j, name in enumerate(variables):
            v = r.value(name)
            if v is not None:
                X[i, j] = v
    return list(variables), X


def impute(
    cohort: Sequence[PatientRecord], method: ImputationMethod
) -> list[PatientRecord]:
    """Return a copy of the cohort with every missing value filled in.

    Deterministic; neighbor ties break on the earlier record.  Raises if a
    variable is observed nowhere, or if kNN is asked for more neighbors than
    records exist to supply (k > n - 1).
    """
    if not cohort:
        raise ValidationError("cohort is empty")
    variables, X = _cohort_matrix(cohort)
    observed = ~np.isnan(X)
    n = len(cohort)

    if method.kind == NORMAL:
        for j, name in enumerate(variables):
            if not observed[:, j].all() and name not in method.normal_values:
                raise ValidationError(
                    f"variable {name!r} is missing and has no normal_value"
                )
        fill = [method.normal_values.get(name, np.nan) for name in variables]
        filled = np.where(observed, X, fill)
    else:
        for j, name in enumerate(variables):
            if not observed[:, j].any():
                raise ValidationError(f"variable {name!r} is observed nowhere")
        if method.kind == KNN and method.k > n - 1:
            raise ValidationError(
                f"k = {method.k} exceeds the {n - 1} neighbors available"
            )
        mu, Z = _standardized(X, observed)
        if method.kind == MEAN:
            filled = np.where(observed, X, mu)
        else:
            filled = _fill_knn(X, observed, mu, Z, method.k)

    out = []
    for i, r in enumerate(cohort):
        values = {name: float(filled[i, j]) for j, name in enumerate(variables)}
        out.append(
            PatientRecord(
                id=r.id, age_months=r.age_months, outcome=r.outcome, values=values
            )
        )
    return out


def _standardized(X, observed):
    """Column means over the observed cells, and X standardized by them:
    NaN where missing, 0 in a column whose observed values are all equal."""
    m = X.shape[1]
    mu = np.empty(m)
    sd = np.empty(m)
    for j in range(m):
        col = X[observed[:, j], j]
        mu[j] = np.mean(col)
        sd[j] = np.std(col)
    Z = np.where(observed, (X - mu) / np.where(sd > 0, sd, 1.0), np.nan)
    Z = np.where(observed & (sd > 0), Z, np.where(observed, 0.0, np.nan))
    return mu, Z


def _distances_from(i, Z, observed):
    """Row i of ``knn_distances``: O(n * m) memory, one row at a time."""
    common = observed[i] & observed
    diff = np.where(common, Z - Z[i], 0.0)
    counts = common.sum(axis=1)
    with np.errstate(invalid="ignore"):
        d = np.sqrt(np.sum(diff * diff, axis=1)) / counts
    d[counts == 0] = np.inf
    d[i] = np.inf
    return d


def knn_distances(X: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """All-pairs distances over standardized values and shared variables.

    Entry (i, j) is sqrt(sum of squared standardized differences over the
    variables both records observe) divided by the number of those variables;
    infinite when they share none, or on the diagonal.  ``impute`` computes
    the same rows, but only for records with a missing cell; this n x n
    matrix is the reference for them.
    """
    _, Z = _standardized(X, observed)
    return np.array([_distances_from(i, Z, observed) for i in range(len(X))])


def _fill_knn(X, observed, mu, Z, k):
    filled = X.copy()
    for i in np.flatnonzero(~observed.all(axis=1)):
        d = _distances_from(i, Z, observed)
        order = np.argsort(d, kind="stable")  # ties: the earlier record first
        order = order[np.isfinite(d[order])]
        for j in np.flatnonzero(~observed[i]):
            donors = X[order[observed[order, j]][:k], j]
            # sum() adds left to right; np.mean's pairwise sum can differ in
            # the last bit
            filled[i, j] = sum(donors.tolist()) / donors.size if donors.size else mu[j]
    return filled


# ----------------------------------------------------------------------
# ridge logistic baseline
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RidgeLogisticFit:
    """Result of the penalized logistic baseline."""

    variables: tuple[str, ...]
    weights: np.ndarray
    intercept: float
    objective_history: tuple[float, ...]
    gradient_norm: float
    converged: bool

    def scores(self, X) -> np.ndarray:
        return np.asarray(X, dtype=float) @ self.weights + self.intercept

    def probabilities(self, X) -> np.ndarray:
        return sigmoid(self.scores(X))


def cohort_matrix(
    cohort: Sequence[PatientRecord], variables: Optional[Sequence[str]] = None
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Complete-data design matrix plus labels; raises on missing cells."""
    variables, X = _cohort_matrix(cohort, variables)
    if np.isnan(X).any():
        raise ValidationError("cohort still contains missing values; impute first")
    y = np.array([r.outcome for r in cohort], dtype=float)
    return tuple(variables), X, y


def ridge_logistic_fit(
    cohort: Sequence[PatientRecord],
    lambda_ridge: float = 1.0,
    variables: Optional[Sequence[str]] = None,
) -> RidgeLogisticFit:
    """Minimize NLL + lambda ||beta||^2 with an unpenalized intercept.

    The cohort must be complete (impute first).  Solved by
    ``numerics.logistic_newton``, a damped Newton method, which converges
    without standardizing the columns; ``converged`` is False when the solver
    gives up, and ``gradient_norm`` is taken at the returned point.
    Deterministic.
    """
    if lambda_ridge < 0:
        raise ValidationError("lambda_ridge must be >= 0")
    names, X, y = cohort_matrix(cohort, variables)
    if not (np.any(y == 1) and np.any(y == -1)):
        raise ValidationError("both outcome classes are required to fit")
    return RidgeLogisticFit(names, *logistic_newton(X, y, lambda_ridge))
