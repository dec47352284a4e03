"""Missing-value imputation: kNN, column mean, or the score's normal values.

kNN imputation measures record similarity over commonly observed variables
only: the Euclidean distance between standardized values is divided by the
number of shared variables.  A missing cell takes the average of that
variable over the k nearest records that observe it, walking further down
the neighbor list when closer records lack it; with fewer than k such donors
at a finite distance it takes the average of those found, and with none the
column mean.  The squared differences are summed one variable at a time, in
column order.  Donors are searched only for records with a missing cell, in
row blocks of at most ``_BLOCK_BYTES`` (512 KB) of distances, so memory stays
O(n * m) plus one block for n records and m variables; each cell takes its k
donors from a k-smallest selection, not a full sort of the n distances.
``impute`` fills a cohort's (n, m) value matrix and returns a new `Cohort`
with the same ids, ages, outcomes and variables.  ``knn_distances`` is the
public n x n reference for those distances, built from the same blocks.
Every imputed value is computed from the original (not already-imputed)
cohort, so a second pass is a no-op.
"""
from __future__ import annotations

import logging
import numbers
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .errors import ValidationError
from .model import Cohort, ScoreDefinition
from .optimizer import _number

logger = logging.getLogger("softscore")

KNN = "knn"
MEAN = "mean"
NORMAL = "normal"

# Bytes of one (rows, n) float64 block of kNN distances: 17 rows at n = 3711.
_BLOCK_BYTES = 2**19


@dataclass(frozen=True)
class ImputationMethod:
    """Imputation strategy: kNN with a neighbor count, column mean, or the
    score's normal (healthy) values."""

    kind: str
    k: int = 5
    normal_values: Optional[Mapping[str, float]] = None

    def __post_init__(self):
        if self.kind not in (KNN, MEAN, NORMAL):
            raise ValidationError(
                f"unknown imputation method {self.kind!r}; expected knn, mean or normal"
            )
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


def impute(cohort: Cohort, method: ImputationMethod) -> Cohort:
    """Return a copy of the cohort with every missing value filled in.

    Deterministic; neighbor ties break on the earlier record.  Raises if a
    variable is observed nowhere, or if kNN is asked for more neighbors than
    records exist to supply (k > n - 1).
    """
    if not len(cohort):
        raise ValidationError("cohort is empty")
    variables, X = cohort.variables, cohort.values
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
    return Cohort(cohort.ids, cohort.ages, cohort.outcomes, variables, filled)


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


def _block_distances(Zt, obs_f, rows):
    """Rows ``rows`` of ``knn_distances`` as one (len(rows), n) block.

    ``Zt`` is the standardized matrix transposed (m x n, NaN where missing)
    and ``obs_f`` the observed mask as 0/1 floats (n x m).  The squared
    differences are summed one variable at a time in column order; a NaN
    difference (either record lacks the variable) adds 0.
    """
    acc = np.zeros((len(rows), Zt.shape[1]))
    t = np.empty_like(acc)
    for j, z in enumerate(Zt):
        np.subtract(z, z[rows, None], out=t)
        np.multiply(t, t, out=t)
        np.fmax(t, 0.0, out=t)  # a square is >= 0: this turns only NaN into 0
        acc += t
    # shared variables per pair, exact small integers, in the spent buffer
    counts = np.matmul(obs_f[rows], obs_f.T, out=t)
    d = np.sqrt(acc, out=acc)
    with np.errstate(divide="ignore", invalid="ignore"):
        d /= counts
    d[counts == 0] = np.inf
    d[np.arange(len(rows)), rows] = np.inf
    return d


def _row_blocks(rows, n):
    """``rows`` in consecutive blocks whose (block, n) float64 distances take
    at most ``_BLOCK_BYTES`` (one row at least)."""
    size = max(1, _BLOCK_BYTES // (8 * max(n, 1)))
    return (rows[s:s + size] for s in range(0, len(rows), size))


def knn_distances(X: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """All-pairs distances over standardized values and shared variables.

    Entry (i, j) is sqrt(sum of squared standardized differences over the
    variables both records observe, summed in column order) divided by the
    number of those variables; infinite when they share none, or on the
    diagonal.  ``impute`` computes the same rows, but only for records with
    a missing cell; this n x n matrix is the reference for them.
    """
    _, Z = _standardized(X, observed)
    Zt, obs_f = np.ascontiguousarray(Z.T), observed.astype(float)
    n = len(X)
    D = np.empty((n, n))
    for rows in _row_blocks(np.arange(n), n):
        D[rows] = _block_distances(Zt, obs_f, rows)
    return D


def _nearest(d, k):
    """Indices of the k smallest finite entries of d (all finite ones if
    fewer), nearest first and ties to the earlier index: the head of a
    stable sort, found without sorting all of d."""
    finite = d < np.inf
    if np.count_nonzero(finite) > k:
        kth = np.partition(d, k - 1)[k - 1]
        near = np.flatnonzero(d < kth)
        tied = np.flatnonzero(d == kth)[: k - near.size]
        idx = np.concatenate((near, tied))
    else:
        idx = np.flatnonzero(finite)
    return idx[np.argsort(d[idx], kind="stable")]


def _fill_knn(X, observed, mu, Z, k):
    filled = X.copy()
    Zt, obs_f = np.ascontiguousarray(Z.T), observed.astype(float)
    for rows in _row_blocks(np.flatnonzero(~observed.all(axis=1)), len(X)):
        D = _block_distances(Zt, obs_f, rows)
        for i, d in zip(rows, D):
            for j in np.flatnonzero(~observed[i]):
                donors = X[_nearest(np.where(observed[:, j], d, np.inf), k), j]
                # sum() adds left to right; np.mean's pairwise sum can differ
                # in the last bit
                filled[i, j] = sum(donors.tolist()) / donors.size if donors.size else mu[j]
    return filled
