"""Discrimination and calibration metrics, Platt scaling, cross-validation.

Conventions: a record is predicted positive when its score is >= the cutoff.
The ROC table has one row per distinct score (ties grouped into a single
cutoff) plus a sentinel cutoff of +inf where nothing is predicted positive.
AUC is the trapezoidal area of that curve, which equals the Mann-Whitney
pair-count with half credit for ties.  A report, pooled or per fold, reads
AUC, Youden's J and the precision-recall balance from one ROC pass.  Every
entry rejects a score or probability that is not finite, naming its position.
"""
from __future__ import annotations

import logging
import math
import numbers
import os
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .design import CohortDesign
from .errors import NumericError, ValidationError
from .numerics import logistic_newton, sigmoid_neg
from .optimizer import FitTrace, OptimizerConfig, _number, fit

logger = logging.getLogger("softscore")

# Held-out results in record order, as `io.save_scores` writes them: ids,
# fold, score, probability and label.
ScoreColumns = tuple[tuple[str, ...], np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class RocCurve(NamedTuple):
    """The ROC table as parallel arrays, one row per cutoff in descending
    order; row 0 is the +inf sentinel, where nothing is predicted positive
    and precision is NaN."""

    cutoff: np.ndarray
    sensitivity: np.ndarray
    specificity: np.ndarray
    precision: np.ndarray


@dataclass(frozen=True)
class FoldMetrics:
    """Held-out metrics of one fold and the convergence of its fit;
    discrimination fields are None when the test split contains a single
    class."""

    fold: int
    n_test: int
    n_positive: int
    auc: Optional[float]
    youden_j: Optional[float]
    youden_cutoff: Optional[float]
    prec_rec_balance: Optional[float]
    prec_rec_cutoff: Optional[float]
    brier: float
    platt: tuple[float, float]
    outer_iterations: int
    converged_reason: str
    stall_count: int


@dataclass(frozen=True, eq=False)
class EvaluationReport:
    """Pooled metrics, the ROC table, and the per-fold table."""

    n: int
    n_positive: int
    auc: float
    youden_j: float
    youden_cutoff: float
    prec_rec_balance: float
    prec_rec_cutoff: float
    brier: float
    platt: Optional[tuple[float, float]]
    roc: RocCurve
    folds: tuple[FoldMetrics, ...] = ()
    subgroup: Optional[str] = None

    @property
    def prevalence(self) -> float:
        return self.n_positive / self.n


# ----------------------------------------------------------------------
# metric primitives
# ----------------------------------------------------------------------


def _check_finite(values: np.ndarray, name: str) -> None:
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = int(bad[0])
        raise ValidationError(f"{name} at position {i} is not finite ({values[i]})")


def _check_scores_labels(scores, labels, require_both_classes=True, name="score"):
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    if s.ndim != 1 or y.shape != s.shape:
        raise ValidationError("scores and labels must be 1-d and equally long")
    if s.size == 0:
        raise ValidationError("empty score list")
    _check_finite(s, name)
    if not np.all(np.isin(y, (-1, 1))):
        raise ValidationError("labels must be -1 or +1")
    y = y.astype(int)
    if require_both_classes and (not np.any(y == 1) or not np.any(y == -1)):
        raise ValidationError("both outcome classes are required")
    return s, y


def roc_and_auc(scores, labels) -> tuple[RocCurve, float]:
    """ROC table over all distinct cutoffs and its trapezoidal area."""
    s, y = _check_scores_labels(scores, labels)
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    # records scoring >= a cutoff end at the last index of its run of ties
    last = np.flatnonzero(np.append(s_sorted[1:] != s_sorted[:-1], True))
    tp = np.append(0, np.cumsum(y[order] == 1)[last])
    fp = np.append(0, last + 1) - tp
    with np.errstate(invalid="ignore"):  # 0 / 0 at the sentinel
        precision = tp / (tp + fp)
    curve = RocCurve(
        cutoff=np.append(math.inf, s_sorted[last]),
        sensitivity=tp / tp[-1],
        specificity=1.0 - fp / fp[-1],
        precision=precision,
    )
    fpr = 1.0 - curve.specificity
    terms = 0.5 * (curve.sensitivity[1:] + curve.sensitivity[:-1]) * np.diff(fpr)
    # a left-to-right running sum: np.sum's pairwise order changes the last bits
    return curve, float(np.cumsum(terms)[-1])


def youden(scores, labels) -> tuple[float, float]:
    """Max of sensitivity + specificity - 1, with the smallest cutoff
    achieving it."""
    return _cutoff_metrics(roc_and_auc(scores, labels)[0])[0]


def prec_rec_balance(scores, labels) -> tuple[float, float]:
    """Max over cutoffs of min(precision, recall), smallest cutoff on ties.

    Cutoffs predicting nothing positive have undefined precision and are
    skipped.
    """
    return _cutoff_metrics(roc_and_auc(scores, labels)[0])[1]


def _cutoff_metrics(
    curve: RocCurve,
) -> tuple[tuple[float, float], tuple[float, float]]:
    """(Youden's J, cutoff) and (precision-recall balance, cutoff) of one
    ROC table; each is the last maximum in descending-cutoff order, so the
    smallest cutoff wins ties, and the balance skips the sentinel row."""

    def last_max(values, cutoffs):
        i = values.size - 1 - int(np.argmax(values[::-1]))
        return float(values[i]), float(cutoffs[i])

    j = curve.sensitivity + curve.specificity - 1.0
    balance = np.minimum(curve.precision[1:], curve.sensitivity[1:])
    return last_max(j, curve.cutoff), last_max(balance, curve.cutoff[1:])


def brier(probabilities, labels) -> float:
    """Mean squared error between probabilities and 0/1 outcomes."""
    p, y = _check_scores_labels(
        probabilities, labels, require_both_classes=False, name="probability"
    )
    if np.any(p < 0) or np.any(p > 1):
        raise ValidationError("probabilities must lie in [0, 1]")
    c = (y + 1) / 2.0
    return float(np.mean((p - c) ** 2))


# ----------------------------------------------------------------------
# Platt scaling
# ----------------------------------------------------------------------


def platt_scale(scores, labels) -> tuple[float, float]:
    """Fit pi(s) = 1 / (1 + exp(A s + B)) by maximum likelihood.

    Unpenalized logistic regression of the labels on the one-column design
    [s], solved by ``numerics.logistic_newton``: (A, B) = (-beta, -b).  The
    least-squares Newton step makes constant scores converge to A = 0 and the
    prevalence fit.  Raises NumericError when the solver does not converge.
    """
    s, y = _check_scores_labels(scores, labels)
    beta, b, converged = logistic_newton(s[:, None], y)
    if not converged:
        raise NumericError("Platt scaling did not converge")
    # 0.0 - x maps -0.0 to 0.0, so constant scores report A = 0.0
    return 0.0 - float(beta[0]), 0.0 - b


def platt_probabilities(scores, a: float, b: float) -> np.ndarray:
    """Apply fitted Platt coefficients: 1 / (1 + exp(A s + B))."""
    s = np.asarray(scores, dtype=float)
    return sigmoid_neg(a * s + b)


# ----------------------------------------------------------------------
# report assembly
# ----------------------------------------------------------------------


def _split_metrics(s: np.ndarray, y: np.ndarray, p) -> tuple[Optional[RocCurve], dict]:
    """The ROC table of one split and the metric fields of its report row.

    AUC, Youden's J and the precision-recall balance, with their cutoffs, come
    from one ROC pass; they and the table are None when ``y`` holds a single
    class.  The Brier score is that of the probabilities ``p``.
    """
    curve = auc = j = j_cut = pr = pr_cut = None
    if np.any(y == 1) and np.any(y == -1):
        curve, auc = roc_and_auc(s, y)
        (j, j_cut), (pr, pr_cut) = _cutoff_metrics(curve)
    return curve, dict(
        n_positive=int(np.sum(y == 1)),
        auc=auc,
        youden_j=j,
        youden_cutoff=j_cut,
        prec_rec_balance=pr,
        prec_rec_cutoff=pr_cut,
        brier=brier(p, y),
    )


def evaluate_scores(
    scores,
    labels,
    probabilities=None,
    platt: Optional[tuple[float, float]] = None,
    folds: tuple[FoldMetrics, ...] = (),
    subgroup: Optional[str] = None,
) -> EvaluationReport:
    """Assemble a full report from held-out scores.

    When ``probabilities`` is not given, Platt coefficients are fitted on the
    scores themselves (in-sample calibration) and used for the Brier score.
    """
    s, y = _check_scores_labels(scores, labels)
    if probabilities is None:
        if platt is None:
            platt = platt_scale(s, y)
        probabilities = platt_probabilities(s, *platt)
    curve, fields = _split_metrics(s, y, probabilities)
    return EvaluationReport(
        n=int(s.size), platt=platt, roc=curve, folds=folds, subgroup=subgroup, **fields
    )


# ----------------------------------------------------------------------
# cross-validation
# ----------------------------------------------------------------------


def stratified_fold_assignment(labels, k: int, rng: np.random.Generator) -> np.ndarray:
    """Deterministic stratified fold ids with total sizes differing by <= 1.

    Each class is shuffled and dealt round-robin; the dealing start rotates
    between classes so remainders spread over different folds.
    """
    y = np.asarray(labels)
    n = y.size
    if not (2 <= k <= n):
        raise ValidationError(f"fold count must lie in [2, {n}], got {k}")
    assignment = np.empty(n, dtype=np.int64)
    start = 0
    for cls in (1, -1):
        idx = rng.permutation(np.flatnonzero(y == cls))
        assignment[idx] = (start + np.arange(idx.size)) % k
        start = (start + idx.size) % k
    return assignment


def _fold_assignment(labels, folds, seed: int) -> tuple[np.ndarray, int]:
    """Fold ids and count.  Two records per class are necessary and enough
    for every training split to keep both classes: a stratified draw deals
    each class's records to distinct folds before it reuses one."""
    seed = _number("fold seed", seed, numbers.Integral)
    if seed < 0:
        raise ValidationError(f"fold seed must be >= 0, got {seed}")
    if folds != "loo":
        folds = _number("fold count", folds, numbers.Integral)
    y = np.asarray(labels)
    if np.sum(y == 1) < 2 or np.sum(y == -1) < 2:
        raise ValidationError(
            "cross-validation needs at least two records per class"
        )
    if folds == "loo":
        return np.arange(y.size, dtype=np.int64), y.size
    return stratified_fold_assignment(y, folds, np.random.default_rng(seed)), folds


class _FoldFit(NamedTuple):
    """What one fold contributes: the Platt pair fitted on its training
    split, its held-out scores, and its fit's trace without the steps."""

    platt: tuple[float, float]
    s_test: np.ndarray
    trace: FitTrace


def _fit_fold(design: CohortDesign, config, assignment, f: int) -> _FoldFit:
    """Fit fold ``f``'s training split, Platt-scale it, score its test rows."""
    train = design.take(np.flatnonzero(assignment != f))
    params, trace = fit(train, config)
    platt = platt_scale(train.scores_for(params), train.y.astype(int))
    s_test = design.take(np.flatnonzero(assignment == f)).scores_for(params)
    return _FoldFit(platt, s_test, replace(trace, steps=()))


# (design, config, assignment) of the cross-validation that forked this
# worker process; set by the pool's initializer, never in the parent
_inherited = None


def _inherit(*task):
    global _inherited
    _inherited = task


def _fit_inherited_fold(f: int) -> _FoldFit:
    return _fit_fold(*_inherited, f)


def _available_cores() -> int:
    """Cores this process may run on; 1 where the count or fork is missing."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return 1
    return len(os.sched_getaffinity(0))


def fold_workers(k: int) -> int:
    """Processes, the calling one included, that fit ``k`` folds."""
    return min(k, _available_cores())


def _fit_folds(design, config, assignment, k: int) -> list[_FoldFit]:
    """Every fold's fit, in fold order.

    With n = ``fold_workers(k)``, this process fits the folds f with
    f mod n = 0 while n - 1 workers forked from it take the others.  The
    workers inherit the design instead of unpickling it, so only fold numbers
    and results cross between processes; with n = 1 no process starts.  A
    fold's arithmetic does not depend on the process that runs it, so neither
    do the results.  The folds are read in order, this process fitting each of
    its own as it comes to it, so the lowest failing fold raises, as in a
    serial loop, and this process starts no fold above a failed one; the folds
    still queued for the workers are then dropped.
    """
    n = fold_workers(k)
    task = (design, config, assignment)
    if n == 1:
        return [_fit_fold(*task, f) for f in range(k)]
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    pool = ProcessPoolExecutor(
        n - 1, mp_context=get_context("fork"), initializer=_inherit, initargs=task
    )
    try:
        futures = {f: pool.submit(_fit_inherited_fold, f) for f in range(k) if f % n}
        return [futures[f].result() if f % n else _fit_fold(*task, f) for f in range(k)]
    finally:
        pool.shutdown(cancel_futures=True)


def cross_validate(
    design: CohortDesign, config: OptimizerConfig, folds="loo", seed: int = 0
) -> tuple[EvaluationReport, ScoreColumns]:
    """Fit on each training split, score its held-out records, pool.

    ``design`` lays out the whole cohort; every split is a row slice of it
    (``CohortDesign.take``), so no record is read twice.  ``folds`` is "loo"
    or an integer fold count for stratified k-fold, with folds drawn from
    ``seed``.  Folds are fitted in up to one process per available core
    (``fold_workers``); the results do not depend on how many.  Platt
    coefficients are fitted within each training split and produce the
    held-out probabilities; pooled metrics are computed over all held-out
    scores, and the report's own Platt pair is refitted on the pooled scores
    as a descriptive summary.  Per-fold rows, with each fold fit's
    iterations, stop reason and stalls, are omitted for leave-one-out, where
    single-record test splits make fold metrics undefined.  Logs one warning
    when any fold fit stopped at the iteration cap.

    Returns the report and the held-out columns in record order, as
    ``save_scores`` takes them: ids, fold, score, probability and label.
    Deterministic given (design, config, folds, seed); ``seed`` must be a
    non-negative integer.
    """
    labels = design.y.astype(int)
    assignment, k = _fold_assignment(labels, folds, seed)
    fits = _fit_folds(design, config, assignment, k)

    n = design.n
    scores = np.empty(n)
    probs = np.empty(n)
    fold_rows: list[FoldMetrics] = []
    for f, fold_fit in enumerate(fits):
        idx = np.flatnonzero(assignment == f)
        s_test = fold_fit.s_test
        p_test = platt_probabilities(s_test, *fold_fit.platt)
        scores[idx] = s_test
        probs[idx] = p_test
        if folds == "loo":
            continue
        _, fields = _split_metrics(s_test, labels[idx], p_test)
        fold_rows.append(
            FoldMetrics(
                fold=f,
                n_test=int(idx.size),
                platt=fold_fit.platt,
                outer_iterations=fold_fit.trace.outer_iterations,
                converged_reason=fold_fit.trace.converged_reason,
                stall_count=fold_fit.trace.stall_count,
                **fields,
            )
        )

    capped = sum(fold_fit.trace.stopped_at_cap for fold_fit in fits)
    if capped:
        logger.warning("%d of %d fold fits stopped at the iteration cap", capped, k)
    pooled_platt = platt_scale(scores, labels)
    report = evaluate_scores(
        scores,
        labels,
        probabilities=probs,
        platt=pooled_platt,
        folds=tuple(fold_rows),
    )
    return report, (design.ids, assignment, scores, probs, labels)
