"""Checks of each CLI command's outputs against ``reference``.

Every check returns a list of error strings; an empty list means the output
is correct.  Tolerances are relative (1e-9), far above the rounding
differences between two float64 evaluations of the same formula and far
below any change a wrong answer would make.
"""
from __future__ import annotations

import hashlib
import math
import os

import numpy as np

import reference as ref

REL_TOL = 1e-9


def _close(a, b, tol=REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_manifest(primary) -> list[str]:
    """The manifest beside ``primary`` lists correct digests of its outputs."""
    path = f"{primary}.manifest.json"
    if not os.path.isfile(path):
        return [f"{path}: missing"]
    manifest = ref.read_json(path)
    errors = []
    for out, digest in manifest["outputs"].items():
        if not os.path.isfile(out) or sha256(out) != digest:
            errors.append(f"{path}: digest of {out} does not match the file")
    return errors


def check_fit(definition, cohort: ref.Cohort, fitted_path) -> list[str]:
    fitted = ref.read_json(fitted_path)
    errors = [f"{fitted_path}: {e}" for e in ref.feasibility_errors(definition, fitted)]
    trace = fitted["trace"]
    if not trace["final_objective"] <= trace["initial_objective"]:
        errors.append(f"{fitted_path}: final objective exceeds the initial objective")
    expected = ref.penalised_objective(definition, fitted, cohort)
    if not _close(expected, trace["final_objective"]):
        errors.append(
            f"{fitted_path}: final objective {trace['final_objective']!r} differs "
            f"from the recomputed penalised objective {expected!r}"
        )
    return errors


def check_pooled_metrics(report_path, scores: ref.Scores) -> list[str]:
    """AUC, Youden's J, precision-recall balance and Brier of the report equal
    the reference computations on the scores CSV."""
    pooled = ref.read_json(report_path)["pooled"]
    s, y, p = scores.scores, scores.labels, scores.probabilities
    errors = []

    def expect(name, got, want):
        if got is None or not _close(got, want):
            errors.append(f"{report_path}: {name} {got!r}, reference {want!r}")

    expect("n", pooled["n"], s.size)
    expect("n_positive", pooled["n_positive"], int(np.sum(y == 1)))
    expect("auc", pooled["auc"], ref.mann_whitney_auc(s, y))
    for name, table, key in (
        ("youden", ref.youden_by_cutoff, "j"),
        ("prec_rec", ref.prec_rec_by_cutoff, "value"),
    ):
        cutoffs, values = table(s, y)
        best = float(values.max())
        expect(f"{name} {key}", pooled[name][key], best)
        cutoff = pooled[name]["cutoff"]
        at = values[cutoffs == (math.inf if cutoff is None else cutoff)]
        if at.size != 1 or not _close(float(at[0]), best):
            errors.append(f"{report_path}: {name} cutoff {cutoff!r} does not attain {best!r}")
    if np.any(p < 0) or np.any(p > 1):
        errors.append(f"{report_path}: scored probabilities outside [0, 1]")
    expect("brier", pooled["brier"], ref.brier(p, y))
    return errors


def _rows_match_cohort(cohort: ref.Cohort, scores: ref.Scores, where) -> list[str]:
    if scores.ids != cohort.ids:
        return [f"{where}: ids differ from the cohort's, or are not each present once"]
    if not np.array_equal(scores.labels, cohort.y):
        return [f"{where}: labels differ from the cohort's outcomes"]
    return []


def check_evaluate(definition, cohort: ref.Cohort, report_path, scores_path, fitted_path=None):
    """Scores equal the reference soft (fitted) or table (hard) scores, and the
    report's metrics equal the reference metrics."""
    scores = ref.Scores(scores_path)
    errors = _rows_match_cohort(cohort, scores, scores_path)
    if errors:
        return errors
    if fitted_path is None:
        want = ref.table_scores(definition, cohort)
    else:
        want = ref.soft_scores(definition, ref.read_json(fitted_path), cohort)
    bad = np.flatnonzero(
        np.abs(scores.scores - want) > REL_TOL * np.maximum(1.0, np.abs(want))
    )
    if bad.size:
        i = int(bad[0])
        errors.append(
            f"{scores_path}: {bad.size} scores differ from the reference, first "
            f"{cohort.ids[i]}: {scores.scores[i]!r} against {want[i]!r}"
        )
    return errors + check_pooled_metrics(report_path, scores)


def check_cv(cohort: ref.Cohort, report_path, scores_path, folds: int) -> list[str]:
    """Every record is scored exactly once, folds differ in size by at most
    one, and the pooled metrics equal the reference metrics."""
    scores = ref.Scores(scores_path)
    errors = _rows_match_cohort(cohort, scores, scores_path)
    if errors:
        return errors
    sizes = np.bincount(scores.folds, minlength=folds)
    if sizes.size != folds or np.any(scores.folds < 0):
        errors.append(f"{scores_path}: fold ids outside 0..{folds - 1}")
    elif sizes.max() - sizes.min() > 1:
        errors.append(f"{scores_path}: fold sizes {sizes.tolist()} differ by more than one")
    report = ref.read_json(report_path)
    reported = {f["fold"]: f["n_test"] for f in report["folds"]}
    if reported != {f: int(c) for f, c in enumerate(sizes)}:
        errors.append(f"{report_path}: per-fold sizes disagree with the scores CSV")
    return errors + check_pooled_metrics(report_path, scores)


def check_impute(before: ref.Cohort, after_path, k: int, sample_seed: int, sample=25):
    """Observed cells unchanged, no empty cell, and sampled records equal to
    the brute-force kNN fill."""
    after = ref.Cohort(after_path)
    if (after.ids, after.names) != (before.ids, before.names) or not (
        np.array_equal(after.ages, before.ages) and np.array_equal(after.y, before.y)
    ):
        return [f"{after_path}: ids, ages, outcomes or columns changed"]
    errors = []
    observed = ~np.isnan(before.X)
    if np.isnan(after.X).any():
        errors.append(f"{after_path}: {int(np.isnan(after.X).sum())} cells left empty")
    changed = observed & (after.X != before.X)
    if changed.any():
        errors.append(f"{after_path}: {int(changed.sum())} observed cells changed")
    incomplete = np.flatnonzero(~observed.all(axis=1))
    rng = np.random.default_rng(sample_seed)
    rows = rng.choice(incomplete, size=min(sample, incomplete.size), replace=False)
    for i, cells in ref.knn_fill(before.X, sorted(rows.tolist()), k).items():
        for j, want in cells.items():
            if not _close(after.X[i, j], want):
                errors.append(
                    f"{after_path}: record {before.ids[i]} {before.names[j]} = "
                    f"{after.X[i, j]!r}, brute-force kNN gives {want!r}"
                )
    return errors
