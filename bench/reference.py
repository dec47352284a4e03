"""Reference computations for checking softscore's outputs.

Everything here reads the program's files (definition JSON, cohort CSV,
fitted JSON, report JSON, scores CSV) and recomputes the quantities the
program reports, by methods chosen to differ from the program's own: rank
statistics instead of a ROC sweep, per-feature column arithmetic instead of
the design matrix, brute-force neighbour search per record instead of an
all-pairs matrix.  This module must not import ``softscore``.
"""
from __future__ import annotations

import csv
import json
import math

import numpy as np

UP_KIND = "max-valued"


# ----------------------------------------------------------------------
# file readers
# ----------------------------------------------------------------------


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Cohort:
    """Cohort CSV as arrays; ``X`` holds NaN where a cell is empty."""

    def __init__(self, path):
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        if header[:3] != ["id", "age_months", "outcome"]:
            raise ValueError(f"{path}: unexpected cohort header {header[:3]}")
        body = rows[1:]
        self.names = header[3:]
        self.ids = [r[0] for r in body]
        self.ages = np.array([int(r[1]) for r in body], dtype=np.int64)
        self.y = np.array([int(r[2]) for r in body], dtype=np.int64)
        self.X = np.array(
            [[float(c) if c != "" else math.nan for c in r[3:]] for r in body],
            dtype=float,
        ).reshape(len(body), len(self.names))

    def column(self, name):
        return self.X[:, self.names.index(name)]


class Scores:
    """Scores CSV written by ``evaluate --scores`` or ``cv --scores``."""

    def __init__(self, path):
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["id", "fold", "score", "probability", "label"]:
            raise ValueError(f"{path}: unexpected scores header {rows[0]}")
        body = rows[1:]
        self.ids = [r[0] for r in body]
        self.folds = np.array([int(r[1]) for r in body], dtype=np.int64)
        self.scores = np.array([float(r[2]) for r in body])
        self.probabilities = np.array([float(r[3]) for r in body])
        self.labels = np.array([int(r[4]) for r in body], dtype=np.int64)


def feature_key(feature):
    if feature["kind"] == "step":
        return f"{feature['variable']}:step{feature['step_index']}"
    return feature["variable"]


def _variable_kinds(definition):
    return {v["name"]: v["kind"] for v in definition["variables"]}


def _band_labels(definition, ages, labels):
    """Per record, the band label among ``labels`` whose [min, max) holds its age."""
    bands = {b["label"]: b for b in definition["age_bands"]}
    out = np.empty(ages.size, dtype=object)
    found = np.zeros(ages.size, dtype=bool)
    for lab in labels:
        b = bands[lab]
        inside = (ages >= b["min_age_months"]) & (ages < b["max_age_months"])
        out[inside] = lab
        found |= inside
    if not found.all():
        raise ValueError("a record's age lies outside every band of a feature")
    return out


def _logistic(u):
    return 1.0 / (1.0 + np.exp(-np.clip(u, -500.0, 500.0)))


# ----------------------------------------------------------------------
# scores and objective
# ----------------------------------------------------------------------


def table_scores(definition, cohort: Cohort) -> np.ndarray:
    """Classic table score: strict threshold crossing, OR-group maximum.

    A step triggers when its value lies strictly beyond the age band's
    table threshold; a binary feature triggers on 1; a missing value never
    triggers.  Features sharing an OR-group contribute their largest
    triggered weight, all others add up.
    """
    kinds = _variable_kinds(definition)
    n = len(cohort.ids)
    total = np.zeros(n)
    group_best: dict[str, np.ndarray] = {}
    for f in definition["features"]:
        x = cohort.column(f["variable"])
        observed = ~np.isnan(x)
        if f["kind"] == "step":
            band = _band_labels(definition, cohort.ages, list(f["thresholds"]))
            t = np.array([f["thresholds"][lab] for lab in band], dtype=float)
            with np.errstate(invalid="ignore"):
                if kinds[f["variable"]] == UP_KIND:
                    hit = observed & (x > t)
                else:
                    hit = observed & (x < t)
        else:
            hit = observed & (x == 1.0)
        contribution = np.where(hit, float(f["weight"]), 0.0)
        group = f.get("or_group")
        if group is None:
            total += contribution
        else:
            best = group_best.setdefault(group, np.zeros(n))
            np.maximum(best, contribution, out=best)
    for best in group_best.values():
        total += best
    return total


def soft_scores(definition, fitted, cohort: Cohort) -> np.ndarray:
    """Fitted linear score sum_f w_f z_f, one feature column at a time."""
    kinds = _variable_kinds(definition)
    n = len(cohort.ids)
    total = np.zeros(n)
    for f in definition["features"]:
        key = feature_key(f)
        x = cohort.column(f["variable"])
        observed = ~np.isnan(x)
        w = float(fitted["weights"][key])
        if f["kind"] == "step":
            a = float(fitted["slopes"][key])
            table = fitted["thresholds"][key]
            band = _band_labels(definition, cohort.ages, list(table))
            t = np.array([table[lab] for lab in band], dtype=float)
            rise = _logistic(a * np.where(observed, x - t, 0.0))
            z = rise if kinds[f["variable"]] == UP_KIND else 1.0 - rise
        else:
            z = (x == 1.0).astype(float)
        total += w * np.where(observed, z, 0.0)
    return total


def penalised_objective(definition, fitted, cohort: Cohort) -> float:
    """sum log(1 + exp(-y s)), plus the lognormal weight prior when weights
    were optimised: sum(log w) + lambda * ||log w - mu||^2."""
    s = soft_scores(definition, fitted, cohort)
    value = float(np.sum(np.logaddexp(0.0, -cohort.y * s)))
    config = fitted["config"]
    if "w" in config["optimize_over"]:
        keys = [feature_key(f) for f in definition["features"]]
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.log(np.array([fitted["weights"][k] for k in keys], dtype=float))
        mu = config["prior_mu"]
        mu = np.full(v.size, float(mu)) if np.isscalar(mu) else np.array(mu, float)
        value += float(np.sum(v) + config["prior_lambda"] * np.sum((v - mu) ** 2))
    return value


def feasibility_errors(definition, fitted) -> list[str]:
    """Slopes >= 0, weights > 0, thresholds in step order within every band."""
    errors = []
    for key, a in fitted["slopes"].items():
        if not (a >= 0 and math.isfinite(a)):
            errors.append(f"slope {key} = {a} is negative or not finite")
    for key, w in fitted["weights"].items():
        if not (w > 0 and math.isfinite(w)):
            errors.append(f"weight {key} = {w} is not positive")
    kinds = _variable_kinds(definition)
    steps: dict[str, list] = {}
    for f in definition["features"]:
        if f["kind"] == "step":
            steps.setdefault(f["variable"], []).append(f)
    for var, fs in steps.items():
        fs = sorted(fs, key=lambda f: f["step_index"])
        sign = 1.0 if kinds[var] == UP_KIND else -1.0
        for lab in fs[0]["thresholds"]:
            vals = [fitted["thresholds"][feature_key(f)][lab] for f in fs]
            for lo, hi in zip(vals, vals[1:]):
                if sign * (hi - lo) < 0:
                    errors.append(
                        f"thresholds of {var} in band {lab} out of step order: {vals}"
                    )
    return errors


# ----------------------------------------------------------------------
# discrimination and calibration
# ----------------------------------------------------------------------


def _average_ranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(values.size)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def mann_whitney_auc(scores, labels) -> float:
    """P(score of a positive > score of a negative), ties counting one half."""
    s = np.asarray(scores, dtype=float)
    pos = np.asarray(labels) == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    rank_sum = float(_average_ranks(s)[pos].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _counts_at_cutoffs(scores, labels, cutoffs):
    """True and false positives when records with score >= cutoff are positive."""
    s = np.asarray(scores, dtype=float)
    pos = np.asarray(labels) == 1
    s_pos = np.sort(s[pos])
    s_neg = np.sort(s[~pos])
    tp = s_pos.size - np.searchsorted(s_pos, cutoffs, side="left")
    fp = s_neg.size - np.searchsorted(s_neg, cutoffs, side="left")
    return tp.astype(float), fp.astype(float), float(s_pos.size), float(s_neg.size)


def youden_by_cutoff(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """J = sensitivity + specificity - 1 at every distinct score and at +inf."""
    cutoffs = np.append(np.unique(np.asarray(scores, dtype=float)), math.inf)
    tp, fp, p, n = _counts_at_cutoffs(scores, labels, cutoffs)
    return cutoffs, tp / p - fp / n


def prec_rec_by_cutoff(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """min(precision, recall) at every distinct score (precision is undefined
    at +inf, where nothing is predicted positive)."""
    cutoffs = np.unique(np.asarray(scores, dtype=float))
    tp, fp, p, _ = _counts_at_cutoffs(scores, labels, cutoffs)
    return cutoffs, np.minimum(tp / (tp + fp), tp / p)


def brier(probabilities, labels) -> float:
    c = (np.asarray(labels) == 1).astype(float)
    return float(np.mean((np.asarray(probabilities, dtype=float) - c) ** 2))


# ----------------------------------------------------------------------
# kNN imputation
# ----------------------------------------------------------------------


def knn_fill(X: np.ndarray, rows, k: int) -> dict[int, dict[int, float]]:
    """Brute-force kNN fill of the missing cells of the records in ``rows``.

    Standardise each variable over its observed values; for each record,
    measure the distance to every other record over the variables both
    observe (root of the summed squared differences, divided by their
    number), walk the records from nearest to farthest (ties by record
    order) and average the first ``k`` that observe the cell; without any,
    use the column mean.  Returns {row: {column: value}}.
    """
    observed = ~np.isnan(X)
    mean = np.array([X[observed[:, j], j].mean() for j in range(X.shape[1])])
    sd = np.array([X[observed[:, j], j].std() for j in range(X.shape[1])])
    Z = np.where(observed, (X - mean) / np.where(sd > 0, sd, 1.0), np.nan)
    Z = np.where(observed & (sd > 0), Z, np.where(observed, 0.0, np.nan))
    out = {}
    for i in rows:
        shared = observed[i] & observed
        count = shared.sum(axis=1)
        diff = np.where(shared, Z - Z[i], 0.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            distance = np.sqrt(np.sum(diff * diff, axis=1)) / count
        distance[count == 0] = math.inf
        distance[i] = math.inf
        ranked = np.lexsort((np.arange(X.shape[0]), distance))
        filled = {}
        for j in np.flatnonzero(~observed[i]):
            donors = []
            for c in ranked:
                if not math.isfinite(distance[c]):
                    break
                if observed[c, j]:
                    donors.append(X[c, j])
                    if len(donors) == k:
                        break
            filled[int(j)] = sum(donors) / len(donors) if donors else float(mean[j])
        out[int(i)] = filled
    return out
