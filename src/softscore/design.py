"""Numeric layout of a cohort: the one place a record becomes numbers.

`CohortDesign` reads each raw variable of a cohort once, into one value column
and one observed mask, and resolves every step feature's age band with
``np.searchsorted``.  From these arrays it evaluates the soft scores, the
likelihood and its gradients in slopes, thresholds and weights, and the
classic table score.  Every step-feature kernel runs on one block helper, the
selected columns sliced once; a fit builds one per step block and keeps it
for the whole fit.
``take`` slices the design by rows, so cross-validation reads a cohort's
records once and fits every fold on a slice.
"""
from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .errors import ValidationError
from .model import (
    UP,
    PatientRecord,
    ScoreDefinition,
    ScoreParameters,
)
from .numerics import log1pexp, sigmoid

# The per-record arrays of a design, in record order.
_ROW_ARRAYS = (
    "ages", "y", "step_x", "step_observed", "t_index", "bin_z", "bin_observed"
)


class CohortDesign:
    """Numeric layout of a cohort against a score definition.

    Attributes
    ----------
    n : number of records
    ids : (n,) record ids in cohort order
    ages : (n,) ages in months
    y : (n,) outcomes in {-1, +1}
    step_x : (n, n_slopes) raw values of step features, NaN where missing
    step_observed : (n, n_slopes) bool
    step_up : (n_slopes,) bool, True for up-steps
    step_wcol : (n_slopes,) weight-vector column of each step feature
    t_index : (n, n_slopes) index into the threshold vector resolved by age
    bin_z : (n, n_binary) 0/1 indicators, 0 where missing
    bin_observed : (n, n_binary) bool
    bin_wcol : (n_binary,) weight-vector column of each binary feature
    """

    def __init__(self, cohort: Sequence[PatientRecord], definition: ScoreDefinition):
        if not cohort:
            raise ValidationError("cohort is empty")
        self.definition = definition
        d = definition
        n = len(cohort)
        self.n = n
        self.ids = tuple(r.id for r in cohort)
        self.ages = np.array([r.age_months for r in cohort], dtype=float)
        self.y = np.array([r.outcome for r in cohort], dtype=float)

        steps = [d.features[fi] for fi in d.step_feature_indices]
        binary = [d.features[fi] for fi in d.binary_feature_indices]
        self.step_x = np.empty((n, len(steps)))
        self.step_observed = np.empty((n, len(steps)), dtype=bool)
        self.bin_z = np.empty((n, len(binary)))
        self.bin_observed = np.empty((n, len(binary)), dtype=bool)
        for name in dict.fromkeys(f.variable.name for f in d.features):
            raw = [r.values.get(name) for r in cohort]
            x = np.array(raw, dtype=float)  # None becomes NaN
            observed = np.array([v is not None for v in raw], dtype=bool)
            cols = [j for j, f in enumerate(steps) if f.variable.name == name]
            self.step_x[:, cols] = x[:, None]
            self.step_observed[:, cols] = observed[:, None]
            cols = [b for b, f in enumerate(binary) if f.variable.name == name]
            self.bin_z[:, cols] = (x == 1.0)[:, None]
            self.bin_observed[:, cols] = observed[:, None]
        self.step_up = np.array([f.direction == UP for f in steps], dtype=bool)
        self.step_wcol = np.array(d.step_feature_indices, dtype=np.int64)
        self.bin_wcol = np.array(d.binary_feature_indices, dtype=np.int64)
        self.t_index = self._threshold_indices(cohort)

    def _threshold_indices(self, cohort: Sequence[PatientRecord]) -> np.ndarray:
        """Threshold-vector index of every (record, step feature) cell.

        Each variable's bands tile the population age range, so an age outside
        it lies outside every band of every step feature.
        """
        d = self.definition
        t_index = np.empty((self.n, d.n_slopes), dtype=np.int64)
        if not d.n_slopes:
            return t_index
        lo, hi = d.population_age_range
        outside = (self.ages < lo) | (self.ages >= hi)
        if outside.any():
            age = cohort[int(np.argmax(outside))].age_months
            key = d.features[d.step_feature_indices[0]].key
            raise ValidationError(
                f"age {age} months falls outside every age band of feature {key!r}"
            )
        layout = d.threshold_layout  # each feature's bands, by start age
        for j, fi in enumerate(d.step_feature_indices):
            pos = [m for m, (i, _) in enumerate(layout) if i == fi]
            starts = [d.band_by_label[layout[m][1]].min_age_months for m in pos]
            t_index[:, j] = np.searchsorted(starts, self.ages, "right")
            t_index[:, j] += pos[0] - 1
        return t_index

    def take(self, rows: Sequence[int]) -> "CohortDesign":
        """The design of the records at positions ``rows``, in that order.

        Equals ``CohortDesign([cohort[i] for i in rows], definition)`` without
        reading any record again; rows may repeat.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if not rows.size:
            raise ValidationError("cohort is empty")
        out = object.__new__(CohortDesign)
        out.__dict__.update(self.__dict__)
        out.n = int(rows.size)
        out.ids = tuple(self.ids[i] for i in rows)
        for name in _ROW_ARRAYS:
            setattr(out, name, getattr(self, name)[rows])
        return out

    # ------------------------------------------------------------------

    @property
    def has_both_classes(self) -> bool:
        return bool(np.any(self.y > 0) and np.any(self.y < 0))

    def unobserved_features(self) -> tuple[str, ...]:
        """Keys of features with no observed value anywhere in the cohort."""
        keys = []
        for j, fi in enumerate(self.definition.step_feature_indices):
            if not self.step_observed[:, j].any():
                keys.append(self.definition.features[fi].key)
        for b, fi in enumerate(self.definition.binary_feature_indices):
            if not self.bin_observed[:, b].any():
                keys.append(self.definition.features[fi].key)
        return tuple(keys)

    def step_z(
        self, a: np.ndarray, t: np.ndarray, cols: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Soft step values for the selected slope columns; 0 where missing.

        Up-steps give sigmoid(a (x - t)), down-steps 1 minus that value, so
        the two directions sum to exactly 1 for any observed x.
        """
        block = _StepBlock(self, cols)
        return block.z(a[block.sel] * block.diff(t))

    def step_diff(self, t: np.ndarray, cols: Optional[np.ndarray] = None) -> np.ndarray:
        """x - t with zeros where missing, for the selected columns."""
        return _StepBlock(self, cols).diff(t)

    def scores(self, a: np.ndarray, t: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Linear scores w'z for every record."""
        s = np.zeros(self.n)
        if self.step_wcol.size:
            s = s + self.step_z(a, t) @ w[self.step_wcol]
        if self.bin_wcol.size:
            s = s + self.bin_z @ w[self.bin_wcol]
        return s

    def scores_for(self, params: ScoreParameters) -> np.ndarray:
        if (
            params.definition is not self.definition
            and params.definition != self.definition
        ):
            raise ValidationError("parameters belong to a different score definition")
        return self.scores(params.slopes, params.thresholds, params.weights)

    def z_matrix(
        self, a: np.ndarray, t: np.ndarray, fcols: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Feature matrix z: the columns of the weight indices ``fcols`` in
        that order, or all (n, n_weights) columns in definition order."""
        d = self.definition
        if fcols is None:
            fcols = range(d.n_weights)
        Z = np.empty((self.n, len(fcols)))
        step_pos = [p for p, fi in enumerate(fcols) if fi in d.slope_index]
        if step_pos:
            cols = np.array([d.slope_index[fcols[p]] for p in step_pos])
            Z[:, step_pos] = self.step_z(a, t, cols)
        bin_pos = [p for p, fi in enumerate(fcols) if fi not in d.slope_index]
        if bin_pos:
            bcols = [d.binary_feature_indices.index(fcols[p]) for p in bin_pos]
            Z[:, bin_pos] = self.bin_z[:, bcols]
        return Z

    def nll_of_scores(self, s: np.ndarray) -> float:
        """Sum over records of log(1 + exp(-y * s))."""
        return float(log1pexp(-self.y * s).sum())

    def loss_derivative(self, s: np.ndarray) -> np.ndarray:
        """Per-record derivative of log(1 + exp(-y * s)) with respect to s."""
        return -self.y * sigmoid(-self.y * s)

    def table_scores(self) -> np.ndarray:
        """Classic table scores: the summed weights of triggered features.

        A step triggers where its observed value crosses the table threshold
        strictly (above for up-steps, below for down-steps), a binary feature
        where its value is exactly 1.  Steps outside OR-groups add up; each
        OR-group adds its largest triggered weight.  Sums run left to right:
        ungrouped weights in feature order, then the group maxima in the order
        each record first triggers them, which keeps every score bit-identical
        to adding up one record's triggered features in feature order.
        """
        d = self.definition
        table = ScoreParameters.initial(d)
        w = table.weights
        t = table.thresholds[self.t_index]
        hit = np.empty((self.n, d.n_weights), dtype=bool)
        hit[:, self.step_wcol] = self.step_observed & np.where(
            self.step_up, self.step_x > t, self.step_x < t
        )
        hit[:, self.bin_wcol] = self.bin_z == 1.0
        total = np.zeros(self.n)
        groups: dict[str, list[int]] = {}
        for fi, f in enumerate(d.features):
            if f.or_group is None:
                total += np.where(hit[:, fi], w[fi], 0.0)
            else:
                groups.setdefault(f.or_group, []).append(fi)
        if not groups:
            return total
        best = np.empty((self.n, len(groups)))
        first = np.empty((self.n, len(groups)), dtype=np.int64)
        for g, m in enumerate(groups.values()):
            best[:, g] = np.where(hit[:, m], w[m], 0.0).max(axis=1)
            first[:, g] = np.where(hit[:, m], m, d.n_weights).min(axis=1)
        best = np.take_along_axis(best, np.argsort(first, axis=1), axis=1)
        return total + np.cumsum(best, axis=1)[:, -1]


class _StepBlock:
    """The slope columns ``cols`` of a design (all when None), sliced once.

    Every step-feature kernel of the design runs on one of these, and a fit
    builds one per step block and keeps it for the whole fit: its line
    searches then evaluate each trial point with ``diff`` and ``z`` alone,
    without gathering the columns again.
    """

    __slots__ = (
        "sel", "x", "observed", "t_index", "up", "wcol", "n_thresholds"
    )

    def __init__(self, design: CohortDesign, cols: Optional[np.ndarray]):
        self.sel = sel = slice(None) if cols is None else cols
        self.x = design.step_x[:, sel]
        self.observed = design.step_observed[:, sel]
        self.t_index = design.t_index[:, sel]
        self.up = design.step_up[sel]
        self.wcol = design.step_wcol[sel]
        self.n_thresholds = design.definition.n_thresholds

    def diff(self, t: np.ndarray) -> np.ndarray:
        """x - t with zeros where missing."""
        return np.where(self.observed, self.x - t[self.t_index], 0.0)

    def z(self, u: np.ndarray) -> np.ndarray:
        """Soft step values from u = a * diff: sigmoid(u) for up-steps, 1
        minus that for down-steps, 0 where missing."""
        s = sigmoid(u)
        z = np.where(self.up, s, 1.0 - s)
        return np.where(self.observed, z, 0.0)

    def slope_gradient(self, dl, diff, sp, w) -> np.ndarray:
        """d NLL / d a of the block's slopes from the loss derivative ``dl``,
        ``diff`` at the current thresholds and ``sp`` = z (1 - z)."""
        sign = np.where(self.up, 1.0, -1.0)
        return (dl @ (diff * sp)) * w[self.wcol] * sign

    def threshold_gradient(self, dl, sp, a, w) -> np.ndarray:
        """Full-length d NLL / d t from the block's columns, with ``dl`` and
        ``sp`` as in ``slope_gradient``."""
        sign = np.where(self.up, 1.0, -1.0)
        coef = w[self.wcol] * (-sign) * a[self.sel]
        term = dl[:, None] * coef * sp
        return np.bincount(
            self.t_index.ravel(), weights=term.ravel(), minlength=self.n_thresholds
        )


def soft_scores(
    cohort: Sequence[PatientRecord],
    definition: ScoreDefinition,
    params: ScoreParameters,
) -> np.ndarray:
    """Batch linear scores w'z of a cohort."""
    return CohortDesign(cohort, definition).scores_for(params)


def hard_scores(
    cohort: Sequence[PatientRecord], definition: ScoreDefinition
) -> np.ndarray:
    """Batch classic table scores."""
    return CohortDesign(cohort, definition).table_scores()
