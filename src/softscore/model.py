"""Domain types for soft-threshold additive risk scores.

A score definition lists raw clinical variables, age bands, and an ordered set
of scoring features.  A step feature turns a continuous variable into a value
in [0, 1] through a logistic ramp around an age-resolved threshold; a binary
feature contributes an indicator.  A cohort is held as columns,
:class:`Cohort`, the only cohort type.
:class:`softscore.design.CohortDesign` lays a cohort's columns out against a
definition and evaluates both the smooth score and the classic table score
(`hard_score` here for the raw values of a single record).
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional, Union

import numpy as np

from .errors import ContractViolation, ValidationError

logger = logging.getLogger("softscore")

MAX_VALUED = "max-valued"
MIN_VALUED = "min-valued"
BINARY = "binary"

UP = "up"
DOWN = "down"


@dataclass(frozen=True)
class RawVariable:
    """A measured clinical quantity.

    ``kind`` states how the worst value over an observation window was taken:
    ``max-valued`` variables are risky when high, ``min-valued`` when low,
    ``binary`` variables are 0/1 indicators.
    """

    name: str
    kind: str
    unit: str = ""
    physiological_range: tuple[float, float] = (0.0, 1.0)
    normal_value: Optional[float] = None

    def __post_init__(self):
        if not self.name:
            raise ValidationError("variable name must be non-empty")
        if self.kind not in (MAX_VALUED, MIN_VALUED, BINARY):
            raise ValidationError(
                f"variable {self.name!r}: unknown kind {self.kind!r}"
            )
        lo, hi = self.physiological_range
        if not (float(lo) < float(hi)):
            raise ValidationError(
                f"variable {self.name!r}: physiological_range must satisfy lo < hi"
            )
        object.__setattr__(self, "physiological_range", (float(lo), float(hi)))
        if self.normal_value is not None:
            v = float(self.normal_value)
            if not (lo <= v <= hi):
                raise ValidationError(
                    f"variable {self.name!r}: normal_value {v} outside physiological_range"
                )
            object.__setattr__(self, "normal_value", v)


@dataclass(frozen=True)
class AgeBand:
    """Half-open age interval [min_age_months, max_age_months)."""

    label: str
    min_age_months: int
    max_age_months: int

    def __post_init__(self):
        if not self.label:
            raise ValidationError("age band label must be non-empty")
        if not (0 <= self.min_age_months < self.max_age_months):
            raise ValidationError(
                f"age band {self.label!r}: need 0 <= min < max, "
                f"got [{self.min_age_months}, {self.max_age_months})"
            )

    def contains(self, age_months: float) -> bool:
        return self.min_age_months <= age_months < self.max_age_months


@dataclass(frozen=True)
class FeatureStep:
    """One threshold step of a continuous variable.

    ``thresholds`` maps age-band labels to the hard threshold used for
    patients in that band.  ``initial_weight`` is the point value of the step
    in the existing table-based score.
    """

    variable: RawVariable
    step_index: int
    thresholds: Mapping[str, float]
    initial_weight: float
    or_group: Optional[str] = None

    def __post_init__(self):
        if self.variable.kind == BINARY:
            raise ValidationError(
                f"feature for {self.variable.name!r}: binary variables cannot carry steps"
            )
        if self.step_index < 0:
            raise ValidationError(
                f"feature {self.variable.name!r}: step_index must be >= 0"
            )
        if not self.thresholds:
            raise ValidationError(
                f"feature {self.variable.name!r}: thresholds must be non-empty"
            )
        object.__setattr__(
            self, "thresholds", {str(k): float(v) for k, v in self.thresholds.items()}
        )
        if not (float(self.initial_weight) > 0):
            raise ValidationError(
                f"feature {self.variable.name!r}: initial_weight must be positive"
            )
        object.__setattr__(self, "initial_weight", float(self.initial_weight))
        if self.or_group is not None and not self.or_group:
            raise ValidationError("or_group label must be non-empty when present")

    @property
    def direction(self) -> str:
        return UP if self.variable.kind == MAX_VALUED else DOWN

    @property
    def key(self) -> str:
        return f"{self.variable.name}:step{self.step_index}"


@dataclass(frozen=True)
class BinaryFeature:
    """An indicator feature contributing its weight when the value equals 1."""

    variable: RawVariable
    initial_weight: float
    or_group: Optional[str] = None

    def __post_init__(self):
        if self.variable.kind != BINARY:
            raise ValidationError(
                f"binary feature requires a binary variable, got {self.variable.name!r}"
            )
        if not (float(self.initial_weight) > 0):
            raise ValidationError(
                f"feature {self.variable.name!r}: initial_weight must be positive"
            )
        object.__setattr__(self, "initial_weight", float(self.initial_weight))
        if self.or_group is not None and not self.or_group:
            raise ValidationError("or_group label must be non-empty when present")

    @property
    def key(self) -> str:
        return self.variable.name


Feature = Union[FeatureStep, BinaryFeature]


@dataclass(frozen=True)
class Block:
    """All feature indices belonging to one raw variable."""

    variable: str
    feature_indices: tuple[int, ...]


@dataclass(frozen=True)
class ScoreDefinition:
    """A complete score: variables, age bands, and the ordered feature list.

    Feature order fixes the layout of every parameter vector.  Weights carry
    one entry per feature; slopes one entry per step feature; thresholds one
    entry per (step feature, age band) pair, bands ordered by min age.
    """

    name: str
    variables: tuple[RawVariable, ...]
    features: tuple[Feature, ...]
    age_bands: tuple[AgeBand, ...]

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "features", tuple(self.features))
        object.__setattr__(self, "age_bands", tuple(self.age_bands))
        self._validate()

    def _validate(self):
        if not self.name:
            raise ValidationError("score definition needs a name")
        if not self.features:
            raise ValidationError("score definition needs at least one feature")
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ValidationError("variable names must be unique")
        labels = [b.label for b in self.age_bands]
        if len(set(labels)) != len(labels):
            raise ValidationError("age band labels must be unique")
        by_name = {v.name: v for v in self.variables}
        band_by_label = {b.label: b for b in self.age_bands}
        for f in self.features:
            reg = by_name.get(f.variable.name)
            if reg is None or reg != f.variable:
                raise ValidationError(
                    f"feature {f.key!r} references a variable not declared in the definition"
                )
            if isinstance(f, FeatureStep):
                for lab in f.thresholds:
                    if lab not in band_by_label:
                        raise ValidationError(
                            f"feature {f.key!r}: unknown age band {lab!r}"
                        )
        keys = [f.key for f in self.features]
        if len(set(keys)) != len(keys):
            raise ValidationError("feature keys must be unique (variable, step_index)")
        self._validate_steps(band_by_label)

    def _validate_steps(self, band_by_label):
        lo = min(b.min_age_months for b in self.age_bands) if self.age_bands else 0
        hi = max(b.max_age_months for b in self.age_bands) if self.age_bands else 0
        steps_by_var: dict[str, list[FeatureStep]] = {}
        for f in self.features:
            if isinstance(f, FeatureStep):
                steps_by_var.setdefault(f.variable.name, []).append(f)
        for var, steps in steps_by_var.items():
            band_sets = {frozenset(s.thresholds) for s in steps}
            if len(band_sets) != 1:
                raise ValidationError(
                    f"variable {var!r}: all steps must use the same age-band set"
                )
            bands = sorted(
                (band_by_label[lab] for lab in next(iter(band_sets))),
                key=lambda b: b.min_age_months,
            )
            cursor = lo
            for b in bands:
                if b.min_age_months != cursor:
                    raise ValidationError(
                        f"variable {var!r}: age bands must tile [{lo}, {hi}) "
                        f"without gaps or overlap"
                    )
                cursor = b.max_age_months
            if cursor != hi:
                raise ValidationError(
                    f"variable {var!r}: age bands must cover ages up to {hi}"
                )
            ordered = sorted(steps, key=lambda s: s.step_index)
            sign = 1.0 if ordered[0].direction == UP else -1.0
            for a, b in zip(ordered, ordered[1:]):
                for lab in a.thresholds:
                    if not (sign * b.thresholds[lab] > sign * a.thresholds[lab]):
                        raise ValidationError(
                            f"variable {var!r}: thresholds of successive steps must be "
                            f"strictly {'increasing' if sign > 0 else 'decreasing'} "
                            f"in band {lab!r}"
                        )

    # ------------------------------------------------------------------
    # derived layout
    # ------------------------------------------------------------------

    @cached_property
    def band_by_label(self) -> Mapping[str, AgeBand]:
        return {b.label: b for b in self.age_bands}

    @cached_property
    def step_feature_indices(self) -> tuple[int, ...]:
        return tuple(
            i for i, f in enumerate(self.features) if isinstance(f, FeatureStep)
        )

    @cached_property
    def binary_feature_indices(self) -> tuple[int, ...]:
        return tuple(
            i for i, f in enumerate(self.features) if isinstance(f, BinaryFeature)
        )

    @property
    def n_weights(self) -> int:
        return len(self.features)

    @property
    def n_slopes(self) -> int:
        return len(self.step_feature_indices)

    @property
    def n_thresholds(self) -> int:
        return len(self.threshold_layout)

    @cached_property
    def threshold_layout(self) -> tuple[tuple[int, str], ...]:
        """Flattened (feature index, band label) pairs defining the t vector."""
        layout = []
        for i in self.step_feature_indices:
            f = self.features[i]
            labs = sorted(
                f.thresholds, key=lambda lab: self.band_by_label[lab].min_age_months
            )
            layout.extend((i, lab) for lab in labs)
        return tuple(layout)

    @cached_property
    def threshold_index(self) -> Mapping[tuple[int, str], int]:
        return {pair: m for m, pair in enumerate(self.threshold_layout)}

    @cached_property
    def slope_index(self) -> Mapping[int, int]:
        """Feature index -> position in the slope vector."""
        return {fi: j for j, fi in enumerate(self.step_feature_indices)}

    @cached_property
    def blocks(self) -> tuple[Block, ...]:
        """Feature indices grouped by raw variable, in order of first use."""
        order: list[str] = []
        members: dict[str, list[int]] = {}
        for i, f in enumerate(self.features):
            var = f.variable.name
            if var not in members:
                order.append(var)
                members[var] = []
            members[var].append(i)
        return tuple(Block(v, tuple(members[v])) for v in order)

    @cached_property
    def threshold_chains(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        """Ordered t-vector index chains, one per (variable, age band).

        Each chain lists the threshold entries of a variable's steps for one
        band, in step order; projections must keep every chain monotone.
        """
        chains = []
        for block in self.blocks:
            steps = [
                i
                for i in block.feature_indices
                if isinstance(self.features[i], FeatureStep)
            ]
            if not steps:
                continue
            steps = sorted(steps, key=lambda i: self.features[i].step_index)
            direction = self.features[steps[0]].direction
            labels = sorted(
                self.features[steps[0]].thresholds,
                key=lambda lab: self.band_by_label[lab].min_age_months,
            )
            for lab in labels:
                chains.append(
                    (direction, tuple(self.threshold_index[(i, lab)] for i in steps))
                )
        return tuple(chains)

    @cached_property
    def threshold_order_pairs(self) -> tuple[np.ndarray, ...]:
        """Every adjacent pair of every threshold chain, as arrays (earlier
        index, later index, sign): sign is +1 on up chains and -1 on down
        chains, so a pair is in order when sign * t[earlier] <= sign * t[later]."""
        earlier, later, sign = [], [], []
        for direction, idx in self.threshold_chains:
            earlier.extend(idx[:-1])
            later.extend(idx[1:])
            sign.extend([1.0 if direction == UP else -1.0] * (len(idx) - 1))
        return (
            np.array(earlier, dtype=np.int64),
            np.array(later, dtype=np.int64),
            np.array(sign),
        )

    def threshold_order_violations(self, t: np.ndarray) -> np.ndarray:
        """Earlier index of every adjacent pair of a chain of ``t`` that is
        out of order."""
        earlier, later, sign = self.threshold_order_pairs
        return earlier[sign * t[earlier] > sign * t[later]]

    def thresholds_in_order(self, t: np.ndarray) -> bool:
        """Whether every adjacent pair of every chain of ``t`` is in order."""
        return not self.threshold_order_violations(t).size

    @cached_property
    def feature_keys(self) -> tuple[str, ...]:
        return tuple(f.key for f in self.features)

    @property
    def population_age_range(self) -> tuple[int, int]:
        return (
            min(b.min_age_months for b in self.age_bands),
            max(b.max_age_months for b in self.age_bands),
        )


def _record_problem(record_id, age_months, outcome) -> Optional[str]:
    """Why a record with this age and outcome is invalid, or None: first an
    outcome other than -1 or +1, then a negative age."""
    if outcome not in (-1, 1):
        return f"record {record_id!r}: outcome must be -1 or +1, got {outcome!r}"
    if age_months < 0:
        return f"record {record_id!r}: negative age"
    return None


class Cohort:
    """A cohort as columns: the one in-memory form every entry point reads.

    ``ids`` is a tuple of the n record ids; ``ages`` (months) and
    ``outcomes`` (-1 or +1) are (n,) int64 arrays; ``variables`` names the m
    value columns, and ``values`` is their (n, m) float64 matrix, NaN where
    missing.  Construction checks that ids and variable names are strings,
    then the shapes, then outcomes and ages, naming the first bad value or
    record.  An array of the right dtype is kept as given, not
    copied.
    """

    __slots__ = ("ids", "ages", "outcomes", "variables", "values")

    def __init__(self, ids, ages, outcomes, variables, values):
        self.ids = tuple(ids)
        self.ages = np.asarray(ages, dtype=np.int64)
        self.outcomes = np.asarray(outcomes, dtype=np.int64)
        self.variables = tuple(variables)
        self.values = np.asarray(values, dtype=np.float64)
        n, m = len(self.ids), len(self.variables)
        for what, texts in (("id", self.ids), ("variable name", self.variables)):
            for text in texts:
                if not isinstance(text, str):
                    raise ValidationError(f"cohort {what} {text!r} is not a string")
        if len(set(self.variables)) != m:
            raise ValidationError("cohort variable names must be unique")
        if (
            self.ages.shape != (n,)
            or self.outcomes.shape != (n,)
            or self.values.shape != (n, m)
        ):
            raise ContractViolation(
                f"cohort columns: expected {n} ids, ages and outcomes and "
                f"({n}, {m}) values, got {self.ages.shape}, "
                f"{self.outcomes.shape} and {self.values.shape}"
            )
        bad = (self.outcomes != 1) & (self.outcomes != -1) | (self.ages < 0)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValidationError(
                _record_problem(self.ids[i], int(self.ages[i]), int(self.outcomes[i]))
            )

    def column(self, variable: str) -> Optional[np.ndarray]:
        """The (n,) values of ``variable``, NaN where missing, or None when
        the cohort has no such column."""
        if variable not in self.variables:
            return None
        return self.values[:, self.variables.index(variable)]

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other):
        if not isinstance(other, Cohort):
            return NotImplemented
        return (
            self.ids == other.ids
            and self.variables == other.variables
            and np.array_equal(self.ages, other.ages)
            and np.array_equal(self.outcomes, other.outcomes)
            and np.array_equal(self.values, other.values, equal_nan=True)
        )

    __hash__ = None


@dataclass(frozen=True, eq=False)
class ScoreParameters:
    """Slopes, thresholds, and weights tied to a definition's feature layout.

    Arrays are stored read-only.  Slopes are non-negative, weights strictly
    positive, and within each variable the thresholds keep the step order of
    the definition (equal values are allowed: steps may collapse).
    """

    definition: ScoreDefinition
    slopes: np.ndarray
    thresholds: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        a = np.array(self.slopes, dtype=float)
        t = np.array(self.thresholds, dtype=float)
        w = np.array(self.weights, dtype=float)
        d = self.definition
        if a.shape != (d.n_slopes,):
            raise ContractViolation(
                f"slopes: expected shape ({d.n_slopes},), got {a.shape}"
            )
        if t.shape != (d.n_thresholds,):
            raise ContractViolation(
                f"thresholds: expected shape ({d.n_thresholds},), got {t.shape}"
            )
        if w.shape != (d.n_weights,):
            raise ContractViolation(
                f"weights: expected shape ({d.n_weights},), got {w.shape}"
            )
        if not np.all(np.isfinite(a)) or np.any(a < 0):
            raise ContractViolation("slopes must be finite and >= 0")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise ContractViolation("weights must be finite and > 0")
        if not np.all(np.isfinite(t)):
            raise ContractViolation("thresholds must be finite")
        if not d.thresholds_in_order(t):
            raise ContractViolation(
                "thresholds must preserve the step order within each variable"
            )
        for arr in (a, t, w):
            arr.flags.writeable = False
        object.__setattr__(self, "slopes", a)
        object.__setattr__(self, "thresholds", t)
        object.__setattr__(self, "weights", w)

    @classmethod
    def initial(
        cls, definition: ScoreDefinition, a_init: float = 0.01
    ) -> "ScoreParameters":
        """Starting point of the optimizer: flat slopes, table thresholds and weights."""
        if not (a_init > 0):
            raise ValidationError("a_init must be positive")
        a = np.full(definition.n_slopes, float(a_init))
        t = np.array(
            [
                definition.features[i].thresholds[lab]
                for i, lab in definition.threshold_layout
            ],
            dtype=float,
        )
        w = np.array([f.initial_weight for f in definition.features], dtype=float)
        return cls(definition, a, t, w)


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------


def hard_score(
    values: Mapping[str, Optional[float]], age_months: int, definition: ScoreDefinition
) -> float:
    """Classic table score of one record of this age with raw ``values`` by
    variable name, where an absent, None or NaN value is missing; see
    `CohortDesign.table_scores`."""
    from .design import hard_scores

    names = [v.name for v in definition.variables]
    row = [[values.get(name) for name in names]]  # None becomes NaN
    cohort = Cohort([""], [age_months], [1], names, row)
    return float(hard_scores(cohort, definition)[0])


def validate_cohort(cohort: Cohort, definition: ScoreDefinition) -> list[str]:
    """Warn (never reject) about values outside the physiological range and
    binary values other than 0/1.  Returns those warning messages, in record
    order and, within a record, in the definition's variable order; they are
    also emitted on the package logger.  A definition variable without a
    column in the cohort, which then reads as missing in every record, draws
    one more logged warning.
    """
    checked, bad = [], []
    for v in definition.variables:
        x = cohort.column(v.name)
        if x is None:
            logger.warning(
                "variable %r of the score has no column in the cohort; "
                "every record reads it as missing",
                v.name,
            )
            continue
        if v.kind == BINARY:
            wrong = (x != 0.0) & (x != 1.0)
        else:
            lo, hi = v.physiological_range
            wrong = ~((lo <= x) & (x <= hi))
        checked.append((v, x))
        bad.append(wrong & ~np.isnan(x))
    warnings = []
    if checked:
        rows, cols = np.nonzero(np.column_stack(bad))
        for i, k in zip(rows.tolist(), cols.tolist()):
            v, x = checked[k]
            record_id, value = cohort.ids[i], float(x[i])
            if v.kind == BINARY:
                warnings.append(
                    f"record {record_id!r}: {v.name} = {value} is not a 0/1 indicator"
                )
            else:
                lo, hi = v.physiological_range
                warnings.append(
                    f"record {record_id!r}: {v.name} = {value} outside "
                    f"[{lo}, {hi}] {v.unit}".rstrip()
                )
    for msg in warnings:
        logger.warning(msg)
    return warnings
