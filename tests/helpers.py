"""Hand-built definitions, cohorts, random instances, and the per-record
reference computations the tests compare `CohortDesign` against.

Records are built test-side as `Row` tuples (``rec``) and turned into a
`Cohort` by ``cohort_of``; ``rows_of`` reads a cohort back into rows for the
per-record oracles."""
from __future__ import annotations

import logging
import math
from collections import namedtuple

import numpy as np

from softscore.design import CohortDesign
from softscore.errors import ValidationError
from softscore.model import (
    BINARY,
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
)
from softscore.numerics import sigmoid
from softscore.synthetic import NORMAL, UNIFORM

BAND_ALL = AgeBand("all", 0, 1200)


class Row(namedtuple("Row", "id age_months outcome values")):
    """One record as the per-record oracles read it: ``values`` maps
    variable names to floats, and an absent or None value is missing."""

    __slots__ = ()

    def value(self, variable):
        return self.values.get(variable)


def rec(id, values, age=60, outcome=-1):
    return Row(
        str(id), age, outcome,
        {str(k): None if v is None else float(v) for k, v in values.items()},
    )


def cohort_of(rows):
    """The `Cohort` of ``rows`` in their order.  Its variables are every
    value name in order of first appearance; a row that lacks one, or holds
    None, reads NaN."""
    rows = list(rows)
    variables = tuple(dict.fromkeys(name for r in rows for name in r.values))
    values = np.array(
        [[r.values.get(name) for name in variables] for r in rows], dtype=float
    )  # None becomes NaN
    return Cohort(
        ids=[r.id for r in rows],
        ages=[r.age_months for r in rows],
        outcomes=[r.outcome for r in rows],
        variables=variables,
        values=values.reshape(len(rows), len(variables)),
    )


def rows_of(cohort):
    """The records of ``cohort`` as rows, NaN read as None."""
    return [
        Row(
            cohort.ids[i],
            int(cohort.ages[i]),
            int(cohort.outcomes[i]),
            {
                name: None if math.isnan(x) else x
                for name, x in zip(cohort.variables, cohort.values[i].tolist())
            },
        )
        for i in range(len(cohort))
    ]


def mixed_definition(with_binary=True, or_group=None):
    """Two steps on an up variable, one on a down variable, optional binary.

    ``or_group`` (a label or None) is applied to the down step and the binary
    feature so OR-group handling can be exercised.
    """
    lactate = RawVariable(
        "lactate_max", MAX_VALUED, "mmol/L", (0.0, 30.0), normal_value=1.0
    )
    gcs = RawVariable("gcs_min", MIN_VALUED, "points", (3.0, 15.0), normal_value=15.0)
    variables = [lactate, gcs]
    features = [
        FeatureStep(lactate, 0, {"all": 4.0}, initial_weight=2.0),
        FeatureStep(lactate, 1, {"all": 8.0}, initial_weight=3.0),
        FeatureStep(gcs, 0, {"all": 8.0}, initial_weight=5.0, or_group=or_group),
    ]
    if with_binary:
        pupils = RawVariable("pupils_fixed", BINARY, "", (0.0, 1.0), normal_value=0.0)
        variables.append(pupils)
        features.append(BinaryFeature(pupils, initial_weight=4.0, or_group=or_group))
    return ScoreDefinition(
        name="mixed-test-score",
        variables=tuple(variables),
        features=tuple(features),
        age_bands=(BAND_ALL,),
    )


def banded_definition():
    """One up variable with two steps whose thresholds differ by age band."""
    hr = RawVariable("hr_max", MAX_VALUED, "bpm", (0.0, 350.0), normal_value=90.0)
    young = AgeBand("young", 0, 120)
    old = AgeBand("old", 120, 1200)
    features = (
        FeatureStep(hr, 0, {"young": 160.0, "old": 130.0}, initial_weight=2.0),
        FeatureStep(hr, 1, {"young": 190.0, "old": 160.0}, initial_weight=3.0),
    )
    return ScoreDefinition(
        name="banded-test-score",
        variables=(hr,),
        features=features,
        age_bands=(young, old),
    )


def random_instance(rng, n_records=12, allow_binary=True, allow_bands=True,
                    missing_rate=0.2, max_slope=3.0, or_groups=False):
    """A random small (definition, parameters, `Cohort`) triple.

    Variables are a random mix of up and down step variables (one or two
    steps each) plus an optional binary indicator; thresholds, slopes,
    weights, values, and the missingness pattern are all drawn from ``rng``.
    With ``or_groups`` each feature also draws membership of one of three
    OR-groups or of none; without it nothing extra is drawn from ``rng``.
    The cohort always contains both outcome classes.
    """

    def group():
        if not or_groups:
            return None
        return (None, "g0", "g1", "g2")[int(rng.integers(0, 4))]

    n_up = int(rng.integers(0, 3))
    n_down = int(rng.integers(0, 3))
    if n_up + n_down == 0:
        n_up = 1
    use_binary = allow_binary and bool(rng.integers(0, 2))
    two_bands = allow_bands and bool(rng.integers(0, 2))
    if two_bands:
        bands = (AgeBand("young", 0, 120), AgeBand("old", 120, 1200))
    else:
        bands = (BAND_ALL,)
    labels = tuple(b.label for b in bands)

    variables = []
    features = []
    for k in range(n_up):
        v = RawVariable(f"up{k}", MAX_VALUED, "", (-8.0, 8.0))
        variables.append(v)
        n_steps = int(rng.integers(1, 3))
        base = {lab: float(rng.uniform(-4.0, 2.0)) for lab in labels}
        for s in range(n_steps):
            th = {lab: base[lab] + s * float(rng.uniform(0.5, 2.0)) for lab in labels}
            features.append(
                FeatureStep(v, s, th, initial_weight=float(rng.uniform(0.5, 4.0)),
                            or_group=group())
            )
    for k in range(n_down):
        v = RawVariable(f"down{k}", MIN_VALUED, "", (-8.0, 8.0))
        variables.append(v)
        n_steps = int(rng.integers(1, 3))
        base = {lab: float(rng.uniform(-2.0, 4.0)) for lab in labels}
        for s in range(n_steps):
            th = {lab: base[lab] - s * float(rng.uniform(0.5, 2.0)) for lab in labels}
            features.append(
                FeatureStep(v, s, th, initial_weight=float(rng.uniform(0.5, 4.0)),
                            or_group=group())
            )
    if use_binary:
        v = RawVariable("flag", BINARY, "", (0.0, 1.0))
        variables.append(v)
        features.append(BinaryFeature(v, initial_weight=float(rng.uniform(0.5, 4.0)),
                                      or_group=group()))

    definition = ScoreDefinition(
        name="random-test-score",
        variables=tuple(variables),
        features=tuple(features),
        age_bands=bands,
    )

    slopes = rng.uniform(0.05, max_slope, size=definition.n_slopes)
    thresholds = np.empty(definition.n_thresholds)
    for direction, chain in definition.threshold_chains:
        vals = np.sort(rng.uniform(-4.0, 4.0, size=len(chain)))
        if direction == "down":
            vals = vals[::-1]
        thresholds[list(chain)] = vals
    weights = rng.uniform(0.2, 4.0, size=definition.n_weights)
    params = ScoreParameters(definition, slopes, thresholds, weights)

    rows = []
    for i in range(n_records):
        age = int(rng.integers(0, 1200))
        values = {}
        for v in variables:
            if rng.uniform() < missing_rate:
                values[v.name] = None
            elif v.kind == BINARY:
                values[v.name] = float(rng.integers(0, 2))
            else:
                values[v.name] = float(rng.uniform(-6.0, 6.0))
        outcome = 1 if i == 0 else (-1 if i == 1 else int(rng.choice((-1, 1))))
        rows.append(rec(f"r{i}", values, age, outcome))
    return definition, params, cohort_of(rows)


def cell_oracle(cell):
    """A cohort CSV value cell as the loader must read it, one cell at a
    time: None when empty, else ``float(cell)`` when that parses and is
    finite; raises ValueError for any other cell."""
    if cell == "":
        return None
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"non-finite cell {cell!r}")
    return value


ScoredRow = namedtuple("ScoredRow", "id fold score probability label")


def scored_rows(columns):
    """The held-out columns `cross_validate` returns (ids, fold, score,
    probability, label), as one row of Python scalars per record."""
    ids, *arrays = columns
    return [
        ScoredRow(i, *row) for i, row in zip(ids, zip(*(a.tolist() for a in arrays)))
    ]


# ----------------------------------------------------------------------
# per-record reference: one record, one feature at a time
# ----------------------------------------------------------------------


def band_label(definition, feature_index, age_months):
    """Age-band label of a step feature's threshold for a record of this age."""
    f = definition.features[feature_index]
    for lab in f.thresholds:
        if definition.band_by_label[lab].contains(age_months):
            return lab
    raise ValidationError(
        f"age {age_months} months falls outside every age band of feature {f.key!r}"
    )


def reference_z(record, definition, params):
    """Feature vector z of one record: soft steps, 0/1 indicators, 0 if missing."""
    z = np.zeros(definition.n_weights)
    for i, f in enumerate(definition.features):
        x = record.value(f.variable.name)
        if x is None:
            continue
        if isinstance(f, FeatureStep):
            lab = band_label(definition, i, record.age_months)
            a = params.slopes[definition.slope_index[i]]
            t = params.thresholds[definition.threshold_index[(i, lab)]]
            s = float(sigmoid(a * (x - t)))
            z[i] = s if f.direction == UP else 1.0 - s
        else:
            z[i] = 1.0 if x == 1.0 else 0.0
    return z


def reference_score(record, definition, params):
    """Linear score w'z of one record."""
    return float(np.dot(params.weights, reference_z(record, definition, params)))


def reference_hard_score(record, definition):
    """Classic table score of one record.

    Steps trigger on strict crossing of the table threshold, binary features
    at exactly 1, missing values never; each OR-group adds its largest
    triggered weight, summed in the order the record first triggers them.
    """
    total = 0.0
    group_best = {}
    for i, f in enumerate(definition.features):
        x = record.value(f.variable.name)
        if x is None:
            continue
        if isinstance(f, FeatureStep):
            t = f.thresholds[band_label(definition, i, record.age_months)]
            triggered = x > t if f.direction == UP else x < t
        else:
            triggered = x == 1.0
        if not triggered:
            continue
        if f.or_group is not None:
            best = group_best.get(f.or_group, 0.0)
            group_best[f.or_group] = max(best, f.initial_weight)
        else:
            total += f.initial_weight
    return total + sum(group_best.values())


# ----------------------------------------------------------------------
# reference generator: one draw, one clamp and one cell at a time
# ----------------------------------------------------------------------


def reference_draw(dist, rng):
    """One raw value of ``dist`` through numpy's own distribution calls."""
    if dist.kind == NORMAL:
        return float(rng.normal(dist.p1, dist.p2))
    if dist.kind == UNIFORM:
        return float(rng.uniform(dist.p1, dist.p2))
    return 1.0 if rng.random() < dist.p1 else 0.0


def reference_generate(config):
    """`synthetic.generate` subject by subject: band, age, each value drawn,
    clamped and written, then the row's mask; clamp warnings after the loop
    in variable-name order; then the outcome uniforms."""
    d = config.definition
    rng = np.random.default_rng(config.seed)
    band_labels = sorted(config.age_distribution)
    cum = np.cumsum([config.age_distribution[lab] for lab in band_labels])
    clamped = {}

    ages = np.empty(config.n, dtype=np.int64)
    values = np.empty((config.n, len(d.variables)))
    for i in range(config.n):
        pick = int(np.searchsorted(cum, rng.random(), side="right"))
        band = d.band_by_label[band_labels[min(pick, len(band_labels) - 1)]]
        ages[i] = rng.integers(band.min_age_months, band.max_age_months)
        row = values[i]
        for j, v in enumerate(d.variables):
            raw = reference_draw(config.distribution_for(v.name, band.label), rng)
            if v.kind != BINARY:
                lo, hi = v.physiological_range
                bounded = min(max(raw, lo), hi)
                if bounded != raw:
                    clamped[v.name] = clamped.get(v.name, 0) + 1
                raw = bounded
            row[j] = raw
        row[rng.random(len(d.variables)) < config.missing_rate] = np.nan

    for name, count in sorted(clamped.items()):
        logging.getLogger("softscore").warning(
            "variable %r: %d draws clamped to the physiological range", name, count
        )

    ids = [f"sim-{i:06d}" for i in range(config.n)]
    variables = [v.name for v in d.variables]
    provisional = Cohort(ids, ages, np.ones(config.n, np.int64), variables, values)
    s = CohortDesign(provisional, d).scores(
        config.true_params.slopes,
        config.true_params.thresholds,
        config.true_params.weights,
    )
    probabilities = sigmoid(config.intercept + s)
    outcomes = np.where(rng.random(config.n) < probabilities, 1, -1)
    return Cohort(ids, ages, outcomes, variables, values), probabilities
