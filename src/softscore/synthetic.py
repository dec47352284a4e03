"""Synthetic cohort generation from a known ground-truth score.

Subjects are drawn band by band: an age band from a categorical law, an
integer age uniform within the band, raw values from per-variable (optionally
per-band) distributions clamped to the physiological range, then MCAR masking
at a fixed rate.  The outcome is Bernoulli in the mortality probability of
the masked record under the true parameters, so masking happens before the
generative score sees the data.  All draws come from one seeded numpy
default_rng (PCG64) stream in a fixed order: per subject band, age, values,
and mask, then one outcome uniform per subject.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .design import CohortDesign
from .errors import ValidationError
from .model import BINARY, Cohort, ScoreDefinition, ScoreParameters
from .numerics import sigmoid

logger = logging.getLogger("softscore")

NORMAL = "normal"
UNIFORM = "uniform"
BERNOULLI = "bernoulli"


@dataclass(frozen=True)
class ValueDistribution:
    """Sampling law for one raw variable: normal(mean, sd), uniform(lo, hi),
    or bernoulli(p) for binary variables."""

    kind: str
    p1: float
    p2: float = 0.0

    def __post_init__(self):
        if self.kind == NORMAL:
            if not (self.p2 > 0):
                raise ValidationError("normal distribution needs sd > 0")
        elif self.kind == UNIFORM:
            if not (self.p1 < self.p2):
                raise ValidationError("uniform distribution needs lo < hi")
        elif self.kind == BERNOULLI:
            if not (0.0 <= self.p1 <= 1.0):
                raise ValidationError("bernoulli probability must lie in [0, 1]")
        else:
            raise ValidationError(f"unknown distribution kind {self.kind!r}")

    @classmethod
    def normal(cls, mean: float, sd: float) -> "ValueDistribution":
        return cls(NORMAL, float(mean), float(sd))

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "ValueDistribution":
        return cls(UNIFORM, float(lo), float(hi))

    @classmethod
    def bernoulli(cls, p: float) -> "ValueDistribution":
        return cls(BERNOULLI, float(p))

    def sample(self, rng: np.random.Generator) -> float:
        if self.kind == NORMAL:
            return float(rng.normal(self.p1, self.p2))
        if self.kind == UNIFORM:
            return float(rng.uniform(self.p1, self.p2))
        return 1.0 if rng.random() < self.p1 else 0.0


DistributionSpec = Union[ValueDistribution, Mapping[str, ValueDistribution]]


@dataclass(frozen=True)
class GeneratorConfig:
    """Everything needed to draw a cohort with known truth."""

    definition: ScoreDefinition
    true_params: ScoreParameters
    n: int
    seed: int
    intercept: float
    value_distributions: Mapping[str, DistributionSpec]
    age_distribution: Mapping[str, float]
    missing_rate: float = 0.0

    def __post_init__(self):
        d = self.definition
        if self.true_params.definition != d:
            raise ValidationError("true_params belong to a different definition")
        if self.n < 1:
            raise ValidationError("n must be >= 1")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        if not (0.0 <= self.missing_rate < 1.0):
            raise ValidationError("missing_rate must lie in [0, 1)")
        if not np.isfinite(self.intercept):
            raise ValidationError("intercept must be finite")
        if not self.age_distribution:
            raise ValidationError("age_distribution is empty")
        total = 0.0
        for lab, p in self.age_distribution.items():
            if lab not in d.band_by_label:
                raise ValidationError(f"age_distribution uses unknown band {lab!r}")
            if p < 0:
                raise ValidationError("age_distribution probabilities must be >= 0")
            total += p
        if abs(total - 1.0) > 1e-9:
            raise ValidationError("age_distribution probabilities must sum to 1")
        bands = set(self.age_distribution)
        for v in d.variables:
            spec = self.value_distributions.get(v.name)
            if spec is None:
                raise ValidationError(f"no value distribution for variable {v.name!r}")
            dists = (
                [spec]
                if isinstance(spec, ValueDistribution)
                else [spec[lab] for lab in bands if lab in spec]
            )
            if not isinstance(spec, ValueDistribution):
                missing = bands - set(spec)
                if missing:
                    raise ValidationError(
                        f"variable {v.name!r}: no distribution for bands "
                        f"{sorted(missing)}"
                    )
            for dist in dists:
                if v.kind == BINARY and dist.kind != BERNOULLI:
                    raise ValidationError(
                        f"binary variable {v.name!r} needs a bernoulli distribution"
                    )
                if v.kind != BINARY and dist.kind == BERNOULLI:
                    raise ValidationError(
                        f"continuous variable {v.name!r} cannot be bernoulli"
                    )

    def distribution_for(self, variable: str, band_label: str) -> ValueDistribution:
        spec = self.value_distributions[variable]
        if isinstance(spec, ValueDistribution):
            return spec
        return spec[band_label]


def generate(config: GeneratorConfig) -> tuple[Cohort, np.ndarray]:
    """Draw the cohort and return it with the true mortality probabilities.

    The truth sidecar holds P(y = +1) given the masked record, which is the
    oracle scorer: ranking by it upper-bounds any fitted model's AUC up to
    sampling noise.
    """
    d = config.definition
    rng = np.random.default_rng(config.seed)
    band_labels = sorted(config.age_distribution)
    cum = np.cumsum([config.age_distribution[lab] for lab in band_labels])
    clamped: dict[str, int] = {}

    ages = np.empty(config.n, dtype=np.int64)
    values = np.empty((config.n, len(d.variables)))
    for i in range(config.n):
        pick = int(np.searchsorted(cum, rng.random(), side="right"))
        band = d.band_by_label[band_labels[min(pick, len(band_labels) - 1)]]
        ages[i] = rng.integers(band.min_age_months, band.max_age_months)
        row = values[i]
        for j, v in enumerate(d.variables):
            raw = config.distribution_for(v.name, band.label).sample(rng)
            if v.kind != BINARY:
                lo, hi = v.physiological_range
                bounded = min(max(raw, lo), hi)
                if bounded != raw:
                    clamped[v.name] = clamped.get(v.name, 0) + 1
                raw = bounded
            row[j] = raw
        row[rng.random(len(d.variables)) < config.missing_rate] = np.nan

    for name, count in sorted(clamped.items()):
        logger.warning(
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
    # one uniform per subject, in order
    outcomes = np.where(rng.random(config.n) < probabilities, 1, -1)
    return Cohort(ids, ages, outcomes, variables, values), probabilities
