"""Synthetic cohort generation from a known ground-truth score.

Subjects are drawn band by band: an age band from a categorical law, an
integer age uniform within the band, raw values from per-variable (optionally
per-band) distributions clamped to the physiological range, then MCAR masking
at a fixed rate.  The outcome is Bernoulli in the mortality probability of
the masked record under the true parameters, so masking happens before the
generative score sees the data.

All draws come from one seeded numpy default_rng (PCG64) stream in a fixed
order: per subject one uniform for the band (the first band whose cumulative
probability, in sorted label order, exceeds it), ``integers(min_age,
max_age)`` for the age, one draw per variable in definition order, and
``random(m)`` for the mask of its m values; then one outcome uniform per
subject.  A normal value is ``mean + sd * standard_normal()`` and a uniform
one ``lo + (hi - lo) * random()``, which is how numpy computes
``normal(mean, sd)`` and ``uniform(lo, hi)``; a bernoulli value is 1 when
``random() < p``.  Each band's draw rules are resolved once before the loop.
Clamping and masking touch no random number, so they run after the loop as
one pass per column: a clamped value takes the nearer bound of the range,
and a cell is missing when its mask uniform is below the missing rate.
"""
from __future__ import annotations

import logging
from bisect import bisect_right
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


def _band_plans(config: GeneratorConfig, band_labels: list[str]) -> list[tuple]:
    """Per band, in ``band_labels`` order: ``(min_age, max_age, draws)`` with
    one ``(kind, offset, scale)`` per variable, (mean, sd) for a normal law,
    (lo, hi - lo) for a uniform one and p first for a bernoulli one."""
    plans = []
    for label in band_labels:
        draws = []
        for v in config.definition.variables:
            dist = config.distribution_for(v.name, label)
            scale = dist.p2 - dist.p1 if dist.kind == UNIFORM else dist.p2
            draws.append((dist.kind, dist.p1, scale))
        band = config.definition.band_by_label[label]
        plans.append((band.min_age_months, band.max_age_months, tuple(draws)))
    return plans


def generate(config: GeneratorConfig) -> tuple[Cohort, np.ndarray]:
    """Draw the cohort and return it with the true mortality probabilities.

    The truth sidecar holds P(y = +1) given the masked record, which is the
    oracle scorer: ranking by it upper-bounds any fitted model's AUC up to
    sampling noise.
    """
    d = config.definition
    n, m = config.n, len(d.variables)
    rng = np.random.default_rng(config.seed)
    random, integers, standard_normal = rng.random, rng.integers, rng.standard_normal
    band_labels = sorted(config.age_distribution)
    cum = np.cumsum([config.age_distribution[lab] for lab in band_labels]).tolist()
    plans = _band_plans(config, band_labels)
    last = len(plans) - 1

    ages = np.empty(n, dtype=np.int64)
    values = np.empty((n, m))
    uniforms = np.empty((n, m))  # each cell masked when below missing_rate
    for i in range(n):
        lo, hi, draws = plans[min(bisect_right(cum, random()), last)]
        ages[i] = integers(lo, hi)
        row = values[i]
        for j, (kind, offset, scale) in enumerate(draws):
            if kind == NORMAL:
                row[j] = offset + scale * standard_normal()
            elif kind == UNIFORM:
                row[j] = offset + scale * random()
            else:
                row[j] = 1.0 if random() < offset else 0.0
        random(out=uniforms[i])

    clamped: dict[str, int] = {}
    for j, v in enumerate(d.variables):
        if v.kind == BINARY:
            continue
        lo, hi = v.physiological_range
        column = values[:, j]
        below, above = column < lo, column > hi
        column[below] = lo
        column[above] = hi
        count = np.count_nonzero(below) + np.count_nonzero(above)
        if count:
            clamped[v.name] = int(count)
    values[uniforms < config.missing_rate] = np.nan
    del uniforms  # freed before the design build, which sets the peak

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
