"""Cohort generator: determinism, masking, truth sidecar, and presets."""
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import BAND_ALL, reference_generate, reference_score, rows_of
from softscore.design import CohortDesign
from softscore.errors import ValidationError
from softscore.evaluation import roc_and_auc
from softscore.model import (
    BINARY,
    MAX_VALUED,
    AgeBand,
    BinaryFeature,
    FeatureStep,
    RawVariable,
    ScoreParameters,
    ScoreDefinition,
)
from softscore.numerics import sigmoid
from softscore.optimizer import OptimizerConfig, fit
from softscore.presets import (
    PRESETS,
    demo_definition,
    demo_generator,
    pediatric_icu_generator,
    preset,
    preset_cohort,
)
from softscore.synthetic import (
    BERNOULLI,
    NORMAL,
    UNIFORM,
    GeneratorConfig,
    ValueDistribution,
    generate,
)


def tiny_definition():
    x = RawVariable("x", MAX_VALUED, "", (0.0, 10.0), normal_value=1.0)
    flag = RawVariable("flag", BINARY, "", (0.0, 1.0), normal_value=0.0)
    return ScoreDefinition(
        name="tiny",
        variables=(x, flag),
        features=(
            FeatureStep(x, 0, {"all": 5.0}, initial_weight=2.0),
            BinaryFeature(flag, initial_weight=1.0),
        ),
        age_bands=(BAND_ALL,),
    )


def tiny_config(**overrides):
    d = tiny_definition()
    kwargs = dict(
        definition=d,
        true_params=ScoreParameters.initial(d, 1.0),
        n=50,
        seed=7,
        intercept=-1.0,
        value_distributions={
            "x": ValueDistribution.normal(4.0, 2.0),
            "flag": ValueDistribution.bernoulli(0.3),
        },
        age_distribution={"all": 1.0},
        missing_rate=0.1,
    )
    kwargs.update(overrides)
    return GeneratorConfig(**kwargs)


class TestValueDistribution:
    def test_validation(self):
        with pytest.raises(ValidationError):
            ValueDistribution.normal(0.0, 0.0)
        with pytest.raises(ValidationError):
            ValueDistribution.uniform(2.0, 2.0)
        with pytest.raises(ValidationError):
            ValueDistribution.bernoulli(1.1)
        with pytest.raises(ValidationError):
            ValueDistribution("poisson", 3.0)

    def test_sampling_ranges(self):
        x = RawVariable("x", MAX_VALUED, "", (-10.0, 10.0))
        flag = RawVariable("flag", BINARY, "", (0.0, 1.0))
        d = ScoreDefinition(
            name="ranges",
            variables=(x, flag),
            features=(
                FeatureStep(x, 0, {"all": 0.0}, initial_weight=1.0),
                BinaryFeature(flag, initial_weight=1.0),
            ),
            age_bands=(BAND_ALL,),
        )
        cohort, _ = generate(
            GeneratorConfig(
                definition=d,
                true_params=ScoreParameters.initial(d),
                n=200,
                seed=3,
                intercept=0.0,
                value_distributions={
                    "x": ValueDistribution.uniform(-2.0, 5.0),
                    "flag": ValueDistribution.bernoulli(0.5),
                },
                age_distribution={"all": 1.0},
            )
        )
        drawn_x, drawn_flag = cohort.values.T
        assert np.all((-2.0 <= drawn_x) & (drawn_x < 5.0))
        assert set(drawn_flag.tolist()) == {0.0, 1.0}


class TestGeneratorConfigValidation:
    def test_valid_config_builds(self):
        tiny_config()

    def test_n_and_missing_rate_and_intercept(self):
        with pytest.raises(ValidationError):
            tiny_config(n=0)
        with pytest.raises(ValidationError):
            tiny_config(missing_rate=1.0)
        with pytest.raises(ValidationError):
            tiny_config(missing_rate=-0.1)
        with pytest.raises(ValidationError):
            tiny_config(intercept=math.inf)

    def test_negative_seed_rejected(self):
        tiny_config(seed=0)
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            tiny_config(seed=-1)

    def test_age_distribution_checks(self):
        with pytest.raises(ValidationError):
            tiny_config(age_distribution={})
        with pytest.raises(ValidationError):
            tiny_config(age_distribution={"nowhere": 1.0})
        with pytest.raises(ValidationError):
            tiny_config(age_distribution={"all": 0.6})
        with pytest.raises(ValidationError):
            tiny_config(age_distribution={"all": -1.0})

    def test_value_distribution_checks(self):
        with pytest.raises(ValidationError):
            tiny_config(
                value_distributions={"x": ValueDistribution.normal(4.0, 2.0)}
            )
        with pytest.raises(ValidationError):
            tiny_config(
                value_distributions={
                    "x": ValueDistribution.bernoulli(0.5),  # continuous variable
                    "flag": ValueDistribution.bernoulli(0.3),
                }
            )
        with pytest.raises(ValidationError):
            tiny_config(
                value_distributions={
                    "x": ValueDistribution.normal(4.0, 2.0),
                    "flag": ValueDistribution.uniform(0.0, 1.0),  # binary variable
                }
            )

    def test_per_band_mapping_must_cover_bands(self):
        with pytest.raises(ValidationError):
            tiny_config(
                value_distributions={
                    "x": {"elsewhere": ValueDistribution.normal(4.0, 2.0)},
                    "flag": ValueDistribution.bernoulli(0.3),
                }
            )

    def test_true_params_must_match_definition(self):
        other = demo_definition()
        with pytest.raises(ValidationError):
            tiny_config(true_params=ScoreParameters.initial(other))

    def test_distribution_for_band(self):
        per_band = {"all": ValueDistribution.normal(1.0, 1.0)}
        config = tiny_config(
            value_distributions={
                "x": per_band,
                "flag": ValueDistribution.bernoulli(0.3),
            }
        )
        assert config.distribution_for("x", "all") is per_band["all"]
        assert config.distribution_for("flag", "all").kind == "bernoulli"


class TestGenerate:
    def test_no_missing_when_rate_zero(self):
        cohort, _ = generate(tiny_config(n=200, missing_rate=0.0))
        assert all(
            r.value(v) is not None for r in rows_of(cohort) for v in ("x", "flag")
        )

    def test_same_seed_reproduces_exactly(self):
        config = demo_generator(n=150)
        first, p1 = generate(config)
        second, p2 = generate(config)
        assert [(r.id, r.age_months, r.outcome, r.values) for r in rows_of(first)] == [
            (r.id, r.age_months, r.outcome, r.values) for r in rows_of(second)
        ]
        np.testing.assert_array_equal(p1, p2)

    def test_different_seeds_differ(self):
        import dataclasses

        config = demo_generator(n=150)
        first, _ = generate(config)
        second, _ = generate(dataclasses.replace(config, seed=config.seed + 1))
        assert [r.values for r in rows_of(first)] != [r.values for r in rows_of(second)]

    def test_outcomes_are_plus_minus_one(self):
        cohort, _ = generate(tiny_config(n=300))
        assert set(r.outcome for r in rows_of(cohort)) == {-1, 1}

    def test_truth_sidecar_matches_scalar_recomputation(self):
        config = demo_generator(n=300)
        cohort, probabilities = generate(config)
        for r, p in zip(rows_of(cohort), probabilities):
            s = reference_score(r, config.definition, config.true_params)
            assert p == pytest.approx(sigmoid(config.intercept + s), abs=1e-12)

    def test_missing_is_applied_before_scoring(self):
        d = tiny_definition()
        config = tiny_config(
            n=4000,
            seed=11,
            intercept=0.0,
            true_params=ScoreParameters(
                d,
                slopes=np.array([5.0]),
                thresholds=np.array([5.0]),
                weights=np.array([10.0, 0.0001]),
            ),
            value_distributions={
                "x": ValueDistribution.uniform(9.0, 10.0),
                "flag": ValueDistribution.bernoulli(0.0),
            },
            missing_rate=0.5,
        )
        cohort, probabilities = generate(config)
        rows = rows_of(cohort)
        masked = [p for r, p in zip(rows, probabilities) if r.value("x") is None]
        observed = [p for r, p in zip(rows, probabilities) if r.value("x") is not None]
        assert masked and observed
        # a masked cell contributes nothing, so only the intercept remains
        assert all(p == pytest.approx(0.5, abs=1e-3) for p in masked)
        assert all(p > 0.99 for p in observed)

    def test_empirical_missing_rate(self):
        config = demo_generator(n=2000)
        cohort, _ = generate(config)
        cells = [
            r.value(v.name) is None
            for r in rows_of(cohort)
            for v in config.definition.variables
        ]
        se = math.sqrt(0.2 * 0.8 / len(cells))
        assert abs(np.mean(cells) - 0.2) < 3 * se

    def test_prevalence_within_three_se_of_mean_true_probability(self):
        cohort, probabilities = generate(demo_generator(n=10000))
        prevalence = np.mean([r.outcome == 1 for r in rows_of(cohort)])
        target = probabilities.mean()
        se = math.sqrt(np.sum(probabilities * (1 - probabilities))) / len(cohort)
        assert abs(prevalence - target) <= 3 * se
        assert 0.05 < target < 0.09  # the demo cohort is tuned near 7%

    def test_values_clamped_to_physiological_range(self, caplog):
        config = tiny_config(
            n=400,
            value_distributions={
                "x": ValueDistribution.normal(5.0, 10.0),  # overshoots (0, 10) often
                "flag": ValueDistribution.bernoulli(0.3),
            },
            missing_rate=0.0,
        )
        with caplog.at_level(logging.WARNING, logger="softscore"):
            cohort, _ = generate(config)
        assert all(0.0 <= r.value("x") <= 10.0 for r in rows_of(cohort))
        assert any("clamped" in m and "'x'" in m for m in caplog.messages)

    def test_binary_draws_are_indicator_valued(self):
        cohort, _ = generate(tiny_config(n=200, missing_rate=0.0))
        assert set(r.value("flag") for r in rows_of(cohort)) <= {0.0, 1.0}

    def test_ages_follow_the_band_distribution(self):
        config = pediatric_icu_generator(n=900)
        cohort, _ = generate(config)
        bands = config.definition.age_bands
        for r in rows_of(cohort):
            assert any(b.min_age_months <= r.age_months < b.max_age_months for b in bands)
        for band in bands:
            p = config.age_distribution[band.label]
            hit = np.mean(
                [
                    band.min_age_months <= r.age_months < band.max_age_months
                    for r in rows_of(cohort)
                ]
            )
            assert abs(hit - p) < 4 * math.sqrt(p * (1 - p) / len(cohort))

    def test_oracle_ranking_upper_bounds_a_fitted_model(self):
        config = OptimizerConfig(optimize_over=("a", "w"), max_outer_iters=60)
        for s in range(2):
            train, _ = generate(demo_generator(n=600, seed=500 + s))
            test, truth = generate(demo_generator(n=1500, seed=800 + s))
            params, _ = fit(CohortDesign(train, demo_definition()), config)
            from softscore.design import soft_scores

            labels = [r.outcome for r in rows_of(test)]
            _, fitted_auc = roc_and_auc(
                soft_scores(test, demo_definition(), params), labels
            )
            _, oracle_auc = roc_and_auc(truth, labels)
            assert oracle_auc >= fitted_auc - 0.01


_BAND_NAMES = ("west", "north", "east", "south")  # sorted order differs


@st.composite
def generator_configs(draw):
    """A random valid `GeneratorConfig`: one to four contiguous age bands with
    probabilities of 0 to 3 parts each, one to five variables (names not in
    definition order) whose normal, uniform or bernoulli laws are shared or
    set per band, physiological ranges that clamp many draws, and n from 1
    to 300."""
    n = draw(st.integers(1, 300))
    n_bands = draw(st.integers(1, 4))
    labels = draw(st.permutations(_BAND_NAMES))[:n_bands]
    edges = sorted(draw(st.sets(st.integers(0, 1200), min_size=n_bands + 1,
                                max_size=n_bands + 1)))
    bands = tuple(AgeBand(*band) for band in zip(labels, edges, edges[1:]))
    parts = draw(st.lists(st.integers(0, 3), min_size=n_bands,
                          max_size=n_bands).filter(any))
    age_distribution = {lab: p / sum(parts) for lab, p in zip(labels, parts)}

    def law(kind):
        if kind == BERNOULLI:
            return ValueDistribution.bernoulli(draw(st.floats(0.0, 1.0)))
        start = draw(st.floats(-60.0, 60.0))
        spread = draw(st.floats(0.01, 40.0))
        if kind == NORMAL:
            return ValueDistribution.normal(start, spread)
        return ValueDistribution.uniform(start, start + spread)

    variables, features, laws = [], [], {}
    kinds = draw(st.lists(st.sampled_from((NORMAL, UNIFORM, BERNOULLI)),
                          min_size=1, max_size=5))
    names = draw(st.permutations([f"v{k}" for k in range(len(kinds))]))
    for name, kind in zip(names, kinds):
        if kind == BERNOULLI:
            v = RawVariable(name, BINARY, "", (0.0, 1.0))
            features.append(BinaryFeature(v, initial_weight=1.0))
        else:
            lo = draw(st.floats(-50.0, 0.0))
            hi = lo + draw(st.floats(1.0, 50.0))
            v = RawVariable(name, MAX_VALUED, "", (lo, hi))
            middle = {lab: (lo + hi) / 2 for lab in labels}
            features.append(FeatureStep(v, 0, middle, initial_weight=1.0))
        variables.append(v)
        per_band = draw(st.booleans())
        laws[v.name] = {lab: law(kind) for lab in labels} if per_band else law(kind)
    d = ScoreDefinition(
        name="random-generator",
        variables=tuple(variables),
        features=tuple(features),
        age_bands=bands,
    )
    return GeneratorConfig(
        definition=d,
        true_params=ScoreParameters.initial(d, draw(st.floats(0.01, 3.0))),
        n=n,
        seed=draw(st.integers(0, 2**32)),
        intercept=draw(st.floats(-3.0, 3.0)),
        value_distributions=laws,
        age_distribution=age_distribution,
        missing_rate=draw(st.sampled_from((0.0, 0.05, 0.5))),
    )


def with_warnings(generator, config):
    """``generator(config)`` and the text of the warnings it logged, in order."""
    records = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = records.append
    logger = logging.getLogger("softscore")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.WARNING)
    try:
        result = generator(config)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    return result, [r.getMessage() for r in records]


def assert_generated_like_the_reference(config):
    (cohort, probabilities), warnings = with_warnings(generate, config)
    (expected, expected_probabilities), expected_warnings = with_warnings(
        reference_generate, config
    )
    assert warnings == expected_warnings
    assert cohort.ids == expected.ids
    assert cohort.ages.tobytes() == expected.ages.tobytes()
    assert cohort.outcomes.tobytes() == expected.outcomes.tobytes()
    assert cohort.values.tobytes() == expected.values.tobytes()
    assert probabilities.tobytes() == expected_probabilities.tobytes()


class TestGenerateMatchesTheReference:
    """`generate` draws the same stream as a subject-by-subject loop through
    numpy's normal and uniform calls, and clamps, masks and warns alike."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(config=generator_configs())
    def test_random_configs(self, config):
        assert_generated_like_the_reference(config)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    @pytest.mark.parametrize("overrides", [{}, {"n": 20000, "seed": 1001}],
                             ids=["default", "n20000-seed1001"])
    def test_presets(self, name, overrides):
        assert_generated_like_the_reference(preset(name).generator(**overrides))


class TestPresets:
    def test_registry_contents(self):
        assert set(PRESETS) == {"demo", "pediatric_icu", "adult_icu"}

    def test_unknown_preset_names_the_choices(self):
        with pytest.raises(KeyError, match="adult_icu"):
            preset("nope")

    def test_definitions_have_the_advertised_shape(self):
        demo = preset("demo").definition()
        assert demo.name == "demo"
        assert demo.feature_keys == (
            "lactate_max:step0",
            "lactate_max:step1",
            "gcs_min:step0",
            "creatinine_max:step0",
            "creatinine_max:step1",
            "pupils_fixed",
        )
        pediatric = preset("pediatric_icu").definition()
        assert len(pediatric.age_bands) == 4
        assert any(f.or_group == "acidosis" for f in pediatric.features)
        adult = preset("adult_icu").definition()
        assert len(adult.age_bands) == 1
        assert len(adult.features) == 18

    def test_preset_cohort_overrides(self):
        cohort, probabilities, config = preset_cohort("demo", n=50, seed=99)
        assert len(cohort) == 50
        assert probabilities.shape == (50,)
        assert config.n == 50 and config.seed == 99

    def test_preset_cohorts_stay_in_range(self):
        for name in ("pediatric_icu", "adult_icu"):
            cohort, _, config = preset_cohort(name, n=80)
            ranges = {v.name: v.physiological_range for v in config.definition.variables}
            for r in rows_of(cohort):
                for var, value in r.values.items():
                    if value is not None:
                        lo, hi = ranges[var]
                        assert lo <= value <= hi
