"""Domain types, the soft feature transform, and the classic hard score.

Records become numbers only in `CohortDesign`, so the transform tests here
evaluate one-record cohorts through it."""
import math

import numpy as np
import pytest

from helpers import BAND_ALL, banded_definition, mixed_definition, rec, random_instance
from softscore.design import CohortDesign
from softscore.errors import ContractViolation, ValidationError
from softscore.model import (
    BINARY,
    MAX_VALUED,
    MIN_VALUED,
    UP,
    AgeBand,
    BinaryFeature,
    FeatureStep,
    PatientRecord,
    RawVariable,
    ScoreDefinition,
    ScoreParameters,
    hard_score,
    validate_cohort,
)
from softscore.numerics import sigmoid

SIGMOID_1 = 0.7310585786300049  # 1 / (1 + e^-1)


class TestRawVariable:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            RawVariable("x", "median-valued")

    def test_range_must_be_ordered(self):
        with pytest.raises(ValidationError):
            RawVariable("x", MAX_VALUED, physiological_range=(5.0, 5.0))

    def test_normal_value_must_lie_in_range(self):
        with pytest.raises(ValidationError):
            RawVariable("x", MAX_VALUED, physiological_range=(0.0, 10.0),
                        normal_value=12.0)


class TestAgeBand:
    def test_half_open_membership(self):
        band = AgeBand("young", 0, 120)
        assert band.contains(0)
        assert band.contains(119.5)
        assert not band.contains(120)

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValidationError):
            AgeBand("bad", 12, 12)
        with pytest.raises(ValidationError):
            AgeBand("bad", -1, 12)


class TestFeatures:
    def test_binary_variable_cannot_carry_steps(self):
        flag = RawVariable("flag", BINARY)
        with pytest.raises(ValidationError):
            FeatureStep(flag, 0, {"all": 0.5}, initial_weight=1.0)

    def test_binary_feature_requires_binary_variable(self):
        cont = RawVariable("x", MAX_VALUED)
        with pytest.raises(ValidationError):
            BinaryFeature(cont, initial_weight=1.0)

    def test_weights_must_be_positive(self):
        v = RawVariable("x", MAX_VALUED)
        with pytest.raises(ValidationError):
            FeatureStep(v, 0, {"all": 0.5}, initial_weight=0.0)

    def test_keys(self):
        d = mixed_definition()
        assert d.feature_keys == (
            "lactate_max:step0",
            "lactate_max:step1",
            "gcs_min:step0",
            "pupils_fixed",
        )


class TestScoreDefinition:
    def test_layout_sizes(self):
        d = mixed_definition()
        assert d.n_weights == 4
        assert d.n_slopes == 3
        assert d.n_thresholds == 3

    def test_duplicate_step_index_rejected(self):
        v = RawVariable("x", MAX_VALUED)
        with pytest.raises(ValidationError):
            ScoreDefinition(
                "dup",
                (v,),
                (
                    FeatureStep(v, 0, {"all": 1.0}, initial_weight=1.0),
                    FeatureStep(v, 0, {"all": 2.0}, initial_weight=1.0),
                ),
                (BAND_ALL,),
            )

    def test_undeclared_variable_rejected(self):
        v = RawVariable("x", MAX_VALUED)
        other = RawVariable("y", MAX_VALUED)
        with pytest.raises(ValidationError):
            ScoreDefinition(
                "stray",
                (v,),
                (FeatureStep(other, 0, {"all": 1.0}, initial_weight=1.0),),
                (BAND_ALL,),
            )

    def test_up_steps_must_strictly_increase(self):
        v = RawVariable("x", MAX_VALUED)
        with pytest.raises(ValidationError):
            ScoreDefinition(
                "flat",
                (v,),
                (
                    FeatureStep(v, 0, {"all": 2.0}, initial_weight=1.0),
                    FeatureStep(v, 1, {"all": 2.0}, initial_weight=1.0),
                ),
                (BAND_ALL,),
            )

    def test_down_steps_must_strictly_decrease(self):
        v = RawVariable("x", MIN_VALUED)
        with pytest.raises(ValidationError):
            ScoreDefinition(
                "updown",
                (v,),
                (
                    FeatureStep(v, 0, {"all": 2.0}, initial_weight=1.0),
                    FeatureStep(v, 1, {"all": 3.0}, initial_weight=1.0),
                ),
                (BAND_ALL,),
            )

    def test_age_bands_must_tile_without_gaps(self):
        v = RawVariable("x", MAX_VALUED)
        young = AgeBand("young", 0, 100)
        old = AgeBand("old", 120, 1200)  # gap at [100, 120)
        with pytest.raises(ValidationError):
            ScoreDefinition(
                "gapped",
                (v,),
                (FeatureStep(v, 0, {"young": 1.0, "old": 2.0}, initial_weight=1.0),),
                (young, old),
            )

    def test_threshold_layout_orders_bands_by_age(self):
        d = banded_definition()
        assert d.threshold_layout == ((0, "young"), (0, "old"), (1, "young"), (1, "old"))

    def test_blocks_group_by_variable(self):
        d = mixed_definition()
        assert [(b.variable, b.feature_indices) for b in d.blocks] == [
            ("lactate_max", (0, 1)),
            ("gcs_min", (2,)),
            ("pupils_fixed", (3,)),
        ]

    def test_threshold_chains_follow_step_order_per_band(self):
        d = banded_definition()
        chains = dict()
        for direction, chain in d.threshold_chains:
            chains[chain] = direction
        assert chains == {(0, 2): UP, (1, 3): UP}


class TestPatientRecord:
    def test_outcome_must_be_plus_or_minus_one(self):
        with pytest.raises(ValidationError):
            rec("r", {}, outcome=0)

    def test_negative_age_rejected(self):
        with pytest.raises(ValidationError):
            rec("r", {}, age=-1)

    def test_values_coerced_and_missing_preserved(self):
        r = rec("r", {"a": 3, "b": None})
        assert r.value("a") == 3.0
        assert r.value("b") is None
        assert r.value("absent") is None


class TestScoreParameters:
    def test_initial_uses_table_values(self):
        d = mixed_definition()
        p = ScoreParameters.initial(d, a_init=0.01)
        np.testing.assert_array_equal(p.slopes, [0.01, 0.01, 0.01])
        np.testing.assert_array_equal(p.thresholds, [4.0, 8.0, 8.0])
        np.testing.assert_array_equal(p.weights, [2.0, 3.0, 5.0, 4.0])

    def test_shape_mismatch_rejected(self):
        d = mixed_definition()
        with pytest.raises(ContractViolation):
            ScoreParameters(d, np.zeros(2), np.zeros(3), np.ones(4))

    def test_negative_slope_rejected(self):
        d = mixed_definition()
        with pytest.raises(ContractViolation):
            ScoreParameters(d, np.array([-0.1, 1.0, 1.0]), np.zeros(3), np.ones(4))

    def test_nonpositive_weight_rejected(self):
        d = mixed_definition()
        with pytest.raises(ContractViolation):
            ScoreParameters(d, np.ones(3), np.zeros(3),
                            np.array([1.0, 1.0, 1.0, 0.0]))

    def test_threshold_order_enforced_weakly(self):
        d = mixed_definition()
        # lactate steps out of order: 5 then 4
        with pytest.raises(ContractViolation):
            ScoreParameters(d, np.ones(3), np.array([5.0, 4.0, 8.0]), np.ones(4))
        # equal thresholds are allowed (steps may collapse)
        ScoreParameters(d, np.ones(3), np.array([5.0, 5.0, 8.0]), np.ones(4))

    def test_arrays_are_read_only(self):
        p = ScoreParameters.initial(mixed_definition())
        with pytest.raises(ValueError):
            p.slopes[0] = 2.0


def _up_down(x, a, t):
    """Up- and down-step values of one observation x, with slope a and
    threshold t, from a one-record CohortDesign."""
    up = RawVariable("up", MAX_VALUED)
    down = RawVariable("down", MIN_VALUED)
    d = ScoreDefinition(
        name="one-step-each-way",
        variables=(up, down),
        features=(
            FeatureStep(up, 0, {"all": 0.0}, initial_weight=1.0),
            FeatureStep(down, 0, {"all": 0.0}, initial_weight=1.0),
        ),
        age_bands=(BAND_ALL,),
    )
    z = CohortDesign([rec("r", {"up": x, "down": x})], d).step_z(
        np.array([a, a]), np.array([t, t])
    )
    return float(z[0, 0]), float(z[0, 1])


class TestTransformFeature:
    def test_up_value_at_unit_margin(self):
        assert _up_down(1.0, 1.0, 0.0)[0] == pytest.approx(SIGMOID_1, abs=1e-15)

    def test_down_complements_up_exactly(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            x = float(rng.uniform(-10, 10))
            t = float(rng.uniform(-10, 10))
            a = float(rng.uniform(0, 5))
            up, down = _up_down(x, a, t)
            assert up + down == pytest.approx(1.0, abs=1e-15)

    def test_missing_is_exactly_zero(self):
        assert _up_down(None, 3.0, 1.0) == (0.0, 0.0)

    def test_value_at_threshold_is_half(self):
        assert _up_down(2.0, 10.0, 2.0)[0] == 0.5

    def test_extreme_slope_does_not_overflow(self):
        assert _up_down(100.0, 1e8, 0.0)[0] == 1.0
        assert _up_down(-100.0, 1e8, 0.0)[0] == pytest.approx(0.0, abs=1e-200)


class TestTransformRecord:
    def test_provenance_and_values(self):
        d = mixed_definition()
        p = ScoreParameters(d, np.array([1.0, 1.0, 1.0]),
                            np.array([4.0, 8.0, 8.0]),
                            np.array([2.0, 3.0, 5.0, 4.0]))
        r = rec("r", {"lactate_max": 5.0, "gcs_min": None, "pupils_fixed": 1.0})
        design = CohortDesign([r], d)
        assert design.step_observed.tolist() == [[True, True, False]]
        assert design.bin_observed.tolist() == [[True]]
        z = design.z_matrix(p.slopes, p.thresholds)[0]
        assert z[0] == pytest.approx(SIGMOID_1, abs=1e-15)  # x - t = +1
        assert z[1] == pytest.approx(0.04742587317756678, abs=1e-15)  # x - t = -3
        assert z[2] == 0.0
        assert z[3] == 1.0

    def test_binary_nonunit_value_counts_as_zero(self):
        d = mixed_definition()
        p = ScoreParameters.initial(d)
        design = CohortDesign([rec("r", {"pupils_fixed": 2.0})], d)
        assert design.z_matrix(p.slopes, p.thresholds)[0, 3] == 0.0
        assert design.bin_observed[0, 0]

    def test_age_band_resolution_changes_threshold(self):
        d = banded_definition()
        p = ScoreParameters(d, np.array([2.0, 2.0]),
                            np.array([160.0, 130.0, 190.0, 160.0]),
                            np.array([2.0, 3.0]))
        young = rec("y", {"hr_max": 150.0}, age=12)
        old = rec("o", {"hr_max": 150.0}, age=400)
        z = CohortDesign([young, old], d).z_matrix(p.slopes, p.thresholds)
        # 150 is below the young step-0 threshold but above the old one
        assert z[0, 0] < 0.5 < z[1, 0]

    def test_z_bounds_hold_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            d, p, cohort = random_instance(rng)
            design = CohortDesign(cohort, d)
            z = design.z_matrix(p.slopes, p.thresholds)
            assert np.all(z >= 0) and np.all(z <= 1)
            assert np.all(z[:, design.step_wcol][~design.step_observed] == 0.0)
            assert np.all(z[:, design.bin_wcol][~design.bin_observed] == 0.0)


class TestScoreAndProbability:
    def test_linear_score_is_dot_product(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            d, p, cohort = random_instance(rng)
            design = CohortDesign(cohort, d)
            z = design.z_matrix(p.slopes, p.thresholds)
            np.testing.assert_allclose(
                design.scores_for(p), z @ p.weights, rtol=0, atol=1e-12
            )

    def test_extreme_scores_saturate_without_overflow(self):
        with np.errstate(all="raise"):
            assert sigmoid(1e4) == 1.0
            assert 0.0 <= sigmoid(-1e4) < 1e-200


class TestHardScore:
    def test_strict_crossing_semantics(self):
        d = mixed_definition()
        at_threshold = rec("r", {"lactate_max": 4.0})
        assert hard_score(at_threshold, d) == 0.0
        above = rec("r", {"lactate_max": 4.1})
        assert hard_score(above, d) == 2.0
        above_both = rec("r", {"lactate_max": 9.0})
        assert hard_score(above_both, d) == 5.0  # both lactate steps add up

    def test_down_direction_and_binary(self):
        d = mixed_definition()
        low_gcs = rec("r", {"gcs_min": 5.0, "pupils_fixed": 1.0})
        assert hard_score(low_gcs, d) == 9.0  # gcs step 5 + pupils 4

    def test_missing_never_triggers(self):
        d = mixed_definition()
        assert hard_score(rec("r", {}), d) == 0.0

    def test_or_group_contributes_maximum_triggered_weight(self):
        d = mixed_definition(or_group="coma")
        both = rec("r", {"gcs_min": 5.0, "pupils_fixed": 1.0})
        assert hard_score(both, d) == 5.0  # max(5, 4), not 9
        only_binary = rec("r", {"gcs_min": 14.0, "pupils_fixed": 1.0})
        assert hard_score(only_binary, d) == 4.0

    def test_age_banded_threshold_resolution(self):
        d = banded_definition()
        young = rec("y", {"hr_max": 170.0}, age=12)
        old = rec("o", {"hr_max": 170.0}, age=400)
        assert hard_score(young, d) == 2.0  # crosses 160 only
        assert hard_score(old, d) == 5.0  # crosses 130 and 160


class TestValidateCohort:
    def test_flags_out_of_range_and_bad_binary(self):
        d = mixed_definition()
        cohort = [
            rec("ok", {"lactate_max": 3.0}),
            rec("hot", {"lactate_max": 80.0}),
            rec("odd", {"pupils_fixed": 0.5}),
        ]
        warnings = validate_cohort(cohort, d)
        assert len(warnings) == 2
        assert any("hot" in w for w in warnings)
        assert any("odd" in w for w in warnings)

    def test_value_just_above_the_range_warns(self):
        d = mixed_definition()
        cohort = [rec("r", {"lactate_max": 31.0})]
        assert validate_cohort(cohort, d) != []

    def test_never_rejects(self):
        d = mixed_definition()
        cohort = [rec("r", {"lactate_max": 1e9})]
        assert isinstance(validate_cohort(cohort, d), list)


class TestHardLimitAgreement:
    def test_steep_soft_score_matches_hard_score_off_threshold(self):
        """With near-vertical slopes the soft transform reproduces the table
        score for any record whose values stay clear of the thresholds."""
        d = mixed_definition()
        p = ScoreParameters(
            d,
            np.full(3, 1e4),
            np.array([4.0, 8.0, 8.0]),
            np.array([2.0, 3.0, 5.0, 4.0]),
        )
        rng = np.random.default_rng(23)
        checked = 0
        for _ in range(300):
            values = {}
            if rng.uniform() < 0.9:
                values["lactate_max"] = float(rng.uniform(0.0, 30.0))
            if rng.uniform() < 0.9:
                values["gcs_min"] = float(rng.uniform(3.0, 15.0))
            if rng.uniform() < 0.9:
                values["pupils_fixed"] = float(rng.integers(0, 2))
            r = rec("r", values)
            clear = all(
                abs(values.get(v, 1e9) - t) >= 0.01 if v in values else True
                for v, t in (("lactate_max", 4.0), ("lactate_max", 8.0),
                             ("gcs_min", 8.0))
            )
            if not clear:
                continue
            checked += 1
            soft = float(CohortDesign([r], d).scores_for(p)[0])
            assert soft == pytest.approx(hard_score(r, d), abs=1e-6)
        assert checked > 200
