"""Domain types, the soft feature transform, and the classic hard score.

Records become numbers only in `CohortDesign`, so the transform tests here
evaluate one-record cohorts through it."""
import logging
import math

import numpy as np
import pytest

from helpers import (
    BAND_ALL,
    banded_definition,
    cohort_of,
    mixed_definition,
    random_instance,
    rec,
)
from softscore.design import CohortDesign
from softscore.errors import ContractViolation, ValidationError
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


_X = RawVariable("x", MAX_VALUED)
_FLAG = RawVariable("flag", BINARY)
_STEP = FeatureStep(_X, 0, {"all": 1.0}, initial_weight=1.0)
_YOUNG, _OLD = AgeBand("young", 0, 120), AgeBand("old", 120, 1200)


def _steps(*thresholds):
    return tuple(
        FeatureStep(_X, i, t, initial_weight=1.0) for i, t in enumerate(thresholds)
    )


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: RawVariable("", MAX_VALUED), ValidationError,
         "variable name must be non-empty"),
        (lambda: AgeBand("", 0, 12), ValidationError,
         "age band label must be non-empty"),
        (lambda: FeatureStep(_X, -1, {"all": 1.0}, initial_weight=1.0),
         ValidationError, "feature 'x': step_index must be >= 0"),
        (lambda: FeatureStep(_X, 0, {}, initial_weight=1.0), ValidationError,
         "feature 'x': thresholds must be non-empty"),
        (lambda: FeatureStep(_X, 0, {"all": 1.0}, initial_weight=1.0, or_group=""),
         ValidationError, "or_group label must be non-empty when present"),
        (lambda: BinaryFeature(_FLAG, initial_weight=0.0), ValidationError,
         "feature 'flag': initial_weight must be positive"),
        (lambda: BinaryFeature(_FLAG, initial_weight=1.0, or_group=""),
         ValidationError, "or_group label must be non-empty when present"),
        (lambda: ScoreDefinition("", (_X,), (_STEP,), (BAND_ALL,)),
         ValidationError, "score definition needs a name"),
        (lambda: ScoreDefinition("s", (_X,), (), (BAND_ALL,)), ValidationError,
         "score definition needs at least one feature"),
        (lambda: ScoreDefinition("s", (_X, _X), (_STEP,), (BAND_ALL,)),
         ValidationError, "variable names must be unique"),
        (lambda: ScoreDefinition("s", (_X,), (_STEP,), (BAND_ALL, BAND_ALL)),
         ValidationError, "age band labels must be unique"),
        (lambda: ScoreDefinition("s", (_X,), _steps({"young": 1.0}), (BAND_ALL,)),
         ValidationError, "feature 'x:step0': unknown age band 'young'"),
        (lambda: ScoreDefinition("s", (_X,), (_STEP, _STEP), (BAND_ALL,)),
         ValidationError, r"feature keys must be unique \(variable, step_index\)"),
        (lambda: ScoreDefinition(
            "s", (_X,), _steps({"all": 1.0}, {"young": 2.0, "old": 2.0}),
            (BAND_ALL, _YOUNG, _OLD),
        ), ValidationError, "variable 'x': all steps must use the same age-band set"),
        (lambda: ScoreDefinition("s", (_X,), _steps({"young": 1.0}), (_YOUNG, _OLD)),
         ValidationError, "variable 'x': age bands must cover ages up to 1200"),
        (lambda: ScoreParameters(
            mixed_definition(), np.ones(3), np.zeros(2), np.ones(4)
        ), ContractViolation, r"thresholds: expected shape \(3,\), got \(2,\)"),
        (lambda: ScoreParameters(
            mixed_definition(), np.ones(3), np.zeros(3), np.ones(5)
        ), ContractViolation, r"weights: expected shape \(4,\), got \(5,\)"),
        (lambda: ScoreParameters(
            mixed_definition(), np.ones(3), np.array([math.nan, 5.0, 8.0]), np.ones(4)
        ), ContractViolation, "thresholds must be finite"),
        (lambda: ScoreParameters.initial(mixed_definition(), a_init=0.0),
         ValidationError, "a_init must be positive"),
    ],
    ids=[
        "empty-variable-name",
        "empty-band-label",
        "negative-step-index",
        "no-thresholds",
        "empty-step-or-group",
        "zero-binary-weight",
        "empty-binary-or-group",
        "no-definition-name",
        "no-features",
        "duplicate-variable",
        "duplicate-band",
        "unknown-band",
        "duplicate-step-index",
        "differing-band-sets",
        "bands-short-of-top-age",
        "threshold-shape",
        "weight-shape",
        "non-finite-threshold",
        "non-positive-a-init",
    ],
)
def test_invalid_model_inputs_raise_their_own_message(build, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        build()


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
    z = CohortDesign(cohort_of([rec("r", {"up": x, "down": x})]), d).step_z(
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
        design = CohortDesign(cohort_of([r]), d)
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
        design = CohortDesign(cohort_of([rec("r", {"pupils_fixed": 2.0})]), d)
        assert design.z_matrix(p.slopes, p.thresholds)[0, 3] == 0.0
        assert design.bin_observed[0, 0]

    def test_age_band_resolution_changes_threshold(self):
        d = banded_definition()
        p = ScoreParameters(d, np.array([2.0, 2.0]),
                            np.array([160.0, 130.0, 190.0, 160.0]),
                            np.array([2.0, 3.0]))
        young = rec("y", {"hr_max": 150.0}, age=12)
        old = rec("o", {"hr_max": 150.0}, age=400)
        z = CohortDesign(cohort_of([young, old]), d).z_matrix(p.slopes, p.thresholds)
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
        assert hard_score({"lactate_max": 4.0}, 60, d) == 0.0  # at the threshold
        assert hard_score({"lactate_max": 4.1}, 60, d) == 2.0
        # both lactate steps add up
        assert hard_score({"lactate_max": 9.0}, 60, d) == 5.0

    def test_down_direction_and_binary(self):
        d = mixed_definition()
        low_gcs = {"gcs_min": 5.0, "pupils_fixed": 1.0}
        assert hard_score(low_gcs, 60, d) == 9.0  # gcs step 5 + pupils 4

    def test_missing_never_triggers(self):
        d = mixed_definition()
        assert hard_score({}, 60, d) == 0.0
        # a value left out, a None and a NaN are all missing
        assert hard_score({"gcs_min": None, "pupils_fixed": math.nan}, 60, d) == 0.0
        for missing in ({}, {"lactate_max": None}, {"lactate_max": math.nan}):
            values = {"gcs_min": 5.0, "pupils_fixed": 1.0, **missing}
            assert hard_score(values, 60, d) == 9.0

    def test_or_group_contributes_maximum_triggered_weight(self):
        d = mixed_definition(or_group="coma")
        both = {"gcs_min": 5.0, "pupils_fixed": 1.0}
        assert hard_score(both, 60, d) == 5.0  # max(5, 4), not 9
        only_binary = {"gcs_min": 14.0, "pupils_fixed": 1.0}
        assert hard_score(only_binary, 60, d) == 4.0

    def test_age_banded_threshold_resolution(self):
        d = banded_definition()
        assert hard_score({"hr_max": 170.0}, 12, d) == 2.0  # crosses 160 only
        assert hard_score({"hr_max": 170.0}, 400, d) == 5.0  # crosses 130 and 160
        with pytest.raises(ValidationError, match="outside every age band"):
            hard_score({"hr_max": 170.0}, 1200, d)
        with pytest.raises(ValidationError, match="negative age"):
            hard_score({"hr_max": 170.0}, -1, d)


class TestValidateCohort:
    def test_flags_out_of_range_and_bad_binary(self):
        d = mixed_definition()
        cohort = cohort_of([
            rec("ok", {"lactate_max": 3.0}),
            rec("hot", {"lactate_max": 80.0}),
            rec("odd", {"pupils_fixed": 0.5}),
        ])
        warnings = validate_cohort(cohort, d)
        assert len(warnings) == 2
        assert any("hot" in w for w in warnings)
        assert any("odd" in w for w in warnings)

    def test_value_just_above_the_range_warns(self):
        d = mixed_definition()
        cohort = cohort_of([rec("r", {"lactate_max": 31.0})])
        assert validate_cohort(cohort, d) != []

    def test_never_rejects(self):
        d = mixed_definition()
        cohort = cohort_of([rec("r", {"lactate_max": 1e9})])
        assert isinstance(validate_cohort(cohort, d), list)


class TestCohort:
    def test_columns_and_length(self):
        values = [[1.5, math.nan, math.nan], [math.nan, -0.0, 2.0]]
        cohort = Cohort(["a", "b"], [12, 0], [1, -1], ["x", "y", "z"], values)
        assert cohort.ids == ("a", "b")
        assert cohort.variables == ("x", "y", "z")  # in the order given
        assert cohort.ages.tolist() == [12, 0]
        assert cohort.outcomes.tolist() == [1, -1]
        assert repr(cohort.values.tolist()) == repr(values)
        assert len(cohort) == 2
        assert cohort.column("z").tolist()[1] == 2.0
        assert cohort.column("w") is None

    def test_an_empty_cohort_has_no_rows(self):
        cohort = Cohort((), [], [], (), np.empty((0, 0)))
        assert len(cohort) == 0 and cohort.values.shape == (0, 0)

    def test_construction_names_the_first_bad_record(self):
        ids, variables, values = ("a", "b", "c"), ("x",), np.zeros((3, 1))
        with pytest.raises(
            ValidationError, match=r"^record 'b': outcome must be -1 or \+1, got 0$"
        ):
            Cohort(ids, [1, 2, -3], [1, 0, 2], variables, values)
        with pytest.raises(ValidationError, match=r"^record 'c': negative age$"):
            Cohort(ids, [1, 2, -3], [1, -1, 1], variables, values)
        with pytest.raises(ContractViolation):
            Cohort(ids, [1, 2], [1, -1, 1], variables, values)
        with pytest.raises(ContractViolation):
            Cohort(ids, [1, 2, 3], [1, -1, 1], ("x", "y"), values)
        with pytest.raises(ValidationError, match="unique"):
            Cohort(ids, [1, 2, 3], [1, -1, 1], ("x", "x"), np.zeros((3, 2)))

    def test_ids_must_be_strings(self):
        """The writers quote ids as text, so a non-string id is rejected on
        construction, naming the first one."""
        with pytest.raises(ValidationError, match=r"^cohort id 2 is not a string$"):
            Cohort(["a", 2, 3], [3, 4, 5], [1, -1, 1], ["x"], [[0.5], [1.5], [2.5]])

    def test_variable_names_must_be_strings(self):
        with pytest.raises(
            ValidationError, match=r"^cohort variable name 7 is not a string$"
        ):
            Cohort(["a"], [3], [1], ["x", 7, None], [[0.5, 1.5, 2.5]])

    def test_equality_compares_every_column(self):
        def make(**change):
            columns = dict(ids=("a",), ages=[3], outcomes=[1], variables=("x",),
                           values=[[math.nan]])
            columns.update(change)
            return Cohort(**columns)

        assert make() == make()
        for change in (dict(ids=("b",)), dict(ages=[4]), dict(outcomes=[-1]),
                       dict(variables=("y",)), dict(values=[[0.0]])):
            assert make() != make(**change)


class TestValidateCohortColumns:
    def test_warnings_run_in_record_then_variable_order(self):
        d = mixed_definition()
        cohort = cohort_of([
            rec("p", {"lactate_max": 40.0, "gcs_min": 2.0, "pupils_fixed": 2.0}),
            rec("q", {"lactate_max": 1.0, "gcs_min": 16.0, "pupils_fixed": None}),
        ])
        assert validate_cohort(cohort, d) == [
            "record 'p': lactate_max = 40.0 outside [0.0, 30.0] mmol/L",
            "record 'p': gcs_min = 2.0 outside [3.0, 15.0] points",
            "record 'p': pupils_fixed = 2.0 is not a 0/1 indicator",
            "record 'q': gcs_min = 16.0 outside [3.0, 15.0] points",
        ]

    def test_a_variable_without_a_column_is_logged_once(self, caplog):
        d = mixed_definition()
        cohort = cohort_of(
            [rec("p", {"lactate_max": 40.0}), rec("q", {"lactate_max": 1.0})]
        )
        with caplog.at_level(logging.WARNING, logger="softscore"):
            warnings = validate_cohort(cohort, d)
        assert warnings == ["record 'p': lactate_max = 40.0 outside [0.0, 30.0] mmol/L"]
        logged = [r.getMessage() for r in caplog.records]
        for name in ("gcs_min", "pupils_fixed"):
            assert len([m for m in logged if repr(name) in m]) == 1
        assert len(logged) == 3


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
            clear = all(
                abs(values.get(v, 1e9) - t) >= 0.01 if v in values else True
                for v, t in (("lactate_max", 4.0), ("lactate_max", 8.0),
                             ("gcs_min", 8.0))
            )
            if not clear:
                continue
            checked += 1
            soft = float(CohortDesign(cohort_of([rec("r", values)]), d).scores_for(p)[0])
            assert soft == pytest.approx(hard_score(values, 60, d), abs=1e-6)
        assert checked > 200
