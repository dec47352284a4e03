"""Vectorized cohort layout against the per-record reference computations."""
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    banded_definition,
    cohort_of,
    mixed_definition,
    random_instance,
    rec,
    reference_hard_score,
    reference_score,
    reference_z,
    rows_of,
)
from softscore.design import CohortDesign, _StepBlock, hard_scores, soft_scores
from softscore.errors import ValidationError
from softscore.model import DOWN, UP, ScoreParameters, hard_score
from softscore.numerics import log1pexp, sigmoid
from softscore.optimizer import OptimizerConfig, fit, objective

OUT_OF_BAND = "age {} months falls outside every age band of feature 'hr_max:step0'"


class TestCohortDesign:
    def test_empty_cohort_rejected(self):
        with pytest.raises(ValidationError):
            CohortDesign(cohort_of([]), mixed_definition())

    def test_scores_match_per_record_transform(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            d, p, cohort = random_instance(rng)
            design = CohortDesign(cohort, d)
            batch = design.scores_for(p)
            reference = [reference_score(r, d, p) for r in rows_of(cohort)]
            np.testing.assert_allclose(batch, reference, rtol=0, atol=1e-12)

    def test_z_matrix_matches_per_record_transform(self):
        rng = np.random.default_rng(37)
        instances = [random_instance(rng) for _ in range(20)]
        # slopes up to 1e8 drive the ramps into saturation without overflow
        instances += [random_instance(rng, max_slope=1e8) for _ in range(5)]
        for d, p, cohort in instances:
            design = CohortDesign(cohort, d)
            Z = design.z_matrix(p.slopes, p.thresholds)
            for i, r in enumerate(rows_of(cohort)):
                np.testing.assert_allclose(
                    Z[i], reference_z(r, d, p), rtol=0, atol=1e-12
                )

    def test_age_bands_resolve_by_age(self):
        d = banded_definition()  # bands young [0, 120) and old [120, 1200)
        cohort = cohort_of([rec("a", {}, age=12), rec("b", {"hr_max": 99.0}, age=120)])
        t_index = CohortDesign(cohort, d).t_index
        young, old = (d.threshold_index[(0, lab)] for lab in ("young", "old"))
        assert t_index[:, 0].tolist() == [young, old]
        rows = [rec("a", {}), rec("b", {}, age=5000), rec("c", {}, age=1200)]
        with pytest.raises(ValidationError, match=re.escape(OUT_OF_BAND.format(5000))):
            CohortDesign(cohort_of(rows), d)
        with pytest.raises(ValidationError, match=re.escape(OUT_OF_BAND.format(1200))):
            CohortDesign(cohort_of(rows[2:]), d)

    def test_nll_of_scores_is_log1pexp_sum(self):
        d = mixed_definition()
        cohort = cohort_of([
            rec("a", {"lactate_max": 9.0}, outcome=1),
            rec("b", {"lactate_max": 1.0}, outcome=-1),
        ])
        design = CohortDesign(cohort, d)
        s = np.array([2.0, 0.5])
        expected = math.log(1 + math.exp(-2.0)) + math.log(1 + math.exp(0.5))
        assert design.nll_of_scores(s) == pytest.approx(expected, rel=1e-12)

    def test_has_both_classes(self):
        d = mixed_definition()
        both = cohort_of([rec("a", {}, outcome=1), rec("b", {}, outcome=-1)])
        only = cohort_of([rec("a", {}, outcome=-1), rec("b", {}, outcome=-1)])
        assert CohortDesign(both, d).has_both_classes
        assert not CohortDesign(only, d).has_both_classes

    def test_unobserved_features_reported_by_key(self):
        d = mixed_definition()
        cohort = cohort_of([
            rec("a", {"lactate_max": 3.0}),
            rec("b", {"lactate_max": None, "gcs_min": None}),
        ])
        missing = CohortDesign(cohort, d).unobserved_features()
        assert missing == ("gcs_min:step0", "pupils_fixed")

    def test_definition_mismatch_rejected(self):
        d1 = mixed_definition()
        d2 = mixed_definition(with_binary=False)
        p2 = ScoreParameters.initial(d2)
        design = CohortDesign(cohort_of([rec("a", {})]), d1)
        with pytest.raises(ValidationError):
            design.scores_for(p2)

    def test_equal_definition_instances_are_accepted(self):
        d1 = mixed_definition()
        d2 = mixed_definition()
        design = CohortDesign(cohort_of([rec("a", {"lactate_max": 5.0})]), d1)
        assert design.scores_for(ScoreParameters.initial(d2)).shape == (1,)


class TestTake:
    def test_equals_a_design_built_from_the_chosen_records(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            d, _, cohort = random_instance(rng, missing_rate=0.4, or_groups=True)
            design = CohortDesign(cohort, d)
            records = rows_of(cohort)
            n = len(cohort)
            for rows in (
                np.arange(1, n, 2),  # sorted
                rng.permutation(n)[: n - 2],  # unsorted
                [n - 1, 0, n - 1, 2, 0, 0],  # repeated
            ):
                taken = design.take(rows)
                built = CohortDesign(cohort_of([records[i] for i in rows]), d)
                assert vars(taken).keys() == vars(built).keys()
                for name, value in vars(built).items():
                    if isinstance(value, np.ndarray):
                        assert getattr(taken, name).dtype == value.dtype, name
                        # NaN (missing) cells must sit in the same places
                        np.testing.assert_array_equal(
                            getattr(taken, name), value, err_msg=name
                        )
                    else:
                        assert getattr(taken, name) == value, name
                np.testing.assert_array_equal(
                    np.isnan(taken.step_x), np.isnan(built.step_x)
                )
                assert taken.unobserved_features() == built.unobserved_features()
                assert taken.has_both_classes == built.has_both_classes

    def test_negated_outcomes_follow_the_rows(self):
        rng = np.random.default_rng(47)
        d, _, cohort = random_instance(rng)
        design = CohortDesign(cohort, d)
        assert design.neg_y.tobytes() == (-design.y).tobytes()
        n = len(cohort)
        for rows in (rng.permutation(n), [n - 1, 0, n - 1, 0]):
            taken = design.take(rows)
            assert taken.neg_y.tobytes() == (-design.y[rows]).tobytes()
            s = rng.normal(scale=5.0, size=taken.n)
            y = taken.y
            assert taken.nll_of_scores(s) == float(log1pexp(-y * s).sum())
            assert taken.loss_derivative(s).tobytes() == (
                -y * sigmoid(-y * s)
            ).tobytes()

    def test_no_rows_rejected(self):
        design = CohortDesign(cohort_of([rec("a", {})]), mixed_definition())
        with pytest.raises(ValidationError, match="cohort is empty"):
            design.take([])


class TestBatchHelpers:
    def test_soft_scores_wraps_design(self):
        rng = np.random.default_rng(41)
        d, p, cohort = random_instance(rng)
        np.testing.assert_array_equal(
            soft_scores(cohort, d, p), CohortDesign(cohort, d).scores_for(p)
        )

    def test_hard_scores_matches_scalar_hard_score(self):
        rng = np.random.default_rng(43)
        instances = [random_instance(rng) for _ in range(10)]
        instances += [random_instance(rng, or_groups=True) for _ in range(10)]
        for d, _, cohort in instances:
            rows = rows_of(cohort)
            reference = [reference_hard_score(r, d) for r in rows]
            np.testing.assert_array_equal(hard_scores(cohort, d), reference)
            assert [hard_score(r.values, r.age_months, d) for r in rows] == reference
            # a missing value may also be left out, or be NaN
            left_out = [{k: v for k, v in r.values.items() if v is not None}
                        for r in rows]
            nan = [{k: math.nan if v is None else v for k, v in r.values.items()}
                   for r in rows]
            for values in (left_out, nan):
                scalar = [hard_score(v, r.age_months, d) for v, r in zip(values, rows)]
                assert scalar == reference

    def test_hard_scores_reject_ages_outside_every_band(self):
        """Also when every step value of the record is missing."""
        d = banded_definition()
        with pytest.raises(ValidationError, match=re.escape(OUT_OF_BAND.format(1300))):
            hard_scores(
                cohort_of([rec("a", {"hr_max": 150.0}), rec("b", {}, age=1300)]), d
            )
        with pytest.raises(ValidationError, match=re.escape(OUT_OF_BAND.format(1300))):
            hard_score({}, 1300, d)

    def test_hard_scores_of_empty_cohort_rejected(self):
        with pytest.raises(ValidationError, match="cohort is empty"):
            hard_scores(cohort_of([]), mixed_definition())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_records=st.integers(2, 40),
    missing_rate=st.sampled_from((0.0, 0.2, 0.6)),
    max_slope=st.sampled_from((3.0, 1e8)),
)
def test_design_matches_per_record_reference(seed, n_records, missing_rate, max_slope):
    """Random definitions with up and down steps, one or two age bands,
    binary features and OR-groups: soft values to 1e-12, table scores exactly."""
    d, p, cohort = random_instance(
        np.random.default_rng(seed), n_records=n_records, missing_rate=missing_rate,
        max_slope=max_slope, or_groups=True,
    )
    design = CohortDesign(cohort, d)
    rows = rows_of(cohort)
    np.testing.assert_allclose(
        design.z_matrix(p.slopes, p.thresholds),
        [reference_z(r, d, p) for r in rows], rtol=0, atol=1e-12,
    )
    np.testing.assert_allclose(
        design.scores_for(p), [reference_score(r, d, p) for r in rows],
        rtol=0, atol=1e-12,
    )
    np.testing.assert_array_equal(
        design.table_scores(), [reference_hard_score(r, d) for r in rows]
    )


# ----------------------------------------------------------------------
# block kernels against the step formulas written out on the design's arrays
# ----------------------------------------------------------------------


def direct_step_z(design, a, t, cols):
    """Soft step values of slope columns ``cols``, gathered afresh."""
    obs = design.step_observed[:, cols]
    diff = np.where(obs, design.step_x[:, cols] - t[design.t_index[:, cols]], 0.0)
    s = sigmoid(a[cols] * diff)
    z = np.where(design.step_up[cols], s, 1.0 - s)
    return np.where(obs, z, 0.0)


def direct_slope_gradient(design, s, a, t, w, cols):
    z = direct_step_z(design, a, t, cols)
    sp = z * (1.0 - z)
    obs = design.step_observed[:, cols]
    diff = np.where(obs, design.step_x[:, cols] - t[design.t_index[:, cols]], 0.0)
    sign = np.where(design.step_up[cols], 1.0, -1.0)
    dl = design.loss_derivative(s)
    return (dl @ (diff * sp)) * w[design.step_wcol[cols]] * sign


def direct_threshold_gradient(design, s, a, t, w, cols):
    z = direct_step_z(design, a, t, cols)
    sp = z * (1.0 - z)
    sign = np.where(design.step_up[cols], 1.0, -1.0)
    coef = w[design.step_wcol[cols]] * (-sign) * a[cols]
    term = design.loss_derivative(s)[:, None] * coef * sp
    return np.bincount(
        design.t_index[:, cols].ravel(),
        weights=term.ravel(),
        minlength=design.definition.n_thresholds,
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_records=st.integers(2, 40),
    missing_rate=st.sampled_from((0.0, 0.3, 0.7)),
    max_slope=st.sampled_from((3.0, 1e8)),
)
def test_block_step_kernels_are_bit_identical(seed, n_records, missing_rate, max_slope):
    """A fit's block step (the columns sliced once, diff and z computed once
    at the current point, each trial recomputing only what it moves) gives
    the bits of the step formulas gathered afresh, for one raw variable's
    columns, for all columns and for a shuffled subset mixing directions."""
    rng = np.random.default_rng(seed)
    d, p, cohort = random_instance(
        rng, n_records=n_records, missing_rate=missing_rate, max_slope=max_slope
    )
    design = CohortDesign(cohort, d)
    a, t, w = p.slopes, p.thresholds, p.weights
    s = design.scores_for(p)
    column_sets = [
        np.array([d.slope_index[i] for i in b.feature_indices if i in d.slope_index])
        for b in d.blocks
    ]
    column_sets = [c for c in column_sets if c.size]
    column_sets += [np.arange(d.n_slopes), rng.permutation(d.n_slopes)]
    for cols in column_sets:
        block = _StepBlock(design, cols)
        diff = design.step_diff(t, cols)
        z0 = block.z(-a[cols] * diff)
        sp = z0 * (1.0 - z0)
        dl = design.loss_derivative(s)
        np.testing.assert_array_equal(z0, direct_step_z(design, a, t, cols))
        want = direct_slope_gradient(design, s, a, t, w, cols)
        np.testing.assert_array_equal(block.slope_gradient(dl, diff, sp, w), want)
        want = direct_threshold_gradient(design, s, a, t, w, cols)
        np.testing.assert_array_equal(block.threshold_gradient(dl, sp, a, w), want)

        a_try = a.copy()
        a_try[cols] = rng.uniform(0.0, max_slope, size=cols.size)
        z = block.z(-a_try[cols] * diff)  # a slope trial
        np.testing.assert_array_equal(z, design.step_z(a_try, t)[:, cols])
        np.testing.assert_array_equal(z, direct_step_z(design, a_try, t, cols))
        t_try = t + rng.normal(size=t.size)
        z = block.z(-a[cols] * block.diff(t_try))  # a threshold trial
        np.testing.assert_array_equal(z, design.step_z(a, t_try)[:, cols])
        np.testing.assert_array_equal(z, direct_step_z(design, a, t_try, cols))


def test_block_without_threshold_slices_serves_the_slope_kernels():
    """A block built with ``thresholds=False`` holds no x or t_index slice and
    gives the bits of a full block in ``z`` and ``slope_gradient``."""
    rng = np.random.default_rng(53)
    for _ in range(10):
        d, p, cohort = random_instance(rng, missing_rate=0.3)
        design = CohortDesign(cohort, d)
        a, t, w = p.slopes, p.thresholds, p.weights
        dl = design.loss_derivative(design.scores_for(p))
        cols = rng.permutation(d.n_slopes)
        full = _StepBlock(design, cols)
        slim = _StepBlock(design, cols, thresholds=False)
        assert slim.x is None and slim.t_index is None
        diff = design.step_diff(t, cols)
        z = full.z(-a[cols] * diff)
        assert slim.z(-a[cols] * diff).tobytes() == z.tobytes()
        sp = z * (1.0 - z)
        assert slim.slope_gradient(dl, diff, sp, w).tobytes() == (
            full.slope_gradient(dl, diff, sp, w).tobytes()
        )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    missing_rate=st.sampled_from((0.0, 0.3)),
    a_init=st.sampled_from((0.01, 1e3)),
)
def test_block_z_branches_give_the_generic_bits(seed, missing_rate, a_init):
    """`_StepBlock.z` picks its branch from the block's step direction.  On
    all-up, all-down and mixed blocks, with slopes steep enough that some
    |a (x - t)| > 500 meets the clip, it gives the bits of the generic
    where(observed, where(up, s, 1 - s), 0); a fit started from steep or
    shallow slopes still reports `objective` at the parameters it returns."""
    rng = np.random.default_rng(seed)
    d, p, cohort = random_instance(
        rng, n_records=30, missing_rate=missing_rate, max_slope=1e4
    )
    design = CohortDesign(cohort, d)
    up = design.step_up
    assume(up.any() and not up.all())  # a mixed block needs both directions
    a, t = p.slopes, p.thresholds
    assert (np.abs(a * design.step_diff(t, np.arange(d.n_slopes))) > 500).any()
    blocks = {
        UP: np.flatnonzero(up), DOWN: np.flatnonzero(~up),
        None: rng.permutation(d.n_slopes),
    }
    for direction, cols in blocks.items():
        block = _StepBlock(design, cols)
        assert block.direction == direction
        diff = block.diff(t)
        s = sigmoid(a[cols] * diff)
        want = np.where(block.observed, np.where(block.up, s, 1.0 - s), 0.0)
        assert block.z(-a[cols] * diff).tobytes() == want.tobytes()

    cfg = OptimizerConfig(optimize_over=("a", "t", "w"), a_init=a_init,
                          max_outer_iters=5)
    params, trace = fit(design, cfg)
    assert trace.final_objective == pytest.approx(
        objective(params, design, cfg), rel=1e-12
    )


def test_sigmoid_clips_its_exponent_with_the_bits_of_np_clip():
    x = np.array([np.nan, -np.inf, np.inf, -0.0, 0.0, 1e300, -1e300,
                  499.9, 500.0, 500.1, -500.1, 3.3])
    want = 1.0 / (1.0 + np.exp(-np.clip(x, -500.0, 500.0)))
    assert sigmoid(x).tobytes() == want.tobytes()
    assert sigmoid(-7.5) == 1.0 / (1.0 + np.exp(7.5))
