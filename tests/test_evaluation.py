"""Metric oracles, Platt scaling, report assembly, and cross-validation."""
import dataclasses
import json
import logging
import math
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import mixed_definition, random_instance, rec
from softscore.design import CohortDesign
from softscore.errors import NumericError, ValidationError
from softscore.evaluation import (
    EvaluationReport,
    FoldMetrics,
    RocCurve,
    ScoredRow,
    brier,
    cross_validate,
    evaluate_scores,
    evaluate_subgroup,
    platt_probabilities,
    platt_scale,
    prec_rec_balance,
    roc_and_auc,
    stratified_fold_assignment,
    youden,
)
from softscore.io import report_to_dict
from softscore.numerics import sigmoid
from softscore.optimizer import OptimizerConfig, fit


def mann_whitney_auc(scores, labels):
    """Pair-counting AUC with half credit for ties."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    pos = s[y == 1]
    neg = s[y == -1]
    wins = ties = 0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1
            elif p == n:
                ties += 1
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def confusion_at(scores, labels, cutoff):
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    pred = s >= cutoff
    tp = int(np.sum(pred & (y == 1)))
    fp = int(np.sum(pred & (y == -1)))
    fn = int(np.sum(~pred & (y == 1)))
    tn = int(np.sum(~pred & (y == -1)))
    return tp, fp, fn, tn


def random_scored_instance(rng, n_max=200, tie_grid=None):
    n = int(rng.integers(4, n_max + 1))
    if tie_grid:
        s = rng.integers(0, tie_grid, size=n).astype(float)
    else:
        s = rng.normal(size=n)
    y = rng.choice((-1, 1), size=n)
    y[0], y[1] = 1, -1
    return s, y


class TestRocAndAuc:
    def test_perfect_and_inverted_ranking(self):
        s = np.array([3.0, 2.0, 1.0, 0.0])
        y = np.array([1, 1, -1, -1])
        _, auc = roc_and_auc(s, y)
        assert auc == 1.0
        _, auc_inv = roc_and_auc(-s, y)
        assert auc_inv == 0.0

    def test_curve_shape_and_bounds(self):
        rng = np.random.default_rng(113)
        for _ in range(20):
            s, y = random_scored_instance(rng, n_max=60, tie_grid=8)
            curve, auc = roc_and_auc(s, y)
            assert isinstance(curve, RocCurve)
            assert curve.cutoff[0] == math.inf
            assert (curve.sensitivity[0], curve.specificity[0]) == (0.0, 1.0)
            assert math.isnan(curve.precision[0])
            assert curve.sensitivity[-1] == 1.0
            assert curve.specificity[-1] == 0.0
            assert np.all(np.diff(curve.cutoff) < 0)
            assert np.all(np.diff(curve.sensitivity) >= 0)
            assert np.all(np.diff(curve.specificity) <= 0)
            for column in curve:
                assert column.shape == curve.cutoff.shape
            for column in (curve.sensitivity, curve.specificity, curve.precision[1:]):
                assert np.all((0.0 <= column) & (column <= 1.0))
            assert 0.0 <= auc <= 1.0

    def test_matches_mann_whitney_with_ties(self):
        rng = np.random.default_rng(127)
        for _ in range(50):
            s, y = random_scored_instance(rng, n_max=200, tie_grid=6)
            _, auc = roc_and_auc(s, y)
            assert auc == pytest.approx(mann_whitney_auc(s, y), abs=1e-12)

    def test_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(131)
        s, y = random_scored_instance(rng, n_max=80, tie_grid=10)
        _, base = roc_and_auc(s, y)
        for transform in (np.exp, lambda v: 2.0 * v + 3.0, lambda v: v**3):
            _, auc = roc_and_auc(transform(s), y)
            assert auc == pytest.approx(base, abs=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            roc_and_auc([], [])
        with pytest.raises(ValidationError):
            roc_and_auc([1.0, 2.0], [1, 1])  # single class
        with pytest.raises(ValidationError):
            roc_and_auc([1.0, 2.0], [1, 0])  # bad label


@st.composite
def tied_two_class_scores(draw):
    n = draw(st.integers(2, 30))
    scores = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    labels = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    i = draw(st.integers(0, n - 1))
    labels[i], labels[i - 1] = 1, -1
    return np.array(scores, dtype=float), np.array(labels)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tied_two_class_scores())
def test_roc_rows_match_brute_force_counts(data):
    """Every row of the table, the +inf sentinel included, holds the
    sensitivity, specificity and precision counted at its cutoff."""
    s, y = data
    curve, _ = roc_and_auc(s, y)
    expected_cutoffs = np.append(math.inf, np.unique(s)[::-1])
    np.testing.assert_array_equal(curve.cutoff, expected_cutoffs)
    pos, neg = np.sum(y == 1), np.sum(y == -1)
    for row, c in enumerate(expected_cutoffs):
        tp, fp, fn, tn = confusion_at(s, y, c)
        assert curve.sensitivity[row] == tp / pos
        assert curve.specificity[row] == pytest.approx(tn / neg, abs=1e-15)
        if tp + fp == 0:
            assert math.isnan(curve.precision[row])
        else:
            assert curve.precision[row] == tp / (tp + fp)


class TestCutoffSearch:
    def test_youden_matches_exhaustive_search(self):
        rng = np.random.default_rng(137)
        for _ in range(50):
            s, y = random_scored_instance(rng, n_max=50, tie_grid=5)
            j, cutoff = youden(s, y)
            pos = np.sum(y == 1)
            neg = np.sum(y == -1)
            best = -math.inf
            for c in list(np.unique(s)) + [math.inf]:
                tp, fp, fn, tn = confusion_at(s, y, c)
                best = max(best, tp / pos + tn / neg - 1.0)
            assert j == pytest.approx(best, abs=1e-12)
            tp, fp, fn, tn = confusion_at(s, y, cutoff)
            assert tp / pos + tn / neg - 1.0 == pytest.approx(j, abs=1e-12)

    def test_prec_rec_matches_exhaustive_search(self):
        rng = np.random.default_rng(139)
        for _ in range(50):
            s, y = random_scored_instance(rng, n_max=50, tie_grid=5)
            value, cutoff = prec_rec_balance(s, y)
            pos = np.sum(y == 1)
            best = -math.inf
            for c in np.unique(s):
                tp, fp, fn, tn = confusion_at(s, y, c)
                if tp + fp == 0:
                    continue
                best = max(best, min(tp / (tp + fp), tp / pos))
            assert value == pytest.approx(best, abs=1e-12)
            tp, fp, fn, tn = confusion_at(s, y, cutoff)
            assert min(tp / (tp + fp), tp / pos) == pytest.approx(value, abs=1e-12)

    def test_smallest_cutoff_breaks_ties(self):
        s = np.array([3.0, 2.0, 1.0, 0.0])
        y = np.array([1, -1, 1, -1])
        j, cutoff = youden(s, y)
        assert j == pytest.approx(0.5)
        assert cutoff == 1.0  # J = 0.5 also at cutoff 3; the smaller one wins

    def test_perfect_separation(self):
        s = np.array([5.0, 4.0, 1.0, 0.0])
        y = np.array([1, 1, -1, -1])
        assert youden(s, y) == (1.0, 4.0)
        value, cutoff = prec_rec_balance(s, y)
        assert value == 1.0 and cutoff == 4.0


class TestBrier:
    def test_constant_half_is_quarter(self):
        y = np.array([1, -1, 1, -1, -1])
        assert brier(np.full(5, 0.5), y) == 0.25

    def test_perfect_predictions_are_zero(self):
        y = np.array([1, -1, -1])
        assert brier(np.array([1.0, 0.0, 0.0]), y) == 0.0

    def test_matches_manual_mean_square(self):
        rng = np.random.default_rng(149)
        p = rng.uniform(0, 1, size=40)
        y = rng.choice((-1, 1), size=40)
        c = (y + 1) / 2
        assert brier(p, y) == pytest.approx(float(np.mean((p - c) ** 2)), rel=1e-15)

    def test_not_invariant_under_score_transforms(self):
        y = np.array([1, -1])
        assert brier(np.array([0.9, 0.1]), y) != brier(np.array([0.8, 0.2]), y)

    def test_rejects_out_of_range_probabilities(self):
        with pytest.raises(ValidationError):
            brier(np.array([1.2, 0.5]), np.array([1, -1]))
        with pytest.raises(ValidationError):
            brier(np.array([math.nan, 0.5]), np.array([1, -1]))


class TestPlattScaling:
    def test_probability_convention(self):
        s = np.array([0.0, 1.0])
        p = platt_probabilities(s, -2.0, 0.5)
        np.testing.assert_allclose(p, sigmoid(2.0 * s - 0.5))

    def test_recovers_generating_coefficients(self):
        rng = np.random.default_rng(151)
        s = rng.normal(0.0, 2.0, size=5000)
        p_true = sigmoid(1.5 * s - 0.7)
        y = np.where(rng.uniform(size=s.size) < p_true, 1, -1)
        a, b = platt_scale(s, y)
        assert a == pytest.approx(-1.5, abs=0.15)
        assert b == pytest.approx(0.7, abs=0.15)
        fitted = platt_probabilities(s, a, b)
        assert float(np.sqrt(np.mean((fitted - p_true) ** 2))) < 0.02

    def test_constant_scores_fall_back_to_prevalence(self):
        rng = np.random.default_rng(157)
        n = 4000
        y = np.where(rng.uniform(size=n) < 0.3, 1, -1)
        prevalence = float(np.mean(y == 1))
        a, b = platt_scale(np.zeros(n), y)
        p = platt_probabilities(np.zeros(n), a, b)
        np.testing.assert_allclose(p, prevalence, atol=1e-6)
        assert brier(p, y) == pytest.approx(
            prevalence * (1.0 - prevalence), abs=1e-6
        )

    def test_constant_scores_report_a_positive_zero_slope(self):
        # the report JSON must read "a": 0.0, never -0.0
        y = np.array([1, -1, -1, 1, -1])
        for value in (0.0, 3.0):
            a, _ = platt_scale(np.full(5, value), y)
            assert a == 0.0
            assert math.copysign(1.0, a) == 1.0

    def test_calibrated_scores_give_near_identity(self):
        rng = np.random.default_rng(163)
        s = rng.normal(size=6000)
        y = np.where(rng.uniform(size=s.size) < sigmoid(s), 1, -1)
        a, b = platt_scale(s, y)
        assert a == pytest.approx(-1.0, abs=0.1)
        assert b == pytest.approx(0.0, abs=0.1)


    def test_stalled_newton_step_returns_at_float_resolution(self):
        # Near the optimum no damped step changes the coefficients in
        # float64 while the largest gradient entry is still 1.6e-6; an
        # absolute stop rule of 1e-6 on the gradient raised here.
        rng = np.random.default_rng(39)
        s = rng.normal(-3, 1.5, 3711)
        y = np.where(rng.random(3711) < sigmoid(s), 1, -1)
        a, b = platt_scale(s, y)
        assert a == pytest.approx(-1.0, abs=0.1)
        assert b == pytest.approx(0.0, abs=0.15)
        resid = (y + 1) / 2.0 - platt_probabilities(s, a, b)
        assert abs(float(resid @ s)) < 1e-5
        assert abs(float(np.sum(resid))) < 1e-5

    def test_small_decrement_far_from_the_infimum_raises(self):
        # The huge score's curvature makes the Newton decrement vanish at
        # objective 4 log 2, while the infimum (slope to infinity) is 2 log 2.
        s = np.array([0.0, 0.0, -1.0, 1.0, 6726331283416518.0])
        y = np.array([1, -1, -1, 1, 1])
        with pytest.raises(NumericError):
            platt_scale(s, y)

    def test_separable_limit_converges(self):
        # With 1e6 in place of the huge score the fit reaches the infimum
        # 2 log 2 to float resolution, although the slope is unbounded.
        s = np.array([0.0, 0.0, -1.0, 1.0, 1e6])
        y = np.array([1, -1, -1, 1, 1])
        a, b = platt_scale(s, y)
        p = platt_probabilities(s, a, b)
        loss = -np.sum(np.log(np.where(y == 1, p, 1.0 - p)))
        assert loss == pytest.approx(2.0 * math.log(2.0), rel=1e-12)


@st.composite
def two_class_scores(draw):
    n = draw(st.integers(2, 40))
    scores = draw(st.lists(
        st.floats(-1e100, 1e100, allow_nan=False), min_size=n, max_size=n
    ))
    labels = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    i = draw(st.integers(0, n - 1))
    labels[i], labels[i - 1] = 1, -1
    return np.array(scores), np.array(labels)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(two_class_scores())
# scores 15 orders of magnitude apart: an unscaled least-squares Newton
# solve drops the intercept direction and stops far from the optimum
@example((np.array([2052002280741298.0, 2052002280741306.0, 0.0]), np.array([1, 1, -1])))
def test_platt_converges_to_float_resolution_or_raises(data):
    """Either NumericError, or finite coefficients at which the Newton
    decrement of each coefficient alone, g_i^2 / H_ii (a lower bound on the
    full decrement), is at the float resolution of the objective."""
    s, y = data
    try:
        a, b = platt_scale(s, y)
    except NumericError:
        return
    assert math.isfinite(a) and math.isfinite(b)
    u = a * s + b
    f = float(np.sum(np.where(y == 1, np.logaddexp(0.0, u), np.logaddexp(0.0, -u))))
    p_pos = platt_probabilities(s, a, b)
    p_neg = platt_probabilities(s, -a, -b)  # 1 - p_pos without cancellation
    r = np.where(y == 1, p_neg, p_pos)  # probability of the other class
    g = np.array([float((y * r) @ s), float(np.sum(y * r))])
    q = p_pos * p_neg
    curvature = np.array([float(q @ (s * s)), float(np.sum(q))])
    assert np.all(g * g <= 4 * np.finfo(float).eps * max(1.0, f) * curvature)


class TestEvaluateScores:
    def test_report_is_internally_consistent(self):
        rng = np.random.default_rng(167)
        s = rng.normal(size=300)
        y = np.where(rng.uniform(size=300) < sigmoid(2 * s), 1, -1)
        report = evaluate_scores(s, y)
        assert report.n == 300
        assert report.n_positive == int(np.sum(y == 1))
        assert report.prevalence == report.n_positive / 300
        _, auc = roc_and_auc(s, y)
        assert report.auc == auc
        assert (report.youden_j, report.youden_cutoff) == youden(s, y)
        assert report.platt is not None
        expected = platt_probabilities(s, *report.platt)
        assert report.brier == pytest.approx(brier(expected, y), rel=1e-12)

    def test_supplied_probabilities_bypass_platt(self):
        s = np.array([2.0, 1.0, -1.0, -2.0])
        y = np.array([1, 1, -1, -1])
        p = np.array([0.9, 0.6, 0.4, 0.1])
        report = evaluate_scores(s, y, probabilities=p)
        assert report.platt is None
        assert report.brier == pytest.approx(brier(p, y), rel=1e-15)


class TestEvaluateSubgroup:
    def _cohort_scores(self):
        rng = np.random.default_rng(173)
        cohort = []
        scores = rng.normal(size=60)
        probs = sigmoid(scores)
        for i in range(60):
            age = 24 if i % 2 else 600
            y = 1 if rng.uniform() < probs[i] else -1
            cohort.append(rec(f"r{i}", {}, age=age, outcome=y))
        y_all = np.array([r.outcome for r in cohort])
        y_all[:4] = [1, -1, 1, -1]
        cohort = [
            rec(r.id, {}, age=r.age_months, outcome=int(y))
            for r, y in zip(cohort, y_all)
        ]
        return cohort, scores, probs

    def test_everyone_predicate_matches_pooled(self):
        cohort, scores, probs = self._cohort_scores()
        y = np.array([r.outcome for r in cohort])
        pooled = evaluate_scores(scores, y, probabilities=probs)
        sub = evaluate_subgroup(cohort, scores, probs, lambda r: True, label="all")
        assert sub.auc == pooled.auc
        assert sub.brier == pooled.brier
        assert sub.youden_j == pooled.youden_j
        assert sub.subgroup == "all"
        assert sub.platt is None

    def test_empty_subgroup_rejected(self):
        cohort, scores, probs = self._cohort_scores()
        with pytest.raises(ValidationError):
            evaluate_subgroup(cohort, scores, probs, lambda r: False)

    def test_single_class_subgroup_rejected(self):
        cohort, scores, probs = self._cohort_scores()
        positives = {r.id for r in cohort if r.outcome == 1}
        with pytest.raises(ValidationError):
            evaluate_subgroup(cohort, scores, probs, lambda r: r.id in positives)

    def test_disjoint_subgroup_confusions_sum_to_pooled(self):
        cohort, scores, probs = self._cohort_scores()
        y = np.array([r.outcome for r in cohort])
        cutoff = youden(scores, y)[1]
        young = np.array([r.age_months < 120 for r in cohort])
        pooled = confusion_at(scores, y, cutoff)
        part_young = confusion_at(scores[young], y[young], cutoff)
        part_old = confusion_at(scores[~young], y[~young], cutoff)
        assert tuple(a + b for a, b in zip(part_young, part_old)) == pooled


class TestStratifiedFolds:
    def test_sizes_and_class_balance(self):
        rng = np.random.default_rng(179)
        y = rng.choice((-1, 1), size=103, p=(0.8, 0.2))
        assignment = stratified_fold_assignment(y, 5, np.random.default_rng(0))
        sizes = np.bincount(assignment, minlength=5)
        assert sizes.max() - sizes.min() <= 1
        pos_sizes = np.bincount(assignment[y == 1], minlength=5)
        assert pos_sizes.max() - pos_sizes.min() <= 1

    def test_fold_count_bounds(self):
        y = np.array([1, -1, 1, -1])
        with pytest.raises(ValidationError):
            stratified_fold_assignment(y, 1, np.random.default_rng(0))
        with pytest.raises(ValidationError):
            stratified_fold_assignment(y, 5, np.random.default_rng(0))

    def test_deterministic_for_fixed_rng_seed(self):
        y = np.random.default_rng(181).choice((-1, 1), size=50)
        a1 = stratified_fold_assignment(y, 4, np.random.default_rng(7))
        a2 = stratified_fold_assignment(y, 4, np.random.default_rng(7))
        np.testing.assert_array_equal(a1, a2)


def signal_cohort_for_cv(rng, d, n=40):
    cohort = []
    for i in range(n):
        lactate = float(rng.uniform(0.5, 12.0))
        gcs = float(rng.uniform(3.0, 15.0))
        s = 0.8 * (lactate - 5.0) - 0.6 * (gcs - 9.0)
        y = 1 if rng.uniform() < sigmoid(s) else -1
        values = {"lactate_max": lactate, "gcs_min": gcs,
                  "pupils_fixed": float(rng.integers(0, 2))}
        cohort.append(rec(f"r{i}", values, outcome=y))
    ys = [r.outcome for r in cohort]
    for want in (1, -1):
        if ys.count(want) < 2:
            for j, r in enumerate(cohort[:4]):
                cohort[j] = rec(r.id, r.values, age=r.age_months,
                                outcome=want if j % 2 == 0 else -want)
            break
    return cohort


class TestCrossValidate:
    def setup_method(self):
        self.d = mixed_definition()
        self.cohort = signal_cohort_for_cv(np.random.default_rng(191), self.d)
        self.cfg = OptimizerConfig(optimize_over=("a", "w"), max_outer_iters=20)

    def test_loo_scores_every_record_once(self):
        report, rows = cross_validate(
            CohortDesign(self.cohort, self.d), self.cfg, folds="loo"
        )
        assert report.n == len(self.cohort)
        assert report.folds == ()  # no per-fold table for leave-one-out
        assert [r.id for r in rows] == [r.id for r in self.cohort]
        assert sorted(r.fold for r in rows) == list(range(len(self.cohort)))

    def test_kfold_rows_and_fold_table(self):
        report, rows = cross_validate(
            CohortDesign(self.cohort, self.d), self.cfg, folds=4
        )
        assert len(report.folds) == 4
        assert sum(f.n_test for f in report.folds) == len(self.cohort)
        by_fold = {f.fold: f for f in report.folds}
        for row in rows:
            fm = by_fold[row.fold]
            expected = platt_probabilities(
                np.array([row.score]), fm.platt_a, fm.platt_b
            )[0]
            assert row.probability == pytest.approx(expected, rel=1e-12)

    def test_fold_fits_at_the_iteration_cap_log_one_line(self, caplog):
        cfg = OptimizerConfig(optimize_over=("a", "w"), max_outer_iters=1)
        with caplog.at_level(logging.WARNING, logger="softscore"):
            cross_validate(CohortDesign(self.cohort, self.d), cfg, folds=4)
        capped = [r.getMessage() for r in caplog.records]
        capped = [m for m in capped if "iteration cap" in m]
        assert capped == ["4 of 4 fold fits stopped at the iteration cap"]

    def test_capped_fold_warning_is_one_line_with_worker_processes(
        self, caplog, monkeypatch
    ):
        monkeypatch.setattr("softscore.evaluation._available_cores", lambda: 3)
        self.test_fold_fits_at_the_iteration_cap_log_one_line(caplog)

    def test_fold_rows_carry_their_fits_convergence(self):
        design = CohortDesign(self.cohort, self.d)
        report, rows = cross_validate(design, self.cfg, folds=4)
        fold_of = np.array([r.fold for r in rows])
        for row in report.folds:
            _, trace = fit(design.take(np.flatnonzero(fold_of != row.fold)), self.cfg)
            assert (row.outer_iterations, row.converged_reason, row.stall_count) == (
                trace.outer_iterations,
                trace.converged_reason,
                trace.stall_count,
            )

    def test_rerun_is_identical(self):
        _, rows1 = cross_validate(
            CohortDesign(self.cohort, self.d), self.cfg, folds="loo"
        )
        _, rows2 = cross_validate(
            CohortDesign(self.cohort, self.d), self.cfg, folds="loo"
        )
        assert rows1 == rows2

    def test_loo_needs_two_per_class(self):
        lonely = [rec("p", {"lactate_max": 9.0}, outcome=1)] + [
            rec(f"n{i}", {"lactate_max": 2.0}, outcome=-1) for i in range(5)
        ]
        with pytest.raises(ValidationError):
            cross_validate(CohortDesign(lonely, self.d), self.cfg, folds="loo")

    @pytest.mark.parametrize("folds", [4, "loo"])
    def test_negative_seed_rejected_before_any_fit(self, monkeypatch, folds):
        def no_fit(*args, **kwargs):
            raise AssertionError("a fold was fitted")

        monkeypatch.setattr("softscore.evaluation.fit", no_fit)
        with pytest.raises(ValidationError, match="fold seed must be >= 0, got -1"):
            cross_validate(
                CohortDesign(self.cohort, self.d), self.cfg, folds=folds, seed=-1
            )

    def test_kfold_needs_two_per_class_before_any_fit(self, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("a fold was fitted")

        monkeypatch.setattr("softscore.evaluation.fit", no_fit)
        lonely = [rec("p", {"lactate_max": 9.0}, outcome=1)] + [
            rec(f"n{i}", {"lactate_max": 2.0}, outcome=-1) for i in range(7)
        ]
        with pytest.raises(ValidationError, match="two records per class"):
            cross_validate(CohortDesign(lonely, self.d), self.cfg, folds=4)

    def test_pooled_auc_uses_held_out_scores(self):
        report, rows = cross_validate(
            CohortDesign(self.cohort, self.d), self.cfg, folds=4
        )
        s = np.array([r.score for r in rows])
        y = np.array([r.label for r in rows])
        _, auc = roc_and_auc(s, y)
        assert report.auc == pytest.approx(auc, rel=1e-15)


class TestParallelFolds:
    """Folds fitted in forked worker processes give the serial loop's bits,
    errors and warnings, whatever the core count."""

    cfg = OptimizerConfig(optimize_over=("a", "t", "w"), max_outer_iters=5)

    @pytest.fixture
    def design(self):
        definition, _, cohort = random_instance(
            np.random.default_rng(23), n_records=30
        )
        y = np.array([r.outcome for r in cohort])
        assert min(np.sum(y == 1), np.sum(y == -1)) >= 2
        return CohortDesign(cohort, definition)

    @staticmethod
    def _cv(monkeypatch, cores, design, cfg, folds):
        with monkeypatch.context() as m:
            m.setattr("softscore.evaluation._available_cores", lambda: cores)
            return cross_validate(design, cfg, folds=folds, seed=3)

    @pytest.mark.parametrize("folds", [4, "loo"])
    def test_reports_and_rows_do_not_depend_on_the_core_count(
        self, monkeypatch, design, folds
    ):
        def no_process(*args, **kwargs):
            raise AssertionError("a process was started")

        def no_pickle(self, protocol):
            raise AssertionError("the design was pickled")

        with monkeypatch.context() as m:
            m.setattr(os, "fork", no_process)
            serial = self._cv(monkeypatch, 1, design, self.cfg, folds)
        with monkeypatch.context() as m:
            # workers inherit the design from the forked parent
            m.setattr(CohortDesign, "__reduce_ex__", no_pickle)
            parallel = self._cv(monkeypatch, 3, design, self.cfg, folds)
        assert multiprocessing.active_children() == []
        (r1, rows1), (r3, rows3) = serial, parallel
        assert json.dumps(report_to_dict(r3)) == json.dumps(report_to_dict(r1))
        assert [repr(r) for r in rows3] == [repr(r) for r in rows1]

    def test_fold_f_is_fitted_by_share_f_mod_n(self, monkeypatch, design):
        parent = os.getpid()

        def pid_fit(train, config):
            params, trace = fit(train, config)
            return params, dataclasses.replace(trace, converged_reason=str(os.getpid()))

        monkeypatch.setattr("softscore.evaluation.fit", pid_fit)
        report, _ = self._cv(monkeypatch, 3, design, self.cfg, 5)
        pids = [int(row.converged_reason) for row in report.folds]
        assert pids[0] == pids[3] == parent
        assert pids[1] == pids[4] != pids[2]
        assert parent not in (pids[1], pids[2])

    def test_failing_fold_raises_the_serial_loops_exception(
        self, monkeypatch, design
    ):
        _, rows = self._cv(monkeypatch, 1, design, self.cfg, 4)
        # one record of each of folds 1, 2 and 3; with 3 cores folds 1 and 2
        # fail in the two workers and fold 3 in the parent's share
        poisoned = {
            next(r.id for r in rows if r.fold == f): f for f in (1, 2, 3)
        }
        real_fit = fit

        def failing_fit(train, config):
            held_out = sorted(set(poisoned) - set(train.ids))
            if held_out:
                raise NumericError(f"fold {poisoned[held_out[0]]} failed")
            return real_fit(train, config)

        monkeypatch.setattr("softscore.evaluation.fit", failing_fit)
        raised = []
        for cores in (1, 3):
            with pytest.raises(NumericError) as info:
                self._cv(monkeypatch, cores, design, self.cfg, 4)
            raised.append((type(info.value), str(info.value)))
        assert raised == [(NumericError, "fold 1 failed")] * 2
        assert multiprocessing.active_children() == []
