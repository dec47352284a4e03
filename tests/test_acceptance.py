"""Acceptance gate: ten end-to-end checks with pinned seeds and tolerances.

Each test prints exactly one PASS/FAIL summary line (visible despite output
capture), so a full run doubles as the acceptance checklist.  The slowest
checks are the discrimination-recovery experiment (ten fits at n=2000) and
the study-scale cross-validation runs; the whole file finishes in a few
minutes.
"""
import dataclasses
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from helpers import band_label, cohort_of, random_instance, rows_of
from test_evaluation import confusion_at, mann_whitney_auc, random_scored_instance
from test_imputation import brute_force_knn_fill, random_missing_cohort
from test_optimizer import (
    NLL_ONLY,
    _fd_log_weight,
    _fd_slope,
    _fd_threshold,
    _gradient_parts,
    _rel_err,
    _saturated_slope_cols,
    signal_cohort,
)

from softscore.cli import main as cli_main
from softscore.design import CohortDesign, hard_scores, soft_scores
from softscore.evaluation import (
    brier,
    cross_validate,
    platt_probabilities,
    platt_scale,
    prec_rec_balance,
    roc_and_auc,
    youden,
)
from softscore.imputation import ImputationMethod, impute
from softscore.model import (
    MAX_VALUED,
    MIN_VALUED,
    FeatureStep,
    RawVariable,
    ScoreDefinition,
    ScoreParameters,
    hard_score,
)
from softscore.optimizer import (
    OptimizerConfig,
    fit,
    objective,
)
from softscore.presets import demo_definition, demo_generator, preset, preset_cohort
from softscore.synthetic import generate

from helpers import BAND_ALL, rec


def conclude(capsys, number, name, ok, detail):
    with capsys.disabled():
        print(f"\n[{number:2d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# ----------------------------------------------------------------------
# 1. steep slopes reproduce the classic table score
# ----------------------------------------------------------------------


def _clear_of_thresholds(record, definition, params, margin):
    for fi, f in enumerate(definition.features):
        if not isinstance(f, FeatureStep):
            continue
        x = record.value(f.variable.name)
        if x is None:
            continue
        lab = band_label(definition, fi, record.age_months)
        t = params.thresholds[definition.threshold_index[(fi, lab)]]
        if abs(x - t) < margin:
            return False
    return True


def test_01_hard_threshold_limit(capsys):
    started = time.perf_counter()
    d = demo_definition()
    cohort, _ = generate(demo_generator(n=600, seed=314))
    init = ScoreParameters.initial(d)
    rows = [r for r in rows_of(cohort) if _clear_of_thresholds(r, d, init, 0.01)]
    assert len(rows) >= 500, f"only {len(rows)} records clear of thresholds"
    rows = rows[:500]
    clear = cohort_of(rows)
    steep = ScoreParameters(
        d, np.full(d.n_slopes, 1e4), init.thresholds, init.weights
    )
    soft = soft_scores(clear, d, steep)
    hard = [hard_score(r.values, r.age_months, d) for r in rows]
    diff = float(
        max(np.max(np.abs(soft - hard)), np.max(np.abs(soft - hard_scores(clear, d))))
    )
    elapsed = time.perf_counter() - started
    conclude(
        capsys,
        1,
        "hard-threshold limit",
        diff < 1e-6 and elapsed < 1.0,
        f"max |soft - hard| = {diff:.2e} over 500 records, {elapsed:.2f}s",
    )


# ----------------------------------------------------------------------
# 2. analytic gradients against central finite differences
# ----------------------------------------------------------------------


def test_02_gradients_match_finite_differences(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(271)
    cfg = OptimizerConfig(
        optimize_over=("a", "t", "w"), prior_lambda=0.25, prior_mu=0.0
    )
    worst = 0.0
    checked = 0
    instances = 0
    while instances < 50:
        d, p, cohort = random_instance(rng, n_records=30)
        # central differences need room: ordered thresholds clear of each
        # other and slopes clear of the zero clamp
        spacing_ok = all(
            len(chain) < 2
            or np.min(np.abs(np.diff(p.thresholds[list(chain)]))) > 1e-3
            for _, chain in d.threshold_chains
        )
        if not spacing_ok or np.min(p.slopes) < 2e-5:
            continue
        instances += 1

        saturated = _saturated_slope_cols(d, p, cohort)
        g_a, g_t, g_v = _gradient_parts(p, CohortDesign(cohort, d), cfg)
        for j in range(d.n_slopes):
            if j in saturated:
                continue
            worst = max(worst, _rel_err(g_a[j], _fd_slope(d, p, cohort, j, cfg)))
            checked += 1

        saturated_t = {
            m
            for fi, j in d.slope_index.items()
            if j in saturated
            for (fi2, _), m in d.threshold_index.items()
            if fi2 == fi
        }
        for m in range(d.n_thresholds):
            if m in saturated_t:
                continue
            worst = max(worst, _rel_err(g_t[m], _fd_threshold(d, p, cohort, m, cfg)))
            checked += 1

        for j in range(d.n_weights):
            worst = max(
                worst, _rel_err(g_v[j], _fd_log_weight(d, p, cohort, j, cfg))
            )
            checked += 1

    elapsed = time.perf_counter() - started
    conclude(
        capsys,
        2,
        "analytic vs numeric gradients",
        worst < 1e-5 and elapsed < 10.0,
        f"worst relative error {worst:.2e} over {checked} coordinates "
        f"in 50 instances, {elapsed:.1f}s",
    )


# ----------------------------------------------------------------------
# 3. single-record loss monotonicity and gradient signs
# ----------------------------------------------------------------------


def test_03_quasilinearity_sign_suite(capsys):
    rng = np.random.default_rng(97)
    definitions = {}
    for direction, kind in (("up", MAX_VALUED), ("down", MIN_VALUED)):
        var = RawVariable("x", kind, "", (-8.0, 8.0))
        definitions[direction] = ScoreDefinition(
            f"single-{direction}",
            (var,),
            (FeatureStep(var, 0, {"all": 0.0}, initial_weight=1.0),),
            (BAND_ALL,),
        )
    violations = 0
    quadrants = {(dr, y): 0 for dr in ("up", "down") for y in (-1, 1)}
    step = 0.25
    for _ in range(1000):
        direction = "up" if rng.integers(0, 2) else "down"
        d = definitions[direction]
        x = float(rng.uniform(-4, 4))
        t = float(rng.uniform(-4, 4))
        a = float(rng.uniform(0.05, 3.0))
        w = float(rng.uniform(0.1, 4.0))
        y = int(rng.choice((-1, 1)))
        quadrants[(direction, y)] += 1
        cohort = cohort_of([rec("r", {"x": x}, age=1, outcome=y)])

        def loss(tt):
            p = ScoreParameters(d, np.array([a]), np.array([tt]), np.array([w]))
            return objective(p, CohortDesign(cohort, d), NLL_ONLY)

        lo, mid, hi = loss(t - step), loss(t), loss(t + step)
        slack = 1e-12 * max(1.0, abs(lo), abs(hi))
        # raising the threshold weakens an up-feature and strengthens a
        # down-feature, so the loss moves monotonically within each quadrant
        rising = (direction == "up") == (y == 1)
        if rising:
            if lo > mid + slack or mid > hi + slack:
                violations += 1
        else:
            if lo < mid - slack or mid < hi - slack:
                violations += 1

        p = ScoreParameters(d, np.array([a]), np.array([t]), np.array([w]))
        flip = 1.0 if direction == "up" else -1.0
        g_a, g_t, _ = _gradient_parts(p, CohortDesign(cohort, d), NLL_ONLY)
        g_a, g_t = g_a[0], g_t[0]
        if g_a * (flip * (-y * w * (x - t))) < -slack:
            violations += 1
        if rising:
            if g_t < -slack:
                violations += 1
        elif g_t > slack:
            violations += 1

    all_hit = all(count > 0 for count in quadrants.values())
    conclude(
        capsys,
        3,
        "loss monotonicity and gradient signs",
        violations == 0 and all_hit,
        f"{violations} violations in 1000 single-record instances "
        f"(quadrant counts {sorted(quadrants.values())})",
    )


# ----------------------------------------------------------------------
# 4. descent traces never increase
# ----------------------------------------------------------------------


def test_04_monotone_descent(capsys):
    rng = np.random.default_rng(11)
    fits = 0
    violations = 0
    for over in (("a",), ("w",), ("a", "t"), ("a", "w")):
        for _ in range(20):
            d, p_true, _ = random_instance(rng, n_records=2)
            cohort = signal_cohort(rng, d, p_true, n=60)
            cfg = OptimizerConfig(optimize_over=over, max_outer_iters=40)
            params, trace = fit(CohortDesign(cohort, d), cfg)
            if trace.final_objective > trace.initial_objective:
                violations += 1
            previous = trace.initial_objective
            for step in trace.steps:
                if not step.objective_after < step.objective_before <= previous:
                    violations += 1
                previous = step.objective_after
            for direction, chain in d.threshold_chains:
                vals = params.thresholds[list(chain)]
                sign = 1.0 if direction == "up" else -1.0
                if not np.all(sign * np.diff(vals) >= 0):
                    violations += 1
            fits += 1
    conclude(
        capsys,
        4,
        "monotone descent",
        fits == 80 and violations == 0,
        f"{violations} violations over {fits} fits across optimize sets "
        "a | w | a,t | a,w (traces, final vs initial, threshold order)",
    )


# ----------------------------------------------------------------------
# 5. fitted scores recover the generator's discrimination
# ----------------------------------------------------------------------


def test_05_discrimination_recovery(capsys):
    started = time.perf_counter()
    d = demo_definition()
    cfg = OptimizerConfig(optimize_over=("a", "w"))
    wins = 0
    gaps = []
    margins = []
    for s in range(10):
        train, _ = generate(demo_generator(n=2000, seed=1000 + s))
        test, truth = generate(demo_generator(n=2000, seed=2000 + s))
        params, _ = fit(CohortDesign(train, d), cfg)
        labels = [r.outcome for r in rows_of(test)]
        _, soft_auc = roc_and_auc(soft_scores(test, d, params), labels)
        _, hard_auc = roc_and_auc(hard_scores(test, d), labels)
        _, oracle_auc = roc_and_auc(truth, labels)
        gaps.append(oracle_auc - soft_auc)
        margins.append(soft_auc - hard_auc)
        if abs(oracle_auc - soft_auc) <= 0.02 and soft_auc > hard_auc:
            wins += 1
    elapsed = time.perf_counter() - started
    conclude(
        capsys,
        5,
        "recovery of discrimination",
        wins >= 8 and elapsed < 300.0,
        f"{wins}/10 seeds within 0.02 of oracle AUC and above the table "
        f"baseline (worst oracle gap {max(gaps):+.4f}, worst margin "
        f"{min(margins):+.4f}), {elapsed:.0f}s",
    )


# ----------------------------------------------------------------------
# 6. evaluation metrics against brute-force oracles
# ----------------------------------------------------------------------


def test_06_metric_oracles(capsys):
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(30):
        s, y = random_scored_instance(rng, n_max=200, tie_grid=6)
        _, auc = roc_and_auc(s, y)
        worst = max(worst, abs(auc - mann_whitney_auc(s, y)))

    for _ in range(30):
        s, y = random_scored_instance(rng, n_max=50, tie_grid=5)
        pos, neg = np.sum(y == 1), np.sum(y == -1)
        j, j_cut = youden(s, y)
        best_j = max(
            confusion_at(s, y, c)[0] / pos + confusion_at(s, y, c)[3] / neg - 1.0
            for c in list(np.unique(s)) + [math.inf]
        )
        tp, fp, fn, tn = confusion_at(s, y, j_cut)
        worst = max(worst, abs(j - best_j), abs(tp / pos + tn / neg - 1.0 - j))

        value, cut = prec_rec_balance(s, y)
        best_pr = -math.inf
        for c in np.unique(s):
            tp, fp, fn, tn = confusion_at(s, y, c)
            if tp + fp:
                best_pr = max(best_pr, min(tp / (tp + fp), tp / pos))
        tp, fp, fn, tn = confusion_at(s, y, cut)
        worst = max(
            worst,
            abs(value - best_pr),
            abs(min(tp / (tp + fp), tp / pos) - value),
        )

    labels = np.array([1, -1, 1, -1, -1, 1])
    brier_exact = (
        brier(np.full(6, 0.5), labels) == 0.25
        and brier((labels == 1).astype(float), labels) == 0.0
    )
    conclude(
        capsys,
        6,
        "metric oracles",
        worst <= 1e-12 and brier_exact,
        f"AUC vs pair counting and cutoff searches vs exhaustive: "
        f"max diff {worst:.1e}; constant Brier 0.25 and perfect Brier 0 "
        f"{'exact' if brier_exact else 'WRONG'}",
    )


# ----------------------------------------------------------------------
# 7. calibrated probabilities track the generator's truth
# ----------------------------------------------------------------------


def test_07_platt_calibration(capsys):
    d = demo_definition()
    # a generator variant whose intercept the no-intercept score model can
    # absorb; the stock demo intercept sits far outside the reachable range
    # and would warp the weight ratios instead of merely shifting the scores
    train_config = dataclasses.replace(
        demo_generator(n=2000, seed=400), intercept=-1.0
    )
    test_config = dataclasses.replace(
        demo_generator(n=5000, seed=900), intercept=-1.0
    )
    train, _ = generate(train_config)
    test, truth = generate(test_config)
    params, _ = fit(CohortDesign(train, d), OptimizerConfig(optimize_over=("a", "w")))
    calibration = platt_scale(
        soft_scores(train, d, params), [r.outcome for r in rows_of(train)]
    )
    probabilities = platt_probabilities(soft_scores(test, d, params), *calibration)
    labels = [r.outcome for r in rows_of(test)]
    fitted_brier = brier(probabilities, labels)
    oracle_brier = brier(truth, labels)
    diff = abs(fitted_brier - oracle_brier)
    conclude(
        capsys,
        7,
        "calibrated probabilities",
        diff <= 0.01,
        f"Brier {fitted_brier:.4f} vs oracle {oracle_brier:.4f} "
        f"(|diff| = {diff:.5f}) on 5000 held-out records",
    )


# ----------------------------------------------------------------------
# 8. nearest-neighbor imputation against brute force
# ----------------------------------------------------------------------


def test_08_imputation_oracles(capsys):
    cohort = cohort_of([
        rec("a", {"u": 1.0, "v": 10.0, "w": None}),
        rec("b", {"u": 1.2, "v": None, "w": 5.0}),
        rec("c", {"u": None, "v": 11.0, "w": 6.0}),
        rec("d", {"u": 3.5, "v": 14.0, "w": 2.0}),
        rec("e", {"u": 3.6, "v": 13.5, "w": None}),
        rec("f", {"u": 0.8, "v": 10.5, "w": 5.5}),
    ])
    names = ["u", "v", "w"]
    mismatched = 0
    for k in (1, 2, 3):
        expected = brute_force_knn_fill(cohort, names, k)
        out = rows_of(impute(cohort, ImputationMethod.knn(k=k)))
        for i, r in enumerate(out):
            for j, name in enumerate(names):
                if r.value(name) != expected[i, j]:
                    mismatched += 1

    rng = np.random.default_rng(211)
    worst = 0.0
    for _ in range(5):
        cohort, names = random_missing_cohort(rng, n=14)
        knn_out = impute(cohort, ImputationMethod.knn(k=13))
        mean_out = impute(cohort, ImputationMethod.mean())
        for a, b in zip(rows_of(knn_out), rows_of(mean_out)):
            for name in names:
                worst = max(worst, abs(a.value(name) - b.value(name)))
    conclude(
        capsys,
        8,
        "imputation oracles",
        mismatched == 0 and worst <= 1e-12,
        f"{mismatched} cells differ from brute force over k in 1..3; "
        f"k=n-1 vs observer mean max diff {worst:.1e}",
    )


# ----------------------------------------------------------------------
# 9. commands rerun byte-identically
# ----------------------------------------------------------------------


def test_09_rerun_determinism(capsys, tmp_path):
    runner = CliRunner()

    def run(args):
        result = runner.invoke(cli_main, [str(a) for a in args], catch_exceptions=False)
        assert result.exit_code == 0, result.output

    run(["presets", "--name", "demo", "--out-dir", tmp_path])
    definition = tmp_path / "demo.definition.json"
    generator = tmp_path / "demo.generator.json"
    artifacts = {}
    for tag in ("one", "two"):
        base = tmp_path / tag
        base.mkdir()
        cohort = base / "cohort.csv"
        truth = base / "truth.csv"
        fitted = base / "fitted.json"
        report = base / "cv.json"
        scores = base / "cv-scores.csv"
        run(
            [
                "simulate", "--score-def", definition, "--generator", generator,
                "--out", cohort, "--truth", truth, "--n", 120, "--seed", 7,
            ]
        )
        run(
            [
                "fit", "--cohort", cohort, "--score-def", definition,
                "--out", fitted, "--optimize", "a,w",
            ]
        )
        run(
            [
                "cv", "--cohort", cohort, "--score-def", definition,
                "--folds", 3, "--optimize", "a", "--out", report,
                "--scores", scores,
            ]
        )
        artifacts[tag] = [
            p.read_bytes() for p in (cohort, truth, fitted, report, scores)
        ]
    conclude(
        capsys,
        9,
        "rerun determinism",
        artifacts["one"] == artifacts["two"],
        "simulate, fit, and cv outputs byte-identical across reruns "
        "(manifests excluded)",
    )


# ----------------------------------------------------------------------
# 10. cross-validation at the two study scales
# ----------------------------------------------------------------------


def test_10_cross_validation_protocols(capsys):
    cfg = OptimizerConfig(optimize_over=("a", "w"))

    adult, _, _ = preset_cohort("adult_icu")
    started = time.perf_counter()
    adult_report, _ = cross_validate(
        CohortDesign(adult, preset("adult_icu").definition()), cfg, folds=10
    )
    adult_elapsed = time.perf_counter() - started
    adult_ok = (
        adult_report.n == 3711
        and len(adult_report.folds) == 10
        and adult_elapsed < 600.0
    )

    pediatric, _, _ = preset_cohort("pediatric_icu")
    started = time.perf_counter()
    pediatric_report, _ = cross_validate(
        CohortDesign(pediatric, preset("pediatric_icu").definition()), cfg, folds="loo"
    )
    pediatric_elapsed = time.perf_counter() - started
    pediatric_ok = (
        pediatric_report.n == 217
        and pediatric_report.folds == ()
        and pediatric_elapsed < 600.0
    )

    conclude(
        capsys,
        10,
        "cross-validation at study scale",
        adult_ok and pediatric_ok,
        f"10-fold n=3711 in {adult_elapsed:.0f}s (AUC {adult_report.auc:.3f}), "
        f"leave-one-out n=217 in {pediatric_elapsed:.0f}s "
        f"(AUC {pediatric_report.auc:.3f})",
    )
