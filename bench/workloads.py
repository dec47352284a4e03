"""The benchmark's workloads: set-up commands, one round of timed commands,
and the checks and quality readings that go with them.

Every command is a ``softscore`` CLI argument list.  The program sees only
the files these commands generate.

Every cohort and the cv fold seed are fixed, not drawn from the workload
seed.  Each ``evaluate`` and ``cv`` command ends in Platt scaling, which
fails on about one input in a hundred (see CHANGES.md), and a benchmark
operation may not fail on some seeds only; fixed inputs also keep the
held-out metrics from moving with the cohort they are read on.  The workload
seed draws the records that the kNN check compares with brute force.  See
README.md for the figures.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Optional

import checks
import reference as ref

# Size and generator seed of the independent cohorts (the large scored
# cohort, the cv workloads' held-out cohort, impute_knn's training cohort).
EVAL_N = 20000
COHORT_SEED = 1001
FOLD_SEED = 1  # cv --seed
KNN_K = 5
SETUP_DIR, OUT_DIR = "setup", "out"  # under a run's work directory


def sample_seed(seed: int, role: int) -> int:
    """Seed of the kNN check's sample of the ``role``-th imputed cohort."""
    return 1000 * seed + role


@dataclass
class Command:
    name: str
    argv: list[str]
    check: Callable[[], list[str]]


@dataclass
class Plan:
    setup: list[list[str]]
    round: list[Command]
    fitted: str  # fitted JSON whose trace gives final_objective
    report: str  # report JSON whose pooled metrics give the held-out metrics
    setup_checks: list[Callable[[], list[str]]] = field(default_factory=list)


class _Files:
    """Paths of one run: set-up files in ``setup/``, round outputs in ``out/``."""

    def __init__(self, work, preset):
        self.setup_dir = os.path.join(work, SETUP_DIR)
        self.out_dir = os.path.join(work, OUT_DIR)
        self.preset = preset
        self.definition = self.s(f"{preset}.definition.json")
        self.generator = self.s(f"{preset}.generator.json")

    def s(self, name):
        return os.path.join(self.setup_dir, name)

    def o(self, name):
        return os.path.join(self.out_dir, name)

    def presets(self):
        return ["presets", "--name", self.preset, "--out-dir", self.setup_dir]

    def simulate(self, out, seed: Optional[int] = None, n: Optional[int] = None):
        argv = ["simulate", "--score-def", self.definition,
                "--generator", self.generator, "--out", out]
        if seed is not None:
            argv += ["--seed", str(seed)]
        if n is not None:
            argv += ["--n", str(n)]
        return argv

    def fit(self, cohort, out, optimize):
        return ["fit", "--cohort", cohort, "--score-def", self.definition,
                "--out", out, "--optimize", optimize]

    def evaluate(self, cohort, out, scores, fitted=None):
        argv = ["evaluate", "--cohort", cohort, "--score-def", self.definition,
                "--out", out, "--scores", scores]
        return argv + (["--fitted", fitted] if fitted else [])


class _Lazy:
    """Definition and cohorts parsed once, on first use by a check."""

    def __init__(self, files: _Files):
        self.files = files
        self._cache = {}

    def definition(self):
        if "definition" not in self._cache:
            self._cache["definition"] = ref.read_json(self.files.definition)
        return self._cache["definition"]

    def cohort(self, path):
        if path not in self._cache:
            self._cache[path] = ref.Cohort(path)
        return self._cache[path]


def _fit_check(lazy, cohort, fitted):
    return lambda: checks.check_fit(lazy.definition(), lazy.cohort(cohort), fitted)


def _evaluate_check(lazy, cohort, report, scores, fitted=None):
    return lambda: checks.check_evaluate(
        lazy.definition(), lazy.cohort(cohort), report, scores, fitted
    )


def _with_manifest(check, primary):
    return lambda: checks.check_manifest(primary) + check()


def _cv_plan(work, preset, optimize, folds):
    """Fit and cross-validate the preset's own cohort, then score the fit on
    an independent cohort."""
    f = _Files(work, preset)
    lazy = _Lazy(f)
    train, evaluation = f.s("train.csv"), f.s("eval.csv")
    fitted, cv, cv_scores = f.o("fit.json"), f.o("cv.json"), f.o("cv_scores.csv")
    report, scores = f.o("eval.json"), f.o("eval_scores.csv")
    cv_argv = ["cv", "--cohort", train, "--score-def", f.definition, "--folds",
               str(folds), "--optimize", optimize, "--seed", str(FOLD_SEED),
               "--out", cv, "--scores", cv_scores]
    return Plan(
        setup=[f.presets(), f.simulate(train),
               f.simulate(evaluation, COHORT_SEED, EVAL_N)],
        round=[
            Command("fit", f.fit(train, fitted, optimize),
                    _with_manifest(_fit_check(lazy, train, fitted), fitted)),
            Command("cv", cv_argv, _with_manifest(
                lambda: checks.check_cv(lazy.cohort(train), cv, cv_scores, folds), cv)),
            Command("evaluate", f.evaluate(evaluation, report, scores, fitted),
                    _with_manifest(
                        _evaluate_check(lazy, evaluation, report, scores, fitted), report)),
        ],
        fitted=fitted,
        report=report,
    )


def pediatric_cv(work, seed):
    return _cv_plan(work, "pediatric_icu", "a,t,w", folds=5)


def adult_cv10(work, seed):
    return _cv_plan(work, "adult_icu", "a,w", folds=10)


def score_large(work, seed):
    """Soft and hard-table scoring of a large cohort, with a score fitted in
    set-up on the preset's own cohort."""
    f = _Files(work, "adult_icu")
    lazy = _Lazy(f)
    train, large, fitted = f.s("train.csv"), f.s("large.csv"), f.s("fit.json")
    soft, soft_scores = f.o("soft.json"), f.o("soft_scores.csv")
    hard, hard_scores = f.o("hard.json"), f.o("hard_scores.csv")
    return Plan(
        setup=[f.presets(), f.simulate(train),
               f.simulate(large, COHORT_SEED, EVAL_N),
               f.fit(train, fitted, "a,w")],
        round=[
            Command("evaluate-soft", f.evaluate(large, soft, soft_scores, fitted),
                    _with_manifest(
                        _evaluate_check(lazy, large, soft, soft_scores, fitted), soft)),
            Command("evaluate-hard", f.evaluate(large, hard, hard_scores),
                    _with_manifest(_evaluate_check(lazy, large, hard, hard_scores), hard)),
        ],
        fitted=fitted,
        report=soft,
        setup_checks=[_fit_check(lazy, train, fitted)],
    )


def impute_knn(work, seed):
    """kNN-complete an independent training cohort and the preset's own
    cohort as held-out set; fit on the first, score the second."""
    f = _Files(work, "adult_icu")
    lazy = _Lazy(f)
    train, holdout = f.s("train.csv"), f.s("holdout.csv")
    train_done, holdout_done = f.o("train_knn.csv"), f.o("holdout_knn.csv")
    fitted, report, scores = f.o("fit.json"), f.o("eval.json"), f.o("eval_scores.csv")

    def impute(src, dst, role):
        argv = ["impute", "--cohort", src, "--method", "knn", "--k", str(KNN_K),
                "--out", dst]
        def check():
            return checks.check_impute(lazy.cohort(src), dst, KNN_K, sample_seed(seed, role))

        return Command("impute", argv, _with_manifest(check, dst))

    return Plan(
        setup=[f.presets(), f.simulate(train, COHORT_SEED), f.simulate(holdout)],
        round=[
            impute(train, train_done, 2),
            impute(holdout, holdout_done, 3),
            Command("fit", f.fit(train_done, fitted, "a,w"),
                    _with_manifest(_fit_check(lazy, train_done, fitted), fitted)),
            Command("evaluate", f.evaluate(holdout_done, report, scores, fitted),
                    _with_manifest(
                        _evaluate_check(lazy, holdout_done, report, scores, fitted), report)),
        ],
        fitted=fitted,
        report=report,
    )


WORKLOADS = {
    "pediatric_cv": pediatric_cv,
    "adult_cv10": adult_cv10,
    "score_large": score_large,
    "impute_knn": impute_knn,
}
