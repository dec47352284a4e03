"""Tests of the benchmark itself: each output check accepts the program's
real outputs and rejects a deliberately corrupted copy.

    python3 -m pytest bench/test_bench.py -q
"""
from __future__ import annotations

import csv
import itertools
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

PRESET = "pediatric_icu"  # has age bands, multi-step variables and an OR-group


@pytest.fixture(scope="module")
def made(tmp_path_factory):
    """Real outputs of a short fit, evaluate, cv and impute on a small cohort."""
    softscore = run.load_program()
    d = tmp_path_factory.mktemp("made")
    p = {name: str(d / name) for name in (
        "config.json", "train.csv", "fit.json", "soft.json", "soft_scores.csv",
        "hard.json", "hard_scores.csv", "cv.json", "cv_scores.csv", "knn.csv")}
    p["definition"] = str(d / f"{PRESET}.definition.json")
    with open(p["config.json"], "w") as fh:
        json.dump({"optimize_over": ["a", "t", "w"], "max_outer_iters": 15}, fh)
    defn = ["--score-def", p["definition"]]
    commands = [
        ["presets", "--name", PRESET, "--out-dir", str(d)],
        ["simulate", *defn, "--generator", str(d / f"{PRESET}.generator.json"),
         "--out", p["train.csv"], "--n", "300", "--seed", "7"],
        ["fit", "--cohort", p["train.csv"], *defn, "--config", p["config.json"],
         "--out", p["fit.json"]],
        ["evaluate", "--cohort", p["train.csv"], *defn, "--fitted", p["fit.json"],
         "--out", p["soft.json"], "--scores", p["soft_scores.csv"]],
        ["evaluate", "--cohort", p["train.csv"], *defn,
         "--out", p["hard.json"], "--scores", p["hard_scores.csv"]],
        ["cv", "--cohort", p["train.csv"], *defn, "--folds", "4", "--config",
         p["config.json"], "--out", p["cv.json"], "--scores", p["cv_scores.csv"]],
        ["impute", "--cohort", p["train.csv"], "--method", "knn", "--out", p["knn.csv"]],
    ]
    for argv in commands:
        assert run.invoke(softscore, argv) == 0, argv
    return p


@pytest.fixture
def files(made, tmp_path):
    """A private copy of the outputs, free to corrupt."""
    out = {}
    for key, path in made.items():
        out[key] = str(tmp_path / os.path.basename(path))
        shutil.copy(path, out[key])
        if os.path.exists(path + ".manifest.json"):
            with open(path + ".manifest.json") as fh:
                manifest = json.load(fh)
            manifest["outputs"] = {
                str(tmp_path / os.path.basename(k)): v for k, v in manifest["outputs"].items()
            }
            with open(out[key] + ".manifest.json", "w") as fh:
                json.dump(manifest, fh)
    return out


def _fit(f):
    return checks.check_fit(ref.read_json(f["definition"]), ref.Cohort(f["train.csv"]),
                            f["fit.json"])


def _soft(f):
    return checks.check_evaluate(ref.read_json(f["definition"]), ref.Cohort(f["train.csv"]),
                                 f["soft.json"], f["soft_scores.csv"], f["fit.json"])


def _hard(f):
    return checks.check_evaluate(ref.read_json(f["definition"]), ref.Cohort(f["train.csv"]),
                                 f["hard.json"], f["hard_scores.csv"])


def _cv(f):
    return checks.check_cv(ref.Cohort(f["train.csv"]), f["cv.json"], f["cv_scores.csv"], 4)


def _impute(f):
    return checks.check_impute(ref.Cohort(f["train.csv"]), f["knn.csv"], 5, 0, sample=10**6)


def _rejects(errors, phrase):
    assert any(phrase in e for e in errors), errors


def _edit_json(path, edit):
    with open(path) as fh:
        payload = json.load(fh)
    edit(payload)
    with open(path, "w") as fh:
        json.dump(payload, fh)


def _edit_csv(path, row, column, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[row + 1][column] = edit(rows[row + 1][column])
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_checks_accept_the_programs_outputs(files):
    assert _fit(files) == []
    assert _soft(files) == []
    assert _hard(files) == []
    assert _cv(files) == []
    assert _impute(files) == []
    for key in ("fit.json", "soft.json", "cv.json", "knn.csv"):
        assert checks.check_manifest(files[key]) == []


def _first_chain(definition):
    """Keys of two successive steps of one variable, and a band they share."""
    steps = [f for f in definition["features"] if f["kind"] == "step"]
    for a, b in itertools.combinations(steps, 2):
        if a["variable"] == b["variable"] and b["step_index"] == a["step_index"] + 1:
            return ref.feature_key(a), ref.feature_key(b), next(iter(a["thresholds"]))
    raise AssertionError("no multi-step variable")


@pytest.mark.parametrize("corruption", ["negative_slope", "zero_weight", "disordered",
                                        "objective", "objective_rises"])
def test_fit_check_rejects(files, corruption):
    definition = ref.read_json(files["definition"])
    lo, hi, band = _first_chain(definition)

    def edit(p):
        if corruption == "negative_slope":
            p["slopes"][lo] = -1e-3
        elif corruption == "zero_weight":
            p["weights"][lo] = 0.0
        elif corruption == "disordered":
            t = p["thresholds"]
            t[lo][band], t[hi][band] = t[hi][band], t[lo][band]
        elif corruption == "objective":
            p["trace"]["final_objective"] *= 1 + 1e-7
        else:
            p["trace"]["final_objective"] = p["trace"]["initial_objective"] * 1.01

    _edit_json(files["fit.json"], edit)
    phrase = {"negative_slope": "is negative", "zero_weight": "is not positive",
              "disordered": "out of step order", "objective": "recomputed penalised",
              "objective_rises": "exceeds the initial"}[corruption]
    _rejects(_fit(files), phrase)


@pytest.mark.parametrize("kind", ["soft", "hard"])
def test_evaluate_check_rejects_one_perturbed_score(files, kind):
    _edit_csv(files[f"{kind}_scores.csv"], 5, 2, lambda s: repr(float(s) + 1e-6))
    _rejects((_soft if kind == "soft" else _hard)(files), "differ from the reference")


def test_evaluate_check_rejects_one_flipped_label(files):
    _edit_csv(files["soft_scores.csv"], 5, 4, lambda s: str(-int(s)))
    _rejects(_soft(files), "labels differ")


@pytest.mark.parametrize("field", ["auc", "youden", "prec_rec", "brier", "cutoff"])
def test_evaluate_check_rejects_a_wrong_metric(files, field):
    def edit(p):
        pooled = p["pooled"]
        if field == "auc":
            pooled["auc"] -= 1e-6
        elif field == "youden":
            pooled["youden"]["j"] += 1e-6
        elif field == "prec_rec":
            pooled["prec_rec"]["value"] -= 1e-6
        elif field == "brier":
            pooled["brier"] *= 1.001
        else:
            scores = ref.Scores(files["soft_scores.csv"]).scores
            pooled["youden"]["cutoff"] = float(np.max(scores))

    _edit_json(files["soft.json"], edit)
    _rejects(_soft(files), "does not attain" if field == "cutoff" else field)


def test_cv_check_rejects_a_record_scored_twice(files):
    with open(files["cv_scores.csv"], newline="") as fh:
        rows = list(csv.reader(fh))
    rows[2] = list(rows[1])
    with open(files["cv_scores.csv"], "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    _rejects(_cv(files), "not each present once")


def test_cv_check_rejects_unbalanced_folds(files):
    scores = ref.Scores(files["cv_scores.csv"])
    row = int(np.flatnonzero(scores.folds == 0)[0])
    _edit_csv(files["cv_scores.csv"], row, 1, lambda s: "1")
    _rejects(_cv(files), "fold sizes")


@pytest.mark.parametrize("corruption", ["imputed", "observed", "empty"])
def test_impute_check_rejects(files, corruption):
    before = ref.Cohort(files["train.csv"])
    missing = np.argwhere(np.isnan(before.X))
    observed = np.argwhere(~np.isnan(before.X))
    i, j = missing[0] if corruption != "observed" else observed[0]
    if corruption == "empty":
        _edit_csv(files["knn.csv"], i, 3 + j, lambda s: "")
    else:
        _edit_csv(files["knn.csv"], i, 3 + j, lambda s: repr(float(s) * 1.001 + 1e-3))
    phrase = {"imputed": "brute-force kNN", "observed": "observed cells changed",
              "empty": "left empty"}[corruption]
    _rejects(_impute(files), phrase)


def test_manifest_check_rejects_a_changed_output(files):
    with open(files["soft.json"], "a") as fh:
        fh.write(" ")
    _rejects(checks.check_manifest(files["soft.json"]), "digest")


def test_mann_whitney_auc_counts_pairs():
    rng = np.random.default_rng(3)
    s = rng.integers(0, 6, size=40).astype(float)  # many ties
    y = np.where(rng.random(40) < 0.4, 1, -1)
    pos, neg = s[y == 1], s[y == -1]
    pairs = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
    assert ref.mann_whitney_auc(s, y) == pytest.approx(pairs / (pos.size * neg.size))


def test_layer_metrics_match_benchmark_json(made):
    softscore = run.load_program()
    tracer = Tracer()
    original = softscore.cli.fit_params
    tracer.install(softscore)
    try:
        argv = ["evaluate", "--cohort", made["train.csv"], "--score-def", made["definition"],
                "--out", os.devnull]
        assert tracer.call("cli.command", run.invoke, softscore, argv) == 0
    finally:
        tracer.uninstall()
    assert softscore.cli.fit_params is original
    metrics = tracer.layer_metrics(1, 0, {})
    assert metrics["model.hard_score_calls"] == 300
    assert metrics["evaluation.roc_calls"] == 3
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    assert names == list(metrics)


def test_run_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "impute_knn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
