"""End-to-end command-line tests: exit codes, manifests, byte-stable reruns."""
import csv
import hashlib
import json
import logging
import math

import numpy as np
import pytest
from click.testing import CliRunner

from helpers import rec
from softscore import __version__
from softscore.cli import main
from softscore.design import CohortDesign
from softscore.errors import NumericError
from softscore.evaluation import platt_probabilities, roc_and_auc
from softscore.io import (
    load_cohort,
    load_score_definition,
    params_to_dict,
    save_cohort,
    save_score_definition,
)
from softscore.model import PatientRecord, ScoreParameters
from test_optimizer import binary_only_definition

runner = CliRunner()


def run_ok(args):
    result = runner.invoke(main, [str(a) for a in args], catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


def run_fail(args, code):
    result = runner.invoke(main, [str(a) for a in args])
    assert result.exit_code == code, (result.exit_code, result.output)
    return result


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def read_scores(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rows


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Preset files, a simulated cohort, and one fitted model, shared read-only."""
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "root": root,
        "definition": root / "demo.definition.json",
        "generator": root / "demo.generator.json",
        "cohort": root / "cohort.csv",
        "truth": root / "truth.csv",
        "fitted": root / "fitted.json",
    }
    run_ok(["presets", "--name", "demo", "--out-dir", root])
    run_ok(
        [
            "simulate",
            "--score-def", paths["definition"],
            "--generator", paths["generator"],
            "--out", paths["cohort"],
            "--truth", paths["truth"],
            "--n", 150,
            "--seed", 5,
        ]
    )
    run_ok(
        [
            "fit",
            "--cohort", paths["cohort"],
            "--score-def", paths["definition"],
            "--out", paths["fitted"],
            "--optimize", "a,w",
        ]
    )
    return paths


class TestPresets:
    def test_writes_definition_generator_and_manifest(self, tmp_path):
        result = run_ok(["presets", "--name", "demo", "--out-dir", tmp_path])
        definition = tmp_path / "demo.definition.json"
        generator = tmp_path / "demo.generator.json"
        assert definition.exists() and generator.exists()
        assert str(definition) in result.output and str(generator) in result.output
        manifest = read_json(tmp_path / "demo.definition.json.manifest.json")
        assert manifest["command"] == "presets"
        assert manifest["version"] == __version__
        assert manifest["outputs"][str(definition)] == sha256(definition)
        assert manifest["outputs"][str(generator)] == sha256(generator)
        assert load_score_definition(definition).name == "demo"

    def test_in_process_manifest_records_its_own_arguments(self, tmp_path, monkeypatch):
        monkeypatch.setattr("sys.argv", ["host-program", "--host-flag"])
        args = ["presets", "--name", "demo", "--out-dir", str(tmp_path)]
        main.main(args=args, standalone_mode=False)
        manifest = read_json(tmp_path / "demo.definition.json.manifest.json")
        assert manifest["argv"] == args

    def test_every_preset_round_trips(self, tmp_path):
        for name in ("demo", "pediatric_icu", "adult_icu"):
            run_ok(["presets", "--name", name, "--out-dir", tmp_path])
            loaded = load_score_definition(tmp_path / f"{name}.definition.json")
            assert loaded.name == name

    def test_unknown_preset_exits_one(self, tmp_path):
        result = run_fail(["presets", "--name", "nope", "--out-dir", tmp_path], 1)
        assert "unknown preset 'nope'" in result.output


class TestSimulate:
    def test_outputs_and_summary_line(self, ws, tmp_path):
        out = tmp_path / "c.csv"
        result = run_ok(
            [
                "simulate",
                "--score-def", ws["definition"],
                "--generator", ws["generator"],
                "--out", out,
                "--n", 40,
                "--seed", 2,
            ]
        )
        assert "simulate: n=40" in result.output
        cohort = load_cohort(out)
        assert len(cohort) == 40
        assert set(r.outcome for r in cohort) <= {-1, 1}
        manifest = read_json(tmp_path / "c.csv.manifest.json")
        assert manifest["seed"] == 2
        assert manifest["inputs"][str(ws["generator"])] == sha256(ws["generator"])

    def test_truth_sidecar_rows_match_cohort(self, ws):
        cohort = load_cohort(ws["cohort"])
        with open(ws["truth"], encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["id", "true_probability"]
        assert [r[0] for r in rows[1:]] == [r.id for r in cohort]
        assert all(0.0 <= float(r[1]) <= 1.0 for r in rows[1:])

    def test_same_seed_is_byte_identical(self, ws, tmp_path):
        outs = []
        for tag in ("one", "two"):
            out = tmp_path / f"{tag}.csv"
            truth = tmp_path / f"{tag}.truth.csv"
            run_ok(
                [
                    "simulate",
                    "--score-def", ws["definition"],
                    "--generator", ws["generator"],
                    "--out", out,
                    "--truth", truth,
                    "--n", 60,
                    "--seed", 9,
                ]
            )
            outs.append((out, truth))
        assert outs[0][0].read_bytes() == outs[1][0].read_bytes()
        assert outs[0][1].read_bytes() == outs[1][1].read_bytes()

    def test_missing_generator_file_names_the_path(self, ws, tmp_path):
        missing = tmp_path / "never-written.json"
        result = run_fail(
            [
                "simulate",
                "--score-def", ws["definition"],
                "--generator", missing,
                "--out", tmp_path / "c.csv",
            ],
            1,
        )
        assert str(missing) in result.output


class TestFit:
    def test_optimize_a_only_keeps_table_thresholds_and_weights(self, ws, tmp_path):
        out = tmp_path / "fit-a.json"
        result = run_ok(
            [
                "fit",
                "--cohort", ws["cohort"],
                "--score-def", ws["definition"],
                "--out", out,
                "--optimize", "a",
            ]
        )
        assert "fit: objective" in result.output
        payload = read_json(out)
        table = params_to_dict(
            ScoreParameters.initial(load_score_definition(ws["definition"]))
        )
        assert payload["thresholds"] == table["thresholds"]
        assert payload["weights"] == table["weights"]
        assert any(abs(v - 0.01) > 1e-9 for v in payload["slopes"].values())

    def test_optimize_a_w_moves_weights(self, ws):
        payload = read_json(ws["fitted"])
        table = params_to_dict(
            ScoreParameters.initial(load_score_definition(ws["definition"]))
        )
        assert payload["weights"] != table["weights"]
        assert payload["thresholds"] == table["thresholds"]
        assert payload["trace"]["final_objective"] <= payload["trace"]["initial_objective"]

    def test_rerun_is_byte_identical(self, ws, tmp_path):
        outs = []
        for tag in ("one", "two"):
            out = tmp_path / f"{tag}.json"
            run_ok(
                [
                    "fit",
                    "--cohort", ws["cohort"],
                    "--score-def", ws["definition"],
                    "--out", out,
                    "--optimize", "a",
                ]
            )
            outs.append(out)
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_config_file_is_applied_and_recorded(self, ws, tmp_path):
        config = tmp_path / "optimizer.json"
        config.write_text(
            json.dumps({"optimize_over": ["a"], "max_outer_iters": 2}),
            encoding="utf-8",
        )
        out = tmp_path / "fit.json"
        run_ok(
            [
                "fit",
                "--cohort", ws["cohort"],
                "--score-def", ws["definition"],
                "--out", out,
                "--config", config,
            ]
        )
        payload = read_json(out)
        assert payload["trace"]["outer_iterations"] <= 2
        assert payload["config"]["max_outer_iters"] == 2
        assert sorted(payload["config"]) == [
            "a_init", "max_outer_iters", "optimize_over", "prior_lambda",
            "prior_mu", "rel_tol",
        ]
        manifest = read_json(tmp_path / "fit.json.manifest.json")
        assert manifest["seed"] is None
        assert str(config) in manifest["inputs"]

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"max_outer_iters": 2.5}, "max_outer_iters must be an integer, got 2.5"),
            ({"max_outer_iters": True}, "max_outer_iters must be an integer, got True"),
            ({"rel_tol": "1e-6"}, "rel_tol must be a number, got '1e-6'"),
            ({"prior_mu": "x"}, "prior_mu must be a number, got 'x'"),
            ({"prior_mu": [0.0, None]}, "prior_mu[1] must be a number, got None"),
            ({"optimize_over": "aw"}, "optimize_over must be a non-empty list"),
            ({"seed": 13}, "optimizer config: unknown key 'seed'"),
        ],
        ids=["float-iters", "bool-iters", "string-tol", "string-mu", "null-in-mu",
             "string-kinds", "removed-seed"],
    )
    def test_bad_config_value_exits_one_naming_path_and_key(
        self, ws, tmp_path, payload, message
    ):
        config = tmp_path / "optimizer.json"
        config.write_text(json.dumps(payload), encoding="utf-8")
        result = run_fail(
            [
                "fit",
                "--cohort", ws["cohort"],
                "--score-def", ws["definition"],
                "--out", tmp_path / "fit.json",
                "--config", config,
            ],
            1,
        )
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert f"error: {config}: {message}" in result.output
        assert not (tmp_path / "fit.json").exists()

    @pytest.mark.parametrize("command", ["fit", "cv"])
    @pytest.mark.parametrize(
        "payload",
        [{"prior_mu": [0.1, 0.2]}, {"prior_mu": [0.1, 0.2], "optimize_over": ["a"]}],
        ids=["a-default", "a-explicit"],
    )
    def test_prior_mu_of_the_wrong_length_exits_one_naming_path(
        self, ws, tmp_path, command, payload
    ):
        config = tmp_path / "optimizer.json"
        config.write_text(json.dumps(payload), encoding="utf-8")
        result = run_fail(
            [
                command,
                "--cohort", ws["cohort"],
                "--score-def", ws["definition"],
                "--out", tmp_path / "out.json",
                "--config", config,
            ],
            1,
        )
        assert (
            f"error: {config}: prior_mu must be scalar or length 6, got shape (2,)"
            in result.output
        )
        assert not (tmp_path / "out.json").exists()

    def test_single_class_cohort_exits_one(self, ws, tmp_path):
        cohort = load_cohort(ws["cohort"])
        flipped = [
            PatientRecord(id=r.id, age_months=r.age_months, outcome=-1, values=r.values)
            for r in cohort
        ]
        path = tmp_path / "one-class.csv"
        save_cohort(path, flipped, list(cohort[0].values))
        result = run_fail(
            [
                "fit",
                "--cohort", path,
                "--score-def", ws["definition"],
                "--out", tmp_path / "fit.json",
            ],
            1,
        )
        assert "both outcomes" in result.output

    def test_numeric_failure_exits_two(self, ws, tmp_path, monkeypatch):
        def blow_up(*args, **kwargs):
            raise NumericError("objective became non-finite")

        monkeypatch.setattr("softscore.cli.fit_params", blow_up)
        result = run_fail(
            [
                "fit",
                "--cohort", ws["cohort"],
                "--score-def", ws["definition"],
                "--out", tmp_path / "fit.json",
            ],
            2,
        )
        assert "numeric error: objective became non-finite" in result.output

    @pytest.mark.parametrize("max_outer_iters, warnings", [(500, 0), (1, 1)])
    def test_iteration_cap_is_warned_once(
        self, tmp_path, caplog, max_outer_iters, warnings
    ):
        # the easy instance of test_converges_by_tolerance_on_easy_instance
        definition = tmp_path / "binary.definition.json"
        save_score_definition(definition, binary_only_definition(weight=2.0))
        cohort = [rec(f"p{i}", {"flag": 1.0}, outcome=1) for i in range(5)]
        cohort += [rec(f"n{i}", {"flag": 0.0}, outcome=-1) for i in range(5)]
        cohort_path = tmp_path / "easy.csv"
        save_cohort(cohort_path, cohort, ["flag"])
        config = tmp_path / "optimizer.json"
        config.write_text(
            json.dumps({"optimize_over": ["w"], "max_outer_iters": max_outer_iters}),
            encoding="utf-8",
        )
        with caplog.at_level(logging.WARNING, logger="softscore"):
            run_ok(
                [
                    "fit",
                    "--cohort", cohort_path,
                    "--score-def", definition,
                    "--out", tmp_path / "fit.json",
                    "--config", config,
                ]
            )
        capped = [r for r in caplog.records if "iteration cap" in r.getMessage()]
        assert len(capped) == warnings

    def test_unknown_optimize_kind_exits_one(self, ws, tmp_path):
        result = run_fail(
            [
                "fit",
                "--cohort", ws["cohort"],
                "--score-def", ws["definition"],
                "--out", tmp_path / "fit.json",
                "--optimize", "a,q",
            ],
            1,
        )
        assert "unknown parameter kind 'q'" in result.output


class TestEvaluate:
    def test_report_agrees_with_emitted_scores(self, ws, tmp_path):
        report_path = tmp_path / "report.json"
        scores_path = tmp_path / "scores.csv"
        result = run_ok(
            [
                "evaluate",
                "--cohort", ws["cohort"],
                "--score-def", ws["definition"],
                "--fitted", ws["fitted"],
                "--out", report_path,
                "--scores", scores_path,
            ]
        )
        assert "evaluate[soft]" in result.output
        report = read_json(report_path)
        rows = read_scores(scores_path)
        assert len(rows) == 150
        scores = [float(r["score"]) for r in rows]
        labels = [int(r["label"]) for r in rows]
        _, auc = roc_and_auc(scores, labels)
        assert report["pooled"]["auc"] == auc
        platt = report["pooled"]["platt"]
        recomputed = platt_probabilities(np.array(scores), platt["a"], platt["b"])
        assert [float(r["probability"]) for r in rows] == list(recomputed)

    def test_hard_baseline_has_the_same_schema(self, ws, tmp_path):
        soft_path = tmp_path / "soft.json"
        hard_path = tmp_path / "hard.json"
        run_ok(
            [
                "evaluate",
                "--cohort", ws["cohort"],
                "--score-def", ws["definition"],
                "--fitted", ws["fitted"],
                "--out", soft_path,
            ]
        )
        result = run_ok(
            [
                "evaluate",
                "--cohort", ws["cohort"],
                "--score-def", ws["definition"],
                "--out", hard_path,
            ]
        )
        assert "evaluate[hard]" in result.output
        soft, hard = read_json(soft_path), read_json(hard_path)
        assert set(soft) == set(hard)
        assert set(soft["pooled"]) == set(hard["pooled"])

    def test_age_band_filter(self, tmp_path):
        run_ok(["presets", "--name", "pediatric_icu", "--out-dir", tmp_path])
        definition = tmp_path / "pediatric_icu.definition.json"
        cohort = tmp_path / "cohort.csv"
        run_ok(
            [
                "simulate",
                "--score-def", definition,
                "--generator", tmp_path / "pediatric_icu.generator.json",
                "--out", cohort,
                "--n", 120,
                "--seed", 11,
            ]
        )
        report_path = tmp_path / "child.json"
        run_ok(
            [
                "evaluate",
                "--cohort", cohort,
                "--score-def", definition,
                "--out", report_path,
                "--filter", "age:child",
            ]
        )
        report = read_json(report_path)
        assert report["subgroup"] == "age:child"
        assert 0 < report["pooled"]["n"] < 120

    def test_filter_errors(self, ws, tmp_path):
        base = [
            "evaluate",
            "--cohort", ws["cohort"],
            "--score-def", ws["definition"],
            "--out", tmp_path / "r.json",
        ]
        result = run_fail(base + ["--filter", "age:toddler"], 1)
        assert "known bands" in result.output
        result = run_fail(base + ["--filter", "sex:m"], 1)
        assert "only 'age'" in result.output
        result = run_fail(base + ["--filter", "child"], 1)
        assert "expected age:BAND_LABEL" in result.output

    def test_age_outside_every_band_exits_one(self, ws, tmp_path):
        """Soft and hard scoring both reject an age outside every band, also
        for a record whose step values are all missing."""
        cohort = load_cohort(ws["cohort"])
        stray = PatientRecord(id="stray", age_months=1300, outcome=-1, values={})
        path = tmp_path / "stray.csv"
        save_cohort(path, cohort + [stray], list(cohort[0].values))
        for fitted in ((), ("--fitted", ws["fitted"])):
            result = run_fail(
                [
                    "evaluate",
                    "--cohort", path,
                    "--score-def", ws["definition"],
                    "--out", tmp_path / "r.json",
                    *fitted,
                ],
                1,
            )
            assert (
                "age 1300 months falls outside every age band of feature "
                "'lactate_max:step0'" in result.output
            )

    def test_missing_fitted_file_names_the_path(self, ws, tmp_path):
        missing = tmp_path / "fitted-nowhere.json"
        result = run_fail(
            [
                "evaluate",
                "--cohort", ws["cohort"],
                "--score-def", ws["definition"],
                "--fitted", missing,
                "--out", tmp_path / "r.json",
            ],
            1,
        )
        assert str(missing) in result.output


class TestNonFiniteCells:
    @staticmethod
    def _cohort_with_cell(ws, path, cell):
        """The shared cohort with its first observed value cell set to ``cell``;
        returns the line number and variable name of that cell."""
        with open(ws["cohort"], encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        line, col = next(
            (i + 1, j)
            for i, row in enumerate(rows[1:], start=1)
            for j in range(3, len(row))
            if row[j] != ""
        )
        rows[line - 1][col] = cell
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(rows)
        return line, rows[0][col]

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["fit", "evaluate-soft", "evaluate-hard"])
    def test_exits_one_naming_the_cell(self, ws, tmp_path, command, cell):
        path = tmp_path / "cohort.csv"
        line, name = self._cohort_with_cell(ws, path, cell)
        args = {
            "fit": ["fit"],
            "evaluate-soft": ["evaluate", "--fitted", ws["fitted"]],
            "evaluate-hard": ["evaluate"],
        }[command]
        args += [
            "--cohort", path,
            "--score-def", ws["definition"],
            "--out", tmp_path / "out.json",
        ]
        result = run_fail(args, 1)
        assert f"{path}:{line}: bad number {cell!r} for {name}" in result.output


def _first_key(mapping):
    return next(iter(mapping))


def _first_step(definition):
    return next(f for f in definition["features"] if f["kind"] == "step")


def _set_first_slope(value):
    def edit(fitted):
        fitted["slopes"][_first_key(fitted["slopes"])] = value

    return edit


def _drop_first_slope(fitted):
    del fitted["slopes"][_first_key(fitted["slopes"])]


def _nan_single_step_threshold(definition):
    """A NaN threshold on a variable with one step, which no step-order check
    compares."""
    steps = [f for f in definition["features"] if f["kind"] == "step"]
    variables = [f["variable"] for f in steps]
    step = next(f for f in steps if variables.count(f["variable"]) == 1)
    step["thresholds"] = {lab: math.nan for lab in step["thresholds"]}


class TestMalformedFiles:
    """A malformed input file exits 1 with one error line naming it, never
    with a traceback."""

    @pytest.mark.parametrize(
        "role, edit",
        [
            ("fitted", _set_first_slope("steep")),
            ("fitted", lambda p: p.update(weights=5)),
            ("fitted", _set_first_slope(-1)),
            ("fitted", _drop_first_slope),
            ("definition", lambda p: p["age_bands"][0].update(min_age_months="zero")),
            ("definition", lambda p: _first_step(p).update(thresholds=4.4)),
            ("definition", _nan_single_step_threshold),
            ("generator", lambda p: p.update(n="many")),
            ("cohort", None),
            ("definition", None),
        ],
        ids=["string-slope", "scalar-weights", "negative-slope", "missing-slope",
             "string-age", "scalar-thresholds", "nan-threshold", "string-n",
             "binary-cohort", "binary-definition"],
    )
    def test_exits_one_naming_the_path(self, ws, tmp_path, role, edit):
        bad = tmp_path / f"bad-{role}"
        if edit is None:
            bad.write_bytes(bytes(range(256)))
        else:
            payload = read_json(ws[role])
            edit(payload)
            bad.write_text(json.dumps(payload), encoding="utf-8")
        files = {k: ws[k] for k in ("cohort", "definition", "fitted", "generator")}
        files[role] = bad
        if role == "generator":
            args = ["simulate", "--generator", files["generator"]]
        else:
            args = ["evaluate", "--cohort", files["cohort"], "--fitted", files["fitted"]]
        result = run_fail(
            [*args, "--score-def", files["definition"], "--out", tmp_path / "out"], 1
        )
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith(f"error: {bad}: ")
        assert "Traceback" not in result.output
        assert not (tmp_path / "out").exists()


class TestCv:
    def _cv(self, ws, out, scores):
        return run_ok(
            [
                "cv",
                "--cohort", ws["cohort"],
                "--score-def", ws["definition"],
                "--folds", 3,
                "--out", out,
                "--scores", scores,
                "--optimize", "a",
            ]
        )

    def test_three_folds_report_and_scores(self, ws, tmp_path):
        report_path = tmp_path / "cv.json"
        scores_path = tmp_path / "cv-scores.csv"
        result = self._cv(ws, report_path, scores_path)
        assert "cv[3]" in result.output
        report = read_json(report_path)
        assert len(report["folds"]) == 3
        assert report["pooled"]["n"] == 150
        rows = read_scores(scores_path)
        assert len(rows) == 150
        assert set(int(r["fold"]) for r in rows) == {0, 1, 2}
        _, auc = roc_and_auc(
            [float(r["score"]) for r in rows], [int(r["label"]) for r in rows]
        )
        assert report["pooled"]["auc"] == auc

    def test_rerun_is_byte_identical(self, ws, tmp_path):
        artifacts = []
        for tag in ("first", "rerun"):
            report_path = tmp_path / f"{tag}.json"
            scores_path = tmp_path / f"{tag}.csv"
            self._cv(ws, report_path, scores_path)
            artifacts.append((report_path.read_bytes(), scores_path.read_bytes()))
        assert artifacts[0] == artifacts[1]

    def test_builds_one_design(self, ws, tmp_path, monkeypatch):
        builds = []
        init = CohortDesign.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(CohortDesign, "__init__", counting_init)
        self._cv(ws, tmp_path / "cv.json", tmp_path / "cv.csv")
        assert len(builds) == 1

    def test_leave_one_out(self, ws, tmp_path):
        cohort = load_cohort(ws["cohort"])
        positives = [r for r in cohort if r.outcome == 1][:4]
        negatives = [r for r in cohort if r.outcome == -1][:20]
        path = tmp_path / "small.csv"
        save_cohort(path, positives + negatives, list(cohort[0].values))
        report_path = tmp_path / "loo.json"
        result = run_ok(
            [
                "cv",
                "--cohort", path,
                "--score-def", ws["definition"],
                "--folds", "loo",
                "--out", report_path,
                "--optimize", "a",
            ]
        )
        assert "cv[loo]" in result.output
        report = read_json(report_path)
        assert report["folds"] == []
        assert report["pooled"]["n"] == 24

    def test_kfold_with_a_class_of_one_exits_one(self, ws, tmp_path):
        cohort = load_cohort(ws["cohort"])
        positives = [r for r in cohort if r.outcome == 1][:1]
        negatives = [r for r in cohort if r.outcome == -1][:20]
        path = tmp_path / "lonely.csv"
        save_cohort(path, positives + negatives, list(cohort[0].values))
        result = run_fail(
            [
                "cv",
                "--cohort", path,
                "--score-def", ws["definition"],
                "--folds", 4,
                "--out", tmp_path / "cv.json",
            ],
            1,
        )
        assert "cross-validation needs at least two records per class" in result.output
        assert not (tmp_path / "cv.json").exists()

    def test_invalid_folds_exits_one(self, ws, tmp_path):
        result = run_fail(
            [
                "cv",
                "--cohort", ws["cohort"],
                "--score-def", ws["definition"],
                "--folds", "seven",
                "--out", tmp_path / "cv.json",
            ],
            1,
        )
        assert "expected an integer or 'loo'" in result.output


class TestImpute:
    def test_default_k_matches_explicit_k5(self, ws, tmp_path):
        default = tmp_path / "default.csv"
        explicit = tmp_path / "explicit.csv"
        run_ok(["impute", "--cohort", ws["cohort"], "--method", "knn", "--out", default])
        run_ok(
            [
                "impute",
                "--cohort", ws["cohort"],
                "--method", "knn",
                "--k", 5,
                "--out", explicit,
            ]
        )
        assert default.read_bytes() == explicit.read_bytes()
        completed = load_cohort(default)
        assert all(v is not None for r in completed for v in r.values.values())

    def test_mean_on_complete_cohort_is_identity(self, ws, tmp_path):
        once = tmp_path / "once.csv"
        twice = tmp_path / "twice.csv"
        run_ok(["impute", "--cohort", ws["cohort"], "--method", "mean", "--out", once])
        run_ok(["impute", "--cohort", once, "--method", "mean", "--out", twice])
        assert once.read_bytes() == twice.read_bytes()

    def test_normal_uses_definition_reference_values(self, ws, tmp_path):
        out = tmp_path / "normal.csv"
        run_ok(
            [
                "impute",
                "--cohort", ws["cohort"],
                "--method", "normal",
                "--score-def", ws["definition"],
                "--out", out,
            ]
        )
        original = load_cohort(ws["cohort"])
        completed = load_cohort(out)
        filled = [
            c.value("lactate_max")
            for o, c in zip(original, completed)
            if o.value("lactate_max") is None
        ]
        assert filled and all(v == 1.0 for v in filled)

    def test_normal_without_score_def_exits_one(self, ws, tmp_path):
        result = run_fail(
            [
                "impute",
                "--cohort", ws["cohort"],
                "--method", "normal",
                "--out", tmp_path / "c.csv",
            ],
            1,
        )
        assert "requires --score-def" in result.output

    def test_unknown_method_exits_one(self, ws, tmp_path):
        result = run_fail(
            [
                "impute",
                "--cohort", ws["cohort"],
                "--method", "median",
                "--out", tmp_path / "c.csv",
            ],
            1,
        )
        assert "unknown imputation method 'median'" in result.output


class TestManifests:
    def test_fit_manifest_links_inputs_and_outputs(self, ws):
        manifest = read_json(ws["root"] / "fitted.json.manifest.json")
        assert manifest["command"] == "fit"
        assert manifest["version"] == __version__
        assert manifest["inputs"][str(ws["cohort"])] == sha256(ws["cohort"])
        assert manifest["inputs"][str(ws["definition"])] == sha256(ws["definition"])
        assert manifest["outputs"][str(ws["fitted"])] == sha256(ws["fitted"])
        assert manifest["wall_time_seconds"] >= 0
        assert manifest["seed"] is None

    def test_every_primary_output_has_a_manifest(self, ws):
        for key in ("cohort", "fitted"):
            assert (ws["root"] / (ws[key].name + ".manifest.json")).exists()

    def test_fit_evaluate_and_cv_manifests_time_their_stages(self, ws, tmp_path):
        report, cv = tmp_path / "report.json", tmp_path / "cv.json"
        config = tmp_path / "optimizer.json"
        config.write_text(json.dumps({"max_outer_iters": 2}), encoding="utf-8")
        run_ok(["evaluate", "--cohort", ws["cohort"], "--score-def", ws["definition"],
                "--fitted", ws["fitted"], "--out", report])
        run_ok(["cv", "--cohort", ws["cohort"], "--score-def", ws["definition"],
                "--folds", 3, "--out", cv, "--optimize", "a", "--config", config])
        for out, stages in (
            (ws["fitted"], {"load", "design", "fit", "write"}),
            (report, {"load", "score", "write"}),
            (cv, {"load", "design", "cv", "write"}),
        ):
            manifest = read_json(out.parent / f"{out.name}.manifest.json")
            seconds = manifest["stage_seconds"]
            assert set(seconds) == stages
            assert all(isinstance(v, float) and v >= 0 for v in seconds.values())
            assert sum(seconds.values()) <= manifest["wall_time_seconds"]


class TestUsageErrors:
    """Usage errors exit 1 like any invalid input, with click's message;
    exit code 2 means a numeric failure."""

    @pytest.mark.parametrize(
        "args, fragments",
        [
            (["fit", "--cohort", "c.csv", "--out", "f.json"],
             ("Missing option", "--score-def")),
            (["fit", "--bogus", 1], ("No such option", "--bogus")),
            (["impute", "--cohort", "c.csv", "--method", "knn", "--out", "o.csv",
              "--k", "x"], ("Invalid value for", "--k")),
            (["fit", "--cohort", "c.csv", "--score-def", "d.json", "--out", "f.json",
              "--seed", 3], ("No such option", "--seed")),
            (["--bogus"], ("No such option", "--bogus")),
            (["refit"], ("No such command", "refit")),
        ],
        ids=["missing", "unknown", "ill-typed", "fit-seed", "group-option",
             "command"],
    )
    def test_exit_one_with_clicks_message(self, args, fragments):
        result = run_fail(args, 1)
        assert result.output.startswith("Usage: ")
        assert all(f in result.output for f in fragments)

    def test_cv_records_its_fold_seed(self, ws, tmp_path):
        config = tmp_path / "optimizer.json"
        config.write_text(json.dumps({"max_outer_iters": 2}), encoding="utf-8")
        for seed, expected in ((None, 0), (4, 4)):
            out = tmp_path / f"cv-{seed}.json"
            extra = [] if seed is None else ["--seed", seed]
            run_ok(
                [
                    "cv",
                    "--cohort", ws["cohort"],
                    "--score-def", ws["definition"],
                    "--folds", 3,
                    "--out", out,
                    "--optimize", "a",
                    "--config", config,
                    *extra,
                ]
            )
            assert read_json(tmp_path / f"{out.name}.manifest.json")["seed"] == expected


class TestTopLevel:
    def test_version_flag(self):
        result = run_ok(["--version"])
        assert __version__ in result.output

    def test_help_lists_commands(self):
        result = run_ok(["--help"])
        for command in ("presets", "simulate", "fit", "evaluate", "cv", "impute"):
            assert command in result.output
