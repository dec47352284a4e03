"""End-to-end command-line tests: exit codes, manifests, byte-stable reruns."""
import csv
import hashlib
import json
import logging
import math

import numpy as np
import pytest
from click.testing import CliRunner

from helpers import cohort_of, rec, rows_of
from softscore import __version__
from softscore.cli import main
from softscore.design import CohortDesign
from softscore.errors import NumericError
from softscore.evaluation import fold_workers, platt_probabilities, roc_and_auc
from softscore.io import (
    load_cohort,
    load_score_definition,
    params_to_dict,
    save_cohort,
    save_score_definition,
)
from softscore.model import ScoreParameters
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
        assert set(r.outcome for r in rows_of(cohort)) <= {-1, 1}
        manifest = read_json(tmp_path / "c.csv.manifest.json")
        assert manifest["seed"] == 2
        assert manifest["inputs"][str(ws["generator"])] == sha256(ws["generator"])

    def test_truth_sidecar_rows_match_cohort(self, ws):
        cohort = load_cohort(ws["cohort"])
        with open(ws["truth"], encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["id", "true_probability"]
        assert [r[0] for r in rows[1:]] == [r.id for r in rows_of(cohort)]
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

    def test_negative_seed_exits_one(self, ws, tmp_path):
        out = tmp_path / "c.csv"
        result = run_fail(
            [
                "simulate",
                "--score-def", ws["definition"],
                "--generator", ws["generator"],
                "--out", out,
                "--seed", -1,
            ],
            1,
        )
        assert result.stderr == "error: seed must be >= 0\n"
        assert not out.exists()

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
        flipped = cohort_of(r._replace(outcome=-1) for r in rows_of(cohort))
        path = tmp_path / "one-class.csv"
        save_cohort(path, flipped)
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
        rows = [rec(f"p{i}", {"flag": 1.0}, outcome=1) for i in range(5)]
        rows += [rec(f"n{i}", {"flag": 0.0}, outcome=-1) for i in range(5)]
        cohort_path = tmp_path / "easy.csv"
        save_cohort(cohort_path, cohort_of(rows))
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

    def test_age_band_filter_is_half_open(self, tmp_path):
        """``age:child`` keeps ages in [12, 144): the band's lower edge, not its
        upper one."""
        run_ok(["presets", "--name", "pediatric_icu", "--out-dir", tmp_path])
        definition = tmp_path / "pediatric_icu.definition.json"
        ages = [11, 12, 12, 143, 143, 144, 144, 0]
        cohort = cohort_of(
            rec(f"r{i}", {"gcs_min": 3.0 + i}, age=age, outcome=1 if i % 2 else -1)
            for i, age in enumerate(ages)
        )
        path = tmp_path / "edges.csv"
        save_cohort(path, cohort)
        report = tmp_path / "child.json"
        run_ok(["evaluate", "--cohort", path, "--score-def", definition,
                "--out", report, "--filter", "age:child"])
        assert read_json(report)["pooled"]["n"] == 4

    def test_filter_errors(self, ws, tmp_path, monkeypatch):
        """A malformed spec fails before anything is scored or evaluated."""
        import softscore.cli

        evaluations = []
        evaluate_scores = softscore.cli.evaluate_scores
        monkeypatch.setattr(
            softscore.cli, "evaluate_scores",
            lambda *a, **k: evaluations.append(1) or evaluate_scores(*a, **k),
        )
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
        assert evaluations == []
        # no neonate at all, and infants of one outcome class only
        run_ok(["presets", "--name", "pediatric_icu", "--out-dir", tmp_path])
        ages = [24, 36, 60, 100, 3, 6]
        outcomes = [1, -1, 1, -1, -1, -1]
        path = tmp_path / "bands.csv"
        save_cohort(path, cohort_of(
            rec(f"r{i}", {"gcs_min": 3.0 + i}, age=age, outcome=y)
            for i, (age, y) in enumerate(zip(ages, outcomes))
        ))
        base = [
            "evaluate",
            "--cohort", path,
            "--score-def", tmp_path / "pediatric_icu.definition.json",
            "--out", tmp_path / "r.json",
        ]
        result = run_fail(base + ["--filter", "age:neonate"], 1)
        assert result.stderr == "error: subgroup is empty\n"
        result = run_fail(base + ["--filter", "age:infant"], 1)
        assert result.stderr == "error: subgroup contains a single outcome class\n"
        assert not (tmp_path / "r.json").exists()

    def test_age_outside_every_band_exits_one(self, ws, tmp_path):
        """Soft and hard scoring both reject an age outside every band, also
        for a record whose step values are all missing."""
        cohort = load_cohort(ws["cohort"])
        stray = rec("stray", {}, age=1300, outcome=-1)
        path = tmp_path / "stray.csv"
        save_cohort(path, cohort_of(rows_of(cohort) + [stray]))
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


class TestMissingColumn:
    def test_a_score_variable_without_a_column_is_warned_and_reads_missing(
        self, ws, tmp_path, caplog
    ):
        """A misspelt header column makes its variable missing in every record:
        ``evaluate`` warns once, naming it, and writes what it writes for that
        column left empty."""
        with open(ws["cohort"], encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        col = rows[0].index("lactate_max")
        misspelt, emptied = tmp_path / "misspelt.csv", tmp_path / "emptied.csv"
        with open(misspelt, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([rows[0][:col] + ["lactate_mx"] + rows[0][col + 1:]]
                                     + rows[1:])
        with open(emptied, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([rows[0]] + [r[:col] + [""] + r[col + 1:]
                                                  for r in rows[1:]])
        outputs = []
        for cohort in (misspelt, emptied):
            caplog.clear()
            report, scores = tmp_path / f"{cohort.stem}.json", tmp_path / f"{cohort.stem}.csv.out"
            with caplog.at_level(logging.WARNING, logger="softscore"):
                run_ok(["evaluate", "--cohort", cohort, "--score-def", ws["definition"],
                        "--fitted", ws["fitted"], "--out", report, "--scores", scores])
            warned = [r.getMessage() for r in caplog.records
                      if "no column" in r.getMessage()]
            outputs.append(((report.read_bytes(), scores.read_bytes()), warned))
        (files_misspelt, warned_misspelt), (files_emptied, warned_emptied) = outputs
        assert warned_misspelt == [
            "variable 'lactate_max' of the score has no column in the cohort; "
            "every record reads it as missing"
        ]
        assert warned_emptied == []
        assert files_misspelt == files_emptied


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
            ("generator", lambda p: p.update(n=150.7)),
            ("definition", lambda p: _first_step(p).update(step_index="0")),
            ("generator", lambda p: p.update(seed=-1)),
        ],
        ids=["string-slope", "scalar-weights", "negative-slope", "missing-slope",
             "string-age", "scalar-thresholds", "nan-threshold", "string-n",
             "binary-cohort", "binary-definition", "fractional-n",
             "string-step-index", "negative-seed"],
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

    def test_duplicate_record_id_exits_one_naming_both_lines(self, ws, tmp_path):
        with open(ws["cohort"], encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        rows[2][0] = rows[1][0]  # line 3 reuses the id of line 2
        bad = tmp_path / "bad-cohort.csv"
        with open(bad, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(rows)
        out = tmp_path / "out.json"
        result = run_fail(
            ["evaluate", "--cohort", bad, "--score-def", ws["definition"],
             "--fitted", ws["fitted"], "--out", out, "--scores", tmp_path / "s.csv"],
            1,
        )
        assert result.stderr == (
            f"error: {bad}:3: duplicate record id {rows[1][0]!r} (first on line 2)\n"
        )
        assert not out.exists() and not (tmp_path / "s.csv").exists()


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

    def test_fold_rows_and_manifest_report_the_fits(self, ws, tmp_path):
        report_path = tmp_path / "cv.json"
        self._cv(ws, report_path, tmp_path / "cv-scores.csv")
        for row in read_json(report_path)["folds"]:
            assert row["outer_iterations"] >= 1
            assert isinstance(row["converged_reason"], str)
            assert row["stall_count"] >= 0
        manifest = read_json(tmp_path / "cv.json.manifest.json")
        assert manifest["workers"] == fold_workers(3)

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
        positives = [r for r in rows_of(cohort) if r.outcome == 1][:4]
        negatives = [r for r in rows_of(cohort) if r.outcome == -1][:20]
        path = tmp_path / "small.csv"
        save_cohort(path, cohort_of(positives + negatives))
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
        positives = [r for r in rows_of(cohort) if r.outcome == 1][:1]
        negatives = [r for r in rows_of(cohort) if r.outcome == -1][:20]
        path = tmp_path / "lonely.csv"
        save_cohort(path, cohort_of(positives + negatives))
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

    def test_negative_seed_exits_one(self, ws, tmp_path):
        out = tmp_path / "cv.json"
        result = run_fail(
            [
                "cv",
                "--cohort", ws["cohort"],
                "--score-def", ws["definition"],
                "--folds", 3,
                "--seed", -1,
                "--out", out,
            ],
            1,
        )
        assert result.stderr == "error: fold seed must be >= 0, got -1\n"
        assert not out.exists()

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
        assert all(v is not None for r in rows_of(completed) for v in r.values.values())

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
            for o, c in zip(rows_of(original), rows_of(completed))
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
        assert result.stderr == (
            "error: unknown imputation method 'median'; expected knn, mean or normal\n"
        )


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
        imputed = tmp_path / "imputed.csv"
        run_ok(["impute", "--cohort", ws["cohort"], "--method", "knn", "--out", imputed])
        for out, stages in (
            (ws["cohort"], {"generate", "write"}),
            (ws["fitted"], {"load", "design", "fit", "write"}),
            (report, {"load", "score", "write"}),
            (cv, {"load", "design", "cv", "write"}),
            (imputed, {"load", "impute", "write"}),
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


def _command_args(ws, command, out):
    """Arguments that run ``command`` on the shared workspace, writing ``out``."""
    cohort = ["--cohort", ws["cohort"], "--score-def", ws["definition"]]
    return {
        "presets": ["presets", "--name", "demo", "--out-dir", out],
        "simulate": ["simulate", "--score-def", ws["definition"],
                     "--generator", ws["generator"], "--n", 20],
        "fit": ["fit", *cohort, "--optimize", "w"],
        "evaluate": ["evaluate", *cohort, "--fitted", ws["fitted"]],
        "cv": ["cv", *cohort, "--folds", 3, "--optimize", "w"],
        "impute": ["impute", "--cohort", ws["cohort"], "--method", "mean"],
    }[command] + ([] if command == "presets" else ["--out", out])


class TestExitCodes:
    """Invalid inputs and I/O failures exit 1, numeric failures 2, each with
    one error line on stderr and no traceback, whatever the command."""

    @staticmethod
    def _fails_cleanly(args, code, prefix):
        result = run_fail(args, code)
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith(prefix)
        assert "Traceback" not in result.output
        return result

    @pytest.mark.parametrize("command", ["fit", "evaluate", "cv", "impute"])
    def test_missing_cohort_file_exits_one_naming_it(self, ws, tmp_path, command):
        missing = tmp_path / "no-such-cohort.csv"
        args = _command_args(ws, command, tmp_path / "out")
        args[args.index("--cohort") + 1] = missing
        result = self._fails_cleanly(args, 1, "error: ")
        assert str(missing) in result.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command", ["presets", "simulate", "fit", "evaluate", "cv", "impute"]
    )
    def test_unwritable_output_exits_one(self, ws, tmp_path, monkeypatch, command):
        def no_fit(*args, **kwargs):
            raise AssertionError("a fit ran before the output was checked")

        # the output directory is checked before the load stage
        monkeypatch.setattr("softscore.cli.fit_params", no_fit)
        monkeypatch.setattr("softscore.evaluation.fit", no_fit)
        if command == "presets":
            (tmp_path / "a-file").write_text("", encoding="utf-8")
            out = tmp_path / "a-file" / "presets"
        else:
            out = tmp_path / "no-such-dir" / "out"
        result = self._fails_cleanly(_command_args(ws, command, out), 1, "error: ")
        assert str(out) in result.stderr

    @pytest.mark.parametrize(
        "command, option",
        [("simulate", "--truth"), ("evaluate", "--scores"), ("cv", "--scores")],
    )
    def test_unwritable_second_output_exits_one_before_any_work(
        self, ws, tmp_path, monkeypatch, command, option
    ):
        def no_load(*args, **kwargs):
            raise AssertionError("an input was read before the outputs were checked")

        monkeypatch.setattr("softscore.cli.load_score_definition", no_load)
        second = tmp_path / "no-such-dir" / "second.csv"
        args = _command_args(ws, command, tmp_path / "out") + [option, second]
        result = self._fails_cleanly(args, 1, "error: ")
        assert str(second) in result.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, target",
        [("evaluate", "evaluate_scores"), ("cv", "cross_validate")],
    )
    def test_numeric_failure_exits_two(self, ws, tmp_path, monkeypatch, command, target):
        def blow_up(*args, **kwargs):
            raise NumericError("Platt scaling did not converge")

        monkeypatch.setattr(f"softscore.cli.{target}", blow_up)
        out = tmp_path / "out.json"
        result = self._fails_cleanly(
            _command_args(ws, command, out), 2, "numeric error: "
        )
        assert "numeric error: Platt scaling did not converge" in result.stderr
        assert not out.exists()


class TestTopLevel:
    def test_version_flag(self):
        result = run_ok(["--version"])
        assert __version__ in result.output

    def test_help_lists_commands(self):
        result = run_ok(["--help"])
        for command in ("presets", "simulate", "fit", "evaluate", "cv", "impute"):
            assert command in result.output


class TestOutputDigests:
    """Every non-manifest output of a small end-to-end sequence, pinned by its
    SHA-256: the three presets, a simulated cohort with its truth for each
    preset, a capped a,t,w fit, soft, hard and filtered evaluates, a 3-fold cv,
    and the three imputations.  Reruns matching each other cannot show bits
    that drift; these digests can.  A change that alters an output on purpose
    re-pins the digest here and says so in CHANGES.md."""

    DIGESTS = {
        "adult_icu-cohort.csv":
            "611dce490e3cdcb826ded6813254563308cbb3cc5ce6bb6deb420120e7133137",
        "adult_icu-truth.csv":
            "8a36e805d4ca3b6907cc57f247d3bfd8069d8283144b8bc72af820f879b18dae",
        "adult_icu.definition.json":
            "e00e5cbcb8e67f7f78db2305c3a18a8748fd7edef230571b95daef4e717ff0c2",
        "adult_icu.generator.json":
            "0dd7412c69098999441d574da4f9255968f7c9fdebdbe55ef86ce522af819d2d",
        "cohort.csv":
            "17d8c100881450e44d2f00ec7f8d05aa6517f880a44b7efd800427cd1a6e56ac",
        "cv.csv":
            "06b0c43f3ec9f595786f1900b9ee128d61dbd1d1c569c30bfac472bab59b7733",
        "cv.json":
            "6def12f0cea5356cdf57a4411d327bd0e70074f91a4f8aad2ce6fb6098140568",
        "demo-cohort.csv":
            "7fbb2807294d2d5967d85e8a30e3bc54b8e6dc3689b8f73e3681e4f616c8f629",
        "demo-truth.csv":
            "42989d92b9b972c905160bca6b4215632e410777eae0464730424f9ed93ca2a0",
        "demo.definition.json":
            "9e9cf2ba69d947844b09c050fb8a57469b810e341aa3ac75d37f8fe46c2237f9",
        "demo.generator.json":
            "a5940fbef133d91f6a2879bd14a47d907b82d4200d5982cee90a9582326232dd",
        "fitted.json":
            "7d0390a0e4a00dc7121bfe993d65bf6676085cd3cb6f3fc8de36dacb03ce5640",
        "hard-infant.csv":
            "59709eb6d9590d047f11578ca6d8174c808bdc6062ede150cc1ebeaff88e7915",
        "hard-infant.json":
            "d3c4b3ae69241346bb9c6a2816fcd73bee8dc0ffc490868a492c1b0f76e01627",
        "hard.csv":
            "59709eb6d9590d047f11578ca6d8174c808bdc6062ede150cc1ebeaff88e7915",
        "hard.json":
            "27f261299348aa192f43af9dc92c22eb01fde2b4418df613a70fd062a1fd538a",
        "knn.csv":
            "1bb91c43cfd9a2c1252e239868866a536f3d529c3cf952dc1737745c2ffdf26b",
        "mean.csv":
            "a8457295cfedbf2d7c7dd76db6ee66134ed0efc455c3e67796a9b79d335be78e",
        "normal.csv":
            "a29bcf6d8aa23cfdfe2f951baeac8d6360291a31370daaac3987dedcbef1ea24",
        "pediatric_icu.definition.json":
            "043def50b577239d33c580bb8e0cd81cd6bfbae849e4cbc43ded8423d54b1ffe",
        "pediatric_icu.generator.json":
            "94ddc2d65aff2f4f77761d92b621e2bc6d8ba862168422cdc83b6e32ba52bd50",
        "soft-child.csv":
            "f6e33d39030b525e36d588e0acc30b8c0ac5c3d0f52e53eb6fec322964a053c7",
        "soft-child.json":
            "709e4f5d260ff3c1402bf3cf2e1cf3dc4050d1b34dbfbcb74a601f38b9231bbc",
        "soft.csv":
            "f6e33d39030b525e36d588e0acc30b8c0ac5c3d0f52e53eb6fec322964a053c7",
        "soft.json":
            "6814d8206deaae7195a5129b645b5a1413dcae3c31d677ef1063732bd5c5668f",
        "truth.csv":
            "8a558dd80e200c318336a777696ad82a63db7dfec4c5af0d8e4f732b3aebf8da",
    }

    def test_outputs_match_recorded_digests(self, tmp_path):
        d = tmp_path
        for name in ("demo", "pediatric_icu", "adult_icu"):
            run_ok(["presets", "--name", name, "--out-dir", d])
        definition = d / "pediatric_icu.definition.json"
        (d / "config.json").write_text(
            json.dumps({"optimize_over": ["a", "t", "w"], "max_outer_iters": 3}),
            encoding="utf-8",
        )
        data = ["--cohort", d / "cohort.csv", "--score-def", definition]
        run_ok(["simulate", "--score-def", definition,
                "--generator", d / "pediatric_icu.generator.json",
                "--out", d / "cohort.csv", "--truth", d / "truth.csv",
                "--n", 120, "--seed", 11])
        for name in ("adult_icu", "demo"):
            run_ok(["simulate", "--score-def", d / f"{name}.definition.json",
                    "--generator", d / f"{name}.generator.json",
                    "--out", d / f"{name}-cohort.csv",
                    "--truth", d / f"{name}-truth.csv", "--n", 300, "--seed", 3])
        run_ok(["fit", *data, "--out", d / "fitted.json",
                "--config", d / "config.json"])
        for name, extra in [
            ("soft", ["--fitted", d / "fitted.json"]),
            ("hard", []),
            ("soft-child", ["--fitted", d / "fitted.json", "--filter", "age:child"]),
            ("hard-infant", ["--filter", "age:infant"]),
        ]:
            run_ok(["evaluate", *data, *extra, "--out", d / f"{name}.json",
                    "--scores", d / f"{name}.csv"])
        run_ok(["cv", *data, "--folds", 3, "--seed", 1, "--config",
                d / "config.json", "--out", d / "cv.json", "--scores", d / "cv.csv"])
        for method in ("knn", "mean", "normal"):
            run_ok(["impute", "--cohort", d / "cohort.csv", "--method", method,
                    "--score-def", definition, "--out", d / f"{method}.csv"])
        digests = {
            p.name: sha256(p)
            for p in sorted(d.iterdir())
            if not p.name.endswith(".manifest.json") and p.name != "config.json"
        }
        assert digests == self.DIGESTS
