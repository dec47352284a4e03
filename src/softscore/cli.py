"""Command-line interface.

Commands: ``presets``, ``simulate``, ``fit``, ``evaluate``, ``cv`` and
``impute``.  Every command that writes a primary output also writes a
``<output>.manifest.json`` run manifest recording the command line, the
package version, SHA-256 digests of all inputs and outputs, and the wall
time; ``simulate``, ``fit``, ``evaluate``, ``cv`` and ``impute`` also record
the seconds of each stage (load, design, fit or cv, write; ``simulate`` has
generate, write; ``evaluate`` has load, score, write, its design build being
part of scoring; ``impute`` has load, impute, write).  Manifests are the only
outputs that differ between identical reruns; all other artifacts are
byte-identical for the same inputs and seed.  The ``cv`` manifest also
records ``workers``, the number of processes that fitted its folds.

Every output must lie in an existing directory; a command checks that
before it reads any input.

Exit codes: 0 on success, 1 for invalid inputs or I/O failures, 2 for
numeric failures (non-convergence or non-finite objectives).  The
``SOFTSCORE_LOG`` environment variable sets the logging level (for
example ``SOFTSCORE_LOG=debug``).
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import logging
import os
import sys
import time

import click
import numpy as np

from . import __version__
from .errors import NumericError, ValidationError
from .evaluation import (
    cross_validate,
    evaluate_scores,
    evaluate_subgroup,
    fold_workers,
    platt_probabilities,
)
from .imputation import ImputationMethod, impute
from .io import (
    load_cohort,
    load_fitted,
    load_generator_config,
    load_optimizer_config,
    load_score_definition,
    save_cohort,
    save_fitted,
    save_generator_config,
    save_report,
    save_score_definition,
    save_scores,
    save_truth,
    _dump_json,
)
from .model import validate_cohort
from .design import CohortDesign, hard_scores, soft_scores
from .optimizer import KINDS, OptimizerConfig, fit as fit_params
from .presets import PRESETS, preset
from .synthetic import generate

log = logging.getLogger("softscore")

EXIT_INVALID = 1
EXIT_NUMERIC = 2


def _configure_logging():
    level_name = os.environ.get("SOFTSCORE_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level, format="%(asctime)s %(name)s %(levelname)s %(message)s"
    )


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


class _Manifest:
    """Collects the inputs of one command and writes its manifest.

    ``outputs`` are the command's output paths, the primary one first and
    None for an output not asked for.  Each must lie in an existing
    directory; that is checked here, before the command does any work.
    """

    def __init__(self, command: str, outputs):
        self.command = command
        self.argv = click.get_current_context().meta[_ARGV_KEY]
        self.started = time.perf_counter()
        self.outputs = [path for path in outputs if path is not None]
        for path in self.outputs:
            directory = os.path.dirname(path) or "."
            if not os.path.isdir(directory):
                raise ValidationError(f"{path}: directory {directory} does not exist")
        self.inputs: dict[str, str] = {}
        self.stage_seconds: dict[str, float] = {}
        self.seed = None
        self.workers = None

    @contextlib.contextmanager
    def stage(self, name):
        """Charge the wall time of the enclosed block to stage ``name``."""
        start = time.perf_counter()
        yield
        self.stage_seconds[name] = time.perf_counter() - start

    def add_input(self, path):
        if path is not None:
            self.inputs[str(path)] = _sha256(path)

    def write(self):
        """Write ``<primary output>.manifest.json`` with every output's digest."""
        payload = {
            "command": self.command,
            "argv": self.argv,
            "version": __version__,
            "seed": self.seed,
            "inputs": self.inputs,
            "outputs": {str(path): _sha256(path) for path in self.outputs},
            "wall_time_seconds": time.perf_counter() - self.started,
        }
        if self.stage_seconds:
            payload["stage_seconds"] = self.stage_seconds
        if self.workers is not None:
            payload["workers"] = self.workers
        path = f"{self.outputs[0]}.manifest.json"
        _dump_json(path, payload)
        log.info("wrote manifest %s", path)


def _load(manifest, cohort_path, score_def, other_input):
    """Hash the cohort, definition and one more input (None for none) into
    the manifest, then read the definition and the cohort and validate the
    cohort against it.  Returns (definition, cohort)."""
    for path in (cohort_path, score_def, other_input):
        manifest.add_input(path)
    definition = load_score_definition(score_def)
    cohort = load_cohort(cohort_path)
    validate_cohort(cohort, definition)
    return definition, cohort


def _optimizer_config(config_path, optimize, definition) -> OptimizerConfig:
    if config_path is not None:
        config = load_optimizer_config(config_path)
        try:
            config.mu_vector(definition.n_weights)
        except ValidationError as exc:
            raise ValidationError(f"{config_path}: {exc}") from None
    else:
        config = OptimizerConfig()
    if optimize is not None:
        kinds = tuple(token.strip() for token in optimize.split(","))
        for kind in kinds:
            if kind not in KINDS:
                raise ValidationError(
                    f"--optimize: unknown parameter kind {kind!r}; "
                    f"expected a comma-separated subset of {','.join(KINDS)}"
                )
        config = dataclasses.replace(config, optimize_over=kinds)
    return config


def _parse_folds(folds: str):
    if folds == "loo":
        return "loo"
    try:
        return int(folds)
    except ValueError:
        raise ValidationError(
            f"--folds: expected an integer or 'loo', got {folds!r}"
        ) from None


def _band_mask(definition, spec: str, ages):
    """The records of age band ``spec`` (``age:LABEL``) as a boolean mask
    over ``ages``, and the subgroup label."""
    if ":" not in spec:
        raise ValidationError(
            f"--filter: expected age:BAND_LABEL, got {spec!r}"
        )
    field, label = spec.split(":", 1)
    if field != "age":
        raise ValidationError(f"--filter: unknown field {field!r}; only 'age'")
    band = definition.band_by_label.get(label)
    if band is None:
        known = ", ".join(b.label for b in definition.age_bands)
        raise ValidationError(
            f"--filter: unknown age band {label!r}; known bands: {known}"
        )
    mask = (ages >= band.min_age_months) & (ages < band.max_age_months)
    return mask, f"age:{label}"


_ARGV_KEY = "softscore.argv"


@contextlib.contextmanager
def _exit_codes():
    """The exit codes of every command.  Usage errors (missing, unknown or
    ill-typed options), invalid inputs and I/O failures exit 1, numeric
    failures 2; click's own 2 for usage errors would read as numeric."""
    try:
        yield
    except click.UsageError as exc:
        exc.exit_code = EXIT_INVALID
        raise
    except (ValidationError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_INVALID)
    except NumericError as exc:
        click.echo(f"numeric error: {exc}", err=True)
        sys.exit(EXIT_NUMERIC)


class _Group(click.Group):
    """Keeps the argument list click parses, so that a manifest records the
    command's own arguments also when it is invoked in-process, and maps
    every error to its exit code (`_exit_codes`)."""

    def parse_args(self, ctx, args):
        ctx.meta[_ARGV_KEY] = list(args)
        with _exit_codes():
            return super().parse_args(ctx, args)

    def invoke(self, ctx):
        # subcommands parse their options and run here
        with _exit_codes():
            return super().invoke(ctx)


@click.group(cls=_Group)
@click.version_option(__version__, prog_name="softscore")
def main():
    """Soft-threshold additive risk scores: simulate, fit, evaluate."""
    _configure_logging()


@main.command("presets")
@click.option("--name", required=True, help=f"One of: {', '.join(sorted(PRESETS))}.")
@click.option(
    "--out-dir",
    required=True,
    type=click.Path(file_okay=False),
    help="Directory for the definition and generator files.",
)
def presets_cmd(name, out_dir):
    """Write a preset score definition and its generator config."""
    try:
        p = preset(name)
    except KeyError as exc:
        raise ValidationError(str(exc).strip('"')) from None
    os.makedirs(out_dir, exist_ok=True)
    definition_path = os.path.join(out_dir, f"{name}.definition.json")
    generator_path = os.path.join(out_dir, f"{name}.generator.json")
    manifest = _Manifest("presets", (definition_path, generator_path))
    save_score_definition(definition_path, p.definition())
    save_generator_config(generator_path, p.generator())
    manifest.write()
    click.echo(definition_path)
    click.echo(generator_path)


@main.command("simulate")
@click.option("--score-def", "score_def", required=True, type=click.Path())
@click.option("--generator", required=True, type=click.Path())
@click.option("--out", required=True, type=click.Path())
@click.option("--truth", type=click.Path(), help="Optional true-probability CSV.")
@click.option("--n", type=int, help="Override the configured cohort size.")
@click.option("--seed", type=int, help="Override the configured seed.")
def simulate_cmd(score_def, generator, out, truth, n, seed):
    """Sample a synthetic cohort from a generator config."""
    manifest = _Manifest("simulate", (out, truth))
    manifest.add_input(score_def)
    manifest.add_input(generator)
    definition = load_score_definition(score_def)
    config = load_generator_config(generator, definition)
    replacements = {}
    if n is not None:
        replacements["n"] = n
    if seed is not None:
        replacements["seed"] = seed
    if replacements:
        config = dataclasses.replace(config, **replacements)
    manifest.seed = config.seed
    with manifest.stage("generate"):
        cohort, probabilities = generate(config)
    with manifest.stage("write"):
        save_cohort(out, cohort)
        if truth is not None:
            save_truth(truth, cohort.ids, probabilities)
    manifest.write()
    positives = int(np.count_nonzero(cohort.outcomes == 1))
    click.echo(
        f"simulate: n={len(cohort)} positives={positives} "
        f"({positives / len(cohort):.1%}) -> {out}"
    )


@main.command("fit")
@click.option("--cohort", "cohort_path", required=True, type=click.Path())
@click.option("--score-def", "score_def", required=True, type=click.Path())
@click.option("--out", required=True, type=click.Path())
@click.option(
    "--optimize",
    help="Comma-separated parameter kinds to optimize (subset of a,t,w).",
)
@click.option("--config", "config_path", type=click.Path())
def fit_cmd(cohort_path, score_def, out, optimize, config_path):
    """Fit score parameters to a cohort."""
    manifest = _Manifest("fit", (out,))
    with manifest.stage("load"):
        definition, cohort = _load(manifest, cohort_path, score_def, config_path)
        config = _optimizer_config(config_path, optimize, definition)
    with manifest.stage("design"):
        design = CohortDesign(cohort, definition)
    with manifest.stage("fit"):
        params, trace = fit_params(design, config)
    if trace.stopped_at_cap:
        log.warning(
            "fit stopped at the iteration cap (%d outer iterations) before its "
            "relative decrease fell below %g",
            trace.outer_iterations,
            config.rel_tol,
        )
    with manifest.stage("write"):
        save_fitted(out, params, config, trace)
    manifest.write()
    click.echo(
        f"fit: objective {trace.initial_objective:.6f} -> "
        f"{trace.final_objective:.6f} in {trace.outer_iterations} outer "
        f"iterations ({trace.converged_reason}) -> {out}"
    )


@main.command("evaluate")
@click.option("--cohort", "cohort_path", required=True, type=click.Path())
@click.option("--score-def", "score_def", required=True, type=click.Path())
@click.option(
    "--fitted",
    "fitted_path",
    type=click.Path(),
    help="Fitted parameters; omit to evaluate the hard table score.",
)
@click.option("--out", required=True, type=click.Path())
@click.option("--scores", "scores_path", type=click.Path())
@click.option("--filter", "filter_spec", help="Subgroup filter, e.g. age:child.")
def evaluate_cmd(cohort_path, score_def, fitted_path, out, scores_path, filter_spec):
    """Evaluate soft (fitted) or hard (table) scores on a cohort."""
    manifest = _Manifest("evaluate", (out, scores_path))
    with manifest.stage("load"):
        definition, cohort = _load(manifest, cohort_path, score_def, fitted_path)
        params = None if fitted_path is None else load_fitted(fitted_path, definition)
    with manifest.stage("score"):
        if params is None:
            scores = hard_scores(cohort, definition)
        else:
            scores = soft_scores(cohort, definition, params)
        report = evaluate_scores(scores, cohort.outcomes)
        probabilities = platt_probabilities(scores, *report.platt)
        if filter_spec is not None:
            mask, label = _band_mask(definition, filter_spec, cohort.ages)
            report = evaluate_subgroup(
                cohort.outcomes, scores, probabilities, mask, label
            )
    with manifest.stage("write"):
        save_report(out, report)
        if scores_path is not None:
            folds = np.zeros(len(cohort), dtype=np.int64)
            save_scores(
                scores_path, cohort.ids, folds, scores, probabilities, cohort.outcomes
            )
    manifest.write()
    kind = "soft" if fitted_path is not None else "hard"
    click.echo(
        f"evaluate[{kind}]: n={report.n} auc={_fmt(report.auc)} "
        f"brier={_fmt(report.brier)} -> {out}"
    )


@main.command("cv")
@click.option("--cohort", "cohort_path", required=True, type=click.Path())
@click.option("--score-def", "score_def", required=True, type=click.Path())
@click.option(
    "--folds",
    default="loo",
    show_default=True,
    help="Number of stratified folds, or 'loo' for leave-one-out.",
)
@click.option("--out", required=True, type=click.Path())
@click.option("--scores", "scores_path", type=click.Path())
@click.option("--optimize", help="Comma-separated subset of a,t,w.")
@click.option("--config", "config_path", type=click.Path())
@click.option(
    "--seed", default=0, show_default=True, type=int, help="Seed of the fold assignment."
)
def cv_cmd(
    cohort_path,
    score_def,
    folds,
    out,
    scores_path,
    optimize,
    config_path,
    seed,
):
    """Cross-validate a fitted score on held-out folds."""
    manifest = _Manifest("cv", (out, scores_path))
    with manifest.stage("load"):
        definition, cohort = _load(manifest, cohort_path, score_def, config_path)
        config = _optimizer_config(config_path, optimize, definition)
    manifest.seed = seed
    with manifest.stage("design"):
        design = CohortDesign(cohort, definition)
    fold_spec = _parse_folds(folds)
    with manifest.stage("cv"):
        report, columns = cross_validate(design, config, folds=fold_spec, seed=seed)
    manifest.workers = fold_workers(design.n if fold_spec == "loo" else fold_spec)
    with manifest.stage("write"):
        save_report(out, report)
        if scores_path is not None:
            save_scores(scores_path, *columns)
    manifest.write()
    click.echo(
        f"cv[{folds}]: n={report.n} auc={_fmt(report.auc)} "
        f"brier={_fmt(report.brier)} -> {out}"
    )


@main.command("impute")
@click.option("--cohort", "cohort_path", required=True, type=click.Path())
@click.option(
    "--method",
    required=True,
    help="One of: knn, mean, normal.",
)
@click.option("--k", default=5, show_default=True, type=int, help="kNN neighbours.")
@click.option(
    "--score-def",
    "score_def",
    type=click.Path(),
    help="Required for --method normal (supplies the normal values).",
)
@click.option("--out", required=True, type=click.Path())
def impute_cmd(cohort_path, method, k, score_def, out):
    """Fill missing values and write the completed cohort."""
    manifest = _Manifest("impute", (out,))
    with manifest.stage("load"):
        manifest.add_input(cohort_path)
        manifest.add_input(score_def)
        cohort = load_cohort(cohort_path)
        if method == "knn":
            spec = ImputationMethod.knn(k)
        elif method == "mean":
            spec = ImputationMethod.mean()
        elif method == "normal":
            if score_def is None:
                raise ValidationError(
                    "--method normal requires --score-def for the normal values"
                )
            definition = load_score_definition(score_def)
            spec = ImputationMethod.normal_from_definition(definition)
        else:
            raise ValidationError(
                f"unknown imputation method {method!r}; expected knn, mean or normal"
            )
    with manifest.stage("impute"):
        completed = impute(cohort, spec)
    with manifest.stage("write"):
        save_cohort(out, completed)
    manifest.write()
    click.echo(f"impute[{method}]: n={len(completed)} -> {out}")


def _fmt(x):
    return "n/a" if x is None else f"{x:.4f}"


if __name__ == "__main__":
    main()
