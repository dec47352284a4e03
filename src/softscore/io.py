"""File formats: score definitions, cohorts, fitted parameters, reports.

All JSON writers emit sorted keys and two-space indents so identical inputs
produce byte-identical files.  Schemas are strict: unknown keys are rejected
with the offending key named.  The cohort CSV has the fixed header columns
``id,age_months,outcome`` followed by one column per raw variable; an empty
cell means MISSING and outcomes are -1 or 1.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import math
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import ValidationError
from .evaluation import EvaluationReport, ScoredRow
from .model import (
    AgeBand,
    BinaryFeature,
    FeatureStep,
    PatientRecord,
    RawVariable,
    ScoreDefinition,
    ScoreParameters,
)
from .optimizer import FitTrace, OptimizerConfig
from .synthetic import GeneratorConfig, ValueDistribution

STEP = "step"
BINARY = "binary"


def _require_keys(obj: Mapping, required, optional=(), where="object"):
    if not isinstance(obj, Mapping):
        raise ValidationError(f"{where}: expected a JSON object")
    for key in obj:
        if key not in required and key not in optional:
            raise ValidationError(f"{where}: unknown key {key!r}")
    for key in required:
        if key not in obj:
            raise ValidationError(f"{where}: missing key {key!r}")


def _dump_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON ({exc})") from exc


# ----------------------------------------------------------------------
# score definition
# ----------------------------------------------------------------------


def definition_to_dict(definition: ScoreDefinition) -> dict:
    variables = []
    for v in definition.variables:
        variables.append(
            {
                "name": v.name,
                "kind": v.kind,
                "unit": v.unit,
                "physiological_range": list(v.physiological_range),
                "normal_value": v.normal_value,
            }
        )
    features = []
    for f in definition.features:
        if isinstance(f, FeatureStep):
            features.append(
                {
                    "variable": f.variable.name,
                    "kind": STEP,
                    "step_index": f.step_index,
                    "thresholds": dict(f.thresholds),
                    "weight": f.initial_weight,
                    "or_group": f.or_group,
                }
            )
        else:
            features.append(
                {
                    "variable": f.variable.name,
                    "kind": BINARY,
                    "weight": f.initial_weight,
                    "or_group": f.or_group,
                }
            )
    return {
        "name": definition.name,
        "age_bands": [
            {
                "label": b.label,
                "min_age_months": b.min_age_months,
                "max_age_months": b.max_age_months,
            }
            for b in definition.age_bands
        ],
        "variables": variables,
        "features": features,
    }


def definition_from_dict(payload: Mapping) -> ScoreDefinition:
    _require_keys(
        payload,
        ("name", "age_bands", "variables", "features"),
        where="score definition",
    )
    bands = []
    for i, raw in enumerate(payload["age_bands"]):
        _require_keys(
            raw,
            ("label", "min_age_months", "max_age_months"),
            where=f"age_bands[{i}]",
        )
        bands.append(
            AgeBand(
                label=raw["label"],
                min_age_months=int(raw["min_age_months"]),
                max_age_months=int(raw["max_age_months"]),
            )
        )
    variables = {}
    var_list = []
    for i, raw in enumerate(payload["variables"]):
        _require_keys(
            raw,
            ("name", "kind", "physiological_range"),
            optional=("unit", "normal_value"),
            where=f"variables[{i}]",
        )
        rng = raw["physiological_range"]
        if not isinstance(rng, Sequence) or len(rng) != 2:
            raise ValidationError(
                f"variables[{i}]: physiological_range must be [lo, hi]"
            )
        v = RawVariable(
            name=raw["name"],
            kind=raw["kind"],
            unit=raw.get("unit", ""),
            physiological_range=(float(rng[0]), float(rng[1])),
            normal_value=raw.get("normal_value"),
        )
        variables[v.name] = v
        var_list.append(v)
    features = []
    for i, raw in enumerate(payload["features"]):
        where = f"features[{i}]"
        if not isinstance(raw, Mapping) or "kind" not in raw:
            raise ValidationError(f"{where}: missing key 'kind'")
        var = variables.get(raw.get("variable"))
        if var is None:
            raise ValidationError(f"{where}: unknown variable {raw.get('variable')!r}")
        if raw["kind"] == STEP:
            _require_keys(
                raw,
                ("variable", "kind", "step_index", "thresholds", "weight"),
                optional=("or_group",),
                where=where,
            )
            features.append(
                FeatureStep(
                    variable=var,
                    step_index=int(raw["step_index"]),
                    thresholds=raw["thresholds"],
                    initial_weight=raw["weight"],
                    or_group=raw.get("or_group"),
                )
            )
        elif raw["kind"] == BINARY:
            _require_keys(
                raw,
                ("variable", "kind", "weight"),
                optional=("or_group",),
                where=where,
            )
            features.append(
                BinaryFeature(
                    variable=var,
                    initial_weight=raw["weight"],
                    or_group=raw.get("or_group"),
                )
            )
        else:
            raise ValidationError(f"{where}: unknown feature kind {raw['kind']!r}")
    return ScoreDefinition(
        name=payload["name"],
        variables=tuple(var_list),
        features=tuple(features),
        age_bands=tuple(bands),
    )


def load_score_definition(path) -> ScoreDefinition:
    return definition_from_dict(_load_json(path))


def save_score_definition(path, definition: ScoreDefinition):
    _dump_json(path, definition_to_dict(definition))


# ----------------------------------------------------------------------
# cohort CSV
# ----------------------------------------------------------------------

COHORT_FIXED = ("id", "age_months", "outcome")


def save_cohort(path, cohort: Sequence[PatientRecord], variables: Sequence[str]):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(COHORT_FIXED) + list(variables))
        for r in cohort:
            row = [r.id, r.age_months, r.outcome]
            for name in variables:
                v = r.value(name)
                row.append("" if v is None else repr(v))
            writer.writerow(row)


def load_cohort(path) -> list[PatientRecord]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty cohort file") from None
        if tuple(header[:3]) != COHORT_FIXED:
            raise ValidationError(
                f"{path}: header must start with id,age_months,outcome"
            )
        variables = header[3:]
        if len(set(variables)) != len(variables):
            raise ValidationError(f"{path}: duplicate variable columns")
        records = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValidationError(
                    f"{path}:{line_no}: expected {len(header)} cells, got {len(row)}"
                )
            try:
                age = int(row[1])
                outcome = int(row[2])
            except ValueError:
                raise ValidationError(
                    f"{path}:{line_no}: age and outcome must be integers"
                ) from None
            values = {}
            for name, cell in zip(variables, row[3:]):
                if cell == "":
                    values[name] = None
                else:
                    try:
                        value = float(cell)
                    except ValueError:
                        value = math.nan  # rejected with nan, inf and -inf
                    if not math.isfinite(value):
                        raise ValidationError(
                            f"{path}:{line_no}: bad number {cell!r} for {name}"
                        )
                    values[name] = value
            try:
                records.append(
                    PatientRecord(
                        id=row[0], age_months=age, outcome=outcome, values=values
                    )
                )
            except ValidationError as exc:
                raise ValidationError(f"{path}:{line_no}: {exc}") from None
    if not records:
        raise ValidationError(f"{path}: cohort has no records")
    return records


def save_truth(path, cohort: Sequence[PatientRecord], probabilities):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "true_probability"])
        for r, p in zip(cohort, probabilities):
            writer.writerow([r.id, repr(float(p))])


# ----------------------------------------------------------------------
# fitted parameters
# ----------------------------------------------------------------------


def params_to_dict(params: ScoreParameters) -> dict:
    d = params.definition
    slopes = {}
    for fi, j in d.slope_index.items():
        slopes[d.features[fi].key] = float(params.slopes[j])
    thresholds: dict[str, dict[str, float]] = {}
    for m, (fi, lab) in enumerate(d.threshold_layout):
        thresholds.setdefault(d.features[fi].key, {})[lab] = float(
            params.thresholds[m]
        )
    weights = {
        d.features[fi].key: float(params.weights[fi]) for fi in range(d.n_weights)
    }
    return {"slopes": slopes, "thresholds": thresholds, "weights": weights}


def params_from_dict(payload: Mapping, definition: ScoreDefinition) -> ScoreParameters:
    _require_keys(
        payload, ("slopes", "thresholds", "weights"), where="parameters"
    )
    d = definition
    a = np.empty(d.n_slopes)
    for fi, j in d.slope_index.items():
        key = d.features[fi].key
        if key not in payload["slopes"]:
            raise ValidationError(f"parameters: missing slope for {key!r}")
        a[j] = float(payload["slopes"][key])
    if len(payload["slopes"]) != d.n_slopes:
        extra = set(payload["slopes"]) - {d.features[fi].key for fi in d.slope_index}
        raise ValidationError(f"parameters: unexpected slope keys {sorted(extra)}")
    t = np.empty(d.n_thresholds)
    seen = 0
    for m, (fi, lab) in enumerate(d.threshold_layout):
        key = d.features[fi].key
        try:
            t[m] = float(payload["thresholds"][key][lab])
            seen += 1
        except (KeyError, TypeError):
            raise ValidationError(
                f"parameters: missing threshold for {key!r} band {lab!r}"
            ) from None
    total = sum(len(v) for v in payload["thresholds"].values())
    if total != seen:
        raise ValidationError("parameters: unexpected threshold entries")
    w = np.empty(d.n_weights)
    for fi in range(d.n_weights):
        key = d.features[fi].key
        if key not in payload["weights"]:
            raise ValidationError(f"parameters: missing weight for {key!r}")
        w[fi] = float(payload["weights"][key])
    if len(payload["weights"]) != d.n_weights:
        extra = set(payload["weights"]) - set(d.feature_keys)
        raise ValidationError(f"parameters: unexpected weight keys {sorted(extra)}")
    return ScoreParameters(definition, a, t, w)


def optimizer_config_to_dict(config: OptimizerConfig) -> dict:
    return dataclasses.asdict(config)


def optimizer_config_from_dict(payload: Mapping) -> OptimizerConfig:
    names = tuple(f.name for f in dataclasses.fields(OptimizerConfig))
    _require_keys(payload, (), optional=names, where="optimizer config")
    return OptimizerConfig(**payload)


def load_optimizer_config(path) -> OptimizerConfig:
    """Read an optimizer config file; errors name the path and the key."""
    payload = _load_json(path)
    try:
        return optimizer_config_from_dict(payload)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def save_fitted(
    path,
    params: ScoreParameters,
    config: OptimizerConfig,
    trace: FitTrace,
):
    payload = params_to_dict(params)
    payload["score_definition"] = params.definition.name
    payload["config"] = optimizer_config_to_dict(config)
    payload["trace"] = {
        "initial_objective": trace.initial_objective,
        "final_objective": trace.final_objective,
        "outer_iterations": trace.outer_iterations,
        "converged_reason": trace.converged_reason,
        "accepted_steps": len(trace.steps),
        "stall_count": trace.stall_count,
        "warnings": list(trace.warnings),
    }
    _dump_json(path, payload)


def load_fitted(path, definition: ScoreDefinition) -> ScoreParameters:
    payload = _load_json(path)
    _require_keys(
        payload,
        ("slopes", "thresholds", "weights"),
        optional=("score_definition", "config", "trace"),
        where="fitted parameters",
    )
    name = payload.get("score_definition")
    if name is not None and name != definition.name:
        raise ValidationError(
            f"fitted parameters were produced for score {name!r}, "
            f"not {definition.name!r}"
        )
    core = {k: payload[k] for k in ("slopes", "thresholds", "weights")}
    return params_from_dict(core, definition)


# ----------------------------------------------------------------------
# generator config
# ----------------------------------------------------------------------


def _distribution_from_dict(raw: Mapping, where: str) -> ValueDistribution:
    if not isinstance(raw, Mapping) or "kind" not in raw:
        raise ValidationError(f"{where}: expected a distribution object")
    kind = raw["kind"]
    if kind == "normal":
        _require_keys(raw, ("kind", "mean", "sd"), where=where)
        return ValueDistribution.normal(raw["mean"], raw["sd"])
    if kind == "uniform":
        _require_keys(raw, ("kind", "lo", "hi"), where=where)
        return ValueDistribution.uniform(raw["lo"], raw["hi"])
    if kind == "bernoulli":
        _require_keys(raw, ("kind", "p"), where=where)
        return ValueDistribution.bernoulli(raw["p"])
    raise ValidationError(f"{where}: unknown distribution kind {kind!r}")


def _distribution_to_dict(dist: ValueDistribution) -> dict:
    if dist.kind == "normal":
        return {"kind": "normal", "mean": dist.p1, "sd": dist.p2}
    if dist.kind == "uniform":
        return {"kind": "uniform", "lo": dist.p1, "hi": dist.p2}
    return {"kind": "bernoulli", "p": dist.p1}


def generator_config_to_dict(config: GeneratorConfig) -> dict:
    dists = {}
    for name, spec in config.value_distributions.items():
        if isinstance(spec, ValueDistribution):
            dists[name] = _distribution_to_dict(spec)
        else:
            dists[name] = {
                lab: _distribution_to_dict(d) for lab, d in spec.items()
            }
    return {
        "n": config.n,
        "seed": config.seed,
        "intercept": config.intercept,
        "missing_rate": config.missing_rate,
        "age_distribution": dict(config.age_distribution),
        "value_distributions": dists,
        "true_params": params_to_dict(config.true_params),
    }


def generator_config_from_dict(
    payload: Mapping, definition: ScoreDefinition
) -> GeneratorConfig:
    _require_keys(
        payload,
        (
            "n",
            "seed",
            "intercept",
            "age_distribution",
            "value_distributions",
            "true_params",
        ),
        optional=("missing_rate",),
        where="generator config",
    )
    dists: dict = {}
    for name, raw in payload["value_distributions"].items():
        where = f"value_distributions[{name!r}]"
        if isinstance(raw, Mapping) and "kind" in raw:
            dists[name] = _distribution_from_dict(raw, where)
        elif isinstance(raw, Mapping):
            dists[name] = {
                lab: _distribution_from_dict(sub, f"{where}[{lab!r}]")
                for lab, sub in raw.items()
            }
        else:
            raise ValidationError(f"{where}: expected a distribution object")
    return GeneratorConfig(
        definition=definition,
        true_params=params_from_dict(payload["true_params"], definition),
        n=int(payload["n"]),
        seed=int(payload["seed"]),
        intercept=float(payload["intercept"]),
        value_distributions=dists,
        age_distribution={
            str(k): float(v) for k, v in payload["age_distribution"].items()
        },
        missing_rate=float(payload.get("missing_rate", 0.0)),
    )


def load_generator_config(path, definition: ScoreDefinition) -> GeneratorConfig:
    return generator_config_from_dict(_load_json(path), definition)


def save_generator_config(path, config: GeneratorConfig):
    _dump_json(path, generator_config_to_dict(config))


# ----------------------------------------------------------------------
# reports and scored rows
# ----------------------------------------------------------------------


def _json_float(x: Optional[float]):
    if x is None:
        return None
    if math.isinf(x):
        return None
    return float(x)


def _json_column(values: np.ndarray) -> list:
    """One ROC column as floats; JSON has no inf or NaN, so the sentinel's
    cutoff and precision are written as null."""
    column = values.tolist()
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        column[i] = None
    return column


def _metric_block(m, platt: Optional[tuple[float, float]]) -> dict:
    """The metrics shared by the pooled report and every fold row."""
    return {
        "auc": m.auc,
        "youden": {"j": m.youden_j, "cutoff": _json_float(m.youden_cutoff)},
        "prec_rec": {
            "value": m.prec_rec_balance,
            "cutoff": _json_float(m.prec_rec_cutoff),
        },
        "brier": m.brier,
        "platt": None if platt is None else {"a": platt[0], "b": platt[1]},
    }


def report_to_dict(report: EvaluationReport) -> dict:
    pooled = {
        "n": report.n,
        "n_positive": report.n_positive,
        "prevalence": report.prevalence,
        **_metric_block(report, report.platt),
    }
    folds = [
        {
            "fold": f.fold,
            "n_test": f.n_test,
            "n_positive": f.n_positive,
            **_metric_block(f, (f.platt_a, f.platt_b)),
        }
        for f in report.folds
    ]
    return {
        "pooled": pooled,
        "folds": folds,
        "roc": {name: _json_column(col) for name, col in report.roc._asdict().items()},
        "subgroup": report.subgroup,
    }


def save_report(path, report: EvaluationReport):
    _dump_json(path, report_to_dict(report))


def save_scores(path, rows: Sequence[ScoredRow]):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "fold", "score", "probability", "label"])
        for r in rows:
            writer.writerow(
                [r.id, r.fold, repr(r.score), repr(r.probability), r.label]
            )
