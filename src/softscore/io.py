"""File formats: score definitions, cohorts, fitted parameters, reports.

All JSON writers emit sorted keys and two-space indents so identical inputs
produce byte-identical files.  Schemas are strict: unknown keys are rejected
with the offending key named, and so is a value of the wrong type; every
``load_*`` error names the file.  The cohort CSV has the fixed header columns
``id,age_months,outcome`` followed by one column per raw variable; an empty
cell means MISSING and outcomes are -1 or 1.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import math
import numbers
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import ContractViolation, ValidationError
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
from .optimizer import FitTrace, OptimizerConfig, _number
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


_KIND_NAMES = {
    float: "a finite number",
    int: "an integer",
    str: "a string",
    list: "a JSON array",
    Mapping: "a JSON object",
}
_REQUIRED = object()


def _field(obj: Mapping, key, kind, where, default=_REQUIRED):
    """``obj[key]`` read as ``kind``: a JSON integer for int, any JSON number
    for float (never a string or boolean, as in the optimizer config), or
    checked to be a str, list or Mapping; the error names ``where`` and key.
    A float must be finite: Python's json module accepts NaN and Infinity,
    which JSON does not.  Given a ``default``, a key that is absent or null
    reads as it."""
    if default is not _REQUIRED and obj.get(key) is None:
        return default
    value = obj[key]
    if kind in (float, int):
        numeric = numbers.Integral if kind is int else numbers.Real
        try:
            number = _number(key, value, numeric)
        except (ValidationError, OverflowError):
            pass
        else:
            if kind is int or math.isfinite(number):
                return number
    elif isinstance(value, kind):
        return value
    what = _KIND_NAMES[kind]
    raise ValidationError(f"{where}: {key!r} must be {what}, got {value!r}")


def _dump_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_json(path, parse, *args):
    """``parse(payload, *args)`` of the JSON file at ``path``; every error
    names the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValidationError(f"{path}: invalid JSON ({exc})") from exc
    try:
        return parse(payload, *args)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


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
    for i, raw in enumerate(_field(payload, "age_bands", list, "score definition")):
        where = f"age_bands[{i}]"
        _require_keys(
            raw,
            ("label", "min_age_months", "max_age_months"),
            where=where,
        )
        bands.append(
            AgeBand(
                label=_field(raw, "label", str, where),
                min_age_months=_field(raw, "min_age_months", int, where),
                max_age_months=_field(raw, "max_age_months", int, where),
            )
        )
    variables = {}
    var_list = []
    for i, raw in enumerate(_field(payload, "variables", list, "score definition")):
        where = f"variables[{i}]"
        _require_keys(
            raw,
            ("name", "kind", "physiological_range"),
            optional=("unit", "normal_value"),
            where=where,
        )
        rng = raw["physiological_range"]
        if not isinstance(rng, Sequence) or len(rng) != 2:
            raise ValidationError(f"{where}: physiological_range must be [lo, hi]")
        v = RawVariable(
            name=_field(raw, "name", str, where),
            kind=raw["kind"],
            unit=raw.get("unit", ""),
            physiological_range=tuple(
                _field(rng, i, float, f"{where}: physiological_range") for i in (0, 1)
            ),
            normal_value=_field(raw, "normal_value", float, where, default=None),
        )
        variables[v.name] = v
        var_list.append(v)
    features = []
    for i, raw in enumerate(_field(payload, "features", list, "score definition")):
        where = f"features[{i}]"
        if not isinstance(raw, Mapping) or "kind" not in raw:
            raise ValidationError(f"{where}: missing key 'kind'")
        name = raw.get("variable")
        var = variables.get(name) if isinstance(name, str) else None
        if var is None:
            raise ValidationError(f"{where}: unknown variable {name!r}")
        or_group = _field(raw, "or_group", str, where, default=None)
        if raw["kind"] == STEP:
            _require_keys(
                raw,
                ("variable", "kind", "step_index", "thresholds", "weight"),
                optional=("or_group",),
                where=where,
            )
            thresholds = _field(raw, "thresholds", Mapping, where)
            features.append(
                FeatureStep(
                    variable=var,
                    step_index=_field(raw, "step_index", int, where),
                    thresholds={
                        lab: _field(thresholds, lab, float, f"{where}: thresholds")
                        for lab in thresholds
                    },
                    initial_weight=_field(raw, "weight", float, where),
                    or_group=or_group,
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
                    initial_weight=_field(raw, "weight", float, where),
                    or_group=or_group,
                )
            )
        else:
            raise ValidationError(f"{where}: unknown feature kind {raw['kind']!r}")
    return ScoreDefinition(
        name=_field(payload, "name", str, "score definition"),
        variables=tuple(var_list),
        features=tuple(features),
        age_bands=tuple(bands),
    )


def load_score_definition(path) -> ScoreDefinition:
    return _load_json(path, definition_from_dict)


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


def _csv_rows(path, fh):
    """(line, row) for each row of a CSV file, where line is the physical
    line the row starts on (a quoted cell may hold newlines); a decoding or
    CSV error is invalid input."""
    reader = csv.reader(fh)
    try:
        line = reader.line_num + 1
        for row in reader:
            yield line, row
            line = reader.line_num + 1
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"{path}: not a UTF-8 CSV file ({exc})") from None


def load_cohort(path) -> list[PatientRecord]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = _csv_rows(path, fh)
        try:
            _, header = next(reader)
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
        lines = []  # the line each record starts on
        for line_no, row in reader:
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
            lines.append(line_no)
    if not records:
        raise ValidationError(f"{path}: cohort has no records")
    if len({r.id for r in records}) < len(records):
        first_line: dict[str, int] = {}  # record id -> first line holding it
        for line_no, r in zip(lines, records):
            first = first_line.setdefault(r.id, line_no)
            if first != line_no:
                raise ValidationError(
                    f"{path}:{line_no}: duplicate record id {r.id!r} "
                    f"(first on line {first})"
                )
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


def _by_key(payload: Mapping, name: str, keys, what: str) -> np.ndarray:
    """``payload[name]`` as floats in the order of ``keys``, which must be
    exactly its keys."""
    obj = _field(payload, name, Mapping, "parameters")
    for key in keys:
        if key not in obj:
            raise ValidationError(f"parameters: missing {what} for {key!r}")
    if len(obj) != len(keys):
        extra = set(obj) - set(keys)
        raise ValidationError(f"parameters: unexpected {what} keys {sorted(extra)}")
    return np.array([_field(obj, key, float, f"parameters: {name}") for key in keys])


def params_from_dict(payload: Mapping, definition: ScoreDefinition) -> ScoreParameters:
    _require_keys(payload, ("slopes", "thresholds", "weights"), where="parameters")
    d = definition
    slope_keys = [d.features[fi].key for fi in d.slope_index]
    a = _by_key(payload, "slopes", slope_keys, "slope")
    thresholds = _field(payload, "thresholds", Mapping, "parameters")
    for key in thresholds:
        _field(thresholds, key, Mapping, "parameters: thresholds")
    t = np.empty(d.n_thresholds)
    for m, (fi, lab) in enumerate(d.threshold_layout):
        key = d.features[fi].key
        if lab not in thresholds.get(key, {}):
            raise ValidationError(
                f"parameters: missing threshold for {key!r} band {lab!r}"
            )
        t[m] = _field(thresholds[key], lab, float, f"parameters: thresholds: {key!r}")
    if sum(len(v) for v in thresholds.values()) != d.n_thresholds:
        raise ValidationError("parameters: unexpected threshold entries")
    w = _by_key(payload, "weights", d.feature_keys, "weight")
    try:
        return ScoreParameters(definition, a, t, w)
    except ContractViolation as exc:
        raise ValidationError(f"parameters: {exc}") from None


def optimizer_config_to_dict(config: OptimizerConfig) -> dict:
    return dataclasses.asdict(config)


def optimizer_config_from_dict(payload: Mapping) -> OptimizerConfig:
    names = tuple(f.name for f in dataclasses.fields(OptimizerConfig))
    _require_keys(payload, (), optional=names, where="optimizer config")
    return OptimizerConfig(**payload)


def load_optimizer_config(path) -> OptimizerConfig:
    """Read an optimizer config file; errors name the path and the key."""
    return _load_json(path, optimizer_config_from_dict)


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
    return _load_json(path, _fitted_from_dict, definition)


def _fitted_from_dict(payload, definition: ScoreDefinition) -> ScoreParameters:
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


# the JSON names of each distribution kind's parameters p1 (and p2)
_DISTRIBUTION_PARAMETERS = {
    "normal": ("mean", "sd"),
    "uniform": ("lo", "hi"),
    "bernoulli": ("p",),
}


def _distribution_from_dict(raw: Mapping, where: str) -> ValueDistribution:
    if not isinstance(raw, Mapping) or "kind" not in raw:
        raise ValidationError(f"{where}: expected a distribution object")
    kind = raw["kind"]
    if not isinstance(kind, str) or kind not in _DISTRIBUTION_PARAMETERS:
        raise ValidationError(f"{where}: unknown distribution kind {kind!r}")
    names = _DISTRIBUTION_PARAMETERS[kind]
    _require_keys(raw, ("kind", *names), where=where)
    return ValueDistribution(kind, *(_field(raw, name, float, where) for name in names))


def _distribution_to_dict(dist: ValueDistribution) -> dict:
    names = _DISTRIBUTION_PARAMETERS[dist.kind]
    return {"kind": dist.kind, **dict(zip(names, (dist.p1, dist.p2)))}


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
    config = "generator config"
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
        where=config,
    )
    dists: dict = {}
    for name, raw in _field(payload, "value_distributions", Mapping, config).items():
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
    ages = _field(payload, "age_distribution", Mapping, config)
    return GeneratorConfig(
        definition=definition,
        true_params=params_from_dict(payload["true_params"], definition),
        n=_field(payload, "n", int, config),
        seed=_field(payload, "seed", int, config),
        intercept=_field(payload, "intercept", float, config),
        value_distributions=dists,
        age_distribution={
            str(k): _field(ages, k, float, f"{config}: age_distribution") for k in ages
        },
        missing_rate=_field(payload, "missing_rate", float, config, default=0.0),
    )


def load_generator_config(path, definition: ScoreDefinition) -> GeneratorConfig:
    return _load_json(path, generator_config_from_dict, definition)


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
            "outer_iterations": f.outer_iterations,
            "converged_reason": f.converged_reason,
            "stall_count": f.stall_count,
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
