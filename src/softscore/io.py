"""File formats: score definitions, cohorts, fitted parameters, reports.

All JSON writers emit sorted keys and two-space indents so identical inputs
produce byte-identical files.  Schemas are strict: unknown keys are rejected
with the offending key named, and so is a value of the wrong type; every
``load_*`` error names the file.  The cohort CSV has the fixed header columns
``id,age_months,outcome`` followed by one column per raw variable; an empty
cell means MISSING and outcomes are -1 or 1.

The per-record files work on whole columns, ``_BLOCK_ROWS`` rows at a time,
so no object is built per record.  Cohorts are read into and written from the
columns of a `Cohort`; the scores CSV is written from five parallel columns,
the truth CSV from two, and the report's ROC table from its four.  A writer
turns each column of a block into text, formatting each distinct float once
(``float.__repr__``, the text `csv` and `json` write), and writes the block
as one string joined through one row format, so the bytes are those of
`csv.writer` and ``json.dump``.  The loader takes the CSV reader's rows a
block at a time and counts physical lines only when a block has a fault or
an id repeats, by reading the file again.
"""
from __future__ import annotations

import contextlib
import csv
import dataclasses
import itertools
import json
import math
import numbers
import re
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import ContractViolation, ValidationError
from .evaluation import EvaluationReport
from .model import (
    AgeBand,
    BinaryFeature,
    Cohort,
    FeatureStep,
    RawVariable,
    ScoreDefinition,
    ScoreParameters,
    _record_problem,
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

# Rows a cohort reader or writer holds at once, as strings: 2,048 rows of
# the adult preset are about 210 KB of CSV.
_BLOCK_ROWS = 2048

# Ages are held as int64.
_MAX_AGE = np.iinfo(np.int64).max


def _float_texts(values, special=None) -> list:
    """``float.__repr__`` of each value of a 1-d array, the text `json` and
    `csv` write for a float, made once per distinct bit pattern (so -0.0
    keeps its sign) and spread back by the inverse index; ``special`` maps a
    text ("nan", "inf", "-inf") to the text written in its place."""
    bits = np.asarray(values, dtype=np.float64).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = list(map(float.__repr__, distinct.view(np.float64).tolist()))
    if special:
        texts = [special.get(text, text) for text in texts]
    return np.array(texts, dtype=object)[inverse].tolist()


# the characters that make the excel dialect of `csv.writer` quote a cell
_CSV_QUOTED = re.compile(r'[,"\r\n]')


def _csv_cell(text: str) -> str:
    """One text cell as `csv.writer` writes it: quoted, with its quotes
    doubled, when it holds a comma, a quote, CR or LF; as it is otherwise."""
    if _CSV_QUOTED.search(text) is None:
        return text
    return '"' + text.replace('"', '""') + '"'


def _write_csv(fh, header, blocks):
    """Write a CSV file as `csv.writer` would: the header's text cells, then
    each block of columns (ids first, as text) one string at a time, every
    row through one format."""
    row = ",".join(["{}"] * len(header)) + "\r\n"
    fh.write(row.format(*map(_csv_cell, header)))
    for ids, *columns in blocks:
        fh.write("".join(map(row.format, map(_csv_cell, ids), *columns)))


def _row_blocks(n: int):
    """The slices of ``n`` rows that a writer holds as text at once."""
    return (slice(start, start + _BLOCK_ROWS) for start in range(0, n, _BLOCK_ROWS))


def save_cohort(path, cohort: Cohort):
    """Write the cohort's columns in its variable order, one row per record;
    a missing value is an empty cell."""
    blocks = (
        (
            cohort.ids[block],
            cohort.ages[block].tolist(),
            cohort.outcomes[block].tolist(),
            *(_float_texts(column, {"nan": ""}) for column in cohort.values[block].T),
        )
        for block in _row_blocks(len(cohort))
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _write_csv(fh, COHORT_FIXED + tuple(cohort.variables), blocks)


@contextlib.contextmanager
def _csv_errors(path):
    """A decoding or CSV error raised in the ``with`` block is invalid input,
    named with the path."""
    try:
        yield
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"{path}: not a UTF-8 CSV file ({exc})") from None


def _record_lines(path, start: int, stop: int) -> list:
    """The physical lines that records ``start`` to ``stop`` - 1 of a cohort
    CSV start on, from a fresh read of the file (a quoted cell may hold
    newlines).  The loader counts lines only to name a fault."""
    lines = []
    with open(path, "r", encoding="utf-8-sig", newline="") as fh, _csv_errors(path):
        reader = csv.reader(fh)
        line = reader.line_num + 1
        for _ in itertools.islice(reader, stop + 1):  # the header, then records
            lines.append(line)
            line = reader.line_num + 1
    return lines[start + 1 :]


def _row_problem(row, variables) -> Optional[str]:
    """What is wrong with one cohort CSV row, or None.  Checks run in this
    order, the first failure named: the cell count, age and outcome as
    integers, each value cell left to right as a finite float (empty is
    missing), then outcome and age as `Cohort` checks them."""
    width = len(COHORT_FIXED) + len(variables)
    if len(row) != width:
        return f"expected {width} cells, got {len(row)}"
    try:
        age = int(row[1])
        outcome = int(row[2])
    except ValueError:
        return "age and outcome must be integers"
    for name, cell in zip(variables, row[3:]):
        if cell != "":
            try:
                value = float(cell)
            except ValueError:
                value = math.nan  # rejected with nan, inf and -inf
            if not math.isfinite(value):
                return f"bad number {cell!r} for {name}"
    problem = _record_problem(row[0], age, outcome)
    if problem is None and age > _MAX_AGE:
        problem = f"record {row[0]!r}: age {age} months is too large"
    return problem


# an empty value cell is missing, so it is parsed as "nan"; `_parse_block`
# tells it from a cell whose own text is not finite by counting empty cells
_EMPTY_AS_NAN = {"": "nan"}


def _parse_block(rows, width):
    """One block of cohort CSV rows as (ids, ages, outcomes, values), read
    column by column.  Raises ValueError or OverflowError if any row has a
    fault, which `_row_problem` then names."""
    if set(map(len, rows)) != {width}:
        raise ValueError("cell count")
    n = len(rows)
    ids, ages, outcomes, *columns = zip(*rows)
    ages = np.fromiter(map(int, ages), np.int64, n)
    outcomes = np.fromiter(map(int, outcomes), np.int64, n)
    cells = list(itertools.chain.from_iterable(columns))
    texts = map(_EMPTY_AS_NAN.get, cells, cells)
    values = np.fromiter(map(float, texts), float, len(cells))
    # a NaN must come from an empty cell, never from the text of one
    if np.isinf(values).any() or np.count_nonzero(np.isnan(values)) != cells.count(""):
        raise ValueError("non-finite cell")
    if ((outcomes != 1) & (outcomes != -1) | (ages < 0)).any():
        raise ValueError("outcome or age")
    return ids, ages, outcomes, np.ascontiguousarray(values.reshape(width - 3, n).T)


def load_cohort(path) -> Cohort:
    """Read a cohort CSV into a `Cohort`, ``_BLOCK_ROWS`` rows at a time.

    A UTF-8 byte-order mark before the header is skipped.  Every error names
    the path and the physical line its record starts on; the earliest faulty
    line wins, and within a line the checks run in `_row_problem`'s order.
    Duplicate ids are checked last, once every row has passed.  Lines are
    counted only when a block fails or an id repeats, by reading the file
    again.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh, _csv_errors(path):
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValidationError(f"{path}: empty cohort file")
        if tuple(header[:3]) != COHORT_FIXED:
            raise ValidationError(
                f"{path}: header must start with id,age_months,outcome"
            )
        variables = header[3:]
        if len(set(variables)) != len(variables):
            raise ValidationError(f"{path}: duplicate variable columns")
        ids, ages, outcomes, values = [], [], [], []
        while block := list(itertools.islice(reader, _BLOCK_ROWS)):
            try:
                block_ids, block_ages, block_outcomes, block_values = _parse_block(
                    block, len(header)
                )
            except (ValueError, OverflowError):
                lines = _record_lines(path, len(ids), len(ids) + len(block))
                for line_no, row in zip(lines, block):
                    problem = _row_problem(row, variables)
                    if problem is not None:
                        raise ValidationError(f"{path}:{line_no}: {problem}") from None
                raise
            ids += block_ids
            ages.append(block_ages)
            outcomes.append(block_outcomes)
            values.append(block_values)
    if not ids:
        raise ValidationError(f"{path}: cohort has no records")
    if len(set(ids)) < len(ids):
        first_line: dict[str, int] = {}  # record id -> first line holding it
        for line_no, record_id in zip(_record_lines(path, 0, len(ids)), ids):
            first = first_line.setdefault(record_id, line_no)
            if first != line_no:
                raise ValidationError(
                    f"{path}:{line_no}: duplicate record id {record_id!r} "
                    f"(first on line {first})"
                )
    return Cohort(
        ids,
        np.concatenate(ages),
        np.concatenate(outcomes),
        variables,
        np.concatenate(values),
    )


def save_truth(path, ids, probabilities):
    p = np.asarray(probabilities, dtype=float)
    blocks = ((ids[block], _float_texts(p[block])) for block in _row_blocks(len(ids)))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _write_csv(fh, ("id", "true_probability"), blocks)


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


def _metric_block(m) -> dict:
    """The metrics shared by the pooled report and every fold row."""
    return {
        "auc": m.auc,
        "youden": {"j": m.youden_j, "cutoff": _json_float(m.youden_cutoff)},
        "prec_rec": {
            "value": m.prec_rec_balance,
            "cutoff": _json_float(m.prec_rec_cutoff),
        },
        "brier": m.brier,
        "platt": None if m.platt is None else {"a": m.platt[0], "b": m.platt[1]},
    }


def _report_fields(report: EvaluationReport) -> dict:
    """The report as a JSON object, all but its ROC table."""
    pooled = {
        "n": report.n,
        "n_positive": report.n_positive,
        "prevalence": report.prevalence,
        **_metric_block(report),
    }
    folds = [
        {
            "fold": f.fold,
            "n_test": f.n_test,
            "n_positive": f.n_positive,
            **_metric_block(f),
            "outer_iterations": f.outer_iterations,
            "converged_reason": f.converged_reason,
            "stall_count": f.stall_count,
        }
        for f in report.folds
    ]
    return {"pooled": pooled, "folds": folds, "subgroup": report.subgroup}


def report_to_dict(report: EvaluationReport) -> dict:
    """The report file's content in memory: `save_report` writes its
    ``json.dump`` with ``indent=2, sort_keys=True`` and a final newline."""
    return {
        **_report_fields(report),
        "roc": {name: _json_column(col) for name, col in report.roc._asdict().items()},
    }


# what JSON writes for a ROC value that is not finite
_JSON_NULLS = {"nan": "null", "inf": "null", "-inf": "null"}


def save_report(path, report: EvaluationReport):
    """Write `report_to_dict`'s JSON, with its ROC columns written block by
    block into ``json.dump``'s layout instead of built as lists: the rest of
    the report is dumped with a null table, which the columns replace."""
    text = json.dumps({**_report_fields(report), "roc": None}, indent=2, sort_keys=True)
    head, tail = text.split('\n  "roc": null', 1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head + '\n  "roc": {')
        item = "\n      "
        for i, (name, column) in enumerate(sorted(report.roc._asdict().items())):
            fh.write(("," if i else "") + f'\n    "{name}": [')
            for block in _row_blocks(len(column)):
                texts = _float_texts(column[block], _JSON_NULLS)
                fh.write(("," if block.start else "") + item + ("," + item).join(texts))
            fh.write("\n    ]" if len(column) else "]")
        fh.write("\n  }" + tail + "\n")


def save_scores(path, ids, folds, scores, probabilities, labels):
    """Write one row per record from five parallel columns: id, fold, score,
    probability and label."""
    columns = (
        np.asarray(folds, dtype=np.int64),
        np.asarray(scores, dtype=float),
        np.asarray(probabilities, dtype=float),
        np.asarray(labels, dtype=np.int64),
    )
    if any(c.shape != (len(ids),) for c in columns):
        raise ContractViolation("score columns must be 1-d and equally long")
    folds, scores, probabilities, labels = columns
    blocks = (
        (
            ids[block],
            folds[block].tolist(),
            _float_texts(scores[block]),
            _float_texts(probabilities[block]),
            labels[block].tolist(),
        )
        for block in _row_blocks(len(ids))
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _write_csv(fh, ("id", "fold", "score", "probability", "label"), blocks)
