"""File formats: byte-stable JSON, strict schemas, exact float round trips."""
import codecs
import csv
import dataclasses
import io
import json
import math
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import softscore.io
from helpers import (
    banded_definition,
    cell_oracle,
    cohort_of,
    mixed_definition,
    rec,
    rows_of,
)
from softscore.design import CohortDesign
from softscore.errors import ValidationError
from softscore.evaluation import RocCurve, evaluate_scores
from softscore.io import (
    definition_from_dict,
    definition_to_dict,
    generator_config_from_dict,
    generator_config_to_dict,
    load_cohort,
    load_fitted,
    load_generator_config,
    load_optimizer_config,
    load_score_definition,
    optimizer_config_from_dict,
    optimizer_config_to_dict,
    params_from_dict,
    params_to_dict,
    report_to_dict,
    save_cohort,
    save_fitted,
    save_generator_config,
    save_report,
    save_score_definition,
    save_scores,
    save_truth,
)
from softscore.model import (
    BINARY,
    MAX_VALUED,
    MIN_VALUED,
    AgeBand,
    BinaryFeature,
    Cohort,
    FeatureStep,
    RawVariable,
    ScoreDefinition,
    ScoreParameters,
)
from softscore.numerics import sigmoid
from softscore.optimizer import KINDS, OptimizerConfig, fit, project_thresholds
from softscore.presets import (
    PRESETS,
    demo_generator,
    pediatric_icu_generator,
    preset_cohort,
)
from softscore.synthetic import generate


def random_params(definition, rng):
    slopes = rng.uniform(0.1, 3.0, size=definition.n_slopes)
    thresholds = np.array(ScoreParameters.initial(definition).thresholds)
    weights = rng.uniform(0.2, 5.0, size=definition.n_weights)
    return ScoreParameters(definition, slopes, thresholds, weights)


class TestDefinitionRoundTrip:
    @pytest.mark.parametrize(
        "definition",
        [
            mixed_definition(),
            mixed_definition(or_group="coma"),
            banded_definition(),
            pediatric_icu_generator().definition,
        ],
        ids=["mixed", "or-group", "banded", "pediatric"],
    )
    def test_dict_round_trip(self, definition):
        assert definition_from_dict(definition_to_dict(definition)) == definition

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "score.json"
        save_score_definition(path, mixed_definition(or_group="coma"))
        assert load_score_definition(path) == mixed_definition(or_group="coma")

    def test_unknown_key_is_named(self):
        payload = definition_to_dict(mixed_definition())
        payload["surprise"] = 1
        with pytest.raises(ValidationError, match="unknown key 'surprise'"):
            definition_from_dict(payload)

    def test_missing_key_is_named(self):
        payload = definition_to_dict(mixed_definition())
        del payload["age_bands"]
        with pytest.raises(ValidationError, match="missing key 'age_bands'"):
            definition_from_dict(payload)

    def test_feature_with_unknown_variable(self):
        payload = definition_to_dict(mixed_definition())
        payload["features"][0]["variable"] = "ghost"
        with pytest.raises(ValidationError, match="unknown variable 'ghost'"):
            definition_from_dict(payload)

    def test_unknown_feature_kind(self):
        payload = definition_to_dict(mixed_definition())
        payload["features"][0]["kind"] = "spline"
        with pytest.raises(ValidationError, match="unknown feature kind 'spline'"):
            definition_from_dict(payload)

    def test_bad_physiological_range(self):
        payload = definition_to_dict(mixed_definition())
        payload["variables"][0]["physiological_range"] = [1.0]
        with pytest.raises(ValidationError, match=r"physiological_range"):
            definition_from_dict(payload)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValidationError, match="invalid JSON"):
            load_score_definition(path)


class TestParamsRoundTrip:
    @pytest.mark.parametrize(
        "definition", [mixed_definition(), banded_definition()], ids=["mixed", "banded"]
    )
    def test_dict_round_trip_is_exact(self, definition):
        rng = np.random.default_rng(41)
        params = random_params(definition, rng)
        back = params_from_dict(params_to_dict(params), definition)
        np.testing.assert_array_equal(back.slopes, params.slopes)
        np.testing.assert_array_equal(back.thresholds, params.thresholds)
        np.testing.assert_array_equal(back.weights, params.weights)

    def test_awkward_floats_survive_the_file(self, tmp_path):
        definition = mixed_definition()
        params = ScoreParameters(
            definition,
            slopes=np.array([0.1 + 0.2, 1e-17, 2.5]),
            thresholds=np.array([4.0, 8.0, 8.0]),
            weights=np.array([1 / 3, 2.0000000000000004, 1e300, 5.0]),
        )
        path = tmp_path / "fitted.json"
        save_fitted(path, params, *_quick_fit(tmp_path))
        back = load_fitted(path, definition)
        np.testing.assert_array_equal(back.slopes, params.slopes)
        np.testing.assert_array_equal(back.weights, params.weights)

    def test_missing_and_extra_keys(self):
        definition = mixed_definition()
        payload = params_to_dict(ScoreParameters.initial(definition))
        del payload["weights"]["pupils_fixed"]
        with pytest.raises(ValidationError, match="missing weight for 'pupils_fixed'"):
            params_from_dict(payload, definition)
        payload = params_to_dict(ScoreParameters.initial(definition))
        payload["slopes"]["rogue"] = 1.0
        with pytest.raises(ValidationError, match="unexpected slope keys"):
            params_from_dict(payload, definition)
        payload = params_to_dict(ScoreParameters.initial(definition))
        del payload["thresholds"]["gcs_min:step0"]
        with pytest.raises(ValidationError, match="missing threshold"):
            params_from_dict(payload, definition)


def _quick_fit(tmp_path):
    """A real (config, trace) pair for save_fitted calls."""
    cohort = cohort_of([
        rec("a", {"lactate_max": 9.0}, outcome=1),
        rec("b", {"lactate_max": 1.0}),
        rec("c", {"lactate_max": 8.5, "gcs_min": 5.0}, outcome=1),
        rec("d", {"lactate_max": 2.0, "gcs_min": 14.0}),
    ])
    config = OptimizerConfig(optimize_over=("a",), max_outer_iters=3)
    _, trace = fit(CohortDesign(cohort, mixed_definition()), config)
    return config, trace


class TestFittedFile:
    def test_round_trip_and_trace_summary(self, tmp_path):
        definition = mixed_definition()
        config, trace = _quick_fit(tmp_path)
        params = random_params(definition, np.random.default_rng(5))
        path = tmp_path / "fitted.json"
        save_fitted(path, params, config, trace)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["score_definition"] == definition.name
        assert payload["trace"]["final_objective"] <= payload["trace"]["initial_objective"]
        assert payload["trace"]["converged_reason"] in (
            "relative decrease below tolerance",
            "max outer iterations",
        )
        assert payload["config"]["optimize_over"] == ["a"]
        back = load_fitted(path, definition)
        np.testing.assert_array_equal(back.slopes, params.slopes)

    def test_definition_name_mismatch(self, tmp_path):
        config, trace = _quick_fit(tmp_path)
        params = random_params(mixed_definition(), np.random.default_rng(5))
        path = tmp_path / "fitted.json"
        save_fitted(path, params, config, trace)
        with pytest.raises(ValidationError, match="mixed-test-score"):
            load_fitted(path, banded_definition())


class TestOptimizerConfigRoundTrip:
    def test_non_default_round_trip(self, tmp_path):
        config = OptimizerConfig(
            optimize_over=("a", "w", "t"),
            prior_mu=(0.1, 0.2, 0.3, 0.4),
            prior_lambda=0.5,
            a_init=0.05,
            max_outer_iters=77,
            rel_tol=1e-5,
        )
        assert optimizer_config_from_dict(optimizer_config_to_dict(config)) == config
        path = tmp_path / "optimizer.json"
        from softscore.io import _dump_json

        _dump_json(path, optimizer_config_to_dict(config))
        assert load_optimizer_config(path) == config

    def test_empty_payload_gives_defaults(self):
        assert optimizer_config_from_dict({}) == OptimizerConfig()

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown key 'momentum'"):
            optimizer_config_from_dict({"momentum": 0.9})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("alternating_order", ["a"]),
            ("alpha", 0.2),
            ("beta", 0.5),
            ("beta_thresholds", None),
            ("seed", 0),
        ],
    )
    def test_removed_keys_are_unknown(self, key, value):
        with pytest.raises(ValidationError, match=f"unknown key '{key}'"):
            optimizer_config_from_dict({key: value})


@st.composite
def optimizer_configs(draw):
    finite = st.floats(allow_nan=False, allow_infinity=False)
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    return OptimizerConfig(
        optimize_over=tuple(
            draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=3, unique=True))
        ),
        prior_mu=draw(st.one_of(finite, st.tuples(finite, finite, finite, finite))),
        prior_lambda=draw(st.floats(min_value=0.0, allow_infinity=False)),
        a_init=draw(positive),
        max_outer_iters=draw(st.integers(1, 2**62)),
        rel_tol=draw(positive),
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(optimizer_configs())
def test_optimizer_config_round_trips_through_its_dict_and_json(config):
    payload = optimizer_config_to_dict(config)
    assert optimizer_config_from_dict(payload) == config
    assert optimizer_config_from_dict(json.loads(json.dumps(payload))) == config


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    definition=st.sampled_from([mixed_definition(), banded_definition()]),
    data=st.data(),
)
def test_fitted_file_round_trips_bit_for_bit(definition, data):
    finite = st.floats(min_value=-1e300, max_value=1e300)
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    params = ScoreParameters(
        definition,
        data.draw(st.lists(st.floats(min_value=0.0, allow_infinity=False),
                           min_size=definition.n_slopes, max_size=definition.n_slopes)),
        project_thresholds(
            data.draw(st.lists(finite, min_size=definition.n_thresholds,
                               max_size=definition.n_thresholds)),
            definition,
        ),
        data.draw(st.lists(positive, min_size=definition.n_weights,
                           max_size=definition.n_weights)),
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/fitted.json"
        save_fitted(path, params, *_quick_fit(tmp))
        back = load_fitted(path, definition)
    for name in ("slopes", "thresholds", "weights"):
        assert getattr(back, name).tobytes() == getattr(params, name).tobytes()


# any text a UTF-8 file can hold: every code point except lone surrogates
utf8_text = st.text(st.characters(blacklist_categories=("Cs",)))
finite_floats = st.floats(allow_nan=False, allow_infinity=False)
# text cells that put every quoting rule to work, drawn often: the characters
# the excel dialect quotes for, NUL, spaces, non-ASCII text and empty text
csv_text = st.one_of(
    st.lists(
        st.sampled_from([",", '"', "\r", "\n", "\x00", " ", "\u00e9", "\u65e5", "x"]),
        max_size=5,
    ).map("".join),
    utf8_text,
)
# floats whose text is awkward, drawn often: signed zeros, subnormals and
# 1e16, the smallest power of ten that repr writes with an exponent
awkward_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e16, -1e16, 1e22, 0.1]),
    finite_floats,
)


@st.composite
def cohorts(draw):
    """A `Cohort` with unique ids, each cell a finite float or missing."""
    names = draw(st.lists(csv_text, max_size=4, unique=True))
    ids = draw(st.lists(csv_text, min_size=1, max_size=12, unique=True))
    cell = st.one_of(st.none(), awkward_floats)
    ages, outcomes, values = [], [], []
    for _ in ids:
        ages.append(draw(st.integers(0, 10**6)))
        outcomes.append(draw(st.sampled_from((-1, 1))))
        values.append([draw(cell) for _ in names])  # None becomes NaN
    return Cohort(ids, ages, outcomes, names, values)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(cohorts())
def test_cohort_csv_round_trips_exactly(cohort):
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/cohort.csv"
        save_cohort(path, cohort)
        back = load_cohort(path)
    assert [(r.id, r.age_months, r.outcome) for r in rows_of(back)] == [
        (r.id, r.age_months, r.outcome) for r in rows_of(cohort)
    ]
    for r, b in zip(rows_of(cohort), rows_of(back)):
        assert list(b.values) == list(cohort.variables)
        # repr tells -0.0 from 0.0 and compares floats bit for bit
        assert repr(b.values) == repr(r.values)


# value cells the loader must read exactly as float() does: padded numbers,
# underscores, overflow, non-finite spellings, non-ASCII digits and text
_SPECIAL_CELLS = [
    "", " ", "1_0", "1__0", "_1", "1_", "1e400", "-1e400", "1e-400", "nan",
    "NaN", "-nan", "inf", "-inf", "+Infinity", "\u0661\u0662", "\u0663.\u0665",
    "\uff11\uff12", "0x10", "1e", ".", "+.5", "5.", "-0", "1,5", "1 5", "--1",
    "zebra", "\u00bd",
]
_PADDING = st.sampled_from(["", " ", "\t", "\n", "\u00a0", "\u2003", "\r\n"])
_cells = st.one_of(
    st.sampled_from(_SPECIAL_CELLS),
    st.tuples(
        _PADDING,
        st.one_of(st.sampled_from(_SPECIAL_CELLS), st.floats().map(repr),
                  st.integers().map(str)),
        _PADDING,
    ).map("".join),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
            max_size=6),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(_cells, min_size=1, max_size=6))
def test_loader_reads_value_cells_as_the_float_oracle_does(cells):
    """One record per cell: the loader accepts the file exactly when every
    cell passes the per-cell oracle, reads the oracle's values, and names the
    first cell the oracle rejects."""
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/cells.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "age_months", "outcome", "x"])
            writer.writerows([f"r{i}", 12, 1, cell] for i, cell in enumerate(cells))
        expected = []
        for cell in cells:
            try:
                expected.append(cell_oracle(cell))
            except ValueError:
                with pytest.raises(ValidationError) as info:
                    load_cohort(path)
                assert str(info.value).endswith(f": bad number {cell!r} for x")
                return
        back = load_cohort(path)
    got = [None if math.isnan(v) else v for v in back.values[:, 0].tolist()]
    assert repr(got) == repr(expected)  # floats bit for bit, -0.0 included


def test_loading_a_large_cohort_keeps_memory_bounded(tmp_path):
    """Memory bounded in n: the loader holds one block of rows as strings at a
    time, and keeps only the ids and the arrays."""
    cohort, _, _ = preset_cohort("adult_icu", n=20000, seed=1001)
    path = tmp_path / "large.csv"
    save_cohort(path, cohort)
    load_cohort(path)  # first-use allocations outside the measurement
    tracemalloc.start()
    try:
        loaded = load_cohort(path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded == cohort
    assert peak < 10e6
    assert retained < 4e6


def csv_writer_bytes(header, rows) -> bytes:
    """The oracle for the CSV writers: what `csv.writer` writes."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode("utf-8")


def written_bytes(block_rows, save, *args) -> bytes:
    """The bytes ``save(path, *args)`` writes, in blocks of ``block_rows``."""
    with mock.patch.object(softscore.io, "_BLOCK_ROWS", block_rows):
        with tempfile.TemporaryDirectory() as tmp:
            save(f"{tmp}/out", *args)
            with open(f"{tmp}/out", "rb") as fh:
                return fh.read()


BLOCK_ROWS = pytest.mark.parametrize("block_rows", [1, 2, 3])
any_floats = st.one_of(awkward_floats, st.floats())  # NaN and +-inf too


@BLOCK_ROWS
@settings(max_examples=100, deadline=None, derandomize=True)
@given(cohort=cohorts())
def test_save_cohort_writes_the_csv_writer_bytes(block_rows, cohort):
    rows = [
        [record_id, repr(age), repr(outcome), *("" if x != x else repr(x) for x in row)]
        for record_id, age, outcome, row in zip(
            cohort.ids, cohort.ages.tolist(), cohort.outcomes.tolist(),
            cohort.values.tolist(),
        )
    ]
    header = ["id", "age_months", "outcome", *cohort.variables]
    assert written_bytes(block_rows, save_cohort, cohort) == csv_writer_bytes(header, rows)


@BLOCK_ROWS
@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    rows=st.lists(
        st.tuples(csv_text, st.integers(-(2**63), 2**63 - 1), any_floats, any_floats,
                  st.sampled_from((-1, 1))),
        max_size=8,
    )
)
def test_save_scores_writes_the_csv_writer_bytes(block_rows, rows):
    columns = [[row[k] for row in rows] for k in range(5)]
    expected = csv_writer_bytes(
        ["id", "fold", "score", "probability", "label"],
        [[i, repr(f), repr(s), repr(p), repr(y)] for i, f, s, p, y in rows],
    )
    assert written_bytes(block_rows, save_scores, *columns) == expected


@BLOCK_ROWS
@settings(max_examples=100, deadline=None, derandomize=True)
@given(rows=st.lists(st.tuples(csv_text, any_floats), max_size=8))
def test_save_truth_writes_the_csv_writer_bytes(block_rows, rows):
    ids = [record_id for record_id, _ in rows]
    expected = csv_writer_bytes(
        ["id", "true_probability"], [[i, repr(p)] for i, p in rows]
    )
    assert written_bytes(block_rows, save_truth, ids, [p for _, p in rows]) == expected


@st.composite
def reports(draw):
    """A report with drawn ROC columns of one length (NaN and +-inf
    included) and a drawn subgroup label."""
    n = draw(st.integers(0, 7))
    column = st.lists(any_floats, min_size=n, max_size=n).map(
        lambda xs: np.array(xs, dtype=float)
    )
    return dataclasses.replace(
        evaluate_scores([0.5, -1.0, 2.0, 0.5], [1, -1, 1, -1]),
        roc=RocCurve(*(draw(column) for _ in RocCurve._fields)),
        subgroup=draw(st.one_of(st.none(), csv_text)),
    )


@BLOCK_ROWS
@settings(max_examples=100, deadline=None, derandomize=True)
@given(report=reports())
def test_save_report_writes_the_json_dump_bytes(block_rows, report):
    expected = json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"
    assert written_bytes(block_rows, save_report, report) == expected.encode("utf-8")


def test_report_and_scores_writers_keep_memory_bounded(tmp_path):
    """Memory bounded in n: beyond their inputs, `save_report` and
    `save_scores` hold a few blocks of text at a time, not whole columns."""
    n = 200_000
    rng = np.random.default_rng(3)
    scores = rng.normal(size=n)
    labels = np.where(scores + rng.normal(size=n) > 0, 1, -1)
    report = evaluate_scores(scores, labels)
    assert len(report.roc.cutoff) == n + 1
    columns = (tuple(f"r{i}" for i in range(n)), np.zeros(n, np.int64), scores,
               sigmoid(scores), labels)
    small = evaluate_scores([0.5, -1.0, 2.0], [1, -1, 1])
    path = tmp_path / "out"
    for save, args, first in (
        (save_report, (report,), (small,)),
        (save_scores, columns, tuple(column[:3] for column in columns)),
    ):
        save(path, *first)  # first-use allocations outside the measurement
        tracemalloc.start()
        try:
            save(path, *args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2e6, save.__name__


@st.composite
def score_definitions(draw):
    """Valid definitions: age bands tiling [0, 1200), up, down and binary
    variables, one to three strictly ordered steps per step variable, all
    features in a drawn order, optional OR-groups and normal values."""
    label = st.text(min_size=1, max_size=6)
    edges = [0, *sorted(draw(st.sets(st.integers(1, 1199), max_size=3))), 1200]
    labels = draw(
        st.lists(label, min_size=len(edges) - 1, max_size=len(edges) - 1, unique=True)
    )
    bands = [AgeBand(lab, lo, hi) for lab, lo, hi in zip(labels, edges, edges[1:])]
    group = st.one_of(st.none(), label)
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    variables, features = [], []
    for name in draw(st.lists(label, min_size=1, max_size=4, unique=True)):
        kind = draw(st.sampled_from((MAX_VALUED, MIN_VALUED, BINARY)))
        lo, hi = sorted(
            draw(st.lists(finite_floats, min_size=2, max_size=2, unique=True))
        )
        normal = draw(st.one_of(st.none(), st.floats(lo, hi)))
        var = RawVariable(name, kind, draw(st.text(max_size=6)), (lo, hi), normal)
        variables.append(var)
        if kind == BINARY:
            features.append(BinaryFeature(var, draw(positive), draw(group)))
            continue
        n_steps = draw(st.integers(1, 3))
        indices = sorted(
            draw(st.sets(st.integers(0, 9), min_size=n_steps, max_size=n_steps))
        )
        per_band = {
            lab: sorted(
                draw(st.lists(finite_floats, min_size=n_steps, max_size=n_steps,
                              unique=True)),
                reverse=kind == MIN_VALUED,
            )
            for lab in labels
        }
        for s, index in enumerate(indices):
            thresholds = {lab: per_band[lab][s] for lab in labels}
            features.append(
                FeatureStep(var, index, thresholds, draw(positive), draw(group))
            )
    return ScoreDefinition(
        draw(st.text(min_size=1, max_size=12)),
        tuple(variables),
        tuple(draw(st.permutations(features))),
        tuple(draw(st.permutations(bands))),
    )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(score_definitions())
def test_score_definition_json_round_trips_exactly(definition):
    with tempfile.TemporaryDirectory() as tmp:
        path, again = f"{tmp}/score.json", f"{tmp}/again.json"
        save_score_definition(path, definition)
        back = load_score_definition(path)
        save_score_definition(again, back)
        with open(path, "rb") as fh, open(again, "rb") as gh:
            assert fh.read() == gh.read()  # floats bit for bit, -0.0 included
    assert back == definition


class TestCohortCsv:
    def test_round_trip_with_missing_cells(self, tmp_path):
        rows = [
            rec("a", {"x": 0.1 + 0.2, "y": None}, age=12, outcome=1),
            rec("b", {"x": None, "y": -1e-17}, age=0),
            rec("c", {"x": 1e300, "y": 3.0}, age=1199),
        ]
        path = tmp_path / "cohort.csv"
        save_cohort(path, cohort_of(rows))
        back = load_cohort(path)
        assert [(r.id, r.age_months, r.outcome, r.values) for r in rows_of(back)] == [
            (r.id, r.age_months, r.outcome, r.values) for r in rows
        ]

    def test_header_and_structure_errors(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValidationError, match="empty cohort file"):
            load_cohort(path)
        path.write_text("id,age,outcome,x\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="header must start"):
            load_cohort(path)
        path.write_text("id,age_months,outcome,x,x\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="duplicate variable columns"):
            load_cohort(path)
        path.write_text("id,age_months,outcome,x\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="no records"):
            load_cohort(path)

    def test_row_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,age_months,outcome,x\na,12,1\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="bad.csv:2"):
            load_cohort(path)
        path.write_text("id,age_months,outcome,x\na,twelve,1,0.5\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="must be integers"):
            load_cohort(path)
        path.write_text("id,age_months,outcome,x\na,12,1,zebra\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="bad number 'zebra'"):
            load_cohort(path)
        path.write_text("id,age_months,outcome,x\na,12,2,0.5\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="bad.csv:2"):
            load_cohort(path)

    def test_duplicate_record_id_names_both_lines(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "id,age_months,outcome,x\na,12,1,0.5\nb,12,-1,\na,3,-1,1.5\n",
            encoding="utf-8",
        )
        with pytest.raises(
            ValidationError,
            match=r"bad.csv:4: duplicate record id 'a' \(first on line 2\)$",
        ):
            load_cohort(path)

    def test_errors_name_physical_lines_after_a_multiline_cell(self, tmp_path):
        # the first record's quoted id holds a newline, so it spans lines 2-3
        path = tmp_path / "nl.csv"
        head = 'id,age_months,outcome,x\n"a\nb",12,1,0.5\n'
        path.write_text(head + "c,12,-1,zebra\n", encoding="utf-8")
        with pytest.raises(
            ValidationError, match=r"nl.csv:4: bad number 'zebra' for x$"
        ):
            load_cohort(path)
        path.write_text(head + "c,12,-1,1\nc,3,1,2\n", encoding="utf-8")
        with pytest.raises(
            ValidationError,
            match=r"nl.csv:5: duplicate record id 'c' \(first on line 4\)$",
        ):
            load_cohort(path)
        # an error in a multi-line record names the line it starts on
        path.write_text(
            'id,age_months,outcome,x\nc,12,-1,1\n"a\nb",twelve,1,0.5\n',
            encoding="utf-8",
        )
        with pytest.raises(ValidationError, match=r"nl.csv:3: age and outcome"):
            load_cohort(path)

    def test_non_finite_cells_are_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        for cell in ("nan", "NaN", "inf", "-inf", "Infinity"):
            path.write_text(
                f"id,age_months,outcome,x,y\na,12,1,0.5,\nb,12,-1,1.5,{cell}\n",
                encoding="utf-8",
            )
            with pytest.raises(
                ValidationError, match=f"bad.csv:3: bad number '{cell}' for y"
            ):
                load_cohort(path)

    def test_a_byte_order_mark_is_skipped(self, tmp_path):
        text = 'id,age_months,outcome,x,y\r\n"a\nb",12,1,0.5,\r\nc,3,-1,,-1e-17\r\n'
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
        assert load_cohort(marked) == load_cohort(plain)
        assert load_cohort(plain).ids == ("a\nb", "c")
        bad = text.replace("-1e-17", "zebra")
        marked.write_bytes(codecs.BOM_UTF8 + bad.encode("utf-8"))
        with pytest.raises(ValidationError, match=r"bom.csv:4: bad number 'zebra' for y$"):
            load_cohort(marked)

    # each file's first fault, with the message naming its line; the first
    # record's quoted id spans lines 2-3, so the records after it start on
    # lines 4, 5, 6 and 7
    FAULTS = [
        ("c,3,-1,1,2\nd,4,1,2\ne,5,-1,zebra,1\n", r"5: expected 5 cells, got 4"),
        ("c,3,-1,1,2\nd,4,1,2,3\ne,5,-1,1,1\nf,x,1,1,1\n",
         r"7: age and outcome must be integers"),
        ("c,3,-1,1,2\nd,4,1,2,3\ne,5,-1,1,nan\n", r"6: bad number 'nan' for y"),
        ("c,3,0,1,2\nd,4,1,2,3\n", r"4: record 'c': outcome must be -1 or \+1, got 0"),
        ("c,3,-1,1,2\nd,4,1,2,3\ne,5,-1,1,1\nf,-6,1,1,1\n", r"7: record 'f': negative age"),
        ("c,3,-1,1,2\nd,4,1,2,3\nc,5,-1,1,1\n",
         r"6: duplicate record id 'c' \(first on line 4\)"),
    ]

    @pytest.mark.parametrize("block_rows", [1, 2, 3])
    def test_row_blocks_change_neither_the_cohort_nor_the_error_lines(
        self, tmp_path, monkeypatch, block_rows
    ):
        head = 'id,age_months,outcome,x,y\n"a\nb",12,1,0.5,\n'
        path = tmp_path / "c.csv"
        path.write_text(head + "c,3,-1,,1.5\nd,4,1,2,3\ne,5,-1,1,\n", encoding="utf-8")
        whole = load_cohort(path)
        assert whole.ids == ("a\nb", "c", "d", "e")
        monkeypatch.setattr(softscore.io, "_BLOCK_ROWS", block_rows)
        assert load_cohort(path) == whole
        for body, message in self.FAULTS:
            path.write_text(head + body, encoding="utf-8")
            with pytest.raises(ValidationError, match=f"c.csv:{message}$"):
                load_cohort(path)

    def test_the_earliest_faulty_line_wins_and_checks_keep_their_order(self, tmp_path):
        path = tmp_path / "two.csv"
        head = "id,age_months,outcome,x,y\na,12,1,0.5,\n"
        cases = [
            # a late check on an earlier line beats an early one on a later line
            ("b,-1,1,1,2\nc,3,1,1\n", r"3: record 'b': negative age"),
            ("b,3,1,1,2\nc,3,1,1\nd,-1,1,1,2\n", r"4: expected 5 cells, got 4"),
            # within one line: integers, then cells left to right, then
            # outcome, then age
            ("b,x,1,zebra,1\n", r"3: age and outcome must be integers"),
            ("b,3,2,1,inf\n", r"3: bad number 'inf' for y"),
            ("b,-1,2,zebra,nan\n", r"3: bad number 'zebra' for x"),
            ("b,-1,2,1,2\n", r"3: record 'b': outcome must be -1 or \+1, got 2"),
            ("b,99999999999999999999,1,1,2\n",
             r"3: record 'b': age 99999999999999999999 months is too large"),
            # duplicate ids are checked once every row has passed
            ("a,3,1,1,2\nc,3,1,1,zebra\n", r"4: bad number 'zebra' for y"),
        ]
        for body, message in cases:
            path.write_text(head + body, encoding="utf-8")
            with pytest.raises(ValidationError, match=f"two.csv:{message}$"):
                load_cohort(path)

    def test_truth_sidecar_preserves_probabilities(self, tmp_path):
        cohort, probabilities = generate(demo_generator(n=25))
        path = tmp_path / "truth.csv"
        save_truth(path, cohort.ids, probabilities)
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["id", "true_probability"]
        assert [r[0] for r in rows[1:]] == [r.id for r in rows_of(cohort)]
        assert [float(r[1]) for r in rows[1:]] == list(probabilities)


class TestGeneratorConfigRoundTrip:
    @pytest.mark.parametrize(
        "config",
        [demo_generator(n=60), pediatric_icu_generator(n=40)],
        ids=["demo", "per-band"],
    )
    def test_round_trip(self, tmp_path, config):
        path = tmp_path / "generator.json"
        save_generator_config(path, config)
        back = load_generator_config(path, config.definition)
        assert back.n == config.n and back.seed == config.seed
        assert back.intercept == config.intercept
        assert back.missing_rate == config.missing_rate
        assert back.age_distribution == dict(config.age_distribution)
        assert back.value_distributions == dict(config.value_distributions)
        np.testing.assert_array_equal(
            back.true_params.slopes, config.true_params.slopes
        )
        np.testing.assert_array_equal(
            back.true_params.weights, config.true_params.weights
        )
        # the reload drives the generator to the same draws
        a, pa = generate(config)
        b, pb = generate(back)
        assert [r.values for r in rows_of(a)] == [r.values for r in rows_of(b)]
        np.testing.assert_array_equal(pa, pb)

    def test_unknown_distribution_kind(self):
        payload = generator_config_to_dict(demo_generator(n=10))
        payload["value_distributions"]["lactate_max"] = {"kind": "cauchy", "x": 1}
        with pytest.raises(ValidationError, match="unknown distribution kind 'cauchy'"):
            generator_config_from_dict(payload, demo_generator().definition)

    def test_distribution_must_be_an_object(self):
        payload = generator_config_to_dict(demo_generator(n=10))
        payload["value_distributions"]["lactate_max"] = 3.5
        with pytest.raises(ValidationError, match="expected a distribution object"):
            generator_config_from_dict(payload, demo_generator().definition)

    def test_missing_required_key(self):
        payload = generator_config_to_dict(demo_generator(n=10))
        del payload["seed"]
        with pytest.raises(ValidationError, match="missing key 'seed'"):
            generator_config_from_dict(payload, demo_generator().definition)

    @pytest.mark.parametrize(
        "key, value, what",
        [
            ("n", 150.7, "an integer"),
            ("seed", "7", "an integer"),
            ("n", True, "an integer"),
            ("intercept", "-8", "a finite number"),
            ("intercept", False, "a finite number"),
        ],
        ids=["fractional-int", "string-int", "bool-int", "string-float", "bool-float"],
    )
    def test_numbers_are_read_strictly(self, tmp_path, key, value, what):
        payload = generator_config_to_dict(demo_generator(n=10))
        payload[key] = value
        path = tmp_path / "generator.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValidationError) as info:
            load_generator_config(path, demo_generator().definition)
        assert str(info.value) == (
            f"{path}: generator config: {key!r} must be {what}, got {value!r}"
        )

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_every_preset_file_loads(self, tmp_path, name):
        preset = PRESETS[name]
        definition_path = tmp_path / "definition.json"
        generator_path = tmp_path / "generator.json"
        save_score_definition(definition_path, preset.definition())
        save_generator_config(generator_path, preset.generator())
        definition = load_score_definition(definition_path)
        assert definition_to_dict(definition) == definition_to_dict(preset.definition())
        config = load_generator_config(generator_path, definition)
        assert generator_config_to_dict(config) == generator_config_to_dict(
            preset.generator()
        )


class TestReportAndScores:
    def _report(self):
        rng = np.random.default_rng(17)
        scores = rng.normal(size=40)
        labels = np.where(scores + rng.normal(size=40) > 0.3, 1, -1)
        if len(set(labels)) == 1:
            labels[0] = -labels[0]
        return evaluate_scores(scores, labels), scores, labels

    def test_report_json_structure(self, tmp_path):
        report, _, _ = self._report()
        payload = report_to_dict(report)
        assert payload["pooled"]["n"] == 40
        assert payload["pooled"]["platt"] is not None
        assert payload["roc"]["cutoff"][0] is None  # the infinite sentinel
        assert payload["roc"]["sensitivity"] == report.roc.sensitivity.tolist()
        assert payload["folds"] == []
        path = tmp_path / "report.json"
        save_report(path, report)
        assert json.loads(path.read_text(encoding="utf-8")) == payload

    def test_infinite_cutoffs_become_null(self):
        # perfectly separated scores put the balanced cutoff at a real value
        # but the sentinel stays infinite
        report = evaluate_scores([3.0, 2.0, -1.0, -2.0], [1, 1, -1, -1])
        payload = report_to_dict(report)
        assert payload["roc"]["cutoff"][0] is None
        assert all(c is None or math.isfinite(c) for c in payload["roc"]["cutoff"])

    def test_scores_csv_round_trip(self, tmp_path):
        columns = (
            ("a", "b"),
            [0, 3],
            [0.1 + 0.2, -1e-17],
            [0.123456789012345678, 0.5],
            [1, -1],
        )
        path = tmp_path / "scores.csv"
        save_scores(path, *columns)
        with open(path, encoding="utf-8", newline="") as fh:
            raw = list(csv.reader(fh))
        assert raw[0] == ["id", "fold", "score", "probability", "label"]
        parsed = [
            (r[0], int(r[1]), float(r[2]), float(r[3]), int(r[4])) for r in raw[1:]
        ]
        assert parsed == list(zip(*columns))


class TestJsonDeterminism:
    def test_sorted_keys_indent_and_trailing_newline(self, tmp_path):
        path = tmp_path / "score.json"
        save_score_definition(path, mixed_definition())
        text = path.read_text(encoding="utf-8")
        assert text.startswith('{\n  "')
        assert text.endswith("}\n")
        payload = json.loads(text)
        assert list(payload) == sorted(payload)

    def test_identical_content_identical_bytes(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_generator_config(first, demo_generator(n=30))
        save_generator_config(second, demo_generator(n=30))
        assert first.read_bytes() == second.read_bytes()
