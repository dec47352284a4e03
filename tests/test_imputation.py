"""Imputation strategies against brute-force oracles."""
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import cohort_of, mixed_definition, rec, rows_of
from softscore import imputation
from softscore.errors import ValidationError
from softscore.imputation import ImputationMethod, impute, knn_distances
from softscore.io import save_cohort
from softscore.presets import preset_cohort


def brute_force_distances(X):
    """The documented kNN distance of every pair of rows of X (NaN where
    missing), one pair at a time: sqrt(sum of squared standardized
    differences over the variables both records observe, added left to
    right) / (number of those variables); inf on the diagonal and for pairs
    that share no variable."""
    n, m = X.shape
    observed = ~np.isnan(X)
    mu = [np.mean(X[observed[:, j], j]) for j in range(m)]
    sd = [np.std(X[observed[:, j], j]) for j in range(m)]

    def standardized(i, j):
        return (X[i, j] - mu[j]) / sd[j] if sd[j] > 0 else 0.0

    def distance(i, l):
        common = [j for j in range(m) if observed[i, j] and observed[l, j]]
        if i == l or not common:
            return math.inf
        diffs = [standardized(i, j) - standardized(l, j) for j in common]
        # d * d is the correctly rounded square; d ** 2 goes through libm's
        # pow, which misses it by an ulp for about one double in 1,200
        sq = sum(d * d for d in diffs)
        return math.sqrt(sq) / len(common)

    return [[distance(i, l) for l in range(n)] for i in range(n)]


def brute_force_knn_fill(cohort, variables, k):
    """Independent all-pairs reimplementation of the documented kNN rule.

    Distances as in ``brute_force_distances``; a missing cell takes the
    average of its variable over the k nearest records observing it,
    walking past non-observers, falling back to the column mean when no
    finite-distance donor observes it.
    """
    n = len(cohort)
    X = np.full((n, len(variables)), np.nan)
    for i, r in enumerate(rows_of(cohort)):
        for j, name in enumerate(variables):
            v = r.value(name)
            if v is not None:
                X[i, j] = v
    observed = ~np.isnan(X)
    D = brute_force_distances(X)

    def distance(i, l):
        return D[i][l]

    filled = X.copy()
    for i in range(n):
        ranked = sorted(range(n), key=lambda l: (distance(i, l), l))
        for j in range(len(variables)):
            if observed[i, j]:
                continue
            donors = []
            for cand in ranked:
                if not math.isfinite(distance(i, cand)):
                    break
                if observed[cand, j]:
                    donors.append(X[cand, j])
                    if len(donors) == k:
                        break
            filled[i, j] = (
                sum(donors) / len(donors) if donors else float(np.mean(X[observed[:, j], j]))
            )
    return filled


def random_missing_cohort(rng, n=15, always_observed="anchor"):
    rows = []
    names = [always_observed, "b", "c"]
    for i in range(n):
        values = {always_observed: float(rng.uniform(-3, 3))}
        for name in names[1:]:
            values[name] = (
                None if rng.uniform() < 0.35 else float(rng.uniform(-3, 3))
            )
        rows.append(rec(f"r{i}", values, outcome=1 if i % 3 == 0 else -1))
    return cohort_of(rows), names


class TestImputationMethod:
    def test_unknown_kind_rejected(self):
        message = "^unknown imputation method 'median'; expected knn, mean or normal$"
        with pytest.raises(ValidationError, match=message):
            ImputationMethod("median")

    def test_knn_needs_positive_k(self):
        with pytest.raises(ValidationError):
            ImputationMethod.knn(k=0)
        assert ImputationMethod.knn().k == 5  # documented default

    @pytest.mark.parametrize("k", [2.5, True, "2", None])
    def test_knn_k_must_be_an_integer(self, k):
        # a fractional k never equals a donor count, and True would act as 1
        with pytest.raises(ValidationError, match="k must be an integer"):
            ImputationMethod.knn(k=k)

    def test_knn_k_accepts_numpy_integers(self):
        k = ImputationMethod.knn(k=np.int64(3)).k
        assert k == 3 and type(k) is int

    def test_normal_needs_a_table(self):
        with pytest.raises(ValidationError):
            ImputationMethod("normal")

    def test_normal_table_from_definition(self):
        method = ImputationMethod.normal_from_definition(mixed_definition())
        assert method.normal_values == {
            "lactate_max": 1.0,
            "gcs_min": 15.0,
            "pupils_fixed": 0.0,
        }

    def test_definition_without_normal_values_rejected(self):
        from softscore.model import (
            MAX_VALUED,
            FeatureStep,
            RawVariable,
            ScoreDefinition,
        )
        from helpers import BAND_ALL

        v = RawVariable("x", MAX_VALUED, "", (0.0, 10.0))  # no normal_value
        d = ScoreDefinition(
            "bare", (v,), (FeatureStep(v, 0, {"all": 5.0}, initial_weight=1.0),),
            (BAND_ALL,),
        )
        with pytest.raises(ValidationError):
            ImputationMethod.normal_from_definition(d)


class TestImputeBasics:
    def test_complete_cohort_is_a_fixed_point(self):
        cohort = cohort_of([
            rec("a", {"x": 1.0, "y": 2.0}),
            rec("b", {"x": 3.0, "y": 4.0}, outcome=1),
        ])
        for method in (ImputationMethod.knn(k=1), ImputationMethod.mean(),
                       ImputationMethod("normal", normal_values={"x": 0.0, "y": 0.0})):
            out = rows_of(impute(cohort, method))
            assert [r.values for r in out] == [r.values for r in rows_of(cohort)]
            assert [(r.id, r.age_months, r.outcome) for r in out] == [
                (r.id, r.age_months, r.outcome) for r in rows_of(cohort)
            ]

    def test_mean_fills_with_observer_mean(self):
        cohort = cohort_of([
            rec("a", {"x": 1.0}),
            rec("b", {"x": 3.0}),
            rec("c", {"x": None}),
        ])
        out = rows_of(impute(cohort, ImputationMethod.mean()))
        assert out[2].value("x") == 2.0

    def test_normal_fills_with_reference_value(self):
        cohort = cohort_of([rec("a", {"gcs_min": None, "lactate_max": 4.0})])
        method = ImputationMethod.normal_from_definition(mixed_definition())
        out = rows_of(impute(cohort, method))
        assert out[0].value("gcs_min") == 15.0
        assert out[0].value("lactate_max") == 4.0

    def test_normal_missing_reference_rejected(self):
        cohort = cohort_of([rec("a", {"mystery": None}), rec("b", {"mystery": 1.0})])
        method = ImputationMethod("normal", normal_values={"other": 0.0})
        with pytest.raises(ValidationError):
            impute(cohort, method)

    def test_variable_observed_nowhere_rejected(self):
        cohort = cohort_of([rec("a", {"x": None}), rec("b", {"x": None})])
        with pytest.raises(ValidationError):
            impute(cohort, ImputationMethod.mean())
        with pytest.raises(ValidationError):
            impute(cohort, ImputationMethod.knn(k=1))

    def test_normal_can_fill_a_variable_observed_nowhere(self):
        cohort = cohort_of([rec("a", {"x": None}), rec("b", {"x": None})])
        method = ImputationMethod("normal", normal_values={"x": 7.0})
        out = rows_of(impute(cohort, method))
        assert all(r.value("x") == 7.0 for r in out)

    @pytest.mark.parametrize(
        "method",
        [
            ImputationMethod.mean(),
            ImputationMethod.knn(k=1),
            ImputationMethod("normal", normal_values={"x": 0.0}),
        ],
        ids=["mean", "knn", "normal"],
    )
    def test_empty_cohort_rejected(self, method):
        with pytest.raises(ValidationError, match="^cohort is empty$"):
            impute(cohort_of([]), method)

    def test_k_beyond_available_neighbors_rejected(self):
        cohort = cohort_of([rec("a", {"x": 1.0}), rec("b", {"x": None})])
        with pytest.raises(ValidationError):
            impute(cohort, ImputationMethod.knn(k=2))

    def test_idempotent_and_in_observed_range(self):
        rng = np.random.default_rng(197)
        cohort, names = random_missing_cohort(rng)
        for method in (ImputationMethod.knn(k=3), ImputationMethod.mean()):
            once = impute(cohort, method)
            twice = impute(once, method)
            assert [r.values for r in rows_of(once)] == [r.values for r in rows_of(twice)]
            for name in names:
                observed = [
                    r.value(name) for r in rows_of(cohort) if r.value(name) is not None
                ]
                lo, hi = min(observed), max(observed)
                for r in rows_of(once):
                    assert lo <= r.value(name) <= hi


class TestKnnOracle:
    def test_single_neighbor_copies_the_complete_record(self):
        cohort = cohort_of([
            rec("complete", {"x": 2.0, "y": 9.0}),
            rec("partial", {"x": 2.5, "y": None}),
        ])
        out = rows_of(impute(cohort, ImputationMethod.knn(k=1)))
        assert out[1].value("y") == 9.0

    def test_six_record_cohort_matches_brute_force(self):
        cohort = cohort_of([
            rec("a", {"u": 1.0, "v": 10.0, "w": None}),
            rec("b", {"u": 1.2, "v": None, "w": 5.0}),
            rec("c", {"u": None, "v": 11.0, "w": 6.0}),
            rec("d", {"u": 3.5, "v": 14.0, "w": 2.0}),
            rec("e", {"u": 3.6, "v": 13.5, "w": None}),
            rec("f", {"u": 0.8, "v": 10.5, "w": 5.5}),
        ])
        names = ["u", "v", "w"]
        for k in (1, 2, 3):
            expected = brute_force_knn_fill(cohort, names, k)
            out = rows_of(impute(cohort, ImputationMethod.knn(k=k)))
            for i, r in enumerate(out):
                for j, name in enumerate(names):
                    assert r.value(name) == expected[i, j]

    def test_random_cohorts_match_brute_force(self):
        rng = np.random.default_rng(199)
        for _ in range(10):
            cohort, names = random_missing_cohort(rng, n=12)
            expected = brute_force_knn_fill(cohort, names, 3)
            out = rows_of(impute(cohort, ImputationMethod.knn(k=3)))
            for i, r in enumerate(out):
                for j, name in enumerate(names):
                    assert r.value(name) == pytest.approx(expected[i, j], abs=1e-12)

    def test_k_equal_n_minus_one_is_observer_mean(self):
        rng = np.random.default_rng(211)
        cohort, names = random_missing_cohort(rng, n=14)
        knn_out = impute(cohort, ImputationMethod.knn(k=13))
        mean_out = impute(cohort, ImputationMethod.mean())
        for a, b in zip(rows_of(knn_out), rows_of(mean_out)):
            for name in names:
                assert a.value(name) == pytest.approx(b.value(name), abs=1e-12)

    def test_neighbor_expansion_walks_past_non_observers(self):
        cohort = cohort_of([
            rec("target", {"shared": 0.0, "goal": None}),
            rec("near1", {"shared": 0.1, "goal": None}),
            rec("near2", {"shared": 0.2, "goal": None}),
            rec("far", {"shared": 5.0, "goal": 42.0}),
        ])
        out = rows_of(impute(cohort, ImputationMethod.knn(k=2)))
        assert out[0].value("goal") == 42.0

    def test_no_finite_donor_falls_back_to_column_mean(self):
        cohort = cohort_of([
            rec("isolated", {"a": 1.0, "b": None}),
            rec("donor", {"b": 3.0}),  # shares no observed variable
            rec("donor2", {"b": 5.0}),
        ])
        out = rows_of(impute(cohort, ImputationMethod.knn(k=1)))
        assert out[0].value("b") == 4.0

    def test_distance_ties_break_on_earlier_record(self):
        cohort = cohort_of([
            rec("target", {"x": 0.0, "y": None}),
            rec("twin1", {"x": 1.0, "y": 10.0}),
            rec("twin2", {"x": 1.0, "y": 20.0}),
        ])
        out = rows_of(impute(cohort, ImputationMethod.knn(k=1)))
        assert out[0].value("y") == 10.0

    def test_distance_matrix_conventions(self):
        cohort = cohort_of([
            rec("a", {"x": 0.0, "y": 0.0}),
            rec("b", {"x": 1.0, "y": None}),
            rec("c", {"y": 1.0}),
        ])
        names = ["x", "y"]
        X = np.array([[0.0, 0.0], [1.0, np.nan], [np.nan, 1.0]])
        D = knn_distances(X, ~np.isnan(X))
        assert np.all(np.isinf(np.diag(D)))
        assert math.isinf(D[1, 2])  # no shared observed variable
        np.testing.assert_allclose(D, D.T)


class TestKnnAtScale:
    # SHA-256 of each kNN-imputed (k=5) preset cohort as written by
    # save_cohort, recorded from the all-pairs implementation; the fill must
    # keep every bit.
    @pytest.mark.parametrize(
        "name, sha256",
        [
            ("demo", "925aca06a60205f7dd6020d7c212264839c21040f1eeae66cfa997847a742336"),
            ("pediatric_icu",
             "465cb6f9e6e1065d0df0a64d11a70e81077a79b732f115639689c3987391c993"),
            ("adult_icu",
             "1fa71f229ee6f423032caea309ec57253fceb9b061e1d57f6cabf69bccdd9b9f"),
        ],
    )
    def test_imputed_preset_bytes_are_pinned(self, tmp_path, name, sha256):
        cohort, _, _ = preset_cohort(name)
        path = tmp_path / "imputed.csv"
        save_cohort(path, impute(cohort, ImputationMethod.knn(k=5)))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256

    def test_memory_stays_bounded_in_n(self):
        # an n x n float64 distance matrix alone would take 72 MB here
        cohort, _, _ = preset_cohort("adult_icu", n=3000, seed=7)
        tracemalloc.start()
        try:
            impute(cohort, ImputationMethod.knn(k=5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6


@st.composite
def tied_knn_cohorts(draw):
    """An n x m value matrix (NaN where missing) with every variable observed
    somewhere, and a k from 1 to n - 1.  Values are small integers, thirds or
    floats; rows are drawn from fewer distinct base rows, so records repeat,
    and one column may be constant (sd = 0): all three make distance ties."""
    m = draw(st.integers(1, 10))
    n = draw(st.integers(2, 12))
    value = draw(st.sampled_from([
        st.integers(-2, 2).map(float),
        # few distinct values, so ties, whose sums still round by order
        st.integers(-4, 4).map(lambda v: v / 3),
        st.floats(-5.0, 5.0, allow_nan=False, allow_subnormal=False),
    ]))
    base = draw(st.lists(st.lists(value, min_size=m, max_size=m),
                         min_size=1, max_size=n))
    picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=n, max_size=n))
    X = np.array([base[p] for p in picks])
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)),
                              max_size=n * m)):
        X[i, j] = np.nan
    constant = draw(st.integers(-1, m - 1))
    if constant >= 0:
        X[~np.isnan(X[:, constant]), constant] = 1.0
    for j in np.flatnonzero(np.isnan(X).all(axis=0)):
        X[draw(st.integers(0, n - 1)), j] = draw(value)
    return X, draw(st.integers(1, n - 1))


def records_of(X):
    names = [f"v{j}" for j in range(X.shape[1])]
    rows = [
        rec(f"r{i}", {name: None if np.isnan(v) else float(v)
                      for name, v in zip(names, row)})
        for i, row in enumerate(X)
    ]
    return cohort_of(rows), names


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tied_knn_cohorts())
def test_knn_fill_equals_the_oracle_bit_for_bit(instance):
    X, k = instance
    cohort, names = records_of(X)
    expected = brute_force_knn_fill(cohort, names, k)
    out = rows_of(impute(cohort, ImputationMethod.knn(k=k)))
    for i, r in enumerate(out):
        assert [r.value(name) for name in names] == expected[i].tolist()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tied_knn_cohorts())
def test_knn_distances_are_exactly_symmetric_and_match_the_oracle(instance):
    X, _ = instance
    D = knn_distances(X, ~np.isnan(X))
    np.testing.assert_array_equal(D, D.T)
    assert D.tolist() == brute_force_distances(X)


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_block_size_keeps_the_fill_bits(monkeypatch, rows):
    cohort, _, _ = preset_cohort("adult_icu")
    n = len(cohort)
    incomplete = sum(any(v is None for v in r.values.values()) for r in rows_of(cohort))
    assert imputation._BLOCK_BYTES // (8 * n) == 17  # rows of a default block
    default = impute(cohort, ImputationMethod.knn(k=5))

    calls = []
    kernel = imputation._block_distances

    def counted(Zt, obs_f, block):
        calls.append(len(block))
        return kernel(Zt, obs_f, block)

    monkeypatch.setattr(imputation, "_BLOCK_BYTES", 8 * n * rows)
    monkeypatch.setattr(imputation, "_block_distances", counted)
    blocked = impute(cohort, ImputationMethod.knn(k=5))
    # 1,075 incomplete records: blocks of 2 or 3 leave a last block of 1
    assert len(calls) == math.ceil(incomplete / rows)
    assert calls[:-1] == [rows] * (len(calls) - 1) and sum(calls) == incomplete
    assert [r.values for r in rows_of(blocked)] == [r.values for r in rows_of(default)]
