"""Objective oracles, gradient checks, projections, line search, and the fit loop."""
import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    BAND_ALL,
    band_label,
    cohort_of,
    mixed_definition,
    random_instance,
    rec,
    reference_z,
    rows_of,
)
from softscore.design import CohortDesign
from softscore.errors import ContractViolation, NumericError, ValidationError
from softscore.model import (
    MAX_VALUED,
    MIN_VALUED,
    FeatureStep,
    RawVariable,
    ScoreDefinition,
    ScoreParameters,
)
from softscore.optimizer import (
    FitTrace,
    OptimizerConfig,
    TraceStep,
    backtracking_step,
    fit,
    objective,
    objective_gradient,
    _pava_nondecreasing,
    project_slopes,
    project_thresholds,
)
from softscore.presets import preset, preset_cohort

LOG1PEXP_MINUS5 = 0.006715348489118068  # log(1 + e^-5)
LOG1PEXP_PLUS5 = 5.006715348489118  # log(1 + e^5)
NLL_ONLY = OptimizerConfig()  # weights stay fixed, so the objective is the NLL


def binary_only_definition(weight=5.0):
    flag = RawVariable("flag", "binary", "", (0.0, 1.0))
    from softscore.model import BinaryFeature

    return ScoreDefinition(
        "binary-only",
        (flag,),
        (BinaryFeature(flag, initial_weight=weight),),
        (BAND_ALL,),
    )


class TestOptimizerConfig:
    def test_optimize_over_must_be_known_kinds(self):
        with pytest.raises(ValidationError):
            OptimizerConfig(optimize_over=())
        with pytest.raises(ValidationError):
            OptimizerConfig(optimize_over=("a", "b"))
        with pytest.raises(ValidationError):
            OptimizerConfig(optimize_over=("a", "a"))

    def test_scalar_bounds(self):
        with pytest.raises(ValidationError):
            OptimizerConfig(prior_lambda=-0.1)
        with pytest.raises(ValidationError):
            OptimizerConfig(a_init=0.0)
        with pytest.raises(ValidationError):
            OptimizerConfig(rel_tol=0.0)
        with pytest.raises(ValidationError, match="^max_outer_iters must be >= 1$"):
            OptimizerConfig(max_outer_iters=0)

    def test_mu_vector(self):
        cfg = OptimizerConfig(prior_mu=0.5)
        np.testing.assert_array_equal(cfg.mu_vector(3), [0.5, 0.5, 0.5])
        cfg = OptimizerConfig(prior_mu=(0.1, 0.2))
        np.testing.assert_array_equal(cfg.mu_vector(2), [0.1, 0.2])
        with pytest.raises(ValidationError):
            cfg.mu_vector(3)


class TestObjectiveOracles:
    def test_all_missing_cohort_gives_n_log2(self):
        d = mixed_definition()
        p = ScoreParameters.initial(d)
        cohort = cohort_of(rec(f"r{i}", {}, outcome=1 if i % 2 else -1) for i in range(7))
        assert objective(p, CohortDesign(cohort, d), NLL_ONLY) == pytest.approx(
            7 * math.log(2), rel=1e-15
        )

    def test_single_record_scalar_values(self):
        d = binary_only_definition(weight=5.0)
        p = ScoreParameters.initial(d)
        positive = cohort_of([rec("p", {"flag": 1.0}, outcome=1)])
        negative = cohort_of([rec("n", {"flag": 1.0}, outcome=-1)])
        assert objective(p, CohortDesign(positive, d), NLL_ONLY) == pytest.approx(
            LOG1PEXP_MINUS5, rel=1e-12
        )
        assert objective(p, CohortDesign(negative, d), NLL_ONLY) == pytest.approx(
            LOG1PEXP_PLUS5, rel=1e-12
        )

    def test_invariant_under_record_reordering(self):
        rng = np.random.default_rng(53)
        d, p, cohort = random_instance(rng)
        value = objective(p, CohortDesign(cohort, d), NLL_ONLY)
        assert objective(
            p, CohortDesign(cohort_of(rows_of(cohort)[::-1]), d), NLL_ONLY
        ) == pytest.approx(value, rel=1e-14)

    def test_non_finite_score_raises(self):
        d = mixed_definition()
        p = ScoreParameters(d, np.array([0.0, 1.0, 1.0]),
                            np.array([4.0, 8.0, 8.0]), np.ones(4))
        bad = cohort_of([rec("r", {"lactate_max": math.inf}, outcome=1)])
        with np.errstate(invalid="ignore"), pytest.raises(NumericError):
            objective(p, CohortDesign(bad, d), NLL_ONLY)

    def test_penalty_vanishes_at_unit_weights_with_zero_lambda(self):
        rng = np.random.default_rng(59)
        d, p0, cohort = random_instance(rng)
        p = ScoreParameters(d, p0.slopes, p0.thresholds, np.ones(d.n_weights))
        cfg = OptimizerConfig(optimize_over=("w",), prior_lambda=0.0, prior_mu=0.0)
        assert objective(p, CohortDesign(cohort, d), cfg) == pytest.approx(
            objective(p, CohortDesign(cohort, d), NLL_ONLY), rel=1e-14
        )

    def test_quadratic_term_vanishes_at_w_equal_exp_mu(self):
        rng = np.random.default_rng(61)
        d, p0, cohort = random_instance(rng)
        mu = 0.5
        w = np.full(d.n_weights, math.exp(mu))
        p = ScoreParameters(d, p0.slopes, p0.thresholds, w)
        cfg = OptimizerConfig(optimize_over=("w",), prior_lambda=0.25, prior_mu=mu)
        expected = objective(p, CohortDesign(cohort, d), NLL_ONLY) + d.n_weights * mu
        assert objective(p, CohortDesign(cohort, d), cfg) == pytest.approx(
            expected, rel=1e-14
        )

    def test_matches_independent_recomputation(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            d, p, cohort = random_instance(rng)
            cfg = OptimizerConfig(
                optimize_over=("a", "t", "w"), prior_lambda=0.25, prior_mu=0.0
            )
            nll = 0.0
            for r in rows_of(cohort):
                z = reference_z(r, d, p)
                s = float(np.dot(p.weights, z))
                nll += math.log1p(math.exp(-r.outcome * s))
            v = np.log(p.weights)
            prior = float(np.sum(v) + 0.25 * np.sum(v**2))
            assert objective(
                p, CohortDesign(cohort, d), cfg
            ) == pytest.approx(nll + prior, rel=1e-10)
            # without "w" the prior is constant, and not part of the objective
            no_w = OptimizerConfig(optimize_over=("a", "t"), prior_lambda=0.25)
            assert objective(
                p, CohortDesign(cohort, d), no_w
            ) == pytest.approx(nll, rel=1e-10)


def _gradient_parts(p, design, cfg):
    """`objective_gradient` split into its slope, threshold and log-weight parts."""
    d = design.definition
    g = objective_gradient(p, design, cfg)
    return np.split(g, [d.n_slopes, d.n_slopes + d.n_thresholds])


def _fd_slope(d, p, cohort, j, cfg, h=1e-5):
    a_plus = np.array(p.slopes)
    a_minus = np.array(p.slopes)
    a_plus[j] += h
    a_minus[j] = max(a_minus[j] - h, 0.0)
    f_plus = objective(
        ScoreParameters(d, a_plus, p.thresholds, p.weights),
        CohortDesign(cohort, d),
        cfg,
    )
    f_minus = objective(
        ScoreParameters(d, a_minus, p.thresholds, p.weights),
        CohortDesign(cohort, d),
        cfg,
    )
    return (f_plus - f_minus) / (a_plus[j] - a_minus[j])


def _fd_threshold(d, p, cohort, m, cfg, h=1e-5):
    t_plus = np.array(p.thresholds)
    t_minus = np.array(p.thresholds)
    t_plus[m] += h
    t_minus[m] -= h
    f_plus = objective(
        ScoreParameters(d, p.slopes, t_plus, p.weights),
        CohortDesign(cohort, d),
        cfg,
    )
    f_minus = objective(
        ScoreParameters(d, p.slopes, t_minus, p.weights),
        CohortDesign(cohort, d),
        cfg,
    )
    return (f_plus - f_minus) / (2 * h)


def _fd_log_weight(d, p, cohort, j, cfg, h=1e-5):
    v = np.log(p.weights)
    v_plus = v.copy()
    v_minus = v.copy()
    v_plus[j] += h
    v_minus[j] -= h
    f_plus = objective(
        ScoreParameters(d, p.slopes, p.thresholds, np.exp(v_plus)),
        CohortDesign(cohort, d),
        cfg,
    )
    f_minus = objective(
        ScoreParameters(d, p.slopes, p.thresholds, np.exp(v_minus)),
        CohortDesign(cohort, d),
        cfg,
    )
    return (f_plus - f_minus) / (2 * h)


def _saturated_slope_cols(d, p, cohort, margin=30.0):
    """Slope columns with any record in the sigmoid's flat tails, where finite
    differences lose all precision."""
    bad = set()
    for r in rows_of(cohort):
        for fi, j in d.slope_index.items():
            x = r.value(d.features[fi].variable.name)
            if x is None:
                continue
            lab = band_label(d, fi, r.age_months)
            t = p.thresholds[d.threshold_index[(fi, lab)]]
            if abs(p.slopes[j] * (x - t)) > margin:
                bad.add(j)
    return bad


def _rel_err(analytic, numeric):
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-3)


class TestGradientFiniteDifferences:
    def test_slopes_thresholds_and_log_weights(self):
        rng = np.random.default_rng(71)
        cfg = OptimizerConfig(
            optimize_over=("a", "t", "w"), prior_lambda=0.25, prior_mu=0.0
        )
        instances = 0
        while instances < 15:
            d, p, cohort = random_instance(rng, n_records=10)
            spacing_ok = all(
                len(chain) < 2
                or np.min(np.abs(np.diff(p.thresholds[list(chain)]))) > 1e-3
                for _, chain in d.threshold_chains
            )
            if not spacing_ok or np.min(p.slopes) < 2e-5:
                continue
            instances += 1
            bad = _saturated_slope_cols(d, p, cohort)
            g_a, g_t, g_v = _gradient_parts(p, CohortDesign(cohort, d), cfg)
            for j in range(d.n_slopes):
                if j in bad:
                    continue
                assert _rel_err(g_a[j], _fd_slope(d, p, cohort, j, cfg)) < 1e-5
            bad_t = {
                m
                for fi, j in d.slope_index.items()
                if j in bad
                for (fi2, lab), m in d.threshold_index.items()
                if fi2 == fi
            }
            for m in range(d.n_thresholds):
                if m in bad_t:
                    continue
                assert _rel_err(g_t[m], _fd_threshold(d, p, cohort, m, cfg)) < 1e-5
            for j in range(d.n_weights):
                assert _rel_err(g_v[j], _fd_log_weight(d, p, cohort, j, cfg)) < 1e-5


class TestGradientStructure:
    def test_missing_feature_has_zero_gradient(self):
        d = mixed_definition()
        p = ScoreParameters(d, np.array([1.0, 1.0, 1.5]),
                            np.array([4.0, 8.0, 8.0]),
                            np.array([2.0, 3.0, 5.0, 4.0]))
        cohort = cohort_of([
            rec("a", {"lactate_max": 5.0, "gcs_min": None}, outcome=1),
            rec("b", {"lactate_max": 2.0}, outcome=-1),
        ])
        g_a, g_t, _ = _gradient_parts(p, CohortDesign(cohort, d), NLL_ONLY)
        assert g_a[2] == 0.0  # gcs never observed
        assert g_t[2] == 0.0

    def test_tiny_weight_kills_slope_gradient(self):
        d = mixed_definition(with_binary=False)
        w = np.array([1e-300, 1e-300, 2.0])
        p = ScoreParameters(d, np.ones(3), np.array([4.0, 8.0, 8.0]), w)
        cohort = cohort_of([
            rec("a", {"lactate_max": 5.0, "gcs_min": 6.0}, outcome=1),
            rec("b", {"lactate_max": 3.0, "gcs_min": 12.0}, outcome=-1),
        ])
        g = _gradient_parts(p, CohortDesign(cohort, d), NLL_ONLY)[0]
        assert abs(g[0]) < 1e-290 and abs(g[1]) < 1e-290
        assert abs(g[2]) > 1e-6

    def test_slope_gradient_sign_rule_single_records(self):
        """Each per-record slope-gradient term carries the sign of
        -y w (x - t) for up-steps and the opposite sign for down-steps."""
        rng = np.random.default_rng(73)
        up_var = RawVariable("u", MAX_VALUED, "", (-8.0, 8.0))
        down_var = RawVariable("v", MIN_VALUED, "", (-8.0, 8.0))
        for var, flip in ((up_var, 1.0), (down_var, -1.0)):
            d = ScoreDefinition(
                "single",
                (var,),
                (FeatureStep(var, 0, {"all": 0.0}, initial_weight=1.0),),
                (BAND_ALL,),
            )
            for _ in range(300):
                x = float(rng.uniform(-4, 4))
                t = float(rng.uniform(-4, 4))
                a = float(rng.uniform(0.05, 3.0))
                w = float(rng.uniform(0.1, 4.0))
                y = int(rng.choice((-1, 1)))
                p = ScoreParameters(d, np.array([a]), np.array([t]), np.array([w]))
                cohort = cohort_of([rec("r", {var.name: x}, age=1, outcome=y)])
                g = _gradient_parts(p, CohortDesign(cohort, d), NLL_ONLY)[0][0]
                expected = flip * (-y * w * (x - t))
                assert g * expected >= 0.0
                if abs(x - t) > 1e-6:
                    assert abs(g) > 0.0

    def test_threshold_gradient_negative_only_for_survivors_on_up_steps(self):
        rng = np.random.default_rng(79)
        var = RawVariable("u", MAX_VALUED, "", (-8.0, 8.0))
        d = ScoreDefinition(
            "single",
            (var,),
            (FeatureStep(var, 0, {"all": 0.0}, initial_weight=1.0),),
            (BAND_ALL,),
        )
        for _ in range(300):
            x = float(rng.uniform(-4, 4))
            t = float(rng.uniform(-4, 4))
            a = float(rng.uniform(0.05, 3.0))
            w = float(rng.uniform(0.1, 4.0))
            y = int(rng.choice((-1, 1)))
            p = ScoreParameters(d, np.array([a]), np.array([t]), np.array([w]))
            cohort = cohort_of([rec("r", {"u": x}, age=1, outcome=y)])
            g = _gradient_parts(p, CohortDesign(cohort, d), NLL_ONLY)[1][0]
            if y == -1:
                assert g <= 0.0
            else:
                assert g >= 0.0

    def test_log_weight_gradient_reduces_to_prior_without_signal(self):
        d = binary_only_definition(weight=math.exp(2.0))
        cohort = cohort_of([rec("a", {}, outcome=1), rec("b", {}, outcome=-1)])
        cfg = OptimizerConfig(optimize_over=("w",), prior_lambda=0.25, prior_mu=0.0)
        p = ScoreParameters.initial(d)
        g = _gradient_parts(p, CohortDesign(cohort, d), cfg)[2]
        # data term vanishes (z = 0 everywhere): 1 + 2*lambda*(v - mu) = 2
        assert g[0] == pytest.approx(2.0, rel=1e-12)
        # a config that keeps weights fixed leaves the prior out
        g = _gradient_parts(p, CohortDesign(cohort, d), NLL_ONLY)[2]
        assert g[0] == 0.0


class TestProjections:
    def test_slope_projection_clamps_and_is_idempotent(self):
        a = np.array([-1.0, 0.0, 2.5])
        out = project_slopes(a)
        np.testing.assert_array_equal(out, [0.0, 0.0, 2.5])
        np.testing.assert_array_equal(project_slopes(out), out)

    def _three_step_definition(self, kind=MAX_VALUED):
        v = RawVariable("x", kind, "", (-100.0, 300.0))
        sign = 1.0 if kind == MAX_VALUED else -1.0
        features = tuple(
            FeatureStep(v, s, {"all": sign * (s + 1.0)}, initial_weight=1.0)
            for s in range(3)
        )
        return ScoreDefinition("chain3", (v,), features, (BAND_ALL,))

    def test_ordered_chain_is_untouched(self):
        d = self._three_step_definition()
        t = np.array([100.0, 150.0, 151.0])
        np.testing.assert_array_equal(project_thresholds(t, d), t)

    def test_adjacent_violation_pools_to_mean(self):
        d = mixed_definition(with_binary=False)  # chain (0, 1) plus lone gcs entry
        t = np.array([150.0, 100.0, 8.0])
        out = project_thresholds(t, d)
        np.testing.assert_allclose(out, [125.0, 125.0, 8.0])

    def test_full_reversal_pools_everything(self):
        d = self._three_step_definition()
        out = project_thresholds(np.array([4.0, 2.0, 3.0]), d)
        np.testing.assert_allclose(out, [3.0, 3.0, 3.0])

    def test_partial_violation_pools_the_tail(self):
        d = self._three_step_definition()
        out = project_thresholds(np.array([1.0, 3.0, 2.0]), d)
        np.testing.assert_allclose(out, [1.0, 2.5, 2.5])

    def test_down_chain_projects_to_non_increasing(self):
        d = self._three_step_definition(kind=MIN_VALUED)
        out = project_thresholds(np.array([2.0, 3.0, 1.0]), d)
        np.testing.assert_allclose(out, [2.5, 2.5, 1.0])

    def test_idempotent_and_feasible_on_random_vectors(self):
        rng = np.random.default_rng(83)
        d = self._three_step_definition()
        for _ in range(200):
            t = rng.uniform(-10, 10, size=3)
            out = project_thresholds(t, d)
            assert np.all(np.diff(out) >= 0)
            np.testing.assert_array_equal(project_thresholds(out, d), out)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ContractViolation):
            project_thresholds(np.zeros(2), mixed_definition())

    def test_ordered_input_is_returned_as_a_copy_with_equal_bits(self):
        d = preset("pediatric_icu").definition()
        t = np.array(ScoreParameters.initial(d).thresholds)
        out = project_thresholds(t, d)
        assert out is not t
        assert out.tobytes() == t.tobytes()
        out[0] += 1.0
        assert out[0] != t[0]

    def test_only_the_chain_out_of_order_is_pooled(self):
        d = preset("pediatric_icu").definition()
        t = np.array(ScoreParameters.initial(d).thresholds)
        chains = [c for c in d.threshold_chains if len(c[1]) > 1]
        assert {direction for direction, _ in chains} == {"up", "down"}
        for direction, chain in chains:
            bad = t.copy()
            bad[chain[0]], bad[chain[1]] = t[chain[1]], t[chain[0]]
            out = project_thresholds(bad, d)
            pooled = (bad[chain[0]] + bad[chain[1]]) / 2.0
            np.testing.assert_array_equal(out[list(chain[:2])], [pooled, pooled])
            others = np.setdiff1d(np.arange(t.size), chain[:2])
            assert out[others].tobytes() == bad[others].tobytes()


def per_chain_pava(t, definition):
    """Pool adjacent violators on every chain, in order or not."""
    out = np.array(t, dtype=float)
    for direction, chain in definition.threshold_chains:
        if len(chain) < 2:
            continue
        idx = list(chain)
        if direction == "up":
            out[idx] = _pava_nondecreasing(out[idx])
        else:
            out[idx] = -_pava_nondecreasing(-out[idx])
    return out


_PEDIATRIC = preset("pediatric_icu").definition()
_PEDIATRIC_T = np.array(ScoreParameters.initial(_PEDIATRIC).thresholds)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    moved=st.dictionaries(
        st.integers(0, _PEDIATRIC.n_thresholds - 1),
        st.one_of(
            st.floats(-400.0, 400.0, allow_nan=False),
            st.sampled_from((0.0, -0.0, 7.2, 7.25, 7.3, 60.0, 150.0)),
        ),
        max_size=6,
    )
)
def test_threshold_projection_matches_per_chain_pava(moved):
    """Table thresholds with a few entries moved: in order (nothing moved, or
    moved within their chain's gaps), with ties, or with violations in one
    or several chains, the projection gives the bits of pooling every chain.
    It pools each chain out of order once and no other, and every chain in
    order keeps its exact bytes."""
    t = _PEDIATRIC_T.copy()
    for i, value in moved.items():
        t[i] = value
    with mock.patch(
        "softscore.optimizer._pava_nondecreasing", wraps=_pava_nondecreasing
    ) as pava:
        out = project_thresholds(t, _PEDIATRIC)
    assert out.tobytes() == per_chain_pava(t, _PEDIATRIC).tobytes()
    in_order = {}
    for direction, chain in _PEDIATRIC.threshold_chains:
        vals = t[list(chain)]
        step = np.diff(vals) if direction == "up" else -np.diff(vals)
        in_order[chain] = bool(np.all(step >= 0))
    assert pava.call_count == list(in_order.values()).count(False)
    for chain, ok in in_order.items():
        if ok:
            assert out[list(chain)].tobytes() == t[list(chain)].tobytes()


class TestBacktracking:
    def test_quadratic_oracle(self):
        # f(x) = x^2 at x = 1 along d = -2: h = 1 fails the Armijo test
        # (f = 1 > 1 - 0.2*4), h = 0.5 lands at the minimum (0 <= 1 - 0.4).
        h = backtracking_step(lambda x: float(x[0] ** 2), np.array([1.0]), 1.0,
                              np.array([-2.0]))
        assert h == 0.5

    def test_returns_zero_when_no_step_decreases(self):
        h = backtracking_step(lambda x: float(x[0]), np.array([0.0]), 0.0,
                              np.array([1.0]))
        assert h == 0.0

    def test_unit_step_accepted_when_sufficient(self):
        # f(x) = x^2 at x = 1 along d = -1: f(0) = 0 <= 1 - 0.2 * 1.
        h = backtracking_step(lambda x: float(x[0] ** 2), np.array([1.0]), 1.0,
                              np.array([-1.0]))
        assert h == 1.0

    def test_armijo_inequality_holds_on_random_quadratics(self):
        rng = np.random.default_rng(89)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            q = rng.uniform(0.5, 3.0, size=n)
            x0 = rng.uniform(-2, 2, size=n)

            def f(x):
                return float(np.sum(q * x * x))

            g = 2 * q * x0
            h = backtracking_step(f, x0, f(x0), -g)
            if h > 0:
                assert f(x0 - h * g) <= f(x0) - 0.2 * h * float(g @ g) + 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            backtracking_step(lambda x: 0.0, np.zeros(2), 0.0, np.zeros(3))

    def test_objective_is_never_evaluated_at_the_start_point(self):
        # The caller passes f(x); every evaluation is at a trial point.
        x0 = np.array([1.0, -2.0])
        seen = []

        def f(x):
            seen.append(np.array(x))
            return float(x @ x)

        h = backtracking_step(f, x0, 5.0, np.array([-2.0, 4.0]))
        assert h == 0.5
        assert len(seen) == 2
        assert not any(np.array_equal(x, x0) for x in seen)


def signal_cohort(rng, d, p, n=60):
    """Cohort drawn so higher true scores mean likelier positive outcomes."""
    records = []
    for i in range(n):
        values = {}
        for v in d.variables:
            if rng.uniform() < 0.15:
                values[v.name] = None
            elif v.kind == "binary":
                values[v.name] = float(rng.integers(0, 2))
            else:
                values[v.name] = float(rng.uniform(-6.0, 6.0))
        records.append(
            rec(f"s{i}", values, age=int(rng.integers(0, 1200)), outcome=-1)
        )
    s = CohortDesign(cohort_of(records), d).scores_for(p)
    probs = 1.0 / (1.0 + np.exp(-(s - np.median(s))))
    out = []
    for r, pr in zip(records, probs):
        y = 1 if rng.uniform() < pr else -1
        out.append(r._replace(outcome=y))
    if not any(r.outcome == 1 for r in out):
        out[0] = out[0]._replace(outcome=1)
    if not any(r.outcome == -1 for r in out):
        out[1] = out[1]._replace(outcome=-1)
    return cohort_of(out)


class TestFit:
    def test_single_class_cohort_rejected(self):
        d = mixed_definition()
        cohort = cohort_of([rec("a", {}, outcome=-1), rec("b", {}, outcome=-1)])
        with pytest.raises(ValidationError):
            fit(CohortDesign(cohort, d), OptimizerConfig())

    def test_trace_decreases_across_optimize_sets(self):
        rng = np.random.default_rng(97)
        for over in (("a",), ("w",), ("a", "t"), ("a", "w")):
            d, p_true, _ = random_instance(rng, n_records=2)
            cohort = signal_cohort(rng, d, p_true, n=50)
            cfg = OptimizerConfig(optimize_over=over, max_outer_iters=40)
            params, trace = fit(CohortDesign(cohort, d), cfg)
            assert trace.final_objective <= trace.initial_objective
            prev = trace.initial_objective
            for step in trace.steps:
                assert step.objective_after < step.objective_before <= prev
                prev = step.objective_after
            assert np.all(params.slopes >= 0)
            assert np.all(params.weights > 0)
            for direction, chain in d.threshold_chains:
                vals = params.thresholds[list(chain)]
                sign = 1.0 if direction == "up" else -1.0
                assert np.all(sign * np.diff(vals) >= 0)

    def test_fixed_kinds_stay_at_initialization(self):
        rng = np.random.default_rng(101)
        d, p_true, _ = random_instance(rng, n_records=2)
        cohort = signal_cohort(rng, d, p_true, n=50)
        cfg = OptimizerConfig(optimize_over=("a",), max_outer_iters=25)
        params, _ = fit(CohortDesign(cohort, d), cfg)
        init = ScoreParameters.initial(d, cfg.a_init)
        np.testing.assert_array_equal(params.thresholds, init.thresholds)
        np.testing.assert_array_equal(params.weights, init.weights)

    def test_weights_move_on_signal_bearing_cohort(self):
        rng = np.random.default_rng(103)
        d, p_true, _ = random_instance(rng, n_records=2)
        cohort = signal_cohort(rng, d, p_true, n=60)
        cfg = OptimizerConfig(optimize_over=("a", "w"), max_outer_iters=60)
        params, trace = fit(CohortDesign(cohort, d), cfg)
        init = ScoreParameters.initial(d, cfg.a_init)
        assert not np.array_equal(params.weights, init.weights)
        assert not np.array_equal(params.slopes, init.slopes)
        assert trace.final_objective < trace.initial_objective

    def test_initial_objective_matches_active_objective(self):
        """The trace's initial and final objectives are `objective` at the
        initial and the fitted parameters, with and without the prior."""
        rng = np.random.default_rng(107)
        d, p_true, _ = random_instance(rng, n_records=2)
        cohort = signal_cohort(rng, d, p_true, n=40)
        design = CohortDesign(cohort, d)
        init = ScoreParameters.initial(d, 0.01)
        for over in (("a",), ("a", "t"), ("a", "w"), ("a", "t", "w")):
            cfg = OptimizerConfig(optimize_over=over, max_outer_iters=10)
            params, trace = fit(design, cfg)
            assert trace.final_objective < trace.initial_objective
            assert trace.initial_objective == pytest.approx(
                objective(init, design, cfg), rel=1e-14
            )
            assert trace.final_objective == pytest.approx(
                objective(params, design, cfg), rel=1e-12
            )

    def test_deterministic_rerun_is_bit_identical(self):
        rng = np.random.default_rng(109)
        d, p_true, _ = random_instance(rng, n_records=2)
        cohort = signal_cohort(rng, d, p_true, n=50)
        cfg = OptimizerConfig(optimize_over=("a", "w"), max_outer_iters=30)
        params1, trace1 = fit(CohortDesign(cohort, d), cfg)
        params2, trace2 = fit(CohortDesign(cohort, d), cfg)
        np.testing.assert_array_equal(params1.slopes, params2.slopes)
        np.testing.assert_array_equal(params1.thresholds, params2.thresholds)
        np.testing.assert_array_equal(params1.weights, params2.weights)
        assert trace1.steps == trace2.steps
        assert trace1.final_objective == trace2.final_objective
        assert trace1.stall_count == trace2.stall_count

    def test_unobserved_feature_is_frozen_with_warning(self):
        d = mixed_definition()
        cohort = cohort_of([
            rec("a", {"lactate_max": 7.0, "gcs_min": 5.0}, outcome=1),
            rec("b", {"lactate_max": 2.0, "gcs_min": 13.0}, outcome=-1),
            rec("c", {"lactate_max": 6.0, "gcs_min": 9.0}, outcome=1),
            rec("d", {"lactate_max": 1.0, "gcs_min": 14.0}, outcome=-1),
        ])  # pupils_fixed never observed
        cfg = OptimizerConfig(optimize_over=("a", "w"), max_outer_iters=30)
        params, trace = fit(CohortDesign(cohort, d), cfg)
        assert any("pupils_fixed" in w for w in trace.warnings)
        init = ScoreParameters.initial(d, cfg.a_init)
        assert params.weights[3] == init.weights[3]

    def test_identity_projection_reuses_the_accepted_trial(self, monkeypatch):
        # Log-weight steps are never projected, so after the initial
        # objective every evaluation is a trial point of some line search.
        import softscore.optimizer as optimizer

        rng = np.random.default_rng(109)
        d, p_true, _ = random_instance(rng, n_records=2)
        cohort = signal_cohort(rng, d, p_true, n=50)
        counts = {"trials": 0, "evals": 0}
        search = optimizer.backtracking_step
        nll = CohortDesign.nll_of_scores

        def counting_search(objective, *args, **kwargs):
            def counted(x):
                counts["trials"] += 1
                return objective(x)

            return search(counted, *args, **kwargs)

        def counting_nll(self, s):
            counts["evals"] += 1
            return nll(self, s)

        monkeypatch.setattr(optimizer, "backtracking_step", counting_search)
        monkeypatch.setattr(CohortDesign, "nll_of_scores", counting_nll)
        cfg = OptimizerConfig(optimize_over=("w",), max_outer_iters=20)
        _, trace = fit(CohortDesign(cohort, d), cfg)
        assert len(trace.steps) > 0
        assert counts["evals"] == 1 + counts["trials"]

    def test_block_state_is_built_once_per_fit(self, monkeypatch):
        """A fit slices each step block once and reads the feature matrix
        once: one ``z_matrix`` call, one ``step_diff`` per step block, and
        per step block one ``_StepBlock`` held by the fit and one inside
        its ``step_diff``, plus one each inside ``z_matrix`` and the
        initial ``scores``."""
        import softscore.design as design_module
        import softscore.optimizer as optimizer

        counts = {"_StepBlock": 0, "z_matrix": 0, "step_diff": 0}
        block_class = design_module._StepBlock

        class CountedBlock(block_class):
            __slots__ = ()

            def __init__(self, *args):
                counts["_StepBlock"] += 1
                super().__init__(*args)

        def counted(name):
            method = getattr(CohortDesign, name)

            def wrapper(self, *args):
                counts[name] += 1
                return method(self, *args)

            return wrapper

        cohort, _, _ = preset_cohort("pediatric_icu")
        d = preset("pediatric_icu").definition()
        design = CohortDesign(cohort, d)
        n_step_blocks = len(optimizer._build_blocks(d)["t"])
        monkeypatch.setattr(design_module, "_StepBlock", CountedBlock)
        monkeypatch.setattr(optimizer, "_StepBlock", CountedBlock)
        for name in ("z_matrix", "step_diff"):
            monkeypatch.setattr(CohortDesign, name, counted(name))
        cfg = OptimizerConfig(optimize_over=("a", "t", "w"), max_outer_iters=20)
        _, trace = fit(design, cfg)
        assert trace.outer_iterations == 20
        assert counts["z_matrix"] == 1
        assert counts["step_diff"] == n_step_blocks
        assert counts["_StepBlock"] <= 2 * n_step_blocks + 2

    def test_searches_without_a_step_stall_at_the_initial_parameters(
        self, monkeypatch
    ):
        searches = []

        def no_step(f, x0, f0, direction):
            searches.append(f0)
            return 0.0

        monkeypatch.setattr("softscore.optimizer.backtracking_step", no_step)
        d, _, cohort = random_instance(np.random.default_rng(107), n_records=30)
        design = CohortDesign(cohort, d)
        cfg = OptimizerConfig(optimize_over=("a", "t", "w"))
        params, trace = fit(design, cfg)
        init = ScoreParameters.initial(d, cfg.a_init)
        for got, want in zip(
            (params.slopes, params.thresholds, params.weights),
            (init.slopes, init.thresholds, init.weights),
        ):
            np.testing.assert_array_equal(got, want)
        assert trace.steps == ()
        assert len(searches) > 0 and trace.stall_count == len(searches)
        assert trace.outer_iterations == 1
        assert trace.final_objective == trace.initial_objective
        assert trace.final_objective == objective(params, design, cfg)

    def test_converges_by_tolerance_on_easy_instance(self):
        d = binary_only_definition(weight=2.0)
        rows = [rec(f"p{i}", {"flag": 1.0}, outcome=1) for i in range(5)]
        rows += [rec(f"n{i}", {"flag": 0.0}, outcome=-1) for i in range(5)]
        params, trace = fit(
            CohortDesign(cohort_of(rows), d), OptimizerConfig(optimize_over=("w",))
        )
        assert trace.converged_reason == "relative decrease below tolerance"
        assert trace.outer_iterations < 500


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    order=st.permutations(("a", "t", "w")),
)
def test_tracked_objective_is_the_objective_of_the_fitted_parameters(seed, order):
    """The fit tracks its objective from block state it keeps between steps
    (each block's x - t and the feature matrix z); the value it reports must
    be `objective` at the parameters it returns, whatever the kind order."""
    d, _, cohort = random_instance(np.random.default_rng(seed), n_records=30)
    design = CohortDesign(cohort, d)
    cfg = OptimizerConfig(optimize_over=tuple(order), max_outer_iters=15)
    params, trace = fit(design, cfg)
    assert trace.final_objective == pytest.approx(
        objective(params, design, cfg), rel=1e-12
    )


class TestFitPinned:
    """Fits pinned bit for bit: final objective, accepted steps, stalls, and
    the (kind, block) order of the trace.

    The two parametrized cases optimize all three kinds in a non-default
    order on ``pediatric_icu`` cohorts whose pupils
    feature is never observed (so its weight stays frozen).  On the preset's
    outcomes the isotonic projection moves thresholds across age bands; with
    the outcomes reversed, slopes are projected back to zero and searches
    stall.  The pediatric default case pins the fit the benchmark's
    ``pediatric_cv`` runs; the adult cases pin the a,w fit of the default
    ``adult_icu`` cohort and a capped w,t,a fit of it.
    """

    @pytest.mark.parametrize(
        "n, seed, reverse, final_hex, accepted, stalls, sequence_sha256",
        [
            (217, 3, False, "0x1.218ad53f8ea81p+7", 720, 0,
             "030b5f69ea25d81610297f31a8034d5ec611fff93fd400954ba9a1d92d1830f1"),
            (150, 2, True, "0x1.c44f09ad8c209p+5", 331, 193,
             "4fa70ed0748d6f3607526e33678c44fd710b8e31abec90a24df58b89ea043eb9"),
        ],
    )
    def test_trace_matches_recorded_fit(self, n, seed, reverse, final_hex,
                                        accepted, stalls, sequence_sha256):
        cohort, _, _ = preset_cohort("pediatric_icu", n=n, seed=seed)
        cohort = cohort_of(
            r._replace(outcome=-r.outcome if reverse else r.outcome,
                       values={**r.values, "pupils_fixed": None})
            for r in rows_of(cohort)
        )
        cfg = OptimizerConfig(optimize_over=("t", "w", "a"), max_outer_iters=40)
        _, trace = fit(CohortDesign(cohort, preset("pediatric_icu").definition()), cfg)
        sequence = "\n".join(f"{s.kind} {s.block}" for s in trace.steps)
        assert trace.final_objective.hex() == final_hex
        assert len(trace.steps) == accepted
        assert trace.stall_count == stalls
        assert hashlib.sha256(sequence.encode()).hexdigest() == sequence_sha256
        assert any("pupils_fixed" in w for w in trace.warnings)

    def test_pediatric_default_fit_matches_recorded_fit(self):
        """The benchmark's own fit: a,t,w in the default order on the default
        ``pediatric_icu`` cohort (n=217), which runs to the 500-cycle cap."""
        cohort, _, _ = preset_cohort("pediatric_icu")
        design = CohortDesign(cohort, preset("pediatric_icu").definition())
        _, trace = fit(design, OptimizerConfig(optimize_over=("a", "t", "w")))
        sequence = "\n".join(f"{s.kind} {s.block}" for s in trace.steps)
        assert trace.final_objective.hex() == "0x1.18d20c04d8ac1p+7"
        assert trace.final_objective == 140.41024794716762
        assert len(trace.steps) == 9497
        assert trace.stall_count == 3
        assert trace.outer_iterations == 500 and trace.stopped_at_cap
        assert hashlib.sha256(sequence.encode()).hexdigest() == (
            "05efd24962c4afb676b287410cda6c3646bfe528b09331707318e078b7ec9027"
        )

    def test_adult_slope_and_weight_fit_matches_recorded_fit(self):
        """The paper's adult protocol: a,w on the default ``adult_icu`` cohort
        (n=3711), where every kernel call works on arrays of thousands of
        records and the fit converges before the iteration cap."""
        cohort, _, _ = preset_cohort("adult_icu")
        design = CohortDesign(cohort, preset("adult_icu").definition())
        _, trace = fit(design, OptimizerConfig(optimize_over=("a", "w")))
        sequence = "\n".join(f"{s.kind} {s.block}" for s in trace.steps)
        assert trace.final_objective.hex() == "0x1.4612a9a2a2456p+11"
        assert len(trace.steps) == 770
        assert trace.stall_count == 34
        assert trace.outer_iterations == 67
        assert hashlib.sha256(sequence.encode()).hexdigest() == (
            "086ec942a150b3534a77c75ed5ebc2c199202da89bc2b176cf49c61d18e6a37f"
        )

    def test_adult_threshold_and_weight_fit_matches_recorded_fit(self):
        """a,t,w on the default ``adult_icu`` cohort for 30 cycles in the
        order w, t, a: threshold steps in 4-step blocks, each followed by
        the slope and weight steps that read the block state they leave."""
        cohort, _, _ = preset_cohort("adult_icu")
        design = CohortDesign(cohort, preset("adult_icu").definition())
        cfg = OptimizerConfig(optimize_over=("w", "t", "a"), max_outer_iters=30)
        _, trace = fit(design, cfg)
        sequence = "\n".join(f"{s.kind} {s.block}" for s in trace.steps)
        assert trace.final_objective.hex() == "0x1.41e5186c7e0dfp+11"
        assert len(trace.steps) == 510
        assert trace.stall_count == 0
        assert trace.outer_iterations == 30
        assert hashlib.sha256(sequence.encode()).hexdigest() == (
            "4cdec9de3442cf9c56938f714da4dc14931333d28d1e99c9bd0ccaa35e766d52"
        )


class TestFitTraceContract:
    def test_rejects_increasing_sequences(self):
        good = TraceStep(1, "a", "x", 10.0, 9.0, 1.0)
        bad = TraceStep(1, "a", "x", 9.0, 9.5, 1.0)
        FitTrace((good,), 10.0, 9.0, 1, "max outer iterations")
        with pytest.raises(ContractViolation):
            FitTrace((bad,), 9.0, 9.5, 1, "max outer iterations")

    def test_rejects_final_above_initial(self):
        with pytest.raises(ContractViolation):
            FitTrace((), 5.0, 6.0, 1, "max outer iterations")
