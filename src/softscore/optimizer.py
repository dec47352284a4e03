"""Penalized likelihood objective and projected block coordinate descent.

Slopes, thresholds, and weights are updated block by block, one raw variable
at a time.  Every kind takes the same block step: a backtracking (Armijo)
line search along the negative block gradient, started from the objective
value the fit already holds, then a projection back onto the feasible set,
then acceptance only if the objective decreased (otherwise a stall is
counted).  Slopes are projected to be non-negative, thresholds (by pool
adjacent violators) to keep the step order of the definition within every
age band; log-weights are unconstrained.  Weights are optimized in the log
domain, where the lognormal prior adds log-weight and squared-deviation
terms to the objective; those prior terms are part of the objective only
while weights are being optimized (they are constant otherwise).
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .design import CohortDesign
from .errors import ContractViolation, NumericError, ValidationError
from .model import (
    PatientRecord,
    ScoreDefinition,
    ScoreParameters,
    UP,
)
from .numerics import sigmoid

logger = logging.getLogger("softscore")

KINDS = ("a", "t", "w")
MAX_HALVINGS = 60


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs of the block coordinate descent.

    ``optimize_over`` selects which parameter kinds move; ``alternating_order``
    (default: the order given in ``optimize_over``) fixes the cycle: one full
    pass over all blocks of the first kind, then the next, repeated until the
    relative objective decrease over a whole cycle falls below ``rel_tol``.
    ``beta_thresholds`` optionally gives threshold searches a gentler halving
    factor than the default ``beta``.
    """

    optimize_over: tuple[str, ...] = ("a",)
    alternating_order: Optional[tuple[str, ...]] = None
    alpha: float = 0.2
    beta: float = 0.5
    beta_thresholds: Optional[float] = None
    prior_mu: float | tuple[float, ...] = 0.0
    prior_lambda: float = 0.25
    a_init: float = 0.01
    max_outer_iters: int = 500
    rel_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        over = tuple(self.optimize_over)
        if not over or any(k not in KINDS for k in over) or len(set(over)) != len(over):
            raise ValidationError(
                f"optimize_over must be a non-empty subset of {KINDS}, got {over!r}"
            )
        object.__setattr__(self, "optimize_over", over)
        if self.alternating_order is not None:
            order = tuple(self.alternating_order)
            if not order or set(order) != set(over):
                raise ValidationError(
                    "alternating_order must cover exactly the kinds in optimize_over"
                )
            object.__setattr__(self, "alternating_order", order)
        if not (0 < self.alpha < 1):
            raise ValidationError("alpha must lie in (0, 1)")
        if not (0 < self.beta < 1):
            raise ValidationError("beta must lie in (0, 1)")
        if self.beta_thresholds is not None and not (0 < self.beta_thresholds < 1):
            raise ValidationError("beta_thresholds must lie in (0, 1)")
        if not (self.prior_lambda >= 0):
            raise ValidationError("prior_lambda must be >= 0")
        if not (self.a_init > 0):
            raise ValidationError("a_init must be positive")
        if self.max_outer_iters < 1:
            raise ValidationError("max_outer_iters must be >= 1")
        if not (self.rel_tol > 0):
            raise ValidationError("rel_tol must be positive")
        if not isinstance(self.prior_mu, (int, float)):
            object.__setattr__(self, "prior_mu", tuple(float(m) for m in self.prior_mu))

    @property
    def order(self) -> tuple[str, ...]:
        return self.alternating_order or self.optimize_over

    def beta_for(self, kind: str) -> float:
        if kind == "t" and self.beta_thresholds is not None:
            return self.beta_thresholds
        return self.beta

    def mu_vector(self, n_weights: int) -> np.ndarray:
        if isinstance(self.prior_mu, (int, float)):
            return np.full(n_weights, float(self.prior_mu))
        mu = np.asarray(self.prior_mu, dtype=float)
        if mu.shape != (n_weights,):
            raise ValidationError(
                f"prior_mu must be scalar or length {n_weights}, got shape {mu.shape}"
            )
        return mu


@dataclass(frozen=True)
class TraceStep:
    """One accepted block update."""

    outer_iteration: int
    kind: str
    block: str
    objective_before: float
    objective_after: float
    step_size: float


@dataclass(frozen=True)
class FitTrace:
    """Record of a fit: accepted steps, convergence, and data warnings."""

    steps: tuple[TraceStep, ...]
    initial_objective: float
    final_objective: float
    outer_iterations: int
    converged_reason: str
    warnings: tuple[str, ...] = ()
    stall_count: int = 0

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        object.__setattr__(self, "warnings", tuple(self.warnings))
        prev = self.initial_objective
        for s in self.steps:
            if not (s.objective_after < s.objective_before <= prev):
                raise ContractViolation("trace objective sequence must be decreasing")
            prev = s.objective_after
        if not (self.final_objective <= self.initial_objective):
            raise ContractViolation("final objective exceeds the initial objective")


# ----------------------------------------------------------------------
# projections and line search
# ----------------------------------------------------------------------


def project_slopes(a: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the non-negative orthant."""
    return np.maximum(np.asarray(a, dtype=float), 0.0)


def _pava_nondecreasing(vals: np.ndarray) -> np.ndarray:
    """Pool adjacent violators, unit weights, non-decreasing output."""
    means: list[float] = []
    counts: list[int] = []
    for v in vals:
        means.append(float(v))
        counts.append(1)
        while len(means) > 1 and means[-2] > means[-1]:
            m2, c2 = means.pop(), counts.pop()
            m1, c1 = means.pop(), counts.pop()
            c = c1 + c2
            means.append((m1 * c1 + m2 * c2) / c)
            counts.append(c)
    out = np.empty(len(vals))
    pos = 0
    for m, c in zip(means, counts):
        out[pos : pos + c] = m
        pos += c
    return out


def project_thresholds(t: np.ndarray, definition: ScoreDefinition) -> np.ndarray:
    """Per (variable, age band) Euclidean projection onto the order cone.

    For max-valued variables successive step thresholds must stay
    non-decreasing, for min-valued non-increasing; violating runs collapse to
    their mean (steps are allowed to merge).  Entries already in order are
    returned unchanged.
    """
    t = np.array(t, dtype=float)
    if t.shape != (definition.n_thresholds,):
        raise ContractViolation(
            f"thresholds: expected shape ({definition.n_thresholds},), got {t.shape}"
        )
    for direction, chain in definition.threshold_chains:
        if len(chain) < 2:
            continue
        idx = list(chain)
        vals = t[idx]
        if direction == UP:
            t[idx] = _pava_nondecreasing(vals)
        else:
            t[idx] = -_pava_nondecreasing(-vals)
    return t


def backtracking_step(
    objective: Callable[[np.ndarray], float],
    x: np.ndarray,
    f0: float,
    direction: np.ndarray,
    alpha: float,
    beta: float,
    max_halvings: int = MAX_HALVINGS,
) -> float:
    """Largest h in {1, beta, beta^2, ...} with sufficient decrease.

    ``f0`` is objective(x), which the caller already holds; ``objective`` is
    only evaluated at trial points.  Accepts h when
    objective(x + h d) <= f0 - alpha h ||d||^2 and returns 0.0 once
    ``max_halvings`` reductions were tried without success.
    """
    x = np.asarray(x, dtype=float)
    d = np.asarray(direction, dtype=float)
    if x.shape != d.shape:
        raise ContractViolation("direction must match the point's shape")
    d2 = float(np.dot(d, d))
    h = 1.0
    for _ in range(max_halvings + 1):
        if objective(x + h * d) <= f0 - alpha * h * d2:
            return h
        h *= beta
    return 0.0


# ----------------------------------------------------------------------
# objective and gradients
# ----------------------------------------------------------------------


class _Engine:
    """Raw-array objective and gradient evaluations over one cohort design."""

    def __init__(self, design: CohortDesign, mu: np.ndarray, lam: float):
        self.design = design
        self.mu = mu
        self.lam = lam

    def nll(self, a, t, w) -> float:
        return self.design.nll_of_scores(self.design.scores(a, t, w))

    def prior(self, v: np.ndarray) -> float:
        return float(np.sum(v) + self.lam * np.sum((v - self.mu) ** 2))

    def dloss(self, s: np.ndarray) -> np.ndarray:
        """Per-record derivative of the loss with respect to the score."""
        y = self.design.y
        return -y * sigmoid(-y * s)

    def grad_a_cols(self, s, a, t, w, cols) -> np.ndarray:
        de = self.design
        z = de.step_z(a, t, cols)
        sp = z * (1.0 - z)
        diff = de.step_diff(t, cols)
        sign = np.where(de.step_up[cols], 1.0, -1.0)
        dl = self.dloss(s)
        return (dl @ (diff * sp)) * w[de.step_wcol[cols]] * sign

    def grad_t_restricted(self, s, a, t, w, cols) -> np.ndarray:
        """Full-length threshold gradient with contributions from ``cols`` only."""
        de = self.design
        z = de.step_z(a, t, cols)
        sp = z * (1.0 - z)
        sign = np.where(de.step_up[cols], 1.0, -1.0)
        coef = w[de.step_wcol[cols]] * (-sign) * a[cols]
        term = self.dloss(s)[:, None] * coef * sp
        return np.bincount(
            de.t_index[:, cols].ravel(),
            weights=term.ravel(),
            minlength=self.design.definition.n_thresholds,
        )

    def z_columns(self, a, t, fcols) -> np.ndarray:
        """Feature matrix columns for the given weight (feature) indices."""
        de = self.design
        d = de.definition
        out = np.empty((de.n, len(fcols)))
        bin_pos = {fi: b for b, fi in enumerate(d.binary_feature_indices)}
        for pos, fi in enumerate(fcols):
            if fi in d.slope_index:
                out[:, pos] = de.step_z(a, t, np.array([d.slope_index[fi]]))[:, 0]
            else:
                out[:, pos] = de.bin_z[:, bin_pos[fi]]
        return out

    def grad_v_cols(self, s, v, w, zsub, fcols) -> np.ndarray:
        data = (zsub.T @ self.dloss(s)) * w[fcols]
        return data + 1.0 + 2.0 * self.lam * (v[fcols] - self.mu[fcols])


def _engine_for(
    cohort: Sequence[PatientRecord],
    definition: ScoreDefinition,
    config: Optional[OptimizerConfig] = None,
) -> _Engine:
    design = CohortDesign(cohort, definition)
    cfg = config or OptimizerConfig()
    return _Engine(design, cfg.mu_vector(definition.n_weights), cfg.prior_lambda)


def negative_log_likelihood(
    params: ScoreParameters,
    cohort: Sequence[PatientRecord],
    definition: ScoreDefinition,
) -> float:
    """Sum over the cohort of log(1 + exp(-y w'z))."""
    eng = _engine_for(cohort, definition)
    value = eng.nll(params.slopes, params.thresholds, params.weights)
    if not np.isfinite(value):
        raise NumericError("negative log-likelihood is not finite")
    return value


def penalized_objective(
    params: ScoreParameters,
    cohort: Sequence[PatientRecord],
    definition: ScoreDefinition,
    config: OptimizerConfig,
) -> float:
    """NLL plus the lognormal weight penalty: sum(log w) + lambda ||log w - mu||^2."""
    eng = _engine_for(cohort, definition, config)
    v = np.log(params.weights)
    value = eng.nll(params.slopes, params.thresholds, params.weights) + eng.prior(v)
    if not np.isfinite(value):
        raise NumericError("penalized objective is not finite")
    return value


def gradient_slopes(
    params: ScoreParameters,
    cohort: Sequence[PatientRecord],
    definition: ScoreDefinition,
) -> np.ndarray:
    """d NLL / d a, one entry per step feature; missing cells contribute 0."""
    eng = _engine_for(cohort, definition)
    a, t, w = params.slopes, params.thresholds, params.weights
    s = eng.design.scores(a, t, w)
    cols = np.arange(definition.n_slopes)
    return eng.grad_a_cols(s, a, t, w, cols)


def gradient_thresholds(
    params: ScoreParameters,
    cohort: Sequence[PatientRecord],
    definition: ScoreDefinition,
) -> np.ndarray:
    """d NLL / d t; each age-band entry collects only patients in that band."""
    eng = _engine_for(cohort, definition)
    a, t, w = params.slopes, params.thresholds, params.weights
    s = eng.design.scores(a, t, w)
    cols = np.arange(definition.n_slopes)
    return eng.grad_t_restricted(s, a, t, w, cols)


def gradient_log_weights(
    params: ScoreParameters,
    cohort: Sequence[PatientRecord],
    definition: ScoreDefinition,
    config: OptimizerConfig,
) -> np.ndarray:
    """Gradient in v = log w of NLL plus prior, including 1 + 2 lambda (v - mu)."""
    eng = _engine_for(cohort, definition, config)
    a, t, w = params.slopes, params.thresholds, params.weights
    v = np.log(w)
    s = eng.design.scores(a, t, w)
    fcols = np.arange(definition.n_weights)
    zsub = eng.design.z_matrix(a, t)
    return eng.grad_v_cols(s, v, w, zsub, fcols)


# ----------------------------------------------------------------------
# fit
# ----------------------------------------------------------------------


def fit(
    cohort: Sequence[PatientRecord],
    definition: ScoreDefinition,
    config: OptimizerConfig,
) -> tuple[ScoreParameters, FitTrace]:
    """Projected block coordinate descent from the table-score initialization.

    Slopes start at ``config.a_init`` for every step feature; thresholds and
    weights start at the definition's table values.  Deterministic: identical
    inputs produce an identical trace.
    """
    design = CohortDesign(cohort, definition)
    if not design.has_both_classes:
        raise ValidationError("cohort must contain both outcomes to fit")
    d = definition
    include_prior = "w" in config.optimize_over
    mu = config.mu_vector(d.n_weights)
    eng = _Engine(design, mu, config.prior_lambda)

    init = ScoreParameters.initial(d, config.a_init)
    a = np.array(init.slopes)
    t = np.array(init.thresholds)
    v = np.log(np.array(init.weights))
    # kept in sync with v; untouched entries stay bit-identical to the table
    w_cur = np.array(init.weights)

    warnings = []
    dead = design.unobserved_features()
    frozen_w = np.zeros(d.n_weights, dtype=bool)
    for key in dead:
        fi = d.feature_keys.index(key)
        frozen_w[fi] = True
        warnings.append(
            f"feature {key!r} has no observed values; its parameters stay at initialization"
        )
    for msg in warnings:
        logger.warning(msg)

    blocks = _build_blocks(d)
    all_t = np.arange(d.n_thresholds)
    raw = {"a": a, "t": t, "w": v}  # each kind's raw variables, updated in place
    prior_cache = eng.prior(v) if include_prior else 0.0
    s_full = design.scores(a, t, w_cur)
    f_cur = design.nll_of_scores(s_full) + prior_cache
    if not np.isfinite(f_cur):
        raise NumericError("objective is not finite at initialization")
    f_init = f_cur

    steps: list[TraceStep] = []
    stalls = 0
    outer = 0
    reason = "max outer iterations"
    for outer in range(1, config.max_outer_iters + 1):
        f_start = f_cur
        for kind in config.order:
            beta = config.beta_for(kind)
            for label, cols in blocks[kind]:
                # Per kind: the block's indices into raw[kind], the block
                # gradient, the projection, and evaluate(x) -> (scores,
                # objective) with the block set to x and the rest held fixed.
                if kind == "w":
                    idx = cols[~frozen_w[cols]]
                    if idx.size == 0:
                        continue
                    zsub = eng.z_columns(a, t, idx)
                    g = eng.grad_v_cols(s_full, v, w_cur, zsub, idx)
                    if not g.any():
                        continue
                    s_base = s_full - zsub @ w_cur[idx]

                    def project(x):
                        return x

                    def evaluate(x):
                        v_try = v.copy()
                        v_try[idx] = x
                        s = s_base + zsub @ np.exp(x)
                        return s, design.nll_of_scores(s) + eng.prior(v_try)

                else:
                    if kind == "a":
                        idx = cols
                        g = eng.grad_a_cols(s_full, a, t, w_cur, cols)
                        project = project_slopes
                    else:
                        idx = all_t
                        g = eng.grad_t_restricted(s_full, a, t, w_cur, cols)

                        def project(x):
                            return project_thresholds(x, d)

                    if not g.any():
                        continue
                    coefs = w_cur[design.step_wcol[cols]]
                    s_base = s_full - design.step_z(a, t, cols) @ coefs

                    def evaluate(x):
                        if kind == "a":
                            a_try, t_try = a.copy(), t
                            a_try[cols] = x
                        else:
                            a_try, t_try = a, x
                        s = s_base + design.step_z(a_try, t_try, cols) @ coefs
                        return s, design.nll_of_scores(s) + prior_cache

                x0, dvec = raw[kind][idx], -g
                last = []  # the last trial point and its (scores, objective)

                def trial(x):
                    last[:] = [x, evaluate(x)]
                    return last[1][1]

                h = backtracking_step(trial, x0, f_cur, dvec, config.alpha, beta)
                if h == 0.0:
                    stalls += 1
                    continue
                x_new = project(x0 + h * dvec)
                # the search stops at the trial it accepts: reuse its value
                # when the projection left that point unchanged
                if np.array_equal(x_new, last[0]):
                    s_new, f_new = last[1]
                else:
                    s_new, f_new = evaluate(x_new)
                if not f_new < f_cur:
                    stalls += 1
                    continue
                raw[kind][idx] = x_new
                if kind == "w":
                    w_cur[idx] = np.exp(x_new)
                    prior_cache = eng.prior(v)
                steps.append(TraceStep(outer, kind, label, f_cur, f_new, h))
                s_full, f_cur = s_new, f_new

        rel = (f_start - f_cur) / max(abs(f_start), 1e-300)
        if rel < config.rel_tol:
            reason = "relative decrease below tolerance"
            break

    params = ScoreParameters(d, a, t, w_cur)
    trace = FitTrace(
        steps=tuple(steps),
        initial_objective=f_init,
        final_objective=f_cur,
        outer_iterations=outer,
        converged_reason=reason,
        warnings=tuple(warnings),
        stall_count=stalls,
    )
    return params, trace


def _build_blocks(d: ScoreDefinition) -> dict[str, list[tuple[str, np.ndarray]]]:
    """Per-kind block lists: (variable label, column indices into that kind)."""
    out: dict[str, list[tuple[str, np.ndarray]]] = {"a": [], "t": [], "w": []}
    for block in d.blocks:
        step_cols = np.array(
            [d.slope_index[i] for i in block.feature_indices if i in d.slope_index],
            dtype=np.int64,
        )
        if step_cols.size:
            out["a"].append((block.variable, step_cols))
            out["t"].append((block.variable, step_cols))
        out["w"].append((block.variable, np.array(block.feature_indices, dtype=np.int64)))
    return out
