"""Penalized likelihood objective and projected block coordinate descent.

Everything here works on a `CohortDesign`: the likelihood, its derivative in
the scores and the step-feature kernels are the design's; this module adds
the lognormal weight prior, `objective` and `objective_gradient` (what `fit`
minimises and its gradient), the projections, the line search and the fit
loop.

Slopes, thresholds, and weights are updated block by block, one raw variable
at a time.  Every kind takes the same block step: a backtracking (Armijo)
line search along the negative block gradient, started from the objective
value the fit already holds, then a projection back onto the feasible set,
then acceptance only if the objective decreased (otherwise a stall is
counted).  The fit keeps its block state for the whole fit, built once at the
start: each step block's columns sliced once with the block's constants (step
direction, +-1 signs, weight columns), each log-weight block's free columns,
each step block's current x - t, and the feature matrix z.  An accepted step
writes back the x - t and z columns of its own block; each line-search trial
recomputes only what it moves, with soft steps and the loss derivative taken
from `numerics.sigmoid_neg` on the negated arguments (-a) (x - t) and y s.
Slopes are projected to be non-negative, thresholds (by pool adjacent
violators, run only on the chains out of order) to keep the step order of the
definition within every age band; log-weights are unconstrained.  Weights are
optimized in the log domain, where the lognormal prior adds log-weight and
squared-deviation terms to the objective; those prior terms are part of the
objective only while weights are being optimized (they are constant
otherwise).
"""
from __future__ import annotations

import logging
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .design import CohortDesign, _StepBlock
from .errors import ContractViolation, NumericError, ValidationError
from .model import (
    ScoreDefinition,
    ScoreParameters,
    UP,
)

logger = logging.getLogger("softscore")

KINDS = ("a", "t", "w")
MAX_HALVINGS = 60
ARMIJO_ALPHA = 0.2  # sufficient-decrease fraction of the backtracking search
ARMIJO_BETA = 0.5  # its step reduction factor
MAX_ITERS_REASON = "max outer iterations"


def _number(name: str, value, kind=numbers.Real):
    """``value`` as a float (or an int for ``kind=numbers.Integral``); booleans
    are rejected although Python counts them as integers."""
    if isinstance(value, bool) or not isinstance(value, kind):
        what = "an integer" if kind is numbers.Integral else "a number"
        raise ValidationError(f"{name} must be {what}, got {value!r}")
    return int(value) if kind is numbers.Integral else float(value)


@dataclass(frozen=True)
class OptimizerConfig:
    """What a fit moves, what it minimises and when it stops.

    ``optimize_over`` selects which parameter kinds move and fixes the cycle:
    one full pass over all blocks of the first kind given, then the next,
    repeated until the relative objective decrease over a whole cycle falls
    below ``rel_tol`` or ``max_outer_iters`` cycles have run.  ``prior_mu``
    (one value or one per weight) and ``prior_lambda`` set the lognormal
    weight prior; ``a_init`` is every slope's starting value.  Values are
    type-checked: ``optimize_over`` is a list of distinct kinds,
    ``max_outer_iters`` an integer and the rest numbers, never booleans.
    """

    optimize_over: tuple[str, ...] = ("a",)
    prior_mu: float | tuple[float, ...] = 0.0
    prior_lambda: float = 0.25
    a_init: float = 0.01
    max_outer_iters: int = 500
    rel_tol: float = 1e-6

    def __post_init__(self):
        over = self.optimize_over
        if (
            not isinstance(over, (list, tuple))
            or not over
            or any(k not in KINDS for k in over)
            or len(set(over)) != len(over)
        ):
            raise ValidationError(
                f"optimize_over must be a non-empty list of distinct kinds "
                f"from {KINDS}, got {over!r}"
            )
        mu = self.prior_mu
        if isinstance(mu, (list, tuple)):
            mu = tuple(_number(f"prior_mu[{i}]", m) for i, m in enumerate(mu))
        else:
            mu = _number("prior_mu", mu)
        checked = {
            "optimize_over": tuple(over),
            "prior_mu": mu,
            "prior_lambda": _number("prior_lambda", self.prior_lambda),
            "a_init": _number("a_init", self.a_init),
            "max_outer_iters": _number(
                "max_outer_iters", self.max_outer_iters, numbers.Integral
            ),
            "rel_tol": _number("rel_tol", self.rel_tol),
        }
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        if not (self.prior_lambda >= 0):
            raise ValidationError("prior_lambda must be >= 0")
        if not (self.a_init > 0):
            raise ValidationError("a_init must be positive")
        if self.max_outer_iters < 1:
            raise ValidationError("max_outer_iters must be >= 1")
        if not (self.rel_tol > 0):
            raise ValidationError("rel_tol must be positive")

    def mu_vector(self, n_weights: int) -> np.ndarray:
        if isinstance(self.prior_mu, float):
            return np.full(n_weights, self.prior_mu)
        mu = np.asarray(self.prior_mu, dtype=float)
        if mu.shape != (n_weights,):
            raise ValidationError(
                f"prior_mu must be scalar or length {n_weights}, got shape {mu.shape}"
            )
        return mu


class TraceStep(NamedTuple):
    """One accepted block update."""

    outer_iteration: int
    kind: str
    block: str
    objective_before: float
    objective_after: float
    step_size: float


@dataclass(frozen=True)
class FitTrace:
    """Record of a fit: accepted steps, convergence, and data warnings.

    ``initial_objective`` and ``final_objective`` are values of `objective`
    under the fit's config, at the initial and at the fitted parameters.
    """

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

    @property
    def stopped_at_cap(self) -> bool:
        """True when the fit ran ``max_outer_iters`` without meeting ``rel_tol``."""
        return self.converged_reason == MAX_ITERS_REASON


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
    their mean (steps are allowed to merge).  Only the chains with an adjacent
    pair out of order are pooled: pooling leaves a chain already in order as
    it is, bit for bit, so the others are returned unchanged without it.
    """
    t = np.array(t, dtype=float)
    if t.shape != (definition.n_thresholds,):
        raise ContractViolation(
            f"thresholds: expected shape ({definition.n_thresholds},), got {t.shape}"
        )
    disordered = set(definition.threshold_order_violations(t).tolist())
    if not disordered:
        return t
    for direction, chain in definition.threshold_chains:
        if disordered.isdisjoint(chain):
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
    max_halvings: int = MAX_HALVINGS,
) -> float:
    """Largest h in {1, beta, beta^2, ...} with sufficient decrease.

    ``f0`` is objective(x), which the caller already holds; ``objective`` is
    only evaluated at trial points.  Accepts h when
    objective(x + h d) <= f0 - alpha h ||d||^2, with alpha = ``ARMIJO_ALPHA``
    and beta = ``ARMIJO_BETA``, and returns 0.0 once ``max_halvings``
    reductions were tried without success.
    """
    x = np.asarray(x, dtype=float)
    d = np.asarray(direction, dtype=float)
    if x.shape != d.shape:
        raise ContractViolation("direction must match the point's shape")
    d2 = float(np.dot(d, d))
    h, x_try = 1.0, x + d  # the first trial at h = 1: 1.0 * d is d
    for _ in range(max_halvings + 1):
        if objective(x_try) <= f0 - ARMIJO_ALPHA * h * d2:
            return h
        h *= ARMIJO_BETA
        x_try = x + h * d
    return 0.0


# ----------------------------------------------------------------------
# the objective and its gradient
# ----------------------------------------------------------------------


def _log_prior(v: np.ndarray, mu: np.ndarray, lam: float) -> float:
    """Lognormal weight prior in v = log w: sum(v) + lambda ||v - mu||^2."""
    return float(v.sum() + lam * ((v - mu) ** 2).sum())


def _log_weight_gradient(dl, v, w, Z, fcols, mu, lam) -> np.ndarray:
    """Gradient of NLL plus prior in v[fcols] from the loss derivative ``dl``;
    ``Z`` holds z's ``fcols`` columns."""
    data = (Z.T @ dl) * w[fcols]
    return data + 1.0 + 2.0 * lam * (v[fcols] - mu[fcols])


def objective(
    params: ScoreParameters, design: CohortDesign, config: OptimizerConfig
) -> float:
    """What `fit` minimises under ``config``: the NLL, the sum over the cohort
    of log(1 + exp(-y w'z)), plus the lognormal weight prior
    sum(log w) + lambda ||log w - mu||^2 exactly when ``config`` optimizes
    weights (the prior is constant otherwise, and left out)."""
    value = design.nll_of_scores(design.scores_for(params))
    if "w" in config.optimize_over:
        mu = config.mu_vector(design.definition.n_weights)
        value += _log_prior(np.log(params.weights), mu, config.prior_lambda)
    if not np.isfinite(value):
        raise NumericError("objective is not finite")
    return value


def objective_gradient(
    params: ScoreParameters, design: CohortDesign, config: OptimizerConfig
) -> np.ndarray:
    """Gradient of `objective` in theta = (a, t, log w), in that order.

    Missing cells contribute 0, and each threshold entry collects only the
    records in its age band.  The log-weight part includes the prior's
    1 + 2 lambda (log w - mu) exactly when the objective includes the prior.
    """
    a, t, w = params.slopes, params.thresholds, params.weights
    dl = design.loss_derivative(design.scores_for(params))
    block = _StepBlock(design, np.arange(design.definition.n_slopes))
    diff = block.diff(t)
    z = block.z(-a * diff)
    sp = z * (1.0 - z)
    g_v = (design.z_matrix(a, t).T @ dl) * w
    if "w" in config.optimize_over:
        mu = config.mu_vector(design.definition.n_weights)
        g_v = g_v + 1.0 + 2.0 * config.prior_lambda * (np.log(w) - mu)
    g_a = block.slope_gradient(dl, diff, sp, w)
    g_t = block.threshold_gradient(dl, sp, a, w)
    return np.concatenate([g_a, g_t, g_v])


# ----------------------------------------------------------------------
# fit
# ----------------------------------------------------------------------


def fit(
    design: CohortDesign, config: OptimizerConfig
) -> tuple[ScoreParameters, FitTrace]:
    """Projected block coordinate descent from the table-score initialization.

    Fits the score of ``design.definition`` to the cohort laid out in
    ``design``.  Slopes start at ``config.a_init`` for every step feature;
    thresholds and weights start at the definition's table values.  The
    value minimised is `objective` under ``config``, and the trace's
    ``initial_objective`` and ``final_objective`` are its values at the
    start and at the returned parameters.
    Deterministic: identical inputs produce an identical trace.
    """
    if not design.has_both_classes:
        raise ValidationError("cohort must contain both outcomes to fit")
    d = design.definition
    include_prior = "w" in config.optimize_over
    mu = config.mu_vector(d.n_weights)
    lam = config.prior_lambda

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
    # A step moves raw[kind][idx]: a slope block its columns, a threshold
    # block every threshold (its gradient is zero outside the block), a
    # log-weight block its weights not frozen (a block with none is skipped).
    all_t = np.arange(d.n_thresholds)
    blocks["t"] = [(label, all_t) for label, _ in blocks["t"]]
    blocks["w"] = [
        (label, cols[~frozen_w[cols]]) for label, cols in blocks["w"]
        if not frozen_w[cols].all()
    ]
    raw = {"a": a, "t": t, "w": v}  # each kind's raw variables, updated in place
    # Block state kept for the whole fit: each step block sliced once, its
    # current x - t, and the feature matrix z.  Only an accepted step of a
    # block moves that block's diff and z columns: a threshold step's
    # direction is zero outside its block, and the projection returns the
    # chains already in order bit for bit, so every other block's state stays
    # current.  Slopes and thresholds share one step block per variable; it
    # holds the x and t_index slices only if thresholds move.
    moves_t = "t" in config.optimize_over
    step_blocks = {
        label: _StepBlock(design, cols, moves_t) for label, cols in blocks["a"]
    }
    diffs = {label: design.step_diff(t, cols) for label, cols in blocks["a"]}
    Z = design.z_matrix(a, t)
    prior_cache = _log_prior(v, mu, lam) if include_prior else 0.0
    s_full = design.scores(a, t, w_cur)
    f_cur = design.nll_of_scores(s_full) + prior_cache
    if not np.isfinite(f_cur):
        raise NumericError("objective is not finite at initialization")
    f_init = f_cur

    steps: list[TraceStep] = []
    stalls = 0
    outer = 0
    reason = MAX_ITERS_REASON
    for outer in range(1, config.max_outer_iters + 1):
        f_start = f_cur
        for kind in config.optimize_over:
            for label, idx in blocks[kind]:
                # Per kind: the block gradient g, the projection (None for
                # the unconstrained log-weights), and evaluate(x) -> (scores,
                # objective, moved) with the block set to x and the rest held
                # fixed; moved is the state an accepted x writes back: the
                # block's (w, prior) for log-weights, its (diff, z) otherwise.
                dl = design.loss_derivative(s_full)
                if kind == "w":
                    # A C-ordered gather, the layout z_matrix gives, keeps
                    # the products below bit-identical to it: the strided
                    # view Z[:, lo:hi] changes the fit's trajectory.  It is
                    # not cached: when slopes or thresholds move too, each
                    # accepted step of theirs rewrites the block's columns
                    # between two log-weight passes, so a cache would hit
                    # only after their stalls.
                    zsub = np.take(Z, idx, axis=1)
                    g = _log_weight_gradient(dl, v, w_cur, zsub, idx, mu, lam)
                    if not g.any():
                        continue
                    s_base = s_full - zsub @ w_cur[idx]
                    project = None

                    def evaluate(x):
                        v_try = v.copy()
                        v_try[idx] = x
                        w_x = np.exp(x)
                        prior = _log_prior(v_try, mu, lam)
                        s = s_base + zsub @ w_x
                        return s, design.nll_of_scores(s) + prior, (w_x, prior)

                else:
                    # A trial recomputes only what it moves: z for a slope
                    # trial, diff and z for a threshold trial, each z from
                    # the negated product (-a) * diff.  z0 is a column
                    # gather, F-ordered like the block's own z.
                    block = step_blocks[label]
                    diff = diffs[label]
                    z0 = Z[:, block.wcol]
                    sp = z0 * (1.0 - z0)
                    if kind == "a":
                        g = block.slope_gradient(dl, diff, sp, w_cur)
                        project = project_slopes

                        def moved_by(x):
                            return diff, block.z(-x * diff)

                    else:
                        g = block.threshold_gradient(dl, sp, a, w_cur)
                        neg_a = -a[block.sel]

                        def project(x):
                            return project_thresholds(x, d)

                        def moved_by(x):
                            diff_x = block.diff(x)
                            return diff_x, block.z(neg_a * diff_x)

                    if not g.any():
                        continue
                    coefs = w_cur[block.wcol]
                    s_base = s_full - z0 @ coefs

                    def evaluate(x):
                        moved = moved_by(x)
                        s = s_base + moved[1] @ coefs
                        return s, design.nll_of_scores(s) + prior_cache, moved

                last = []  # the last trial point and its evaluation

                def trial(x):
                    last[:] = [x, evaluate(x)]
                    return last[1][1]

                h = backtracking_step(trial, raw[kind][idx], f_cur, -g)
                if h == 0.0:
                    stalls += 1
                    continue
                # the search stops at the trial it accepts: keep that point
                # and its value unless the projection moves the point
                x_new, (s_new, f_new, moved) = last
                if project is not None:
                    x_new = project(last[0])
                    if not (x_new == last[0]).all():
                        s_new, f_new, moved = evaluate(x_new)
                if not f_new < f_cur:
                    stalls += 1
                    continue
                raw[kind][idx] = x_new
                if kind == "w":
                    w_cur[idx], prior_cache = moved
                else:
                    diffs[label], Z[:, block.wcol] = moved
                steps.append(TraceStep(outer, kind, label, f_cur, f_new, h))
                s_full, f_cur = s_new, f_new

        rel = (f_start - f_cur) / max(abs(f_start), 1e-300)
        if rel < config.rel_tol:
            reason = "relative decrease below tolerance"
            break

    params = ScoreParameters(d, a, t, w_cur)
    trace = FitTrace(
        steps=steps,
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
