"""Overflow-safe scalar primitives and the package's logistic Newton solver.

Exponent arguments are clipped at +-500 inside these helpers only; all other
code works with algebraically stable forms built on top of them.
"""
from __future__ import annotations

import math

import numpy as np

_EXP_CLIP = 500.0

# Failure exits of logistic_newton: Newton steps taken before giving up, and
# halvings of a step that raises the objective.
NEWTON_MAX_ITER = 100
NEWTON_MAX_HALVINGS = 40


def sigmoid(x):
    """Logistic function 1 / (1 + exp(-x)), safe for arbitrarily large |x|.

    The exponent is clipped with ``np.minimum(np.maximum(x, -C), C)``, which
    gives the bits of ``np.clip(x, -C, C)`` (NaN included) without its Python
    wrapper; the descent loop calls this tens of thousands of times per fit.
    """
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(x, -_EXP_CLIP), _EXP_CLIP)))


def log1pexp(x):
    """log(1 + exp(x)) without overflow."""
    return np.logaddexp(0.0, x)


def logistic_newton(X, y, lam: float = 0.0):
    """Minimize sum_i log(1 + exp(-y_i (x_i' beta + b))) + lam ||beta||^2.

    ``X`` is (n, m), ``y`` holds labels -1/+1 of both classes; the intercept b
    is unpenalized.  Damped Newton from beta = 0 and the base-rate log-odds:
    the Newton system is solved by least squares, so rank-deficient designs
    (constant columns) take the minimum-norm step, and a step is halved until
    the objective does not increase.  Stops when the Newton decrement
    g' H^+ g at the current point is at float resolution, eps * max(1, |f|),
    and returns that point.  Returns (beta, b, objective history, gradient
    norm at the returned point, converged); converged is False after
    NEWTON_MAX_ITER steps, when NEWTON_MAX_HALVINGS halvings of a step all
    raise the objective, or when the derivatives are not finite.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, m = X.shape
    Xa = np.column_stack([X, np.ones(n)])
    penalty = np.full(m + 1, 2.0 * lam)  # Hessian diagonal of the penalty
    penalty[m] = 0.0

    def objective(th):
        u = Xa @ th
        # through the penalty vector, so lam = 0 adds 0 even where |th|^2
        # overflows
        return float(np.sum(log1pexp(-y * u)) + 0.5 * (penalty * th) @ th)

    n_pos = float(np.sum(y == 1))
    theta = np.zeros(m + 1)
    theta[m] = math.log(n_pos / (n - n_pos))
    f = objective(theta)
    history = [f]
    converged = False
    for it in range(NEWTON_MAX_ITER + 1):
        r = sigmoid(-y * (Xa @ theta))  # probability of the other class
        g = penalty * theta - Xa.T @ (y * r)
        H = (Xa * (r * (1.0 - r))[:, None]).T @ Xa + np.diag(penalty)
        if not (np.isfinite(g).all() and np.isfinite(H).all()):
            break
        # Jacobi scaling keeps lstsq's rank cut-off independent of the
        # columns' units
        d = 1.0 / np.sqrt(np.where(np.diag(H) > 0, np.diag(H), 1.0))
        step = d * np.linalg.lstsq(d[:, None] * H * d, -g * d, rcond=None)[0]
        if -float(g @ step) <= np.finfo(float).eps * max(1.0, abs(f)):
            converged = True
            break
        if it == NEWTON_MAX_ITER:
            break
        h = 1.0
        f_try = objective(theta + step)
        for _ in range(NEWTON_MAX_HALVINGS):
            if f_try <= f:
                break
            h *= 0.5
            f_try = objective(theta + h * step)
        if not f_try <= f:
            break
        theta = theta + h * step
        f = f_try
        history.append(f)
    return theta[:m], float(theta[m]), tuple(history), float(np.linalg.norm(g)), converged
