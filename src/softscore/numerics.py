"""Overflow-safe logistic kernels and the package's logistic Newton solver.

`sigmoid` clips its exponent at +-500, and `sigmoid_neg` is the same kernel
for callers that hold the negated argument; `log1pexp` needs no clip, since
it only exponentiates -|x| <= 0.  They run on numpy's vectorized ``exp`` and
``log1p``, each pass writing into one buffer.  All other code works with
algebraically stable forms built on top of them.
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

    ``sigmoid_neg`` of -x: the exponent is clipped at +-500, and the result
    has the bits of ``1.0 / (1.0 + np.exp(-np.clip(x, -C, C)))``, NaN
    included.  A scalar gives a scalar; ``x`` is never modified.
    """
    return sigmoid_neg(np.negative(x))


def sigmoid_neg(m):
    """sigmoid(-m) = 1 / (1 + exp(m)), for callers that hold the negated
    argument: y * s in the loss derivative, (-a) * diff in a soft step.

    It spares `sigmoid`'s negate pass and keeps its bits, +-inf and NaN
    included: negation is exact, and the clip at +-C is symmetric, so it
    commutes with negation.  The clip ``np.minimum(np.maximum(m, -C), C)``
    gives the bits of ``np.clip(m, -C, C)`` without its Python wrapper (the
    descent loop calls this tens of thousands of times per fit), and each
    later pass writes into its buffer.  A scalar gives a scalar; ``m`` is
    never modified.
    """
    out = _buffer(np.maximum(m, -_EXP_CLIP))
    np.minimum(out, _EXP_CLIP, out=out)
    np.exp(out, out=out)
    out += 1.0
    np.divide(1.0, out, out=out)
    return out if out.ndim else out[()]


def log1pexp(x):
    """log(1 + exp(x)) without overflow, as max(x, 0) + log1p(exp(-|x|)).

    The identity (Maechler 2012, "Accurately computing log(1 - exp(-|a|))")
    exponentiates only -|x| <= 0, so it needs no clip, and it runs on numpy's
    vectorized ``exp`` and ``log1p`` into one buffer.  It agrees with
    ``np.logaddexp(0.0, x)``, whose scalar loop is several times slower,
    within 2 ulp; +-inf and NaN map as there.  A scalar gives a scalar; ``x``
    is never modified.
    """
    out = _buffer(np.abs(x, dtype=float))
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(x, 0.0)
    return out if out.ndim else out[()]


def _buffer(values):
    """A ufunc's fresh result as an array the next steps can write into: a
    scalar becomes a 0-d array (and is returned as a scalar at the end).
    The result keeps the argument's memory order, as the ufunc gives it: an
    F-ordered column gather stays F-ordered, so the matrix products that read
    the kernel's output keep their summation order."""
    return values if isinstance(values, np.ndarray) else np.array(values)


def logistic_newton(X, y):
    """Minimize sum_i log(1 + exp(-y_i (x_i' beta + b))), logistic regression
    with an intercept.

    ``X`` is (n, m), ``y`` holds labels -1/+1 of both classes.  Damped Newton
    from beta = 0 and the base-rate log-odds: the Newton system is solved by
    least squares, so rank-deficient designs (constant columns) take the
    minimum-norm step, and a step is halved until the objective does not
    increase.  Stops when the Newton decrement g' H^+ g at the current point
    is at float resolution, eps * max(1, |f|), and returns that point.  The
    logistic loss is not self-concordant, so a small decrement alone does not
    certify a minimum (one score that dwarfs the others sets the curvature).
    The point counts as converged only if also, for every coefficient j,
    either the per-record terms of g_j cancel, |g_j| <= eps**(1/4) *
    sum_i |r_i x_ij| with r_i record i's probability of the other class (an
    interior minimum: the records' own curvature then puts f within about
    sqrt(eps) of it), or moving coefficient j alone can lower the objective
    by no more than sqrt(eps) * max(1, |f|): that bound is the summed loss of
    the records whose margins grow along -g_j (the separable limit, where the
    infimum is approached as the coefficient grows without bound).
    Returns (beta, b, converged); converged is False when that gradient test
    fails, after NEWTON_MAX_ITER steps, when NEWTON_MAX_HALVINGS halvings of a
    step all raise the objective, or when the derivatives are not finite.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, m = X.shape
    Xa = np.column_stack([X, np.ones(n)])

    def objective(th):
        return float(np.sum(log1pexp(-y * (Xa @ th))))

    n_pos = float(np.sum(y == 1))
    theta = np.zeros(m + 1)
    theta[m] = math.log(n_pos / (n - n_pos))
    f = objective(theta)
    eps = np.finfo(float).eps
    converged = False
    for it in range(NEWTON_MAX_ITER + 1):
        r = sigmoid_neg(y * (Xa @ theta))  # probability of the other class
        g = -(Xa.T @ (y * r))
        H = (Xa * (r * (1.0 - r))[:, None]).T @ Xa
        if not (np.isfinite(g).all() and np.isfinite(H).all()):
            break
        # Jacobi scaling keeps lstsq's rank cut-off independent of the
        # columns' units
        d = 1.0 / np.sqrt(np.where(np.diag(H) > 0, np.diag(H), 1.0))
        step = d * np.linalg.lstsq(d[:, None] * H * d, -g * d, rcond=None)[0]
        if -float(g @ step) <= eps * max(1.0, abs(f)):
            cancel = np.abs(g) <= eps**0.25 * (np.abs(Xa).T @ r)
            loss = log1pexp(-y * (Xa @ theta))
            gain = loss @ ((y[:, None] * Xa) * -g > 0)
            small = gain <= math.sqrt(eps) * max(1.0, abs(f))
            converged = bool(np.all(cancel | small))
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
    return theta[:m], float(theta[m]), converged
