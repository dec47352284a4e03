"""The logistic kernels `log1pexp`, `sigmoid` and `sigmoid_neg` against numpy's
reference forms."""
import warnings

import numpy as np
import pytest

from softscore.numerics import log1pexp, sigmoid, sigmoid_neg

EDGES = [0.0, 5e-324, 36.7, 709.0, 745.0, 1e308, np.inf]


def loss_grid() -> np.ndarray:
    """Signed edge cases, then normal draws of scale 1 to 300."""
    rng = np.random.default_rng(71)
    edges = np.array(EDGES + [-e for e in EDGES])
    draws = [rng.normal(scale=scale, size=4000) for scale in (1, 3, 10, 30, 100, 300)]
    return np.concatenate([edges, *draws])


def ulps_apart(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance in units in the last place of non-negative doubles (+inf
    included), read from their bit patterns, which order like the values."""
    assert (a >= 0).all() and (b >= 0).all()
    return np.abs(a.view(np.int64) - b.view(np.int64))


class TestLog1pexp:
    def test_agrees_with_logaddexp_within_two_ulp(self):
        x = loss_grid()
        got, want = log1pexp(x), np.logaddexp(0.0, x)
        assert got.shape == x.shape
        assert ulps_apart(got, want).max() <= 2
        # exact at +-inf, +-1e308 and +-0
        assert log1pexp(np.inf) == np.inf and log1pexp(-np.inf) == 0.0
        assert log1pexp(1e308) == 1e308 and log1pexp(-1e308) == 0.0
        assert log1pexp(0.0) == log1pexp(-0.0) == np.log(2.0)

    def test_nan_maps_to_nan_without_a_warning(self):
        x = np.array([np.nan, -np.nan, 1.0, np.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = log1pexp(x)
            scalar = log1pexp(np.nan)
        np.testing.assert_array_equal(np.isnan(out), np.isnan(x))
        assert out[2] == np.logaddexp(0.0, 1.0)
        assert np.isnan(scalar)


class TestSigmoidNeg:
    def test_bits_equal_sigmoid_of_the_negation(self):
        """Negation is exact and the clip at +-500 is symmetric, so the
        negated-argument kernel gives sigmoid's bits, the clipped reference
        form 1 / (1 + exp(-clip(x))), at both signed zeros, at the clip and
        around it, past exp's overflow at 709.78, at +-inf and at NaN of
        either sign."""
        edges = [0.0, 499.5, np.nextafter(500.0, 0.0), 500.0,
                 np.nextafter(500.0, np.inf), 500.5, 709.0, 709.79, 710.0,
                 745.2, 1e308, np.inf, np.nan]
        x = np.array(edges + [-e for e in edges])
        assert np.signbit(x[np.isnan(x)]).tolist() == [False, True]
        want = 1.0 / (1.0 + np.exp(-np.clip(x, -500.0, 500.0)))
        assert sigmoid_neg(-x).tobytes() == want.tobytes()
        assert sigmoid(x).tobytes() == want.tobytes()
        for xi, wi in zip(x, want):
            assert sigmoid_neg(-xi).tobytes() == wi.tobytes()


@pytest.mark.parametrize("kernel", [log1pexp, sigmoid, sigmoid_neg])
class TestKernelContract:
    def test_scalar_input_gives_a_scalar(self, kernel):
        for x in (3.0, -2, np.float64(0.5), np.array(-7.5)):
            out = kernel(x)
            assert isinstance(out, np.float64) and np.ndim(out) == 0
            assert out == kernel(np.array([x], dtype=float))[0]

    def test_result_keeps_the_memory_order_of_the_argument(self, kernel):
        """A column gather is F-ordered; its result must stay F-ordered, as
        the ufunc expression gives it, or the matrix products that read it
        sum in another order and move the fit's bits."""
        x = np.asfortranarray(loss_grid()[: 6 * 50].reshape(50, 6))
        out = kernel(x)
        assert out.flags.f_contiguous and not out.flags.c_contiguous
        assert out.tobytes("C") == kernel(np.ascontiguousarray(x)).tobytes("C")

    def test_argument_is_never_modified(self, kernel):
        x = loss_grid()
        before = x.tobytes()
        out = kernel(x)
        assert x.tobytes() == before
        assert not np.shares_memory(out, x)
        view = x[::3]
        kernel(view)
        assert x.tobytes() == before
