import numpy as np
import pytest

from mmfnd import tensor as T
from mmfnd.rng import Rng

from gradcheck import finite_diff_check, weighted_sum
from reference_ops import mul, tsum


def test_quadratic_is_exact_under_central_differences():
    p = T.Param("x", np.array([3.0]))
    report = finite_diff_check(lambda: tsum(mul(p, p)), [p])
    # central differences are exact for quadratics: analytic 6 vs numeric 6
    assert report.max_rel_err < 1e-10


def test_random_matmul_chain():
    gen = Rng(7).stream("gradcheck")
    a = T.Param("a", gen.normal(size=(3, 4)))
    b = T.Param("b", gen.normal(size=(4, 2)))

    def f():
        return tsum(T.relu(T.matmul(a, b)))

    report = finite_diff_check(f, [a, b])
    assert report.max_rel_err < 1e-6
    assert set(report.per_param) == {"a", "b"}


def test_corrupted_gradient_is_caught():
    gen = Rng(11).stream("gradcheck-corrupt")
    p = T.Param("p", gen.uniform(-1.0, 1.0, size=5))

    def broken_square_sum():
        out = T.Tensor((p.data ** 2).sum(), (p,))

        def _backward():
            p.grad += (2.0 * p.data + 0.1) * out.grad  # off by +0.1

        out._backward = _backward
        return out

    report = finite_diff_check(broken_square_sum, [p])
    assert report.max_rel_err > 1e-2


def test_non_finite_objective_raises():
    p = T.Param("p", np.array([-1.0]))

    def f():
        return weighted_sum(p, [np.nan])  # a NaN weight -> nan

    with pytest.raises(FloatingPointError):
        finite_diff_check(f, [p])


def test_perturbation_restores_values():
    p = T.Param("p", np.array([1.0, 2.0]))
    before = p.data.copy()
    finite_diff_check(lambda: tsum(mul(p, p)), [p])
    np.testing.assert_array_equal(p.data, before)
