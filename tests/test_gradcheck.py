import numpy as np
import pytest

from sdah.gradcheck import GradCheckError, grad_check
from sdah.tensor import Tensor, _make, mul, tsum


def _broken_mul(a, b):
    """Correct forward, deliberately wrong backward (swapped factors + bias)."""
    return _make("broken_mul", a.data * b.data, (a, b),
                 lambda g: g * b.data * 1.5, lambda g: g * a.data + 0.1)


def test_accepts_correct_gradient():
    a = np.random.default_rng(0).normal(size=(3, 3))
    b = np.random.default_rng(1).normal(size=(3, 3))
    rep = grad_check(mul, [a, b], tol=1e-6)
    assert rep.max_rel_err < 1e-7
    assert rep.op == "mul"
    assert len(rep.per_input) == 2


def test_rejects_planted_wrong_gradient():
    a = np.random.default_rng(2).normal(size=(2, 2)) + 2.0
    b = np.random.default_rng(3).normal(size=(2, 2)) + 2.0
    with pytest.raises(GradCheckError):
        grad_check(_broken_mul, [a, b], tol=1e-4)
    rep = grad_check(_broken_mul, [a, b])  # no tol: report only
    assert rep.max_rel_err > 0.01


def test_scalar_output_needs_no_projection():
    rep = grad_check(lambda t: tsum(mul(t, t)), [np.array([1.0, 2.0, 3.0])],
                     tol=1e-6)
    assert rep.max_rel_err < 1e-8


def test_projection_is_seed_stable():
    x = np.random.default_rng(4).normal(size=(4, 5))
    r1 = grad_check(lambda t: mul(t, t), [x], seed=9)
    r2 = grad_check(lambda t: mul(t, t), [x], seed=9)
    assert r1.max_rel_err == r2.max_rel_err


def test_accepts_tensor_inputs_without_mutating_them():
    t = Tensor(np.ones((2, 2)), requires_grad=True)
    before = t.data.copy()
    grad_check(lambda a: mul(a, a), [t], tol=1e-6)
    np.testing.assert_array_equal(t.data, before)
    assert t.grad is None  # works on a copy


def test_custom_name_appears_in_report():
    rep = grad_check(lambda t: mul(t, 2.0), [np.ones(3)], name="scale2")
    assert rep.op == "scale2"
    assert "scale2" in str(rep)
