import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sdah.convops import conv2d
from sdah.gradcheck import grad_check
from sdah.tensor import (
    GradError,
    NumericsError,
    Params,
    Tensor,
    _erf,
    add,
    broadcast_to,
    clip,
    concat,
    default_dtype,
    div,
    gelu,
    layer_norm,
    linear,
    matmul,
    mul,
    narrow,
    no_grad,
    reshape,
    roll,
    softmax,
    sub,
    swap_last,
    tanh,
    tmean,
    transpose,
    tsum,
)
from sdah.training import TrainConfig, combined_loss


def _rand(shape, seed=0, dtype=np.float64):
    return np.random.default_rng(seed).uniform(-2, 2, size=shape).astype(dtype)


# -- parameter containers ----------------------------------------------------

@dataclass
class _Leaf(Params):
    w: Tensor
    b: Tensor | None


@dataclass
class _Toy(Params):
    scale: float
    first: Tensor
    items: list
    inner: _Leaf
    gone: Tensor | None


def test_params_name_tensors_by_field_path():
    """Field order; a nested `Params` as a dotted prefix; list items numbered
    after their field; None and a float setting skipped."""
    t = [Tensor(np.full(1, i)) for i in range(6)]
    toy = _Toy(0.5, t[0], [_Leaf(t[1], t[2]), _Leaf(t[3], None)], _Leaf(t[4], t[5]), None)
    named = toy.named_tensors()
    assert list(named) == ["first", "items0.w", "items0.b", "items1.w", "inner.w", "inner.b"]
    assert all(a is b for a, b in zip(named.values(), t))
    assert list(toy.inner.named_tensors()) == ["w", "b"]


# -- construction and dtype policy --------------------------------------------

def test_default_dtype_is_float32():
    t = Tensor(np.arange(4, dtype=np.float64))
    assert t.dtype == np.float32


def test_explicit_dtype_is_kept():
    t = Tensor(np.arange(4), dtype=np.float64)
    assert t.dtype == np.float64


def test_uint8_payload_is_preserved():
    t = Tensor(np.zeros((2, 2), dtype=np.uint8))
    assert t.dtype == np.uint8


def test_default_dtype_context():
    with default_dtype(np.float64):
        assert Tensor([1.0]).dtype == np.float64
    assert Tensor([1.0]).dtype == np.float32
    with pytest.raises(ValueError):
        with default_dtype(np.int32):
            pass
    assert Tensor([1.0]).dtype == np.float32


def test_init_rejects_nonfinite_parameters():
    with pytest.raises(NumericsError):
        Tensor(np.array([np.nan]), requires_grad=True)


def test_basic_protocol():
    t = Tensor(np.ones((2, 3)))
    assert t.shape == (2, 3) and t.ndim == 2 and t.size == 6
    assert t.numpy() is t.data
    assert Tensor(np.array(5.0)).item() == 5.0
    assert "shape=(2, 3)" in repr(t)


# -- forward values ------------------------------------------------------------

def test_arithmetic_matches_numpy():
    a = Tensor(_rand((3, 4), 1))
    b = Tensor(_rand((3, 4), 2))
    np.testing.assert_allclose(add(a, b).data, a.data + b.data, rtol=1e-6)
    np.testing.assert_allclose(sub(a, b).data, a.data - b.data, rtol=1e-6)
    np.testing.assert_allclose(mul(a, b).data, a.data * b.data, rtol=1e-6)
    np.testing.assert_allclose(div(a, b).data, a.data / b.data, rtol=1e-5)
    np.testing.assert_allclose((-a).data, -a.data)


def test_operator_sugar_with_scalars():
    a = Tensor(np.array([2.0, 4.0]))
    np.testing.assert_allclose((1.0 + a).data, [3.0, 5.0])
    np.testing.assert_allclose((1.0 - a).data, [-1.0, -3.0])
    np.testing.assert_allclose((a * 3).data, [6.0, 12.0])
    np.testing.assert_allclose((8.0 / a).data, [4.0, 2.0])


def test_constant_takes_its_tensor_dtype_not_the_session_default():
    """Under the float32 default, a Python constant combined with a float64
    tensor is not rounded to float32 first: each result equals pure float64
    numpy bit for bit."""
    x = _rand((3, 4), 3).astype(np.float64) + 0.1
    a = Tensor(x, dtype=np.float64)
    for got, want in (((a + 1e-5).data, x + 1e-5), ((0.3 * a).data, 0.3 * x),
                      ((1.0 / 3.0 - a).data, 1.0 / 3.0 - x), ((a / 0.7).data, x / 0.7),
                      ((0.7 / a).data, 0.7 / x)):
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, want)


def test_matmul_matches_numpy():
    a, b = _rand((2, 3, 4), 3), _rand((4, 5), 4)
    got = matmul(Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64))
    np.testing.assert_allclose(got.data, a @ b, rtol=1e-12)


def test_matmul_shape_errors():
    with pytest.raises(ValueError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))
    with pytest.raises(ValueError):
        matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))


def test_softmax_rows_sum_to_one():
    s = softmax(Tensor(_rand((5, 7), 5)), axis=-1)
    np.testing.assert_allclose(s.data.sum(axis=-1), np.ones(5), atol=1e-6)


def test_softmax_is_shift_invariant():
    x = _rand((3, 4), 6)
    a = softmax(Tensor(x, dtype=np.float64)).data
    b = softmax(Tensor(x + 1000.0, dtype=np.float64)).data
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_softmax_empty_axis_raises():
    with pytest.raises(ValueError):
        softmax(Tensor(np.zeros((2, 0))))


def test_layer_norm_statistics():
    x = Tensor(_rand((4, 8), 7, np.float64), dtype=np.float64)
    g = Tensor(np.ones(8), dtype=np.float64)
    b = Tensor(np.zeros(8), dtype=np.float64)
    y = layer_norm(x, g, b).data
    np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-12)
    np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-4)


def test_layer_norm_affine_shape_error():
    x = Tensor(np.ones((2, 5)))
    with pytest.raises(ValueError):
        layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))


def test_narrow_values_and_errors():
    x = Tensor(np.arange(24.0).reshape(2, 3, 4))
    np.testing.assert_array_equal(narrow(x, 1, 1, 2).data, x.data[:, 1:3])
    with pytest.raises(ValueError):
        narrow(x, 1, 2, 2)
    with pytest.raises(ValueError):
        narrow(x, 0, -1, 1)


def test_gelu_limits():
    y = gelu(Tensor(np.array([-20.0, 0.0, 20.0]), dtype=np.float64)).data
    np.testing.assert_allclose(y, [0.0, 0.0, 20.0], atol=1e-12)


# _erf's error bound in float32 ulp (of the correctly rounded erf), the
# largest over every float32 in [-6, 6]; in float64 its error is <= 7e-10
ERF_ULP32 = 6.5


def test_erf_matches_math_erf_within_its_bound():
    # every 1024th float32 of [0, 6], and its negative
    top = int(np.float32(6.0).view(np.int32))
    pos = np.arange(0, top + 1, 1024, dtype=np.int32).view(np.float32)
    z = np.concatenate([-pos[::-1], pos])
    want = np.array([math.erf(v) for v in z.tolist()])
    got = _erf(z)
    assert got.dtype == np.float32
    ulp = np.spacing(np.abs(want).astype(np.float32)).astype(np.float64)
    assert (np.abs(got - want) / ulp).max() <= ERF_ULP32
    z64 = np.linspace(-6.0, 6.0, 100_001)
    want64 = np.array([math.erf(v) for v in z64.tolist()])
    assert np.abs(_erf(z64) - want64).max() <= 7e-10


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_erf_is_odd_zero_at_zero_and_saturates_to_one(dtype):
    z = np.linspace(0.0, 8.0, 10_001, dtype=dtype)
    assert _erf(z).dtype == dtype
    np.testing.assert_array_equal(_erf(-z), -_erf(z))
    assert _erf(z[:1])[0] == 0.0
    big = np.array([4.9, 5.0, 6.0, 20.0, 1e30, np.finfo(dtype).max], dtype)
    np.testing.assert_array_equal(_erf(big), 1.0)
    np.testing.assert_array_equal(_erf(-big), -1.0)


# each primitive on a (1, 2, 3, 3) uint8 tensor `t`, float operands beside it
_ON_U8 = {
    "gelu": gelu,
    "add": lambda t: add(t, t),
    "matmul": lambda t: matmul(t, t),
    "linear": lambda t: linear(t, np.ones((2, 2))),
    "conv2d": lambda t: conv2d(t, np.ones((2, 2, 1, 1))),
    "layer_norm": lambda t: layer_norm(t, np.ones(2), np.zeros(2)),
    "tanh": tanh,
    "softmax": lambda t: softmax(t, axis=1),
    "combined_loss": lambda t: combined_loss(t, np.zeros((1, 3, 3), np.uint8), TrainConfig()),
}


@pytest.mark.parametrize("op", _ON_U8.values(), ids=_ON_U8.keys())
def test_primitives_reject_uint8(op):
    """A u8 payload is not an operand: no primitive computes on it."""
    with pytest.raises(TypeError, match="uint8"):
        op(Tensor(np.zeros((1, 2, 3, 3), dtype=np.uint8)))


# -- gradients -----------------------------------------------------------------

@pytest.mark.parametrize(
    "op,shapes",
    [
        (add, [(3, 4), (3, 4)]),
        (sub, [(3, 4), (3, 4)]),
        (mul, [(3, 4), (3, 4)]),
        (div, [(3, 4), (3, 4)]),
        (matmul, [(3, 4), (4, 5)]),
        (tanh, [(4, 4)]),
        (gelu, [(4, 4)]),
        (linear, [(2, 3, 4, 5), (3, 6)]),
        (linear, [(2, 3, 4, 5), (3, 6), (6,)]),
    ],
)
def test_grad_check_binary_and_unary(op, shapes):
    tensors = [Tensor(_rand(s, seed=i + 10) + (3.0 if op is div and i == 1 else 0.0))
               for i, s in enumerate(shapes)]
    grad_check(op, tensors, tol=1e-6)


@pytest.mark.parametrize(
    "fn,shape",
    [
        (lambda t: softmax(t, axis=-1), (3, 6)),
        (lambda t: tsum(t, axis=1), (3, 5)),
        (lambda t: tsum(t), (4,)),
        (lambda t: tmean(t, axis=0, keepdims=True), (3, 5)),
        (lambda t: reshape(t, (6, 2)), (3, 4)),
        (lambda t: transpose(t, (1, 0, 2)), (2, 3, 4)),
        (lambda t: swap_last(t), (2, 3, 4)),
        (lambda t: roll(t, (1, -2), (0, 1)), (4, 5)),
        (lambda t: narrow(t, 1, 1, 3), (2, 5)),
        (lambda t: broadcast_to(t, (4, 3, 5)), (3, 5)),
        (lambda t: clip(t, -0.5, 0.5), (4, 4)),
    ],
)
def test_grad_check_shape_and_misc_ops(fn, shape):
    grad_check(fn, [Tensor(_rand(shape, seed=20))], tol=1e-6)


def test_linear_matches_channel_last_composition():
    """linear(x, w, b) is the transpose -> matmul -> add -> transpose
    composition, within float32 rounding, values and gradients alike."""
    x = _rand((2, 5, 3, 4), 50, np.float32)
    w, b = _rand((5, 7), 51, np.float32), _rand(7, 52, np.float32)
    g = _rand((2, 7, 3, 4), 53, np.float32)
    results = []
    for mix in (lambda x, w, b: linear(x, w, b),
                lambda x, w, b: transpose(matmul(transpose(x, (0, 2, 3, 1)), w) + b,
                                          (0, 3, 1, 2))):
        ts = [Tensor(a, requires_grad=True) for a in (x, w, b)]
        out = mix(*ts)
        out.backward(g)
        results.append([out.data] + [t.grad for t in ts])
    for got, want in zip(*results):
        assert got.shape == want.shape and got.dtype == np.float32
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_linear_errors():
    with pytest.raises(ValueError):
        linear(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((4, 5))))
    with pytest.raises(ValueError):
        linear(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 5, 1))))
    with pytest.raises(NumericsError, match="linear"):
        linear(Tensor(np.full((1, 2, 3), 3e38, np.float32)), Tensor(np.full((2, 2), 3.0)))


def test_grad_check_concat():
    a = Tensor(_rand((2, 3), 30))
    b = Tensor(_rand((2, 2), 31))
    grad_check(lambda x, y: concat([x, y], axis=1), [a, b], tol=1e-6)


def test_grad_check_layer_norm():
    g = Tensor(_rand(6, 33))
    b = Tensor(_rand(6, 34))
    for shape in ((3, 6), (2, 6, 3, 2)):   # normalized along axis 1
        x = Tensor(_rand(shape, 32))
        grad_check(layer_norm, [x, g, b], tol=1e-5)


def test_broadcast_grads_sum_over_expanded_axes():
    a = Tensor(_rand((3, 4), 40), requires_grad=True)
    b = Tensor(_rand((1, 4), 41), requires_grad=True)
    tsum(mul(a, b)).backward()
    np.testing.assert_allclose(b.grad, a.data.sum(axis=0, keepdims=True), rtol=1e-5)
    assert b.grad.shape == (1, 4)


@pytest.mark.parametrize("op", [add, sub, mul, div])
@pytest.mark.parametrize("const_first", [False, True])
def test_binary_vjp_skips_a_constant_operand(op, const_first):
    """x ∘ c and c ∘ x with a constant c: the backward returns None in c's
    slot, and x gets the gradient it gets when c needs one too."""
    x_data, c_data, g = _rand((3, 4), 60), _rand(4, 61) + 3.0, _rand((3, 4), 62)
    grads = []
    for c_needs_grad in (False, True):
        x = Tensor(x_data, requires_grad=True)
        c = Tensor(c_data, requires_grad=c_needs_grad)
        t = op(c, x) if const_first else op(x, c)
        c_slot = t._ctx.bwd(g)[0 if const_first else 1]
        assert (c_slot is None) != c_needs_grad
        t.backward(g)
        grads.append(x.grad)
    np.testing.assert_array_equal(*grads)


def test_grad_accumulates_across_uses():
    a = Tensor(np.array([2.0]), requires_grad=True)
    y = add(mul(a, a), a)  # a^2 + a, dy/da = 2a + 1 = 5
    y.backward(np.ones(1))
    np.testing.assert_allclose(a.grad, [5.0])


def test_clip_blocks_gradient_outside_range():
    a = Tensor(np.array([-2.0, 0.0, 2.0]), requires_grad=True)
    tsum(clip(a, -1.0, 1.0)).backward()
    np.testing.assert_array_equal(a.grad, [0.0, 1.0, 0.0])


# -- graph discipline ----------------------------------------------------------

def test_repeated_backward_raises():
    a = Tensor(np.ones(3), requires_grad=True)
    y = tsum(mul(a, a))
    y.backward()
    with pytest.raises(GradError):
        y.backward()


def test_backward_without_graph_raises():
    with pytest.raises(GradError):
        Tensor(np.ones(3), requires_grad=True).backward()


def test_nonscalar_backward_needs_seed():
    a = Tensor(np.ones(3), requires_grad=True)
    y = mul(a, a)
    with pytest.raises(GradError):
        y.backward()
    with pytest.raises(GradError):
        mul(a, a).backward(np.ones(4))


def test_no_grad_disables_recording():
    a = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = mul(a, a)
    assert y._ctx is None and not y.requires_grad


def test_zero_grad_clears_slot():
    a = Tensor(np.ones(2), requires_grad=True)
    tsum(a).backward()
    assert a.grad is not None
    a.zero_grad()
    assert a.grad is None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_division_by_zero_raises_numerics_error():
    with pytest.raises(NumericsError):
        div(Tensor(np.ones(2), requires_grad=True), Tensor(np.zeros(2)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflow_raises_numerics_error():
    big = Tensor(np.full(2, 1e38, dtype=np.float32), requires_grad=True)
    with pytest.raises(NumericsError):
        mul(big, big)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_layer_norm_raises_on_an_overflowed_variance():
    # the float32 variance of this row is inf; without the check the op
    # would return beta everywhere
    row = Tensor(np.array([[1e20, -1e20, 1e20, -1e20]], np.float32))
    with pytest.raises(NumericsError, match="layer_norm produced non-finite values"):
        layer_norm(row, Tensor(np.ones(4)), Tensor(np.zeros(4)))


def test_primitive_output_is_checked_once(monkeypatch):
    import sdah.tensor as T

    a, b = Tensor(np.ones(3), requires_grad=True), Tensor(np.ones(3))
    calls, check = [], T._check_finite

    def counting(arr, op):
        calls.append(op)
        check(arr, op)

    monkeypatch.setattr(T, "_check_finite", counting)
    out = add(a, b)
    assert out.requires_grad and calls == ["add"]


# -- properties ----------------------------------------------------------------

@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=3, max_side=6),
                  elements=st.floats(-50, 50)))
def test_softmax_simplex_property(x):
    s = softmax(Tensor(x, dtype=np.float64), axis=-1).data
    assert np.all(s >= 0)
    np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-9)


@given(st.integers(0, 20), st.integers(1, 5), st.integers(1, 5))
def test_roll_round_trip(shift, h, w):
    x = Tensor(_rand((h, w), 50))
    back = roll(roll(x, (shift,), (0,)), (-shift,), (0,))
    np.testing.assert_array_equal(back.data, x.data)


@given(hnp.arrays(np.float64, (3, 4), elements=st.floats(-10, 10)),
       hnp.arrays(np.float64, (4,), elements=st.floats(-10, 10)))
def test_add_broadcast_matches_numpy(a, b):
    got = add(Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64)).data
    np.testing.assert_allclose(got, a + b, atol=1e-12)
