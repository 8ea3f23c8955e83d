import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sdah.convops import conv2d, deconv2d
from sdah.gradcheck import grad_check
from sdah.tensor import Tensor, tsum


def _ref_conv(x, w, bias, stride, padding, groups):
    """Direct-loop cross-correlation; the slow independent oracle."""
    n, cin, h, wd = x.shape
    cout, cg, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - k) // stride + 1
    wo = (wd + 2 * padding - k) // stride + 1
    out = np.zeros((n, cout, ho, wo), dtype=x.dtype)
    cpg = cout // groups
    for b in range(n):
        for co in range(cout):
            g = co // cpg
            for i in range(ho):
                for j in range(wo):
                    patch = xp[b, g * cg:(g + 1) * cg,
                               i * stride:i * stride + k,
                               j * stride:j * stride + k]
                    out[b, co, i, j] = (patch * w[co]).sum()
            if bias is not None:
                out[b, co] += bias[co]
    return out


def _ref_conv_grads(x, w, g, stride, padding, groups):
    """Direct-loop input and weight gradients of `_ref_conv` for output
    gradient g: every output pixel scatters g * w into its input patch and
    gathers g * patch into the kernel."""
    n, cin, h, wd = x.shape
    cout, cg, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    cpg = cout // groups
    for b in range(n):
        for co in range(cout):
            ci = slice(co // cpg * cg, (co // cpg + 1) * cg)
            for i in range(g.shape[2]):
                for j in range(g.shape[3]):
                    rows = slice(i * stride, i * stride + k)
                    cols = slice(j * stride, j * stride + k)
                    dxp[b, ci, rows, cols] += g[b, co, i, j] * w[co]
                    dw[co] += g[b, co, i, j] * xp[b, ci, rows, cols]
    return dxp[:, :, padding:padding + h, padding:padding + wd], dw


def _conv_and_grads(x, w, b, g, **kw):
    xt = Tensor(x, requires_grad=True, dtype=np.float64)
    wt = Tensor(w, requires_grad=True, dtype=np.float64)
    bt = None if b is None else Tensor(b, dtype=np.float64)
    y = conv2d(xt, wt, bt, **kw)
    y.backward(g)
    return y.data, xt.grad, wt.grad


def _rand(shape, seed):
    return np.random.default_rng(seed).normal(size=shape)


@pytest.mark.parametrize(
    "cin,cout,k,stride,padding,groups",
    [
        (3, 5, 3, 1, 1, 1),
        (3, 5, 2, 2, 0, 1),
        (4, 4, 7, 1, 3, 4),   # depthwise
        (4, 6, 1, 1, 0, 2),   # grouped pointwise
        (2, 3, 2, 2, 0, 1),
        (1, 2, 5, 1, 2, 1),
    ],
)
def test_conv_matches_loop_oracle(cin, cout, k, stride, padding, groups):
    x = _rand((2, cin, 8, 8), seed=cin * 10 + k)
    w = _rand((cout, cin // groups, k, k), seed=cout)
    b = _rand((cout,), seed=99)
    want = _ref_conv(x, w, b, stride, padding, groups)
    g = _rand(want.shape, seed=98)
    y, dx, dw = _conv_and_grads(x, w, b, g, stride=stride, padding=padding,
                                groups=groups)
    np.testing.assert_allclose(y, want, rtol=1e-12, atol=1e-12)
    for got, ref in zip((dx, dw), _ref_conv_grads(x, w, g, stride, padding, groups)):
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("hw", [(5, 9), (1, 1), (2, 2), (3, 3)])
@pytest.mark.parametrize("k", [3, 5, 7])
def test_depthwise_banded_matches_loop_oracles(k, hw, n):
    """Stride-1 depthwise convs (the banded lowering) on non-square maps and
    maps smaller than the kernel, at padding 0, k//2 and k-1 where the
    output is non-empty: forward, input and weight gradients."""
    c = 2
    x = _rand((n, c) + hw, seed=k * 100 + hw[1] * 10 + n)
    w = _rand((c, 1, k, k), seed=k)
    b = _rand((c,), seed=97)
    for padding in sorted({0, k // 2, k - 1}):
        if min(hw) + 2 * padding < k:
            continue
        want = _ref_conv(x, w, b, 1, padding, c)
        g = _rand(want.shape, seed=padding)
        y, dx, dw = _conv_and_grads(x, w, b, g, padding=padding, groups=c)
        np.testing.assert_allclose(y, want, rtol=1e-12, atol=1e-12)
        for got, ref in zip((dx, dw), _ref_conv_grads(x, w, g, 1, padding, c)):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("k,stride,groups,banded", [
    (7, 1, 4, True),    # depthwise 7x7
    (5, 1, 4, True),    # the offset net's depthwise 5x5
    (1, 1, 4, False),   # depthwise 1x1
    (3, 2, 4, False),   # strided depthwise
    (3, 1, 2, False),   # grouped
    (3, 1, 1, False),   # dense
])
def test_only_stride1_depthwise_skips_im2col(monkeypatch, k, stride, groups, banded):
    """The lowering follows geometry alone: a stride-1 depthwise conv with
    k > 1 never builds im2col columns, in forward or backward; every other
    conv does."""
    import sdah.convops as convops

    calls = []
    real = convops._im2col
    monkeypatch.setattr(convops, "_im2col", lambda *a: calls.append(1) or real(*a))
    x = Tensor(_rand((2, 4, 7, 7), 30), requires_grad=True)
    w = Tensor(_rand((4, 4 // groups, k, k), 31), requires_grad=True)
    tsum(conv2d(x, w, stride=stride, padding=k // 2, groups=groups)).backward()
    assert (not calls) == banded


def test_conv_strict_geometry_raises():
    x = Tensor(np.zeros((1, 1, 7, 7)))
    w = Tensor(np.zeros((1, 1, 2, 2)))
    with pytest.raises(ValueError):
        conv2d(x, w, stride=2)  # span 5 not divisible by 2


def test_conv_allow_floor_drops_trailing():
    x = Tensor(_rand((1, 1, 7, 7), 3))
    w = Tensor(_rand((1, 1, 2, 2), 4))
    out = conv2d(x, w, stride=2, allow_floor=True)
    assert out.shape == (1, 1, 3, 3)


def test_conv_group_mismatch_raises():
    with pytest.raises(ValueError):
        conv2d(Tensor(np.zeros((1, 4, 4, 4))), Tensor(np.zeros((6, 4, 1, 1))),
               groups=2)
    with pytest.raises(ValueError):
        conv2d(Tensor(np.zeros((1, 4, 4, 4))), Tensor(np.zeros((4, 4, 1, 2))))


def test_conv_bias_shape_raises():
    with pytest.raises(ValueError):
        conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((3, 2, 1, 1))),
               Tensor(np.zeros(2)))


def test_deconv_shape_formula():
    x = Tensor(_rand((1, 4, 5, 5), 5))
    w = Tensor(_rand((4, 3, 2, 2), 6))
    assert deconv2d(x, w, stride=2).shape == (1, 3, 10, 10)
    assert deconv2d(x, w, stride=4).shape == (1, 3, 18, 18)


def test_deconv_channel_mismatch_raises():
    with pytest.raises(ValueError):
        deconv2d(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((4, 2, 2, 2))))


@pytest.mark.parametrize("stride", [2, 4, 5])
def test_deconv_of_an_empty_map_raises(stride):
    with pytest.raises(ValueError, match="empty map"):
        deconv2d(Tensor(np.zeros((1, 2, 0, 3))), Tensor(np.zeros((2, 3, 4, 4))), stride=stride)


@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 2), st.integers(0, 200))
def test_conv_deconv_adjoint_identity(cin, cout, k, stride, seed):
    """<conv(x, w), g> == <x, deconv(g, w)> for every geometry at padding 0."""
    h = k + 2 * stride  # an integral 3x3 output at either stride
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(1, cin, h, h))
    w = rng.normal(size=(cout, cin, k, k))
    g = rng.normal(size=(1, cout, 3, 3))
    lhs = (conv2d(Tensor(x, dtype=np.float64), Tensor(w, dtype=np.float64),
                  stride=stride).data * g).sum()
    rhs = (x * deconv2d(Tensor(g, dtype=np.float64), Tensor(w, dtype=np.float64),
                        stride=stride).data).sum()
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10)


@given(st.sampled_from([1, 2, 4]), st.integers(1, 2), st.sampled_from([1, 3, 5, 7]),
       st.data(), st.integers(1, 2), st.integers(0, 200))
def test_conv_input_grad_adjoint_identity(groups, mult, k, data, stride, seed):
    """<conv(x, w), g> == <x, x.grad> after backward(g), for dense, grouped
    and depthwise kernels and every padding up to k (p > k-1 included);
    with groups=1 and padding 0 also == <x, deconv(g, w)>."""
    cin = 4
    cout = groups * mult
    padding = data.draw(st.integers(0, k), label="padding")
    h = max(1, k - 2 * padding) + data.draw(st.integers(0, 3), label="extra")
    h += (h + 2 * padding - k) % stride  # integral output size
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(2, cin, h, h)), requires_grad=True, dtype=np.float64)
    w = Tensor(rng.normal(size=(cout, cin // groups, k, k)), dtype=np.float64)
    y = conv2d(x, w, stride=stride, padding=padding, groups=groups)
    g = rng.normal(size=y.shape)
    y.backward(g)
    lhs = (y.data * g).sum()
    np.testing.assert_allclose(lhs, (x.data * x.grad).sum(), rtol=1e-10, atol=1e-10)
    if groups == 1 and padding == 0:
        dx = deconv2d(Tensor(g, dtype=np.float64), w, stride=stride)
        np.testing.assert_allclose(lhs, (x.data * dx.data).sum(), rtol=1e-10, atol=1e-10)


def test_conv_skips_input_grad_when_not_required(monkeypatch):
    """Backward computes no input VJP for an input that needs no gradient."""
    import sdah.convops as convops

    calls = []
    for name in ("_conv_backward_x", "_conv_forward"):
        real = getattr(convops, name)
        monkeypatch.setattr(convops, name,
                            lambda *a, _n=name, _f=real: calls.append(_n) or _f(*a))
    w = Tensor(_rand((3, 2, 3, 3), 20), requires_grad=True)
    wt = Tensor(_rand((2, 3, 2, 2), 21), requires_grad=True)
    for needs_x in (False, True):
        x = Tensor(_rand((1, 2, 6, 6), 19), requires_grad=needs_x)
        y = conv2d(x, w, padding=1)
        calls.clear()
        tsum(y).backward()
        assert calls[:1] == ["_conv_backward_x"] * needs_x
        y = deconv2d(x, wt, stride=2)
        calls.clear()
        tsum(y).backward()
        assert calls[:1] == ["_conv_forward"] * needs_x
        assert (x.grad is not None) == needs_x and w.grad is not None


def test_conv_grad_check():
    x = Tensor(_rand((2, 3, 6, 6), 7))
    w = Tensor(_rand((4, 3, 3, 3), 8))
    b = Tensor(_rand(4, 9))
    grad_check(lambda *t: conv2d(*t, stride=1, padding=1), [x, w, b], tol=1e-6)


def test_depthwise_conv_grad_check():
    x = Tensor(_rand((1, 4, 6, 6), 10))
    w = Tensor(_rand((4, 1, 3, 3), 11))
    grad_check(lambda a, c: conv2d(a, c, padding=1, groups=4), [x, w], tol=1e-6)


def test_grouped_conv_grad_check():
    x = Tensor(_rand((2, 4, 6, 6), 22))
    w = Tensor(_rand((6, 2, 3, 3), 23))  # 2 groups, 3 outputs per group
    b = Tensor(_rand(6, 24))
    grad_check(lambda *t: conv2d(*t, padding=1, groups=2), [x, w, b], tol=1e-6)


def test_depthwise_7x7_conv_grad_check():
    x = Tensor(_rand((1, 3, 8, 8), 25))
    w = Tensor(_rand((3, 1, 7, 7), 26))
    grad_check(lambda a, c: conv2d(a, c, padding=3, groups=3), [x, w], tol=1e-6)


def test_strided_conv_grad_check():
    x = Tensor(_rand((1, 2, 8, 8), 12))
    w = Tensor(_rand((3, 2, 2, 2), 13))
    grad_check(lambda a, c: conv2d(a, c, stride=2), [x, w], tol=1e-6)


def test_deconv_grad_check():
    x = Tensor(_rand((1, 3, 4, 4), 14))
    w = Tensor(_rand((3, 2, 2, 2), 15))
    b = Tensor(_rand(2, 16))
    grad_check(lambda *t: deconv2d(*t, stride=2), [x, w, b], tol=1e-6)


def test_conv_backward_accumulates_into_shared_weight():
    # same weight used twice: grads from both applications must sum
    x = Tensor(_rand((1, 2, 4, 4), 17), requires_grad=True)
    w = Tensor(_rand((2, 2, 3, 3), 18), requires_grad=True)
    y = conv2d(conv2d(x, w, padding=1), w, padding=1)
    tsum(y).backward()
    assert w.grad is not None and np.abs(w.grad).max() > 0
    grad_check(lambda a, c: conv2d(conv2d(a, c, padding=1), c, padding=1),
               [x, w], tol=1e-5)
