import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.ndimage import map_coordinates

from sdah.gradcheck import grad_check
from sdah.sampling import (
    bilinear_corners,
    bilinear_resize,
    bilinear_sample_batch,
    bilinear_scatter,
)
from sdah.tensor import Tensor, tsum


def _feat(b, c, h, w, seed=0):
    return np.random.default_rng(seed).normal(size=(b, c, h, w))


def test_integer_points_reproduce_pixels_exactly():
    f = _feat(2, 3, 5, 6, 1)
    ys, xs = np.meshgrid(np.arange(5), np.arange(6), indexing="ij")
    pts = np.stack([ys.ravel(), xs.ravel()], axis=-1).astype(np.float64)
    pts = np.broadcast_to(pts, (2,) + pts.shape)
    out = bilinear_sample_batch(Tensor(f, dtype=np.float64),
                                Tensor(pts, dtype=np.float64))
    want = f.reshape(2, 3, 30).transpose(0, 2, 1)
    np.testing.assert_array_equal(out.data, want)  # bit exact, not approx


def test_matches_scipy_map_coordinates_inside():
    f = _feat(1, 2, 9, 9, 2)
    rng = np.random.default_rng(3)
    pts = rng.uniform(0, 8, size=(1, 40, 2))
    out = bilinear_sample_batch(Tensor(f, dtype=np.float64),
                                Tensor(pts, dtype=np.float64)).data
    for ci in range(2):
        want = map_coordinates(f[0, ci], pts[0].T, order=1, mode="nearest")
        np.testing.assert_allclose(out[0, :, ci], want, atol=1e-12)


def test_out_of_range_reads_border():
    f = _feat(1, 1, 4, 4, 4)
    pts = np.array([[[-3.0, -3.0], [10.0, 10.0], [-1.0, 2.0]]])
    out = bilinear_sample_batch(Tensor(f, dtype=np.float64),
                                Tensor(pts, dtype=np.float64)).data
    np.testing.assert_allclose(out[0, 0, 0], f[0, 0, 0, 0])
    np.testing.assert_allclose(out[0, 1, 0], f[0, 0, 3, 3])
    np.testing.assert_allclose(out[0, 2, 0], f[0, 0, 0, 2])


def test_linear_ramp_is_interpolated_exactly():
    # bilinear interpolation reproduces any affine function of (y, x)
    h, w = 6, 7
    yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    f = (2.0 * yy - 3.0 * xx + 1.0)[None, None].astype(np.float64)
    rng = np.random.default_rng(5)
    pts = rng.uniform(0, [h - 1, w - 1], size=(1, 25, 2))
    out = bilinear_sample_batch(Tensor(f, dtype=np.float64),
                                Tensor(pts, dtype=np.float64)).data
    want = 2.0 * pts[0, :, 0] - 3.0 * pts[0, :, 1] + 1.0
    np.testing.assert_allclose(out[0, :, 0], want, atol=1e-10)


def test_shape_validation():
    with pytest.raises(ValueError):
        bilinear_sample_batch(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((1, 2, 2))))
    with pytest.raises(ValueError):
        bilinear_sample_batch(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 2, 3))))
    with pytest.raises(ValueError):
        bilinear_sample_batch(Tensor(np.zeros((2, 1, 4, 4))), Tensor(np.zeros((1, 2, 2))))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_grouped_read_equals_one_read_per_group(dtype):
    """Channel group g read at points[..., g, :, :] is the 3-D read of those
    channels at those points: values and both gradients, bit for bit."""
    b, c, ng, h, w = 2, 6, 3, 5, 6
    rng = np.random.default_rng(31)
    f = rng.normal(size=(b, c, h, w)).astype(dtype)
    pts = rng.uniform(-0.5, [h - 0.5, w - 0.5], size=(b, 4, ng, 5, 2)).astype(dtype)
    pts[0, 0, 0, 0] = [1.0, 2.0]              # integer and clamped points
    pts[1, 2, 1, 3] = [-1.0, w + 1.0]
    g = rng.normal(size=(b, 4, ng, 5, c // ng)).astype(dtype)

    ft = Tensor(f, requires_grad=True, dtype=dtype)
    pt = Tensor(pts, requires_grad=True, dtype=dtype)
    out = bilinear_sample_batch(ft, pt)
    assert out.shape == (b, 4, ng, 5, c // ng) and out.dtype == dtype
    out.backward(g)

    cg = c // ng
    for k in range(ng):
        fk = Tensor(f[:, k * cg:(k + 1) * cg], requires_grad=True, dtype=dtype)
        pk = Tensor(pts[:, :, k].reshape(b, -1, 2), requires_grad=True, dtype=dtype)
        ok = bilinear_sample_batch(fk, pk)
        ok.backward(g[:, :, k].reshape(ok.shape))
        np.testing.assert_array_equal(out.data[:, :, k], ok.data.reshape(b, 4, 5, cg))
        np.testing.assert_array_equal(ft.grad[:, k * cg:(k + 1) * cg], fk.grad)
        np.testing.assert_array_equal(pt.grad[:, :, k], pk.grad.reshape(b, 4, 5, 2))


def test_groups_must_divide_channels():
    with pytest.raises(ValueError, match="groups"):
        bilinear_sample_batch(Tensor(np.zeros((1, 4, 3, 3))), Tensor(np.zeros((1, 3, 2, 2))))


def test_grad_wrt_features():
    f = Tensor(_feat(2, 2, 4, 4, 8))
    pts = Tensor(np.random.default_rng(9).uniform(0.2, 2.8, size=(2, 6, 2)))
    grad_check(lambda t: bilinear_sample_batch(t, pts), [f], tol=1e-6)


def test_grad_wrt_points():
    f = Tensor(_feat(1, 2, 6, 6, 10))
    pts = Tensor(np.random.default_rng(11).uniform(0.6, 4.4, size=(1, 8, 2)))
    grad_check(lambda t: bilinear_sample_batch(f, t), [pts], tol=1e-5)


def test_grad_wrt_both_jointly():
    f = Tensor(_feat(1, 1, 5, 5, 12))
    pts = Tensor(np.random.default_rng(13).uniform(0.7, 3.3, size=(1, 5, 2)))
    grad_check(bilinear_sample_batch, [f, pts], tol=1e-5)


def test_point_grad_is_zero_when_clamped():
    f = Tensor(_feat(1, 1, 4, 4, 14), requires_grad=True)
    pts = Tensor(np.array([[[-2.0, 1.5], [1.5, 9.0], [1.5, 1.5]]]),
                 requires_grad=True)
    tsum(bilinear_sample_batch(f, pts)).backward()
    assert pts.grad[0, 0, 0] == 0.0  # y clamped low
    assert pts.grad[0, 1, 1] == 0.0  # x clamped high
    assert np.any(pts.grad[0, 2] != 0.0)


def test_feature_grad_scatter_accumulates():
    # two identical points must deposit twice the gradient of one
    f1 = Tensor(np.zeros((1, 1, 3, 3)), requires_grad=True)
    one = bilinear_sample_batch(f1, Tensor(np.array([[[1.2, 1.7]]])))
    tsum(one).backward()
    f2 = Tensor(np.zeros((1, 1, 3, 3)), requires_grad=True)
    two = bilinear_sample_batch(f2, Tensor(np.array([[[1.2, 1.7], [1.2, 1.7]]])))
    tsum(two).backward()
    np.testing.assert_allclose(f2.grad, 2.0 * f1.grad, rtol=1e-6)


def _add_at_scatter(shape, idx, wts, vals):
    """Hand-written oracle: one np.add.at per corner."""
    acc = np.zeros(shape)
    bi = np.arange(shape[0])[:, None, None]
    ci = np.arange(shape[1])[None, :, None]
    for i, ww in zip(idx, wts):
        np.add.at(acc, (bi, ci, i[:, None, :]), vals * ww[:, None, :])
    return acc


@pytest.mark.parametrize("b,c,h,w", [(3, 4, 5, 6), (2, 1, 13, 13)])  # 2nd: one channel, 13x13
def test_scatter_matches_add_at_oracle(b, c, h, w):
    rng = np.random.default_rng(16)
    pts = rng.uniform(-2.0, [h + 1.0, w + 1.0], size=(b, 40, 2))  # some clamped
    pts[:, 10:20] = pts[:, :10]          # repeated points
    pts[:, 20:25] = [1.5, w - 1.0]       # x on the border: x1 == x0
    pts[:, 25:30, 0] = np.floor(pts[:, 25:30, 0])  # integer rows
    idx, wts, _, _ = bilinear_corners(pts[..., 0], pts[..., 1], h, w)
    vals = rng.normal(size=(b, c, pts.shape[1]))
    acc = np.zeros((b, c, h * w))
    bilinear_scatter(acc, idx, wts, vals)
    np.testing.assert_allclose(acc, _add_at_scatter(acc.shape, idx, wts, vals),
                               rtol=0, atol=1e-12)


@given(st.integers(0, 4), st.integers(0, 4))
def test_resize_identity_at_same_size(dy, dx):
    h, w = 3 + dy, 3 + dx
    img = np.random.default_rng(15).normal(size=(2, h, w))
    np.testing.assert_allclose(bilinear_resize(img, h, w), img, atol=1e-12)


def test_resize_constant_stays_constant():
    img = np.full((1, 4, 4), 2.5)
    out = bilinear_resize(img, 9, 13)
    assert out.shape == (1, 9, 13)
    np.testing.assert_allclose(out, 2.5, atol=1e-12)


def test_resize_upsample_is_monotone_on_ramp():
    img = np.arange(5.0)[None, None, :] * np.ones((1, 3, 1))
    out = bilinear_resize(img, 3, 17)
    diffs = np.diff(out[0, 1])
    assert np.all(diffs >= -1e-12)
