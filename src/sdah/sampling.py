"""Bilinear feature sampling at continuous (y, x) pixel coordinates.

Coordinates are clamped to [0, H-1] x [0, W-1] before the 4-neighbor blend
(border mode), so sampling at integer in-range points reproduces pixel
values exactly and out-of-range points read the nearest border pixel.
Differentiable with respect to both the feature map and the points; the
point gradient is zero wherever the clamp is active.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, _as_tensor, _make, batched, no_grad, reshape


def axis_corners(v: np.ndarray, n: int):
    """Clamp coordinates v to [0, n-1] on one axis of length n.

    Returns (i0, i1, f): the lower neighbor, the upper one (i0 + 1, capped
    at n - 1) and the fractional part, so the blend is (1 - f) at i0 plus f
    at i1, and i1 == i0 only where f == 0.
    """
    c = np.clip(v, 0.0, n - 1.0)
    i0 = np.floor(c)
    f = c - i0
    i0 = i0.astype(np.int64)
    return i0, np.minimum(i0 + 1, n - 1), f


def bilinear_corners(ys: np.ndarray, xs: np.ndarray, h: int, w: int):
    """Clamped 4-neighbor blend at continuous (ys, xs) on an (h, w) map.

    Returns (idx, wts, fy, fx): the flat indices y * w + x and the blend
    weights of the four neighbors, both in the fixed order y0x0, y0x1, y1x0,
    y1x1, plus the fractional parts of the clamped coordinates.
    """
    y0i, y1i, fy = axis_corners(ys, h)
    x0i, x1i, fx = axis_corners(xs, w)
    idx = (y0i * w + x0i, y0i * w + x1i, y1i * w + x0i, y1i * w + x1i)
    wts = ((1 - fy) * (1 - fx), (1 - fy) * fx, fy * (1 - fx), fy * fx)
    return idx, wts, fy, fx


def bilinear_scatter(acc: np.ndarray, idx, wts, vals: np.ndarray) -> None:
    """Adjoint of the gather: add vals (B, C, P) into acc (B, C, H*W) at the
    (B, P) corners from `bilinear_corners`, corner by corner in their order.

    Each corner is one `np.bincount` over the flat (b, c, hw) index: it sums
    that corner's weighted values in float64 in (b, c, p) order, and the
    result is added into acc, so the reduction order is fixed.
    """
    b, c, hw = acc.shape
    base = np.arange(b * c).reshape(b, c, 1) * hw
    for i, ww in zip(idx, wts):
        flat = (base + i[:, None, :]).ravel()
        acc += np.bincount(flat, (vals * ww[:, None, :]).ravel(),
                           minlength=b * c * hw).reshape(acc.shape)


def bilinear_sample_batch(f, points) -> Tensor:
    """Sample f: (B, C, H, W) at points: (B, P, 2) -> (B, P, C)."""
    f = _as_tensor(f)
    points = _as_tensor(points, like=f)
    if f.ndim != 4 or points.ndim != 3 or points.shape[-1] != 2:
        raise ValueError(
            f"bilinear_sample_batch expects (B,C,H,W) and (B,P,2), "
            f"got {f.shape} and {points.shape}"
        )
    if f.shape[0] != points.shape[0]:
        raise ValueError("batch dims of features and points differ")
    b, c, h, w = f.shape
    p = points.shape[1]
    idx, wts, fy, fx = bilinear_corners(points.data[..., 0], points.data[..., 1], h, w)

    flat = f.data.reshape(b, c, h * w)
    v00, v01, v10, v11 = (  # (B,C,P)
        np.take_along_axis(flat, np.broadcast_to(i[:, None, :], (b, c, p)), axis=2)
        for i in idx
    )
    w00, w01, w10, w11 = (ww[:, None, :] for ww in wts)
    out = (w00 * v00 + w01 * v01 + w10 * v10 + w11 * v11).transpose(0, 2, 1)

    def bwd(g):
        gt = np.ascontiguousarray(g.transpose(0, 2, 1))  # (B,C,P)
        df = None
        if f.requires_grad:
            df = np.zeros_like(f.data).reshape(b, c, h * w)
            bilinear_scatter(df, idx, wts, gt)
            df = df.reshape(f.data.shape)
        dp = None
        if points.requires_grad:
            # derivative through the blend weights; zero where clamped
            dy = (1 - fx)[:, None, :] * (v10 - v00) + fx[:, None, :] * (v11 - v01)
            dx = (1 - fy)[:, None, :] * (v01 - v00) + fy[:, None, :] * (v11 - v10)
            ry = points.data[..., 0]
            rx = points.data[..., 1]
            my = ((ry > 0.0) & (ry < h - 1.0)).astype(g.dtype)
            mx = ((rx > 0.0) & (rx < w - 1.0)).astype(g.dtype)
            dp = np.stack(
                [(gt * dy).sum(axis=1) * my, (gt * dx).sum(axis=1) * mx], axis=-1
            )
        return df, dp

    return _make("bilinear_sample", out, (f, points), bwd)


def bilinear_sample(f, points) -> Tensor:
    """Sample f: (C, H, W) at points: (P, 2) in (y, x) order -> (P, C)."""
    f = _as_tensor(f)
    points = _as_tensor(points, like=f)
    if f.ndim != 3 or points.ndim != 2:
        raise ValueError(
            f"bilinear_sample expects (C,H,W) and (P,2), got {f.shape} and {points.shape}"
        )
    fb, unbatch = batched(f)
    return unbatch(bilinear_sample_batch(fb, reshape(points, (1,) + points.shape)))


def bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Plain numpy bilinear resize of (C, H, W), pixel-center aligned."""
    c, h, w = img.shape
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    yy, xx = np.meshgrid(ys, xs, indexing="ij")
    pts = np.stack([yy.ravel(), xx.ravel()], axis=-1)[None]
    with no_grad():
        out = bilinear_sample_batch(
            Tensor(img[None], dtype=np.float64), Tensor(pts, dtype=np.float64)
        )
    return out.data[0].T.reshape(c, out_h, out_w).astype(img.dtype)
