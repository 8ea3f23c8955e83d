"""Bilinear feature sampling at continuous (y, x) pixel coordinates.

Coordinates are clamped to [0, H-1] x [0, W-1] before the 4-neighbor blend
(border mode), so sampling at integer in-range points reproduces pixel
values exactly and out-of-range points read the nearest border pixel.
Differentiable with respect to both the feature map and the points; the
point gradient is zero wherever the clamp is active.  The feature-map
gradient is a scatter-add in a fixed order, so it is deterministic.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, _as_tensor, _make, no_grad


def axis_corners(v: np.ndarray, n: int):
    """Clamp coordinates v to [0, n-1] on one axis of length n.

    Returns (i0, i1, f): the lower neighbor, the upper one (i0 + 1, capped
    at n - 1) and the fractional part, so the blend is (1 - f) at i0 plus f
    at i1, and i1 == i0 only where f == 0.
    """
    c = v.clip(0.0, n - 1.0)
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


def bilinear_scatter(acc: np.ndarray, flat, wts, vals: np.ndarray) -> None:
    """Adjoint of the gather: add vals (B, C, P) into acc (B, C, H*W) at the
    (B, C, P) flat indices of the four corners, the pixels the gather read,
    with the (B, P) weights from `bilinear_corners`, corner by corner.

    Each corner is one `np.bincount` over its flat (b, c, hw) index: it sums
    that corner's weighted values in float64 in (b, c, p) order, and the
    result is added into acc, so the reduction order is fixed.
    """
    for i, ww in zip(flat, wts):
        acc += np.bincount(i.ravel(), (vals * ww[:, None, :]).ravel(),
                           minlength=acc.size).reshape(acc.shape)


def bilinear_sample_batch(f, points) -> Tensor:
    """Sample f: (B, C, H, W) at points: (B, ..., G, P, 2) -> (B, ..., G, P, C/G).

    Channel group g, channels g*C/G to (g+1)*C/G - 1, is read at points[..., g, :, :];
    (B, P, 2) points are one group.  The groups go to the batch axis: (B*G, M*P)
    points on a (B*G, C/G, H*W) map, M the product of the middle axes.
    Values and both gradients equal `bilinear_sample_take_along_axis` in
    tests/oracles.py bit for bit.
    """
    f = _as_tensor(f)
    points = _as_tensor(points, like=f)
    if f.ndim != 4 or points.ndim < 3 or points.shape[-1] != 2:
        raise ValueError(
            f"bilinear_sample_batch expects (B,C,H,W) and (B,...,P,2), "
            f"got {f.shape} and {points.shape}"
        )
    if f.shape[0] != points.shape[0]:
        raise ValueError("batch dims of features and points differ")
    b, c, h, w = f.shape
    lead = points.shape[:-1] if points.ndim > 3 else (b, 1) + points.shape[1:-1]
    bg, cg = b * lead[-2], c // lead[-2]
    if cg * lead[-2] != c:
        raise ValueError(f"{lead[-2]} point groups do not divide {c} channels")

    to_g = list(range(len(lead) + 1))  # (B, ..., G, P, k): the group axis to 1
    to_g.insert(1, to_g.pop(-3))
    from_g = np.argsort(to_g)

    def to_batch(a):  # (B, ..., G, P, k) -> (B*G, M*P, k)
        a = a.reshape(lead + a.shape[-1:]).transpose(to_g)
        return a.reshape(bg, -1, a.shape[-1])

    def from_batch(a):  # (B*G, M*P, k) -> (B, ..., G, P, k), or (B, P, k)
        a = a.reshape((b, lead[-2]) + lead[1:-2] + lead[-1:] + a.shape[-1:])
        return a.transpose(from_g).reshape(points.shape[:-1] + a.shape[-1:])

    pts = to_batch(points.data)
    idx, wts, fy, fx = bilinear_corners(pts[..., 0], pts[..., 1], h, w)

    # each corner read as (B*G, M*P) rows of a pixel-major copy of the map,
    # one index per point instead of one per point and channel, then laid
    # out (B*G, C/G, M*P); the backward builds the flat indices it scatters at
    rows = f.data.reshape(bg, cg, h * w).transpose(0, 2, 1).reshape(bg * h * w, cg)
    base = np.arange(bg).reshape(bg, 1) * (h * w)
    v00, v01, v10, v11 = (rows.take(base + i, axis=0).transpose(0, 2, 1).copy()
                          for i in idx)
    w00, w01, w10, w11 = (ww[:, None, :] for ww in wts)
    out = from_batch((w00 * v00 + w01 * v01 + w10 * v10 + w11 * v11).transpose(0, 2, 1))

    def df(gt):  # gt: prep's (B*G, C/G, M*P) transposed gradient
        acc = np.zeros_like(f.data).reshape(bg, cg, h * w)
        off = np.arange(bg * cg).reshape(bg, cg, 1) * (h * w)
        bilinear_scatter(acc, (off + i[:, None, :] for i in idx), wts, gt)
        return acc.reshape(f.data.shape)

    def dp(gt):
        # derivative through the blend weights; zero where clamped
        dy = (1 - fx)[:, None, :] * (v10 - v00) + fx[:, None, :] * (v11 - v01)
        dx = (1 - fy)[:, None, :] * (v01 - v00) + fy[:, None, :] * (v11 - v10)
        inside = ((pts > 0.0) & (pts < [h - 1.0, w - 1.0])).astype(gt.dtype)
        return from_batch(np.stack(
            [(gt * dy).sum(axis=1), (gt * dx).sum(axis=1)], axis=-1) * inside)

    return _make("bilinear_sample", out, (f, points), df, dp,
                 prep=lambda g: np.ascontiguousarray(to_batch(g).transpose(0, 2, 1)))


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
