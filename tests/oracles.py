"""Reference implementations the library's fused and cached paths are
tested against: slow per-window attention and bias reads, the op chains
of the window core (`attend_chain`), the sampling points
(`deform_points_chain`) and the loss (`loss_chain`), the per-tensor Adam
loop (`adam_per_tensor`), per-call index builds of the relative bias
(`hat_scatter`, `slope_arange`) and of the sampler
(`bilinear_sample_take_along_axis`), the two-corner key slope
(`slope_two_take`), the per-point `csv.writer` loop of the points table
(`points_csv_per_point`), and the block-output bump the Grad-CAM finite
differences use (`bumped_logits`)."""

import csv
import io
import math
from dataclasses import replace

import numpy as np

import sdah.blocks
from sdah.attention import OFFSET_KERNEL, SdmsaParams
from sdah.convops import conv2d
from sdah.network import forward
from sdah.sampling import bilinear_corners, bilinear_sample_batch, bilinear_scatter
from sdah.tensor import (Tensor, _as_tensor, _make, add, clip, gelu, matmul, narrow, reshape,
                         softmax, swap_last, tanh, transpose, tsum)


def _offset_forward(q_heads: Tensor, dw_w, dw_b, pw_w, pw_b,
                    ws: int, gamma_off: float) -> Tensor:
    """(B, n_w, n_h, P, d) queries -> (B, n_w, n_h, P, 2) bounded offsets."""
    b, nw, nh, p, d = q_heads.shape
    c = nh * d
    g = transpose(q_heads, (0, 1, 2, 4, 3))
    g = reshape(g, (b * nw, c, ws, ws))
    hdw = conv2d(g, dw_w, dw_b, stride=1, padding=OFFSET_KERNEL // 2, groups=c)
    hpw = conv2d(gelu(hdw), pw_w, pw_b, groups=nh)  # (B*n_w, 2*n_h, ws, ws)
    o = reshape(hpw, (b, nw, nh, 2, p))
    o = transpose(o, (0, 1, 2, 4, 3))
    return tanh(o) * (gamma_off * ws / 2.0)


def deform_points_chain(q: Tensor, params: SdmsaParams, ws: int, ref, lo, hi
                        ) -> tuple[Tensor, np.ndarray]:
    """(points, offsets) as the eleven-node chain `attention._deform_points`
    fuses: the offset net (transpose, reshape, conv2d, gelu, conv2d,
    reshape, transpose, tanh), its scale, the reference shift and the clip."""
    off = _offset_forward(q, params.off_dw_w, params.off_dw_b, params.off_pw_w,
                          params.off_pw_b, ws, params.gamma_off)
    return clip(off + ref, lo, hi), off.data


def compute_offsets(q_win, params: SdmsaParams, head: int) -> Tensor:
    """Offsets for one window and one head: (P, d) queries -> (P, 2)."""
    if not params.deformable:
        raise ValueError("offset net absent: layer built with deform=False")
    q = _as_tensor(q_win)
    p, d = q.shape
    qh = reshape(q, (1, 1, 1, p, d))
    return reshape(
        _offset_forward(
            qh,
            narrow(params.off_dw_w, 0, head * d, d),
            narrow(params.off_dw_b, 0, head * d, d),
            narrow(params.off_pw_w, 0, head * 2, 2),
            narrow(params.off_pw_b, 0, head * 2, 2),
            params.ws,
            params.gamma_off,
        ),
        (p, 2),
    )


def plain_twin(params: SdmsaParams) -> SdmsaParams:
    """The same layer without its offset net: it attends over each window's
    own patches, the reference the deformable path is checked against."""
    return replace(params, off_dw_w=None, off_dw_b=None, off_pw_w=None,
                   off_pw_b=None)


def interpolated_bias(p_query, p_key_deformed, bias_table) -> Tensor:
    """Continuous-relative-position bias matrix for one window and head.

    Entry [i, j] reads the (2*ws-1)^2 table at displacement
    p_key_deformed[j] - p_query[i], bilinearly interpolated by the feature
    sampler and clamped to the table's range, so integer displacements
    reproduce the table values exactly.
    """
    table = _as_tensor(bias_table)
    t = table.shape[-1]
    ws = (t + 1) // 2
    pq = _as_tensor(p_query, like=table)
    pk = _as_tensor(p_key_deformed, like=table)
    p = pq.shape[0]
    delta = reshape(pk, (1, p, 2)) - reshape(pq, (p, 1, 2)) + float(ws - 1)
    out = bilinear_sample_batch(reshape(table, (1, 1, t, t)),
                                reshape(delta, (1, p * p, 2)))
    return reshape(out, (p, p))


def attend_chain(q: Tensor, k: Tensor, v: Tensor, bias: Tensor) -> tuple[Tensor, Tensor]:
    """softmax(q kᵀ/√d + bias) v as six graph nodes (swap_last, matmul,
    scale, add, softmax, matmul): the chain `attention._attend` fuses.
    Returns (output, probabilities)."""
    scores = matmul(q, swap_last(k)) * (1.0 / math.sqrt(q.shape[-1]))
    attn = softmax(scores + bias, axis=-1)
    return matmul(attn, v), attn


def bumped_logits(model, image, block: str, delta) -> Tensor:
    """The logits of `network.forward` with `delta` added onto `block`'s
    output.  `blocks.sdapc_block` is wrapped for this one forward and picks
    the block by parameter identity."""
    target = model.layers[block]
    inner = sdah.blocks.sdapc_block

    def bumped(x, p, layout):
        out, trace = inner(x, p, layout)
        if p is target:
            out = add(out, Tensor(delta, dtype=out.dtype))
        return out, trace

    sdah.blocks.sdapc_block = bumped
    try:
        return forward(model, image)[0]
    finally:
        sdah.blocks.sdapc_block = inner


def adam_per_tensor(params: dict, grads: dict, state: dict, lr: float) -> None:
    """One bias-corrected Adam update tensor by tensor, in place on the
    parameter tensors; `state` holds the step count "t" and per-name moments
    "m" and "v", created at the first step."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    state["t"] = state.get("t", 0) + 1
    c1 = 1.0 - beta1 ** state["t"]
    c2 = 1.0 - beta2 ** state["t"]
    for name, p in params.items():
        g = np.asarray(grads[name])
        if g.shape != p.data.shape:
            raise ValueError(f"{name}: grad shape {g.shape} != {p.data.shape}")
        m = state.setdefault("m", {}).setdefault(name, np.zeros_like(p.data))
        v = state.setdefault("v", {}).setdefault(name, np.zeros_like(p.data))
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p.data = p.data - lr * (m / c1) / (np.sqrt(v / c2) + eps)


def loss_chain(logits, label, lambda_dice: float, lambda_ce: float
               ) -> tuple[Tensor, Tensor, Tensor]:
    """(loss, dice, ce) as the op chain `training.combined_loss` fuses:
    a softmax, then per foreground class a narrow, a product, two sums and
    the ratio arithmetic for dice, and CE as its own stabilized node."""
    lg = _as_tensor(logits)
    lab = np.asarray(label).astype(np.int64)
    k = lg.shape[1]
    eps = 1e-5
    p = softmax(lg, axis=1)
    total = None
    for c in range(1, k):
        gc = (lab == c).astype(lg.dtype.type)[:, None]
        pc = narrow(p, 1, c, 1)
        inter = tsum(pc * Tensor(gc, dtype=lg.dtype))
        denom = tsum(pc) + float(gc.sum())
        term = 1.0 - (2.0 * inter + eps) / (denom + eps)
        total = term if total is None else total + term
    dice = total * Tensor(np.asarray(1.0 / (k - 1)), dtype=lg.dtype)

    x = lg.data
    m = x.max(axis=1, keepdims=True)
    lse = np.log(np.exp(x - m).sum(axis=1, keepdims=True)) + m
    picked = np.take_along_axis(x, lab[:, None], axis=1)
    n = picked.size

    def ce_bwd(g):
        onehot = np.zeros_like(x)
        np.put_along_axis(onehot, lab[:, None], 1.0, axis=1)
        return g * (np.exp(x - lse) - onehot) / n

    ce = _make("ce_loss", np.asarray((lse - picked).sum() / n, dtype=x.dtype), (lg,), ce_bwd)
    return lambda_dice * dice + lambda_ce * ce, dice, ce


def hat_scatter(i0, i1, f, t: int, transposed: bool = False) -> np.ndarray:
    """`attention._hat` with its scatter positions built on every call.

    Dense per-axis interpolation weights from `axis_corners` output.

    i0, i1, f are (..., ws); the result is (..., ws, t), or (..., t, ws)
    when transposed, holding 1 - f at i0 and f at i1 on each row.  f goes
    in first so that where i1 == i0 (f == 0) the row keeps its weight 1.
    """
    ws = f.shape[-1]
    q = np.arange(f.size).reshape(f.shape)
    if transposed:
        pos, step, shape = (q - q % ws) * t + q % ws, ws, f.shape[:-1] + (t, ws)
    else:
        pos, step, shape = q * t, 1, f.shape + (t,)
    h = np.zeros(shape, f.dtype)
    flat = h.reshape(-1)
    flat[pos + i1 * step] = f
    flat[pos + i0 * step] = 1 - f
    return h


def slope_arange(e: np.ndarray, i0, inside) -> np.ndarray:
    """`attention._slope` with its positions built on every call.

    Sum over the last (query) axis of e at i0, where the displacement is
    strictly inside the table."""
    pos = np.arange(i0.size).reshape(i0.shape) * e.shape[-1]
    return (np.take(e.reshape(-1), pos + i0) * inside).sum(axis=-1)


def slope_two_take(e: np.ndarray, i0, i1, inside) -> np.ndarray:
    """The per-axis key derivative from the gradient times the table itself,
    the reference for `attention._slope` over the table's forward
    differences: sum over the last (query) axis of e at i1 minus e at i0,
    where the displacement is strictly inside the table."""
    pos = np.arange(i0.size).reshape(i0.shape) * e.shape[-1]
    e = e.reshape(-1)
    return ((np.take(e, pos + i1) - np.take(e, pos + i0)) * inside).sum(axis=-1)


def bilinear_sample_take_along_axis(f, points) -> Tensor:
    """`sampling.bilinear_sample_batch` with `take_along_axis` corner reads.

    Sample f: (B, C, H, W) at points: (B, ..., G, P, 2) -> (B, ..., G, P, C/G).

    Channel group g, channels g*C/G to (g+1)*C/G - 1, is read at points[..., g, :, :];
    (B, P, 2) points are one group.  The groups go to the batch axis: (B*G, M*P)
    points on a (B*G, C/G, H*W) map, M the product of the middle axes.
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

    def to_batch(a):  # (B, ..., G, P, k) -> (B*G, M*P, k)
        a = np.moveaxis(a.reshape(lead + a.shape[-1:]), -3, 1)
        return a.reshape(bg, -1, a.shape[-1])

    def from_batch(a):  # (B*G, M*P, k) -> (B, ..., G, P, k), or (B, P, k)
        a = a.reshape((b, lead[-2]) + lead[1:-2] + lead[-1:] + a.shape[-1:])
        return np.moveaxis(a, 1, -3).reshape(points.shape[:-1] + a.shape[-1:])

    pts = to_batch(points.data)
    idx, wts, fy, fx = bilinear_corners(pts[..., 0], pts[..., 1], h, w)

    flat = f.data.reshape(bg, cg, h * w)
    v00, v01, v10, v11 = (  # (B*G, C/G, M*P)
        np.take_along_axis(flat, i[:, None, :], axis=2) for i in idx
    )
    w00, w01, w10, w11 = (ww[:, None, :] for ww in wts)
    out = from_batch((w00 * v00 + w01 * v01 + w10 * v10 + w11 * v11).transpose(0, 2, 1))

    def df(gt):  # gt: prep's (B*G, C/G, M*P) transposed gradient
        acc = np.zeros_like(f.data).reshape(bg, cg, h * w)
        off = np.arange(bg * cg).reshape(bg, cg, 1) * (h * w)
        bilinear_scatter(acc, [off + i[:, None, :] for i in idx], wts, gt)
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


def points_csv_per_point(trace, block: str) -> bytes:
    """`explain.points_csv_bytes` as one `csv.writer` row per sample point of
    image 0, looped over windows, heads and points."""
    ref = np.asarray(trace.reference_points)
    defp = np.asarray(trace.deformed)[0]
    nw, nh, p = defp.shape[:3]
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["block", "window", "head", "ref_y", "ref_x", "def_y", "def_x"])
    for wi in range(nw):
        for hi in range(nh):
            for pi in range(p):
                ry, rx = ref[wi, pi]
                dy, dx = defp[wi, hi, pi]
                w.writerow([block, wi, hi, repr(float(ry)), repr(float(rx)),
                            repr(float(dy)), repr(float(dx))])
    return buf.getvalue().encode()
