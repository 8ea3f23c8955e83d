"""Explanation artifacts: attention heatmaps, deformation point tables,
deformation fields, and Grad-CAM for segmentation.

Everything here is a pure function of (parameters, image), so re-exports
are byte-identical.  Traces come straight from the forward pass: deformed
coordinates are exactly the ones the sampler used (post-clamp), letting a
replay test reproduce the CSV bit for bit.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .attention import SdmsaTrace
from .io import save_sdt1, to_u8, write_pgm, write_ppm
from .network import BLOCK_IDS, Model, forward
from .sampling import bilinear_corners, bilinear_resize, bilinear_scatter
from .tensor import NumericsError, _checked_once


def attention_heatmap(trace: SdmsaTrace) -> np.ndarray:
    """(H, W) map of attention received per key location in image 0.

    Column sums of each window/head attention matrix are splatted at the
    deformed key coordinates (so mass lands where the keys were actually
    sampled), accumulated over heads, rolled back to the unshifted frame,
    and min-max normalized (a flat map is returned as is).
    """
    if trace is None:
        raise ValueError("no attention trace for this block")
    layout = trace.layout
    attn = np.asarray(trace.attention, dtype=np.float64)[0]
    pts = np.asarray(trace.deformed, dtype=np.float64)[0]
    received = attn.sum(axis=-2)  # (n_w, n_h, P): weight landing on key j
    idx, wts, _, _ = bilinear_corners(pts[..., 0].reshape(1, -1),
                                      pts[..., 1].reshape(1, -1), layout.h, layout.w)
    acc = np.zeros((1, 1, layout.h * layout.w), dtype=np.float64)
    bilinear_scatter(acc, [i[:, None] for i in idx], wts, received.reshape(1, 1, -1))
    acc = acc.reshape(layout.h, layout.w)
    if layout.shift:
        acc = np.roll(acc, (layout.shift, layout.shift), axis=(0, 1))
    lo, hi = acc.min(), acc.max()
    if hi <= lo:
        return acc
    return (acc - lo) / (hi - lo)


def points_csv_bytes(trace: SdmsaTrace, block: str, stride: int = 1) -> bytes:
    """The points table of image 0: one `block,window,head,ref_y,ref_x,
    def_y,def_x` row per sample point, windows, then heads, then points.

    Coordinates are in the shifted frame, exactly as used by the sampler,
    written with `repr` so they parse back to the same doubles; `stride`
    keeps every stride-th point per window for legibility.
    """
    if trace is None:
        raise ValueError("no attention trace for this block")
    if stride < 1:
        raise ValueError(f"stride must be positive, got {stride}")
    defp = np.asarray(trace.deformed)[0, :, :, ::stride]      # (n_w, n_h, P', 2)
    ref = np.asarray(trace.reference_points)[:, None, ::stride]
    xy = np.concatenate([np.broadcast_to(ref, defp.shape), defp], axis=-1)
    wh = np.indices(defp.shape[:3])[:2].reshape(2, -1).T      # (window, head) per row
    rows = "".join(f"{block},{w},{h},{ry!r},{rx!r},{dy!r},{dx!r}\n" for (w, h), (ry, rx, dy, dx)
                   in zip(wh.tolist(), xy.reshape(-1, 4).tolist()))
    return ("block,window,head,ref_y,ref_x,def_y,def_x\n" + rows).encode()


def deformation_field(trace: SdmsaTrace) -> np.ndarray:
    """(H, W, 3) u8 image of image 0: dy -> red, dx -> green around 128,
    |d| -> blue.

    Offsets are averaged over heads at each reference pixel and rolled back
    to the unshifted frame.  Full scale is the layer's bound,
    `trace.max_offset`.
    """
    if trace is None:
        raise ValueError("no attention trace for this block")
    layout, max_offset = trace.layout, trace.max_offset
    off = np.asarray(trace.offsets, dtype=np.float64)[0].mean(axis=1)
    ref = np.asarray(trace.reference_points).astype(np.int64)
    field = np.zeros((layout.h, layout.w, 2), dtype=np.float64)
    field[ref[..., 0], ref[..., 1]] = off
    if layout.shift:
        field = np.roll(field, (layout.shift, layout.shift), axis=(0, 1))
    unit = np.clip(field / max_offset, -1.0, 1.0)
    mag = np.clip(np.hypot(field[..., 0], field[..., 1]) / max_offset, 0.0, 1.0)
    img = np.empty(field.shape[:2] + (3,), dtype=np.uint8)
    img[..., 0] = np.round(128.0 + unit[..., 0] * 127.0)
    img[..., 1] = np.round(128.0 + unit[..., 1] * 127.0)
    img[..., 2] = np.round(mag * 255.0)
    return img


def _cam_pass(model: Model, image, target_class: int, block: str, roi_mask):
    """The one forward and one backward behind every Grad-CAM output.

    `image` is a (B, C, H, W) batch.  A None `roi_mask` becomes the pixels
    this forward argmax-predicts as the target class in image 0.  Returns
    (info, weights, cam): the forward's ForwardInfo, the (B, C, 1, 1)
    channel weights, and the (H, W) map as seg_grad_cam describes it.  The
    backward computes only the block's gradient: the outputs of the block
    and of every block before it in BLOCK_IDS are cut from their inputs and
    the weights are frozen while it runs, so no weight VJP runs, the
    weights' .grad stay as found and each weight requires a gradient again
    however the pass ends.  The pass runs through `tensor._checked_once`,
    which checks the logits and the block's gradient once.
    """
    if block not in BLOCK_IDS:
        raise ValueError(f"unknown block {block!r}")
    params = model.named_parameters().values()

    def run():
        logits, info = forward(model, image)
        if not np.isfinite(logits.data).all():  # nested, forward checked nothing
            raise NumericsError("the logits have non-finite values")
        k = logits.shape[1]
        if not 0 <= target_class < k:
            raise ValueError(f"class {target_class} outside [0, {k})")
        roi = roi_mask
        if roi is None:
            roi = np.argmax(logits.data[0], axis=0) == target_class
        roi = np.asarray(roi).astype(bool)
        if roi.shape != logits.shape[-2:]:
            raise ValueError("roi shape does not match the image")
        if not roi.any():
            raise ValueError("empty roi")
        # d(score)/d(logits) for score = the target class's logits summed over the ROI
        seed = np.zeros(logits.shape, logits.dtype)
        seed[:, target_class] = roi
        # the backward stops at the block, and at the blocks before it, which
        # the decoder's skip inputs would otherwise walk into
        for b in BLOCK_IDS[:BLOCK_IDS.index(block) + 1]:
            info.outputs[b]._ctx = None
        for t in params:                  # every parameter is built requiring one
            t.requires_grad = False
        try:
            logits.backward(seed)
        finally:
            for t in params:
                t.requires_grad = True
        return info, roi

    info, roi = _checked_once(run, lambda out: np.isfinite(out[0].outputs[block].grad).all())
    feat = info.outputs[block]        # (B, C, h, w)
    weights = feat.grad.mean(axis=(2, 3), keepdims=True)
    cam = np.maximum((weights * feat.data).sum(axis=1), 0.0)  # (B, h, w)
    cam = bilinear_resize(cam.astype(np.float64), *roi.shape)[0]
    peak = cam.max()
    return info, weights, (cam / peak if peak > 0 else cam)


def seg_grad_cam(model: Model, image, target_class: int, target_block: str,
                 roi_mask) -> np.ndarray:
    """(H, W) non-negative attribution map, max-normalized.

    Score is the sum of the target class's logits over the ROI; gradients
    are taken at the target block's output, channel-averaged into weights,
    and the weighted feature sum is rectified and upsampled.
    """
    return _cam_pass(model, image, target_class, target_block, roi_mask)[2]


def export_bundle(model: Model, image, block: str, target_class: int,
                  out_dir, roi_mask=None, stride: int = 1) -> dict:
    """Write attn.pgm/attn.sdt/points.csv/field.ppm/gradcam.pgm for one
    block under out_dir/<block>/; returns the artifact paths.

    The ROI defaults to the pixels argmax-predicted as the target class.
    The traces and the Grad-CAM come from the same single forward pass,
    and its one backward computes only the block's gradient (`_cam_pass`).
    """
    info, _, cam = _cam_pass(model, image, target_class, block, roi_mask)
    trace = info.traces[block]
    d = Path(out_dir) / block
    d.mkdir(parents=True, exist_ok=True)
    paths = {}

    if trace is not None:
        heat = attention_heatmap(trace)
        save_sdt1(d / "attn.sdt", heat.astype(np.float32))
        write_pgm(d / "attn.pgm", to_u8(heat))
        (d / "points.csv").write_bytes(points_csv_bytes(trace, block, stride))
        write_ppm(d / "field.ppm", deformation_field(trace))
        paths.update(
            attn_sdt=d / "attn.sdt", attn_pgm=d / "attn.pgm",
            points=d / "points.csv", field=d / "field.ppm",
        )
    write_pgm(d / "gradcam.pgm", to_u8(cam))
    paths["gradcam"] = d / "gradcam.pgm"
    return paths
