"""Sliding-window prediction with Gaussian importance weighting.

Tiles start at multiples of `step`; one extra tile per axis is flushed to
the far border so coverage is exact.  Per-tile class probabilities are
accumulated with a center-peaked separable Gaussian weight and the sum is
normalized by the accumulated weight, so overlapping predictions blend
smoothly and constant predictions pass through unchanged.  Images smaller
than the crop are zero-padded bottom-right for the forward pass only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, _as_tensor, no_grad


@dataclass
class SlidingConfig:
    crop: int = 224
    step: int = 112
    sigma_ratio: float = 1.0 / 8.0

    def __post_init__(self):
        if not 0 < self.step <= self.crop:
            raise ValueError("need 0 < step <= crop")
        if self.crop % 32:
            raise ValueError("crop must be divisible by 32")
        if not self.sigma_ratio > 0:  # also rejects NaN
            raise ValueError("sigma_ratio must be positive")


def gaussian_map(crop: int, sigma_ratio: float = 1.0 / 8.0) -> np.ndarray:
    """(crop, crop) separable Gaussian, sigma = crop * sigma_ratio,
    centered between pixels for even crops, peak scaled to exactly 1."""
    sigma = crop * sigma_ratio
    coords = np.arange(crop, dtype=np.float64) - (crop - 1) / 2.0
    g = np.exp(-0.5 * (coords / sigma) ** 2)
    m = np.outer(g, g)
    return m / m.max()


def tile_positions(length: int, crop: int, step: int) -> list[int]:
    """Start offsets along one axis: step multiples plus a border-flush tile."""
    if length <= crop:
        return [0]
    pos = list(range(0, length - crop + 1, step))
    if pos[-1] != length - crop:
        pos.append(length - crop)
    return pos


def sliding_predict(model, image, cfg: SlidingConfig) -> Tensor:
    """(C, H, W) image -> (K, H, W) class probabilities.

    `model` is any callable mapping a (C, crop, crop) Tensor to logits
    (K, crop, crop); tile forwards run without graph recording.
    """
    img = _as_tensor(image)
    if img.ndim != 3:
        raise ValueError(f"expected (C,H,W), got {img.shape}")
    c, h, w = img.shape
    crop = cfg.crop
    ph, pw = max(h, crop), max(w, crop)
    data = img.data
    if (ph, pw) != (h, w):
        padded = np.zeros((c, ph, pw), dtype=data.dtype)
        padded[:, :h, :w] = data
        data = padded

    gmap = gaussian_map(crop, cfg.sigma_ratio)
    accum = None
    wsum = np.zeros((ph, pw), dtype=np.float64)
    with no_grad():
        for y in tile_positions(ph, crop, cfg.step):
            for x in tile_positions(pw, crop, cfg.step):
                tile = Tensor(np.ascontiguousarray(data[:, y:y + crop, x:x + crop]))
                logits = model(tile)
                lo = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
                if lo.ndim != 3 or lo.shape[1:] != (crop, crop):
                    raise ValueError(f"model returned shape {lo.shape}")
                lo = lo.astype(np.float64)
                lo -= lo.max(axis=0, keepdims=True)
                e = np.exp(lo)
                probs = e / e.sum(axis=0, keepdims=True)
                if accum is None:
                    accum = np.zeros((lo.shape[0], ph, pw), dtype=np.float64)
                accum[:, y:y + crop, x:x + crop] += probs * gmap
                wsum[y:y + crop, x:x + crop] += gmap
    out = accum / wsum
    # keep the f64 accumulation; the default dtype would round it to f32
    return Tensor(out[:, :h, :w], dtype=np.float64)


def predict_mask(model, image, cfg: SlidingConfig) -> np.ndarray:
    """Argmax class map as uint8."""
    probs = sliding_predict(model, image, cfg)
    return np.argmax(probs.data, axis=0).astype(np.uint8)
