"""Sliding-window prediction with Gaussian importance weighting.

Tiles start at multiples of `step`; one extra tile per axis is flushed to
the far border so coverage is exact.  The model sees the tiles in raster
order (y outer, x inner), stacked up to 224² pixels per forward:
(N, C, crop, crop) -> (N, K, crop, crop).  Per-tile class probabilities are
accumulated in the same order with a center-peaked separable Gaussian
weight, sigma = crop/8 (nnU-Net's importance weighting), and the sum is
normalized by the accumulated weight, so overlapping predictions blend
smoothly and constant predictions pass through unchanged.  Images smaller
than the crop are zero-padded bottom-right for the forward pass only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, _as_tensor, no_grad, softmax

# Tile pixels per forward: crop 224 keeps one tile per forward (so the
# default config's memory is that of one tile), crop 32 stacks 49 tiles.
_TILE_PIXELS = 224 * 224
SIGMA_RATIO = 1.0 / 8.0  # Gaussian sigma per crop pixel


@dataclass
class SlidingConfig:
    """Tile size and stride: 0 < step <= crop, crop a multiple of 32."""
    crop: int = 224
    step: int = 112

    def __post_init__(self):
        if not 0 < self.step <= self.crop:
            raise ValueError("need 0 < step <= crop")
        if self.crop % 32:
            raise ValueError("crop must be divisible by 32")


def gaussian_map(crop: int) -> np.ndarray:
    """(crop, crop) separable Gaussian, sigma = crop * SIGMA_RATIO, centered
    between pixels for even crops, peak exactly 1.  Its least entry, the
    corner, exceeds e^-16 at any crop: every tile pixel keeps a weight."""
    coords = np.arange(crop, dtype=np.float64) - (crop - 1) / 2.0
    g = np.exp(-0.5 * (coords / (crop * SIGMA_RATIO)) ** 2)
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


def sliding_predict(model, image, cfg: SlidingConfig) -> np.ndarray:
    """(C, H, W) image -> (K, H, W) float64 class probabilities.

    `model` is any callable mapping an (N, C, crop, crop) Tensor of tiles to
    logits (N, K, crop, crop), as a Tensor or an array.  It is called once
    per max(1, 224² // crop²) tiles, without graph recording.
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

    origins = [(y, x) for y in tile_positions(ph, crop, cfg.step)
               for x in tile_positions(pw, crop, cfg.step)]
    per_call = max(1, _TILE_PIXELS // crop ** 2)
    gmap = gaussian_map(crop)
    accum = None
    wsum = np.zeros((ph, pw), dtype=np.float64)
    with no_grad():
        for start in range(0, len(origins), per_call):
            chunk = origins[start:start + per_call]
            tiles = Tensor(np.stack([data[:, y:y + crop, x:x + crop] for y, x in chunk]))
            logits = model(tiles)
            lo = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
            if lo.ndim != 4 or lo.shape[0] != len(chunk) or lo.shape[2:] != (crop, crop):
                raise ValueError(f"model returned shape {lo.shape}, "
                                 f"expected ({len(chunk)}, K, {crop}, {crop})")
            probs = softmax(Tensor(lo, dtype=np.float64), axis=1).data
            if accum is None:
                accum = np.zeros((lo.shape[1], ph, pw), dtype=np.float64)
            for (y, x), p in zip(chunk, probs):
                accum[:, y:y + crop, x:x + crop] += p * gmap
                wsum[y:y + crop, x:x + crop] += gmap
    return (accum / wsum)[:, :h, :w]


def predict_mask(model, image, cfg: SlidingConfig) -> np.ndarray:
    """Argmax class map as uint8."""
    return np.argmax(sliding_predict(model, image, cfg), axis=0).astype(np.uint8)
