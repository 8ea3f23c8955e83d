from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sdah.inference import (
    SIGMA_RATIO,
    SlidingConfig,
    gaussian_map,
    predict_mask,
    sliding_predict,
    tile_positions,
)
from sdah.tensor import Tensor


def _cfg(crop=32, step=16):
    return SlidingConfig(crop=crop, step=step)


# -- config ---------------------------------------------------------------------

def test_config_defaults():
    cfg = SlidingConfig()
    assert (cfg.crop, cfg.step) == (224, 112)
    assert [f.name for f in fields(SlidingConfig)] == ["crop", "step"]
    assert SIGMA_RATIO == 1 / 8


@pytest.mark.parametrize("kw", [
    dict(crop=32, step=0), dict(crop=32, step=33),
    dict(crop=33, step=16),
])
def test_config_validation(kw):
    with pytest.raises(ValueError):
        SlidingConfig(**kw)


# -- gaussian map -----------------------------------------------------------------

def test_gaussian_map_peak_and_symmetry():
    g = gaussian_map(32)
    assert g.shape == (32, 32)
    assert g.max() == 1.0
    np.testing.assert_array_equal(g, g.T)
    np.testing.assert_array_equal(g, g[::-1, ::-1])


def test_gaussian_map_values():
    crop = 16
    sigma = crop / 8
    g1 = np.exp(-0.5 * ((np.arange(crop) - (crop - 1) / 2) / sigma) ** 2)
    want = np.outer(g1, g1)
    want /= want.max()
    np.testing.assert_allclose(gaussian_map(crop), want, rtol=0, atol=0)


def test_gaussian_map_weights_every_pixel_at_every_crop():
    """At sigma = crop/8 the corner, the least entry, is
    exp(-16 (crop-1)² / crop²) > e^-16 before the peak is scaled to 1, so no
    crop leaves a pixel unweighted and its blend NaN."""
    for crop in range(32, 1025, 32):
        g = gaussian_map(crop)
        assert g.shape == (crop, crop)
        assert g.max() == 1.0, crop
        np.testing.assert_array_equal(g, g.T)
        np.testing.assert_array_equal(g, g[::-1, ::-1])
        assert g.min() >= np.exp(-16.0), crop


# -- tiling -----------------------------------------------------------------------

@pytest.mark.parametrize("length,crop,step,want", [
    (64, 32, 16, [0, 16, 32]),
    (64, 32, 32, [0, 32]),
    (70, 32, 16, [0, 16, 32, 38]),
    (32, 32, 16, [0]),
    (20, 32, 16, [0]),
    (33, 32, 1, [0, 1]),
    (224, 224, 112, [0]),
])
def test_tile_positions_cases(length, crop, step, want):
    assert tile_positions(length, crop, step) == want


@given(st.integers(1, 300), st.integers(1, 64), st.integers(1, 64))
def test_tile_positions_cover_exactly(length, crop, step):
    step = min(step, crop)
    pos = tile_positions(length, crop, step)
    assert pos[0] == 0
    if length > crop:
        assert pos[-1] == length - crop
        assert all(b - a <= step for a, b in zip(pos, pos[1:]))
        covered = np.zeros(length, dtype=bool)
        for p in pos:
            covered[p:p + crop] = True
        assert covered.all()


# -- sliding prediction -------------------------------------------------------------

def _const_model(logits):
    arr = np.asarray(logits, dtype=np.float32)

    def model(tiles):
        n, k, c = tiles.shape[0], arr.shape[0], tiles.shape[-1]
        return Tensor(np.broadcast_to(arr[:, None, None], (n, k, c, c)).copy())

    return model


def test_constant_logits_pass_through():
    # blending must not distort a constant prediction anywhere, edges included
    logits = np.array([0.3, -1.2, 2.0])
    image = np.random.default_rng(0).uniform(size=(1, 64, 80)).astype(np.float32)
    probs = sliding_predict(_const_model(logits), image, _cfg())
    e = np.exp(logits - logits.max())
    want = (e / e.sum())[:, None, None]
    assert probs.shape == (3, 64, 80)
    np.testing.assert_allclose(probs, np.broadcast_to(want, probs.shape),
                               rtol=0, atol=1e-6)


def test_tile_count_64x64_crop32_step16():
    calls = []
    base = _const_model([0.0, 1.0])

    def counting(tiles):
        calls.append(tiles.shape)
        return base(tiles)

    sliding_predict(counting, np.zeros((1, 64, 64), dtype=np.float32), _cfg())
    assert calls == [(9, 1, 32, 32)]


def test_probabilities_sum_to_one():
    def model(tiles):
        d = tiles.data[:, 0]
        return Tensor(np.stack([d, -d, d * 0.5], axis=1).astype(np.float32))

    image = np.random.default_rng(1).normal(size=(1, 64, 64)).astype(np.float32)
    probs = sliding_predict(model, image, _cfg())
    np.testing.assert_allclose(probs.sum(axis=0), 1.0, rtol=0, atol=1e-12)
    assert probs.min() >= 0.0


def test_matches_independent_blend():
    """Re-blend by hand with a content-dependent model and compare."""
    rng = np.random.default_rng(2)
    image = rng.normal(size=(2, 64, 48)).astype(np.float32)
    cfg = _cfg(crop=32, step=16)

    def model(tiles):
        d = tiles.data if isinstance(tiles, Tensor) else tiles
        return Tensor(np.stack([d[:, 0], d[:, 1] * 0.7 + 0.1], axis=1).astype(np.float32))

    g = gaussian_map(32)
    accum = np.zeros((2, 64, 48))
    wsum = np.zeros((64, 48))
    for y in [0, 16, 32]:
        for x in [0, 16]:
            t = image[:, y:y + 32, x:x + 32]
            lo = np.stack([t[0], t[1] * 0.7 + 0.1]).astype(np.float32).astype(np.float64)
            lo -= lo.max(axis=0, keepdims=True)
            e = np.exp(lo)
            accum[:, y:y + 32, x:x + 32] += (e / e.sum(axis=0, keepdims=True)) * g
            wsum[y:y + 32, x:x + 32] += g
    want = accum / wsum
    got = sliding_predict(model, image, cfg)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_small_images_are_padded_then_cropped():
    shapes = []
    base = _const_model([0.0, 2.0])

    def model(tiles):
        shapes.append(tiles.shape)
        return base(tiles)

    probs = sliding_predict(model, np.ones((1, 20, 26), dtype=np.float32), _cfg())
    assert shapes == [(1, 1, 32, 32)]
    assert probs.shape == (2, 20, 26)


def test_input_validation():
    m = _const_model([0.0, 1.0])
    with pytest.raises(ValueError):
        sliding_predict(m, np.zeros((20, 26), dtype=np.float32), _cfg())
    # 40x40 at crop 32 / step 16 is 4 tiles in one forward
    for shape in [(4, 2, 8, 8), (3, 2, 32, 32), (2, 32, 32)]:
        bad = lambda tiles, shape=shape: Tensor(np.zeros(shape, dtype=np.float32))
        with pytest.raises(ValueError, match=r"expected \(4, K, 32, 32\)"):
            sliding_predict(bad, np.zeros((1, 40, 40), dtype=np.float32), _cfg())


def test_predict_mask_argmax_u8():
    def model(tiles):
        d = tiles.data[:, 0]
        return Tensor(np.stack([1.0 - d, d], axis=1).astype(np.float32))

    image = np.zeros((1, 64, 64), dtype=np.float32)
    image[0, 10:30, 5:25] = 1.0
    mask = predict_mask(model, image, _cfg())
    assert mask.dtype == np.uint8
    np.testing.assert_array_equal(mask, (image[0] > 0.5).astype(np.uint8))


def test_model_output_can_be_plain_array():
    def model(tiles):
        return np.zeros((tiles.shape[0], 2, 32, 32), dtype=np.float32)

    probs = sliding_predict(model, np.zeros((1, 32, 32), dtype=np.float32), _cfg())
    np.testing.assert_allclose(probs, 0.5, rtol=0, atol=0)


def test_network_tiles_run_without_grad_history():
    from sdah.network import build_model, micro_config

    m = build_model(micro_config())
    probs = sliding_predict(m, np.zeros((1, 32, 32), dtype=np.float32), _cfg(32, 32))
    assert isinstance(probs, np.ndarray) and probs.shape == (2, 32, 32)
    assert all(t.grad is None for t in m.named_parameters().values())


# -- batched forwards -----------------------------------------------------------

@pytest.mark.parametrize("h,w,crop,step,ys,xs", [
    (64, 80, 32, 16, [0, 16, 32], [0, 16, 32, 48]),   # 12 tiles, one forward
    (160, 160, 64, 32, [0, 32, 64, 96], [0, 32, 64, 96]),  # 16 tiles: 12 + 4
])
def test_batched_network_matches_per_tile_oracle(h, w, crop, step, ys, xs):
    """A real network: batched forwards give the probabilities of one
    forward per tile blended in raster order, bit for bit."""
    from sdah.network import build_model, micro_config

    m = build_model(micro_config(seed=3))
    image = np.random.default_rng(4).uniform(size=(1, h, w)).astype(np.float32)
    cfg = _cfg(crop=crop, step=step)

    g = gaussian_map(crop)
    accum = np.zeros((2, h, w))
    wsum = np.zeros((h, w))
    for y in ys:
        for x in xs:
            lo = m(Tensor(image[None, :, y:y + crop, x:x + crop])).data[0].astype(np.float64)
            assert lo.shape == (2, crop, crop)
            lo -= lo.max(axis=0, keepdims=True)
            e = np.exp(lo)
            accum[:, y:y + crop, x:x + crop] += (e / e.sum(axis=0, keepdims=True)) * g
            wsum[y:y + crop, x:x + crop] += g
    got = sliding_predict(m, image, cfg)
    assert got.dtype == np.float64
    np.testing.assert_allclose(got, accum / wsum, rtol=0, atol=0)


@pytest.mark.parametrize("side,crop,step,sizes", [
    (256, 64, 32, [12, 12, 12, 12, 1]),   # 49 tiles, 224² // 64² = 12 per forward
    (336, 224, 112, [1, 1, 1, 1]),        # the paper crop: one tile per forward
])
def test_forwards_are_chunked_in_raster_order(side, crop, step, sizes):
    # each pixel holds its own (y, x), so a tile's corner names its origin
    yy, xx = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    image = np.stack([yy, xx]).astype(np.float32)
    origins = []
    base = _const_model([0.0, 1.0])

    def recording(tiles):
        assert tiles.shape[1:] == (2, crop, crop)
        origins.append([(int(t[0, 0, 0]), int(t[1, 0, 0])) for t in tiles.data])
        return base(tiles)

    sliding_predict(recording, image, _cfg(crop=crop, step=step))
    assert [len(o) for o in origins] == sizes
    pos = tile_positions(side, crop, step)
    assert [o for chunk in origins for o in chunk] == [(y, x) for y in pos for x in pos]
