import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sdah.inference import (
    SlidingConfig,
    gaussian_map,
    predict_mask,
    sliding_predict,
    tile_positions,
)
from sdah.tensor import Tensor


def _cfg(crop=32, step=16, sigma_ratio=1 / 8):
    return SlidingConfig(crop=crop, step=step, sigma_ratio=sigma_ratio)


# -- config ---------------------------------------------------------------------

def test_config_defaults():
    cfg = SlidingConfig()
    assert (cfg.crop, cfg.step) == (224, 112)
    assert cfg.sigma_ratio == pytest.approx(0.125)


@pytest.mark.parametrize("kw", [
    dict(crop=32, step=0), dict(crop=32, step=33),
    dict(crop=33, step=16), dict(crop=32, step=16, sigma_ratio=0.0),
    dict(crop=32, step=16, sigma_ratio=0.01),
])
def test_config_validation(kw):
    with pytest.raises(ValueError):
        SlidingConfig(**kw)


def test_tiny_ratio_raises_its_value_error_with_warnings_as_errors():
    # (x / sigma) ** 2 overflows at this ratio; the profile takes it as weight 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="underflows"):
            SlidingConfig(crop=32, step=16, sigma_ratio=1e-300)


@pytest.mark.parametrize("crop", [32, 64, 224])
def test_config_rejects_exactly_the_ratios_whose_map_has_no_weight_somewhere(crop):
    """A ratio is accepted iff `gaussian_map` builds its map, and every entry
    of a built map is positive; a zero entry would leave pixels unweighted
    and their blend NaN."""
    # the corner underflows near ratio 0.018: sweep finely across it; at
    # 1e-300 the peak underflows too
    for r in np.concatenate([[1e-300], np.geomspace(1e-3, 0.1, 30),
                             np.geomspace(0.017, 0.02, 200)]):
        try:
            m = gaussian_map(crop, r)
        except ValueError:
            m = None
        try:
            SlidingConfig(crop=crop, step=crop, sigma_ratio=float(r))
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == (m is not None), r
        assert m is None or (m > 0).all(), r


# -- gaussian map -----------------------------------------------------------------

def test_gaussian_map_peak_and_symmetry():
    g = gaussian_map(32, 1 / 8)
    assert g.shape == (32, 32)
    assert g.max() == 1.0
    np.testing.assert_array_equal(g, g.T)
    np.testing.assert_array_equal(g, g[::-1, ::-1])


def test_gaussian_map_values():
    crop, ratio = 16, 0.25
    sigma = crop * ratio
    g1 = np.exp(-0.5 * ((np.arange(crop) - (crop - 1) / 2) / sigma) ** 2)
    want = np.outer(g1, g1)
    want /= want.max()
    np.testing.assert_allclose(gaussian_map(crop, ratio), want, rtol=0, atol=0)


def test_gaussian_map_tightens_with_smaller_sigma():
    wide = gaussian_map(32, 1.0)
    tight = gaussian_map(32, 1 / 8)
    assert tight[0, 0] < wide[0, 0]
    assert tight[0, 0] > 0.0


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
    np.testing.assert_allclose(probs.data, np.broadcast_to(want, probs.shape),
                               rtol=0, atol=1e-6)


def test_narrowest_accepted_sigma_still_blends_every_pixel():
    """At ratio 0.02 a 32-pixel tile's corner weight is about 1e-254: every
    pixel keeps a positive weight, so a constant prediction passes through
    with no NaN (at 0.01 the config refuses the ratio)."""
    logits = np.array([0.3, -1.2])
    image = np.zeros((1, 64, 64), dtype=np.float32)
    probs = sliding_predict(_const_model(logits), image, _cfg(sigma_ratio=0.02)).data
    e = np.exp(logits - logits.max())
    np.testing.assert_allclose(probs, np.broadcast_to((e / e.sum())[:, None, None],
                                                      probs.shape), rtol=0, atol=1e-6)


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
    probs = sliding_predict(model, image, _cfg()).data
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

    g = gaussian_map(32, cfg.sigma_ratio)
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
    got = sliding_predict(model, image, cfg).data
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
    np.testing.assert_allclose(probs.data, 0.5, rtol=0, atol=0)


def test_network_tiles_run_without_grad_history():
    from sdah.network import build_model, micro_config
    from sdah.tensor import GradError

    m = build_model(micro_config())
    probs = sliding_predict(m, np.zeros((1, 32, 32), dtype=np.float32), _cfg(32, 32))
    assert probs.shape == (2, 32, 32)
    with pytest.raises(GradError):
        probs.backward()


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

    g = gaussian_map(crop, cfg.sigma_ratio)
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
    assert got.data.dtype == np.float64
    np.testing.assert_allclose(got.data, accum / wsum, rtol=0, atol=0)


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
