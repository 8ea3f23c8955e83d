import numpy as np
import pytest
from hypothesis import given, strategies as st

from sdah.gradcheck import grad_check
from sdah.network import ModelConfig, build_model, load_model
from sdah.rng import Stream, derive_seed
from sdah.tensor import Tensor
from sdah.training import (
    AdamState,
    SegSample,
    TrainConfig,
    TrainingAborted,
    adam_step,
    batch_indices,
    ce_loss,
    combined_loss,
    dice_loss,
    load_dataset,
    lr_at,
    save_dataset,
    synth_dataset,
    synth_sample,
    train,
)

MICRO = dict(in_channels=1, num_classes=2, stem_width=8,
             stage_widths=(8, 16, 32, 64), window_sizes=(4, 4, 2, 2),
             num_heads=(2, 2, 4, 4))


def _pair(b, k, h, w, seed=0):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(b, k, h, w)).astype(np.float64)
    label = rng.integers(0, k, size=(b, h, w)).astype(np.uint8)
    return logits, label


# -- config ---------------------------------------------------------------------

def test_train_config_defaults():
    cfg = TrainConfig()
    assert (cfg.batch_size, cfg.base_lr) == (8, 2e-4)
    assert (cfg.decay_start_step, cfg.decay_every, cfg.decay_factor) == (50_000, 10_000, 0.5)
    assert cfg.max_steps == 2_000


@pytest.mark.parametrize("bad", [
    dict(batch_size=0), dict(base_lr=0.0), dict(decay_factor=1.0),
    dict(decay_factor=0.0), dict(max_steps=0), dict(lambda_dice=-0.1),
    dict(seed=-1), dict(decay_every=0),
])
def test_train_config_validation(bad):
    with pytest.raises(ValueError):
        TrainConfig(**bad)


def test_train_config_dict_round_trip():
    cfg = TrainConfig(batch_size=4, max_steps=10, seed=3)
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ValueError):
        TrainConfig.from_dict({"momentum": 0.9})


# -- schedule -------------------------------------------------------------------

@pytest.mark.parametrize("step,want", [
    (0, 2e-4), (49_999, 2e-4), (50_000, 1e-4), (59_999, 1e-4),
    (60_000, 5e-5), (69_999, 5e-5), (70_000, 2.5e-5),
])
def test_lr_default_schedule(step, want):
    assert lr_at(step, TrainConfig()) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("step,want", [
    (0, 2e-4), (999, 2e-4), (1_000, 1e-4), (1_499, 1e-4),
    (1_500, 5e-5), (1_999, 5e-5),
])
def test_lr_desk_schedule(step, want):
    cfg = TrainConfig(decay_start_step=1_000, decay_every=500)
    assert lr_at(step, cfg) == pytest.approx(want, rel=1e-12)


# -- losses ---------------------------------------------------------------------

def _ref_dice(logits, label, eps=1e-5):
    x = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(x) / np.exp(x).sum(axis=1, keepdims=True)
    k = logits.shape[1]
    terms = []
    for c in range(1, k):
        y = (label == c).astype(np.float64)
        inter = (p[:, c] * y).sum()
        terms.append(1.0 - (2.0 * inter + eps) / (p[:, c].sum() + y.sum() + eps))
    return float(np.mean(terms))


def _ref_ce(logits, label):
    m = logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(logits - m).sum(axis=1, keepdims=True)) + m
    picked = np.take_along_axis(logits, label[:, None].astype(np.int64), axis=1)
    return float((lse - picked).mean())


@pytest.mark.parametrize("k", [2, 3, 4])
def test_dice_matches_reference(k):
    logits, label = _pair(2, k, 6, 5, seed=k)
    got = dice_loss(Tensor(logits, dtype=np.float64), label)
    assert got.item() == pytest.approx(_ref_dice(logits, label), rel=1e-12)


def test_dice_perfect_prediction_is_near_zero():
    label = np.zeros((1, 8, 8), dtype=np.uint8)
    label[0, 2:6, 2:6] = 1
    logits = np.where(label[:, None] == 1, 50.0, -50.0) * np.array([-1.0, 1.0])[None, :, None, None]
    assert dice_loss(Tensor(logits), label).item() < 1e-4


@pytest.mark.parametrize("k", [2, 4])
def test_ce_matches_reference(k):
    logits, label = _pair(3, k, 5, 4, seed=10 + k)
    got = ce_loss(Tensor(logits, dtype=np.float64), label)
    assert got.item() == pytest.approx(_ref_ce(logits, label), rel=1e-12)


def test_ce_is_shift_invariant():
    logits, label = _pair(1, 3, 4, 4)
    a = ce_loss(Tensor(logits, dtype=np.float64), label).item()
    b = ce_loss(Tensor(logits + 1000.0, dtype=np.float64), label).item()
    assert a == pytest.approx(b, rel=1e-9)


def test_loss_gradients_match_finite_differences():
    logits, label = _pair(2, 3, 4, 4, seed=5)
    r = grad_check(lambda t: dice_loss(t, label),
                   [Tensor(logits, dtype=np.float64)], tol=1e-6, name="dice")
    assert r.max_rel_err < 1e-6
    r = grad_check(lambda t: ce_loss(t, label),
                   [Tensor(logits, dtype=np.float64)], tol=1e-6, name="ce")
    assert r.max_rel_err < 1e-6


def test_combined_loss_weights():
    logits, label = _pair(1, 2, 4, 4)
    cfg = TrainConfig(lambda_dice=0.3, lambda_ce=2.0)
    total, dl, cl = combined_loss(Tensor(logits), label, cfg)
    assert total.item() == pytest.approx(0.3 * dl.item() + 2.0 * cl.item(), rel=1e-6)


def test_loss_input_validation():
    logits, label = _pair(1, 2, 4, 4)
    with pytest.raises(ValueError):
        dice_loss(Tensor(logits), label[:, :2])        # size mismatch
    with pytest.raises(ValueError):
        ce_loss(Tensor(logits), label + 5)             # ids out of range
    with pytest.raises(ValueError):
        dice_loss(Tensor(logits[:, :1]), np.zeros((1, 4, 4), dtype=np.uint8))
    for bad in (logits[0, 0], logits[None]):                # rank 2 and rank 5
        for loss in (dice_loss, ce_loss):
            with pytest.raises(ValueError):
                loss(Tensor(bad), label)
    with pytest.raises(ValueError):
        ce_loss(Tensor(logits), label[0])                   # 4-D logits, 2-D labels


# -- optimizer ------------------------------------------------------------------

def _ref_adam(p, gs, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(gs, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1 ** t)
        vhat = v / (1 - beta2 ** t)
        p = p - lr * mhat / (np.sqrt(vhat) + eps)
    return p


def test_adam_matches_reference_over_steps():
    rng = np.random.default_rng(0)
    p0 = rng.normal(size=(4, 3))
    gs = [rng.normal(size=(4, 3)) for _ in range(7)]
    params = {"w": Tensor(p0.copy(), dtype=np.float64)}
    state = AdamState()
    for g in gs:
        adam_step(params, {"w": g}, state, lr=1e-2)
    np.testing.assert_allclose(params["w"].data, _ref_adam(p0, gs, 1e-2),
                               rtol=1e-12, atol=1e-12)
    assert state.t == 7


def test_adam_first_step_moves_by_about_lr():
    # bias correction makes |update| ~= lr on step one for any grad scale
    params = {"w": Tensor(np.zeros(5), dtype=np.float64)}
    adam_step(params, {"w": np.full(5, 1e-3)}, AdamState(), lr=0.01)
    np.testing.assert_allclose(np.abs(params["w"].data), 0.01, rtol=1e-4)


def test_adam_rejects_shape_mismatch():
    params = {"w": Tensor(np.zeros((2, 2)))}
    with pytest.raises(ValueError):
        adam_step(params, {"w": np.zeros(3)}, AdamState(), lr=0.1)


# -- batching -------------------------------------------------------------------

def test_batch_indices_pure_and_in_range():
    a = batch_indices(3, 17, 8, 50)
    b = batch_indices(3, 17, 8, 50)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (8,)
    assert a.min() >= 0 and a.max() < 50


@given(st.integers(0, 2**32), st.integers(0, 10_000))
def test_batch_indices_vary_by_step(seed, step):
    a = batch_indices(seed, step, 16, 1000)
    b = batch_indices(seed, step + 1, 16, 1000)
    assert not np.array_equal(a, b)


# -- synthetic data ---------------------------------------------------------------

def test_synth_sample_shapes_and_ranges():
    s = synth_sample(32, 48, 4, Stream(1))
    assert s.image.shape == (1, 32, 48)
    assert s.label.shape == (32, 48)
    assert s.image.data.min() >= 0.0 and s.image.data.max() <= 1.0
    assert s.label.data.max() < 4
    assert s.label.data.dtype == np.uint8


def test_synth_sample_deterministic():
    a = synth_sample(16, 16, 2, Stream(derive_seed(9, 0)))
    b = synth_sample(16, 16, 2, Stream(derive_seed(9, 0)))
    np.testing.assert_array_equal(a.image.data, b.image.data)
    np.testing.assert_array_equal(a.label.data, b.label.data)


def test_synth_sample_has_foreground():
    for i in range(10):
        s = synth_sample(32, 32, 2, Stream(derive_seed(0, i)))
        assert (s.label.data == 1).sum() > 0


def test_synth_ring_encloses_core():
    # with k >= 3 the first shape is a filled ellipse (1) inside a ring (2)
    found = 0
    for i in range(10):
        lab = synth_sample(48, 48, 3, Stream(derive_seed(5, i))).label.data
        if (lab == 2).any() and (lab == 1).any():
            found += 1
    assert found >= 8


def test_synth_intensity_tracks_class():
    s = synth_sample(64, 64, 2, Stream(2))
    img, lab = s.image.data[0], s.label.data
    assert img[lab == 1].mean() > 0.6
    assert img[lab == 0].mean() < 0.4


def test_synth_dataset_validates_k():
    with pytest.raises(ValueError):
        synth_dataset(2, 16, 16, 5, seed=0)
    assert len(synth_dataset(3, 16, 16, 2, seed=0)) == 3


def test_seg_sample_validation():
    img = Tensor(np.zeros((1, 4, 4), dtype=np.float32))
    with pytest.raises(ValueError):
        SegSample(img, Tensor(np.zeros((4, 5), dtype=np.uint8)), 2)
    with pytest.raises(ValueError):
        SegSample(img, Tensor(np.full((4, 4), 7, dtype=np.uint8)), 2)


def test_dataset_directory_round_trip(tmp_path):
    data = synth_dataset(4, 16, 16, 3, seed=11)
    save_dataset(tmp_path / "d", data)
    back = load_dataset(tmp_path / "d")
    assert len(back) == 4
    for a, b in zip(data, back):
        np.testing.assert_array_equal(a.image.data.astype(np.float32), b.image.data)
        np.testing.assert_array_equal(a.label.data, b.label.data)
        assert b.classes == 3
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path / "nope")


# -- the loop -------------------------------------------------------------------

def _tiny_run(tmp_path, **cfg_over):
    cfg = TrainConfig(batch_size=2, max_steps=3, seed=0, **cfg_over)
    model = build_model(ModelConfig(**MICRO))
    data = synth_dataset(6, 32, 32, 2, seed=1)
    rows = train(model, data, cfg, out_dir=tmp_path / "run")
    return model, rows, cfg


def test_train_logs_and_saves(tmp_path):
    model, rows, cfg = _tiny_run(tmp_path)
    assert [r["step"] for r in rows] == [0, 2]   # step 0 and the final step
    for r in rows:
        assert np.isfinite(r["loss"]) and r["lr"] == cfg.base_lr
        assert r["loss"] == pytest.approx(r["dice_loss"] + r["ce_loss"], rel=1e-6)
    curve = (tmp_path / "run" / "loss.csv").read_text().splitlines()
    assert curve[0] == "step,loss,dice_loss,ce_loss,lr"
    assert len(curve) == 3
    m2, meta = load_model(tmp_path / "run" / "checkpoint.sdck")
    assert meta["step"].item() == 3.0
    assert "train_seconds" in meta
    np.testing.assert_array_equal(
        m2.named_parameters()["head.b"].data,
        model.named_parameters()["head.b"].data)


def test_train_is_deterministic(tmp_path):
    # checkpoint bytes differ only in the wall-clock meta entry, so compare
    # the logged rows and every trained parameter instead
    ma, rows_a, _ = _tiny_run(tmp_path / "a")
    mb, rows_b, _ = _tiny_run(tmp_path / "b")
    assert rows_a == rows_b
    for (na, ta), (nb, tb) in zip(ma.named_parameters().items(),
                                  mb.named_parameters().items()):
        assert na == nb
        np.testing.assert_array_equal(ta.data, tb.data)


def test_train_log_callback(tmp_path):
    seen = []
    cfg = TrainConfig(batch_size=2, max_steps=2, seed=0)
    model = build_model(ModelConfig(**MICRO))
    data = synth_dataset(4, 32, 32, 2, seed=2)
    train(model, data, cfg, out_dir=tmp_path, log=seen.append)
    assert [r["step"] for r in seen] == [0, 1]


def test_train_start_step_runs_tail_only(tmp_path):
    cfg = TrainConfig(batch_size=2, max_steps=4, seed=0)
    model = build_model(ModelConfig(**MICRO))
    data = synth_dataset(4, 32, 32, 2, seed=3)
    rows = train(model, data, cfg, out_dir=tmp_path, start_step=3)
    assert [r["step"] for r in rows] == [3]


def test_train_aborts_on_poisoned_params(tmp_path):
    cfg = TrainConfig(batch_size=2, max_steps=2, seed=0)
    model = build_model(ModelConfig(**MICRO))
    params = model.named_parameters()
    next(iter(params.values())).data[...] = np.nan
    data = synth_dataset(4, 32, 32, 2, seed=4)
    with pytest.raises(TrainingAborted, match="step 0"):
        train(model, data, cfg, out_dir=tmp_path)


def test_train_requires_output_target():
    model = build_model(ModelConfig(**MICRO))
    data = synth_dataset(2, 32, 32, 2, seed=5)
    with pytest.raises(ValueError):
        train(model, data, TrainConfig(max_steps=1))
    with pytest.raises(ValueError):
        train(model, [], TrainConfig(max_steps=1), out_dir="/tmp/x")
