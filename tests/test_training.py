import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sdah.gradcheck import grad_check
from sdah.network import build_model, forward, load_model, micro_config
from sdah.rng import Stream, derive_seed
from sdah.tensor import NumericsError, Tensor, default_dtype
from sdah.training import (
    AdamState,
    SegSample,
    TrainConfig,
    TrainingAborted,
    adam_step,
    batch_indices,
    combined_loss,
    load_dataset,
    lr_at,
    save_dataset,
    synth_dataset,
    synth_sample,
    train,
)

from oracles import adam_per_tensor, loss_chain

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


def _loss(logits, label, lambda_dice, lambda_ce):
    cfg = TrainConfig(lambda_dice=lambda_dice, lambda_ce=lambda_ce)
    return combined_loss(logits, label, cfg)[0]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_dice_matches_reference(k):
    logits, label = _pair(2, k, 6, 5, seed=k)
    got = _loss(Tensor(logits, dtype=np.float64), label, 1.0, 0.0)
    assert got.item() == pytest.approx(_ref_dice(logits, label), rel=1e-12)


def test_dice_perfect_prediction_is_near_zero():
    label = np.zeros((1, 8, 8), dtype=np.uint8)
    label[0, 2:6, 2:6] = 1
    logits = np.where(label[:, None] == 1, 50.0, -50.0) * np.array([-1.0, 1.0])[None, :, None, None]
    assert _loss(Tensor(logits), label, 1.0, 0.0).item() < 1e-4


@pytest.mark.parametrize("k", [2, 4])
def test_ce_matches_reference(k):
    logits, label = _pair(3, k, 5, 4, seed=10 + k)
    got = _loss(Tensor(logits, dtype=np.float64), label, 0.0, 1.0)
    assert got.item() == pytest.approx(_ref_ce(logits, label), rel=1e-12)


def test_ce_is_shift_invariant():
    logits, label = _pair(1, 3, 4, 4)
    a = _loss(Tensor(logits, dtype=np.float64), label, 0.0, 1.0).item()
    b = _loss(Tensor(logits + 1000.0, dtype=np.float64), label, 0.0, 1.0).item()
    assert a == pytest.approx(b, rel=1e-9)


@pytest.mark.parametrize("lambdas", [(1.0, 0.0), (0.0, 1.0), (0.3, 2.0)],
                         ids=["dice", "ce", "weighted"])
def test_loss_gradients_match_finite_differences(lambdas):
    logits, label = _pair(2, 3, 4, 4, seed=5)
    r = grad_check(lambda t: _loss(t, label, *lambdas),
                   [Tensor(logits, dtype=np.float64)], tol=1e-6, name="combined_loss")
    assert r.max_rel_err < 1e-6


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_combined_loss_equals_the_op_chain_bit_for_bit(k, dtype):
    logits, label = _pair(3, k, 9, 7, seed=20 + k)
    with default_dtype(dtype):
        for lambdas in ((1.0, 1.0), (0.3, 2.0), (1.0, 0.0), (0.0, 1.0)):
            a, b = (Tensor(logits * 3.0, requires_grad=True) for _ in range(2))
            got = combined_loss(a, label, TrainConfig(lambda_dice=lambdas[0],
                                                      lambda_ce=lambdas[1]))
            want = loss_chain(b, label, *lambdas)
            for g, w in zip(got, want):
                assert g.data.dtype == w.data.dtype == dtype
                assert g.data.tobytes() == w.data.tobytes()
            assert got[1]._ctx is None and got[2]._ctx is None  # values for the log
            # the one node's VJP differs from the chain's by rounding only
            got[0].backward()
            want[0].backward()
            rtol = 2e-6 if dtype is np.float32 else 1e-14
            assert np.abs(a.grad - b.grad).max() <= rtol * np.abs(b.grad).max()


def test_combined_loss_weights():
    logits, label = _pair(1, 2, 4, 4)
    cfg = TrainConfig(lambda_dice=0.3, lambda_ce=2.0)
    total, dl, cl = combined_loss(Tensor(logits), label, cfg)
    assert total.item() == pytest.approx(0.3 * dl.item() + 2.0 * cl.item(), rel=1e-6)


def test_loss_input_validation():
    logits, label = _pair(1, 2, 4, 4)
    cfg = TrainConfig()
    for bad_logits, bad_label in [
        (logits, label[:, :2]),                                  # size mismatch
        (logits, label + 5),                                     # ids out of range
        (logits[:, :1], np.zeros((1, 4, 4), dtype=np.uint8)),    # one class
        (logits[0, 0], label),                                   # rank 2
        (logits[None], label),                                   # rank 5
        (logits, label[0]),                                      # 4-D logits, 2-D labels
    ]:
        with pytest.raises(ValueError):
            combined_loss(Tensor(bad_logits), bad_label, cfg)


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
    p0 = rng.normal(size=12)
    gs = [rng.normal(size=12) for _ in range(7)]
    w = p0.copy()
    state = AdamState(np.zeros_like(w), np.zeros_like(w))
    for g in gs:
        adam_step(w, g, state, lr=1e-2)
    np.testing.assert_allclose(w, _ref_adam(p0, gs, 1e-2), rtol=1e-12, atol=1e-12)
    assert state.t == 7


def test_adam_first_step_moves_by_about_lr():
    # bias correction makes |update| ~= lr on step one for any grad scale
    w = np.zeros(5)
    adam_step(w, np.full(5, 1e-3), AdamState(np.zeros(5), np.zeros(5)), lr=0.01)
    np.testing.assert_allclose(np.abs(w), 0.01, rtol=1e-4)


def test_adam_rejects_shape_mismatch():
    w = np.zeros(4, dtype=np.float32)
    with pytest.raises(ValueError):
        adam_step(w, np.zeros(3, dtype=np.float32), AdamState(np.zeros(4), np.zeros(4)),
                  lr=0.1)


@pytest.mark.parametrize("big", [2e19, 1e21], ids=["v_over_c2", "v"])
def test_adam_second_moment_overflow_raises_before_w_moves(big):
    """A finite float32 gradient of 2e19 leaves v finite but makes
    sqrt(v / c2) inf on the first step; one of 1e21 overflows v itself.
    Either raises instead of freezing those weights, and `w` is untouched."""
    w = np.ones(4, np.float32)
    g = np.array([0.5, -big, 3.0, 0.0], np.float32)
    with pytest.raises(NumericsError, match="^adam: the second moment overflowed$"):
        adam_step(w, g, AdamState(np.zeros_like(w), np.zeros_like(w)), lr=1e-3)
    np.testing.assert_array_equal(w, 1.0)


def test_adam_just_below_the_overflow_still_steps():
    w = np.zeros(2, np.float32)
    adam_step(w, np.array([1e19, -1e19], np.float32),
              AdamState(np.zeros_like(w), np.zeros_like(w)), lr=1e-3)
    np.testing.assert_allclose(w, [-1e-3, 1e-3], rtol=1e-4)


def test_train_aborts_when_adams_second_moment_overflows(tmp_path):
    """lambda_ce = 1e30 gives finite but huge gradients; training used to
    run on with every weight frozen (m / inf = 0), now step 0 aborts."""
    model = build_model(micro_config())
    with pytest.raises(TrainingAborted, match="^non-finite value at step 0: adam: "
                                              "the second moment overflowed$"):
        train(model, synth_dataset(4, 32, 32, 2, seed=4),
              TrainConfig(batch_size=2, max_steps=3, seed=0, lambda_ce=1e30),
              out_dir=tmp_path)
    assert not (tmp_path / "checkpoint.sdck").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_aborts_on_a_loss_that_overflows_with_finite_gradients(tmp_path):
    """lambda_ce = 1e39 is inf in float32, so the loss is inf while its
    gradients (lambda_ce / pixels) stay finite: the step's one check covers
    the loss too, and the checked replay names the loss node."""
    with pytest.raises(TrainingAborted, match="^non-finite value at step 0: "
                                              "combined_loss produced non-finite values$"):
        train(build_model(micro_config()), synth_dataset(4, 32, 32, 2, seed=4),
              TrainConfig(batch_size=2, max_steps=3, seed=0, lambda_ce=1e39),
              out_dir=tmp_path)


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
    model = build_model(micro_config())
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
    assert list(meta) == ["step"] and meta["step"].item() == 3.0
    np.testing.assert_array_equal(
        m2.named_parameters()["head.b"].data,
        model.named_parameters()["head.b"].data)


def test_train_is_deterministic(tmp_path):
    _, rows_a, _ = _tiny_run(tmp_path / "a")
    _, rows_b, _ = _tiny_run(tmp_path / "b")
    assert rows_a == rows_b
    for name in ("checkpoint.sdck", "loss.csv"):
        assert ((tmp_path / "a" / "run" / name).read_bytes()
                == (tmp_path / "b" / "run" / name).read_bytes()), name


@pytest.mark.parametrize("over", [
    dict(deform_flags="NNNN"), dict(deform_flags="DNDN"), dict(deform_flags="DDDD"),
    dict(branch_mode="sdmsa_only"), dict(branch_mode="conv_only"),
    dict(deform_flags="DNDN", fusion="sum"),
])
def test_every_parameter_gets_a_gradient(over):
    # train() gathers one gradient per parameter, with no zero fallback
    model = build_model(micro_config(**over))
    data = synth_dataset(2, 32, 32, 2, seed=1)
    images = np.stack([s.image.data for s in data])
    labels = np.stack([s.label.data for s in data])
    logits, _ = forward(model, Tensor(images))
    combined_loss(logits, labels, TrainConfig())[0].backward()
    assert [n for n, p in model.named_parameters().items() if p.grad is None] == []


def test_train_matches_per_tensor_adam_bit_for_bit(tmp_path):
    cfg = TrainConfig(batch_size=2, max_steps=3, seed=0)
    data = synth_dataset(6, 32, 32, 2, seed=1)
    model = build_model(micro_config())
    rows = train(model, data, cfg, out_dir=tmp_path)

    ref = build_model(micro_config())
    params = ref.named_parameters()
    state, want = {}, []
    for step in range(cfg.max_steps):
        idx = batch_indices(cfg.seed, step, cfg.batch_size, len(data))
        images = np.stack([data[i].image.data for i in idx])
        labels = np.stack([data[i].label.data for i in idx])
        logits, _ = forward(ref, Tensor(images))
        loss, dl, cl = combined_loss(logits, labels, cfg)
        loss.backward()
        if step in (0, cfg.max_steps - 1):
            want.append({"step": step, "loss": loss.item(), "dice_loss": dl.item(),
                         "ce_loss": cl.item(), "lr": lr_at(step, cfg)})
        adam_per_tensor(params, {n: p.grad for n, p in params.items()}, state,
                        lr_at(step, cfg))
        for p in params.values():
            p.zero_grad()

    assert rows == want
    curve = (tmp_path / "loss.csv").read_text().splitlines()[1:]
    assert curve == [",".join(str(v) for v in r.values()) for r in want]
    for (na, ta), (nb, tb) in zip(model.named_parameters().items(), params.items()):
        assert na == nb
        np.testing.assert_array_equal(ta.data, tb.data)


def test_train_log_callback(tmp_path):
    seen = []
    cfg = TrainConfig(batch_size=2, max_steps=2, seed=0)
    model = build_model(micro_config())
    data = synth_dataset(4, 32, 32, 2, seed=2)
    train(model, data, cfg, out_dir=tmp_path, log=seen.append)
    assert [r["step"] for r in seen] == [0, 1]


def test_train_start_step_runs_tail_only(tmp_path):
    cfg = TrainConfig(batch_size=2, max_steps=4, seed=0)
    model = build_model(micro_config())
    data = synth_dataset(4, 32, 32, 2, seed=3)
    rows = train(model, data, cfg, out_dir=tmp_path, start_step=3)
    assert [r["step"] for r in rows] == [3]


def test_train_aborts_on_poisoned_params(tmp_path):
    cfg = TrainConfig(batch_size=2, max_steps=2, seed=0)
    model = build_model(micro_config())
    params = model.named_parameters()
    next(iter(params.values())).data[...] = np.nan
    data = synth_dataset(4, 32, 32, 2, seed=4)
    with pytest.raises(TrainingAborted, match="step 0"):
        train(model, data, cfg, out_dir=tmp_path)


@pytest.mark.parametrize("name,value", [("stem.conv1.b", np.inf), ("enc2.dw2.w", np.nan)])
def test_train_names_the_first_bad_op_not_a_later_one(name, value, tmp_path):
    """Under the suite's error::RuntimeWarning filter: the unchecked pass
    runs with float warnings off, so the stem's layer_norm on an inf gives
    no RuntimeWarning, and the checked replay names conv2d, not the
    layer_norm whose variance check raised first in that pass."""
    model = build_model(micro_config())
    model.named_parameters()[name].data.flat[0] = value
    layer = name.split(".")[0]
    with pytest.raises(TrainingAborted, match=f"^non-finite value at step 0: {layer}: "
                                              "conv2d produced non-finite values$"):
        train(model, synth_dataset(4, 32, 32, 2, seed=4),
              TrainConfig(batch_size=2, max_steps=2, seed=0), out_dir=tmp_path)


def test_train_requires_output_target():
    model = build_model(micro_config())
    data = synth_dataset(2, 32, 32, 2, seed=5)
    with pytest.raises(ValueError):
        train(model, data, TrainConfig(max_steps=1))
    with pytest.raises(ValueError):
        train(model, [], TrainConfig(max_steps=1), out_dir="/tmp/x")


def test_train_rejects_a_class_count_the_head_does_not_output(tmp_path):
    # 3-class data on a 2-class head failed inside the loss only once a batch
    # held a class-2 pixel, several steps in, and named neither count
    model = build_model(micro_config())
    data = synth_dataset(4, 32, 32, 3, seed=6)
    with pytest.raises(ValueError, match="3 classes.*outputs 2"):
        train(model, data, TrainConfig(batch_size=2, max_steps=2), out_dir=tmp_path / "run")
    assert not (tmp_path / "run").exists()


def test_train_fails_on_an_output_path_under_a_file_before_the_first_step(tmp_path,
                                                                            monkeypatch):
    """The output directories are made before the loop, so a path that
    cannot hold them loses no training."""
    afile, drawn = tmp_path / "afile", []
    afile.write_text("")
    monkeypatch.setattr("sdah.training.batch_indices",
                        lambda *args: drawn.append(args) or batch_indices(*args))
    with pytest.raises(OSError):
        train(build_model(micro_config()), synth_dataset(4, 32, 32, 2, seed=4),
              TrainConfig(batch_size=2, max_steps=2),
              ckpt_path=afile / "x.sdck", curve_path=afile / "x.csv")
    assert drawn == []


def test_train_steps_reuse_freed_heap_pages(tmp_path, glibc):
    """Steps after the first reuse the heap that earlier steps freed instead
    of faulting in fresh zeroed pages (about 2,800 faults per 224x224 step
    otherwise).  In a subprocess: the allocator setting is process-wide."""
    code = (
        "import resource, sys\n"
        "from sdah.network import ModelConfig, build_model\n"
        "from sdah.training import TrainConfig, synth_dataset, train\n"
        "model = build_model(ModelConfig(num_classes=3))\n"
        "data = synth_dataset(2, 224, 224, 3, seed=0)\n"
        "def run(start, stop):\n"
        "    train(model, data, TrainConfig(batch_size=1, max_steps=stop), out_dir=sys.argv[1],"
        " start_step=start)\n"
        "run(0, 2)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "run(2, 5)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    r = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    assert int(r.stdout) < 1000
