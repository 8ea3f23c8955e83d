import contextlib
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from sdah.network import (
    BLOCK_IDS,
    CONFIG_KEY,
    LAYER_IDS,
    ModelConfig,
    build_model,
    count_flops,
    count_params,
    forward,
    load_model,
    micro_config,
    save_model,
    stage_layout,
)
from sdah.io import checkpoint_bytes, load_checkpoint
from sdah.rng import Stream
from sdah.tensor import NumericsError, Tensor, add, default_dtype, no_grad, tsum
from sdah.training import TrainConfig, TrainingAborted, synth_dataset, train

from oracles import bumped_logits

def _img(b=1, h=32, w=32, seed=0):
    return Stream(seed).normal((b, 1, h, w)).astype(np.float32)


# -- config ---------------------------------------------------------------------

def test_defaults_are_valid():
    cfg = ModelConfig()
    assert cfg.window_sizes == (7, 7, 7, 7)
    assert cfg.deform_flags == "DDDD"
    assert cfg.to_dict()["deform_flags"] == "DDDD"


def test_micro_config_is_the_defaults_with_small_windows():
    cfg = micro_config(seed=3)
    assert cfg == ModelConfig(window_sizes=(4, 4, 2, 2), seed=3)
    assert micro_config(window_sizes=(3, 3, 3, 3)).window_sizes == (3, 3, 3, 3)
    assert micro_config() is not micro_config()


def test_flag_string_parsing():
    assert micro_config(deform_flags="DNND").deform_flags == "DNND"
    for bad in ("DDX", "DDXN", "dddd", [1, 0, 1, 0], ("D", "N", "N", "D")):
        with pytest.raises(ValueError):
            micro_config(deform_flags=bad)


@pytest.mark.parametrize(
    "bad",
    [
        dict(num_classes=1),
        dict(stage_widths=(8, 16, 32)),
        dict(stage_widths=(8, 16, 32, 63)),
        dict(stem_width=7, stage_widths=(7, 14, 28, 56), num_heads=(1, 1, 1, 1)),
        dict(stem_width=6),                      # widths[0] != stem
        dict(num_heads=(3, 2, 4, 4)),            # 3 does not divide 8
        dict(branch_mode="parallel"),
        dict(fusion="max"),
        dict(gamma_off=0.0),
        dict(mlp_ratio=0),
        dict(seed=-1),
        dict(window_sizes=(4, 4, 2, 0)),
    ],
)
def test_config_validation(bad):
    with pytest.raises(ValueError):
        micro_config(**bad)


def test_config_round_trips_through_dict():
    cfg = micro_config(deform_flags="DNDN", fusion="sum", gamma_off=0.5)
    back = ModelConfig.from_dict(cfg.to_dict())
    assert back == cfg
    with pytest.raises(ValueError):
        ModelConfig.from_dict({"bogus_key": 3})


# -- build ----------------------------------------------------------------------

def test_build_is_deterministic():
    a = build_model(micro_config(seed=5))
    b = build_model(micro_config(seed=5))
    for (ka, ta), (kb, tb) in zip(a.named_parameters().items(),
                                  b.named_parameters().items()):
        assert ka == kb
        np.testing.assert_array_equal(ta.data, tb.data)


def test_different_seeds_differ():
    a = build_model(micro_config(seed=0))
    b = build_model(micro_config(seed=1))
    assert not np.array_equal(a.blocks["enc1"].dw1.w.data,
                              b.blocks["enc1"].dw1.w.data)


def test_named_parameters_order_is_stable():
    names = list(build_model(micro_config()).named_parameters())
    assert names[0].startswith("stem.")
    assert names[-1].startswith("head.")
    first_of = {bid: next(i for i, n in enumerate(names) if n.startswith(bid + "."))
                for bid in BLOCK_IDS}
    assert (first_of["enc1"] < first_of["enc2"] < first_of["enc3"]
            < first_of["bottleneck"] < first_of["dec3"] < first_of["dec2"]
            < first_of["dec1"])


def test_init_checkpoint_bytes_are_pinned():
    """Parameter names, their order and the seeded init draws, byte for byte."""
    m = build_model(micro_config(seed=0))
    named = {k: t.data for k, t in m.named_parameters().items()}
    assert hashlib.sha256(checkpoint_bytes(named)).hexdigest() == (
        "7ab1d820837e64aaafc824cc587c2cd921041d68c5b1180eae6c563f5554b101")


def test_deform_flags_select_offset_nets():
    m = build_model(micro_config(deform_flags="DNND"))
    names = set(m.named_parameters())
    assert "enc1.sdmsa.off_dw_w" in names
    assert "enc2.sdmsa.off_dw_w" not in names
    assert "enc3.sdmsa.off_dw_w" not in names
    assert "bottleneck.sdmsa.off_dw_w" in names
    # decoder blocks mirror their encoder stage's flag
    assert "dec1.sdmsa.off_dw_w" in names
    assert "dec2.sdmsa.off_dw_w" not in names


# -- forward --------------------------------------------------------------------

def test_forward_shapes_and_traces():
    m = build_model(micro_config())
    logits, info = forward(m, _img(2))
    assert logits.shape == (2, 2, 32, 32)
    assert set(info.traces) == set(BLOCK_IDS)


def test_forward_rejects_bad_inputs():
    m = build_model(micro_config())
    with pytest.raises(ValueError):
        forward(m, np.zeros((1, 2, 32, 32), dtype=np.float32))  # channels
    with pytest.raises(ValueError):
        forward(m, np.zeros((1, 1, 30, 32), dtype=np.float32))  # divisibility


def test_input_geometry_is_checked_before_the_stem(monkeypatch):
    """Micro windows (4, 4, 2, 2): at 64x96 the bottleneck map is 2x3."""
    def stem(*args):
        raise AssertionError("the stem ran")

    monkeypatch.setattr("sdah.blocks.conv_embed", stem)
    m = build_model(micro_config())
    for run in (lambda: count_flops(m, 64, 96), lambda: forward(m, _img(1, 64, 96))):
        with pytest.raises(ValueError, match=r"^bottleneck: .* 2x3 .*\(input 64x96\)"):
            run()


def test_nonfinite_image_is_named():
    m = build_model(micro_config())
    img = _img(2)
    img[1, 0, 3, 5] = np.nan
    with pytest.raises(NumericsError, match="input image has non-finite values"):
        forward(m, img)


# -- numerics: every error names the layer and the op -----------------------------

def _conv_weight(m, lid: str) -> Tensor:
    """The layer's first conv or deconv weight whose input-gradient VJP
    reads it (the stem's first conv sees only the image, so its second)."""
    name = "conv1.w" if lid == "stem" else "dw1.w" if lid in BLOCK_IDS else "w"
    return m.named_parameters()[f"{lid}.{name}"]


def _conv_op(lid: str) -> str:
    return "deconv2d" if lid == "head" or lid.startswith("up") else "conv2d"


@pytest.mark.parametrize("recording", [contextlib.nullcontext, no_grad])
@pytest.mark.parametrize("lid", LAYER_IDS)
def test_nan_weight_names_its_layer_and_the_op_a_checked_run_names(lid, recording,
                                                                   monkeypatch):
    """The forward checks only its logits, then replays with every per-op
    check on: the error is a fully checked forward's, prefixed by the layer."""
    m = build_model(micro_config())
    _conv_weight(m, lid).data.flat[0] = np.nan
    with monkeypatch.context() as mp:
        mp.setattr("sdah.network._unchecked", contextlib.nullcontext)
        with recording(), pytest.raises(NumericsError) as checked:
            forward(m, _img(2))
    with recording(), pytest.raises(NumericsError) as deferred:
        forward(m, _img(2))
    assert str(deferred.value) == str(checked.value)
    assert str(deferred.value) == f"{lid}: {_conv_op(lid)} produced non-finite values"


@pytest.mark.parametrize("lid", LAYER_IDS)
def test_nan_weight_after_the_forward_names_its_layer_in_backward(lid):
    m = build_model(micro_config())
    logits, _ = forward(m, _img(2))
    _conv_weight(m, lid).data.flat[0] = np.nan
    with pytest.raises(NumericsError, match=f"^{lid}: {_conv_op(lid)} backward produced "
                                            "non-finite values$"):
        tsum(logits).backward()


@pytest.mark.parametrize("lid", LAYER_IDS)
def test_train_abort_names_the_step_layer_and_op(lid, tmp_path):
    m = build_model(micro_config())
    _conv_weight(m, lid).data.flat[0] = np.nan
    with pytest.raises(TrainingAborted, match=f"^non-finite value at step 0: {lid}: "
                                              f"{_conv_op(lid)} produced non-finite"):
        train(m, synth_dataset(4, 32, 32, 2, seed=4), TrainConfig(batch_size=2, max_steps=2),
              out_dir=tmp_path)


@pytest.mark.parametrize("lid", LAYER_IDS)
def test_train_abort_in_the_backward_names_the_step_layer_and_op(lid, tmp_path,
                                                                 monkeypatch):
    """A weight that is NaN only while the backward runs: the one check of
    the gradient vector fails, and the checked replay of the step names
    the op."""
    m = build_model(micro_config())
    w = _conv_weight(m, lid)
    clean = w.data.flat[0]

    def forward_then_poison(model, image):
        w.data.flat[0] = clean
        out = forward(model, image)
        w.data.flat[0] = np.nan
        return out

    monkeypatch.setattr("sdah.training.forward", forward_then_poison)
    with pytest.raises(TrainingAborted, match=f"^non-finite value at step 0: {lid}: "
                                              f"{_conv_op(lid)} backward produced"):
        train(m, synth_dataset(4, 32, 32, 2, seed=4), TrainConfig(batch_size=2, max_steps=2),
              out_dir=tmp_path)


@pytest.mark.parametrize("recording", [contextlib.nullcontext, no_grad])
def test_inf_offset_bias_still_raises_though_tanh_would_bound_it(recording):
    """The offset net's 1x1 conv output is checked even where conv2d's own
    check is off, since tanh(inf) = 1 would give finite logits."""
    m = build_model(micro_config())
    m.named_parameters()["enc1.sdmsa.off_pw_b"].data[0] = np.inf
    with recording(), pytest.raises(NumericsError,
                                    match="^enc1: conv2d produced non-finite values$"):
        forward(m, _img(2))


def test_a_failed_forward_leaves_the_checks_on_and_no_layer_named():
    """The offset net's check raises inside the unchecked pass: the checks
    and the layer name are restored for a primitive called on its own."""
    m = build_model(micro_config())
    m.named_parameters()["enc1.sdmsa.off_pw_b"].data[0] = np.inf
    with pytest.raises(NumericsError, match="^enc1: "):
        forward(m, _img())
    with pytest.raises(NumericsError, match="^add produced non-finite values$"):
        add(Tensor(np.array([np.inf], np.float32)), 1.0)


def test_shift_alternates_with_stage_parity():
    m = build_model(micro_config())
    _, info = forward(m, _img())
    shifts = {bid: info.traces[bid].layout.shift for bid in BLOCK_IDS}
    # stages 0..3 at 32x32 run windows 4,4,2,1
    assert shifts["enc1"] == 0 and shifts["dec1"] == 0
    assert shifts["enc2"] == 2 and shifts["dec2"] == 2
    assert shifts["enc3"] == 0 and shifts["dec3"] == 0
    assert shifts["bottleneck"] == 0  # ws_eff 1 -> 1 // 2


def test_conv_only_ignores_window_sizes():
    """Windows are laid out only for blocks with attention, so a conv_only
    model runs with windows that divide no stage map."""
    m = build_model(micro_config(branch_mode="conv_only", window_sizes=(3, 3, 3, 3)))
    logits, info = forward(m, _img())
    assert logits.shape == (1, 2, 32, 32)
    assert all(info.traces[bid] is None for bid in BLOCK_IDS)
    plain = build_model(micro_config(branch_mode="conv_only"))
    assert count_flops(m, 32, 32) == count_flops(plain, 32, 32)


def test_stage_layout_validates_divisibility():
    cfg = micro_config(window_sizes=(4, 3, 2, 2))
    with pytest.raises(ValueError):
        stage_layout(cfg.window_sizes[1], 1, 16, 16)


def test_taps_expose_block_outputs_with_grads():
    """Every block's output is kept, attached to the graph."""
    m = build_model(micro_config())
    logits, info = forward(m, _img())
    assert tuple(info.outputs) == BLOCK_IDS
    assert info.outputs["enc2"].shape == (1, 16, 4, 4)
    tsum(logits * logits).backward()
    for t in info.outputs.values():
        assert t.grad is not None and t.grad.shape == t.shape


def test_inject_shifts_downstream_output():
    m = build_model(micro_config())
    base, _ = forward(m, _img())
    eps = np.zeros((1, 16, 4, 4), dtype=np.float32)
    np.testing.assert_array_equal(bumped_logits(m, _img(), "enc2", eps).data, base.data)
    eps[0, 3] = 1e-3
    bumped = bumped_logits(m, _img(), "enc2", eps)
    assert np.abs(bumped.data - base.data).max() > 0


def test_every_parameter_receives_finite_grad():
    from sdah.training import TrainConfig, combined_loss

    m = build_model(micro_config())
    rng = np.random.default_rng(3)
    lab = rng.integers(0, 2, size=(1, 32, 32)).astype(np.uint8)
    logits, _ = forward(m, _img(seed=4))
    loss, _, _ = combined_loss(logits, lab, TrainConfig())
    loss.backward()
    for name, t in m.named_parameters().items():
        assert t.grad is not None, name
        assert np.isfinite(t.grad).all(), name


def test_micro_step_graph_size():
    """The graph of a micro forward plus loss (B=8, 32x32) stays small:
    channel mixes are single nodes, windows one node each way, each
    deformable layer's sampling points one node, the loss one node."""
    from sdah.training import TrainConfig, combined_loss

    lab = np.random.default_rng(5).integers(0, 2, size=(8, 32, 32)).astype(np.uint8)
    logits, _ = forward(build_model(micro_config()), _img(b=8, seed=6))
    loss, _, _ = combined_loss(logits, lab, TrainConfig())
    seen, todo = set(), [loss]
    while todo:
        t = todo.pop()
        if id(t) not in seen and t._ctx is not None:
            seen.add(id(t))
            todo.extend(t._ctx.parents)
    assert len(seen) <= 175


def test_model_call_returns_logits():
    m = build_model(micro_config())
    out = m(Tensor(_img()))
    assert out.shape == (1, 2, 32, 32)


# -- save / load ----------------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    m = build_model(micro_config(seed=9, deform_flags="DNDN", fusion="sum"))
    p = tmp_path / "m.sdck"
    save_model(p, m, extra={"step": np.float64(17)})
    m2, meta = load_model(p)
    assert m2.config == m.config
    assert meta["step"].item() == 17.0
    a = m(Tensor(_img(seed=10)))
    b = m2(Tensor(_img(seed=10)))
    np.testing.assert_array_equal(a.data, b.data)


def test_checkpoint_bytes_are_stable(tmp_path):
    m = build_model(micro_config(seed=2))
    p1, p2 = tmp_path / "a.sdck", tmp_path / "b.sdck"
    save_model(p1, m)
    save_model(p2, m)
    assert p1.read_bytes() == p2.read_bytes()


def test_set_parameters_rejects_mismatches(tmp_path):
    m = build_model(micro_config())
    named = {k: t.data for k, t in m.named_parameters().items()}
    bad = dict(named)
    bad.pop("head.w")
    with pytest.raises(ValueError):
        m.set_parameters(bad)
    bad = dict(named)
    bad["rogue"] = np.zeros(3)
    with pytest.raises(ValueError):
        m.set_parameters(bad)
    bad = dict(named)
    bad["head.b"] = np.zeros(99)
    with pytest.raises(ValueError):
        m.set_parameters(bad)


def test_set_parameters_rejects_an_integer_array_and_keeps_the_model():
    """SDT1's uint8 code is for masks and the config: a weight stored with
    it is refused by name, not cast, and no tensor changes."""
    m = build_model(micro_config(seed=0))
    before = {k: (t.data, t.data.copy()) for k, t in m.named_parameters().items()}
    named = {k: t.data.copy()
             for k, t in build_model(micro_config(seed=1)).named_parameters().items()}
    named["head.b"] = np.array([3, 250], np.uint8)
    with pytest.raises(ValueError, match="^head.b: dtype uint8 is not a float$"):
        m.set_parameters(named)
    for k, t in m.named_parameters().items():
        assert t.data is before[k][0]
        np.testing.assert_array_equal(t.data, before[k][1], err_msg=k)


def test_float64_checkpoint_loads_as_float32(tmp_path):
    """A float64 model's own checkpoint stores float64 weights; they load
    cast to the float32 tensors."""
    with default_dtype(np.float64):
        m = build_model(micro_config(seed=3))
    save_model(tmp_path / "m.sdck", m)
    assert load_checkpoint(tmp_path / "m.sdck")["head.w"].dtype == np.float64
    loaded, _ = load_model(tmp_path / "m.sdck")
    for k, t in loaded.named_parameters().items():
        assert t.data.dtype == np.float32, k
        np.testing.assert_array_equal(t.data, m.named_parameters()[k].data.astype(np.float32))


def test_checkpoint_entries_are_the_field_paths_of_its_model():
    """The committed checkpoint's entries, `meta.*` aside, are in name and
    order `named_parameters()` of the model its config builds."""
    named = load_checkpoint(Path(__file__).resolve().parents[1] / "perfbench" / "micro_desk.sdck")
    cfg = ModelConfig.from_dict(json.loads(bytes(named[CONFIG_KEY]).decode()))
    entries = [k for k in named if not k.startswith("meta.")]
    assert entries == list(build_model(cfg).named_parameters())


@pytest.mark.parametrize("variant,absent", [
    (dict(deform_flags="NNNN"), ".sdmsa.off_"),
    (dict(deform_flags="NNNN", branch_mode="conv_only"), ".sdmsa."),
    (dict(branch_mode="sdmsa_only", fusion="sum"), ".dw2."),
])
def test_an_absent_group_only_drops_its_names(variant, absent):
    """A variant's names are the DDDD/dual model's in the same order, less
    the groups the variant has no weights for."""
    dual = list(build_model(micro_config()).named_parameters())
    names = list(build_model(micro_config(**variant)).named_parameters())
    assert names == [n for n in dual if absent not in n]
    assert len(names) < len(dual)


def test_set_parameters_is_all_or_nothing():
    """A load that fails on its last tensor leaves every tensor as it was."""
    m = build_model(micro_config(seed=0))
    before = {k: t.data.copy() for k, t in m.named_parameters().items()}
    other = build_model(micro_config(seed=1))
    named = {k: t.data.copy() for k, t in other.named_parameters().items()}
    named["head.b"][0] = np.nan
    with pytest.raises(NumericsError, match="head.b has non-finite values"):
        m.set_parameters(named)
    for k, t in m.named_parameters().items():
        np.testing.assert_array_equal(t.data, before[k], err_msg=k)


@pytest.mark.parametrize("name,value", [("enc2.sdmsa.bias_table", np.nan),
                                        ("dec1.fc2.b", np.inf)])
def test_nonfinite_checkpoint_tensor_is_named(name, value, tmp_path):
    m = build_model(micro_config())
    m.named_parameters()[name].data.flat[0] = value
    save_model(tmp_path / "m.sdck", m)
    with pytest.raises(NumericsError, match=f"{name} has non-finite values"):
        load_model(tmp_path / "m.sdck")


def test_loaded_parameters_are_views_into_one_packed_vector(tmp_path):
    """`load_model` copies each tensor once, into its slice of one
    contiguous float32 vector, in `named_parameters()` order."""
    m = build_model(micro_config(seed=4))
    save_model(tmp_path / "m.sdck", m)
    loaded, _ = load_model(tmp_path / "m.sdck")
    params = loaded.named_parameters()
    w = next(iter(params.values())).data.base
    assert w.ndim == 1 and w.dtype == np.float32 and w.flags.c_contiguous
    assert w.size == count_params(loaded)
    addr = w.__array_interface__["data"][0]
    for name, t in params.items():
        assert t.data.base is w and t.data.flags.c_contiguous, name
        assert t.data.__array_interface__["data"][0] == addr, name
        addr += t.data.nbytes
        np.testing.assert_array_equal(t.data, m.named_parameters()[name].data)


def test_set_parameters_names_the_first_nonfinite_tensor_and_keeps_the_packed_views(tmp_path):
    """On a loaded model: of two non-finite tensors the one first in
    `named_parameters()` order is named, and every tensor keeps its array."""
    save_model(tmp_path / "m.sdck", build_model(micro_config(seed=0)))
    loaded, _ = load_model(tmp_path / "m.sdck")
    before = {k: (t.data, t.data.copy()) for k, t in loaded.named_parameters().items()}
    named = {k: t.data.copy()
             for k, t in build_model(micro_config(seed=1)).named_parameters().items()}
    named["dec1.fc2.b"][0] = np.nan
    named["enc2.sdmsa.bias_table"].flat[3] = np.inf
    with pytest.raises(NumericsError, match="^enc2.sdmsa.bias_table has non-finite values$"):
        loaded.set_parameters(named)
    for k, t in loaded.named_parameters().items():
        assert t.data is before[k][0]
        np.testing.assert_array_equal(t.data, before[k][1], err_msg=k)


def test_train_on_a_loaded_model_logs_the_losses_of_set_parameters(tmp_path):
    """The same weights reached by `load_model`, by `set_parameters` on a
    model of another seed, and by the build itself train to the same logged
    losses and final weights."""
    m = build_model(micro_config(seed=6))
    save_model(tmp_path / "m.sdck", m)
    loaded, _ = load_model(tmp_path / "m.sdck")
    given = build_model(micro_config(seed=7))
    given.set_parameters({k: t.data for k, t in m.named_parameters().items()})
    data = synth_dataset(4, 32, 32, 2, seed=2)
    cfg = TrainConfig(batch_size=2, max_steps=3, seed=0)
    runs = []
    for i, model in enumerate((loaded, given, m)):
        seen = []
        train(model, data, cfg, out_dir=tmp_path / str(i), log=seen.append)
        runs.append((seen, {k: t.data for k, t in model.named_parameters().items()}))
    assert [r["step"] for r in runs[0][0]] == [0, 2]
    for seen, weights in runs[1:]:
        assert seen == runs[0][0]
        for k, want in runs[0][1].items():
            np.testing.assert_array_equal(weights[k], want, err_msg=k)


def test_load_model_requires_config(tmp_path):
    from sdah.io import save_checkpoint

    p = tmp_path / "x.sdck"
    save_checkpoint(p, {"w": np.zeros(3, dtype=np.float32)})
    with pytest.raises(ValueError):
        load_model(p)


# -- accounting -----------------------------------------------------------------

def test_count_params_is_sum_of_sizes():
    m = build_model(micro_config())
    want = sum(t.data.size for t in m.named_parameters().values())
    assert count_params(m) == want


def test_count_params_micro_hand_count():
    """Closed-form count for the micro config, derived layer by layer."""

    def stem(cin, c):
        h = c // 2
        convs = (h * cin + h * h + c * h + c * c) * 9 + (h + h + c + c)
        lns = 2 * (h + h + c + c)
        return convs + lns

    def attn(c, nh, ws, deform):
        d = c // nh
        n = 3 * nh * d * d + c * c + nh * (2 * ws - 1) ** 2
        if deform:
            n += c * 25 + c + (2 * nh) * d + 2 * nh
        return n

    def block(c, nh, ws, deform, ratio=4):
        n = c * 49 + c            # dw1
        n += 2 * c                # ln1
        n += c * (ratio * c) + ratio * c + (ratio * c) * c + c  # mlp
        n += 2 * c                # ln2
        n += attn(c, nh, ws, deform)
        n += c * 49 + c           # dw2
        n += (2 * c) * c + c      # fc_out (dual concat)
        return n

    # the micro config written out, not read from micro_config(): this is the oracle
    widths, heads, wss = (8, 16, 32, 64), (2, 2, 4, 4), (4, 4, 2, 2)
    want = stem(1, 8)
    for st in range(4):
        want += block(widths[st], heads[st], wss[st], True)
    for st in range(3):                      # downsamples
        want += (2 * widths[st]) * widths[st] * 4 + 2 * widths[st]
    for st in (2, 1, 0):                     # upsamples
        want += widths[st + 1] * widths[st] * 4 + widths[st]
    for st in (2, 1, 0):                     # skip fuses
        want += widths[st] * 2 * widths[st] + widths[st]
    for st in (2, 1, 0):                     # decoder blocks
        want += block(widths[st], heads[st], wss[st], True)
    want += 8 * 2 * 16 + 2                   # head deconv
    assert count_params(build_model(micro_config())) == want


def test_flops_spot_checks():
    """2mkn matmul accounting on hand-computable pieces."""
    m = build_model(micro_config(branch_mode="conv_only"))
    got = count_flops(m, 32, 32)
    c = 8

    def block(cw, hw, ratio=4):
        n = 2 * cw * 49 * hw            # dw1
        n += 2 * hw * cw * (ratio * cw) * 2  # mlp in + out
        n += 2 * cw * 49 * hw           # dw2
        n += 2 * hw * cw * cw           # fc_out
        return n

    want = 0
    want += 2 * 4 * 1 * 9 * 16 * 16 + 2 * 4 * 4 * 9 * 16 * 16
    want += 2 * 8 * 4 * 9 * 8 * 8 + 2 * 8 * 8 * 9 * 8 * 8
    widths = (8, 16, 32, 64)
    sizes = (64, 16, 4, 1)
    for st in range(4):
        want += block(widths[st], sizes[st])
    for st in range(3):
        want += 2 * (2 * widths[st]) * widths[st] * 4 * sizes[st + 1]
    for st in (2, 1, 0):
        want += 2 * widths[st + 1] * widths[st] * 4 * sizes[st + 1]
        want += 2 * widths[st] * (2 * widths[st]) * 1 * sizes[st]
        want += block(widths[st], sizes[st])
    want += 2 * c * 2 * 16 * 8 * 8
    assert got == want


def test_flops_grow_with_resolution():
    m = build_model(micro_config())
    assert count_flops(m, 64, 64) > 3.5 * count_flops(m, 32, 32)
    with pytest.raises(ValueError):
        count_flops(m, 33, 32)
