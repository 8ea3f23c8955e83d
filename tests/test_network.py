import hashlib

import numpy as np
import pytest

from sdah.network import (
    BLOCK_IDS,
    ModelConfig,
    build_model,
    count_flops,
    count_params,
    forward,
    load_model,
    save_model,
    stage_layout,
)
from sdah.io import checkpoint_bytes
from sdah.rng import Stream
from sdah.tensor import NumericsError, Tensor, tsum

from oracles import bumped_logits

MICRO = dict(in_channels=1, num_classes=2, stem_width=8,
             stage_widths=(8, 16, 32, 64), window_sizes=(4, 4, 2, 2),
             num_heads=(2, 2, 4, 4))


def micro(**over) -> ModelConfig:
    return ModelConfig(**{**MICRO, **over})


def _img(b=1, h=32, w=32, seed=0):
    return Stream(seed).normal((b, 1, h, w)).astype(np.float32)


# -- config ---------------------------------------------------------------------

def test_defaults_are_valid():
    cfg = ModelConfig()
    assert cfg.window_sizes == (7, 7, 7, 7)
    assert cfg.deform_flags == (True, True, True, True)
    assert cfg.flags_string == "DDDD"


def test_flag_string_parsing():
    assert micro(deform_flags="DNND").deform_flags == (True, False, False, True)
    assert micro(deform_flags=[1, 0, 1, 0]).deform_flags == (True, False, True, False)
    with pytest.raises(ValueError):
        micro(deform_flags="DDX")
    with pytest.raises(ValueError):
        micro(deform_flags="DDXN")


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
        micro(**bad)


def test_config_round_trips_through_dict():
    cfg = micro(deform_flags="DNDN", fusion="sum", gamma_off=0.5)
    back = ModelConfig.from_dict(cfg.to_dict())
    assert back == cfg
    with pytest.raises(ValueError):
        ModelConfig.from_dict({"bogus_key": 3})


# -- build ----------------------------------------------------------------------

def test_build_is_deterministic():
    a = build_model(micro(seed=5))
    b = build_model(micro(seed=5))
    for (ka, ta), (kb, tb) in zip(a.named_parameters().items(),
                                  b.named_parameters().items()):
        assert ka == kb
        np.testing.assert_array_equal(ta.data, tb.data)


def test_different_seeds_differ():
    a = build_model(micro(seed=0))
    b = build_model(micro(seed=1))
    assert not np.array_equal(a.blocks["enc1"].dw1_w.data,
                              b.blocks["enc1"].dw1_w.data)


def test_named_parameters_order_is_stable():
    names = list(build_model(micro()).named_parameters())
    assert names[0].startswith("stem.")
    assert names[-1].startswith("head.")
    first_of = {bid: next(i for i, n in enumerate(names) if n.startswith(bid + "."))
                for bid in BLOCK_IDS}
    assert (first_of["enc1"] < first_of["enc2"] < first_of["enc3"]
            < first_of["bottleneck"] < first_of["dec3"] < first_of["dec2"]
            < first_of["dec1"])


def test_init_checkpoint_bytes_are_pinned():
    """Parameter names, their order and the seeded init draws, byte for byte."""
    m = build_model(micro(seed=0))
    named = {k: t.data for k, t in m.named_parameters().items()}
    assert hashlib.sha256(checkpoint_bytes(named)).hexdigest() == (
        "7ab1d820837e64aaafc824cc587c2cd921041d68c5b1180eae6c563f5554b101")


def test_deform_flags_select_offset_nets():
    m = build_model(micro(deform_flags="DNND"))
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
    m = build_model(micro())
    logits, info = forward(m, _img(2))
    assert logits.shape == (2, 2, 32, 32)
    assert set(info.traces) == set(BLOCK_IDS)


def test_forward_rejects_bad_inputs():
    m = build_model(micro())
    with pytest.raises(ValueError):
        forward(m, np.zeros((1, 2, 32, 32), dtype=np.float32))  # channels
    with pytest.raises(ValueError):
        forward(m, np.zeros((1, 1, 30, 32), dtype=np.float32))  # divisibility


def test_input_geometry_is_checked_before_the_stem(monkeypatch):
    """Micro windows (4, 4, 2, 2): at 64x96 the bottleneck map is 2x3."""
    def stem(*args):
        raise AssertionError("the stem ran")

    monkeypatch.setattr("sdah.blocks.conv_embed", stem)
    m = build_model(micro())
    for run in (lambda: count_flops(m, 64, 96), lambda: forward(m, _img(1, 64, 96))):
        with pytest.raises(ValueError, match=r"^bottleneck: .* 2x3 .*\(input 64x96\)"):
            run()


def test_nonfinite_image_is_named():
    m = build_model(micro())
    img = _img(2)
    img[1, 0, 3, 5] = np.nan
    with pytest.raises(NumericsError, match="input image has non-finite values"):
        forward(m, img)


def test_shift_alternates_with_stage_parity():
    m = build_model(micro())
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
    m = build_model(micro(branch_mode="conv_only", window_sizes=(3, 3, 3, 3)))
    logits, info = forward(m, _img())
    assert logits.shape == (1, 2, 32, 32)
    assert all(info.traces[bid] is None for bid in BLOCK_IDS)
    plain = build_model(micro(branch_mode="conv_only"))
    assert count_flops(m, 32, 32) == count_flops(plain, 32, 32)


def test_stage_layout_validates_divisibility():
    cfg = micro(window_sizes=(4, 3, 2, 2))
    with pytest.raises(ValueError):
        stage_layout(cfg.window_sizes[1], 1, 16, 16)


def test_taps_expose_block_outputs_with_grads():
    """Every block's output is kept, attached to the graph."""
    m = build_model(micro())
    logits, info = forward(m, _img())
    assert tuple(info.outputs) == BLOCK_IDS
    assert info.outputs["enc2"].shape == (1, 16, 4, 4)
    tsum(logits * logits).backward()
    for t in info.outputs.values():
        assert t.grad is not None and t.grad.shape == t.shape


def test_inject_shifts_downstream_output():
    m = build_model(micro())
    base, _ = forward(m, _img())
    eps = np.zeros((1, 16, 4, 4), dtype=np.float32)
    np.testing.assert_array_equal(bumped_logits(m, _img(), "enc2", eps).data, base.data)
    eps[0, 3] = 1e-3
    bumped = bumped_logits(m, _img(), "enc2", eps)
    assert np.abs(bumped.data - base.data).max() > 0


def test_every_parameter_receives_finite_grad():
    from sdah.training import TrainConfig, combined_loss

    m = build_model(micro())
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
    channel mixes are single nodes, windows one node each way, the loss
    one node."""
    from sdah.training import TrainConfig, combined_loss

    lab = np.random.default_rng(5).integers(0, 2, size=(8, 32, 32)).astype(np.uint8)
    logits, _ = forward(build_model(micro()), _img(b=8, seed=6))
    loss, _, _ = combined_loss(logits, lab, TrainConfig())
    seen, todo = set(), [loss]
    while todo:
        t = todo.pop()
        if id(t) not in seen and t._ctx is not None:
            seen.add(id(t))
            todo.extend(t._ctx.parents)
    assert len(seen) <= 245


def test_model_call_returns_logits():
    m = build_model(micro())
    out = m(Tensor(_img()))
    assert out.shape == (1, 2, 32, 32)


# -- save / load ----------------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    m = build_model(micro(seed=9, deform_flags="DNDN", fusion="sum"))
    p = tmp_path / "m.sdck"
    save_model(p, m, extra={"step": np.float64(17)})
    m2, meta = load_model(p)
    assert m2.config == m.config
    assert meta["step"].item() == 17.0
    a = m(Tensor(_img(seed=10)))
    b = m2(Tensor(_img(seed=10)))
    np.testing.assert_array_equal(a.data, b.data)


def test_checkpoint_bytes_are_stable(tmp_path):
    m = build_model(micro(seed=2))
    p1, p2 = tmp_path / "a.sdck", tmp_path / "b.sdck"
    save_model(p1, m)
    save_model(p2, m)
    assert p1.read_bytes() == p2.read_bytes()


def test_set_parameters_rejects_mismatches(tmp_path):
    m = build_model(micro())
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


def test_set_parameters_is_all_or_nothing():
    """A load that fails on its last tensor leaves every tensor as it was."""
    m = build_model(micro(seed=0))
    before = {k: t.data.copy() for k, t in m.named_parameters().items()}
    other = build_model(micro(seed=1))
    named = {k: t.data.copy() for k, t in other.named_parameters().items()}
    named["head.b"][0] = np.nan
    with pytest.raises(NumericsError, match="head.b has non-finite values"):
        m.set_parameters(named)
    for k, t in m.named_parameters().items():
        np.testing.assert_array_equal(t.data, before[k], err_msg=k)


@pytest.mark.parametrize("name,value", [("enc2.sdmsa.bias_table", np.nan),
                                        ("dec1.fc2.b", np.inf)])
def test_nonfinite_checkpoint_tensor_is_named(name, value, tmp_path):
    m = build_model(micro())
    m.named_parameters()[name].data.flat[0] = value
    save_model(tmp_path / "m.sdck", m)
    with pytest.raises(NumericsError, match=f"{name} has non-finite values"):
        load_model(tmp_path / "m.sdck")


def test_load_model_requires_config(tmp_path):
    from sdah.io import save_checkpoint

    p = tmp_path / "x.sdck"
    save_checkpoint(p, {"w": np.zeros(3, dtype=np.float32)})
    with pytest.raises(ValueError):
        load_model(p)


# -- accounting -----------------------------------------------------------------

def test_count_params_is_sum_of_sizes():
    m = build_model(micro())
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
    assert count_params(build_model(micro())) == want


def test_flops_spot_checks():
    """2mkn matmul accounting on hand-computable pieces."""
    m = build_model(micro(branch_mode="conv_only"))
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
    m = build_model(micro())
    assert count_flops(m, 64, 64) > 3.5 * count_flops(m, 32, 32)
    with pytest.raises(ValueError):
        count_flops(m, 33, 32)
