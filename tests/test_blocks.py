from dataclasses import fields, replace

import numpy as np
import pytest

from sdah.attention import WindowLayout
from sdah.blocks import (
    SdapcBlockParams,
    conv_embed,
    deconv_expand,
    downsample,
    init_conv_embed,
    init_downsample,
    init_head,
    init_sdapc,
    init_skip_fuse,
    init_upsample,
    sdapc_block,
    sdapc_division1,
    skip_fuse,
    upsample,
)
from sdah.gradcheck import grad_check
from sdah.rng import Stream
from sdah.tensor import Params, Tensor


def _x(b, c, h, w, seed=0):
    return Tensor(Stream(seed).normal((b, c, h, w)))


def _zero_block(p: SdapcBlockParams) -> None:
    for t in p.named_tensors().values():
        t.data[...] = 0.0


@pytest.mark.parametrize("branch_mode", ["dual", "sdmsa_only", "conv_only"])
@pytest.mark.parametrize("fusion", ["concat", "sum"])
def test_block_preserves_shape(branch_mode, fusion):
    p = init_sdapc(8, 2, 4, Stream(0), branch_mode=branch_mode, fusion=fusion)
    out, trace = sdapc_block(_x(2, 8, 8, 8), p, WindowLayout(8, 8, 4, 2))
    assert out.shape == (2, 8, 8, 8)
    assert (trace is None) == (branch_mode == "conv_only")


def _assert_holds_only_tensors(obj: Params) -> None:
    """Each field is a Tensor, a nested `Params`, a list of them, None, or
    one of the two settings no tensor carries."""
    for f in fields(obj):
        v = getattr(obj, f.name)
        items = v if isinstance(v, list) else [v]
        for item in items:
            if isinstance(item, Params):
                _assert_holds_only_tensors(item)
            else:
                assert not isinstance(v, list), f.name
                assert (f.name in ("gamma_off", "clamp_to_window") or item is None
                        or isinstance(item, Tensor)), f.name


@pytest.mark.parametrize("branch_mode", ["dual", "sdmsa_only", "conv_only"])
@pytest.mark.parametrize("deform", [True, False])
def test_containers_hold_only_tensors(branch_mode, deform):
    """Every fact a tensor encodes is read off it, never stored beside it."""
    p = init_sdapc(8, 2, 4, Stream(0), deform=deform, branch_mode=branch_mode)
    _assert_holds_only_tensors(p)
    _assert_holds_only_tensors(init_conv_embed(1, 8, Stream(0)))
    assert p.channels == 8
    if p.sdmsa is not None:
        assert (p.sdmsa.channels, p.sdmsa.n_heads, p.sdmsa.ws) == (8, 2, 4)


def test_branch_mode_controls_parameter_sets():
    dual = set(init_sdapc(8, 2, 4, Stream(0)).named_tensors())
    attn_only = set(init_sdapc(8, 2, 4, Stream(0),
                               branch_mode="sdmsa_only").named_tensors())
    conv_only = set(init_sdapc(8, 2, 4, Stream(0),
                               branch_mode="conv_only").named_tensors())
    assert {"dw2.w", "dw2.b"} <= dual - attn_only
    assert not any(k.startswith("sdmsa.") for k in conv_only)
    assert any(k.startswith("sdmsa.") for k in dual)
    # division 1 and fc_out exist in every mode
    core = {"dw1.w", "fc1.w", "fc2.w", "ln1.g", "ln2.g", "fc_out.w"}
    assert core <= dual and core <= attn_only and core <= conv_only


def test_non_deform_block_has_no_offset_net():
    p = init_sdapc(8, 2, 4, Stream(0), deform=False)
    assert not p.sdmsa.deformable
    assert "sdmsa.off_dw_w" not in p.named_tensors()


def test_conv_only_ignores_deform_flag():
    p = init_sdapc(8, 2, 4, Stream(0), deform=True, branch_mode="conv_only")
    assert p.sdmsa is None


def test_fused_width_doubles_only_for_dual_concat():
    assert init_sdapc(8, 2, 4, Stream(0)).fc_out.w.shape == (16, 8)
    assert init_sdapc(8, 2, 4, Stream(0), fusion="sum").fc_out.w.shape == (8, 8)
    assert init_sdapc(8, 2, 4, Stream(0),
                      branch_mode="sdmsa_only").fc_out.w.shape == (8, 8)
    assert init_sdapc(8, 2, 4, Stream(0),
                      branch_mode="conv_only").fc_out.w.shape == (8, 8)


def test_invalid_modes_rejected():
    with pytest.raises(ValueError):
        init_sdapc(8, 2, 4, Stream(0), branch_mode="both")
    with pytest.raises(ValueError):
        init_sdapc(8, 2, 4, Stream(0), fusion="mean")


@pytest.mark.parametrize("branch_mode", ["dual", "sdmsa_only", "conv_only"])
def test_zeroed_block_is_identity(branch_mode):
    """All-zero learnables make both divisions pass x through unchanged."""
    p = init_sdapc(8, 2, 4, Stream(1), branch_mode=branch_mode)
    _zero_block(p)
    x = _x(1, 8, 8, 8, seed=2)
    d1 = sdapc_division1(x, p)
    np.testing.assert_array_equal(d1.data, x.data)
    out, _ = sdapc_block(x, p, WindowLayout(8, 8, 4))
    np.testing.assert_array_equal(out.data, x.data)


def test_sum_fusion_equals_concat_with_stacked_fc():
    # sum fusion with fc W == concat fusion with [W; W] stacked
    ps = init_sdapc(4, 2, 2, Stream(3), fusion="sum")
    pc = init_sdapc(4, 2, 2, Stream(3), fusion="concat")
    for k, v in ps.named_tensors().items():
        if k not in ("fc_out.w", "fc_out.b"):
            pc.named_tensors()[k].data[...] = v.data
    pc.fc_out.w.data[...] = np.concatenate([ps.fc_out.w.data, ps.fc_out.w.data])
    pc.fc_out.b.data[...] = ps.fc_out.b.data
    x = _x(1, 4, 4, 4, seed=4)
    lay = WindowLayout(4, 4, 2)
    a, _ = sdapc_block(x, ps, lay)
    b, _ = sdapc_block(x, pc, lay)
    np.testing.assert_allclose(a.data, b.data, atol=1e-5)


def test_block_grad_check():
    p = init_sdapc(4, 2, 2, Stream(5), mlp_ratio=2)
    lay = WindowLayout(4, 4, 2, 1)
    named = p.named_tensors()
    keys = ["dw1.w", "fc1.w", "ln2.g", "sdmsa.wq", "sdmsa.off_pw_w", "fc_out.w"]

    def run(x, dw1_w, fc1_w, ln2_g, wq, off_pw_w, fc_out_w):
        pp = replace(p, dw1=replace(p.dw1, w=dw1_w), fc1=replace(p.fc1, w=fc1_w),
                     ln2=replace(p.ln2, g=ln2_g), fc_out=replace(p.fc_out, w=fc_out_w),
                     sdmsa=replace(p.sdmsa, wq=wq, off_pw_w=off_pw_w))
        out, _ = sdapc_block(x, pp, lay)
        return out

    x = Stream(6).normal((1, 4, 4, 4)) * 0.5
    grad_check(run, [x] + [named[k].data.copy() for k in keys], tol=1e-4)


def test_block_grad_flows_to_every_parameter():
    from sdah.tensor import tsum

    p = init_sdapc(8, 2, 4, Stream(7))
    out, _ = sdapc_block(_x(2, 8, 8, 8, seed=8), p, WindowLayout(8, 8, 4, 2))
    tsum(out * out).backward()
    for k, v in p.named_tensors().items():
        assert v.grad is not None, k
        assert np.isfinite(v.grad).all(), k


# -- stem / resampling ----------------------------------------------------------

def test_conv_embed_geometry():
    p = init_conv_embed(1, 8, Stream(9))
    out = conv_embed(_x(2, 1, 32, 32, seed=10), p)
    assert out.shape == (2, 8, 8, 8)
    out = conv_embed(_x(1, 1, 28, 44, seed=11), p)
    assert out.shape == (1, 8, 7, 11)


def test_conv_embed_channel_plan():
    p = init_conv_embed(3, 8, Stream(12))
    assert [c.w.shape[0] for c in p.conv] == [4, 4, 8, 8]
    assert p.conv[0].w.shape == (4, 3, 3, 3)
    assert len(p.named_tensors()) == 16


def test_conv_embed_rejects_bad_sizes():
    p = init_conv_embed(1, 8, Stream(13))
    with pytest.raises(ValueError):
        conv_embed(_x(1, 1, 30, 32), p)
    with pytest.raises(ValueError):
        init_conv_embed(1, 7, Stream(0))


def test_downsample_upsample_shapes():
    d = init_downsample(8, Stream(14))
    u = init_upsample(16, Stream(15))
    x = _x(1, 8, 8, 8, seed=16)
    y = downsample(x, d)
    assert y.shape == (1, 16, 4, 4)
    z = upsample(y, u)
    assert z.shape == (1, 8, 8, 8)


def test_skip_fuse_restores_width():
    f = init_skip_fuse(8, Stream(17))
    out = skip_fuse(_x(1, 8, 4, 4, seed=18), _x(1, 8, 4, 4, seed=19), f)
    assert out.shape == (1, 8, 4, 4)
    with pytest.raises(ValueError):
        skip_fuse(_x(1, 8, 4, 4), _x(1, 8, 8, 8), f)


def test_head_expands_four_times():
    h = init_head(8, 3, Stream(20))
    out = deconv_expand(_x(1, 8, 8, 8, seed=21), h)
    assert out.shape == (1, 3, 32, 32)


def test_stem_then_head_round_trip_resolution():
    stem = init_conv_embed(1, 8, Stream(22))
    head = init_head(8, 2, Stream(23))
    x = _x(1, 1, 32, 32, seed=24)
    logits = deconv_expand(conv_embed(x, stem), head)
    assert logits.shape == (1, 2, 32, 32)
