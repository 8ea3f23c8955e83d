from pathlib import Path

import numpy as np
import pytest

import sdah.attention
import sdah.convops
import sdah.tensor
from sdah.attention import SdmsaTrace, WindowLayout
from sdah.explain import (
    _cam_pass,
    attention_heatmap,
    deformation_field,
    export_bundle,
    points_csv_bytes,
    seg_grad_cam,
)
import sdah.explain
from sdah.network import BLOCK_IDS, build_model, forward, load_model, micro_config
from sdah.rng import Stream
from sdah.sampling import bilinear_resize
from sdah.tensor import NumericsError, Tensor, add

from oracles import bumped_logits, points_csv_per_point

def _micro_model(**over):
    return build_model(micro_config(**over))


def _image(seed=3):
    return Stream(seed).uniform((1, 1, 32, 32)).astype(np.float32)


def _toy_trace(shift=0, attention=None, deformed=None, offsets=None):
    """4x4 map, ws 2 -> 4 windows of 4 points, one head, offset bound 1."""
    layout = WindowLayout(4, 4, 2, shift)
    origins = np.array([(0, 0), (0, 2), (2, 0), (2, 2)], dtype=np.float64)
    local = np.array([(0, 0), (0, 1), (1, 0), (1, 1)], dtype=np.float64)
    refs = origins[:, None] + local[None]                   # (4, 4, 2)
    if deformed is None:
        deformed = refs[None, :, None]                      # zero offsets
        deformed = np.broadcast_to(deformed, (1, 4, 1, 4, 2)).copy()
    if offsets is None:
        offsets = deformed - refs[None, :, None]
    if attention is None:
        attention = np.full((1, 4, 1, 4, 4), 0.25)
    return SdmsaTrace(layout=layout, reference_points=refs, offsets=offsets,
                      deformed=deformed, attention=attention, max_offset=1.0)


# -- heatmaps -------------------------------------------------------------------

def test_heatmap_uniform_attention_is_flat():
    heat = attention_heatmap(_toy_trace())
    assert heat.shape == (4, 4)
    np.testing.assert_allclose(heat, 1.0)   # degenerate range: raw column sums


def test_heatmap_concentrates_on_attended_key():
    attn = np.zeros((1, 4, 1, 4, 4))
    attn[..., 0] = 1.0            # every query sends all mass to key 0
    heat = attention_heatmap(_toy_trace(attention=attn))
    origins = [(0, 0), (0, 2), (2, 0), (2, 2)]
    for oy, ox in origins:
        assert heat[oy, ox] == 1.0
    assert heat.sum() == 4.0


def test_heatmap_splats_fractional_coordinates():
    tr = _toy_trace()
    defp = tr.deformed.copy()
    defp[0, 0, 0, :, :] = (0.5, 0.5)   # window 0: all keys sampled mid-cell
    attn = np.zeros((1, 4, 1, 4, 4))
    attn[0, 0] = np.eye(4)
    attn[0, 1:] = 0.125   # every other key receives 0.5, the map's minimum
    heat = attention_heatmap(_toy_trace(attention=attn, deformed=defp))
    np.testing.assert_allclose(heat[:2, :2], 1.0)   # 4 keys x 1/4 per corner
    assert (heat[2:] == 0.0).all() and (heat[:, 2:] == 0.0).all()


def test_heatmap_rolls_shift_back():
    attn = np.zeros((1, 4, 1, 4, 4))
    attn[..., 0] = 1.0
    plain = attention_heatmap(_toy_trace(attention=attn))
    shifted = attention_heatmap(_toy_trace(shift=1, attention=attn))
    np.testing.assert_array_equal(shifted, np.roll(plain, (1, 1), axis=(0, 1)))


def test_heatmap_validation():
    with pytest.raises(ValueError):
        attention_heatmap(None)


def test_heatmap_from_real_forward():
    m = _micro_model()
    _, info = forward(m, _image())
    heat = attention_heatmap(info.traces["enc1"])
    assert heat.shape == (8, 8)
    assert heat.min() == 0.0 and heat.max() == 1.0


# -- deformation tables ------------------------------------------------------------

def _rows(trace, block, stride=1):
    """The points table's data rows, parsed back to (block, window, head,
    ref_y, ref_x, def_y, def_x) tuples."""
    lines = points_csv_bytes(trace, block, stride).decode().splitlines()[1:]
    return [(f[0], int(f[1]), int(f[2]), *map(float, f[3:]))
            for f in (line.split(",") for line in lines)]


def test_rows_list_every_point_in_order():
    tr = _toy_trace()
    rows = _rows(tr, "enc1")
    assert len(rows) == 4 * 1 * 4
    assert rows[0] == ("enc1", 0, 0, 0.0, 0.0, 0.0, 0.0)
    block, wi, hi, ry, rx, dy, dx = rows[6]
    np.testing.assert_array_equal((ry, rx), tr.reference_points[1, 2])
    np.testing.assert_array_equal((dy, dx), tr.deformed[0, 1, 0, 2])


def test_rows_stride_subsamples_per_window():
    rows = _rows(_toy_trace(), "b", stride=2)
    assert len(rows) == 4 * 2
    assert all(r[1] in range(4) for r in rows)


@pytest.mark.parametrize("stride", [0, -1])
def test_points_csv_rejects_a_stride_below_one(stride):
    with pytest.raises(ValueError, match="stride"):
        points_csv_bytes(_toy_trace(), "b", stride)


@pytest.mark.parametrize("stride", [1, 3])
def test_points_csv_matches_the_per_point_loop(stride):
    _, info = forward(_micro_model(), _image())
    for bid in ["enc1", "enc2", "bottleneck", "dec2", "dec1"]:
        tr = info.traces[bid]
        assert points_csv_bytes(tr, bid, stride) == points_csv_per_point(tr, bid, stride), bid


def test_points_csv_is_byte_stable_and_replayable():
    m = _micro_model()
    _, info = forward(m, _image())
    tr = info.traces["enc2"]
    a = points_csv_bytes(tr, "enc2")
    b = points_csv_bytes(tr, "enc2")
    assert a == b
    _, info2 = forward(m, _image())
    assert points_csv_bytes(info2.traces["enc2"], "enc2") == a


def test_points_csv_values_parse_back_exactly():
    m = _micro_model()
    _, info = forward(m, _image())
    tr = info.traces["enc1"]
    lines = points_csv_bytes(tr, "enc1").decode().splitlines()
    assert lines[0] == "block,window,head,ref_y,ref_x,def_y,def_x"
    defp = np.asarray(tr.deformed)[0]
    nw, nh, p = defp.shape[:3]
    assert len(lines) == 1 + nw * nh * p
    # repr() floats reparse to the identical double
    for i, line in enumerate(lines[1:9]):
        f = line.split(",")
        wi, hi, pi = i // (nh * p), (i // p) % nh, i % p
        assert (int(f[1]), int(f[2])) == (wi, hi)
        assert float(f[5]) == float(defp[wi, hi, pi, 0])
        assert float(f[6]) == float(defp[wi, hi, pi, 1])


# -- deformation fields -------------------------------------------------------------

def test_field_zero_offsets_are_neutral_gray():
    img = deformation_field(_toy_trace())
    assert img.shape == (4, 4, 3) and img.dtype == np.uint8
    np.testing.assert_array_equal(img[..., 0], 128)
    np.testing.assert_array_equal(img[..., 1], 128)
    np.testing.assert_array_equal(img[..., 2], 0)


def test_field_encodes_offset_direction_and_magnitude():
    tr = _toy_trace()
    off = tr.offsets.copy()
    off[0, 0, 0, 0] = (1.0, -1.0)   # full scale is the bound, 1
    img = deformation_field(_toy_trace(offsets=off))
    assert tuple(img[0, 0]) == (255, 1, 255)
    assert tuple(img[1, 1]) == (128, 128, 0)


def test_field_averages_heads_and_rolls_back():
    layout_shift = 1
    tr0 = _toy_trace(shift=layout_shift)
    off = tr0.offsets.copy()
    off[0, 0, 0, 0] = (1.0, 1.0)
    img = deformation_field(_toy_trace(shift=layout_shift, offsets=off))
    # ref (0,0) in the shifted frame lands at (1,1) after roll-back
    assert img[1, 1, 0] == 255 and img[0, 0, 0] == 128


@pytest.mark.parametrize("gamma_off", [0.5, 1.0, 2.0])
def test_field_full_scale_is_the_layers_offset_bound(gamma_off):
    """enc1 (ws 4) bounds its offsets by gamma_off * 2: offsets pinned at
    the bound read full scale, and at half the bound mid-scale."""
    model = _micro_model(gamma_off=gamma_off)
    w = model.named_parameters()["enc1.sdmsa.off_pw_w"]
    b = model.named_parameters()["enc1.sdmsa.off_pw_b"]
    b.data[...] = 50.0                       # tanh saturates: every offset at +bound
    trace = forward(model, _image())[1].traces["enc1"]
    assert trace.max_offset == gamma_off * 2.0
    np.testing.assert_allclose(trace.offsets, gamma_off * 2.0)
    img = deformation_field(trace)
    assert (img == 255).all()

    w.data[...] = 0.0
    b.data[...] = np.arctanh(0.5)            # every offset at half the bound
    trace = forward(model, _image())[1].traces["enc1"]
    np.testing.assert_allclose(trace.offsets, gamma_off, rtol=1e-6)
    img = deformation_field(trace).astype(int)
    assert (np.abs(img[..., :2] - 191.5) <= 1).all()   # 128 + 127 / 2
    assert (np.abs(img[..., 2] - 180) <= 1).all()      # |(s/2, s/2)| / s = 0.707


# -- grad-cam -------------------------------------------------------------------

def test_gradcam_shape_and_normalization():
    m = _micro_model()
    roi = np.zeros((32, 32), dtype=bool)
    roi[4:20, 4:20] = True
    cam = seg_grad_cam(m, _image(), 1, "dec1", roi)
    assert cam.shape == (32, 32)
    assert cam.min() >= 0.0
    assert cam.max() == pytest.approx(1.0)


def test_gradcam_validation():
    m = _micro_model()
    roi = np.ones((32, 32), dtype=bool)
    with pytest.raises(ValueError):
        seg_grad_cam(m, _image(), 1, "dec1", np.zeros((32, 32), dtype=bool))
    with pytest.raises(ValueError):
        seg_grad_cam(m, _image(), 9, "dec1", roi)
    with pytest.raises(ValueError):
        seg_grad_cam(m, _image(), 1, "stem", roi)
    with pytest.raises(ValueError):
        seg_grad_cam(m, _image(), 1, "dec1", roi[:16])


@pytest.mark.parametrize("shape,fill,message", [
    ((32, 32), False, "empty roi"),
    ((16, 32), True, "roi shape does not match the image"),
    ((16, 32), False, "roi shape does not match the image"),  # shape is checked first
])
def test_gradcam_roi_errors_name_the_fault(shape, fill, message):
    roi = np.full(shape, fill, dtype=bool)
    with pytest.raises(ValueError, match=message):
        seg_grad_cam(_micro_model(), _image(), 1, "dec1", roi)


def _poison_after_the_forward(monkeypatch, w):
    """NaN in `w` only while the backward runs: each forward sees the clean
    value again, and undoing the patch puts back the unpoisoned array."""
    clean = w.data.flat[0]
    monkeypatch.setattr(w, "data", w.data.copy())

    def forward_then_poison(model, image):
        w.data.flat[0] = clean
        out = forward(model, image)
        w.data.flat[0] = np.nan
        return out

    monkeypatch.setattr(sdah.explain, "forward", forward_then_poison)


def _raise_in_the_first_vjp(monkeypatch):
    def boom(self, g):
        raise RuntimeError("boom")

    monkeypatch.setattr(sdah.tensor._VJPs, "__call__", boom)


@pytest.mark.parametrize("preset", [False, True])
def test_gradcam_leaves_weight_grads_as_it_found_them(preset, tmp_path, monkeypatch):
    """However a seg_grad_cam or export_bundle call ends, each weight's .grad
    is as found (None stays None, a preset one keeps its values) and it
    requires a gradient again: after a success, an empty ROI, a bad class,
    a NumericsError from the checked replay and an error inside backward."""
    m = _micro_model()
    params = m.named_parameters()
    for i, t in enumerate(params.values()):
        t.grad = np.full(t.shape, float(i), t.data.dtype) if preset else None
    before = {name: None if t.grad is None else t.grad.copy() for name, t in params.items()}
    roi = np.ones((32, 32), dtype=bool)
    endings = [
        (None, lambda mp: seg_grad_cam(m, _image(), 1, "dec1", roi)),
        (None, lambda mp: export_bundle(m, _image(), "enc1", 1, tmp_path, roi_mask=roi)),
        (None, lambda mp: seg_grad_cam(m, _image(), 1, "dec1", roi)),  # a second call
        (ValueError, lambda mp: seg_grad_cam(m, _image(), 1, "dec1", ~roi)),
        (ValueError, lambda mp: export_bundle(m, _image(), "enc1", 9, tmp_path)),
        (NumericsError, lambda mp: (_poison_after_the_forward(mp, params["dec1.dw1.w"]),
                                    seg_grad_cam(m, _image(), 1, "dec2", roi))),
        (RuntimeError, lambda mp: (_raise_in_the_first_vjp(mp),
                                   export_bundle(m, _image(), "dec2", 1, tmp_path))),
    ]
    for error, call in endings:
        with monkeypatch.context() as mp:
            if error is None:
                call(mp)
            else:
                with pytest.raises(error):
                    call(mp)
        for name, t in params.items():
            assert t.requires_grad, name
            if before[name] is None:
                assert t.grad is None, name
            else:
                np.testing.assert_array_equal(t.grad, before[name], err_msg=name)


@pytest.mark.parametrize("block", BLOCK_IDS)
def test_a_gradcam_pass_runs_no_weight_vjp(block, monkeypatch):
    """The weights are frozen for the backward, so no conv weight gradient
    is computed, where a training backward computes one per conv."""
    calls = []
    for module in (sdah.convops, sdah.attention):
        weight_vjp = module._conv_backward_w
        monkeypatch.setattr(module, "_conv_backward_w",
                            lambda *a, _f=weight_vjp: calls.append(1) or _f(*a))
    m = _micro_model()
    seg_grad_cam(m, _image(), 1, block, np.ones((32, 32), dtype=bool))
    assert calls == []
    logits = forward(m, _image())[0]
    logits.backward(np.ones(logits.shape, logits.dtype))
    assert calls


def test_a_gradcam_backward_stops_at_the_block():
    """Cut at dec1, the last block, the backward reaches no other block's
    output, where a full backward reaches all of them."""
    info = _cam_pass(_micro_model(), _image(), 1, "dec1", np.ones((32, 32), dtype=bool))[0]
    assert [b for b in BLOCK_IDS if info.outputs[b].grad is not None] == ["dec1"]


# VJPs one Grad-CAM pass ran on the desk checkpoint at 128x128 while the
# backward was cut at the requested block alone
_VJPS_CUT_AT_THE_BLOCK_ALONE = {"enc1": 187, "enc2": 196, "enc3": 197, "bottleneck": 196,
                                "dec3": 135, "dec2": 72, "dec1": 1}


def test_a_gradcam_backward_walks_into_no_earlier_block(monkeypatch):
    """The blocks before the requested one are cut too, so the backward
    does not reach them through the decoder's skip inputs: fewer VJPs for
    every block with an earlier one on a skip, the same for enc1 (no block
    before it) and dec1 (only the head after it)."""
    vjps, call = [0], sdah.tensor._VJPs.__call__

    def counting(self, g):
        grads = call(self, g)
        vjps[0] += sum(x is not None for x in grads)
        return grads

    monkeypatch.setattr(sdah.tensor._VJPs, "__call__", counting)
    model, _ = load_model(Path(__file__).resolve().parents[1] / "perfbench" / "micro_desk.sdck")
    image = Stream(3).uniform((1, 1, 128, 128)).astype(np.float32)
    ran = {}
    for block in BLOCK_IDS:
        vjps[0] = 0
        seg_grad_cam(model, image, 1, block, None)
        ran[block] = vjps[0]
    before = _VJPS_CUT_AT_THE_BLOCK_ALONE
    assert {b: ran[b] for b in ("enc1", "dec1")} == {b: before[b] for b in ("enc1", "dec1")}
    assert all(ran[b] < before[b] for b in ("enc2", "enc3", "bottleneck", "dec3", "dec2")), ran


def _check_finite_calls(monkeypatch, fn) -> int:
    """How many finite checks `fn()` makes, the ones kept on included."""
    calls, check = [], sdah.tensor._check_finite

    def counting(*args):
        calls.append(args[1])
        check(*args)

    with monkeypatch.context() as mp:
        for module in (sdah.tensor, sdah.attention):
            mp.setattr(module, "_check_finite", counting)
        fn()
    return len(calls)


def test_a_healthy_gradcam_pass_checks_no_more_than_a_forward(monkeypatch):
    """The backward is checked once, like the forward, not per op; the map's
    resize is a primitive of its own."""
    m, roi = _micro_model(), np.ones((32, 32), dtype=bool)
    cam = _check_finite_calls(monkeypatch, lambda: seg_grad_cam(m, _image(), 1, "dec1", roi))
    alone = (_check_finite_calls(monkeypatch, lambda: forward(m, _image()))
             + _check_finite_calls(monkeypatch,
                                   lambda: bilinear_resize(np.ones((1, 8, 8)), 32, 32)))
    assert cam <= alone


@pytest.mark.parametrize("block,lid", [("enc1", "dec2"), ("dec2", "dec1")],
                         ids=["enc1", "dec2"])
def test_gradcam_names_a_weight_poisoned_after_the_forward(block, lid, monkeypatch):
    """NaN only while the backward runs, in a weight on the path from the
    logits to the block: the one check of the block's gradient fails, and
    the checked pass names the op; the .grad stay as found."""
    m = _micro_model()
    params = m.named_parameters()
    for i, t in enumerate(params.values()):
        t.grad = np.full(t.shape, float(i), t.data.dtype)
    before = {name: t.grad.copy() for name, t in params.items()}
    _poison_after_the_forward(monkeypatch, params[f"{lid}.dw1.w"])
    with pytest.raises(NumericsError,
                       match=f"^{lid}: conv2d backward produced non-finite values$"):
        seg_grad_cam(m, _image(), 1, block, np.ones((32, 32), dtype=bool))
    for name, t in params.items():
        np.testing.assert_array_equal(t.grad, before[name], err_msg=name)


@pytest.mark.parametrize("lid", ["enc1", "dec2"])
def test_gradcam_reads_no_gradient_upstream_of_the_block(lid, monkeypatch):
    """A weight poisoned after the forward, upstream of the block, feeds no
    gradient the map reads: the pass neither fails nor moves the map."""
    m, roi = _micro_model(), np.ones((32, 32), dtype=bool)
    want = seg_grad_cam(m, _image(), 1, "dec1", roi)
    _poison_after_the_forward(monkeypatch, m.named_parameters()[f"{lid}.dw1.w"])
    np.testing.assert_array_equal(seg_grad_cam(m, _image(), 1, "dec1", roi), want)


def test_gradcam_names_a_nan_head_bias_before_reading_the_roi():
    """A NaN head bias makes every class-0 logit NaN, and NaN argmaxes to
    class 0; no kept check follows the head.  The forward's op is named,
    not an empty ROI for class 1."""
    m = _micro_model()
    m.named_parameters()["head.b"].data[0] = np.nan
    with pytest.raises(NumericsError, match="^head: deconv2d produced non-finite values$"):
        _cam_pass(m, _image(), 1, "dec1", None)


def test_gradcam_starts_from_no_grad_and_runs_once(monkeypatch):
    """The caller's NaN .grad neither fail the pass's check (no second
    forward) nor change the map, and they are back in place after it."""
    m, roi = _micro_model(), np.ones((32, 32), dtype=bool)
    want = seg_grad_cam(m, _image(), 1, "dec1", roi)
    params = m.named_parameters()
    for t in params.values():
        t.grad = np.full(t.shape, np.nan, t.data.dtype)
    calls = []
    monkeypatch.setattr(sdah.explain, "forward", lambda *a: calls.append(1) or forward(*a))
    np.testing.assert_array_equal(seg_grad_cam(m, _image(), 1, "dec1", roi), want)
    assert calls == [1] and all(np.isnan(t.grad).all() for t in params.values())


def test_an_empty_roi_leaves_the_checks_on_and_no_layer_named():
    with pytest.raises(ValueError, match="empty roi"):
        seg_grad_cam(_micro_model(), _image(), 1, "dec1", np.zeros((32, 32), dtype=bool))
    with pytest.raises(NumericsError, match="^add produced non-finite values$"):
        add(Tensor(np.array([np.inf], np.float32)), 1.0)


@pytest.mark.parametrize("block,ch,hw", [("dec1", 8, 8), ("dec2", 16, 4)])
def test_cam_weights_match_finite_differences(block, ch, hw):
    """Channel weights times the spatial count equal the FD derivative of
    the ROI score under a constant per-channel bump at the block output."""
    m = _micro_model()
    for t in m.named_parameters().values():
        t.data = t.data.astype(np.float64)   # keep FD noise below tolerance
    img = _image()
    roi = np.zeros((32, 32), dtype=bool)
    roi[8:24, 8:24] = True
    weights = _cam_pass(m, img, 1, block, roi)[1][0, :, 0, 0]

    def score(bump):
        return float(bumped_logits(m, img, block, bump).data[0, 1][roi].sum())

    delta = 1e-3
    for c in range(ch):
        e = np.zeros((1, ch, hw, hw), dtype=np.float64)
        e[0, c] = delta
        fd = (score(e) - score(-e)) / (2 * delta)
        assert fd == pytest.approx(weights[c] * hw * hw, rel=1e-3, abs=1e-6)


# -- bundles --------------------------------------------------------------------

def test_export_bundle_writes_all_artifacts(tmp_path):
    m = _micro_model()
    paths = export_bundle(m, _image(), "enc1", 1, tmp_path)
    assert set(paths) == {"attn_sdt", "attn_pgm", "points", "field", "gradcam"}
    for p in paths.values():
        assert p.exists() and p.stat().st_size > 0
        assert p.parent.name == "enc1"


def test_export_bundle_is_byte_stable(tmp_path):
    m = _micro_model()
    a = export_bundle(m, _image(), "dec2", 1, tmp_path / "a", stride=2)
    b = export_bundle(m, _image(), "dec2", 1, tmp_path / "b", stride=2)
    for key in a:
        assert a[key].read_bytes() == b[key].read_bytes(), key


def test_export_bundle_runs_one_forward_and_one_backward(tmp_path, monkeypatch):
    calls = {"forward": 0, "backward": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sdah.explain, "forward", counted("forward", forward))
    monkeypatch.setattr(Tensor, "backward", counted("backward", Tensor.backward))
    paths = export_bundle(_micro_model(), _image(), "enc1", 1, tmp_path)
    assert len(paths) == 5
    assert calls == {"forward": 1, "backward": 1}


def test_export_bundle_default_roi_is_the_class_argmax(tmp_path):
    """Every class, not only the last of two, gets its own argmax pixels."""
    m = _micro_model(num_classes=3)
    pred = np.argmax(forward(m, _image())[0].data, axis=1)[0]
    for cls in range(3):
        assert (pred == cls).any()
        a = export_bundle(m, _image(), "dec1", cls, tmp_path / f"a{cls}")
        b = export_bundle(m, _image(), "dec1", cls, tmp_path / f"b{cls}",
                          roi_mask=pred == cls)
        assert a["gradcam"].read_bytes() == b["gradcam"].read_bytes()


def test_export_bundle_conv_only_has_gradcam_only(tmp_path):
    m = _micro_model(branch_mode="conv_only")
    paths = export_bundle(m, _image(), "enc2", 1, tmp_path)
    assert set(paths) == {"gradcam"}


def test_export_bundle_rejects_unknown_block(tmp_path):
    with pytest.raises(ValueError):
        export_bundle(_micro_model(), _image(), "stem", 1, tmp_path)
