"""Acceptance checklist: one test per shipped guarantee.

Each test prints a single `criterion NN <name>: PASS/FAIL` line through the
capture so the module doubles as a release checklist.  Tolerances here are
the contract; loosening them is an API change, not a test fix.
"""

import csv
import importlib.util
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from sdah.attention import (
    SdmsaParams,
    WindowLayout,
    window_merge,
    window_partition,
)
from sdah.blocks import init_sdapc, sdapc_block
from sdah.convops import conv2d, deconv2d
from sdah.explain import _cam_pass, export_bundle, points_csv_bytes
from sdah.gradcheck import grad_check
from sdah.inference import SlidingConfig, gaussian_map, sliding_predict, tile_positions
from sdah.metrics import dsc, hd95
from sdah.network import (
    ModelConfig,
    build_model,
    count_flops,
    count_params,
    forward,
    micro_config,
)
from sdah.rng import Stream, derive_seed
from sdah.sampling import bilinear_sample_batch
from sdah.tensor import (
    Tensor,
    add,
    broadcast_to,
    clip,
    concat,
    div,
    gelu,
    layer_norm,
    linear,
    matmul,
    mul,
    narrow,
    neg,
    reshape,
    roll,
    softmax,
    sub,
    swap_last,
    tanh,
    tmean,
    transpose,
    tsum,
)
from sdah.training import TrainConfig

from oracles import bumped_logits, plain_twin

ROOT = Path(__file__).resolve().parents[1]


@contextmanager
def criterion(capsys, num, label):
    detail = {}
    try:
        yield detail
    except BaseException:
        with capsys.disabled():
            print(f"\ncriterion {num:02d} {label}: FAIL")
        raise
    extra = f" ({detail['note']})" if "note" in detail else ""
    with capsys.disabled():
        print(f"\ncriterion {num:02d} {label}: PASS{extra}")


# -- 01 -----------------------------------------------------------------------

def test_c01_gradient_suite(capsys):
    """Every differentiable op and the whole block survive f64 central
    differences: ops < 1e-5, block < 1e-4 max relative error, 10 seeds,
    under two minutes."""
    t0 = time.monotonic()
    with criterion(capsys, 1, "gradient suite") as detail:
        for seed in range(10):
            s = Stream(derive_seed(100, seed))
            a = s.uniform((3, 4), -1, 1)
            b = s.uniform((3, 4), -1, 1)
            m2 = s.uniform((4, 2), -1, 1)
            g = s.uniform((4,), 0.5, 1.5)
            be = s.uniform((4,), -0.5, 0.5)
            x4 = s.uniform((1, 2, 5, 5), -1, 1)
            wc = s.uniform((3, 2, 3, 3), -1, 1)
            bc = s.uniform((3,), -1, 1)
            wd = s.uniform((2, 3, 2, 2), -1, 1)
            wl = s.uniform((2, 3), -1, 1)
            bl = s.uniform((3,), -1, 1)
            sg = Stream(derive_seed(150, seed))  # grouped read: 2 groups of 2 channels
            fg, pg = sg.uniform((2, 4, 5, 5), -1, 1), sg.uniform((2, 3, 2, 4, 2), 0.2, 3.8)
            sw, lw = Stream(derive_seed(170, seed)), WindowLayout(4, 6, 2, 1)  # shifted
            xw, ww = sw.uniform((1, 4, 4, 6), -1, 1), sw.uniform((1, 6, 2, 4, 2), -1, 1)
            ops = [
                ("add", add, [a, b]),
                ("sub", sub, [a, b]),
                ("mul", mul, [a, b]),
                ("div", div, [s.uniform((3, 4), -1, 1), s.uniform((3, 4), 0.5, 2.0)]),
                ("neg", neg, [a]),
                ("matmul", matmul, [a, m2]),
                ("linear", linear, [x4, wl]),
                ("linear_bias", linear, [x4, wl, bl]),
                ("gelu", gelu, [a]),
                ("tanh", tanh, [a]),
                ("softmax", lambda t: softmax(t, axis=-1), [a]),
                ("layer_norm", lambda t, gg, bb: layer_norm(t, gg, bb), [a, g, be]),
                ("tsum", lambda t: tsum(t, axis=1), [a]),
                ("tmean", lambda t: tmean(t, axis=0, keepdims=True), [a]),
                ("reshape", lambda t: reshape(t, (4, 3)), [a]),
                ("transpose", lambda t: transpose(t, (1, 0)), [a]),
                ("swap_last", swap_last, [a]),
                ("roll", lambda t: roll(t, (1, -2), (0, 1)), [a]),
                ("concat", lambda t, u: concat([t, u], axis=1), [a, b]),
                ("narrow", lambda t: narrow(t, 1, 1, 2), [a]),
                ("broadcast", lambda t: broadcast_to(t, (5, 3, 4)), [a]),
                ("clip", lambda t: clip(t, -0.5, 0.5), [a]),
                ("conv2d", lambda x, w, c: conv2d(x, w, c, stride=2, padding=1),
                 [x4, wc, bc]),
                ("deconv2d", lambda x, w: deconv2d(x, w, stride=2), [x4, wd]),
                ("bilinear_batch", bilinear_sample_batch,
                 [s.uniform((2, 2, 5, 5), -1, 1),
                  np.stack([s.uniform((2, 6), 0.2, 3.8), s.uniform((2, 6), 0.2, 3.8)], -1)]),
                ("bilinear_grouped", bilinear_sample_batch, [fg, pg]),
                ("window_partition", lambda t: window_partition(t, lw, 2), [xw]),
                ("window_merge", lambda t: window_merge(t, lw), [ww]),
            ]
            for name, fn, inputs in ops:
                r = grad_check(fn, inputs, seed=seed, name=name)
                assert r.max_rel_err < 1e-5, f"{name} seed {seed}: {r}"

            # whole block, including the offset net, at < 1e-4
            p = init_sdapc(8, 2, 2, Stream(derive_seed(200, seed)))
            lay = WindowLayout(4, 4, 2, 1)
            xs = s.uniform((1, 8, 4, 4), -0.5, 0.5)

            def block_fn(x, wq, opw, fw):
                swapped = replace(p, sdmsa=replace(p.sdmsa, wq=wq, off_pw_w=opw),
                                  fc_out=replace(p.fc_out, w=fw))
                return sdapc_block(x, swapped, lay)[0]

            r = grad_check(
                block_fn,
                [xs, p.sdmsa.wq.data.copy(), p.sdmsa.off_pw_w.data.copy(),
                 p.fc_out.w.data.copy()],
                seed=seed, name="sdapc_block")
            assert r.max_rel_err < 1e-4, f"block seed {seed}: {r}"
        elapsed = time.monotonic() - t0
        assert elapsed < 120.0, f"gradient suite took {elapsed:.0f}s"
        detail["note"] = f"10 seeds in {elapsed:.1f}s"


# -- 02 -----------------------------------------------------------------------

def test_c02_zero_offset_equivalence(capsys):
    """With the offset net zeroed, the deformable path must reproduce the
    plain windowed path within 1e-6 across 20 random configurations."""
    from sdah.attention import sdmsa

    with criterion(capsys, 2, "zero-offset equivalence") as detail:
        rng = np.random.default_rng(0)
        worst = 0.0
        for i in range(20):
            c = int(rng.choice([4, 8, 12, 16]))
            nh = int(rng.choice([h for h in (1, 2, 4) if c % h == 0]))
            ws = int(rng.choice([2, 3, 4]))
            ny, nx = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            shift = int(rng.choice([0, ws // 2]))
            lay = WindowLayout(ny * ws, nx * ws, ws, shift)
            s = Stream(derive_seed(300, i))
            params = SdmsaParams.init(c, nh, ws, s, deform=True)
            for t in (params.off_dw_w, params.off_dw_b,
                      params.off_pw_w, params.off_pw_b):
                t.data[...] = 0.0
            x = Tensor(s.uniform((2, c, lay.h, lay.w), -1, 1))
            a, _ = sdmsa(x, params, lay)
            b, _ = sdmsa(x, plain_twin(params), lay)
            worst = max(worst, float(np.abs(a.data - b.data).max()))
        assert worst <= 1e-6, f"max abs gap {worst:.2e}"
        detail["note"] = f"20 configs, max gap {worst:.1e}"


# -- 03 -----------------------------------------------------------------------

def test_c03_window_math(capsys):
    """Partition/merge round trips are exact for shift 0 and ws/2, and the
    window count equals H*W/ws^2 (1024 at 224/7) on random geometries."""
    with criterion(capsys, 3, "window math") as detail:
        lay = WindowLayout(224, 224, 7)
        x = Tensor(Stream(1).uniform((1, 3, 224, 224), -1, 1))
        wins = window_partition(x, lay)
        assert wins.shape[1] == 1024
        assert lay.n_windows == 224 * 224 // (7 * 7) == 1024
        np.testing.assert_array_equal(window_merge(wins, lay).data, x.data)

        rng = np.random.default_rng(7)
        for _ in range(10):
            ws = int(rng.integers(2, 8))
            ny, nx = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            for shift in (0, ws // 2):
                lay = WindowLayout(ny * ws, nx * ws, ws, shift)
                x = Tensor(Stream(int(rng.integers(1 << 30))).uniform(
                    (2, 3, lay.h, lay.w), -1, 1))
                wins = window_partition(x, lay)
                assert wins.shape[1] == ny * nx == lay.n_windows
                assert wins.shape[3] == ws * ws
                np.testing.assert_array_equal(
                    window_merge(wins, lay).data, x.data)
        detail["note"] = "224/7 -> 1024 windows; 10 random geometries exact"


# -- 04 -----------------------------------------------------------------------

def test_c04_attention_rows_and_sampling(capsys):
    """Attention rows are a simplex (sum 1 +- 1e-6), bilinear sampling is
    exact at integer points, and every sampled coordinate stays in bounds."""
    from sdah.attention import sdmsa

    with criterion(capsys, 4, "attention rows and sampling") as detail:
        for i, deform in enumerate((True, True, False)):
            s = Stream(derive_seed(400, i))
            c, nh, ws = 8, 2, 4
            lay = WindowLayout(8, 12, ws, shift=2 if i else 0)
            params = SdmsaParams.init(c, nh, ws, s, deform=True)
            x = Tensor(s.uniform((2, c, lay.h, lay.w), -1, 1))
            _, trace = sdmsa(x, params if deform else plain_twin(params), lay)
            sums = np.asarray(trace.attention).sum(axis=-1)
            assert np.abs(sums - 1.0).max() <= 1e-6
            pts = np.asarray(trace.deformed)
            assert pts[..., 0].min() >= 0.0 and pts[..., 0].max() <= lay.h - 1
            assert pts[..., 1].min() >= 0.0 and pts[..., 1].max() <= lay.w - 1

        feat = Stream(5).uniform((3, 6, 7), -1, 1).astype(np.float32)
        iy = np.repeat(np.arange(6), 7).astype(np.float64)
        ix = np.tile(np.arange(7), 6).astype(np.float64)
        sampled = bilinear_sample_batch(feat[None], np.stack([iy, ix], -1)[None]).data[0]
        np.testing.assert_array_equal(
            sampled, feat[:, iy.astype(int), ix.astype(int)].T)
        detail["note"] = "simplex rows, exact integer sampling, bounded points"


# -- 05 -----------------------------------------------------------------------

def _oracle_boundary(mask):
    m = mask.astype(bool)
    h, w = m.shape
    pts = []
    for y in range(h):
        for x in range(w):
            if not m[y, x]:
                continue
            if (y in (0, h - 1) or x in (0, w - 1)
                    or not (m[y - 1, x] and m[y + 1, x]
                            and m[y, x - 1] and m[y, x + 1])):
                pts.append((y, x))
    return np.array(pts, dtype=np.float64)


def _oracle_hd95(a, b):
    if not a.any() or not b.any():
        return None
    pa, pb = _oracle_boundary(a), _oracle_boundary(b)
    d = np.sqrt(((pa[:, None] - pb[None]) ** 2).sum(-1))
    return float(max(np.percentile(d.min(1), 95), np.percentile(d.min(0), 95)))


def test_c05_metric_oracles(capsys):
    """dsc agrees exactly and hd95 within 1e-9 with brute-force references
    on 100 random 16x16 mask pairs."""
    with criterion(capsys, 5, "metric oracles") as detail:
        rng = np.random.default_rng(55)
        defined = 0
        for _ in range(100):
            p = rng.uniform(0.05, 0.6)
            a = rng.uniform(size=(16, 16)) < p
            b = rng.uniform(size=(16, 16)) < p
            inter = int((a & b).sum())
            denom = int(a.sum()) + int(b.sum())
            want_dsc = 1.0 if denom == 0 else 2.0 * inter / denom
            assert dsc(a, b) == want_dsc
            want_hd = _oracle_hd95(a, b)
            got_hd = hd95(a, b)
            if want_hd is None:
                assert got_hd is None
            else:
                assert abs(got_hd - want_hd) <= 1e-9
                defined += 1
        detail["note"] = f"100 pairs, {defined} with defined hd95"


# -- 06 -----------------------------------------------------------------------

def test_c06_sliding_window(capsys):
    """Constant logits blend to a constant within 1e-6, a 64x64 image at
    crop 32 / step 16 runs exactly 9 tiles in one forward, and sigma is
    crop/8."""
    with criterion(capsys, 6, "sliding-window blending") as detail:
        logits = np.array([0.2, -0.7], dtype=np.float64)
        calls = []

        def model(tiles):
            calls.append(tiles.shape[0])
            out = np.broadcast_to(logits[:, None, None], (tiles.shape[0], 2, 32, 32))
            return Tensor(out.astype(np.float32).copy())

        cfg = SlidingConfig(crop=32, step=16, sigma_ratio=1 / 8)
        img = Stream(6).uniform((1, 64, 64)).astype(np.float32)
        probs = sliding_predict(model, img, cfg)
        assert sum(calls) == 9
        assert len(calls) == 1
        assert tile_positions(64, 32, 16) == [0, 16, 32]
        e = np.exp(logits - logits.max())
        want = (e / e.sum())[:, None, None]
        assert np.abs(probs - want).max() <= 1e-6

        sigma = 32 * (1 / 8)
        coords = np.arange(32, dtype=np.float64) - 15.5
        g1 = np.exp(-0.5 * (coords / sigma) ** 2)
        want_map = np.outer(g1, g1)
        np.testing.assert_allclose(gaussian_map(32, cfg.sigma_ratio),
                                   want_map / want_map.max(), rtol=0, atol=0)
        assert SlidingConfig().sigma_ratio == 1 / 8
        detail["note"] = "9 tiles in 1 forward, constant within 1e-6, sigma=crop/8"


# -- 07 -----------------------------------------------------------------------

def test_c07_lr_schedule(capsys):
    """Base 2e-4 holds to the decay start, then halves there and every
    10k steps after: 1e-4 at 50_000, 5e-5 through 69_999."""
    from sdah.training import lr_at

    with criterion(capsys, 7, "lr schedule") as detail:
        cfg = TrainConfig()
        assert lr_at(0, cfg) == 2e-4
        assert lr_at(49_999, cfg) == 2e-4
        assert lr_at(50_000, cfg) == 1e-4
        assert lr_at(69_999, cfg) == 5e-5
        detail["note"] = "2e-4 / 1e-4@50k / 5e-5@69999"


# -- 08 -----------------------------------------------------------------------

def _load_script(name, monkeypatch, *argv):
    """scripts/<name>.py as a module, its `main()` to run in this process
    with `argv`, so the suite's warning filters hold for it."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))   # the script prepends src/
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    return module


def test_c08_desk_benchmark(capsys, tmp_path, monkeypatch):
    """`scripts/run_desk_benchmark.py` with its defaults -- the micro model
    (all-deformable, dual branch) on 200 synthetic 32x32 samples, 2000
    steps, batch 8 -- passes: held-out foreground DSC >= 0.90, final loss
    under 25% of the initial loss, well inside 30 minutes."""
    with criterion(capsys, 8, "desk training benchmark") as detail:
        desk = _load_script("run_desk_benchmark", monkeypatch, "--out", str(tmp_path))
        t0 = time.monotonic()
        code = desk.main()
        elapsed = time.monotonic() - t0
        report = json.loads((tmp_path / "report.json").read_text())
        initial, final = report["initial_loss"], report["final_loss"]
        assert report["loss_ratio"] < 0.25, f"loss {initial:.3f} -> {final:.3f}"
        assert report["holdout_mean_dsc"] >= 0.90, f"held-out DSC {report['holdout_mean_dsc']:.4f}"
        assert code == 0
        assert elapsed < 1800.0, f"benchmark took {elapsed:.0f}s"
        detail["note"] = (f"DSC {report['holdout_mean_dsc']:.3f}, "
                          f"loss {initial:.2f}->{final:.3f}, {elapsed:.0f}s")


# -- 09 -----------------------------------------------------------------------

def _offset_keys(blocks):
    return {f"{bid}.sdmsa.{t}" for bid in blocks
            for t in ("off_dw_w", "off_dw_b", "off_pw_w", "off_pw_b")}


def test_c09_ablation_reachability(capsys, tmp_path, monkeypatch):
    """`scripts/ablation_sweep.py` on 32 samples: the deformation-flag and
    branch-mode ablations all build and train 200 steps cleanly, and their
    parameter sets differ exactly where the switches say they should."""
    with criterion(capsys, 9, "ablation reachability") as detail:
        sweep = _load_script("ablation_sweep", monkeypatch, "--out", str(tmp_path),
                             "--samples", "32", "--holdout", "2")
        assert sweep.main() == 0
        with open(tmp_path / "sweep.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        grid = [("NNNN", "dual"), ("DNNN", "dual"), ("DDDD", "dual"),
                ("DDDD", "sdmsa_only"), ("DDDD", "conv_only")]
        assert [(r["flags"], r["branch"]) for r in rows] == grid
        for r in rows:
            assert np.isfinite([float(r["initial_loss"]), float(r["final_loss"])]).all(), r
        keysets = {}
        for flags, mode in grid:
            model = build_model(micro_config(deform_flags=flags, branch_mode=mode))
            keysets[(flags, mode)] = set(model.named_parameters())

        nnnn, dnnn, dddd = (keysets[(f, "dual")] for f in ("NNNN", "DNNN", "DDDD"))
        assert dnnn - nnnn == _offset_keys({"enc1", "dec1"})
        assert dddd - dnnn == _offset_keys(
            {"enc2", "enc3", "bottleneck", "dec3", "dec2"})
        assert nnnn - dddd == set()

        attn_only = keysets[("DDDD", "sdmsa_only")]
        conv_only = keysets[("DDDD", "conv_only")]
        assert dddd - attn_only == {f"{b}.dw2.{t}" for b in
                                    ("enc1", "enc2", "enc3", "bottleneck",
                                     "dec3", "dec2", "dec1") for t in "wb"}
        assert all(not k.count("sdmsa") for k in conv_only)
        assert {k for k in dddd - conv_only if "sdmsa" not in k} == set()
        detail["note"] = "5 configs x 200 steps, param sets as documented"


# -- 10 -----------------------------------------------------------------------

def test_c10_explain_integrity(capsys, tmp_path):
    """Deformation tables replay bit-exactly, exports are byte-stable, and
    the channel weights match finite differences within 1e-3."""
    with criterion(capsys, 10, "explain integrity") as detail:
        model = build_model(micro_config())
        image = Stream(10).uniform((1, 1, 32, 32)).astype(np.float32)

        _, info1 = forward(model, image)
        _, info2 = forward(model, image)
        for bid in ("enc1", "enc2", "bottleneck", "dec1"):
            a = points_csv_bytes(info1.traces[bid], bid)
            b = points_csv_bytes(info2.traces[bid], bid)
            assert a == b and len(a) > 0, bid

        pa = export_bundle(model, image, "dec2", 1, tmp_path / "a")
        pb = export_bundle(model, image, "dec2", 1, tmp_path / "b")
        for key in pa:
            assert pa[key].read_bytes() == pb[key].read_bytes(), key

        fd_model = build_model(micro_config())
        for t in fd_model.named_parameters().values():
            t.data = t.data.astype(np.float64)
        roi = np.zeros((32, 32), dtype=bool)
        roi[8:24, 8:24] = True
        worst = 0.0
        for block, ch, hw in (("dec1", 8, 8), ("dec2", 16, 4)):
            weights = _cam_pass(fd_model, image, 1, block, roi)[1][0, :, 0, 0]

            def score(bump):
                logits = bumped_logits(fd_model, image, block, bump)
                return float(logits.data[0, 1][roi].sum())

            delta = 1e-3
            for c in range(ch):
                e = np.zeros((1, ch, hw, hw), dtype=np.float64)
                e[0, c] = delta
                fd = (score(e) - score(-e)) / (2 * delta)
                want = weights[c] * hw * hw
                rel = abs(fd - want) / max(abs(want), 1e-6)
                worst = max(worst, rel)
                assert rel <= 1e-3, f"{block} ch {c}: rel {rel:.2e}"
        detail["note"] = f"byte-stable exports, FD rel <= {worst:.1e}"


# -- 11 -----------------------------------------------------------------------

def _hand_param_count():
    # the micro config written out, not read from micro_config(): this is the oracle
    widths, heads, wss = (8, 16, 32, 64), (2, 2, 4, 4), (4, 4, 2, 2)

    def stem(cin, c):
        h = c // 2
        weights = (h * cin + h * h + c * h + c * c) * 9
        per_conv = h + h + c + c                  # one bias + one LN pair each
        return weights + per_conv + 2 * per_conv

    def block(c, nh, ws):
        d = c // nh
        n = c * 49 + c + 2 * c                       # dw1 + ln1
        n += c * 4 * c + 4 * c + 4 * c * c + c       # mlp
        n += 2 * c                                   # ln2
        n += 3 * nh * d * d + c * c + nh * (2 * ws - 1) ** 2
        n += c * 25 + c + 2 * nh * d + 2 * nh        # offset net
        n += c * 49 + c                              # dw2
        n += 2 * c * c + c                           # fc_out, dual concat
        return n

    total = stem(1, 8)
    for st in range(4):
        total += block(widths[st], heads[st], wss[st])
    for st in range(3):
        total += 2 * widths[st] * widths[st] * 4 + 2 * widths[st]
    for st in (2, 1, 0):
        total += widths[st + 1] * widths[st] * 4 + widths[st]
        total += widths[st] * 2 * widths[st] + widths[st]
        total += block(widths[st], heads[st], wss[st])
    total += 8 * 2 * 16 + 2
    return total


def _hand_flops_conv_only(h, w):
    widths = (8, 16, 32, 64)
    sizes = [(h // 4) * (w // 4), (h // 8) * (w // 8),
             (h // 16) * (w // 16), (h // 32) * (w // 32)]

    def block(c, pos):
        return (2 * c * 49 * pos + 2 * pos * c * 4 * c + 2 * pos * 4 * c * c
                + 2 * c * 49 * pos + 2 * pos * c * c)

    total = (2 * 4 * 1 * 9 * (h // 2) * (w // 2)
             + 2 * 4 * 4 * 9 * (h // 2) * (w // 2)
             + 2 * 8 * 4 * 9 * (h // 4) * (w // 4)
             + 2 * 8 * 8 * 9 * (h // 4) * (w // 4))
    for st in range(4):
        total += block(widths[st], sizes[st])
    for st in range(3):
        total += 2 * (2 * widths[st]) * widths[st] * 4 * sizes[st + 1]
    for st in (2, 1, 0):
        total += 2 * widths[st + 1] * widths[st] * 4 * sizes[st + 1]
        total += 2 * widths[st] * 2 * widths[st] * sizes[st]
        total += block(widths[st], sizes[st])
    total += 2 * 8 * 2 * 16 * (h // 4) * (w // 4)
    return total


def _hand_flops_sdmsa_only(deform):
    """Micro `sdmsa_only` FLOPs at 32x32, with every stage plain or deformable."""
    # the micro config written out, not read from micro_config(): this is the oracle
    widths, heads, wss = (8, 16, 32, 64), (2, 2, 4, 4), (4, 4, 2, 2)
    hw = [8, 4, 2, 1]
    want = (2 * 4 * 1 * 9 * 16 * 16 + 2 * 4 * 4 * 9 * 16 * 16
            + 2 * 8 * 4 * 9 * 64 + 2 * 8 * 8 * 9 * 64)
    for st in [0, 1, 2, 3, 2, 1, 0]:
        c, nh = widths[st], heads[st]
        pos = hw[st] * hw[st]
        ws = min(wss[st], hw[st])
        pp, d = ws * ws, c // nh
        want += 2 * c * 49 * pos + 2 * pos * c * 4 * c + 2 * pos * 4 * c * c
        want += 3 * 2 * pos * c * d          # q, k, v projections
        if deform:
            want += 2 * c * 25 * pos         # offset net depthwise 5x5
            want += 2 * 2 * nh * d * pos     # offset net grouped 1x1
            want += 8 * pos * c              # key/value gathering
            want += 8 * pos * nh * pp        # bias read per query-key pair
        else:
            want += 8 * nh * pp * pp         # bias lookup, shared by windows
        want += 2 * pos * pp * c             # scores
        want += 5 * pos * nh * pp            # softmax
        want += 2 * pos * pp * c             # attention @ values
        want += 2 * pos * c * c              # head mixing
        want += 2 * pos * c * c              # fc_out at width c
    for st in range(3):
        want += 2 * 2 * widths[st] * widths[st] * 4 * hw[st + 1] ** 2
    for st in (2, 1, 0):
        want += 2 * widths[st + 1] * widths[st] * 4 * hw[st + 1] ** 2
        want += 2 * widths[st] * 2 * widths[st] * hw[st] ** 2
    want += 2 * 8 * 2 * 16 * 64
    return want


def test_c11_accounting(capsys):
    """The micro parameter count equals a closed-form hand derivation and
    every matmul-style term follows the 2*m*k*n convention."""
    with criterion(capsys, 11, "parameter and flop accounting") as detail:
        model = build_model(micro_config())
        got = count_params(model)
        want = _hand_param_count()
        assert got == want, f"{got} vs hand count {want}"

        conv_model = build_model(micro_config(branch_mode="conv_only"))
        assert count_flops(conv_model, 32, 32) == _hand_flops_conv_only(32, 32)
        assert count_flops(conv_model, 64, 64) == _hand_flops_conv_only(64, 64)

        # isolated 2mkn spot checks on attention matmuls: turning the conv
        # division off leaves qkv/scores/mix plus documented non-matmul terms
        for flags in ("NNNN", "DDDD"):
            attn_model = build_model(micro_config(branch_mode="sdmsa_only",
                                                  deform_flags=flags))
            assert count_flops(attn_model, 32, 32) == _hand_flops_sdmsa_only(
                flags == "DDDD")
        assert count_flops(build_model(ModelConfig()), 224, 224) == 105_386_260
        detail["note"] = f"{got} params; conv and attention flop forms match"
