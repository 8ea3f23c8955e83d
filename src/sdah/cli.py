"""Command-line driver: synth / train / infer / eval / explain / count /
selfcheck.

Exit codes: 0 success, 1 usage error, 2 data or config error, 3 numerical
failure, 4 selfcheck failure.  All commands are deterministic for a fixed
seed; reruns write byte-identical outputs.

The JSON config mirrors the dataclass fields exactly, namespaced as
{"model": {...}, "train": {...}}; both sections are optional and
unknown keys are rejected.  `train --print-config` shows the effective
merged config without running.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from .attention import (SdmsaParams, WindowLayout, _attend, _deform_points, reference_points,
                        sdmsa, window_merge, window_partition)
from .convops import conv2d, deconv2d
from .explain import export_bundle
from .gradcheck import GradCheckError, grad_check
from .io import load_image, load_sdt1, save_sdt1, to_u8, write_pgm
from .inference import SlidingConfig, predict_mask, sliding_predict, tile_positions
from .metrics import dsc, evaluate_pairs, hd95, write_eval_csv
from .network import ModelConfig, build_model, count_flops, count_params, load_model
from .rng import Stream
from .tensor import GradError, Tensor, _keep_heap, gelu, matmul, softmax
from .training import (
    CKPT_NAME,
    CURVE_NAME,
    TrainConfig,
    TrainingAborted,
    check_dataset,
    combined_loss,
    load_dataset,
    lr_at,
    save_dataset,
    synth_dataset,
    train,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems must exit 1, not argparse's 2
        raise _UsageError(message)


def _load_configs(path) -> tuple[ModelConfig, TrainConfig]:
    raw = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise FileNotFoundError(f"config file not found: {p}")
        raw = json.loads(p.read_text())
    if not isinstance(raw, dict):
        raise ValueError(f"config must be a JSON object, got {raw!r}")
    unknown = set(raw) - {"model", "train"}
    if unknown:
        raise ValueError(f"unknown top-level config keys: {sorted(unknown)}")
    return (
        ModelConfig.from_dict(raw.get("model", {})),
        TrainConfig.from_dict(raw.get("train", {})),
    )


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _cmd_synth(args) -> int:
    data = synth_dataset(args.n, args.size, args.size, args.classes, args.seed)
    save_dataset(args.out, data)
    print(f"wrote {len(data)} samples to {args.out}")
    return 0


def _cmd_train(args) -> int:
    mcfg, tcfg = _load_configs(args.config)
    if args.print_config:
        print(json.dumps({"model": mcfg.to_dict(), "train": tcfg.to_dict()},
                         indent=2))
        return 0
    if args.data is None or args.out is None:
        raise _UsageError("train requires --data and --out")
    data = load_dataset(args.data)
    model = build_model(mcfg)
    out = Path(args.out)
    curve = out.with_suffix(f".{CURVE_NAME}") if out.suffix else out / CURVE_NAME
    ckpt = out if out.suffix else out / CKPT_NAME

    def log(row):
        print(f"step {row['step']:>6}  loss {row['loss']:.4f}  "
              f"dice {row['dice_loss']:.4f}  ce {row['ce_loss']:.4f}  "
              f"lr {row['lr']:.2e}")

    train(model, data, tcfg, ckpt_path=ckpt, curve_path=curve, log=log)
    print(f"checkpoint: {ckpt}\nloss curve: {curve}")
    return 0


def _make_parents(*paths) -> None:
    """Create each given output path's parent directories before any work,
    so a parent that is a regular file exits 2 with nothing written."""
    for path in paths:
        if path is not None:
            Path(path).parent.mkdir(parents=True, exist_ok=True)


def _cmd_infer(args) -> int:
    _make_parents(args.out, args.preview)
    model, _ = load_model(args.ckpt)
    mask = predict_mask(model, load_image(args.image), SlidingConfig(args.crop, args.step))
    save_sdt1(args.out, mask)
    if args.preview:
        write_pgm(args.preview, to_u8(mask))
    print(f"mask: {args.out}")
    return 0


def _cmd_eval(args) -> int:
    _make_parents(args.out)
    model, _ = load_model(args.ckpt)
    data = load_dataset(args.data)
    cfg = SlidingConfig(args.crop, args.step)
    classes = model.config.num_classes
    check_dataset(data, classes)
    preds, gts = [], []
    for s in data:
        preds.append(predict_mask(model, s.image.data, cfg))
        gts.append(s.label.data)
    rows, summary = evaluate_pairs(preds, gts, classes)
    write_eval_csv(args.out, rows, summary)
    avg = summary["avg"]
    hd = "n/a" if avg["mean_hd95"] is None else f"{avg['mean_hd95']:.4f}"
    print(f"cases {len(data)}  mean DSC {avg['mean_dsc']:.4f}  "
          f"mean HD95 {hd}  hd95 excluded {avg['hd95_excluded']}")
    return 0


def _cmd_explain(args) -> int:
    _make_parents(args.out)
    if Path(args.out).exists() and not Path(args.out).is_dir():  # holds out/<block>/
        raise NotADirectoryError(f"{args.out}: Not a directory")
    model, _ = load_model(args.ckpt)
    paths = export_bundle(model, load_image(args.image)[None], args.block,
                          args.cls, args.out)
    for k, v in paths.items():
        print(f"{k}: {v}")
    return 0


def _cmd_count(args) -> int:
    mcfg, _ = _load_configs(args.config)
    model = build_model(mcfg)
    params = count_params(model)
    flops = count_flops(model, args.size, args.size)
    print(f"params: {params}")
    print(f"flops@{args.size}x{args.size}: {flops}")
    return 0


def _cmd_selfcheck(args) -> int:
    failures = []

    def check(name, fn):
        try:
            fn()
            print(f"selfcheck {name}: ok")
        except Exception as e:  # noqa: BLE001 - report and keep going
            failures.append(name)
            print(f"selfcheck {name}: FAIL ({e})")

    check("grad_ops", _selfcheck_grads)
    check("window_round_trip", _selfcheck_windows)
    check("zero_offset_equivalence", _selfcheck_zero_offset)
    check("conv_adjoint", _selfcheck_adjoint)
    check("sliding_tiles", _selfcheck_tiles)
    check("lr_schedule", _selfcheck_lr)
    check("metrics_oracle", _selfcheck_metrics)
    check("formats_round_trip", _selfcheck_formats)
    if failures:
        print(f"selfcheck failed: {', '.join(failures)}")
        return 4
    print("selfcheck passed")
    return 0


def _selfcheck_grads():
    s = Stream(7)
    a = s.uniform((4, 4), -1, 1)
    b = s.uniform((4, 4), -1, 1)
    grad_check(matmul, [a, b], h=1e-5, tol=1e-6)
    grad_check(gelu, [s.uniform((3, 5), -2, 2)], h=1e-5, tol=1e-6)
    grad_check(lambda t: softmax(t, axis=-1), [s.uniform((2, 6), -2, 2)],
               h=1e-5, tol=1e-6)
    # the fused window core, with a full-shape (deformable path) and a
    # broadcast (plain path) bias
    qkv = [s.uniform((1, 2, 2, 4, 3), -1, 1) for _ in range(3)]
    for bias_shape in ((1, 2, 2, 4, 4), (1, 1, 2, 4, 4)):
        grad_check(lambda *t: _attend(*t)[0], [*qkv, s.uniform(bias_shape, -1, 1)],
                   h=1e-5, tol=1e-6)
    # the one-node sampling points: offset net, tanh bound, shift and clip
    net = SdmsaParams.init(4, 2, 2, s)
    ref = reference_points(WindowLayout(4, 4, 2, shift=1)).reshape(1, 4, 1, 4, 2)
    names = ("off_dw_w", "off_dw_b", "off_pw_w", "off_pw_b")
    grad_check(lambda q, *w: _deform_points(q, replace(net, **dict(zip(names, w))),
                                            2, ref, 0.0, 3.0)[0],
               [s.uniform((2, 4, 2, 4, 2), -1, 1),
                *(s.uniform(getattr(net, n).shape, -1, 1) for n in names)],
               h=1e-5, tol=1e-6)
    # the one-node loss's hand-written VJP, both terms weighted
    label, cfg = s.integers(32, 3).reshape(2, 4, 4), TrainConfig(lambda_dice=0.3, lambda_ce=2.0)
    grad_check(lambda t: combined_loss(t, label, cfg)[0], [s.uniform((2, 3, 4, 4), -2, 2)],
               h=1e-5, tol=1e-6)


def _selfcheck_windows():
    s = Stream(11)
    for shift in (0, 2):
        lay = WindowLayout(8, 8, 4, shift)
        x = Tensor(s.uniform((1, 3, 8, 8), -1, 1))
        back = window_merge(window_partition(x, lay), lay)
        if not np.array_equal(back.data, x.data):
            raise AssertionError("window round trip not exact")
    # 2 heads on the shifted layout: each op's backward is the other's forward
    x = Tensor(s.uniform((1, 4, 8, 8), -1, 1), requires_grad=True)
    wins = window_partition(x, lay, 2)
    g = Tensor(s.uniform(wins.shape, -1, 1), requires_grad=True)
    wins.backward(g.data)
    window_merge(g, lay).backward(x.data)
    if not (np.array_equal(window_merge(wins, lay).data, x.data)
            and np.array_equal(x.grad, window_merge(g.data, lay).data)
            and np.array_equal(g.grad, wins.data)):
        raise AssertionError("2-head windows: round trip or backward not exact")


def _selfcheck_zero_offset():
    s = Stream(13)
    params = SdmsaParams.init(8, 2, 4, s, deform=True)
    for t in (params.off_dw_w, params.off_dw_b, params.off_pw_w, params.off_pw_b):
        t.data[...] = 0.0
    lay = WindowLayout(8, 8, 4, 2)
    x = Tensor(s.uniform((1, 8, 8, 8), -1, 1))
    a, _ = sdmsa(x, params, lay)
    b, _ = sdmsa(x, replace(params, off_dw_w=None, off_dw_b=None, off_pw_w=None,
                            off_pw_b=None), lay)  # the plain twin
    diff = np.abs(a.data - b.data).max()
    if diff > 1e-6:
        raise AssertionError(f"zero-offset gap {diff:.2e}")


def _selfcheck_adjoint():
    # <conv(x, w), g> == <x, deconv(g, w)> with the shared weight array
    s = Stream(17)
    x = Tensor(s.uniform((1, 3, 8, 8), -1, 1))
    w = Tensor(s.uniform((5, 3, 2, 2), -1, 1))
    g = Tensor(s.uniform((1, 5, 4, 4), -1, 1))
    lhs = float((conv2d(x, w, stride=2).data * g.data).sum())
    rhs = float((x.data * deconv2d(g, w, stride=2).data).sum())
    if abs(lhs - rhs) > 1e-5 * max(1.0, abs(lhs)):
        raise AssertionError(f"adjoint mismatch {lhs} vs {rhs}")
    # stride-1 depthwise 7x7, linear in x and in w: <conv(x, w), g> equals
    # both <x, x.grad> and <w, w.grad> after backward(g)
    x = Tensor(s.uniform((1, 4, 8, 8), -1, 1), requires_grad=True)
    w = Tensor(s.uniform((4, 1, 7, 7), -1, 1), requires_grad=True)
    y = conv2d(x, w, padding=3, groups=4)
    g = s.uniform(y.shape, -1, 1)
    y.backward(g)
    lhs = float((y.data * g).sum())
    for name, t in (("input", x), ("weight", w)):
        rhs = float((t.data * t.grad).sum())
        if abs(lhs - rhs) > 1e-5 * max(1.0, abs(lhs)):
            raise AssertionError(f"depthwise {name} adjoint mismatch {lhs} vs {rhs}")


def _selfcheck_tiles():
    if tile_positions(64, 32, 16) != [0, 16, 32]:
        raise AssertionError("tile enumeration changed")
    logits = np.array([0.2, -0.7])
    calls = []

    def model(tiles):
        calls.append(tiles.shape[0])
        return np.broadcast_to(logits[:, None, None], (tiles.shape[0], 2, 32, 32))

    probs = sliding_predict(model, np.zeros((1, 64, 64), dtype=np.float32),
                            SlidingConfig(crop=32, step=16))
    if calls != [9]:
        raise AssertionError(f"expected 9 tiles in one forward, got {calls}")
    want = np.exp(logits) / np.exp(logits).sum()
    gap = np.abs(probs - want[:, None, None]).max()
    if gap > 1e-6:
        raise AssertionError(f"constant logits blended off by {gap:.2e}")


def _selfcheck_lr():
    cfg = TrainConfig(base_lr=2e-4, decay_start_step=50_000, decay_every=10_000)
    got = (lr_at(0, cfg), lr_at(50_000, cfg), lr_at(69_999, cfg))
    if got != (2e-4, 1e-4, 5e-5):
        raise AssertionError(f"lr schedule {got}")


def _selfcheck_metrics():
    a = np.zeros((8, 8), bool)
    b = np.zeros((8, 8), bool)
    a[0, 0] = True
    b[3, 4] = True
    if hd95(a, b) != 5.0 or dsc(a, a) != 1.0 or dsc(a, b) != 0.0:
        raise AssertionError("metric spot values")


def _selfcheck_formats():
    with tempfile.TemporaryDirectory() as d:
        arr = np.arange(12, dtype=np.float32).reshape(3, 4)
        save_sdt1(Path(d) / "t.sdt", arr)
        if not np.array_equal(load_sdt1(Path(d) / "t.sdt"), arr):
            raise AssertionError("SDT1 round trip")


@lru_cache(maxsize=None)
def build_parser() -> _Parser:
    """The `sdah` argument parser, built once per process: `parse_args`
    keeps nothing on it, so each call gets a fresh namespace of defaults."""
    p = _Parser(prog="sdah", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="generate a synthetic dataset")
    s.add_argument("--n", type=_positive_int, required=True)
    s.add_argument("--size", type=_positive_int, required=True)
    s.add_argument("--classes", type=int, default=3)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_synth)

    s = sub.add_parser("train", help="train a model")
    s.add_argument("--data")
    s.add_argument("--config")
    s.add_argument("--out", help="checkpoint path (or directory)")
    s.add_argument("--print-config", action="store_true")
    s.set_defaults(func=_cmd_train)

    def add_sliding(sp):
        sp.add_argument("--crop", type=int, default=SlidingConfig.crop)
        sp.add_argument("--step", type=int, default=SlidingConfig.step)

    s = sub.add_parser("infer", help="sliding-window inference on one image")
    s.add_argument("--ckpt", required=True)
    s.add_argument("--image", required=True)
    add_sliding(s)
    s.add_argument("--out", required=True, help="argmax mask (SDT1 u8)")
    s.add_argument("--preview", help="optional PGM preview path")
    s.set_defaults(func=_cmd_infer)

    s = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    s.add_argument("--ckpt", required=True)
    s.add_argument("--data", required=True)
    add_sliding(s)
    s.add_argument("--out", required=True, help="CSV path")
    s.set_defaults(func=_cmd_eval)

    s = sub.add_parser("explain", help="export explanation artifacts")
    s.add_argument("--ckpt", required=True)
    s.add_argument("--image", required=True)
    s.add_argument("--block", required=True)
    s.add_argument("--class", dest="cls", type=int, default=1)
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_explain)

    s = sub.add_parser("count", help="parameter and FLOP counts")
    s.add_argument("--config")
    s.add_argument("--size", type=_positive_int, required=True)
    s.set_defaults(func=_cmd_count)

    s = sub.add_parser("selfcheck", help="run built-in consistency checks")
    s.set_defaults(func=_cmd_selfcheck)
    return p


def main(argv=None) -> int:
    """Run one `sdah` command; returns its exit code (0-4, see the module
    docstring).  Every command keeps freed memory in the process
    (`tensor._keep_heap`)."""
    _keep_heap()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    try:
        # every non-finite value ends as NumericsError (exit 3), not a warning
        with np.errstate(all="ignore"):
            return args.func(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (GradError, TrainingAborted, GradCheckError, ArithmeticError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, MemoryError,
            RecursionError) as e:  # the last: JSON nested too deep
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
