#!/usr/bin/env python3
"""Desk-scale training benchmark.

Trains the micro configuration (all stages deformable, dual branch) on 200
synthetic 32x32 two-class samples for 2000 steps and scores the 40 held-out
samples with sliding-window inference.  The pass bar: held-out foreground
DSC >= 0.90 and final loss < 25% of the initial.  Acceptance criterion 8
runs this script with its defaults and holds it to the same bar.
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sdah.inference import SlidingConfig, predict_mask
from sdah.metrics import evaluate_pairs, write_eval_csv
from sdah.network import build_model, count_flops, count_params, micro_config
from sdah.training import TrainConfig, synth_dataset, train


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="runs/desk_benchmark")
    ap.add_argument("--steps", type=int, default=2_000)
    ap.add_argument("--samples", type=int, default=200)
    ap.add_argument("--holdout", type=int, default=40)
    ap.add_argument("--batch", type=int, default=8)
    ap.add_argument("--data-seed", type=int, default=7)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.holdout < 1:
        ap.error("--holdout must be at least 1: the held-out DSC needs a case")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data = synth_dataset(args.samples, 32, 32, 2, seed=args.data_seed)
    train_set = data[:len(data) - args.holdout]
    held_out = data[len(data) - args.holdout:]

    model = build_model(micro_config())
    print(f"model: {count_params(model)} params, "
          f"{count_flops(model, 32, 32):,} flops @32x32")
    print(f"data: {len(train_set)} train / {len(held_out)} held out")

    cfg = TrainConfig(batch_size=args.batch, base_lr=2e-4,
                      decay_start_step=1_000, decay_every=500,
                      max_steps=args.steps, seed=args.seed)
    t0 = time.monotonic()
    rows = train(model, train_set, cfg, out_dir=out,
                 log=lambda r: print(f"step {r['step']:>5}  loss {r['loss']:.4f}  "
                                     f"lr {r['lr']:.2e}"))
    train_s = time.monotonic() - t0

    scfg = SlidingConfig(crop=32, step=32)
    preds = [predict_mask(model, s.image.data, scfg) for s in held_out]
    gts = [s.label.data for s in held_out]
    ev_rows, summary = evaluate_pairs(preds, gts, classes=2)
    write_eval_csv(out / "holdout_eval.csv", ev_rows, summary)

    initial, final = rows[0]["loss"], rows[-1]["loss"]
    report = {
        "train_seconds": round(train_s, 1),
        "initial_loss": initial,
        "final_loss": final,
        "loss_ratio": final / initial,
        "holdout_mean_dsc": summary[1]["mean_dsc"],
        "holdout_min_dsc": min(r["dsc"] for r in ev_rows),
        "holdout_mean_hd95": summary[1]["mean_hd95"],
        "hd95_excluded": summary[1]["hd95_excluded"],
    }
    (out / "report.json").write_text(json.dumps(report, indent=2))
    print(json.dumps(report, indent=2))

    ok = report["holdout_mean_dsc"] >= 0.90 and report["loss_ratio"] < 0.25
    print("benchmark:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
