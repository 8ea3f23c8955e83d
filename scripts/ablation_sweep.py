#!/usr/bin/env python3
"""Ablation sweep over the two architectural switches.

Axis 1 turns deformation on stage by stage (NNNN, DNNN, DDDD); axis 2 picks
the block's second division (sdmsa_only, conv_only, dual).  Every variant
trains briefly on the same synthetic data and reports params, final loss,
held-out foreground DSC, and the paired t-test p-value of its per-case DSCs
against the DDDD/dual model's on the same cases, in one table.
"""

import argparse
import csv
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sdah.inference import SlidingConfig, predict_mask
from sdah.metrics import evaluate_pairs, paired_t_test
from sdah.network import build_model, count_params, micro_config
from sdah.training import TrainConfig, synth_dataset, train


def run_variant(flags, mode, data, held_out, steps, out_dir, seed):
    """Train one variant; returns its table row and its per-case held-out DSCs."""
    model = build_model(micro_config(deform_flags=flags, branch_mode=mode))
    cfg = TrainConfig(batch_size=8, max_steps=steps,
                      decay_start_step=max(1, steps // 2),
                      decay_every=max(1, steps // 4), seed=seed)
    t0 = time.monotonic()
    rows = train(model, data, cfg, out_dir=out_dir)
    elapsed = time.monotonic() - t0
    scfg = SlidingConfig(crop=32, step=32, sigma_ratio=1 / 8)
    preds = [predict_mask(model, s.image.data, scfg) for s in held_out]
    ev_rows, summary = evaluate_pairs(preds, [s.label.data for s in held_out], classes=2)
    return {
        "flags": flags,
        "branch": mode,
        "params": count_params(model),
        "initial_loss": round(rows[0]["loss"], 4),
        "final_loss": round(rows[-1]["loss"], 4),
        "holdout_dsc": round(summary[1]["mean_dsc"], 4),
        "seconds": round(elapsed, 1),
    }, [r["dsc"] for r in ev_rows if r["class"] == 1]


def p_value(scores, ref) -> str:
    """The paired t-test p against the reference's DSCs; blank where t is
    undefined (the reference itself, equal scores, fewer than 2 cases)."""
    try:
        return f"{paired_t_test(scores, ref)[1]:.4g}"
    except ValueError:
        return ""


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="runs/ablations")
    ap.add_argument("--steps", type=int, default=200)
    ap.add_argument("--samples", type=int, default=64)
    ap.add_argument("--holdout", type=int, default=16)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--full-grid", action="store_true",
                    help="cross both axes instead of varying one at a time")
    args = ap.parse_args()
    if args.holdout < 1:
        ap.error("--holdout must be at least 1: the held-out DSC needs a case")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data = synth_dataset(args.samples + args.holdout, 32, 32, 2, seed=3)
    train_set, held_out = data[:args.samples], data[args.samples:]

    flags_axis = ("NNNN", "DNNN", "DDDD")
    branch_axis = ("sdmsa_only", "conv_only", "dual")
    if args.full_grid:
        grid = [(f, b) for f in flags_axis for b in branch_axis]
    else:
        grid = [(f, "dual") for f in flags_axis]
        grid += [("DDDD", b) for b in branch_axis if b != "dual"]

    runs = []
    for i, (flags, mode) in enumerate(grid):
        print(f"[{i + 1}/{len(grid)}] {flags} / {mode} ...", flush=True)
        runs.append(run_variant(flags, mode, train_set, held_out,
                                args.steps, out / f"{flags}_{mode}", args.seed))
    ref = runs[grid.index(("DDDD", "dual"))][1]
    results = [{**row, "p_vs_DDDD_dual": p_value(scores, ref)} for row, scores in runs]

    cols = list(results[0])
    with open(out / "sweep.csv", "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=cols)
        w.writeheader()
        w.writerows(results)

    widths = {c: max(len(c), *(len(str(r[c])) for r in results)) for c in cols}
    print("  ".join(c.ljust(widths[c]) for c in cols))
    for r in results:
        print("  ".join(str(r[c]).ljust(widths[c]) for c in cols))
    print(f"table: {out / 'sweep.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
