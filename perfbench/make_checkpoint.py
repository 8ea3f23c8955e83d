#!/usr/bin/env python3
"""Regenerate the trained micro checkpoint that the eval_infer workload scores.

Recipe (the desk benchmark's): micro config (widths 8-64, windows 4/4/2/2,
all stages deformable, dual branch), the first 160 of 200 synthetic 32x32
two-class samples drawn with data seed 7, batch 8, Adam at 2e-4 halved at
step 1000 and every 500 steps after, 2000 steps, training seed 0.  About
four minutes on one core.

The file is re-saved without the wall-clock `train_seconds` that `train`
embeds, so the same code writes the same bytes.  The script then writes the
file's sha256 next to it (perfbench/micro_desk.sdck.sha256 by default), which
the eval_infer set-up checks.  Run from the repository root:

    python3 perfbench/make_checkpoint.py [--out perfbench/micro_desk.sdck]
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from sdah.network import build_model, load_model, save_model  # noqa: E402
from sdah.training import TrainConfig, synth_dataset, train  # noqa: E402
from workloads import CHECKPOINT, MICRO  # noqa: E402

RECIPE = TrainConfig(batch_size=8, base_lr=2e-4, decay_start_step=1_000,
                     decay_every=500, max_steps=2_000, seed=0)
DATA_SEED = 7


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(CHECKPOINT))
    args = ap.parse_args()
    data = synth_dataset(200, 32, 32, 2, seed=DATA_SEED)[:160]
    model = build_model(MICRO)
    with tempfile.TemporaryDirectory() as tmp:
        rows = train(model, data, RECIPE, out_dir=tmp,
                     log=lambda r: print(f"step {r['step']:>5}  loss {r['loss']:.4f}"))
        trained, _ = load_model(Path(tmp) / "checkpoint.sdck")
    save_model(args.out, trained, extra={"step": float(RECIPE.max_steps)})
    out = Path(args.out)
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    out.with_name(out.name + ".sha256").write_text(f"{digest}  {out.name}\n")
    print(f"final loss {rows[-1]['loss']:.6f}")
    print(f"sha256 {digest}  {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
