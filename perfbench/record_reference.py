#!/usr/bin/env python3
"""Record the first-chunk final loss of the train workloads per seed.

The train gates compare a run's first `train()` chunk against these values
(perfbench/reference.json).  Re-record only when a change is meant to alter
the arithmetic, and say so.  Run from the repository root:

    python3 perfbench/record_reference.py [--seeds 100]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as W  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=100, help="record seeds 0..N-1")
    args = ap.parse_args()
    work = HERE.parent / ".perfbench_work" / f"reference-{os.getpid()}"
    out = {}
    try:
        for w in W.WORKLOADS.values():
            if w.kind != "train":
                continue
            losses = {}
            for seed in range(args.seeds):
                env = W.setup(w, seed, work)
                run = W.run_train(w, env, seed, work / "train", chunks=1)
                losses[str(seed)] = run.rows[0][-1]["loss"]
                print(f"{w.name} seed {seed}: {losses[str(seed)]!r}", flush=True)
            out[w.name] = {"chunk": w.chunk, "final_loss": losses}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    W.REFERENCE.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
