#!/usr/bin/env python3
"""Time the depthwise band at each block width the model's maps could use.

A stride-1 depthwise conv is lowered to rows @ band with the output width
cut into blocks of b columns (`convops._band_width` picks b from geometry
alone).  For each depthwise geometry the package runs, this times one
forward, one input gradient (the same banded forward on the output
gradient) and one weight gradient at every candidate b, a divisor of the
output width no smaller than the kernel, and prints one JSON object:

    {"<geometry>": {"shape": [N, C, H, W], "k": k, "ms": {"<b>": ms, ...},
                    "pick": <the rule's b>, "fastest": <the fastest b>}}

Run with one BLAS thread so the figures match the benchmark's:

    OPENBLAS_NUM_THREADS=1 python3 scripts/band_widths.py
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sdah.convops import _band_width, _banded_backward_w, _banded_forward

# name: ((N, C, H, W), k) at the default config's 224x224 crop (B=1; the
# offset net reads the 64 enc1 windows of 7x7), the 49 batched 32x32 tiles
# of `sdah eval`/`infer` on the micro checkpoint (enc1 at 8x8) and
# `sdah explain` on a 128x128 image (enc1 at 32x32)
GEOMETRIES = {
    "train_224.56": ((1, 8, 56, 56), 7),
    "train_224.28": ((1, 16, 28, 28), 7),
    "train_224.14": ((1, 32, 14, 14), 7),
    "train_224.7": ((1, 64, 7, 7), 7),
    "offset_net.7": ((64, 8, 7, 7), 5),
    "eval_tiles.8": ((49, 8, 8, 8), 7),
    "explain.32": ((1, 8, 32, 32), 7),
}


def _ms(fn, repeat: int) -> float:
    """Median wall ms of fn over `repeat` timed calls after one warm-up."""
    fn()
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) * 1e3


def measure(shape, k: int, repeat: int) -> dict:
    rng = np.random.default_rng(0)
    x = rng.normal(size=shape).astype(np.float32)
    w = rng.normal(size=(shape[1], 1, k, k)).astype(np.float32)
    dy = rng.normal(size=shape).astype(np.float32)   # padding k // 2 keeps the size
    p, wo = k // 2, shape[3]

    def step(b):
        _banded_forward(x, w, p, b)
        _banded_forward(dy, w[..., ::-1, ::-1], p, b)
        _banded_backward_w(x, dy, k, p, b)

    ms = {str(b): round(_ms(lambda: step(b), repeat), 4)
          for b in range(min(k, wo), wo + 1) if wo % b == 0}
    return {"shape": list(shape), "k": k, "ms": ms, "pick": _band_width(wo, k),
            "fastest": int(min(ms, key=ms.get))}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", choices=sorted(GEOMETRIES), action="append",
                    help="time this geometry only (repeatable)")
    ap.add_argument("--repeat", type=int, default=50)
    args = ap.parse_args()
    names = args.only or list(GEOMETRIES)
    report = {name: measure(*GEOMETRIES[name], args.repeat) for name in names}
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
