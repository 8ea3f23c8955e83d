#!/usr/bin/env python3
"""Numeric fingerprint of the package: one JSON object of sha256s.

For the micro DDDD, NNNN, DNDN with sum fusion and DDDD with samples
clamped to their window configs (B=8, 32x32, 2 classes) it hashes the
logits of one forward, every block's attention-trace offsets and deformed
points, its loss, the concatenated parameter gradients of one backward,
and the parameters after 4 `train()` steps.  It also hashes the five
`sdah explain --block enc1` artifacts of perfbench/micro_desk.sdck on a
synthetic 128x128 image.  Two trees give the same entry exactly when that
output is the same bit for bit, so running the script on a change and on
its parent shows what moved:

    python3 scripts/fingerprint.py > after.json

No hash is pinned here: BLAS kernels, and so the low bits, differ by CPU.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from sdah.cli import main as sdah_main
from sdah.io import save_sdt1
from sdah.network import ModelConfig, build_model, forward
from sdah.tensor import Tensor
from sdah.training import TrainConfig, combined_loss, synth_dataset, train

MICRO = dict(in_channels=1, num_classes=2, stem_width=8,
             stage_widths=(8, 16, 32, 64), window_sizes=(4, 4, 2, 2),
             num_heads=(2, 2, 4, 4))
CONFIGS = {
    "micro_DDDD": dict(deform_flags="DDDD"),
    "micro_NNNN": dict(deform_flags="NNNN"),
    "micro_DNDN_sum": dict(deform_flags="DNDN", fusion="sum"),
    "micro_DDDD_clamp": dict(deform_flags="DDDD", clamp_to_window=True),
}
BATCH, SIZE, TRAIN_STEPS = 8, 32, 4
CHECKPOINT = ROOT / "perfbench" / "micro_desk.sdck"
EXPLAIN_SIZE, EXPLAIN_BLOCK = 128, "enc1"


def sha(*arrays) -> str:
    """sha256 over each array's dtype, shape and bytes, in order."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def explain_artifacts(tmp: Path) -> dict:
    """sha256 of each file `sdah explain` writes for one block."""
    image = synth_dataset(1, EXPLAIN_SIZE, EXPLAIN_SIZE, 2, seed=2)[0].image.data
    save_sdt1(tmp / "image.sdt", image)
    argv = ["explain", "--ckpt", str(CHECKPOINT), "--image", str(tmp / "image.sdt"),
            "--block", EXPLAIN_BLOCK, "--out", str(tmp / "explain")]
    with contextlib.redirect_stdout(io.StringIO()):
        if sdah_main(argv) != 0:
            raise RuntimeError(f"sdah {' '.join(argv)} failed")
    return {f"explain_{EXPLAIN_BLOCK}.{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted((tmp / "explain" / EXPLAIN_BLOCK).iterdir())}


def fingerprint() -> dict:
    data = synth_dataset(BATCH, SIZE, SIZE, 2, seed=1)
    images = np.stack([s.image.data for s in data])
    labels = np.stack([s.label.data for s in data])
    cfg = TrainConfig(batch_size=BATCH, max_steps=TRAIN_STEPS, seed=0)
    out = {}
    for name, variant in CONFIGS.items():
        model = build_model(ModelConfig(**MICRO, **variant))
        logits, info = forward(model, Tensor(images))
        loss = combined_loss(logits, labels, cfg)[0]
        loss.backward()
        params = list(model.named_parameters().values())
        out[f"{name}.logits"] = sha(logits.data)
        out[f"{name}.traces"] = sha(*(a for t in info.traces.values() if t is not None
                                      for a in (t.offsets, t.deformed)))
        out[f"{name}.loss"] = sha(loss.data)
        out[f"{name}.grads"] = sha(*(p.grad for p in params))

        model = build_model(ModelConfig(**MICRO, **variant))
        with tempfile.TemporaryDirectory() as tmp:
            train(model, data, cfg, out_dir=tmp)
        out[f"{name}.train{TRAIN_STEPS}_params"] = sha(
            *(p.data for p in model.named_parameters().values()))
    with tempfile.TemporaryDirectory() as tmp:
        out.update(explain_artifacts(Path(tmp)))
    return out


if __name__ == "__main__":
    print(json.dumps(fingerprint(), indent=1, sort_keys=True))
