#!/usr/bin/env python3
"""Numeric fingerprint of the package: one JSON object of sha256s.

For the micro DDDD and NNNN configs (B=8, 32x32, 2 classes) it hashes the
logits of one forward, its loss, the concatenated parameter gradients of
one backward, and the parameters after 4 `train()` steps.  Two trees give
the same entry exactly when that output is the same bit for bit, so
running the script on a change and on its parent shows what moved:

    python3 scripts/fingerprint.py > after.json

No hash is pinned here: BLAS kernels, and so the low bits, differ by CPU.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sdah.network import ModelConfig, build_model, forward
from sdah.tensor import Tensor
from sdah.training import TrainConfig, combined_loss, synth_dataset, train

MICRO = dict(in_channels=1, num_classes=2, stem_width=8,
             stage_widths=(8, 16, 32, 64), window_sizes=(4, 4, 2, 2),
             num_heads=(2, 2, 4, 4))
BATCH, SIZE, TRAIN_STEPS = 8, 32, 4


def sha(*arrays) -> str:
    """sha256 over each array's dtype, shape and bytes, in order."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def fingerprint() -> dict:
    data = synth_dataset(BATCH, SIZE, SIZE, 2, seed=1)
    images = np.stack([s.image.data for s in data])
    labels = np.stack([s.label.data for s in data])
    cfg = TrainConfig(batch_size=BATCH, max_steps=TRAIN_STEPS, seed=0)
    out = {}
    for flags in ("DDDD", "NNNN"):
        name = f"micro_{flags}"
        model = build_model(ModelConfig(**MICRO, deform_flags=flags))
        logits, _ = forward(model, Tensor(images))
        loss = combined_loss(logits, labels, cfg)[0]
        loss.backward()
        params = list(model.named_parameters().values())
        out[f"{name}.logits"] = sha(logits.data)
        out[f"{name}.loss"] = sha(loss.data)
        out[f"{name}.grads"] = sha(*(p.grad for p in params))

        model = build_model(ModelConfig(**MICRO, deform_flags=flags))
        with tempfile.TemporaryDirectory() as tmp:
            train(model, data, cfg, out_dir=tmp)
        out[f"{name}.train{TRAIN_STEPS}_params"] = sha(
            *(p.data for p in model.named_parameters().values()))
    return out


if __name__ == "__main__":
    print(json.dumps(fingerprint(), indent=1, sort_keys=True))
