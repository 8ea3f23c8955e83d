#!/usr/bin/env python3
"""Numeric fingerprint of the package: one JSON object of sha256s.

For the micro DDDD, NNNN, DNDN with sum fusion and DDDD with samples
clamped to their window configs (B=8, 32x32, 2 classes) it hashes the
logits of one forward, every block's attention-trace offsets and deformed
points, its loss, the concatenated parameter gradients of one backward,
and the parameters after 4 `train()` steps; for the default config (3
classes, 224x224, B=1) the logits, loss and gradients of one forward and
backward.  On perfbench/micro_desk.sdck it hashes the five
`sdah explain --block enc1` artifacts and the `sdah infer` mask and preview
of a synthetic 128x128 image, and the `sdah eval` CSV of two such cases.
Two trees give the same entry exactly when that output is the same bit for
bit, so running the script on a change and on its parent shows what moved:

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
from sdah.network import ModelConfig, build_model, forward, micro_config
from sdah.tensor import Tensor
from sdah.training import TrainConfig, combined_loss, save_dataset, synth_dataset, train

CONFIGS = {
    "micro_DDDD": dict(deform_flags="DDDD"),
    "micro_NNNN": dict(deform_flags="NNNN"),
    "micro_DNDN_sum": dict(deform_flags="DNDN", fusion="sum"),
    "micro_DDDD_clamp": dict(deform_flags="DDDD", clamp_to_window=True),
}
BATCH, SIZE, TRAIN_STEPS = 8, 32, 4
DEFAULT_SIZE, DEFAULT_CLASSES = 224, 3
CHECKPOINT = ROOT / "perfbench" / "micro_desk.sdck"
CLI_SIZE, EXPLAIN_BLOCK = 128, "enc1"
SLIDING = ["--crop", "32", "--step", "16"]


def sha(*arrays) -> str:
    """sha256 over each array's dtype, shape and bytes, in order."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def run_sdah(*argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        if sdah_main(list(argv)) != 0:
            raise RuntimeError(f"sdah {' '.join(argv)} failed")


def file_sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cli_artifacts(tmp: Path) -> dict:
    """sha256 of each file `sdah explain` writes for one block, of the
    `sdah infer` mask and preview, and of the `sdah eval` CSV."""
    image = synth_dataset(1, CLI_SIZE, CLI_SIZE, 2, seed=2)[0].image.data
    save_sdt1(tmp / "image.sdt", image)
    save_dataset(tmp / "data", synth_dataset(2, CLI_SIZE, CLI_SIZE, 2, seed=3))
    ckpt = ["--ckpt", str(CHECKPOINT)]
    run_sdah("explain", *ckpt, "--image", str(tmp / "image.sdt"),
             "--block", EXPLAIN_BLOCK, "--out", str(tmp / "explain"))
    run_sdah("infer", *ckpt, "--image", str(tmp / "image.sdt"), *SLIDING,
             "--out", str(tmp / "mask.sdt"), "--preview", str(tmp / "preview.pgm"))
    run_sdah("eval", *ckpt, "--data", str(tmp / "data"), *SLIDING,
             "--out", str(tmp / "eval.csv"))
    out = {f"explain_{EXPLAIN_BLOCK}.{p.name}": file_sha(p)
           for p in sorted((tmp / "explain" / EXPLAIN_BLOCK).iterdir())}
    out["infer.mask.sdt"] = file_sha(tmp / "mask.sdt")
    out["infer.preview.pgm"] = file_sha(tmp / "preview.pgm")
    out["eval.csv"] = file_sha(tmp / "eval.csv")
    return out


def default_224() -> dict:
    """One forward and backward of the default config at the paper's crop."""
    sample = synth_dataset(1, DEFAULT_SIZE, DEFAULT_SIZE, DEFAULT_CLASSES, seed=4)[0]
    model = build_model(ModelConfig(num_classes=DEFAULT_CLASSES))
    logits, _ = forward(model, Tensor(sample.image.data[None]))
    loss = combined_loss(logits, sample.label.data[None], TrainConfig())[0]
    loss.backward()
    return {"default_224.logits": sha(logits.data), "default_224.loss": sha(loss.data),
            "default_224.grads": sha(*(p.grad for p in model.named_parameters().values()))}


def fingerprint() -> dict:
    data = synth_dataset(BATCH, SIZE, SIZE, 2, seed=1)
    images = np.stack([s.image.data for s in data])
    labels = np.stack([s.label.data for s in data])
    cfg = TrainConfig(batch_size=BATCH, max_steps=TRAIN_STEPS, seed=0)
    out = {}
    for name, variant in CONFIGS.items():
        model = build_model(micro_config(**variant))
        logits, info = forward(model, Tensor(images))
        loss = combined_loss(logits, labels, cfg)[0]
        loss.backward()
        params = list(model.named_parameters().values())
        out[f"{name}.logits"] = sha(logits.data)
        out[f"{name}.traces"] = sha(*(a for t in info.traces.values() if t is not None
                                      for a in (t.offsets, t.deformed)))
        out[f"{name}.loss"] = sha(loss.data)
        out[f"{name}.grads"] = sha(*(p.grad for p in params))

        model = build_model(micro_config(**variant))
        with tempfile.TemporaryDirectory() as tmp:
            train(model, data, cfg, out_dir=tmp)
        out[f"{name}.train{TRAIN_STEPS}_params"] = sha(
            *(p.data for p in model.named_parameters().values()))
    # after the train() calls above, so it runs under the allocator
    # settings those make, as the CLI commands do
    out.update(default_224())
    with tempfile.TemporaryDirectory() as tmp:
        out.update(cli_artifacts(Path(tmp)))
    return out


if __name__ == "__main__":
    print(json.dumps(fingerprint(), indent=1, sort_keys=True))
