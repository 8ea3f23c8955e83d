#!/usr/bin/env python3
"""Python-level function calls per training step and per `sdah infer` call,
counted with cProfile.

For the micro config (B=8, 32x32, 2 classes) and the default config (B=1,
224x224, 3 classes) it runs `train()` and profiles whole steps: a step
starts at its call into `training.batch_indices` and ends at the next
step's, as the benchmark times it.  Step 0 warms up and is not counted.
`infer` is one in-process `sdah infer` call on the committed desk
checkpoint (`perfbench/micro_desk.sdck`) over a synthetic 128x128 image at
crop 32, step 16, as the benchmark's eval_infer makes them, counted after
one warm-up call.  The counts are fixed by the code's structure, not by the
host, so running the script on a change and on its parent shows how many
calls the change added or removed:

    python3 scripts/call_counts.py

prints one JSON object, calls per step or call by name.
"""

import contextlib
import cProfile
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import sdah.training as training
from sdah.cli import main
from sdah.io import save_sdt1
from sdah.network import ModelConfig, build_model, micro_config
from sdah.training import TrainConfig, synth_dataset, train

# (model config, batch, image side, classes, profiled steps)
CONFIGS = {
    "micro": (micro_config(), 8, 32, 2, 4),
    "default_224": (ModelConfig(num_classes=3), 1, 224, 3, 2),
}


def _calls(prof: cProfile.Profile) -> int:
    """Every call `prof` recorded, summed over its raw entries: `pstats`
    keys functions by (file, line, name), under which the dataclasses'
    generated `__init__`s (all `<string>:2`) overwrite each other in an
    order that changes from process to process."""
    return sum(entry.callcount for entry in prof.getstats())


def calls_per_step(cfg: ModelConfig, batch: int, size: int, classes: int,
                   steps: int) -> float:
    """cProfile's call count over steps 1..`steps` of a `train()` run,
    divided by `steps`."""
    data = synth_dataset(batch, size, size, classes, seed=1)
    prof = cProfile.Profile()
    orig = training.batch_indices

    def batch_indices(seed, step, *args):
        if step == 1:
            prof.enable()
        elif step == steps + 1:
            prof.disable()
        return orig(seed, step, *args)

    training.batch_indices = batch_indices
    try:
        with tempfile.TemporaryDirectory() as tmp:
            train(build_model(cfg), data,
                  TrainConfig(batch_size=batch, max_steps=steps + 2, seed=0), out_dir=tmp)
    finally:
        training.batch_indices = orig
    return _calls(prof) / steps


def calls_per_infer() -> int:
    """cProfile's call count of the second of two `sdah infer` calls in one
    process, the CLI's output line included."""
    with tempfile.TemporaryDirectory() as tmp:
        image = Path(tmp) / "image.sdt"
        save_sdt1(image, synth_dataset(1, 128, 128, 2, seed=1)[0].image.data)
        argv = ["infer", "--ckpt", str(ROOT / "perfbench" / "micro_desk.sdck"),
                "--image", str(image), "--crop", "32", "--step", "16",
                "--out", str(Path(tmp) / "mask.sdt")]
        prof = cProfile.Profile()
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main(argv), prof.runcall(main, argv)]
    if codes != [0, 0]:
        raise RuntimeError(f"sdah infer exited {codes}")
    return _calls(prof)


if __name__ == "__main__":
    counts = {name: calls_per_step(*spec) for name, spec in CONFIGS.items()}
    print(json.dumps({**counts, "infer": calls_per_infer()}))
