#!/usr/bin/env python3
"""Python-level function calls per training step, counted with cProfile.

For the micro config (B=8, 32x32, 2 classes) and the default config (B=1,
224x224, 3 classes) it runs `train()` and profiles whole steps: a step
starts at its call into `training.batch_indices` and ends at the next
step's, as the benchmark times it.  Step 0 warms up and is not counted.
The count is fixed by the code's structure, not by the host or the map
size, so running the script on a change and on its parent shows how many
calls the change added or removed:

    python3 scripts/call_counts.py

prints one JSON object, calls per step by config.
"""

import cProfile
import json
import pstats
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import sdah.training as training
from sdah.network import ModelConfig, build_model, micro_config
from sdah.training import TrainConfig, synth_dataset, train

# (model config, batch, image side, classes, profiled steps)
CONFIGS = {
    "micro": (micro_config(), 8, 32, 2, 4),
    "default_224": (ModelConfig(num_classes=3), 1, 224, 3, 2),
}


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
    return pstats.Stats(prof).total_calls / steps


if __name__ == "__main__":
    print(json.dumps({name: calls_per_step(*spec) for name, spec in CONFIGS.items()}))
