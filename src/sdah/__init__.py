"""Shifted-window deformable attention hybrid U-Net on a numpy autodiff core.

Desk-scale segmentation stack: model construction and training, Gaussian
sliding-window inference, overlap/boundary metrics, and explanation exports
(attention heatmaps, deformation fields, gradient class activation maps).
"""

from .attention import SdmsaParams, SdmsaTrace, WindowLayout, sdmsa
from .blocks import SdapcBlockParams, init_sdapc, sdapc_block
from .explain import seg_grad_cam
from .gradcheck import GradCheckError, GradReport, grad_check
from .inference import SlidingConfig, gaussian_map, predict_mask, sliding_predict, tile_positions
from .io import (
    FormatError,
    load_checkpoint,
    load_sdt1,
    save_checkpoint,
    save_sdt1,
    write_pgm,
    write_ppm,
)
from .metrics import dsc, evaluate_pairs, hd95, paired_t_test
from .network import (
    BLOCK_IDS,
    Model,
    ModelConfig,
    build_model,
    count_flops,
    count_params,
    forward,
    load_model,
    save_model,
)
from .rng import Stream, derive_seed, splitmix64
from .tensor import (
    GradError,
    NumericsError,
    Tensor,
    default_dtype,
    no_grad,
)
from .training import (
    SegSample,
    TrainConfig,
    TrainingAborted,
    adam_step,
    combined_loss,
    load_dataset,
    lr_at,
    save_dataset,
    synth_dataset,
    synth_sample,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "BLOCK_IDS",
    "FormatError",
    "GradCheckError",
    "GradError",
    "GradReport",
    "Model",
    "ModelConfig",
    "NumericsError",
    "SdapcBlockParams",
    "SdmsaParams",
    "SdmsaTrace",
    "SegSample",
    "SlidingConfig",
    "Stream",
    "Tensor",
    "TrainConfig",
    "TrainingAborted",
    "WindowLayout",
    "adam_step",
    "build_model",
    "combined_loss",
    "count_flops",
    "count_params",
    "default_dtype",
    "derive_seed",
    "dsc",
    "evaluate_pairs",
    "forward",
    "gaussian_map",
    "grad_check",
    "hd95",
    "init_sdapc",
    "load_checkpoint",
    "load_dataset",
    "load_model",
    "load_sdt1",
    "lr_at",
    "no_grad",
    "paired_t_test",
    "predict_mask",
    "save_checkpoint",
    "save_dataset",
    "save_model",
    "save_sdt1",
    "sdapc_block",
    "sdmsa",
    "seg_grad_cam",
    "sliding_predict",
    "splitmix64",
    "synth_dataset",
    "synth_sample",
    "tile_positions",
    "train",
    "write_pgm",
    "write_ppm",
]
