"""Layers take (B, C, H, W) batches and (B, n_w, heads, P, d) windows only:
an unbatched (C, H, W) input, or windows without their head axis, raise."""

import numpy as np
import pytest

from sdah.attention import SdmsaParams, WindowLayout, sdmsa, window_merge, window_partition
from sdah.blocks import init_sdapc, sdapc_block
from sdah.convops import conv2d, deconv2d
from sdah.network import build_model, forward, micro_config
from sdah.rng import Stream
from sdah.tensor import Tensor
from sdah.training import TrainConfig, combined_loss

LAY = WindowLayout(8, 8, 4, 2)
LABEL = np.zeros((8, 8), dtype=np.uint8)


def _x(*shape):
    return Tensor(Stream(0).normal(shape))


CALLS = {
    "conv2d": lambda: conv2d(_x(4, 8, 8), _x(4, 1, 3, 3), padding=1, groups=4),
    "deconv2d": lambda: deconv2d(_x(4, 8, 8), _x(4, 2, 2, 2), stride=2),
    "sdmsa": lambda: sdmsa(_x(8, 8, 8), SdmsaParams.init(8, 2, 4, Stream(1)), LAY),
    "sdapc_block": lambda: sdapc_block(_x(8, 8, 8), init_sdapc(8, 2, 4, Stream(1)), LAY),
    "window_partition": lambda: window_partition(_x(8, 8, 8), LAY),
    "window_merge": lambda: window_merge(_x(1, LAY.n_windows, LAY.patches, 8), LAY),
    "forward": lambda: forward(build_model(micro_config()), _x(1, 32, 32)),
    "combined_loss": lambda: combined_loss(_x(2, 8, 8), LABEL, TrainConfig()),
    "dice_loss": lambda: combined_loss(_x(2, 8, 8), LABEL, TrainConfig(lambda_ce=0.0)),
    "ce_loss": lambda: combined_loss(_x(2, 8, 8), LABEL, TrainConfig(lambda_dice=0.0)),
}


@pytest.mark.parametrize("name", list(CALLS))
def test_unbatched_input_raises(name):
    with pytest.raises(ValueError):
        CALLS[name]()
