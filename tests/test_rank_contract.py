"""Layers take (B, C, H, W) batches and (B, n_w, heads, P, d) windows only:
an unbatched (C, H, W) input, or windows without their head axis, raise."""

import numpy as np
import pytest

from sdah.attention import SdmsaParams, WindowLayout, sdmsa, window_merge, window_partition
from sdah.blocks import init_sdapc, sdapc_block
from sdah.convops import conv2d, deconv2d
from sdah.network import ModelConfig, build_model, forward
from sdah.rng import Stream
from sdah.tensor import Tensor
from sdah.training import ce_loss, dice_loss

LAY = WindowLayout(8, 8, 4, 2)
MICRO = ModelConfig(window_sizes=(4, 4, 2, 2), num_heads=(2, 2, 4, 4))
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
    "forward": lambda: forward(build_model(MICRO), _x(1, 32, 32)),
    "dice_loss": lambda: dice_loss(_x(2, 8, 8), LABEL),
    "ce_loss": lambda: ce_loss(_x(2, 8, 8), LABEL),
}


@pytest.mark.parametrize("name", list(CALLS))
def test_unbatched_input_raises(name):
    with pytest.raises(ValueError):
        CALLS[name]()
