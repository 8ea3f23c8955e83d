"""Hybrid attention-convolution block and the stems around the U-shape.

Each block runs two residual divisions.  Division 1 is depthwise 7x7 ->
LN -> 2-layer MLP over channels.  Division 2 normalizes once, feeds the
result to windowed attention and a parallel depthwise 7x7, fuses the
branches (channel concat then FC by default, elementwise sum behind a
flag), and adds the residual.  With every learnable tensor zeroed each
division is the identity, which keeps layer-wise debugging trivial.

A block's parameters are only its tensors: it runs the branches it has
weights for, and fuses two by concat exactly when the output FC takes 2C
inputs.

Features stay channel-first, (B, C, H, W), throughout: layer norms run
over axis 1 and the FC layers are `linear` channel mixes over it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import SdmsaParams, SdmsaTrace, WindowLayout, _uniform, _zeros, sdmsa
from .convops import conv2d, deconv2d
from .rng import Stream
from .tensor import Tensor, _as_tensor, concat, gelu, layer_norm, linear

DW_KERNEL = 7

BRANCH_MODES = ("dual", "sdmsa_only", "conv_only")
FUSION_MODES = ("concat", "sum")


def _ones(shape) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=True)


@dataclass
class SdapcBlockParams:
    # division 1
    dw1_w: Tensor
    dw1_b: Tensor
    ln1_g: Tensor
    ln1_b: Tensor
    fc1_w: Tensor
    fc1_b: Tensor
    fc2_w: Tensor
    fc2_b: Tensor
    # division 2
    ln2_g: Tensor
    ln2_b: Tensor
    attn: SdmsaParams | None
    dw2_w: Tensor | None
    dw2_b: Tensor | None
    fc_out_w: Tensor
    fc_out_b: Tensor

    @property
    def channels(self) -> int:
        return self.dw1_w.shape[0]

    def named_tensors(self) -> dict[str, Tensor]:
        out = {
            "dw1.w": self.dw1_w, "dw1.b": self.dw1_b,
            "ln1.g": self.ln1_g, "ln1.b": self.ln1_b,
            "fc1.w": self.fc1_w, "fc1.b": self.fc1_b,
            "fc2.w": self.fc2_w, "fc2.b": self.fc2_b,
            "ln2.g": self.ln2_g, "ln2.b": self.ln2_b,
            "fc_out.w": self.fc_out_w, "fc_out.b": self.fc_out_b,
        }
        if self.attn is not None:
            for k, v in self.attn.named_tensors().items():
                out[f"sdmsa.{k}"] = v
        if self.dw2_w is not None:
            out["dw2.w"] = self.dw2_w
            out["dw2.b"] = self.dw2_b
        return out


def init_sdapc(channels: int, n_heads: int, ws: int, stream: Stream,
               deform: bool = True, branch_mode: str = "dual",
               fusion: str = "concat", mlp_ratio: int = 4,
               gamma_off: float = 1.0,
               clamp_to_window: bool = False) -> SdapcBlockParams:
    if branch_mode not in BRANCH_MODES:
        raise ValueError(f"branch_mode must be one of {BRANCH_MODES}")
    if fusion not in FUSION_MODES:
        raise ValueError(f"fusion must be one of {FUSION_MODES}")
    c = channels
    hidden = mlp_ratio * c
    k = DW_KERNEL

    attn = None
    if branch_mode != "conv_only":
        attn = SdmsaParams.init(
            c, n_heads, ws, stream, deform=deform, gamma_off=gamma_off,
            clamp_to_window=clamp_to_window,
        )
    dw2_w = dw2_b = None
    if branch_mode != "sdmsa_only":
        dw2_w = _uniform(stream, (c, 1, k, k), k * k)
        dw2_b = _zeros((c,))
    fused_width = 2 * c if (branch_mode == "dual" and fusion == "concat") else c
    return SdapcBlockParams(
        dw1_w=_uniform(stream, (c, 1, k, k), k * k),
        dw1_b=_zeros((c,)),
        ln1_g=_ones((c,)),
        ln1_b=_zeros((c,)),
        fc1_w=_uniform(stream, (c, hidden), c),
        fc1_b=_zeros((hidden,)),
        fc2_w=_uniform(stream, (hidden, c), hidden),
        fc2_b=_zeros((c,)),
        ln2_g=_ones((c,)),
        ln2_b=_zeros((c,)),
        attn=attn,
        dw2_w=dw2_w,
        dw2_b=dw2_b,
        fc_out_w=_uniform(stream, (fused_width, c), fused_width),
        fc_out_b=_zeros((c,)),
    )


def sdapc_division1(x: Tensor, p: SdapcBlockParams) -> Tensor:
    """Depthwise 7x7 -> LN -> FC -> GELU -> FC, residual around it all."""
    y = conv2d(x, p.dw1_w, p.dw1_b, padding=DW_KERNEL // 2, groups=p.channels)
    y = layer_norm(y, p.ln1_g, p.ln1_b, axis=1)
    y = gelu(linear(y, p.fc1_w, p.fc1_b))
    return linear(y, p.fc2_w, p.fc2_b) + x


def sdapc_division2(xbar: Tensor, p: SdapcBlockParams,
                    layout: WindowLayout | None,
                    ) -> tuple[Tensor, SdmsaTrace | None]:
    """Attention and depthwise branches over one shared LN, fused, residual."""
    c = p.channels
    n = layer_norm(xbar, p.ln2_g, p.ln2_b, axis=1)
    branches = []
    trace = None
    if p.attn is not None:
        a, trace = sdmsa(n, p.attn, layout)
        branches.append(a)
    if p.dw2_w is not None:
        branches.append(conv2d(n, p.dw2_w, p.dw2_b, padding=DW_KERNEL // 2, groups=c))
    fused = branches[0]
    if len(branches) == 2:
        fused = concat(branches, 1) if p.fc_out_w.shape[0] == 2 * c else fused + branches[1]
    return linear(fused, p.fc_out_w, p.fc_out_b) + xbar, trace


def sdapc_block(x, p: SdapcBlockParams, layout: WindowLayout | None,
                ) -> tuple[Tensor, SdmsaTrace | None]:
    """(B, C, H, W) -> the same shape, plus the attention trace."""
    return sdapc_division2(sdapc_division1(_as_tensor(x), p), p, layout)


# -- stems and inter-stage resampling -----------------------------------------

_STEM_STRIDES = (2, 1, 2, 1)


@dataclass
class ConvEmbedParams:
    """Four 3x3 convs (strides 2,1,2,1), each followed by GELU then LN."""

    ws: list  # conv kernels
    bs: list  # conv biases
    gs: list  # LN scales
    betas: list  # LN shifts

    def named_tensors(self) -> dict[str, Tensor]:
        out = {}
        for i in range(len(self.ws)):
            out[f"conv{i}.w"] = self.ws[i]
            out[f"conv{i}.b"] = self.bs[i]
            out[f"conv{i}.ln_g"] = self.gs[i]
            out[f"conv{i}.ln_b"] = self.betas[i]
        return out


def init_conv_embed(in_channels: int, width: int, stream: Stream) -> ConvEmbedParams:
    if width % 2:
        raise ValueError("stem width must be even")
    chans = [in_channels, width // 2, width // 2, width, width]
    ws, bs, gs, betas = [], [], [], []
    for i in range(4):
        cin, cout = chans[i], chans[i + 1]
        ws.append(_uniform(stream, (cout, cin, 3, 3), cin * 9))
        bs.append(_zeros((cout,)))
        gs.append(_ones((cout,)))
        betas.append(_zeros((cout,)))
    return ConvEmbedParams(ws, bs, gs, betas)


def conv_embed(x: Tensor, p: ConvEmbedParams) -> Tensor:
    """(B, C_in, H, W) -> (B, width, H/4, W/4); H, W divisible by 4."""
    if x.shape[-1] % 4 or x.shape[-2] % 4:
        raise ValueError(f"stem needs H,W divisible by 4, got {x.shape[-2:]}")
    for w, b, g, beta, stride in zip(p.ws, p.bs, p.gs, p.betas, _STEM_STRIDES):
        x = conv2d(x, w, b, stride=stride, padding=1, allow_floor=(stride == 2))
        x = gelu(x)
        x = layer_norm(x, g, beta, axis=1)
    return x


@dataclass
class ConvParams:
    w: Tensor
    b: Tensor

    def named_tensors(self) -> dict[str, Tensor]:
        return {"w": self.w, "b": self.b}


def init_head(channels: int, num_classes: int, stream: Stream) -> ConvParams:
    # deconv weight layout is (C_in, C_out, k, k)
    return ConvParams(
        _uniform(stream, (channels, num_classes, 4, 4), channels),
        _zeros((num_classes,)),
    )


def deconv_expand(x: Tensor, p: ConvParams) -> Tensor:
    """(B, C, H, W) -> (B, K, 4H, 4W) with one kernel-4 stride-4 deconv."""
    return deconv2d(x, p.w, p.b, stride=4)


def init_downsample(channels: int, stream: Stream) -> ConvParams:
    return ConvParams(
        _uniform(stream, (2 * channels, channels, 2, 2), channels * 4),
        _zeros((2 * channels,)),
    )


def downsample(x: Tensor, p: ConvParams) -> Tensor:
    """Halve resolution, double channels (2x2 conv, stride 2)."""
    return conv2d(x, p.w, p.b, stride=2)


def init_upsample(channels: int, stream: Stream) -> ConvParams:
    return ConvParams(
        _uniform(stream, (channels, channels // 2, 2, 2), channels),
        _zeros((channels // 2,)),
    )


def upsample(x: Tensor, p: ConvParams) -> Tensor:
    """Double resolution, halve channels (2x2 deconv, stride 2)."""
    return deconv2d(x, p.w, p.b, stride=2)


def init_skip_fuse(channels: int, stream: Stream) -> ConvParams:
    return ConvParams(
        _uniform(stream, (channels, 2 * channels, 1, 1), 2 * channels),
        _zeros((channels,)),
    )


def skip_fuse(up: Tensor, skip: Tensor, p: ConvParams) -> Tensor:
    """Concat decoder features with the encoder skip, 1x1 back to width."""
    if up.shape[-2:] != skip.shape[-2:]:
        raise ValueError(f"resolution mismatch: {up.shape[-2:]} vs {skip.shape[-2:]}")
    return conv2d(concat([up, skip], 1), p.w, p.b)
