"""Hybrid attention-convolution block and the stems around the U-shape.

Each block runs two residual divisions.  Division 1 is depthwise 7x7 ->
LN -> 2-layer MLP over channels.  Division 2 normalizes once, feeds the
result to windowed attention and a parallel depthwise 7x7, fuses the
branches (channel concat then FC by default, elementwise sum behind a
flag), and adds the residual.  With every learnable tensor zeroed each
division is the identity, which keeps layer-wise debugging trivial.

A block's parameters are only its tensors, or groups of them (`Affine`,
`Norm`), each named by its field path (`dw1.w`, `sdmsa.wq`): it runs the
branches it has weights for, and fuses two by concat exactly when the
output FC takes 2C inputs.

Features stay channel-first, (B, C, H, W), throughout: layer norms run
over axis 1 and the FC layers are `linear` channel mixes over it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .attention import SdmsaParams, SdmsaTrace, WindowLayout, _ones, _uniform, _zeros, sdmsa
from .convops import conv2d, deconv2d
from .rng import Stream
from .tensor import Params, Tensor, _as_tensor, concat, gelu, layer_norm, linear

DW_KERNEL = 7

BRANCH_MODES = ("dual", "sdmsa_only", "conv_only")
FUSION_MODES = ("concat", "sum")


@dataclass
class Affine(Params):
    """A conv, deconv or FC layer's weight and bias."""

    w: Tensor
    b: Tensor


@dataclass
class Norm(Params):
    """A layer norm's scale and shift."""

    g: Tensor
    b: Tensor


def _affine(stream: Stream, shape, fan_in: int, n_out: int) -> Affine:
    """A uniform(+-1/sqrt(fan_in)) weight of `shape` and a zero bias."""
    return Affine(_uniform(stream, shape, fan_in), _zeros((n_out,)))


def _norm(c: int) -> Norm:
    return Norm(_ones((c,)), _zeros((c,)))


@dataclass
class SdapcBlockParams(Params):
    # division 1
    dw1: Affine
    ln1: Norm
    fc1: Affine
    fc2: Affine
    # division 2
    ln2: Norm
    fc_out: Affine
    sdmsa: SdmsaParams | None
    dw2: Affine | None

    @property
    def channels(self) -> int:
        return self.dw1.w.shape[0]


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
    fused_width = 2 * c if (branch_mode == "dual" and fusion == "concat") else c
    # keyword order is the stream's draw order, which is not the field order
    return SdapcBlockParams(
        sdmsa=None if branch_mode == "conv_only" else SdmsaParams.init(
            c, n_heads, ws, stream, deform=deform, gamma_off=gamma_off,
            clamp_to_window=clamp_to_window,
        ),
        dw2=None if branch_mode == "sdmsa_only" else _affine(stream, (c, 1, k, k), k * k, c),
        dw1=_affine(stream, (c, 1, k, k), k * k, c),
        ln1=_norm(c),
        fc1=_affine(stream, (c, hidden), c, hidden),
        fc2=_affine(stream, (hidden, c), hidden, c),
        ln2=_norm(c),
        fc_out=_affine(stream, (fused_width, c), fused_width, c),
    )


def sdapc_division1(x: Tensor, p: SdapcBlockParams) -> Tensor:
    """Depthwise 7x7 -> LN -> FC -> GELU -> FC, residual around it all."""
    y = conv2d(x, p.dw1.w, p.dw1.b, padding=DW_KERNEL // 2, groups=p.channels)
    y = layer_norm(y, p.ln1.g, p.ln1.b)
    y = gelu(linear(y, p.fc1.w, p.fc1.b))
    return linear(y, p.fc2.w, p.fc2.b) + x


def sdapc_division2(xbar: Tensor, p: SdapcBlockParams,
                    layout: WindowLayout | None,
                    ) -> tuple[Tensor, SdmsaTrace | None]:
    """Attention and depthwise branches over one shared LN, fused, residual."""
    c = p.channels
    n = layer_norm(xbar, p.ln2.g, p.ln2.b)
    branches = []
    trace = None
    if p.sdmsa is not None:
        a, trace = sdmsa(n, p.sdmsa, layout)
        branches.append(a)
    if p.dw2 is not None:
        branches.append(conv2d(n, p.dw2.w, p.dw2.b, padding=DW_KERNEL // 2, groups=c))
    fused = branches[0]
    if len(branches) == 2:
        fused = concat(branches, 1) if p.fc_out.w.shape[0] == 2 * c else fused + branches[1]
    return linear(fused, p.fc_out.w, p.fc_out.b) + xbar, trace


def sdapc_block(x, p: SdapcBlockParams, layout: WindowLayout | None,
                ) -> tuple[Tensor, SdmsaTrace | None]:
    """(B, C, H, W) -> the same shape, plus the attention trace."""
    return sdapc_division2(sdapc_division1(_as_tensor(x), p), p, layout)


# -- stems and inter-stage resampling -----------------------------------------

_STEM_STRIDES = (2, 1, 2, 1)


@dataclass
class StemConv(Params):
    """One stem step: a 3x3 conv (w, b), GELU, then LN (ln_g, ln_b)."""

    w: Tensor
    b: Tensor
    ln_g: Tensor
    ln_b: Tensor


@dataclass
class ConvEmbedParams(Params):
    """Four 3x3 convs (strides 2,1,2,1), each followed by GELU then LN."""

    conv: list[StemConv]


def init_conv_embed(in_channels: int, width: int, stream: Stream) -> ConvEmbedParams:
    if width % 2:
        raise ValueError("stem width must be even")
    chans = [in_channels, width // 2, width // 2, width, width]
    return ConvEmbedParams([
        StemConv(_uniform(stream, (cout, cin, 3, 3), cin * 9), _zeros((cout,)),
                 _ones((cout,)), _zeros((cout,)))
        for cin, cout in zip(chans, chans[1:])
    ])


def conv_embed(x: Tensor, p: ConvEmbedParams) -> Tensor:
    """(B, C_in, H, W) -> (B, width, H/4, W/4); H, W divisible by 4."""
    if x.shape[-1] % 4 or x.shape[-2] % 4:
        raise ValueError(f"stem needs H,W divisible by 4, got {x.shape[-2:]}")
    for s, stride in zip(p.conv, _STEM_STRIDES):
        x = conv2d(x, s.w, s.b, stride=stride, padding=1, allow_floor=(stride == 2))
        x = gelu(x)
        x = layer_norm(x, s.ln_g, s.ln_b)
    return x


def init_head(channels: int, num_classes: int, stream: Stream) -> Affine:
    # deconv weight layout is (C_in, C_out, k, k)
    return _affine(stream, (channels, num_classes, 4, 4), channels, num_classes)


def deconv_expand(x: Tensor, p: Affine) -> Tensor:
    """(B, C, H, W) -> (B, K, 4H, 4W) with one kernel-4 stride-4 deconv."""
    return deconv2d(x, p.w, p.b, stride=4)


def init_downsample(channels: int, stream: Stream) -> Affine:
    return _affine(stream, (2 * channels, channels, 2, 2), channels * 4, 2 * channels)


def downsample(x: Tensor, p: Affine) -> Tensor:
    """Halve resolution, double channels (2x2 conv, stride 2)."""
    return conv2d(x, p.w, p.b, stride=2)


def init_upsample(channels: int, stream: Stream) -> Affine:
    return _affine(stream, (channels, channels // 2, 2, 2), channels, channels // 2)


def upsample(x: Tensor, p: Affine) -> Tensor:
    """Double resolution, halve channels (2x2 deconv, stride 2)."""
    return deconv2d(x, p.w, p.b, stride=2)


def init_skip_fuse(channels: int, stream: Stream) -> Affine:
    return _affine(stream, (channels, 2 * channels, 1, 1), 2 * channels, channels)


def skip_fuse(up: Tensor, skip: Tensor, p: Affine) -> Tensor:
    """Concat decoder features with the encoder skip, 1x1 back to width."""
    if up.shape[-2:] != skip.shape[-2:]:
        raise ValueError(f"resolution mismatch: {up.shape[-2:]} vs {skip.shape[-2:]}")
    return conv2d(concat([up, skip], 1), p.w, p.b)
