"""The full segmentation network: stem, 3+1+3 hybrid blocks, expansion head.

Stage i runs at 1/4 * 2^-i of the input resolution with width
stage_widths[i]; the decoder mirrors encoder widths and takes skip
connections from the matching encoder stage.  Window shifts alternate by
stage parity, and a stage whose map is smaller than its configured window
runs with the window capped at the map size (relative-position tables keep
their configured extent, so checkpoints are resolution-independent).

Parameter/FLOP accounting lives here too.  FLOP constants: 2 FLOPs per
conv/matmul MAC, 8 per bilinearly sampled value per channel, 5 per softmax
element; purely elementwise work (activations, norms, residuals) is not
counted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields as dc_fields

import numpy as np

from . import blocks as B
from .attention import OFFSET_KERNEL, WindowLayout, effective_window
from .io import load_checkpoint, save_checkpoint
from .rng import Stream
from .tensor import Tensor, add, batched

BLOCK_IDS = ("enc1", "enc2", "enc3", "bottleneck", "dec3", "dec2", "dec1")
STAGE_OF_BLOCK = {
    "enc1": 0, "enc2": 1, "enc3": 2, "bottleneck": 3,
    "dec3": 2, "dec2": 1, "dec1": 0,
}
CONFIG_KEY = "meta.config_json"
STEP_KEY = "meta.step"


def _parse_flags(v) -> tuple[bool, bool, bool, bool]:
    if isinstance(v, str):
        if len(v) != 4 or set(v) - {"D", "N"}:
            raise ValueError(f"deform_flags string must be 4 of D/N, got {v!r}")
        return tuple(ch == "D" for ch in v)
    t = tuple(bool(x) for x in v)
    if len(t) != 4:
        raise ValueError("deform_flags needs exactly 4 entries")
    return t


def _same_kind(value, default) -> bool:
    """Whether a parsed JSON value may stand where the config default does."""
    if type(default) is list:
        return type(value) is list and all(_same_kind(v, default[0]) for v in value)
    if type(default) is float and type(value) is int:
        return True
    return type(value) is type(default) and (type(value) is not float
                                             or math.isfinite(value))


def config_from_dict(cls, d, section: str):
    """Build the config dataclass `cls` from one parsed JSON section.

    The section must be an object whose keys are fields of `cls` and whose
    values have the JSON kind of that field's default (bool, integer,
    finite number, list of integers, string); anything else raises
    ValueError before the constructor sees it.
    """
    if not isinstance(d, dict):
        raise ValueError(f"{section} config must be a JSON object, got {d!r}")
    defaults = cls().to_dict()
    unknown = set(d) - set(defaults)
    if unknown:
        raise ValueError(f"unknown {section} config keys: {sorted(unknown)}")
    for key, value in d.items():
        if not _same_kind(value, defaults[key]):
            raise ValueError(f"{section} config {key}={value!r} does not match "
                             f"the type of its default {defaults[key]!r}")
    return cls(**d)


@dataclass
class ModelConfig:
    in_channels: int = 1
    num_classes: int = 2
    stem_width: int = 8
    stage_widths: tuple = (8, 16, 32, 64)
    window_sizes: tuple = (7, 7, 7, 7)
    num_heads: tuple = (2, 2, 4, 4)
    deform_flags: tuple = "DDDD"
    branch_mode: str = "dual"
    gamma_off: float = 1.0
    mlp_ratio: int = 4
    fusion: str = "concat"
    seed: int = 0
    clamp_to_window: bool = False

    def __post_init__(self):
        self.stage_widths = tuple(int(w) for w in self.stage_widths)
        self.window_sizes = tuple(int(w) for w in self.window_sizes)
        self.num_heads = tuple(int(h) for h in self.num_heads)
        self.deform_flags = _parse_flags(self.deform_flags)
        if self.in_channels < 1 or self.stem_width < 1 or self.mlp_ratio < 1:
            raise ValueError("config counts must be positive")
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        for name, t in (("stage_widths", self.stage_widths),
                        ("window_sizes", self.window_sizes),
                        ("num_heads", self.num_heads)):
            if len(t) != 4 or min(t) < 1:
                raise ValueError(f"{name} needs 4 positive entries, got {t}")
        if self.stage_widths[0] != self.stem_width:
            raise ValueError("stage_widths[0] must equal stem_width")
        if self.stem_width % 2:
            raise ValueError("stem_width must be even")
        for i in range(3):
            if self.stage_widths[i + 1] != 2 * self.stage_widths[i]:
                raise ValueError("stage widths must double at each stage")
        for w, h in zip(self.stage_widths, self.num_heads):
            if w % h:
                raise ValueError(f"{h} heads do not divide width {w}")
        if self.branch_mode not in B.BRANCH_MODES:
            raise ValueError(f"branch_mode must be one of {B.BRANCH_MODES}")
        if self.fusion not in B.FUSION_MODES:
            raise ValueError(f"fusion must be one of {B.FUSION_MODES}")
        if self.gamma_off <= 0:
            raise ValueError("gamma_off must be positive")

    @property
    def flags_string(self) -> str:
        return "".join("D" if f else "N" for f in self.deform_flags)

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in dc_fields(self)}
        d["deform_flags"] = self.flags_string
        for k in ("stage_widths", "window_sizes", "num_heads"):
            d[k] = list(d[k])
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return config_from_dict(cls, d, "model")


@dataclass
class ForwardInfo:
    traces: dict = field(default_factory=dict)  # block id -> SdmsaTrace | None
    taps: dict = field(default_factory=dict)    # block id -> output Tensor


@dataclass
class Model:
    config: ModelConfig
    stem: B.ConvEmbedParams
    blocks: dict            # block id -> SdapcBlockParams
    downs: list             # 3 ConvParams, after enc1..enc3
    ups: list               # 3 ConvParams, before dec3..dec1
    fuses: list             # 3 ConvParams, for dec3..dec1
    head: B.ConvParams

    def named_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for k, v in self.stem.named_tensors().items():
            out[f"stem.{k}"] = v
        for bid in BLOCK_IDS:
            for k, v in self.blocks[bid].named_tensors().items():
                out[f"{bid}.{k}"] = v
        for i, p in enumerate(self.downs, start=1):
            for k, v in p.named_tensors().items():
                out[f"down{i}.{k}"] = v
        for i, p in zip((3, 2, 1), self.ups):
            for k, v in p.named_tensors().items():
                out[f"up{i}.{k}"] = v
        for i, p in zip((3, 2, 1), self.fuses):
            for k, v in p.named_tensors().items():
                out[f"fuse{i}.{k}"] = v
        for k, v in self.head.named_tensors().items():
            out[f"head.{k}"] = v
        return out

    def set_parameters(self, named: dict[str, np.ndarray]) -> None:
        mine = self.named_parameters()
        missing = set(mine) - set(named)
        extra = set(named) - set(mine)
        if missing or extra:
            raise ValueError(
                f"parameter names differ: missing {sorted(missing)[:4]}, "
                f"unexpected {sorted(extra)[:4]}"
            )
        for name, t in mine.items():
            arr = np.asarray(named[name])
            if arr.shape != t.data.shape:
                raise ValueError(
                    f"{name}: shape {arr.shape} != expected {t.data.shape}"
                )
            t.data = arr.astype(t.data.dtype, copy=True)
            t.grad = None
            t._ctx = None

    def __call__(self, x) -> Tensor:
        return forward(self, x)[0]


def build_model(config: ModelConfig) -> Model:
    """All parameters drawn from one seeded stream in a fixed order."""
    cfg = config
    stream = Stream(cfg.seed)
    stem = B.init_conv_embed(cfg.in_channels, cfg.stem_width, stream)

    def make_block(stage: int) -> B.SdapcBlockParams:
        return B.init_sdapc(
            cfg.stage_widths[stage], cfg.num_heads[stage],
            cfg.window_sizes[stage], stream,
            deform=cfg.deform_flags[stage], branch_mode=cfg.branch_mode,
            fusion=cfg.fusion, mlp_ratio=cfg.mlp_ratio,
            gamma_off=cfg.gamma_off, clamp_to_window=cfg.clamp_to_window,
        )

    blocks: dict[str, B.SdapcBlockParams] = {}
    downs, ups, fuses = [], [], []
    blocks["enc1"] = make_block(0)
    downs.append(B.init_downsample(cfg.stage_widths[0], stream))
    blocks["enc2"] = make_block(1)
    downs.append(B.init_downsample(cfg.stage_widths[1], stream))
    blocks["enc3"] = make_block(2)
    downs.append(B.init_downsample(cfg.stage_widths[2], stream))
    blocks["bottleneck"] = make_block(3)
    for stage in (2, 1, 0):
        ups.append(B.init_upsample(cfg.stage_widths[stage + 1], stream))
        fuses.append(B.init_skip_fuse(cfg.stage_widths[stage], stream))
        blocks[("dec3", "dec2", "dec1")[2 - stage]] = make_block(stage)
    head = B.init_head(cfg.stage_widths[0], cfg.num_classes, stream)
    return Model(cfg, stem, blocks, downs, ups, fuses, head)


def stage_layout(cfg: ModelConfig, stage: int, h: int, w: int) -> WindowLayout:
    """Layout for a stage map of size (h, w); shift alternates by parity."""
    ws = effective_window(cfg.window_sizes[stage], h, w)
    if h % ws or w % ws:
        raise ValueError(
            f"stage {stage}: window {ws} does not divide map {h}x{w}"
        )
    shift = ws // 2 if stage % 2 == 1 else 0
    return WindowLayout(h, w, ws, shift)


def forward(model: Model, image, taps=(), inject=None,
            ) -> tuple[Tensor, ForwardInfo]:
    """(B,C_in,H,W) or (C_in,H,W) -> logits of the same spatial size.

    `taps` names blocks whose output tensors are kept in the info object
    (still attached to the graph, so their .grad fills in on backward).
    `inject` maps block ids to arrays added onto that block's output —
    the hook used to validate attribution maps by finite differences.
    """
    cfg = model.config
    x, unbatch = batched(image)
    if x.shape[1] != cfg.in_channels:
        raise ValueError(f"expected (B,{cfg.in_channels},H,W), got {x.shape}")
    h, w = x.shape[2], x.shape[3]
    if h % 32 or w % 32:
        raise ValueError(f"input size must be divisible by 32, got {h}x{w}")
    inject = dict(inject or {})
    bad = (set(taps) | set(inject)) - set(BLOCK_IDS)
    if bad:
        raise ValueError(f"unknown block ids: {sorted(bad)}")
    info = ForwardInfo()

    def run_block(bid: str, t: Tensor) -> Tensor:
        stage = STAGE_OF_BLOCK[bid]
        layout = stage_layout(cfg, stage, t.shape[2], t.shape[3])
        out, trace = B.sdapc_block(t, model.blocks[bid], layout)
        if bid in inject:
            out = add(out, Tensor(np.asarray(inject.pop(bid)), dtype=out.dtype))
        info.traces[bid] = trace
        if bid in taps:
            info.taps[bid] = out
        return out

    t = B.conv_embed(x, model.stem)
    e1 = run_block("enc1", t)
    e2 = run_block("enc2", B.downsample(e1, model.downs[0]))
    e3 = run_block("enc3", B.downsample(e2, model.downs[1]))
    bn = run_block("bottleneck", B.downsample(e3, model.downs[2]))
    d3 = run_block("dec3", B.skip_fuse(B.upsample(bn, model.ups[0]), e3, model.fuses[0]))
    d2 = run_block("dec2", B.skip_fuse(B.upsample(d3, model.ups[1]), e2, model.fuses[1]))
    d1 = run_block("dec1", B.skip_fuse(B.upsample(d2, model.ups[2]), e1, model.fuses[2]))
    logits = B.deconv_expand(d1, model.head)

    if inject:
        raise ValueError(f"inject refers to blocks that never ran: {sorted(inject)}")
    return unbatch(logits), info


# -- accounting ---------------------------------------------------------------

def count_params(model: Model) -> int:
    return int(sum(t.size for t in model.named_parameters().values()))


def _conv_flops(cout: int, cin_per_group: int, k: int, out_hw: int) -> int:
    return 2 * cout * cin_per_group * k * k * out_hw


def _block_flops(p: B.SdapcBlockParams, cfg_ws: int, nh: int,
                 h: int, w: int) -> int:
    c = p.channels
    pos = h * w
    ws = effective_window(cfg_ws, h, w)
    pp = ws * ws
    d = c // nh
    total = 0
    # division 1: dw7 + 2-layer MLP
    total += _conv_flops(c, 1, B.DW_KERNEL, pos)
    hidden = p.fc1_w.shape[1]
    total += 2 * pos * c * hidden + 2 * pos * hidden * c
    # division 2
    if p.branch_mode != "conv_only":
        total += 3 * 2 * pos * c * d          # q, k, v per-head projections
        if p.attn.deformable:
            total += _conv_flops(c, 1, OFFSET_KERNEL, pos)
            total += 2 * (2 * nh) * d * pos   # grouped 1x1 to (dy, dx)
            total += 8 * pos * c              # key/value gathering
            total += 8 * pos * nh * pp        # bias interpolation per pair
        else:
            total += 8 * nh * pp * pp         # bias lookup, shared across windows
        total += 2 * pos * pp * c             # q @ k^T
        total += 5 * pos * nh * pp            # softmax
        total += 2 * pos * pp * c             # attn @ v
        total += 2 * pos * c * c              # head mixing
    if p.branch_mode != "sdmsa_only":
        total += _conv_flops(c, 1, B.DW_KERNEL, pos)
    total += 2 * pos * p.fc_out_w.shape[0] * c
    return total


def count_flops(model: Model, h: int, w: int) -> int:
    """FLOPs of one single-image forward at input size (h, w)."""
    cfg = model.config
    if h % 32 or w % 32:
        raise ValueError("input size must be divisible by 32")
    c0 = cfg.stem_width
    total = 0
    # stem: 3x3 convs, strides 2,1,2,1
    chans = [cfg.in_channels, c0 // 2, c0 // 2, c0, c0]
    hh, ww = h, w
    for i, s in enumerate((2, 1, 2, 1)):
        hh, ww = hh // s, ww // s
        total += _conv_flops(chans[i + 1], chans[i], 3, hh * ww)
    sizes = [(h // 4, w // 4), (h // 8, w // 8), (h // 16, w // 16), (h // 32, w // 32)]
    for st, (sh, sw) in enumerate(sizes):
        stage_layout(cfg, st, sh, sw)  # validates window divisibility
    for bid in BLOCK_IDS:
        st = STAGE_OF_BLOCK[bid]
        sh, sw = sizes[st]
        total += _block_flops(model.blocks[bid], cfg.window_sizes[st],
                              cfg.num_heads[st], sh, sw)
    for st in range(3):
        sh, sw = sizes[st + 1]
        total += _conv_flops(cfg.stage_widths[st + 1], cfg.stage_widths[st],
                             2, sh * sw)
    for st in (2, 1, 0):
        sh, sw = sizes[st + 1]
        # deconv counted at its input resolution
        total += 2 * cfg.stage_widths[st + 1] * cfg.stage_widths[st] * 4 * sh * sw
        fh, fw = sizes[st]
        total += _conv_flops(cfg.stage_widths[st], 2 * cfg.stage_widths[st],
                             1, fh * fw)
    total += 2 * cfg.stage_widths[0] * cfg.num_classes * 16 * (h // 4) * (w // 4)
    return total


# -- checkpoints --------------------------------------------------------------

def _json_u8(obj) -> np.ndarray:
    return np.frombuffer(json.dumps(obj, sort_keys=True).encode(), dtype=np.uint8).copy()


def save_model(path, model: Model, extra: dict | None = None) -> None:
    """Write parameters plus the embedded config (and optional metadata)."""
    named = {name: t.data for name, t in model.named_parameters().items()}
    named[CONFIG_KEY] = _json_u8(model.config.to_dict())
    for k, v in (extra or {}).items():
        named[f"meta.{k}"] = np.asarray(v)
    save_checkpoint(path, named)


def load_model(path) -> tuple[Model, dict]:
    """Rebuild the model a checkpoint describes; returns (model, metadata)."""
    named = load_checkpoint(path)
    if CONFIG_KEY not in named:
        raise ValueError("checkpoint carries no embedded config")
    cfg = ModelConfig.from_dict(json.loads(bytes(named.pop(CONFIG_KEY)).decode()))
    meta = {k[len("meta."):]: named.pop(k) for k in list(named) if k.startswith("meta.")}
    model = build_model(cfg)
    model.set_parameters(named)
    return model, meta
