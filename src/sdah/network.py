"""The full segmentation network: stem, 3+1+3 hybrid blocks, expansion head.

Stage i runs at 1/4 * 2^-i of the input resolution with width
stage_widths[i]; the decoder mirrors encoder widths and takes skip
connections from the matching encoder stage.  Window shifts alternate by
stage parity, and a stage whose map is smaller than its configured window
runs with the window capped at the map size (relative-position tables keep
their configured extent, so checkpoints are resolution-independent).

`forward` and the accounting read every width, kernel, head count and branch
off the weights.  FLOPs: 2 * weight size * pixels per conv, deconv or FC
layer (a conv at its output pixels, a deconv at its input pixels); attention
adds 2 * pixels * patches * channels for each of scores and values, 5 per
softmax element, 8 per sampled value per channel and 8 per bias read for each
query-key pair and head (a plain layer makes one read every window shares).
Elementwise work (activations, norms, residuals) is not counted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields as dc_fields

import numpy as np

from . import blocks as B
from . import tensor as T
from .attention import WindowLayout
from .io import load_checkpoint, save_checkpoint
from .rng import Stream
from .tensor import NumericsError, Tensor, _as_tensor, _checked_once, _collect_tensors, _scope

BLOCK_IDS = ("enc1", "enc2", "enc3", "bottleneck", "dec3", "dec2", "dec1")
STAGE_OF_BLOCK = {
    "enc1": 0, "enc2": 1, "enc3": 2, "bottleneck": 3,
    "dec3": 2, "dec2": 1, "dec1": 0,
}
# Checkpoint prefixes, in checkpoint order.  down<i> takes enc<i>'s output
# (stage i-1) to stage i; up<i> and fuse<i> bring stage i back for dec<i>.
LAYER_IDS = ("stem", *BLOCK_IDS, "down1", "down2", "down3",
             "up3", "up2", "up1", "fuse3", "fuse2", "fuse1", "head")
CONFIG_KEY = "meta.config_json"


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
    deform_flags: str = "DDDD"    # one D (deformable) or N (plain) per stage
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
        if (not isinstance(self.deform_flags, str) or len(self.deform_flags) != 4
                or set(self.deform_flags) - {"D", "N"}):
            raise ValueError(f"deform_flags must be 4 of D/N, got {self.deform_flags!r}")
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

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in dc_fields(self)}
        for k in ("stage_widths", "window_sizes", "num_heads"):
            d[k] = list(d[k])
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return config_from_dict(cls, d, "model")


def micro_config(**overrides) -> ModelConfig:
    """The desk-scale model the desk benchmark and ablation sweep train at
    32x32: the defaults with (4, 4, 2, 2) windows, fresh on every call."""
    return ModelConfig(**{"window_sizes": (4, 4, 2, 2), **overrides})


@dataclass
class ForwardInfo:
    traces: dict = field(default_factory=dict)   # block id -> SdmsaTrace | None
    outputs: dict = field(default_factory=dict)  # block id -> output Tensor


@dataclass
class Model:
    config: ModelConfig
    layers: dict  # checkpoint prefix -> layer parameters, in LAYER_IDS order

    @property
    def blocks(self) -> dict:
        """The seven hybrid blocks by id (a fresh dict over `layers`)."""
        return {bid: self.layers[bid] for bid in BLOCK_IDS}

    def named_parameters(self) -> dict[str, Tensor]:
        """Every layer's tensors, named `<layer id>.<field path>`."""
        out: dict[str, Tensor] = {}
        for lid, p in self.layers.items():
            _collect_tensors(p, lid + ".", out)
        return out

    def set_parameters(self, named: dict[str, np.ndarray]) -> None:
        """Replace every tensor, or none: names, shapes and float dtypes are
        checked as the arrays are copied into one new vector (`_pack`, which
        casts them to the tensors' dtype), and that vector is checked for
        finite values before the first assignment."""
        mine = self.named_parameters()
        missing = set(mine) - set(named)
        extra = set(named) - set(mine)
        if missing or extra:
            raise ValueError(
                f"parameter names differ: missing {sorted(missing)[:4]}, "
                f"unexpected {sorted(extra)[:4]}"
            )
        w, views = _pack(mine, [named[name] for name in mine])
        if not T._finite(w):
            for name, view in zip(mine, views):
                if not T._finite(view):
                    raise NumericsError(f"{name} has non-finite values")
        for t, view in zip(mine.values(), views):
            t.data = view
            t.grad = None
            t._ctx = None

    def __call__(self, x) -> Tensor:
        return forward(self, x)[0]


def _pack(tensors: dict[str, Tensor], arrays: list) -> tuple[np.ndarray, list[np.ndarray]]:
    """One new vector holding `arrays`, one per named tensor and in its
    order, back to back, and each array's contiguous view into it.  The
    vector's dtype is the tensors' common one, and each array is cast as it
    is copied in.  Raises ValueError naming the tensor when an array does
    not have its tensor's shape or is not a float array."""
    w = np.empty(sum(t.data.size for t in tensors.values()),
                 np.result_type(*[t.data.dtype for t in tensors.values()]))
    views, pos = [], 0
    for (name, t), a in zip(tensors.items(), arrays):
        a = np.asarray(a)
        if a.shape != t.data.shape:
            raise ValueError(f"{name}: shape {a.shape} != expected {t.data.shape}")
        if a.dtype.kind != "f":
            raise ValueError(f"{name}: dtype {a.dtype} is not a float")
        end = pos + a.size
        view = w[pos:end].reshape(a.shape)
        view[...] = a
        views.append(view)
        pos = end
    return w, views


class _Zeros:
    """Stands in for the `Stream` when a checkpoint supplies every weight:
    each draw is zeros of its shape in the tensors' dtype, so no random
    number is made and no draw is cast."""

    @staticmethod
    def uniform(shape, lo: float, hi: float) -> np.ndarray:
        return np.zeros(shape, T._default_dtype)


def build_model(config: ModelConfig, *, _stream=None) -> Model:
    """All parameters drawn from one seeded stream in U-Net order (stem,
    enc1, down1, ..., bottleneck, up3, fuse3, dec3, ..., head).  Only
    `load_model` passes `_stream` (a `_Zeros`): its checkpoint then
    replaces every weight."""
    cfg = config
    stream = Stream(cfg.seed) if _stream is None else _stream

    def make_block(stage: int) -> B.SdapcBlockParams:
        return B.init_sdapc(
            cfg.stage_widths[stage], cfg.num_heads[stage],
            cfg.window_sizes[stage], stream,
            deform=cfg.deform_flags[stage] == "D", branch_mode=cfg.branch_mode,
            fusion=cfg.fusion, mlp_ratio=cfg.mlp_ratio,
            gamma_off=cfg.gamma_off, clamp_to_window=cfg.clamp_to_window,
        )

    drawn = {"stem": B.init_conv_embed(cfg.in_channels, cfg.stem_width, stream)}
    for i in (1, 2, 3):
        drawn[f"enc{i}"] = make_block(i - 1)
        drawn[f"down{i}"] = B.init_downsample(cfg.stage_widths[i - 1], stream)
    drawn["bottleneck"] = make_block(3)
    for i in (3, 2, 1):
        drawn[f"up{i}"] = B.init_upsample(cfg.stage_widths[i], stream)
        drawn[f"fuse{i}"] = B.init_skip_fuse(cfg.stage_widths[i - 1], stream)
        drawn[f"dec{i}"] = make_block(i - 1)
    drawn["head"] = B.init_head(cfg.stage_widths[0], cfg.num_classes, stream)
    return Model(cfg, {lid: drawn[lid] for lid in LAYER_IDS})


def stage_layout(ws: int, stage: int, h: int, w: int) -> WindowLayout:
    """The (h, w) map's layout: window `ws` capped by the map, odd stages shifted."""
    ws = min(ws, h, w)
    return WindowLayout(h, w, ws, ws // 2 if stage % 2 else 0)


def block_layouts(model: Model, h: int, w: int) -> dict:
    """Every block's window layout for an (h, w) input, by block id, or
    None for a block without attention (so a conv-only model takes any
    size divisible by 32).  Raises ValueError naming the first block whose
    window does not divide its map."""
    if h % 32 or w % 32:
        raise ValueError(f"input size must be divisible by 32, got {h}x{w}")
    layouts = {}
    for bid in BLOCK_IDS:
        st, a = STAGE_OF_BLOCK[bid], model.layers[bid].sdmsa
        sh, sw = h // (4 << st), w // (4 << st)
        try:
            layouts[bid] = None if a is None else stage_layout(a.ws, st, sh, sw)
        except ValueError as e:
            raise ValueError(f"{bid}: {e} (input {h}x{w})") from None
    return layouts


def forward(model: Model, image) -> tuple[Tensor, ForwardInfo]:
    """(B, C_in, H, W) -> (B, K, H, W) logits.

    The input geometry is checked before any layer runs.  The info object
    keeps each block's attention trace and its output tensor (still
    attached to the graph, so its .grad fills in on backward).  A
    non-finite pixel raises NumericsError naming the input image.

    The layers run through `tensor._checked_once`: without per-op finite
    checks, with the logits checked once, and again with every check on to
    name the first failing op (`enc2: layer_norm produced non-finite
    values`) when they are not finite.
    """
    x = _as_tensor(image)
    if not T._finite(x.data):
        raise NumericsError("input image has non-finite values")
    in_channels = model.layers["stem"].conv[0].w.shape[1]
    if x.ndim != 4 or x.shape[1] != in_channels:
        raise ValueError(f"expected (B,{in_channels},H,W), got {x.shape}")
    layouts = block_layouts(model, x.shape[2], x.shape[3])
    return _checked_once(lambda: _run_layers(model.layers, x, layouts),
                         lambda out: T._finite(out[0].data))


def _run_layers(layers: dict, x: Tensor, layouts: dict) -> tuple[Tensor, ForwardInfo]:
    """The U-Net on an input `forward` has checked, each layer in its `_scope`."""
    info = ForwardInfo()

    def run(lid: str, layer, *args) -> Tensor:
        with _scope(lid):
            return layer(*args, layers[lid])

    def run_block(bid: str, t: Tensor) -> Tensor:
        with _scope(bid):
            out, info.traces[bid] = B.sdapc_block(t, layers[bid], layouts[bid])
        info.outputs[bid] = out
        return out

    t = run("stem", B.conv_embed, x)
    skips = {}
    for i in (1, 2, 3):
        skips[i] = run_block(f"enc{i}", t)
        t = run(f"down{i}", B.downsample, skips[i])
    t = run_block("bottleneck", t)
    for i in (3, 2, 1):
        t = run(f"fuse{i}", B.skip_fuse, run(f"up{i}", B.upsample, t), skips[i])
        t = run_block(f"dec{i}", t)
    return run("head", B.deconv_expand, t), info


# -- accounting ---------------------------------------------------------------

def count_params(model: Model) -> int:
    return int(sum(t.size for t in model.named_parameters().values()))


def _flops(weight: Tensor, pixels: int) -> int:
    """A conv, deconv or FC layer: 2 FLOPs per weight per pixel."""
    return 2 * weight.size * pixels


def _block_flops(p: B.SdapcBlockParams, pos: int,
                 layout: WindowLayout | None) -> int:
    total = sum(_flops(g.w, pos) for g in (p.dw1, p.fc1, p.fc2, p.fc_out))
    if p.dw2 is not None:
        total += _flops(p.dw2.w, pos)
    a = p.sdmsa
    if a is not None:
        c, nh, pp = p.channels, a.n_heads, layout.ws ** 2
        total += sum(_flops(t, pos) for t in (a.wq, a.wk, a.wv, a.wo))
        if a.deformable:
            total += _flops(a.off_dw_w, pos) + _flops(a.off_pw_w, pos)
            total += 8 * pos * c              # key/value gathering
            total += 8 * pos * nh * pp        # bias read per query-key pair
        else:
            total += 8 * nh * pp * pp         # one bias read, shared by windows
        total += 2 * 2 * pos * pp * c         # q @ k^T and attn @ v
        total += 5 * pos * nh * pp            # softmax
    return total


def count_flops(model: Model, h: int, w: int) -> int:
    """FLOPs of one single-image forward at input size (h, w)."""
    layouts = block_layouts(model, h, w)
    layers, total, s = model.layers, 0, 1
    for conv, stride in zip(layers["stem"].conv, B._STEM_STRIDES):
        s *= stride
        total += _flops(conv.w, (h // s) * (w // s))
    pixels = [(h // (4 << st)) * (w // (4 << st)) for st in range(4)]
    for bid in BLOCK_IDS:
        total += _block_flops(layers[bid], pixels[STAGE_OF_BLOCK[bid]], layouts[bid])
    for i in (1, 2, 3):
        total += _flops(layers[f"down{i}"].w, pixels[i])
        total += _flops(layers[f"up{i}"].w, pixels[i])
        total += _flops(layers[f"fuse{i}"].w, pixels[i - 1])
    return total + _flops(layers["head"].w, pixels[0])


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
    # copies, so the metadata does not keep the file's buffer alive
    meta = {k[len("meta."):]: named.pop(k).copy() for k in list(named)
            if k.startswith("meta.")}
    model = build_model(cfg, _stream=_Zeros())
    model.set_parameters(named)
    return model, meta
