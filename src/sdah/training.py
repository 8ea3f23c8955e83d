"""The dice+CE loss, optimizer, lr schedule, synthetic data, and the training loop.

The loop is deterministic end to end: parameters come from the config seed,
every batch's sample indices are a pure function of (seed, step), and the
optimizer is plain Adam over one parameter vector: `train()` packs the
model's tensors into it once, leaves each tensor's data a view into it, and
updates it as a whole array.  Loading a checkpoint and continuing from its
step therefore reproduces the next loss value bit-exactly; later losses
drift, because the Adam moments are not checkpointed (see ROADMAP.md).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, fields as dc_fields
from pathlib import Path

import numpy as np

from .io import FormatError, load_image, load_sdt1, save_sdt1
from .network import Model, _pack, config_from_dict, forward, save_model
from .rng import Stream, derive_seed
from .tensor import NumericsError, Tensor, _as_tensor, _checked_once, _keep_heap, _make

_BATCH_KEY = 0xB47C  # sub-stream tag for per-step batch sampling


class TrainingAborted(RuntimeError):
    """A value went non-finite; the message names the step, and the layer
    and op where one produced it."""


@dataclass
class TrainConfig:
    batch_size: int = 8
    base_lr: float = 2e-4
    decay_start_step: int = 50_000
    decay_every: int = 10_000
    decay_factor: float = 0.5
    max_steps: int = 2_000
    lambda_dice: float = 1.0
    lambda_ce: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if min(self.batch_size, self.decay_start_step, self.decay_every,
               self.max_steps) < 1:
            raise ValueError("config counts must be positive")
        if self.base_lr <= 0:
            raise ValueError("base_lr must be positive")
        if not 0.0 < self.decay_factor < 1.0:
            raise ValueError("decay_factor must lie in (0, 1)")
        if self.lambda_dice < 0 or self.lambda_ce < 0:
            raise ValueError("loss weights must be non-negative")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dc_fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return config_from_dict(cls, d, "train")


@dataclass
class SegSample:
    image: Tensor   # (C_in, H, W) float in [0, 1]
    label: Tensor   # (H, W) uint8 class ids
    classes: int

    def __post_init__(self):
        if self.classes < 2:
            raise ValueError(f"a sample needs at least 2 classes, got {self.classes}")
        if self.image.shape[-2:] != self.label.shape:
            raise ValueError("image and label sizes differ")
        if self.label.data.max(initial=0) >= self.classes:
            raise ValueError("label id outside [0, classes)")


# -- loss ---------------------------------------------------------------------

def combined_loss(logits, label, cfg: TrainConfig) -> tuple[Tensor, Tensor, Tensor]:
    """λ_dice·dice + λ_ce·CE of (B, K, H, W) logits against (B, H, W)
    integer labels, as one graph node in the logits' dtype; returns (loss,
    dice, ce), the last two graph-less 0-d Tensors for the log.

    With p the softmax over the class axis, g_c the indicator of class c and
    sums over batch and pixels, eps = 1e-5:
      dice = mean over c = 1..K-1 of 1 - (2·Σ p_c·g_c + eps) / (Σ p_c + Σ g_c + eps)
      ce   = mean over pixels of log-sum-exp(logits) - logit of the true class
    One max-shifted exp and its sum give both p and the log-sum-exp.
    """
    lg = _as_tensor(logits)
    lab = np.asarray(label)
    if lg.ndim != 4 or lab.shape != (lg.shape[0],) + lg.shape[2:]:
        raise ValueError(f"logits {lg.shape} do not match labels {lab.shape}")
    k = lg.shape[1]
    if k < 2 or lab.min(initial=0) < 0 or lab.max(initial=0) >= k:
        raise ValueError(f"need 2 or more classes and label ids in [0, {k})")
    lab = lab.astype(np.int64)[:, None]
    x = lg.data
    dt = x.dtype.type
    m = x.max(axis=1, keepdims=True)
    e = np.exp(x - m)
    s = e.sum(axis=1, keepdims=True)
    p = e / s
    picked = np.take_along_axis(x, lab, axis=1)
    n = picked.size
    ce = np.asarray(((np.log(s) + m) - picked).sum() / n, dtype=dt)
    eps = dt(1e-5)  # smooths each class term's numerator and denominator
    num, den = np.empty((2, 1, k - 1, 1, 1), dtype=dt)
    for c in range(1, k):
        gc = (lab == c).astype(dt)
        pc = np.ascontiguousarray(p[:, c:c + 1])
        num[0, c - 1] = dt(2.0) * (pc * gc).sum() + eps
        den[0, c - 1] = pc.sum() + dt(gc.sum()) + eps
    # python's sum adds the class terms one by one, in class order
    dice = sum(dt(1.0) - num.ravel() / den.ravel()) * dt(1.0 / (k - 1))
    loss = dice * dt(cfg.lambda_dice) + ce * dt(cfg.lambda_ce)
    w_dice, w_ce = cfg.lambda_dice / (k - 1), cfg.lambda_ce / n

    def bwd(g):
        onehot = (lab == np.arange(k)[:, None, None]).astype(dt)
        gp = np.zeros_like(p)  # d dice / d p, scaled by its weight
        gp[:, 1:] = num / (den * den) - 2.0 * onehot[:, 1:] / den
        gp *= w_dice
        dx = p * (gp - (gp * p).sum(axis=1, keepdims=True))  # softmax's VJP
        dx += w_ce * (p - onehot)
        return g * dx

    return (_make("combined_loss", np.asarray(loss), (lg,), bwd),
            Tensor(dice, dtype=dt), Tensor(ce, dtype=dt))


# -- schedule and optimizer ----------------------------------------------------

def lr_at(step: int, cfg: TrainConfig) -> float:
    """Constant until decay_start_step, then halved there and every
    decay_every steps after (first decay lands ON the start step)."""
    if step < cfg.decay_start_step:
        return cfg.base_lr
    k = 1 + (step - cfg.decay_start_step) // cfg.decay_every
    return cfg.base_lr * cfg.decay_factor ** k


@dataclass
class AdamState:
    m: np.ndarray   # first moment, shaped like the parameter vector
    v: np.ndarray   # second moment
    t: int = 0


def adam_step(w: np.ndarray, g: np.ndarray, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update of the parameter vector `w`, in place.

    A finite gradient can still overflow the second moment (in float32,
    once |g| passes about 1.8e19, where sqrt(v / c2) is inf on the first
    step): each such element's update would be m / inf = 0, so training
    would stop moving without an error.  The update is therefore computed
    with overflow warnings off and raises NumericsError, before `w` is
    touched, when the largest sqrt(v / c2) is not finite; the moments and
    step count have advanced by then."""
    if g.shape != w.shape:
        raise ValueError(f"grad shape {g.shape} != parameter shape {w.shape}")
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    state.t += 1
    c1 = 1.0 - beta1 ** state.t
    c2 = 1.0 - beta2 ** state.t
    m, v = state.m, state.v
    # w -= lr * (m / c1) / (sqrt(v / c2) + eps), step for step in two
    # scratch vectors instead of one temporary per operation
    s, r = np.empty_like(w), np.empty_like(w)
    with np.errstate(over="ignore"):
        m *= beta1
        m += np.multiply(g, 1.0 - beta1, out=s)
        v *= beta2
        np.multiply(g, 1.0 - beta2, out=s)
        v += np.multiply(s, g, out=s)
        np.divide(m, c1, out=s)
        s *= lr
        np.divide(v, c2, out=r)
    np.sqrt(r, out=r)
    if not np.isfinite(r.max()):
        raise NumericsError("adam: the second moment overflowed")
    r += eps
    s /= r
    w -= s


# -- synthetic data -------------------------------------------------------------

_INTENSITY = {0: 0.15, 1: 0.85, 2: 0.45, 3: 0.65}
_NOISE_SIGMA = 0.1


def _ellipse_mask(h: int, w: int, cy, cx, ry, rx) -> np.ndarray:
    yy, xx = np.ogrid[:h, :w]
    return ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0


def synth_sample(h: int, w: int, k: int, stream: Stream) -> SegSample:
    """One image: 1-3 shapes on a noisy background.

    Class ids: 0 background, 1 ellipse interior, 2 surrounding ring when
    k >= 3, 3 a small extra blob when k == 4.  Later shapes overwrite
    earlier labels; the image is a per-class intensity plus Gaussian noise,
    clipped to [0, 1].
    """
    label = np.zeros((h, w), dtype=np.uint8)
    n_shapes = 1 + int(stream.uniform(1)[0] * 3.0)
    lim = min(h, w)
    for s in range(n_shapes):
        cy, cx = stream.uniform(2, 0.3, 0.7) * (h, w)
        ry, rx = stream.uniform(2, lim / 6.0, lim / 4.0)
        if s == 0 and k >= 3:
            inner = stream.uniform(1, 0.4, 0.7)[0]
            label[_ellipse_mask(h, w, cy, cx, ry, rx)] = 2
            label[_ellipse_mask(h, w, cy, cx, inner * ry, inner * rx)] = 1
        else:
            label[_ellipse_mask(h, w, cy, cx, ry, rx)] = 1
    if k == 4:
        cy, cx = stream.uniform(2, 0.2, 0.8) * (h, w)
        ry, rx = stream.uniform(2, lim / 12.0, lim / 8.0)
        label[_ellipse_mask(h, w, cy, cx, ry, rx)] = 3
    lut = np.array([_INTENSITY[c] for c in range(4)])
    img = lut[label] + stream.normal((h, w), 0.0, _NOISE_SIGMA)
    img = np.clip(img, 0.0, 1.0)[None]
    return SegSample(Tensor(img), Tensor(label.astype(np.uint8)), k)


def synth_dataset(n: int, h: int, w: int, k: int, seed: int) -> list[SegSample]:
    if k not in (2, 3, 4):
        raise ValueError(f"classes must be 2, 3 or 4, got {k}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return [synth_sample(h, w, k, Stream(derive_seed(seed, i))) for i in range(n)]


def batch_indices(seed: int, step: int, batch_size: int, n: int) -> np.ndarray:
    """Sample indices for one step; pure in (seed, step) so training can
    resume from a checkpoint without replaying earlier draws."""
    return Stream(derive_seed(seed, _BATCH_KEY, step)).integers(batch_size, n)


# -- the loop -------------------------------------------------------------------

LOG_EVERY = 50
CKPT_NAME = "checkpoint.sdck"
CURVE_NAME = "loss.csv"


def check_dataset(data: list, classes: int) -> None:
    """Raise ValueError for an empty dataset, or for samples whose class
    count is not the head's `classes`."""
    if not data:
        raise ValueError("the dataset has no samples")
    wrong = sorted({s.classes for s in data} - {classes})
    if wrong:
        raise ValueError(f"the dataset has samples with {wrong[0]} classes, but the "
                         f"model's head outputs {classes}")


def train(model: Model, data: list, cfg: TrainConfig, out_dir=None,
          start_step: int = 0, log=None, ckpt_path=None,
          curve_path=None) -> list[dict]:
    """Run the optimization; returns the logged rows and writes the loss
    curve CSV and final checkpoint (defaults: out_dir/loss.csv and
    out_dir/checkpoint.sdck).  The checkpoint's one meta entry is `step`,
    so identical runs write identical bytes.

    A dataset `check_dataset` rejects raises its ValueError, and an output
    path that cannot hold its directories an OSError, before the first
    step.  A non-finite value raises TrainingAborted naming the step, the
    layer and the op: each step's forward, loss and backward run through
    `tensor._checked_once`, so one check of the loss and the gradient
    vector covers them, and a failure replays the step with every check on
    to name the op.  A finite gradient that overflows Adam's second moment
    aborts the step too (see `adam_step`).  The process keeps freed heap
    memory from here on (`tensor._keep_heap`: glibc's mmap and trim
    thresholds, both set since either alone faults more), so each step
    reuses the last step's pages instead of faulting fresh ones in; RSS
    stays at its peak until exit."""
    _keep_heap()
    check_dataset(data, model.config.num_classes)
    if out_dir is None and (ckpt_path is None or curve_path is None):
        raise ValueError("need out_dir or explicit ckpt_path and curve_path")
    if out_dir is not None:
        ckpt_path = ckpt_path or Path(out_dir) / CKPT_NAME
        curve_path = curve_path or Path(out_dir) / CURVE_NAME
    Path(ckpt_path).parent.mkdir(parents=True, exist_ok=True)
    Path(curve_path).parent.mkdir(parents=True, exist_ok=True)
    # one parameter vector: each tensor's data becomes a contiguous view
    # into it, so Adam's in-place update of the vector updates the model
    named = model.named_parameters()
    params = list(named.values())
    w, views = _pack(named, [p.data for p in params])
    for p, view in zip(params, views):
        p.data = view
    state = AdamState(np.zeros_like(w), np.zeros_like(w))
    rows: list[dict] = []

    for step in range(start_step, cfg.max_steps):
        idx = batch_indices(cfg.seed, step, cfg.batch_size, len(data))
        images = np.stack([data[i].image.data for i in idx])
        labels = np.stack([data[i].label.data for i in idx])

        def grads():  # the step's loss terms and gathered gradient vector
            loss, dl, cl = combined_loss(forward(model, Tensor(images))[0], labels, cfg)
            for p in params:
                p.zero_grad()
            loss.backward()
            return loss, dl, cl, np.concatenate([p.grad for p in params], axis=None)

        try:
            loss, dl, cl, g = _checked_once(grads, _step_finite)
            if not _step_finite((loss, dl, cl, g)):  # the checked replay returned
                raise NumericsError("the gradient vector has non-finite values")
            lr = lr_at(step, cfg)
            if step % LOG_EVERY == 0 or step == cfg.max_steps - 1:
                row = {
                    "step": step,
                    "loss": loss.item(),
                    "dice_loss": dl.item(),
                    "ce_loss": cl.item(),
                    "lr": lr,
                }
                rows.append(row)
                if log is not None:
                    log(row)
            adam_step(w, g, state, lr)
        except NumericsError as e:
            raise TrainingAborted(f"non-finite value at step {step}: {e}") from e

    _write_curve(curve_path, rows)
    save_model(ckpt_path, model, extra={"step": np.float64(cfg.max_steps)})
    return rows


def _step_finite(step) -> bool:
    """Whether a training step's loss and gradient vector are finite."""
    return bool(np.isfinite(step[0].data).all() and np.isfinite(step[3]).all())


def _write_curve(path, rows) -> None:
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=["step", "loss", "dice_loss", "ce_loss", "lr"])
        w.writeheader()
        for r in rows:
            w.writerow(r)


# -- dataset directory round trip ------------------------------------------------

def save_dataset(dirpath, samples: list) -> None:
    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    manifest = []
    for i, s in enumerate(samples):
        img, lab = f"img_{i:05d}.sdt", f"lab_{i:05d}.sdt"
        save_sdt1(d / img, s.image.data.astype(np.float32))
        save_sdt1(d / lab, s.label.data.astype(np.uint8))
        manifest.append({"image": img, "label": lab, "classes": s.classes})
    (d / "manifest.json").write_text(json.dumps(manifest, indent=1))


def load_dataset(dirpath) -> list[SegSample]:
    d = Path(dirpath)
    mf = d / "manifest.json"
    if not mf.exists():
        raise FileNotFoundError(f"no manifest.json under {d}")
    entries = json.loads(mf.read_text())
    if not isinstance(entries, list) or not all(
            isinstance(e, dict) and isinstance(e.get("image"), str)
            and isinstance(e.get("label"), str) and isinstance(e.get("classes"), int)
            for e in entries):
        raise ValueError(f"{mf} must be a list of {{image, label, classes}} objects")
    samples = []
    for entry in entries:
        img = load_image(d / entry["image"])
        lab = load_sdt1(d / entry["label"])
        if lab.ndim != 2 or lab.dtype != np.uint8:
            raise FormatError(f"{entry['label']}: labels must be a 2-D uint8 map, "
                              f"got {lab.dtype} {lab.shape}")
        samples.append(SegSample(Tensor(img), Tensor(lab), int(entry["classes"])))
    return samples
