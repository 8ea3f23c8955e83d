"""Shifted-window multi-head self-attention with learned sampling offsets.

Each head projects its window patches to queries, predicts a bounded 2-D
offset per patch from those queries (depthwise 5x5 -> GELU -> grouped 1x1,
then tanh), and gathers keys/values by bilinear sampling of the full
(cyclically shifted) feature map at clip(reference + offset), one grouped
read for all heads.  The offset net, its bound, the shift and the clip are
one graph node (`_deform_points`); each layout's reference grid is built
once and shared read-only.

A continuous relative-position bias is read from a learned (2*ws-1)^2
table per head at each key - query displacement, clamped to the table and
bilinearly interpolated, so at zero offset the mechanism reduces exactly to
plain shifted-window attention with the integer-indexed bias.

The queries sit on each window's integer grid and the clamp acts on each
axis alone, so the read is separable: per-axis interpolation weights (two
nonzeros per query row or column and key), one matmul with the table and
small per-key products, in one primitive with its own backward that both
attention paths use.

The window core, softmax(q kᵀ/√d + bias) v, is one fused node (`_attend`)
that keeps only its probabilities for the backward.

Maps are (B, C, H, W) and windows (B, n_windows, heads, P = ws*ws, d); one
node each way (`window_partition`, `window_merge`), each the other's VJP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import tensor as T
from .convops import _conv_backward_w, _conv_backward_x, conv2d
from .rng import Stream
from .sampling import axis_corners, bilinear_sample_batch
from .tensor import (
    Params,
    Tensor,
    _as_tensor,
    _check_finite,
    _gelu,
    _gelu_slope,
    _make,
    _roll2,
    _unbroadcast,
    linear,
    matmul,
    no_grad,
    roll,
)

OFFSET_KERNEL = 5  # depthwise kernel of the offset net


@dataclass(frozen=True)
class WindowLayout:
    """Partition of an (h, w) map into non-overlapping ws x ws windows."""

    h: int
    w: int
    ws: int
    shift: int = 0

    def __post_init__(self):
        if self.ws < 1:
            raise ValueError("window size must be positive")
        if self.h % self.ws or self.w % self.ws:
            raise ValueError(
                f"window {self.ws} does not divide its {self.h}x{self.w} map"
            )
        if self.shift not in (0, self.ws // 2):
            raise ValueError(f"shift must be 0 or {self.ws // 2}, got {self.shift}")

    @property
    def n_windows(self) -> int:
        return (self.h // self.ws) * (self.w // self.ws)

    @property
    def patches(self) -> int:
        return self.ws * self.ws


def _uniform(stream: Stream, shape, fan_in: int) -> Tensor:
    b = 1.0 / math.sqrt(fan_in)
    return Tensor(stream.uniform(shape, -b, b), requires_grad=True)


def _zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape, T._default_dtype), requires_grad=True)


def _ones(shape) -> Tensor:
    return Tensor(np.ones(shape, T._default_dtype), requires_grad=True)


def _to_windows(a: np.ndarray, layout: WindowLayout, heads: int) -> np.ndarray:
    """(B, C, H, W) -> (B, n_windows, heads, P, C/heads) after the cyclic
    shift: windows and patches row-major, channel c = head * C/heads + j."""
    if layout.shift:
        a = _roll2(a, -layout.shift, -layout.shift)
    b, c = a.shape[:2]
    ws, ny, nx = layout.ws, layout.h // layout.ws, layout.w // layout.ws
    t = a.reshape(b, heads, c // heads, ny, ws, nx, ws).transpose(0, 3, 5, 1, 4, 6, 2)
    return t.reshape(b, ny * nx, heads, ws * ws, c // heads)


def _from_windows(a: np.ndarray, layout: WindowLayout) -> np.ndarray:
    """(B, n_windows, heads, P, d) -> (B, heads*d, H, W): `_to_windows` undone."""
    b, _, heads, _, d = a.shape
    ws, ny, nx = layout.ws, layout.h // layout.ws, layout.w // layout.ws
    t = a.reshape(b, ny, nx, heads, ws, ws, d).transpose(0, 3, 6, 1, 4, 2, 5)
    x = t.reshape(b, heads * d, layout.h, layout.w)
    return _roll2(x, layout.shift, layout.shift) if layout.shift else x


def window_partition(x, layout: WindowLayout, heads: int = 1) -> Tensor:
    """Cyclic shift (when layout.shift > 0), then split (B, C, H, W) into
    (B, n_windows, heads, P, C/heads) windows, as one node."""
    x = _as_tensor(x)
    if x.ndim != 4 or x.shape[2:] != (layout.h, layout.w) or x.shape[1] % heads:
        raise ValueError(f"map {x.shape} does not match layout {layout} at {heads} heads")
    return _make("window_partition", _to_windows(x.data, layout, heads), (x,),
                 lambda g: _from_windows(g, layout))


def window_merge(wins, layout: WindowLayout) -> Tensor:
    """(B, n_windows, heads, P, d) -> (B, heads*d, H, W), un-shifted, as one
    node: the exact inverse of window_partition for any head count."""
    wins = _as_tensor(wins)
    if (wins.ndim != 5 or wins.shape[1] != layout.n_windows
            or wins.shape[3] != layout.patches):
        raise ValueError(f"windows {wins.shape} do not match layout {layout}")
    return _make("window_merge", _from_windows(wins.data, layout), (wins,),
                 lambda g: _to_windows(g, layout, wins.shape[2]))


@lru_cache(maxsize=64)
def _grids(layout: WindowLayout) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(window origins, local patch grid, reference points) of a layout:
    float64, read-only, built once per layout and shared by every forward."""
    ny, nx = layout.h // layout.ws, layout.w // layout.ws
    wy, wx = np.meshgrid(np.arange(ny), np.arange(nx), indexing="ij")
    org = np.stack([wy.ravel(), wx.ravel()], axis=-1).astype(np.float64) * layout.ws
    iy, ix = np.meshgrid(np.arange(layout.ws), np.arange(layout.ws), indexing="ij")
    local = np.stack([iy.ravel(), ix.ravel()], axis=-1).astype(np.float64)
    ref = org[:, None, :] + local[None, :, :]
    for a in (org, local, ref):
        a.flags.writeable = False
    return org, local, ref


def reference_points(layout: WindowLayout) -> np.ndarray:
    """(n_windows, ws*ws, 2) integer patch coordinates, (y, x), in the
    shifted map's global frame; read-only."""
    return _grids(layout)[2]


@dataclass
class SdmsaParams(Params):
    """Learned state of one attention layer: its tensors plus the two
    settings no tensor carries (`gamma_off`, `clamp_to_window`).

    wq/wk/wv are per-head (n_heads, d, d) blocks; wo mixes the concatenated
    heads.  bias_table holds one (2*ws-1)^2 grid per head, indexed by
    relative displacement.  The offset net exists only when deformation is
    on: a depthwise 5x5 over all C channels plus a grouped 1x1 mapping each
    head's d channels to (dy, dx).  Channels, head count, configured window
    and deformability are read off these shapes.
    """

    gamma_off: float
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    bias_table: Tensor
    off_dw_w: Tensor | None = None
    off_dw_b: Tensor | None = None
    off_pw_w: Tensor | None = None
    off_pw_b: Tensor | None = None
    clamp_to_window: bool = False

    @property
    def channels(self) -> int:
        return self.wo.shape[0]

    @property
    def n_heads(self) -> int:
        return self.wq.shape[0]

    @property
    def ws(self) -> int:
        """The configured window; a small map runs with a smaller one."""
        return (self.bias_table.shape[-1] + 1) // 2

    @property
    def deformable(self) -> bool:
        return self.off_dw_w is not None

    @classmethod
    def init(cls, channels: int, n_heads: int, ws: int, stream: Stream,
             deform: bool = True, gamma_off: float = 1.0,
             clamp_to_window: bool = False) -> "SdmsaParams":
        if channels % n_heads:
            raise ValueError(f"{n_heads} heads do not divide {channels} channels")
        d = channels // n_heads
        t = 2 * ws - 1

        off_dw_w = off_dw_b = off_pw_w = off_pw_b = None
        if deform:
            k = OFFSET_KERNEL
            off_dw_w = _uniform(stream, (channels, 1, k, k), k * k)
            off_dw_b = _zeros((channels,))
            off_pw_w = _uniform(stream, (2 * n_heads, d, 1, 1), d)
            off_pw_b = _zeros((2 * n_heads,))
        return cls(
            gamma_off=gamma_off,
            wq=_uniform(stream, (n_heads, d, d), d),
            wk=_uniform(stream, (n_heads, d, d), d),
            wv=_uniform(stream, (n_heads, d, d), d),
            wo=_uniform(stream, (channels, channels), channels),
            bias_table=_zeros((n_heads, t, t)),
            off_dw_w=off_dw_w,
            off_dw_b=off_dw_b,
            off_pw_w=off_pw_w,
            off_pw_b=off_pw_b,
            clamp_to_window=clamp_to_window,
        )


@dataclass
class SdmsaTrace:
    """Forward record for the explanation exports.

    Arrays are the very ones used in the forward pass (no copies):
    reference_points (n_windows, P, 2), the layout's shared read-only
    float64 grid; offsets and deformed points
    (B, n_windows, n_heads, P, 2) where deformed = clip(ref + offset)
    exactly as sampled; attention (B, n_windows, n_heads, P, P), whose
    axis 2 is the head count: the probability array the fused `_attend`
    node keeps for its backward.  Coordinates live in the shifted map's
    frame; `layout.shift` tells the consumer how to roll them back.
    max_offset is the offsets' tanh bound s = gamma_off * layout.ws / 2.
    """

    layout: WindowLayout
    reference_points: np.ndarray
    offsets: np.ndarray
    deformed: np.ndarray
    attention: np.ndarray
    max_offset: float


def _deform_points(q: Tensor, params: SdmsaParams, ws: int, ref: np.ndarray,
                   lo, hi) -> tuple[Tensor, np.ndarray]:
    """Sampling points clip(ref + s * tanh(net(q)), lo, hi) as one graph
    node; returns (points, offsets), both (B, n_w, n_h, P, 2).

    q holds the (B, n_w, n_h, P, d) queries; the offset net reads them in
    (B*n_w, C, ws, ws) conv layout: the depthwise 5x5, GELU, then the
    grouped 1x1 giving each head's (dy, dx), bounded by tanh times
    s = gamma_off * ws / 2.  ref broadcasts to the points and lo, hi are
    the clip's bounds.  The convs run through `conv2d` without recording.
    GELU's output and the 1x1 conv's are checked even inside
    `tensor._checked_once`, since tanh and the clip would hide an inf.
    The node's parents are q and the four offset weights; its `prep`
    carries the gradient down the chain once (clip mask, times s, tanh',
    the 1x1 conv's input gradient, GELU') and each VJP reads its step.
    Every step runs in the order of the eleven-node chain this replaces,
    so points, offsets and gradients equal the chain's bit for bit.
    """
    b, nw, nh, p, d = q.shape
    c, k = nh * d, OFFSET_KERNEL
    dw_w, dw_b = params.off_dw_w, params.off_dw_b
    pw_w, pw_b = params.off_pw_w, params.off_pw_b
    g_in = q.data.transpose(0, 1, 2, 4, 3).reshape(b * nw, c, ws, ws)
    with no_grad():
        hdw = conv2d(Tensor(g_in, dtype=q.dtype), dw_w, dw_b,
                     padding=k // 2, groups=c).data
        act, phi = _gelu(hdw)
        _check_finite(act, "gelu")
        hpw = conv2d(Tensor(act, dtype=act.dtype), pw_w, pw_b, groups=nh).data
    _check_finite(hpw, "conv2d")
    th = np.tanh(hpw.reshape(b, nw, nh, 2, p).transpose(0, 1, 2, 4, 3))
    scale = np.asarray(params.gamma_off * ws / 2.0, th.dtype)
    off = th * scale
    pts = off + ref.astype(off.dtype)
    inside = (pts > lo) & (pts < hi)
    pts = pts.clip(lo, hi)

    def prep(g):  # (1x1 conv output gradient, depthwise conv output gradient)
        g = g * inside * scale * (1.0 - th * th)
        g_pw = g.transpose(0, 1, 2, 4, 3).reshape(hpw.shape)
        g_act = _conv_backward_x(g_pw, pw_w.data, 1, 0, nh, (ws, ws))
        return g_pw, g_act * _gelu_slope(hdw, phi)

    def dq(s):
        g = _conv_backward_x(s[1], dw_w.data, 1, k // 2, c, (ws, ws))
        return g.reshape(b, nw, nh, d, p).transpose(0, 1, 2, 4, 3)

    return _make("deform_points", pts, (q, dw_w, dw_b, pw_w, pw_b), dq,
                 lambda s: _conv_backward_w(g_in, s[1], k, 1, k // 2, c),
                 lambda s: s[1].sum(axis=(0, 2, 3)),
                 lambda s: _conv_backward_w(act, s[0], 1, 1, 0, nh),
                 lambda s: s[0].sum(axis=(0, 2, 3)), prep=prep), off


@lru_cache(maxsize=64)
def _hat_positions(shape: tuple, t: int, transposed: bool) -> np.ndarray:
    """Flat position of each (..., ws) entry's row in a `_hat` of that shape
    (its first column when transposed): int64, read-only, built once per
    (shape, t, transposed).  `_slope` reads the plain hat's positions."""
    ws = shape[-1]
    q = np.arange(math.prod(shape)).reshape(shape)
    pos = (q - q % ws) * t + q % ws if transposed else q * t
    pos.flags.writeable = False
    return pos


def _hat(i0, i1, f, t: int, transposed: bool = False) -> np.ndarray:
    """Dense per-axis interpolation weights from `axis_corners` output.

    i0, i1, f are (..., ws); the result is (..., ws, t), or (..., t, ws)
    when transposed, holding 1 - f at i0 and f at i1 on each row.  f goes
    in first so that where i1 == i0 (f == 0) the row keeps its weight 1.
    """
    ws = f.shape[-1]
    pos = _hat_positions(f.shape, t, transposed)
    if transposed:
        step, shape = ws, f.shape[:-1] + (t, ws)
    else:
        step, shape = 1, f.shape + (t,)
    h = np.zeros(shape, f.dtype)
    flat = h.reshape(-1)
    flat[pos + i1 * step] = f
    flat[pos + i0 * step] = 1 - f
    return h


def _slope(e: np.ndarray, i0, inside) -> np.ndarray:
    """Sum over the last (query) axis of e at i0, where the displacement is
    strictly inside the table (there i1 = i0 + 1): with e the gradient times
    the table's forward differences (`_steps`), the per-axis derivative."""
    pos = _hat_positions(i0.shape, e.shape[-1], False)
    return (e.reshape(-1).take(pos + i0) * inside).sum(axis=-1)


def _steps(m: np.ndarray) -> np.ndarray:
    """Forward differences m[..., c + 1] - m[..., c] along the last axis, 0
    at its end, as a new contiguous array: the zero is read only where the
    displacement is clamped, and keeps every i0 a valid index."""
    d = np.zeros(m.shape, m.dtype)
    np.subtract(m[..., 1:], m[..., :-1], out=d[..., :-1])
    return d


def _relative_bias(table: Tensor, keys, origins: np.ndarray) -> Tensor:
    """Bias of every image, window and head, read separably from its table.

    table (n_h, t, t); keys (B, n_w, n_h, P, 2), the points each head's keys
    sit at; origins (n_w, 2), each window's top-left.  The queries are the
    window's integer grid, so entry [b, w, h, ry*ws + rx, j] reads table[h]
    at keys[j] - (origin + (ry, rx)) + (t - 1)/2, each coordinate clamped to
    [0, t - 1] and bilinearly interpolated, so an integer displacement reads
    a table entry exactly; the result is (B, n_w, n_h, P, P).

    Each axis is clamped on its own, so the y weights depend only on (query
    row, key) and the x weights only on (query column, key).  With Hy and
    Hx the (P, ws, t) per-axis weights of a window and head (two nonzeros
    per row), the bias is bias[(ry, rx), j] = sum_c (Hy T)[j, ry, c]
    Hx[j, rx, c]: one matmul with the table, then P small (ws, t) x (t, ws)
    products.  Backward keeps the forward's Hy and Hx (the latter as its
    transpose) and the per-axis floors and inside masks; the table
    gradient is Hy^T (G Hx) and each key coordinate's gradient is its
    axis' table slope summed over the ws query rows (or columns): (G Hx)
    times the table's forward differences along y, or (G^T Hy) times those
    along x, read at the floor; zero where the displacement is not strictly
    inside (0, t-1), the right derivative at integer displacements.
    """
    keys = _as_tensor(keys, like=table)
    tab = table.data
    t = tab.shape[-1]
    b, nw, nh, p, _ = keys.shape
    ws = math.isqrt(p)
    k = keys.data.astype(tab.dtype, copy=False)
    q = (origins[:, :, None] + np.arange(ws)).astype(tab.dtype)  # (n_w, 2, ws)
    axes = []
    for a in (0, 1):
        d = k[..., a, None] - q[None, :, None, None, a] + float((t - 1) // 2)
        axes.append(axis_corners(d, t) + ((d > 0.0) & (d < t - 1.0),))
    (y0, y1, fy, my), (x0, x1, fx, mx) = axes
    shape = (b, nw, nh, p, ws, t)

    def rows(a, m):  # (B, n_w, n_h, P, ws, t) times each head's table m
        return (a.reshape(b, nw, nh, p * ws, t) @ m).reshape(shape)

    hy, hxt = _hat(y0, y1, fy, t), _hat(x0, x1, fx, t, transposed=True)
    out = rows(hy, tab) @ hxt
    out = out.reshape(b, nw, nh, p, p).swapaxes(-1, -2)

    def prep(g):
        # (.., (ry, rx), j) -> (.., j, ry, rx), and its rows times Hx
        g = np.ascontiguousarray(
            g.reshape(b, nw, nh, ws, ws, p).transpose(0, 1, 2, 5, 3, 4))
        return g, g @ np.ascontiguousarray(hxt.swapaxes(-1, -2))  # (.., j, ry, t)

    def dt(s):
        g_rows = s[1]
        return (hy.reshape(b * nw, nh, p * ws, t).swapaxes(-1, -2)
                @ g_rows.reshape(b * nw, nh, p * ws, t)).sum(axis=0)

    def dk(s):
        g, g_rows = s
        g_cols = g.swapaxes(-1, -2) @ hy         # (.., j, rx, t)
        return np.stack([
            _slope(rows(g_rows, _steps(tab.swapaxes(-1, -2))), y0, my),
            _slope(rows(g_cols, _steps(tab)), x0, mx),
        ], axis=-1)

    return _make("relative_bias", out, (table, keys), dt, dk, prep=prep)


def _attend(q: Tensor, k: Tensor, v: Tensor, bias: Tensor) -> tuple[Tensor, np.ndarray]:
    """softmax(q kᵀ/√d + bias) v as one graph node; returns (output, probs).

    q, k, v (B, n_w, n_h, P, d); bias broadcasts to the (B, n_w, n_h, P, P)
    scores, which are scaled, biased and softmaxed in place.  The biased
    scores get the one finite check, kept even inside `tensor._checked_once`,
    so a -inf score raises like a NaN or +inf one, and finite scores always
    give finite probabilities.  The softmax's row max is one elementwise
    maximum over a contiguous keys-leading copy of the scores, which is
    faster than a reduction along the short last axis of a window's keys;
    a max is exact in any order (a row's +0.0 and -0.0 shift every score
    to the same exp), so the probabilities keep their bits.  The
    probabilities are the one array the backward keeps; its `prep` computes
    dS = P * (dP - rowsum(dP * P)) once for the q, k and bias VJPs.  Each
    step runs in the order of the six-node chain this replaces, so values
    and gradients equal the chain's bit for bit, with one caveat: kᵀ for
    the scores and vᵀ for dP are contiguous copies (numpy's batched matmul
    is up to 2.2x slower on the strided views at window shapes), and
    OpenBLAS's plain and transposed kernels agree at the head widths the
    shipped configs use (d <= 16, float32) but can round the last bit
    apart at d = 32 in float32 and d >= 16 in float64.
    """
    scale = q.data.dtype.type(1.0 / math.sqrt(q.shape[-1]))
    probs = np.matmul(q.data, np.ascontiguousarray(k.data.swapaxes(-1, -2)))
    probs *= scale
    probs += bias.data
    _check_finite(probs, "attend")
    probs -= np.maximum.reduce(probs.transpose(4, 0, 1, 2, 3).copy(), axis=0)[..., None]
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)

    def prep(g):  # (g, dS, scale * dS), the last a copy: the bias VJP may return dS
        dp = np.matmul(g, np.ascontiguousarray(v.data.swapaxes(-1, -2)))
        ds = probs * (dp - (dp * probs).sum(axis=-1, keepdims=True))
        return g, ds, ds * scale

    out = _make("attend", np.matmul(probs, v.data), (q, k, v, bias),
                lambda s: np.matmul(s[2], k.data),
                lambda s: np.matmul(q.data.swapaxes(-1, -2), s[2]).swapaxes(-1, -2),
                lambda s: np.matmul(probs.swapaxes(-1, -2), s[0]),
                lambda s: _unbroadcast(s[1], bias.shape), prep=prep)
    return out, probs


def sdmsa(x, params: SdmsaParams, layout: WindowLayout) -> tuple[Tensor, SdmsaTrace]:
    """Windowed multi-head attention; returns (output, trace).

    `window_partition` raises on a map that does not fit.  A layer with an
    offset net (`params.deformable`) samples each head's keys/values at its
    own offsets from the whole shifted map (its one `roll`); one without
    attends over the window's own patches.  Both run the fused core
    `_attend`, whose probabilities are `trace.attention`; output is x's shape.
    """
    x = _as_tensor(x)
    nh = params.n_heads
    xh = window_partition(x, layout, nh)           # (B, n_w, n_h, P, d)
    b, c, h, w = x.shape
    if params.channels != c:
        raise ValueError("channel count does not match params")
    ws = layout.ws
    p = layout.patches
    nw = layout.n_windows

    q = matmul(xh, params.wq)                      # (B, n_w, n_h, P, d)

    org, grid, ref = _grids(layout)                # float64, read-only
    if params.deformable:
        org = org.astype(x.dtype)
        lo, hi = np.zeros(2, x.dtype), np.array([h - 1, w - 1], x.dtype)  # the map
        if params.clamp_to_window:                 # the query's own window
            lo = org.reshape(1, nw, 1, 1, 2)
            hi = lo + (ws - 1)
        pts, offs = _deform_points(q, params, ws, ref.reshape(1, nw, 1, p, 2), lo, hi)
        xs = roll(x, (-layout.shift, -layout.shift)) if layout.shift else x
        kv_in = bilinear_sample_batch(xs, pts)     # (B, n_w, n_h, P, d)
        bias = _relative_bias(params.bias_table, pts, org)
        defp = pts.data
    else:
        kv_in = xh
        keys = np.broadcast_to(grid, (1, 1, nh, p, 2))
        bias = _relative_bias(params.bias_table, keys, np.zeros((1, 2)))
        offs = np.zeros((b, nw, nh, p, 2), dtype=x.dtype)
        defp = np.broadcast_to(ref[None, :, None], offs.shape).astype(x.dtype)

    k = matmul(kv_in, params.wk)
    v = matmul(kv_in, params.wv)
    heads, probs = _attend(q, k, v, bias)          # probs (B, n_w, n_h, P, P)
    out = linear(window_merge(heads, layout), params.wo)

    trace = SdmsaTrace(
        layout=layout,
        reference_points=ref,
        offsets=offs,
        deformed=defp,
        attention=probs,
        max_offset=params.gamma_off * ws / 2.0,  # the s of `_deform_points`
    )
    return out, trace
