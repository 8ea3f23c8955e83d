"""2-D convolution and transposed convolution primitives.

Cross-correlation semantics with zero padding, lowered to matmuls in one of
two ways picked from the conv's geometry:

- Banded rows, for a depthwise conv (groups == C_in == C_out) at stride 1
  with k > 1.  The output width is cut into blocks of b columns
  (`_band_width`, from geometry alone), and block row (y, m) holds the k
  slices of b + k - 1 inputs that its outputs read, padded rows y..y+k-1 at
  columns m*b..m*b+b+k-2, end to end.  So each output reads k*(b+k-1)
  inputs, not the k*Wp of a whole padded row, and the map is copied about
  k times, not k*k, into (N, C, ho*nb, k*(b+k-1)) rows.  Each channel's
  kernel becomes one (k*(b+k-1), b) band holding w[c, 0, i, q] at
  [i*(b+k-1) + j + q, j], shared by every block, and the conv is one
  broadcast matmul, rows @ band, with one product per image and channel,
  so a batch gives each image's result bit for bit.  The weight gradient
  is the band's gradient, taken in a (C, N*ho*nb, .) layout so that one
  matmul per channel sums the images and blocks, and folded back to
  (k, k) by summing each of its k*k diagonals.
- im2col, for every other conv (dense, grouped, strided, transposed, and
  1x1): a (N, C, k, k, ho, wo) patch copy and one batched matmul per group.

The input gradient of a stride-1 conv is the same forward run on the output
gradient with the flipped kernel, its input and output channels swapped
within each group, at padding k-1-p (a crop of the output gradient when
p > k-1), so a depthwise input gradient takes the banded path too.  Only
strided convs use the col2im scatter, k*k ordered slice additions, so every
reduction order is fixed.

Geometry is strict by default: (H + 2p - k) must be divisible by the stride
or the op raises.  `allow_floor=True` opts into floor semantics (trailing
rows/cols that do not fill a full stride step are dropped), which the
embedding stem needs for its stride-2 3x3 layers.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, _as_tensor, _make


def _out_size(n: int, k: int, s: int, p: int, allow_floor: bool, op: str) -> int:
    span = n + 2 * p - k
    if span < 0:
        raise ValueError(f"{op}: kernel {k} exceeds padded input {n + 2 * p}")
    if not allow_floor and span % s != 0:
        raise ValueError(
            f"{op}: non-integral output size for input {n}, kernel {k}, "
            f"stride {s}, padding {p}"
        )
    return span // s + 1


def _pad(x: np.ndarray, p: int) -> np.ndarray:
    if p == 0:
        return x
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2 * p, w + 2 * p), x.dtype)
    xp[:, :, p:p + h, p:p + w] = x
    return xp


def _view(a: np.ndarray, shape, strides) -> np.ndarray:
    """A strided view of contiguous `a` from its first element, built by the
    ndarray constructor: it checks that the view fits in a's buffer and
    costs about a sixth of numpy's stride-tricks helper."""
    return np.ndarray(shape, a.dtype, buffer=a, strides=strides)


def _im2col(xp: np.ndarray, k: int, s: int, ho: int, wo: int) -> np.ndarray:
    """(N,C,Hp,Wp) -> contiguous (N, C, k, k, ho, wo) patch array."""
    xp = np.ascontiguousarray(xp)
    n, c, _, _ = xp.shape
    s0, s1, s2, s3 = xp.strides
    view = _view(xp, (n, c, k, k, ho, wo), (s0, s1, s2, s3, s2 * s, s3 * s))
    return np.ascontiguousarray(view)


def _col2im(dcols: np.ndarray, hw: tuple[int, int], k: int, s: int, p: int) -> np.ndarray:
    """Adjoint of _im2col: scatter (N,C,k,k,ho,wo) back onto (N,C,H,W)."""
    n, c, _, _, ho, wo = dcols.shape
    h, w = hw
    buf = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=dcols.dtype)
    for ki in range(k):
        for kj in range(k):
            buf[:, :, ki : ki + ho * s : s, kj : kj + wo * s : s] += dcols[:, :, ki, kj]
    if p:
        buf = buf[:, :, p : p + h, p : p + w]
    return buf


def _banded(cin: int, cout: int, k: int, s: int, g: int) -> bool:
    """True when a conv takes the banded-rows lowering: depthwise, stride 1, k > 1."""
    return g == cin == cout and s == 1 and k > 1


def _band_width(wo: int, k: int) -> int:
    """Output columns per band block: the whole row up to 32 columns, else
    the largest divisor of wo in [k, 16], else (no such divisor) the row."""
    if wo <= 32:
        return wo
    return max((b for b in range(k, 17) if wo % b == 0), default=wo)


def _rows(x: np.ndarray, k: int, p: int, b: int) -> np.ndarray:
    """(N,C,H,W) -> (N, C, ho, nb, k, b+k-1) view: block row (y, m) is padded
    rows y..y+k-1 at columns m*b..m*b+b+k-2."""
    xp = np.ascontiguousarray(_pad(x, p))
    n, c, hp, wp = xp.shape
    s0, s1, s2, s3 = xp.strides
    return _view(xp, (n, c, hp - k + 1, (wp - k + 1) // b, k, b + k - 1),
                 (s0, s1, s2, b * s3, s2, s3))


def _diagonals(m: np.ndarray, k: int, transposed: bool = False) -> np.ndarray:
    """Contiguous (C, k*L, b) band, or its (C, b, k*L) transpose, with
    L = b + k - 1 -> the (C, k, k, b) strided view of band entries
    [i*L + j + q, j]."""
    c, b = m.shape[0], m.shape[1 if transposed else 2]
    s0, s1, s2 = m.strides
    if transposed:
        s1, s2 = s2, s1
    return _view(m, (c, k, k, b), (s0, (b + k - 1) * s1, s1, s1 + s2))


def _banded_forward(x: np.ndarray, w: np.ndarray, p: int, b: int) -> np.ndarray:
    """Stride-1 depthwise conv of (N,C,H,W) x by (C,1,k,k) w at padding p,
    in blocks of b output columns (b divides the output width)."""
    k = w.shape[-1]
    rows = _rows(x, k, p, b)
    n, c, ho, nb, _, l = rows.shape
    band = np.zeros((c, k * l, b), w.dtype)
    _diagonals(band, k)[...] = w.reshape(c, k, k, 1)
    rows = np.ascontiguousarray(rows).reshape(n, c, ho * nb, k * l)
    return (rows @ band).reshape(n, c, ho, nb * b)


def _banded_backward_w(x: np.ndarray, dy: np.ndarray, k: int, p: int, b: int) -> np.ndarray:
    """Weight gradient of `_banded_forward` for output gradient dy: the band's
    gradient, transposed, summed over images and blocks inside one matmul
    per channel (dy^T rows in a (C, N*ho*nb, .) layout)."""
    c = x.shape[1]
    rows = np.ascontiguousarray(_rows(x, k, p, b).transpose(1, 0, 2, 3, 4, 5))
    dyc = np.ascontiguousarray(dy.transpose(1, 0, 2, 3)).reshape(c, -1, b)
    dbt = dyc.swapaxes(-1, -2) @ rows.reshape(c, dyc.shape[1], -1)  # (C, b, k*L)
    return _diagonals(dbt, k, transposed=True).sum(axis=-1).reshape(c, 1, k, k)


def _conv_forward(x, w, s, p, g, allow_floor):
    n, cin, h, wd = x.shape
    cout, cg, k, _ = w.shape
    ho = _out_size(h, k, s, p, allow_floor, "conv2d")
    wo = _out_size(wd, k, s, p, allow_floor, "conv2d")
    if _banded(cin, cout, k, s, g):
        return _banded_forward(x, w, p, _band_width(wo, k))
    cols = _im2col(_pad(x, p), k, s, ho, wo)  # (N,C,k,k,ho,wo)
    cols = cols.reshape(n, g, cg * k * k, ho * wo)
    wm = w.reshape(g, cout // g, cg * k * k)
    y = np.matmul(wm, cols)  # (N,g,cout/g,L)
    return y.reshape(n, cout, ho, wo)


def _conv_backward_x(dy, w, s, p, g, in_hw):
    cout, cg, k, _ = w.shape
    if s == 1:
        # full correlation of dy with the flipped, per-group transposed
        # kernel, cut to the input: padding k-1-p, or a crop when negative
        wt = w.reshape(g, cout // g, cg, k, k).swapaxes(1, 2)[..., ::-1, ::-1]
        wt = np.ascontiguousarray(wt.reshape(g * cg, cout // g, k, k))
        q = k - 1 - p
        if q < 0:
            dy = dy[:, :, -q : dy.shape[2] + q, -q : dy.shape[3] + q]
        return _conv_forward(dy, wt, 1, max(q, 0), g, False)
    n = dy.shape[0]
    ho, wo = dy.shape[2], dy.shape[3]
    wm = w.reshape(g, cout // g, cg * k * k)
    dyr = dy.reshape(n, g, cout // g, ho * wo)
    dcols = np.matmul(wm.swapaxes(-1, -2), dyr)  # (N,g,cg*k*k,L)
    dcols = dcols.reshape(n, g * cg, k, k, ho, wo)
    return _col2im(dcols, in_hw, k, s, p)


def _conv_backward_w(x, dy, k, s, p, g):
    n, cin = x.shape[:2]
    cout = dy.shape[1]
    ho, wo = dy.shape[2], dy.shape[3]
    cg = cin // g
    if _banded(cin, cout, k, s, g):
        return _banded_backward_w(x, dy, k, p, _band_width(wo, k))
    cols = _im2col(_pad(x, p), k, s, ho, wo).reshape(n, g, cg * k * k, ho * wo)
    dyr = dy.reshape(n, g, cout // g, ho * wo)
    dw = np.matmul(dyr, cols.swapaxes(-1, -2)).sum(axis=0)  # (g,cout/g,cg*k*k)
    return dw.reshape(cout, cg, k, k)


def _biased_node(op, y, x, w, bias, dx, dw) -> Tensor:
    """Record `op`'s (N, C_out, ho, wo) output y with VJPs dx and dw, plus the
    optional (C_out,) bias added per channel, whose gradient is g's channel sum."""
    if bias is None:
        return _make(op, y, (x, w), dx, dw)
    bias = _as_tensor(bias, like=x)
    cout = y.shape[1]
    if bias.shape != (cout,):
        raise ValueError(f"{op} bias must be (C_out,)")
    return _make(op, y + bias.data.reshape(1, cout, 1, 1), (x, w, bias), dx, dw,
                 lambda g: g.sum(axis=(0, 2, 3)))


def conv2d(x, w, bias=None, stride: int = 1, padding: int = 0, groups: int = 1,
           allow_floor: bool = False) -> Tensor:
    """Grouped 2-D cross-correlation with zero padding.

    x: (N, C_in, H, W); w: (C_out, C_in/groups, k, k);
    bias: (C_out,) or None.  groups=C_in gives a depthwise convolution.
    """
    x = _as_tensor(x)
    w = _as_tensor(w, like=x)
    if x.ndim != 4:
        raise ValueError(f"conv2d expects (N, C_in, H, W), got {x.shape}")
    n, cin, h, wd = x.shape
    cout, cg, k, k2 = w.shape
    if k != k2:
        raise ValueError("conv2d kernels must be square")
    if cin % groups != 0 or cout % groups != 0 or cg != cin // groups:
        raise ValueError(
            f"conv2d channel/group mismatch: C_in={cin}, C_out={cout}, "
            f"groups={groups}, weight={w.shape}"
        )
    y = _conv_forward(x.data, w.data, stride, padding, groups, allow_floor)
    return _biased_node(
        "conv2d", y, x, w, bias,
        lambda g: _conv_backward_x(g, w.data, stride, padding, groups, (h, wd)),
        lambda g: _conv_backward_w(x.data, g, k, stride, padding, groups))


def deconv2d(x, w, bias=None, stride: int = 1) -> Tensor:
    """Transposed convolution: the adjoint of conv2d with the same weight,
    at padding 0.

    x: (N, C_in, H, W); w: (C_in, C_out, k, k); output spatial
    size is (H-1)*stride + k.
    """
    x = _as_tensor(x)
    w = _as_tensor(w, like=x)
    if x.ndim != 4:
        raise ValueError(f"deconv2d expects (N, C_in, H, W), got {x.shape}")
    n, cin, h, wd = x.shape
    cin_w, cout, k, k2 = w.shape
    if k != k2:
        raise ValueError("deconv2d kernels must be square")
    if cin_w != cin:
        raise ValueError(f"deconv2d channel mismatch: input {cin}, weight {w.shape}")
    if h < 1 or wd < 1:
        raise ValueError(f"deconv2d of an empty map {x.shape}")
    ho = (h - 1) * stride + k
    wo = (wd - 1) * stride + k
    y = _conv_backward_x(x.data, w.data, stride, 0, 1, (ho, wo))
    return _biased_node(
        "deconv2d", y, x, w, bias,
        lambda g: _conv_forward(g, w.data, stride, 0, 1, False),
        lambda g: _conv_backward_w(g, x.data, k, stride, 0, 1))
