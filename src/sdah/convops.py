"""2-D convolution and transposed convolution primitives.

Cross-correlation semantics with zero padding, lowered to matmuls in one of
two ways picked from the conv's geometry:

- Banded rows, for a depthwise conv (groups == C_in == C_out) at stride 1
  with k > 1.  Output row y reads the k padded rows y..y+k-1 laid end to
  end, so the map is copied k times, not k*k, into (N, C, ho, k*Wp) rows.
  Each channel's kernel becomes a (k*Wp, wo) band holding w[c, 0, i, q] at
  [i*Wp + j + q, j], and the conv is one broadcast matmul, rows @ band, with
  one product per image and channel, so a batch gives each image's result
  bit for bit.  The weight gradient is the band's gradient, taken in a
  (C, N*ho, k*Wp) layout so that one matmul per channel sums the images,
  and folded back to (k, k) by summing each of its k*k diagonals.
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
from numpy.lib.stride_tricks import as_strided

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


def _im2col(xp: np.ndarray, k: int, s: int, ho: int, wo: int) -> np.ndarray:
    """(N,C,Hp,Wp) -> contiguous (N, C, k, k, ho, wo) patch array."""
    n, c, _, _ = xp.shape
    s0, s1, s2, s3 = xp.strides
    view = as_strided(xp, (n, c, k, k, ho, wo), (s0, s1, s2, s3, s2 * s, s3 * s))
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


def _rows(x: np.ndarray, k: int, p: int) -> np.ndarray:
    """(N,C,H,W) -> (N, C, ho, k*Wp) view: row y is padded rows y..y+k-1 end to end."""
    xp = np.ascontiguousarray(_pad(x, p))
    n, c, hp, wp = xp.shape
    return as_strided(xp, (n, c, hp - k + 1, k * wp), xp.strides)


def _diagonals(m: np.ndarray, k: int, wp: int) -> np.ndarray:
    """(C, k*Wp, wo) -> the (C, k, k, wo) strided view of entries [i*Wp + j + q, j]."""
    c, _, wo = m.shape
    s0, s1, s2 = m.strides
    return as_strided(m, (c, k, k, wo), (s0, wp * s1, s1, s1 + s2))


def _conv_forward(x, w, s, p, g, allow_floor):
    n, cin, h, wd = x.shape
    cout, cg, k, _ = w.shape
    ho = _out_size(h, k, s, p, allow_floor, "conv2d")
    wo = _out_size(wd, k, s, p, allow_floor, "conv2d")
    if _banded(cin, cout, k, s, g):
        wp = wd + 2 * p
        band = np.zeros((cin, k * wp, wo), w.dtype)
        _diagonals(band, k, wp)[...] = w.reshape(cin, k, k, 1)
        return np.ascontiguousarray(_rows(x, k, p)) @ band
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
    dcols = np.matmul(np.swapaxes(wm, -1, -2), dyr)  # (N,g,cg*k*k,L)
    dcols = dcols.reshape(n, g * cg, k, k, ho, wo)
    return _col2im(dcols, in_hw, k, s, p)


def _conv_backward_w(x, dy, k, s, p, g):
    n, cin, h, wd = x.shape
    cout = dy.shape[1]
    ho, wo = dy.shape[2], dy.shape[3]
    cg = cin // g
    if _banded(cin, cout, k, s, g):
        # the band's gradient, transposed, summed over images inside one
        # matmul per channel: dy^T rows in a (C, N*ho, .) layout
        rows = np.ascontiguousarray(_rows(x, k, p).transpose(1, 0, 2, 3))
        dyc = np.ascontiguousarray(dy.transpose(1, 0, 2, 3)).reshape(cin, n * ho, wo)
        dbt = np.swapaxes(dyc, -1, -2) @ rows.reshape(cin, n * ho, -1)  # (C, wo, k*Wp)
        dw = _diagonals(np.swapaxes(dbt, -1, -2), k, wd + 2 * p).sum(axis=-1)
        return dw.reshape(cout, 1, k, k)
    cols = _im2col(_pad(x, p), k, s, ho, wo).reshape(n, g, cg * k * k, ho * wo)
    dyr = dy.reshape(n, g, cout // g, ho * wo)
    dw = np.matmul(dyr, np.swapaxes(cols, -1, -2)).sum(axis=0)  # (g,cout/g,cg*k*k)
    return dw.reshape(cout, cg, k, k)


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

    parents = [x, w]
    if bias is not None:
        bias = _as_tensor(bias, like=x)
        if bias.shape != (cout,):
            raise ValueError("conv2d bias must be (C_out,)")
        y = y + bias.data.reshape(1, cout, 1, 1)
        parents.append(bias)

    def bwd(g):
        dx = None
        if x.requires_grad:
            dx = _conv_backward_x(g, w.data, stride, padding, groups, (h, wd))
        dw = _conv_backward_w(x.data, g, k, stride, padding, groups)
        if bias is not None:
            return dx, dw, g.sum(axis=(0, 2, 3))
        return dx, dw

    return _make("conv2d", y, tuple(parents), bwd)


def deconv2d(x, w, bias=None, stride: int = 1, padding: int = 0) -> Tensor:
    """Transposed convolution: the adjoint of conv2d with the same weight.

    x: (N, C_in, H, W); w: (C_in, C_out, k, k); output spatial
    size is (H-1)*stride - 2*padding + k.
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
    ho = (h - 1) * stride - 2 * padding + k
    wo = (wd - 1) * stride - 2 * padding + k
    if ho <= 0 or wo <= 0:
        raise ValueError(f"deconv2d invalid geometry: output {ho}x{wo}")
    y = _conv_backward_x(x.data, w.data, stride, padding, 1, (ho, wo))

    parents = [x, w]
    if bias is not None:
        bias = _as_tensor(bias, like=x)
        if bias.shape != (cout,):
            raise ValueError("deconv2d bias must be (C_out,)")
        y = y + bias.data.reshape(1, cout, 1, 1)
        parents.append(bias)

    def bwd(g):
        dx = None
        if x.requires_grad:
            dx = _conv_forward(g, w.data, stride, padding, 1, False)
        dw = _conv_backward_w(g, x.data, k, stride, padding, 1)
        if bias is not None:
            return dx, dw, g.sum(axis=(0, 2, 3))
        return dx, dw

    return _make("deconv2d", y, tuple(parents), bwd)
