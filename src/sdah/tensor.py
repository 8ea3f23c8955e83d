"""Dense tensors with reverse-mode automatic differentiation.

Tensors wrap row-major numpy arrays (float32 by default, float64 for gradient
checking) and record every primitive application so that a single backward
pass can accumulate gradients into all operands.  The recording is a DAG of
per-tensor contexts; `backward` derives a topological order over it, pushes
vector-Jacobian products from consumers to operands with `+=` accumulation,
and then marks the contexts as spent so a repeated backward without a fresh
forward raises.

A primitive records itself with `_make`, passing one vector-Jacobian product
(VJP) per operand: a function from the output gradient to that operand's
gradient.  The node runs only the VJPs whose operand needs a gradient, so no
primitive checks `requires_grad` itself.  Ops whose VJPs share work pass a
`prep` that maps the output gradient once to what they all read.

Every primitive checks its float outputs for NaN/Inf and raises
`NumericsError` instead of propagating them.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np
from scipy.special import erf as _erf


class NumericsError(ArithmeticError):
    """A primitive produced NaN or Inf."""


class GradError(RuntimeError):
    """Autodiff misuse: repeated backward, missing graph, bad seed shape."""


_FLOAT_DTYPES = (np.float32, np.float64)
_default_dtype = np.float32
_grad_enabled = True


@contextmanager
def default_dtype(dtype):
    """Temporarily switch the dtype used for newly created tensors."""
    global _default_dtype
    dtype = np.dtype(dtype).type
    if dtype not in _FLOAT_DTYPES:
        raise ValueError(f"default dtype must be float32 or float64, got {dtype}")
    old, _default_dtype = _default_dtype, dtype
    try:
        yield
    finally:
        _default_dtype = old


@contextmanager
def no_grad():
    """Disable graph recording (inference paths)."""
    global _grad_enabled
    old = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = old


def _check_finite(arr: np.ndarray, op: str) -> None:
    if arr.dtype.type in _FLOAT_DTYPES and not np.isfinite(arr).all():
        raise NumericsError(f"{op} produced non-finite values")


_SPENT = object()  # sentinel replacing a context once its backward ran


class _Ctx:
    __slots__ = ("op", "parents", "bwd")

    def __init__(self, op, parents, bwd):
        self.op = op
        self.parents = parents
        self.bwd = bwd  # a _VJPs: grad_out -> grads aligned with parents


class _VJPs:
    """A node's `bwd`: the VJPs of the parents that need a gradient, run on
    `prep(grad_out)` when given; None for the rest.  One object per node
    where a closure would take five: the graph's object count sets how often
    the cyclic garbage collector runs."""

    __slots__ = ("parents", "vjps", "prep")

    def __init__(self, parents, vjps, prep):
        self.parents, self.vjps, self.prep = parents, vjps, prep

    def __call__(self, g):
        s = g if self.prep is None else self.prep(g)
        return tuple([f(s) if p.requires_grad else None
                      for p, f in zip(self.parents, self.vjps)])


class Tensor:
    """Shape + row-major data + optional gradient slot.

    `data` is always a numpy array of float32/float64 (u8 arrays are allowed
    as inert payloads for masks but reject every differentiable op).
    """

    __slots__ = ("data", "requires_grad", "grad", "_ctx")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype != np.uint8 and arr.dtype.type is not _default_dtype:
            # floats follow the session default; pass dtype= to opt out
            arr = arr.astype(_default_dtype)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._ctx: _Ctx | None = None
        if requires_grad:
            _check_finite(self.data, "tensor init")

    # -- basic protocol ----------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}{flag})"

    def zero_grad(self) -> None:
        self.grad = None

    # -- autodiff ----------------------------------------------------------

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Accumulate gradients of this tensor into every ancestor.

        A scalar root needs no seed; non-scalar roots require an explicit
        `grad` of matching shape.  The graph is single use: call again only
        after a fresh forward.
        """
        if self._ctx is None:
            raise GradError("backward called on a tensor with no recorded graph")
        if self._ctx is _SPENT:
            raise GradError("repeated backward without a fresh forward")
        if grad is None:
            if self.data.size != 1:
                raise GradError("backward on non-scalar output requires a seed gradient")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise GradError("seed gradient shape mismatch")

        order = self._topo()
        self.grad = grad if self.grad is None else self.grad + grad
        for node in reversed(order):
            ctx = node._ctx
            if ctx is None or ctx is _SPENT or node.grad is None:
                continue
            grads = ctx.bwd(node.grad)
            for parent, g in zip(ctx.parents, grads):
                if g is None:
                    continue
                _check_finite(g, f"{ctx.op} backward")
                if g.dtype != parent.data.dtype:
                    g = g.astype(parent.data.dtype)
                parent.grad = g if parent.grad is None else parent.grad + g
            node._ctx = _SPENT

    def _topo(self) -> list["Tensor"]:
        # iterative DFS: graphs are deep enough that recursion would be fragile
        order, seen, stack = [], set(), [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            ctx = node._ctx
            if ctx is not None and ctx is not _SPENT:
                for p in ctx.parents:
                    if p.requires_grad and id(p) not in seen:
                        stack.append((p, False))
        return order

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def _as_tensor(x, like: Tensor | None = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else _default_dtype
    return Tensor(np.asarray(x, dtype=dtype))


def _require_float(t: Tensor, op: str) -> None:
    if t.data.dtype.type not in _FLOAT_DTYPES:
        raise TypeError(f"{op} requires a float tensor, got {t.data.dtype}")


def _make(op: str, out: np.ndarray, parents: tuple[Tensor, ...], *vjps, prep=None) -> Tensor:
    """Wrap `out` as the result of `op` on `parents`, one VJP per parent.

    Each VJP maps the output gradient, or `prep(grad)` when `prep` is given,
    to its parent's gradient; backward runs only those whose parent needs one.
    """
    if len(vjps) != len(parents):
        raise TypeError(f"{op}: {len(vjps)} VJPs for {len(parents)} parents")
    _check_finite(out, op)
    out = np.asarray(out)
    result = Tensor(out, dtype=out.dtype)  # checked above: no second pass
    if _grad_enabled and any(p.requires_grad for p in parents):
        result.requires_grad = True
        result._ctx = _Ctx(op, parents, _VJPs(parents, vjps, prep))
    return result


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `g` down to `shape` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# -- elementwise arithmetic -------------------------------------------------

def add(a, b) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b, like=a)
    return _make("add", a.data + b.data, (a, b),
                 lambda g: _unbroadcast(g, a.data.shape),
                 lambda g: _unbroadcast(g, b.data.shape))


def sub(a, b) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b, like=a)
    return _make("sub", a.data - b.data, (a, b),
                 lambda g: _unbroadcast(g, a.data.shape),
                 lambda g: _unbroadcast(-g, b.data.shape))


def mul(a, b) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b, like=a)
    return _make("mul", a.data * b.data, (a, b),
                 lambda g: _unbroadcast(g * b.data, a.data.shape),
                 lambda g: _unbroadcast(g * a.data, b.data.shape))


def div(a, b) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b, like=a)
    return _make("div", a.data / b.data, (a, b),
                 lambda g: _unbroadcast(g / b.data, a.data.shape),
                 lambda g: _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))


def neg(a) -> Tensor:
    a = _as_tensor(a)
    return _make("neg", -a.data, (a,), lambda g: -g)


def clip(a, lo, hi) -> Tensor:
    """Elementwise clamp to bounds that broadcast against `a`; gradient
    passes through strictly inside [lo, hi]."""
    a = _as_tensor(a)
    out = np.clip(a.data, lo, hi)
    inside = (a.data > lo) & (a.data < hi)
    return _make("clip", out, (a,), lambda g: g * inside)


# -- matmul ------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    """Batched matrix product over the last two axes.

    Leading axes broadcast; gradients are summed back over broadcast axes,
    dA = dZ @ B^T and dB = A^T @ dZ.
    """
    a = _as_tensor(a)
    b = _as_tensor(b, like=a)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must have at least 2 dims")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(f"matmul inner dims differ: {a.data.shape} @ {b.data.shape}")
    return _make("matmul", np.matmul(a.data, b.data), (a, b),
                 lambda g: _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)),
                                        a.data.shape),
                 lambda g: _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g),
                                        b.data.shape))


def linear(x, w, b=None) -> Tensor:
    """Channel mix along axis 1: (N, C_in, ...) by w (C_in, C_out) plus an
    optional bias (C_out,) -> (N, C_out, ...), one product per image."""
    x = _as_tensor(x)
    w = _as_tensor(w, like=x)
    if w.ndim != 2 or x.ndim < 2 or x.shape[1] != w.shape[0]:
        raise ValueError(f"linear: input {x.shape} does not match weight {w.shape}")
    n, cout = x.shape[0], w.shape[1]
    x3 = x.data.reshape(n, w.shape[0], -1)
    out = np.matmul(w.data.T, x3)
    parents = (x, w) if b is None else (x, w, _as_tensor(b, like=x))
    vjps = (lambda g3: np.matmul(w.data, g3).reshape(x.data.shape),
            lambda g3: np.tensordot(x3, g3, axes=((0, 2), (0, 2))))
    if b is not None:
        out += parents[2].data[:, None]
        vjps += (lambda g3: g3.sum(axis=(0, 2)),)
    # the VJPs share one (N, C_out, L) reshape: a copy when the gradient is
    # a concat's slice
    return _make("linear", out.reshape((n, cout) + x.shape[2:]), parents, *vjps,
                 prep=lambda g: g.reshape(n, cout, -1))


# -- shape manipulation ------------------------------------------------------

def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    shape = tuple(shape)
    return _make("reshape", a.data.reshape(shape), (a,), lambda g: g.reshape(a.data.shape))


def transpose(a, axes) -> Tensor:
    a = _as_tensor(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return _make("transpose", a.data.transpose(axes), (a,), lambda g: g.transpose(inv))


def swap_last(a) -> Tensor:
    """Transpose the final two axes (for attention score layouts)."""
    a = _as_tensor(a)
    axes = list(range(a.ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    return transpose(a, axes)


def roll(a, shifts, axes) -> Tensor:
    a = _as_tensor(a)
    shifts = tuple(shifts)
    axes = tuple(axes)
    back = tuple(-s for s in shifts)
    return _make("roll", np.roll(a.data, shifts, axis=axes), (a,),
                 lambda g: np.roll(g, back, axis=axes))


def concat(parts, axis: int) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    out = np.concatenate([p.data for p in parts], axis=axis)
    ends = np.cumsum([p.data.shape[axis] for p in parts])
    lead = (slice(None),) * (axis % out.ndim)

    def part(lo, hi):  # the VJP of the part at [lo, hi) along axis
        return lambda g: g[lead + (slice(lo, hi),)]

    return _make("concat", out, tuple(parts),
                 *(part(hi - p.data.shape[axis], hi) for p, hi in zip(parts, ends)))


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along one axis."""
    a = _as_tensor(a)
    n = a.data.shape[axis]
    if start < 0 or length < 1 or start + length > n:
        raise ValueError(f"narrow [{start}:{start + length}] outside axis of {n}")
    sl = [slice(None)] * a.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)
    out = np.ascontiguousarray(a.data[sl])

    def bwd(g):
        full = np.zeros_like(a.data)
        full[sl] = g
        return full

    return _make("narrow", out, (a,), bwd)


def broadcast_to(a, shape) -> Tensor:
    a = _as_tensor(a)
    shape = tuple(shape)
    return _make("broadcast_to", np.broadcast_to(a.data, shape), (a,),
                 lambda g: _unbroadcast(g, a.data.shape))


# -- reductions ---------------------------------------------------------------

def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is None:
            return np.broadcast_to(g, a.data.shape).copy()
        ax = axis if isinstance(axis, tuple) else (axis,)
        if not keepdims:
            g = np.expand_dims(g, ax)
        return np.broadcast_to(g, a.data.shape).copy()

    return _make("sum", np.asarray(out), (a,), bwd)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    if axis is None:
        n = a.data.size
    else:
        ax = axis if isinstance(axis, tuple) else (axis,)
        n = int(np.prod([a.data.shape[i] for i in ax]))
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


# -- nonlinearities -----------------------------------------------------------

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(a) -> Tensor:
    """x * Phi(x) with the exact Gaussian CDF (erf form, no tanh shortcut)."""
    a = _as_tensor(a)
    _require_float(a, "gelu")
    x = a.data
    phi = 0.5 * (1.0 + _erf(x * _INV_SQRT2))
    out = x * phi

    def bwd(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
        return g * (phi + x * pdf)

    return _make("gelu", out.astype(x.dtype, copy=False), (a,), bwd)


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    out = np.tanh(a.data)
    return _make("tanh", out, (a,), lambda g: g * (1.0 - out * out))


def softmax(a, axis: int = -1) -> Tensor:
    """Rows along `axis` sum to one; stabilized by max subtraction."""
    a = _as_tensor(a)
    _require_float(a, "softmax")
    if a.data.shape[axis] == 0:
        raise ValueError("softmax over an empty axis")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return out * (g - inner)

    return _make("softmax", out, (a,), bwd)


def layer_norm(a, gamma, beta) -> Tensor:
    """Normalize to zero mean / unit variance (eps 1e-5) along axis 1, the
    channel axis as in `linear`, then affine.

    `gamma`/`beta` are 1-D of the channel count.
    """
    a = _as_tensor(a)
    gamma = _as_tensor(gamma, like=a)
    beta = _as_tensor(beta, like=a)
    c = a.shape[1] if a.ndim > 1 else None
    if c is None or gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ValueError(f"layer_norm: input {a.shape} does not match {gamma.shape}")
    # reshape affines so they broadcast along the channel axis
    bshape = (1, c) + (1,) * (a.ndim - 2)
    gb = gamma.data.reshape(bshape)
    bb = beta.data.reshape(bshape)

    mu = a.data.mean(axis=1, keepdims=True)
    xc = a.data - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    # an overflowed variance would make inv 0 and the output a finite beta
    _check_finite(var, "layer_norm")
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = xc * inv
    out = gb * xhat + bb
    rest = (0, *range(2, a.ndim))

    def dx(g):
        dxhat = g * gb
        m1 = dxhat.mean(axis=1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
        return inv * (dxhat - m1 - xhat * m2)

    return _make("layer_norm", out, (a, gamma, beta), dx,
                 lambda g: (g * xhat).sum(axis=rest), lambda g: g.sum(axis=rest))
