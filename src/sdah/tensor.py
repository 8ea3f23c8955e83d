"""Dense tensors with reverse-mode automatic differentiation.

Tensors wrap row-major numpy arrays (float32 by default, float64 for
gradient checking).  Each primitive records one graph node with `_make`,
passing one vector-Jacobian product (VJP) per operand.  `backward` runs,
from the root down in topological order, only the VJPs whose operand needs
a gradient, accumulates them with `+=`, and marks the graph spent, so a
repeated backward without a fresh forward raises GradError.

Every primitive output, and every gradient `backward` leaves on an operand,
is checked for NaN/Inf, raising `NumericsError` instead of propagating it.
`_checked_once` runs a whole forward, training step or Grad-CAM pass with
one check instead.  Inside `_scope(name)` every error starts with that layer
id, and each node keeps the id it was made under, so backward errors read
`enc2: conv2d backward produced ...`.
"""

from __future__ import annotations

import ctypes
import math
from contextlib import contextmanager
from functools import lru_cache

import numpy as np


class NumericsError(ArithmeticError):
    """A primitive produced NaN or Inf."""


class GradError(RuntimeError):
    """Autodiff misuse: repeated backward, missing graph, bad seed shape."""


_FLOAT_DTYPES = (np.float32, np.float64)
_default_dtype = np.float32
_grad_enabled = True
_checks = True  # per-op finite checks in `_make` and `backward`
_layer = ""     # the layer id that prefixes NumericsError messages


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


@contextmanager
def _scope(name: str):
    """Name the layer that errors and graph nodes made inside belong to."""
    global _layer
    old, _layer = _layer, name
    try:
        yield
    finally:
        _layer = old


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt(3) parameters
_HEAP_ARRAY_MAX = 32 << 20  # glibc's largest mmap threshold on 64-bit
_HEAP_TRIM_AT = 1 << 30


@lru_cache(maxsize=None)
def _keep_heap() -> bool:
    """Keep freed arrays' memory in the process, so each training step or
    tile forward reuses the last one's pages instead of faulting in fresh
    zeroed ones; RSS then stays at its peak until exit.  Idempotent; returns
    whether it took effect (glibc only: another libc is left as it is).

    Arrays below 32 MiB come from the heap, and the heap is trimmed only
    once 1 GiB of its top is free.  Both thresholds are set because an
    explicit mallopt switches off glibc's dynamic ones, and either alone
    leaves the process faulting more than glibc's default does.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no such symbol, or no libc
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # glibc returns 0 for a refused value; the trim threshold is only worth
    # setting once arrays come from the heap
    return (mallopt(_M_MMAP_THRESHOLD, _HEAP_ARRAY_MAX) == 1
            and mallopt(_M_TRIM_THRESHOLD, _HEAP_TRIM_AT) == 1)


def _finite(a) -> bool:
    """Whether every element of `a` is finite: the one finite predicate."""
    return bool(np.logical_and.reduce(np.isfinite(a), axis=None))


def _check_finite(arr: np.ndarray, op: str, scope: str | None = None) -> None:
    """Raise NumericsError when a float `arr` holds NaN or Inf, naming `op`
    and the layer `scope` (by default the current one)."""
    if (arr.dtype.type in _FLOAT_DTYPES
            and not np.logical_and.reduce(np.isfinite(arr), axis=None)):
        where = _layer if scope is None else scope
        raise NumericsError(f"{where + ': ' if where else ''}{op} produced non-finite values")


def _checked_once(run, finite):
    """Run `run()` with one check of its result instead of one per op, and
    return the result.  The contract: it raises or returns finite values.

    The first run has the per-op checks and numpy's float warnings off, and
    its result stands when `finite(result)` holds.  Otherwise, or when a
    check that stays on raised, `run()` runs again with every check on and
    the caller's warnings.  Being deterministic, the replay raises the first
    failing op's NumericsError, prefixed by its layer id, and since it checks
    every primitive output and gradient, its result needs no further check.
    A check stays on in the first run wherever a later op could turn a
    non-finite value back into a finite one; each such site says so.
    Nested inside another call's first run it just calls `run()`, so the
    outermost call checks."""
    global _checks
    if not _checks:
        return run()
    _checks = False
    try:
        with np.errstate(all="ignore"):
            out = run()
        if finite(out):
            return out
    except NumericsError:
        pass
    finally:
        _checks = True
    return run()


_SPENT = object()  # sentinel replacing a context once its backward ran


class _Ctx:
    __slots__ = ("op", "parents", "bwd", "scope")

    def __init__(self, op, parents, bwd, scope):
        self.op = op
        self.parents = parents
        self.bwd = bwd  # a _VJPs: grad_out -> grads aligned with parents
        self.scope = scope  # the layer id the node was made in, or ""


class _VJPs:
    """A node's `bwd`: the VJPs of the parents that need a gradient, run on
    `prep(grad_out)` when given; None for the rest.  One object per node,
    not a closure, because the graph's object count sets how often the
    cyclic garbage collector runs."""

    __slots__ = ("parents", "vjps", "prep")

    def __init__(self, parents, vjps, prep):
        self.parents, self.vjps, self.prep = parents, vjps, prep

    def __call__(self, g):
        s = g if self.prep is None else self.prep(g)
        return tuple([f(s) if p.requires_grad else None
                      for p, f in zip(self.parents, self.vjps)])


class Tensor:
    """Shape + row-major data + optional gradient slot.

    `data` is a numpy array of float32/float64, or a u8 payload (a mask)
    that no primitive takes: `_as_tensor` raises TypeError on it.
    """

    __slots__ = ("data", "requires_grad", "grad", "_ctx")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype.type is not _default_dtype and arr.dtype != np.uint8:
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
        after a fresh forward.  With the per-op checks on, each gradient is
        checked after its cast to the operand's dtype and its sum into the
        operand's .grad (either can overflow); a non-finite seed, and a .grad
        that was non-finite before the sum (the root's too), is named as such.
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
        old = self.grad
        self.grad = grad if old is None else old + grad
        check = _checks
        if check and not _finite(self.grad):
            what = ("the root's .grad already had" if old is not None and not _finite(old)
                    else "the seed gradient has" if not _finite(grad)
                    else "the seed summed into the root's .grad has")
            raise NumericsError(f"backward: {what} non-finite values")
        for node in reversed(order):
            ctx = node._ctx
            if ctx is None or ctx is _SPENT or node.grad is None:
                continue
            grads = ctx.bwd(node.grad)
            for parent, g in zip(ctx.parents, grads):
                if g is None:
                    continue
                if g.dtype != parent.data.dtype:
                    g = g.astype(parent.data.dtype)
                old = parent.grad
                parent.grad = g if old is None else old + g
                if check:  # after the cast and the sum, either of which can overflow
                    try:
                        _check_finite(parent.grad, f"{ctx.op} backward", ctx.scope)
                    except NumericsError:
                        if old is None or _finite(old):
                            raise
                        where = f"{ctx.scope}: " if ctx.scope else ""
                        raise NumericsError(f"{where}{ctx.op} backward: the operand's .grad "
                                            "already had non-finite values") from None
            node._ctx = _SPENT

    def _topo(self) -> list["Tensor"]:
        # iterative DFS: graphs are deep enough that recursion would be
        # fragile; tensors hash by identity, so `seen` holds them directly
        order, seen, stack = [], set(), [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if node in seen:
                continue
            seen.add(node)
            stack.append((node, True))
            ctx = node._ctx
            if ctx is not None and ctx is not _SPENT:
                for p in ctx.parents:
                    if p.requires_grad and p not in seen:
                        stack.append((p, False))
        return order

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_as_tensor(other, like=self), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_as_tensor(other, like=self), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def _as_tensor(x, like: Tensor | None = None) -> Tensor:
    """An operand of a primitive: a float Tensor as it is (any other dtype
    raises TypeError), anything else a constant in `like`'s dtype, or the
    session default without one."""
    if isinstance(x, Tensor):
        if x.data.dtype.type not in _FLOAT_DTYPES:
            raise TypeError(f"operand must be a float32/float64 tensor, got {x.data.dtype}")
        return x
    dtype = like.data.dtype if like is not None else _default_dtype
    return Tensor(x, dtype=dtype)


class Params:
    """Base of the dataclasses that hold a layer's learned tensors.

    A tensor's name is its field path, in field order: a Tensor field by its
    name (`wq`), a nested `Params` with its name as a dotted prefix
    (`sdmsa.wq`), the items of a list of `Params` numbered after the field
    (`conv0.w`).  `None` and plain settings (`gamma_off`) are skipped.  So a
    container's field order is its checkpoint order.
    """

    def named_tensors(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        _collect_tensors(self, "", out)
        return out


def _collect_tensors(p: Params, prefix: str, out: dict) -> None:
    """Add `p`'s tensors to `out` under `prefix` + their field paths."""
    for name in type(p).__dataclass_fields__:
        v = getattr(p, name)
        if isinstance(v, Tensor):
            out[prefix + name] = v
        elif isinstance(v, Params):
            _collect_tensors(v, f"{prefix}{name}.", out)
        elif isinstance(v, list):
            for i, item in enumerate(v):
                _collect_tensors(item, f"{prefix}{name}{i}.", out)


def _make(op: str, out: np.ndarray, parents: tuple[Tensor, ...], *vjps, prep=None) -> Tensor:
    """Wrap `out` as the result of `op` on `parents`, one VJP per parent.

    Each VJP maps the output gradient, or `prep(grad)` when `prep` is given,
    to its parent's gradient; backward runs only those whose parent needs one.
    `out` is checked for NaN/Inf unless inside `_checked_once`'s unchecked run.
    """
    if len(vjps) != len(parents):
        raise TypeError(f"{op}: {len(vjps)} VJPs for {len(parents)} parents")
    if _checks:
        _check_finite(out, op)
    # the four slots set directly: `out` keeps its dtype, so `Tensor()`'s
    # cast and init check would do nothing
    result = Tensor.__new__(Tensor)
    result.data, result.grad, result._ctx = np.asarray(out), None, None
    result.requires_grad = _grad_enabled and any(p.requires_grad for p in parents)
    if result.requires_grad:
        result._ctx = _Ctx(op, parents, _VJPs(parents, vjps, prep), _layer)
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
                 lambda g: _unbroadcast(np.matmul(g, b.data.swapaxes(-1, -2)),
                                        a.data.shape),
                 lambda g: _unbroadcast(np.matmul(a.data.swapaxes(-1, -2), g),
                                        b.data.shape))


def linear(x, w, b=None) -> Tensor:
    """Channel mix along axis 1: (N, C_in, ...) by w (C_in, C_out) plus an
    optional bias (C_out,) -> (N, C_out, ...), one product per image.  The
    weight gradient is one `np.dot` over all (image, position) pairs."""
    x = _as_tensor(x)
    w = _as_tensor(w, like=x)
    if w.ndim != 2 or x.ndim < 2 or x.shape[1] != w.shape[0]:
        raise ValueError(f"linear: input {x.shape} does not match weight {w.shape}")
    (cin, cout), n = w.shape, x.shape[0]
    x3 = x.data.reshape(n, cin, -1)
    out = np.matmul(w.data.T, x3)
    parents = (x, w) if b is None else (x, w, _as_tensor(b, like=x))
    vjps = (lambda g3: np.matmul(w.data, g3).reshape(x.data.shape),
            lambda g3: np.dot(x3.transpose(1, 0, 2).reshape(cin, -1),
                              g3.transpose(0, 2, 1).reshape(-1, cout)))
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


def _roll2(a: np.ndarray, sy: int, sx: int) -> np.ndarray:
    """np.roll(a, (sy, sx), (-2, -1)), bit for bit, as four block copies."""
    h, w = a.shape[-2:]
    sy, sx = sy % max(h, 1), sx % max(w, 1)
    out = np.empty_like(a)
    out[..., sy:, sx:] = a[..., :h - sy, :w - sx]
    out[..., sy:, :sx] = a[..., :h - sy, w - sx:]
    out[..., :sy, sx:] = a[..., h - sy:, :w - sx]
    out[..., :sy, :sx] = a[..., h - sy:, w - sx:]
    return out


def roll(a, shifts) -> Tensor:
    """Cyclic shift of the last two axes by shifts = (sy, sx)."""
    a = _as_tensor(a)
    if a.ndim < 2:
        raise ValueError(f"roll needs at least 2 dims, got {a.shape}")
    sy, sx = shifts
    return _make("roll", _roll2(a.data, sy, sx), (a,), lambda g: _roll2(g, -sy, -sx))


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

# erf(z) ~ z * P(z^2) / Q(z^2), lowest degree first: the minimax fit in
# relative error on [0, 4.4] that scripts/fit_erf.py prints.  Past 4.4 the
# rational keeps rising above 1 (by 1.5e-6 at 4.9), so clamping z to +-4.9
# and clipping the result to [-1, 1] gives exactly +-1 there.
_ERF_P = (1.128379167845381, 0.16404144219384165, 0.0507961596695583,
          0.0029171649218231862, 0.0003154810901650334,
          1.6510373274518926e-06, 4.324535363288466e-08,
          -9.893005779375002e-10, 8.349073191548022e-12)
_ERF_Q = (1.0, 0.478711303883834, 0.10458717106275983, 0.013386558603553344,
          0.001050599241223392, 4.512301799952093e-05)
_ERF_CLAMP = 4.9


def _horner(coefs, s):
    out = s * coefs[-1]
    out += coefs[-2]
    for c in coefs[-3::-1]:
        out *= s
        out += c
    return out


def _erf(z):
    """erf in z's float dtype: odd, 0 at 0 and exactly +-1 from |z| = 4.9 on;
    within 6.5 ulp of the true erf over every float32 in [-6, 6], and within
    7e-10 in float64."""
    a = z.clip(-_ERF_CLAMP, _ERF_CLAMP)
    s = a * a
    p = _horner(_ERF_P, s)
    p *= a
    p /= _horner(_ERF_Q, s)
    return p.clip(-1.0, 1.0)


def gelu(a) -> Tensor:
    """x * Phi(x), Phi(x) = (1 + erf(x / sqrt 2)) / 2 with `_erf`'s rational
    erf (no tanh shortcut).  The backward uses the exact Gaussian pdf, which
    differs from the slope of the computed forward by under 1.1e-7 (float64)."""
    a = _as_tensor(a)
    x = a.data
    out, phi = _gelu(x)
    return _make("gelu", out, (a,), lambda g: g * _gelu_slope(x, phi))


def _gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x * Phi(x), Phi(x)) with Phi the Gaussian CDF, the first in x's dtype."""
    phi = 0.5 * (1.0 + _erf(x * _INV_SQRT2))
    return (x * phi).astype(x.dtype, copy=False), phi


def _gelu_slope(x: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """GELU's derivative Phi(x) + x * pdf(x), given the forward's Phi(x)."""
    pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
    return phi + x * pdf


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    out = np.tanh(a.data)
    return _make("tanh", out, (a,), lambda g: g * (1.0 - out * out))


def softmax(a, axis: int = -1) -> Tensor:
    """Rows along `axis` sum to one; stabilized by max subtraction."""
    a = _as_tensor(a)
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

    mu = _channel_mean(a.data)
    xc = a.data - mu
    var = _channel_mean(xc * xc)
    # an overflowed variance would make inv 0 and the output a finite beta,
    # so this check stays on inside `_checked_once`'s unchecked run
    _check_finite(var, "layer_norm")
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = xc * inv
    out = gb * xhat + bb
    rest = (0, *range(2, a.ndim))

    def dx(g):
        dxhat = g * gb
        m1 = _channel_mean(dxhat)
        m2 = _channel_mean(dxhat * xhat)
        return inv * (dxhat - m1 - xhat * m2)

    return _make("layer_norm", out, (a, gamma, beta), dx,
                 lambda g: (g * xhat).sum(axis=rest), lambda g: g.sum(axis=rest))


def _channel_mean(a: np.ndarray) -> np.ndarray:
    """a.mean(axis=1, keepdims=True), bit for bit: the same sum divided in
    place by the channel count (numpy divides a float32 sum in float64,
    which rounds to the same float32 quotient)."""
    m = np.add.reduce(a, axis=1, keepdims=True)
    m /= a.shape[1]
    return m
