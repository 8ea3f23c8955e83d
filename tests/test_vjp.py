"""The backward contract of every multi-operand primitive: a node computes
only the gradients of the operands that need one, and those equal the
gradients it computes when every operand needs one."""

import numpy as np
import pytest

from sdah.attention import WindowLayout, _attend, _relative_bias, reference_points, window_origins
from sdah.convops import conv2d, deconv2d
from sdah.rng import Stream
from sdah.sampling import bilinear_sample_batch
from sdah.tensor import Tensor, _make, concat, layer_norm, linear, matmul

_LAYOUT = WindowLayout(8, 8, 4)

# name -> (primitive, operand shapes or arrays); operands are drawn from
# one seeded stream, arrays are used as given
CASES = {
    "matmul": (matmul, [(2, 3, 4), (4, 5)]),
    "linear": (linear, [(2, 3, 4, 4), (3, 5)]),
    "linear_bias": (linear, [(2, 3, 4, 4), (3, 5), (5,)]),
    "layer_norm": (layer_norm, [(2, 6, 3, 3), (6,), (6,)]),
    "concat": (lambda *p: concat(p, axis=1), [(2, 3, 4), (2, 1, 4), (2, 2, 4)]),
    "conv2d_s1": (lambda x, w: conv2d(x, w, padding=1), [(2, 4, 6, 6), (6, 4, 3, 3)]),
    "conv2d_s1_bias": (lambda x, w, b: conv2d(x, w, b, padding=1),
                       [(2, 4, 6, 6), (6, 4, 3, 3), (6,)]),
    "conv2d_s2": (lambda x, w: conv2d(x, w, stride=2, padding=1),
                  [(2, 4, 7, 7), (6, 4, 3, 3)]),
    "conv2d_s2_bias": (lambda x, w, b: conv2d(x, w, b, stride=2, padding=1),
                       [(2, 4, 7, 7), (6, 4, 3, 3), (6,)]),
    "deconv2d": (lambda x, w: deconv2d(x, w, stride=2), [(2, 4, 3, 3), (4, 5, 2, 2)]),
    "deconv2d_bias": (lambda x, w, b: deconv2d(x, w, b, stride=2),
                      [(2, 4, 3, 3), (4, 5, 2, 2), (5,)]),
    "bilinear_sample_batch": (bilinear_sample_batch,
                              [(2, 4, 5, 5), Stream(1).uniform((2, 2, 7, 2), -1, 5)]),
    "relative_bias": (
        lambda t, k: _relative_bias(t, k, window_origins(_LAYOUT)),
        [(2, 7, 7), reference_points(_LAYOUT)[None, :, None]
         + Stream(2).uniform((2, 4, 2, 16, 2), -1, 1)]),
    "attend": (lambda *a: _attend(*a)[0],
               [(2, 3, 2, 16, 4)] * 3 + [(1, 1, 2, 16, 16)]),
}


def test_make_takes_one_vjp_per_parent():
    a, b = Tensor(np.ones(2), requires_grad=True), Tensor(np.ones(2))
    with pytest.raises(TypeError, match="1 VJPs for 2 parents"):
        _make("pair", a.data + b.data, (a, b), lambda g: g)


def _operands(specs, const=None):
    s = Stream(0)
    return [Tensor(sp if isinstance(sp, np.ndarray) else s.normal(sp),
                   requires_grad=i != const, dtype=np.float64)
            for i, sp in enumerate(specs)]


def _vjps(name, const=None):
    op, specs = CASES[name]
    out = op(*_operands(specs, const))
    return out._ctx.bwd(Stream(3).normal(out.shape))


@pytest.mark.parametrize("name", CASES)
def test_constant_operand_gets_no_gradient(name):
    full = _vjps(name)
    assert len(full) == len(CASES[name][1])
    assert all(g is not None for g in full)
    for const in range(len(full)):
        grads = _vjps(name, const)
        assert grads[const] is None
        for i, (got, want) in enumerate(zip(grads, full)):
            if i != const:
                np.testing.assert_array_equal(got, want)
