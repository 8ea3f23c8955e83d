import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sdah.attention import (
    SdmsaParams,
    _attend,
    _deform_points,
    _hat,
    _hat_positions,
    _relative_bias,
    _slope,
    _steps,
    WindowLayout,
    reference_points,
    sdmsa,
    window_merge,
    window_partition,
)
from sdah.gradcheck import grad_check
from sdah.rng import Stream
from sdah.network import stage_layout
from sdah.sampling import axis_corners
from sdah.tensor import NumericsError, Tensor, default_dtype, matmul, reshape, transpose

from oracles import (attend_chain, compute_offsets, deform_points_chain, hat_scatter,
                     interpolated_bias, plain_twin, slope_arange, slope_two_take)


def _params(c, nh, ws, seed=0, deform=True, **kw):
    p = SdmsaParams.init(c, nh, ws, Stream(seed), deform=deform, **kw)
    # random bias so the equivalence checks exercise interpolation
    p.bias_table.data[...] = Stream(seed + 1).normal(p.bias_table.shape)
    return p


def _x(b, c, h, w, seed=0):
    return Tensor(Stream(seed).normal((b, c, h, w)))


# -- layout --------------------------------------------------------------------

def test_layout_validation():
    with pytest.raises(ValueError):
        WindowLayout(8, 8, 3)          # 3 does not divide 8
    with pytest.raises(ValueError):
        WindowLayout(8, 8, 0)
    with pytest.raises(ValueError):
        WindowLayout(8, 8, 4, shift=1)  # only 0 or ws//2


def test_window_count_at_paper_scale():
    assert WindowLayout(224, 224, 7).n_windows == 1024


@given(st.integers(1, 8), st.integers(1, 6), st.integers(1, 6))
def test_window_count_formula(ws, ny, nx):
    lay = WindowLayout(ny * ws, nx * ws, ws)
    assert lay.n_windows == (ny * ws) * (nx * ws) // ws**2
    assert lay.patches == ws * ws


def test_effective_window_caps_at_resolution():
    assert stage_layout(7, 0, 56, 56).ws == 7
    assert stage_layout(7, 0, 4, 8).ws == 4
    assert stage_layout(2, 1, 1, 1).ws == 1


@pytest.mark.parametrize("shift", [0, 2])
def test_partition_merge_round_trip_exact(shift):
    x = _x(2, 3, 8, 12, seed=shift)
    lay = WindowLayout(8, 12, 4, shift)
    back = window_merge(window_partition(x, lay), lay)
    np.testing.assert_array_equal(back.data, x.data)


def test_merge_inverts_split_for_any_head_count():
    x = _x(2, 4, 8, 12, seed=1)
    lay = WindowLayout(8, 12, 4)
    wins = window_partition(x, lay, 2)
    assert wins.shape == (2, 6, 2, 16, 2)
    np.testing.assert_array_equal(window_merge(wins, lay).data, x.data)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("shift", [0, 2])
def test_partition_and_merge_are_each_others_vjp(shift, heads, dtype):
    """Each is one node whose backward is the other's forward, bit for bit."""
    lay = WindowLayout(8, 12, 4, shift)                # non-square map
    x = Tensor(Stream(3).normal((2, 4, 8, 12)), requires_grad=True, dtype=dtype)
    wins = window_partition(x, lay, heads)
    assert wins._ctx.op == "window_partition" and wins._ctx.parents == (x,)
    g = Stream(4).normal(wins.shape).astype(dtype)
    wins.backward(g)
    assert x.grad.dtype == dtype
    np.testing.assert_array_equal(x.grad, window_merge(Tensor(g, dtype=dtype), lay).data)

    w = Tensor(g, requires_grad=True, dtype=dtype)
    out = window_merge(w, lay)
    assert out._ctx.op == "window_merge" and out._ctx.parents == (w,)
    gx = Stream(5).normal(x.shape).astype(dtype)
    out.backward(gx)
    np.testing.assert_array_equal(
        w.grad, window_partition(Tensor(gx, dtype=dtype), lay, heads).data)


@pytest.mark.parametrize("deform", [False, True])
def test_sdmsa_layout_nodes(deform):
    """The windows in and out are one node each; the plain path has no
    reshape, transpose or roll, and the deformable one only the sampler's
    roll of the shifted map."""
    x = Tensor(Stream(0).normal((2, 8, 8, 8)), requires_grad=True)  # records the layout nodes
    out, _ = sdmsa(x, _params(8, 2, 4, deform=deform), WindowLayout(8, 8, 4, 2))
    ops, seen, todo = [], set(), [out]
    while todo:
        t = todo.pop()
        if id(t) not in seen and t._ctx is not None:
            seen.add(id(t))
            ops.append(t._ctx.op)
            todo.extend(t._ctx.parents)
    assert ops.count("window_partition") == ops.count("window_merge") == 1
    assert ops.count("roll") == int(deform)
    if not deform:
        assert not {"reshape", "transpose"} & set(ops)


def test_partition_layout_mismatch_raises():
    with pytest.raises(ValueError):
        window_partition(_x(1, 2, 8, 8), WindowLayout(4, 4, 2))
    with pytest.raises(ValueError):
        window_merge(Tensor(np.zeros((1, 3, 1, 4, 2))), WindowLayout(4, 4, 2))


def test_partition_window_contents_row_major():
    # 4x4 map, ws 2: window 1 must hold columns 2..3 of rows 0..1
    x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
    wins = window_partition(x, WindowLayout(4, 4, 2))
    np.testing.assert_array_equal(wins.data[0, 1, 0, :, 0], [2.0, 3.0, 6.0, 7.0])


def test_shifted_partition_rolls_before_split():
    x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
    wins = window_partition(x, WindowLayout(4, 4, 2, shift=1))
    # after roll(-1, -1) the top-left window starts at original (1, 1)
    np.testing.assert_array_equal(wins.data[0, 0, 0, :, 0], [5.0, 6.0, 9.0, 10.0])


def test_origins_and_reference_points():
    lay = WindowLayout(4, 6, 2)
    org = reference_points(lay)[:, 0]
    np.testing.assert_array_equal(
        org, [[0, 0], [0, 2], [0, 4], [2, 0], [2, 2], [2, 4]]
    )
    ref = reference_points(lay)
    assert ref.shape == (6, 4, 2)
    np.testing.assert_array_equal(ref[4], [[2, 2], [2, 3], [3, 2], [3, 3]])


# -- parameters ----------------------------------------------------------------

def test_param_shapes_and_registry():
    p = _params(8, 2, 4)
    assert p.wq.shape == (2, 4, 4) and p.wo.shape == (8, 8)
    assert p.bias_table.shape == (2, 7, 7)
    assert p.off_dw_w.shape == (8, 1, 5, 5) and p.off_pw_w.shape == (4, 4, 1, 1)
    assert set(p.named_tensors()) == {
        "wq", "wk", "wv", "wo", "bias_table",
        "off_dw_w", "off_dw_b", "off_pw_w", "off_pw_b",
    }


def test_non_deform_params_have_no_offset_net():
    p = _params(8, 2, 4, deform=False)
    assert not p.deformable
    assert set(p.named_tensors()) == {"wq", "wk", "wv", "wo", "bias_table"}
    with pytest.raises(ValueError):
        compute_offsets(np.zeros((16, 4)), p, head=0)


def test_head_count_must_divide_channels():
    with pytest.raises(ValueError):
        SdmsaParams.init(6, 4, 2, Stream(0))


# -- bias interpolation ---------------------------------------------------------

def test_integer_displacements_hit_table_nodes():
    ws = 3
    table = Stream(2).normal((2 * ws - 1, 2 * ws - 1))
    grid = np.stack(np.meshgrid(np.arange(ws), np.arange(ws), indexing="ij"),
                    axis=-1).reshape(-1, 2).astype(np.float64)
    with default_dtype(np.float64):
        bias = interpolated_bias(grid, grid, table).data
    for i in range(ws * ws):
        for j in range(ws * ws):
            dy, dx = (grid[j] - grid[i] + ws - 1).astype(int)
            assert bias[i, j] == table[dy, dx]  # exact, not approximate


def test_fractional_displacement_interpolates():
    table = np.zeros((3, 3))
    table[1, 2] = 4.0  # displacement (0, +1)
    pq = np.array([[0.0, 0.0]])
    pk = np.array([[0.0, 0.5]])
    with default_dtype(np.float64):
        bias = interpolated_bias(pq, pk, table).data
    np.testing.assert_allclose(bias, [[2.0]])  # halfway toward the node


# -- attention forward ----------------------------------------------------------

def test_output_shape_matches_input():
    p = _params(8, 2, 4)
    lay = WindowLayout(8, 8, 4, shift=2)
    out, trace = sdmsa(_x(2, 8, 8, 8), p, lay)
    assert out.shape == (2, 8, 8, 8)
    assert trace.attention.shape == (2, 4, 2, 16, 16)


def test_attention_rows_sum_to_one():
    p = _params(8, 2, 4, seed=5)
    for shift in (0, 2):
        _, trace = sdmsa(_x(1, 8, 8, 8, seed=6), p, WindowLayout(8, 8, 4, shift))
        np.testing.assert_allclose(
            trace.attention.sum(axis=-1), 1.0, atol=1e-6
        )


def test_offsets_respect_bound():
    gamma = 0.7
    p = _params(8, 2, 4, seed=7, gamma_off=gamma)
    # inflate the offset net so tanh saturates and the bound binds
    p.off_pw_w.data[...] *= 50.0
    _, trace = sdmsa(_x(1, 8, 8, 8, seed=8), p, WindowLayout(8, 8, 4))
    bound = gamma * 4 / 2.0
    assert np.abs(trace.offsets).max() <= bound  # tanh saturates to 1.0 in f32
    assert np.abs(trace.offsets).max() > 0.5 * bound  # actually saturating


def test_deformed_points_stay_in_map():
    p = _params(8, 2, 4, seed=9, gamma_off=3.0)
    p.off_pw_w.data[...] *= 100.0
    _, trace = sdmsa(_x(1, 8, 8, 8, seed=10), p, WindowLayout(8, 8, 4))
    assert trace.deformed[..., 0].min() >= 0.0
    assert trace.deformed[..., 0].max() <= 7.0
    assert trace.deformed[..., 1].min() >= 0.0
    assert trace.deformed[..., 1].max() <= 7.0


def test_clamp_to_window_confines_samples():
    p = _params(8, 2, 4, seed=11, gamma_off=3.0, clamp_to_window=True)
    p.off_pw_w.data[...] *= 100.0
    lay = WindowLayout(8, 8, 4)
    _, trace = sdmsa(_x(1, 8, 8, 8, seed=12), p, lay)
    org = reference_points(lay)[:, 0]  # (n_w, 2)
    for wi in range(lay.n_windows):
        pts = trace.deformed[0, wi]  # (n_h, P, 2)
        assert pts[..., 0].min() >= org[wi, 0]
        assert pts[..., 0].max() <= org[wi, 0] + 3
        assert pts[..., 1].min() >= org[wi, 1]
        assert pts[..., 1].max() <= org[wi, 1] + 3


def test_zero_offsets_reduce_to_plain_window_attention():
    """With a silent offset net the deformable path IS the plain path."""
    for seed in range(5):
        p = _params(8, 2, 4, seed=seed)
        for t in (p.off_dw_w, p.off_dw_b, p.off_pw_w, p.off_pw_b):
            t.data[...] = 0.0
        x = _x(2, 8, 8, 8, seed=seed + 100)
        for shift in (0, 2):
            lay = WindowLayout(8, 8, 4, shift)
            a, _ = sdmsa(x, p, lay)
            b, _ = sdmsa(x, plain_twin(p), lay)
            np.testing.assert_array_equal(a.data, b.data)  # bit exact


def test_uniform_attention_averages_values():
    # zero q/k and bias -> softmax uniform -> output = per-window mean
    c, nh, ws = 4, 2, 2
    p = SdmsaParams.init(c, nh, ws, Stream(13), deform=False)
    p.wq.data[...] = 0.0
    p.wk.data[...] = 0.0
    d = c // nh
    p.wv.data[...] = np.broadcast_to(np.eye(d), (nh, d, d))
    p.wo.data[...] = np.eye(c)
    x = _x(1, c, 4, 4, seed=14)
    out, _ = sdmsa(x, p, WindowLayout(4, 4, ws))
    want = x.data.reshape(1, c, 2, 2, 2, 2).mean(axis=(3, 5), keepdims=True)
    want = np.broadcast_to(want, (1, c, 2, 2, 2, 2)).reshape(1, c, 4, 4)
    np.testing.assert_allclose(out.data, want, atol=1e-6)


def test_smaller_runtime_window_reads_table_center():
    # params built at ws 4 (7x7 table) but run on a ws 2 layout
    p = _params(4, 2, 4, seed=15, deform=False)
    x = _x(1, 4, 2, 2, seed=16)
    out, trace = sdmsa(x, p, WindowLayout(2, 2, 2))
    assert out.shape == (1, 4, 2, 2)
    np.testing.assert_allclose(trace.attention.sum(axis=-1), 1.0, atol=1e-6)


def test_forward_is_deterministic():
    p = _params(8, 4, 2, seed=17)
    x = _x(1, 8, 4, 4, seed=18)
    a, _ = sdmsa(x, p, WindowLayout(4, 4, 2, 1))
    b, _ = sdmsa(x, p, WindowLayout(4, 4, 2, 1))
    np.testing.assert_array_equal(a.data, b.data)


def test_error_paths():
    pd = _params(8, 2, 4)
    with pytest.raises(ValueError):
        sdmsa(_x(1, 6, 8, 8), pd, WindowLayout(8, 8, 4))
    with pytest.raises(ValueError):
        sdmsa(_x(1, 8, 4, 4), pd, WindowLayout(8, 8, 4))


def test_trace_for_plain_path_reports_reference_points():
    p = _params(8, 2, 4, deform=False)
    lay = WindowLayout(8, 8, 4)
    _, trace = sdmsa(_x(1, 8, 8, 8, seed=19), p, lay)
    assert np.all(trace.offsets == 0.0)
    want = np.broadcast_to(
        reference_points(lay).reshape(1, 4, 1, 16, 2), trace.deformed.shape
    )
    np.testing.assert_array_equal(trace.deformed, want)


def test_per_head_offsets_match_batched_offset_net():
    """compute_offsets (narrow slices) agrees with the grouped-conv path."""
    c, nh, ws = 8, 2, 4
    p = _params(c, nh, ws, seed=20)
    lay = WindowLayout(8, 8, ws)
    x = _x(1, c, 8, 8, seed=21)
    _, trace = sdmsa(x, p, lay)
    # rebuild head queries exactly as the forward does
    with default_dtype(x.dtype.type):
        wins = window_partition(x, lay)  # (1, n_w, 1, P, C)
        d = c // nh
        xh = transpose(
            reshape(wins, (lay.n_windows, lay.patches, nh, d)), (0, 2, 1, 3)
        )
        q = matmul(xh, Tensor(p.wq.data))
        for wi in (0, 3):
            for hi in range(nh):
                got = compute_offsets(Tensor(q.data[wi, hi]), p, head=hi)
                np.testing.assert_allclose(
                    got.data, trace.offsets[0, wi, hi], atol=1e-6
                )


def _bias_oracle(table, keys, origins):
    """interpolated_bias, which runs on the sampler, for every (image,
    window, head) of a (B, n_w, n_h, P, 2) key array."""
    b, nw, nh, pp, _ = keys.shape
    ws = math.isqrt(pp)
    grid = reference_points(WindowLayout(ws, ws, ws))[0]
    want = np.empty((b, nw, nh, pp, pp))
    for bi in range(b):
        for wi in range(nw):
            for hi in range(nh):
                want[bi, wi, hi] = interpolated_bias(
                    origins[wi] + grid, keys[bi, wi, hi], table[hi]).data
    return want


def test_relative_bias_matches_per_window_oracle():
    """The separable bias read equals interpolated_bias for every (image,
    window, head): at fractional, clamped deformed points, with samples
    clamped to their own window, and on the plain path's local grid."""
    with default_dtype(np.float64):
        c, nh, ws = 8, 2, 4
        lay = WindowLayout(8, 8, ws, shift=2)
        origins = reference_points(lay)[:, 0]
        cases = []
        for clamp in (False, True):
            p = _params(c, nh, ws, seed=26, gamma_off=2.0, clamp_to_window=clamp)
            p.off_pw_w.data[...] *= 20.0
            _, trace = sdmsa(_x(2, c, 8, 8, seed=27), p, lay)
            assert np.any(trace.offsets != np.round(trace.offsets))
            cases.append((trace.deformed, origins))
        grid = reference_points(WindowLayout(ws, ws, ws))
        cases.append((np.broadcast_to(grid, (1, 1, nh, ws * ws, 2)), np.zeros((1, 2))))
        for keys, org in cases:
            got = _relative_bias(p.bias_table, keys, org).data
            assert got.shape == keys.shape[:4] + (ws * ws,)
            np.testing.assert_allclose(got, _bias_oracle(p.bias_table.data, keys, org),
                                       rtol=0, atol=1e-12)


def test_relative_bias_grad_check():
    """float64 table and key-point gradients at fractional displacements
    strictly inside the table."""
    ws, nh = 3, 2
    org = np.array([[0.0, 0.0], [3.0, 6.0]])
    # key - origin in (0, ws - 1) keeps every displacement inside (0, t - 1)
    frac = Stream(41).uniform((1, 2, nh, ws * ws, 2), 0.1, 0.9)
    cell = np.floor(Stream(42).uniform(frac.shape, 0.0, ws - 1.0))
    keys = org[None, :, None, None, :] + cell + frac
    table = Stream(40).normal((nh, 2 * ws - 1, 2 * ws - 1))
    grad_check(lambda tab, k: _relative_bias(tab, k, org), [table, keys], tol=1e-6)


def test_relative_bias_key_gradient_at_clamp_and_integer_displacements():
    """A key axis gets an exactly zero gradient where every displacement is
    <= 0 or >= t - 1, and the right derivative at integer displacements:
    the same gradients the sampler gives through interpolated_bias."""
    ws, t = 3, 5
    with default_dtype(np.float64):
        table = Stream(43).normal((1, t, t))
        org = np.zeros((1, 2))
        keys = np.array([[-2.5, 4.5],    # both axes clamped for every query
                         [-2.0, 4.0],    # on the table's edge or beyond
                         [1.0, 1.0],     # integer and inside for every query
                         [0.5, 1.25]])
        # the oracle reads P keys for P queries: fill up with fractional ones
        keys = np.concatenate([keys, Stream(47).uniform((5, 2), -1.0, 3.0)])
        keys = keys.reshape(1, 1, 1, ws * ws, 2)
        g = Stream(44).normal((1, 1, 1, ws * ws, ws * ws))
        tab, k = Tensor(table, requires_grad=True), Tensor(keys, requires_grad=True)
        _relative_bias(tab, k, org).backward(g)
        dt, dk = tab.grad, k.grad
        assert np.all(dk[0, 0, 0, :2] == 0.0)
        assert np.all(dk[0, 0, 0, 2] != 0.0)

        pk = Tensor(keys[0, 0, 0], requires_grad=True)
        tab = Tensor(table[0], requires_grad=True)
        grid = reference_points(WindowLayout(ws, ws, ws))[0]
        interpolated_bias(grid, pk, tab).backward(g[0, 0, 0])
        np.testing.assert_allclose(dk[0, 0, 0], pk.grad, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dt[0], tab.grad, rtol=0, atol=1e-12)

        # one-sided differences: right derivative at the integer key
        h = 1e-7
        for axis in (0, 1):
            kp = keys.copy()
            kp[0, 0, 0, 2, axis] += h
            up = _relative_bias(Tensor(table), kp, org).data
            at = _relative_bias(Tensor(table), keys, org).data
            right = ((up - at) * g).sum() / h
            np.testing.assert_allclose(dk[0, 0, 0, 2, axis], right, rtol=1e-6)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape,t", [((1, 4, 2, 49, 7), 13), ((3, 1, 4, 16, 4), 7),
                                     ((2, 2, 1, 4, 2), 3)])
def test_hat_and_slope_equal_their_per_call_position_builds(shape, t, dtype):
    """Cached scatter positions give the plain and transposed hats and the
    slope bit for bit as positions built on every call did, with
    displacements across the table and past both ends."""
    rng = np.random.default_rng(t)
    d = rng.uniform(-2.0, t + 1.0, size=shape).astype(dtype)
    d.flat[::5] = np.round(d.flat[::5])             # integer displacements too
    i0, i1, f = axis_corners(d, t)
    inside = (d > 0.0) & (d < t - 1.0)
    for transposed in (False, True):
        got, want = _hat(i0, i1, f, t, transposed), hat_scatter(i0, i1, f, t, transposed)
        assert got.dtype == want.dtype == dtype
        np.testing.assert_array_equal(got, want)
    e = rng.normal(size=shape + (t,)).astype(dtype)
    got, want = _slope(e, i0, inside), slope_arange(e, i0, inside)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("shape,t", [((1, 4, 2, 49, 7), 13), ((3, 1, 4, 16, 4), 7),
                                     ((2, 2, 1, 4, 2), 3), ((2, 1, 1, 4, 2), 1)])
def test_slope_through_difference_tables_equals_the_two_corner_slope(shape, t):
    """In float64, the gradient times the table's forward differences read
    at the floor equals the gradient times the table read at both corners
    and subtracted, to 1e-12, at clamped, integer and fractional
    displacements; where every displacement of a row is clamped the slope
    is exactly 0, and a one-entry table (t = 1) has no slope at all."""
    rng = np.random.default_rng(t + 1)
    d = rng.uniform(-2.0, t + 1.0, size=shape)
    d.flat[::5] = np.round(d.flat[::5])             # integer displacements
    d[0, 0] = np.where(rng.random(shape[2:]) < 0.5, -1.5, t + 0.5)  # clamped rows
    i0, i1, _ = axis_corners(d, t)
    inside = (d > 0.0) & (d < t - 1.0)
    assert inside.any() or t == 1
    g = rng.normal(size=shape + (t,))
    table = rng.normal(size=(t, t))
    got = _slope(g @ _steps(table), i0, inside)
    want = slope_two_take(g @ table, i0, i1, inside)
    assert got.shape == want.shape == shape[:-1]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert (got[0, 0] == 0.0).all()
    if t == 1:
        assert (got == 0.0).all()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_steps_are_forward_differences_with_a_zero_end(dtype):
    m = np.arange(24, dtype=dtype).reshape(2, 3, 4) ** 2
    d = _steps(m.swapaxes(-1, -2))
    assert d.dtype == dtype and d.flags.c_contiguous and d.shape == (2, 4, 3)
    np.testing.assert_array_equal(d[..., :-1], np.diff(m.swapaxes(-1, -2), axis=-1))
    assert (d[..., -1] == 0).all()


def test_hat_positions_are_cached_read_only():
    for transposed in (False, True):
        pos = _hat_positions((2, 3, 4), 7, transposed)
        assert not pos.flags.writeable and pos.dtype == np.int64
        assert _hat_positions((2, 3, 4), 7, transposed) is pos
        with pytest.raises(ValueError):
            pos[0, 0, 0] = 1
    assert _hat_positions((2, 3, 4), 7, True) is not _hat_positions((2, 3, 4), 7, False)


def test_relative_bias_stays_in_table_dtype():
    """A float32 table read at float32 keys from float64 window origins
    gives a float32 bias and float32 gradients, without upcasting."""
    lay = WindowLayout(8, 8, 4)
    org = reference_points(lay)[:, 0]
    assert org.dtype == np.float64
    table = Tensor(Stream(45).normal((2, 7, 7)).astype(np.float32), requires_grad=True)
    pts = reference_points(lay)[None, :, None] + Stream(46).uniform((1, 4, 2, 16, 2), -1, 1)
    keys = Tensor(pts.astype(np.float32), requires_grad=True)
    out = _relative_bias(table, keys, org)
    assert out.dtype == np.float32
    dt, dk = out._ctx.bwd(np.ones(out.shape, np.float32))
    assert dt.dtype == np.float32 and dk.dtype == np.float32


@pytest.mark.parametrize("deform", [True, False])
@pytest.mark.parametrize("clamp", [False, True])
def test_batch_matches_single_images(deform, clamp):
    """A batch of two is the two single-image runs side by side: same
    outputs bit for bit, bias-table gradient the sum of theirs."""
    c, nh, ws = 8, 2, 4
    lay = WindowLayout(8, 8, ws, shift=2)
    with default_dtype(np.float64):
        x = _x(2, c, 8, 8, seed=28)
        g = Stream(29).normal(x.shape)

        def run(lo, hi):
            p = _params(c, nh, ws, seed=30, gamma_off=2.0, clamp_to_window=clamp)
            p.off_pw_w.data[...] *= 20.0
            out, _ = sdmsa(Tensor(x.data[lo:hi]), p if deform else plain_twin(p), lay)
            out.backward(g[lo:hi])
            return out.data, p.bias_table.grad

        both, g_both = run(0, 2)
        first, g_first = run(0, 1)
        second, g_second = run(1, 2)
    np.testing.assert_array_equal(both, np.concatenate([first, second]))
    np.testing.assert_allclose(g_both, g_first + g_second, rtol=0, atol=1e-12)


# -- gradients ------------------------------------------------------------------

@pytest.mark.parametrize("deform", [True, False])
def test_grad_check_through_attention(deform):
    c, nh, ws = 4, 2, 2
    p = _params(c, nh, ws, seed=22, deform=deform)
    lay = WindowLayout(4, 4, ws, shift=1)

    def run(x, wq, wv, bias):
        pp = SdmsaParams(
            gamma_off=p.gamma_off,
            wq=wq, wk=Tensor(p.wk.data), wv=wv, wo=Tensor(p.wo.data),
            bias_table=bias,
            off_dw_w=None if not deform else Tensor(p.off_dw_w.data),
            off_dw_b=None if not deform else Tensor(p.off_dw_b.data),
            off_pw_w=None if not deform else Tensor(p.off_pw_w.data),
            off_pw_b=None if not deform else Tensor(p.off_pw_b.data),
        )
        out, _ = sdmsa(x, pp, lay)
        return out

    x = Stream(23).normal((1, c, 4, 4)) * 0.5
    grad_check(run, [x, p.wq.data, p.wv.data, p.bias_table.data], tol=1e-5)


# -- sampling points ---------------------------------------------------------------

_OFFSET_NAMES = ("off_dw_w", "off_dw_b", "off_pw_w", "off_pw_b")


def _bounds(lay, clamp, dtype):
    """The clip bounds `sdmsa` passes: the map, or each query's own window."""
    if not clamp:
        return np.zeros(2, dtype), np.array([lay.h - 1, lay.w - 1], dtype)
    lo = reference_points(lay)[:, 0].astype(dtype).reshape(1, lay.n_windows, 1, 1, 2)
    return lo, lo + (lay.ws - 1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("clamp", [False, True], ids=["map", "window"])
@pytest.mark.parametrize("silent", [False, True], ids=["net", "silent"])
def test_deform_points_match_the_op_chain(dtype, clamp, silent):
    """The one-node sampling points equal the eleven-node chain bit for bit:
    points, offsets and the gradients of the queries and of all four offset
    weights, on a shifted layout with B > 1 and some points clipped.  A
    silent (zero) offset net puts the edge points exactly on the bound,
    where the clip passes no gradient."""
    c, nh, ws = 8, 2, 4
    lay = WindowLayout(8, 8, ws, shift=2)
    ref = reference_points(lay).reshape(1, lay.n_windows, 1, lay.patches, 2)
    runs = []
    with default_dtype(dtype):
        lo, hi = _bounds(lay, clamp, dtype)
        for fn in (_deform_points, deform_points_chain):
            p = _params(c, nh, ws, seed=50, gamma_off=2.0, clamp_to_window=clamp)
            for name in _OFFSET_NAMES:
                t = getattr(p, name)
                t.data[...] = 0.0 if silent else Stream(51).normal(t.shape)
            q = Tensor(Stream(52).normal((2, lay.n_windows, nh, lay.patches, c // nh)),
                       requires_grad=True)
            pts, off = fn(q, p, ws, ref, lo, hi)
            pts.backward(Stream(53).normal(pts.shape))
            weights = [getattr(p, name) for name in _OFFSET_NAMES]
            runs.append((pts.data, off, [q, *weights]))
    (pts, off, grads), (ref_pts, ref_off, ref_grads) = runs
    assert pts.dtype == off.dtype == dtype
    clipped = (pts == lo) | (pts == hi)
    assert clipped.any() and not clipped.all()
    np.testing.assert_array_equal(pts, ref_pts)
    np.testing.assert_array_equal(off, ref_off)
    for t, want in zip(grads, ref_grads):
        assert t.grad.dtype == dtype
        np.testing.assert_array_equal(t.grad, want.grad)


def test_deform_points_grad_check():
    """float64 gradients of the queries and the four offset weights, with
    points on both sides of the clip."""
    c, nh, ws = 4, 2, 2
    lay = WindowLayout(4, 4, ws, shift=1)
    ref = reference_points(lay).reshape(1, lay.n_windows, 1, lay.patches, 2)
    lo, hi = _bounds(lay, False, np.float64)
    p = _params(c, nh, ws, seed=54)
    s = Stream(55)
    inputs = [s.normal((2, lay.n_windows, nh, lay.patches, c // nh))]
    inputs += [s.normal(getattr(p, name).shape) for name in _OFFSET_NAMES]

    def run(q, *weights):
        return _deform_points(q, replace(p, **dict(zip(_OFFSET_NAMES, weights))),
                              ws, ref, lo, hi)[0]

    with default_dtype(np.float64):
        pts = run(*(Tensor(a) for a in inputs)).data
    assert np.any((pts == lo) | (pts == hi))
    grad_check(run, inputs, tol=1e-6)


def test_grad_check_offset_net_parameters():
    c, nh, ws = 4, 2, 2
    p = _params(c, nh, ws, seed=24)
    lay = WindowLayout(4, 4, ws)

    def run(dw_w, pw_w):
        pp = SdmsaParams(
            gamma_off=p.gamma_off,
            wq=Tensor(p.wq.data), wk=Tensor(p.wk.data),
            wv=Tensor(p.wv.data), wo=Tensor(p.wo.data),
            bias_table=Tensor(p.bias_table.data),
            off_dw_w=dw_w, off_dw_b=Tensor(p.off_dw_b.data),
            off_pw_w=pw_w, off_pw_b=Tensor(p.off_pw_b.data),
        )
        out, _ = sdmsa(Tensor(Stream(25).normal((1, c, 4, 4))), pp, lay)
        return out

    grad_check(run, [p.off_dw_w.data, p.off_pw_w.data], tol=1e-4)


# -- fused window core ------------------------------------------------------------

def _qkvb(dtype, bias_shape, seed=40, shape=(2, 3, 2, 16, 4)):
    s = Stream(seed)
    return [Tensor(s.normal(sh), requires_grad=True, dtype=dtype)
            for sh in (shape, shape, shape, bias_shape)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bias_shape", [(2, 3, 2, 16, 16), (1, 1, 2, 16, 16)],
                         ids=["full", "broadcast"])
def test_attend_matches_the_op_chain(dtype, bias_shape):
    """The fused node equals the six-node chain bit for bit: output,
    probabilities and the gradients of q, k, v and a full-shape
    (deformable path) or broadcast (plain path) bias."""
    _assert_attend_matches_the_op_chain(dtype, bias_shape, (2, 3, 2, 16, 4))


@pytest.mark.parametrize("bias", ["full", "broadcast"])
@pytest.mark.parametrize("p", [4, 16, 49])
@pytest.mark.parametrize("d", [4, 8, 16])
def test_attend_matches_the_op_chain_at_the_shipped_head_widths(d, p, bias):
    """Bit for bit in float32 at every head width d and window size P the
    micro and default configs use (float64 can round the last bit apart
    at d = 16, as `_attend` says)."""
    lead = (2, 3, 2) if bias == "full" else (1, 1, 2)
    _assert_attend_matches_the_op_chain(np.float32, (*lead, p, p), (2, 3, 2, p, d))


def _assert_attend_matches_the_op_chain(dtype, bias_shape, shape):
    with default_dtype(dtype):
        fused = _qkvb(dtype, bias_shape, shape=shape)
        chain = _qkvb(dtype, bias_shape, shape=shape)
        out, probs = _attend(*fused)
        ref_out, ref_probs = attend_chain(*chain)
        g = Stream(41).normal(out.shape).astype(dtype)
        out.backward(g)
        ref_out.backward(g)
    assert out.dtype == dtype and probs.dtype == dtype
    np.testing.assert_array_equal(out.data, ref_out.data)
    np.testing.assert_array_equal(probs, ref_probs.data)
    for t, ref in zip(fused, chain):
        assert t.grad.shape == ref.grad.shape
        np.testing.assert_array_equal(t.grad, ref.grad)


def _scores(q, k, bias):
    """The biased scores as `_attend` forms them."""
    s = np.matmul(q.data, np.swapaxes(k.data, -1, -2))
    s *= q.dtype.type(1.0 / math.sqrt(q.shape[-1]))
    return s + bias.data


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("p", [1, 4, 16, 49])
def test_attend_row_max_keeps_the_chain_bits_on_ties_and_signed_zeros(dtype, p):
    """The row max over a keys-leading copy gives the six-node chain's
    output, probabilities and gradients bit for bit at every window size,
    also for rows whose maximum is tied and for rows whose maximum is held
    by both +0.0 and -0.0.  The smallest subnormal key times the 1/2 scale
    of d = 4 makes the -0.0 score."""
    tiny = np.finfo(dtype).smallest_subnormal
    with default_dtype(dtype):
        fused, chain = (_qkvb(dtype, (2, 3, 2, p, p), shape=(2, 3, 2, p, 4))
                        for _ in range(2))
        for q, k, v, bias in (fused, chain):
            q.data[0, 0, 0], k.data[0, 0, 0] = 0.0, 0.0   # scores = bias: a tie
            bias.data[0, 0, 0] = np.where(np.arange(p) % 2, 2.5, -1.0)
            if p > 1:   # one row's max held by -0.0 (key 0) and +0.0 (key 1)
                q.data[0, 0, 1] = [1.0, 0.0, 0.0, 0.0]
                k.data[0, 0, 1] = 0.0
                k.data[0, 0, 1, 0, 0] = -tiny
                bias.data[0, 0, 1] = -1.0
                bias.data[0, 0, 1, :, :2] = [-0.0, 0.0]
        s = _scores(*fused[:2], fused[3])
        if p > 1:
            assert (s[0, 0, 0].max(axis=-1) == 2.5).all()
            assert (s[0, 0, 1].max(axis=-1) == 0.0).all()
            assert np.signbit(s[0, 0, 1, :, 0]).all() and not np.signbit(s[0, 0, 1, :, 1]).any()
        out, probs = _attend(*fused)
        ref_out, ref_probs = attend_chain(*chain)
        g = Stream(41).normal(out.shape).astype(dtype)
        out.backward(g)
        ref_out.backward(g)
    np.testing.assert_array_equal(out.data, ref_out.data)
    np.testing.assert_array_equal(probs, ref_probs.data)
    for t, ref in zip(fused, chain):
        np.testing.assert_array_equal(t.grad, ref.grad)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_attend_score_overflow_raises():
    """q kᵀ past float32 range makes +inf scores: the check on the biased
    scores names the fused node."""
    q, k, v, bias = _qkvb(np.float32, (1, 1, 2, 16, 16))
    q.data[...] = k.data[...] = 1e20
    with pytest.raises(NumericsError, match="attend produced non-finite"):
        _attend(q, k, v, bias)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_attend_negative_infinite_score_raises():
    """Keys (-1e20, 1) against q = 1e20 score (-inf, 1e20): the softmax
    alone would give the finite probabilities (0, 1), so the check has to
    see the scores, as the six-node chain's matmul did."""
    q, k, v, bias = _qkvb(np.float32, (1, 1, 1, 2, 2), shape=(1, 1, 1, 2, 1))
    q.data[...] = 1e20
    k.data[..., 0, 0] = -1e20
    k.data[..., 1, 0] = 1.0
    bias.data[...] = 0.0
    with pytest.raises(NumericsError, match="attend produced non-finite"):
        _attend(q, k, v, bias)


def test_attend_nonfinite_upstream_gradient_raises():
    q, k, v, bias = _qkvb(np.float32, (1, 1, 2, 16, 16))
    out, _ = _attend(q, k, v, bias)
    g = np.zeros(out.shape, np.float32)
    g[0, 1, 0, 3, 2] = np.nan
    with pytest.raises(NumericsError, match="attend backward produced non-finite"):
        out.backward(g)
