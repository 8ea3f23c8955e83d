"""Slow per-window reference implementations the attention tests check
the batched library paths against, and the block-output bump the Grad-CAM
tests take finite differences with."""

from dataclasses import replace

import sdah.blocks
from sdah.attention import SdmsaParams, _offset_forward
from sdah.network import forward
from sdah.sampling import bilinear_sample_batch
from sdah.tensor import Tensor, _as_tensor, add, narrow, reshape


def compute_offsets(q_win, params: SdmsaParams, head: int) -> Tensor:
    """Offsets for one window and one head: (P, d) queries -> (P, 2)."""
    if not params.deformable:
        raise ValueError("offset net absent: layer built with deform=False")
    q = _as_tensor(q_win)
    p, d = q.shape
    qh = reshape(q, (1, 1, 1, p, d))
    return reshape(
        _offset_forward(
            qh,
            narrow(params.off_dw_w, 0, head * d, d),
            narrow(params.off_dw_b, 0, head * d, d),
            narrow(params.off_pw_w, 0, head * 2, 2),
            narrow(params.off_pw_b, 0, head * 2, 2),
            params.ws,
            params.gamma_off,
        ),
        (p, 2),
    )


def plain_twin(params: SdmsaParams) -> SdmsaParams:
    """The same layer without its offset net: it attends over each window's
    own patches, the reference the deformable path is checked against."""
    return replace(params, off_dw_w=None, off_dw_b=None, off_pw_w=None,
                   off_pw_b=None)


def interpolated_bias(p_query, p_key_deformed, bias_table) -> Tensor:
    """Continuous-relative-position bias matrix for one window and head.

    Entry [i, j] reads the (2*ws-1)^2 table at displacement
    p_key_deformed[j] - p_query[i], bilinearly interpolated by the feature
    sampler and clamped to the table's range, so integer displacements
    reproduce the table values exactly.
    """
    table = _as_tensor(bias_table)
    t = table.shape[-1]
    ws = (t + 1) // 2
    pq = _as_tensor(p_query, like=table)
    pk = _as_tensor(p_key_deformed, like=table)
    p = pq.shape[0]
    delta = reshape(pk, (1, p, 2)) - reshape(pq, (p, 1, 2)) + float(ws - 1)
    out = bilinear_sample_batch(reshape(table, (1, 1, t, t)),
                                reshape(delta, (1, p * p, 2)))
    return reshape(out, (p, p))


def bumped_logits(model, image, block: str, delta) -> Tensor:
    """The logits of `network.forward` with `delta` added onto `block`'s
    output.  `blocks.sdapc_block` is wrapped for this one forward and picks
    the block by parameter identity."""
    target = model.layers[block]
    inner = sdah.blocks.sdapc_block

    def bumped(x, p, layout):
        out, trace = inner(x, p, layout)
        if p is target:
            out = add(out, Tensor(delta, dtype=out.dtype))
        return out, trace

    sdah.blocks.sdapc_block = bumped
    try:
        return forward(model, image)[0]
    finally:
        sdah.blocks.sdapc_block = inner
