"""Slow per-window reference implementations the attention tests check
the batched library paths against, the op chains the fused window core and
the one-node loss replace, the block-output bump the Grad-CAM tests take
finite differences with, and the per-tensor Adam loop the trainer's
one-vector update replaces."""

import math
from dataclasses import replace

import numpy as np

import sdah.blocks
from sdah.attention import SdmsaParams, _offset_forward
from sdah.network import forward
from sdah.sampling import bilinear_sample_batch
from sdah.tensor import (Tensor, _as_tensor, _make, add, matmul, narrow, reshape, softmax,
                         swap_last, tsum)


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


def attend_chain(q: Tensor, k: Tensor, v: Tensor, bias: Tensor) -> tuple[Tensor, Tensor]:
    """softmax(q kᵀ/√d + bias) v as six graph nodes (swap_last, matmul,
    scale, add, softmax, matmul): the chain `attention._attend` fuses.
    Returns (output, probabilities)."""
    scores = matmul(q, swap_last(k)) * (1.0 / math.sqrt(q.shape[-1]))
    attn = softmax(scores + bias, axis=-1)
    return matmul(attn, v), attn


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


def adam_per_tensor(params: dict, grads: dict, state: dict, lr: float) -> None:
    """One bias-corrected Adam update tensor by tensor, in place on the
    parameter tensors; `state` holds the step count "t" and per-name moments
    "m" and "v", created at the first step."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    state["t"] = state.get("t", 0) + 1
    c1 = 1.0 - beta1 ** state["t"]
    c2 = 1.0 - beta2 ** state["t"]
    for name, p in params.items():
        g = np.asarray(grads[name])
        if g.shape != p.data.shape:
            raise ValueError(f"{name}: grad shape {g.shape} != {p.data.shape}")
        m = state.setdefault("m", {}).setdefault(name, np.zeros_like(p.data))
        v = state.setdefault("v", {}).setdefault(name, np.zeros_like(p.data))
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p.data = p.data - lr * (m / c1) / (np.sqrt(v / c2) + eps)


def loss_chain(logits, label, lambda_dice: float, lambda_ce: float
               ) -> tuple[Tensor, Tensor, Tensor]:
    """(loss, dice, ce) as the op chain `training.combined_loss` replaces:
    a softmax, then per foreground class a narrow, a product, two sums and
    the ratio arithmetic for dice, and CE as its own stabilized node."""
    lg = _as_tensor(logits)
    lab = np.asarray(label).astype(np.int64)
    k = lg.shape[1]
    eps = 1e-5
    p = softmax(lg, axis=1)
    total = None
    for c in range(1, k):
        gc = (lab == c).astype(lg.dtype.type)[:, None]
        pc = narrow(p, 1, c, 1)
        inter = tsum(pc * Tensor(gc, dtype=lg.dtype))
        denom = tsum(pc) + float(gc.sum())
        term = 1.0 - (2.0 * inter + eps) / (denom + eps)
        total = term if total is None else total + term
    dice = total * Tensor(np.asarray(1.0 / (k - 1)), dtype=lg.dtype)

    x = lg.data
    m = x.max(axis=1, keepdims=True)
    lse = np.log(np.exp(x - m).sum(axis=1, keepdims=True)) + m
    picked = np.take_along_axis(x, lab[:, None], axis=1)
    n = picked.size

    def ce_bwd(g):
        onehot = np.zeros_like(x)
        np.put_along_axis(onehot, lab[:, None], 1.0, axis=1)
        return g * (np.exp(x - lse) - onehot) / n

    ce = _make("ce_loss", np.asarray((lse - picked).sum() / n, dtype=x.dtype), (lg,), ce_bwd)
    return lambda_dice * dice + lambda_ce * ce, dice, ce
