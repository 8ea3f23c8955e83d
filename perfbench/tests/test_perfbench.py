"""Tests of the benchmark itself: seeded inputs, span arithmetic, the tail
percentile, the tracer's installation, and BENCHMARK.json's metric lists.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for p in (str(ROOT / "src"), str(BENCH)):
    if p not in sys.path:
        sys.path.insert(0, p)

import run  # noqa: E402
import tracing as T  # noqa: E402
import workloads as W  # noqa: E402


# -- inputs ---------------------------------------------------------------------

def _input_bytes(samples) -> bytes:
    from sdah.io import sdt1_bytes

    return b"".join(sdt1_bytes(s.image.data) + sdt1_bytes(s.label.data)
                    for s in samples)


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    w = W.WORKLOADS[name]
    a = _input_bytes(W.make_inputs(w, 5))
    b = _input_bytes(W.make_inputs(w, 5))
    c = _input_bytes(W.make_inputs(w, 6))
    assert a == b
    assert a != c


def test_train_chunks_continue_the_step_count(tmp_path):
    w = W.Workload("tiny", "train", 1, 32, 2, 8, batch=2, chunk=2, model=W.MICRO)
    env = W.setup(w, 0, tmp_path)
    run = W.run_train(w, env, 0, tmp_path / "train", chunks=2)
    # one interval per chunk between its two marks, the first dropped as
    # warm-up; each chunk's last step (with its writes) is a finish
    assert run.steps == 4 and len(run.step_s) == 1 and len(run.finish_s) == 2
    assert len(run.step_ref) == 1 and len(run.probe_s) == 4  # a probe per mark
    assert run.failed == 0
    assert [r["step"] for rows in run.rows for r in rows] == [0, 1, 3]  # logs: 0, last


# -- statistics -----------------------------------------------------------------

@pytest.mark.parametrize("n, index, pct", [
    (100, 89, 90.0),
    (11, 0, 100.0 / 11),
    (20, 9, 50.0),
    (200, 189, 95.0),
])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, index, pct):
    values = list(np.random.default_rng(n).permutation(np.arange(n) * 1.5))
    got, got_pct, got_n = W.tail(values)
    assert got == sorted(values)[index]
    assert sum(v > got for v in values) == 10
    assert got_pct == pytest.approx(pct)
    assert got_n == n


def test_tail_without_ten_samples_beyond_falls_back_to_the_maximum():
    assert W.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_times_scale_to_the_reference_host_speed():
    from hostprobe import REFERENCE_S, at_reference

    # a host running at half the reference speed doubles the probe's time
    assert at_reference(0.5, 2 * REFERENCE_S) == pytest.approx(0.25)
    host = W.host_summary([2 * REFERENCE_S] * 3 + [4 * REFERENCE_S])
    assert host["speed"] == pytest.approx(0.5) and host["n"] == 4
    assert run.host_verdict(host) == "unresolved"
    assert run.host_verdict(W.host_summary([REFERENCE_S * 1.4] * 4)) == "steady"
    assert run.host_verdict(W.host_summary([REFERENCE_S * 1.6] * 4)) == "unresolved"


# -- span arithmetic --------------------------------------------------------------

def _span(name, t0, t1, parent, info=None):
    return [name, t0, t1, parent, info]


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 3.0, 0),
        _span("b", 2.0, 4.0, 0),    # overlaps a: union of a and b is 3
        _span("c", 8.0, 12.0, 0),   # runs past the parent: 2 counted
        _span("a.1", 1.5, 2.5, 1),  # grandchild: only a loses it
        _span("other", 20.0, 21.0, -1),
    ]
    assert T.self_times(spans) == pytest.approx([5.0, 1.0, 2.0, 4.0, 1.0, 1.0])


def test_layer_sums_attribute_forward_and_backward_time():
    spans = [
        _span("training.train", 0.0, 100.0, -1),
        _span("training.batch", 0.0, 1.0, 0),
        _span("network.forward", 2.0, 40.0, 0, 1000),
        _span("blocks.enc1", 3.0, 30.0, 2),
        _span("attention", 4.0, 20.0, 3),
        _span("sampling.bias", 5.0, 9.0, 4, 64),
        _span("tensor", 10.0, 11.0, 4),
        _span("convops.depthwise", 21.0, 25.0, 3, 500),
        _span("tensor.backward", 50.0, 80.0, 0),
        _span("vjp", 51.0, 55.0, 8, 5),    # sampling node, inside attention
        _span("vjp", 56.0, 58.0, 8, 6),    # tensor node, inside attention
        _span("vjp", 60.0, 70.0, 8, 7),    # conv node, in enc1 but not attention
        _span("training.adam", 85.0, 90.0, 0),
    ]
    c = T.layer_sums(spans)
    assert c["fwd:attention"] == 16.0
    assert c["attention.kernel_fwd"] == 4.0
    assert c["bwd_incl:attention"] == 6.0
    assert c["attention.kernel_bwd"] == 4.0
    assert c["bwd_incl:blocks.enc1"] == 16.0
    assert c["bwd:convops.depthwise"] == 10.0
    assert c["self:tensor.backward"] == 14.0          # 30 minus 16 of VJPs
    assert c["convops.flop"] == 500 + 2 * 500
    assert c["training.data"] == 2.0                 # batch start -> forward start
    assert c["training.finish"] == 10.0              # last adam end -> train end
    m = T.layer_metrics(c, units=2)
    assert m["attention.self_fwd_ms"] == pytest.approx(6000.0)
    assert m["attention.self_bwd_ms"] == pytest.approx(1000.0)
    assert m["tensor.backward_overhead_ms"] == pytest.approx(7000.0)
    assert m["sampling.points"] == 32
    assert T.coverage(c) == pytest.approx((1 + 38 + 30 + 5) / 100.0)


# -- the tracer against the real package --------------------------------------------

def _tiny_step(model, x, label):
    import sdah.network as network
    import sdah.training as training

    logits, _ = network.forward(model, x)
    loss, _, _ = training.combined_loss(logits, label, training.TrainConfig())
    loss.backward()
    return loss.item(), {k: p.grad.copy() for k, p in model.named_parameters().items()
                         if p.grad is not None}


def test_tracing_keeps_arithmetic_and_restores_every_binding():
    import sdah.attention
    import sdah.blocks
    import sdah.convops
    import sdah.network as network
    import sdah.tensor

    sample = W.make_inputs(W.WORKLOADS["train_micro"], 0)[0]
    x = sample.image.data[None]
    label = sample.label.data[None]
    originals = (sdah.blocks.conv2d, sdah.attention.conv2d, sdah.convops.conv2d,
                 sdah.tensor.Tensor.backward)
    plain = _tiny_step(network.build_model(W.MICRO), x, label)
    with T.Tracer() as tr:
        assert sdah.blocks.conv2d is sdah.attention.conv2d is sdah.convops.conv2d
        assert sdah.blocks.conv2d is not originals[0]
        traced = _tiny_step(network.build_model(W.MICRO), x, label)
        spans = tr.drain()
    assert (sdah.blocks.conv2d, sdah.attention.conv2d, sdah.convops.conv2d,
            sdah.tensor.Tensor.backward) == originals
    assert traced[0] == plain[0]
    assert traced[1].keys() == plain[1].keys()
    assert all(np.array_equal(traced[1][k], plain[1][k]) for k in plain[1])
    assert tr.absent == []
    c = T.layer_sums(spans)
    for block in ("stem", "enc1", "bottleneck", "dec1", "head"):
        assert c[f"fwd:blocks.{block}"] > 0 and c[f"bwd_incl:blocks.{block}"] > 0
    assert c["n:blocks.unknown"] == 0
    assert c["n:network.forward"] == 1 and c["n:tensor.backward"] == 1


def test_a_missing_function_is_reported_absent(monkeypatch):
    import sdah.metrics

    monkeypatch.delattr(sdah.metrics, "hd95")
    with T.Tracer() as tr:
        pass
    assert tr.absent == ["metrics.hd95"]


# -- BENCHMARK.json and the command line ----------------------------------------------

def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.E2E_UNITS
    layers = T.layer_metrics(Counter(), 1)
    layers.update(dict.fromkeys(run.TRACE_METRICS, 0.0))
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: run.layer_unit(k) for k in layers}
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "train_micro", "--seed", "0",
                     "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
