"""A fixed piece of numpy work that gauges how fast the host runs right now.

On a shared 2-vCPU virtual machine the same train step takes 15-25% longer
for minutes at a time, and its CPU time moves with its wall time, so the
processor itself runs slower: a step timed now and one timed half an hour
later are not comparable as they stand.  The probe is work that the
benchmark owns and no change under `src/` can alter: small-array operations
whose cost is numpy dispatch, like a train_micro step, then a BLAS product
and an `np.add.at` scatter, like the kernels of train_224.  The workloads
run it next to every timed operation; an operation's time divided by the
probe's, times `REFERENCE_S`, is the operation's time at the reference host
speed, which is what the result line reports.
"""

from __future__ import annotations

import time

import numpy as np

clock = time.perf_counter

# About the median probe time between two timed operations on the reference
# host (2-vCPU Intel Xeon VM, 2.0 GHz, numpy 2.4.6, scipy-openblas 0.3.31,
# one BLAS thread); the report gives it as host.probe_ms.p50.  In a tight
# loop, with warm caches, the probe takes about 2.2 ms there.  A constant,
# so that the results of two runs scale by the same factor.
REFERENCE_S = 2.6e-3


class HostProbe:
    """Call it to run the probe once; it returns the probe's wall seconds."""

    def __init__(self):
        rng = np.random.default_rng(20230228)
        self.small = rng.standard_normal((8, 8, 8, 8)).astype(np.float32)
        self.a = rng.standard_normal((256, 288)).astype(np.float32)
        self.b = rng.standard_normal((288, 32)).astype(np.float32)
        self.index = rng.integers(0, 4096, 40_000)
        self.values = rng.standard_normal(40_000).astype(np.float32)
        self.table = np.zeros(4096, np.float32)

    def __call__(self) -> float:
        t0 = clock()
        x = self.small
        for _ in range(60):
            y = np.tanh(x * 1.0001 + 0.5).reshape(8, 8, 64).transpose(0, 2, 1)
            x = np.ascontiguousarray(y.transpose(0, 2, 1)).reshape(8, 8, 8, 8)
            x = x - x.sum(axis=(2, 3), keepdims=True) / 64.0
        for _ in range(8):
            self.a @ self.b
        np.add.at(self.table, self.index, self.values)
        return clock() - t0


def at_reference(seconds: float, probe_s: float) -> float:
    """`seconds` measured while the probe took `probe_s`, at reference speed."""
    return seconds * REFERENCE_S / probe_s

