"""Smoke runs of the scripts under scripts/ with tiny arguments, so a change
to the package API cannot break them silently."""

import csv
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from numpy.polynomial import polynomial as P

from sdah.tensor import _ERF_P, _ERF_Q

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(script, out, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--out", str(out), "--steps", "2", *args],
        capture_output=True, text=True, timeout=300)


def test_ablation_sweep_writes_one_row_per_variant(tmp_path):
    r = _run("ablation_sweep.py", tmp_path / "abl", "--samples", "8", "--holdout", "2")
    assert r.returncode == 0, r.stderr
    with open(tmp_path / "abl" / "sweep.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [(row["flags"], row["branch"]) for row in rows] == [
        ("NNNN", "dual"), ("DNNN", "dual"), ("DDDD", "dual"),
        ("DDDD", "sdmsa_only"), ("DDDD", "conv_only")]


def test_desk_benchmark_reports_and_misses_its_bars_at_two_steps(tmp_path):
    r = _run("run_desk_benchmark.py", tmp_path / "desk", "--samples", "10",
             "--holdout", "2", "--batch", "2")
    assert r.returncode == 1, r.stderr     # 2 steps cannot reach DSC 0.90
    assert "benchmark: FAIL" in r.stdout
    report = json.loads((tmp_path / "desk" / "report.json").read_text())
    assert set(report) == {
        "train_seconds", "initial_loss", "final_loss", "loss_ratio",
        "holdout_mean_dsc", "holdout_min_dsc", "holdout_mean_hd95", "hd95_excluded"}


def test_fit_erf_gives_the_rational_erf_in_tensor():
    spec = importlib.util.spec_from_file_location("fit_erf", SCRIPTS / "fit_erf.py")
    fit_erf = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fit_erf)
    err, p, q = fit_erf.fit()
    assert err < 7e-10
    # near-minimax fits differ in their coefficients, not in their values
    s = np.linspace(0.0, fit_erf.END, 20_001) ** 2
    want = P.polyval(s, _ERF_P) / P.polyval(s, _ERF_Q)
    np.testing.assert_allclose(P.polyval(s, p) / P.polyval(s, q), want, rtol=1e-10)


def test_fingerprint_is_the_same_run_to_run_and_at_two_blas_threads():
    def run(threads):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        r = subprocess.run([sys.executable, str(SCRIPTS / "fingerprint.py")],
                           capture_output=True, text=True, timeout=300, env=env)
        assert r.returncode == 0, r.stderr
        return json.loads(r.stdout)

    first = run("1")
    assert sorted(first) == [f"micro_{flags}.{what}" for flags in ("DDDD", "NNNN")
                             for what in ("grads", "logits", "loss", "train4_params")]
    assert run("1") == first
    assert run("2") == first
