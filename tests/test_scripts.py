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
    # the paired t-test against DDDD/dual: blank for the reference itself,
    # and blank or a p-value for every other variant
    p = [row["p_vs_DDDD_dual"] for row in rows]
    assert p[2] == ""
    assert all(v == "" or 0.0 <= float(v) <= 1.0 for v in p)


def test_ablation_sweep_refuses_an_empty_holdout(tmp_path):
    r = _run("ablation_sweep.py", tmp_path / "abl", "--samples", "8", "--holdout", "0")
    assert r.returncode == 2 and "--holdout must be at least 1" in r.stderr
    assert not (tmp_path / "abl").exists()


def test_desk_benchmark_refuses_an_empty_holdout(tmp_path):
    r = _run("run_desk_benchmark.py", tmp_path / "desk", "--samples", "4",
             "--holdout", "0", "--batch", "2")
    assert r.returncode == 2 and "--holdout must be at least 1" in r.stderr
    assert not (tmp_path / "desk").exists()


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
    assert sorted(first) == sorted(
        [f"micro_{variant}.{what}" for variant in ("DDDD", "NNNN", "DNDN_sum", "DDDD_clamp")
         for what in ("ckpt", "grads", "logits", "loss", "traces", "train4_params")]
        + [f"default_224.{what}" for what in ("ckpt", "grads", "logits", "loss")]
        + [f"explain_enc1.{name}" for name in
           ("attn.pgm", "attn.sdt", "field.ppm", "gradcam.pgm", "points.csv")]
        + ["eval.csv", "infer.mask.sdt", "infer.preview.pgm"])
    assert run("1") == first
    assert run("2") == first



def test_call_counts_reports_the_same_calls_per_step_run_to_run():
    def run():
        r = subprocess.run([sys.executable, str(SCRIPTS / "call_counts.py")],
                           capture_output=True, text=True, timeout=300)
        assert r.returncode == 0, r.stderr
        return json.loads(r.stdout)

    first = run()
    assert sorted(first) == ["default_224", "micro"]
    assert all(n > 1000 for n in first.values())
    assert run() == first

def test_band_widths_reports_each_candidate_and_the_rule_pick():
    r = subprocess.run([sys.executable, str(SCRIPTS / "band_widths.py"),
                        "--only", "explain.32", "--repeat", "2"],
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    assert list(report) == ["explain.32"]
    row = report["explain.32"]
    assert set(row) == {"shape", "k", "ms", "pick", "fastest"}
    assert row["shape"] == [1, 8, 32, 32] and row["k"] == 7
    assert sorted(row["ms"], key=int) == ["8", "16", "32"]
    assert row["pick"] == 32 and str(row["fastest"]) in row["ms"]
