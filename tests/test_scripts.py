"""Smoke runs of the scripts under scripts/ with tiny arguments, so a change
to the package API cannot break them silently."""

import csv
import json
import subprocess
import sys
from pathlib import Path

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
