"""Overlap and boundary-distance metrics plus a paired t-test.

HD95 uses boundary pixels (4-connectivity; pixels on the image edge count
as boundary), exact Euclidean distances between every pair of them (plain
numpy in blocks of a fixed pair count, equal to scipy's cdist bit for bit),
and the max of the two directed 95th percentiles, linearly interpolated.  When
either mask is empty the distance is undefined: such cases return None and
aggregation reports how many were excluded rather than folding in a fake
number.

The t-test p-value comes from scipy's regularized incomplete beta
function, imported when a p-value is asked for: `paired_t_test` is the one
scipy user in the package, and no CLI command loads scipy.
"""

from __future__ import annotations

import csv
import math

import numpy as np

_PAIR_BUDGET = 2**20  # boundary-point pairs per HD95 distance block (~32 MiB)


def _as_bool(mask) -> np.ndarray:
    m = np.asarray(mask)
    if m.ndim != 2:
        raise ValueError(f"mask must be 2-D, got {m.shape}")
    return m.astype(bool)


def dsc(pred, gt) -> float:
    """2|A∩B| / (|A|+|B|); two empty masks agree perfectly (1.0)."""
    a, b = _as_bool(pred), _as_bool(gt)
    if a.shape != b.shape:
        raise ValueError(f"mask shapes differ: {a.shape} vs {b.shape}")
    denom = int(a.sum()) + int(b.sum())
    if denom == 0:
        return 1.0
    return 2.0 * int((a & b).sum()) / denom


def boundary_points(mask) -> np.ndarray:
    """(n, 2) coordinates of pixels with a 4-neighbor outside the mask;
    the image border counts as outside."""
    m = _as_bool(mask)
    mp = np.pad(m, 1)
    interior = (
        mp[1:-1, :-2] & mp[1:-1, 2:] & mp[:-2, 1:-1] & mp[2:, 1:-1]
    )
    return np.argwhere(m & ~interior).astype(np.float64)


def hd95(pred, gt, spacing=(1.0, 1.0)) -> float | None:
    """Symmetric 95th-percentile boundary distance; None when undefined."""
    a, b = _as_bool(pred), _as_bool(gt)
    if a.shape != b.shape:
        raise ValueError(f"mask shapes differ: {a.shape} vs {b.shape}")
    if not a.any() or not b.any():
        return None
    sp = np.asarray(spacing, dtype=np.float64)
    pa = boundary_points(a) * sp
    pb = boundary_points(b) * sp
    # blocks of A's rows bound the memory; exact minima fold to the full matrix's bits
    rows = max(1, _PAIR_BUDGET // len(pb))
    a_min, b_min = [], np.inf
    for i in range(0, len(pa), rows):
        d = np.sqrt(((pa[i:i + rows, None] - pb[None]) ** 2).sum(-1))
        a_min.append(d.min(axis=1))
        b_min = np.minimum(b_min, d.min(axis=0))
    return float(max(np.percentile(np.concatenate(a_min), 95), np.percentile(b_min, 95)))


# -- paired t-test --------------------------------------------------------------

def t_sf_two_sided(t: float, dof: int) -> float:
    """P(|T| >= |t|) for Student's t with `dof` degrees of freedom."""
    if dof < 1:
        raise ValueError("dof must be >= 1")
    from scipy.special import betainc

    x = dof / (dof + t * t)
    return float(betainc(dof / 2.0, 0.5, x))


def paired_t_test(a, b) -> tuple[float, float]:
    """(t statistic, two-sided p) on paired differences a - b."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("need two equal-length 1-D sequences")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("paired t-test needs finite values")
    n = a.size
    if n < 2:
        raise ValueError("need at least 2 pairs")
    d = a - b
    sd = d.std(ddof=1)
    if sd == 0.0:
        raise ValueError("zero variance in differences: t undefined")
    t = float(d.mean() / (sd / math.sqrt(n)))
    return t, t_sf_two_sided(t, n - 1)


# -- per-case evaluation ----------------------------------------------------------

def evaluate_pairs(preds, gts, classes: int, spacing=(1.0, 1.0)
                   ) -> tuple[list[dict], dict]:
    """Per-(case, foreground class) DSC/HD95 rows plus aggregate summary.

    summary[c] holds mean_dsc, mean_hd95 over the defined cases, and the
    count of hd95 exclusions; summary["avg"] averages the per-class means.
    """
    if len(preds) != len(gts):
        raise ValueError("pred/gt case counts differ")
    rows = []
    for i, (p, g) in enumerate(zip(preds, gts)):
        for c in range(1, classes):
            pm, gm = np.asarray(p) == c, np.asarray(g) == c
            rows.append({
                "case": i,
                "class": c,
                "dsc": dsc(pm, gm),
                "hd95": hd95(pm, gm, spacing),
            })
    summary: dict = {}
    for c in range(1, classes):
        sub = [r for r in rows if r["class"] == c]
        hds = [r["hd95"] for r in sub if r["hd95"] is not None]
        summary[c] = {
            "mean_dsc": float(np.mean([r["dsc"] for r in sub])) if sub else None,
            "mean_hd95": float(np.mean(hds)) if hds else None,
            "hd95_excluded": len(sub) - len(hds),
        }
    per_class = [v for v in summary.values() if v["mean_dsc"] is not None]
    defined_hd = [v["mean_hd95"] for v in per_class if v["mean_hd95"] is not None]
    summary["avg"] = {
        "mean_dsc": float(np.mean([v["mean_dsc"] for v in per_class]))
        if per_class else None,
        "mean_hd95": float(np.mean(defined_hd)) if defined_hd else None,
        "hd95_excluded": sum(v["hd95_excluded"] for v in per_class),
    }
    return rows, summary


def write_eval_csv(path, rows, summary) -> None:
    """`case,class,dsc,hd95` rows; undefined hd95 left blank; aggregate
    rows appended with case=mean / case=excluded_hd95."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["case", "class", "dsc", "hd95"])
        for r in rows:
            hd = "" if r["hd95"] is None else f"{r['hd95']:.6f}"
            w.writerow([r["case"], r["class"], f"{r['dsc']:.6f}", hd])
        for c, s in summary.items():
            hd = "" if s["mean_hd95"] is None else f"{s['mean_hd95']:.6f}"
            ds = "" if s["mean_dsc"] is None else f"{s['mean_dsc']:.6f}"
            w.writerow(["mean", c, ds, hd])
            w.writerow(["excluded_hd95", c, "", s["hd95_excluded"]])
